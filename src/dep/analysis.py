"""Vocabulary usage statistics: growth curves, power-law fits, coverage.

These answer "how much of the vocabulary does this corpus actually use"
before any pruning happens. Distinct-token growth along the stream tends
to flatten with corpus size (diminishing new vocabulary), yet is always
bounded by the finite vocabulary itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from . import vocab
from .errors import DegenerateFit, InsufficientPoints
from .vocab import FrequencyTable, TokenizedDataset, _read_only, _vocab_arrays

CheckpointPolicy = Union[str, Iterable[int]]


@dataclass(frozen=True, eq=False, init=False)
class GrowthCurve:
    """Distinct-id counts sampled along a token stream, as read-only int64 arrays ``tokens`` and ``unique``.

    Built from ``(tokens_seen, unique_tokens)`` pairs or an ``n x 2`` array, an int64 one not copied.
    Token positions strictly increase, distinct counts never decrease, and every count is bounded by
    both the position and the vocabulary size.
    """

    tokens: np.ndarray
    unique: np.ndarray
    vocab_size: int

    def __init__(self, points, vocab_size: int):
        pairs = np.asarray(points, dtype=np.int64).reshape(-1, 2)
        step = np.diff(pairs, axis=0, prepend=0)
        bad = np.column_stack((step[:, 0] <= 0, step[:, 1] < 0, pairs[:, 1] > np.minimum(pairs[:, 0], vocab_size)))
        if bad.any():
            i, rule = divmod(int(bad.argmax()), 3)  # the first bad point, by the first rule it breaks
            (n, u), (dn, du) = pairs[i].tolist(), step[i].tolist()
            raise ValueError((f"tokens_seen must be strictly increasing, got {n} after {n - dn}",
                              f"unique_tokens must be non-decreasing, got {u} after {u - du}",
                              f"unique_tokens {u} exceeds min(tokens_seen={n}, vocab_size={vocab_size})")[rule])
        object.__setattr__(self, "tokens", _read_only(pairs[:, 0]))
        object.__setattr__(self, "unique", _read_only(pairs[:, 1]))
        object.__setattr__(self, "vocab_size", int(vocab_size))

    @property
    def points(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.tokens.tolist(), self.unique.tolist()))

    @property
    def final_unique(self) -> int:
        return int(self.unique[-1]) if self.unique.size else 0

    def __eq__(self, other: object):
        if not isinstance(other, GrowthCurve):
            return NotImplemented
        return (self.vocab_size == other.vocab_size and np.array_equal(self.tokens, other.tokens)
                and np.array_equal(self.unique, other.unique))


@dataclass(frozen=True)
class HeapsFit:
    """Power-law parameters ``V(n) = k * n**beta`` with the log-space residual."""

    k: float
    beta: float
    rmse_log: float


def _resolve_checkpoints(policy: CheckpointPolicy, total: int) -> np.ndarray:
    if isinstance(policy, str):
        if policy == "all":
            return np.arange(1, total + 1, dtype=np.int64)
        if policy != "pow2":
            raise ValueError(f"unknown checkpoint policy {policy!r}")
        policy = 1 << np.arange(total.bit_length(), dtype=np.int64)
    positions = np.sort(np.append(np.asarray(list(policy), dtype=np.int64).clip(0, total), total))
    return positions[np.diff(positions, prepend=0) > 0]  # 1..total, each once; np.unique would import numpy.ma (~1 MiB)


def growth_curve(dataset: TokenizedDataset, checkpoints: CheckpointPolicy = "pow2") -> GrowthCurve:
    """Distinct-id counts at checkpoint positions along the token stream.

    Stream order is canonical: sequences as stored, positions left to
    right. The final point always sits at the total token count, so its
    distinct count equals the used-vocabulary size. ``checkpoints`` is
    ``"pow2"`` (powers of two plus the final count, the default),
    ``"all"`` (every position), or an explicit iterable of positions
    (values beyond the stream are dropped).
    """
    if not dataset.total_tokens:
        return GrowthCurve((), dataset.vocab_size)
    positions = _resolve_checkpoints(checkpoints, dataset.total_tokens)
    first = _first_positions(dataset.tokens, dataset.vocab_size)
    # Ids seen within the first n tokens are those whose first position is below n.
    return GrowthCurve(np.column_stack((positions, np.searchsorted(first, positions))), dataset.vocab_size)


def _first_positions(stream: np.ndarray, vocab_size: int) -> np.ndarray:
    """Stream position of each distinct id's first occurrence, ascending.

    One pass over blocks of the stream with a ``seen`` mask over the
    vocabulary. Only the not-yet-seen positions of a block are sorted, each
    as one uint64 key with its id above its position in the block, so the
    first key of each id holds its earliest position; past the first blocks
    the pass is linear in the stream, and it never sorts the whole stream.
    """
    with _vocab_arrays(vocab_size):
        seen = np.zeros(vocab_size, dtype=bool)
    found, block = [], vocab._BLOCK
    for start in range(0, stream.size, block):
        chunk = stream[start:start + block]
        new = np.flatnonzero(~seen[chunk])
        if new.size:
            keys = chunk[new].astype(np.uint64)
            keys <<= 32
            keys |= new.view(np.uint64)  # a block holds fewer than 2**32 positions
            del new
            keys.sort()  # under a quarter of the time of np.unique's argsort of the ids
            top = keys >> 32
            head = np.concatenate(([True], top[1:] != top[:-1]))
            seen[top[head]] = True
            first = keys[head] & 0xFFFFFFFF
            del keys, top, head
            first.sort()
            found.append(first.view(np.int64) + start)
    return np.concatenate(found) if found else np.empty(0, dtype=np.int64)


def fit_heaps(curve: GrowthCurve | Iterable[tuple[int, int]]) -> HeapsFit:
    """Ordinary least squares fit of ``log V = log k + beta * log n``.

    Accepts a :class:`GrowthCurve` or raw ``(tokens, unique)`` pairs.
    Points with a zero coordinate are skipped (their logs are undefined);
    fewer than two usable points raise :class:`InsufficientPoints`, and
    zero variance in token counts raises :class:`DegenerateFit`.
    """
    is_curve = isinstance(curve, GrowthCurve)
    n, u = (curve.tokens, curve.unique) if is_curve else np.asarray(tuple(curve), dtype=np.float64).reshape(-1, 2).T
    usable = (n >= 1) & (u >= 1)
    log_n, log_v = np.log(n[usable]), np.log(u[usable])
    if log_n.size < 2:
        raise InsufficientPoints(log_n.size)
    if bool(np.all(log_n == log_n[0])):
        raise DegenerateFit("all points share the same token count")
    beta, log_k = np.polyfit(log_n, log_v, 1)
    residuals = log_v - (log_k + beta * log_n)
    rmse = float(np.sqrt(np.mean(residuals**2)))
    return HeapsFit(k=float(np.exp(log_k)), beta=float(beta), rmse_log=rmse)


def coverage_ratio(freqs: FrequencyTable) -> float:
    """Fraction of the vocabulary that occurs at least once, in [0, 1]."""
    if freqs.vocab_size < 1:
        raise ValueError("coverage requires vocab_size >= 1")
    return freqs.used_count / freqs.vocab_size


def find_unused_tokens(freqs: FrequencyTable) -> np.ndarray:
    """Ids with zero occurrences, ascending.

    Together with the used set this partitions the vocabulary; on very
    large reference corpora the survivors here are anomalous entries that
    plausibly never occur in natural text at all.
    """
    return np.flatnonzero(freqs.counts == 0)
