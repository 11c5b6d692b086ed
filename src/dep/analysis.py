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

from .errors import DegenerateFit, InsufficientPoints
from .vocab import FrequencyTable, TokenizedDataset, _vocab_arrays

CheckpointPolicy = Union[str, Iterable[int]]


@dataclass(frozen=True)
class GrowthCurve:
    """Distinct-id counts sampled along a token stream.

    Each point is ``(tokens_seen, unique_tokens)``. Token positions are
    strictly increasing, distinct counts never decrease, and every count
    is bounded by both the position and the vocabulary size.
    """

    points: tuple[tuple[int, int], ...]
    vocab_size: int

    def __post_init__(self) -> None:
        points = tuple((int(n), int(u)) for n, u in self.points)
        object.__setattr__(self, "points", points)
        prev_n, prev_u = 0, 0
        for n, u in points:
            if n <= prev_n:
                raise ValueError(f"tokens_seen must be strictly increasing, got {n} after {prev_n}")
            if u < prev_u:
                raise ValueError(f"unique_tokens must be non-decreasing, got {u} after {prev_u}")
            if u > min(n, self.vocab_size):
                raise ValueError(
                    f"unique_tokens {u} exceeds min(tokens_seen={n}, vocab_size={self.vocab_size})"
                )
            prev_n, prev_u = n, u

    @property
    def final_unique(self) -> int:
        return self.points[-1][1] if self.points else 0


@dataclass(frozen=True)
class HeapsFit:
    """Power-law parameters ``V(n) = k * n**beta`` with the log-space residual."""

    k: float
    beta: float
    rmse_log: float


def _resolve_checkpoints(policy: CheckpointPolicy, total: int) -> list[int]:
    if total == 0:
        return []
    if isinstance(policy, str):
        if policy == "pow2":
            out = []
            n = 1
            while n < total:
                out.append(n)
                n *= 2
            out.append(total)
            return out
        if policy == "all":
            return list(range(1, total + 1))
        raise ValueError(f"unknown checkpoint policy {policy!r}")
    out = sorted({int(n) for n in policy if 1 <= int(n) <= total})
    if not out or out[-1] != total:
        out.append(total)
    return out


def growth_curve(dataset: TokenizedDataset, checkpoints: CheckpointPolicy = "pow2") -> GrowthCurve:
    """Distinct-id counts at checkpoint positions along the token stream.

    Stream order is canonical: sequences as stored, positions left to
    right. The final point always sits at the total token count, so its
    distinct count equals the used-vocabulary size. ``checkpoints`` is
    ``"pow2"`` (powers of two plus the final count, the default),
    ``"all"`` (every position), or an explicit iterable of positions
    (values beyond the stream are dropped).
    """
    positions = _resolve_checkpoints(checkpoints, dataset.total_tokens)
    if not positions:
        return GrowthCurve((), dataset.vocab_size)
    first = _first_positions(dataset.tokens, dataset.vocab_size)
    # Ids seen within the first n tokens are those whose first position is below n.
    counts = np.searchsorted(first, positions).tolist()
    return GrowthCurve(tuple(zip(positions, counts)), dataset.vocab_size)


_SCAN_CHUNK = 1 << 16


def _first_positions(stream: np.ndarray, vocab_size: int) -> np.ndarray:
    """Stream position of each distinct id's first occurrence, ascending.

    One pass over fixed-size chunks with a ``seen`` mask over the
    vocabulary. Only the not-yet-seen ids of a chunk are sorted, to keep
    the earliest of a repeated new id, so past the first chunks the pass
    is linear in the stream; it never sorts the whole stream.
    """
    with _vocab_arrays(vocab_size):
        seen = np.zeros(vocab_size, dtype=bool)
    found = []
    for start in range(0, stream.size, _SCAN_CHUNK):
        chunk = stream[start:start + _SCAN_CHUNK]
        new = np.flatnonzero(~seen[chunk])
        if new.size:
            ids = chunk[new]
            _, first = np.unique(ids, return_index=True)
            first.sort()
            seen[ids] = True
            found.append(new[first] + start)
    return np.concatenate(found) if found else np.empty(0, dtype=np.int64)


def fit_heaps(curve: GrowthCurve | Iterable[tuple[int, int]]) -> HeapsFit:
    """Ordinary least squares fit of ``log V = log k + beta * log n``.

    Accepts a :class:`GrowthCurve` or raw ``(tokens, unique)`` pairs.
    Points with a zero coordinate are skipped (their logs are undefined);
    fewer than two usable points raise :class:`InsufficientPoints`, and
    zero variance in token counts raises :class:`DegenerateFit`.
    """
    points = curve.points if isinstance(curve, GrowthCurve) else tuple(curve)
    usable = [(n, u) for n, u in points if n >= 1 and u >= 1]
    if len(usable) < 2:
        raise InsufficientPoints(len(usable))
    log_n = np.log([float(n) for n, _ in usable])
    log_v = np.log([float(u) for _, u in usable])
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
