"""Token id datasets, vocabulary usage counting, and dense-id remapping.

The pipeline starts from integer token sequences produced by some external
tokenizer. Scanning them yields per-id occurrence counts, from which the
set of ids actually used is derived. A remap table then assigns each kept
id a dense id in ``0..n_kept-1`` so datasets and embedding rows can be
rewritten compactly and restored later.

A dataset is stored flat, like an Arrow list array: one contiguous uint32
``tokens`` array with every id in dataset order, plus an int64 ``offsets``
array in which sequence ``i`` is ``tokens[offsets[i]:offsets[i + 1]]``.
Validation, counting and remapping are whole-array numpy operations; a
flat position is turned back into a (sequence, position) pair only to
report an error.

All types are immutable after construction (arrays are stored as read-only
views) and safe to share between threads. Counting runs on one thread over
fixed-size slices of ``tokens``, so its temporaries stay bounded whatever
the corpus size.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import KeepTokenOutOfRange, OutOfRangeToken, UnmappedToken

TOKEN_DTYPE = np.uint32
# 64-bit counts, as bincount returns them: corpora can exceed 2**32 tokens.
COUNT_DTYPE = np.int64
# Forward-LUT entry of an id outside the remap domain; never below reduced_size.
_UNMAPPED = np.iinfo(TOKEN_DTYPE).max
# Tokens counted per bincount call; bounds its int64 temporaries.
_COUNT_CHUNK = 1 << 20


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


def _locate(offsets: np.ndarray, flat_pos: int) -> tuple[int, int]:
    """(sequence index, position in it) of a flat token position."""
    seq = int(np.searchsorted(offsets, flat_pos, side="right")) - 1
    return seq, flat_pos - int(offsets[seq])


def _check_below(tokens: np.ndarray, offsets: np.ndarray, limit: int) -> None:
    """Raise :class:`OutOfRangeToken` for the first id ``>= limit``."""
    if tokens.size and int(tokens.max()) >= limit:
        flat_pos = int(np.argmax(tokens >= limit))
        seq, pos = _locate(offsets, flat_pos)
        raise OutOfRangeToken(seq, pos, int(tokens[flat_pos]), limit)


def _flatten(sequences, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    arrays = [np.asarray(seq) for seq in sequences]
    for i, arr in enumerate(arrays):
        if arr.size and arr.ndim != 1:
            raise ValueError(f"sequence {i} is not one-dimensional")
        if arr.size and arr.dtype.kind not in "iu":
            raise TypeError(f"sequence {i} has non-integer dtype {arr.dtype}")
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([arr.size for arr in arrays], dtype=np.int64)
    nonempty = [arr for arr in arrays if arr.size]
    if not nonempty:
        return np.empty(0, dtype=TOKEN_DTYPE), offsets
    # An unsigned id of 2**63 or more wraps negative here and is still rejected;
    # the error reports the caller's value.
    flat = np.concatenate(nonempty, dtype=np.int64, casting="unsafe")
    bad = np.flatnonzero((flat < 0) | (flat >= vocab_size))
    if bad.size:
        seq, pos = _locate(offsets, int(bad[0]))
        raise OutOfRangeToken(seq, pos, int(arrays[seq][pos]), vocab_size)
    return flat.astype(TOKEN_DTYPE), offsets


def _check_layout(tokens: np.ndarray, offsets: np.ndarray) -> None:
    if tokens.dtype != TOKEN_DTYPE or tokens.ndim != 1 or not tokens.flags.c_contiguous:
        raise TypeError("tokens must be a contiguous one-dimensional uint32 array")
    if offsets.dtype != np.int64 or offsets.ndim != 1 or offsets.size < 1:
        raise TypeError("offsets must be a non-empty one-dimensional int64 array")
    if offsets[0] != 0 or offsets[-1] != tokens.size or bool((offsets[1:] < offsets[:-1]).any()):
        raise ValueError("offsets must rise from 0 to len(tokens) without decreasing")


class _Flat(NamedTuple):
    tokens: np.ndarray
    offsets: np.ndarray


@dataclass(frozen=True, eq=False, init=False)
class TokenizedDataset:
    """Ragged token id sequences over a declared vocabulary size.

    Stored as two read-only arrays: ``tokens``, every id in dataset order
    as contiguous uint32, and ``offsets``, int64 with ``num_sequences + 1``
    entries, ``offsets[0] == 0``, ``offsets[-1] == tokens.size`` and never
    decreasing. Sequence ``i`` is ``tokens[offsets[i]:offsets[i + 1]]``.
    Every id is smaller than ``vocab_size``.

    ``TokenizedDataset(sequences, vocab_size)`` copies any iterable of
    one-dimensional integer sequences into this layout; :meth:`from_flat`
    adopts arrays already in it. Either way the first id outside
    ``[0, vocab_size)`` raises :class:`OutOfRangeToken` carrying its
    sequence index and position.
    """

    tokens: np.ndarray
    offsets: np.ndarray
    vocab_size: int

    def __init__(self, sequences, vocab_size: int):
        if vocab_size < 0:
            raise ValueError("vocab_size must be non-negative")
        if isinstance(sequences, _Flat):
            tokens, offsets = sequences
            _check_layout(tokens, offsets)
            _check_below(tokens, offsets, vocab_size)
        else:
            tokens, offsets = _flatten(sequences, vocab_size)
        object.__setattr__(self, "tokens", _read_only(tokens))
        object.__setattr__(self, "offsets", _read_only(offsets))
        object.__setattr__(self, "vocab_size", int(vocab_size))

    @classmethod
    def from_flat(cls, tokens: np.ndarray, offsets: np.ndarray, vocab_size: int) -> TokenizedDataset:
        """Adopt uint32 ``tokens`` and int64 ``offsets`` without copying.

        The layout and the id range are checked. The caller hands the
        arrays over and must not modify them afterwards.
        """
        return cls(_Flat(tokens, offsets), vocab_size)

    @property
    def num_sequences(self) -> int:
        return int(self.offsets.size) - 1

    @property
    def total_tokens(self) -> int:
        return int(self.tokens.size)

    @property
    def sequences(self) -> tuple[np.ndarray, ...]:
        """A read-only view of each sequence; whole-dataset code uses ``tokens``."""
        bounds = self.offsets.tolist()
        return tuple(self.tokens[a:b] for a, b in zip(bounds, bounds[1:]))

    def to_lists(self) -> list[list[int]]:
        ids, bounds = self.tokens.tolist(), self.offsets.tolist()
        return [ids[a:b] for a, b in zip(bounds, bounds[1:])]

    def __eq__(self, other: object):
        if not isinstance(other, TokenizedDataset):
            return NotImplemented
        return (
            self.vocab_size == other.vocab_size
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.tokens, other.tokens)
        )


@dataclass(frozen=True, eq=False)
class FrequencyTable:
    """Per-id occurrence counts over a corpus.

    ``counts[i]`` is the number of occurrences of id ``i``; the used
    vocabulary is the set of ids with nonzero counts.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.counts)
        if arr.size == 0:
            arr = np.empty(0, dtype=COUNT_DTYPE)
        if arr.ndim != 1:
            raise ValueError("counts must be one-dimensional")
        if arr.dtype.kind not in "iu":
            raise TypeError(f"counts must be integers, got dtype {arr.dtype}")
        arr = np.ascontiguousarray(arr, dtype=COUNT_DTYPE)  # a uint64 count past int64 wraps negative
        if arr.size and bool((arr < 0).any()):
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", _read_only(arr))

    @property
    def vocab_size(self) -> int:
        return int(self.counts.size)

    @cached_property
    def total_tokens(self) -> int:
        return int(self.counts.sum())

    @cached_property
    def used_ids(self) -> np.ndarray:
        """Ids with nonzero counts, ascending (the used vocabulary)."""
        return _read_only(np.flatnonzero(self.counts > 0))

    @property
    def used_count(self) -> int:
        return int(self.used_ids.size)

    def __eq__(self, other: object):
        if not isinstance(other, FrequencyTable):
            return NotImplemented
        return np.array_equal(self.counts, other.counts)


class RemapOrdering(str, Enum):
    """Dense id assignment order for the remap bijection."""

    ASCENDING_ID = "ascending_id"
    FREQUENCY_DESCENDING = "frequency_descending"


@dataclass(frozen=True, eq=False)
class RemapTable:
    """Bijection between kept original ids and dense ids ``0..n-1``.

    ``inverse[dense_id]`` is the original id assigned to ``dense_id``.
    ``ordering`` records how dense ids were assigned, ``keep_tokens`` which
    ids were retained regardless of occurrence; each must be a mapped id.
    """

    original_vocab_size: int
    inverse: np.ndarray
    ordering: RemapOrdering = RemapOrdering.ASCENDING_ID
    keep_tokens: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.original_vocab_size < 0:
            raise ValueError("original_vocab_size must be non-negative")
        arr = np.asarray(self.inverse)
        if arr.size == 0:
            arr = np.empty(0, dtype=TOKEN_DTYPE)
        if arr.ndim != 1:
            raise ValueError("inverse must be one-dimensional")
        if arr.size:
            for extreme in (int(arr.min()), int(arr.max())):
                if not 0 <= extreme < self.original_vocab_size:
                    raise ValueError(f"id {extreme} is outside the original vocab_size {self.original_vocab_size}")
            ids = np.sort(arr)
            repeated = ids[1:][ids[1:] == ids[:-1]]
            if repeated.size:
                raise ValueError(f"id {int(repeated[0])} is mapped twice (mapping must be bijective)")
        keep = tuple(int(t) for t in self.keep_tokens)
        unmapped = set(keep).difference(arr.tolist() if keep else ())
        if unmapped:
            raise ValueError(f"keep token {min(unmapped)} is not a mapped id")
        object.__setattr__(self, "inverse", _read_only(np.ascontiguousarray(arr, dtype=TOKEN_DTYPE)))
        object.__setattr__(self, "ordering", RemapOrdering(self.ordering))
        object.__setattr__(self, "keep_tokens", keep)

    @property
    def reduced_size(self) -> int:
        return int(self.inverse.size)

    @cached_property
    def _forward_lut(self) -> np.ndarray:
        # Dense ids over the full original vocab plus one last entry for every
        # id beyond it, uint32 so a gather through it needs no wider temporary;
        # unmapped ids hold _UNMAPPED.
        lut = np.full(self.original_vocab_size + 1, _UNMAPPED, dtype=TOKEN_DTYPE)
        lut[self.inverse] = np.arange(self.reduced_size, dtype=TOKEN_DTYPE)
        return _read_only(lut)

    def __eq__(self, other: object):
        if not isinstance(other, RemapTable):
            return NotImplemented
        return (
            self.original_vocab_size == other.original_vocab_size
            and self.ordering is other.ordering
            and self.keep_tokens == other.keep_tokens
            and np.array_equal(self.inverse, other.inverse)
        )


def scan_dataset(dataset: TokenizedDataset) -> FrequencyTable:
    """Count occurrences of every vocabulary id across the whole dataset."""
    tokens, vocab_size = dataset.tokens, dataset.vocab_size
    counts = np.zeros(vocab_size, dtype=COUNT_DTYPE)
    for start in range(0, tokens.size, _COUNT_CHUNK):
        counts += np.bincount(tokens[start:start + _COUNT_CHUNK], minlength=vocab_size)
    return FrequencyTable(counts)


def scan_dataset_parallel(dataset: TokenizedDataset, partitions: int | None = None) -> FrequencyTable:
    """:func:`scan_dataset`, for callers that pass a partition count.

    ``partitions`` (``>= 1`` when given) is accepted for compatibility and
    never changes the result; counting runs on one thread in bounded slices.
    """
    if partitions is not None and partitions < 1:
        raise ValueError("partitions must be >= 1")
    return scan_dataset(dataset)


def build_remap(
    freqs: FrequencyTable,
    ordering: RemapOrdering = RemapOrdering.ASCENDING_ID,
    keep_tokens: Iterable[int] = (),
) -> RemapTable:
    """Assign dense ids to every used id plus the explicit keep set.

    ``ASCENDING_ID`` preserves the original relative order and is stable
    across corpora with equal used sets. ``FREQUENCY_DESCENDING`` places
    frequent ids first (ties broken by ascending original id; keep tokens
    that never occur sort as count zero), which can improve memory
    locality on skewed corpora.
    """
    ordering = RemapOrdering(ordering)
    keep = sorted({int(t) for t in keep_tokens})
    for token in keep:
        if token < 0 or token >= freqs.vocab_size:
            raise KeepTokenOutOfRange(token, freqs.vocab_size)
    domain = np.union1d(freqs.used_ids, np.asarray(keep, dtype=np.int64))
    if ordering is RemapOrdering.FREQUENCY_DESCENDING and domain.size:
        # Stable sort on a domain already ascending by id gives the id tie-break.
        domain = domain[np.argsort(-freqs.counts[domain], kind="stable")]
    return RemapTable(freqs.vocab_size, domain, ordering, tuple(keep))


def apply_remap(dataset: TokenizedDataset, remap: RemapTable) -> TokenizedDataset:
    """Rewrite every original token id to its dense id in ``remap``.

    Sequence structure is preserved exactly; the output declares the
    reduced vocabulary size. An id outside the mapping domain raises
    :class:`UnmappedToken`, which signals a remap built from a different
    corpus.
    """
    tokens, lut = dataset.tokens, remap._forward_lut
    if tokens.size and int(tokens.max()) >= lut.size:  # only a foreign corpus gets here
        tokens = np.minimum(tokens, lut.size - 1)
    try:
        return TokenizedDataset.from_flat(lut[tokens], dataset.offsets, remap.reduced_size)
    except OutOfRangeToken as err:  # report the original id, not its _UNMAPPED entry
        flat_pos = int(dataset.offsets[err.sequence_index]) + err.position
        raise UnmappedToken(err.sequence_index, err.position, int(dataset.tokens[flat_pos])) from None


def invert_remap(dataset: TokenizedDataset, remap: RemapTable) -> TokenizedDataset:
    """Undo :func:`apply_remap` by substituting ``inverse[id]`` for each id."""
    _check_below(dataset.tokens, dataset.offsets, remap.reduced_size)
    return TokenizedDataset.from_flat(
        remap.inverse[dataset.tokens], dataset.offsets, remap.original_vocab_size
    )
