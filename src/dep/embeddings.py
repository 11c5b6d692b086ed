"""Embedding matrices: row gather (prune) and row scatter (restore).

Gather and scatter are bit-exact row copies, never recomputation, so a
model restored after fine-tuning is structurally identical to the
original: rows outside the remap domain keep their original bits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .vocab import RemapTable, _read_only

STORAGE_DTYPE = np.float32  # v1 stores 32-bit reals; the file format carries a dtype code


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    """A ``rows x dim`` matrix of 32-bit reals, one row per token id.

    Data is normalized to C-contiguous float32 and exposed as a read-only
    view; the constructor does not copy writable caller arrays, so treat
    source buffers as frozen after handoff.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        if arr.ndim != 2:
            raise ValueError("embedding data must be 2-D (rows, dim)")
        if arr.shape[1] < 1:
            raise ValueError("dim must be >= 1")
        object.__setattr__(self, "data", _read_only(np.ascontiguousarray(arr, dtype=STORAGE_DTYPE)))

    @property
    def rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def dim(self) -> int:
        return int(self.data.shape[1])

    def __eq__(self, other: object):
        if not isinstance(other, EmbeddingMatrix):
            return NotImplemented
        # Bitwise comparison: NaN payloads and signed zeros must round-trip.
        return self.data.shape == other.data.shape and self.data.tobytes() == other.data.tobytes()


@dataclass(frozen=True)
class EmbeddingFile:
    """A ``DEPE`` matrix file whose header and size have been validated, payload unread."""

    path: str | os.PathLike
    rows: int
    dim: int


@dataclass(frozen=True, eq=False)
class RowPatch:
    """``base`` with row ``ids[j]`` replaced by ``learned`` row ``j``; each is a matrix or a file."""

    base: EmbeddingMatrix | EmbeddingFile
    ids: np.ndarray
    learned: EmbeddingMatrix | EmbeddingFile


def prune_embeddings(matrix: EmbeddingMatrix | EmbeddingFile, remap: RemapTable) -> EmbeddingMatrix:
    """Gather the kept rows into a compact matrix.

    Output row ``d`` is a bit-identical copy of input row ``remap.inverse[d]``;
    the input is left untouched. An empty remap yields a valid ``0 x dim``
    matrix. An :class:`EmbeddingFile` has only the kept rows read from it,
    through ``formats.read_embeddings``; the rest of the file is never loaded.
    """
    if matrix.rows != remap.original_vocab_size:
        raise ShapeMismatch(
            f"matrix has {matrix.rows} rows but remap covers vocab_size {remap.original_vocab_size}"
        )
    if isinstance(matrix, EmbeddingFile):
        from . import formats  # formats imports this module

        pruned = formats.read_embeddings(matrix.path, rows=remap.inverse)
        # The rows are checked against the file as it is now; it must still be the validated matrix.
        if formats.open_embeddings(matrix.path) != matrix:
            raise formats._changed(matrix.path)
        return pruned
    return EmbeddingMatrix(matrix.data[remap.inverse])


def restore_embeddings(
    original: EmbeddingMatrix | EmbeddingFile, learned: EmbeddingMatrix | EmbeddingFile, remap: RemapTable
) -> EmbeddingMatrix | RowPatch:
    """Scatter learned rows back to their original positions.

    Row ``inverse[j]`` of the result equals learned row ``j``; every row
    outside the remap domain equals the original bit-for-bit, keeping the
    model usable for vocabulary the pruned run never saw. An
    :class:`EmbeddingFile` on either side gives a :class:`RowPatch`, which
    ``formats.write_embeddings`` writes without holding either file whole.
    """
    if original.rows != remap.original_vocab_size:
        raise ShapeMismatch(
            f"original matrix has {original.rows} rows but remap covers "
            f"vocab_size {remap.original_vocab_size}"
        )
    if learned.rows != remap.reduced_size:
        raise ShapeMismatch(
            f"learned matrix has {learned.rows} rows but remap maps {remap.reduced_size} ids"
        )
    if original.dim != learned.dim:
        raise ShapeMismatch(f"dim mismatch: original {original.dim}, learned {learned.dim}")
    if isinstance(original, EmbeddingFile) or isinstance(learned, EmbeddingFile):
        return RowPatch(original, remap.inverse, learned)
    out = original.data.copy()
    out[remap.inverse] = learned.data
    return EmbeddingMatrix(out)
