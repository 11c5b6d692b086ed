"""On-disk formats for datasets, embedding matrices, remaps, and reports.

All binary layouts are little-endian.

Dataset, magic ``DEPT``::

    4s  magic        b"DEPT"
    u32 version      1
    u64 vocab_size
    u64 num_sequences
    per sequence: u32 length, then that many u32 token ids

Embedding matrix, magic ``DEPE``::

    4s  magic        b"DEPE"
    u32 version      1
    u8  dtype code   1 = 32-bit real
    u64 rows
    u64 cols
    row-major payload, rows * cols * 4 bytes

A dataset path ending in ``.txt`` uses the text form instead: one sequence
per line, space-separated decimal ids (an empty line is an empty sequence).
Text is meant for fixtures and debugging, binary for large corpora.

Remaps are JSON objects ``{original_vocab_size, ordering, keep_tokens,
pairs}`` with ``pairs`` as ``[original_id, dense_id]`` sorted by dense id;
JSON keeps them auditable and they hold at most one pair per vocabulary
entry. Writers emit a fixed key order so identical inputs give identical
bytes.
"""

from __future__ import annotations

import json
import operator
import os
import struct
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .analysis import GrowthCurve
from .embeddings import EmbeddingMatrix
from .errors import (
    BadMagic,
    FormatError,
    InconsistentInputs,
    OutOfRangeToken,
    RemapInconsistent,
    UnsupportedVersion,
)
from .metrics import ModelConfig, PruneReport
from .vocab import TOKEN_DTYPE, RemapOrdering, RemapTable, TokenizedDataset, _locate

DATASET_MAGIC = b"DEPT"
EMBEDDINGS_MAGIC = b"DEPE"
FORMAT_VERSION = 1
DTYPE_FLOAT32 = 1

_DATASET_HEADER = struct.Struct("<4sIQQ")
_EMBEDDINGS_HEADER = struct.Struct("<4sIBQQ")
_MAX_VOCAB_SIZE = 2**32  # ids are u32
_WRITE_CHUNK_WORDS = 1 << 20  # bounds the writer's temporaries


def _read_exact(handle: BinaryIO, size: int, what: str) -> bytes:
    data = handle.read(size)
    if len(data) != size:
        raise FormatError(f"unexpected end of file while reading {what}")
    return data


def _check_trailing(handle: BinaryIO) -> None:
    if handle.read(1):
        raise FormatError("trailing data after declared content")


def _check_vocab_size(vocab_size: int, name: str = "vocab_size") -> None:
    # Counting allocates one slot per id, so an outside vocab_size is capped first.
    if not 0 <= vocab_size <= _MAX_VOCAB_SIZE:
        raise FormatError(f"{name} {vocab_size} is outside the u32 id range 0..{_MAX_VOCAB_SIZE}")


def is_text_dataset(path) -> bool:
    """Whether a dataset path uses the text form (a ``.txt`` suffix)."""
    return str(path).endswith(".txt")


def write_dataset_binary(dataset: TokenizedDataset, path) -> None:
    tokens, offsets = dataset.tokens, dataset.offsets
    # Body word index of each sequence's length word; the last entry is the body size.
    starts = offsets + np.arange(offsets.size)
    with open(path, "wb") as handle:
        handle.write(
            _DATASET_HEADER.pack(
                DATASET_MAGIC, FORMAT_VERSION, dataset.vocab_size, dataset.num_sequences
            )
        )
        i, n = 0, dataset.num_sequences
        while i < n:
            # Whole sequences, at most _WRITE_CHUNK_WORDS words unless one sequence is longer.
            j = max(i + 1, int(np.searchsorted(starts, starts[i] + _WRITE_CHUNK_WORDS, "right")) - 1)
            words = np.empty(int(starts[j] - starts[i]), dtype="<u4")
            is_length = np.zeros(words.size, dtype=bool)
            is_length[starts[i:j] - starts[i]] = True
            words[is_length] = np.diff(offsets[i:j + 1])
            words[~is_length] = tokens[offsets[i]:offsets[j]]
            handle.write(memoryview(words))
            i = j


def read_dataset_binary(path) -> TokenizedDataset:
    with open(path, "rb") as handle:
        header = _read_exact(handle, _DATASET_HEADER.size, "dataset header")
        magic, version, vocab_size, num_sequences = _DATASET_HEADER.unpack(header)
        if magic != DATASET_MAGIC:
            raise BadMagic(DATASET_MAGIC, magic)
        if version != FORMAT_VERSION:
            raise UnsupportedVersion(version, FORMAT_VERSION)
        _check_vocab_size(vocab_size)
        body_bytes = os.fstat(handle.fileno()).st_size - _DATASET_HEADER.size
        body = np.fromfile(handle, dtype="<u4").astype(TOKEN_DTYPE, copy=False)
    if num_sequences > body.size:
        raise FormatError(
            f"header declares {num_sequences} sequences but the body holds only {body.size} words"
        )
    # Walk the length words: sequence i's length is body word length_at[i].
    length_at = np.empty(num_sequences, dtype=np.int64)
    words, starts = memoryview(body), memoryview(length_at)
    pos = 0
    try:
        for i in range(num_sequences):
            starts[i] = pos
            pos += words[pos] + 1
    except IndexError:
        raise FormatError(f"unexpected end of file while reading sequence {i} length") from None
    if pos > body.size:
        raise FormatError(f"unexpected end of file while reading sequence {num_sequences - 1} ids")
    if pos < body.size or body_bytes % 4:
        raise FormatError("trailing data after declared content")
    offsets = np.zeros(num_sequences + 1, dtype=np.int64)
    np.cumsum(body[length_at], dtype=np.int64, out=offsets[1:])
    is_token = np.ones(body.size, dtype=bool)
    is_token[length_at] = False
    return TokenizedDataset.from_flat(body[is_token], offsets, int(vocab_size))


def write_dataset_text(dataset: TokenizedDataset, path) -> None:
    lines = [" ".join(map(str, ids)) + "\n" for ids in dataset.to_lists()]
    Path(path).write_text("".join(lines), encoding="utf-8")


def read_dataset_text(path, vocab_size: int | None = None) -> TokenizedDataset:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    ids: list[int] = []
    lengths = []
    for line_no, line in enumerate(lines, start=1):
        fields = line.split()
        try:
            ids.extend(map(int, fields))
        except ValueError:
            raise FormatError(f"line {line_no}: token ids must be decimal integers") from None
        lengths.append(len(fields))
    lo, hi = (min(ids), max(ids)) if ids else (0, -1)
    if vocab_size is None:
        vocab_size = max(hi + 1, 0)
    _check_vocab_size(vocab_size)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(lengths, dtype=np.int64)
    # Range-check in Python so the list converts straight to uint32.
    if lo < 0 or hi >= vocab_size:
        flat_pos = next(k for k, t in enumerate(ids) if t < 0 or t >= vocab_size)
        seq, pos = _locate(offsets, flat_pos)
        raise OutOfRangeToken(seq, pos, ids[flat_pos], vocab_size)
    return TokenizedDataset.from_flat(np.array(ids, dtype=TOKEN_DTYPE), offsets, vocab_size)


def write_dataset(dataset: TokenizedDataset, path) -> None:
    """Text form for ``.txt`` paths, binary otherwise."""
    if is_text_dataset(path):
        write_dataset_text(dataset, path)
    else:
        write_dataset_binary(dataset, path)


def read_dataset(path, vocab_size: int | None = None) -> TokenizedDataset:
    """Read either dataset form, selected by the ``.txt`` suffix.

    For text files ``vocab_size`` defaults to ``max id + 1``. For binary
    files the header value is authoritative; passing a different
    ``vocab_size`` raises :class:`InconsistentInputs`.
    """
    if is_text_dataset(path):
        return read_dataset_text(path, vocab_size)
    dataset = read_dataset_binary(path)
    if vocab_size is not None and vocab_size != dataset.vocab_size:
        raise InconsistentInputs(
            "requested vocab_size", vocab_size, "dataset file vocab_size", dataset.vocab_size
        )
    return dataset


def write_embeddings(matrix: EmbeddingMatrix, path) -> None:
    with open(path, "wb") as handle:
        handle.write(
            _EMBEDDINGS_HEADER.pack(
                EMBEDDINGS_MAGIC, FORMAT_VERSION, DTYPE_FLOAT32, matrix.rows, matrix.dim
            )
        )
        handle.write(memoryview(np.ascontiguousarray(matrix.data, dtype="<f4")))


def read_embeddings(path) -> EmbeddingMatrix:
    with open(path, "rb") as handle:
        header = _read_exact(handle, _EMBEDDINGS_HEADER.size, "embeddings header")
        magic, version, dtype_code, rows, cols = _EMBEDDINGS_HEADER.unpack(header)
        if magic != EMBEDDINGS_MAGIC:
            raise BadMagic(EMBEDDINGS_MAGIC, magic)
        if version != FORMAT_VERSION:
            raise UnsupportedVersion(version, FORMAT_VERSION)
        if dtype_code != DTYPE_FLOAT32:
            raise FormatError(f"unsupported dtype code {dtype_code}")
        if cols < 1:
            raise FormatError(f"embedding dim must be >= 1, got {cols}")
        payload_size = 4 * rows * cols
        available = os.fstat(handle.fileno()).st_size - _EMBEDDINGS_HEADER.size
        if payload_size > available:
            raise FormatError(
                f"header declares a {rows} x {cols} matrix but the file holds only {available} payload bytes"
            )
        payload = _read_exact(handle, payload_size, "embedding payload")
        _check_trailing(handle)
    data = np.frombuffer(payload, dtype="<f4").reshape(int(rows), int(cols))
    return EmbeddingMatrix(data)


def remap_to_json(remap: RemapTable) -> str:
    pairs = [[int(orig), dense] for dense, orig in enumerate(remap.inverse.tolist())]
    obj = {
        "original_vocab_size": remap.original_vocab_size,
        "ordering": remap.ordering.value,
        "keep_tokens": list(remap.keep_tokens),
        "pairs": pairs,
    }
    return json.dumps(obj, indent=2) + "\n"


def write_remap(remap: RemapTable, path) -> None:
    Path(path).write_text(remap_to_json(remap), encoding="utf-8")


def read_remap(path) -> RemapTable:
    """Malformed JSON raises :class:`FormatError`, non-bijective pairs :class:`RemapInconsistent`."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as err:  # also undecodable UTF-8
        raise FormatError(f"remap file is not valid JSON: {err}") from None
    if not isinstance(obj, dict):
        raise FormatError("remap file must be a JSON object")
    for key in ("original_vocab_size", "ordering", "keep_tokens", "pairs"):
        if key not in obj:
            raise FormatError(f"remap file missing key {key!r}")
    try:
        ordering = RemapOrdering(obj["ordering"])
    except ValueError:
        raise FormatError(f"unknown ordering {obj['ordering']!r}") from None
    try:
        original_vocab_size = operator.index(obj["original_vocab_size"])
        keep_tokens = tuple(map(operator.index, obj["keep_tokens"]))
    except TypeError:
        raise FormatError("remap original_vocab_size and keep_tokens must be integers") from None
    _check_vocab_size(original_vocab_size, "original_vocab_size")
    try:  # np.asarray([]) has shape (0,), but an empty remap is valid
        pairs = np.asarray(obj["pairs"]) if obj["pairs"] != [] else np.empty((0, 2), dtype=np.int64)
    except ValueError:  # ragged
        pairs = np.empty(0)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
        raise FormatError("remap pairs must be a list of [original_id, dense_id] integer pairs")
    dense = pairs[:, 1]
    if not np.array_equal(np.sort(dense), np.arange(dense.size)):
        raise RemapInconsistent(f"dense ids must cover 0..{dense.size - 1} exactly once")
    inverse = np.empty(dense.size, dtype=pairs.dtype)
    inverse[dense] = pairs[:, 0]
    try:
        return RemapTable(original_vocab_size, inverse, ordering, keep_tokens)
    except ValueError as err:
        raise RemapInconsistent(str(err)) from None


def report_to_json(report: PruneReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2) + "\n"


def write_report(report: PruneReport, path) -> None:
    Path(path).write_text(report_to_json(report), encoding="utf-8")


def read_report(path) -> PruneReport:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise FormatError(f"report file is not valid JSON: {err}") from None
    try:
        return PruneReport.from_json_dict(obj)
    except KeyError as err:
        raise FormatError(f"report file missing key {err}") from None


def write_growth_csv(curve: GrowthCurve, path) -> None:
    lines = ["tokens,unique"] + [f"{n},{u}" for n, u in curve.points]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def read_growth_csv(path) -> list[tuple[int, int]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "tokens,unique":
        raise FormatError("growth curve CSV must start with header 'tokens,unique'")
    points = []
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        try:
            points.append((int(fields[0]), int(fields[1])))
        except (IndexError, ValueError):
            raise FormatError(f"line {line_no}: expected 'tokens,unique' integers") from None
    return points


def write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


_CONFIG_REQUIRED = ("vocab_size", "d_model", "num_layers", "num_heads")
_CONFIG_OPTIONAL = ("ffn_dim", "max_positions", "type_vocab", "has_pooler", "name")


def read_model_config(path) -> ModelConfig:
    """Model configuration JSON; ``name`` defaults to the file stem."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as err:  # also undecodable UTF-8
        raise FormatError(f"model config is not valid JSON: {err}") from None
    if not isinstance(obj, dict):
        raise FormatError("model config must be a JSON object")
    unknown = sorted(set(obj) - set(_CONFIG_REQUIRED) - set(_CONFIG_OPTIONAL))
    if unknown:
        raise FormatError(f"model config has unknown keys: {', '.join(unknown)}")
    missing = sorted(set(_CONFIG_REQUIRED) - set(obj))
    if missing:
        raise FormatError(f"model config missing keys: {', '.join(missing)}")
    kwargs = {key: obj[key] for key in obj}
    kwargs.setdefault("name", Path(path).stem)
    try:
        return ModelConfig(**kwargs)
    except (TypeError, ValueError) as err:
        raise FormatError(f"invalid model config: {err}") from None
