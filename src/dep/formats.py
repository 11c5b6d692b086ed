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
Only ``\n`` ends a line; other ASCII whitespace separates ids like a space.
Text is meant for fixtures and debugging, binary for large corpora.

Remaps are JSON objects ``{original_vocab_size, ordering, keep_tokens,
pairs}`` with ``pairs`` as ``[original_id, dense_id]`` sorted by dense id;
JSON keeps them auditable and they hold at most one pair per vocabulary
entry. Writers emit a fixed key order so identical inputs give identical
bytes.

Every reader opens its input through ``_open``, so an input that cannot be
opened or read is :class:`MissingInput`; text that is not UTF-8 or not the
expected JSON object is :class:`FormatError`.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .analysis import GrowthCurve
from .embeddings import EmbeddingMatrix
from .errors import (
    BadMagic,
    FormatError,
    InconsistentInputs,
    MissingInput,
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


@contextmanager
def _open(path):
    """An input opened for reading; any OS error while opening or reading it is :class:`MissingInput`."""
    try:
        with open(path, "rb") as handle:
            yield handle
    except OSError as err:
        raise MissingInput(path, err.strerror) from None


def _read_container(path, header: struct.Struct, magic: bytes, dtype) -> tuple[tuple, np.ndarray]:
    """The header fields after magic and version, and the body as one array of 4-byte words."""
    with _open(path) as handle:
        head = handle.read(header.size)
        if len(head) != header.size:
            raise FormatError(f"unexpected end of file while reading the {magic.decode()} header")
        found, version, *fields = header.unpack(head)
        if found != magic:
            raise BadMagic(magic, found)
        if version != FORMAT_VERSION:
            raise UnsupportedVersion(version, FORMAT_VERSION)
        body_bytes = os.fstat(handle.fileno()).st_size - header.size
        if body_bytes % 4:
            raise FormatError(f"{magic.decode()} body of {body_bytes} bytes is not whole 4-byte words")
        return tuple(fields), np.fromfile(handle, dtype=dtype)


def _write_container(path, header: struct.Struct, magic: bytes, fields, chunks) -> None:
    with open(path, "wb") as handle:
        handle.write(header.pack(magic, FORMAT_VERSION, *fields))
        handle.writelines(map(memoryview, chunks))  # drops each chunk before making the next


def _read_utf8(path, what: str) -> str:
    with _open(path) as handle:
        try:
            return handle.read().decode("utf-8")
        except UnicodeDecodeError as err:
            raise FormatError(f"{what} is not UTF-8: {err}") from None


def _read_json_object(path, what: str) -> dict:
    try:
        obj = json.loads(_read_utf8(path, what))
    except (ValueError, RecursionError) as err:  # RecursionError: nesting deeper than the parser's stack
        raise FormatError(f"{what} is not valid JSON: {err}") from None
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object")
    return obj


def _check_types(obj: dict, types: dict[str, type], what: str) -> None:
    """Each listed key present in ``obj`` holds exactly that JSON type (a boolean is not an int)."""
    for key, value in obj.items():
        if key in types and type(value) is not types[key]:
            raise FormatError(f"{what} {key} must be a JSON {types[key].__name__}, got {type(value).__name__}")


def _only_ints(values) -> bool:
    """Whether every value is a JSON integer; Python and numpy both take ``true`` as 1."""
    return set(map(type, values)) <= {int}


def _check_vocab_size(vocab_size: int, name: str = "vocab_size") -> None:
    # Counting allocates one slot per id, so an outside vocab_size is capped first.
    if not 0 <= vocab_size <= _MAX_VOCAB_SIZE:
        raise FormatError(f"{name} {vocab_size} is outside the u32 id range 0..{_MAX_VOCAB_SIZE}")


def is_text_dataset(path) -> bool:
    """Whether a dataset path uses the text form (a ``.txt`` suffix)."""
    return str(path).endswith(".txt")


def write_dataset_binary(dataset: TokenizedDataset, path) -> None:
    fields = (dataset.vocab_size, dataset.num_sequences)
    _write_container(path, _DATASET_HEADER, DATASET_MAGIC, fields, _v1_body_chunks(dataset))


def _v1_body_chunks(dataset: TokenizedDataset):
    """Length words interleaved with ids, in chunks of whole sequences."""
    tokens, offsets = dataset.tokens, dataset.offsets
    # Body word index of each sequence's length word; the last entry is the body size.
    starts = offsets + np.arange(offsets.size)
    i, n = 0, dataset.num_sequences
    while i < n:
        # At most _WRITE_CHUNK_WORDS words unless one sequence is longer.
        j = max(i + 1, int(np.searchsorted(starts, starts[i] + _WRITE_CHUNK_WORDS, "right")) - 1)
        ids = tokens[offsets[i]:offsets[j]]
        yield np.insert(ids, offsets[i:j] - offsets[i], np.diff(offsets[i:j + 1])).astype("<u4", copy=False)
        i = j


def read_dataset_binary(path) -> TokenizedDataset:
    (vocab_size, num_sequences), body = _read_container(path, _DATASET_HEADER, DATASET_MAGIC, "<u4")
    _check_vocab_size(vocab_size)
    body = body.astype(TOKEN_DTYPE, copy=False)
    if num_sequences > body.size:
        raise FormatError(f"header declares {num_sequences} sequences but the body holds only {body.size} words")
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
    if pos < body.size:
        raise FormatError("trailing data after declared content")
    offsets = np.zeros(num_sequences + 1, dtype=np.int64)
    np.cumsum(body[length_at], dtype=np.int64, out=offsets[1:])
    return TokenizedDataset.from_flat(np.delete(body, length_at), offsets, int(vocab_size))


def write_dataset_text(dataset: TokenizedDataset, path) -> None:
    lines = [" ".join(map(str, ids)) + "\n" for ids in dataset.to_lists()]
    Path(path).write_text("".join(lines), encoding="utf-8")


def _plain_ascii(text: str) -> bool:
    # int() also takes "1_0", "+3" and non-ASCII digits such as "３"; decimal ids have none.
    return text.isascii() and "_" not in text and "+" not in text


def read_dataset_text(path, vocab_size: int | None = None) -> TokenizedDataset:
    text = _read_utf8(path, "text dataset")
    lines = text.split("\n")
    if lines[-1] == "":  # the tail after a final newline, or an empty file
        lines.pop()
    if not _plain_ascii(text):
        line_no = next(n for n, line in enumerate(lines, start=1) if not _plain_ascii(line))
        raise FormatError(f"line {line_no}: token ids must be decimal integers")
    del text  # the ids take more memory than the text; do not hold both
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
    fields = (DTYPE_FLOAT32, matrix.rows, matrix.dim)
    payload = np.ascontiguousarray(matrix.data, dtype="<f4")
    _write_container(path, _EMBEDDINGS_HEADER, EMBEDDINGS_MAGIC, fields, [payload])


def read_embeddings(path) -> EmbeddingMatrix:
    (dtype_code, rows, cols), body = _read_container(path, _EMBEDDINGS_HEADER, EMBEDDINGS_MAGIC, "<f4")
    if dtype_code != DTYPE_FLOAT32:
        raise FormatError(f"unsupported dtype code {dtype_code}")
    if cols < 1:
        raise FormatError(f"embedding dim must be >= 1, got {cols}")
    if body.size != rows * cols:
        raise FormatError(f"header declares a {rows} x {cols} matrix but the body holds {body.size} values")
    return EmbeddingMatrix(body.reshape(rows, cols))


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
    obj = _read_json_object(path, "remap file")
    for key in ("original_vocab_size", "ordering", "keep_tokens", "pairs"):
        if key not in obj:
            raise FormatError(f"remap file missing key {key!r}")
    try:
        ordering = RemapOrdering(obj["ordering"])
    except ValueError:
        raise FormatError(f"unknown ordering {obj['ordering']!r}") from None
    _check_types(obj, {"original_vocab_size": int, "keep_tokens": list}, "remap file")
    original_vocab_size, keep_tokens = obj["original_vocab_size"], obj["keep_tokens"]
    if not _only_ints(keep_tokens):
        raise FormatError("remap keep_tokens must be JSON integers")
    _check_vocab_size(original_vocab_size, "original_vocab_size")
    try:  # np.asarray([]) has shape (0,), but an empty remap is valid
        pairs = np.asarray(obj["pairs"]) if obj["pairs"] != [] else np.empty((0, 2), dtype=np.int64)
    except ValueError:  # ragged
        pairs = np.empty(0)
    if (pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu"
            or not _only_ints(chain.from_iterable(obj["pairs"]))):
        raise FormatError("remap pairs must be a list of [original_id, dense_id] JSON integer pairs")
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


def write_growth_csv(curve: GrowthCurve, path) -> None:
    lines = ["tokens,unique"] + [f"{n},{u}" for n, u in curve.points]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


_CONFIG_REQUIRED = ("vocab_size", "d_model", "num_layers", "num_heads")
_CONFIG_TYPES = {**dict.fromkeys(_CONFIG_REQUIRED + ("ffn_dim", "max_positions", "type_vocab"), int),
                 "has_pooler": bool, "name": str}


def read_model_config(path) -> ModelConfig:
    """Model configuration JSON; ``name`` defaults to the file stem."""
    obj = _read_json_object(path, "model config")
    unknown = sorted(set(obj) - set(_CONFIG_TYPES))
    if unknown:
        raise FormatError(f"model config has unknown keys: {', '.join(unknown)}")
    missing = sorted(set(_CONFIG_REQUIRED) - set(obj))
    if missing:
        raise FormatError(f"model config missing keys: {', '.join(missing)}")
    _check_types(obj, _CONFIG_TYPES, "model config")
    try:
        return ModelConfig(**{"name": Path(path).stem, **obj})
    except ValueError as err:
        raise FormatError(f"invalid model config: {err}") from None
