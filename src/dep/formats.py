"""On-disk formats for datasets, embedding matrices, remaps, and reports.

All binary layouts are little-endian.

Dataset, magic ``DEPT``::

    4s  magic        b"DEPT"
    u32 version      1
    u64 vocab_size
    u64 num_sequences
    per sequence: u32 length, then that many u32 token ids

The reader loads the body into one buffer and moves the ids left over the
length words inside it, one chunk of whole sequences at a time, so the
dataset's ``tokens`` is a leading view of that buffer. Besides it, the
reader holds two int64 words per sequence and one chunk's temporaries.

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
opened or read, or is not a regular file, is :class:`MissingInput`; text
that is not UTF-8 or not the expected JSON object is :class:`FormatError`.
"""

from __future__ import annotations

import json
import os
import stat
import struct
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .analysis import GrowthCurve
from .embeddings import EmbeddingFile, EmbeddingMatrix, RowPatch
from .errors import (
    BadMagic,
    FormatError,
    InconsistentInputs,
    MissingInput,
    RemapInconsistent,
    UnsupportedVersion,
)
from .metrics import ModelConfig, PruneReport
from .vocab import MAX_VOCAB_SIZE, TOKEN_DTYPE, RemapOrdering, RemapTable, TokenizedDataset, _check_ids

DATASET_MAGIC = b"DEPT"
EMBEDDINGS_MAGIC = b"DEPE"
FORMAT_VERSION = 1
DTYPE_FLOAT32 = 1

_DATASET_HEADER = struct.Struct("<4sIQQ")
_EMBEDDINGS_HEADER = struct.Struct("<4sIBQQ")
_CHUNK_WORDS = 1 << 20  # body words per chunk; bounds the dataset reader's and writer's temporaries
_COPY_CALL_BYTES = 1 << 30  # per sendfile(2), under its 2 GiB limit
_IOV_MAX = os.sysconf("SC_IOV_MAX")  # buffers one preadv may fill


@contextmanager
def _open(path):
    """A regular file opened for reading, without blocking on a FIFO; any OS error while opening or
    reading it, or a path that is not a regular file (a directory, FIFO or device), is :class:`MissingInput`."""
    try:
        with open(path, "rb", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK)) as handle:
            if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                raise MissingInput(path, "not a regular file")
            yield handle
    except OSError as err:
        raise MissingInput(path, err.strerror) from None


def _read_header(handle, header: struct.Struct, magic: bytes) -> tuple[tuple, int]:
    """The header fields after magic and version, and the number of 4-byte words in the body."""
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
    return tuple(fields), body_bytes // 4


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
    if not 0 <= vocab_size <= MAX_VOCAB_SIZE:
        raise FormatError(f"{name} {vocab_size} is outside the u32 id range 0..{MAX_VOCAB_SIZE}")


def is_text_dataset(path) -> bool:
    """Whether a dataset path uses the text form (a ``.txt`` suffix)."""
    return str(path).endswith(".txt")


def write_dataset_binary(dataset: TokenizedDataset, path) -> None:
    fields = (dataset.vocab_size, dataset.num_sequences)
    _write_container(path, _DATASET_HEADER, DATASET_MAGIC, fields, _v1_body_chunks(dataset))


def _v1_body_chunks(dataset: TokenizedDataset):
    """Length words interleaved with ids, in chunks of whole sequences."""
    tokens, offsets = dataset.tokens, dataset.offsets
    for i, j in _chunk_spans(offsets + np.arange(offsets.size)):
        ids = tokens[offsets[i]:offsets[j]]
        yield np.insert(ids, offsets[i:j] - offsets[i], np.diff(offsets[i:j + 1])).astype("<u4", copy=False)


def _chunk_spans(starts: np.ndarray):
    """``(i, j)`` of each chunk of whole sequences ``i..j-1`` of a ``DEPT`` body.

    ``starts`` holds the body word index of each sequence's length word,
    then the body size. A chunk spans at most ``_CHUNK_WORDS`` body words
    unless one sequence alone is longer.
    """
    i, n = 0, starts.size - 1
    while i < n:
        j = max(i + 1, int(np.searchsorted(starts, starts[i] + _CHUNK_WORDS, "right")) - 1)
        yield i, j
        i = j


def read_dataset_binary(path) -> TokenizedDataset:
    with _open(path) as handle:
        (vocab_size, num_sequences), _ = _read_header(handle, _DATASET_HEADER, DATASET_MAGIC)
        body = np.fromfile(handle, dtype="<u4")
    _check_vocab_size(vocab_size)
    body = body.astype(TOKEN_DTYPE, copy=False)
    if num_sequences > body.size:
        raise FormatError(f"header declares {num_sequences} sequences but the body holds only {body.size} words")
    # Walk the length words: sequence i's length is body word starts[i].
    starts = np.empty(num_sequences + 1, dtype=np.int64)
    words, marks = memoryview(body), memoryview(starts)
    pos = 0
    try:
        for i in range(num_sequences):
            marks[i] = pos
            pos += words[pos] + 1
    except IndexError:
        raise FormatError(f"unexpected end of file while reading sequence {i} length") from None
    if pos > body.size:
        raise FormatError(f"unexpected end of file while reading sequence {num_sequences - 1} ids")
    if pos < body.size:
        raise FormatError("trailing data after declared content")
    starts[-1] = pos
    offsets = starts - np.arange(num_sequences + 1)
    # Move the ids left over the length words in place, one chunk at a time. A
    # chunk's ids land at or before where they were read, never on an unread word.
    for i, j in _chunk_spans(starts):
        body[offsets[i]:offsets[j]] = np.delete(body[starts[i]:starts[j]], starts[i:j] - starts[i])
    return TokenizedDataset.from_flat(body[:offsets[-1]], offsets, int(vocab_size))


def write_dataset_text(dataset: TokenizedDataset, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(" ".join(map(str, ids.tolist())) + "\n" for ids in dataset.sequences)


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
    parsed = []
    for line_no, line in enumerate(lines, start=1):
        try:  # numpy calls int() on each field; past int64 it raises OverflowError
            parsed.append(np.array(line.split(), dtype=np.int64))
        except (ValueError, OverflowError):
            raise FormatError(f"line {line_no}: token ids must be decimal integers") from None
    del lines
    offsets = np.cumsum([0] + [row.size for row in parsed], dtype=np.int64)
    ids = np.concatenate([np.empty(0, dtype=np.int64), *parsed])
    if vocab_size is None:
        vocab_size = min(max(int(ids.max(initial=-1)) + 1, 0), MAX_VOCAB_SIZE)
    _check_vocab_size(vocab_size)
    _check_ids(ids, offsets, vocab_size)
    return TokenizedDataset.from_flat(ids.astype(TOKEN_DTYPE), offsets, vocab_size)


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


def write_embeddings(matrix: EmbeddingMatrix | RowPatch, path) -> None:
    """Write a matrix, or a :class:`RowPatch` as a copy of its base file with the patch rows written over it."""
    if isinstance(matrix, RowPatch):
        _write_patch(matrix, path)
        return
    fields = (DTYPE_FLOAT32, matrix.rows, matrix.dim)
    payload = np.ascontiguousarray(matrix.data, dtype="<f4")
    _write_container(path, _EMBEDDINGS_HEADER, EMBEDDINGS_MAGIC, fields, [payload])


def _write_patch(patch: RowPatch, path) -> None:
    base = patch.base
    header = _EMBEDDINGS_HEADER.pack(EMBEDDINGS_MAGIC, FORMAT_VERSION, DTYPE_FLOAT32, base.rows, base.dim)
    row_bytes = 4 * base.dim
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        for source in _opened(base.path):  # an in-kernel copy; its OS errors are the output's
            while os.sendfile(fd, source.fileno(), None, _COPY_CALL_BYTES):
                pass
        if os.fstat(fd).st_size != len(header) + base.rows * row_bytes or os.pread(fd, len(header), 0) != header:
            raise FormatError(f"embedding matrix {base.path} changed after it was validated")
        ids = patch.ids.astype(np.int64)
        data = np.ascontiguousarray(patch.data, dtype="<f4")
        # One write per run of dense ids whose original ids are consecutive too.
        for start, stop in _runs(ids):
            view, offset = memoryview(data[start:stop]).cast("B"), len(header) + int(ids[start]) * row_bytes
            while view:  # a single write(2) stops short of 2 GiB
                written = os.pwrite(fd, view, offset)
                view, offset = view[written:], offset + written
    finally:
        os.close(fd)


def _opened(path):
    """An input opened by ``_open``, as a one-item loop.

    An input that cannot be opened is :class:`MissingInput`, but OS errors
    in the loop body do not pass through ``_open``: they stay the caller's.
    """
    with _open(path) as handle:
        yield handle


def _runs(*ids: np.ndarray) -> list[tuple[int, int]]:
    """``(start, stop)`` of each maximal run of positions over which every array in ``ids`` steps by exactly +1."""
    size = len(ids[0])
    steps = np.ones(max(size - 1, 0), dtype=bool)
    for values in ids:
        steps &= np.diff(values) == 1
    starts = [0, *(np.flatnonzero(~steps) + 1).tolist()] if size else []
    return list(zip(starts, starts[1:] + [size]))


def _read_into(fd: int, views: list[memoryview], offset: int, path) -> None:
    """Fill ``views`` in turn from file offset ``offset``, at most ``_IOV_MAX`` of them per ``preadv``."""
    i = 0
    while i < len(views):
        got = os.preadv(fd, views[i:i + _IOV_MAX], offset)
        if got == 0:  # a single read(2) stops short of 2 GiB, so only end of file ends the loop early
            raise FormatError(f"embedding matrix {path} changed after it was validated")
        offset += got
        while i < len(views) and got >= len(views[i]):
            got -= len(views[i])
            i += 1
        if got:
            views[i] = views[i][got:]


def _check_embeddings(fields: tuple, values: int) -> tuple[int, int]:
    """``(rows, dim)`` of a ``DEPE`` header whose body holds ``values`` 32-bit reals."""
    dtype_code, rows, cols = fields
    if dtype_code != DTYPE_FLOAT32:
        raise FormatError(f"unsupported dtype code {dtype_code}")
    if not 1 <= cols <= MAX_VOCAB_SIZE:  # with 0 rows any cols would match an empty body
        raise FormatError(f"embedding dim must be in 1..{MAX_VOCAB_SIZE}, got {cols}")
    if values != rows * cols:
        raise FormatError(f"header declares a {rows} x {cols} matrix but the body holds {values} values")
    return rows, cols


def open_embeddings(path) -> EmbeddingFile:
    """Validate a ``DEPE`` file's header and size as :func:`read_embeddings` does, without reading the payload."""
    with _open(path) as handle:
        fields, values = _read_header(handle, _EMBEDDINGS_HEADER, EMBEDDINGS_MAGIC)
    return EmbeddingFile(path, *_check_embeddings(fields, values))


def read_embeddings(path, rows=None) -> EmbeddingMatrix:
    """The whole ``DEPE`` matrix, or with ``rows`` only those rows: output row ``j`` is row ``rows[j]``.

    The header and size are checked as :func:`open_embeddings` checks them,
    under the same open file. The whole matrix is one ``preadv`` into its
    buffer. Selected rows are read in id order, one ``preadv`` per run of
    consecutive ids, straight into their output rows, so nothing else of
    the payload is held. Ids may repeat; one outside the matrix is
    :class:`FormatError`.
    """
    with _open(path) as handle:
        fields, values = _read_header(handle, _EMBEDDINGS_HEADER, EMBEDDINGS_MAGIC)
        total, dim = _check_embeddings(fields, values)
        if rows is None:
            out = np.empty((total, dim), dtype="<f4")
            views = [memoryview(out).cast("B")] if out.size else []
            _read_into(handle.fileno(), views, _EMBEDDINGS_HEADER.size, path)
            return EmbeddingMatrix(out)
        ids = np.asarray(rows)
        if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
            raise ValueError("rows must be a one-dimensional sequence of integer ids")
        if ids.size and not 0 <= int(ids.min()) <= int(ids.max()) < total:
            raise FormatError(f"row ids must be in 0..{total - 1}, the rows of embedding matrix {path}")
        out = np.empty((ids.size, dim), dtype="<f4")
        order = np.argsort(ids, kind="stable")
        ids = ids[order].astype(np.int64)
        ids_list, order_list, row_bytes = ids.tolist(), order.tolist(), 4 * dim
        views, offset = [], 0
        # Each piece is a run whose output rows are consecutive too, so one buffer takes it.
        for start, stop in _runs(ids, order):
            if start == 0 or ids_list[start] != ids_list[start - 1] + 1:
                _read_into(handle.fileno(), views, offset, path)
                views, offset = [], _EMBEDDINGS_HEADER.size + ids_list[start] * row_bytes
            dense = order_list[start]
            views.append(memoryview(out[dense:dense + stop - start]).cast("B"))
        _read_into(handle.fileno(), views, offset, path)
    return EmbeddingMatrix(out)


def remap_to_json(remap: RemapTable) -> str:
    obj = {
        "original_vocab_size": remap.original_vocab_size,
        "ordering": remap.ordering.value,
        "keep_tokens": list(remap.keep_tokens),
        "pairs": [],
    }
    text = json.dumps(obj, indent=2)
    if remap.reduced_size:
        # The bytes json.dumps(indent=2) gives the pairs, without its pure-Python encoder.
        pairs = ",\n".join(f"    [\n      {orig},\n      {dense}\n    ]"
                           for dense, orig in enumerate(remap.inverse.tolist()))
        text = text.removesuffix("[]\n}") + f"[\n{pairs}\n  ]\n}}"
    return text + "\n"


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
