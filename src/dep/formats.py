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
reader holds one int64 offset per sequence, turned in place from where
each length word is, and one chunk's temporaries.

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
Text is meant for fixtures and debugging, binary for large corpora. The
reader reads the file twice through one handle, one block of whole lines
at a time, and never holds its bytes whole. The first pass classes each
block's bytes to count its ids and lines, and stops at the first line with
a bad field; only a block with a byte other than a digit or whitespace, or
a run of 19 or more digits, is checked further. The second parses each
block with one ``np.fromstring`` straight into the uint32 ids. The writer
fills one byte array per chunk of whole lines from the ids' place values.

Every chunk, block and slice that these readers and writers, the counting
and the remapping handle is bounded by the one block size ``vocab._BLOCK``,
read at call time.

Remaps are JSON objects ``{original_vocab_size, ordering, keep_tokens,
pairs}`` with ``pairs`` as ``[original_id, dense_id]`` sorted by dense id;
JSON keeps them auditable and they hold at most one pair per vocabulary
entry. Writers emit a fixed key order so identical inputs give identical
bytes, and write a trailing list of ids in pieces of about one block. The
reader reads a remap whose last key is ``pairs`` one block at a time, cut
after a ``]``: it checks each block's bytes against the shape of a list of
pairs of decimal ids and parses it with one ``np.fromstring`` into int64,
and parses the other keys with ``json.loads``. Any file that check refuses
is read whole by ``json.loads``, so every JSON layout reads as before.
Every integer of every JSON input must be an int64 (:func:`_json_int`).

Every reader opens its input through ``_open``, so an input that cannot be
opened or read, or is not a regular file, is :class:`MissingInput`; text
that is not UTF-8 or not the expected JSON object is :class:`FormatError`.
``_write`` is the one sequential writer; the ``DEPE`` copy in
:func:`write_embeddings` and :func:`write_patch` write at file positions.
"""

from __future__ import annotations

import json
import os
import re
import stat
import struct
from bisect import bisect_right
from contextlib import contextmanager
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import vocab
from .analysis import GrowthCurve
from .embeddings import EmbeddingFile, EmbeddingMatrix, RowPatch
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
from .vocab import MAX_VOCAB_SIZE, TOKEN_DTYPE, RemapOrdering, RemapTable, TokenizedDataset, _check_ids

DATASET_MAGIC = b"DEPT"
EMBEDDINGS_MAGIC = b"DEPE"
FORMAT_VERSION = 1
DTYPE_FLOAT32 = 1

_DATASET_HEADER = struct.Struct("<4sIQQ")
_EMBEDDINGS_HEADER = struct.Struct("<4sIBQQ")
_COPY_CALL_BYTES = 1 << 30  # per sendfile(2), under its 2 GiB limit


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


def _write(path, chunks) -> None:
    with open(path, "wb") as handle:
        handle.writelines(map(memoryview, chunks))  # drops each chunk before making the next


def _changed(path) -> FormatError:
    return FormatError(f"embedding matrix {path} changed after it was validated")


def _decode_utf8(data: bytes, what: str, at: int = 0) -> str:
    """``data`` decoded; bytes that are not UTF-8 are :class:`FormatError` with ``UnicodeDecodeError``'s message,
    its positions counted from ``at``, where ``data`` starts in its file."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        start, end = at + err.start, at + err.end
        where = (f"byte 0x{err.object[err.start]:02x} in position {start}" if end == start + 1
                 else f"bytes in position {start}-{end - 1}")
        raise FormatError(f"{what} is not UTF-8: '{err.encoding}' codec can't decode {where}: {err.reason}") from None


def _json_int(what: str, text: str) -> int:
    """``parse_int`` of ``json.loads``: an integer outside int64 by :func:`_fits_int64`'s rule is
    :class:`FormatError`, whatever digit limit ``int()`` has. JSON writes no leading zero, so 18 characters fit."""
    if len(text) > 18 and not _fits_int64(text.encode()):
        shown = text if len(text) <= 24 else f"one of {len(text.lstrip('-'))} digits"
        raise FormatError(f"{what} integers must be within int64, got {shown}")
    return int(text)


def _read_json_object(path, what: str) -> dict:
    with _open(path) as handle:
        data = handle.read()
    try:
        obj = json.loads(_decode_utf8(data, what), parse_int=partial(_json_int, what))
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
    header = _DATASET_HEADER.pack(DATASET_MAGIC, FORMAT_VERSION, dataset.vocab_size, dataset.num_sequences)
    _write(path, chain([header], _v1_body_chunks(dataset)))


def _v1_body_chunks(dataset: TokenizedDataset):
    """Length words interleaved with ids, in chunks of whole sequences."""
    tokens, offsets = dataset.tokens, dataset.offsets
    for i, j in _chunk_spans(offsets):
        ids = tokens[offsets[i]:offsets[j]]
        yield np.insert(ids, offsets[i:j] - offsets[i], np.diff(offsets[i:j + 1])).astype("<u4", copy=False)


def _chunk_spans(offsets: np.ndarray):
    """``(i, j)`` of each chunk of whole sequences ``i..j-1`` of a dataset with ``offsets``.

    A chunk spans at most one block of ids and sequences together, each
    sequence counting one unit for its ``DEPT`` length word or text newline,
    unless one sequence alone is longer. Sequence ``k`` starts at unit
    ``offsets[k] + k``, found by bisection, so no array of those units is made.
    """
    def units(k: int) -> int:
        return int(offsets[k]) + k

    i, n, block = 0, offsets.size - 1, vocab._BLOCK
    while i < n:
        j = max(i + 1, bisect_right(range(n + 1), units(i) + block, lo=i + 1, key=units) - 1)
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
    # Walk the length words: sequence i's length is body word offsets[i] + i, where offsets[i] counts the ids
    # before it.
    offsets = np.empty(num_sequences + 1, dtype=np.int64)
    words, marks = memoryview(body), memoryview(offsets)
    pos = 0
    try:
        for i in range(num_sequences):
            marks[i] = pos - i
            pos += words[pos] + 1
    except IndexError:
        raise FormatError(f"unexpected end of file while reading sequence {i} length") from None
    if pos > body.size:
        raise FormatError(f"unexpected end of file while reading sequence {num_sequences - 1} ids")
    if pos < body.size:
        raise FormatError("trailing data after declared content")
    offsets[-1] = pos - num_sequences
    # Move the ids left over the length words in place, one chunk at a time. A
    # chunk's ids land at or before where they were read, never on an unread word.
    for i, j in _chunk_spans(offsets):
        length_at = offsets[i:j] - offsets[i] + np.arange(j - i)  # where the chunk's length words are in it
        body[offsets[i]:offsets[j]] = np.delete(body[offsets[i] + i:offsets[j] + j], length_at)
    return TokenizedDataset.from_flat(body[:offsets[-1]], offsets, int(vocab_size))


def write_dataset_text(dataset: TokenizedDataset, path) -> None:
    _write(path, _text_chunks(dataset.tokens, dataset.offsets, ord(" ")))


def _text_chunks(tokens: np.ndarray, offsets: np.ndarray, sep: int):
    """Lines ``tokens[offsets[i]:offsets[i + 1]]`` of decimal ids joined by the byte ``sep``, as uint8 arrays.

    Each array is one chunk of whole lines, filled from its ids' place values: at most one block of ids and
    lines, so at most 11 bytes per unit (a u32 id's 10 digits and a separator), unless one line alone is longer.
    """
    for i, j in _chunk_spans(offsets):
        ids, bounds = tokens[offsets[i]:offsets[j]], offsets[i:j + 1] - offsets[i]
        empty = bounds[1:] == bounds[:-1]
        # Bytes per id: its digits and the separator or newline after it, plus a lone newline for
        # each empty line just before it; the last entry holds the chunk's trailing empty lines.
        width = np.bincount(bounds[:-1][empty], minlength=ids.size + 1)
        width[:-1] += 2
        power, top = 10, int(ids.max(initial=0))
        while power <= top:
            width[:-1] += ids >= power
            power *= 10
        ends = np.cumsum(width, out=width)
        grid = np.full(ends[-1], ord("\n"), dtype=np.uint8)
        place = ends[:-1]
        place -= 1  # now the byte after each id
        grid[place] = sep
        grid[place[bounds[1:][~empty] - 1]] = ord("\n")
        place -= 1
        while ids.size:  # one pass per place value, units first, over the ids that have that digit
            grid[place] = ids % 10 + ord("0")
            more = ids >= 10
            place, ids = place[more], ids[more]  # copies, so the ids' own buffer is never written
            place -= 1
            ids //= 10
        yield grid


# The bytes of a text dataset, by class: "d" an ASCII digit, " " the ASCII whitespace that str.split() splits on
# ("\n" included, as it splits a line into ids the same way), "-" and "?" any other byte.
_SPLIT_ON = bytes(b for b in range(128) if chr(b).isspace())
_BYTE_CLASS = bytes(ord("d" if b in b"0123456789" else " " if b in _SPLIT_ON else "-" if b == ord("-") else "?")
                    for b in range(256))
_TO_SPACE = bytes(ord(" ") if b in _SPLIT_ON else b for b in range(256))
_LONG_RUN = b"d" * 19  # a run of fewer digits always fits int64
_LONG_ID = re.compile(rb"-?d{19,}")
_BAD_FIELD = re.compile(rb"\?|-(?!d)|d-")  # a field is -?d+: no other byte, and a "-" only just before a digit


def _line_blocks(handle, end: bytes = b"\n"):
    """``(at, lines)`` of each block of whole lines in the file ``handle``, ``at`` being where it starts.

    A block is what was left of the previous read and the next read of one
    block's bytes up to its last newline; a line longer than a read is
    joined once from its pieces. Text after the last newline ends the file.
    With another ``end`` byte, each block ends with that byte instead.
    """
    handle.seek(0)
    at, rest = 0, []
    while piece := handle.read(vocab._BLOCK):
        cut = piece.rfind(end) + 1
        if cut:
            lines, rest = b"".join([*rest, memoryview(piece)[:cut]]), [piece[cut:]]
            del piece  # each block is one copy, and the only one held
            yield at, lines
            at += len(lines)
            del lines
        else:
            rest.append(piece)
    if any(rest):
        yield at, b"".join(rest)


def _scan_lines(lines: bytes) -> tuple[int, int]:
    """The number of ids in the whole ``lines``, and where its first field that is not a decimal int64 is, -1 if
    there is none."""
    classes = lines.translate(_BYTE_CLASS)
    gap = np.frombuffer(classes, dtype=np.uint8) == ord(" ")
    count = int(np.count_nonzero(gap[:-1] > gap[1:])) + (not gap[0])  # fields start after a gap or a block's start
    if not any(mark in classes for mark in (b"?", b"-", _LONG_RUN)):  # only whitespace and short ids
        return count, -1
    bad = [m.start() for m in [_BAD_FIELD.search(classes)] if m]
    bad += [m.start() for m in _LONG_ID.finditer(classes) if not _fits_int64(lines[m.start():m.end()])]
    return count, min(bad, default=-1)


def _fits_int64(field: bytes) -> bool:
    """Whether the field ``-?d+`` is an int64 by one fixed rule, whatever ``int()``'s digit limit: at most 4300
    digits after the sign (``int()``'s default limit, leading zeros included), then at most 19 after the leading
    zeros, then the int64 range."""
    digits = field.removeprefix(b"-")
    significant = digits.lstrip(b"0")
    return len(digits) <= 4300 and len(significant) <= 19 and int(significant or b"0") < 2**63 + (digits != field)


def _parse_ids(lines: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The int64 ids of the whole ``lines``, each field ``-?d+`` within int64, and per line the number of those
    ids up to its end."""
    spaced = lines.translate(_TO_SPACE)
    gap = np.frombuffer(spaced, dtype=np.uint8) == ord(" ")
    before = np.flatnonzero(gap[:-1] > gap[1:])  # the byte before each id, but one at the block's start
    lead = int(not gap[0])
    del gap  # each per-byte temporary goes before the next is made
    # With a count, fromstring does not read whitespace alone as one 0.
    ids = np.fromstring(spaced, dtype=np.int64, sep=" ", count=lead + before.size)
    del spaced
    newlines = np.flatnonzero(np.frombuffer(lines, dtype=np.uint8) == ord("\n"))
    ends = np.searchsorted(before, newlines) + lead
    if lines[-1] != ord("\n"):  # the file's last line, without a newline
        ends = np.append(ends, ids.size)
    return ids, ends


def read_dataset_text(path, vocab_size: int | None = None) -> TokenizedDataset:
    """Errors in this order: the first line with a field that is not a decimal int64, as that line's UTF-8 error
    at its file position if it is not UTF-8; ``vocab_size`` outside ``0..2**32``; the first id outside
    ``[0, vocab_size)``, where ``vocab_size`` defaults to max id + 1 capped at ``2**32``. So ``-0`` reads as 0 and
    ``-3`` is out of range.

    The file is read twice through one handle, one block of whole lines at a time: first to check it and count
    its ids and lines, then to parse them. A file whose second read does not hold the ids and lines counted in the
    first has changed in between, which is :class:`FormatError`.
    """
    with _open(path) as handle:
        total, lines, last = 0, 0, b"\n"
        for at, block in _line_blocks(handle):
            count, bad = _scan_lines(block)
            if bad >= 0:  # only the bad line is decoded, newline included, so a cut character reads as in the file
                start = block.rfind(b"\n", 0, bad) + 1
                _decode_utf8(block[start:block.find(b"\n", bad) + 1 or len(block)], "text dataset", at + start)
                lines += block.count(b"\n", 0, start) + 1
                raise FormatError(f"line {lines}: token ids must be decimal integers")
            total, lines, last = total + count, lines + block.count(b"\n"), block[-1:]
        lines += last != b"\n"  # text after the last newline is one more line
        if vocab_size is not None:
            _check_vocab_size(vocab_size)
        limit = MAX_VOCAB_SIZE if vocab_size is None else vocab_size
        tokens = np.empty(total, dtype=TOKEN_DTYPE)
        offsets = np.zeros(lines + 1, dtype=np.int64)
        line, top, outside = 0, -1, None
        changed = FormatError(f"text dataset {path} changed while it was read")
        for _, block in _line_blocks(handle):
            try:
                ids, ends = _parse_ids(block)
            except ValueError:  # fromstring met a field the first pass did not see
                raise changed from None
            end = line + ends.size
            if end > lines or offsets[line] + ids.size > total:
                raise changed
            offsets[line + 1:end + 1] = offsets[line] + ends
            if outside is None:
                try:  # before the uint32 cast, so an id of 2**32 or more is reported as read
                    _check_ids(ids, offsets[line:end + 1] - offsets[line], limit)
                except OutOfRangeToken as err:
                    outside = (line + err.sequence_index, err.position, err.token_id)
            tokens[offsets[line]:offsets[end]] = ids
            line, top = end, max(top, int(ids.max(initial=-1)))
            del ids  # not held while the next block's are made
        if line != lines or offsets[line] != total:
            raise changed
    if vocab_size is None:
        vocab_size = min(top + 1, MAX_VOCAB_SIZE)
    if outside:  # raised once the inferred vocabulary, which its message names, is known
        raise OutOfRangeToken(*outside, vocab_size)
    return TokenizedDataset.from_flat(tokens, offsets, vocab_size)


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


def write_embeddings(matrix: EmbeddingMatrix | EmbeddingFile | RowPatch, path) -> None:
    """Write a matrix, a :class:`RowPatch` by :func:`write_patch`, or a copy of an :class:`EmbeddingFile`."""
    if isinstance(matrix, RowPatch):
        write_patch(matrix, path)
        return
    header = _EMBEDDINGS_HEADER.pack(EMBEDDINGS_MAGIC, FORMAT_VERSION, DTYPE_FLOAT32, matrix.rows, matrix.dim)
    if isinstance(matrix, EmbeddingMatrix):
        _write(path, [header, np.ascontiguousarray(matrix.data, dtype="<f4")])
        return
    with open(path, "w+b") as out:
        fd = out.fileno()
        with _open(matrix.path) as handle:  # a file that cannot be opened is the input's error
            source = open(os.dup(handle.fileno()), "rb")
        with source:  # but the copy's OS errors are the output's
            while os.sendfile(fd, source.fileno(), None, _COPY_CALL_BYTES):
                pass
        if os.fstat(fd).st_size != len(header) + 4 * matrix.rows * matrix.dim or os.pread(fd, len(header), 0) != header:
            raise _changed(matrix.path)


def write_patch(patch: RowPatch, path) -> None:
    """Write ``patch.base`` with :func:`write_embeddings`, then the learned rows over it one piece of at most one block
    of values at a time, one write per run of consecutive original ids. Each piece of a learned file is read by
    :func:`read_embeddings`, outside ``write_embeddings``, and after the last the file must be as validated."""
    write_embeddings(patch.base, path)
    learned, row_bytes = patch.learned, 4 * patch.base.dim
    step = max(1, vocab._BLOCK // learned.dim)
    with open(path, "r+b") as out:
        for start in range(0, learned.rows, step):
            stop = min(start + step, learned.rows)
            piece = (read_embeddings(learned.path, rows=np.arange(start, stop)).data
                     if isinstance(learned, EmbeddingFile) else learned.data[start:stop])
            piece, ids = np.ascontiguousarray(piece, dtype="<f4"), patch.ids[start:stop]
            for i, j in _runs(ids):
                _transfer(os.pwrite, out.fileno(), piece[i:j], _EMBEDDINGS_HEADER.size + ids.item(i) * row_bytes, path)
            del piece  # not held while the next one is read
    if isinstance(learned, EmbeddingFile) and open_embeddings(learned.path) != learned:
        raise _changed(learned.path)


def _runs(ids: np.ndarray) -> list[tuple[int, int]]:
    """``(start, stop)`` of each maximal run of positions over which ``ids`` steps by exactly +1."""
    starts = [0, *(np.flatnonzero(np.diff(ids.astype(np.int64)) != 1) + 1).tolist()] if len(ids) else []
    return list(zip(starts, starts[1:] + [len(ids)]))


def _pread(fd: int, view: memoryview, offset: int) -> int:
    return os.preadv(fd, [view], offset)  # fills the caller's buffer, where os.pread would return a new one


def _transfer(call, fd: int, rows: np.ndarray, offset: int, path) -> None:
    """Move the C-contiguous ``rows`` from or to file offset ``offset`` with ``call(fd, view, offset)``, which is
    ``_pread`` or ``os.pwrite``; a call that moves nothing means the file is no longer the one validated."""
    view = memoryview(rows).cast("B") if rows.size else b""  # cast refuses a 0-row view
    while view:  # a single read(2) or write(2) stops short of 2 GiB
        moved = call(fd, view, offset)
        if moved == 0:
            raise _changed(path)
        view, offset = view[moved:], offset + moved


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
    buffer. Selected rows are read straight into their output rows, one
    ``preadv`` per run of consecutive ids whose output rows are consecutive
    too, in id order, so nothing else of the payload is held. Ids may
    repeat; one outside the matrix is :class:`FormatError`.
    """
    with _open(path) as handle:
        fields, values = _read_header(handle, _EMBEDDINGS_HEADER, EMBEDDINGS_MAGIC)
        total, dim = _check_embeddings(fields, values)
        if rows is None:
            out = np.empty((total, dim), dtype="<f4")
            _transfer(_pread, handle.fileno(), out, _EMBEDDINGS_HEADER.size, path)
            return EmbeddingMatrix(out)
        ids = np.asarray(rows)
        if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
            raise ValueError("rows must be a one-dimensional sequence of integer ids")
        if ids.size and not 0 <= int(ids.min()) <= int(ids.max()) < total:
            raise FormatError(f"row ids must be in 0..{total - 1}, the rows of embedding matrix {path}")
        out = np.empty((ids.size, dim), dtype="<f4")
        fd, row_bytes = handle.fileno(), 4 * dim
        # In order of first id, so the reads go through the file at rising offsets.
        for start, stop in sorted(_runs(ids), key=lambda run: ids.item(run[0])):
            _transfer(_pread, fd, out[start:stop], _EMBEDDINGS_HEADER.size + ids.item(start) * row_bytes, path)
    return EmbeddingMatrix(out)


def _json_pieces(obj: dict):
    """``json.dumps(obj, indent=2) + "\\n"`` in pieces, for a dict whose last value is an integer array of ids or of
    id rows.

    That array is listed as ``json.dumps`` would list it, but formatted
    from one fixed pattern per item rather than by ``json``'s pure-Python
    encoder, which ``indent`` selects. Each piece lists at most
    ``_BLOCK // 16`` ids, a pair counting as two, so about one block of
    text: the ids are never all Python ints at once.
    """
    *head, (key, ids) = obj.items()
    text = json.dumps({**dict(head), key: []}, indent=2) + "\n"
    if not len(ids):
        yield text
        return
    yield text.removesuffix("[]\n}\n") + "[\n"
    item = "    {}" if ids.ndim == 1 else "    [\n" + ",\n".join(["      {}"] * ids.shape[1]) + "\n    ]"
    step = max(1, vocab._BLOCK // (16 * item.count("{}")))
    for start in range(0, len(ids), step):
        part = ids[start:start + step]
        yield ",\n" * bool(start) + ",\n".join([item] * len(part)).format(*part.ravel().tolist())
    yield "\n  ]\n}\n"


def _remap_fields(remap: RemapTable) -> dict:
    return {
        "original_vocab_size": remap.original_vocab_size,
        "ordering": remap.ordering.value,
        "keep_tokens": list(remap.keep_tokens),
        "pairs": np.column_stack((remap.inverse, np.arange(remap.reduced_size))),
    }


def remap_to_json(remap: RemapTable) -> str:
    return "".join(_json_pieces(_remap_fields(remap)))


def write_remap(remap: RemapTable, path) -> None:
    _write(path, map(str.encode, _json_pieces(_remap_fields(remap))))


# The bytes of a remap's pairs without their JSON whitespace, by class: "d" a digit, "[", "]" and "," themselves,
# "?" any other byte. Each separator of a valid list reads as one of _PAIR_SEPS, with 128 added where a digit
# follows it: "," between pairs, then "[", "," and "]" of one pair.
_JSON_SPACE = b" \t\n\r"
_PAIR_CLASS = bytes(ord("d") if b in b"0123456789" else b if b in b"[]," else ord("?") for b in range(256))
_PAIR_SEPS = bytes([ord(","), ord("[") | 128, ord(",") | 128, ord("]")])
_DIGITS_ONLY = bytes(b if b in b"0123456789" else ord(" ") for b in range(256))
_POWERS = 10 ** np.arange(1, 19, dtype=np.int64)
_PAIRS_KEY = re.compile(rb'"pairs"[ \t\n\r]*:[ \t\n\r]*(?=\[)')


def _pair_ids(block: bytes, first: bool) -> tuple[np.ndarray, bool] | None:
    """The ids of a block of the pairs list ``[[a, b], ...]`` cut after a ``"]"``, flat as ``a, b, ...`` in
    int64, and whether the block closes the list; None unless each id is a decimal of at most 18 digits with no
    leading zero and the block is a piece of such a list, starting at its ``"["`` if ``first``."""
    compact = block.translate(_PAIR_CLASS, _JSON_SPACE)
    if b"?" in compact or _LONG_RUN in compact:
        return None
    classes = np.frombuffer(compact, dtype=np.uint8)
    digit = classes == ord("d")
    seps = (classes[:-1] | digit[1:].view(np.uint8) << 7)[~digit[:-1]].tobytes() + b"]"  # a block ends with "]"
    digits = len(compact) - len(seps)
    del compact, classes, digit
    if first:  # the list's own "[" reads as the "," before a pair
        seps = b"," + seps[1:]
    last = seps.endswith(b"]]") or seps == b"]"
    count = (len(seps) - last) // 4
    if len(seps) != 4 * count + last or seps[:4 * count] != _PAIR_SEPS * count:
        return None
    ids = np.fromstring(block.translate(_DIGITS_ONLY), dtype=np.int64, sep=" ") if count else np.empty(0, np.int64)
    # A digit follows each "[" and "," of a pair; as many runs of digits as those 2 * count means that no id is
    # anywhere else or split by whitespace, and as many digits as the ids are written with, that none has a
    # leading zero.
    if ids.size != 2 * count or digits != ids.size + int(np.searchsorted(_POWERS, ids, side="right").sum()):
        return None
    return ids, last


def _read_pairs(path) -> tuple[dict, list[np.ndarray]] | None:
    """A remap file whose last key is ``pairs``, holding a list of pairs that :func:`_pair_ids` takes, read one
    block at a time: the object as ``json.loads`` reads it but with ``[]`` for ``pairs``, and the ids of each
    block. None for any other file; an integer outside int64 in the other keys raises as in the whole file."""
    with _open(path) as handle:
        blocks = (block for _, block in _line_blocks(handle, b"]"))
        head = []
        for block in blocks:  # the key holds no "]", so it is never cut
            if key := _PAIRS_KEY.search(block):
                head.append(block[:key.end()])
                block = block[key.end():]
                break
            head.append(block)
        else:
            return None
        parts, last = [], False
        while block.endswith(b"]"):  # until the text after the last "]"
            read = None if last else _pair_ids(block, not parts)
            if read is None:
                return None
            parts.append(read[0])
            last = read[1]
            del block, read  # not held while the next block is read
            block = next(blocks, b"")
    if not last:
        return None
    tops = []  # the last key and value of each object, the whole file's last

    def last_item(items):
        tops.append(items[-1:])
        return dict(items)

    try:
        obj = json.loads(b"".join([*head, b"[]", block]).decode("utf-8"), object_pairs_hook=last_item,
                         parse_int=partial(_json_int, "remap file"))
    except (ValueError, RecursionError):
        return None
    return (obj, parts) if tops[-1] == [("pairs", [])] else None


def _inverse(parts: list[np.ndarray]) -> np.ndarray:
    """``inverse[dense] = original`` of the pairs flat as ``original, dense, ...`` in ``parts``, whose dense ids
    must cover ``0..n-1`` once each."""
    size = sum(part.size for part in parts) // 2
    seen = np.zeros(size, dtype=bool)
    if all(0 <= int(part[1::2].min()) and int(part[1::2].max()) < size for part in parts if part.size):
        for part in parts:
            seen[part[1::2]] = True
    if not seen.all():
        raise RemapInconsistent(f"dense ids must cover 0..{size - 1} exactly once")
    del seen
    inverse = np.empty(size, dtype=parts[0].dtype if parts else np.int64)
    for part in parts:
        inverse[part[1::2]] = part[::2]
    return inverse


def read_remap(path) -> RemapTable:
    """Malformed JSON raises :class:`FormatError`, non-bijective pairs :class:`RemapInconsistent`.

    A file that :func:`_read_pairs` does not take is read whole by ``json.loads``, with the same errors.
    """
    obj, parts = _read_pairs(path) or (_read_json_object(path, "remap file"), None)
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
    if parts is None:
        try:  # np.asarray([]) has shape (0,), but an empty remap is valid
            pairs = np.asarray(obj["pairs"]) if obj["pairs"] != [] else np.empty((0, 2), dtype=np.int64)
        except ValueError:  # ragged
            pairs = np.empty(0)
        if (pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu"
                or not _only_ints(chain.from_iterable(obj["pairs"]))):
            raise FormatError("remap pairs must be a list of [original_id, dense_id] JSON integer pairs")
        parts = [pairs.ravel()]
    del obj
    inverse = _inverse(parts)
    del parts
    try:
        return RemapTable(original_vocab_size, inverse, ordering, keep_tokens)
    except ValueError as err:
        raise RemapInconsistent(str(err)) from None


def report_to_json(report: PruneReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2) + "\n"


def write_report(report: PruneReport, path) -> None:
    _write(path, [report_to_json(report).encode()])


def write_growth_csv(curve: GrowthCurve, path) -> None:
    values = np.column_stack((curve.tokens, curve.unique)).ravel()
    _write(path, chain([b"tokens,unique\n"], _text_chunks(values, np.arange(0, values.size + 1, 2), ord(","))))


def write_json(obj: dict, path) -> None:
    """``obj`` as ``json.dumps(obj, indent=2)`` and a newline; its last value is an integer array, written as a list."""
    _write(path, map(str.encode, _json_pieces(obj)))


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
