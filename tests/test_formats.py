"""File format round-trips and rejection of malformed inputs."""

import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dep import (
    BadMagic,
    EmbeddingMatrix,
    FormatError,
    GrowthCurve,
    InconsistentInputs,
    ModelConfig,
    OutOfRangeToken,
    RemapInconsistent,
    RemapOrdering,
    RemapTable,
    TokenizedDataset,
    UnsupportedVersion,
    report_from_counts,
    restore_embeddings,
)
from dep import formats, vocab

from _strategies import float32_matrices, token_datasets


def reference_dataset_bytes(dataset):
    """The v1 layout written one sequence at a time."""
    out = [struct.pack("<4sIQQ", b"DEPT", 1, dataset.vocab_size, dataset.num_sequences)]
    for seq in dataset.to_lists():
        out.append(struct.pack(f"<I{len(seq)}I", len(seq), *seq))
    return b"".join(out)


def reference_read_text(data: bytes, vocab_size=None):
    """The text form read one line and one id at a time with ``int()``.

    Checks run in the reader's order: UTF-8, then the first line with a
    character that is not plain ASCII (or a ``+`` or ``_``), then the first
    line with a field that is not ``-?d+`` or not an int64 by
    :func:`reference_int64`'s fixed rule, then ``vocab_size`` (default max
    id + 1, capped at 2**32), then the first id outside ``[0, vocab_size)``.
    """
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as err:
        raise FormatError(f"text dataset is not UTF-8: {err}") from None
    if lines[-1] == "":
        lines.pop()
    not_decimal = "line {}: token ids must be decimal integers"
    for line_no, line in enumerate(lines, start=1):
        if not line.isascii() or "+" in line or "_" in line:
            raise FormatError(not_decimal.format(line_no))
    rows = []
    for line_no, line in enumerate(lines, start=1):
        try:
            rows.append([reference_int64(field) for field in line.split()])
        except ValueError:
            raise FormatError(not_decimal.format(line_no)) from None
    if vocab_size is None:
        vocab_size = min(max([0] + [value + 1 for row in rows for value in row]), 2**32)
    if not 0 <= vocab_size <= 2**32:
        raise FormatError(f"vocab_size {vocab_size} is outside the u32 id range 0..{2**32}")
    for seq, row in enumerate(rows):
        for pos, value in enumerate(row):
            if not 0 <= value < vocab_size:
                raise OutOfRangeToken(seq, pos, value, vocab_size)
    return TokenizedDataset(rows, vocab_size)


def reference_int64(field: str) -> int:
    """A field ``-?d+`` as an int, by one rule whatever ``PYTHONINTMAXSTRDIGITS`` says: at most 4300 digits after
    the sign, leading zeros included, then at most 19 after the leading zeros, then the int64 range."""
    digits = field.removeprefix("-")
    significant = digits.lstrip("0") or "0"
    if not (digits.isascii() and digits.isdigit()) or len(digits) > 4300 or len(significant) > 19:
        raise ValueError(field)
    value = -int(significant) if digits != field else int(significant)
    if not -2**63 <= value < 2**63:
        raise ValueError(field)
    return value


def _outcome(read, source, vocab_size):
    """A dataset as its lists and vocabulary, or an error as its type, message and located id."""
    try:
        dataset = read(source, vocab_size)
    except (FormatError, OutOfRangeToken) as err:
        return type(err), str(err), [getattr(err, name, None) for name in ("sequence_index", "position", "token_id")]
    return dataset.to_lists(), dataset.vocab_size


_CHUNK_SIZES = st.sampled_from([1, 2, 3, 7, vocab._BLOCK])
_DIGIT_RUNS = st.sampled_from([1, 2, 10, 11, 19, 20]).flatmap(lambda n: st.text("0123456789", min_size=n, max_size=n))
_TEXT_PIECES = st.one_of(
    st.sampled_from([*"0123456789", *(chr(b) for b in range(128) if chr(b).isspace()), "-", "+", "_", "x", "３"]),
    _DIGIT_RUNS,
    st.sampled_from(["0000000000", "00000000007", "4294967295", "4294967296", "9999999999", "9223372036854775807",
                     "9223372036854775808", "-9223372036854775808", "-9223372036854775809", "-0", "-3", "--",
                     "0" * 24 + "7"]),
).map(lambda piece: piece.encode("utf-8")) | st.just(b"\xff")


@st.composite
def _wide_id_datasets(draw):
    rows = draw(st.lists(st.lists(st.integers(0, 2**32 - 1) | st.sampled_from([9, 10, 2**32 - 1]), max_size=6),
                         max_size=6))
    return TokenizedDataset(rows, 2**32)


def _empty_line_datasets():
    return st.integers(0, 5).map(lambda n: TokenizedDataset([[]] * n, 3))


def _change_before_second_read(monkeypatch, path, change) -> None:
    """Rewrite the file ``path`` to ``change(its bytes)`` just before the text reader's second read of it."""
    blocks, calls = formats._line_blocks, []

    def change_then_read(handle):
        calls.append(handle)
        if len(calls) == 2:
            path.write_bytes(change(path.read_bytes()))  # the same file, which the reader holds open
        return blocks(handle)

    monkeypatch.setattr(formats, "_line_blocks", change_then_read)


class TestDatasetFiles:
    @given(token_datasets(max_sequences=12), st.sampled_from([1, 2, 3, 7, vocab._BLOCK]))
    def test_binary_roundtrip(self, dataset, chunk_words):
        """Any chunk size reads back the written dataset, with empty, no and longer-than-a-chunk sequences."""
        import tempfile, os

        fd, path = tempfile.mkstemp(suffix=".dept")
        os.close(fd)
        try:
            with mock.patch.object(vocab, "_BLOCK", chunk_words):
                formats.write_dataset_binary(dataset, path)
                read = formats.read_dataset_binary(path)
            assert read == dataset
            assert read.tokens.dtype == np.uint32 and read.tokens.flags.c_contiguous
        finally:
            os.unlink(path)

    def test_text_roundtrip(self, tmp_path):
        dataset = TokenizedDataset(([1, 2], [], [4]), 6)
        path = tmp_path / "data.txt"
        formats.write_dataset_text(dataset, path)
        assert path.read_text() == "1 2\n\n4\n"
        assert formats.read_dataset_text(path, 6) == dataset

    @given(token_datasets() | _wide_id_datasets() | _empty_line_datasets(), _CHUNK_SIZES)
    def test_text_writer_bytes_and_roundtrip(self, dataset, chunk_words):
        """Ids up to 2**32 - 1, empty and all-empty datasets, at any chunk size."""
        import tempfile, os

        fd, path = tempfile.mkstemp(suffix=".txt")
        os.close(fd)
        try:
            with mock.patch.object(vocab, "_BLOCK", chunk_words):
                formats.write_dataset_text(dataset, path)
                with open(path, "rb") as handle:
                    expected = "".join(" ".join(map(str, ids)) + "\n" for ids in dataset.to_lists())
                    assert handle.read() == expected.encode("utf-8")
                assert formats.read_dataset_text(path, dataset.vocab_size) == dataset
        finally:
            os.unlink(path)

    @settings(max_examples=400)
    @given(st.lists(_TEXT_PIECES, max_size=24).map(b"".join),
           st.none() | st.integers(-1, 40) | st.sampled_from([2**32 - 1, 2**32, 2**32 + 1]), _CHUNK_SIZES)
    @example(b"x\n+\n", None, 1)  # a "+" on a later line than a bad field is still reported first
    @example(b"x 3\n+\n", None, vocab._BLOCK)
    @example(b"+\nx\n7\n\xff\n", None, 2)  # a byte that is not UTF-8 wins from a later block, at its file position
    @example(b"1\n+ x\n" + b"2\n" * 40 + b"3\xe3\x81\n", None, 3)  # ... and an error naming two bytes
    @example(b"1 22 333 4444\n5 x\n6\n", None, 3)  # a line longer than a block, then a bad field
    @example(b"1 2\n\n3 44", None, 2)  # no newline at the end, in a later block than the first
    @example(b"\n\n\n", None, 1)  # only newlines: three empty sequences
    @example(b"1 2\n" + b"9" * 5000 + b"\n", None, vocab._BLOCK)  # more digits than int() converts
    @example(b"1 2\n" + b"0" * 5000 + b"7\n", None, vocab._BLOCK)  # ... even when its value is small
    @example(b"1 2\n-" + b"0" * 5000 + b"1\n", None, vocab._BLOCK)
    def test_text_reader_matches_per_line_reference(self, data, vocab_size, chunk_words):
        """The same dataset as the per-line reference, or the same error with the same fields."""
        import tempfile, os

        fd, path = tempfile.mkstemp(suffix=".txt")
        os.write(fd, data)
        os.close(fd)
        try:
            with mock.patch.object(vocab, "_BLOCK", chunk_words):
                got = _outcome(formats.read_dataset_text, path, vocab_size)
        finally:
            os.unlink(path)
        assert got == _outcome(reference_read_text, data, vocab_size)

    def test_long_ids_read_the_same_whatever_int_max_str_digits(self, tmp_path):
        """A 5001-digit id is never an int64 and a 700-digit zero-padded one always is, whatever limit
        ``PYTHONINTMAXSTRDIGITS`` sets on the digits ``int()`` converts."""
        paths = [tmp_path / "long.txt", tmp_path / "padded.txt"]
        paths[0].write_bytes(b"1 2\n" + b"0" * 5000 + b"7\n")
        paths[1].write_bytes(b"0" * 699 + b"7 1\n")
        code = ("import sys\nfrom dep import FormatError, formats\nfor path in sys.argv[1:]:\n"
                "    try:\n        print(formats.read_dataset_text(path).to_lists())\n"
                "    except FormatError as err:\n        print(err)\n")
        outcomes = []
        for limit in (None, "0", "640"):
            env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                                                              env.get("PYTHONPATH")]))
            if limit is not None:
                env["PYTHONINTMAXSTRDIGITS"] = limit
            child = subprocess.run([sys.executable, "-c", code, *map(str, paths)], env=env, capture_output=True,
                                   text=True, timeout=60)
            assert child.returncode == 0, child.stderr
            outcomes.append(child.stdout)
        assert outcomes == [outcomes[0]] * 3
        assert outcomes[0].splitlines() == ["line 2: token ids must be decimal integers", "[[7, 1]]"]

    @pytest.mark.parametrize("change", [
        pytest.param(lambda data: data + b"7\n", id="grown"),
        pytest.param(lambda data: data[:4], id="cut"),
        pytest.param(lambda data: data.replace(b"5", b"x"), id="rewritten"),
    ])
    def test_text_changed_between_its_two_reads_is_bad_format(self, tmp_path, monkeypatch, change):
        """The first read counts the ids and lines; a second read that finds others raises before writing past
        what the first allocated."""
        path = tmp_path / "data.txt"
        path.write_bytes(b"1 2\n3 4\n5 6\n")
        _change_before_second_read(monkeypatch, path, change)
        with pytest.raises(FormatError, match=f"^text dataset {path} changed while it was read$"):
            formats.read_dataset_text(path)

    def test_text_vocab_inferred_as_max_plus_one(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("3 1\n7\n")
        assert formats.read_dataset_text(path).vocab_size == 8

    def test_empty_text_file(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("")
        dataset = formats.read_dataset_text(path)
        assert dataset.num_sequences == 0
        assert dataset.vocab_size == 0

    @pytest.mark.parametrize("text, sequences", [
        ("1 2\x0c3", [[1, 2, 3]]),
        ("1 2\r\n3\r\n", [[1, 2], [3]]),
        ("1\t2\n3\n", [[1, 2], [3]]),
        ("", []),
        ("1\n\n", [[1], []]),
        ("1\r2\n", [[1, 2]]),
        ("1\x0b2\x1c3\x1d4\x1e5\x1f6\n", [[1, 2, 3, 4, 5, 6]]),
    ], ids=["form-feed", "crlf", "tab", "empty-file", "trailing-empty-line", "lone-cr", "other-controls"])
    def test_text_only_newline_ends_a_line(self, tmp_path, text, sequences):
        path = tmp_path / "data.txt"
        path.write_bytes(text.encode("ascii"))
        assert formats.read_dataset_text(path, 8).to_lists() == sequences

    @pytest.mark.parametrize("bad", [b"x", "\uff13".encode("utf-8")], ids=["word", "full-width-digit"])
    def test_text_error_after_form_feed_is_line_1(self, tmp_path, bad):
        path = tmp_path / "data.txt"
        path.write_bytes(b"1\x0c2 " + bad + b"\n3\n")
        with pytest.raises(FormatError, match="^line 1: "):
            formats.read_dataset_text(path, 8)

    def test_text_non_integer_rejected(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 two 3\n")
        with pytest.raises(FormatError):
            formats.read_dataset_text(path)

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "data.dept"
        good = tmp_path / "good.dept"
        formats.write_dataset_binary(TokenizedDataset(([1],), 2), good)
        path.write_bytes(b"XXXX" + good.read_bytes()[4:])
        with pytest.raises(BadMagic):
            formats.read_dataset_binary(path)

    def test_binary_bad_version(self, tmp_path):
        path = tmp_path / "data.dept"
        good = tmp_path / "good.dept"
        formats.write_dataset_binary(TokenizedDataset(([1],), 2), good)
        raw = bytearray(good.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersion):
            formats.read_dataset_binary(path)

    def test_binary_truncated(self, tmp_path):
        path = tmp_path / "data.dept"
        formats.write_dataset_binary(TokenizedDataset(([1, 0, 1],), 2), path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FormatError):
            formats.read_dataset_binary(path)

    def test_binary_trailing_data(self, tmp_path):
        path = tmp_path / "data.dept"
        formats.write_dataset_binary(TokenizedDataset(([1],), 2), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            formats.read_dataset_binary(path)

    def test_binary_token_out_of_declared_vocab(self, tmp_path):
        path = tmp_path / "data.dept"
        formats.write_dataset_binary(TokenizedDataset(([1, 3],), 4), path)
        raw = bytearray(path.read_bytes())
        raw[8:16] = (2).to_bytes(8, "little")  # shrink declared vocab below max id
        path.write_bytes(bytes(raw))
        with pytest.raises(OutOfRangeToken):
            formats.read_dataset_binary(path)

    def test_every_truncation_is_a_format_error(self, tmp_path):
        good = tmp_path / "good.dept"
        formats.write_dataset_binary(TokenizedDataset(([1, 2], [], [3], [0, 1, 2]), 4), good)
        raw = good.read_bytes()
        path = tmp_path / "cut.dept"
        for size in range(len(raw)):
            path.write_bytes(raw[:size])
            with pytest.raises(FormatError):
                formats.read_dataset_binary(path)

    @given(token_datasets(max_sequences=12), st.integers(1, 9))
    def test_writer_matches_per_sequence_reference(self, dataset, chunk_words):
        import tempfile, os

        fd, path = tempfile.mkstemp(suffix=".dept")
        os.close(fd)
        try:
            with mock.patch.object(vocab, "_BLOCK", chunk_words):
                formats.write_dataset_binary(dataset, path)
            with open(path, "rb") as handle:
                assert handle.read() == reference_dataset_bytes(dataset)
        finally:
            os.unlink(path)

    def test_reader_holds_the_ids_once(self, tmp_path, monkeypatch):
        """Reading N body words allocates under 1.25 x 4N bytes: the ids are compacted inside the file's buffer.

        The chunk is scaled down with the file, so the bound measures the
        reader's layout rather than the fixed size of one chunk's temporaries.
        """
        rng = np.random.default_rng(3)
        lengths = rng.integers(0, 200, size=10_000)
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        tokens = rng.integers(0, 30_000, size=int(offsets[-1]), dtype=np.uint32)
        path = tmp_path / "d.dept"
        formats.write_dataset_binary(TokenizedDataset.from_flat(tokens, offsets, 30_000), path)
        body_words = tokens.size + lengths.size
        monkeypatch.setattr(vocab, "_BLOCK", 1 << 14)
        tracemalloc.start()
        try:
            read = formats.read_dataset_binary(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(read.tokens, tokens) and np.array_equal(read.offsets, offsets)
        assert peak < 1.25 * 4 * body_words

    def test_text_out_of_range_reports_location(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 2\n\n\n4 9\n")
        with pytest.raises(OutOfRangeToken) as err:
            formats.read_dataset_text(path, 5)
        assert (err.value.sequence_index, err.value.position, err.value.token_id) == (3, 1, 9)

    def test_text_negative_id_rejected(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1\n-3\n")
        with pytest.raises(OutOfRangeToken) as err:
            formats.read_dataset_text(path)
        assert (err.value.sequence_index, err.value.position) == (1, 0)

    @pytest.mark.parametrize("field", ["1_0", "+3", "\uff13", "1\u00a02", "2\u2028"],
                             ids=["underscore", "plus", "full-width-digit", "nbsp", "line-separator"])
    def test_text_non_decimal_id_rejected(self, tmp_path, field):
        path = tmp_path / "data.txt"
        path.write_text(f"1 2\n\n3 {field}\n4\n", encoding="utf-8")
        with pytest.raises(FormatError, match="^line 3: "):
            formats.read_dataset_text(path, 20)

    def test_read_dataset_dispatch(self, tmp_path):
        dataset = TokenizedDataset(([0, 1],), 3)
        text, binary = tmp_path / "d.txt", tmp_path / "d.dept"
        formats.write_dataset(dataset, text)
        formats.write_dataset(dataset, binary)
        assert formats.read_dataset(text, 3) == dataset
        assert formats.read_dataset(binary) == dataset
        with pytest.raises(InconsistentInputs):
            formats.read_dataset(binary, vocab_size=5)


def _truncated_after_size_check(tmp_path, monkeypatch):
    """A 4 x 2 ``DEPE`` file that loses its last row right after ``_check_embeddings`` accepts its size."""
    path = tmp_path / "emb.depe"
    formats.write_embeddings(EmbeddingMatrix(np.ones((4, 2), dtype=np.float32)), path)
    check = formats._check_embeddings

    def check_then_truncate(fields, values):
        shape = check(fields, values)
        path.write_bytes(path.read_bytes()[:-8])
        return shape

    monkeypatch.setattr(formats, "_check_embeddings", check_then_truncate)
    return path


class TestEmbeddingFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(37)
        matrix = EmbeddingMatrix(rng.standard_normal((50, 7)).astype(np.float32))
        path = tmp_path / "emb.depe"
        formats.write_embeddings(matrix, path)
        assert formats.read_embeddings(path) == matrix

    def test_nan_payload_roundtrips(self, tmp_path):
        data = np.array([[np.nan, -0.0], [np.inf, 1.5]], dtype=np.float32)
        path = tmp_path / "emb.depe"
        formats.write_embeddings(EmbeddingMatrix(data), path)
        assert formats.read_embeddings(path).data.tobytes() == data.tobytes()

    def test_zero_row_matrix(self, tmp_path):
        matrix = EmbeddingMatrix(np.empty((0, 3), dtype=np.float32))
        path = tmp_path / "emb.depe"
        formats.write_embeddings(matrix, path)
        loaded = formats.read_embeddings(path)
        assert (loaded.rows, loaded.dim) == (0, 3)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "emb.depe"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(BadMagic):
            formats.read_embeddings(path)

    def test_wrong_dtype_code(self, tmp_path):
        good = tmp_path / "good.depe"
        formats.write_embeddings(EmbeddingMatrix(np.ones((1, 1), dtype=np.float32)), good)
        raw = bytearray(good.read_bytes())
        raw[8] = 2
        bad = tmp_path / "bad.depe"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            formats.read_embeddings(bad)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "emb.depe"
        formats.write_embeddings(EmbeddingMatrix(np.ones((2, 2), dtype=np.float32)), path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError):
            formats.read_embeddings(path)

    @pytest.mark.parametrize("extra", [b"\x00", bytes(4)], ids=["partial-word", "whole-word"])
    def test_trailing_payload(self, tmp_path, extra):
        path = tmp_path / "emb.depe"
        formats.write_embeddings(EmbeddingMatrix(np.ones((2, 2), dtype=np.float32)), path)
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(FormatError):
            formats.read_embeddings(path)

    def test_zero_dim_rejected(self, tmp_path):
        path = tmp_path / "emb.depe"
        path.write_bytes(struct.pack("<4sIBQQ", b"DEPE", 1, 1, 3, 0))
        with pytest.raises(FormatError):
            formats.read_embeddings(path)

    def test_open_embeddings_returns_path_and_shape(self, tmp_path):
        path = tmp_path / "emb.depe"
        formats.write_embeddings(EmbeddingMatrix(np.zeros((3, 2), dtype=np.float32)), path)
        base = formats.open_embeddings(path)
        assert (base.path, base.rows, base.dim) == (path, 3, 2)

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda raw: raw[:-1], id="truncated"),
        pytest.param(lambda raw: raw + bytes(4), id="trailing-word"),
        pytest.param(lambda raw: raw[:8] + b"\x02" + raw[9:], id="dtype-code"),
        pytest.param(lambda raw: raw[:17] + struct.pack("<Q", 0) + raw[25:], id="zero-dim"),
    ])
    def test_open_embeddings_rejects_what_read_embeddings_rejects(self, tmp_path, damage):
        path = tmp_path / "emb.depe"
        formats.write_embeddings(EmbeddingMatrix(np.ones((2, 2), dtype=np.float32)), path)
        path.write_bytes(damage(path.read_bytes()))
        for reader in (formats.read_embeddings, formats.open_embeddings):
            with pytest.raises(FormatError):
                reader(path)

    @pytest.mark.parametrize("change", [
        pytest.param(lambda path: path.write_bytes(path.read_bytes()[:-4]), id="truncated"),
        pytest.param(lambda path: formats.write_embeddings(EmbeddingMatrix(np.ones((2, 4), dtype=np.float32)), path),
                     id="same-size-other-shape"),
    ])
    def test_patch_of_a_file_changed_after_open_is_bad_format(self, tmp_path, change):
        path = tmp_path / "emb.depe"
        formats.write_embeddings(EmbeddingMatrix(np.ones((4, 2), dtype=np.float32)), path)
        base = formats.open_embeddings(path)
        change(path)
        patch = restore_embeddings(base, EmbeddingMatrix(np.zeros((1, 2), dtype=np.float32)), RemapTable(4, [2]))
        with pytest.raises(FormatError, match="changed after it was validated"):
            formats.write_embeddings(patch, tmp_path / "out.depe")

    def test_patch_writes_runs_of_consecutive_ids(self, tmp_path):
        rng = np.random.default_rng(5)
        matrix = EmbeddingMatrix(rng.standard_normal((9, 3)).astype(np.float32))
        learned = EmbeddingMatrix(rng.standard_normal((6, 3)).astype(np.float32))
        remap = RemapTable(9, [4, 5, 6, 0, 8, 7])  # runs 4-6, 0, 8, 7
        path = tmp_path / "emb.depe"
        formats.write_embeddings(matrix, path)
        with mock.patch("os.pwrite", wraps=os.pwrite) as pwrite:
            formats.write_embeddings(restore_embeddings(formats.open_embeddings(path), learned, remap), tmp_path / "p")
        assert [len(call.args[1]) for call in pwrite.call_args_list] == [3 * 12, 12, 12, 12]
        formats.write_embeddings(restore_embeddings(matrix, learned, remap), tmp_path / "m")
        assert (tmp_path / "p").read_bytes() == (tmp_path / "m").read_bytes()

    def test_file_truncated_after_its_size_check_is_bad_format(self, tmp_path, monkeypatch):
        path = _truncated_after_size_check(tmp_path, monkeypatch)
        with pytest.raises(FormatError, match="changed after it was validated"):
            formats.read_embeddings(path, rows=[3])

    @pytest.mark.parametrize("rows, calls", [
        pytest.param([0, 1, 2, 4, 5], [[3 * 12], [2 * 12]], id="ascending"),
        pytest.param([4, 5, 6, 0, 8, 7], [[12], [3 * 12], [12], [12]], id="one-buffer-per-run-in-id-order"),
        pytest.param([2, 2], [[12], [12]], id="repeated-id-read-twice"),
    ])
    def test_one_preadv_per_run_of_consecutive_ids(self, tmp_path, rows, calls):
        rng = np.random.default_rng(5)
        matrix = EmbeddingMatrix(rng.standard_normal((9, 3)).astype(np.float32))
        path = tmp_path / "emb.depe"
        formats.write_embeddings(matrix, path)
        with mock.patch("os.preadv", wraps=os.preadv) as preadv:
            selected = formats.read_embeddings(path, rows=rows)
        assert [[len(view) for view in call.args[1]] for call in preadv.call_args_list] == calls
        assert selected == EmbeddingMatrix(matrix.data[rows])

    def test_whole_matrix_is_one_preadv(self, tmp_path):
        matrix = EmbeddingMatrix(np.random.default_rng(5).standard_normal((9, 3)).astype(np.float32))
        path = tmp_path / "emb.depe"
        formats.write_embeddings(matrix, path)
        with mock.patch("os.preadv", wraps=os.preadv) as preadv:
            assert formats.read_embeddings(path) == matrix
        assert [[len(view) for view in call.args[1]] for call in preadv.call_args_list] == [[9 * 12]]

    def test_whole_matrix_allocates_only_its_buffer(self, tmp_path):
        matrix = EmbeddingMatrix(np.random.default_rng(5).standard_normal((20_000, 2)).astype(np.float32))
        path = tmp_path / "emb.depe"
        formats.write_embeddings(matrix, path)
        tracemalloc.start()
        try:
            read = formats.read_embeddings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read == matrix
        assert peak < matrix.data.nbytes + 16_384

    def test_whole_matrix_truncated_after_its_size_check_is_bad_format(self, tmp_path, monkeypatch):
        path = _truncated_after_size_check(tmp_path, monkeypatch)
        with pytest.raises(FormatError, match="changed after it was validated"):
            formats.read_embeddings(path)

    def test_header_is_little_endian_layout(self, tmp_path):
        path = tmp_path / "emb.depe"
        formats.write_embeddings(EmbeddingMatrix(np.zeros((3, 2), dtype=np.float32)), path)
        raw = path.read_bytes()
        assert raw[:4] == b"DEPE"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert raw[8] == 1
        assert int.from_bytes(raw[9:17], "little") == 3
        assert int.from_bytes(raw[17:25], "little") == 2
        assert len(raw) == 25 + 3 * 2 * 4


@st.composite
def _row_selections(draw):
    """(matrix, ids): empty, every id, an ascending subset, a permutation of a subset, or ids with repeats."""
    rows, dim = draw(st.integers(0, 30)), draw(st.integers(1, 4))
    subset = draw(st.lists(st.integers(0, rows - 1), unique=True)) if rows else []
    repeats = draw(st.lists(st.integers(0, rows - 1), min_size=1)) if rows else []
    ids = draw(st.sampled_from([[], list(range(rows)), sorted(subset), subset, repeats]))
    return draw(float32_matrices(rows, dim)), ids


class TestRowReader:
    """``read_embeddings(path, rows=ids)`` is ``read_embeddings(path).data[ids]``, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(selection=_row_selections())
    def test_matches_whole_matrix_gather(self, tmp_path_factory, selection):
        matrix, ids = selection
        path = tmp_path_factory.mktemp("rows") / "emb.depe"
        formats.write_embeddings(matrix, path)
        selected = formats.read_embeddings(path, rows=np.array(ids, dtype=np.int64))
        expected = formats.read_embeddings(path).data[ids]
        assert selected.data.shape == expected.shape
        assert selected.data.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(selection=_row_selections(), seed=st.integers(0, 2**32 - 1))
    def test_calls_that_move_at_most_7_bytes_are_resumed(self, tmp_path_factory, selection, seed):
        """Whole and selected reads and a patch write give the in-memory result when every call comes back short."""
        matrix, ids = selection
        tmp = tmp_path_factory.mktemp("short")
        path = tmp / "emb.depe"
        formats.write_embeddings(matrix, path)
        inverse = list(dict.fromkeys(ids))
        remap = RemapTable(matrix.rows, inverse)
        learned = np.random.default_rng(seed).standard_normal((len(inverse), matrix.dim)).astype(np.float32)
        preadv, pwrite = os.preadv, os.pwrite

        def short_preadv(fd, buffers, offset):
            [view] = buffers
            return preadv(fd, [view[:7]], offset)

        with mock.patch("os.preadv", side_effect=short_preadv) as reads, \
                mock.patch("os.pwrite", side_effect=lambda fd, view, offset: pwrite(fd, view[:7], offset)):
            whole = formats.read_embeddings(path)
            selected = formats.read_embeddings(path, rows=np.array(ids, dtype=np.int64))
            patch = restore_embeddings(formats.open_embeddings(path), EmbeddingMatrix(learned), remap)
            formats.write_embeddings(patch, tmp / "patched.depe")
        assert reads.call_count >= -(-matrix.data.nbytes // 7)
        assert whole == matrix
        assert selected.data.shape == (len(ids), matrix.dim)
        assert selected.data.tobytes() == matrix.data[ids].tobytes()
        formats.write_embeddings(restore_embeddings(matrix, EmbeddingMatrix(learned), remap), tmp / "oracle.depe")
        assert (tmp / "patched.depe").read_bytes() == (tmp / "oracle.depe").read_bytes()

    @pytest.mark.parametrize("ids, runs", [
        pytest.param(np.array([2**32 - 1, 0, 1], dtype=np.uint32), [(0, 1), (1, 3)], id="uint32-wrap"),
        pytest.param(np.array([255, 0], dtype=np.uint8), [(0, 1), (1, 2)], id="uint8-wrap"),
        pytest.param(np.array([], dtype=np.int64), [], id="empty"),
    ])
    def test_runs_do_not_wrap_at_the_id_width(self, ids, runs):
        assert formats._runs(ids) == runs

    @pytest.mark.parametrize("ids", [[-1], [0, 4], [2**32], np.array([2**64 - 1], dtype=np.uint64)])
    def test_id_outside_the_matrix_is_bad_format(self, tmp_path, ids):
        path = tmp_path / "emb.depe"
        formats.write_embeddings(EmbeddingMatrix(np.ones((4, 2), dtype=np.float32)), path)
        with pytest.raises(FormatError, match=r"row ids must be in 0\.\.3"):
            formats.read_embeddings(path, rows=ids)

    @pytest.mark.parametrize("ids", [[[0, 1]], [0.0], [True]], ids=["2-D", "float", "bool"])
    def test_ids_that_are_not_integers_are_rejected(self, tmp_path, ids):
        path = tmp_path / "emb.depe"
        formats.write_embeddings(EmbeddingMatrix(np.ones((4, 2), dtype=np.float32)), path)
        with pytest.raises(ValueError, match="integer ids"):
            formats.read_embeddings(path, rows=ids)


def reference_read_remap(data: bytes) -> RemapTable:
    """The remap reader as it was before pairs were parsed in blocks: ``json.loads`` on the whole text, the pairs
    as Python lists, then one numpy array, then a sort of the dense ids; keep ids checked as a set."""
    try:
        obj = json.loads(formats._decode_utf8(data, "remap file"))
    except (ValueError, RecursionError) as err:
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
    types = {"original_vocab_size": int, "keep_tokens": list}
    for key, value in obj.items():
        if key in types and type(value) is not types[key]:
            raise FormatError(f"remap file {key} must be a JSON {types[key].__name__}, got {type(value).__name__}")
    vocab_size, keep = obj["original_vocab_size"], obj["keep_tokens"]
    if not set(map(type, keep)) <= {int}:
        raise FormatError("remap keep_tokens must be JSON integers")
    if not 0 <= vocab_size <= 2**32:
        raise FormatError(f"original_vocab_size {vocab_size} is outside the u32 id range 0..{2**32}")
    try:
        pairs = np.asarray(obj["pairs"]) if obj["pairs"] != [] else np.empty((0, 2), dtype=np.int64)
    except ValueError:
        pairs = np.empty(0)
    if (pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu"
            or not all(type(value) is int for pair in obj["pairs"] for value in pair)):
        raise FormatError("remap pairs must be a list of [original_id, dense_id] JSON integer pairs")
    dense = pairs[:, 1]
    if not np.array_equal(np.sort(dense), np.arange(dense.size)):
        raise RemapInconsistent(f"dense ids must cover 0..{dense.size - 1} exactly once")
    inverse = np.empty(dense.size, dtype=pairs.dtype)
    inverse[dense] = pairs[:, 0]
    try:
        RemapTable(vocab_size, inverse, ordering)
        unmapped = set(keep).difference(inverse.tolist())
        if unmapped:
            raise ValueError(f"keep token {min(unmapped)} is not a mapped id")
        return RemapTable(vocab_size, inverse, ordering, keep)
    except ValueError as err:
        raise RemapInconsistent(str(err)) from None


def _remap_outcome(read, source):
    """A remap as its fields, or an error as its type and message."""
    try:
        remap = read(source)
    except (FormatError, RemapInconsistent) as err:
        return type(err), str(err)
    return remap.original_vocab_size, remap.inverse.tolist(), remap.ordering, remap.keep_tokens


# What an edit puts in place of an id, or inserts anywhere, to make a remap the block reader must refuse or read
# exactly as json.loads does.
_ID_EDITS = ["-0", "00", "007", "-1", "1.0", "1e0", "1E2", "true", "false", "null", "1 2", "", "[1]", "[]", "[1, [2]]",
             "999999999999999999", "1000000000000000000", "9223372036854775807", "9223372036854775808",
             "99999999999999999999", "18446744073709551616"]
_INSERTS = [" ", "\t", "\n", "\r", "\x0b", "\x0c", "[", "]", ",", "0", "5", "-", ".", "e", "{", "}", '"', ":", "\u00e9",
            '"pairs": [], ']


@st.composite
def _remap_texts(draw):
    """A remap's JSON bytes in any whitespace and key order, maybe with a second ``pairs`` key, then up to three
    edits; and whether it is a file that the block reader must take (no edit, ``pairs`` last and once, not empty)."""
    space = st.text(" \t\n\r", max_size=2)
    ids = draw(st.lists(st.integers(0, 70), unique=True, max_size=12))
    pairs = draw(st.permutations([(original, dense) for dense, original in enumerate(ids)]))
    listed = ",".join(draw(space) + "[" + draw(space) + str(original) + draw(space) + "," + draw(space) + str(dense)
                      + draw(space) + "]" + draw(space) for original, dense in pairs)
    items = [("original_vocab_size", str(draw(st.sampled_from([71, 64, 30, 0, 2**32, 2**32 + 1])))),
             ("ordering", json.dumps(draw(st.sampled_from(["ascending_id", "frequency_descending", "random"])))),
             ("keep_tokens", json.dumps(draw(st.lists(st.integers(-2, 72), max_size=3)))),
             ("pairs", "[" + (listed or draw(space)) + "]")]
    if draw(st.booleans()):
        items = draw(st.permutations(items))
    if draw(st.integers(0, 3)) == 0:  # json.loads keeps the last value of a key
        items.insert(draw(st.integers(0, len(items))), ("pairs", draw(st.sampled_from(["[]", "[[0, 0]]", "[[5,0]]"]))))
    if draw(st.integers(0, 3)) == 0:  # another key after pairs, or "pairs" in a nested object
        items.insert(draw(st.integers(0, len(items))), draw(st.sampled_from(
            [("pairs", "7"), ("pairs", "{}"), ("x", '{"pairs": [[1, 0]]}'), ("x", "7"), ('a\\"pairs', "[[1, 0]]")])))
    text = ("{" + ",".join(draw(space) + json.dumps(key) + draw(space) + ":" + draw(space) + value + draw(space)
                           for key, value in items) + "}" + draw(space)).encode()
    taken = bool(pairs) and items[-1][0] == "pairs" and text.count(b'"pairs"') == 1
    for kind in draw(st.lists(st.sampled_from(["id", "insert", "delete", "byte"]), max_size=3)):
        taken = False
        at = draw(st.integers(0, len(text)))
        if kind == "id" and (ids := list(re.finditer(rb"\d+", text))):
            found = ids[draw(st.integers(0, len(ids) - 1))]
            text = text[:found.start()] + draw(st.sampled_from(_ID_EDITS)).encode() + text[found.end():]
        elif kind == "insert":
            text = text[:at] + draw(st.sampled_from(_INSERTS)).encode() + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + draw(st.sampled_from([b"\xff", b"\xe3\x81", b"\xef\xbb\xbf"])) + text[at:]
    return text, taken


@st.composite
def _remaps(draw):
    keep = draw(st.lists(st.integers(0, 63), unique=True, max_size=5))
    inverse = keep + draw(st.lists(st.integers(0, 63).filter(lambda i: i not in keep), unique=True))
    inverse = draw(st.permutations(inverse))
    return RemapTable(64, inverse, draw(st.sampled_from(list(RemapOrdering))), draw(st.permutations(keep)))


class TestRemapFiles:
    @given(remap=_remaps())
    def test_bytes_are_json_dumps_indent_2(self, remap):
        obj = {
            "original_vocab_size": remap.original_vocab_size,
            "ordering": remap.ordering.value,
            "keep_tokens": list(remap.keep_tokens),
            "pairs": [[orig, dense] for dense, orig in enumerate(remap.inverse.tolist())],
        }
        assert formats.remap_to_json(remap) == json.dumps(obj, indent=2) + "\n"

    def test_roundtrip(self, tmp_path):
        remap = RemapTable(10, [5, 2, 9], RemapOrdering.FREQUENCY_DESCENDING, (2,))
        path = tmp_path / "remap.json"
        formats.write_remap(remap, path)
        loaded = formats.read_remap(path)
        assert loaded == remap
        assert loaded.inverse.tolist() == [5, 2, 9]

    def test_empty_roundtrip(self, tmp_path):
        remap = RemapTable(4, [])
        path = tmp_path / "remap.json"
        formats.write_remap(remap, path)
        assert formats.read_remap(path) == remap

    def test_pairs_sorted_by_dense_id(self, tmp_path):
        import json

        remap = RemapTable(10, [7, 1, 4])
        path = tmp_path / "remap.json"
        formats.write_remap(remap, path)
        obj = json.loads(path.read_text())
        assert obj["pairs"] == [[7, 0], [1, 1], [4, 2]]

    def test_not_json(self, tmp_path):
        path = tmp_path / "remap.json"
        path.write_text("not json")
        with pytest.raises(FormatError):
            formats.read_remap(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "remap.json"
        path.write_text('{"original_vocab_size": 4}')
        with pytest.raises(FormatError):
            formats.read_remap(path)

    @pytest.mark.parametrize(
        "pairs",
        [
            [[0, 0], [1, 0]],          # duplicate dense id
            [[0, 0], [0, 1]],          # duplicate original id
            [[0, 0], [9, 1]],          # original id outside vocab
            [[0, 0], [1, 5]],          # dense ids not 0..n-1
        ],
    )
    def test_inconsistent_pairs(self, tmp_path, pairs):
        import json

        path = tmp_path / "remap.json"
        path.write_text(json.dumps({
            "original_vocab_size": 4,
            "ordering": "ascending_id",
            "keep_tokens": [],
            "pairs": pairs,
        }))
        with pytest.raises(RemapInconsistent):
            formats.read_remap(path)

    @pytest.mark.parametrize("change", [
        {"original_vocab_size": True}, {"keep_tokens": [False]}, {"pairs": [[0, 0], [True, 1]]},
    ])
    def test_boolean_rejected(self, tmp_path, change):
        path = tmp_path / "remap.json"
        formats.write_remap(RemapTable(4, [0, 2]), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
        with pytest.raises(FormatError, match="JSON int"):
            formats.read_remap(path)

    @pytest.mark.parametrize("keep", [[-5], [999999], [7]], ids=["negative", "past-vocab", "unmapped"])
    def test_keep_token_must_be_mapped(self, tmp_path, keep):
        path = tmp_path / "remap.json"
        path.write_text(json.dumps({
            "original_vocab_size": 8, "ordering": "ascending_id", "keep_tokens": keep, "pairs": [[1, 0], [3, 1]],
        }))
        with pytest.raises(RemapInconsistent, match=f"keep token {keep[0]} "):
            formats.read_remap(path)

    @settings(max_examples=400, deadline=None)
    @given(_remap_texts(), st.sampled_from([1, 7, vocab._BLOCK]))
    def test_reader_matches_json_reference(self, text, block):
        """The same remap as ``json.loads`` on the whole file, or the same error, at any block size; a plain file
        whose ``pairs`` is its last key is read by blocks."""
        data, taken = text
        fd, path = tempfile.mkstemp(suffix=".json")
        os.write(fd, data)
        os.close(fd)
        try:
            with mock.patch.object(vocab, "_BLOCK", block):
                got = _remap_outcome(formats.read_remap, path)
                by_blocks = formats._read_pairs(path) is not None
        finally:
            os.unlink(path)
        assert got == _remap_outcome(reference_read_remap, data)
        assert by_blocks or not taken

    @pytest.mark.parametrize("pairs", [
        b"[[3, 0], [1, 1]]", b"[[3,0],[1,1]]", b"[ [ 3 ,0 ] ,\r\n\t[1,1]\n]", b"[[1, 1], [3, 0]]", b"[[3, 0], [0, 1]]",
        b"[[03, 0], [1, 1]]", b"[[-0, 0], [1, 1]]", b"[[3, 0], [1, 1.0]]", b"[[3, 0], [1, 1e0]]", b"[[3, 0], [true, 1]]",
        b"[[3, 0], [1 1, 1]]", b"[[3, 0], [, 1]]", b"[[3, 0], [1, 1],]", b"[[3, 0] [1, 1]]", b"[[3, 0], [1, [1]]]",
        b"[[3, 0], [1, 1, 2]]", b"[[3, 0], [1]]", b"[]", b"[[3, 0], 7]", b"[[3, 0]] ", b"[[3, 0], [1, 1]]]",
        b"[[3, 0], [1000000000000000001, 1]]", b"[[3, 0], [99999999999999999999, 1]]",
        b"[[3, 0], [9223372036854775808, 1]]", b"[[3, 0], [1, 1]\x0b]", b"[[3, 0], [1, 1\xff]]",
        b"[[3, 0], 1[1, ]]", b"[[3,0],[1,]1]", b"[1[3, 0], [1, ]]", b"[[3, 0]1, [1, ]]", b"[[3, 0], [[1, 1]]]",
        b'[[3, 0], [1, 1]], "pairs": 7', b'[[3, 0], [1, 1]], "pairs": {}', b'[[3, 0], [1, 1]], "x": 7',
        b'[[1, 0]], "pairs": [[3, 0], [1, 1]]', b'[[3, 0], [1, 1]]}{', b'[[3, 0], [1, 1]]\n',
    ])
    @pytest.mark.parametrize("block", [1, 7, vocab._BLOCK])
    def test_pairs_layouts_match_json_reference(self, tmp_path, pairs, block):
        data = b'{"original_vocab_size": 8, "ordering": "ascending_id", "keep_tokens": [1], "pairs": ' + pairs + b"}\n"
        path = tmp_path / "remap.json"
        path.write_bytes(data)
        with mock.patch.object(vocab, "_BLOCK", block):
            assert _remap_outcome(formats.read_remap, path) == _remap_outcome(reference_read_remap, data)

    @pytest.mark.parametrize("data", [
        b'{"original_vocab_size": 8, "ordering": "ascending_id", "keep_tokens": [1], "x": {"pairs": [[1, 0]]}, '
        b'"pairs": {}}',
        b'{"pairs": [[1, 0]], "original_vocab_size": 8, "ordering": "ascending_id", "keep_tokens": [1]}',
        b'{"original_vocab_size": 8, "ordering": "ascending_id", "keep_tokens": [1], "a\\"pairs": [[1, 0]]}',
        b'{"original_vocab_size": 8, "ordering": "ascending_id", "keep_tokens": [1], "pair\\u0073": [[1, 0]]}',
        b'\xef\xbb\xbf{"original_vocab_size": 8, "ordering": "ascending_id", "keep_tokens": [1], "pairs": [[1, 0]]}',
        b'{"original_vocab_size": 8, "ordering": "ascending_id", "keep_tokens": [1], "pairs": [[1, 0]]',
        b'{"original_vocab_size": 8, "ordering": "ascending_\xff", "keep_tokens": [1], "pairs": [[1, 0]]}',
        b'[{"original_vocab_size": 8, "ordering": "ascending_id", "keep_tokens": [1], "pairs": [[1, 0]]}]',
    ], ids=["nested-pairs", "pairs-first", "escaped-quote-key", "escaped-key", "bom", "unclosed", "not-utf8-head",
            "not-an-object"])
    @pytest.mark.parametrize("block", [1, 7, vocab._BLOCK])
    def test_key_layouts_match_json_reference(self, tmp_path, data, block):
        path = tmp_path / "remap.json"
        path.write_bytes(data)
        with mock.patch.object(vocab, "_BLOCK", block):
            assert _remap_outcome(formats.read_remap, path) == _remap_outcome(reference_read_remap, data)

    @pytest.mark.parametrize("block", [1, 7, vocab._BLOCK])
    def test_written_remap_is_read_by_blocks(self, tmp_path, block):
        remap = RemapTable(300, np.arange(299, -1, -3), RemapOrdering.FREQUENCY_DESCENDING, (2, 299))
        path = tmp_path / "remap.json"
        formats.write_remap(remap, path)
        with mock.patch.object(vocab, "_BLOCK", block):
            assert formats._read_pairs(path) is not None
            assert formats.read_remap(path) == remap

    def test_unknown_ordering(self, tmp_path):
        import json

        path = tmp_path / "remap.json"
        path.write_text(json.dumps({
            "original_vocab_size": 4,
            "ordering": "random",
            "keep_tokens": [],
            "pairs": [[0, 0]],
        }))
        with pytest.raises(FormatError):
            formats.read_remap(path)


_ID_LISTS = st.one_of(
    st.just([]),
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=1),
    st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=300),
)


# Ids per piece are _BLOCK // 16: one at blocks 1 to 7, several at 100, and the whole list at the default.
_JSON_BLOCKS = st.sampled_from([1, 2, 3, 7, 100, vocab._BLOCK])


class TestIdListJson:
    """``write_json`` and ``remap_to_json`` list ids from a fixed pattern, with ``json.dumps(indent=2)``'s bytes,
    in pieces of any size."""

    @given(head=st.dictionaries(st.text(max_size=5).filter(lambda key: key != "ids"),
                                st.integers() | st.text(max_size=5) | st.none(), max_size=3),
           ids=_ID_LISTS, rows=st.integers(1, 3), block=_JSON_BLOCKS)
    def test_bytes_are_json_dumps_indent_2(self, head, ids, rows, block):
        flat = np.array(ids, dtype=np.uint32)
        grid = np.array(ids[:len(ids) // rows * rows], dtype=np.int64).reshape(-1, rows)
        for array in (flat, grid):
            obj = {**head, "ids": array}
            expected = json.dumps({**head, "ids": array.tolist()}, indent=2) + "\n"
            with mock.patch.object(vocab, "_BLOCK", block):
                assert formats._dumps_ids_last(obj) == expected

    @given(ids=_ID_LISTS, block=_JSON_BLOCKS)
    def test_write_json(self, tmp_path_factory, ids, block):
        path = tmp_path_factory.mktemp("json") / "stats.json"
        with mock.patch.object(vocab, "_BLOCK", block):
            formats.write_json({"vocab_size": 7, "unused_tokens": np.array(ids, dtype=np.int64)}, path)
        assert path.read_bytes() == (json.dumps({"vocab_size": 7, "unused_tokens": ids}, indent=2) + "\n").encode()

    @given(ids=_ID_LISTS, block=_JSON_BLOCKS)
    def test_write_remap(self, tmp_path_factory, ids, block):
        inverse = sorted(set(ids), reverse=True)
        remap = RemapTable(max(ids, default=0) + 1, inverse, RemapOrdering.FREQUENCY_DESCENDING, inverse[:1])
        path = tmp_path_factory.mktemp("json") / "remap.json"
        with mock.patch.object(vocab, "_BLOCK", block):
            formats.write_remap(remap, path)
            assert formats.remap_to_json(remap) == path.read_text()
        expected = json.dumps({"original_vocab_size": remap.original_vocab_size, "ordering": "frequency_descending",
                               "keep_tokens": inverse[:1], "pairs": [[original, dense] for dense, original
                                                                     in enumerate(inverse)]}, indent=2) + "\n"
        assert path.read_bytes() == expected.encode()


class TestReportAndCurveFiles:
    def test_report_roundtrip(self, tmp_path):
        config = ModelConfig(100, 8, 2, 2, max_positions=4, type_vocab=1, name="toy")
        report = report_from_counts(100, 40, config, timestamp="2024-06-01T00:00:00Z")
        path = tmp_path / "report.json"
        formats.write_report(report, path)
        assert json.loads(path.read_text()) == report.to_json_dict()

    def test_growth_csv_roundtrip(self, tmp_path):
        curve = GrowthCurve(((1, 1), (2, 2), (4, 3)), 10)
        path = tmp_path / "growth.csv"
        formats.write_growth_csv(curve, path)
        assert path.read_bytes() == b"tokens,unique\n1,1\n2,2\n4,3\n"

    @given(st.lists(st.tuples(st.integers(1, 2**48), st.integers(0, 2**48)), max_size=40),
           st.integers(0, 2**50), _CHUNK_SIZES)
    def test_growth_csv_matches_per_point_lines(self, steps, vocab_size, chunk_words):
        """Random valid curves, counts of more than 10 digits included, in chunks from one byte up."""
        points = [(2**32, min(2**32, vocab_size)), (10**12 + 1, min(2**33 + 7, vocab_size))]
        n, u = points[-1]
        for dn, du in steps:
            n, u = n + dn, min(u + du, n + dn, vocab_size)
            points.append((n, u))
        with tempfile.TemporaryDirectory() as work, mock.patch.object(vocab, "_BLOCK", chunk_words):
            path = os.path.join(work, "growth.csv")
            formats.write_growth_csv(GrowthCurve(points, vocab_size), path)
            with open(path, "rb") as handle:
                written = handle.read()
        assert written == ("tokens,unique\n" + "".join(f"{n},{u}\n" for n, u in points)).encode()

    @pytest.mark.parametrize("change", [
        pytest.param(lambda obj: [obj], id="top-level-list"),
        pytest.param(lambda obj: {**obj, "original_vocab": "100"}, id="int-as-string"),
        pytest.param(lambda obj: {**obj, "bytes_saved": 1.5}, id="int-as-float"),
        pytest.param(lambda obj: {**obj, "reduced_vocab": True}, id="int-as-bool"),
        pytest.param(lambda obj: {**obj, "pr_emb": None}, id="float-as-null"),
        pytest.param(lambda obj: {**obj, "poep": [0.5]}, id="float-as-list"),
        pytest.param(lambda obj: {**obj, "config_name": 5}, id="str-as-int"),
        pytest.param(lambda obj: {k: v for k, v in obj.items() if k != "timestamp"}, id="missing-key"),
    ])
    def test_malformed_report_is_format_error(self, change):
        """Nothing reads a report back; the shipped schema, its contract, rejects each malformed one."""
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(resources.files("dep").joinpath("report_schema.json").read_text())
        config = ModelConfig(100, 8, 2, 2, max_positions=4, type_vocab=1, name="toy")
        obj = report_from_counts(100, 40, config, timestamp="2024-06-01T00:00:00Z").to_json_dict()
        jsonschema.validate(obj, schema)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(change(obj), schema)

    @pytest.mark.parametrize("reader", [
        formats.read_dataset_text, formats.read_remap, formats.read_model_config,
    ])
    def test_undecodable_utf8_is_format_error(self, tmp_path, reader):
        path = tmp_path / "input"
        path.write_bytes(b"tokens,unique\n\xff\n")
        with pytest.raises(FormatError):
            reader(path)


class TestModelConfigFiles:
    def test_reads_required_and_optional_fields(self, tmp_path):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "vocab_size": 100, "d_model": 8, "num_layers": 2, "num_heads": 2,
            "max_positions": 16, "type_vocab": 1, "has_pooler": False,
        }))
        config = formats.read_model_config(path)
        assert config.vocab_size == 100
        assert config.has_pooler is False
        assert config.name == "cfg"  # defaults to file stem

    def test_unknown_keys_rejected(self, tmp_path):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "vocab_size": 100, "d_model": 8, "num_layers": 2, "num_heads": 2, "层数": 3,
        }))
        with pytest.raises(FormatError):
            formats.read_model_config(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"vocab_size": 100}')
        with pytest.raises(FormatError):
            formats.read_model_config(path)

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"vocab_size": ' + "9" * 5000 + "}"],
                             ids=["nested-past-recursion-limit", "integer-past-digit-limit"])
    def test_json_beyond_parser_limits_rejected(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(FormatError):
            formats.read_model_config(path)

    def test_shipped_configs_parse(self):
        from pathlib import Path

        config_dir = Path(__file__).resolve().parents[1] / "configs"
        names = set()
        for path in sorted(config_dir.glob("*.json")):
            config = formats.read_model_config(path)
            assert config.vocab_size > 0
            names.add(config.name)
        assert "bert-base" in names
