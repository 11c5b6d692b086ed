"""File format round-trips and rejection of malformed inputs."""

import json
import os
import struct
import tracemalloc
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
from dep import formats

from _strategies import float32_matrices, token_datasets


def reference_dataset_bytes(dataset):
    """The v1 layout written one sequence at a time."""
    out = [struct.pack("<4sIQQ", b"DEPT", 1, dataset.vocab_size, dataset.num_sequences)]
    for seq in dataset.to_lists():
        out.append(struct.pack(f"<I{len(seq)}I", len(seq), *seq))
    return b"".join(out)


class TestDatasetFiles:
    @given(token_datasets(max_sequences=12), st.sampled_from([1, 2, 3, 7, formats._CHUNK_WORDS]))
    def test_binary_roundtrip(self, dataset, chunk_words):
        """Any chunk size reads back the written dataset, with empty, no and longer-than-a-chunk sequences."""
        import tempfile, os

        fd, path = tempfile.mkstemp(suffix=".dept")
        os.close(fd)
        try:
            with mock.patch.object(formats, "_CHUNK_WORDS", chunk_words):
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

    @given(token_datasets())
    def test_text_writer_bytes_and_roundtrip(self, dataset):
        import tempfile, os

        fd, path = tempfile.mkstemp(suffix=".txt")
        os.close(fd)
        try:
            formats.write_dataset_text(dataset, path)
            with open(path, "rb") as handle:
                expected = "".join(" ".join(map(str, ids)) + "\n" for ids in dataset.to_lists())
                assert handle.read() == expected.encode("utf-8")
            assert formats.read_dataset_text(path, dataset.vocab_size) == dataset
        finally:
            os.unlink(path)

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
            with mock.patch.object(formats, "_CHUNK_WORDS", chunk_words):
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
        monkeypatch.setattr(formats, "_CHUNK_WORDS", 1 << 14)
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
        pytest.param([4, 5, 6, 0, 8, 7], [[12], [3 * 12, 12, 12]], id="one-buffer-per-run-of-output-rows"),
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
    @given(selection=_row_selections(), iov_max=st.sampled_from([1, 2, 3, formats._IOV_MAX]))
    def test_matches_whole_matrix_gather(self, tmp_path_factory, selection, iov_max):
        matrix, ids = selection
        path = tmp_path_factory.mktemp("rows") / "emb.depe"
        formats.write_embeddings(matrix, path)
        with mock.patch.object(formats, "_IOV_MAX", iov_max):
            selected = formats.read_embeddings(path, rows=np.array(ids, dtype=np.int64))
        expected = formats.read_embeddings(path).data[ids]
        assert selected.data.shape == expected.shape
        assert selected.data.tobytes() == expected.tobytes()

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
