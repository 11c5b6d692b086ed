"""Row gather (prune) and scatter (restore) against naive reference loops."""

import numpy as np
import pytest
from hypothesis import given

from dep import (
    EmbeddingMatrix,
    RemapTable,
    ShapeMismatch,
    TokenizedDataset,
    build_remap,
    prune_embeddings,
    restore_embeddings,
    scan_dataset,
)

from _strategies import prune_instances


def naive_gather(data, inverse):
    """Reference gather: one row copy at a time."""
    out = np.empty((len(inverse), data.shape[1]), dtype=data.dtype)
    for dense, orig in enumerate(inverse):
        out[dense] = data[orig]
    return out


def naive_scatter(original, learned, inverse):
    """Reference scatter: copy originals, then overwrite mapped rows."""
    out = original.copy()
    for dense, orig in enumerate(inverse):
        out[orig] = learned[dense]
    return out


def random_matrix(rng, rows, dim):
    return EmbeddingMatrix(rng.standard_normal((rows, dim)).astype(np.float32))


@pytest.mark.parametrize("data, message", [
    pytest.param(np.ones(3, dtype=np.float32), "must be 2-D", id="1-D"),
    pytest.param(np.ones((3, 0), dtype=np.float32), "dim must be >= 1", id="zero-columns"),
])
def test_matrix_shape_rejected(data, message):
    with pytest.raises(ValueError, match=message):
        EmbeddingMatrix(data)


class TestPrune:
    def test_gathers_selected_rows(self):
        matrix = EmbeddingMatrix(np.arange(8, dtype=np.float32).reshape(4, 2))
        pruned = prune_embeddings(matrix, RemapTable(4, [0, 2]))
        assert pruned.data.tolist() == [[0.0, 1.0], [4.0, 5.0]]

    def test_identity_remap_is_bit_identical(self):
        rng = np.random.default_rng(0)
        matrix = random_matrix(rng, 6, 3)
        pruned = prune_embeddings(matrix, RemapTable(6, np.arange(6)))
        assert pruned == matrix

    def test_matches_naive_gather_on_random_instance(self):
        rng = np.random.default_rng(1)
        matrix = random_matrix(rng, 1000, 16)
        used = np.sort(rng.choice(1000, size=137, replace=False))
        remap = RemapTable(1000, used)
        pruned = prune_embeddings(matrix, remap)
        assert pruned.data.tobytes() == naive_gather(matrix.data, used.tolist()).tobytes()

    def test_input_unmodified(self):
        matrix = EmbeddingMatrix(np.ones((3, 2), dtype=np.float32))
        before = matrix.data.tobytes()
        prune_embeddings(matrix, RemapTable(3, [2]))
        assert matrix.data.tobytes() == before

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            prune_embeddings(EmbeddingMatrix(np.zeros((3, 2), dtype=np.float32)), RemapTable(4, [0]))

    def test_empty_remap_gives_zero_row_matrix(self):
        pruned = prune_embeddings(EmbeddingMatrix(np.ones((3, 2), dtype=np.float32)), RemapTable(3, []))
        assert (pruned.rows, pruned.dim) == (0, 2)

    def test_zero_row_matrix_with_empty_remap(self):
        pruned = prune_embeddings(EmbeddingMatrix(np.empty((0, 2), dtype=np.float32)), RemapTable(0, []))
        assert (pruned.rows, pruned.dim) == (0, 2)

    def test_never_copies_unselected_canary_rows(self):
        canary = np.float32(1.25e33)
        data = np.full((10, 3), canary)
        kept = [2, 7]
        data[kept] = 0.5
        pruned = prune_embeddings(EmbeddingMatrix(data), RemapTable(10, kept))
        assert canary not in pruned.data


class TestRestore:
    def test_roundtrip_with_unchanged_rows(self):
        rng = np.random.default_rng(2)
        original = random_matrix(rng, 12, 4)
        remap = RemapTable(12, [1, 4, 7])
        assert restore_embeddings(original, prune_embeddings(original, remap), remap) == original

    def test_single_row_overwrite(self):
        rng = np.random.default_rng(3)
        original = random_matrix(rng, 8, 3)
        remap = RemapTable(8, [2, 5])
        learned_data = prune_embeddings(original, remap).data.copy()
        vector = np.array([9.0, -9.0, 0.5], dtype=np.float32)
        learned_data[0] = vector
        restored = restore_embeddings(original, EmbeddingMatrix(learned_data), remap)
        assert restored.data[2].tolist() == vector.tolist()
        mask = np.ones(8, dtype=bool)
        mask[2] = False
        assert restored.data[mask].tobytes() == original.data[mask].tobytes()

    def test_matches_naive_scatter_on_random_instance(self):
        rng = np.random.default_rng(4)
        original = random_matrix(rng, 200, 7)
        used = np.sort(rng.choice(200, size=61, replace=False))
        remap = RemapTable(200, used)
        learned = random_matrix(rng, 61, 7)
        restored = restore_embeddings(original, learned, remap)
        expected = naive_scatter(original.data, learned.data, used.tolist())
        assert restored.data.tobytes() == expected.tobytes()

    def test_unused_canary_rows_untouched(self):
        # Recognizable bit patterns outside the remap domain must survive.
        canary = np.full((6, 2), np.float32(1e30))
        canary[1] = [0.0, -0.0]
        original = EmbeddingMatrix(canary)
        remap = RemapTable(6, [3])
        learned = EmbeddingMatrix(np.array([[7.0, 8.0]], dtype=np.float32))
        restored = restore_embeddings(original, learned, remap)
        for row in (0, 1, 2, 4, 5):
            assert restored.data[row].tobytes() == original.data[row].tobytes()
        assert restored.data[3].tolist() == [7.0, 8.0]

    @pytest.mark.parametrize(
        "original_shape, learned_shape, remap_vocab, kept",
        [
            ((5, 2), (2, 2), 4, [0, 1]),   # original rows vs remap vocab
            ((4, 2), (3, 2), 4, [0, 1]),   # learned rows vs remap size
            ((4, 2), (2, 3), 4, [0, 1]),   # dim disagreement
        ],
    )
    def test_shape_mismatches(self, original_shape, learned_shape, remap_vocab, kept):
        original = EmbeddingMatrix(np.zeros(original_shape, dtype=np.float32))
        learned = EmbeddingMatrix(np.zeros(learned_shape, dtype=np.float32))
        with pytest.raises(ShapeMismatch):
            restore_embeddings(original, learned, RemapTable(remap_vocab, kept))

    @given(prune_instances())
    def test_roundtrip_property(self, instance):
        _, remap, matrix = instance
        pruned = prune_embeddings(matrix, remap)
        assert pruned.rows == remap.reduced_size
        assert restore_embeddings(matrix, pruned, remap) == matrix


class TestSizeAccounting:
    def test_prune_size_matches_pr_emb(self):
        from dep import pr_emb

        rng = np.random.default_rng(6)
        matrix = random_matrix(rng, 40, 5)
        dataset = TokenizedDataset((rng.integers(0, 40, size=30).tolist(),), 40)
        remap = build_remap(scan_dataset(dataset))
        pruned = prune_embeddings(matrix, remap)
        reduction = pr_emb(40, remap.reduced_size)
        assert pruned.data.nbytes == round((1 - reduction) * matrix.data.nbytes)
