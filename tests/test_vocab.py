"""Frequency scanning, merging, and the dense-id remap bijection."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dep import (
    FrequencyTable,
    KeepTokenOutOfRange,
    OutOfRangeToken,
    RemapOrdering,
    RemapTable,
    TokenizedDataset,
    UnmappedToken,
    apply_remap,
    build_remap,
    invert_remap,
    scan_dataset,
    scan_dataset_parallel,
    vocab,
)

from _strategies import datasets_with_remaps, orderings, token_datasets


def naive_counts(sequences, vocab_size):
    """Independent reference counter: plain python loop."""
    counts = [0] * vocab_size
    for seq in sequences:
        for token in seq:
            counts[token] += 1
    return counts


class TestScanDataset:
    def test_small_example(self):
        freqs = scan_dataset(TokenizedDataset(([1, 2], [2, 3]), 5))
        assert freqs.counts.tolist() == [0, 1, 2, 1, 0]
        assert freqs.total_tokens == 4
        assert freqs.used_ids.tolist() == [1, 2, 3]

    def test_empty_dataset(self):
        freqs = scan_dataset(TokenizedDataset((), 10))
        assert freqs.counts.tolist() == [0] * 10
        assert freqs.total_tokens == 0
        assert freqs.used_count == 0

    def test_matches_naive_counter_on_random_corpus(self):
        rng = np.random.default_rng(7)
        seqs = [rng.integers(0, 100, size=rng.integers(0, 40)).tolist() for _ in range(1000)]
        dataset = TokenizedDataset(tuple(seqs), 100)
        freqs = scan_dataset(dataset)
        assert freqs.counts.tolist() == naive_counts(seqs, 100)

    def test_out_of_range_token_reports_location(self):
        with pytest.raises(OutOfRangeToken) as err:
            TokenizedDataset(([1, 2], [2, 9]), 5)
        assert err.value.sequence_index == 1
        assert err.value.position == 1
        assert err.value.token_id == 9

    def test_negative_token_rejected(self):
        with pytest.raises(OutOfRangeToken):
            TokenizedDataset(([0, -1],), 5)


class TestMergeFrequencyTables:
    """Counts added up slice by slice equal the whole-corpus table."""

    @given(token_datasets(), st.sampled_from([1, 2, 3, 8]), st.sampled_from([1, 2, 3, 7, 1 << 20]))
    def test_scan_parallel_matches_scan(self, dataset, partitions, chunk):
        expected = naive_counts(dataset.to_lists(), dataset.vocab_size)
        with patch.object(vocab, "_COUNT_CHUNK", chunk):
            assert scan_dataset_parallel(dataset, partitions) == scan_dataset(dataset)
            assert scan_dataset(dataset).counts.tolist() == expected


class TestFrequencyTableCounts:
    @pytest.mark.parametrize("counts", [
        pytest.param(np.array([1, -1], dtype=np.int64), id="negative"),
        pytest.param(np.array([1, 2**63], dtype=np.uint64), id="uint64-past-int64"),
    ])
    def test_rejects_count_below_zero_as_int64(self, counts):
        with pytest.raises(ValueError, match="non-negative"):
            FrequencyTable(counts)

    def test_counts_are_int64(self):
        assert FrequencyTable(np.array([0, 3], dtype=np.uint8)).counts.dtype == np.int64


class TestBuildRemap:
    def test_ascending_skips_unused(self):
        remap = build_remap(FrequencyTable([0, 3, 0, 1]))
        assert remap.inverse.tolist() == [1, 3]

    def test_frequency_descending_with_id_tiebreak(self):
        counts = [0] * 10
        counts[5], counts[2], counts[9] = 10, 3, 3
        remap = build_remap(FrequencyTable(counts), RemapOrdering.FREQUENCY_DESCENDING)
        assert remap.inverse.tolist() == [5, 2, 9]

    def test_keep_token_included_with_zero_count(self):
        remap = build_remap(FrequencyTable([0, 3, 0, 1]), keep_tokens={0})
        assert remap.inverse.tolist() == [0, 1, 3]

    def test_keep_token_out_of_range(self):
        with pytest.raises(KeepTokenOutOfRange):
            build_remap(FrequencyTable([1, 1]), keep_tokens={2})

    def test_identity_when_everything_used(self):
        remap = build_remap(FrequencyTable([5, 1, 2]))
        assert remap.inverse.tolist() == [0, 1, 2]

    def test_zero_count_keep_sorts_last_in_frequency_order(self):
        remap = build_remap(
            FrequencyTable([0, 7, 0, 2]), RemapOrdering.FREQUENCY_DESCENDING, keep_tokens={0, 2}
        )
        assert remap.inverse.tolist() == [1, 3, 0, 2]

    @given(datasets_with_remaps())
    def test_bijectivity(self, instance):
        _, remap = instance
        kept = TokenizedDataset((remap.inverse,), remap.original_vocab_size)
        assert apply_remap(kept, remap).tokens.tolist() == list(range(remap.reduced_size))
        assert remap.reduced_size <= remap.original_vocab_size

    @given(token_datasets(), orderings)
    def test_domain_is_used_set_plus_keep(self, dataset, ordering):
        freqs = scan_dataset(dataset)
        keep = {0, dataset.vocab_size - 1}
        remap = build_remap(freqs, ordering, keep)
        assert set(remap.inverse.tolist()) == set(freqs.used_ids.tolist()) | keep


class TestApplyInvertRemap:
    def test_apply_substitutes_and_shrinks_vocab(self):
        remapped = apply_remap(TokenizedDataset(([1, 3, 1],), 4), RemapTable(4, [1, 3]))
        assert remapped.to_lists() == [[0, 1, 0]]
        assert remapped.vocab_size == 2

    def test_apply_empty_dataset(self):
        remapped = apply_remap(TokenizedDataset((), 4), RemapTable(4, [1, 3]))
        assert remapped.num_sequences == 0
        assert remapped.vocab_size == 2

    def test_apply_unmapped_token_reports_location(self):
        with pytest.raises(UnmappedToken) as err:
            apply_remap(TokenizedDataset(([1, 2],), 4), RemapTable(4, [1, 3]))
        assert (err.value.sequence_index, err.value.position, err.value.token_id) == (0, 1, 2)

    def test_invert_substitutes_back(self):
        restored = invert_remap(TokenizedDataset(([0, 1, 0],), 2), RemapTable(4, [1, 3]))
        assert restored.to_lists() == [[1, 3, 1]]
        assert restored.vocab_size == 4

    def test_invert_empty_dataset(self):
        restored = invert_remap(TokenizedDataset((), 2), RemapTable(4, [1, 3]))
        assert restored.num_sequences == 0
        assert restored.vocab_size == 4

    def test_invert_out_of_range(self):
        with pytest.raises(OutOfRangeToken):
            invert_remap(TokenizedDataset(([2],), 3), RemapTable(4, [1, 3]))

    def test_roundtrip_on_100_random_datasets(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            vocab = int(rng.integers(1, 60))
            seqs = [
                rng.integers(0, vocab, size=rng.integers(0, 12)).tolist()
                for _ in range(rng.integers(0, 8))
            ]
            dataset = TokenizedDataset(tuple(seqs), vocab)
            remap = build_remap(scan_dataset(dataset))
            assert invert_remap(apply_remap(dataset, remap), remap) == dataset

    @given(datasets_with_remaps())
    def test_roundtrip_property(self, instance):
        dataset, remap = instance
        remapped = apply_remap(dataset, remap)
        assert remapped.num_sequences == dataset.num_sequences
        assert [s.size for s in remapped.sequences] == [s.size for s in dataset.sequences]
        assert invert_remap(remapped, remap) == dataset

    @given(token_datasets())
    def test_identity_remap_when_all_ids_used(self, dataset):
        # Force full usage by appending one sequence containing every id.
        full = TokenizedDataset(
            dataset.sequences + (np.arange(dataset.vocab_size),), dataset.vocab_size
        )
        remap = build_remap(scan_dataset(full))
        assert remap.inverse.tolist() == list(range(full.vocab_size))
        assert apply_remap(full, remap) == full


class TestDatasetType:
    def test_ragged_sequences_allowed(self):
        dataset = TokenizedDataset(([1], [], [2, 3, 4]), 5)
        assert [s.size for s in dataset.sequences] == [1, 0, 3]
        assert dataset.total_tokens == 4

    def test_sequences_are_read_only(self):
        dataset = TokenizedDataset(([1, 2],), 5)
        with pytest.raises(ValueError):
            dataset.sequences[0][0] = 3

    def test_token_stream_order(self):
        dataset = TokenizedDataset(([3, 1], [2],), 5)
        assert dataset.tokens.tolist() == [3, 1, 2]


# Bad id placements: (sequences, flat-independent location of the bad id).
BAD_ID_CASES = [
    pytest.param(([9, 1, 2], [3]), (0, 0), id="first-token"),
    pytest.param(([1, 2], [3, 9]), (1, 1), id="last-token"),
    pytest.param(([1], [], [], [9, 2]), (3, 0), id="after-empty-sequences"),
]


class TestErrorLocation:
    @pytest.mark.parametrize("seqs, where", BAD_ID_CASES)
    def test_out_of_range_from_sequences(self, seqs, where):
        with pytest.raises(OutOfRangeToken) as err:
            TokenizedDataset(seqs, 5)
        assert (err.value.sequence_index, err.value.position, err.value.token_id) == (*where, 9)

    @pytest.mark.parametrize("seqs, where", BAD_ID_CASES)
    def test_out_of_range_from_flat(self, seqs, where):
        flat = TokenizedDataset(seqs, 10)
        with pytest.raises(OutOfRangeToken) as err:
            TokenizedDataset.from_flat(flat.tokens, flat.offsets, 5)
        assert (err.value.sequence_index, err.value.position, err.value.token_id) == (*where, 9)

    @pytest.mark.parametrize("seqs, where", BAD_ID_CASES)
    @pytest.mark.parametrize("original_vocab", [10, 6], ids=["inside-lut", "beyond-lut"])
    def test_unmapped(self, seqs, where, original_vocab):
        remap = RemapTable(original_vocab, [1, 2, 3])
        with pytest.raises(UnmappedToken) as err:
            apply_remap(TokenizedDataset(seqs, 10), remap)
        assert (err.value.sequence_index, err.value.position, err.value.token_id) == (*where, 9)

    @pytest.mark.parametrize("seqs, where", BAD_ID_CASES)
    def test_invert_out_of_range(self, seqs, where):
        with pytest.raises(OutOfRangeToken) as err:
            invert_remap(TokenizedDataset(seqs, 10), RemapTable(10, [0, 1, 2, 3, 4]))
        assert (err.value.sequence_index, err.value.position, err.value.token_id) == (*where, 9)

    def test_unmapped_reports_earliest_of_both_kinds(self):
        # Id 7 is inside the lookup table but unmapped; id 9 is beyond it.
        remap = RemapTable(8, [1, 2])
        with pytest.raises(UnmappedToken) as err:
            apply_remap(TokenizedDataset(([1, 7], [9]), 10), remap)
        assert (err.value.sequence_index, err.value.position, err.value.token_id) == (0, 1, 7)


class TestFlatLayout:
    def test_layout_of_ragged_sequences(self):
        dataset = TokenizedDataset(([1], [], [2, 3, 4]), 5)
        assert dataset.tokens.dtype == np.uint32
        assert dataset.tokens.tolist() == [1, 2, 3, 4]
        assert dataset.offsets.tolist() == [0, 1, 1, 4]
        assert not dataset.tokens.flags.writeable
        assert not dataset.offsets.flags.writeable

    def test_from_flat_equals_sequence_constructor(self):
        tokens = np.array([1, 2, 3, 4], dtype=np.uint32)
        offsets = np.array([0, 1, 1, 4], dtype=np.int64)
        assert TokenizedDataset.from_flat(tokens, offsets, 5) == TokenizedDataset(([1], [], [2, 3, 4]), 5)

    @pytest.mark.parametrize("offsets", [[1, 4], [0, 3], [0, 3, 2, 4], []])
    def test_from_flat_rejects_bad_offsets(self, offsets):
        with pytest.raises((ValueError, TypeError)):
            TokenizedDataset.from_flat(
                np.array([1, 2, 3, 4], dtype=np.uint32), np.array(offsets, dtype=np.int64), 5
            )

    def test_from_flat_rejects_wide_tokens(self):
        with pytest.raises(TypeError):
            TokenizedDataset.from_flat(np.array([1], dtype=np.int64), np.array([0, 1], dtype=np.int64), 5)

    def test_huge_unsigned_id_rejected(self):
        with pytest.raises(OutOfRangeToken) as err:
            TokenizedDataset((np.array([1, 2**63 + 5], dtype=np.uint64),), 5)
        assert err.value.token_id == 2**63 + 5

