"""Frequency scanning, merging, and the dense-id remap bijection."""

import tracemalloc
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
        with patch.object(vocab, "_BLOCK", chunk):
            assert scan_dataset_parallel(dataset, partitions) == scan_dataset(dataset)
            assert scan_dataset(dataset).counts.tolist() == expected


class TestScanMemory:
    def test_default_slice_keeps_the_peak_near_the_counts(self):
        # ufunc.at may cast each slice to intp, so the slice size, not the corpus, sets the temporaries.
        V = 30_522
        tokens = np.random.default_rng(3).integers(0, V, size=2 << 20, dtype=np.uint32)
        dataset = TokenizedDataset.from_flat(tokens, np.array([0, tokens.size], dtype=np.int64), V)
        tracemalloc.start()
        try:
            scan_dataset(dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * V + 3 * 2**20, f"scan_dataset peaked at {peak / 2**20:.2f} MiB"


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


class TestMalformedArguments:
    @pytest.mark.parametrize("make, error, message", [
        pytest.param(lambda: TokenizedDataset(([1], [[1, 2]]), 5), ValueError, "sequence 1 is not one-dimensional",
                     id="dataset-2-D-sequence"),
        pytest.param(lambda: TokenizedDataset(([1.0, 2.0],), 5), TypeError, "sequence 0 has non-integer dtype",
                     id="dataset-float-sequence"),
        pytest.param(lambda: FrequencyTable(np.ones((2, 2), dtype=np.int64)), ValueError, "one-dimensional",
                     id="counts-2-D"),
        pytest.param(lambda: FrequencyTable([1.0, 2.0]), TypeError, "integers", id="counts-float"),
        pytest.param(lambda: RemapTable(4, [[0, 1]]), ValueError, "inverse must be one-dimensional",
                     id="remap-2-D-inverse"),
        pytest.param(lambda: scan_dataset_parallel(TokenizedDataset(([1],), 2), 0), ValueError,
                     "partitions must be >= 1", id="zero-partitions"),
    ])
    def test_rejected(self, make, error, message):
        with pytest.raises(error, match=message):
            make()


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

    def test_original_vocab_past_u32_rejected(self):
        # Would otherwise wrap: inverse is stored as uint32.
        with pytest.raises(ValueError):
            RemapTable(2**40, [2**35])
        assert RemapTable(2**32, [2**32 - 1]).inverse.tolist() == [2**32 - 1]

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


def _remap_outcome(remap_once):
    """The dataset a remap gives, or the fields of the ``UnmappedToken`` it raises."""
    try:
        return remap_once()
    except UnmappedToken as err:
        return ("UnmappedToken", err.sequence_index, err.position, err.token_id, str(err))


def _handed_over(dataset: TokenizedDataset) -> TokenizedDataset:
    """A copy of ``dataset`` over a fresh writable buffer, for an in-place remap to consume."""
    return TokenizedDataset.from_flat(dataset.tokens.copy(), dataset.offsets.copy(), dataset.vocab_size)


@st.composite
def _foreign_remaps(draw):
    """(dataset, remap): the remap maps all but at most two ids of a vocabulary smaller than the dataset's,
    or up to 8 ids larger, so a dataset id may be unmapped or lie at or past its ``original_vocab_size``."""
    dataset = draw(token_datasets(max_vocab=24))
    original = draw(st.integers(0, dataset.vocab_size + 8))
    dropped = draw(st.sets(st.integers(0, original - 1), max_size=2)) if original else set()
    return dataset, RemapTable(original, draw(st.permutations(sorted(set(range(original)) - dropped))))


def _naive_remap(dataset: TokenizedDataset, remap: RemapTable):
    """Reference remap, one id at a time through a dict built from ``remap.inverse``: the dense dataset, or
    the fields of the ``UnmappedToken`` for the first unmapped id in flat order, as ``_remap_outcome`` gives them."""
    dense = {orig: d for d, orig in enumerate(remap.inverse.tolist())}
    out = []
    for seq, ids in enumerate(dataset.to_lists()):
        for pos, token in enumerate(ids):
            if token not in dense:
                return ("UnmappedToken", seq, pos, token, str(UnmappedToken(seq, pos, token)))
        out.append([dense[token] for token in ids])
    return TokenizedDataset(out, remap.reduced_size)


class TestApplyRemapInPlace:
    """``apply_remap`` copying or in place, against a naive reference; in place holds the ids once."""

    @given(st.one_of(datasets_with_remaps(max_vocab=24), _foreign_remaps()),
           st.sampled_from([1, 2, 3, 7, vocab._BLOCK]))
    def test_matches_copying_remap(self, instance, chunk):
        """Each mode equals a naive per-id reference, so in place matches copying without sharing its check."""
        dataset, remap = instance
        expected = _naive_remap(dataset, remap)
        with patch.object(vocab, "_BLOCK", chunk):
            assert _remap_outcome(lambda: apply_remap(dataset, remap)) == expected
            assert _remap_outcome(lambda: apply_remap(_handed_over(dataset), remap, in_place=True)) == expected

    def test_empty_dataset(self):
        for dataset in (TokenizedDataset((), 4), TokenizedDataset(([], []), 4)):
            remapped = apply_remap(_handed_over(dataset), RemapTable(4, [1, 3]), in_place=True)
            assert remapped == apply_remap(dataset, RemapTable(4, [1, 3]))

    def test_writes_the_dense_ids_over_the_handed_over_buffer(self):
        tokens = np.array([1, 3, 1, 3], dtype=np.uint32)
        dataset = TokenizedDataset.from_flat(tokens, np.array([0, 3, 4]), 4)
        remapped = apply_remap(dataset, RemapTable(4, [3, 1]), in_place=True)
        assert remapped.to_lists() == [[1, 0, 1], [0]] and remapped.vocab_size == 2
        assert np.shares_memory(remapped.tokens, tokens) and tokens.tolist() == [1, 0, 1, 0]
        assert not remapped.tokens.flags.writeable

    @pytest.mark.parametrize("read_only", [
        pytest.param(lambda ids: np.frombuffer(ids.tobytes(), dtype=np.uint32), id="over-bytes"),
        pytest.param(lambda ids: ids, id="marked-read-only"),
    ])
    def test_read_only_buffer_is_copied_and_left_unchanged(self, read_only):
        tokens = read_only(np.array([1, 3, 1, 2], dtype=np.uint32))
        tokens.flags.writeable = False  # numpy then refuses to make any view of it writable
        dataset = TokenizedDataset.from_flat(tokens, np.array([0, 2, 4]), 4)
        remapped = apply_remap(dataset, RemapTable(4, [1, 2, 3]), in_place=True)
        assert remapped.to_lists() == [[0, 2], [0, 1]]
        assert tokens.tolist() == [1, 3, 1, 2] and not np.shares_memory(remapped.tokens, tokens)

    def test_unmapped_id_reports_the_original_id_after_earlier_slices_were_written(self):
        dataset = TokenizedDataset(([1, 3], [1, 2, 3]), 4)
        with patch.object(vocab, "_BLOCK", 2), pytest.raises(UnmappedToken) as err:
            apply_remap(dataset, RemapTable(4, [1, 3]), in_place=True)
        assert (err.value.sequence_index, err.value.position, err.value.token_id) == (1, 1, 2)


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

    def test_vocab_past_u32_rejected(self):
        # Would otherwise wrap: tokens are stored as uint32.
        with pytest.raises(ValueError):
            TokenizedDataset(([2**35],), 2**40)
        tokens, offsets = np.array([1], dtype=np.uint32), np.array([0, 1], dtype=np.int64)
        with pytest.raises(ValueError):
            TokenizedDataset.from_flat(tokens, offsets, 2**32 + 1)
        assert TokenizedDataset(([2**32 - 1],), 2**32).vocab_size == 2**32
        assert TokenizedDataset.from_flat(tokens, offsets, 2**32).vocab_size == 2**32

    def test_huge_unsigned_id_rejected(self):
        with pytest.raises(OutOfRangeToken) as err:
            TokenizedDataset((np.array([1, 2**63 + 5], dtype=np.uint64),), 5)
        assert err.value.token_id == 2**63 + 5

