"""Growth curves, power-law fits, coverage, and unused-token detection."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dep import (
    DegenerateFit,
    FrequencyTable,
    GrowthCurve,
    InsufficientPoints,
    TokenizedDataset,
    coverage_ratio,
    find_unused_tokens,
    fit_heaps,
    growth_curve,
    scan_dataset,
)
from dep import vocab

from _strategies import token_datasets


def replay_unique(stream, checkpoints):
    """Set-replay oracle for prefix distinct counts."""
    seen, out = set(), []
    for position, token in enumerate(stream, start=1):
        seen.add(token)
        if position in checkpoints:
            out.append((position, len(seen)))
    return out


def unique_reference(stream, positions):
    """Prefix distinct counts from first occurrences found by sorting the whole stream."""
    first_seen = np.zeros(stream.size, dtype=np.int64)
    _, first_idx = np.unique(stream, return_index=True)
    first_seen[first_idx] = 1
    cumulative = np.cumsum(first_seen)
    return [(n, int(cumulative[n - 1])) for n in positions]


class TestGrowthCurve:
    def test_single_repeated_token(self):
        curve = growth_curve(TokenizedDataset(([7, 7, 7],), 8), checkpoints=[1, 2, 3])
        assert curve.points == ((1, 1), (2, 1), (3, 1))

    def test_all_distinct(self):
        curve = growth_curve(TokenizedDataset(([1, 2, 3],), 4), checkpoints=[1, 2, 3])
        assert curve.points == ((1, 1), (2, 2), (3, 3))

    def test_empty_dataset_gives_empty_curve(self):
        curve = growth_curve(TokenizedDataset((), 10))
        assert curve.points == ()
        assert curve.final_unique == 0

    def test_pow2_policy_includes_final(self):
        dataset = TokenizedDataset((list(range(5)),), 10)
        curve = growth_curve(dataset, checkpoints="pow2")
        assert [n for n, _ in curve.points] == [1, 2, 4, 5]

    def test_pow2_no_duplicate_when_total_is_power(self):
        dataset = TokenizedDataset((list(range(4)),), 10)
        curve = growth_curve(dataset, checkpoints="pow2")
        assert [n for n, _ in curve.points] == [1, 2, 4]

    def test_all_policy(self):
        dataset = TokenizedDataset(([3, 3, 1],), 4)
        curve = growth_curve(dataset, checkpoints="all")
        assert curve.points == ((1, 1), (2, 1), (3, 2))

    def test_matches_set_replay_oracle(self):
        rng = np.random.default_rng(13)
        stream = rng.integers(0, 50, size=300).tolist()
        dataset = TokenizedDataset((stream,), 50)
        checkpoints = {1, 2, 4, 8, 16, 32, 64, 128, 256, 300}
        curve = growth_curve(dataset, checkpoints=checkpoints)
        assert list(curve.points) == replay_unique(stream, checkpoints)

    def test_checkpoints_beyond_stream_dropped(self):
        curve = growth_curve(TokenizedDataset(([1, 2],), 4), checkpoints=[50, 1, -1, 0, 1])
        assert curve.points == ((1, 1), (2, 2))

    @given(
        token_datasets(max_sequences=12, max_len=40),
        st.sampled_from(["pow2", "all", "explicit"]),
        st.integers(1, 17),
    )
    def test_matches_unique_reference(self, dataset, policy, chunk):
        stream = dataset.tokens
        explicit = range(1, stream.size + 1, 3)
        checkpoints = list(explicit) if policy == "explicit" else policy
        with mock.patch.object(vocab, "_BLOCK", chunk):  # many block boundaries
            curve = growth_curve(dataset, checkpoints=checkpoints)
        positions = [n for n, _ in curve.points]
        if policy == "all":
            assert positions == list(range(1, stream.size + 1))
        elif policy == "explicit" and stream.size:
            assert positions == sorted(set(explicit) | {stream.size})
        assert list(curve.points) == unique_reference(stream, positions)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            growth_curve(TokenizedDataset(([1],), 2), checkpoints="fibonacci")

    @given(token_datasets(), st.sampled_from(["pow2", "all"]))
    def test_bounded_and_final_equals_used_count(self, dataset, policy):
        curve = growth_curve(dataset, checkpoints=policy)
        for tokens_seen, unique in curve.points:
            assert unique <= min(tokens_seen, dataset.vocab_size)
        assert curve.final_unique == scan_dataset(dataset).used_count

    @given(
        token_datasets(max_sequences=12, max_len=40),
        st.sampled_from(["pow2", "all", "explicit"]),
        st.lists(st.integers(-3, 500), max_size=30),
    )
    def test_arrays_match_set_replay_oracle(self, dataset, policy, explicit):
        stream = dataset.tokens.tolist()
        total = len(stream)
        wanted = {
            "pow2": {2**k for k in range(total.bit_length())},
            "all": set(range(1, total + 1)),
            "explicit": set(explicit),
        }[policy]
        wanted = {n for n in wanted if 1 <= n < total} | ({total} if total else set())
        curve = growth_curve(dataset, checkpoints=explicit if policy == "explicit" else policy)
        expected = replay_unique(stream, wanted)
        assert curve.tokens.dtype == curve.unique.dtype == np.int64
        assert curve.tokens.tolist() == [n for n, _ in expected]
        assert curve.unique.tolist() == [u for _, u in expected]
        assert not curve.tokens.flags.writeable and not curve.unique.flags.writeable

    def test_invalid_curve_rejected(self):
        with pytest.raises(ValueError, match=r"^tokens_seen must be strictly increasing, got 2 after 2$"):
            GrowthCurve(((2, 1), (2, 1)), 5)
        with pytest.raises(ValueError, match=r"^unique_tokens 3 exceeds min\(tokens_seen=2, vocab_size=5\)$"):
            GrowthCurve(((1, 1), (2, 3)), 5)
        with pytest.raises(ValueError, match=r"^unique_tokens must be non-decreasing, got 1 after 2$"):
            GrowthCurve(((3, 2), (4, 1)), 5)
        with pytest.raises(ValueError, match=r"^tokens_seen must be strictly increasing, got 0 after 0$"):
            GrowthCurve(np.zeros((1, 2), dtype=np.int64), 5)

    @given(st.lists(st.tuples(st.integers(-2, 12), st.integers(-2, 12)), max_size=8), st.integers(0, 10))
    def test_first_bad_point_named_as_by_a_point_loop(self, points, vocab_size):
        """The error names the first bad point and the first rule it breaks, in this order."""
        expected, prev_n, prev_u = None, 0, 0
        for n, u in points:
            if n <= prev_n:
                expected = f"tokens_seen must be strictly increasing, got {n} after {prev_n}"
            elif u < prev_u:
                expected = f"unique_tokens must be non-decreasing, got {u} after {prev_u}"
            elif u > min(n, vocab_size):
                expected = f"unique_tokens {u} exceeds min(tokens_seen={n}, vocab_size={vocab_size})"
            if expected:
                break
            prev_n, prev_u = n, u
        if expected is None:
            assert GrowthCurve(points, vocab_size).points == tuple(points)
        else:
            with pytest.raises(ValueError) as err:
                GrowthCurve(points, vocab_size)
            assert str(err.value) == expected

    def test_equality_compares_points_and_vocab_size(self):
        curve = GrowthCurve(((1, 1), (2, 2)), 5)
        assert curve == GrowthCurve(np.array([[1, 1], [2, 2]]), 5)
        assert curve == growth_curve(TokenizedDataset(([3, 4],), 5), checkpoints="all")
        assert curve != GrowthCurve(((1, 1), (2, 1)), 5)
        assert curve != GrowthCurve(((1, 1), (3, 2)), 5)
        assert curve != GrowthCurve(((1, 1), (2, 2)), 6)
        assert curve != GrowthCurve(((1, 1),), 5)
        assert curve != ((1, 1), (2, 2))


class TestFitHeaps:
    def test_exact_power_law(self):
        fit = fit_heaps(GrowthCurve(((4, 4), (16, 8), (64, 16)), 100))
        assert math.isclose(fit.k, 2.0, rel_tol=1e-12)
        assert math.isclose(fit.beta, 0.5, rel_tol=1e-12)
        assert fit.rmse_log <= 1e-9

    def test_degenerate_when_no_variance_in_tokens(self):
        with pytest.raises(DegenerateFit):
            fit_heaps([(10, 3), (10, 3)])

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            fit_heaps([(10, 3)])

    def test_zero_coordinate_points_skipped(self):
        with pytest.raises(InsufficientPoints):
            fit_heaps([(1, 0), (2, 0), (3, 1)])

    def test_noisy_recovery_of_beta(self):
        rng = np.random.default_rng(17)
        k_true, beta_true = 3.0, 0.6
        positions = 2 ** np.arange(5, 23)
        for _ in range(20):
            noise = rng.uniform(-0.02, 0.02, size=positions.size)
            values = np.round(k_true * positions**beta_true * (1 + noise)).astype(int)
            values = np.maximum.accumulate(np.maximum(values, 1))
            curve = GrowthCurve(tuple(zip(positions.tolist(), values.tolist())), int(positions[-1]))
            fit = fit_heaps(curve)
            assert abs(fit.beta - beta_true) < 0.05


class TestCoverage:
    def test_half_used(self):
        assert coverage_ratio(FrequencyTable([0, 1, 2, 0])) == 0.5

    def test_nothing_used(self):
        assert coverage_ratio(FrequencyTable([0, 0, 0])) == 0.0

    def test_known_distinct_count_fixture(self):
        # 1736 distinct ids in a 30522-entry vocabulary.
        counts = np.zeros(30522, dtype=np.uint64)
        counts[:1736] = 1
        assert round(coverage_ratio(FrequencyTable(counts)), 4) == 0.0569
        # The same usage is under 4% of a 50257-entry vocabulary.
        wide = np.zeros(50257, dtype=np.uint64)
        wide[:1736] = 1
        assert coverage_ratio(FrequencyTable(wide)) < 0.04

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            coverage_ratio(FrequencyTable([]))


class TestUnusedTokens:
    def test_zero_count_ids(self):
        assert find_unused_tokens(FrequencyTable([0, 1, 0])).tolist() == [0, 2]

    def test_none_unused(self):
        assert find_unused_tokens(FrequencyTable([1, 2])).tolist() == []

    def test_matches_filter_oracle_on_random_counts(self):
        rng = np.random.default_rng(19)
        counts = rng.integers(0, 3, size=500)
        expected = [i for i, c in enumerate(counts.tolist()) if c == 0]
        assert find_unused_tokens(FrequencyTable(counts)).tolist() == expected

    @given(token_datasets())
    def test_unused_and_used_partition_vocabulary(self, dataset):
        freqs = scan_dataset(dataset)
        unused = set(find_unused_tokens(freqs).tolist())
        used = set(freqs.used_ids.tolist())
        assert unused | used == set(range(dataset.vocab_size))
        assert unused & used == set()
