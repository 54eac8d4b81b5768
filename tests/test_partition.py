"""Cost grouping, harmonic scores, and the score shortlist."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subpb.core import OracleSpec, RawInstance, validate_instance
from subpb.elicitation import Method, ranking_profile
from subpb.partition import (
    build_partition,
    group_index_bound,
    harmonic_scores,
    selection_size,
    shortlist,
    shortlist_cap,
)


def instance_with_costs(costs):
    m = len(costs)
    return validate_instance(
        RawInstance(
            costs=tuple(Fraction(c) for c in costs),
            voters=(OracleSpec("additive", {"values": [1.0] * m}),),
        )
    )


class TestGroupIndexBound:
    def test_known_values(self):
        assert group_index_bound(1) == 0
        assert group_index_bound(2) == 1
        assert group_index_bound(4) == 2
        assert group_index_bound(6) == 3
        assert group_index_bound(8) == 3
        assert group_index_bound(16) == 4
        assert group_index_bound(17) == 5

    def test_no_alternatives_are_refused(self):
        with pytest.raises(ValueError, match="m must be positive"):
            group_index_bound(0)

    def test_top_boundary_covers_budget(self):
        for m in range(1, 40):
            T = group_index_bound(m)
            assert Fraction(2**T, m) >= 1


class TestBuildPartition:
    def test_four_alternatives(self):
        instance = instance_with_costs(["1/5", "1/4", "1/2", "1"])
        partition = build_partition(instance)
        assert partition.groups == ((0, 1), (2,), (3,))
        assert partition.bounds[0] == (Fraction(0), Fraction(1, 4))
        assert partition.bounds[1] == (Fraction(1, 4), Fraction(1, 2))
        assert partition.bounds[2] == (Fraction(1, 2), Fraction(1))

    def test_boundary_cost_stays_low(self):
        instance = instance_with_costs(["1/4"] * 4)
        partition = build_partition(instance)
        assert partition.groups == ((0, 1, 2, 3), (), ())

    def test_non_power_of_two(self):
        instance = instance_with_costs(["1/6", "1/6", "1/6", "1/6", "1/6", "9/10"])
        partition = build_partition(instance)
        assert partition.T == 3
        assert partition.groups[3] == (5,)
        low, high = partition.bounds[3]
        assert low == Fraction(4, 6) and high == Fraction(8, 6)
        assert low < Fraction(9, 10) <= high

    def test_thresholds_are_lower_bounds(self):
        instance = instance_with_costs(["1/4", "1/4", "1/2", "1"])
        partition = build_partition(instance)
        assert partition.thresholds == (Fraction(1, 4), Fraction(1, 2))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.data(),
)
def test_partition_is_disjoint_cover(m, data):
    # Denominator multiples of m make exact boundary hits common.
    numerators = data.draw(
        st.lists(st.integers(min_value=1, max_value=4 * m), min_size=m, max_size=m)
    )
    costs = [Fraction(k, 4 * m) for k in numerators]
    instance = instance_with_costs(costs)
    partition = build_partition(instance)
    seen = []
    for t, members in enumerate(partition.groups):
        low, high = partition.bounds[t]
        for a in members:
            assert low < instance.costs[a] <= high or (
                t == 0 and instance.costs[a] <= high
            )
        seen.extend(members)
    assert sorted(seen) == list(range(m))


class TestHarmonicScores:
    def test_two_voters_positions_one_and_two(self):
        scores = harmonic_scores([(0, 1), (1, 0)])
        assert scores[0] == pytest.approx(1.5)
        assert scores[1] == pytest.approx(1.5)

    def test_single_voter_harmonic_sum(self):
        scores = harmonic_scores([(2, 0, 1)])
        assert scores[2] == pytest.approx(1.0)
        assert scores[0] == pytest.approx(0.5)
        assert scores[1] == pytest.approx(1.0 / 3.0)
        assert sum(scores.values()) == pytest.approx(1 + 0.5 + 1 / 3)

    def test_unanimous_order(self):
        scores = harmonic_scores([(0, 1)] * 3)
        assert scores[0] == pytest.approx(3.0)
        assert scores[1] == pytest.approx(1.5)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=5),
        st.randoms(use_true_random=False),
    )
    def test_score_sum_identity(self, size, n, rnd):
        group = tuple(range(size))
        rankings = []
        for _ in range(n):
            order = list(group)
            rnd.shuffle(order)
            rankings.append(tuple(order))
        scores = harmonic_scores(rankings)
        harmonic = sum(1.0 / k for k in range(1, size + 1))
        assert sum(scores.values()) == pytest.approx(n * harmonic, abs=1e-9)


class TestShortlist:
    def test_cap_matches_exact_square_root_formula(self):
        # cap = floor(sqrt(m) * m / 2^t), verified by exact integer bounds
        for m in range(1, 33):
            for t in range(group_index_bound(m) + 1):
                cap = shortlist_cap(m, t)
                assert cap * cap * 4**t <= m**3
                assert (cap + 1) * (cap + 1) * 4**t > m**3

    def test_known_caps(self):
        assert shortlist_cap(4, 2) == 2
        assert shortlist_cap(16, 4) == 4
        assert shortlist_cap(4, 0) == 8  # >= m, so G_0 is never truncated

    def test_selection_sizes(self):
        assert selection_size(4, 0) == 4
        assert selection_size(4, 1) == 2
        assert selection_size(4, 2) == 1
        assert selection_size(2, 1) == 1
        assert selection_size(1, 0) == 1

    def test_group_zero_never_truncated(self):
        instance = instance_with_costs(["1/8", "1/8", "1/8", "1/8"])
        partition = build_partition(instance)
        rankings = ranking_profile(instance, partition, Method.STANDALONE_VALUES, 0)
        chosen = shortlist(partition, harmonic_scores(rankings), 0)
        assert chosen == (0, 1, 2, 3)

    def test_singleton_group(self):
        instance = instance_with_costs(["1/5", "1/4", "1/2", "1"])
        partition = build_partition(instance)
        rankings = ranking_profile(instance, partition, Method.STANDALONE_VALUES, 2)
        chosen = shortlist(partition, harmonic_scores(rankings), 2)
        assert chosen == (3,)

    def test_truncation_and_tie_break(self):
        # Eight alternatives all in the top cost group of m=8: cap there is
        # isqrt(512 // 64) = 2, so exactly two survive; equal scores break
        # toward ascending id.
        instance = instance_with_costs(["3/4"] * 8)
        partition = build_partition(instance)
        t = next(t for t, members in enumerate(partition.groups) if 0 in members)
        rankings = ranking_profile(instance, partition, Method.STANDALONE_VALUES, t)
        chosen = shortlist(partition, harmonic_scores(rankings), t)
        assert len(chosen) == shortlist_cap(8, t)
        assert chosen == (0, 1)
