"""Selection rules as plans expanded into exact distributions: support,
mixing, guarantees, and the closed-form expected welfare of a plan."""

import math
from fractions import Fraction

import pytest

from subpb.aggregation import Plan, expected_welfare, rule_a_threshold
from subpb.core import OracleSpec, RawInstance, social_welfare, validate_instance
from subpb.elicitation import ApprovalProfile, Method, ranking_profile
from subpb.optimize import Fptas
from subpb.partition import build_partition

from helpers import (
    SelectionDistribution,
    aggregate_ranking,
    aggregate_threshold,
    distribution_welfare,
    rule_a_ranking,
    rule_b_uniform,
    validate_support,
)


def simple_instance(costs, voters):
    return validate_instance(RawInstance(costs=tuple(costs), voters=tuple(voters)))


def uniform_additive_instance(costs):
    m = len(costs)
    return simple_instance(costs, [OracleSpec("additive", {"values": [1.0] * m})])


def approval_stub(weights):
    # rule_a_threshold only reads the weights.
    m = len(weights)
    return ApprovalProfile(
        threshold=Fraction(1, 2),
        approvals=(frozenset(a for a in range(m) if weights[a]),),
        weights=tuple(weights),
    )


class TestSelectionDistribution:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SelectionDistribution(support=((frozenset({0}), Fraction(1, 2)),))

    def test_nonpositive_probability_rejected(self):
        with pytest.raises(ValueError):
            SelectionDistribution(
                support=(
                    (frozenset({0}), Fraction(3, 2)),
                    (frozenset({1}), Fraction(-1, 2)),
                )
            )

    def test_inclusion_probs_and_union(self):
        dist = SelectionDistribution.uniform_over([(0, 1), (1, 2)])
        probs = dist.inclusion_probs()
        assert probs[0] == Fraction(1, 2)
        assert probs[1] == Fraction(1)
        assert probs[2] == Fraction(1, 2)
        assert dist.union() == {0, 1, 2}


class TestRuleARanking:
    def test_small_group_collapses_to_point_mass(self):
        instance = uniform_additive_instance(
            [Fraction(1, 5), Fraction(1, 4), Fraction(1, 2), Fraction(1)]
        )
        partition = build_partition(instance)
        profile = ranking_profile(instance, partition, Method.MARGINAL_VALUES, 0)
        dist = rule_a_ranking(profile, partition, instance)
        assert dist.support == ((frozenset({0, 1}), Fraction(1)),)

    def test_singleton_group_point_mass(self):
        instance = uniform_additive_instance(
            [Fraction(1, 5), Fraction(1, 4), Fraction(1, 2), Fraction(1)]
        )
        partition = build_partition(instance)
        profile = ranking_profile(instance, partition, Method.MARGINAL_VALUES, 2)
        dist = rule_a_ranking(profile, partition, instance)
        assert dist.support == ((frozenset({3}), Fraction(1)),)

    def test_three_member_shortlist_gives_three_pairs(self):
        instance = uniform_additive_instance(
            [Fraction(3, 8), Fraction(3, 8), Fraction(1, 2), Fraction(1)]
        )
        partition = build_partition(instance)
        assert partition.groups[1] == (0, 1, 2)
        profile = ranking_profile(instance, partition, Method.MARGINAL_VALUES, 1)
        dist = rule_a_ranking(profile, partition, instance)
        assert len(dist.support) == 3
        for items, p in dist.support:
            assert len(items) == 2
            assert p == Fraction(1, 3)

    def test_empty_group_selects_nothing(self):
        instance = uniform_additive_instance([Fraction(1, 4)] * 4)
        partition = build_partition(instance)
        profile = ranking_profile(instance, partition, Method.MARGINAL_VALUES, 1)
        dist = rule_a_ranking(profile, partition, instance)
        assert dist.support == ((frozenset(), Fraction(1)),)

    def test_support_always_feasible(self):
        costs = [Fraction(k, 16) for k in (1, 2, 3, 5, 7, 9, 11, 16)]
        instance = uniform_additive_instance(costs)
        partition = build_partition(instance)
        for t in range(partition.T + 1):
            profile = ranking_profile(instance, partition, Method.MARGINAL_VALUES, t)
            validate_support(rule_a_ranking(profile, partition, instance), instance)

    def test_shortlisted_inclusion_at_least_reciprocal_sqrt_m(self):
        # With the whole instance in one group, conditional inclusion is
        # size / shortlist, which stays at or above 1 / sqrt(m).
        for m in (4, 8, 16):
            instance = uniform_additive_instance([Fraction(3, m)] * m)
            partition = build_partition(instance)
            t = partition.group_of(0)
            profile = ranking_profile(instance, partition, Method.MARGINAL_VALUES, t)
            dist = rule_a_ranking(profile, partition, instance)
            probs = dist.inclusion_probs()
            for a in dist.union():
                assert float(probs[a]) >= 1.0 / math.sqrt(m) - 1e-12


class TestRuleB:
    def test_single_alternative(self):
        instance = uniform_additive_instance([Fraction(1)])
        dist = rule_b_uniform(instance)
        assert dist.support == ((frozenset({0}), Fraction(1)),)

    def test_uniform_singletons(self):
        instance = uniform_additive_instance([Fraction(1, 2)] * 4)
        dist = rule_b_uniform(instance)
        assert len(dist.support) == 4
        probs = dist.inclusion_probs()
        for a in range(4):
            assert probs[a] == Fraction(1, 4)


class TestAggregateRanking:
    def _setup(self):
        instance = uniform_additive_instance(
            [Fraction(1, 5), Fraction(1, 4), Fraction(1, 2), Fraction(1)]
        )
        partition = build_partition(instance)
        profile = ranking_profile(instance, partition, Method.MARGINAL_VALUES, 2)
        return instance, partition, profile

    def test_pure_shortlist(self):
        instance, partition, profile = self._setup()
        mixed = aggregate_ranking(profile, partition, instance, mix=Fraction(1))
        assert mixed.support == rule_a_ranking(profile, partition, instance).support

    def test_pure_uniform(self):
        instance, partition, profile = self._setup()
        mixed = aggregate_ranking(profile, partition, instance, mix=Fraction(0))
        assert mixed.support == rule_b_uniform(instance).support

    def test_even_mixture_merges_support(self):
        instance, partition, profile = self._setup()
        mixed = aggregate_ranking(profile, partition, instance, mix=Fraction(1, 2))
        probs = dict(mixed.support)
        assert probs[frozenset({3})] == Fraction(1, 2) + Fraction(1, 8)
        for a in (0, 1, 2):
            assert probs[frozenset({a})] == Fraction(1, 8)

    def test_bad_mix_rejected(self):
        instance, partition, profile = self._setup()
        with pytest.raises(ValueError):
            aggregate_ranking(profile, partition, instance, mix=Fraction(3, 2))


class TestRuleAThreshold:
    def test_weighted_knapsack(self):
        instance = uniform_additive_instance(
            [Fraction(3, 5), Fraction(1, 2), Fraction(1, 2)]
        )
        profile = approval_stub([3, 2, 2])
        assert rule_a_threshold(profile, instance) == {1, 2}

    def test_all_zero_weights_pick_nothing(self):
        instance = uniform_additive_instance([Fraction(1, 2)] * 3)
        assert rule_a_threshold(approval_stub([0, 0, 0]), instance) == frozenset()

    def test_single_alternative(self):
        instance = uniform_additive_instance([Fraction(1)])
        assert rule_a_threshold(approval_stub([5]), instance) == {0}

    def test_fptas_solver_accepted(self):
        instance = uniform_additive_instance(
            [Fraction(3, 5), Fraction(1, 2), Fraction(1, 2)]
        )
        picked = rule_a_threshold(approval_stub([3, 2, 2]), instance, Fptas(eps=0.1))
        assert picked == {1, 2}


class TestAggregateThreshold:
    def _two_alternative_instance(self):
        return simple_instance(
            [Fraction(1, 2), Fraction(1, 2)],
            [OracleSpec("additive", {"values": [0.75, 0.25]})],
        )

    def test_mix_zero_is_uniform(self):
        instance = self._two_alternative_instance()
        dist = aggregate_threshold(instance, mix=Fraction(0))
        assert dist.support == rule_b_uniform(instance).support

    def test_two_alternatives_single_threshold(self):
        # T = 1, so the knapsack branch is a single outcome at probability
        # mix; the approving alternative also collects its singleton share.
        instance = self._two_alternative_instance()
        for mix in (Fraction(1, 2), Fraction(1, 3), Fraction(1)):
            dist = aggregate_threshold(instance, mix=mix)
            probs = dict(dist.support)
            expected_zero = mix + (1 - mix) * Fraction(1, 2)
            assert probs[frozenset({0})] == expected_zero
            if mix < 1:
                assert probs[frozenset({1})] == (1 - mix) * Fraction(1, 2)

    def test_single_alternative_falls_back_to_uniform(self):
        instance = uniform_additive_instance([Fraction(1)])
        dist = aggregate_threshold(instance, mix=Fraction(1, 2))
        assert dist.support == ((frozenset({0}), Fraction(1)),)

    def test_support_feasible(self):
        instance = simple_instance(
            [Fraction(k, 8) for k in (1, 2, 3, 8)],
            [
                OracleSpec("additive", {"values": [0.4, 0.3, 0.2, 0.1]}),
                OracleSpec("max-value", {"values": [0.2, 1.0, 0.5, 0.7]}),
            ],
        )
        validate_support(aggregate_threshold(instance), instance)


class TestExpectedWelfare:
    def test_point_masses(self):
        instance = simple_instance(
            [Fraction(3, 5), Fraction(3, 5)],
            [
                OracleSpec("additive", {"values": [0.75, 0.25]}),
                OracleSpec("additive", {"values": [0.25, 0.75]}),
            ],
        )
        assert expected_welfare(Plan(((Fraction(1), (), 0),)), instance) == 0.0
        assert expected_welfare(
            Plan(((Fraction(1), (0, 1), 2),)), instance
        ) == pytest.approx(2.0, abs=1e-12)

    def test_two_point_average(self):
        instance = simple_instance(
            [Fraction(3, 5), Fraction(3, 5)],
            [
                OracleSpec("additive", {"values": [0.75, 0.25]}),
                OracleSpec("additive", {"values": [0.25, 0.75]}),
            ],
        )
        plan = Plan(((Fraction(1), (0, 1), 1),))
        assert expected_welfare(plan, instance) == pytest.approx(1.0)

    def test_cache_reused(self):
        instance = uniform_additive_instance([Fraction(1, 2)] * 2)
        cache = {}
        plan = Plan(((Fraction(1, 2), (0, 1), 1), (Fraction(1, 2), (0, 1), 2)))
        first = expected_welfare(plan, instance, cache)
        assert first == pytest.approx(0.75)
        assert set(cache) == {((0, 1), 1), ((0, 1), 2)}
        assert expected_welfare(plan, instance, cache) == first

    def test_plan_weights_must_be_positive_and_sum_to_one(self):
        for support in [((Fraction(1, 2), (0,), 1),),
                        ((Fraction(1), (0,), 1), (Fraction(0), (1,), 1))]:
            with pytest.raises(ValueError):
                Plan(support)


class TestSamplingLowerBound:
    def test_expected_welfare_dominates_min_inclusion_times_union(self):
        # Random-subset distributions can only lose a factor equal to the
        # smallest inclusion probability over their union.
        instance = simple_instance(
            [Fraction(k, 8) for k in (1, 2, 3, 5)],
            [
                OracleSpec("max-value", {"values": [0.2, 1.0, 0.5, 0.7]}),
                OracleSpec("coverage", {
                    "weights": [0.5, 0.5, 0.25],
                    "covers": [[0], [1], [0, 2], [2]],
                }),
            ],
        )
        partition = build_partition(instance)
        dists = [rule_b_uniform(instance), aggregate_threshold(instance)]
        for t in range(partition.T + 1):
            profile = ranking_profile(instance, partition, Method.MARGINAL_VALUES, t)
            dists.append(rule_a_ranking(profile, partition, instance))
            dists.append(aggregate_ranking(profile, partition, instance))
        for dist in dists:
            union = dist.union()
            if not union:
                continue
            probs = dist.inclusion_probs()
            floor = min(float(probs[a]) for a in union)
            achieved = distribution_welfare(dist, instance)
            assert achieved >= floor * social_welfare(instance, union) - 1e-9
