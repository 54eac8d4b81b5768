"""Rankings and approval counts: the votes each elicitation method returns."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subpb.core import (
    AdditiveOracle,
    ConcaveOverModularOracle,
    ConcaveSumOracle,
    CoverageOracle,
    CoverageSumOracle,
    MaxValueOracle,
    MaxValueSumOracle,
    OracleSpec,
    RawInstance,
    SumOracle,
    UtilityOracle,
    curvature,
    validate_instance,
)
from subpb.elicitation import (
    APPROVAL_TOL,
    Method,
    approval_profile,
    rank_by_marginal,
    rank_by_values,
    ranking_profile,
)
from subpb.experiment import GeneratorSpec, generate, generate_raw
from subpb.partition import build_partition

import helpers


def coverage_example():
    third = 1.0 / 3.0
    return CoverageOracle.normalized(
        weights=[third, third, third], covers=[[0, 1], [1, 2], [1]]
    )


def singles(oracle):
    return oracle.singleton_table().singles


def simple_instance(costs, voters):
    return validate_instance(RawInstance(costs=tuple(costs), voters=tuple(voters)))


class TestRankByMarginal:
    def test_coverage_greedy_order(self):
        # Gains along the greedy order: 2/3 for the first pick, then 1/3 for
        # the second alternative against 0 for the subsumed third.
        assert rank_by_marginal(coverage_example(), [0, 1, 2]) == (0, 1, 2)

    def test_additive_sorts_by_value(self):
        oracle = AdditiveOracle.normalized([0.1, 0.7, 0.2])
        assert rank_by_marginal(oracle, [0, 1, 2]) == (1, 2, 0)

    def test_tie_breaks_by_id_then_marginal_collapses(self):
        oracle = MaxValueOracle.normalized([0.5, 0.5])
        assert rank_by_marginal(oracle, [0, 1]) == (0, 1)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            rank_by_marginal(AdditiveOracle.normalized([1.0]), [])

    def test_prefix_gains_nonincreasing(self):
        oracle = CoverageOracle.normalized(
            weights=[0.3, 0.2, 0.4, 0.1, 0.5],
            covers=[[0, 1], [1, 2], [2, 3], [4], [0, 4]],
        )
        ranking = rank_by_marginal(oracle, [0, 1, 2, 3, 4])
        gains = helpers.extend_gains(oracle, ranking)
        for earlier, later in zip(gains, gains[1:]):
            assert later <= earlier + 1e-9

    def test_matches_set_rebuilding_greedy(self):
        rng = random.Random(4242)
        zero_gains = tied_gains = 0
        for _ in range(60):
            m = rng.randint(1, 8)
            for oracle in helpers.random_oracles(rng, m):
                group = sorted(rng.sample(range(m), rng.randint(1, m)))
                ranking = rank_by_marginal(oracle, group)
                assert ranking == helpers.rank_by_rebuilding(oracle, group), (
                    oracle, group)
                if oracle.family == "coverage":
                    gains = helpers.extend_gains(oracle, ranking)
                    zero_gains += gains.count(0.0)
                    tied_gains += len(gains) - len(set(gains))
        assert zero_gains and tied_gains


#: Multiples of 1/8 in [0, 1]: sums of a few of them are exact floats, so
#: equal gains tie exactly and unequal ones differ far beyond an ulp.
EIGHTHS = st.integers(min_value=0, max_value=8).map(lambda k: k / 8)


@st.composite
def grid_voters(draw):
    """A voter of some family over m <= 7 alternatives with values, weights
    and gamma on the 1/8 grid, and a group in arbitrary order, often of one
    member. Covers draw from at most four elements, so they overlap and
    coverage gains are often zero or tied."""
    m = draw(st.integers(min_value=1, max_value=7))
    family = draw(st.sampled_from(["additive", "coverage", "concave", "max-value"]))
    group = draw(st.lists(st.integers(min_value=0, max_value=m - 1), min_size=1,
                          max_size=m, unique=True))
    if family == "coverage":
        universe = draw(st.integers(min_value=1, max_value=4))
        weights = draw(st.lists(EIGHTHS, min_size=universe, max_size=universe))
        covers = draw(st.lists(st.lists(st.integers(min_value=0, max_value=universe - 1),
                                        unique=True), min_size=m, max_size=m))
        assume(any(weights[u] for cover in covers for u in cover))
        return CoverageOracle.normalized(weights, covers), group
    values = draw(st.lists(EIGHTHS, min_size=m, max_size=m).filter(any))
    if family == "concave":
        gamma = draw(st.integers(min_value=1, max_value=8)) / 8
        return ConcaveOverModularOracle.normalized(values, gamma), group
    oracle = AdditiveOracle if family == "additive" else MaxValueOracle
    return oracle.normalized(values), group


@settings(max_examples=400, deadline=None)
@given(grid_voters())
def test_closed_forms_match_set_rebuilding_greedy(voter_and_group):
    voter, group = voter_and_group
    assert rank_by_marginal(voter, group) == helpers.rank_by_rebuilding(voter, group)


def test_welfare_parts_have_no_marginal_ranking():
    instance = simple_instance(
        [Fraction(1, 2)] * 2,
        [OracleSpec("concave", {"values": [1.0, 0.5], "gamma": 0.5}),
         OracleSpec("max-value", {"values": [1.0, 0.5]}),
         OracleSpec("additive", {"values": [1.0, 0.5]}),
         OracleSpec("coverage", {"weights": [1.0, 0.5], "covers": [[0], [0, 1]]})],
    )
    assert len(instance.welfare.parts) == 3
    for part in (*instance.welfare.parts, instance.welfare):
        with pytest.raises(TypeError):
            rank_by_marginal(part, [0, 1])


class TestRankByValues:
    def test_additive(self):
        oracle = AdditiveOracle.normalized([0.1, 0.7, 0.2])
        assert rank_by_values(singles(oracle), [0, 1, 2]) == (1, 2, 0)

    def test_coverage_standalone_tie(self):
        # Standalone weights 2/3, 2/3, 1/3: the leading tie breaks by id.
        assert rank_by_values(singles(coverage_example()), [0, 1, 2]) == (0, 1, 2)

    def test_all_equal_gives_id_order(self):
        oracle = AdditiveOracle.normalized([0.5, 0.5, 0.5])
        assert rank_by_values(singles(oracle), [2, 0, 1]) == (0, 1, 2)


def one_voter_counts(family, values, alpha):
    """The approval counts of one voter with these values at one threshold."""
    instance = simple_instance([Fraction(1)] * len(values),
                               [OracleSpec(family, {"values": values})])
    (counts,) = approval_profile(instance, [alpha])
    return counts


class TestThresholdApprove:
    def test_half_threshold(self):
        assert one_voter_counts("additive", [0.75, 0.25], Fraction(1, 2)) == (1, 0)

    def test_threshold_above_everything(self):
        assert one_voter_counts("additive", [0.3, 0.3, 0.4], Fraction(1, 2)) == (0, 0, 0)

    def test_threshold_below_everything(self):
        assert one_voter_counts("additive", [0.5, 0.5], Fraction(1, 4)) == (1, 1)

    def test_boundary_tolerance(self):
        # A value an ulp under the threshold still counts as approving.
        assert one_voter_counts("additive", [0.25, 0.75], Fraction(1, 4)) == (1, 1)

    def test_value_equal_to_the_cutoff_float_approves(self):
        # The second standalone value is the cutoff float(1/4) - APPROVAL_TOL
        # itself (a max-value voter whose largest value is 1 keeps its values
        # as given), and a value equal to the cutoff approves; a slightly
        # higher threshold drops it.
        values = [1.0, float(Fraction(1, 4)) - APPROVAL_TOL]
        assert one_voter_counts("max-value", values, Fraction(1, 4)) == (1, 1)
        assert one_voter_counts("max-value", values, Fraction(1, 4) + Fraction(1, 10**9)) == (1, 0)


class TestProfiles:
    def test_ranking_profile_is_group_permutation(self):
        instance = simple_instance(
            [Fraction(1, 5), Fraction(1, 4), Fraction(1, 2), Fraction(1)],
            [
                OracleSpec("additive", {"values": [0.4, 0.3, 0.2, 0.1]}),
                OracleSpec("max-value", {"values": [1.0, 0.3, 0.8, 0.2]}),
            ],
        )
        partition = build_partition(instance)
        assert partition.groups[0] == (0, 1)
        for method in (Method.MARGINAL_VALUES, Method.STANDALONE_VALUES):
            rankings = ranking_profile(instance, partition, method, 0)
            assert len(rankings) == instance.n
            for ranking in rankings:
                assert sorted(ranking) == [0, 1]

    def test_empty_group_profile(self):
        # Only non-empty groups are ranked; an empty one is refused, whatever
        # the family.
        for voter in (
            OracleSpec("additive", {"values": [1.0] * 4}),
            OracleSpec("coverage", {"weights": [1.0], "covers": [[0]] * 4}),
            OracleSpec("concave", {"values": [1.0] * 4, "gamma": 0.5}),
            OracleSpec("max-value", {"values": [1.0] * 4}),
        ):
            instance = simple_instance([Fraction(1, 4)] * 4, [voter])
            partition = build_partition(instance)
            assert partition.groups[2] == ()
            for method in (Method.MARGINAL_VALUES, Method.STANDALONE_VALUES):
                with pytest.raises(ValueError):
                    ranking_profile(instance, partition, method, 2)

    def test_threshold_is_not_a_ranking_method(self):
        instance = simple_instance([Fraction(1)], [OracleSpec("additive", {"values": [1.0]})])
        with pytest.raises(ValueError):
            ranking_profile(instance, build_partition(instance), Method.THRESHOLD_APPROVAL, 0)

    def test_approval_profile_statistics(self):
        instance = simple_instance(
            [Fraction(1, 2), Fraction(1, 2)],
            [
                OracleSpec("additive", {"values": [0.75, 0.25]}),
                OracleSpec("additive", {"values": [0.25, 0.75]}),
            ],
        )
        thresholds = [Fraction(1, 2), Fraction(1, 4), Fraction(1)]
        assert approval_profile(instance, thresholds) == ((1, 1), (2, 2), (0, 0))
        assert approval_profile(instance, []) == ()


class TestGreedyPrefixBound:
    def test_gain_bounded_by_reciprocal_position(self):
        instance = simple_instance(
            [Fraction(1, 8)] * 8,
            [
                OracleSpec("coverage", {
                    "weights": [0.5, 0.25, 0.25, 0.4, 0.3],
                    "covers": [[0], [0, 1], [1, 2], [2], [3], [3, 4], [4], [0, 4]],
                }),
                OracleSpec("additive", {"values": [0.3, 0.1, 0.05, 0.2, 0.05, 0.1, 0.1, 0.1]}),
            ],
        )
        partition = build_partition(instance)
        rankings = ranking_profile(instance, partition, Method.MARGINAL_VALUES, 0)
        for voter, ranking in zip(instance.voters, rankings):
            gains = helpers.extend_gains(voter, ranking)
            for pos, gain in enumerate(gains, start=1):
                assert gain <= 1.0 / pos + 1e-9

    def test_standalone_bounded_by_curvature_and_position(self):
        instance = simple_instance(
            [Fraction(1, 4)] * 4,
            [
                OracleSpec("concave", {"values": [0.5, 1.0, 0.25, 0.75], "gamma": 0.6}),
                OracleSpec("additive", {"values": [0.4, 0.3, 0.2, 0.1]}),
            ],
        )
        partition = build_partition(instance)
        rankings = ranking_profile(instance, partition, Method.STANDALONE_VALUES, 0)
        for voter, ranking in zip(instance.voters, rankings):
            c = curvature(voter.singleton_table())
            assert c < 1 - 1e-6
            for pos, a in enumerate(ranking, start=1):
                assert voter.value((a,)) <= 1.0 / ((1.0 - c) * pos) + 1e-9


def seeded_instances():
    """Small generated instances of every family, plus one whose max-value
    voters value every alternative alike, so all values tie."""
    for family in ("additive", "coverage", "concave", "max-value"):
        for seed in range(3):
            yield generate(GeneratorSpec(family=family, m=7, n=6, seed=seed))
    costs = generate_raw(GeneratorSpec(family="max-value", m=6, n=5, seed=1)).costs
    yield simple_instance(costs, [OracleSpec("max-value", {"values": [0.5] * 6})] * 5)


def approve_by_value(oracle, m, alpha):
    return frozenset(a for a in range(m)
                     if oracle.value((a,)) >= float(alpha) - APPROVAL_TOL)


class TestProfilesReadTheSingletonTable:
    """Profiles built from `Instance.singleton_table` against each voter's
    singleton values evaluated one by one."""

    def test_approval_profile_matches_per_voter_values(self):
        edges = 0
        for instance in seeded_instances():
            # A threshold equal to a singleton value, or above it by less
            # than APPROVAL_TOL, still approves it.
            values = {Fraction(v.value((a,))) for v in instance.voters for a in range(instance.m)}
            above = {value + Fraction(APPROVAL_TOL / 2) for value in values}
            alphas = sorted(set(build_partition(instance).thresholds) | values | above)
            for alpha, counts in zip(alphas, approval_profile(instance, alphas), strict=True):
                approved = [approve_by_value(v, instance.m, alpha) for v in instance.voters]
                want = tuple(sum(a in sets for sets in approved) for a in range(instance.m))
                assert counts == want, (instance, alpha)
                edges += alpha in values
        assert edges

    def test_value_rank_profile_matches_per_voter_values(self):
        for instance in seeded_instances():
            partition = build_partition(instance)
            for t, group in enumerate(partition.groups):
                if not group:
                    continue
                rankings = ranking_profile(instance, partition, Method.STANDALONE_VALUES, t)
                assert rankings == tuple(
                    tuple(sorted(group, key=lambda a: (-v.value((a,)), a)))
                    for v in instance.voters)

    def test_marginal_profiles_extend_no_state(self, monkeypatch):
        # Voters have no states, and marginal rankings neither evaluate a
        # voter's set nor extend a welfare part's state.
        calls = []

        def counting(method):
            def wrapper(self, *args):
                calls.append(args)
                return method(self, *args)
            return wrapper

        voter_classes = (AdditiveOracle, CoverageOracle, ConcaveOverModularOracle,
                         MaxValueOracle)
        for cls in voter_classes:
            monkeypatch.setattr(cls, "value", counting(cls.value))
        for cls in (CoverageSumOracle, ConcaveSumOracle, MaxValueSumOracle, SumOracle):
            monkeypatch.setattr(cls, "extend", counting(cls.extend))
        families = set()
        for instance in seeded_instances():
            partition = build_partition(instance)
            for t, group in enumerate(partition.groups):
                if group:
                    ranking_profile(instance, partition, Method.MARGINAL_VALUES, t)
                    families.update(type(v) for v in instance.voters)
        assert families == set(voter_classes)
        assert calls == []
        instance.voters[0].value((0,))
        assert calls == [((0,),)]

    def test_profiles_evaluate_no_set_once_the_table_exists(self, monkeypatch):
        calls = []

        def counting(value):
            def wrapper(self, items):
                calls.append(items)
                return value(self, items)
            return wrapper

        # The welfare parts' `value` and every voter family's closed form.
        evaluators = (UtilityOracle, AdditiveOracle, CoverageOracle,
                      ConcaveOverModularOracle, MaxValueOracle)
        for instance in seeded_instances():
            partition = build_partition(instance)
            instance.singleton_table
            for cls in evaluators:
                monkeypatch.setattr(cls, "value", counting(vars(cls)["value"]))
            approval_profile(instance, partition.thresholds)
            for t, group in enumerate(partition.groups):
                if group:
                    ranking_profile(instance, partition, Method.STANDALONE_VALUES, t)
            monkeypatch.undo()
        assert calls == []
        for cls in evaluators:
            monkeypatch.setattr(cls, "value", counting(vars(cls)["value"]))
        instance.voters[0].value((0,))
        instance.welfare.value((0,))
        assert calls == [(0,), (0,)]
