"""Instance validation, utility families, curvature, social welfare, and
the mean value of a uniform subset."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subpb.core import (
    AdditiveOracle,
    ConcaveOverModularOracle,
    CostExceedsBudget,
    CoverageOracle,
    EmptyInstance,
    MaxValueOracle,
    NonPositiveCost,
    OracleSpec,
    RawInstance,
    UnnormalizableUtility,
    ValidationError,
    compute_curvature,
    eval_utility,
    marginal,
    max_curvature,
    UtilityOracle,
    social_welfare,
    validate_instance,
)

import helpers


def subset_value_table(oracle: UtilityOracle) -> list[float]:
    """Normalized values of all 2^m subsets, indexed by bitmask, filled by
    a depth-first walk over the oracle's incremental tracker."""
    m = oracle.m
    table = [0.0] * (1 << m)
    tracker = oracle.tracker()

    def fill(idx: int, mask: int, value: float) -> None:
        if idx == m:
            table[mask] = value
            return
        fill(idx + 1, mask, value)
        delta = tracker.push(idx)
        fill(idx + 1, mask | (1 << idx), value + delta)
        tracker.pop()

    fill(0, 0, 0.0)
    return table


def coverage_example() -> CoverageOracle:
    # Universe of three equal-weight elements; the third alternative covers
    # a subset of what the first already covers.
    third = 1.0 / 3.0
    return CoverageOracle.normalized(
        weights=[third, third, third], covers=[[0, 1], [1, 2], [1]]
    )


def two_voter_instance() -> RawInstance:
    return RawInstance(
        costs=(Fraction(3, 5), Fraction(3, 5)),
        voters=(
            OracleSpec("additive", {"values": [0.75, 0.25]}),
            OracleSpec("additive", {"values": [0.25, 0.75]}),
        ),
    )


class TestValidation:
    def test_cost_above_budget_rejected(self):
        raw = RawInstance(
            costs=(Fraction(3, 2),),
            voters=(OracleSpec("additive", {"values": [1.0]}),),
        )
        with pytest.raises(CostExceedsBudget):
            validate_instance(raw)

    def test_nonpositive_cost_rejected(self):
        for bad in (Fraction(0), Fraction(-1, 4)):
            raw = RawInstance(
                costs=(bad,),
                voters=(OracleSpec("additive", {"values": [1.0]}),),
            )
            with pytest.raises(NonPositiveCost):
                validate_instance(raw)

    def test_normalization_forced_by_grand_set(self):
        raw = RawInstance(
            costs=(Fraction(1, 2), Fraction(1, 2)),
            voters=(OracleSpec("additive", {"values": [2, 2]}),),
        )
        instance = validate_instance(raw)
        oracle = instance.voters[0]
        assert oracle.scale == pytest.approx(0.25)
        assert eval_utility(oracle, {0, 1}) == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_voter_rejected(self):
        raw = RawInstance(
            costs=(Fraction(1, 2), Fraction(1, 2)),
            voters=(OracleSpec("additive", {"values": [0.0, 0.0]}),),
        )
        with pytest.raises(UnnormalizableUtility):
            validate_instance(raw)

    def test_empty_instance_rejected(self):
        with pytest.raises(EmptyInstance):
            validate_instance(RawInstance(costs=(), voters=()))
        with pytest.raises(EmptyInstance):
            validate_instance(RawInstance(costs=(Fraction(1, 2),), voters=()))

    def test_unknown_family_rejected(self):
        raw = RawInstance(
            costs=(Fraction(1, 2),),
            voters=(OracleSpec("mystery", {"values": [1.0]}),),
        )
        with pytest.raises(ValidationError):
            validate_instance(raw)

    def test_wrong_value_count_rejected(self):
        raw = RawInstance(
            costs=(Fraction(1, 2), Fraction(1, 2)),
            voters=(OracleSpec("additive", {"values": [1.0]}),),
        )
        with pytest.raises(ValidationError):
            validate_instance(raw)

    def test_bad_gamma_rejected(self):
        for gamma in (0.0, 1.5, -0.3):
            with pytest.raises(ValidationError):
                ConcaveOverModularOracle.normalized([1.0, 1.0], gamma)


class TestEvalUtility:
    def test_additive(self):
        oracle = AdditiveOracle.normalized([0.5, 0.5])
        assert eval_utility(oracle, {0}) == pytest.approx(0.5)

    def test_coverage_union(self):
        oracle = coverage_example()
        # First two alternatives cover the whole universe.
        assert eval_utility(oracle, {0, 1}) == pytest.approx(1.0, abs=1e-12)
        assert eval_utility(oracle, {2}) == pytest.approx(1.0 / 3.0)

    def test_max_value_attains_one(self):
        oracle = MaxValueOracle.normalized([0.4, 1.0])
        assert eval_utility(oracle, {0, 1}) == pytest.approx(1.0, abs=1e-12)
        assert eval_utility(oracle, {0}) == pytest.approx(0.4)

    def test_invalid_id(self):
        oracle = AdditiveOracle.normalized([1.0])
        with pytest.raises(ValueError):
            eval_utility(oracle, {3})


class TestMarginal:
    def test_additive_independent_of_base(self):
        oracle = AdditiveOracle.normalized([0.5, 0.5])
        assert marginal(oracle, 1, {0}) == pytest.approx(0.5)

    def test_coverage_subsumed_alternative(self):
        oracle = coverage_example()
        # The third alternative covers only what the first already covers.
        assert marginal(oracle, 2, {0}) == 0.0

    def test_max_value_dominated(self):
        oracle = MaxValueOracle.normalized([0.4, 1.0])
        assert marginal(oracle, 0, {1}) == 0.0

    def test_member_of_base_rejected(self):
        oracle = AdditiveOracle.normalized([0.5, 0.5])
        with pytest.raises(ValueError):
            marginal(oracle, 0, {0})


class TestCurvature:
    def test_additive_is_exactly_zero(self):
        oracle = AdditiveOracle.normalized([0.3, 1.7, 0.4])
        assert compute_curvature(oracle) == 0.0

    def test_max_value_full_curvature(self):
        oracle = MaxValueOracle.normalized([0.5, 0.5])
        assert compute_curvature(oracle) == pytest.approx(1.0)

    def test_coverage_example_full_curvature(self):
        # The third alternative contributes nothing next to the others even
        # though it has positive standalone value.
        assert compute_curvature(coverage_example()) == pytest.approx(1.0)

    def test_concave_interpolates(self):
        linear = ConcaveOverModularOracle.normalized([1.0, 2.0], 1.0)
        assert compute_curvature(linear) <= 1e-9
        bent = ConcaveOverModularOracle.normalized([1.0, 1.0], 0.5)
        c = compute_curvature(bent)
        assert 0.1 < c < 1.0


class TestSocialWelfare:
    def test_empty_and_full(self):
        instance = validate_instance(two_voter_instance())
        assert social_welfare(instance, frozenset()) == 0.0
        assert social_welfare(instance, {0, 1}) == pytest.approx(2.0, abs=1e-12)

    def test_single_alternative(self):
        instance = validate_instance(two_voter_instance())
        assert social_welfare(instance, {0}) == pytest.approx(1.0)

    def test_bounded_by_voter_count(self):
        instance = validate_instance(two_voter_instance())
        for members in helpers.powerset(instance.alternatives):
            value = social_welfare(instance, members)
            assert -1e-12 <= value <= instance.n + 1e-12


# ---------------------------------------------------------------------------
# Property tests


@st.composite
def oracles(draw, max_m=6):
    m = draw(st.integers(min_value=1, max_value=max_m))
    family = draw(st.sampled_from(["additive", "coverage", "concave", "max-value"]))
    values = st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=m,
        max_size=m,
    )
    if family == "additive":
        vals = draw(values.filter(lambda vs: sum(vs) > 1e-6))
        return AdditiveOracle.normalized(vals)
    if family == "max-value":
        vals = draw(values.filter(lambda vs: max(vs) > 1e-6))
        return MaxValueOracle.normalized(vals)
    if family == "concave":
        vals = draw(values.filter(lambda vs: sum(vs) > 1e-6))
        gamma = draw(st.floats(min_value=0.1, max_value=1.0))
        return ConcaveOverModularOracle.normalized(vals, gamma)
    universe = draw(st.integers(min_value=1, max_value=8))
    weights = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0),
            min_size=universe,
            max_size=universe,
        )
    )
    covers = draw(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=universe - 1), min_size=1),
            min_size=m,
            max_size=m,
        )
    )
    return CoverageOracle.normalized(weights, [sorted(c) for c in covers])


@settings(max_examples=150, deadline=None)
@given(oracles())
def test_oracles_are_normalized_monotone_submodular(oracle):
    table = helpers.direct_value_table(oracle)
    helpers.check_normalized(table)
    helpers.check_monotone(table, oracle.m)
    helpers.check_submodular(table, oracle.m)


@settings(max_examples=100, deadline=None)
@given(oracles())
def test_curvature_floor_holds_everywhere(oracle):
    c = compute_curvature(oracle)
    assert 0.0 <= c <= 1.0
    table = helpers.direct_value_table(oracle)
    helpers.check_curvature_floor(table, oracle.m, c)


@settings(max_examples=60, deadline=None)
@given(oracles(max_m=5), st.randoms(use_true_random=False))
def test_values_nondecreasing_along_chains(oracle, rnd):
    order = list(range(oracle.m))
    rnd.shuffle(order)
    previous = 0.0
    for end in range(oracle.m + 1):
        value = oracle.value(order[:end])
        assert value >= previous - 1e-12
        previous = value


def test_subset_table_matches_direct_evaluation():
    examples = [
        AdditiveOracle.normalized([0.2, 0.7, 0.4]),
        coverage_example(),
        ConcaveOverModularOracle.normalized([0.5, 1.5, 1.0], 0.6),
        MaxValueOracle.normalized([0.4, 1.0, 0.7]),
    ]
    for oracle in examples:
        fast = subset_value_table(oracle)
        slow = helpers.direct_value_table(oracle)
        for mask in range(1 << oracle.m):
            assert fast[mask] == pytest.approx(slow[mask], abs=1e-12)


def test_social_welfare_is_monotone_submodular():
    # Welfare is a sum of monotone submodular functions; verify exhaustively
    # by treating it as a table over subsets.
    instance = validate_instance(
        RawInstance(
            costs=(Fraction(1, 4),) * 4,
            voters=(
                OracleSpec("additive", {"values": [0.3, 0.4, 0.2, 0.1]}),
                OracleSpec("max-value", {"values": [1.0, 0.5, 0.7, 0.9]}),
                OracleSpec("concave", {"values": [1.0, 1.0, 2.0, 0.5], "gamma": 0.7}),
            ),
        )
    )
    import numpy as np

    table = np.array(
        [
            social_welfare(instance, [a for a in range(4) if mask >> a & 1])
            for mask in range(16)
        ]
    )
    helpers.check_monotone(table, 4)
    helpers.check_submodular(table, 4)


def test_max_curvature_takes_worst_voter():
    instance = validate_instance(
        RawInstance(
            costs=(Fraction(1, 2), Fraction(1, 2)),
            voters=(
                OracleSpec("additive", {"values": [1.0, 1.0]}),
                OracleSpec("max-value", {"values": [1.0, 1.0]}),
            ),
        )
    )
    assert max_curvature(instance) == pytest.approx(1.0)


def random_oracles(rng: random.Random, m: int) -> list[UtilityOracle]:
    """One oracle per family. Max values are drawn from three levels, so
    ties are common; coverage element 0 is covered by every alternative and
    the last element by none."""
    values = [rng.uniform(0.05, 1.0) for _ in range(m)]
    universe = rng.randint(2, 6)
    covers = [[0] + sorted(rng.sample(range(1, universe), rng.randint(0, universe - 1)))
              for _ in range(m)]
    return [
        AdditiveOracle.normalized(values),
        CoverageOracle.normalized(
            [rng.uniform(0.1, 1.0) for _ in range(universe + 1)], covers),
        ConcaveOverModularOracle.normalized(values, rng.uniform(0.3, 1.0)),
        MaxValueOracle.normalized([rng.choice([0.25, 0.5, 1.0]) for _ in range(m)]),
    ]


def test_expected_uniform_matches_enumeration():
    rng = random.Random(1729)
    for _ in range(30):
        m = rng.randint(1, 8)
        for oracle in random_oracles(rng, m):
            for size in range(m + 1):
                items = tuple(sorted(rng.sample(range(m), size)))
                for k in range(size + 1):
                    got = oracle.expected_uniform(items, k)
                    want = helpers.brute_force_expected_uniform(oracle, items, k)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (
                        oracle.family, items, k)
