"""Instance validation, utility families, curvature, social welfare, the
mean value of a uniform subset, and the instance welfare oracle against
the per-voter definition."""

import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subpb.core import (
    AdditiveOracle,
    ConcaveOverModularOracle,
    ConcaveSumOracle,
    CoverageOracle,
    CoverageSumOracle,
    EXACT_SUPPORT_LIMIT,
    ExceedsExactBudget,
    Instance,
    MaxValueOracle,
    MaxValueSumOracle,
    OracleSpec,
    RawInstance,
    SumOracle,
    ValidationError,
    curvature,
    max_curvature,
    UtilityOracle,
    social_welfare,
    validate_instance,
    welfare_oracle,
)
from subpb.experiment import GeneratorSpec, generate
from subpb.optimize import optimal_welfare

import helpers


def one_voter_parts(voters) -> tuple[UtilityOracle, ...]:
    """Each voter's welfare part on its own, `welfare_oracle((voter,))`."""
    return tuple(welfare_oracle((voter,)) for voter in voters)


def subset_value_table(oracle: UtilityOracle, m: int) -> list[float]:
    """Values of all 2^m subsets, indexed by bitmask, filled by a
    depth-first walk that extends the welfare part's states."""
    table = [0.0] * (1 << m)

    def fill(idx: int, mask: int, state: tuple) -> None:
        if idx == m:
            table[mask] = state[0]
            return
        fill(idx + 1, mask, state)
        fill(idx + 1, mask | (1 << idx), oracle.extend(state, idx))

    fill(0, 0, oracle.start())
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
        with pytest.raises(ValidationError, match="> budget 1"):
            validate_instance(raw)

    def test_nonpositive_cost_rejected(self):
        for bad in (Fraction(0), Fraction(-1, 4)):
            raw = RawInstance(
                costs=(bad,),
                voters=(OracleSpec("additive", {"values": [1.0]}),),
            )
            with pytest.raises(ValidationError, match="<= 0"):
                validate_instance(raw)

    def test_normalization_forced_by_grand_set(self):
        raw = RawInstance(
            costs=(Fraction(1, 2), Fraction(1, 2)),
            voters=(OracleSpec("additive", {"values": [2, 2]}),),
        )
        instance = validate_instance(raw)
        oracle = instance.voters[0]
        assert oracle.scale == pytest.approx(0.25)
        assert oracle.value({0, 1}) == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_voter_rejected(self):
        raw = RawInstance(
            costs=(Fraction(1, 2), Fraction(1, 2)),
            voters=(OracleSpec("additive", {"values": [0.0, 0.0]}),),
        )
        with pytest.raises(ValidationError, match="no finite positive scale"):
            validate_instance(raw)

    @pytest.mark.parametrize("spec", [
        pytest.param(OracleSpec("additive", {"values": [1e308, 1e308]}), id="additive-inf"),
        pytest.param(OracleSpec("additive", {"values": [1e-320, 0.0]}), id="additive-denormal"),
        pytest.param(OracleSpec("coverage", {"weights": [1e308, 1e308], "covers": [[0], [1]]}),
                     id="coverage-inf"),
        pytest.param(OracleSpec("coverage", {"weights": [1e-320], "covers": [[0], []]}),
                     id="coverage-denormal"),
        pytest.param(OracleSpec("concave", {"values": [1e308, 1e308], "gamma": 0.5}),
                     id="concave-inf"),
        pytest.param(OracleSpec("concave", {"values": [1e-320, 0.0], "gamma": 1.0}),
                     id="concave-denormal"),
        pytest.param(OracleSpec("max-value", {"values": [1e-320, 0.0]}), id="max-denormal"),
    ])
    def test_total_without_finite_positive_scale_rejected(self, spec):
        # Finite parameters whose total overflows get scale 0; a denormal
        # total gets scale inf. Either would put inf or nan in the report.
        raw = RawInstance(costs=(Fraction(1, 2),) * 2, voters=(spec,))
        with pytest.raises(ValidationError, match="no finite positive scale"):
            validate_instance(raw)

    @pytest.mark.parametrize("spec", [
        OracleSpec("concave", {"values": [1e-320, 0.0], "gamma": 0.5}),
        OracleSpec("max-value", {"values": [1.7e308, 0.0]}),
    ], ids=["concave-root-of-denormal", "max-near-the-float-limit"])
    def test_extreme_total_with_finite_positive_scale_accepted(self, spec):
        raw = RawInstance(costs=(Fraction(1, 2),) * 2, voters=(spec,))
        oracle = validate_instance(raw).voters[0]
        assert oracle.value({0, 1}) == pytest.approx(1.0, rel=1e-9)

    def test_empty_instance_rejected(self):
        with pytest.raises(ValidationError, match="has no alternatives"):
            validate_instance(RawInstance(costs=(), voters=()))
        with pytest.raises(ValidationError, match="has no voters"):
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
    """Normalized utilities as each voter's closed-form `value` reports them."""

    def test_additive(self):
        oracle = AdditiveOracle.normalized([0.5, 0.5])
        assert oracle.value({0}) == pytest.approx(0.5)

    def test_coverage_union(self):
        oracle = coverage_example()
        # First two alternatives cover the whole universe.
        assert oracle.value({0, 1}) == pytest.approx(1.0, abs=1e-12)
        assert oracle.value({2}) == pytest.approx(1.0 / 3.0)

    def test_max_value_attains_one(self):
        oracle = MaxValueOracle.normalized([0.4, 1.0])
        assert oracle.value({0, 1}) == pytest.approx(1.0, abs=1e-12)
        assert oracle.value({0}) == pytest.approx(0.4)


class TestMarginal:
    """Gains as the states of a voter's one-voter welfare part report
    them: the value the last `extend` adds."""

    def test_additive_independent_of_base(self):
        oracle = AdditiveOracle.normalized([0.5, 0.5])
        assert helpers.extend_gains(oracle, [0, 1])[-1] == pytest.approx(0.5)

    def test_coverage_subsumed_alternative(self):
        oracle = coverage_example()
        # The third alternative covers only what the first already covers.
        assert helpers.extend_gains(oracle, [0, 2])[-1] == 0.0

    def test_max_value_dominated(self):
        oracle = MaxValueOracle.normalized([0.4, 1.0])
        assert helpers.extend_gains(oracle, [1, 0])[-1] == 0.0


class TestCurvature:
    def test_additive_is_exactly_zero(self):
        oracle = AdditiveOracle.normalized([0.3, 1.7, 0.4])
        assert curvature(oracle.singleton_table()) == 0.0

    def test_max_value_full_curvature(self):
        oracle = MaxValueOracle.normalized([0.5, 0.5])
        assert curvature(oracle.singleton_table()) == pytest.approx(1.0)

    def test_coverage_example_full_curvature(self):
        # The third alternative contributes nothing next to the others even
        # though it has positive standalone value.
        assert curvature(coverage_example().singleton_table()) == pytest.approx(1.0)

    def test_concave_interpolates(self):
        linear = ConcaveOverModularOracle.normalized([1.0, 2.0], 1.0)
        assert curvature(linear.singleton_table()) <= 1e-9
        bent = ConcaveOverModularOracle.normalized([1.0, 1.0], 0.5)
        c = curvature(bent.singleton_table())
        assert 0.1 < c < 1.0


class TestSingletonTable:
    """Each family's closed-form `singleton_table` against the definition."""

    @staticmethod
    def assert_matches_definition(oracle, m):
        singles, last_gains = oracle.singleton_table()
        want_singles, want_last = helpers.singleton_reference(oracle, m)
        assert singles == pytest.approx(want_singles, rel=0, abs=1e-12), oracle
        assert last_gains == pytest.approx(want_last, rel=0, abs=1e-12), oracle

    def test_closed_forms_match_definition_on_seeded_oracles(self):
        rng = random.Random(1306)
        families = set()
        for _ in range(80):
            m = rng.randint(1, 8)
            for oracle in helpers.random_oracles(rng, m):
                self.assert_matches_definition(oracle, m)
                families.add(type(oracle).singleton_table)
        assert len(families) == 4

    def test_max_value_tie_at_the_top(self):
        oracle = MaxValueOracle.normalized([1.0, 0.5, 1.0])
        self.assert_matches_definition(oracle, 3)
        assert oracle.singleton_table().last_gains == (0.0, 0.0, 0.0)
        assert curvature(oracle.singleton_table()) == 1.0

    def test_max_value_unique_top_gains_over_the_second(self):
        oracle = MaxValueOracle.normalized([0.25, 1.0, 0.5])
        self.assert_matches_definition(oracle, 3)
        assert oracle.singleton_table().last_gains == (0.0, 0.5, 0.0)

    def test_single_alternative(self):
        oracles = [
            AdditiveOracle.normalized([2.0]),
            CoverageOracle.normalized([0.5, 0.25], [[0, 1]]),
            ConcaveOverModularOracle.normalized([3.0], 0.5),
            MaxValueOracle.normalized([0.7]),
        ]
        for oracle in oracles:
            self.assert_matches_definition(oracle, 1)
            singles, last_gains = oracle.singleton_table()
            assert singles == pytest.approx([1.0]) and last_gains == pytest.approx([1.0])
            assert curvature(oracle.singleton_table()) == pytest.approx(0.0, abs=1e-12)

    def test_coverage_element_shared_by_two_alternatives(self):
        # Element 1 is covered by alternatives 0 and 1, so neither gains it
        # last; element 3 is covered by alternative 2 alone.
        oracle = CoverageOracle.normalized([0.1, 0.2, 0.3, 0.4], [[0, 1], [1, 2], [3]])
        self.assert_matches_definition(oracle, 3)
        singles, last_gains = oracle.singleton_table()
        assert singles == pytest.approx([0.3, 0.5, 0.4])
        assert last_gains == pytest.approx([0.1, 0.3, 0.4])

    def test_concave_weight_on_one_alternative(self):
        # Sum v - v_1 = 0 exactly, and 0 ** gamma counts as 0.
        oracle = ConcaveOverModularOracle.normalized([0.0, 2.0, 0.0], 0.5)
        self.assert_matches_definition(oracle, 3)
        assert oracle.singleton_table() == ((0.0, 1.0, 0.0), (0.0, 1.0, 0.0))
        assert curvature(oracle.singleton_table()) == 0.0

    def test_zero_additive_value_is_skipped(self):
        oracle = AdditiveOracle.normalized([0.0, 0.5, 0.25])
        self.assert_matches_definition(oracle, 3)
        singles, last_gains = oracle.singleton_table()
        assert singles[0] == last_gains[0] == 0.0
        assert curvature(oracle.singleton_table()) == 0.0

    def test_instance_table_is_built_once_per_voter(self):
        instance = shared_signature_instance()
        table = instance.singleton_table
        assert table == tuple(voter.singleton_table() for voter in instance.voters)
        assert instance.singleton_table is table
        assert max_curvature(instance) == max(
            curvature(voter.singleton_table()) for voter in instance.voters)


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
    """A normalized oracle of some family over m alternatives, with m."""
    m = draw(st.integers(min_value=1, max_value=max_m))
    family = draw(st.sampled_from(["additive", "coverage", "concave", "max-value"]))
    values = st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=m,
        max_size=m,
    )
    if family == "additive":
        vals = draw(values.filter(lambda vs: sum(vs) > 1e-6))
        return AdditiveOracle.normalized(vals), m
    if family == "max-value":
        vals = draw(values.filter(lambda vs: max(vs) > 1e-6))
        return MaxValueOracle.normalized(vals), m
    if family == "concave":
        vals = draw(values.filter(lambda vs: sum(vs) > 1e-6))
        gamma = draw(st.floats(min_value=0.1, max_value=1.0))
        return ConcaveOverModularOracle.normalized(vals, gamma), m
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
    return CoverageOracle.normalized(weights, [sorted(c) for c in covers]), m


@settings(max_examples=150, deadline=None)
@given(oracles())
def test_oracles_are_normalized_monotone_submodular(oracle_and_m):
    oracle, m = oracle_and_m
    table = helpers.direct_value_table(oracle, m)
    helpers.check_normalized(table)
    helpers.check_monotone(table, m)
    helpers.check_submodular(table, m)


@settings(max_examples=100, deadline=None)
@given(oracles())
def test_curvature_floor_holds_everywhere(oracle_and_m):
    oracle, m = oracle_and_m
    c = curvature(oracle.singleton_table())
    assert 0.0 <= c <= 1.0
    table = helpers.direct_value_table(oracle, m)
    helpers.check_curvature_floor(table, m, c)


@settings(max_examples=60, deadline=None)
@given(oracles(max_m=5), st.randoms(use_true_random=False))
def test_values_nondecreasing_along_chains(oracle_and_m, rnd):
    oracle, m = oracle_and_m
    order = list(range(m))
    rnd.shuffle(order)
    previous = 0.0
    for end in range(m + 1):
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
        fast = subset_value_table(welfare_oracle((oracle,)), 3)
        slow = helpers.direct_value_table(oracle, 3)
        for mask in range(1 << 3):
            assert fast[mask] == pytest.approx(slow[mask], abs=1e-12)


def test_voter_values_equal_the_formula_and_the_one_voter_part():
    # Every subset over seeded voters of all four families: each closed form
    # is the family's formula exactly, and the fold of its one-voter welfare
    # part agrees within 1e-12.
    rng = random.Random(2626)
    families = set()
    for _ in range(40):
        m = rng.randint(1, 8)
        for voter in helpers.random_oracles(rng, m):
            families.add(voter.family)
            part = welfare_oracle((voter,))
            for members in helpers.powerset(range(m)):
                value = voter.value(members)
                assert value == helpers.direct_value(voter, members), (voter, members)
                assert value == pytest.approx(part.value(members), rel=0, abs=1e-12)
    assert len(families) == 4


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
    table = [social_welfare(instance, [a for a in range(4) if mask >> a & 1])
             for mask in range(16)]
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


def test_expected_uniform_matches_enumeration():
    # One voter of each family: the welfare oracle is a SumOracle of the
    # folded coverage, the concave and the max-value part.
    rng = random.Random(1729)
    for _ in range(30):
        m = rng.randint(1, 8)
        voters = helpers.random_oracles(rng, m)
        welfare = Instance(costs=(Fraction(1, m),) * m, voters=tuple(voters)).welfare
        for oracle in [welfare, *welfare.parts]:
            assert oracle.value(()) == 0.0
            for size in range(m + 1):
                items = tuple(sorted(rng.sample(range(m), size)))
                for k in range(size + 1):
                    got = oracle.expected_uniform(items, k)
                    want = helpers.brute_force_expected_uniform(oracle, items, k)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (
                        oracle, items, k)


# ---------------------------------------------------------------------------
# The instance welfare oracle against the per-voter definition


def shared_signature_instance() -> Instance:
    """Two coverage voters with the same covers, so every signature is
    shared; element 1 weighs zero and element 3 is covered by no
    alternative. The additive voter's zero value at 0 is dropped, and its
    value at 1 lands on the signature {1} that element 2 also has."""
    covers = [[0, 1], [1, 2], [0]]
    return Instance(
        costs=(Fraction(1, 3),) * 3,
        voters=(
            CoverageOracle.normalized([0.5, 0.0, 0.3, 0.2], covers),
            CoverageOracle.normalized([0.25, 0.0, 0.7, 0.9], covers),
            AdditiveOracle.normalized([0.0, 1.0, 2.0]),
            MaxValueOracle.normalized([0.0, 0.5, 1.0]),
        ),
    )


def welfare_instances():
    """Seeded single-family and mixed instances (m <= 8), plus the shared
    signature instance. `helpers.random_oracles` covers coverage element 0
    by every alternative and the last element by none."""
    rng = random.Random(2406)
    yield shared_signature_instance()
    for _ in range(12):
        m = rng.randint(1, 8)
        costs = (Fraction(1, m),) * m
        drawn = [helpers.random_oracles(rng, m) for _ in range(rng.randint(1, 3))]
        for family in range(4):
            yield Instance(costs=costs, voters=tuple(row[family] for row in drawn))
        yield Instance(costs=costs, voters=tuple(o for row in drawn for o in row))


class TestInstanceWelfare:
    def test_signatures_fold_shared_and_drop_empty(self):
        instance = shared_signature_instance()
        welfare = instance.welfare
        assert isinstance(welfare, SumOracle)
        folded, max_part = welfare.parts
        max_voter = instance.voters[3]
        assert type(max_part) is MaxValueSumOracle
        assert (max_part.rows, max_part.scales) == ((max_voter.values,), (max_voter.scale,))
        # Signatures {1}, {2} and {0, 2}: element 1 (zero weight), element 3
        # (uncovered) and the additive zero at 0 leave nothing behind.
        assert len(folded.weights) == 3
        assert folded.signatures == (0b010, 0b100, 0b101)
        assert instance.welfare is welfare

    def test_lone_part_is_used_directly(self):
        # Even a lone concave or max-value voter becomes its family's part.
        costs = (Fraction(1, 2),) * 2
        def fields(voters, *names):
            part = Instance(costs=costs, voters=voters).welfare
            return type(part), tuple(getattr(part, name) for name in names)

        concave = ConcaveOverModularOracle.normalized([1.0, 2.0], 0.5)
        assert fields((concave,), "columns", "gammas", "scales") == (
            ConcaveSumOracle, (((1.0,), (2.0,)), (0.5,), (concave.scale,)))
        maximum = MaxValueOracle.normalized([1.0, 2.0])
        assert fields((maximum,), "rows", "scales") == (
            MaxValueSumOracle, (((1.0, 2.0),), (maximum.scale,)))
        second = ConcaveOverModularOracle.normalized([3.0, 0.0], 1.0)
        assert fields((concave, second), "columns", "gammas", "scales") == (ConcaveSumOracle, (
            ((1.0, 3.0), (2.0, 0.0)), (0.5, 1.0), (concave.scale, second.scale)))
        additive = Instance(costs=(Fraction(1, 2),) * 2, voters=(
            AdditiveOracle.normalized([1.0, 3.0]), AdditiveOracle.normalized([2.0, 1.0])))
        assert isinstance(additive.welfare, CoverageSumOracle)
        assert additive.welfare.signatures == (0b01, 0b10)

    def test_value_equals_social_welfare(self):
        for instance in welfare_instances():
            for members in helpers.powerset(instance.alternatives):
                assert instance.welfare.value(members) == pytest.approx(
                    social_welfare(instance, members), rel=1e-12, abs=1e-12)

    def test_state_deltas_equal_welfare_differences(self):
        for instance in welfare_instances():
            oracle = instance.welfare

            def walk(idx: int, members: tuple, state: tuple) -> None:
                here = social_welfare(instance, members)
                assert state[0] == pytest.approx(here, rel=1e-12, abs=1e-12)
                for a in range(idx, instance.m):
                    after = oracle.extend(state, a)
                    gain = social_welfare(instance, members + (a,)) - here
                    assert after[0] - state[0] == pytest.approx(gain, rel=1e-9, abs=1e-12)
                    walk(a + 1, members + (a,), after)

            walk(0, (), oracle.start())

    def test_extending_leaves_the_parent_state_unchanged(self):
        # The one-voter part of each of four voter families, plus the
        # welfare oracle of all of them: a SumOracle of the folded coverage,
        # concave and max-value parts.
        rng = random.Random(14)
        for _ in range(20):
            m = rng.randint(2, 8)
            voters = helpers.random_oracles(rng, m)
            welfare = Instance(costs=(Fraction(1, m),) * m, voters=tuple(voters)).welfare
            assert isinstance(welfare, SumOracle) and len(welfare.parts) == 3
            assert [type(part) for part in welfare.parts] == [
                CoverageSumOracle, ConcaveSumOracle, MaxValueSumOracle]
            for oracle in [*one_voter_parts(voters), welfare, *welfare.parts]:
                prefix = rng.sample(range(m), rng.randint(0, m - 1))
                parent = oracle.start()
                for a in prefix:
                    parent = oracle.extend(parent, a)
                before = copy.deepcopy(parent)
                for a in range(m):
                    if a in prefix:
                        continue
                    child = oracle.extend(parent, a)
                    assert parent == before, (oracle, prefix, a)
                    assert child[0] == pytest.approx(
                        helpers.direct_value(oracle, prefix + [a]), rel=1e-12, abs=1e-12)

    def test_expected_uniform_equals_per_voter_enumeration(self):
        rng = random.Random(11)
        for instance in welfare_instances():
            for size in range(instance.m + 1):
                items = tuple(sorted(rng.sample(range(instance.m), size)))
                for k in range(size + 1):
                    want = math.fsum(helpers.brute_force_expected_uniform(v, items, k)
                                     for v in instance.voters)
                    got = instance.welfare.expected_uniform(items, k)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# The merged concave and max-value parts against their voters


def merged_parts():
    """Seeded (m, merged part, the same voters' one-voter parts as a
    SumOracle) triples: one to four concave or max-value voters over m <= 7
    alternatives, with the three-level max values of
    `helpers.random_oracles`, so ties are common."""
    rng = random.Random(18)
    for _ in range(15):
        m = rng.randint(1, 7)
        rows = [helpers.random_oracles(rng, m) for _ in range(rng.randint(1, 4))]
        concave = [row[2] for row in rows]
        maxima = [row[3] for row in rows]
        yield m, ConcaveSumOracle.of(concave), SumOracle(one_voter_parts(concave))
        yield m, MaxValueSumOracle.of(maxima), SumOracle(one_voter_parts(maxima))


class TestMergedParts:
    def test_value_and_extend_match_the_formula_and_the_voters(self):
        for m, part, voters in merged_parts():
            assert part.value(()) == 0.0

            def walk(idx: int, members: list, state: tuple) -> None:
                want = helpers.direct_value(part, members)
                assert state[0] == pytest.approx(want, rel=1e-12, abs=1e-15)
                # Both add the same per-voter terms in voter order.
                assert state[0] == voters.value(members), (part, members)
                for a in range(idx, m):
                    walk(a + 1, members + [a], part.extend(state, a))

            walk(0, [], part.start())

    def test_extending_leaves_the_parent_state_unchanged(self):
        for m, part, _ in merged_parts():
            parent = part.extend(part.start(), 0)
            before = copy.deepcopy(parent)
            children = [part.extend(parent, a) for a in range(1, m)]
            assert parent == before
            for a, child in enumerate(children, 1):
                assert child[0] == pytest.approx(
                    helpers.direct_value(part, [0, a]), rel=1e-12, abs=1e-15)

    def test_expected_uniform_matches_enumeration_and_the_voters(self):
        rng = random.Random(7)
        for m, part, voters in merged_parts():
            for size in range(m + 1):
                items = tuple(sorted(rng.sample(range(m), size)))
                for k in range(size + 1):
                    got = part.expected_uniform(items, k)
                    want = helpers.brute_force_expected_uniform(part, items, k)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (part, items, k)
                    per_voter = math.fsum(helpers.brute_force_expected_uniform(v, items, k)
                                          for v in voters.parts)
                    assert got == pytest.approx(per_voter, rel=1e-12, abs=1e-15)

    def test_optimum_state_equals_the_per_voter_sum(self):
        # Generated instances fold every voter into one part, and the
        # optimum's welfare is bit-for-bit the sum of the voters' closed
        # forms.
        for family in ("concave", "max-value"):
            for seed in range(1, 6):
                instance = generate(GeneratorSpec(family, 9, 12, seed=seed))
                assert isinstance(instance.welfare, (ConcaveSumOracle, MaxValueSumOracle))
                bundle = optimal_welfare(instance)
                assert bundle.welfare == social_welfare(instance, bundle.items)

    def test_concave_part_refuses_past_the_exact_limit(self):
        part = ConcaveSumOracle.of([ConcaveOverModularOracle.normalized([1.0] * 40, 0.5)] * 2)
        assert math.comb(40, 20) > EXACT_SUPPORT_LIMIT
        with pytest.raises(ExceedsExactBudget, match="^concave welfare would enumerate"):
            part.expected_uniform(range(40), 20)

    def test_max_value_part_is_closed_form_past_the_exact_limit(self):
        # The largest of a uniform k-subset of 1..N has mean k(N + 1)/(k + 1).
        part = MaxValueSumOracle.of([MaxValueOracle.normalized([float(v) for v in range(1, 41)])])
        assert part.expected_uniform(range(40), 20) == pytest.approx(
            20 * 41 / 21 / 40, rel=1e-12)


# ---------------------------------------------------------------------------
# The signature part against the per-alternative mask walk


def signature_parts():
    """Seeded (m, signature part) pairs: the coverage part of every welfare
    instance, plus random parts over m <= 8 whose last alternative is in no
    signature, so it covers nothing."""
    for instance in welfare_instances():
        parts = getattr(instance.welfare, "parts", (instance.welfare,))
        yield from ((instance.m, p) for p in parts if isinstance(p, CoverageSumOracle))
    rng = random.Random(22)
    for _ in range(30):
        m = rng.randint(1, 8)
        top = 1 << (m - 1)
        signatures = sorted(rng.sample(range(1, top), min(rng.randint(0, 12), top - 1)))
        weights = [rng.uniform(0.0, 1.0) * 10.0 ** rng.randint(-3, 3) for _ in signatures]
        yield m, CoverageSumOracle(tuple(weights), tuple(signatures))


class TestCoverageSumOracle:
    def test_states_equal_the_mask_walk_bit_for_bit(self):
        rng = random.Random(5)
        seen_empty = False
        for m, part in signature_parts():
            masks = helpers.signature_masks(part.signatures, m)
            for _ in range(10):
                sequence = rng.sample(range(m), rng.randint(0, m))
                state, values = part.start(), []
                for a in sequence:
                    state = part.extend(state, a)
                    values.append(state[0])
                    seen_empty |= not masks[a]
                assert values == helpers.mask_walk_values(part.weights, masks, sequence)
                assert part.value(sequence) == (values[-1] if values else 0.0)
        assert seen_empty

    def test_expected_uniform_equals_the_depth_walk_bit_for_bit(self):
        rng = random.Random(9)
        for m, part in signature_parts():
            masks = helpers.signature_masks(part.signatures, m)
            for size in range(m + 1):
                items = rng.sample(range(m), size)
                for k in range(size + 1):
                    assert part.expected_uniform(items, k) == helpers.mask_walk_expected_uniform(
                        part.weights, masks, items, k), (part, items, k)
