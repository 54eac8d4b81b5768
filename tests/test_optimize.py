"""The exact knapsack solver against brute force, and the exhaustive
welfare oracle."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subpb.core import FAMILIES, OracleSpec, RawInstance, social_welfare, validate_instance
from subpb.optimize import (
    EXACT_ENUMERATION_LIMIT,
    ExceedsExactBudget,
    KnapsackProblem,
    _frontiers,
    _integer_costs,
    optimal_welfare,
    solve_knapsack,
)

import helpers


def problem(profits, costs, capacity=Fraction(1)):
    """The knapsack of these costs within `capacity`, as the same problem
    within the unit budget: every cost divided by the capacity."""
    capacity = Fraction(capacity)
    return KnapsackProblem(
        profits=tuple(profits),
        costs=tuple(Fraction(c) / capacity for c in costs),
    )


def random_problem(rng, max_m=15, max_profit=20):
    m = rng.randint(1, max_m)
    profits = tuple(rng.randint(0, max_profit) for _ in range(m))
    costs = tuple(Fraction(rng.randint(1, 16), 16) for _ in range(m))
    return problem(profits, costs)


class TestKnapsackExact:
    def test_spec_example(self):
        # Brute force over all 8 subsets: only {1, 2} reaches weight 4.
        p = problem([3, 2, 2], ["3/5", "1/2", "1/2"])
        assert solve_knapsack(p) == {1, 2}

    def test_all_zero_weights(self):
        p = problem([0, 0, 0], ["1/2", "1/2", "1/2"])
        assert solve_knapsack(p) == frozenset()

    def test_single_item_full_cost(self):
        assert solve_knapsack(problem([5], ["1"])) == {0}
        assert solve_knapsack(problem([0], ["1"])) == frozenset()

    def test_single_item(self):
        assert solve_knapsack(problem([7], ["1/2"])) == {0}

    def test_empty_problem(self):
        assert solve_knapsack(problem([], [])) == frozenset()

    def test_zero_profits(self):
        assert solve_knapsack(problem([0, 0], ["1/2", "1/2"])) == frozenset()

    def test_everything_fits(self):
        p = problem([1, 2, 3], ["1/4", "1/4", "1/4"])
        assert solve_knapsack(p) == {0, 1, 2}

    def test_zero_profit_padding_precedes(self):
        # Lexicographically, (0, 1) comes before (1,), so the optimal set
        # absorbs the free-riding zero-profit item that fits.
        p = problem([0, 5], ["1/2", "1/2"])
        assert solve_knapsack(p) == {0, 1}

    def test_matches_brute_force_on_random_problems(self):
        rng = random.Random(20240117)
        for _ in range(60):
            p = random_problem(rng, max_m=10)
            fast = solve_knapsack(p)
            slow = helpers.brute_force_knapsack(p)
            assert helpers.profit(p, fast) == helpers.profit(p, slow)
            assert fast == slow

    def test_negative_profit_rejected(self):
        # Also misaligned and non-integer profits, built or derived by
        # `_replace`.
        for profits, costs in [([-1], ["1/2"]), ([1, 2], ["1/2"]), ([1.5], ["1/2"])]:
            with pytest.raises(ValueError):
                problem(profits, costs)
            with pytest.raises(ValueError):
                problem([0] * len(costs), costs)._replace(profits=tuple(profits))


#: Distinct primes as cost denominators make the scaled budget axis their
#: LCM: up to 6.5e9 at ten items.
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


@st.composite
def knapsack_problems(draw, wide):
    """m <= 10 items with profits often in {0, 1, 2}, so that ties and zero
    profits are common. Wide: costs k/p over distinct primes p. Narrow:
    costs on the grid of eighths. A capacity of 1, 2/3 or 5/7 divides
    every cost (`problem`)."""
    m = draw(st.integers(min_value=0, max_value=10))
    profit = st.one_of(st.sampled_from([0, 1, 2]), st.integers(min_value=0, max_value=100))
    profits = draw(st.lists(profit, min_size=m, max_size=m))
    if wide:
        primes = draw(st.permutations(PRIMES))[:m]
        costs = [Fraction(draw(st.integers(1, max(1, p // 3))), p) for p in primes]
    else:
        costs = [Fraction(draw(st.integers(1, 8)), 8) for _ in range(m)]
    capacity = draw(st.sampled_from([Fraction(1), Fraction(2, 3), Fraction(5, 7)]))
    return problem(profits, costs, capacity)


@settings(max_examples=200, deadline=None)
@given(st.one_of(knapsack_problems(wide=True), knapsack_problems(wide=False)))
def test_exact_matches_brute_force_with_its_tie_rule(p):
    assert solve_knapsack(p) == helpers.brute_force_knapsack(p)


@settings(max_examples=100, deadline=None)
@given(st.one_of(knapsack_problems(wide=True), knapsack_problems(wide=False)))
def test_frontiers_are_the_pareto_points_of_each_suffix(p):
    costs, budget = _integer_costs(p.costs)
    assert budget == math.lcm(*(c.denominator for c in p.costs))
    assert costs == [int(c * budget) for c in p.costs]
    fronts = _frontiers(p.profits, costs, budget)
    for j, (front_costs, front_profits) in enumerate(fronts):
        points = {
            (sum(costs[a] for a in combo), helpers.profit(p, combo))
            for combo in helpers.powerset(range(j, p.size))
        }
        points = {(c, q) for c, q in points if c <= budget}
        pareto = sorted(
            (c, q) for c, q in points
            if not any(c2 <= c and q2 >= q and (c2, q2) != (c, q) for c2, q2 in points)
        )
        assert list(zip(front_costs, front_profits)) == pareto
        assert len(pareto) <= min(budget, sum(p.profits[j:])) + 1


def grid_values(rng, size):
    """Values on the grid of quarters, zero included, not all zero: sets
    that differ only in zero-value items tie exactly."""
    values = [rng.randint(0, 4) / 4 for _ in range(size)]
    values[rng.randrange(size)] = rng.randint(1, 4) / 4
    return values


def grid_voter(rng, family, m):
    """A voter with values or weights from `grid_values`; a coverage voter's
    last item covers every element, so that its grand value is positive."""
    if family == "coverage":
        universe = rng.randint(1, 4)
        return OracleSpec(family, {
            "weights": grid_values(rng, universe),
            "covers": [sorted(rng.sample(range(universe), rng.randint(0, universe)))
                       for _ in range(m - 1)] + [list(range(universe))],
        })
    params = {"values": grid_values(rng, m)}
    if family == "concave":
        params["gamma"] = rng.randint(1, 4) / 4
    return OracleSpec(family, params)


def tie_costs(rng, model, m):
    """Equal costs, dyadic costs k/2^j, or costs over distinct primes (with
    31 and 37 past `PRIMES`, so that twelve items get twelve)."""
    if model == "equal":
        return (Fraction(rng.randint(1, 8), 16),) * m
    if model == "dyadic":
        return tuple(Fraction(rng.randint(1, 2**j), 2**j)
                     for j in (rng.randint(0, 5) for _ in range(m)))
    primes = rng.sample(PRIMES + (31, 37), m)
    return tuple(Fraction(rng.randint(1, p // 2), p) for p in primes)


class TestOptimalWelfare:
    @pytest.mark.parametrize("model", ["equal", "dyadic", "coprime"])
    @pytest.mark.parametrize("family", ["additive", "coverage", "concave", "max-value",
                                        "mixed"])
    def test_ties_match_the_recursive_reference(self, family, model):
        rng = random.Random(f"{family}/{model}")
        for _ in range(12):
            m = rng.randint(1, 12)
            families = (rng.sample(["additive", "coverage", "concave", "max-value"],
                                   rng.randint(2, 4))
                        if family == "mixed" else [family] * rng.randint(1, 3))
            instance = validate_instance(RawInstance(
                costs=tie_costs(rng, model, m),
                voters=tuple(grid_voter(rng, f, m) for f in families),
            ))
            assert optimal_welfare(instance) == helpers.optimum_by_recursion(instance)

    def test_rounding_cannot_promote_a_set_with_room_left(self):
        # {1} leaves room for item 0, so only {0, 1} and {0, 2} are maximal.
        # Item 1 covers three signatures; alone it adds all three, after
        # item 0 only two, and that grouping rounds {0, 1} below {1}.
        instance = validate_instance(RawInstance(
            costs=(Fraction(3, 10), Fraction(3, 5), Fraction(3, 5)),
            voters=(OracleSpec("coverage", {"weights": [0.25, 0.5, 0.75],
                                            "covers": [[0], [0, 1, 2], [2]]}),),
        ))
        welfare = instance.welfare
        alone = welfare.extend(welfare.start(), 1)[0]
        both = welfare.extend(welfare.extend(welfare.start(), 0), 1)[0]
        assert alone > both
        assert optimal_welfare(instance) == helpers.optimum_by_recursion(instance) == (
            frozenset({0, 1}), both)

    @pytest.mark.parametrize("m, fit", [(16, 10), (12, 4), (9, 6), (7, 1), (6, 5), (5, 5)])
    def test_extends_once_per_prefix_of_a_fitting_subset(self, m, fit, monkeypatch):
        # With equal costs, the maximal sets are the fit-subsets, and the walk
        # extends once per distinct non-empty prefix of one: there are
        # C(m + 1, fit) - 1 of them. (16, 10) is the exact-shortlist shape.
        cost = Fraction(3, 32) if (m, fit) == (16, 10) else Fraction(1, fit)
        instance = validate_instance(RawInstance(
            costs=(cost,) * m,
            voters=(OracleSpec("additive", {"values": [1.0] * m}),),
        ))
        welfare = instance.welfare
        extends = []

        def counting(state, a):
            extends.append(a)
            return type(welfare).extend(welfare, state, a)

        monkeypatch.setattr(welfare, "extend", counting)
        bundle = optimal_welfare(instance)
        assert bundle.items == frozenset(range(fit))
        assert len(extends) == math.comb(m + 1, fit) - 1

    def test_two_voter_tie_breaks_lexicographically(self):
        instance = validate_instance(
            RawInstance(
                costs=(Fraction(3, 5), Fraction(3, 5)),
                voters=(
                    OracleSpec("additive", {"values": [0.75, 0.25]}),
                    OracleSpec("additive", {"values": [0.25, 0.75]}),
                ),
            )
        )
        bundle = optimal_welfare(instance)
        assert bundle.items == {0}
        assert bundle.welfare == pytest.approx(1.0)

    def test_ties_go_to_maximal_sets(self):
        # {0} and {0, 1} tie, and item 1 fits exactly into what {0} leaves:
        # only the maximal set {0, 1} is a candidate, although (0,) < (0, 1).
        instance = validate_instance(
            RawInstance(
                costs=(Fraction(1, 2), Fraction(1, 2), Fraction(3, 4)),
                voters=(OracleSpec("max-value", {"values": [1.0, 0.5, 0.25]}),),
            )
        )
        bundle = optimal_welfare(instance)
        assert bundle.items == {0, 1}
        assert bundle.welfare == 1.0
        assert helpers.brute_force_best_welfare(instance) == (bundle.items, bundle.welfare)

    def test_everything_affordable_takes_everything(self):
        instance = validate_instance(
            RawInstance(
                costs=(Fraction(1, 8),) * 4,
                voters=(
                    OracleSpec("max-value", {"values": [1.0, 0.5, 0.25, 0.75]}),
                    OracleSpec("additive", {"values": [1.0, 2.0, 3.0, 4.0]}),
                ),
            )
        )
        bundle = optimal_welfare(instance)
        assert bundle.items == {0, 1, 2, 3}
        assert bundle.welfare == pytest.approx(2.0, abs=1e-12)

    def test_single_alternative(self):
        instance = validate_instance(
            RawInstance(
                costs=(Fraction(1),),
                voters=(OracleSpec("additive", {"values": [1.0]}),),
            )
        )
        bundle = optimal_welfare(instance)
        assert bundle.items == {0}
        assert bundle.welfare == pytest.approx(1.0)

    def test_enumeration_budget_enforced(self):
        m = EXACT_ENUMERATION_LIMIT + 1
        instance = validate_instance(
            RawInstance(
                costs=(Fraction(1, 32),) * m,
                voters=(OracleSpec("additive", {"values": [1.0] * m}),),
            )
        )
        with pytest.raises(ExceedsExactBudget):
            optimal_welfare(instance)

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(99)
        families = ["additive", "coverage", "concave", "max-value"]
        for trial in range(25):
            m = rng.randint(1, 6)
            family = families[trial % 4]
            if family == "coverage":
                universe = rng.randint(1, 5)
                params = {
                    "weights": [rng.uniform(0.1, 1.0) for _ in range(universe)],
                    "covers": [
                        sorted(
                            rng.sample(range(universe), rng.randint(1, universe))
                        )
                        for _ in range(m)
                    ],
                }
            elif family == "concave":
                params = {
                    "values": [rng.uniform(0.1, 1.0) for _ in range(m)],
                    "gamma": rng.uniform(0.2, 1.0),
                }
            else:
                params = {"values": [rng.uniform(0.1, 1.0) for _ in range(m)]}
            instance = validate_instance(
                RawInstance(
                    costs=tuple(Fraction(rng.randint(1, 8), 8) for _ in range(m)),
                    voters=(OracleSpec(family, params),),
                )
            )
            bundle = optimal_welfare(instance)
            expected_set, expected_welfare = helpers.brute_force_best_welfare(instance)
            assert bundle.welfare == pytest.approx(expected_welfare, abs=1e-9)
            assert social_welfare(instance, bundle.items) == pytest.approx(
                expected_welfare, abs=1e-9
            )

    def test_dominates_random_feasible_sets(self):
        rng = random.Random(5)
        instance = validate_instance(
            RawInstance(
                costs=tuple(Fraction(rng.randint(1, 8), 8) for _ in range(8)),
                voters=(
                    OracleSpec("concave", {
                        "values": [rng.uniform(0.1, 1.0) for _ in range(8)],
                        "gamma": 0.7,
                    }),
                ),
            )
        )
        bundle = optimal_welfare(instance)
        for _ in range(200):
            size = rng.randint(0, 8)
            sample = rng.sample(range(8), size)
            if helpers.feasible(instance, sample):
                assert social_welfare(instance, sample) <= bundle.welfare + 1e-9


def valued_instances():
    """Seeded concave, max-value and mixed instances (m <= 10) under the
    three cost models of `tie_costs`. A mixed instance has a voter of each
    family, so its welfare sums a coverage, a concave and a max-value part."""
    for family in ("concave", "max-value", "mixed"):
        for model in ("equal", "dyadic", "coprime"):
            rng = random.Random(f"worth/{family}/{model}")
            for _ in range(4):
                m = rng.randint(1, 10)
                families = FAMILIES if family == "mixed" else [family] * rng.randint(1, 3)
                yield validate_instance(RawInstance(
                    costs=tie_costs(rng, model, m),
                    voters=tuple(grid_voter(rng, f, m) for f in families),
                ))


#: The optimum's `extend` calls on each of `valued_instances`, in order:
#: the counts of the walk, which reading values only at the compared sets
#: leaves as they were.
VALUED_INSTANCE_EXTENDS = (
    3, 461, 3, 5, 4, 29, 2, 9, 23, 60, 1, 23, 54, 1, 19, 4, 4, 11,
    15, 19, 1, 21, 95, 5, 6, 34, 55, 1, 1, 9, 15, 22, 80, 1, 58, 73)


class TestValuesWhereRead:
    def test_worth_once_per_compared_set(self, monkeypatch):
        # Every set the optimum compares, forced completion or final set, is
        # maximal, and every maximal set is compared once; a mixed instance's
        # parts are valued once per value of their sum.
        extends = []
        for instance in valued_instances():
            welfare = instance.welfare
            parts = getattr(welfare, "parts", ())
            calls = Counter()
            with monkeypatch.context() as patch:
                for oracle in (welfare, *parts):
                    for name in ("extend", "worth"):
                        patch.setattr(oracle, name, helpers.counting(calls, oracle, name))
                bundle = optimal_welfare(instance)
            compared = len(helpers.maximal_sets(instance))
            assert calls[welfare, "worth"] == compared
            for part in parts:
                assert calls[part, "worth"] == compared
                assert calls[part, "extend"] == calls[welfare, "extend"]
            assert bundle == helpers.optimum_by_recursion(instance)
            extends.append(calls[welfare, "extend"])
        assert len(parts) == 3  # the last instance is mixed
        assert tuple(extends) == VALUED_INSTANCE_EXTENDS

    def test_maximal_sets_walk_equals_brute_force(self):
        for instance in valued_instances():
            fits = [c for c in helpers.powerset(instance.alternatives)
                    if helpers.feasible(instance, c)]
            assert sorted(helpers.maximal_sets(instance)) == sorted(
                c for c in fits if not any(helpers.feasible(instance, c + (a,))
                                           for a in instance.alternatives if a not in c))
