"""Knapsack solvers against brute force, and the exhaustive welfare oracle."""

import random
from fractions import Fraction

import pytest

from subpb.core import OracleSpec, RawInstance, social_welfare, validate_instance
from subpb.optimize import (
    EXACT_ENUMERATION_LIMIT,
    ExactDP,
    ExceedsExactBudget,
    Fptas,
    KnapsackProblem,
    knapsack_exact,
    knapsack_fptas,
    optimal_welfare,
    solve_knapsack,
)

import helpers


def problem(profits, costs, capacity=Fraction(1)):
    return KnapsackProblem(
        profits=tuple(profits),
        costs=tuple(Fraction(c) for c in costs),
        capacity=Fraction(capacity),
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
        assert knapsack_exact(p) == {1, 2}

    def test_all_zero_weights(self):
        p = problem([0, 0, 0], ["1/2", "1/2", "1/2"])
        assert knapsack_exact(p) == frozenset()

    def test_single_item_full_cost(self):
        assert knapsack_exact(problem([5], ["1"])) == {0}
        assert knapsack_exact(problem([0], ["1"])) == frozenset()

    def test_everything_fits(self):
        p = problem([1, 2, 3], ["1/4", "1/4", "1/4"])
        assert knapsack_exact(p) == {0, 1, 2}

    def test_zero_profit_padding_precedes(self):
        # Lexicographically, (0, 1) comes before (1,), so the optimal set
        # absorbs the free-riding zero-profit item that fits.
        p = problem([0, 5], ["1/2", "1/2"])
        assert knapsack_exact(p) == {0, 1}

    def test_matches_brute_force_on_random_problems(self):
        rng = random.Random(20240117)
        for _ in range(60):
            p = random_problem(rng, max_m=10)
            fast = knapsack_exact(p)
            slow = helpers.brute_force_knapsack(p)
            assert p.profit(fast) == p.profit(slow)
            assert fast == slow

    def test_negative_profit_rejected(self):
        with pytest.raises(ValueError):
            problem([-1], ["1/2"])


class TestKnapsackFptas:
    def test_half_eps_contract(self):
        rng = random.Random(7)
        for _ in range(30):
            p = random_problem(rng, max_m=8)
            exact_profit = p.profit(knapsack_exact(p))
            approx_profit = p.profit(knapsack_fptas(p, 0.5))
            assert approx_profit >= 0.5 * exact_profit

    def test_small_eps_recovers_optimum(self):
        p = problem([3, 2, 2], ["3/5", "1/2", "1/2"])
        # OPT = 4 and eps = 0.1 leaves no room below ceil(0.9 * 4) = 4.
        assert p.profit(knapsack_fptas(p, 0.1)) == 4

    def test_single_item(self):
        assert knapsack_fptas(problem([7], ["1/2"]), 0.3) == {0}

    def test_zero_profits(self):
        assert knapsack_fptas(problem([0, 0], ["1/2", "1/2"]), 0.5) == frozenset()

    def test_bad_eps_rejected(self):
        p = problem([1], ["1/2"])
        for eps in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                knapsack_fptas(p, eps)

    def test_solver_dispatch(self):
        p = problem([3, 2, 2], ["3/5", "1/2", "1/2"])
        assert solve_knapsack(p, ExactDP()) == {1, 2}
        assert solve_knapsack(p, Fptas(eps=0.1)) == {1, 2}
        with pytest.raises(TypeError):
            solve_knapsack(p, object())


class TestOptimalWelfare:
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
            if instance.feasible(sample):
                assert social_welfare(instance, sample) <= bundle.welfare + 1e-9
