"""Sweeps against independent per-cell evaluation, sweep failure rows, and
the integer-cost exact solvers on mixed denominators."""

import random
from fractions import Fraction

import pytest

from subpb.core import OracleSpec, RawInstance, validate_instance
from subpb.elicitation import Method
from subpb.experiment import (
    Fixed,
    GeneratorSpec,
    Mode,
    SweepFailure,
    evaluate,
    generate,
    render_csv,
    sweep,
)
from subpb.optimize import KnapsackProblem, knapsack_exact, optimal_welfare

import helpers

FAMILIES = ("additive", "coverage", "concave", "max-value")
DENOMINATORS = (3, 5, 7, 8)


def mixed_cost(rng):
    den = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(1, den), den)


class TestSweep:
    @pytest.mark.parametrize("mode", [Mode.EXACT, Mode.MONTE_CARLO])
    def test_rows_equal_independent_evaluations(self, mode):
        specs = [GeneratorSpec(family, 9, 12, seed=seed)
                 for family in FAMILIES for seed in (3, 4)]
        methods = list(Method)
        samples = 2_000
        independent = [
            evaluate(generate(spec), method, mode=mode, seed=spec.seed,
                     samples=samples, instance_id=spec.instance_id)
            for spec in specs
            for method in methods
        ]
        swept = sweep(specs, methods, mode=mode, samples=samples)
        assert render_csv(swept) == render_csv(independent)

    def test_over_limit_specs_fail_per_method(self):
        # m=25 passes the support check for every method of the first spec
        # and fails on the exhaustive optimum; the second spec's shortlist
        # supports (C(25, 12) sets) exceed the exact budget first.
        specs = [
            GeneratorSpec("additive", 25, 3, seed=2),
            GeneratorSpec("coverage", 25, 3, Fixed((Fraction(2, 25),) * 25), seed=1),
        ]
        results = sweep(specs, list(Method))
        assert all(isinstance(r, SweepFailure) for r in results)
        assert [(r.instance_id, r.method, r.error) for r in results] == [
            (specs[0].instance_id, Method.MARGINAL_VALUES, "ExceedsExactBudget"),
            (specs[0].instance_id, Method.STANDALONE_VALUES, "ExceedsExactBudget"),
            (specs[0].instance_id, Method.THRESHOLD_APPROVAL, "ExceedsExactBudget"),
            (specs[1].instance_id, Method.MARGINAL_VALUES, "ExactSupportTooLarge"),
            (specs[1].instance_id, Method.STANDALONE_VALUES, "ExactSupportTooLarge"),
            (specs[1].instance_id, Method.THRESHOLD_APPROVAL, "ExceedsExactBudget"),
        ]
        lines = render_csv(results).splitlines()
        assert lines[1].split(",")[7] == "error:ExceedsExactBudget"


class TestMixedDenominators:
    def test_knapsack_matches_brute_force(self):
        rng = random.Random(314)
        for _ in range(80):
            m = rng.randint(1, 9)
            problem = KnapsackProblem(
                profits=tuple(rng.randint(0, 3) for _ in range(m)),
                costs=tuple(mixed_cost(rng) for _ in range(m)),
                capacity=rng.choice([Fraction(1), Fraction(2, 3), Fraction(5, 7)]),
            )
            assert knapsack_exact(problem) == helpers.brute_force_knapsack(problem)

    def test_optimum_matches_brute_force(self):
        # Dyadic max-value voters make every welfare an exact float sum, so
        # tied optima compare equal and the lexicographic tie-break decides.
        rng = random.Random(2718)
        for _ in range(40):
            m = rng.randint(1, 7)
            voters = []
            for _ in range(rng.randint(1, 3)):
                values = [rng.choice([0.25, 0.5, 1.0]) for _ in range(m)]
                values[rng.randrange(m)] = 1.0
                voters.append(OracleSpec("max-value", {"values": values}))
            instance = validate_instance(RawInstance(
                costs=tuple(mixed_cost(rng) for _ in range(m)), voters=tuple(voters)))
            bundle = optimal_welfare(instance)
            assert (bundle.items, bundle.welfare) == helpers.brute_force_best_welfare(instance)
