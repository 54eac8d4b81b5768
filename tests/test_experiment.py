"""Sweeps against independent per-cell evaluation and a pinned exact table,
sweep failure rows, the randomness plan and its Monte Carlo sampler, and
the integer-cost exact solvers on mixed denominators."""

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from subpb import experiment
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
from subpb.optimize import ExactDP, Fptas, KnapsackProblem, knapsack_exact, optimal_welfare

import helpers

FAMILIES = ("additive", "coverage", "concave", "max-value")
DENOMINATORS = (3, 5, 7, 8)
PINNED_CSV = Path(__file__).parent / "data" / "exact_sweep.csv"

# m=25 passes the support check for every method of the first spec and fails
# on the exhaustive optimum; the second spec's shortlist supports (C(25, 12)
# sets) exceed the exact budget first.
OVER_LIMIT_SPECS = (
    GeneratorSpec("additive", 25, 3, seed=2),
    GeneratorSpec("coverage", 25, 3, Fixed((Fraction(2, 25),) * 25), seed=1),
)

# Every cost is 3/(2m): all ten alternatives share group 1 and are
# shortlisted, and the rule draws a uniform 5-subset of them.
SHORTLIST_HEAVY = GeneratorSpec("coverage", 10, 12, Fixed((Fraction(3, 20),) * 10), seed=1)


def pinned_sweep_csv() -> str:
    """Exact-mode CSV over every family (coverage also with private
    elements), a shortlist-heavy instance, four coin weights and two
    knapsack solvers, then the over-limit failure rows."""
    specs = [GeneratorSpec(family, 9, 12, seed=seed) for family in FAMILIES for seed in (5, 6)]
    specs.append(GeneratorSpec("coverage", 9, 12, seed=7,
                               family_params=(("private_elements", True),)))
    specs.append(SHORTLIST_HEAVY)
    results = []
    for mix in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
        for solver in (ExactDP(), Fptas(0.3)):
            results += sweep(specs, list(Method), mix=mix, solver=solver)
    results += sweep(OVER_LIMIT_SPECS, list(Method))
    return render_csv(results)


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
        specs = OVER_LIMIT_SPECS
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

    def test_mc_cell_past_the_enumeration_limit_fails_per_method(self):
        # Group 1 shortlists all 70 alternatives and draws a 35-subset:
        # C(70, 35) ranks are past what `rng.choices` can index, so the cell
        # must fail on the optimum before any sampling.
        spec = GeneratorSpec("coverage", 70, 3, Fixed((Fraction(3, 140),) * 70), seed=1)
        results = sweep([spec], list(Method), mode=Mode.MONTE_CARLO, samples=1_000)
        assert [(r.method, r.error) for r in results] == [
            (method, "ExceedsExactBudget") for method in Method
        ]

    def test_exact_csv_matches_pinned_table(self):
        assert pinned_sweep_csv() == PINNED_CSV.read_text(encoding="utf-8")


def assert_mc_agrees(instance, method, mix, samples=20_000, seed=11):
    exact = evaluate(instance, method, mix=mix)
    mc = evaluate(instance, method, mix=mix, mode=Mode.MONTE_CARLO, seed=seed,
                  samples=samples)
    slack = 4.0 * mc.stderr + 1e-12 + 1e-9 * exact.expected_welfare
    assert abs(mc.expected_welfare - exact.expected_welfare) <= slack, (
        method, mix, mc.expected_welfare, mc.stderr, exact.expected_welfare)


class TestPlanAndSampler:
    @pytest.mark.parametrize("mix", [Fraction(1, 2), Fraction(0), Fraction(1)])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_mc_mean_within_four_stderr_of_exact(self, family, mix):
        instance = generate(GeneratorSpec(family, 9, 12, seed=8))
        for method in Method:
            assert_mc_agrees(instance, method, mix)

    @pytest.mark.parametrize("mix", [Fraction(1, 2), Fraction(1)])
    def test_mc_on_a_partial_shortlist_draw(self, mix):
        instance = generate(SHORTLIST_HEAVY)
        facts = experiment._InstanceFacts(instance)
        plan = experiment._plan(facts, Method.MARGINAL_VALUES, mix, ExactDP())
        assert sum(weight for weight, _, _ in plan) == 1
        assert any(1 < k < len(items) for _, items, k in plan)
        for method in Method:
            assert_mc_agrees(instance, method, mix)

    @pytest.mark.parametrize("size", range(7))
    def test_unranking_follows_combinations(self, size):
        items = tuple(range(3, 3 + 2 * size, 2))
        for k in range(size + 1):
            unranked = [tuple(experiment._unrank(items, k, rank))
                        for rank in range(math.comb(size, k))]
            assert unranked == list(itertools.combinations(items, k))


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
