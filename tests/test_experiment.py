"""Sweeps against independent per-cell evaluation, a pinned exact table and
pinned optimal sets, seeded Monte Carlo reproducibility, sweep failure rows,
the exact-mode refusal of enumerated components, the order of one
evaluation and its bound verdict, the randomness plan against its full
expansion and its Monte Carlo sampler, the sampler's exact binomial and
multinomial count draws, the integer-cost exact solvers on mixed
denominators, and the refusal of specs and arguments before any work."""

import builtins
import csv
import io
import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from subpb import core, experiment, partition
from subpb.core import OracleSpec, RawInstance, validate_instance
from subpb.elicitation import Method
from subpb.experiment import (
    Dyadic,
    Fixed,
    GeneratorSpec,
    Mode,
    SweepFailure,
    UniformRational,
    evaluate,
    generate,
    render_csv,
    sweep,
)
from subpb.aggregation import expected_welfare
from subpb.optimize import (
    ExceedsExactBudget,
    KnapsackProblem,
    optimal_welfare,
    solve_knapsack,
)

import helpers

FAMILIES = ("additive", "coverage", "concave", "max-value")
DENOMINATORS = (3, 5, 7, 8)
PINNED_CSV = Path(__file__).parent / "data" / "exact_sweep.csv"

# m=25 is past the exhaustive optimum's limit, so every method of both specs
# fails on the optimum, even the second spec's coverage shortlists, whose
# C(25, 12) sets the closed form never enumerates.
OVER_LIMIT_SPECS = (
    GeneratorSpec("additive", 25, 3, seed=2),
    GeneratorSpec("coverage", 25, 3, Fixed((Fraction(2, 25),) * 25), seed=1),
)

# Every cost is 3/(2m): all ten alternatives share group 1, whose cap of 15
# shortlists them whole, and the rule draws a uniform 5-subset of them.
SHORTLIST_HEAVY = GeneratorSpec("coverage", 10, 12, Fixed((Fraction(3, 20),) * 10), seed=1)

# Every cost is 9/16, so all sixteen alternatives share group 4, whose cap
# of 4 binds: the rule ranks the group and draws one of its top 4 scorers.
BINDING_SHORTLIST = GeneratorSpec("coverage", 16, 5, Fixed((Fraction(9, 16),) * 16), seed=1)

# The exact-shortlist benchmark's shape: a uniform 8-subset of 16 shortlisted
# alternatives, C(16, 8) = 12,870 sets, more than a cell's share of 20k draws.
MANY_SETS = GeneratorSpec("coverage", 16, 20, Fixed((Fraction(3, 32),) * 16), seed=1)


PINNED_SPECS = (
    *(GeneratorSpec(family, 9, 12, seed=seed) for family in FAMILIES for seed in (5, 6)),
    GeneratorSpec("coverage", 9, 12, seed=7, family_params=(("private_elements", True),)),
    SHORTLIST_HEAVY,
)
PINNED_MIXES = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))

# The optimal id sequence of every pinned instance, recorded while welfare
# was still summed voter by voter. The optimum breaks ties by comparing
# float welfares exactly, so a change in summation order could flip a tie.
PINNED_OPTIMA = {
    "additive-m9-n12-uniformrational-s5": (1, 3),
    "additive-m9-n12-uniformrational-s6": (1, 2, 6),
    "coverage-m9-n12-uniformrational-s5": (0, 4, 6, 8),
    "coverage-m9-n12-uniformrational-s6": (0, 2, 6),
    "concave-m9-n12-uniformrational-s5": (2, 5, 8),
    "concave-m9-n12-uniformrational-s6": (3, 6),
    "max-value-m9-n12-uniformrational-s5": (0, 1, 3, 8),
    "max-value-m9-n12-uniformrational-s6": (2, 3, 6),
    "coverage-m9-n12-uniformrational-s7": (2, 3, 6, 7, 8),
    "coverage-m10-n12-fixed-s1": (1, 2, 4, 5, 7, 8),
}


def pinned_sweep_csv() -> str:
    """Exact-mode CSV over every family (coverage also with private
    elements), a shortlist-heavy instance and four coin weights, then the
    over-limit failure rows."""
    results = []
    for mix in PINNED_MIXES:
        results += sweep(PINNED_SPECS, list(Method), mix=mix)
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
        # Only the optimum refuses these cells, so the coin weight does not
        # change which error a cell reports.
        specs = OVER_LIMIT_SPECS
        for mix in (Fraction(1, 2), Fraction(0), Fraction(1)):
            results = sweep(specs, list(Method), mix=mix)
            assert all(isinstance(r, SweepFailure) for r in results)
            assert [(r.instance_id, r.method, r.error) for r in results] == [
                (spec.instance_id, method, "ExceedsExactBudget")
                for spec in specs for method in Method
            ]
            lines = render_csv(results).splitlines()
            assert lines[1].split(",")[7] == "error:ExceedsExactBudget"

    def test_only_enumerated_components_are_refused(self, monkeypatch):
        # SHORTLIST_HEAVY draws a uniform 5-subset of 10 alternatives: past a
        # limit below C(10, 5), coverage still has its closed form, while the
        # concave family would have to enumerate the component.
        concave = generate(SHORTLIST_HEAVY._replace(family="concave"))
        monkeypatch.setattr(core, "EXACT_SUPPORT_LIMIT", math.comb(10, 5))
        evaluate(concave, Method.MARGINAL_VALUES)
        monkeypatch.setattr(core, "EXACT_SUPPORT_LIMIT", math.comb(10, 5) - 1)
        assert evaluate(generate(SHORTLIST_HEAVY), Method.MARGINAL_VALUES).mode is Mode.EXACT
        with pytest.raises(ExceedsExactBudget):
            evaluate(concave, Method.MARGINAL_VALUES)

    @pytest.mark.parametrize("bad", [
        pytest.param({"mix": Fraction(2)}, id="mix-2"),
        pytest.param({"mix": "abc"}, id="mix-abc"),
        pytest.param({"mode": Mode.MONTE_CARLO, "samples": 1}, id="mc-samples-1"),
        # A spelling, not a Mode: it would run exact mode with no sample check.
        pytest.param({"mode": "mc", "samples": 1}, id="mode-mc-string"),
        # A spelling, not a Method: every cell would fail on its own.
        pytest.param({"methods": ["threshold"]}, id="method-string"),
        pytest.param({"methods": [*Method, "threshold"]}, id="method-string-last"),
    ])
    def test_bad_arguments_raise_before_any_instance_is_generated(self, monkeypatch, bad):
        # One error for the call, not one failure row per cell, and not
        # raised while handling another.
        refuse(monkeypatch, "generate")
        with pytest.raises(ValueError) as raised:
            sweep(PINNED_SPECS, **{"methods": list(Method), **bad})
        assert raised.value.__context__ is None

    def test_exact_refusal_comes_before_the_optimum(self, monkeypatch):
        # Every cost is 3/48: group 1 shortlists all 24 alternatives and
        # draws a 12-subset, C(24, 12) sets, past the exact limit. The
        # optimum, which m = 24 still allows, must not be paid for first.
        def no_optimum(instance):
            raise AssertionError("the optimum was taken before the plan")

        monkeypatch.setattr(experiment, "optimal_welfare", no_optimum)
        concave = generate(GeneratorSpec("concave", 24, 3, Fixed((Fraction(3, 48),) * 24),
                                         seed=1))
        with pytest.raises(ExceedsExactBudget):
            evaluate(concave, Method.MARGINAL_VALUES)

    def test_mc_cell_past_the_enumeration_limit_fails_per_method(self):
        # Group 1 shortlists all 70 alternatives and draws a 35-subset. The
        # sampler can draw among C(70, 35) ranks (see TestCountSampler), but
        # the exhaustive optimum cannot take m = 70, so the cell must fail on
        # the optimum before any sampling.
        spec = GeneratorSpec("coverage", 70, 3, Fixed((Fraction(3, 140),) * 70), seed=1)
        results = sweep([spec], list(Method), mode=Mode.MONTE_CARLO, samples=1_000)
        assert [(r.method, r.error) for r in results] == [
            (method, "ExceedsExactBudget") for method in Method
        ]

    def test_exact_csv_matches_pinned_table(self):
        assert pinned_sweep_csv() == PINNED_CSV.read_text(encoding="utf-8")

    def test_pinned_csv_has_one_row_per_cell(self):
        rows = list(csv.DictReader(io.StringIO(PINNED_CSV.read_text(encoding="utf-8"))))
        keys = Counter((row["instance_id"], row["method"], row["mix"], row["mode"])
                       for row in rows)
        assert [key for key, count in keys.items() if count > 1] == []

    def test_exact_csv_does_not_depend_on_builtin_sum(self, monkeypatch):
        # From 3.12 builtin `sum` of floats is compensated. With a stand-in
        # for it the table must not move: every utility sum folds left. The
        # plan's Fraction weights still go to the real `sum`.
        real_sum = builtins.sum

        def compensated_sum(iterable, /, start=0):
            values = list(iterable)
            if values and all(type(v) is float for v in values):
                return math.fsum([start, *values])
            return real_sum(values, start)

        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert pinned_sweep_csv() == PINNED_CSV.read_text(encoding="utf-8")

    def test_monte_carlo_row_is_pinned(self):
        # The pinned table holds exact rows only, so this pins the samples
        # and stderr columns. The coverage part adds its gains one at a
        # time, so the bytes are the same on Python 3.10 to 3.13.
        spec = GeneratorSpec("coverage", 7, 5, seed=3,
                             family_params=(("private_elements", True),))
        report = evaluate(generate(spec), Method.THRESHOLD_APPROVAL, mode=Mode.MONTE_CARLO,
                          seed=3, samples=500, instance_id=spec.instance_id)
        assert render_csv([report]).splitlines()[1] == (
            "coverage-m7-n5-uniformrational-s3,coverage,7,5,0.9149219160711726,threshold,1/2,"
            "mc,1.3576545287036461,2.789060629841793,2.054322783060962,0.019773994529022364,"
            "true,500,0.039598987007445796")

    def test_pinned_optimal_sets_are_unchanged(self):
        assert {spec.instance_id: tuple(sorted(optimal_welfare(generate(spec)).items))
                for spec in PINNED_SPECS} == PINNED_OPTIMA

    @pytest.mark.parametrize("mode", [Mode.EXACT, Mode.MONTE_CARLO])
    def test_each_singleton_is_computed_once_per_instance(self, mode, monkeypatch):
        # Curvature, approvals and value rankings read one table per voter.
        # The only `value` calls on a singleton left are welfare lookups;
        # both the voters' closed forms and the welfare parts' folds count.
        builds, singles, alive = Counter(), Counter(), []

        def counting(build):
            def singleton_table(oracle):
                alive.append(oracle)  # ids stay unique while counted
                builds[id(oracle)] += 1
                return build(oracle)
            return singleton_table

        def counting_value(value):
            def wrapper(oracle, items):
                items = tuple(items)
                if len(items) == 1:
                    alive.append(oracle)
                    singles[id(oracle), items[0]] += 1
                return value(oracle, items)
            return wrapper

        voter_classes = (core.AdditiveOracle, core.CoverageOracle,
                         core.ConcaveOverModularOracle, core.MaxValueOracle)
        for cls in voter_classes:
            monkeypatch.setattr(cls, "singleton_table", counting(vars(cls)["singleton_table"]))
        for cls in (core.UtilityOracle, *voter_classes):
            monkeypatch.setattr(cls, "value", counting_value(vars(cls)["value"]))
        specs = [GeneratorSpec(family, 9, 12, seed=5) for family in FAMILIES]
        results = sweep(specs, list(Method), mode=mode, samples=500)
        assert not any(isinstance(r, SweepFailure) for r in results)
        assert sorted(builds.values()) == [1] * sum(spec.n for spec in specs)
        assert max(singles.values(), default=1) == 1, singles.most_common(3)

    def test_seeded_monte_carlo_sweep_is_reproducible(self):
        specs = [GeneratorSpec(family, 7, 5, seed=3) for family in FAMILIES]
        mc_columns = ("expected_welfare", "welfare_ratio", "stderr")

        def run(specs):
            return render_csv(sweep(specs, list(Method), mode=Mode.MONTE_CARLO, samples=500))

        first = run(specs)
        assert run(specs).encode() == first.encode()
        rows = list(csv.DictReader(io.StringIO(first)))
        reseeded = csv.DictReader(io.StringIO(
            run([spec._replace(seed=4) for spec in specs])))
        for row, other in zip(rows, reseeded, strict=True):
            assert all(row[col] != other[col] for col in mc_columns), (row, other)
        # The Monte Carlo stream alone moves the MC columns: the same
        # instance under another seed keeps its optimum and curvature.
        instance = generate(specs[1])
        for method in Method:
            a, b = (evaluate(instance, method, mode=Mode.MONTE_CARLO, seed=seed, samples=500)
                    for seed in (3, 4))
            assert (a.optimal_welfare, a.curvature) == (b.optimal_welfare, b.curvature)
            assert a.expected_welfare != b.expected_welfare and a.stderr != b.stderr


class TestSharedRecord:
    """`evaluate` shares one per-instance record with the call before it,
    but only when both evaluate the identical `Instance` object."""

    @staticmethod
    def count_optima(monkeypatch) -> list:
        calls = []
        real = experiment.optimal_welfare
        monkeypatch.setattr(experiment, "optimal_welfare",
                            lambda instance: calls.append(instance) or real(instance))
        return calls

    def test_consecutive_calls_on_one_instance_take_one_optimum(self, monkeypatch):
        calls = self.count_optima(monkeypatch)
        instance = generate(GeneratorSpec("coverage", 8, 5, seed=2))
        reports = [evaluate(instance, method) for method in Method]
        assert calls == [instance]
        assert len({report.optimal_welfare for report in reports}) == 1

    def test_an_equal_instance_gets_its_own_record(self, monkeypatch):
        calls = self.count_optima(monkeypatch)
        raw = experiment.generate_raw(GeneratorSpec("coverage", 8, 5, seed=2))
        first, second = validate_instance(raw), validate_instance(raw)
        reports = [evaluate(instance, Method.THRESHOLD_APPROVAL) for instance in (first, second)]
        assert calls == [first, second]
        assert reports[0] == reports[1]

    def test_a_refused_component_raises_on_every_call(self, monkeypatch):
        # A limit one below C(10, 5) refuses the concave 5-subset draw; the
        # failed mean welfare is not cached, so the next call raises too.
        concave = generate(SHORTLIST_HEAVY._replace(family="concave"))
        monkeypatch.setattr(core, "EXACT_SUPPORT_LIMIT", math.comb(10, 5) - 1)
        for _ in range(2):
            with pytest.raises(ExceedsExactBudget):
                evaluate(concave, Method.MARGINAL_VALUES)


def refuse(monkeypatch, *names):
    """Make each named global of `experiment` fail the test when called."""
    for name in names:
        def refused(*args, name=name):
            raise AssertionError(f"{name} was called")

        monkeypatch.setattr(experiment, name, refused)


class TestOnePass:
    """`evaluate` checks its arguments, takes the Monte Carlo optimum, builds
    one plan, takes its mean, the exact optimum, the bound and the verdict."""

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.value)
    @pytest.mark.parametrize("method, bad", [
        pytest.param(Method.THRESHOLD_APPROVAL, {"mix": Fraction(2)}, id="mix-2"),
        pytest.param(Method.MARGINAL_VALUES, {"mix": Fraction(-1, 2)}, id="mix--1/2"),
    ])
    def test_bad_arguments_fail_before_any_work(self, monkeypatch, mode, method, bad):
        instance = generate(GeneratorSpec("coverage", 6, 3, seed=1))
        refuse(monkeypatch, "optimal_welfare", "_plan", "_facts")
        with pytest.raises(ValueError, match="must lie in"):
            evaluate(instance, method, mode=mode, samples=100, **bad)

    @pytest.mark.parametrize("samples", [10.0, 2.5])
    def test_a_sample_count_that_is_no_int_fails_before_any_work(self, monkeypatch, samples):
        # Only Monte Carlo mode reads a sample count.
        instance = generate(GeneratorSpec("coverage", 6, 3, seed=1))
        refuse(monkeypatch, "optimal_welfare", "_plan", "_facts")
        with pytest.raises(ValueError, match="must lie in"):
            evaluate(instance, Method.THRESHOLD_APPROVAL, mode=Mode.MONTE_CARLO,
                     samples=samples)

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.value)
    def test_a_method_that_is_no_method_fails_before_any_work(self, monkeypatch, mode):
        instance = generate(GeneratorSpec("coverage", 6, 3, seed=1))
        refuse(monkeypatch, "optimal_welfare", "_plan", "_facts")
        with pytest.raises(ValueError, match="method must be a Method"):
            evaluate(instance, "threshold", mode=mode, samples=100)

    def test_mc_optimum_past_the_limit_fails_before_the_plan(self, monkeypatch):
        refuse(monkeypatch, "_plan")
        instance = generate(OVER_LIMIT_SPECS[0])
        for method in Method:
            with pytest.raises(ExceedsExactBudget):
                evaluate(instance, method, mode=Mode.MONTE_CARLO, samples=100)

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.value)
    def test_one_plan_per_call_reaches_the_mean(self, monkeypatch, mode):
        plans, handed = [], []
        real_plan, real_mc = experiment._plan, experiment._monte_carlo

        def counted_plan(*args):
            plans.append(real_plan(*args))
            return plans[-1]

        def exact_mean(plan, *args):
            handed.append(plan)
            return expected_welfare(plan, *args)

        def sampled_mean(facts, plan, *args):
            handed.append(plan)
            return real_mc(facts, plan, *args)

        monkeypatch.setattr(experiment, "_plan", counted_plan)
        monkeypatch.setattr(experiment, "expected_welfare", exact_mean)
        monkeypatch.setattr(experiment, "_monte_carlo", sampled_mean)
        instance = generate(BINDING_SHORTLIST)
        for calls, method in enumerate(Method, start=1):
            evaluate(instance, method, mode=mode, samples=500)
            assert len(plans) == calls and handed == plans, method

    #: The bound above the mean, in BOUND_TOL and in standard errors, just
    #: inside and just outside each slack term. Rows marked below kill the
    #: mutants: the slack without BOUND_TOL (no-tol), 2 or 4 standard
    #: errors in place of 3 (2-sigma, 4-sigma).
    @pytest.mark.parametrize("mode, tols, sigmas, satisfied", [
        pytest.param(Mode.EXACT, 0.5, 0, True, id="exact-inside-tol"),  # no-tol
        pytest.param(Mode.EXACT, 1.5, 0, False, id="exact-outside-tol"),
        pytest.param(Mode.MONTE_CARLO, 0.5, 3, True, id="mc-inside-tol"),  # no-tol, 2-sigma
        pytest.param(Mode.MONTE_CARLO, 1.5, 3, False, id="mc-outside-tol"),  # 4-sigma
        pytest.param(Mode.MONTE_CARLO, 1, 2.5, True, id="mc-inside-3-sigma"),  # 2-sigma
        pytest.param(Mode.MONTE_CARLO, 1, 3.5, False, id="mc-outside-3-sigma"),  # 4-sigma
    ])
    def test_bound_is_satisfied_within_its_slack(self, monkeypatch, mode, tols, sigmas,
                                                 satisfied):
        instance = generate(GeneratorSpec("coverage", 7, 5, seed=3))
        args = {"mode": mode, "seed": 3, "samples": 500}
        free = evaluate(instance, Method.THRESHOLD_APPROVAL, **args)
        assert (free.stderr is None) == (mode is Mode.EXACT)
        bound = (free.expected_welfare + tols * experiment.BOUND_TOL
                 + sigmas * (free.stderr or 0.0))
        monkeypatch.setattr(experiment, "theoretical_bound", lambda *args: bound)
        report = evaluate(instance, Method.THRESHOLD_APPROVAL, **args)
        assert report == free._replace(bound_value=bound, bound_satisfied=satisfied)


def mixed_instance() -> core.Instance:
    """Voters of all four families on one instance: the one welfare oracle
    that sums parts, a `core.SumOracle`."""
    raws = [experiment.generate_raw(GeneratorSpec(family, 9, 3, seed=8)) for family in FAMILIES]
    voters = tuple(voter for raw in raws for voter in raw.voters)
    return validate_instance(RawInstance(raws[0].costs, voters))


def threshold_ladder(m: int) -> core.Instance:
    """One additive voter: items 0-3 cost 3/4 and the other m - 4 cost
    1/(4m) each, worth just under 1/m, so no value threshold approves them."""
    dear = (1 - 0.99 * (m - 4) / m) / 4
    costs = (Fraction(3, 4),) * 4 + (Fraction(1, 4 * m),) * (m - 4)
    values = [dear] * 4 + [0.99 / m] * (m - 4)
    return validate_instance(RawInstance(costs, (OracleSpec("additive", {"values": values}),)))


def assert_mc_agrees(instance, method, mix, samples=20_000, seed=11):
    exact = evaluate(instance, method, mix=mix)
    mc = evaluate(instance, method, mix=mix, mode=Mode.MONTE_CARLO, seed=seed,
                  samples=samples)
    slack = 4.0 * mc.stderr + 1e-12 + 1e-9 * exact.expected_welfare
    assert abs(mc.expected_welfare - exact.expected_welfare) <= slack, (
        method, mix, mc.expected_welfare, mc.stderr, exact.expected_welfare)


class TestPlanAndSampler:
    def test_plan_welfare_equals_its_expansion_on_the_pinned_grid(self):
        for spec in PINNED_SPECS:
            facts = experiment._InstanceFacts(generate(spec))
            instance = facts.instance
            for method, mix in itertools.product(Method, PINNED_MIXES):
                plan = experiment._plan(facts, method, mix)
                expanded = helpers.distribution_welfare(helpers.plan_distribution(plan), instance)
                got = expected_welfare(plan, instance)
                assert got == pytest.approx(expanded, rel=1e-12), (spec, method, mix)

    def test_zero_weight_groups_build_no_profile(self, monkeypatch):
        calls = []
        real = experiment.ranking_profile
        monkeypatch.setattr(experiment, "ranking_profile",
                            lambda *args: calls.append(args) or real(*args))
        ranking = [Method.MARGINAL_VALUES, Method.STANDALONE_VALUES]
        for mode in Mode:
            sweep([SHORTLIST_HEAVY, BINDING_SHORTLIST], ranking, mix=Fraction(0), mode=mode,
                  samples=100)
        assert calls == []
        sweep([BINDING_SHORTLIST], ranking, mix=Fraction(1, 2))
        assert [args[3] for args in calls] == [4, 4]

    def test_empty_group_is_never_ranked_and_selects_nothing(self, monkeypatch):
        # Every cost is 1/m, so groups 1 and 2 of m = 4 are empty; each still
        # takes its share of the coin, as the component ((), 0). Group 0 is
        # not ranked either: its cap of 8 covers all four members, so it is
        # shortlisted whole whatever the votes say.
        calls = []
        real = experiment.ranking_profile
        monkeypatch.setattr(experiment, "ranking_profile",
                            lambda *args: calls.append(args[3]) or real(*args))
        spec = GeneratorSpec("additive", 4, 3, Fixed((Fraction(1, 4),) * 4))
        facts = experiment._InstanceFacts(generate(spec))
        assert facts.partition.groups == ((0, 1, 2, 3), (), ())
        for method in (Method.MARGINAL_VALUES, Method.STANDALONE_VALUES):
            plan = experiment._plan(facts, method, Fraction(1, 2))
            sixth = Fraction(1, 6)
            assert plan.support == ((Fraction(1, 2), (0, 1, 2, 3), 1),
                                    (sixth, (0, 1, 2, 3), 4), (sixth, (), 0), (sixth, (), 0))
        assert calls == []

    def test_plan_equals_the_plan_that_ranks_every_group(self, monkeypatch):
        # Ranking a group within its cap cannot change its shortlist, so the
        # plan, the exact expectation and the Monte Carlo draws are those of
        # the rule that ranks every non-empty group.
        ranking = [Method.MARGINAL_VALUES, Method.STANDALONE_VALUES]
        binding = whole = 0
        for spec in PINNED_SPECS:
            facts = experiment._InstanceFacts(generate(spec))
            m, groups = facts.partition.m, facts.partition.groups
            caps = [partition.shortlist_cap(m, t) for t in range(len(groups))]
            binding += sum(len(group) > cap for group, cap in zip(groups, caps))
            whole += sum(0 < len(group) <= cap for group, cap in zip(groups, caps))
            for method, mix in itertools.product(ranking, PINNED_MIXES):
                assert (experiment._plan(facts, method, mix)
                        == helpers.reference_plan(facts.instance, method, mix)), (spec, method)
        assert binding and whole
        for mode in Mode:
            got = [sweep(PINNED_SPECS, ranking, mix=mix, mode=mode, samples=2_000)
                   for mix in PINNED_MIXES]
            with monkeypatch.context() as patch:
                patch.setattr(experiment, "_plan", lambda facts, method, mix:
                              helpers.reference_plan(facts.instance, method, mix))
                want = [sweep(PINNED_SPECS, ranking, mix=mix, mode=mode, samples=2_000)
                        for mix in PINNED_MIXES]
            assert repr(got) == repr(want), mode

    @pytest.mark.parametrize("members, ranked", [(8, []), (9, [3])])
    def test_group_is_ranked_only_past_its_cap(self, members, ranked, monkeypatch):
        # At m = 16 group 3 holds the costs in (4/16, 8/16] and its cap is 8:
        # eight members at 5/16 are shortlisted whole, a ninth makes the
        # rule rank the group and keep its top 8 scorers. The rest cost 1/16
        # (group 0, cap 64), which is never ranked.
        assert partition.shortlist_cap(16, 3) == 8
        costs = (Fraction(5, 16),) * members + (Fraction(1, 16),) * (16 - members)
        instance = generate(GeneratorSpec("additive", 16, 4, Fixed(costs), seed=2))
        facts = experiment._InstanceFacts(instance)
        assert facts.partition.groups[3] == tuple(range(members))
        calls = []
        real = experiment.ranking_profile
        monkeypatch.setattr(experiment, "ranking_profile",
                            lambda *args: calls.append(args[3]) or real(*args))
        for method in (Method.MARGINAL_VALUES, Method.STANDALONE_VALUES):
            calls.clear()
            plan = experiment._plan(facts, method, Fraction(1, 2))
            assert calls == ranked
            assert plan == helpers.reference_plan(instance, method, Fraction(1, 2))
            # After the singleton component, one component per group.
            _, items, k = plan.support[1 + 3]
            assert set(items) <= set(range(members)) and (len(items), k) == (8, 2)

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
        plan = experiment._plan(facts, Method.MARGINAL_VALUES, mix)
        assert sum(weight for weight, _, _ in plan.support) == 1
        assert any(1 < k < len(items) for _, items, k in plan.support)
        for method in Method:
            assert_mc_agrees(instance, method, mix)

    @pytest.mark.parametrize("family", (*FAMILIES, "mixed"))
    def test_mc_folds_drawn_sets_into_the_welfare_oracle(self, family, monkeypatch):
        instance = (mixed_instance() if family == "mixed"
                    else generate(GeneratorSpec(family, 9, 12, seed=8)))
        assert isinstance(instance.welfare, core.SumOracle) == (family == "mixed")
        calls = Counter()
        for cls in (core.AdditiveOracle, core.CoverageOracle, core.ConcaveOverModularOracle,
                    core.MaxValueOracle):
            def counted(self, items, real=cls.value):
                calls[type(self).__name__] += 1
                return real(self, items)
            monkeypatch.setattr(cls, "value", counted)
        for method in Method:
            evaluate(instance, method, mode=Mode.MONTE_CARLO, seed=3, samples=5_000)
        assert calls == Counter()
        monkeypatch.undo()
        facts = experiment._facts(instance)
        assert len(facts.welfare_cache) > 1
        for items, value in facts.welfare_cache.items():
            assert items == tuple(sorted(items))
            assert value == pytest.approx(core.social_welfare(instance, items), rel=1e-12)

    @pytest.mark.parametrize("size", range(7))
    def test_unranking_follows_combinations(self, size):
        items = tuple(range(3, 3 + 2 * size, 2))
        for k in range(size + 1):
            unranked = [tuple(experiment._unrank(items, k, rank))
                        for rank in range(math.comb(size, k))]
            assert unranked == list(itertools.combinations(items, k))


class _Branch(Exception):
    def __init__(self, bits):
        super().__init__(bits)
        self.bits = bits


class _ScriptedBits:
    """Replays scripted `getrandbits` results; the first call past the script
    raises `_Branch` with its bit count."""

    def __init__(self, script):
        self.script = iter(script)

    def getrandbits(self, bits):
        value = next(self.script, None)
        if value is None:
            raise _Branch(bits)
        return value


def binomial_pmf(n, num, den):
    """The exact distribution of `_binomial(rng, n, num, den)` for dyadic
    num/den: every return value of every `getrandbits(k)` call is replayed,
    each with probability 2**-k. Dyadic p has at most log2(den) digits."""
    pmf = Counter()
    scripts = [((), Fraction(1))]
    while scripts:
        script, prob = scripts.pop()
        try:
            pmf[experiment._binomial(_ScriptedBits(script), n, num, den)] += prob
        except _Branch as branch:
            assert len(script) < den.bit_length() - 1, (n, num, den, script)
            scripts += [(script + (value,), prob / 2**branch.bits)
                        for value in range(2**branch.bits)]
    return pmf


def chi_square(counts, weights):
    total = sum(counts.values())
    weight = sum(weights.values())
    return sum((counts[i] - total * w / weight) ** 2 / (total * w / weight)
               for i, w in weights.items())


#: Index weights with zeros inside the range; `cum[i + 1] - cum[i]` is index i's.
SPLIT_WEIGHTS = (3, 0, 5, 1, 0, 7, 2, 4)
SPLIT_CUM = list(itertools.accumulate(SPLIT_WEIGHTS, initial=0))


class TestCountSampler:
    @pytest.mark.parametrize("den", [2, 4, 8])
    def test_binomial_pmf_is_exact_for_dyadic_p(self, den):
        for num, n in itertools.product(range(den + 1), range(5)):
            p = Fraction(num, den)
            pmf = binomial_pmf(n, num, den)
            assert pmf == {h: math.comb(n, h) * p**h * (1 - p) ** (n - h)
                           for h in range(n + 1)
                           if p**h * (1 - p) ** (n - h)}, (n, num, den)

    def test_chunked_draws_match_one_call_for_all_bits(self):
        # One `getrandbits(n)` per digit, as the sampler drew before its
        # chunks; sizes sit on both sides of the 32-bit word and chunk edges.
        def one_call(rng, n, num, den):
            successes = 0
            while n and num:
                num *= 2
                ones = rng.getrandbits(n).bit_count()
                if num >= den:
                    num -= den
                    successes += n - ones
                    n = ones
                else:
                    n -= ones
            return successes

        chunk = experiment._CHUNK_BITS
        sizes = (1, 31, 32, 33, chunk - 1, chunk, chunk + 1, chunk + 31, 2 * chunk,
                 2 * chunk + 33, 3 * chunk + 32, 200_003)
        for seed, n in itertools.product(range(40), sizes):
            chunked, whole = random.Random(seed), random.Random(seed)
            assert experiment._binomial(chunked, n, 1, 3) == one_call(whole, n, 1, 3), (seed, n)
            assert chunked.getstate() == whole.getstate(), (seed, n)

    def test_binomial_memory_stays_flat_in_n(self):
        # One call for all 10**7 bits would hold 1.25 MB of them at once.
        rng = random.Random(1)
        tracemalloc.start()
        try:
            experiment._binomial(rng, 10**7, 1, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_binomial_at_p_zero_and_one_draws_no_bits(self):
        for n in (0, 1, 10**6):
            assert experiment._binomial(_ScriptedBits(()), n, 0, 7) == 0
            assert experiment._binomial(_ScriptedBits(()), n, 7, 7) == n

    def test_split_counts_sum_and_stay_on_positive_weights(self):
        rng = random.Random(5)
        for count in (1, 2, 7, 100, 10_000):
            for lo, hi in ((0, 8), (2, 7), (5, 6), (3, 8)):
                counts = experiment._split(rng, count, lo, hi, SPLIT_CUM)
                assert sum(counts.values()) == count
                assert all(lo <= i < hi and SPLIT_WEIGHTS[i] and c > 0
                           for i, c in counts.items()), counts
            for lo, hi in ((0, 1), (0, 10), (10**20, 10**20 + 3 * count)):
                counts = experiment._split(rng, count, lo, hi)
                assert sum(counts.values()) == count
                assert all(lo <= i < hi and c > 0 for i, c in counts.items()), counts

    def test_split_pooled_counts_pass_chi_square(self):
        # Critical values of chi-square at 0.999: 20.515 for 5 degrees of
        # freedom, 27.877 for 9.
        rng = random.Random(17)
        weights = {i: w for i, w in enumerate(SPLIT_WEIGHTS) if w}
        pooled = Counter()
        for _ in range(200):
            pooled.update(experiment._split(rng, 50, 0, len(SPLIT_WEIGHTS), SPLIT_CUM))
        assert chi_square(pooled, weights) < 20.515, pooled
        # Fewer draws than indices take the direct path at the top; more
        # split first.
        for count in (7, 30):
            pooled = Counter()
            for _ in range(10_000 // count):
                pooled.update(experiment._split(rng, count, 0, 10))
            assert chi_square(pooled, dict.fromkeys(range(10), 1)) < 27.877, (count, pooled)

    def test_sample_count_must_fit_a_c_int(self, monkeypatch):
        # 2**31 - 1, a C int's maximum, is the documented ceiling; neither
        # count below is sampled, nor is any work done for it.
        instance = generate(GeneratorSpec("additive", 3, 2, seed=1))
        refuse(monkeypatch, "optimal_welfare", "_plan", "_facts")
        for samples in (1, 2**31):
            with pytest.raises(ValueError, match="samples must lie in"):
                evaluate(instance, Method.THRESHOLD_APPROVAL, mode=Mode.MONTE_CARLO,
                         samples=samples)

    def test_split_reaches_ranks_past_sys_maxsize(self):
        subsets = math.comb(70, 35)
        counts = experiment._split(random.Random(3), 1_000, 0, subsets)
        assert sum(counts.values()) == 1_000
        assert all(0 <= rank < subsets for rank in counts)
        assert max(counts) > 2**64
        items = tuple(range(70))
        assert all(len(experiment._unrank(items, 35, rank)) == 35 for rank in counts)

    @pytest.mark.parametrize("mix", [Fraction(1, 2), Fraction(1)])
    @pytest.mark.parametrize("family", ["coverage", "additive"])
    def test_mc_agrees_where_draws_rarely_repeat(self, family, mix):
        instance = generate(MANY_SETS._replace(family=family))
        plan = experiment._plan(experiment._InstanceFacts(instance), Method.MARGINAL_VALUES, mix)
        assert any(math.comb(len(items), k) > weight * 20_000
                   for weight, items, k in plan.support)
        assert_mc_agrees(instance, Method.MARGINAL_VALUES, mix)


@pytest.mark.parametrize("m, ratio", [(16, 0.779), (24, 0.580), (64, 0.236), (256, 0.077)])
def test_threshold_bound_gap_grows_along_the_ladder(m, ratio):
    # Pins the rule as it stands. Past m = 24 OPT is read off {0} and the
    # cheap items, a feasible set, so the true E[W]/bound is lower still.
    facts = experiment._InstanceFacts(threshold_ladder(m))
    plan = experiment._plan(facts, Method.THRESHOLD_APPROVAL, Fraction(1, 2))
    welfare = expected_welfare(plan, facts.instance)
    if m <= 24:
        optimum = facts.optimum.welfare
        assert facts.optimum.items == frozenset({0, *range(4, m)})
    else:
        optimum = core.social_welfare(facts.instance, [0, *range(4, m)])
    bound = experiment.theoretical_bound(Method.THRESHOLD_APPROVAL, facts.partition,
                                         facts.curvature, optimum, Fraction(1, 2))
    assert round(welfare / bound, 3) == ratio


class TestMixedDenominators:
    def test_knapsack_matches_brute_force(self):
        rng = random.Random(314)
        for _ in range(80):
            m = rng.randint(1, 9)
            # A capacity of 2/3 or 5/7 divides every cost, giving the same
            # knapsack within the unit budget.
            profits = tuple(rng.randint(0, 3) for _ in range(m))
            costs = tuple(mixed_cost(rng) for _ in range(m))
            capacity = rng.choice([Fraction(1), Fraction(2, 3), Fraction(5, 7)])
            problem = KnapsackProblem(profits, tuple(c / capacity for c in costs))
            assert solve_knapsack(problem) == helpers.brute_force_knapsack(problem)

    def test_optimum_matches_brute_force(self):
        # Dyadic max-value voters make every welfare an exact float sum, so
        # tied optima compare equal and the tie-break among maximal feasible
        # sets decides; the brute force maximizes over all feasible sets.
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


@pytest.mark.parametrize("fields", [
    # `generate` would loop forever drawing from an empty range for these three.
    pytest.param({"cost_model": UniformRational(0)}, id="grid-0"),
    pytest.param({"cost_model": UniformRational(-3)}, id="grid--3"),
    pytest.param({"cost_model": Dyadic(-1)}, id="exponent--1"),
    pytest.param({"m": 3, "cost_model": Fixed((Fraction(1, 2),) * 2)}, id="fixed-short"),
    pytest.param({"m": 3, "cost_model": Fixed((Fraction(1, 2), Fraction(0), Fraction(1)))},
                 id="fixed-cost-0"),
    pytest.param({"m": 3, "cost_model": Fixed((Fraction(1, 2), Fraction(3, 2), Fraction(1)))},
                 id="fixed-cost-3/2"),
    # Costs that are not an int or a Fraction, as `cli.parse_instance_file`
    # refuses them too.
    pytest.param({"m": 2, "cost_model": Fixed(("1/2", "1"))}, id="fixed-cost-str"),
    pytest.param({"m": 2, "cost_model": Fixed((0.5, 1))}, id="fixed-cost-float"),
    pytest.param({"m": 2, "cost_model": Fixed((True, 1))}, id="fixed-cost-bool"),
    pytest.param({"family": "lognormal"}, id="lognormal"),
    pytest.param({"m": 0}, id="m-0"),
    pytest.param({"n": 0}, id="n-0"),
    pytest.param({"m": 3.0}, id="m-3.0"),
    # `generate` fails on these two, and draws seed 1's instance under
    # another id for the next two.
    pytest.param({"seed": "a"}, id="seed-str"),
    pytest.param({"seed": None}, id="seed-None"),
    pytest.param({"seed": 1.5}, id="seed-1.5"),
    pytest.param({"seed": True}, id="seed-True"),
    # bool("no") is true: these covers would be drawn private.
    pytest.param({"family_params": (("private_elements", "no"),)}, id="private-str"),
    pytest.param({"family_params": (("private_elements", 1),)}, id="private-1"),
])
def test_specs_the_generator_cannot_draw_are_refused(monkeypatch, fields):
    # Specs are built here, not at collection, and never drawn from: a
    # regression fails instead of hanging in `generate`.
    def no_stream(*args):
        raise AssertionError("a stream was opened")

    monkeypatch.setattr(experiment.rng_mod, "stream", no_stream)
    monkeypatch.setattr(experiment.rng_mod, "streams", no_stream)
    with pytest.raises(ValueError):
        GeneratorSpec(**{"family": "additive", "m": 3, "n": 2, **fields})
    with pytest.raises(ValueError):
        GeneratorSpec("coverage", 4, 2)._replace(**fields)


@pytest.mark.parametrize("model", [UniformRational(1), Dyadic(0), Fixed((Fraction(1),))],
                         ids=lambda model: type(model).__name__)
def test_specs_at_the_edge_of_each_check_are_drawn(model):
    # One alternative of cost 1 and one voter: every check's least value.
    for family in FAMILIES:
        instance = generate(GeneratorSpec(family, 1, 1, model))
        assert (instance.m, instance.n, instance.costs) == (1, 1, (Fraction(1),))


@pytest.mark.parametrize("family, params", [
    ("max-value", (("value_range", (0.5, 0.5)),)),
    ("coverage", (("private_element", True),)),
    ("additive", (("private_elements", True),)),
])
def test_generator_parameters_it_does_not_read_are_refused(family, params):
    # A misspelt or retired parameter would otherwise be ignored silently,
    # whether the spec is built or derived from another by `_replace`.
    with pytest.raises(ValueError, match=params[0][0]):
        GeneratorSpec(family, 4, 2, family_params=params)
    coverage = GeneratorSpec("coverage", 4, 2, family_params=(("private_elements", True),))
    with pytest.raises(ValueError, match=params[0][0]):
        coverage._replace(family=family, family_params=params)
    assert generate(coverage)
