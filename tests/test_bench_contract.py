"""The benchmark's per-layer metrics stay attached to the program.

`bench/spans.py` finds its tracing targets by module-global name and drops
a metric whose targets are all gone, so a rename in `subpb` would silently
remove a declared metric from the benchmark's report."""

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

from subpb import experiment
from subpb.core import OracleSpec, RawInstance, validate_instance
from subpb.elicitation import Method

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_spans():
    """`bench/spans.py` as a module, read without changing it."""
    if "bench_spans" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules["bench_spans"]


def test_every_metric_has_a_live_target():
    spans = load_spans()
    live = {target.name for target in spans.TARGETS
            if callable(getattr(spans._resolve(target.owner), target.attr, None))}
    assert [m.name for m in spans.METRICS if not set(m.targets) & live] == []
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {m.name for m in spans.METRICS} == {
        m["name"] for m in declared} - {"bench.trace_overhead_frac"}


def test_traced_evaluate_counts_plan_components():
    spans = load_spans()
    instance = validate_instance(RawInstance(
        costs=(Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
        voters=(OracleSpec("additive", {"values": [0.5, 0.3, 0.2]}),),
    ))
    tracer = spans.Tracer()
    with tracer.installed():
        experiment.evaluate(instance, Method.MARGINAL_VALUES)
    plan = experiment._plan(experiment._InstanceFacts(instance), Method.MARGINAL_VALUES,
                            Fraction(1, 2))
    assert tracer.counts["aggregation.expected_welfare"] == 1
    assert tracer.counts["aggregation.support_sets"] == len(plan.support)


def test_traced_sweep_evaluates_every_cell_through_evaluate():
    # m = 1 has no threshold, so the threshold bound alone is vacuous.
    spans = load_spans()
    tracer = spans.Tracer()
    with tracer.installed():
        rows = experiment.sweep([experiment.GeneratorSpec("additive", 1, 3, seed=1)],
                                list(Method))
    assert [span[0] for span in tracer.spans].count("experiment.evaluate") == 3
    vacuous = sum(row.bound_value == 0 for row in rows)
    assert 0 < vacuous < len(rows)
    assert tracer.counts["experiment.vacuous_bound_cells"] == vacuous
