"""Per-layer spans and counters, recorded from outside the `subpb` package.

A `Target` names an attribute that `subpb` code looks up at call time: a
module global such as `subpb.experiment.optimal_welfare`, or a method such
as `subpb.core:UtilityOracle.value`. `Tracer.installed` replaces each with
a wrapper and restores the originals on exit. Timed wrappers record a span
(name, start, end, parent); count-only wrappers, used on the hot leaf
calls, only bump a counter so that tracing stays cheap.

A target that no longer exists is skipped, and a metric whose targets are
all missing is dropped from the report rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    name: str  # "layer.function"; several targets may share one name
    owner: str  # "package.module" or "package.module:Class"
    attr: str
    timed: bool = True


_E, _A, _C = "subpb.experiment", "subpb.aggregation", "subpb.cli"

TARGETS = (
    Target("core.value", "subpb.core:UtilityOracle", "value", timed=False),
    Target("core.social_welfare", _A, "social_welfare", timed=False),
    Target("core.social_welfare_mc", _E, "social_welfare", timed=False),
    Target("core.max_curvature", _E, "max_curvature"),
    Target("core.validate_instance", _E, "validate_instance"),
    Target("core.validate_instance", _C, "validate_instance"),
    Target("partition.build_partition", _E, "build_partition"),
    Target("partition.build_partition", _A, "build_partition"),
    Target("partition.harmonic_scores", _E, "harmonic_scores"),
    Target("partition.harmonic_scores", _A, "harmonic_scores"),
    Target("partition.shortlist", _E, "shortlist"),
    Target("partition.shortlist", _A, "shortlist"),
    Target("elicitation.ranking_profile", _E, "ranking_profile"),
    Target("elicitation.approval_profile", _E, "approval_profile"),
    Target("elicitation.approval_profile", _A, "approval_profile"),
    Target("aggregation.rule_a_ranking", _E, "rule_a_ranking"),
    Target("aggregation.rule_b_uniform", _E, "rule_b_uniform"),
    Target("aggregation.rule_b_uniform", _A, "rule_b_uniform"),
    Target("aggregation.mix_distributions", _E, "mix_distributions"),
    Target("aggregation.mix_distributions", _A, "mix_distributions"),
    Target("aggregation.aggregate_threshold", _E, "aggregate_threshold"),
    Target("aggregation.rule_a_threshold", _E, "rule_a_threshold"),
    Target("aggregation.rule_a_threshold", _A, "rule_a_threshold"),
    Target("aggregation.expected_welfare", _E, "expected_welfare"),
    Target("optimize.optimal_welfare", _E, "optimal_welfare"),
    Target("optimize.solve_knapsack", _A, "solve_knapsack"),
    Target("experiment.generate", _E, "generate"),
    Target("experiment.generate_raw", _E, "generate_raw"),
    Target("experiment.exact_distribution", _E, "exact_distribution"),
    Target("experiment.rule_a_group_mixture", _E, "rule_a_group_mixture"),
    Target("experiment.evaluate", _E, "evaluate"),
    Target("experiment.evaluate", _C, "evaluate"),
    Target("experiment.sweep", _E, "sweep"),
    Target("cli.main", _C, "main"),
    Target("cli.load_instance", _C, "load_instance"),
    Target("cli.render_csv", _C, "render_csv"),
)


def _knapsack_cells(counts: Counter, args, kwargs, result) -> None:
    problem = args[0] if args else kwargs["problem"]
    counts["optimize.knapsack_dp_cells"] += (sum(problem.profits) + 1) * (problem.size + 1)


def _support_sets(counts: Counter, args, kwargs, result) -> None:
    dist = args[0] if args else kwargs["dist"]
    counts["aggregation.support_sets"] += len(dist.support)


def _evaluate_report(counts: Counter, args, kwargs, result) -> None:
    if result.bound_value == 0:
        counts["experiment.vacuous_bound_cells"] += 1
    counts["experiment.mc_samples"] += result.samples or 0


#: Counters derived from a call's arguments or result, keyed by target name.
HOOKS = {
    "optimize.solve_knapsack": _knapsack_cells,
    "aggregation.expected_welfare": _support_sets,
    "experiment.evaluate": _evaluate_report,
}


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    """Collects spans and counters for one episode at a time."""

    def __init__(self):
        self.present: set[str] = set()  # target names installed at least once
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def reset(self) -> tuple[list, Counter]:
        """Start a new episode; return the spans and counts of the last one."""
        done = (self.spans, self.counts)
        self.spans, self.counts, self._open = [], Counter(), []
        return done

    @contextmanager
    def span(self, name: str):
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._open.append(index)
        self.counts[name] += 1
        self.spans[index][1] = time.perf_counter()
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, target: Target, fn):
        name = target.name
        if not target.timed:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)

            return counted
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return spanned

    @contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        saved = []
        try:
            for target in TARGETS:
                owner = _resolve(target.owner)
                original = getattr(owner, target.attr, None)
                if not callable(original):
                    continue
                setattr(owner, target.attr, self._wrap(target, original))
                saved.append((owner, target.attr, original))
                self.present.add(target.name)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


@dataclass(frozen=True)
class Metric:
    """A per-layer metric computed from one episode.

    kind "self" sums self time and "total" sums span durations over the
    named targets; "calls" counts their calls; "count" reads the counter
    `counter` that a hook of the named targets fills in; "ratio" divides
    the targets' calls by that counter."""

    name: str
    unit: str
    kind: str
    targets: tuple[str, ...]
    counter: str = ""

    def value(self, spans: list[list], selfs: list[float], counts: Counter) -> float:
        if self.kind == "calls":
            return sum(counts[t] for t in self.targets)
        if self.kind == "count":
            return counts[self.counter]
        if self.kind == "ratio":
            base = counts[self.counter]
            return sum(counts[t] for t in self.targets) / base if base else 0.0
        picked = [i for i, span in enumerate(spans) if span[0] in self.targets]
        if self.kind == "self":
            return sum(selfs[i] for i in picked)
        return sum(spans[i][2] - spans[i][1] for i in picked)


_DIST = (
    "aggregation.rule_a_ranking",
    "aggregation.rule_b_uniform",
    "aggregation.mix_distributions",
    "aggregation.aggregate_threshold",
    "aggregation.rule_a_threshold",
    "experiment.exact_distribution",
    "experiment.rule_a_group_mixture",
)
_GENERATE = ("experiment.generate", "experiment.generate_raw")

METRICS = (
    Metric("optimize.optimum_s", "s", "total", ("optimize.optimal_welfare",)),
    Metric("optimize.optimum_calls", "count", "calls", ("optimize.optimal_welfare",)),
    Metric("optimize.knapsack_s", "s", "total", ("optimize.solve_knapsack",)),
    Metric("optimize.knapsack_calls", "count", "calls", ("optimize.solve_knapsack",)),
    Metric("optimize.knapsack_dp_cells", "count", "count", ("optimize.solve_knapsack",),
           "optimize.knapsack_dp_cells"),
    Metric("aggregation.expected_welfare_s", "s", "total", ("aggregation.expected_welfare",)),
    Metric("aggregation.support_sets", "count", "count", ("aggregation.expected_welfare",),
           "aggregation.support_sets"),
    Metric("aggregation.dist_s", "s", "self", _DIST),
    Metric("core.value_calls", "count", "calls", ("core.value",)),
    Metric("core.social_welfare_calls", "count", "calls",
           ("core.social_welfare", "core.social_welfare_mc")),
    Metric("core.curvature_s", "s", "total", ("core.max_curvature",)),
    Metric("core.validate_s", "s", "total", ("core.validate_instance",)),
    Metric("elicitation.ranking_calls", "count", "calls", ("elicitation.ranking_profile",)),
    Metric("elicitation.ranking_s", "s", "total", ("elicitation.ranking_profile",)),
    Metric("elicitation.approval_calls", "count", "calls", ("elicitation.approval_profile",)),
    Metric("elicitation.approval_s", "s", "total", ("elicitation.approval_profile",)),
    Metric("partition.build_calls", "count", "calls", ("partition.build_partition",)),
    Metric("partition.build_s", "s", "total", ("partition.build_partition",)),
    Metric("partition.score_s", "s", "total", ("partition.harmonic_scores", "partition.shortlist")),
    Metric("experiment.evaluate_self_s", "s", "self", ("experiment.evaluate",)),
    Metric("experiment.generate_s", "s", "self", _GENERATE),
    Metric("experiment.mc_welfare_miss_ratio", "ratio", "ratio", ("core.social_welfare_mc",),
           "experiment.mc_samples"),
    Metric("experiment.vacuous_bound_cells", "count", "count", ("experiment.evaluate",),
           "experiment.vacuous_bound_cells"),
    Metric("cli.load_s", "s", "self", ("cli.load_instance",)),
    Metric("cli.render_s", "s", "total", ("cli.render_csv",)),
)

#: Counter-valued metrics must repeat exactly across episodes and runs.
EXACT_UNITS = ("count",)


def layer_shares(spans: list[list], selfs: list[float], root: int) -> dict[str, float]:
    """Self time inside span `root`, summed by layer, as shares of its
    duration. `root` must be the episode's last top-level span, so that
    every span after it lies inside it."""
    total = spans[root][2] - spans[root][1]
    shares: Counter = Counter()
    for i in range(root + 1, len(spans)):
        shares[spans[i][0].split(".", 1)[0]] += selfs[i] / total
    return dict(shares)
