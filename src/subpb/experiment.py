"""Instance generation, pipeline evaluation, and sweep reporting.

`evaluate` runs one full pipeline (elicit, aggregate, expected welfare
against the exhaustive optimum) in one of two modes. Both read one plan of
the rule's public randomness (`_plan`): weighted components "a uniform
k-subset of P" (`aggregation.rule_plan`). Exact mode takes each
component's mean welfare in closed form where the utility family has one
(`aggregation.expected_welfare`), producing an exact expectation without
enumerating the component's C(|P|, k) sets; it still refuses plans whose
sets would exceed `EXACT_SUPPORT_LIMIT`. Monte Carlo mode samples the plan
and reports a mean with a standard error.

The reported welfare ratio (optimal over expected) is a per-instance lower
bound on the rule's distortion: distortion also takes a supremum over all
utility profiles consistent with the votes, which is not computed here.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

from . import rng as rng_mod
from .aggregation import (
    DEFAULT_MIX,
    Plan,
    check_mix,
    expected_welfare,
    rule_plan,
    shortlist_branch,
    threshold_branches,
)
from .core import (
    Instance,
    OracleSpec,
    RawInstance,
    max_curvature,
    social_welfare,
    validate_instance,
)
from .elicitation import Method, ranking_profile
from .optimize import ExactDP, Fptas, OptimalBundle, Solver, optimal_welfare
from .partition import GroupPartition, build_partition, selection_size, shortlist_cap

#: Exact mode refuses plans whose components hold more subsets than this.
EXACT_SUPPORT_LIMIT = 10**6

BOUND_TOL = 1e-9


class ExactSupportTooLarge(Exception):
    """Exact enumeration would exceed the support budget; use Monte Carlo."""


# ---------------------------------------------------------------------------
# Generation


@dataclass(frozen=True)
class UniformRational:
    """Costs k/grid with k uniform in 1..grid."""

    grid: int = 8


@dataclass(frozen=True)
class Dyadic:
    """Costs k/2^j, exactly representable at any precision."""

    max_exponent: int = 5


@dataclass(frozen=True)
class Fixed:
    costs: tuple[Fraction, ...]


CostModel = Union[UniformRational, Dyadic, Fixed]


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    m: int
    n: int
    cost_model: CostModel = UniformRational()
    seed: int = 0
    family_params: tuple[tuple[str, object], ...] = ()

    @property
    def instance_id(self) -> str:
        tag = type(self.cost_model).__name__.lower()
        return f"{self.family}-m{self.m}-n{self.n}-{tag}-s{self.seed}"

    def param(self, key: str, default):
        return dict(self.family_params).get(key, default)


def _draw_costs(spec: GeneratorSpec) -> tuple[Fraction, ...]:
    rng = rng_mod.stream(spec.seed, "costs", spec.family, spec.m, spec.n)
    model = spec.cost_model
    if isinstance(model, Fixed):
        if len(model.costs) != spec.m:
            raise ValueError(f"expected {spec.m} fixed costs, got {len(model.costs)}")
        return tuple(Fraction(c) for c in model.costs)
    costs = []
    for _ in range(spec.m):
        if isinstance(model, UniformRational):
            costs.append(Fraction(rng.randint(1, model.grid), model.grid))
        elif isinstance(model, Dyadic):
            j = rng.randint(0, model.max_exponent)
            costs.append(Fraction(rng.randint(1, 2**j), 2**j))
        else:
            raise TypeError(f"unknown cost model {model!r}")
    return tuple(costs)


def _draw_voter(spec: GeneratorSpec, voter: int) -> OracleSpec:
    rng = rng_mod.stream(spec.seed, "voter", spec.family, spec.m, spec.n, voter)
    lo, hi = spec.param("value_range", (0.05, 1.0))
    if spec.family == "additive":
        return OracleSpec("additive", {"values": [rng.uniform(lo, hi) for _ in range(spec.m)]})
    if spec.family == "coverage":
        universe = int(spec.param("universe", max(2, 2 * spec.m)))
        max_cover = int(spec.param("max_cover", 3))
        # Private elements give every alternative an uncoverable remainder,
        # pulling curvature below 1; pure random covers usually pin it at 1.
        private = bool(spec.param("private_elements", False))
        if private:
            universe = max(universe, spec.m + 1)
        weights = [rng.uniform(0.1, 1.0) for _ in range(universe)]
        covers = []
        for a in range(spec.m):
            pool = range(spec.m, universe) if private else range(universe)
            count = rng.randint(1, max(1, min(max_cover, len(pool))))
            cover = sorted(rng.sample(pool, count))
            if private:
                cover = [a] + cover
            covers.append(cover)
        return OracleSpec("coverage", {"weights": weights, "covers": covers})
    if spec.family == "concave":
        g_lo, g_hi = spec.param("gamma_range", (0.4, 1.0))
        return OracleSpec(
            "concave",
            {
                "values": [rng.uniform(lo, hi) for _ in range(spec.m)],
                "gamma": rng.uniform(g_lo, g_hi),
            },
        )
    if spec.family == "max-value":
        return OracleSpec("max-value", {"values": [rng.uniform(lo, hi) for _ in range(spec.m)]})
    raise ValueError(f"unknown family {spec.family!r}")


def generate_raw(spec: GeneratorSpec) -> RawInstance:
    """Deterministic raw instance for the spec; always passes validation."""
    costs = _draw_costs(spec)
    voters = tuple(_draw_voter(spec, i) for i in range(spec.n))
    return RawInstance(costs=costs, voters=voters)


def generate(spec: GeneratorSpec) -> Instance:
    return validate_instance(generate_raw(spec))


# ---------------------------------------------------------------------------
# Evaluation


class Mode(enum.Enum):
    EXACT = "exact"
    MONTE_CARLO = "mc"


@dataclass(frozen=True)
class EvaluationReport:
    """One pipeline evaluation against the exhaustive optimum.

    `welfare_ratio` lower-bounds the distortion of the rule on this
    instance. `bound_value` is the applicable guarantee; in Monte Carlo
    mode satisfaction is judged up to three standard errors."""

    instance_id: str
    family: str
    m: int
    n: int
    curvature: float
    method: Method
    mix: Fraction
    mode: Mode
    expected_welfare: float
    optimal_welfare: float
    welfare_ratio: float
    bound_value: float
    samples: int | None = None
    stderr: float | None = None

    @property
    def bound_satisfied(self) -> bool:
        slack = BOUND_TOL
        if self.mode is Mode.MONTE_CARLO and self.stderr is not None:
            slack += 3.0 * self.stderr
        return self.expected_welfare >= self.bound_value - slack


def instance_family(instance: Instance) -> str:
    families = {v.family for v in instance.voters}
    return families.pop() if len(families) == 1 else "mixed"


def _support_size(partition: GroupPartition, method: Method, mix: Fraction) -> int:
    """Sum of C(|P|, k) over the rule's components, zero-weight ones
    included, from the partition alone: the uniform singleton holds m sets,
    a threshold outcome one, and group t shortlists min(|G_t|,
    shortlist_cap) members and selects up to selection_size of them."""
    m = partition.m
    if not method.is_ranking:
        return m + (len(partition.thresholds) if mix else 0)
    sizes = (min(len(group), shortlist_cap(m, t)) for t, group in enumerate(partition.groups))
    return m + sum(math.comb(p, min(p, selection_size(m, t))) for t, p in enumerate(sizes))


def theoretical_bound(
    method: Method,
    m: int,
    curvature: float,
    optimal: float,
    mix: Fraction = DEFAULT_MIX,
    eps: float = 0.0,
) -> float:
    """The proved per-instance welfare guarantee for the mixed rule.

    The guarantees are stated for an even coin; an uneven coin scales them
    by 2*min(mix, 1-mix), which degenerates to 0 at mix 0 or 1. The
    threshold guarantee for a single alternative is vacuous (no thresholds)
    and reported as 0."""
    T = (m - 1).bit_length()
    coin = 2.0 * float(min(mix, 1 - mix))
    if method is Method.THRESHOLD_APPROVAL:
        if T == 0:
            return 0.0
        return coin * (1.0 - eps) * (1.0 - curvature) * optimal / (4.0 * T)
    return coin * (1.0 - curvature) * optimal / (4.0 * (1 + T) * math.sqrt(m))


def _solver_eps(solver: Solver) -> float:
    return solver.eps if isinstance(solver, Fptas) else 0.0


class _InstanceFacts:
    """What every method's evaluation of one instance shares: the partition,
    the exhaustive optimum, the curvature, the mean welfare of each plan
    component (exact mode) and the welfare of each sampled set (Monte Carlo
    mode).

    Each fact is computed on first use and at most once. A computation
    that raises is not cached, so every cell that needs it raises again."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.component_welfare: dict[tuple[tuple[int, ...], int], float] = {}
        self.welfare_cache: dict[frozenset, float] = {}

    @cached_property
    def partition(self) -> GroupPartition:
        return build_partition(self.instance)

    @cached_property
    def optimum(self) -> OptimalBundle:
        return optimal_welfare(self.instance)

    @cached_property
    def curvature(self) -> float:
        return max_curvature(self.instance)

    def welfare(self, items: frozenset) -> float:
        value = self.welfare_cache.get(items)
        if value is None:
            value = self.welfare_cache[items] = social_welfare(self.instance, items)
        return value


def evaluate(
    instance: Instance,
    method: Method,
    mix: Fraction = DEFAULT_MIX,
    mode: Mode = Mode.EXACT,
    seed: int = 0,
    samples: int = 100_000,
    solver: Solver = ExactDP(),
    instance_id: str = "",
) -> EvaluationReport:
    """Evaluate one elicitation method on one instance, with a fresh
    per-instance record (`sweep` shares one record across methods)."""
    facts = _InstanceFacts(instance)
    return _evaluate(facts, method, mix, mode, seed, samples, solver, instance_id)


def _evaluate(facts: _InstanceFacts, method: Method, mix: Fraction, mode: Mode,
              seed: int, samples: int, solver: Solver, instance_id: str) -> EvaluationReport:
    instance = facts.instance
    mix = Fraction(mix)
    stderr = None
    n_samples = None
    if mode is Mode.EXACT:
        # The support-budget check fires before any profile or exhaustive
        # enumeration.
        if _support_size(facts.partition, method, check_mix(mix)) > EXACT_SUPPORT_LIMIT:
            raise ExactSupportTooLarge(
                f"exact support exceeds {EXACT_SUPPORT_LIMIT} sets; rerun in Monte Carlo mode"
            )
        plan = _plan(facts, method, mix, solver)
        expected = expected_welfare(plan, instance, facts.component_welfare)
    else:
        if samples < 2:
            raise ValueError("need at least 2 samples for a standard error")
        # Past the optimum's enumeration limit the cell fails before sampling,
        # so every C(|P|, k) drawn from stays within C(24, 12) < 2**53.
        facts.optimum
        expected, stderr = _monte_carlo(facts, method, mix, solver, seed, samples)
        n_samples = samples
    optimum = facts.optimum
    curvature = facts.curvature
    bound = theoretical_bound(
        method, instance.m, curvature, optimum.welfare, mix, _solver_eps(solver)
    )
    ratio = optimum.welfare / expected if expected > 0 else math.inf
    return EvaluationReport(
        instance_id=instance_id,
        family=instance_family(instance),
        m=instance.m,
        n=instance.n,
        curvature=curvature,
        method=method,
        mix=mix,
        mode=mode,
        expected_welfare=expected,
        optimal_welfare=optimum.welfare,
        welfare_ratio=ratio,
        bound_value=bound,
        samples=n_samples,
        stderr=stderr,
    )


def _plan(facts: _InstanceFacts, method: Method, mix: Fraction, solver: Solver) -> Plan:
    """The rule's components (`aggregation.rule_plan`). Ranking profiles and
    knapsack outcomes are computed only when the coin gives their components
    positive weight, and an empty group's profile never is."""
    mix = check_mix(mix)
    instance, partition = facts.instance, facts.partition
    branches = []
    if mix and method.is_ranking:
        branches = [
            shortlist_branch(ranking_profile(instance, partition, method, t), partition)
            if partition.groups[t] else ((), 0)
            for t in range(partition.T + 1)
        ]
    elif mix:
        branches = threshold_branches(instance, partition, solver)
    return rule_plan(instance, mix, branches)


def _unrank(items: tuple[int, ...], k: int, rank: int) -> list[int]:
    """The k-subset of `items` at position `rank` of `itertools.combinations`
    order. Walking the items, `block` counts the subsets that take the
    current item, C(items after it, open slots - 1): the rank either falls
    in that block (take the item) or skips past it."""
    picked: list[int] = []
    left = len(items)
    block = math.comb(left - 1, k - 1) if k else 0
    for item in items:
        slots = k - len(picked)
        if not slots:
            break
        left -= 1
        if rank < block:
            picked.append(item)
            block = block * (slots - 1) // left if left else 0
        else:
            rank -= block
            block = block * (left - slots + 1) // left if left else 0
    return picked


def _monte_carlo(
    facts: _InstanceFacts,
    method: Method,
    mix: Fraction,
    solver: Solver,
    seed: int,
    samples: int,
) -> tuple[float, float]:
    """Sample the rule's plan `samples` times; returns (mean, standard error).

    One call draws every sample's component; one more call per component
    draws its count of ranks among its C(|P|, k) subsets. The draws are
    i.i.d. from the rule. Each distinct set costs one `_unrank` and one
    welfare lookup, weighted by how often it was drawn."""
    instance = facts.instance
    rng = rng_mod.stream(seed, "mc", method.value, instance.m, instance.n)
    plan = _plan(facts, method, mix, solver).support
    scale = math.lcm(*(weight.denominator for weight, _, _ in plan))
    cum_weights = list(itertools.accumulate(int(weight * scale) for weight, _, _ in plan))
    pairs: list[tuple[float, int]] = []
    for index, count in Counter(rng.choices(range(len(plan)), cum_weights=cum_weights,
                                            k=samples)).items():
        _, items, k = plan[index]
        subsets = math.comb(len(items), k)
        ranks = Counter(rng.choices(range(subsets), k=count)) if subsets > 1 else {0: count}
        pairs += [(facts.welfare(frozenset(_unrank(items, k, rank))), times)
                  for rank, times in ranks.items()]
    mean = math.fsum(value * times for value, times in pairs) / samples
    spread = math.fsum(times * (value - mean) ** 2 for value, times in pairs)
    return mean, math.sqrt(spread / (samples - 1)) / math.sqrt(samples)


# ---------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class SweepFailure:
    """A sweep cell that raised instead of producing a report."""

    instance_id: str
    family: str
    m: int
    n: int
    method: Method
    mix: Fraction
    error: str


SweepResult = Union[EvaluationReport, SweepFailure]

CSV_COLUMNS = (
    "instance_id",
    "family",
    "m",
    "n",
    "curvature",
    "method",
    "mix",
    "mode",
    "expected_welfare",
    "optimal_welfare",
    "welfare_ratio",
    "bound_value",
    "bound_satisfied",
    "samples",
    "stderr",
)


def sweep(
    specs: Sequence[GeneratorSpec],
    methods: Sequence[Method],
    mix: Fraction = DEFAULT_MIX,
    mode: Mode = Mode.EXACT,
    samples: int = 100_000,
    solver: Solver = ExactDP(),
) -> list[SweepResult]:
    """Evaluate the cross product of specs and methods.

    Each spec's instance is generated once, and one per-instance record is
    shared by all its methods, so the partition, optimum, curvature and
    component or set welfares are computed once per instance rather than
    once per cell; the rows equal those of independent `evaluate` calls.
    Per-cell failures become marked rows instead of aborting the sweep."""
    results: list[SweepResult] = []
    for spec in specs:
        facts = _InstanceFacts(generate(spec))
        for method in methods:
            try:
                results.append(
                    _evaluate(
                        facts, method, mix, mode, spec.seed, samples, solver,
                        spec.instance_id,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - sweep must not abort
                results.append(
                    SweepFailure(
                        instance_id=spec.instance_id,
                        family=spec.family,
                        m=spec.m,
                        n=spec.n,
                        method=method,
                        mix=Fraction(mix),
                        error=type(exc).__name__,
                    )
                )
    return results


def result_row(result: SweepResult) -> dict[str, str]:
    """CSV cells for one sweep result; error cells carry the error name in
    the mode column and leave numeric columns blank."""
    if isinstance(result, SweepFailure):
        row = dict.fromkeys(CSV_COLUMNS, "")
        row.update(instance_id=result.instance_id, family=result.family, m=str(result.m),
                   n=str(result.n), method=result.method.value, mix=str(result.mix),
                   mode=f"error:{result.error}")
        return row
    return {
        "instance_id": result.instance_id,
        "family": result.family,
        "m": str(result.m),
        "n": str(result.n),
        "curvature": repr(result.curvature),
        "method": result.method.value,
        "mix": str(result.mix),
        "mode": result.mode.value,
        "expected_welfare": repr(result.expected_welfare),
        "optimal_welfare": repr(result.optimal_welfare),
        "welfare_ratio": repr(result.welfare_ratio),
        "bound_value": repr(result.bound_value),
        "bound_satisfied": "true" if result.bound_satisfied else "false",
        "samples": "" if result.samples is None else str(result.samples),
        "stderr": "" if result.stderr is None else repr(result.stderr),
    }


def render_csv(results: Sequence[SweepResult]) -> str:
    """Byte-stable CSV for identical inputs."""
    lines = [",".join(CSV_COLUMNS)]
    for result in results:
        row = result_row(result)
        lines.append(",".join(row[col] for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"
