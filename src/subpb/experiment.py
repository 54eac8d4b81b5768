"""Instance generation, pipeline evaluation, and sweep reporting.

`evaluate` runs one full pipeline (elicit, aggregate, expected welfare
against the exhaustive optimum) in one of two modes. Exact mode enumerates
all public randomness: the uniform group or threshold draw, the rule coin,
and the shortlist-subset draw, producing an exact expectation. Monte Carlo
mode samples the same pipeline and reports a mean with a standard error.

The reported welfare ratio (optimal over expected) is a per-instance lower
bound on the rule's distortion: distortion also takes a supremum over all
utility profiles consistent with the votes, which is not computed here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

from . import rng as rng_mod
from .aggregation import (
    DEFAULT_MIX,
    SelectionDistribution,
    aggregate_threshold,
    expected_welfare,
    mix_distributions,
    rule_a_ranking,
    rule_a_threshold,
    rule_b_uniform,
)
from .core import (
    Instance,
    OracleSpec,
    RawInstance,
    max_curvature,
    social_welfare,
    validate_instance,
)
from .elicitation import Method, RankingProfile, approval_profile, ranking_profile
from .optimize import ExactDP, Fptas, OptimalBundle, Solver, optimal_welfare
from .partition import GroupPartition, build_partition, selection_size, shortlist
from .partition import harmonic_scores

#: Exact mode refuses to enumerate more support sets than this.
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


def exact_distribution(
    instance: Instance,
    method: Method,
    mix: Fraction = DEFAULT_MIX,
    solver: Solver = ExactDP(),
    partition: GroupPartition | None = None,
) -> SelectionDistribution:
    """Full selection distribution over all public randomness."""
    if partition is None:
        partition = build_partition(instance)
    mix = Fraction(mix)
    if method is Method.THRESHOLD_APPROVAL:
        return aggregate_threshold(instance, mix=mix, solver=solver, partition=partition)
    profiles = _check_exact_support(instance, method, partition)
    parts = []
    if mix > 0:
        # Rule A averaged over the uniform group draw.
        share = mix / (partition.T + 1)
        parts += [(rule_a_ranking(p, partition, instance), share) for p in profiles]
    if mix < 1:
        parts.append((rule_b_uniform(instance), 1 - mix))
    return mix_distributions(parts)


def _check_exact_support(
    instance: Instance, method: Method, partition: GroupPartition
) -> list[RankingProfile]:
    """Every group's ranking profile, raising ExactSupportTooLarge as soon as
    the shortlist supports they induce would exceed the budget."""
    total = instance.m
    profiles = []
    for t in range(partition.T + 1):
        profile = ranking_profile(instance, partition, method, t)
        profiles.append(profile)
        if not profile.group:
            total += 1
            continue
        scores = harmonic_scores(profile)
        chosen, _ = shortlist(partition, scores, t)
        size = min(len(chosen), selection_size(partition.m, t))
        total += math.comb(len(chosen), size)
        if total > EXACT_SUPPORT_LIMIT:
            raise ExactSupportTooLarge(
                f"exact support exceeds {EXACT_SUPPORT_LIMIT} sets; "
                "rerun in Monte Carlo mode"
            )
    return profiles


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
    the exhaustive optimum, the curvature and the welfare of each set seen.

    Each fact is computed on first use and at most once. A computation
    that raises is not cached, so every cell that needs it raises again."""

    def __init__(self, instance: Instance):
        self.instance = instance
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
    # Build the distribution before asking the record for the optimum: the
    # support-budget check must fire before any exhaustive enumeration.
    if mode is Mode.EXACT:
        dist = exact_distribution(
            instance, method, mix=mix, solver=solver, partition=facts.partition
        )
        expected = expected_welfare(dist, instance, facts.welfare_cache)
    else:
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


def _monte_carlo(
    facts: _InstanceFacts,
    method: Method,
    mix: Fraction,
    solver: Solver,
    seed: int,
    samples: int,
) -> tuple[float, float]:
    """Sample the full pipeline; returns (mean, standard error).

    Profiles and knapsack outcomes are deterministic given the instance, so
    they are computed once per branch; only the public randomness is drawn
    per sample."""
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    instance, partition, welfare = facts.instance, facts.partition, facts.welfare
    rng = rng_mod.stream(seed, "mc", method.value, instance.m, instance.n)
    mix_f = float(mix)
    draws: list[float] = []
    if method.is_ranking:
        branches = []
        for t in range(partition.T + 1):
            group = partition.groups[t]
            if not group:
                branches.append(((), 0))
                continue
            profile = ranking_profile(instance, partition, method, t)
            chosen, _ = shortlist(partition, harmonic_scores(profile), t)
            branches.append((chosen, min(len(chosen), selection_size(partition.m, t))))
        for _ in range(samples):
            if rng.random() < mix_f:
                chosen, size = branches[rng.randrange(partition.T + 1)]
                picked = frozenset(rng.sample(chosen, size)) if chosen else frozenset()
            else:
                picked = frozenset((rng.randrange(instance.m),))
            draws.append(welfare(picked))
    else:
        thresholds = partition.thresholds
        outcomes = [
            rule_a_threshold(approval_profile(instance, partition, alpha), instance, solver)
            for alpha in thresholds
        ]
        for _ in range(samples):
            if outcomes and rng.random() < mix_f:
                picked = outcomes[rng.randrange(len(outcomes))]
            else:
                picked = frozenset((rng.randrange(instance.m),))
            draws.append(welfare(picked))
    mean = math.fsum(draws) / samples
    spread = math.sqrt(math.fsum((x - mean) ** 2 for x in draws) / (samples - 1))
    return mean, spread / math.sqrt(samples)


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
    shared by all its methods, so the partition, optimum, curvature and set
    welfares are computed once per instance rather than once per cell; the
    rows equal those of independent `evaluate` calls. Per-cell failures
    become marked rows instead of aborting the sweep."""
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
        return {
            "instance_id": result.instance_id,
            "family": result.family,
            "m": str(result.m),
            "n": str(result.n),
            "curvature": "",
            "method": result.method.value,
            "mix": str(result.mix),
            "mode": f"error:{result.error}",
            "expected_welfare": "",
            "optimal_welfare": "",
            "welfare_ratio": "",
            "bound_value": "",
            "bound_satisfied": "",
            "samples": "",
            "stderr": "",
        }
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
