"""Instance generation, pipeline evaluation, and sweep reporting.

The generator draws each instance's costs from a stream of their own,
`stream(seed, "costs", family, m, n)`, and voter i from
`stream(seed, "voter", family, m, n, i)`, the voters' streams drawn in turn
through one `rng.streams`. Every draw is one of `rng`'s algorithms over the
stream's `random()` and `getrandbits`, not a `random.Random` wrapper, so
that the instances do not depend on the standard library's versions of
those wrappers.

`evaluate` runs one full pipeline (elicit, aggregate, expected welfare
against the exhaustive optimum) in one of two modes, in one pass: arguments,
Monte Carlo optimum, plan, mean, exact optimum, bound and verdict. The plan
of the rule's public randomness (`_plan`: weighted components "a uniform
k-subset of P", `aggregation.rule_plan`) is built once. So a bad argument
fails before any work, a Monte Carlo cell past the optimum's enumeration
limit before the plan, and an exact component past it before the optimum.
`_plan` alone elicits votes, and the rules of `aggregation` read only
those votes, the costs and m, so a plan is a function of the votes and
the costs.
The optimum and exact mode read welfare from one per-instance oracle
(`core.Instance.welfare`) with one part per kind of voter: additive and
coverage voters fold into one weighted coverage function over cover
signatures (`core.CoverageSumOracle`), and the concave and the max-value
voters each into one part. Exact mode takes each component's
mean welfare from it (`aggregation.expected_welfare`): in closed form for
coverage and max-value, while the concave part enumerates the C(|P|, k)
subsets of a component once for all concave voters, and alone refuses a
component past `core.EXACT_SUPPORT_LIMIT`. Monte
Carlo mode draws how many samples fall on each component and on each of
its subsets, without a loop over samples, and reports a mean with a
standard error; it evaluates each distinct drawn set on the same oracle
(`social_welfare`).

The reported welfare ratio (optimal over expected) is a per-instance lower
bound on the rule's distortion: distortion also takes a supremum over all
utility profiles consistent with the votes, which is not computed here.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence, Union

from . import rng as rng_mod
from .aggregation import (
    DEFAULT_MIX,
    Plan,
    expected_welfare,
    rule_plan,
    shortlist_branch,
    threshold_branches,
)
from .core import FAMILIES, Instance, OracleSpec, RawInstance, max_curvature, validate_instance
from .elicitation import Method, approval_profile, ranking_profile
from .optimize import OptimalBundle, optimal_welfare
from .partition import GroupPartition, build_partition, selection_size, shortlist_cap

BOUND_TOL = 1e-9


# ---------------------------------------------------------------------------
# Generation


class UniformRational(NamedTuple):
    """Costs k/grid with k uniform in 1..grid."""

    grid: int = 8


class Dyadic(NamedTuple):
    """Costs k/2^j, exactly representable at any precision."""

    max_exponent: int = 5


class Fixed(NamedTuple):
    costs: tuple[Fraction, ...]


CostModel = Union[UniformRational, Dyadic, Fixed]


class _GeneratorFields(NamedTuple):
    family: str
    m: int
    n: int
    cost_model: CostModel = UniformRational()
    seed: int = 0
    family_params: tuple[tuple[str, object], ...] = ()


def _int_at_least(value, least: int) -> bool:
    return type(value) is int and value >= least


class GeneratorSpec(_GeneratorFields):
    """What `generate` draws an instance from. Every way of building a spec,
    `_replace` included, refuses what `generate` cannot draw:
    - a family not in `core.FAMILIES`, or a parameter its generator does not read;
    - `m` or `n` that is not an int >= 1, or a seed that is not an int or is a bool;
    - a `UniformRational` grid < 1 or a `Dyadic` exponent < 0, or either not an int;
    - a `Fixed` model whose length is not m, or a cost not an int or `Fraction` in (0, 1];
    - any other cost model;
    - a coverage `private_elements` that is not a bool."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        if spec.family not in FAMILIES:
            raise ValueError(f"unknown family {spec.family!r}; known: {FAMILIES}")
        if not (_int_at_least(spec.m, 1) and _int_at_least(spec.n, 1)):
            raise ValueError(f"m and n must be integers >= 1, got {spec.m!r} and {spec.n!r}")
        if type(spec.seed) is not int:
            raise ValueError(f"seed must be an int, got {spec.seed!r}")
        model = spec.cost_model
        if isinstance(model, UniformRational):
            drawable = _int_at_least(model.grid, 1)
        elif isinstance(model, Dyadic):
            drawable = _int_at_least(model.max_exponent, 0)
        elif isinstance(model, Fixed):
            drawable = len(model.costs) == spec.m and all(
                type(c) in (int, Fraction) and 0 < c <= 1 for c in model.costs)
        else:
            drawable = False
        if not drawable:
            raise ValueError(f"cannot draw {spec.m} costs from {model!r}")
        # Only the coverage generator reads a parameter (`_draw_voter`).
        reads = {"private_elements"} if spec.family == "coverage" else set()
        params = dict(spec.family_params)
        unknown = params.keys() - reads
        if unknown:
            raise ValueError(f"the {spec.family} generator reads no parameters "
                             f"{sorted(map(str, unknown))}")
        private = params.get("private_elements", False)
        if type(private) is not bool:
            raise ValueError(f"private_elements must be a bool, got {private!r}")
        return spec

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through `_make`, which would skip `__new__`.
        return cls(*iterable)

    @property
    def instance_id(self) -> str:
        """Names the family, m, n, the kind of cost model and the seed.
        Specs that differ only in the grid or exponent, the fixed costs or
        `private_elements` share an id."""
        tag = type(self.cost_model).__name__.lower()
        return f"{self.family}-m{self.m}-n{self.n}-{tag}-s{self.seed}"


def _draw_costs(spec: GeneratorSpec) -> tuple[Fraction, ...]:
    rng = rng_mod.stream(spec.seed, "costs", spec.family, spec.m, spec.n)
    model = spec.cost_model
    if isinstance(model, Fixed):
        return tuple(Fraction(c) for c in model.costs)
    costs = []
    for _ in range(spec.m):
        if isinstance(model, UniformRational):
            costs.append(Fraction(rng_mod.randint(rng, 1, model.grid), model.grid))
        else:
            j = rng_mod.randint(rng, 0, model.max_exponent)
            costs.append(Fraction(rng_mod.randint(rng, 1, 2**j), 2**j))
    return tuple(costs)


def _draw_voter(spec: GeneratorSpec, rng, private: bool) -> OracleSpec:
    """One voter drawn from its stream `rng`; `private` is the coverage
    generator's `private_elements` parameter, read once per spec."""
    lo, hi = 0.05, 1.0
    if spec.family in ("additive", "max-value"):
        return OracleSpec(spec.family, {"values": rng_mod.uniforms(rng, lo, hi, spec.m)})
    if spec.family == "coverage":
        # Private elements give every alternative an uncoverable remainder,
        # pulling curvature below 1; pure random covers usually pin it at 1.
        # Either pool holds at least one element of a universe of 2m >= 2.
        universe = 2 * spec.m
        weights = rng_mod.uniforms(rng, 0.1, 1.0, universe)
        start = spec.m if private else 0
        size = universe - start
        covers = rng_mod.sorted_samples(rng, start, size, min(3, size), spec.m)
        if private:
            covers = [[a] + cover for a, cover in enumerate(covers)]
        return OracleSpec("coverage", {"weights": weights, "covers": covers})
    # The spec admits only `core.FAMILIES`, so what is left is concave.
    values = rng_mod.uniforms(rng, lo, hi, spec.m)
    (gamma,) = rng_mod.uniforms(rng, 0.4, 1.0, 1)
    return OracleSpec("concave", {"values": values, "gamma": gamma})


def generate_raw(spec: GeneratorSpec) -> RawInstance:
    """Deterministic raw instance for the spec; always passes validation.
    Voter i is drawn from `stream(seed, "voter", family, m, n, i)`, the
    voters' streams all through one `rng.streams`."""
    costs = _draw_costs(spec)
    private = dict(spec.family_params).get("private_elements", False)
    voters = tuple([_draw_voter(spec, rng, private) for rng in rng_mod.streams(
        spec.seed, spec.n, "voter", spec.family, spec.m, spec.n)])
    return RawInstance(costs=costs, voters=voters)


def generate(spec: GeneratorSpec) -> Instance:
    return validate_instance(generate_raw(spec))


# ---------------------------------------------------------------------------
# Evaluation


class Mode(enum.Enum):
    EXACT = "exact"
    MONTE_CARLO = "mc"


class EvaluationReport(NamedTuple):
    """One pipeline evaluation against the exhaustive optimum, its fields the
    CSV columns, filled in by `evaluate` in one pass: arguments, Monte Carlo
    optimum, plan, mean, exact optimum, bound and verdict.

    `welfare_ratio` lower-bounds the distortion of the rule on this
    instance. `bound_satisfied` says whether the mean reaches `bound_value`,
    the applicable guarantee, within `BOUND_TOL` plus, in Monte Carlo mode,
    three standard errors."""

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
    bound_satisfied: bool
    samples: int | None = None
    stderr: float | None = None


def instance_family(instance: Instance) -> str:
    families = {v.family for v in instance.voters}
    return families.pop() if len(families) == 1 else "mixed"


def theoretical_bound(
    method: Method,
    partition: GroupPartition,
    curvature: float,
    optimal: float,
    mix: Fraction = DEFAULT_MIX,
) -> float:
    """The proved per-instance welfare guarantee for the mixed rule.

    Each guarantee divides by the branches its rule draws from: the
    threshold rule's by the partition's thresholds (T of them), the ranking
    rules' by its groups (T + 1) and by sqrt(m). With curvature c and
    coin = 2*min(mix, 1-mix) (1 for an even coin, 0 at mix 0 or 1), the
    threshold guarantee is coin*(1 - c)*OPT / (4T) and the ranking
    guarantee coin*(1 - c)*OPT / (4(T + 1)*sqrt(m)). The threshold
    guarantee without thresholds (a single alternative) is vacuous and
    reported as 0. Both constants are this repository's reconstruction
    (PAPER.md holds only the abstract; see `aggregation`), and the threshold
    one fails on `tests/data/threshold_gap_m16.json` (ROADMAP item 27, L4)."""
    coin = 2.0 * float(min(mix, 1 - mix))
    if method is Method.THRESHOLD_APPROVAL:
        thresholds = len(partition.thresholds)
        if not thresholds:
            return 0.0
        return coin * (1.0 - curvature) * optimal / (4.0 * thresholds)
    groups = len(partition.groups)
    return coin * (1.0 - curvature) * optimal / (4.0 * groups * math.sqrt(partition.m))


class _InstanceFacts:
    """What every method's evaluation of one instance shares: the partition,
    the exhaustive optimum, the curvature, the mean welfare of each plan
    component (exact mode) and the welfare of each sampled set (Monte Carlo
    mode), keyed by the set's ascending tuple of alternatives and folded on
    the instance's welfare oracle (`social_welfare`).

    Each fact is computed on first use and at most once. A computation
    that raises is not cached, so every evaluation that needs it raises
    again. `evaluate` keeps one record, that of the instance it evaluated
    last (`_facts`). The per-voter standalone values and last gains, which
    the curvature, approval counts and value rankings read, and whose last
    gains bound the optimum's walk, live on the instance itself
    (`core.Instance.singleton_table`), so a fresh record reuses them as
    well."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.component_welfare: dict[tuple[tuple[int, ...], int], float] = {}
        self.welfare_cache: dict[tuple[int, ...], float] = {}

    @cached_property
    def partition(self) -> GroupPartition:
        return build_partition(self.instance)

    @cached_property
    def optimum(self) -> OptimalBundle:
        return optimal_welfare(self.instance)

    @cached_property
    def curvature(self) -> float:
        return max_curvature(self.instance)

    def welfare(self, items: tuple[int, ...]) -> float:
        value = self.welfare_cache.get(items)
        if value is None:
            value = self.welfare_cache[items] = social_welfare(self.instance, items)
        return value


@lru_cache(maxsize=1)
def _facts(instance: Instance) -> _InstanceFacts:
    """The record of the instance last evaluated. `Instance` hashes by
    identity, so only the identical object finds it again."""
    return _InstanceFacts(instance)


def social_welfare(instance: Instance, items: Sequence[int]) -> float:
    """Welfare of a set: `Instance.welfare`'s `extend` folded over `items` in order."""
    return instance.welfare.value(items)


def evaluate(
    instance: Instance,
    method: Method,
    mix: Fraction = DEFAULT_MIX,
    mode: Mode = Mode.EXACT,
    seed: int = 0,
    samples: int = 100_000,
    instance_id: str = "",
) -> EvaluationReport:
    """Evaluate one elicitation method on one instance.

    One pass: arguments (`check_arguments`, before any work), Monte Carlo
    optimum, plan (`_plan`, built once), mean (`expected_welfare` or
    `_monte_carlo`), exact optimum, bound and verdict.

    The per-instance record (`_InstanceFacts`) is shared with the previous
    call only when that call evaluated the identical `Instance` object: a
    run of calls on one instance, such as `sweep` makes, computes its
    partition, optimum, curvature and welfare caches once, while an equal
    but distinct instance gets a record of its own."""
    mix = check_arguments((method,), mix, mode, samples)
    monte_carlo = mode is Mode.MONTE_CARLO
    facts = _facts(instance)
    # Monte Carlo mode takes the optimum before the plan, exact mode after the mean.
    optimum = facts.optimum if monte_carlo else None
    plan = _plan(facts, method, mix)
    if monte_carlo:
        expected, stderr = _monte_carlo(facts, plan, method, seed, samples)
    else:
        expected, stderr = expected_welfare(plan, instance, facts.component_welfare), None
        optimum = facts.optimum
    curvature = facts.curvature
    bound = theoretical_bound(method, facts.partition, curvature, optimum.welfare, mix)
    slack = BOUND_TOL if stderr is None else BOUND_TOL + 3.0 * stderr
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
        bound_satisfied=expected >= bound - slack,
        samples=samples if monte_carlo else None,
        stderr=stderr,
    )


def check_arguments(methods: Iterable[Method], mix: Fraction, mode: Mode,
                    samples: int) -> Fraction:
    """Refuses any argument `evaluate` cannot run and returns the mix as a
    `Fraction`. Every method must be a `Method` (a string "threshold" has no
    rule), the mix must lie in [0, 1], the mode must be a `Mode` (a string
    "mc" would run exact mode unchecked) and, in Monte Carlo mode,
    the sample count must be an int from 2, for a standard error, to
    2**31 - 1, the limit of `eval --samples`: a cell's random bits, and its
    distinct sets where a range has more indices than draws (`_split`),
    grow with the count."""
    for method in methods:
        if not isinstance(method, Method):
            raise ValueError(f"method must be a Method, got {method!r}")
    mix = Fraction(mix)
    if not 0 <= mix <= 1:
        raise ValueError(f"mix must lie in [0, 1], got {mix}")
    if not isinstance(mode, Mode):
        raise ValueError(f"mode must be a Mode, got {mode!r}")
    if mode is Mode.MONTE_CARLO and not (type(samples) is int and 2 <= samples <= 2**31 - 1):
        raise ValueError(f"samples must lie in [2, 2**31 - 1] and be an int, got {samples!r}")
    return mix


def _plan(facts: _InstanceFacts, method: Method, mix: Fraction) -> Plan:
    """The rule's components (`aggregation.rule_plan`). Every vote is
    elicited here, and the rules read only the votes, the costs and m. Votes
    are elicited only when the coin gives their components positive weight,
    and rankings only where the shortlist binds: a group within its cap,
    empty or not, is shortlisted whole, unranked."""
    instance, partition = facts.instance, facts.partition
    branches = []
    if mix and method.is_ranking:
        branches = [
            (group, min(len(group), selection_size(partition.m, t)))
            if len(group) <= shortlist_cap(partition.m, t) else
            shortlist_branch(ranking_profile(instance, partition, method, t), partition, t)
            for t, group in enumerate(partition.groups)
        ]
    elif mix:
        profile = approval_profile(instance, partition.thresholds)
        branches = threshold_branches(profile, instance.costs)
    return rule_plan(instance.m, mix, branches)


def _unrank(items: tuple[int, ...], k: int, rank: int) -> tuple[int, ...]:
    """The k-subset of `items` at position `rank` of `itertools.combinations`
    order. Walking the items, C(items after the i-th, open slots - 1)
    subsets take the i-th item: the rank either falls in that block (take
    the item) or skips past it."""
    picked: list[int] = []
    for i, item in enumerate(items):
        slots = k - len(picked)
        if not slots:
            break
        block = math.comb(len(items) - i - 1, slots - 1)
        if rank < block:
            picked.append(item)
        else:
            rank -= block
    return tuple(picked)


#: Bits drawn by one `getrandbits` call of `_binomial`: a multiple of 32.
_CHUNK_BITS = 2**16


def _binomial(rng, n: int, num: int, den: int) -> int:
    """An exact Binomial(n, num/den) draw from fair bits.

    Trial i succeeds when its uniform U_i < p. The binary digits of every
    open trial's U_i are drawn together for each digit of p (integer
    doubling of num mod den): where p's digit is 1, the trials whose digit
    is 0 succeed; where it is 0, the trials whose digit is 1 fail; the rest
    stay open. When p's remaining digits are all 0 the open trials fail.
    Each step closes about half the open trials, so a draw takes about
    log2(n) + 2 digits. A digit's bits are drawn in chunks of `_CHUNK_BITS`,
    so that memory stays flat in n; CPython's `getrandbits` fills its result
    from 32-bit words in order, so the chunks count the same ones and leave
    the generator in the same state as one call for all n bits."""
    if num >= den:
        return n
    successes = 0
    while n and num:
        num *= 2
        ones = 0
        bits = n
        while bits > _CHUNK_BITS:
            ones += rng.getrandbits(_CHUNK_BITS).bit_count()
            bits -= _CHUNK_BITS
        ones += rng.getrandbits(bits).bit_count()
        if num >= den:
            num -= den
            successes += n - ones
            n = ones
        else:
            n -= ones
    return successes


def _split(rng, count: int, lo: int, hi: int, cum: Sequence[int] | None = None) -> Counter:
    """The counts of `count` i.i.d. draws over the indices [lo, hi), where
    index i has weight cum[i+1] - cum[i]; without `cum` every index weighs 1.

    Each range sends a binomial share of its draws to its lower half and the
    rest to its upper half; only non-empty halves are split further. In a
    uniform range with fewer draws than indices, each draw is taken directly:
    draws conditioned on landing in a range are i.i.d. uniform on it."""
    counts: Counter = Counter()
    stack = [(count, lo, hi)]
    while stack:
        count, lo, hi = stack.pop()
        if hi - lo == 1:
            counts[lo] = count
            continue
        if cum is None and count < hi - lo:
            counts.update(lo + rng_mod.below(rng, hi - lo) for _ in range(count))
            continue
        mid = (lo + hi) // 2
        if cum is None:
            left = _binomial(rng, count, mid - lo, hi - lo)
        else:
            left = _binomial(rng, count, cum[mid] - cum[lo], cum[hi] - cum[lo])
        if left:
            stack.append((left, lo, mid))
        if count - left:
            stack.append((count - left, mid, hi))
    return counts


def _monte_carlo(
    facts: _InstanceFacts, plan: Plan, method: Method, seed: int, samples: int
) -> tuple[float, float]:
    """Sample the plan that `evaluate` built `samples` times, from the
    method's stream of the seed; returns (mean, standard error).

    The draws are i.i.d. from the rule, but only their counts are drawn
    (`_split`): first how many samples fall on each component, then how
    many of a component's samples fall on each of its C(|P|, k) subsets,
    a Python int however large. Each distinct set costs one `_unrank` and
    one welfare lookup, weighted by how often it was drawn."""
    instance = facts.instance
    rng = rng_mod.stream(seed, "mc", method.value, instance.m, instance.n)
    support = plan.support
    scale = math.lcm(*(weight.denominator for weight, _, _ in support))
    cum_weights = list(itertools.accumulate((int(weight * scale) for weight, _, _ in support),
                                            initial=0))
    pairs: list[tuple[float, int]] = []
    for index, count in _split(rng, samples, 0, len(support), cum_weights).items():
        _, items, k = support[index]
        ranks = _split(rng, count, 0, math.comb(len(items), k))
        pairs += [(facts.welfare(_unrank(items, k, rank)), times)
                  for rank, times in ranks.items()]
    mean = math.fsum(value * times for value, times in pairs) / samples
    spread = math.fsum(times * (value - mean) ** 2 for value, times in pairs)
    return mean, math.sqrt(spread / (samples - 1)) / math.sqrt(samples)


# ---------------------------------------------------------------------------
# Sweeps


class SweepFailure(NamedTuple):
    """A sweep cell that raised instead of producing a report."""

    instance_id: str
    family: str
    m: int
    n: int
    method: Method
    mix: Fraction
    error: str

    @property
    def mode(self) -> str:
        return f"error:{self.error}"


SweepResult = Union[EvaluationReport, SweepFailure]

CSV_COLUMNS = EvaluationReport._fields


def sweep(
    specs: Sequence[GeneratorSpec],
    methods: Sequence[Method],
    mix: Fraction = DEFAULT_MIX,
    mode: Mode = Mode.EXACT,
    samples: int = 100_000,
) -> list[SweepResult]:
    """Evaluate the cross product of specs and methods.

    Each spec's instance is generated once and passed to `evaluate` once
    per method. Those calls run back to back on one instance, so they share
    its record: the partition, optimum, curvature and component or set
    welfares are computed once per instance rather than once per cell.
    The arguments are checked once, before any instance is generated
    (`check_arguments`), every method included, so a bad one raises;
    per-cell failures become marked rows instead of aborting the sweep."""
    mix = check_arguments(methods, mix, mode, samples)
    results: list[SweepResult] = []
    for spec in specs:
        instance = generate(spec)
        for method in methods:
            try:
                results.append(evaluate(instance, method, mix, mode, spec.seed, samples,
                                        spec.instance_id))
            except Exception as exc:  # noqa: BLE001 - sweep must not abort
                results.append(SweepFailure(
                    instance_id=spec.instance_id, family=spec.family, m=spec.m, n=spec.n,
                    method=method, mix=mix, error=type(exc).__name__))
    return results


def _cell(value) -> str:
    """One CSV cell: blank for None, true or false for a bool, an Enum's
    value, a float's repr, and str of anything else. A cell that holds a
    comma, a double quote or a line break, such as an instance id taken
    from a file name, is quoted with its quotes doubled (RFC 4180)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, enum.Enum):
        return value.value
    text = repr(value) if isinstance(value, float) else str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def render_csv(results: Sequence[SweepResult]) -> str:
    """Byte-stable CSV for identical inputs. A failure has no numeric
    columns, so they are blank, and its mode cell names the error."""
    lines = [",".join(CSV_COLUMNS)]
    for result in results:
        lines.append(",".join(_cell(getattr(result, column, None)) for column in CSV_COLUMNS))
    return "\n".join(lines) + "\n"
