"""Randomized aggregation rules as plans of their public randomness.

A rule reads the votes, the costs and m, nothing else: `experiment._plan`
elicits every vote and hands the votes over as plain tuples. A binding
group's rankings give harmonic scores, which pick its shortlist, and the
approval counts at each threshold are the knapsack profits. Every rule is
written once as a `Plan` (`rule_plan`): a few components (weight, P, k)
with exact positive weights summing to 1, each meaning "a uniform k-subset
of the sorted items P". The ranking rules mix each group's score-shortlist
subset draw with a uniform singleton draw; the threshold rule mixes
per-threshold knapsack outcomes S, each the component (S, |S|), with the
same uniform singleton draw. Its knapsack is exact
(`optimize.solve_knapsack`).

`expected_welfare` evaluates a plan and is not a rule, so it alone reads
the instance: the exact expectation, component by component, from the
mean welfare of the component's subsets (`expected_uniform` of the
instance's welfare oracle, `core.welfare_oracle`), in closed form for the
coverage and max-value parts, with only the concave part walking the
subsets.

Where the paper ends: PAPER.md holds only its abstract, which names the
three elicitation formats and distortion. The rest is this repository's
reconstruction: the cost group boundaries, the thresholds l_t = 2^(t-1)/m,
the shortlist cap floor(sqrt(m)/u_t) and both guarantee constants of
`experiment.theoretical_bound`. The threshold guarantee fails on
`tests/data/threshold_gap_m16.json` (E[W] 0.039288 against a bound of
0.050444, exit 5), which breaks proof step L4 of ROADMAP item 27.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .core import AlternativeId, Instance, WelfareValue
from .optimize import KnapsackProblem, solve_knapsack
from .partition import GroupPartition, harmonic_scores, selection_size, shortlist

DEFAULT_MIX = Fraction(1, 2)

#: A branch (sorted items P, k) selects a uniform k-subset of P; a point
#: outcome S is (S, |S|). A plan component adds the branch's exact weight.
Branch = tuple[tuple[AlternativeId, ...], int]
Component = tuple[Fraction, tuple[AlternativeId, ...], int]


class _PlanFields(NamedTuple):
    support: tuple[Component, ...]


class Plan(_PlanFields):
    """A rule's public randomness: components with positive exact weights
    summing to 1, which the constructor checks."""

    __slots__ = ()

    def __new__(cls, support: tuple[Component, ...]):
        total = sum(weight for weight, _, _ in support)
        if total != 1 or any(weight <= 0 for weight, _, _ in support):
            raise ValueError(f"plan weights must be positive and sum to 1, got {support}")
        return super().__new__(cls, support)

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through `_make`, which would skip `__new__`.
        return cls(*iterable)


def shortlist_branch(
    rankings: Sequence[Sequence[AlternativeId]], partition: GroupPartition, t: int
) -> Branch:
    """Score-shortlist rule for the rankings of the non-empty group G_t: the
    top harmonic scorers P of G_t, of which a uniform subset of size
    k = floor(1/u_t) (capped at |P|) is selected. Feasible because the
    subset holds at most 1/u_t members each costing at most u_t."""
    chosen = shortlist(partition, harmonic_scores(rankings), t)
    return chosen, min(len(chosen), selection_size(partition.m, t))


def threshold_branches(profile: Sequence[Sequence[int]],
                       costs: Sequence[Fraction]) -> list[Branch]:
    """Each threshold's knapsack outcome S, from its approval counts, as (S, |S|)."""
    outcomes = (rule_a_threshold(counts, costs) for counts in profile)
    return [(tuple(sorted(outcome)), len(outcome)) for outcome in outcomes]


def rule_plan(m: int, mix: Fraction, branches: Sequence[Branch]) -> Plan:
    """The coin-flip mixture: the uniform singleton over the m alternatives
    with weight 1 - mix, then every branch with an equal share of mix (the
    uniform group or threshold draw). Without branches all weight goes to
    the singleton; components of weight 0 are left out."""
    coin = mix if branches else Fraction(0)
    share = coin / max(1, len(branches))
    components = [(1 - coin, tuple(range(m)), 1)] + [
        (share, items, k) for items, k in branches
    ]
    return Plan(tuple(c for c in components if c[0]))


def rule_a_threshold(counts: Sequence[int], costs: Sequence[Fraction]) -> frozenset:
    """Best feasible set by the approval counts of one threshold
    (`optimize.solve_knapsack`)."""
    return solve_knapsack(KnapsackProblem(profits=tuple(counts), costs=tuple(costs)))


def expected_welfare(
    plan: Plan,
    instance: Instance,
    cache: dict[tuple[tuple[AlternativeId, ...], int], float] | None = None,
) -> WelfareValue:
    """Exact expectation of social welfare under the plan. `cache` keeps
    each component's mean welfare by (P, k) across calls."""
    cache = {} if cache is None else cache
    total = 0.0
    for weight, items, k in plan.support:
        value = cache.get((items, k))
        if value is None:
            value = cache[items, k] = instance.welfare.expected_uniform(items, k)
        total += weight * value
    return total
