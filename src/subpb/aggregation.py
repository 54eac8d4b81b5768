"""Randomized aggregation rules as plans of their public randomness.

Every rule is written once as a `Plan` (`rule_plan`): a few components
(weight, P, k) with exact positive weights summing to 1, each meaning "a
uniform k-subset of the sorted items P". The ranking rules mix each
group's score-shortlist subset draw with a uniform singleton draw; the
threshold rule mixes per-threshold knapsack outcomes S, each the component
(S, |S|), with the same uniform singleton draw. `expected_welfare` takes
the exact expectation component by component, from each voter's mean value
over the component's subsets (`UtilityOracle.expected_uniform`), without
expanding the plan into its sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import AlternativeId, Instance, WelfareValue
from .elicitation import ApprovalProfile, RankingProfile, approval_profile
from .optimize import ExactDP, KnapsackProblem, Solver, solve_knapsack
from .partition import GroupPartition, harmonic_scores, selection_size, shortlist

DEFAULT_MIX = Fraction(1, 2)

#: A branch (sorted items P, k) selects a uniform k-subset of P; a point
#: outcome S is (S, |S|). A plan component adds the branch's exact weight.
Branch = tuple[tuple[AlternativeId, ...], int]
Component = tuple[Fraction, tuple[AlternativeId, ...], int]


@dataclass(frozen=True)
class Plan:
    """A rule's public randomness: components with positive exact weights
    summing to 1."""

    support: tuple[Component, ...]

    def __post_init__(self):
        total = sum(weight for weight, _, _ in self.support)
        if total != 1 or any(weight <= 0 for weight, _, _ in self.support):
            raise ValueError(f"plan weights must be positive and sum to 1, got {self.support}")


def check_mix(mix: Fraction) -> Fraction:
    """The coin weight of the rule-A branch, which must lie in [0, 1]."""
    mix = Fraction(mix)
    if not 0 <= mix <= 1:
        raise ValueError(f"mix must lie in [0, 1], got {mix}")
    return mix


def shortlist_branch(profile: RankingProfile, partition: GroupPartition) -> Branch:
    """Score-shortlist rule for a ranked group: the top scorers P of G_t, of
    which a uniform subset of size k = floor(1/u_t) (capped at |P|) is
    selected. Feasible because the subset holds at most 1/u_t members each
    costing at most u_t. An empty group selects nothing."""
    t = profile.group_index
    if not profile.group:
        return (), 0
    chosen, _ = shortlist(partition, harmonic_scores(profile), t)
    return chosen, min(len(chosen), selection_size(partition.m, t))


def threshold_branches(
    instance: Instance, partition: GroupPartition, solver: Solver = ExactDP()
) -> list[Branch]:
    """Each threshold's knapsack outcome S as the point branch (S, |S|)."""
    outcomes = (rule_a_threshold(approval_profile(instance, alpha), instance, solver)
                for alpha in partition.thresholds)
    return [(tuple(sorted(outcome)), len(outcome)) for outcome in outcomes]


def rule_plan(instance: Instance, mix: Fraction, branches: Sequence[Branch]) -> Plan:
    """The coin-flip mixture: the uniform singleton with weight 1 - mix,
    then every branch with an equal share of mix (the uniform group or
    threshold draw). Without branches all weight goes to the singleton;
    components of weight 0 are left out."""
    coin = mix if branches else Fraction(0)
    share = coin / max(1, len(branches))
    components = [(1 - coin, tuple(instance.alternatives), 1)] + [
        (share, items, k) for items, k in branches
    ]
    return Plan(tuple(c for c in components if c[0]))


def rule_a_threshold(
    profile: ApprovalProfile, instance: Instance, solver: Solver = ExactDP()
) -> frozenset:
    """Best feasible set by approval weight, via the chosen knapsack solver."""
    problem = KnapsackProblem(
        profits=profile.weights, costs=instance.costs, capacity=instance.budget
    )
    return solve_knapsack(problem, solver)


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
            value = cache[items, k] = sum(v.expected_uniform(items, k) for v in instance.voters)
        total += weight * value
    return total
