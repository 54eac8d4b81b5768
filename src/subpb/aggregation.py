"""Randomized aggregation rules materialized as exact selection distributions.

Every rule is first written as a plan of its public randomness
(`rule_plan`): a few components (weight, P, k) with exact weights, each
meaning "a uniform k-subset of the sorted items P". The ranking rules mix a
score-shortlist subset draw with a uniform singleton draw; the threshold
rule mixes per-threshold knapsack outcomes S, each the component (S, |S|),
with the same uniform singleton draw. `plan_distribution` expands a plan
into the full discrete distribution over feasible sets, with exact
rational probabilities, so expected welfare and inclusion probabilities can
be computed by enumeration rather than sampling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import AlternativeId, Instance, WelfareValue, social_welfare
from .elicitation import ApprovalProfile, RankingProfile, approval_profile
from .optimize import ExactDP, KnapsackProblem, Solver, solve_knapsack
from .partition import (
    GroupPartition,
    build_partition,
    harmonic_scores,
    selection_size,
    shortlist,
)

DEFAULT_MIX = Fraction(1, 2)


@dataclass(frozen=True)
class SelectionDistribution:
    """Discrete distribution over sets of alternatives.

    Support sets are unique, ordered by their sorted id sequence, and the
    exact rational probabilities sum to 1."""

    support: tuple[tuple[frozenset, Fraction], ...]

    def __post_init__(self):
        total = Fraction(0)
        for items, p in self.support:
            if p <= 0:
                raise ValueError(f"nonpositive probability {p} for {sorted(items)}")
            total += p
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, expected 1")

    @classmethod
    def point(cls, items: Iterable[AlternativeId]) -> "SelectionDistribution":
        return cls(support=((frozenset(items), Fraction(1)),))

    @classmethod
    def uniform_over(cls, sets: Sequence[Iterable[AlternativeId]]) -> "SelectionDistribution":
        p = Fraction(1, len(sets))
        merged: dict[frozenset, Fraction] = {}
        for items in sets:
            key = frozenset(items)
            merged[key] = merged.get(key, Fraction(0)) + p
        return cls(support=_ordered(merged))

    def inclusion_probs(self) -> dict[AlternativeId, Fraction]:
        """Probability that each alternative is selected."""
        probs: dict[int, Fraction] = {}
        for items, p in self.support:
            for a in items:
                probs[a] = probs.get(a, Fraction(0)) + p
        return probs

    def union(self) -> frozenset:
        out: set[int] = set()
        for items, _ in self.support:
            out.update(items)
        return frozenset(out)


def _ordered(merged: dict[frozenset, Fraction]) -> tuple[tuple[frozenset, Fraction], ...]:
    return tuple(
        (items, merged[items]) for items in sorted(merged, key=lambda s: tuple(sorted(s)))
    )


def mix_distributions(
    parts: Sequence[tuple[SelectionDistribution, Fraction]]
) -> SelectionDistribution:
    """Weighted mixture with merged support; weights must sum to 1."""
    merged: dict[frozenset, Fraction] = {}
    for dist, weight in parts:
        if weight == 0:
            continue
        for items, p in dist.support:
            merged[items] = merged.get(items, Fraction(0)) + weight * p
    return SelectionDistribution(support=_ordered(merged))


def validate_support(dist: SelectionDistribution, instance: Instance) -> None:
    """Raise if any support set exceeds the budget (exact rational check)."""
    for items, _ in dist.support:
        if not instance.feasible(items):
            raise ValueError(f"infeasible support set {sorted(items)}")


#: A branch (sorted items P, k) selects a uniform k-subset of P; a point
#: outcome S is (S, |S|). A plan component adds the branch's exact weight.
Branch = tuple[tuple[AlternativeId, ...], int]
Component = tuple[Fraction, tuple[AlternativeId, ...], int]


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


def rule_plan(instance: Instance, mix: Fraction, branches: Sequence[Branch]) -> list[Component]:
    """The coin-flip mixture as components with exact weights summing to 1:
    the uniform singleton with weight 1 - mix, then every branch with an
    equal share of mix (the uniform group or threshold draw). Without
    branches all weight goes to the singleton."""
    coin = mix if branches else Fraction(0)
    share = coin / max(1, len(branches))
    return [(1 - coin, tuple(instance.alternatives), 1)] + [
        (share, items, k) for items, k in branches
    ]


def plan_distribution(plan: Sequence[Component]) -> SelectionDistribution:
    """Expand every weighted component into its C(|P|, k) subsets."""
    parts = []
    for weight, items, k in plan:
        if weight:
            sets = list(map(frozenset, itertools.combinations(items, k)))
            parts.append((SelectionDistribution.uniform_over(sets), weight))
    return mix_distributions(parts)


def rule_a_ranking(
    profile: RankingProfile, partition: GroupPartition, instance: Instance
) -> SelectionDistribution:
    """The score-shortlist rule alone (`shortlist_branch`) as a distribution."""
    return plan_distribution([(Fraction(1), *shortlist_branch(profile, partition))])


def rule_b_uniform(instance: Instance) -> SelectionDistribution:
    """Uniform random singleton; the baseline rule."""
    return plan_distribution(rule_plan(instance, Fraction(0), []))


def aggregate_ranking(
    profile: RankingProfile,
    partition: GroupPartition,
    instance: Instance,
    mix: Fraction = DEFAULT_MIX,
) -> SelectionDistribution:
    """Coin-flip mixture of the shortlist rule and the uniform singleton."""
    branches = [shortlist_branch(profile, partition)]
    return plan_distribution(rule_plan(instance, check_mix(mix), branches))


def rule_a_threshold(
    profile: ApprovalProfile, instance: Instance, solver: Solver = ExactDP()
) -> frozenset:
    """Best feasible set by approval weight, via the chosen knapsack solver."""
    problem = KnapsackProblem(
        profits=profile.weights, costs=instance.costs, capacity=instance.budget
    )
    return solve_knapsack(problem, solver)


def aggregate_threshold(
    instance: Instance,
    mix: Fraction = DEFAULT_MIX,
    solver: Solver = ExactDP(),
    partition: GroupPartition | None = None,
) -> SelectionDistribution:
    """Threshold-approval rule as a full distribution: with probability
    `mix` a uniform threshold is drawn and its knapsack outcome selected;
    otherwise a uniform singleton.

    The whole construction is deterministic; randomness only materializes
    when the distribution is sampled. With a single alternative there are
    no thresholds and all mass goes to the singleton baseline."""
    mix = check_mix(mix)
    if partition is None:
        partition = build_partition(instance)
    branches = threshold_branches(instance, partition, solver) if mix else []
    return plan_distribution(rule_plan(instance, mix, branches))


def expected_welfare(
    dist: SelectionDistribution,
    instance: Instance,
    cache: dict[frozenset, float] | None = None,
) -> WelfareValue:
    """Exact expectation of social welfare under the distribution."""
    total = 0.0
    for items, p in dist.support:
        if cache is None:
            value = social_welfare(instance, items)
        else:
            value = cache.get(items)
            if value is None:
                value = social_welfare(instance, items)
                cache[items] = value
        total += p * value
    return total
