"""Independent oracles and exhaustive checkers shared across the test suite.

Everything here deliberately avoids the production code paths it is used
to verify: the knapsack and welfare oracles enumerate subsets directly,
the property checkers evaluate oracles set by set instead of going through
the incremental trackers, and the rules' plans are expanded into full
selection distributions with exact rational probabilities, so that expected
welfare and inclusion probabilities can be computed by enumeration rather
than in closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from subpb.aggregation import (
    DEFAULT_MIX,
    Plan,
    check_mix,
    rule_plan,
    shortlist_branch,
    threshold_branches,
)
from subpb.core import AlternativeId, Instance, UtilityOracle, social_welfare
from subpb.elicitation import RankingProfile
from subpb.optimize import ExactDP, KnapsackProblem, Solver
from subpb.partition import GroupPartition, build_partition

TOL = 1e-9


def powerset(universe):
    items = list(universe)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def brute_force_knapsack(problem: KnapsackProblem) -> frozenset:
    """Max-profit feasible subset by full enumeration; ties broken toward the
    lexicographically smallest id sequence."""
    best_profit = -1
    best_seq = None
    for combo in powerset(range(problem.size)):
        cost = sum((problem.costs[a] for a in combo), Fraction(0))
        if cost > problem.capacity:
            continue
        profit = problem.profit(combo)
        if profit > best_profit or (profit == best_profit and combo < best_seq):
            best_profit = profit
            best_seq = combo
    return frozenset(best_seq)


def brute_force_best_welfare(instance: Instance) -> tuple[frozenset, float]:
    """The welfare maximum over all feasible subsets by full enumeration,
    with the lexicographically smallest id sequence among the maximal
    feasible subsets (no other alternative fits) that attain it."""
    feasible = [c for c in powerset(instance.alternatives) if instance.feasible(c)]
    welfare = {c: social_welfare(instance, c) for c in feasible}
    best_welfare = max(welfare.values())
    maximal = [c for c in feasible if not any(
        instance.feasible(c + (a,)) for a in instance.alternatives if a not in c)]
    best = min(c for c in maximal if welfare[c] == best_welfare)
    return frozenset(best), best_welfare


def brute_force_expected_uniform(oracle: UtilityOracle, items, k: int) -> float:
    """Mean value of the k-subsets of `items`, each evaluated directly."""
    values = [oracle.value(c) for c in itertools.combinations(items, k)]
    return math.fsum(values) / len(values)


# ---------------------------------------------------------------------------
# Plans expanded into full selection distributions


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
        for items, p in dist.support:
            merged[items] = merged.get(items, Fraction(0)) + weight * p
    return SelectionDistribution(support=_ordered(merged))


def validate_support(dist: SelectionDistribution, instance: Instance) -> None:
    """Raise if any support set exceeds the budget (exact rational check)."""
    for items, _ in dist.support:
        if not instance.feasible(items):
            raise ValueError(f"infeasible support set {sorted(items)}")


def plan_distribution(plan: Plan) -> SelectionDistribution:
    """Expand every weighted component into its C(|P|, k) subsets."""
    return mix_distributions([
        (SelectionDistribution.uniform_over(list(itertools.combinations(items, k))), weight)
        for weight, items, k in plan.support
    ])


def distribution_welfare(dist: SelectionDistribution, instance: Instance) -> float:
    """Expected social welfare by summing over every support set."""
    return math.fsum(p * social_welfare(instance, items) for items, p in dist.support)


def rule_a_ranking(
    profile: RankingProfile, partition: GroupPartition, instance: Instance
) -> SelectionDistribution:
    """The score-shortlist rule alone (`shortlist_branch`) as a distribution."""
    return plan_distribution(Plan(((Fraction(1), *shortlist_branch(profile, partition)),)))


def rule_b_uniform(instance: Instance) -> SelectionDistribution:
    """Uniform random singleton; the baseline rule."""
    return plan_distribution(rule_plan(instance, Fraction(0), []))


def aggregate_ranking(
    profile: RankingProfile,
    partition: GroupPartition,
    instance: Instance,
    mix: Fraction = DEFAULT_MIX,
) -> SelectionDistribution:
    """Coin-flip mixture of one group's shortlist rule and the uniform singleton."""
    branches = [shortlist_branch(profile, partition)]
    return plan_distribution(rule_plan(instance, check_mix(mix), branches))


def aggregate_threshold(
    instance: Instance, mix: Fraction = DEFAULT_MIX, solver: Solver = ExactDP()
) -> SelectionDistribution:
    """Threshold-approval rule: with probability `mix` a uniform threshold's
    knapsack outcome, otherwise a uniform singleton. With a single
    alternative there are no thresholds and all mass goes to the singleton."""
    mix = check_mix(mix)
    branches = threshold_branches(instance, build_partition(instance), solver) if mix else []
    return plan_distribution(rule_plan(instance, mix, branches))


def direct_value_table(oracle: UtilityOracle) -> np.ndarray:
    """Values of all subsets by direct per-set evaluation (no trackers)."""
    m = oracle.m
    table = np.empty(1 << m)
    for mask in range(1 << m):
        members = [a for a in range(m) if mask >> a & 1]
        table[mask] = oracle.value(members)
    return table


def check_normalized(table: np.ndarray) -> None:
    assert table[0] == 0.0
    assert abs(table[-1] - 1.0) <= 1e-12


def check_monotone(table: np.ndarray, m: int, tol: float = TOL) -> None:
    idx = np.arange(len(table))
    for a in range(m):
        without = idx[(idx >> a) & 1 == 0]
        gains = table[without | (1 << a)] - table[without]
        worst = gains.min()
        assert worst >= -tol, f"adding {a} loses {-worst}"


def check_submodular(table: np.ndarray, m: int, tol: float = TOL) -> None:
    idx = np.arange(len(table))
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            base = idx[((idx >> a) & 1 == 0) & ((idx >> b) & 1 == 0)]
            small = table[base | (1 << a)] - table[base]
            large = table[base | (1 << a) | (1 << b)] - table[base | (1 << b)]
            worst = (small - large).min()
            assert worst >= -tol, f"marginal of {a} grows after adding {b} by {-worst}"


def check_curvature_floor(table: np.ndarray, m: int, curvature: float,
                          tol: float = TOL) -> None:
    """Every marginal is at least (1 - c) times the standalone value."""
    idx = np.arange(len(table))
    keep = 1.0 - curvature
    for a in range(m):
        single = table[1 << a]
        without = idx[(idx >> a) & 1 == 0]
        gains = table[without | (1 << a)] - table[without]
        worst = (gains - keep * single).min()
        assert worst >= -tol, f"curvature floor broken at {a} by {-worst}"
