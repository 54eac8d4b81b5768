"""Independent oracles and exhaustive checkers shared across the test suite.

Everything here deliberately avoids the production code paths it is used
to verify: the knapsack and welfare oracles enumerate subsets directly,
the reference optimum walks every skip and compares every leaf's id
sequence, the property checkers and the reference greedy ranking evaluate
each set from its family's formula (`direct_value`), written apart from
the voters' own closed-form `value` and from the welfare parts' states,
and the rules' plans are expanded into full selection distributions with
exact rational probabilities, so that expected welfare and inclusion
probabilities can be computed by enumeration rather than in closed form.
The reference plan ranks every non-empty cost group, including those whose
shortlist is the whole group.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from subpb.aggregation import (
    DEFAULT_MIX,
    Plan,
    check_mix,
    rule_plan,
    shortlist_branch,
    threshold_branches,
)
from subpb.core import (
    AdditiveOracle,
    AlternativeId,
    ConcaveOverModularOracle,
    ConcaveSumOracle,
    CoverageOracle,
    CoverageSumOracle,
    Instance,
    MaxValueOracle,
    MaxValueSumOracle,
    SumOracle,
    UtilityOracle,
    Voter,
    social_welfare,
    welfare_oracle,
)
from subpb.elicitation import Method, ranking_profile
from subpb.optimize import KnapsackProblem, OptimalBundle, _integer_costs
from subpb.partition import GroupPartition, build_partition

TOL = 1e-9

# Negative gains inside this band are floating-point noise of the set-by-set
# evaluation; the reference greedy ranking clamps them to zero.
MARGINAL_CLAMP = 1e-12


def powerset(universe):
    items = list(universe)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def feasible(instance: Instance, items) -> bool:
    """Whether a set's exact total cost fits the budget of 1."""
    return sum((instance.costs[a] for a in items), Fraction(0)) <= 1


def profit(problem: KnapsackProblem, items) -> int:
    return sum(problem.profits[a] for a in items)


def brute_force_knapsack(problem: KnapsackProblem) -> frozenset:
    """Max-profit subset within budget 1 by full enumeration; ties broken
    toward the lexicographically smallest id sequence."""
    best_profit = -1
    best_seq = None
    for combo in powerset(range(problem.size)):
        cost = sum((problem.costs[a] for a in combo), Fraction(0))
        if cost > 1:
            continue
        value = profit(problem, combo)
        if value > best_profit or (value == best_profit and combo < best_seq):
            best_profit = value
            best_seq = combo
    return frozenset(best_seq)


def brute_force_best_welfare(instance: Instance) -> tuple[frozenset, float]:
    """The welfare maximum over all feasible subsets by full enumeration,
    with the lexicographically smallest id sequence among the maximal
    feasible subsets (no other alternative fits) that attain it."""
    fits = [c for c in powerset(instance.alternatives) if feasible(instance, c)]
    welfare = {c: social_welfare(instance, c) for c in fits}
    best_welfare = max(welfare.values())
    maximal = [c for c in fits if not any(
        feasible(instance, c + (a,)) for a in instance.alternatives if a not in c)]
    best = min(c for c in maximal if welfare[c] == best_welfare)
    return frozenset(best), best_welfare


def optimum_by_recursion(instance: Instance) -> OptimalBundle:
    """The exhaustive optimum by a depth-first walk that recurses on every
    take and every skip, skipping first, and compares each maximal leaf's id
    sequence as a tuple: the smallest sequence among maximal optima wins.
    Items and welfare come from the same states of `Instance.welfare` as in
    `optimize.optimal_welfare`, so both agree bit for bit."""
    m = instance.m
    oracle = instance.welfare
    costs, budget = _integer_costs(instance.costs)
    rest = list(itertools.accumulate(reversed(costs), initial=0))[::-1]
    best_welfare = -1.0
    best_seq: tuple[int, ...] | None = None
    chosen: list[int] = []

    def explore(idx: int, cost: int, cheapest_skipped: int, state: tuple) -> None:
        nonlocal best_welfare, best_seq
        if idx == m:
            welfare = state[0]
            seq = tuple(chosen)
            if welfare > best_welfare or (
                welfare == best_welfare and (best_seq is None or seq < best_seq)
            ):
                best_welfare = welfare
                best_seq = seq
            return
        # A skip is explored only if taking every remaining item after it
        # leaves no room for the cheapest item skipped.
        skipped = min(cheapest_skipped, costs[idx])
        if budget - cost - rest[idx + 1] < skipped:
            explore(idx + 1, cost, skipped, state)
        new_cost = cost + costs[idx]
        if new_cost <= budget:
            chosen.append(idx)
            explore(idx + 1, new_cost, cheapest_skipped, oracle.extend(state, idx))
            chosen.pop()

    explore(0, 0, budget + 1, oracle.start())
    assert best_seq is not None
    return OptimalBundle(items=frozenset(best_seq), welfare=best_welfare)


def left_sum(values: Iterable[float]) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def direct_value(oracle: Voter | UtilityOracle, items) -> float:
    """Scaled f(S), written straight from the family's formula: a sum, the
    weight of a union, a power of an inner sum, a maximum, the sum of such
    powers or maxima over a merged part's voters, the weight of the cover
    signatures that meet S, or the sum over a `SumOracle`'s parts."""
    items = list(items)
    if isinstance(oracle, SumOracle):
        return sum(direct_value(part, items) for part in oracle.parts)
    if isinstance(oracle, ConcaveSumOracle):
        total = 0.0
        for v, (gamma, scale) in enumerate(zip(oracle.gammas, oracle.scales)):
            inner = sum(oracle.columns[a][v] for a in items)
            total += (inner**gamma if inner > 0.0 else 0.0) * scale
        return total
    if isinstance(oracle, MaxValueSumOracle):
        return sum(max((row[a] for a in items), default=0.0) * scale
                   for row, scale in zip(oracle.rows, oracle.scales))
    if isinstance(oracle, CoverageSumOracle):
        return sum(w for w, signature in zip(oracle.weights, oracle.signatures)
                   if any(signature >> a & 1 for a in items))
    # A voter's sums add in the order the items come, as its closed form
    # does on every Python version; builtin `sum` is compensated from 3.12.
    if isinstance(oracle, AdditiveOracle):
        raw = left_sum(oracle.values[a] for a in items)
    elif isinstance(oracle, CoverageOracle):
        covered = {u for a in items for u in range(len(oracle.weights))
                   if oracle.cover_masks[a] >> u & 1}
        raw = left_sum(oracle.weights[u] for u in sorted(covered))
    elif isinstance(oracle, ConcaveOverModularOracle):
        inner = left_sum(oracle.values[a] for a in items)
        raw = inner**oracle.gamma if inner > 0.0 else 0.0
    elif isinstance(oracle, MaxValueOracle):
        raw = max((oracle.values[a] for a in items), default=0.0)
    else:
        raise TypeError(f"no direct formula for {type(oracle).__name__}")
    return raw * oracle.scale


def signature_masks(signatures: Sequence[int], m: int) -> list[int]:
    """Signatures transposed into per-alternative masks: bit j of masks[a]
    is set when signature j contains a."""
    masks = [0] * m
    for j, signature in enumerate(signatures):
        for a in range(m):
            if signature >> a & 1:
                masks[a] |= 1 << j
    return masks


def mask_walk_values(weights: Sequence[float], masks: Sequence[int], sequence) -> list[float]:
    """Running values of a coverage function over element masks, for the
    alternatives added in order: each step sums the weights of the newly
    covered elements one bit at a time, ascending, and adds that gain."""
    value, covered, values = 0.0, 0, []
    for a in sequence:
        added, gain = masks[a] & ~covered, 0.0
        for j in range(len(weights)):
            if added >> j & 1:
                gain += weights[j]
        value += gain
        covered |= masks[a]
        values.append(value)
    return values


def mask_walk_expected_uniform(weights: Sequence[float], masks: Sequence[int], items,
                               k: int) -> float:
    """The closed-form coverage mean over element masks: each element's
    depth counted bit by bit over the items, then fsum of w times the
    number of k-subsets that cover it, over the number of k-subsets."""
    depth = [0] * len(weights)
    for a in items:
        for j in range(len(weights)):
            depth[j] += masks[a] >> j & 1
    n = len(items)
    subsets = math.comb(n, k)
    return math.fsum(w * (subsets - math.comb(n - d, k))
                     for w, d in zip(weights, depth) if d) / subsets


def brute_force_expected_uniform(oracle: Voter | UtilityOracle, items, k: int) -> float:
    """Mean value of the k-subsets of `items`, each evaluated directly."""
    values = [direct_value(oracle, c) for c in itertools.combinations(items, k)]
    return math.fsum(values) / len(values)


def random_oracles(rng: random.Random, m: int) -> list[Voter]:
    """One voter per family. Max values are drawn from three levels, so
    ties are common; coverage element 0 is covered by every alternative and
    the last element by none, so coverage gains are often zero or tied."""
    values = [rng.uniform(0.05, 1.0) for _ in range(m)]
    universe = rng.randint(2, 6)
    covers = [[0] + sorted(rng.sample(range(1, universe), rng.randint(0, universe - 1)))
              for _ in range(m)]
    return [
        AdditiveOracle.normalized(values),
        CoverageOracle.normalized(
            [rng.uniform(0.1, 1.0) for _ in range(universe + 1)], covers),
        ConcaveOverModularOracle.normalized(values, rng.uniform(0.3, 1.0)),
        MaxValueOracle.normalized([rng.choice([0.25, 0.5, 1.0]) for _ in range(m)]),
    ]


def rank_by_rebuilding(oracle: Voter, group) -> tuple[AlternativeId, ...]:
    """The greedy marginal-gain ranking with every gain evaluated against the
    whole prefix set, rebuilt per candidate; ties by ascending id."""
    remaining = sorted(group)
    prefix: list[int] = []
    while remaining:
        best, best_gain = None, -1.0
        for a in remaining:
            gain = direct_value(oracle, prefix + [a]) - direct_value(oracle, prefix)
            if -MARGINAL_CLAMP <= gain < 0.0:
                gain = 0.0
            if gain > best_gain:
                best, best_gain = a, gain
        prefix.append(best)
        remaining.remove(best)
    return tuple(prefix)


def singleton_reference(oracle: Voter, m: int) -> tuple[list[float], list[float]]:
    """Standalone values f({a}) and last gains f(A) - f(A - a) over the m
    alternatives, each set evaluated directly."""
    grand = list(range(m))
    full = direct_value(oracle, grand)
    return ([direct_value(oracle, [a]) for a in grand],
            [full - direct_value(oracle, [b for b in grand if b != a]) for a in grand])


def extend_gains(voter: Voter, sequence) -> list[float]:
    """The value each `extend` of the voter's one-voter welfare part
    (`welfare_oracle((voter,))`) adds, for the alternatives added in order."""
    part = welfare_oracle((voter,))
    state = part.start()
    gains = []
    for a in sequence:
        after = part.extend(state, a)
        gains.append(after[0] - state[0])
        state = after
    return gains


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
        if not feasible(instance, items):
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


def reference_plan(instance: Instance, method: Method, mix: Fraction,
                   eps: float = 0.0) -> Plan:
    """The rule's plan with every non-empty group ranked, whether or not its
    shortlist binds: the score shortlist of each group from its votes, the
    empty group as ((), 0)."""
    mix = check_mix(mix)
    partition = build_partition(instance)
    branches = []
    if mix and method.is_ranking:
        branches = [
            shortlist_branch(ranking_profile(instance, partition, method, t), partition, t)
            if partition.groups[t] else ((), 0)
            for t in range(partition.T + 1)
        ]
    elif mix:
        branches = threshold_branches(instance, partition, eps)
    return rule_plan(instance, mix, branches)


def rule_a_ranking(
    rankings: Sequence[Sequence[AlternativeId]], partition: GroupPartition, t: int
) -> SelectionDistribution:
    """The score-shortlist rule alone (`shortlist_branch`) on the rankings of
    group t, as a distribution."""
    return plan_distribution(Plan(((Fraction(1), *shortlist_branch(rankings, partition, t)),)))


def rule_b_uniform(instance: Instance) -> SelectionDistribution:
    """Uniform random singleton; the baseline rule."""
    return plan_distribution(rule_plan(instance, Fraction(0), []))


def aggregate_ranking(
    rankings: Sequence[Sequence[AlternativeId]],
    partition: GroupPartition,
    t: int,
    instance: Instance,
    mix: Fraction = DEFAULT_MIX,
) -> SelectionDistribution:
    """Coin-flip mixture of group t's shortlist rule and the uniform singleton."""
    branches = [shortlist_branch(rankings, partition, t)]
    return plan_distribution(rule_plan(instance, check_mix(mix), branches))


def aggregate_threshold(
    instance: Instance, mix: Fraction = DEFAULT_MIX, eps: float = 0.0
) -> SelectionDistribution:
    """Threshold-approval rule: with probability `mix` a uniform threshold's
    knapsack outcome, otherwise a uniform singleton. With a single
    alternative there are no thresholds and all mass goes to the singleton."""
    mix = check_mix(mix)
    branches = threshold_branches(instance, build_partition(instance), eps) if mix else []
    return plan_distribution(rule_plan(instance, mix, branches))


def direct_value_table(oracle: Voter | UtilityOracle, m: int) -> list[float]:
    """Values of all subsets of the m alternatives, indexed by bit mask, by
    direct per-set evaluation (no states)."""
    return [direct_value(oracle, [a for a in range(m) if mask >> a & 1])
            for mask in range(1 << m)]


def check_normalized(table: Sequence[float]) -> None:
    assert table[0] == 0.0
    assert abs(table[-1] - 1.0) <= 1e-12


def _gains(table: Sequence[float], a: int) -> dict[int, float]:
    """f(S + a) - f(S) for every mask S without a."""
    bit = 1 << a
    return {mask: table[mask | bit] - table[mask] for mask in range(len(table))
            if not mask & bit}


def check_monotone(table: Sequence[float], m: int, tol: float = TOL) -> None:
    for a in range(m):
        worst = min(_gains(table, a).values())
        assert worst >= -tol, f"adding {a} loses {-worst}"


def check_submodular(table: Sequence[float], m: int, tol: float = TOL) -> None:
    for a in range(m):
        gains = _gains(table, a)
        for b in range(m):
            if a == b:
                continue
            worst = min(gains[mask] - gains[mask | 1 << b] for mask in gains
                        if not mask >> b & 1)
            assert worst >= -tol, f"marginal of {a} grows after adding {b} by {-worst}"


def check_curvature_floor(table: Sequence[float], m: int, curvature: float,
                          tol: float = TOL) -> None:
    """Every marginal is at least (1 - c) times the standalone value."""
    keep = 1.0 - curvature
    for a in range(m):
        floor = keep * table[1 << a]
        worst = min(gain - floor for gain in _gains(table, a).values())
        assert worst >= -tol, f"curvature floor broken at {a} by {-worst}"
