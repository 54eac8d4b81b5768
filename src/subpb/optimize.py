"""Exact and approximate knapsack solvers, plus the exhaustive welfare oracle.

The exact solver runs a profit-indexed dynamic program over costs scaled
to exact integers (profits are small integers, so this is cheap at desk
scale) and breaks ties toward the lexicographically smallest id sequence.
The FPTAS rescales profits and reuses the exact solver. The welfare oracle
enumerates the maximal feasible subsets (those no unchosen alternative fits
into) over the same integer costs: utilities are monotone, so one of them
is optimal. Submodular upper-bound pruning is not used.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .core import AlternativeId, Instance, WelfareValue

#: Exhaustive enumeration is refused above this many alternatives.
EXACT_ENUMERATION_LIMIT = 24


class ExceedsExactBudget(Exception):
    """The instance is too large for exhaustive enumeration."""


@dataclass(frozen=True)
class KnapsackProblem:
    """Integer profits, exact rational costs, capacity 1 unless overridden."""

    profits: tuple[int, ...]
    costs: tuple[Fraction, ...]
    capacity: Fraction = Fraction(1)

    def __post_init__(self):
        if len(self.profits) != len(self.costs):
            raise ValueError("profits and costs must align")
        for p in self.profits:
            if p < 0 or p != int(p):
                raise ValueError(f"profits must be nonnegative integers, got {p}")

    @property
    def size(self) -> int:
        return len(self.profits)

    def profit(self, items: Iterable[int]) -> int:
        return sum(self.profits[a] for a in items)


@dataclass(frozen=True)
class ExactDP:
    """Marker for the exact dynamic-programming solver."""


@dataclass(frozen=True)
class Fptas:
    """Profit-scaling approximation scheme with guarantee (1 - eps)."""

    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")


Solver = Union[ExactDP, Fptas]


def _integer_costs(costs: Sequence[Fraction], budget: Fraction) -> tuple[list[int], int]:
    """Costs and budget times the LCM of their denominators: exact integers
    that add and compare like the rationals."""
    scale = math.lcm(budget.denominator, *(c.denominator for c in costs))
    return [int(c * scale) for c in costs], int(budget * scale)


def _suffix_min_cost(profits: Sequence[int], costs: Sequence[int]) -> list[list[int | None]]:
    """suffix[j][q]: minimal cost of a subset of items j.. with profit exactly q."""
    total = sum(profits)
    size = len(profits)
    suffix: list[list[int | None]] = [[None] * (total + 1) for _ in range(size + 1)]
    suffix[size][0] = 0
    for j in reversed(range(size)):
        p, c = profits[j], costs[j]
        nxt = suffix[j + 1]
        row = suffix[j]
        for q in range(total + 1):
            best = nxt[q]
            if q >= p and nxt[q - p] is not None:
                with_j = nxt[q - p] + c
                if best is None or with_j < best:
                    best = with_j
            row[q] = best
    return suffix


def knapsack_exact(problem: KnapsackProblem) -> frozenset:
    """Maximum-profit feasible set; among optima, the lexicographically
    smallest id sequence (so the empty set wins when all profits are zero)."""
    costs, capacity = _integer_costs(problem.costs, problem.capacity)
    suffix = _suffix_min_cost(problem.profits, costs)
    opt = max(
        q
        for q, cost in enumerate(suffix[0])
        if cost is not None and cost <= capacity
    )
    chosen: list[int] = []
    budget = capacity
    need = opt
    for j in range(problem.size):
        if need == 0:
            break
        p, c = problem.profits[j], costs[j]
        if p <= need and c <= budget:
            rest = suffix[j + 1][need - p]
            if rest is not None and rest <= budget - c:
                chosen.append(j)
                budget -= c
                need -= p
    return frozenset(chosen)


def knapsack_fptas(problem: KnapsackProblem, eps: float) -> frozenset:
    """Feasible set with profit >= (1 - eps) * OPT via profit scaling.

    Scaling factor K = eps * max profit / size; when K <= 1 scaling cannot
    coarsen anything and the exact solver runs directly."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    top = max(problem.profits, default=0)
    if top == 0:
        return frozenset()
    scale = eps * top / problem.size
    if scale <= 1.0:
        return knapsack_exact(problem)
    scaled = KnapsackProblem(
        profits=tuple(int(p / scale) for p in problem.profits),
        costs=problem.costs,
        capacity=problem.capacity,
    )
    return knapsack_exact(scaled)


def solve_knapsack(problem: KnapsackProblem, solver: Solver) -> frozenset:
    if isinstance(solver, ExactDP):
        return knapsack_exact(problem)
    if isinstance(solver, Fptas):
        return knapsack_fptas(problem, solver.eps)
    raise TypeError(f"unknown solver {solver!r}")


@dataclass(frozen=True)
class OptimalBundle:
    """A welfare-maximizing feasible set and its social welfare."""

    items: frozenset
    welfare: WelfareValue


def optimal_welfare(instance: Instance) -> OptimalBundle:
    """Exhaustive welfare maximization over the maximal feasible subsets.

    Depth-first enumeration over exact integer costs; voter values are
    maintained incrementally. A node is pruned when even taking every
    remaining item would leave room for the cheapest item skipped so far:
    no completion of it is maximal. Ties go to the lexicographically smallest
    id sequence among maximal optima. Raises ExceedsExactBudget above the
    enumeration limit."""
    m = instance.m
    if m > EXACT_ENUMERATION_LIMIT:
        raise ExceedsExactBudget(
            f"m={m} exceeds the exhaustive limit of {EXACT_ENUMERATION_LIMIT}"
        )
    trackers = [v.tracker() for v in instance.voters]
    costs, budget = _integer_costs(instance.costs, instance.budget)
    rest = list(itertools.accumulate(reversed(costs), initial=0))[::-1]
    best_welfare = -1.0
    best_seq: tuple[int, ...] | None = None
    chosen: list[int] = []

    def explore(idx: int, cost: int, welfare: float, cheapest_skipped: int) -> None:
        nonlocal best_welfare, best_seq
        if idx == m:
            seq = tuple(chosen)
            if welfare > best_welfare or (
                welfare == best_welfare and (best_seq is None or seq < best_seq)
            ):
                best_welfare = welfare
                best_seq = seq
            return
        # Taking an item leaves budget - cost - rest[idx] unchanged, so only
        # a skip can leave room for a skipped item in every completion.
        skipped = min(cheapest_skipped, costs[idx])
        if budget - cost - rest[idx + 1] < skipped:
            explore(idx + 1, cost, welfare, skipped)
        new_cost = cost + costs[idx]
        if new_cost <= budget:
            gained = welfare
            for tracker in trackers:
                gained += tracker.push(idx)
            chosen.append(idx)
            explore(idx + 1, new_cost, gained, cheapest_skipped)
            chosen.pop()
            for tracker in trackers:
                tracker.pop()

    explore(0, 0, 0.0, budget + 1)
    assert best_seq is not None
    return OptimalBundle(items=frozenset(best_seq), welfare=best_welfare)
