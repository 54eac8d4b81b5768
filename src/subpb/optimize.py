"""The threshold rule's knapsack solver, plus the exhaustive welfare optimum.

The knapsack solver is named by its eps alone (`solve_knapsack`). At
eps = 0 it is exact: it scales costs to exact integers and builds the
suffix Pareto frontiers of (cost, profit) points (Nemhauser & Ullmann
1969). A frontier holds at most min(scaled budget, total profit) + 1
points, so it stays as narrow as the narrower of the two axes: many coprime
cost denominators widen only the budget axis, and many approvals only the
profit axis. Ties break toward the lexicographically smallest id sequence.
At eps in (0, 1) it first scales the profits down (the FPTAS), which
narrows the frontiers further, and then runs the same exact solver. The
optimum enumerates the maximal feasible subsets (those no unchosen
alternative fits into) over the same integer costs: utilities are monotone,
so one of them is optimal. The walk recurses only to take an item; skips
advance a loop. Two completions are forced and take no branching: when
every remaining item fits, the only maximal completion takes them all, and
when none fits, the set is final (and maximal only if no skipped item fits
either). Taking before skipping reaches the maximal sets in lexicographic
order of their id sequences, and no maximal set is a prefix of another, so
the first leaf of strictly greater welfare is the smallest id sequence
among maximal optima. Welfare comes from states of the instance welfare
oracle (`core.Instance.welfare`); voters are records without states. Each
take extends its parent's state by the item, once per distinct prefix, in
ascending id order. For the additive and coverage part
(`core.CoverageSumOracle`) the state carries the set's m-bit mask, and an
extension adds the weight of each of the item's cover signatures that the
mask does not meet. Submodular upper-bound pruning is not used.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .core import AlternativeId, ExceedsExactBudget, Instance, WelfareValue

#: Exhaustive enumeration is refused above this many alternatives.
EXACT_ENUMERATION_LIMIT = 24


class _KnapsackFields(NamedTuple):
    profits: tuple[int, ...]
    costs: tuple[Fraction, ...]
    capacity: Fraction = Fraction(1)


class KnapsackProblem(_KnapsackFields):
    """Integer profits, exact rational costs, capacity 1 unless overridden;
    every way of building one checks the profits."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        problem = super().__new__(cls, *args, **kwargs)
        if len(problem.profits) != len(problem.costs):
            raise ValueError("profits and costs must align")
        for p in problem.profits:
            if p < 0 or p != int(p):
                raise ValueError(f"profits must be nonnegative integers, got {p}")
        return problem

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through `_make`, which would skip `__new__`.
        return cls(*iterable)

    @property
    def size(self) -> int:
        return len(self.profits)


#: A Pareto frontier: costs ascending and profits strictly ascending.
Front = tuple[list[int], list[int]]


def _integer_costs(costs: Sequence[Fraction], budget: Fraction) -> tuple[list[int], int]:
    """Costs and budget times the LCM of their denominators: exact integers
    that add and compare like the rationals."""
    scale = math.lcm(budget.denominator, *(c.denominator for c in costs))
    return ([c.numerator * (scale // c.denominator) for c in costs],
            budget.numerator * (scale // budget.denominator))


def _frontiers(profits: Sequence[int], costs: Sequence[int], capacity: int) -> list[Front]:
    """fronts[j]: the Pareto-optimal (cost, profit) points of the subsets of
    items j.. that fit the capacity (Nemhauser & Ullmann 1969), as a list of
    costs ascending and a list of profits strictly ascending. fronts[j] is
    fronts[j + 1] merged with its shift by item j, dropping the points over
    capacity and the dominated ones."""
    fronts: list[Front] = [([0], [0])]
    for p, c in zip(reversed(profits), reversed(costs)):
        old_costs, old_profits = fronts[-1]
        new_costs: list[int] = []
        new_profits: list[int] = []
        top = -1
        i = 0
        fits = bisect.bisect_right(old_costs, capacity - c)
        # Merge by cost ascending and, at equal cost, profit descending: a
        # point is dominated exactly when it does not beat the last kept, top.
        for shift_cost, shift_profit in zip(old_costs[:fits], old_profits[:fits]):
            shift_cost += c
            shift_profit += p
            while i < len(old_costs) and (old_costs[i] < shift_cost or (
                    old_costs[i] == shift_cost and old_profits[i] >= shift_profit)):
                if old_profits[i] > top:
                    top = old_profits[i]
                    new_costs.append(old_costs[i])
                    new_profits.append(top)
                i += 1
            if shift_profit > top:
                top = shift_profit
                new_costs.append(shift_cost)
                new_profits.append(top)
        # Past the shifted points, the old ones that beat top remain.
        i = bisect.bisect_right(old_profits, top, i)
        new_costs += old_costs[i:]
        new_profits += old_profits[i:]
        fronts.append((new_costs, new_profits))
    return fronts[::-1]


def _best_profit(front: Front, budget: int) -> int:
    """The largest profit of a front point costing at most budget >= 0."""
    costs, profits = front
    return profits[bisect.bisect_right(costs, budget) - 1]


def knapsack_exact(problem: KnapsackProblem) -> frozenset:
    """Maximum-profit feasible set; among optima, the lexicographically
    smallest id sequence (so the empty set wins when all profits are zero).

    The suffix Pareto frontiers of `_frontiers` hold at most
    min(scaled capacity, total profit) + 1 points each. The set is read off
    them item by item: take j when an optimum of what is left still exists
    with j, and stop once no profit is left to collect."""
    costs, capacity = _integer_costs(problem.costs, problem.capacity)
    fronts = _frontiers(problem.profits, costs, capacity)
    chosen: list[int] = []
    budget = capacity
    need = fronts[0][1][-1]
    for j in range(problem.size):
        if need == 0:
            break
        p, c = problem.profits[j], costs[j]
        if c <= budget and p + _best_profit(fronts[j + 1], budget - c) >= need:
            chosen.append(j)
            budget -= c
            need -= p
    return frozenset(chosen)


def solve_knapsack(problem: KnapsackProblem, eps: float = 0.0) -> frozenset:
    """The exact optimum (`knapsack_exact`) at eps = 0; at eps in (0, 1), a
    feasible set with profit >= (1 - eps) * OPT by profit scaling.

    Scaling factor K = eps * max profit / size; when K <= 1 (always at
    eps = 0, and for a problem without items or profits) scaling cannot
    coarsen anything and the exact solver runs on the problem as given."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    scale = eps * max(problem.profits, default=0) / max(1, problem.size)
    if scale > 1.0:
        problem = problem._replace(profits=tuple(int(p / scale) for p in problem.profits))
    return knapsack_exact(problem)


class OptimalBundle(NamedTuple):
    """A welfare-maximizing feasible set and its social welfare."""

    items: frozenset
    welfare: WelfareValue


def optimal_welfare(instance: Instance) -> OptimalBundle:
    """Exhaustive welfare maximization over the maximal feasible subsets.

    Depth-first enumeration over exact integer costs, taking before
    skipping. A call recurses only to take an item, handing the child its
    state (`UtilityOracle.start`/`extend`) of the instance welfare oracle
    (`Instance.welfare`) extended by it; a skip moves the call's own loop
    on. A skip is abandoned when even taking every remaining item would
    leave room for the cheapest item skipped so far: no completion of it
    is maximal. Two completions are forced and close in one step: when
    every remaining item fits, the only maximal completion takes them all;
    when none fits, the set is final, and maximal only if no skipped item
    fits either. Every maximal set is reached, in lexicographic order of
    its id sequence (taking first puts the sets with an item before those
    without it, and no maximal set is a prefix of another), so keeping
    the first strictly better welfare gives ties to the smallest id
    sequence among maximal optima. Raises ExceedsExactBudget above the
    enumeration limit."""
    m = instance.m
    if m > EXACT_ENUMERATION_LIMIT:
        raise ExceedsExactBudget(
            f"m={m} exceeds the exhaustive limit of {EXACT_ENUMERATION_LIMIT}"
        )
    extend = instance.welfare.extend
    costs, budget = _integer_costs(instance.costs, instance.budget)
    # rest[j] and least[j]: the total and the smallest cost of items j..
    rest = list(itertools.accumulate(reversed(costs), initial=0))[::-1]
    least = list(itertools.accumulate(reversed(costs), min, initial=budget + 1))[::-1]
    best_welfare = -1.0
    best_items = frozenset()
    chosen: list[int] = []

    def explore(idx: int, room: int, cheapest_skipped: int, state: tuple) -> None:
        # Invariant: room - rest[idx] < cheapest_skipped, so taking every
        # remaining item would leave no room for a skipped one.
        nonlocal best_welfare, best_items
        while True:
            if rest[idx] <= room:
                for j in range(idx, m):
                    state = extend(state, j)
                if state[0] > best_welfare:
                    best_welfare = state[0]
                    best_items = frozenset(chosen).union(range(idx, m))
                return
            if least[idx] > room:
                if room < cheapest_skipped and state[0] > best_welfare:
                    best_welfare = state[0]
                    best_items = frozenset(chosen)
                return
            cost = costs[idx]
            if cost <= room:
                chosen.append(idx)
                explore(idx + 1, room - cost, cheapest_skipped, extend(state, idx))
                chosen.pop()
            cheapest_skipped = min(cheapest_skipped, cost)
            idx += 1
            if room - rest[idx] >= cheapest_skipped:
                return

    explore(0, budget, budget + 1, instance.welfare.start())
    return OptimalBundle(items=best_items, welfare=best_welfare)
