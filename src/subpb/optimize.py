"""The threshold rule's knapsack solver, plus the exhaustive welfare optimum.

The knapsack solver is named by its eps alone (`solve_knapsack`). At
eps = 0 it is exact: it scales costs to exact integers and builds the
suffix Pareto frontiers of (cost, profit) points (Nemhauser & Ullmann
1969). A frontier holds at most min(scaled budget, total profit) + 1
points, so it stays as narrow as the narrower of the two axes: many coprime
cost denominators widen only the budget axis, and many approvals only the
profit axis. Ties break toward the lexicographically smallest id sequence.
At eps in (0, 1) it first scales the profits down (the FPTAS), which
narrows the frontiers further, and then reads the optimum off the same
frontiers. The optimum (`optimal_welfare`) enumerates the maximal feasible
subsets over the same integer costs, with welfare from states of the
instance welfare oracle (`core.Instance.welfare`); its docstring says how
the walk branches and breaks ties. For the additive and coverage part
(`core.CoverageSumOracle`) a state carries the set's m-bit mask, and an
extension adds the weight of each of the item's cover signatures that the
mask does not meet. Submodular upper-bound pruning is not used.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .core import ExceedsExactBudget, Instance, WelfareValue

#: Exhaustive enumeration is refused above this many alternatives.
EXACT_ENUMERATION_LIMIT = 24


class _KnapsackFields(NamedTuple):
    profits: tuple[int, ...]
    costs: tuple[Fraction, ...]


class KnapsackProblem(_KnapsackFields):
    """Integer profits and exact rational costs against the unit budget of
    an instance; every way of building one checks the profits."""

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


def _integer_costs(costs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Costs and the unit budget times the LCM of the costs' denominators:
    exact integers that add and compare like the rationals."""
    scale = math.lcm(*(c.denominator for c in costs))
    return [c.numerator * (scale // c.denominator) for c in costs], scale


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


def check_eps(eps: float) -> None:
    """The knapsack eps must lie in [0, 1): 0 is exact, 1 would promise nothing."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")


def solve_knapsack(problem: KnapsackProblem, eps: float = 0.0) -> frozenset:
    """A maximum-profit set within the unit budget at eps = 0; at eps in
    (0, 1), a feasible set with profit >= (1 - eps) * OPT by profit scaling.
    Among the optima of the profits solved for, the lexicographically
    smallest id sequence wins (so the empty set wins when all are zero).

    The profits are divided by K = eps * max profit / size and floored when
    K > 1; at K <= 1 (always at eps = 0, and for a problem without items or
    profits) scaling cannot coarsen anything and they are solved as given.
    The suffix Pareto frontiers of `_frontiers` hold at most
    min(scaled budget, total profit) + 1 points each. The set is read off
    them item by item: take j when an optimum of what is left still exists
    with j, and stop once no profit is left to collect."""
    check_eps(eps)
    profits = problem.profits
    scale = eps * max(profits, default=0) / max(1, problem.size)
    if scale > 1.0:
        profits = tuple(int(p / scale) for p in profits)
    costs, budget = _integer_costs(problem.costs)
    fronts = _frontiers(profits, costs, budget)
    chosen: list[int] = []
    need = fronts[0][1][-1]
    for j, (p, c) in enumerate(zip(profits, costs)):
        if need == 0:
            break
        if c <= budget and p + _best_profit(fronts[j + 1], budget - c) >= need:
            chosen.append(j)
            budget -= c
            need -= p
    return frozenset(chosen)


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
    on, so each distinct prefix is extended once. A skip is abandoned when
    even taking every remaining item would leave room for the cheapest
    item skipped so far: no completion of it is maximal. Two completions
    are forced and close in one step: when every remaining item fits, the
    only maximal completion takes them all; when none fits, the set is
    final, and maximal only if no skipped item fits either. Utilities are
    monotone, so some maximal set is optimal. Every maximal set is reached,
    in lexicographic order of its id sequence (taking first puts the sets
    with an item before those without it, and no maximal set is a prefix
    of another), so keeping the first strictly better welfare gives ties
    to the smallest id sequence among maximal optima. Raises
    ExceedsExactBudget above the enumeration limit."""
    m = instance.m
    if m > EXACT_ENUMERATION_LIMIT:
        raise ExceedsExactBudget(
            f"m={m} exceeds the exhaustive limit of {EXACT_ENUMERATION_LIMIT}"
        )
    extend = instance.welfare.extend
    costs, budget = _integer_costs(instance.costs)
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
