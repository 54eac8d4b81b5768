"""The threshold rule's knapsack solver, plus the exhaustive welfare optimum.

The knapsack solver (`solve_knapsack`) is exact: it scales costs to exact
integers and builds the suffix Pareto frontiers of (cost, profit) points
(Nemhauser & Ullmann 1969). A frontier holds at most
min(scaled budget, total profit) + 1 points, so it stays as narrow as the
narrower of the two axes: many coprime cost denominators widen only the
budget axis, and many approvals only the profit axis. Ties break toward
the lexicographically smallest id sequence. Exact is enough here: the
threshold rule's profits are approval counts of at most n each, so each
frontier holds at most min(scaled budget, n·m) + 1 points, polynomial in
n and m. An approximate solver returns only together with a workload on
which the exact frontier is too slow.

The optimum (`optimal_welfare`) enumerates the maximal feasible subsets
over the same integer costs, with welfare from states of the instance
welfare oracle (`core.Instance.welfare`); its docstring says how the walk
branches and breaks ties. The walk extends a state per prefix it takes but
reads a value (`worth`) only at the sets it compares, so the concave and
max-value parts never value a set that cannot be maximal. For the additive
and coverage part (`core.CoverageSumOracle`) a state carries the set's
m-bit mask, and an extension adds the weight of each of the item's cover
signatures that the mask does not meet.

The walk prunes by the items it has skipped. A set S that avoids the
skipped items K has, by monotonicity and then submodularity (remove K from
the grand set A one item at a time),
    f(S) <= f(A - K) <= f(A) - sum over k in K of f(k | A - k),
and f(A) = n by normalization. The last gains f(k | A - k) are summed over
the voters' singleton tables (`core.Instance.singleton_table`), so a skip
adds one term to the bound, and a subtree whose bound cannot beat the
incumbent is left, with a float margin of 2^-20 n that `optimal_welfare`
derives.
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


def solve_knapsack(problem: KnapsackProblem) -> frozenset:
    """A maximum-profit set within the unit budget. Among the optima, the
    lexicographically smallest id sequence wins (so the empty set wins when
    all profits are zero).

    The suffix Pareto frontiers of `_frontiers` hold at most
    min(scaled budget, total profit) + 1 points each. The set is read off
    them item by item: take j when an optimum of what is left still exists
    with j, and stop once no profit is left to collect."""
    costs, budget = _integer_costs(problem.costs)
    fronts = _frontiers(problem.profits, costs, budget)
    chosen: list[int] = []
    need = fronts[0][1][-1]
    for j, (p, c) in enumerate(zip(problem.profits, costs)):
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
    final, and maximal only if no skipped item fits either. Welfare
    (`UtilityOracle.worth`) is read only at these compared sets: each
    forced completion, and each final set that no skipped item fits.
    Utilities are monotone, so some maximal set is optimal.

    A call also carries `lost`, the sum of the last gains f(k | A - k) of
    the items skipped on its path, and leaves its loop once
    `lost > ceiling - best_welfare`: every later set of the subtree avoids
    those items, so its value is at most n - lost (module docstring). The
    ceiling n * (1 + 2^-20) absorbs rounding. Each voter's grand value is
    1, and each term of a compared value or of a last gain is within a few
    2^-53 of its real value, relative to 1: sums of nonnegative floats and
    powers with exponent at most 1 keep a small relative error, and a last
    gain is such a number or the difference of two of them, each at most 1.
    That holds only because no operand has cancelled already: a concave
    voter's rest beside a value above half its total is summed from the
    other values, since total - v could keep mostly the total's rounding
    error, which a small power magnifies (`core.ConcaveOverModularOracle`).
    A float sum of N such terms is then off by at most about N * 2^-53 * n.
    Every compared value and the bound sum fewer than 2^31 terms (voters,
    cover signatures, skipped items), so each is off by less than 2^-22 n,
    and together with the subtraction from the ceiling by less than
    2^-20 n. A pruned set therefore reads at most `best_welfare` in floats,
    and could not have replaced the incumbent, which needs a strictly
    greater value. The argument compares each value with the real one,
    never a state with its extension, so it does not assume that rounding
    keeps the states monotone.

    Every maximal set outside a pruned subtree is reached, in
    lexicographic order of its id sequence (taking first puts the sets with
    an item before those without it, and no maximal set is a prefix of
    another), so keeping the first strictly better welfare gives ties to
    the smallest id sequence among maximal optima; pruning skips only sets
    that would not have been kept. Raises ExceedsExactBudget above the
    enumeration limit."""
    m = instance.m
    if m > EXACT_ENUMERATION_LIMIT:
        raise ExceedsExactBudget(
            f"m={m} exceeds the exhaustive limit of {EXACT_ENUMERATION_LIMIT}"
        )
    lasts = [math.fsum(gains)
             for gains in zip(*[table.last_gains for table in instance.singleton_table])]
    ceiling = instance.n * (1 + 2**-20)
    extend = instance.welfare.extend
    worth = instance.welfare.worth
    costs, budget = _integer_costs(instance.costs)
    # rest[j] and least[j]: the total and the smallest cost of items j..
    rest = list(itertools.accumulate(reversed(costs), initial=0))[::-1]
    least = list(itertools.accumulate(reversed(costs), min, initial=budget + 1))[::-1]
    best_welfare = -1.0
    best_items = frozenset()
    chosen: list[int] = []

    def explore(idx: int, room: int, cheapest_skipped: int, lost: float, state: tuple) -> None:
        # Invariant: room - rest[idx] < cheapest_skipped, so taking every
        # remaining item would leave no room for a skipped one.
        nonlocal best_welfare, best_items
        while True:
            if rest[idx] <= room:
                for j in range(idx, m):
                    state = extend(state, j)
                welfare = worth(state)
                if welfare > best_welfare:
                    best_welfare = welfare
                    best_items = frozenset(chosen).union(range(idx, m))
                return
            if least[idx] > room:
                if room < cheapest_skipped:
                    welfare = worth(state)
                    if welfare > best_welfare:
                        best_welfare = welfare
                        best_items = frozenset(chosen)
                return
            cost = costs[idx]
            if cost <= room:
                chosen.append(idx)
                explore(idx + 1, room - cost, cheapest_skipped, lost, extend(state, idx))
                chosen.pop()
            cheapest_skipped = min(cheapest_skipped, cost)
            lost += lasts[idx]
            idx += 1
            if room - rest[idx] >= cheapest_skipped or lost > ceiling - best_welfare:
                return

    explore(0, budget, budget + 1, 0.0, instance.welfare.start())
    return OptimalBundle(items=best_items, welfare=best_welfare)
