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

The walk prunes by the items it has skipped and by the items the budget
still makes it leave out. Below a node, K is the set of skipped items and R
that of the undecided ones. A set S of the subtree takes some T of R that
fits the room left, so it avoids K and D = R - T, whose cost is at least
the need cost(R) - room. By monotonicity, and by submodularity as D is
removed one item at a time,
    f(S) <= f(A - K - D) <= f(A - K) - sum over d in D of f(d | A - d),
where A is the grand set. Removing K from A the same way gives
f(A - K) <= f(A) - sum over k in K of f(k | A - k), and f(A) = n by
normalization. The coverage part of f (`core.CoverageSumOracle`) loses
exactly the merged weight of the cover signatures that lie inside K, so
for it the bound counts every such signature: one of a single item is that
item's last gain, and one of two or more items is counted when its highest
item a is skipped, since every item below a is decided then and the
signature lies inside K exactly when it meets no chosen item. The other
parts keep the last gains. The last gains of D sum to at least their
fractional min-cover: the items of R by last gain per unit cost, taken
whole until the next one covers the need, and that one in part. So
    f(S) <= n - lost - drop,
with lost the last gains of K plus the shared signatures inside K, and
drop the min-cover. The last gains are summed over the voters' singleton
tables (`core.Instance.singleton_table`), so a skip adds a few terms to
lost and drop is one bisect, and a subtree whose bound cannot beat the
incumbent is left, with a float margin of 2^-20 n that `optimal_welfare`
derives.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

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

    A call also carries `lost`: the last gains f(k | A - k) of the items
    skipped on its path, plus the merged weight of each cover signature of
    two or more items that lies inside them (`_skip_loss`). After a skip
    it leaves its loop once `lost + drop > ceiling - best_welfare`, where
    drop is the fractional min-cover of the need, the cost of the items
    left minus the room, by their last gains (`_forced_drop`): every later
    set of the subtree is worth at most n - lost - drop (module docstring).
    The ceiling n * (1 + 2^-20) absorbs rounding. Each voter's grand value
    is 1, and each term of a compared value or of the bound is within a
    few 2^-53 of its real value, relative to 1. Sums of nonnegative floats
    and powers with exponent at most 1 keep a small relative error, and a
    last gain is such a number or the difference of two of them, each at
    most 1. That holds only because no operand has cancelled already: a
    concave voter's rest beside a value above half its total is summed from
    the other values, since total - v could keep mostly the total's
    rounding error, which a small power magnifies
    (`core.ConcaveOverModularOracle`). A merged signature weight is an fsum
    of nonnegative scaled weights. The fractional piece of drop is a last
    gain times a ratio of integer costs at most 1, rounded once. The
    min-cover takes the items by the rounded ratio of float last gain to
    cost. Rounding keeps the order of two ratios unless they are within a
    rounding of each other, and taking such a pair the other way round
    moves the cover by a few 2^-53 of their last gains, so drop is within
    that of the least fractional cover of the float last gains, which is at
    most their least sum over the sets D that cover the need. A float sum
    of N such terms is then off by at most about N * 2^-53 * n. Every compared
    value and both parts of the bound sum fewer than 2^31 terms (voters,
    cover signatures, items), so each is off by less than 2^-22 n, and
    together with the additions and the subtraction from the ceiling by
    less than 2^-20 n. A pruned set therefore reads at most `best_welfare`
    in floats, and could not have replaced the incumbent, which needs a
    strictly greater value. The argument compares each value with the real
    one, never a state with its extension, so it does not assume that
    rounding keeps the states monotone.

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
    lasts = _last_gains(instance)
    shared = instance.welfare.shared_signatures(m)
    ceiling = instance.n * (1 + 2**-20)
    extend = instance.welfare.extend
    worth = instance.welfare.worth
    costs, budget = _integer_costs(instance.costs)
    drop = _forced_drop(lasts, costs)
    # rest[j] and least[j]: the total and the smallest cost of items j..
    rest = list(itertools.accumulate(reversed(costs), initial=0))[::-1]
    least = list(itertools.accumulate(reversed(costs), min, initial=budget + 1))[::-1]
    best_welfare = -1.0
    best_items = frozenset()

    def explore(idx: int, room: int, cheapest_skipped: int, lost: float, chosen: int,
                state: tuple) -> None:
        # Invariant: room - rest[idx] < cheapest_skipped, so taking every
        # remaining item would leave no room for a skipped one. `chosen` is
        # the mask of the items taken.
        nonlocal best_welfare, best_items
        while True:
            if rest[idx] <= room:
                for j in range(idx, m):
                    state = extend(state, j)
                welfare = worth(state)
                if welfare > best_welfare:
                    best_welfare = welfare
                    best_items = _items(chosen, m).union(range(idx, m))
                return
            if least[idx] > room:
                if room < cheapest_skipped:
                    welfare = worth(state)
                    if welfare > best_welfare:
                        best_welfare = welfare
                        best_items = _items(chosen, m)
                return
            cost = costs[idx]
            if cost <= room:
                explore(idx + 1, room - cost, cheapest_skipped, lost, chosen | 1 << idx,
                        extend(state, idx))
            cheapest_skipped = min(cheapest_skipped, cost)
            lost += _skip_loss(lasts[idx], shared[idx], chosen)
            idx += 1
            if room - rest[idx] >= cheapest_skipped:
                return
            limit = ceiling - best_welfare
            if lost > limit or lost + drop(idx, room) > limit:
                return

    explore(0, budget, budget + 1, 0.0, 0, instance.welfare.start())
    return OptimalBundle(items=best_items, welfare=best_welfare)


def _last_gains(instance: Instance) -> list[float]:
    """f(a | A - a) for each alternative a: the fsum over the voters'
    singleton tables."""
    return [math.fsum(gains)
            for gains in zip(*[table.last_gains for table in instance.singleton_table])]


def _items(mask: int, m: int) -> frozenset:
    return frozenset([a for a in range(m) if mask >> a & 1])


def _skip_loss(last: float, shared: tuple[tuple[int, float], ...], chosen: int) -> float:
    """What skipping an item a takes off the bound once every item below a
    is decided: its last gain, plus the weight of each signature of two or
    more items topped by a (`UtilityOracle.shared_signatures`) that meets
    no chosen item, and so lies inside the skipped items."""
    for signature, w in shared:
        if not signature & chosen:
            last += w
    return last


def _forced_drop(lasts: Sequence[float], costs: Sequence[int]) -> Callable[[int, int], float]:
    """drop(j, room): at most the least sum of last gains over the sets D
    of items j.. that a set of them fitting the room leaves out, that is,
    whose cost is at least the need cost(j..) - room; 0.0 when the need is
    not positive. It is the fractional min-cover, the minimum of its linear
    relaxation: the items by last gain per unit cost, ascending, whole
    until the next one covers the need, and then that one's last gain times
    the share of its cost still needed. Each suffix keeps
    its order and the prefix sums of cost and last gain, so a call is one
    bisect."""
    order = sorted(range(len(costs)), key=lambda a: lasts[a] / costs[a])
    suffixes = []
    for j in range(len(costs) + 1):
        items = [a for a in order if a >= j]
        suffixes.append((list(itertools.accumulate([costs[a] for a in items], initial=0)),
                         list(itertools.accumulate([lasts[a] for a in items], initial=0.0)),
                         items))

    def drop(j: int, room: int) -> float:
        covered, paid, items = suffixes[j]
        need = covered[-1] - room
        if need <= 0:
            return 0.0
        k = bisect.bisect_left(covered, need) - 1
        a = items[k]
        return paid[k] + lasts[a] * ((need - covered[k]) / costs[a])

    return drop
