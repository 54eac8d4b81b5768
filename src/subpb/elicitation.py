"""Votes elicited from utility oracles.

Three elicitation formats are supported: greedy marginal-gain rankings of
one cost group, standalone-value rankings of one cost group, and approval
at a rational threshold. A ranking profile is one tuple per voter, in voter
order, that permutes the group. Threshold votes are counted once per
instance, as one tuple of approval counts per threshold: the threshold rule
reads nothing else of them. `experiment._plan` elicits the votes, rankings
only of groups whose shortlist binds, and `aggregation` aggregates them.
Voters are plain records (`core.Voter`) with no states: additive, concave
and max-value voters rank by marginal gain in closed form, and coverage
alone walks its cover masks. Value rankings and approval counts read only
the standalone values f({a}) of `core.Instance.singleton_table`, built once
per instance, so no singleton is evaluated per group or per threshold.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from fractions import Fraction
from typing import Sequence

from .core import (AdditiveOracle, AlternativeId, ConcaveOverModularOracle, CoverageOracle,
                   Instance, MaxValueOracle, Voter, _mask_weight)
from .partition import GroupPartition

#: Utilities within this distance of a rational threshold count as >=.
APPROVAL_TOL = 1e-12


class Method(enum.Enum):
    """Preference elicitation formats."""

    MARGINAL_VALUES = "marginal-rank"
    STANDALONE_VALUES = "value-rank"
    THRESHOLD_APPROVAL = "threshold"

    @property
    def is_ranking(self) -> bool:
        return self is not Method.THRESHOLD_APPROVAL


def rank_by_marginal(
    voter: Voter, group: Sequence[AlternativeId]
) -> tuple[AlternativeId, ...]:
    """Greedy order: repeatedly append the member with the largest marginal
    gain over the ranked prefix, ties by ascending id. Additive and concave
    gains strictly increase in the raw value, so their order is the value
    order; max-value ranks its largest value first, then every gain is 0.
    Coverage alone walks its masks, re-weighing a member only when a pick
    covers some of its elements. Other oracles, such as the summed welfare
    parts, raise TypeError."""
    if not group:
        raise ValueError("cannot rank an empty group")
    if isinstance(voter, (AdditiveOracle, ConcaveOverModularOracle)):
        return rank_by_values(voter.values, group)
    if isinstance(voter, MaxValueOracle):
        top = max(sorted(group), key=voter.values.__getitem__)
        return (top, *sorted(a for a in group if a != top))
    if not isinstance(voter, CoverageOracle):
        raise TypeError(f"no marginal ranking for {type(voter).__name__}")
    masks, weights, scale = voter.cover_masks, voter.weights, voter.scale
    gains = {a: _mask_weight(masks[a], weights) * scale for a in sorted(group)}
    order, covered = [], 0
    while gains:
        best = max(gains, key=gains.__getitem__)
        del gains[best]
        order.append(best)
        fresh = masks[best] & ~covered
        covered |= fresh
        for a in gains:
            if masks[a] & fresh:
                gains[a] = _mask_weight(masks[a] & ~covered, weights) * scale
    return tuple(order)


def rank_by_values(
    values: Sequence[float], group: Sequence[AlternativeId]
) -> tuple[AlternativeId, ...]:
    """Sort by `values[a]`, descending; ties by ascending id (stable sorts)."""
    if not group:
        raise ValueError("cannot rank an empty group")
    return tuple(sorted(sorted(group), key=values.__getitem__, reverse=True))


def ranking_profile(
    instance: Instance, partition: GroupPartition, method: Method, t: int
) -> tuple[tuple[AlternativeId, ...], ...]:
    """One ranking of the non-empty group t per voter, in voter order."""
    group = partition.groups[t]
    if method is Method.MARGINAL_VALUES:
        return tuple([rank_by_marginal(v, group) for v in instance.voters])
    if method is Method.STANDALONE_VALUES:
        return tuple([rank_by_values(table.singles, group)
                      for table in instance.singleton_table])
    raise ValueError(f"{method} is not a ranking method")


def approval_profile(
    instance: Instance, thresholds: Sequence[Fraction]
) -> tuple[tuple[int, ...], ...]:
    """Threshold votes counted once per instance: for each threshold alpha,
    how many voters value each alternative alone at float(alpha) -
    APPROVAL_TOL or more, by one bisection of its sorted standalone values."""
    columns = [sorted(values) for values in zip(*(t.singles for t in instance.singleton_table))]
    cutoffs = [float(alpha) - APPROVAL_TOL for alpha in thresholds]
    return tuple(tuple(instance.n - bisect_left(column, cutoff) for column in columns)
                 for cutoff in cutoffs)
