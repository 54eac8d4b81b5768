"""Votes elicited from utility oracles.

Three elicitation formats are supported: greedy marginal-gain rankings of
one cost group, standalone-value rankings of one cost group, and approval
sets at a rational threshold. Votes are plain data, one per voter in voter
order: a ranking is a tuple that permutes the group, an approval set a
frozenset. The rules in `aggregation` aggregate them, and the rule's plan,
not this module, weighs the groups and thresholds. Greedy rankings read
each gain from the oracle's states (`UtilityOracle.start`/`extend`). Value
rankings and approval sets read only standalone values f({a}): the profile
functions take them from the instance's per-voter
`core.Instance.singleton_table`, built once per instance, so no singleton
is evaluated per group or per threshold.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Sequence

from .core import AlternativeId, Instance, UtilityOracle
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
    oracle: UtilityOracle, group: Sequence[AlternativeId]
) -> tuple[AlternativeId, ...]:
    """Greedy order: repeatedly append the member with the largest marginal
    gain over the already-ranked prefix, ties by ascending id. The prefix's
    state is extended by each candidate; the best candidate's state becomes
    the next prefix's."""
    if not group:
        raise ValueError("cannot rank an empty group")
    state = oracle.start()
    remaining = sorted(group)
    order: list[int] = []
    while remaining:
        best = best_state = None
        best_gain = -1.0
        for a in remaining:
            after = oracle.extend(state, a)
            gain = after[0] - state[0]
            if gain > best_gain:
                best, best_gain, best_state = a, gain, after
        state = best_state
        order.append(best)
        remaining.remove(best)
    return tuple(order)


def rank_by_values(
    singles: Sequence[float], group: Sequence[AlternativeId]
) -> tuple[AlternativeId, ...]:
    """Sort by standalone value `singles[a]`, descending; ties by ascending id."""
    if not group:
        raise ValueError("cannot rank an empty group")
    return tuple(sorted(group, key=lambda a: (-singles[a], a)))


def threshold_approve(singles: Sequence[float], alpha: Fraction) -> frozenset:
    """All alternatives whose standalone value `singles[a]` meets the threshold."""
    cutoff = float(alpha) - APPROVAL_TOL
    return frozenset(a for a, single in enumerate(singles) if single >= cutoff)


def ranking_profile(
    instance: Instance, partition: GroupPartition, method: Method, t: int
) -> tuple[tuple[AlternativeId, ...], ...]:
    """One ranking of the non-empty group t per voter, in voter order."""
    group = partition.groups[t]
    if method is Method.MARGINAL_VALUES:
        return tuple(rank_by_marginal(v, group) for v in instance.voters)
    if method is Method.STANDALONE_VALUES:
        return tuple(rank_by_values(table.singles, group) for table in instance.singleton_table)
    raise ValueError(f"{method} is not a ranking method")


def approval_profile(instance: Instance, alpha: Fraction) -> tuple[frozenset, ...]:
    """One approval set at threshold alpha per voter, in voter order."""
    return tuple(threshold_approve(table.singles, alpha) for table in instance.singleton_table)
