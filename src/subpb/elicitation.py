"""Vote profiles induced by utility oracles.

Three elicitation formats are supported: greedy marginal-gain rankings of
one cost group, standalone-value rankings of one cost group, and approval
sets at a rational threshold. Ranking profiles carry one permutation of
the group per voter; approval profiles carry per-voter approval sets plus
the derived approval weights that aggregation reads. The rule's plan, not
this module, weighs the groups and thresholds. Greedy rankings read each
gain from the oracle's states (`UtilityOracle.start`/`extend`). Value
rankings and approval sets read only standalone values f({a}): the profile
functions take them from the instance's per-voter
`core.Instance.singleton_table`, built once per instance, so no singleton
is evaluated per group or per threshold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
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


RANKING_METHODS = (Method.MARGINAL_VALUES, Method.STANDALONE_VALUES)


@dataclass(frozen=True)
class RankingProfile:
    """Per-voter permutations of one cost group.

    For MARGINAL_VALUES the order is the greedy marginal-gain order, so
    gains are nonincreasing along each ranking; for STANDALONE_VALUES the
    standalone values are nonincreasing."""

    method: Method
    group_index: int
    group: tuple[AlternativeId, ...]
    rankings: tuple[tuple[AlternativeId, ...], ...]

    def __post_init__(self):
        members = frozenset(self.group)
        for ranking in self.rankings:
            if len(ranking) != len(members) or frozenset(ranking) != members:
                raise ValueError("each ranking must be a permutation of the group")

    @property
    def n(self) -> int:
        return len(self.rankings)

    def position(self, voter: int, a: AlternativeId) -> int:
        """1-indexed position of `a` in the voter's ranking."""
        return self.rankings[voter].index(a) + 1


@dataclass(frozen=True)
class ApprovalProfile:
    """Per-voter approval sets at one threshold; weights[a] counts the
    voters approving `a`."""

    threshold: Fraction
    approvals: tuple[frozenset, ...]
    weights: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.approvals)


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
) -> RankingProfile:
    """Deterministic profile for group t; an empty group yields empty
    rankings rather than an error."""
    if method not in RANKING_METHODS:
        raise ValueError(f"{method} is not a ranking method")
    group = partition.groups[t]
    if not group:
        rankings = tuple(() for _ in instance.voters)
    elif method is Method.MARGINAL_VALUES:
        rankings = tuple(rank_by_marginal(v, group) for v in instance.voters)
    else:
        rankings = tuple(rank_by_values(table.singles, group)
                         for table in instance.singleton_table)
    return RankingProfile(method=method, group_index=t, group=group, rankings=rankings)


def approval_profile(instance: Instance, alpha: Fraction) -> ApprovalProfile:
    """Approval sets at threshold alpha plus derived weights."""
    approvals = tuple(threshold_approve(table.singles, alpha)
                      for table in instance.singleton_table)
    weights = tuple(
        sum(1 for approved in approvals if a in approved) for a in instance.alternatives
    )
    return ApprovalProfile(threshold=Fraction(alpha), approvals=approvals, weights=weights)
