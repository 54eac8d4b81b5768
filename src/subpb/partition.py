"""Dyadic cost groups and harmonic scoring of ranked profiles.

Alternatives are bucketed by cost into groups G_0..G_T with boundaries
(l_t, u_t]: u_0 = 1/m, then l_t = 2^(t-1)/m and u_t = 2^t/m. T is the
smallest exponent with 2^T >= m, so u_T >= 1 and every valid cost falls
in exactly one group. All boundary comparisons are exact rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .core import AlternativeId, Instance


def group_index_bound(m: int) -> int:
    """T = ceil(log2 m), computed without floating point."""
    if m < 1:
        raise ValueError("m must be positive")
    return (m - 1).bit_length()


def group_bounds(m: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """(l_t, u_t] pairs for t = 0..T."""
    bounds = [(Fraction(0), Fraction(1, m))]
    for t in range(1, group_index_bound(m) + 1):
        bounds.append((Fraction(2 ** (t - 1), m), Fraction(2**t, m)))
    return tuple(bounds)


class GroupPartition(NamedTuple):
    """Cost-based grouping of all alternatives; groups are disjoint and
    their union is the full alternative set."""

    m: int
    T: int
    bounds: tuple[tuple[Fraction, Fraction], ...]
    groups: tuple[tuple[AlternativeId, ...], ...]

    @property
    def thresholds(self) -> tuple[Fraction, ...]:
        """The lower boundaries l_1..l_T, used as approval thresholds."""
        return tuple(self.bounds[t][0] for t in range(1, self.T + 1))


def build_partition(instance: Instance) -> GroupPartition:
    """Assign every alternative to the unique group whose cost interval
    contains it: cost * m lies in (2^(t-1), 2^t], so its ceiling c does
    too, and t is the bit length of c - 1 (0 when cost <= 1/m)."""
    m = instance.m
    T = group_index_bound(m)
    groups: list[list[int]] = [[] for _ in range(T + 1)]
    for a, cost in enumerate(instance.costs):
        groups[(math.ceil(cost * m) - 1).bit_length()].append(a)
    return GroupPartition(m=m, T=T, bounds=group_bounds(m),
                          groups=tuple(tuple(g) for g in groups))


def shortlist_cap(m: int, t: int) -> int:
    """floor(sqrt(m) / u_t) in exact integer arithmetic.

    Uses floor(sqrt(m) * m / 2^t) = isqrt(m^3 // 4^t); never below 1, so a
    shortlist can always name at least one alternative."""
    return max(1, math.isqrt(m**3 // 4**t))


def selection_size(m: int, t: int) -> int:
    """floor(1 / u_t): how many group-t members a budget of 1 always affords.

    At least 1; a single member costs at most max(u_t, 1) <= 1 by validation."""
    return max(1, m >> t)


def harmonic_scores(rankings: Sequence[Sequence[AlternativeId]]) -> dict[AlternativeId, float]:
    """sc(a) = sum over voters of 1 / position(a), positions 1-indexed."""
    scores: dict[AlternativeId, float] = {}
    for ranking in rankings:
        for pos, a in enumerate(ranking, start=1):
            scores[a] = scores.get(a, 0.0) + 1.0 / pos
    return scores


def shortlist(
    partition: GroupPartition, scores: Mapping[AlternativeId, float], t: int
) -> tuple[AlternativeId, ...]:
    """The score shortlist of G_t, in ascending id order: the top
    min(|G_t|, floor(sqrt(m)/u_t)) members by harmonic score, ties by
    ascending id. The cap is at least m exactly when 4^t <= m, and then
    the whole group is shortlisted."""
    cap = min(len(partition.groups[t]), shortlist_cap(partition.m, t))
    ordered = sorted(scores, key=lambda a: (-scores[a], a))
    return tuple(sorted(ordered[:cap]))
