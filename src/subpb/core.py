"""Budgeted voting instances with submodular voter utilities.

An instance holds m alternatives (dense ids 0..m-1), each with an exact
rational cost in (0, 1], a total budget of 1, and one utility oracle per
voter. Every oracle is a monotone submodular set function scaled so that
the grand set has value exactly 1; all downstream welfare guarantees rely
on that scaling, so unnormalizable inputs are rejected at validation time.

Costs are kept as `fractions.Fraction` throughout: group boundaries and
budget feasibility must be decided bit-exactly. Utility values are floats
with a small comparison tolerance.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

AlternativeId = int
WelfareValue = float

# Negative marginals inside this band are floating-point noise, not a
# monotonicity violation; they are clamped to zero.
MARGINAL_CLAMP = 1e-12

# Singletons below this value are treated as worthless when taking the
# curvature minimum (the ratio of two denormal floats is meaningless).
_SINGLETON_FLOOR = 1e-12


class ValidationError(ValueError):
    """A raw instance violates a structural requirement."""


class EmptyInstance(ValidationError):
    pass


class NonPositiveCost(ValidationError):
    pass


class CostExceedsBudget(ValidationError):
    """An alternative costs more than the whole budget and can never be funded."""


class UnnormalizableUtility(ValidationError):
    """A voter values the grand set at zero, so no scaling can reach 1."""


class UtilityOracle(ABC):
    """Monotone submodular set function over alternatives, scaled to value 1
    on the grand set.

    Subclasses are immutable; evaluating them from many threads needs no
    coordination."""

    family: str = ""

    @property
    @abstractmethod
    def m(self) -> int:
        """Number of alternatives the oracle is defined over."""

    @abstractmethod
    def raw_value(self, items: Iterable[AlternativeId]) -> float:
        """Unscaled value of a set of alternatives."""

    @abstractmethod
    def tracker(self) -> "ValueTracker":
        """Fresh incremental evaluator positioned at the empty set."""

    def value(self, items: Iterable[AlternativeId]) -> float:
        return self.raw_value(items) * self.scale  # type: ignore[attr-defined]

    def marginal_value(self, a: AlternativeId, items: Iterable[AlternativeId]) -> float:
        """Raw (unclamped) gain of adding `a` to `items`; `a` must not be present."""
        base = tuple(items)
        return self.value(base + (a,)) - self.value(base)

    def expected_uniform(self, items: Sequence[AlternativeId], k: int) -> float:
        """Mean value of a uniform k-subset of the distinct `items`, for
        0 <= k <= len(items). This default enumerates all C(len(items), k)
        subsets; families with a closed form override it."""
        total = math.fsum(self.value(s) for s in itertools.combinations(items, k))
        return total / math.comb(len(items), k)


class ValueTracker(ABC):
    """Stack-style incremental evaluator used by exhaustive enumeration.

    `push(a)` adds alternative a to the tracked set and returns the value
    delta; `pop()` undoes the most recent push exactly."""

    @abstractmethod
    def push(self, a: AlternativeId) -> float: ...

    @abstractmethod
    def pop(self) -> None: ...

    @abstractmethod
    def value(self) -> float: ...


@dataclass(frozen=True)
class AdditiveOracle(UtilityOracle):
    """f(S) = sum of per-alternative values."""

    values: tuple[float, ...]
    scale: float = 1.0

    family = "additive"

    @classmethod
    def normalized(cls, values: Sequence[float]) -> "AdditiveOracle":
        vals = _nonnegative_floats(values)
        total = sum(vals)
        if total <= 0.0:
            raise UnnormalizableUtility("additive values sum to zero")
        return cls(vals, 1.0 / total)

    @property
    def m(self) -> int:
        return len(self.values)

    def raw_value(self, items):
        return sum(self.values[a] for a in items)

    def marginal_value(self, a, items):
        # Marginals never depend on the base set; avoids float cancellation.
        return self.values[a] * self.scale

    def expected_uniform(self, items, k):
        # Each item is in the subset with probability k / |P|.
        if not k:
            return 0.0
        return k * self.raw_value(items) * self.scale / len(items)

    def tracker(self):
        return _SumTracker(self)


@dataclass(frozen=True)
class CoverageOracle(UtilityOracle):
    """Weighted coverage: each alternative covers a subset of a finite
    universe; f(S) is the total weight of the union of covered subsets.

    Covered subsets are stored as bitmasks over the universe."""

    weights: tuple[float, ...]
    cover_masks: tuple[int, ...]
    scale: float = 1.0

    family = "coverage"

    @classmethod
    def normalized(
        cls, weights: Sequence[float], covers: Sequence[Iterable[int]]
    ) -> "CoverageOracle":
        wts = _nonnegative_floats(weights)
        masks = []
        for cover in covers:
            if not isinstance(cover, (list, tuple)):
                raise ValidationError(f"a cover set must be a list, got {cover!r}")
            mask = 0
            for u in cover:
                if not isinstance(u, int) or not 0 <= u < len(wts):
                    raise ValidationError(f"covered element {u!r} outside universe")
                mask |= 1 << u
            masks.append(mask)
        full = 0
        for mask in masks:
            full |= mask
        total = _mask_weight(full, wts)
        if total <= 0.0:
            raise UnnormalizableUtility("no alternative covers positive weight")
        return cls(wts, tuple(masks), 1.0 / total)

    @property
    def m(self) -> int:
        return len(self.cover_masks)

    def raw_value(self, items):
        union = 0
        for a in items:
            union |= self.cover_masks[a]
        return _mask_weight(union, self.weights)

    def expected_uniform(self, items, k):
        # An element covered by d of the |P| items is missed only when the
        # subset avoids all d: probability C(|P| - d, k) / C(|P|, k).
        depth = [0] * len(self.weights)
        for a in items:
            mask = self.cover_masks[a]
            while mask:
                low = mask & -mask
                depth[low.bit_length() - 1] += 1
                mask ^= low
        n = len(items)
        subsets = math.comb(n, k)
        hit = math.fsum(w * (subsets - math.comb(n - d, k))
                        for w, d in zip(self.weights, depth) if d)
        return hit / subsets * self.scale

    def tracker(self):
        return _CoverageTracker(self)


@dataclass(frozen=True)
class ConcaveOverModularOracle(UtilityOracle):
    """f(S) = (sum of per-alternative values) ** gamma with gamma in (0, 1]."""

    values: tuple[float, ...]
    gamma: float
    scale: float = 1.0

    family = "concave"

    @classmethod
    def normalized(
        cls, values: Sequence[float], gamma: float
    ) -> "ConcaveOverModularOracle":
        if not 0.0 < gamma <= 1.0:
            raise ValidationError(f"gamma must lie in (0, 1], got {gamma}")
        vals = _nonnegative_floats(values)
        total = sum(vals)
        if total <= 0.0:
            raise UnnormalizableUtility("modular weights sum to zero")
        return cls(vals, float(gamma), 1.0 / total**gamma)

    @property
    def m(self) -> int:
        return len(self.values)

    def raw_value(self, items):
        inner = sum(self.values[a] for a in items)
        return inner**self.gamma if inner > 0.0 else 0.0

    def tracker(self):
        return _ConcaveTracker(self)


@dataclass(frozen=True)
class MaxValueOracle(UtilityOracle):
    """f(S) = largest per-alternative value present in S (0 for the empty set)."""

    values: tuple[float, ...]
    scale: float = 1.0

    family = "max-value"

    @classmethod
    def normalized(cls, values: Sequence[float]) -> "MaxValueOracle":
        vals = _nonnegative_floats(values)
        top = max(vals, default=0.0)
        if top <= 0.0:
            raise UnnormalizableUtility("all values are zero")
        return cls(vals, 1.0 / top)

    @property
    def m(self) -> int:
        return len(self.values)

    def raw_value(self, items):
        return max((self.values[a] for a in items), default=0.0)

    def expected_uniform(self, items, k):
        # The i-th largest value (1-based) is the maximum when the subset
        # takes it and k - 1 of the |P| - i smaller ones.
        if not k:
            return 0.0
        ordered = sorted((self.values[a] for a in items), reverse=True)
        n = len(ordered)
        total = math.fsum(v * math.comb(n - i, k - 1) for i, v in enumerate(ordered, 1))
        return total / math.comb(n, k) * self.scale

    def tracker(self):
        return _MaxTracker(self)


def _as_float(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a number, got {value!r}") from None


def _nonnegative_floats(values: Sequence[float]) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"utility parameters must be a list, got {values!r}")
    vals = tuple(_as_float(v, "utility parameter") for v in values)
    for v in vals:
        if v < 0.0 or not math.isfinite(v):
            raise ValidationError(f"utility parameters must be finite and >= 0, got {v}")
    return vals


def _mask_weight(mask: int, weights: Sequence[float]) -> float:
    total = 0.0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


class _SumTracker(ValueTracker):
    __slots__ = ("_oracle", "_stack", "_current")

    def __init__(self, oracle: AdditiveOracle):
        self._oracle = oracle
        self._stack: list[float] = []
        self._current = 0.0

    def push(self, a):
        before = self._current
        self._stack.append(before)
        self._current = before + self._oracle.values[a] * self._oracle.scale
        return self._current - before

    def pop(self):
        self._current = self._stack.pop()

    def value(self):
        return self._current


class _CoverageTracker(ValueTracker):
    __slots__ = ("_oracle", "_stack", "_mask", "_current")

    def __init__(self, oracle: CoverageOracle):
        self._oracle = oracle
        self._stack: list[tuple[int, float]] = []
        self._mask = 0
        self._current = 0.0

    def push(self, a):
        before = self._current
        self._stack.append((self._mask, before))
        added = self._oracle.cover_masks[a] & ~self._mask
        self._mask |= self._oracle.cover_masks[a]
        self._current = before + _mask_weight(added, self._oracle.weights) * self._oracle.scale
        return self._current - before

    def pop(self):
        self._mask, self._current = self._stack.pop()

    def value(self):
        return self._current


class _ConcaveTracker(ValueTracker):
    __slots__ = ("_oracle", "_stack", "_inner", "_current")

    def __init__(self, oracle: ConcaveOverModularOracle):
        self._oracle = oracle
        self._stack: list[tuple[float, float]] = []
        self._inner = 0.0
        self._current = 0.0

    def push(self, a):
        before = self._current
        self._stack.append((self._inner, before))
        self._inner += self._oracle.values[a]
        if self._inner > 0.0:
            self._current = self._inner**self._oracle.gamma * self._oracle.scale
        return self._current - before

    def pop(self):
        self._inner, self._current = self._stack.pop()

    def value(self):
        return self._current


class _MaxTracker(ValueTracker):
    __slots__ = ("_oracle", "_stack", "_current")

    def __init__(self, oracle: MaxValueOracle):
        self._oracle = oracle
        self._stack: list[float] = []
        self._current = 0.0

    def push(self, a):
        before = self._current
        self._stack.append(before)
        scaled = self._oracle.values[a] * self._oracle.scale
        if scaled > before:
            self._current = scaled
        return self._current - before

    def pop(self):
        self._current = self._stack.pop()

    def value(self):
        return self._current


@dataclass(frozen=True)
class OracleSpec:
    """Unvalidated voter description: a family name plus raw parameters."""

    family: str
    params: Mapping[str, object]


@dataclass(frozen=True)
class RawInstance:
    """Parsed but unvalidated instance, as read from a file or generator."""

    costs: tuple[Fraction, ...]
    voters: tuple[OracleSpec, ...]


@dataclass(frozen=True)
class Instance:
    """Validated instance: exact costs, budget of 1, normalized oracles."""

    costs: tuple[Fraction, ...]
    voters: tuple[UtilityOracle, ...]
    budget: Fraction = Fraction(1)

    @property
    def m(self) -> int:
        return len(self.costs)

    @property
    def n(self) -> int:
        return len(self.voters)

    @property
    def alternatives(self) -> range:
        return range(self.m)

    def cost(self, items: Iterable[AlternativeId]) -> Fraction:
        return sum((self.costs[a] for a in items), Fraction(0))

    def feasible(self, items: Iterable[AlternativeId]) -> bool:
        return self.cost(items) <= self.budget


_FAMILIES = ("additive", "coverage", "concave", "max-value")


def build_oracle(spec: OracleSpec, m: int) -> UtilityOracle:
    """Construct and normalize one voter oracle, checking parameter shape."""
    params = dict(spec.params)
    if spec.family == "additive":
        values = _param_values(params, m)
        return AdditiveOracle.normalized(values)
    if spec.family == "coverage":
        weights = params.pop("weights", None)
        covers = params.pop("covers", None)
        if weights is None or covers is None:
            raise ValidationError("coverage oracle needs 'weights' and 'covers'")
        if not isinstance(covers, (list, tuple)):
            raise ValidationError(f"'covers' must be a list, got {covers!r}")
        if len(covers) != m:
            raise ValidationError(f"expected {m} cover sets, got {len(covers)}")
        return CoverageOracle.normalized(weights, covers)
    if spec.family == "concave":
        gamma = params.pop("gamma", None)
        if gamma is None:
            raise ValidationError("concave oracle needs 'gamma'")
        values = _param_values(params, m)
        return ConcaveOverModularOracle.normalized(values, _as_float(gamma, "gamma"))
    if spec.family == "max-value":
        values = _param_values(params, m)
        return MaxValueOracle.normalized(values)
    raise ValidationError(f"unknown utility family {spec.family!r}; known: {_FAMILIES}")


def _param_values(params: dict, m: int) -> Sequence[float]:
    values = params.pop("values", None)
    if values is None:
        raise ValidationError("oracle needs a 'values' list")
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"'values' must be a list, got {values!r}")
    if len(values) != m:
        raise ValidationError(f"expected {m} values, got {len(values)}")
    return values


def validate_instance(raw: RawInstance) -> Instance:
    """Check every structural invariant and return a normalized instance.

    Rejects empty instances, costs outside (0, 1], and voters whose grand-set
    value is zero (normalization would be impossible)."""
    if len(raw.costs) == 0:
        raise EmptyInstance("instance has no alternatives")
    if len(raw.voters) == 0:
        raise EmptyInstance("instance has no voters")
    costs = []
    for a, c in enumerate(raw.costs):
        c = Fraction(c)
        if c <= 0:
            raise NonPositiveCost(f"alternative {a} has cost {c} <= 0")
        if c > 1:
            raise CostExceedsBudget(f"alternative {a} has cost {c} > budget 1")
        costs.append(c)
    m = len(costs)
    voters = tuple(build_oracle(spec, m) for spec in raw.voters)
    return Instance(costs=tuple(costs), voters=voters)


def eval_utility(oracle: UtilityOracle, items: Iterable[AlternativeId]) -> float:
    """Normalized utility of a set; ids must be valid for the oracle."""
    items = frozenset(items)
    for a in items:
        if not 0 <= a < oracle.m:
            raise ValueError(f"alternative id {a} out of range for m={oracle.m}")
    return oracle.value(items)


def marginal(oracle: UtilityOracle, a: AlternativeId, items: Iterable[AlternativeId]) -> float:
    """Gain of adding `a` to `items`, clamped so float noise never turns a
    zero marginal negative."""
    base = frozenset(items)
    if a in base:
        raise ValueError(f"alternative {a} already in the base set")
    if not 0 <= a < oracle.m:
        raise ValueError(f"alternative id {a} out of range for m={oracle.m}")
    gain = oracle.marginal_value(a, base)
    if gain < 0.0:
        if gain < -MARGINAL_CLAMP:
            return gain  # genuine violation; let property tests see it
        return 0.0
    return gain


def compute_curvature(oracle: UtilityOracle) -> float:
    """Least c in [0, 1] such that every marginal is >= (1-c) times the
    standalone value.

    For monotone submodular f the worst marginal of `a` is attained against
    all other alternatives, so the minimum ratio f(a | A-a) / f({a}) over
    positive singletons decides c."""
    worst = 1.0
    found = False
    for a in range(oracle.m):
        single = oracle.value((a,))
        if single <= _SINGLETON_FLOOR:
            continue
        found = True
        rest = tuple(b for b in range(oracle.m) if b != a)
        ratio = oracle.marginal_value(a, rest) / single
        if ratio < worst:
            worst = ratio
    if not found:
        return 0.0
    return min(1.0, max(0.0, 1.0 - worst))


def max_curvature(instance: Instance) -> float:
    """Largest voter curvature; the uniform c valid for the whole profile."""
    return max(compute_curvature(v) for v in instance.voters)


def social_welfare(instance: Instance, items: Iterable[AlternativeId]) -> WelfareValue:
    """Sum of all voters' utilities for a set; in [0, n] after normalization."""
    items = frozenset(items)
    return sum(v.value(items) for v in instance.voters)
