"""Budgeted voting instances with submodular voter utilities.

An instance holds m alternatives (dense ids 0..m-1), each with an exact
rational cost in (0, 1], a total budget of 1, and one voter record per
voter. A voter's utility is a monotone submodular set function of one of
four families, scaled so that the grand set has value exactly 1; all
downstream welfare guarantees rely on that scaling, so unnormalizable
inputs are rejected at validation time. Voters are plain data with one
closed-form `value` each. Only the welfare parts (`welfare_oracle`), which
sum the voters of one kind, evaluate sets through states: a state is a
payload that a part extends one alternative at a time, and the part's
`worth` turns it into the set's value only where that value is read. A
coverage voter keeps its covers both per alternative (`cover_masks`) and
per element (`signatures`), built in one pass when it is parsed, so
neither its singleton table nor its welfare part transposes one view into
the other.

Costs are kept as `fractions.Fraction` throughout: group boundaries and
budget feasibility must be decided bit-exactly. Utility values are floats
with a small comparison tolerance. Utility sums fold left (`_left_sum`) or
round once (`math.fsum`), so the same floats come out on every Python.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from collections import defaultdict
from functools import cached_property, reduce
from fractions import Fraction
from itertools import compress
from typing import ClassVar, Iterable, Mapping, NamedTuple, Sequence

AlternativeId = int
WelfareValue = float

#: `ConcaveSumOracle.expected_uniform`, the only mean over a plan component
#: that enumerates its subsets, refuses to enumerate more than this;
#: `CoverageSumOracle` and `MaxValueSumOracle` take theirs in closed form.
EXACT_SUPPORT_LIMIT = 10**6

# Singletons below this value are treated as worthless when taking the
# curvature minimum (the ratio of two denormal floats is meaningless).
_SINGLETON_FLOOR = 1e-12


class ValidationError(ValueError):
    """Input that is not a valid instance: a malformed instance document
    (`cli.parse_instance_file`), or a raw instance that breaks a structural
    requirement, such as an empty instance, a cost outside (0, 1] or a voter
    whose grand-set value no finite positive scale takes to 1."""


class ExceedsExactBudget(Exception):
    """An exact computation would enumerate past its limit; use Monte Carlo
    mode or a smaller instance."""


class SingletonTable(NamedTuple):
    """Per-alternative facts of one set function: the standalone value
    f({a}) and the last gain f(a | A - a) against all other alternatives."""

    singles: tuple[float, ...]
    last_gains: tuple[float, ...]


class UtilityOracle(ABC):
    """A welfare part: the summed utility of the voters of one kind, or a
    `SumOracle` of such parts, as a monotone submodular set function
    evaluated through states. `Instance.welfare` (`welfare_oracle`) sums
    every voter, so it is scaled to n, not 1. Voters are records with a
    closed-form `value` (`Voter`), not parts.

    Sets are evaluated one alternative at a time. A state is a payload
    describing one set: `start()` is the empty set's and `extend(state, a)`
    that of the set plus a. `worth(state)` is the set's scaled value, which
    a part computes only when asked, so a walk that extends many sets pays
    for the values of only those it reads. States are never mutated, so one
    state can be extended by every candidate in turn, and the gain of a is
    `worth(extend(state, a)) - worth(state)`; `value` folds `extend` and
    calls `worth` once. Each part also supplies `expected_uniform`, the
    mean of a uniform k-subset: in closed form on `CoverageSumOracle` and
    `MaxValueSumOracle`, by enumeration on `ConcaveSumOracle`, summed on
    `SumOracle`.

    Every field of a part is set by its constructor and never changes
    afterwards, so evaluating a part from many threads needs no
    coordination. Parts compare by identity, as `Instance` does."""

    @abstractmethod
    def start(self) -> tuple:
        """State of the empty set, whose worth is 0.0."""

    @abstractmethod
    def extend(self, state: tuple, a: AlternativeId) -> tuple:
        """State of the set that `state` describes plus alternative a, which
        it must not contain. `state` itself is left as it is."""

    @abstractmethod
    def worth(self, state: tuple) -> float:
        """Scaled value of the set that `state` describes."""

    def value(self, items: Iterable[AlternativeId]) -> float:
        """Scaled value of a set of distinct alternatives: `extend` folded
        over it from `start()`, then its `worth`."""
        state = self.start()
        for a in items:
            state = self.extend(state, a)
        return self.worth(state)


class AdditiveOracle(NamedTuple):
    """f(S) = sum of per-alternative values."""

    values: tuple[float, ...]
    scale: float = 1.0

    family = "additive"

    @classmethod
    def normalized(cls, values: Sequence[float]) -> "AdditiveOracle":
        vals = _nonnegative_floats(values)
        return cls(vals, _scale(_left_sum(vals), "the sum of the values"))

    def value(self, items: Iterable[AlternativeId]) -> float:
        return _left_sum(map(self.values.__getitem__, items)) * self.scale

    def singleton_table(self):
        # Marginals never depend on the base set, so c = 0 exactly.
        scale = self.scale
        singles = tuple([v * scale for v in self.values])
        return SingletonTable(singles, singles)


class CoverageOracle(NamedTuple):
    """Weighted coverage: each alternative covers a subset of a finite
    universe; f(S) is the total weight of the union of covered subsets.

    The covers are kept in two views, both built in the one pass of
    `normalized` over the covered elements: `cover_masks[a]`, the bitmask
    of the elements alternative a covers, which `value` and the marginal
    ranking read, and `signatures[u]`, the m-bit mask of the alternatives
    that cover element u, which the singleton table and the welfare part
    read."""

    weights: tuple[float, ...]
    cover_masks: tuple[int, ...]
    signatures: tuple[int, ...]
    scale: float = 1.0

    family = "coverage"

    @classmethod
    def normalized(
        cls, weights: Sequence[float], covers: Sequence[Iterable[int]]
    ) -> "CoverageOracle":
        wts = _nonnegative_floats(weights)
        universe = len(wts)
        masks = []
        signatures = [0] * universe
        for a, cover in enumerate(covers):
            if not isinstance(cover, (list, tuple)):
                raise ValidationError(f"a cover set must be a list, got {cover!r}")
            mask = 0
            bit = 1 << a
            for u in cover:
                # The exact type test is the common case; bool, though a subclass
                # of int, is refused.
                if (type(u) is not int and (isinstance(u, bool) or not isinstance(u, int))
                        or not 0 <= u < universe):
                    raise ValidationError(f"covered element {u!r} outside universe")
                mask |= 1 << u
                signatures[u] |= bit
            masks.append(mask)
        # The covered weight, ascending: the elements with a nonzero signature.
        return cls(wts, tuple(masks), tuple(signatures),
                   _scale(_left_sum(compress(wts, signatures)), "the covered weight"))

    def value(self, items: Iterable[AlternativeId]) -> float:
        return _mask_weight(_union(self.cover_masks[a] for a in items), self.weights) * self.scale

    def singleton_table(self):
        """Standalone values and last gains in one pass over the elements'
        signatures, ascending: an element adds its weight to the standalone
        value of every alternative that covers it, and to the last gain of a
        when a covers it alone. Each entry is that left sum times the
        scale."""
        singles = [0.0] * len(self.cover_masks)
        lasts = singles.copy()
        for w, signature in zip(self.weights, self.signatures):
            if not signature & (signature - 1):
                if signature:
                    a = signature.bit_length() - 1
                    singles[a] += w
                    lasts[a] += w
                continue
            while signature:
                low = signature & -signature
                singles[low.bit_length() - 1] += w
                signature ^= low
        scale = self.scale
        return SingletonTable(tuple([v * scale for v in singles]),
                              tuple([v * scale for v in lasts]))


class ConcaveOverModularOracle(NamedTuple):
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
        return cls(vals, float(gamma),
                   _scale(_concave(_left_sum(vals), gamma), "the concave total"))

    def value(self, items: Iterable[AlternativeId]) -> float:
        return _concave(_left_sum(map(self.values.__getitem__, items)), self.gamma) * self.scale

    def singleton_table(self):
        # `_concave` inlined: v ** g, or 0.0 where v is not positive.
        values, gamma, scale = self.values, self.gamma, self.scale
        total = _left_sum(values)
        full = _concave(total, gamma) * scale
        return SingletonTable(
            tuple([(v**gamma if v > 0.0 else 0.0) * scale for v in values]),
            tuple([full - (rest**gamma if (rest := total - v) > 0.0 else 0.0) * scale
                   for v in values]))


class MaxValueOracle(NamedTuple):
    """f(S) = largest per-alternative value present in S (0 for the empty set)."""

    values: tuple[float, ...]
    scale: float = 1.0

    family = "max-value"

    @classmethod
    def normalized(cls, values: Sequence[float]) -> "MaxValueOracle":
        vals = _nonnegative_floats(values)
        return cls(vals, _scale(max(vals, default=0.0), "the largest value"))

    def value(self, items: Iterable[AlternativeId]) -> float:
        return max((self.values[a] for a in items), default=0.0) * self.scale

    def singleton_table(self):
        # Only a maximum gains over the rest, by top - second, which is 0
        # when the top is tied.
        values, scale = self.values, self.scale
        ordered = sorted(values, reverse=True)
        top, second = ordered[0], ordered[1] if len(ordered) > 1 else 0.0
        return SingletonTable(
            tuple([v * scale for v in values]),
            tuple([(v - second) * scale if v == top else 0.0 for v in values]))


#: A voter record, of one of the four utility families.
Voter = AdditiveOracle | CoverageOracle | ConcaveOverModularOracle | MaxValueOracle


class CoverageSumOracle(UtilityOracle):
    """The additive and coverage voters as one weighted coverage function
    over cover signatures. `signatures[j]` is the m-bit mask of the
    alternatives that cover element j, and `weights[j]` its weight, scaled
    already. f(S) is the total weight of the signatures that meet S. A
    state is (value, mask), the set's value and the m-bit mask of its
    alternatives: the value is the running sum of the gains that `extend`
    computes anyway, so `worth` only reads it, at C speed. `covers[a]`
    holds the (signature, weight) pairs of the elements a covers,
    ascending; an alternative that covers nothing has no entry."""

    def __init__(self, weights: tuple[float, ...], signatures: tuple[int, ...]):
        self.weights = weights
        self.signatures = signatures
        covers: defaultdict[AlternativeId, list[tuple[int, float]]] = defaultdict(list)
        for pair in zip(signatures, weights):
            bits = pair[0]
            while bits:
                low = bits & -bits
                covers[low.bit_length() - 1].append(pair)
                bits ^= low
        self.covers = {a: tuple(pairs) for a, pairs in covers.items()}

    def start(self):
        return (0.0, 0)

    worth = operator.itemgetter(0)

    def extend(self, state, a):
        # An element is new when its signature holds no chosen alternative.
        value, chosen = state
        gain = 0.0
        for signature, w in self.covers.get(a, ()):
            if not signature & chosen:
                gain += w
        return (value + gain, chosen | 1 << a)

    def expected_uniform(self, items, k):
        # An element covered by d of the |P| items is missed only when the
        # subset avoids all d: probability C(|P| - d, k) / C(|P|, k).
        component = 0
        for a in items:
            component |= 1 << a
        depths = [(signature & component).bit_count() for signature in self.signatures]
        n = len(items)
        subsets = math.comb(n, k)
        hit = math.fsum(w * (subsets - math.comb(n - d, k))
                        for w, d in zip(self.weights, depths) if d)
        return hit / subsets


class ConcaveSumOracle(UtilityOracle):
    """The sum of concave-over-modular voters, f(S) = sum over voters v of
    s_v * (sum of v's values over S) ** g_v, as one oracle. `columns[a]`
    holds every voter's value at a. A state is the tuple of the voters'
    inner sums, so a state extends all voters at once, and the walk of
    `expected_uniform` runs once for all of them. `worth` takes each
    voter's power and sums the products left to right, so only a set whose
    value is read pays for the powers."""

    def __init__(self, voters: Sequence[ConcaveOverModularOracle]):
        self.columns = tuple(zip(*[v.values for v in voters]))
        self.gammas = tuple([v.gamma for v in voters])
        self.scales = tuple([v.scale for v in voters])

    def start(self):
        return (0.0,) * len(self.gammas)

    def extend(self, state, a):
        return tuple(map(operator.add, state, self.columns[a]))

    def worth(self, state):
        # 0.0 ** g is 0.0 for g > 0, as in `_concave`.
        return _left_sum(map(operator.mul, map(operator.pow, state, self.gammas), self.scales))

    def expected_uniform(self, items: Sequence[AlternativeId], k: int) -> float:
        """Mean value of a uniform k-subset of the distinct `items`, for
        0 <= k <= len(items). No closed form is known, so this enumerates
        all C(len(items), k) subsets; it is the one place where exact mode
        enumerates a plan component, and past `EXACT_SUPPORT_LIMIT` subsets
        it raises ExceedsExactBudget. Each subset's state extends that of
        its (k-1)-prefix, and only the C(len(items), k) subsets themselves
        are valued (`worth`), not their prefixes."""
        subsets = math.comb(len(items), k)
        if subsets > EXACT_SUPPORT_LIMIT:
            raise ExceedsExactBudget(
                f"concave welfare would enumerate {subsets} subsets, over the "
                f"exact limit of {EXACT_SUPPORT_LIMIT}; rerun in Monte Carlo mode")
        return math.fsum(self._subset_values(items, k)) / subsets

    def _subset_values(self, items: Sequence[AlternativeId], k: int) -> Iterable[float]:
        # Depth first, in `itertools.combinations` order: a stack entry is
        # (state, first index it may extend by, alternatives still to add).
        extend, worth = self.extend, self.worth
        stack = [(self.start(), 0, k)]
        while stack:
            state, first, left = stack.pop()
            if not left:
                yield worth(state)
                continue
            for i in range(len(items) - left, first - 1, -1):
                stack.append((extend(state, items[i]), i + 1, left - 1))


class MaxValueSumOracle(UtilityOracle):
    """The sum of max-value voters, f(S) = sum over voters v of s_v times
    v's largest value in S, as one oracle. `rows[v]` holds voter v's
    values, `scales[v]` its scale and `columns[a]` every voter's scaled
    value at a. A state is the tuple of the voters' scaled running maxima,
    and `worth` sums them left to right."""

    def __init__(self, voters: Sequence[MaxValueOracle]):
        self.rows = rows = tuple([v.values for v in voters])
        self.scales = scales = tuple([v.scale for v in voters])
        self.columns = tuple(zip(*[[v * s for v in row] for row, s in zip(rows, scales)]))

    def start(self):
        return (0.0,) * len(self.scales)

    def extend(self, state, a):
        return tuple([v if v > top else top for top, v in zip(state, self.columns[a])])

    def worth(self, state):
        return _left_sum(state)

    def expected_uniform(self, items, k):
        # A voter's i-th largest value (1-based) is the maximum when the
        # subset takes it and k - 1 of the |P| - i smaller ones. Only
        # 1 < k < |P| needs the order: at k = 1 every weight is 1, and fsum
        # is exact in any order; at k = |P| only the largest has weight 1.
        if not k:
            return 0.0
        n = len(items)
        subsets = math.comb(n, k)
        if k == 1:
            totals = (math.fsum(map(row.__getitem__, items)) for row in self.rows)
        elif k == n:
            totals = (max(map(row.__getitem__, items)) for row in self.rows)
        else:
            takes = [math.comb(n - i, k - 1) for i in range(1, n + 1)]
            totals = (math.fsum(map(operator.mul, ordered, takes))
                      for ordered in (sorted(map(row.__getitem__, items), reverse=True)
                                      for row in self.rows))
        return _left_sum(total / subsets * scale for total, scale in zip(totals, self.scales))


class SumOracle(UtilityOracle):
    """f(S) = sum of the parts' values; each part keeps its own scale. Only
    an instance that mixes families has more than one welfare part. A state
    is the tuple of the parts' states, and `worth` sums the parts' worths
    left to right."""

    def __init__(self, parts: tuple[UtilityOracle, ...]):
        self.parts = parts

    def expected_uniform(self, items, k):
        return _left_sum(part.expected_uniform(items, k) for part in self.parts)

    def start(self):
        return tuple(part.start() for part in self.parts)

    def extend(self, state, a):
        return tuple(part.extend(s, a) for part, s in zip(self.parts, state))

    def worth(self, state):
        return _left_sum(part.worth(s) for part, s in zip(self.parts, state))


def _as_float(value, name: str) -> float:
    """A float from a JSON number. Strings are refused, since the format
    stores utility parameters as numbers, and so are booleans, though Python
    counts them as the integers 0 and 1."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ValidationError(f"{name} is an integer past the float range") from None
    raise ValidationError(f"{name} must be a number, got {value!r}")


def _nonnegative_floats(values: Sequence[float]) -> tuple[float, ...]:
    """The values as floats in [0, inf). A float is taken as is and anything
    else goes through `_as_float`; the range test refuses NaN as well."""
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"utility parameters must be a list, got {values!r}")
    vals = []
    for v in values:
        if type(v) is not float:
            v = _as_float(v, "utility parameter")
        if not 0.0 <= v < math.inf:
            raise ValidationError(f"utility parameters must be finite and >= 0, got {v}")
        vals.append(v)
    return tuple(vals)


def _scale(total: float, what: str) -> float:
    """1 / total, the factor taking the grand set to 1, which must be finite
    and positive: finite parameters can sum past the float range (scale 0),
    and a denormal total has no finite inverse (scale inf)."""
    scale = 1.0 / total if total > 0.0 else 0.0
    if not 0.0 < scale < math.inf:
        raise ValidationError(
            f"{what} is {total!r}; no finite positive scale takes it to 1")
    return scale


def _concave(inner: float, gamma: float) -> float:
    """inner ** gamma, where 0 ** gamma counts as 0."""
    return inner**gamma if inner > 0.0 else 0.0


def _left_sum(values: Iterable[float]) -> float:
    """The values added left to right from 0.0: builtin `sum` of floats on
    3.10 and 3.11, which is compensated from 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total


def _union(masks: Iterable[int]) -> int:
    return reduce(operator.or_, masks, 0)


def _mask_weight(mask: int, weights: Sequence[float]) -> float:
    total = 0.0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


class OracleSpec(NamedTuple):
    """Unvalidated voter description: a family name plus raw parameters."""

    family: str
    params: Mapping[str, object]


class RawInstance(NamedTuple):
    """Parsed but unvalidated instance, as read from a file or generator."""

    costs: tuple[Fraction, ...]
    voters: tuple[OracleSpec, ...]


class Instance:
    """Validated instance: exact costs, budget of 1, normalized voters."""

    budget: ClassVar[Fraction] = Fraction(1)

    def __init__(self, costs: tuple[Fraction, ...], voters: tuple[Voter, ...]):
        self.costs = costs
        self.voters = voters

    @property
    def m(self) -> int:
        return len(self.costs)

    @property
    def n(self) -> int:
        return len(self.voters)

    @property
    def alternatives(self) -> range:
        return range(self.m)

    @cached_property
    def welfare(self) -> UtilityOracle:
        """Social welfare as one oracle, scaled to n (`welfare_oracle`);
        built on first use."""
        return welfare_oracle(self.voters)

    @cached_property
    def singleton_table(self) -> tuple[SingletonTable, ...]:
        """Each voter's standalone values and last gains, from its family's
        closed-form `singleton_table`; built on first use."""
        return tuple([voter.singleton_table() for voter in self.voters])


FAMILIES = ("additive", "coverage", "concave", "max-value")


def build_oracle(spec: OracleSpec, m: int) -> Voter:
    """Construct and normalize one voter, checking parameter shape.
    Parameters the family does not read are refused."""
    params = dict(spec.params)
    if spec.family == "additive":
        oracle = AdditiveOracle.normalized(_param_values(params, m))
    elif spec.family == "coverage":
        weights = params.pop("weights", None)
        covers = params.pop("covers", None)
        if weights is None or covers is None:
            raise ValidationError("coverage oracle needs 'weights' and 'covers'")
        if not isinstance(covers, (list, tuple)):
            raise ValidationError(f"'covers' must be a list, got {covers!r}")
        if len(covers) != m:
            raise ValidationError(f"expected {m} cover sets, got {len(covers)}")
        oracle = CoverageOracle.normalized(weights, covers)
    elif spec.family == "concave":
        gamma = params.pop("gamma", None)
        if gamma is None:
            raise ValidationError("concave oracle needs 'gamma'")
        values = _param_values(params, m)
        oracle = ConcaveOverModularOracle.normalized(values, _as_float(gamma, "gamma"))
    elif spec.family == "max-value":
        oracle = MaxValueOracle.normalized(_param_values(params, m))
    else:
        raise ValidationError(f"unknown utility family {spec.family!r}; known: {FAMILIES}")
    if params:
        raise ValidationError(f"unknown {spec.family} parameters: {sorted(map(str, params))}")
    return oracle


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
        raise ValidationError("instance has no alternatives")
    if len(raw.voters) == 0:
        raise ValidationError("instance has no voters")
    costs = []
    for a, c in enumerate(raw.costs):
        c = Fraction(c)
        if c <= 0:
            raise ValidationError(f"alternative {a} has cost {c} <= 0")
        if c > 1:
            raise ValidationError(f"alternative {a} has cost {c} > budget 1")
        costs.append(c)
    m = len(costs)
    voters = tuple([build_oracle(spec, m) for spec in raw.voters])
    return Instance(costs=tuple(costs), voters=voters)


def welfare_oracle(voters: Sequence[Voter]) -> UtilityOracle:
    """The sum of the voters' scaled utilities as one oracle, with one part
    per kind of voter.

    Additive and coverage voters fold into one `CoverageSumOracle` keyed by
    cover signatures, ascending: the set of alternatives covering an
    element, as an m-bit mask, which a coverage voter already holds per
    element (`CoverageOracle.signatures`), so nothing is transposed here. A
    signature weighs the fsum of w * s_v over the (voter v, element of
    weight w) pairs that have it, and an additive value v_a counts as an
    element covered by a alone. Elements no alternative covers, and zero
    weights, are dropped. All concave voters, even a lone one, fold into
    one `ConcaveSumOracle` and all max-value voters into one
    `MaxValueSumOracle`, so a state of either extends every voter of its
    family at once. A lone part is returned as it is; parts of several
    families are summed by a `SumOracle`."""
    buckets: defaultdict[int, list[float]] = defaultdict(list)
    concave: list[ConcaveOverModularOracle] = []
    maxima: list[MaxValueOracle] = []
    for voter in voters:
        if isinstance(voter, AdditiveOracle):
            for a, v in enumerate(voter.values):
                if v:
                    buckets[1 << a].append(v * voter.scale)
        elif isinstance(voter, CoverageOracle):
            scale = voter.scale
            for signature, w in zip(voter.signatures, voter.weights):
                if signature and w:
                    buckets[signature].append(w * scale)
        elif isinstance(voter, ConcaveOverModularOracle):
            concave.append(voter)
        elif isinstance(voter, MaxValueOracle):
            maxima.append(voter)
        else:
            raise TypeError(f"no welfare part for {type(voter).__name__}")
    parts: list[UtilityOracle] = []
    if buckets:
        signatures = tuple(sorted(buckets))
        parts.append(CoverageSumOracle(
            tuple([math.fsum(buckets[signature]) for signature in signatures]), signatures))
    if concave:
        parts.append(ConcaveSumOracle(concave))
    if maxima:
        parts.append(MaxValueSumOracle(maxima))
    return parts[0] if len(parts) == 1 else SumOracle(tuple(parts))


def curvature(table: SingletonTable) -> float:
    """Least c in [0, 1] such that every marginal is >= (1-c) times the
    standalone value, for the set function whose `singleton_table` this is.

    For monotone submodular f the worst marginal of `a` is attained against
    all other alternatives, so the minimum ratio f(a | A-a) / f({a}) over
    positive singletons decides c. Both numbers are read from the table,
    which each voter family's `singleton_table` method fills in closed form
    (with s the scale): additive v_a*s for both, so c = 0 exactly;
    coverage, the weight of a's elements and of the elements only a covers;
    concave, v_a^g*s and (sum v)^g*s - (sum v - v_a)^g*s; max-value, v_a*s
    and, if a holds the unique maximum, (v_a - the second largest)*s,
    else 0."""
    worst = min([last / single for single, last in zip(table.singles, table.last_gains)
                 if single > _SINGLETON_FLOOR], default=1.0)
    return min(1.0, max(0.0, 1.0 - worst))


def max_curvature(instance: Instance) -> float:
    """Largest voter curvature; the uniform c valid for the whole profile.
    Reads the instance's `singleton_table`, and stops at the first voter
    whose curvature is 1, the ceiling no later voter can pass."""
    worst = 0.0
    for table in instance.singleton_table:
        worst = max(worst, curvature(table))
        if worst == 1.0:
            break
    return worst


def social_welfare(instance: Instance, items: Iterable[AlternativeId]) -> WelfareValue:
    """Sum of all voters' utilities for a set, each from its family's
    closed-form `value`; in [0, n] after normalization. No pipeline path
    calls it: it is the independent sum, sharing no code with the welfare
    parts' states, that the bench checker and the tests hold
    `Instance.welfare` to. Items are taken in ascending order, the order
    in which the exact optimum extends the parts' states."""
    items = sorted(set(items))
    return _left_sum(v.value(items) for v in instance.voters)
