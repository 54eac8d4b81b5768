"""The exact knapsack solver against brute force, and the exhaustive
welfare oracle."""

import itertools
import math
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subpb.core import FAMILIES, OracleSpec, RawInstance, social_welfare, validate_instance
from subpb.experiment import Fixed, GeneratorSpec, generate, generate_raw
from subpb.optimize import (
    EXACT_ENUMERATION_LIMIT,
    ExceedsExactBudget,
    KnapsackProblem,
    _forced_drop,
    _frontiers,
    _integer_costs,
    _last_gains,
    _skip_loss,
    optimal_welfare,
    solve_knapsack,
)

import helpers


def problem(profits, costs, capacity=Fraction(1)):
    """The knapsack of these costs within `capacity`, as the same problem
    within the unit budget: every cost divided by the capacity."""
    capacity = Fraction(capacity)
    return KnapsackProblem(
        profits=tuple(profits),
        costs=tuple(Fraction(c) / capacity for c in costs),
    )


def random_problem(rng, max_m=15, max_profit=20):
    m = rng.randint(1, max_m)
    profits = tuple(rng.randint(0, max_profit) for _ in range(m))
    costs = tuple(Fraction(rng.randint(1, 16), 16) for _ in range(m))
    return problem(profits, costs)


class TestKnapsackExact:
    def test_spec_example(self):
        # Brute force over all 8 subsets: only {1, 2} reaches weight 4.
        p = problem([3, 2, 2], ["3/5", "1/2", "1/2"])
        assert solve_knapsack(p) == {1, 2}

    def test_all_zero_weights(self):
        p = problem([0, 0, 0], ["1/2", "1/2", "1/2"])
        assert solve_knapsack(p) == frozenset()

    def test_single_item_full_cost(self):
        assert solve_knapsack(problem([5], ["1"])) == {0}
        assert solve_knapsack(problem([0], ["1"])) == frozenset()

    def test_single_item(self):
        assert solve_knapsack(problem([7], ["1/2"])) == {0}

    def test_empty_problem(self):
        assert solve_knapsack(problem([], [])) == frozenset()

    def test_zero_profits(self):
        assert solve_knapsack(problem([0, 0], ["1/2", "1/2"])) == frozenset()

    def test_everything_fits(self):
        p = problem([1, 2, 3], ["1/4", "1/4", "1/4"])
        assert solve_knapsack(p) == {0, 1, 2}

    def test_zero_profit_padding_precedes(self):
        # Lexicographically, (0, 1) comes before (1,), so the optimal set
        # absorbs the free-riding zero-profit item that fits.
        p = problem([0, 5], ["1/2", "1/2"])
        assert solve_knapsack(p) == {0, 1}

    def test_matches_brute_force_on_random_problems(self):
        rng = random.Random(20240117)
        for _ in range(60):
            p = random_problem(rng, max_m=10)
            fast = solve_knapsack(p)
            slow = helpers.brute_force_knapsack(p)
            assert helpers.profit(p, fast) == helpers.profit(p, slow)
            assert fast == slow

    def test_negative_profit_rejected(self):
        # Also misaligned and non-integer profits, built or derived by
        # `_replace`.
        for profits, costs in [([-1], ["1/2"]), ([1, 2], ["1/2"]), ([1.5], ["1/2"])]:
            with pytest.raises(ValueError):
                problem(profits, costs)
            with pytest.raises(ValueError):
                problem([0] * len(costs), costs)._replace(profits=tuple(profits))


#: Distinct primes as cost denominators make the scaled budget axis their
#: LCM: up to 6.5e9 at ten items.
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


@st.composite
def knapsack_problems(draw, wide):
    """m <= 10 items with profits often in {0, 1, 2}, so that ties and zero
    profits are common. Wide: costs k/p over distinct primes p. Narrow:
    costs on the grid of eighths. A capacity of 1, 2/3 or 5/7 divides
    every cost (`problem`)."""
    m = draw(st.integers(min_value=0, max_value=10))
    profit = st.one_of(st.sampled_from([0, 1, 2]), st.integers(min_value=0, max_value=100))
    profits = draw(st.lists(profit, min_size=m, max_size=m))
    if wide:
        primes = draw(st.permutations(PRIMES))[:m]
        costs = [Fraction(draw(st.integers(1, max(1, p // 3))), p) for p in primes]
    else:
        costs = [Fraction(draw(st.integers(1, 8)), 8) for _ in range(m)]
    capacity = draw(st.sampled_from([Fraction(1), Fraction(2, 3), Fraction(5, 7)]))
    return problem(profits, costs, capacity)


@settings(max_examples=200, deadline=None)
@given(st.one_of(knapsack_problems(wide=True), knapsack_problems(wide=False)))
def test_exact_matches_brute_force_with_its_tie_rule(p):
    assert solve_knapsack(p) == helpers.brute_force_knapsack(p)


@settings(max_examples=100, deadline=None)
@given(st.one_of(knapsack_problems(wide=True), knapsack_problems(wide=False)))
def test_frontiers_are_the_pareto_points_of_each_suffix(p):
    costs, budget = _integer_costs(p.costs)
    assert budget == math.lcm(*(c.denominator for c in p.costs))
    assert costs == [int(c * budget) for c in p.costs]
    fronts = _frontiers(p.profits, costs, budget)
    for j, (front_costs, front_profits) in enumerate(fronts):
        points = {
            (sum(costs[a] for a in combo), helpers.profit(p, combo))
            for combo in helpers.powerset(range(j, p.size))
        }
        points = {(c, q) for c, q in points if c <= budget}
        pareto = sorted(
            (c, q) for c, q in points
            if not any(c2 <= c and q2 >= q and (c2, q2) != (c, q) for c2, q2 in points)
        )
        assert list(zip(front_costs, front_profits)) == pareto
        assert len(pareto) <= min(budget, sum(p.profits[j:])) + 1


def grid_values(rng, size):
    """Values on the grid of quarters, zero included, not all zero: sets
    that differ only in zero-value items tie exactly."""
    values = [rng.randint(0, 4) / 4 for _ in range(size)]
    values[rng.randrange(size)] = rng.randint(1, 4) / 4
    return values


def grid_voter(rng, family, m, values=grid_values):
    """A voter with values or weights from `values(rng, size)`; a coverage
    voter's last item covers every element, so that its grand value is
    positive."""
    if family == "coverage":
        universe = rng.randint(1, 4)
        return OracleSpec(family, {
            "weights": values(rng, universe),
            "covers": [sorted(rng.sample(range(universe), rng.randint(0, universe)))
                       for _ in range(m - 1)] + [list(range(universe))],
        })
    params = {"values": values(rng, m)}
    if family == "concave":
        params["gamma"] = rng.randint(1, 4) / 4
    return OracleSpec(family, params)


def tie_costs(rng, model, m):
    """Equal costs, costs on the grid of twelfths, dyadic costs k/2^j, or
    costs over distinct primes (with 31 and 37 past `PRIMES`, so that twelve
    items get twelve)."""
    if model == "equal":
        return (Fraction(rng.randint(1, 8), 16),) * m
    if model == "grid":
        return tuple(Fraction(rng.randint(1, 12), 12) for _ in range(m))
    if model == "dyadic":
        return tuple(Fraction(rng.randint(1, 2**j), 2**j)
                     for j in (rng.randint(0, 5) for _ in range(m)))
    primes = rng.sample(PRIMES + (31, 37), m)
    return tuple(Fraction(rng.randint(1, p // 2), p) for p in primes)


class TestOptimalWelfare:
    @pytest.mark.parametrize("model", ["equal", "dyadic", "coprime"])
    @pytest.mark.parametrize("family", ["additive", "coverage", "concave", "max-value",
                                        "mixed"])
    def test_ties_match_the_recursive_reference(self, family, model):
        rng = random.Random(f"{family}/{model}")
        for _ in range(12):
            m = rng.randint(1, 12)
            families = (rng.sample(["additive", "coverage", "concave", "max-value"],
                                   rng.randint(2, 4))
                        if family == "mixed" else [family] * rng.randint(1, 3))
            instance = validate_instance(RawInstance(
                costs=tie_costs(rng, model, m),
                voters=tuple(grid_voter(rng, f, m) for f in families),
            ))
            assert optimal_welfare(instance) == helpers.optimum_by_recursion(instance)

    def test_rounding_cannot_promote_a_set_with_room_left(self):
        # {1} leaves room for item 0, so only {0, 1} and {0, 2} are maximal.
        # Item 1 covers three signatures; alone it adds all three, after
        # item 0 only two, and that grouping rounds {0, 1} below {1}.
        instance = validate_instance(RawInstance(
            costs=(Fraction(3, 10), Fraction(3, 5), Fraction(3, 5)),
            voters=(OracleSpec("coverage", {"weights": [0.25, 0.5, 0.75],
                                            "covers": [[0], [0, 1, 2], [2]]}),),
        ))
        welfare = instance.welfare
        alone = welfare.extend(welfare.start(), 1)[0]
        both = welfare.extend(welfare.extend(welfare.start(), 0), 1)[0]
        assert alone > both
        assert optimal_welfare(instance) == helpers.optimum_by_recursion(instance) == (
            frozenset({0, 1}), both)

    @pytest.mark.parametrize("m, fit", [(16, 10), (12, 4), (9, 6), (7, 1), (6, 5), (5, 5)])
    def test_extends_once_per_prefix_of_a_fitting_subset(self, m, fit, monkeypatch):
        # With equal costs, the maximal sets are the fit-subsets, and the walk
        # extends once per distinct non-empty prefix of one: there are
        # C(m + 1, fit) - 1 of them. (16, 10) is the exact-shortlist shape.
        cost = Fraction(3, 32) if (m, fit) == (16, 10) else Fraction(1, fit)
        instance = validate_instance(RawInstance(
            costs=(cost,) * m,
            voters=(OracleSpec("additive", {"values": [1.0] * m}),),
        ))
        welfare = instance.welfare
        extends = []

        def counting(state, a):
            extends.append(a)
            return type(welfare).extend(welfare, state, a)

        monkeypatch.setattr(welfare, "extend", counting)
        bundle = optimal_welfare(instance)
        assert bundle.items == frozenset(range(fit))
        assert len(extends) == math.comb(m + 1, fit) - 1

    def test_two_voter_tie_breaks_lexicographically(self):
        instance = validate_instance(
            RawInstance(
                costs=(Fraction(3, 5), Fraction(3, 5)),
                voters=(
                    OracleSpec("additive", {"values": [0.75, 0.25]}),
                    OracleSpec("additive", {"values": [0.25, 0.75]}),
                ),
            )
        )
        bundle = optimal_welfare(instance)
        assert bundle.items == {0}
        assert bundle.welfare == pytest.approx(1.0)

    def test_ties_go_to_maximal_sets(self):
        # {0} and {0, 1} tie, and item 1 fits exactly into what {0} leaves:
        # only the maximal set {0, 1} is a candidate, although (0,) < (0, 1).
        instance = validate_instance(
            RawInstance(
                costs=(Fraction(1, 2), Fraction(1, 2), Fraction(3, 4)),
                voters=(OracleSpec("max-value", {"values": [1.0, 0.5, 0.25]}),),
            )
        )
        bundle = optimal_welfare(instance)
        assert bundle.items == {0, 1}
        assert bundle.welfare == 1.0
        assert helpers.brute_force_best_welfare(instance) == (bundle.items, bundle.welfare)

    def test_everything_affordable_takes_everything(self):
        instance = validate_instance(
            RawInstance(
                costs=(Fraction(1, 8),) * 4,
                voters=(
                    OracleSpec("max-value", {"values": [1.0, 0.5, 0.25, 0.75]}),
                    OracleSpec("additive", {"values": [1.0, 2.0, 3.0, 4.0]}),
                ),
            )
        )
        bundle = optimal_welfare(instance)
        assert bundle.items == {0, 1, 2, 3}
        assert bundle.welfare == pytest.approx(2.0, abs=1e-12)

    def test_single_alternative(self):
        instance = validate_instance(
            RawInstance(
                costs=(Fraction(1),),
                voters=(OracleSpec("additive", {"values": [1.0]}),),
            )
        )
        bundle = optimal_welfare(instance)
        assert bundle.items == {0}
        assert bundle.welfare == pytest.approx(1.0)

    def test_enumeration_budget_enforced(self):
        m = EXACT_ENUMERATION_LIMIT + 1
        instance = validate_instance(
            RawInstance(
                costs=(Fraction(1, 32),) * m,
                voters=(OracleSpec("additive", {"values": [1.0] * m}),),
            )
        )
        with pytest.raises(ExceedsExactBudget):
            optimal_welfare(instance)

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(99)
        families = ["additive", "coverage", "concave", "max-value"]
        for trial in range(25):
            m = rng.randint(1, 6)
            family = families[trial % 4]
            if family == "coverage":
                universe = rng.randint(1, 5)
                params = {
                    "weights": [rng.uniform(0.1, 1.0) for _ in range(universe)],
                    "covers": [
                        sorted(
                            rng.sample(range(universe), rng.randint(1, universe))
                        )
                        for _ in range(m)
                    ],
                }
            elif family == "concave":
                params = {
                    "values": [rng.uniform(0.1, 1.0) for _ in range(m)],
                    "gamma": rng.uniform(0.2, 1.0),
                }
            else:
                params = {"values": [rng.uniform(0.1, 1.0) for _ in range(m)]}
            instance = validate_instance(
                RawInstance(
                    costs=tuple(Fraction(rng.randint(1, 8), 8) for _ in range(m)),
                    voters=(OracleSpec(family, params),),
                )
            )
            bundle = optimal_welfare(instance)
            expected_set, expected_welfare = helpers.brute_force_best_welfare(instance)
            assert bundle.welfare == pytest.approx(expected_welfare, abs=1e-9)
            assert social_welfare(instance, bundle.items) == pytest.approx(
                expected_welfare, abs=1e-9
            )

    def test_dominates_random_feasible_sets(self):
        rng = random.Random(5)
        instance = validate_instance(
            RawInstance(
                costs=tuple(Fraction(rng.randint(1, 8), 8) for _ in range(8)),
                voters=(
                    OracleSpec("concave", {
                        "values": [rng.uniform(0.1, 1.0) for _ in range(8)],
                        "gamma": 0.7,
                    }),
                ),
            )
        )
        bundle = optimal_welfare(instance)
        for _ in range(200):
            size = rng.randint(0, 8)
            sample = rng.sample(range(8), size)
            if helpers.feasible(instance, sample):
                assert social_welfare(instance, sample) <= bundle.welfare + 1e-9


def valued_instances():
    """Seeded concave, max-value and mixed instances (m <= 10) under the
    three cost models of `tie_costs`. A mixed instance has a voter of each
    family, so its welfare sums a coverage, a concave and a max-value part."""
    for family in ("concave", "max-value", "mixed"):
        for model in ("equal", "dyadic", "coprime"):
            rng = random.Random(f"worth/{family}/{model}")
            for _ in range(4):
                m = rng.randint(1, 10)
                families = FAMILIES if family == "mixed" else [family] * rng.randint(1, 3)
                yield validate_instance(RawInstance(
                    costs=tie_costs(rng, model, m),
                    voters=tuple(grid_voter(rng, f, m) for f in families),
                ))


#: The optimum's `extend` calls on each of `valued_instances`, in order,
#: when the walk was pruned by the skipped items' last gains alone.
LAST_GAIN_EXTENDS = (
    3, 250, 3, 5, 3, 24, 2, 8, 7, 36, 1, 21, 54, 1, 16, 4, 4, 11,
    14, 19, 1, 17, 95, 4, 6, 14, 20, 1, 1, 7, 5, 17, 32, 1, 20, 47)

#: The same counts with the shared cover signatures of the skipped items
#: and the forced drop in the bound: none above `LAST_GAIN_EXTENDS`.
VALUED_INSTANCE_EXTENDS = (
    3, 147, 3, 5, 3, 12, 2, 5, 7, 21, 1, 19, 54, 1, 16, 4, 4, 11,
    14, 19, 1, 17, 95, 4, 6, 14, 10, 1, 1, 6, 3, 14, 17, 1, 16, 43)


class TestValuesWhereRead:
    def test_worth_once_per_compared_set(self, monkeypatch):
        # Every set the optimum compares, forced completion or final set, is
        # maximal and compared once, so at most every maximal set is; the
        # pruned ones are not. A mixed instance's parts are valued once per
        # value of their sum.
        extends = []
        for instance in valued_instances():
            welfare = instance.welfare
            parts = getattr(welfare, "parts", ())
            calls = Counter()
            with monkeypatch.context() as patch:
                for oracle in (welfare, *parts):
                    for name in ("extend", "worth"):
                        patch.setattr(oracle, name, helpers.counting(calls, oracle, name))
                bundle = optimal_welfare(instance)
            compared = len(helpers.maximal_sets(instance))
            assert calls[welfare, "worth"] <= compared
            for part in parts:
                assert calls[part, "worth"] == calls[welfare, "worth"]
                assert calls[part, "extend"] == calls[welfare, "extend"]
            assert bundle == helpers.optimum_by_recursion(instance)
            extends.append(calls[welfare, "extend"])
        assert len(parts) == 3  # the last instance is mixed
        assert tuple(extends) == VALUED_INSTANCE_EXTENDS
        assert all(map(operator.le, VALUED_INSTANCE_EXTENDS, LAST_GAIN_EXTENDS))

    def test_maximal_sets_walk_equals_brute_force(self):
        for instance in valued_instances():
            fits = [c for c in helpers.powerset(range(instance.m))
                    if helpers.feasible(instance, c)]
            assert sorted(helpers.maximal_sets(instance)) == sorted(
                c for c in fits if not any(helpers.feasible(instance, c + (a,))
                                           for a in range(instance.m) if a not in c))


#: Values of `tie_heavy_values`: the eighths, on which sums tie exactly, and
#: three tenths, whose sums round.
TIE_HEAVY = tuple(k / 8 for k in range(9)) + (0.1, 0.2, 0.3)


def tie_heavy_values(rng, size):
    """Values from `TIE_HEAVY`, not all zero."""
    values = [rng.choice(TIE_HEAVY) for _ in range(size)]
    values[rng.randrange(size)] = rng.choice(TIE_HEAVY[1:])
    return values


def mixed_families(rng):
    return rng.sample(FAMILIES, rng.randint(2, 4))


def premise_voters(family, m):
    """Voters of one family at extremes that validation accepts: weights
    near 1e-300, one large value beside tiny ones, and 1 beside values of
    1e-17, below the rounding error of a total near 1; for the concave family
    each at gamma 0.01, 0.25, 0.4 and 1."""
    rng = random.Random(f"premise/{family}/{m}")
    tiny = [rng.uniform(1, 2) * 1e-300 for _ in range(m)]
    lopsided = [1e300] + [rng.uniform(1, 2) * 1e-300 for _ in range(m - 1)]
    cancelling = [1.0] + [1e-17] * (m - 1)
    if family == "coverage":
        covers = [sorted(rng.sample(range(m), rng.randint(1, m))) for _ in range(m)]
        return [OracleSpec(family, {"weights": weights, "covers": covers})
                for weights in (tiny, lopsided, cancelling)]
    if family == "concave":
        return [OracleSpec(family, {"values": values, "gamma": gamma})
                for values in (tiny, lopsided, cancelling) for gamma in (0.01, 0.25, 0.4, 1.0)]
    return [OracleSpec(family, {"values": values}) for values in (tiny, lopsided, cancelling)]


def premise_instance(family, m, costs):
    """`premise_voters` of the family, or of every family for mixed files,
    beside three voters from `tie_heavy_values` (two to four families for
    mixed files), at these costs."""
    if family == "mixed":
        voters = [spec for f in FAMILIES for spec in premise_voters(f, m)]
    else:
        voters = premise_voters(family, m)
    rng = random.Random(f"premise/{family}/{m}")
    voters += [grid_voter(rng, f, m, tie_heavy_values)
               for f in (mixed_families(rng) if family == "mixed" else [family] * 3)]
    return validate_instance(RawInstance(costs=costs, voters=tuple(voters)))


def equal_cost_instance(family, m, n, cost, seed, **params):
    """A generator instance at m equal costs; a mixed one holds the n voters
    of each family's generator at the same spec."""
    costs = Fixed((cost,) * m)
    if family != "mixed":
        return generate(GeneratorSpec(family, m, n, costs, seed=seed,
                                      family_params=tuple(params.items())))
    raws = [generate_raw(GeneratorSpec(f, m, n, costs, seed=seed)) for f in FAMILIES]
    return validate_instance(RawInstance(costs=raws[0].costs,
                                         voters=tuple(v for raw in raws for v in raw.voters)))


def pruning_edge_instances(family):
    """Equal-cost instances where the pruning has most to get wrong. Sixteen
    to eighteen alternatives of which the budget takes ten to twelve, where
    the walk prunes most of the maximal sets, by the shared cover signatures
    of the skipped items and the drop that the budget forces on the rest as
    well as by the last gains: for every family, and for coverage with and
    without private elements. For mixed files also a concave voter whose
    rest beside 1 is 1e-17, whose 0.01th power is 0.676: taken as total - 1
    = 0, it would give item 0 a last gain of 1 instead of 0.324, and
    skipping 0 would prune the optimum {1}."""
    instances = [equal_cost_instance(family, 18, 5, Fraction(1, 12), seed=3)]
    if family == "coverage":
        instances += [equal_cost_instance(family, 17, 8, Fraction(1, 10), seed=4),
                      equal_cost_instance(family, 18, 5, Fraction(1, 12), seed=5,
                                          private_elements=True),
                      equal_cost_instance(family, 16, 20, Fraction(3, 32), seed=2,
                                          private_elements=True)]
    if family == "mixed":
        instances += [equal_cost_instance(family, 16, 2, Fraction(3, 32), seed=3),
                      validate_instance(RawInstance(costs=(Fraction(1),) * 2, voters=(
                          OracleSpec("concave", {"values": [1.0, 1e-17], "gamma": 0.01}),
                          OracleSpec("additive", {"values": [0.01, 0.99]}),
                      )))]
    return instances


class TestPruning:
    """The optimum leaves a subtree once the last gains of the items skipped
    on its path exceed n * (1 + 2^-20) minus the incumbent's welfare."""

    @pytest.mark.parametrize("model", ["equal", "grid", "coprime"])
    @pytest.mark.parametrize("family", [*FAMILIES, "mixed"])
    def test_same_optimum_as_the_unpruned_walk(self, family, model):
        rng = random.Random(f"prune/{family}/{model}")
        instances = []
        for _ in range(300):
            m = rng.randint(1, 10)
            families = (mixed_families(rng) if family == "mixed"
                        else [family] * rng.randint(1, 4))
            instances.append(validate_instance(RawInstance(
                costs=tie_costs(rng, model, m),
                voters=tuple(grid_voter(rng, f, m, tie_heavy_values) for f in families),
            )))
        if model == "equal":
            instances += pruning_edge_instances(family)
        for instance in instances:
            assert optimal_welfare(instance) == helpers.optimum_by_recursion(instance)

    def test_prunes_the_exact_shortlist_walk(self, monkeypatch):
        # The exact-shortlist bench shape: unpruned, the walk extends once per
        # non-empty prefix of a 10-subset of 16, C(17, 10) - 1 = 19,447 times,
        # and pruned by the skipped items' last gains alone, 7,845 times.
        instance = generate(GeneratorSpec("coverage", 16, 20, Fixed((Fraction(3, 32),) * 16),
                                          seed=1))
        welfare = instance.welfare
        calls = Counter()
        monkeypatch.setattr(welfare, "extend", helpers.counting(calls, welfare, "extend"))
        bundle = optimal_welfare(instance)
        assert calls[welfare, "extend"] == 3078 <= 7845 < math.comb(17, 10) - 1
        assert bundle == helpers.optimum_by_recursion(instance)

    @pytest.mark.parametrize("family", [*FAMILIES, "mixed"])
    def test_grand_value_and_last_gains_fit_the_ceiling(self, family):
        # The bound n - (the skipped items' last gains) is sound when the grand
        # value is at most n and no last gain exceeds f(A) - f(A - k), each up
        # to the margin of 2^-20 n. The last gains are also nonnegative up to
        # the margin, as a table of real last gains is.
        for m in (1, 2, 7, 24):
            instance = premise_instance(family, m, (Fraction(1),) * m)
            n = instance.n
            lasts = _last_gains(instance)
            grand = instance.welfare.value(range(m))
            assert grand <= n * (1 + 2**-20)
            assert sum(lasts) >= -n * 2**-20
            for k, last in enumerate(lasts):
                rest = instance.welfare.value([a for a in range(m) if a != k])
                assert last <= grand - rest + n * 2**-20

    @pytest.mark.parametrize("model", ["grid", "dyadic", "coprime"])
    @pytest.mark.parametrize("family", [*FAMILIES, "mixed"])
    def test_skip_losses_and_forced_drops_fit_their_sets(self, family, model):
        # The bound n - lost - drop is sound when, up to the margin of 2^-20 n,
        # lost never exceeds f(A) - f(A - K) for the skipped items K, and drop
        # never exceeds the least summed last gains of a set D of the items
        # left that costs at least the need. On the coverage part lost is
        # f(A) - f(A - K) itself, so on additive and coverage voters it is also
        # no less. Skips are taken in ascending order, as the walk takes them:
        # every item below a skipped one is chosen or skipped already.
        for m in (1, 2, 7, 12):
            rng = random.Random(f"bound/{family}/{model}/{m}")
            instance = premise_instance(family, m, tie_costs(rng, model, m))
            margin = instance.n * 2**-20
            lasts = _last_gains(instance)
            shared = instance.welfare.shared_signatures(m)
            grand = instance.welfare.value(range(m))
            for _ in range(20):
                skipped = sorted(rng.sample(range(m), rng.randint(1, m)))
                lost = 0.0
                for i, k in enumerate(skipped):
                    chosen = sum(1 << a for a in range(k) if a not in skipped)
                    lost += _skip_loss(lasts[k], shared[k], chosen)
                    kept = instance.welfare.value([a for a in range(m)
                                                   if a not in skipped[:i + 1]])
                    assert lost <= grand - kept + margin
                    if family in ("additive", "coverage"):
                        assert lost >= grand - kept - margin
            costs, _ = _integer_costs(instance.costs)
            drop = _forced_drop(lasts, costs)
            for j in range(m + 1):
                # The (cost, summed last gains) of every set of items j..; the
                # least sum over a cost of at least c changes only at the
                # costs of sets, where the drop, which grows with the need,
                # is largest for that least sum.
                subsets = [(0, 0.0)]
                for a in range(j, m):
                    subsets += [(c + costs[a], paid + lasts[a]) for c, paid in subsets]
                total = sum(costs[j:])
                least = math.inf
                for cost, group in itertools.groupby(sorted(subsets, reverse=True),
                                                     key=operator.itemgetter(0)):
                    least = min(least, *[paid for _, paid in group])
                    assert drop(j, total - cost) <= least + margin
                assert drop(j, total) == drop(j, total + 1) == 0.0
