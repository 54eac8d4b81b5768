"""What reordering the voters or relabelling the alternatives must leave
alone: the votes and plans where no tie rule decides, and the optimum and
curvature up to the rounding of sums taken in a new order.

Voter order is not neutral everywhere: harmonic scores are float sums in
voter order, so equal exact scores can round apart and move a ranking
shortlist (ROADMAP item 22). The last test pins one such instance."""

import itertools
import random
from fractions import Fraction

import pytest

from subpb import experiment
from subpb.core import FAMILIES, OracleSpec, RawInstance, max_curvature, validate_instance
from subpb.elicitation import Method, approval_profile, ranking_profile
from subpb.experiment import GeneratorSpec, UniformRational, evaluate, generate_raw
from subpb.optimize import optimal_welfare
from subpb.partition import shortlist_cap

MIXES = (Fraction(1, 3), Fraction(1, 2), Fraction(1))
RANKING = (Method.MARGINAL_VALUES, Method.STANDALONE_VALUES)
REL = 1e-12


def mixed_raw(m: int, n: int, seed: int) -> RawInstance:
    """Voters of all four families over the costs of the additive instance."""
    raws = [generate_raw(GeneratorSpec(family, m, n, seed=seed)) for family in FAMILIES]
    return RawInstance(raws[0].costs, tuple(v for raw in raws for v in raw.voters))


RAWS = {
    **{f"{family}-s{seed}": generate_raw(GeneratorSpec(family, 8, 6, UniformRational(8), seed))
       for family, seed in itertools.product(FAMILIES, (1, 2, 3))},
    "mixed-s1": mixed_raw(7, 2, 1),
    "mixed-s2": mixed_raw(7, 2, 2),
}


def reordered(raw: RawInstance, seed: int) -> RawInstance:
    voters = list(raw.voters)
    random.Random(seed).shuffle(voters)
    return raw._replace(voters=tuple(voters))


def relabelled(raw: RawInstance, order: list[int]) -> RawInstance:
    """Alternative a renamed order[a], its cost and each voter's value or
    cover moving with it."""
    def moved(items):
        out = [None] * len(items)
        for a, item in enumerate(items):
            out[order[a]] = item
        return out

    voters = []
    for spec in raw.voters:
        params = dict(spec.params)
        key = "covers" if spec.family == "coverage" else "values"
        params[key] = moved(params[key])
        voters.append(OracleSpec(spec.family, params))
    return RawInstance(tuple(moved(raw.costs)), tuple(voters))


def plan(instance, method, mix):
    return experiment._plan(experiment._InstanceFacts(instance), method, mix)


def close(x: float, y: float, rel: float = REL) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y), 1.0)


def binding_scores(instance) -> list[list[Fraction]]:
    """The exact harmonic scores of every binding group's members, under
    each ranking method in turn."""
    partition = experiment._InstanceFacts(instance).partition
    found = []
    for method, (t, group) in itertools.product(RANKING, enumerate(partition.groups)):
        if len(group) > shortlist_cap(partition.m, t):
            scores = dict.fromkeys(group, Fraction(0))
            for ranking in ranking_profile(instance, partition, method, t):
                for position, a in enumerate(ranking, start=1):
                    scores[a] += Fraction(1, position)
            found.append(list(scores.values()))
    return found


@pytest.mark.parametrize("name", RAWS)
def test_reordered_voters_keep_votes_plans_and_curvature(name):
    raw = RAWS[name]
    instance = validate_instance(raw)
    thresholds = experiment._InstanceFacts(instance).partition.thresholds
    optimum = optimal_welfare(instance).welfare
    for seed in range(4):
        shuffled = validate_instance(reordered(raw, seed))
        assert approval_profile(shuffled, thresholds) == approval_profile(instance, thresholds)
        for mix in MIXES:
            assert (plan(shuffled, Method.THRESHOLD_APPROVAL, mix)
                    == plan(instance, Method.THRESHOLD_APPROVAL, mix))
        assert max_curvature(shuffled) == max_curvature(instance)
        # The concave and max-value parts sum their voters left to right.
        assert close(optimal_welfare(shuffled).welfare, optimum)


def test_reordered_voters_keep_ranking_plans_without_exact_ties():
    # Where exact scores are pairwise distinct, no rounding can decide a
    # shortlist. Half the instances qualify and rank a binding group.
    checked = 0
    for raw in RAWS.values():
        instance = validate_instance(raw)
        groups = binding_scores(instance)
        if not groups or any(len(set(scores)) < len(scores) for scores in groups):
            continue
        checked += 1
        for seed in range(4):
            shuffled = validate_instance(reordered(raw, seed))
            for method, mix in itertools.product(RANKING, MIXES):
                assert plan(shuffled, method, mix) == plan(instance, method, mix), (raw, seed)
    assert checked >= len(RAWS) // 2


@pytest.mark.parametrize("name", RAWS)
def test_relabelled_alternatives_keep_optimum_curvature_and_groups(name):
    raw = RAWS[name]
    instance = validate_instance(raw)
    facts = experiment._InstanceFacts(instance)
    sizes = [len(group) for group in facts.partition.groups]
    for seed in range(3):
        order = list(range(instance.m))
        random.Random(seed).shuffle(order)
        moved = experiment._InstanceFacts(validate_instance(relabelled(raw, order)))
        assert [len(group) for group in moved.partition.groups] == sizes
        assert close(moved.optimum.welfare, facts.optimum.welfare)
        assert abs(moved.curvature - facts.curvature) <= REL


@pytest.mark.xfail(strict=True, reason="ROADMAP item 22: float harmonic scores in voter "
                                       "order break an exact tie by rounding, not by id")
def test_reordered_voters_keep_the_tied_marginal_rank_plan():
    # Alternatives 0 and 1 of group 3 both score exactly 10/3, and the
    # shuffled order rounds 1's sum above 0's. The plan changes, and E[W]
    # goes 1.1935916 -> 1.1780544.
    raw = generate_raw(GeneratorSpec("coverage", 6, 5, UniformRational(8), seed=4))
    voters = list(raw.voters)
    random.Random(4).shuffle(voters)
    instance = validate_instance(raw)
    shuffled = validate_instance(raw._replace(voters=tuple(voters)))
    method = Method.MARGINAL_VALUES
    assert plan(shuffled, method, Fraction(1, 2)) == plan(instance, method, Fraction(1, 2))
    assert evaluate(shuffled, method) == evaluate(instance, method)
