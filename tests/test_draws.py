"""The generator's draws. `rng`'s own integer, float and cover draws equal
the standard library's on the running Python, value by value and in the
state they leave behind; `rng.streams` yields the generators of
`rng.stream`, one per index; and the instance files generated over a grid of
specs hash to one digest, recorded when the standard library still made
the draws."""

import hashlib
import random
from fractions import Fraction

import pytest

from subpb import rng
from subpb.cli import render_instance_file
from subpb.core import FAMILIES
from subpb.experiment import Dyadic, Fixed, GeneratorSpec, UniformRational, generate_raw

SEEDS = range(40)


def assert_same_state(ours: random.Random, theirs: random.Random) -> None:
    assert ours.getrandbits(64) == theirs.getrandbits(64)


def stdlib_samples(r: random.Random, start: int, size: int, most: int, count: int):
    return [sorted(r.sample(range(start, start + size), r.randint(1, most)))
            for _ in range(count)]


@pytest.mark.parametrize("size", range(1, 65))
def test_sample_equals_the_stdlib(size):
    # Pools of up to 21 take the stdlib's list path, larger ones its set path;
    # its set path agrees for counts up to 5.
    for most in range(1, min(5, size) + 1):
        for seed in SEEDS:
            ours, theirs = random.Random(seed), random.Random(seed)
            assert rng.sorted_samples(ours, 7, size, most, 4) == stdlib_samples(
                theirs, 7, size, most, 4)
            assert_same_state(ours, theirs)


@pytest.mark.parametrize("private", [False, True])
@pytest.mark.parametrize("size", range(1, 25))
def test_covers_equal_the_stdlib(size, private):
    # A generated voter with private elements draws its covers from the
    # upper half of a universe of 2m, and a plain one from all of it.
    m = size if private else max(1, size // 2)
    start = m if private else 0
    for most in range(1, min(3, size) + 1):
        for seed in SEEDS:
            ours, theirs = random.Random(seed), random.Random(seed)
            assert rng.sorted_samples(ours, start, size, most, m) == stdlib_samples(
                theirs, start, size, most, m)
            assert_same_state(ours, theirs)


@pytest.mark.parametrize("low, high", [(1, 1), (1, 2), (1, 3), (0, 5), (3, 40)]
                         + [(1, 2**j) for j in range(0, 70, 3)])
def test_randint_equals_the_stdlib(low, high):
    for seed in SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [rng.randint(ours, low, high) for _ in range(5)] == [
            theirs.randint(low, high) for _ in range(5)]
        assert_same_state(ours, theirs)


@pytest.mark.parametrize("low, high", [(0.05, 1.0), (0.1, 1.0), (0.4, 1.0), (-3.0, 7.5)])
def test_uniforms_equal_the_stdlib(low, high):
    for seed in SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        assert rng.uniforms(ours, low, high, 9) == [theirs.uniform(low, high) for _ in range(9)]
        assert_same_state(ours, theirs)


@pytest.mark.parametrize("labels", [(), ("voter",), (3,), ("voter", "coverage", 16, 100),
                                    (0, "mc", -2, "x/y")],
                         ids=["none", "str", "int", "voter", "mixed"])
@pytest.mark.parametrize("count", [0, 1, 7])
def test_streams_equal_one_stream_per_index(labels, count):
    # The i-th generator `streams` yields is in the state of
    # `stream(seed, *labels, i)`, makes the same draws and leaves the same state.
    for seed in SEEDS:
        yielded = 0
        for i, ours in enumerate(rng.streams(seed, count, *labels)):
            theirs = rng.stream(seed, *labels, i)
            assert ours.getstate() == theirs.getstate()
            assert [ours.random(), ours.getrandbits(5), ours.getrandbits(70)] == [
                theirs.random(), theirs.getrandbits(5), theirs.getrandbits(70)]
            assert ours.getstate() == theirs.getstate()
            yielded += 1
        assert yielded == count


def draw_grid_specs():
    """Every family, coverage with and without private elements, m on both
    sides of the stdlib sample's path switch (a pool of 21 or 22: plain
    covers draw from 2m elements, private ones from m), and all three cost
    models."""
    for m in (1, 2, 3, 5, 10, 11, 12, 21, 22, 24):
        fixed = Fixed(tuple(Fraction(1 + a % 3, 4) for a in range(m)))
        for cost_model in (UniformRational(), UniformRational(4 * m), Dyadic(), fixed):
            for seed in (0, 7):
                for family in FAMILIES:
                    yield GeneratorSpec(family, m, 3, cost_model, seed)
                yield GeneratorSpec("coverage", m, 3, cost_model, seed,
                                    (("private_elements", True),))


#: sha256 of the instance files of `draw_grid_specs`, recorded when the
#: generator still drew through `random.Random.randint`, `uniform` and
#: `sample` (Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0 agree).
GRID_DIGEST = "0f2d870f20636e14e38c8d61f10bf740413fe64bbe1e07afa53b1d338da9482f"


def test_generated_instances_match_the_recorded_draws():
    digest = hashlib.sha256()
    for spec in draw_grid_specs():
        digest.update(render_instance_file(generate_raw(spec)).encode())
    assert digest.hexdigest() == GRID_DIGEST
