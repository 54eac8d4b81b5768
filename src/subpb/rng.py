"""Named deterministic random streams, and the draws made from them.

Every randomized branch of the pipeline derives its own stream from
(seed, labels...) so runs are reproducible and branches are independent
of evaluation order. Derivation hashes the label path; Python's builtin
`hash` is salted per process and must not be used here.
- `stream(seed, *labels)` is a fresh generator of its own.
- `streams(seed, count, *labels)` yields, for each i in range(count), the
  generator `stream(seed, *labels, i)` would return: the shared key prefix
  is hashed once and one generator is re-seeded in place per index, so each
  yielded generator is valid only until the next one is drawn.

The draws are this module's own algorithms over the stream's `random()`
and `getrandbits`, which make the same draws as `random.Random` did on
Python 3.10 to 3.13, without the per-call overhead of its wrappers, and
do not change with the standard library's:
- `below(rng, n)` as `randrange(n)`;
- `randint` as `randint`;
- `uniforms(rng, low, high, count)` as `count` calls of `uniform(low, high)`;
- `sorted_samples(rng, start, size, most, count)`, a coverage voter's
  covers, as `count` times `sorted(sample(range(start, start + size),
  randint(1, most)))`, for most <= 5.
"""

from __future__ import annotations

import random
from typing import Iterator

try:  # The builtin module, as `random` takes its sha512: `hashlib` loads OpenSSL.
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def stream(seed: int, *labels: object) -> random.Random:
    """Fresh RNG for the branch identified by `labels` under `seed`."""
    key = "/".join([repr(int(seed))] + [str(label) for label in labels])
    digest = sha256(key.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def streams(seed: int, count: int, *labels: object) -> Iterator[random.Random]:
    """For each i in range(count), a generator in the state of
    `stream(seed, *labels, i)`. The key prefix "seed/label/.../" is hashed
    once, and each index costs one copy of that hash plus str(i). One
    generator is yielded throughout, re-seeded in place per index, so each
    yielded generator is valid only until the next one is drawn. It is
    re-seeded through the C-level `seed`, past the `Random.seed` wrapper,
    which would also reset `gauss_next`: no draw of this module reads it."""
    prefix = sha256("/".join([repr(int(seed))] + [str(label) for label in labels] + [""])
                    .encode("utf-8"))
    rng = random.Random(0)
    reseed = super(random.Random, rng).seed
    for i in range(count):
        key = prefix.copy()
        key.update(str(i).encode("utf-8"))
        reseed(int.from_bytes(key.digest()[:8], "big"))
        yield rng


def below(rng: random.Random, n: int) -> int:
    """A uniform int in [0, n) for n >= 1: n.bit_length() random bits,
    redrawn until they fall below n."""
    bits = n.bit_length()
    r = rng.getrandbits(bits)
    while r >= n:
        r = rng.getrandbits(bits)
    return r


def randint(rng: random.Random, low: int, high: int) -> int:
    """A uniform int in [low, high]."""
    return low + below(rng, high - low + 1)


def uniforms(rng: random.Random, low: float, high: float, count: int) -> list[float]:
    """`count` uniform floats, each low + (high - low) * random()."""
    span = high - low
    draw = rng.random
    return [low + span * draw() for _ in range(count)]


def sorted_samples(rng: random.Random, start: int, size: int, most: int,
                   count: int) -> list[list[int]]:
    """`count` sorted lists of distinct ints of range(start, start + size),
    each of 1 + below(most) members, for 1 <= most <= size. A pool of at
    most 21 is a list whose picks are swapped out for its last unpicked
    member; a larger one is drawn from whole, and a pick already made is
    redrawn, which suits only small counts. `Random.sample` makes the same
    draws up to a count of 5, past which its list path reaches larger
    pools, so the two agree for most <= 5."""
    getrandbits = rng.getrandbits
    most_bits = most.bit_length()
    samples = []
    if size <= 21:
        # `below` inlined: the generator's private covers at m <= 21 come this way.
        members = list(range(start, start + size))
        for _ in range(count):
            k = getrandbits(most_bits)
            while k >= most:
                k = getrandbits(most_bits)
            pool = members.copy()
            picks = []
            left = size
            for _ in range(k + 1):
                bits = left.bit_length()
                j = getrandbits(bits)
                while j >= left:
                    j = getrandbits(bits)
                left -= 1
                picks.append(pool[j])
                pool[j] = pool[left]
            picks.sort()
            samples.append(picks)
    else:
        for _ in range(count):
            picks = []
            for _ in range(1 + below(rng, most)):
                j = start + below(rng, size)
                while j in picks:
                    j = start + below(rng, size)
                picks.append(j)
            picks.sort()
            samples.append(picks)
    return samples
