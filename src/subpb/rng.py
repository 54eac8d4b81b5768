"""Named deterministic random streams, and the draws made from them.

Every randomized branch of the pipeline derives its own stream from
(seed, labels...) so runs are reproducible and branches are independent
of evaluation order. Derivation hashes the label path; Python's builtin
`hash` is salted per process and must not be used here.

The draws are this module's own algorithms over the stream's `random()`
and `getrandbits`: `below`, `randint`, `uniforms` and `sample` make the
same draws as `random.Random`'s `randrange`, `randint`, `uniform` and
`sample` did on Python 3.10 to 3.13, without the per-call overhead of
those wrappers, and do not change with the standard library's.
"""

from __future__ import annotations

import random

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


def sample(rng: random.Random, start: int, size: int, count: int) -> list[int]:
    """`count` distinct ints of range(start, start + size), in the order
    drawn. A pool of at most 21 is a list whose picks are swapped out for
    its last unpicked member; a larger one is drawn from whole, and a pick
    already made is redrawn, which suits only small counts. `Random.sample`
    makes the same draws up to a count of 5, past which its list path
    reaches larger pools."""
    picks = []
    if size <= 21:
        pool = list(range(start, start + size))
        for i in range(count):
            j = below(rng, size - i)
            picks.append(pool[j])
            pool[j] = pool[size - i - 1]
    else:
        for _ in range(count):
            j = start + below(rng, size)
            while j in picks:
                j = start + below(rng, size)
            picks.append(j)
    return picks
