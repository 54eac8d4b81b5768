"""Machine-speed calibration for the benchmark's end-to-end timings.

On a few cores of a shared host, the speed of pure-Python code drifts by
a quarter or more over tens of seconds, so raw medians of two runs of the
same code can differ more than any useful bound. The drift is smooth on
the scale of a few seconds: a fixed loop timed just before and just after
a call runs at close to the speed the call saw.

`Clock` therefore times a calibration block on each side of every
measured interval and reports the interval scaled to a machine on which
one calibration unit takes `REFERENCE_UNIT_S`. The unit does not touch
`subpb`, so a change to the program cannot move it; it does the kinds of
work `subpb`'s hot paths are made of: `Fraction` arithmetic, frozenset
tables built from combinations, dict scans and a sort.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

#: Seconds one `unit()` takes on a 2-vCPU Intel Xeon container at its
#: typical speed. Scaled timings read as seconds on such a machine.
REFERENCE_UNIT_S = 0.0031


def unit() -> float:
    """A fixed amount of interpreter work; the result only keeps it live."""
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i) * Fraction(i % 7 + 1, 3)
    table = {frozenset(c): sum(c) * 0.5 for c in itertools.combinations(range(14), 4)}
    best = max(v for s, v in table.items() if 3 in s)
    return sorted(table.values())[-1] + best + float(total)


def unit_s(units: int) -> float:
    """Seconds per unit, timed over `units` units."""
    start = time.perf_counter()
    for _ in range(units):
        unit()
    return (time.perf_counter() - start) / units


class Clock:
    """Scales intervals measured between calibration blocks.

    Construct it right before the first interval; call `scale` right after
    each one. Each interval is scaled by the mean speed of the blocks on
    either side of it, and each block serves the intervals on both sides."""

    def __init__(self, units: int):
        self.units = units
        self.before = unit_s(units)

    def scale(self, seconds: float) -> float:
        after = unit_s(self.units)
        scaled = seconds * REFERENCE_UNIT_S / ((self.before + after) / 2)
        self.before = after
        return scaled
