"""The yardstick that reference-normalized times are measured against.

On a shared 2-core host the same pass runs up to 1.5x slower from one second
to the next, because other tenants slow the core down rather than take it
away (CPU time swings with wall time). The benchmark therefore times a fixed
quantum of its own pure-Python work next to what it measures and scales the
measured wall time by nominal/measured quantum time. Reported seconds are
then seconds at the speed the quantum runs at in a quiet moment
(NOMINAL_S), whatever the neighbours do. This module imports nothing from
the program, so no change to the program can move the yardstick.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Duration of one quantum in a quiet moment of the machine the baseline was
# recorded on; only a unit, identical for every commit.
NOMINAL_S = 0.00025


def quantum() -> int:
    """Fixed work: Fraction arithmetic with dict and tuple traffic, the
    operation mix of the program's exact layers."""
    total = Fraction(0)
    table = {}
    for i in range(1, 60):
        total += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)
        table[(i % 97, i)] = (total.numerator % 1000, i)
    return len(table)


def seconds() -> float:
    """Wall time of one quantum, with the collector held off so the program's
    heap does not leak into the yardstick."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        quantum()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()

