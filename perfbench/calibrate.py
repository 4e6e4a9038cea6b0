"""A fixed calibration burst that tracks the host's current speed.

The benchmark is meant to run on small shared machines whose speed drifts by
up to 2x within a minute, in phases that last from seconds to minutes.  A
time taken in one phase cannot be compared with a time taken in another.
So the benchmark times this burst next to the program's work, in the same
process, and scales each program time by ``REFERENCE_S / burst``:

    scaled = measured * REFERENCE_S / burst_seconds

The result is the time the work would take on a host running at the speed
at which one burst takes ``REFERENCE_S``.  The burst mixes the kinds of work
barychi does (``Fraction`` arithmetic, ``math.comb`` big ints, dict lookups
keyed by fractions) but calls none of barychi's code, so no change to the
program changes it.  Raw, unscaled figures are kept beside the scaled ones.
"""
from __future__ import annotations

import time
from fractions import Fraction
from math import comb

# Seconds one burst takes at the reference speed, about the fastest phase of
# a 2-vCPU shared x86-64 host with CPython 3.11.
REFERENCE_S = 0.005
_STEPS = 800


def _burst() -> int:
    acc = Fraction(0)
    table: dict[Fraction, int] = {}
    for i in range(1, _STEPS):
        acc += Fraction(i % 17 + 1, i % 19 + 2)
        table[acc] = table.get(acc, 0) + comb(40 + i % 60, 7)
    return len(table)


def burst_seconds(repeat: int = 1) -> float:
    """Median seconds of ``repeat`` bursts, timed now."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        _burst()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]
