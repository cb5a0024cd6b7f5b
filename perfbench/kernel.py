"""The interleaved reference kernel.

A fixed piece of stdlib work -- Fraction arithmetic, dict stores under
tuple keys, ``math.exp`` -- that shares no code with explogint but exercises
the interpreter the way it does (small objects, hashing, growing integers).
The benchmark runs it after each request, in the process that waits for
it, and divides request CPU time by the kernel's CPU time per call: what
the same interpreter needed for fixed work at about the same moment.
Machine speed on a shared host drifts by tens of percent between runs; the
ratio drifts much less.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

_STEPS = 60


def kernel() -> float:
    table: dict[tuple[int, int, int], Fraction] = {}
    f = Fraction(1)
    x = 0.0
    for i in range(1, _STEPS + 1):
        f = f * Fraction(i + 1, i + 2) + Fraction(1, i)
        table[(i % 37, i % 11, i)] = f
        x += math.exp(-i / _STEPS)
    total = Fraction(0)
    for value in table.values():
        total += value
    return x + float(total)


#: Share of a request's wall time spent on the kernel right after it, so the
#: kernel samples the machine in proportion to the work.
SHARE = 0.15
_NOMINAL_CALL_S = 0.0005


def sample_after(wall: float) -> tuple[float, int]:
    """Run the kernel for about ``SHARE * wall`` seconds; return the CPU
    seconds per call and the number of calls."""
    reps = max(1, round(SHARE * wall / _NOMINAL_CALL_S))
    start = time.process_time()
    for _ in range(reps):
        kernel()
    return (time.process_time() - start) / reps, reps
