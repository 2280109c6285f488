"""A fixed reference computation that gauges how fast the machine runs now.

On a shared host the speed available to one process moves by tens of
percent over seconds to minutes. The benchmark times this reference just
before and just after each command and scales the command's wall time by
REFERENCE_S over the mean of the two readings, so pass_s reads in seconds
at a fixed machine speed. The reference uses only the interpreter and numpy
(small-array calls in a Python loop, the program's typical per-call mix),
never the program, so no change to the program moves it.
"""
from __future__ import annotations

import math
import time

import numpy as np

# Nominal duration of one reading, about what it takes on an unloaded
# two-core host; any fixed value would do, it only sets the scale.
REFERENCE_S = 0.004
REPEATS = 3


def _reference() -> float:
    total = 0.0
    for k in range(1, 31):
        j = np.arange(1, k + 1, dtype=float)
        for i in range(1, 21):
            a = i / (21 * (k + 1))
            sines = np.abs(np.sin(np.pi * j * a))
            total += float(np.sum((k + 1 - j) / sines ** 2)) + math.sqrt(a)
    return total


def reading() -> float:
    """Wall seconds of the reference, the least of REPEATS back-to-back runs
    (an interrupt or a collection lengthens one run, not all of them)."""
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        _reference()
        best = min(best, time.perf_counter() - start)
    return best
