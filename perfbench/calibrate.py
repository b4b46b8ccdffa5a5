"""Host-speed calibration.

The benchmark runs on shared hosts whose speed drifts: on a 2-core Intel Xeon
guest the same pure-Python loop, single-threaded and with process time equal
to wall time, ran up to 70 % slower from one few-minute stretch to the next.
A raw timing then measures the host as much as the program.  So the driver
runs a fixed calibration sample in its own process between the operations of
a run, and scales the run's timings by the mean speed of its samples
(``scale``).

The sample does the two kinds of work ``dupcat`` spends its time on, using
only the standard library so that no change to ``dupcat`` changes it:
Gauss-Jordan elimination over ``Fraction`` and enumeration of paths in a
layered graph into a set of tuples.  ``REFERENCE_S`` is the time of one
sample at the reference speed (about what it took on that Xeon, Python 3.11);
a calibrated time is the time the operation would have taken at that speed.

The correction is not exact.  Across runs on that host the operations' times
moved with the sample's time to a power of 0.6-0.8 (log-log least squares),
so a slow stretch still reads somewhat fast once calibrated.  Still, in three
of four sets of ten runs the calibrated timings spread less than the raw ones
(0.05-0.12 against 0.16-0.19 of the median), and the medians of two sets
moved 6 % apart instead of 17 %.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

REFERENCE_S = 0.04

_rng = random.Random(20050901)
_MATRIX = [[_rng.randint(-4, 4) for _ in range(19)] for _ in range(16)]
_LAYERS, _WIDTH = 11, 6


def _eliminate():
    rows = [[Fraction(x) for x in row] for row in _MATRIX]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _paths():
    """All paths from layer 0 to the last layer of a graph in which each
    vertex has an arrow to its own and the next column of the next layer."""
    paths = {(v,) for v in range(_WIDTH)}
    for _ in range(_LAYERS):
        paths = {p + (w,) for p in paths for w in (p[-1], (p[-1] + 1) % _WIDTH)}
    return len(paths)


def sample() -> float:
    """Seconds one calibration sample takes now."""
    start = time.perf_counter()
    _eliminate()
    _paths()
    return time.perf_counter() - start


def scale(times) -> float:
    """Factor that turns timings taken among the samples ``times`` into
    calibrated seconds."""
    return REFERENCE_S * len(times) / sum(times)
