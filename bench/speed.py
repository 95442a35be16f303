"""Host-speed reference for the benchmark's timings.

Shared hosts change speed under the benchmark: the same fixed work takes
from 1x to 2x as long from one few-second period to the next, in CPU time as
well as in wall time, as other tenants' load comes and goes. So every time
the benchmark reports is scaled by the speed of a fixed pure-Python kernel
timed in between: a time is reported as it would read on a host where the
kernel takes ``REFERENCE_S``. The kernel uses no entroplex code, so a change
to the package moves scaled times exactly as much as raw ones; only the
host's speed is divided out.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from fractions import Fraction

# Median kernel time on a 2-vCPU Xeon VM at 2.1 GHz, CPython 3.11.7.
REFERENCE_S = 0.007
GAP_S = 0.05    # timed item work between two kernel samples
WINDOW_S = 1.0  # samples this far either side of an item set its scale


def kernel() -> None:
    """Exact Gauss-Jordan elimination on a fixed 12x13 matrix and dict work:
    the kind of Python the package spends its time in."""
    rng = random.Random(1)
    n = 12
    rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n + 1)]
            for _ in range(n)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    table: dict = {}
    for k in range(3000):
        key = (k % 97, k & 13)
        table[key] = table.get(key, 0) + (k ^ (k >> 3))


class SpeedProbe:
    """Kernel samples over a run, and the scale they give each moment."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.since = GAP_S

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)
        self.since = 0.0

    def before_item(self) -> None:
        if self.since >= GAP_S:
            self.sample()

    def after_item(self, elapsed: float) -> None:
        self.since += elapsed

    def scale(self, at: float) -> float:
        """REFERENCE_S over the mean kernel time within WINDOW_S of ``at``
        (and at least the nearest sample on each side)."""
        lo = max(0, bisect.bisect_left(self.starts, at - WINDOW_S) - 1)
        hi = bisect.bisect_right(self.starts, at + WINDOW_S) + 1
        return REFERENCE_S / statistics.fmean(self.durations[lo:hi])

    def median_s(self) -> float:
        return statistics.median(self.durations)
