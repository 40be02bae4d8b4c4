"""CPU-speed calibration for timings taken on a shared machine.

On a machine whose other tenants come and go, the speed of one core can
drift by a factor of two within a minute.  The benchmark therefore runs
this fixed pure-Python loop between ops and scales every time it reports
to a reference core on which the loop takes exactly `REFERENCE_S`:

    scaled time = measured time * REFERENCE_S / (loop time measured nearby)

A change to the program moves the measured times but not the loop, so the
scaled times compare commits; a slow spell moves both and cancels.  The
runner prints the measured times and the loop time beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

LOOP_ITERATIONS = 100_000
REFERENCE_S = 0.010


def loop_s() -> float:
    """Seconds one run of the calibration loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def speed_factor() -> float:
    """REFERENCE_S over the median of three loop times taken now."""
    return REFERENCE_S / statistics.median(loop_s() for _ in range(3))
