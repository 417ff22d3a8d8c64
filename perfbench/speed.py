"""Host speed probe: rescales measured times to a fixed reference speed.

On shared hosts the speed can drift by up to 1.7x, in phases from under a
second to tens of seconds, so raw times of two runs of the same code can
differ by more than any useful regression bound.  The probe times a fixed
piece of pure-Python work (Fraction arithmetic and container churn, the
same kind of interpretive work the program does; it runs no program code)
before a job once ``every`` seconds have passed since its last sample, and
after each pass.  A job's time is then scaled by
``CALIBRATION_REFERENCE_S`` over the probe's time around it: reference
seconds are what the job would take on a host that runs the probe in
exactly ``CALIBRATION_REFERENCE_S``.  A change to the program moves the
job times and not the probe, so it moves the scaled times as it would move
raw times on a quiet host.  Raw times stay in the result files.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

CALIBRATION_REFERENCE_S = 0.010


def calibration_loop() -> int:
    """Fixed work of about 10 ms on a 2.1 GHz Xeon with CPython 3.11."""
    x = Fraction(0)
    for i in range(1, 1000):
        x += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(1, i % 3 + 2)
    table = {}
    for i in range(2000):
        table[i % 97, i] = [i] * 3
    return x.numerator + len(table)


class SpeedProbe:
    """Calibration samples of one run, with their start times."""

    def __init__(self, every: float = 0.1):
        self.every = every
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        calibration_loop()
        self.seconds.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def sample_if_due(self) -> None:
        if not self.starts or time.perf_counter() - self.starts[-1] >= self.every:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference over host speed for an interval, from the mean of the
        last sample before it and the first one after it.  The host's speed
        can change within a second, so nearer samples track it best."""
        before = bisect.bisect_right(self.starts, start) - 1
        after = bisect.bisect_left(self.starts, end)
        around = [self.seconds[k] for k in (before, after) if 0 <= k < len(self.seconds)]
        return CALIBRATION_REFERENCE_S / statistics.mean(around)
