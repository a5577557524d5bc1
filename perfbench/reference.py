"""Machine-speed references: fixed tasks timed between the items.

The benchmark shares a few cores of a host with other work. On the 2-vCPU
machine it was written on, the same code ran up to 1.9x slower for
stretches from a second to several minutes, and the median run of a fixed
item in a 10 s window varied by 20-35% (IQR over median of eight windows).
The slowdown hits CPU time as much as wall time, so it comes from the host,
not from the scheduler of this process. A fixed task timed next to the items
slows down with them: over the same windows the ratio of item time to
reference time varied by 2-4%.

So a run times a reference task every ``every_s`` seconds, and
:meth:`Speed.corrected` scales a measured duration by the task's nominal
time over its median time around that duration: the duration the work
would have taken on the machine at rest. Work in this process is scaled by
:func:`reference_task`; a child process is scaled by the start of a bare
interpreter (``python -c pass``), because process start-up slows down less
than Python code does (1.4x against 1.9x in one such stretch). Neither task
touches ``singvol``, and the in-process one runs with the garbage collector
off, so nothing the program does or keeps alive changes their times.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# Median times of the two tasks on an idle 2-vCPU Xeon VM (Python 3.11).
REFERENCE_S = 0.0019
PYTHON_START_S = 0.040


def reference_task() -> Fraction:
    """Exact elimination of a fixed 10x10 rational matrix, plus the dict,
    tuple and string handling that surrounds such work in the program."""
    n = 10
    m = [[Fraction((3 * i + 7 * j) % 11 - 5, 1 + (i * j) % 5) + (2 * n if i == j else 0)
          for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    index = {(f"v{k}", k % 7): str(k * k) for k in range(600)}
    order = sorted(index, key=lambda key: (index[key], key))
    return det + len(order)


def start_python() -> None:
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, timeout=60, check=True)


class Speed:
    """Timings of one reference task in one run, by the time they were taken.

    ``nearest`` samples around a duration give its speed. The speed changes
    within a second, so the samples must sit close to the work: with one
    in-process sample at most every 0.05 s (before nearly every item), items
    of a fixed pool varied by 4% in median from run to run, against 8% with
    one every 0.2 s and the nearest seven.
    """

    def __init__(self, task=reference_task, nominal_s: float = REFERENCE_S,
                 every_s: float = 0.05, nearest: int = 3) -> None:
        self.task, self.nominal_s = task, nominal_s
        self.every_s, self.nearest = every_s, nearest
        self.at: list[float] = []
        self.dt: list[float] = []

    @classmethod
    def of_processes(cls) -> "Speed":
        return cls(start_python, PYTHON_START_S, every_s=0.5, nearest=3)

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.task()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.at.append((start + end) / 2)
        self.dt.append(end - start)

    def maybe_sample(self) -> None:
        """Take a sample if the last one is more than ``every_s`` old."""
        if not self.at or time.perf_counter() - self.at[-1] >= self.every_s:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Median time of the ``nearest`` samples closest to the interval's
        middle, over the task's nominal time: 1 on the machine at rest,
        above 1 when it runs slower."""
        mid = (start + end) / 2
        i = bisect.bisect_left(self.at, mid)
        lo, hi = i, i
        while hi - lo < min(self.nearest, len(self.at)):
            if lo > 0 and (hi == len(self.at) or mid - self.at[lo - 1] <= self.at[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.dt[lo:hi]) / self.nominal_s

    def corrected(self, start: float, dt: float) -> float:
        """``dt`` seconds measured from ``start``, on the machine at rest."""
        return dt / self.factor(start, start + dt)
