"""Host-speed reference for the timing metrics.

On a shared host the same code can run 1.5x slower for a minute, or for a
few seconds, and then fast again: other tenants take the core and its caches
from under it, while process CPU time still equals wall time. No statistic
inside a run of the workload alone removes that. So every timed child also
runs a short fixed *burst* of reference work, about every ``INTERVAL_S`` of
its own run and outside every timed step. The burst is a pure-Python integer
loop: it does not touch avqds, numpy or memory, so a change to avqds moves
the timings and leaves the bursts alone, while a slower host moves both. The
median duration of the ``NEAREST`` bursts around a step is the host's speed
at that step.

On a 2-vCPU Xeon VM whose speed drifted by up to 1.5x, this loop tracked the
workloads better than small LAPACK eigensolves, row-by-row complex updates
or a mix of the three, and a window of a few bursts better than a run-wide
median: dividing by it cut the spread of step latencies between runs from
6-18 % to 1-7 % (coefficient of variation).

A timing is reported *at reference speed*: divided by that median and
multiplied by ``REFERENCE_S``, the burst's median duration between steps on
that VM when it was quiet.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_S = 0.0026  # median burst on the quiet host, see the module docstring
INTERVAL_S = 0.1  # at most one burst per this much run time
NEAREST = 7  # bursts whose median gives the speed around a moment


def burst() -> float:
    """Run the reference work once; return its duration in seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(40000):
        acc += i * i
    return time.perf_counter() - start


class SpeedSampler:
    """Bursts taken during one child's run, as ``(midpoint, duration)``."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self._last = time.perf_counter()
        self.spent = 0.0  # time in bursts and their bookkeeping
        self.setup_slowdown: float | None = None
        self.setup_end: float | None = None

    def after_setup(self) -> float:
        """``NEAREST`` bursts back to back, for the speed set-up ran at; kept
        apart from the bursts between steps, which run with colder caches."""
        start = self.setup_end = time.perf_counter()
        durations = [burst() for _ in range(NEAREST)]
        self.setup_slowdown = statistics.median(durations) / REFERENCE_S
        self._last = time.perf_counter()
        self.spent += self._last - start
        return self.setup_slowdown

    def sample(self) -> None:
        start = time.perf_counter()
        duration = burst()
        self.times.append(start + duration / 2)
        self.durations.append(duration)
        self._last = time.perf_counter()
        self.spent += self._last - start

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def wrap(self, step):
        """``step`` followed, when due, by a burst outside its timer; the
        first call takes the set-up bursts first."""

        def stepped(*args, **kwargs):
            if self.setup_slowdown is None:
                self.after_setup()
            result = step(*args, **kwargs)
            self.maybe_sample()
            return result

        return stepped

    def slowdown_at(self, moment: float) -> float:
        """Host slowdown around ``moment`` against the quiet host (1 = as fast)."""
        if not self.durations:
            raise RuntimeError("no reference burst was taken")
        mid = bisect.bisect_left(self.times, moment)
        lo = max(0, min(mid - NEAREST // 2, len(self.times) - NEAREST))
        return statistics.median(self.durations[lo : lo + NEAREST]) / REFERENCE_S
