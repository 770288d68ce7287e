"""Order statistics, operation counting and host-speed scaling for the
benchmark.

Every timing the benchmark reports is built from per-case repeats, each
scaled to a reference host speed (HostClock): a case's time is the median
of its scaled repeats, and the workload reports the median of the case
times and their tail percentile.  The tail is the highest
percentile with at least TAIL_BEYOND samples beyond it; below
MIN_TAIL_SAMPLES samples there is no tail worth the name and only the
median is reported.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time
from contextlib import contextmanager

TAIL_BEYOND = 10
MIN_TAIL_SAMPLES = 40


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def case_time(repeats) -> float:
    """A case's time: the median of its (raw seconds, host factor)
    repeats, each scaled by its factor."""
    return median([raw * factor for raw, factor in repeats])


def _rank(p: int, n: int) -> int:
    """1-based nearest rank of the p-th percentile of n samples."""
    return max(1, math.ceil(p * n / 100))


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least TAIL_BEYOND of n samples
    strictly beyond its nearest rank; None below MIN_TAIL_SAMPLES."""
    if n < MIN_TAIL_SAMPLES:
        return None
    for p in range(99, 49, -1):
        if n - _rank(p, n) >= TAIL_BEYOND:
            return p
    return 50


def percentile(values, p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail(values) -> tuple[int, float] | None:
    """(percentile, value) of the tail, or None when there is no tail."""
    p = tail_percentile(len(values))
    if p is None:
        return None
    return p, percentile(values, p)


class Tally:
    """Operations attempted and the problems of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.problems: dict[str, list[str]] = {}

    def record(self, op_id: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.problems[op_id] = list(problems)

    @property
    def failed(self) -> int:
        return len(self.problems)


# -- host speed ------------------------------------------------------------------


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def reference_work() -> int:
    """Fixed interpreter work of the engine's kind: small objects, tuple
    keys, dict lookups, list traffic and bit masks.  It never changes,
    so its duration measures only the host's speed of the moment."""
    index: dict[tuple[int, int], list[_Cell]] = {}
    mask = total = 0
    for i in range(2000):
        cell = _Cell((i * 7919) % 257, i)
        key = (cell.key, i & 7)
        bucket = index.get(key)
        if bucket is None:
            index[key] = bucket = []
        bucket.append(cell)
        mask |= 1 << cell.key
        if len(bucket) > 2:
            total += bucket.pop(0).value
    return total + len(index) + (mask & 0xFFFF)


class HostClock:
    """Samples the host's speed all through a run, to scale every
    measurement to a reference host speed.

    The shared host this benchmark was built on ran the same code at
    speeds up to twice apart, switching between a fast and a slow state
    for stretches from under a second to whole runs, with CPU time
    tracking wall time.  So while running(), a timer signal every
    INTERVAL_S interrupts whatever runs and times reference_work, and
    the time spent in it is left out of every measurement (start/stop)
    and of now().  A measurement is scaled by REFERENCE_S over the
    geometric mean of the reference times taken during it and the ones
    just before and just after it: a short one by the host's speed of
    the moment, one lasting seconds, over which the host may switch
    state several times, by the speed it ran at.  The program's own
    speed-ups and slow-downs pass through unchanged, because the
    reference work is not the program's.
    """

    # reference_work's duration at the speed that defines the unit: its
    # best time on the host the benchmark was built on
    REFERENCE_S = 1.3e-3
    INTERVAL_S = 0.05

    def __init__(self, timer=time.perf_counter):
        self.timer = timer
        self.runs: list[float] = []   # reference times
        self.at: list[float] = []     # when each was taken
        self.paused = 0.0             # time spent taking them
        self._sampling = False
        self.sample()

    def reference(self) -> float:
        """Duration of reference_work, with the collector held off so
        that the size of the heap does not enter it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = self.timer()
            reference_work()
            return self.timer() - t0
        finally:
            if enabled:
                gc.enable()

    def sample(self, *_signal):
        """Take a reference time now; also the timer signal's handler."""
        if self._sampling:
            return
        self._sampling = True
        t0 = self.timer()
        self.runs.append(self.reference())
        self.at.append(t0)
        self.paused += self.timer() - t0
        self._sampling = False

    @contextmanager
    def running(self):
        """Sample every INTERVAL_S for the duration, and once at its end."""
        saved = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, saved)
            self.sample()

    def _read(self) -> tuple[float, float]:
        """(timer, paused) with no sample taken in between."""
        while True:
            paused = self.paused
            now = self.timer()
            if paused == self.paused:
                return now, paused

    def now(self) -> float:
        """The timer, less the time spent taking references."""
        now, paused = self._read()
        return now - paused

    def start(self) -> tuple[float, float]:
        return self._read()

    def stop(self, start: tuple[float, float]) -> tuple[float, tuple[float, float]]:
        """(seconds, mark) of the measurement begun at start: its
        duration less the references taken during it, and what
        factor() needs to scale it."""
        t0, paused0 = start
        t1, paused1 = self._read()
        return t1 - t0 - (paused1 - paused0), (t0, t1)

    def factor(self, mark: tuple[float, float]) -> float:
        """Scale of a measurement, from the references taken so far
        during it and just before and after it."""
        t0, t1 = mark
        first = max(0, bisect.bisect_left(self.at, t0) - 1)
        last = bisect.bisect_right(self.at, t1) + 1
        return self.REFERENCE_S / statistics.geometric_mean(self.runs[first:last])
