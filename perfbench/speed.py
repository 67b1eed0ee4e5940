"""A clock that runs at a reference machine speed.

The 2-vCPU hosts this benchmark runs on change speed by ±20% over seconds
to minutes, for any code and in CPU time as much as in wall time.  Timings
taken with an ordinary clock then spread more between runs of the same code
than the bounds a regression check needs.

`RefClock` measures the machine's speed while a workload runs: every
INTERVAL_S a SIGALRM handler runs a fixed piece of reference work (colour
refinement from stream.py, pure Python like the library) and times it.
Afterwards `ref_ns` turns a perf_counter_ns reading into normalised time:
the time between two samples is divided by the machine's slowness there,
the median of the WINDOW sample times around it over NOMINAL_NS, and the
samples' own time is left out.  A normalised duration is what the work
would have taken at the speed at which the reference work takes NOMINAL_NS,
the median speed of the machine the bounds were set on.  The library never
runs the reference work, so a change to the library moves normalised times
as it moves real ones.

Pool workers forked while the clock runs sample their own speed as well
(see `RefClock`).

Of the reference works tried on that machine, colour refinement tracked the
speed of `classify` best: normalising 20-second blocks of classify calls by
it cut their spread from 0.14 to 0.03 (IQR over median), against 0.06 for an
integer loop and 0.14 or worse for dict- and sort-heavy work.
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
import signal
import statistics
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter_ns
from typing import Optional

import stream

NOMINAL_NS = 1_100_000   # median time of reference_work() on the 2-vCPU VM the bounds were set on
INTERVAL_S = 0.1
WINDOW = 7


def _level(n: int) -> list[list[int]]:
    level = [[0]]
    for size in range(2, n + 1):
        level = stream._next_level(level, size)
    return level


_LEVEL5 = _level(5)


def reference_work() -> None:
    """Three rounds of colour refinement on each of the 34 classes on 5 vertices."""
    for adj in _LEVEL5:
        stream._colours(5, adj, 3)


class RefClock:
    """Samples the machine's speed between start() and stop().

    With a spool directory, processes forked meanwhile (the pool workers of
    `sweep`) sample their own speed too and leave their samples there when
    they exit; stop() reads them back.  The slowness at a moment is then the
    median over the samples of every process near it, so that it follows
    the CPUs the work ran on, not only the one the parent waited on."""

    def __init__(self, spool_dir: Optional[Path] = None):
        self.spool_dir = spool_dir
        self.starts: list[int] = []   # perf_counter_ns at each sample's start
        self.ends: list[int] = []     # ... and end
        self.others: list[tuple[int, int]] = []  # (start, end) of forked processes' samples
        self._running = False
        self._busy = False
        self._previous = None
        self._cum: list[float] = []   # normalised ns from the first sample's end to each end
        self._slowness: list[float] = []

    def _sample(self) -> None:
        started = perf_counter_ns()
        reference_work()
        self.ends.append(perf_counter_ns())
        self.starts.append(started)

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            try:
                self._sample()
            finally:
                self._busy = False

    def start(self) -> "RefClock":
        for _ in range(WINDOW // 2):
            self._sample()
        self._running = True
        if self.spool_dir is not None:
            multiprocessing.util.register_after_fork(self, RefClock._after_fork)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._running = False
        for _ in range(WINDOW // 2 + 1):
            self._sample()
        if self.spool_dir is not None:
            for path in sorted(self.spool_dir.glob("speed-*.json")):
                data = json.loads(path.read_text())
                self.others.extend(zip(data["starts"], data["ends"]))
                path.unlink()
        self.fit()

    # -- forked processes ---------------------------------------------------

    def _after_fork(self) -> None:
        """In a forked child: sample there until it exits.  The SIGALRM
        handler came with the fork; the interval timer did not."""
        if not self._running:
            return
        self.starts, self.ends = [], []
        multiprocessing.util.Finalize(None, self._write_spool, exitpriority=100)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _write_spool(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        path = self.spool_dir / f"speed-{os.getpid()}.json"
        path.write_text(json.dumps({"starts": self.starts, "ends": self.ends}))

    # -- normalised time ----------------------------------------------------

    def fit(self) -> None:
        """Slowness between each two samples of this process, and normalised
        time at each of their ends.  The slowness of a gap is the median
        time of the samples, of any process, that started within WINDOW / 2
        intervals of its middle, over NOMINAL_NS."""
        every = sorted([*zip(self.starts, self.ends), *self.others])
        every_starts = [start for start, _ in every]
        half = int(WINDOW / 2 * INTERVAL_S * 1e9)
        self._slowness, self._cum = [], [0.0]
        for j, end in enumerate(self.ends):
            middle = (end + self.starts[j + 1]) // 2 if j + 1 < len(self.starts) else end
            lo = bisect_left(every_starts, middle - half)
            hi = max(lo + 1, bisect_right(every_starts, middle + half))
            self._slowness.append(statistics.median(
                e - s for s, e in every[lo:hi]) / NOMINAL_NS)
            if j:
                gap = self.starts[j] - self.ends[j - 1]
                self._cum.append(self._cum[-1] + gap / self._slowness[j - 1])

    def ref_ns(self, t: int) -> float:
        """Normalised ns from the first sample's end to perf_counter_ns
        reading t, taken between start() and stop(); call after stop()."""
        j = max(0, bisect_right(self.ends, t) - 1)
        if j + 1 < len(self.starts):
            t = min(t, self.starts[j + 1])
        return self._cum[j] + max(0, t - self.ends[j]) / self._slowness[j]

    def slowness(self) -> float:
        """Median sample time over NOMINAL_NS for the whole run, every process's samples."""
        every = [*zip(self.starts, self.ends), *self.others]
        return statistics.median(end - start for start, end in every) / NOMINAL_NS

    def samples(self) -> int:
        return len(self.starts) + len(self.others)
