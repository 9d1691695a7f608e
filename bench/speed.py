"""Machine-speed correction for the benchmark's timings.

On this kind of shared machine the CPU time of identical work jumps
between two speeds, about 1.8x apart, within tens of milliseconds, and
the share of time at each speed drifts from one run to the next.  So the
timed loop runs a fixed probe -- dict, tuple and frozenset work that never
touches the library -- between cases, at least every PROBE_INTERVAL_S of
CPU time.  Each stretch of CPU time between two probes is scaled by the
reference probe time over the median probe time around it, which turns
it into seconds at the reference machine speed.

The probe runs twice and only the second, warm pass is timed, so the
state the library left in the processor caches does not count.  The
collector is off meanwhile, so the probe neither triggers nor delays a
collection.
"""

from __future__ import annotations

import gc
import statistics

PROBE_INTERVAL_S = 0.05
WINDOW = 4  # probes taken on each side of a stretch


def probe_work():
    d = {}
    for i in range(1500):
        key = (i % 31, frozenset((i % 3, i % 5)))
        d[key] = d.get(key, 0) + (i * i) % 7
    return len(d)


class SpeedLog:
    """Probe times and the stretches of CPU time between them."""

    def __init__(self, reference_s: float, clock):
        self.reference_s = reference_s
        self.clock = clock
        self.probes = []
        self.starts = []  # stretch j runs from starts[j] to the next probe
        self.stretches = []

    def probe(self, n: int = 1):
        for _ in range(n):
            t0 = self.clock()
            if self.starts:
                self.stretches.append(t0 - self.starts[-1])
            enabled = gc.isenabled()
            gc.disable()
            probe_work()
            t1 = self.clock()
            probe_work()
            t2 = self.clock()
            if enabled:
                gc.enable()
            self.probes.append(t2 - t1)
            self.starts.append(self.clock())

    def due(self) -> bool:
        return self.clock() - self.starts[-1] >= PROBE_INTERVAL_S

    @property
    def stretch(self) -> int:
        """Index of the stretch now running."""
        return len(self.starts) - 1

    def factor(self, stretch: int) -> float:
        """Reference speed over the machine's speed around a stretch."""
        window = self.probes[max(0, stretch - WINDOW + 1): stretch + WINDOW + 1]
        return self.reference_s / statistics.median(window)

    def scaled(self, stretch: int, t: float) -> float:
        """Scaled CPU seconds from the end of the first probe to clock time
        t, which falls in the given stretch."""
        done = sum(s * self.factor(j) for j, s in enumerate(self.stretches[:stretch]))
        return done + (t - self.starts[stretch]) * self.factor(stretch)
