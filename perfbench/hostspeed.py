"""Host-speed probes, so that host-time metrics compare across runs.

On a shared host the same CPU-bound Python code runs at very different
speeds from minute to minute. On the 2-CPU host this benchmark was
written on, a fixed loop ran at 1.0x to 1.9x its best time, in stretches
of seconds to minutes. CPU time tracked wall time, so the slowdown was
contention, not waiting. Ten runs of one workload then spread by up to
36% (IQR / median), and neither best-of-k nor median-of-passes
estimators narrowed that, because the host drifted between runs as well
as within them.

A probe times a fixed pure-Python loop with the cyclic collector off.
The loop creates objects, calls methods, and does dict and str work, and
it runs no ``repro`` code. Across runs, the mean probe time tracked the
benchmark's ops closely. Every host-time metric is reported scaled by
``REF_PROBE_S / mean probe``, which is its value on a host where the
probe takes ``REF_PROBE_S``. A change to the program cannot move the
probe. The unscaled values are printed in the details line.
"""

from __future__ import annotations

import gc
import time

#: the probe time of the reference host speed that host-time metrics
#: are scaled to (about the probe's best time on the host above)
REF_PROBE_S = 0.001


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y

    def total(self) -> int:
        return self.x + self.y


def probe() -> float:
    """Seconds the fixed loop takes right now."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        items: list = []
        for i in range(1500):
            table[(i, "k")] = _Point(i, i + 1).total()
            items.append(str(i))
            if table.get((i - 1, "k")):
                items.pop()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class HostSpeed:
    """Probes taken across one phase of a run, each weighted by the
    length of the work beside it."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        #: seconds spent probing, to leave out of the phase's wall time
        self.spent = 0.0

    def probe(self, weight: float = 1.0) -> None:
        seconds = probe()
        self.samples.append((seconds, weight))
        self.spent += seconds

    def factor(self) -> float:
        """Multiply a host time by this (divide a rate by it)."""
        weight = sum(w for _, w in self.samples)
        if not weight:  # every op failed at once: weigh probes alike
            return REF_PROBE_S * len(self.samples) / sum(
                s for s, _ in self.samples
            )
        mean = sum(s * w for s, w in self.samples) / weight
        return REF_PROBE_S / mean

    def summary(self) -> dict:
        times = [s for s, _ in self.samples]
        return {
            "probes": len(times),
            "factor": self.factor(),
            "min_s": min(times),
            "max_s": max(times),
        }
