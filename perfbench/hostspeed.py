"""Host-speed calibration: timings scaled to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
±20% over seconds to minutes, and process CPU time drifts with it. A
fixed *probe* (the benchmark's own code: a Python loop and a gather and
sort over a few MB, never ``repro``) is timed at checkpoints spread over
the run: between set-ups and jobs, and every :data:`TICK_S` inside them
where the workload has a point to take one. Every span of the run is
scaled by the run's median probe time into *reference seconds*: the
seconds it would have taken on a host where one probe takes
:data:`REFERENCE_PROBE_S`.

Probe time is paused out of the clock, so checkpoints taken while
requests are outstanding do not count in their latency.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Probe seconds at the reference speed: about the probe's median on the
#: 2-vCPU x86 host the bounds were set on, so reference seconds read close
#: to wall seconds there.
REFERENCE_PROBE_S = 0.005
#: Probe repetitions per checkpoint; the median is kept.
PROBE_REPEATS = 5
#: Least clock time between the checkpoints :meth:`Timeline.tick` takes.
TICK_S = 0.5

_rng = np.random.default_rng(0)
_POOL = _rng.random(1 << 20)
_GATHER = _rng.integers(0, _POOL.size, size=200_000)
# Output buffers, so the timed probe allocates nothing: a fresh large
# array would time the allocator's state, which the jobs leave behind.
_TAKEN = np.empty(_GATHER.size)
_SORTED = np.empty(131_072)


def _probe_once() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    np.take(_POOL, _GATHER, out=_TAKEN)
    _SORTED[:] = _POOL[:_SORTED.size]
    _SORTED.sort()
    return time.perf_counter() - start


def probe() -> float:
    """Seconds one probe takes now (median of :data:`PROBE_REPEATS`)."""
    return statistics.median(_probe_once() for _ in range(PROBE_REPEATS))


class Clock:
    """Plain host clock: no probes, seconds as measured."""

    def now(self) -> float:
        return time.perf_counter()

    def tick(self) -> None:
        """Take a checkpoint if one is due; the plain clock takes none."""


class Timeline(Clock):
    """A clock that takes probe checkpoints and scales its spans to
    reference seconds by the run's median probe time."""

    def __init__(self) -> None:
        self._paused = 0.0
        self.times: List[float] = []
        self.probes: List[float] = []

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def checkpoint(self) -> None:
        start = time.perf_counter()
        self.probes.append(probe())
        self.times.append(start - self._paused)
        self._paused += time.perf_counter() - start

    def tick(self) -> None:
        if not self.times or self.now() - self.times[-1] >= TICK_S:
            self.checkpoint()

    def scale(self) -> float:
        """Reference seconds per clock second over the run so far."""
        return REFERENCE_PROBE_S / statistics.median(self.probes)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds between two clock timestamps."""
        return (end - start) * self.scale()

    def speed_spread(self) -> float:
        """Interquartile range of the probe times over their median."""
        if len(self.probes) < 2:
            return 0.0
        q = statistics.quantiles(self.probes, n=4)
        return (q[2] - q[0]) / statistics.median(self.probes)
