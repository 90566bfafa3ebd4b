"""Host-speed probe: a fixed reference workload that tracks host drift.

The probe does the kind of work v2xcast's hot loops do (link_sinrs, the
noncoop event loop, the audit replay): Python-level float arithmetic through
math calls, tuple comparisons, dict lookups and scalar indexing into a small
numpy array. It imports nothing from v2xcast, so a change to the simulator
cannot move it. The benchmark runs it at each sample's start and, from an
interval timer, every PROBE_INTERVAL_S while the sample runs; the sample's
work time is then scaled by PROBE_REF_S over the mean probe time seen across
that sample.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# Typical probe time on the 2-core reference host. Any constant works: it
# only fixes the units of the scaled metric, and it must never change, or
# scaled figures stop comparing across commits.
PROBE_REF_S = 0.005
PROBE_INTERVAL_S = 0.1

_MATRIX = np.random.default_rng(0).random((64, 64))
_TABLE = {(i, j): float(i * j) for i in range(40) for j in range(40)}
_PAIRS = [(i % 40, (i * 7) % 40) for i in range(200)]


def probe() -> float:
    """Run the reference workload once; return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(15):
        for a, b in _PAIRS:
            if (a, b) == (b, a):
                continue
            v = _MATRIX[a, b]
            acc += (math.acos(max(-1.0, min(1.0, v - 0.5)))
                    + _TABLE[(a, b)] * 1e-9 + math.hypot(a, b))
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("probe arithmetic went non-finite")
    return elapsed


class ProbeSampler:
    """Interleaves probes with the measured work and accounts for them.

    Between `begin()` and `end()` a SIGALRM timer runs the probe every
    `interval_s` (none when it is 0) at the next bytecode boundary of the
    main thread. Each
    sample also gets one probe at its start, so even a sample shorter than
    the interval has one. `end()` returns the sample's work time (wall time
    minus the probes run inside it) and the mean probe time.
    """

    def __init__(self, interval_s: float = PROBE_INTERVAL_S):
        self.interval_s = interval_s
        self._inside = 0.0     # probe wall time spent inside the open sample
        self._count = 0        # probes taken for the open sample
        self._total = 0.0      # their summed duration
        self._running = False
        self._previous = None

    def _take(self) -> None:
        self._count += 1
        self._total += probe()

    def _on_alarm(self, signum, frame) -> None:
        if self._running:
            t0 = time.perf_counter()
            self._take()
            self._inside += time.perf_counter() - t0

    def __enter__(self) -> "ProbeSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def begin(self) -> float:
        self._inside, self._count, self._total = 0.0, 0, 0.0
        self._take()
        self._running = True
        if self.interval_s > 0:
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return time.perf_counter()

    def end(self, t_begin: float) -> tuple[float, float]:
        self._running = False
        wall = time.perf_counter() - t_begin
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        return wall - self._inside, self._total / self._count
