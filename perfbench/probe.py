"""Host-speed probe: how fast this CPU runs, sampled all through a pass.

The benchmark's host is a shared 2-CPU virtual machine.  Each virtual CPU
switches, for seconds at a time, between a slow speed and one about 1.8x
faster, and the two CPUs switch independently of each other.  A pass of
several seconds catches a random share of fast time, so its raw wall time
varies by 10-30% between passes and between runs of the same code.

The probe measures that speed on the pass's own thread: a timer signal
runs a small fixed kernel (small complex matrix products and a Python
loop, the same mix as darkbus's integrators) every ``INTERVAL`` seconds.
Each stretch of program time between two probes is scaled by
``REFERENCE_S / d``, where ``d`` is the mean duration of the two probes
around it.  Summed over a step this gives the step's time at the
reference speed: the speed at which the probe kernel takes
``REFERENCE_S``.  The probes' own time is not counted.  The probe starts
before darkbus is imported, so set-up time is scaled the same way; the
interpreter's start before the first probe goes at the first probe's
speed.

A change to darkbus moves the scaled time in the same proportion as the
raw time; only the host's speed drops out.  Not all code feels that speed
alike: between the slow and the fast speed the probe kernel and darkbus's
RK4 integrator change by about 1.6x, the MLE iteration and ``run_dmm`` by
about 1.4x.  On the latter the scaling overshoots, which leaves a spread
of a few percent between runs.  Raw times are kept next to the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL = 0.025
# The probe kernel's median duration within passes, at the slow speed, on
# the 2-CPU Xeon host where the benchmark was tuned.  It only fixes the
# unit: scaled times read as seconds at that speed.
REFERENCE_S = 5.4e-4


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._k = (rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))) * 0.01
        self._rho = np.eye(10, dtype=complex) / 10
        self.starts: list[float] = []   # probe start times
        self.ends: list[float] = []     # probe end times
        self.durations: list[float] = []

    def _kernel(self):
        k, r = self._k, self._rho
        for _ in range(40):
            kr = k @ r
            r = r + 0.01 * (kr + kr.conj().T)
        s = 0
        for i in range(2000):
            s += i
        return r, s

    def _on_timer(self, signum, frame):
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def start(self):
        self._on_timer(None, None)
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._on_timer(None, None)

    def probe_time(self, a: float, b: float) -> float:
        """Seconds of [a, b] that the probes themselves took."""
        return sum(max(0.0, min(e, b) - max(s, a)) for s, e in zip(self.starts, self.ends))

    def normalized(self, a: float, b: float) -> float:
        """Program time within [a, b], scaled to the reference speed.

        Stretch i runs from the end of probe i to the start of probe i + 1.
        Time before the first probe goes at the first probe's speed.
        """
        total = max(0.0, min(self.starts[0], b) - a) * REFERENCE_S / self.durations[0]
        i = max(0, bisect.bisect_right(self.ends, a) - 1)
        for i in range(i, len(self.starts) - 1):
            lo, hi = max(self.ends[i], a), min(self.starts[i + 1], b)
            if lo >= b:
                break
            if hi > lo:
                d = 0.5 * (self.durations[i] + self.durations[i + 1])
                total += (hi - lo) * REFERENCE_S / d
        return total
