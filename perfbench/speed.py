"""Stage times in reference-CPU seconds, corrected for the CPU's own speed.

The vCPUs of a shared virtual machine change speed by up to 2x within seconds,
each on its own (other tenants on the host), and CPU time does not remove
that. So while rounds run, a fixed reference kernel is timed every
INTERVAL_S of wall time on the benchmark's own CPU (from a SIGALRM handler,
between two bytecodes of whatever is running). A stage's work is its CPU
time minus the kernel's, scaled by REF_S over the kernel's mean time in the
same window: the time the stage would take on a CPU that runs the kernel in
REF_S. The mean, not the median, because the stage's time integrates the
CPU's speed over the window, and so do evenly spaced kernel samples.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.01
REF_S = 4e-4           # about the kernel's mean time on the 2-vCPU reference machine
MIN_SAMPLES = 5        # a shorter window uses every sample so far
_V = np.ones(6)


class _Pair:
    """A two-float value type, allocated per operation like the program's
    interval and dual scalars."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def __add__(self, other):
        return _Pair(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other):
        p = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return _Pair(min(p), max(p))


def kernel():
    """Interpreter-bound float arithmetic, tiny numpy operations and
    small-object arithmetic: the program's own mix, none of its code."""
    s = 0.0
    v = _V
    for i in range(100):
        s += (i * 0.5) ** 0.5
        v = v * 1.0000001 + 0.0
    p, q, acc = _Pair(0.5, 1.5), _Pair(-0.25, 0.75), _Pair(0.0, 0.0)
    for _ in range(40):
        acc = acc + p * q
        p = _Pair(p.lo * 0.999, p.hi * 1.001)
    return s + acc.hi


class SpeedMeter:
    def __init__(self):
        self.at = []        # process CPU time (ns) at each kernel start
        self.took = []      # kernel CPU time (ns)
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.process_time_ns()
        kernel()
        self.took.append(time.process_time_ns() - t0)
        self.at.append(t0)
        self._busy = False

    def start(self):
        kernel()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @staticmethod
    def now():
        return time.process_time_ns()

    def seconds(self, t0, t1):
        """Reference-CPU seconds of the work between two `now()` readings."""
        i, j = bisect.bisect_left(self.at, t0), bisect.bisect_left(self.at, t1)
        window = self.took[i:j]
        own = sum(window)
        if len(window) < MIN_SAMPLES:
            window = self.took
        return (t1 - t0 - own) * 1e-9 * (REF_S * 1e9 / statistics.fmean(window))
