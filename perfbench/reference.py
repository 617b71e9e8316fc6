"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared host the speed of one core changes by up to 1.6x within a
fraction of a second, and can stay low for a whole run, as other tenants
come and go. Times of the package are therefore reported at a fixed
reference speed. While jobs run, a timer signal interrupts them every
``INTERVAL_S`` and times one call of the kernel; the time the kernel took
is taken out of the job's time again. A job's time is then scaled by the
machine's speed around it: the mean of ``NOMINAL_S`` over the kernel times
sampled during the job and one interval either side of it, or over a
window of ``WINDOW_S`` for shorter jobs. The kernel does not touch the
package, so a change to the package moves the scaled times just as it
moves the raw ones, while a slower machine moves the kernel and the job
alike.

The kernel mixes what the workloads spend their time on: numpy calls on
6x6 matrices, Python float arithmetic, and formatting floats as text.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# About the median time of one kernel call inside the sampler on a shared
# 2-vCPU Intel Xeon host, so that scaled times read close to its wall times;
# it only sets the scale in which the reported seconds read.
NOMINAL_S = 0.0016
INTERVAL_S = 0.025
# A job's speed is averaged over at least this much time around it; longer
# jobs use their own time and one interval either side.
WINDOW_S = 0.2

_STEPS = 400
_MATRIX = np.eye(6) * 0.5 + 0.01


def kernel() -> float:
    state = np.eye(6)
    total = 0.0
    parts = []
    for step in range(_STEPS):
        state = _MATRIX @ state
        value = float(state[0, 0]) * 1e3
        total += (value * value) % 7.0 + step
        parts.append(repr(total))
    return total + len(",".join(parts))


def sample() -> float:
    """Wall time of one kernel call, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Sampler:
    """Times the kernel every INTERVAL_S of wall time, from a SIGALRM handler.

    Python runs the handler in the main thread between bytecodes, so the
    interrupted job sees only the pause. Use as a context manager.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _handle(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self) -> float:
        """Mean machine speed, relative to nominal, over all samples."""
        return statistics.fmean(NOMINAL_S / d for d in self.durations or [sample()])

    def scaled(self, begin: float, end: float) -> tuple[float, float]:
        """(own time, time at reference speed) of the span [begin, end).

        Own time is the span's wall time less the kernel calls inside it.
        """
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_left(self.starts, end)
        own = (end - begin) - sum(self.durations[lo:hi])
        pad = max(INTERVAL_S, (WINDOW_S - (end - begin)) / 2.0)
        near = self.durations[bisect.bisect_left(self.starts, begin - pad):
                              bisect.bisect_left(self.starts, end + pad)]
        if not near:  # no sample came close: take the nearest one
            near = self.durations[max(0, lo - 1):lo + 1]
        return own, own * statistics.fmean(NOMINAL_S / d for d in near)
