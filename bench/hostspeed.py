"""Host speed, sampled while the workload runs, to scale wall times by.

The measuring machine is a share of a host whose CPU speed swings by up
to 2x within seconds: a fixed loop timed back to back takes 40 % longer in
one phase than a few seconds later, with no gaps in between (the whole
process runs slower, not less often, so CPU time swings with it).  Wall
times of the same job then spread by 30-40 % of their median between
runs.

A ``SpeedProbe`` times a fixed pure-Python loop (about 0.1 ms) from a
``SIGALRM`` timer every ``INTERVAL_S`` in the process being measured, so
the samples come from the same CPU at the same moments as the work.
``scaled(t0, t1)`` turns the wall time of ``[t0, t1]`` into seconds at the
reference speed, the speed at which the loop takes ``REF_S``: the wall
time, less the probe's own time in it, times the time-weighted mean of
``REF_S / sample`` over the window.  On one job run back to back, this
cut the spread (IQR / median) from 0.20-0.45 to 0.05-0.11.

Python runs signal handlers between bytecodes of the main thread, so no
sample is taken inside one long C call; the sample after it stands for
the whole gap.  The probe costs under 1 % of the time it measures, and
``scaled`` takes that time out.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List, Tuple

INTERVAL_S = 0.02
LOOP = 1000
# Reference duration of the loop, a round figure near its time in the
# slower phases of the 2-core machine the README's figures come from
# (0.06-0.1 ms).  It fixes the scale of every scaled time, not its spread.
REF_S = 1.0e-4


def _loop() -> float:
    s = 0.0
    for i in range(LOOP):
        s += i * 0.5
    return s


class SpeedProbe:
    """Timer-driven samples ``(start, seconds)`` of a fixed loop."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.starts: List[float] = []
        self.seconds: List[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = self.clock()
        _loop()
        self.starts.append(t0)
        self.seconds.append(self.clock() - t0)

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._sample()
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, t0: float, t1: float) -> Tuple[float, float]:
        """``(speed, probe seconds)`` over ``[t0, t1]``: the time-weighted
        mean of ``REF_S / sample`` (each sample stands for the time since
        the one before it) and the probe's own time inside the window.
        A window with no sample takes the speed of the last one before
        it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        if lo == hi:
            if lo == 0:
                raise ValueError("no speed sample at or before the window")
            return REF_S / self.seconds[lo - 1], 0.0
        weighted = total = 0.0
        prev = t0
        for k in range(lo, hi):
            w = self.starts[k] - prev
            weighted += w * REF_S / self.seconds[k]
            total += w
            prev = self.starts[k]
        speed = weighted / total if total > 0 else REF_S / self.seconds[lo]
        return speed, sum(self.seconds[lo:hi])

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds at the reference speed that ``[t0, t1]`` stands for."""
        speed, probe = self.window(t0, t1)
        return (t1 - t0 - probe) * speed
