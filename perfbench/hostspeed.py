"""Host speed, sampled while the benchmark runs, so that timings can be given
at the host's full speed.

The benchmark runs on a few cores of a shared host.  There a fixed piece of
pure-Python arithmetic takes from 1x to 2.7x its fastest time, in phases that
last from half a second to tens of seconds, and the process CPU time stretches
with it: the slowdown comes from other tenants sharing the physical cores, not
from waiting.  Over ten runs of one ladder pass the middle half of wall times
spread by about 27 % of their median for that reason alone.

So the benchmark runs a fixed reference now and then and records how long it
took.  A sample that took ``d`` gives the speed ``REF_S / d``, where ``REF_S``
is the reference's time at the fastest level it shows on the host the
benchmark was tuned on (a 2-vCPU Intel Xeon VM, Python 3.11).
``scaled(t0, t1, dt)`` turns a time ``dt`` measured over [t0, t1] into seconds
at full speed: ``dt`` times the mean speed of the samples taken in that
interval, widened to the nearest ``MIN_SAMPLES`` if it holds fewer.  ``run.py``
pins the run and its children to one core, so the samples are taken where the
measured work runs.

The reference matches the work measured:

* ``TimerSpeed``, for work in the benchmark's own process: a timer signal
  interrupts it every ``PERIOD_S`` and runs a little exact rational arithmetic
  between two bytecodes of whatever it is doing.  The samples cost about 1 %
  of the run, which the scaled times include.  The timer is the process's own
  ``ITIMER_REAL``; no thread is started, and child processes do not inherit it.
* ``ChildSpeed``, for work in child processes: before each timed interval it
  starts a bare interpreter (``python -c pass``), outside the interval.  Much
  of a child's time is process start-up, which slows in other phases than
  in-process arithmetic does: scaled by timer samples, ten cli-mix runs still
  spread by 10 %.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# an interval holding fewer samples than this is widened on both sides
MIN_SAMPLES = 5


class HostSpeed:
    """Samples of the host's speed with their times, and times scaled by them."""

    def __init__(self):
        self.times = []      # start of each sample, perf_counter seconds, ascending
        self.speeds = []     # REF_S / duration of each sample

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def mark(self):
        """Called before each timed interval."""

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed of the samples in [t0, t1], widened to ``MIN_SAMPLES``."""
        if not self.times:
            raise RuntimeError("no host-speed samples were taken")
        lo, hi = bisect.bisect_left(self.times, t0), bisect.bisect_right(self.times, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return statistics.fmean(self.speeds[lo:hi])

    def scaled(self, t0: float, t1: float, dt: float = None) -> float:
        """``dt`` (default ``t1 - t0``), measured over [t0, t1], at full speed."""
        return (t1 - t0 if dt is None else dt) * self.speed(t0, t1)


_TERMS = [Fraction(1, k) for k in range(1, 24)]


def _reference():
    # exact rational arithmetic and list work, as in the engine's inner loops
    s = Fraction(0)
    for i, t in enumerate(_TERMS):
        s += t * (i + 3) - _TERMS[-1 - i]
    return s


class TimerSpeed(HostSpeed):
    """Samples taken by a timer signal inside the running process."""

    PERIOD_S = 0.02
    # _reference's time in the timer handler at full speed
    REF_S = 1.2e-4

    def _sample(self, signum, frame):
        t0 = perf_counter()
        _reference()
        t1 = perf_counter()
        self.times.append(t0)
        self.speeds.append(self.REF_S / (t1 - t0))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class ChildSpeed(HostSpeed):
    """Samples taken by starting a bare interpreter before each interval."""

    # start to exit of `python -c pass` at full speed
    REF_S = 0.05

    def __init__(self, env: dict):
        super().__init__()
        self.env = env

    def mark(self):
        t0 = perf_counter()
        # with pipes, run() returns at the child's exit; without them it
        # polls for the exit with sleeps of up to 50 ms
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True,
                       timeout=60, capture_output=True)
        self.times.append(t0)
        self.speeds.append(self.REF_S / (perf_counter() - t0))
