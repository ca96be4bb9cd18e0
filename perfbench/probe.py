"""Host-speed probe: a fixed micro-loop timed every few milliseconds.

On a shared host the same Python code can run up to twice as slow for
seconds at a time, in CPU time as well as in wall time, so one timing of a
multi-second task says as much about the neighbours as about configcalc.
``SpeedProbe`` interleaves a fixed integer loop with the benchmark from a
``SIGALRM`` handler (every ``PERIOD_S``) and records how long each loop
took.  ``REFERENCE_S`` over a loop's time is the host's relative speed at
that moment.  ``adjust(start, end)`` scales an interval by the mean relative
speed of the probes inside it: the time the interval's work would have taken
on a host that runs the loop in ``REFERENCE_S``.

The reference is a constant, not the run's own fastest loop, because a whole
run can sit in a slow period; the fastest loop of a run was seen to vary by
12 % from run to run.  Only ratios between runs on one host matter, so the
constant need not match the host.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.005
LOOP = 300          # iterations of the probe loop
# The fastest probe loop measured on a shared 2-vCPU x86-64 Xeon VM with
# CPython 3.11.7, where the benchmark was tuned; adjusted times there read as
# seconds on a quiet host.
REFERENCE_S = 1.35e-05
MIN_SAMPLES = 8     # fewer probes inside an interval: widen it


class SpeedProbe:

  def __init__(self):
    self.starts = []
    self.durations = []

  def __enter__(self):
    clock = time.perf_counter
    starts, durations = self.starts, self.durations

    def sample(signum, frame):
      t = clock()
      x = 0
      for i in range(LOOP):
        x += i * i
      starts.append(t)
      durations.append(clock() - t)

    self._previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    return self

  def __exit__(self, *exc):
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, self._previous)
    return False

  def adjust(self, start, end):
    """``end - start`` at the reference probe speed."""
    if not self.durations:
      return end - start
    lo = bisect.bisect_left(self.starts, start)
    hi = bisect.bisect_right(self.starts, end)
    while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
      lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
    return (end - start) * statistics.fmean(
        REFERENCE_S / d for d in self.durations[lo:hi])
