"""Machine-speed samples, for scaling times to one reference speed.

The same pure-Python work can take 1.2 to 1.9 times longer on a shared
host while other tenants are busy, and such a slow spell lasts tens of
seconds to minutes: longer than a run.  So each measured process times a
fixed calibration loop, which uses nothing from the package, every PERIOD_S
seconds while it works, and the benchmark reports each time scaled by
REFERENCE_S / (median calibration time around it).  The loop is timed in
thread CPU seconds, so waiting for a processor does not count as slowness.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.1
ROUNDS = 20_000
# calibration time on an idle 2-vCPU Xeon VM under Python 3.11; it fixes the
# scale only, so scaled times read as seconds on that machine
REFERENCE_S = 0.0016


def calibrate() -> float:
    """Thread CPU seconds of a fixed integer loop."""
    start = time.thread_time()
    total = 0
    for i in range(ROUNDS):
        total += i * i % 7
    return time.thread_time() - start


class Sampler:
    """Calibrates on SIGALRM every PERIOD_S seconds inside a with-block.

    `samples` holds the calibration times in order; `spent` is the wall time
    the sampling itself took, which the caller subtracts from its timings.
    Processes forked inside the block do not inherit the timer.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.samples.append(calibrate())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, first: int, last: int, margin: int = 5) -> float:
        """REFERENCE_S over the median of samples first-margin .. last+margin."""
        around = self.samples[max(0, first - margin): last + margin + 1]
        return REFERENCE_S / statistics.median(around)
