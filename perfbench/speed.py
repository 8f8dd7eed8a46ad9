"""Machine-speed sampling, so that timings can be scaled to one speed.

The speed of a shared machine can drift by up to 2x over tens of seconds,
for every process on it, and no run length averages that away.  So while
the program runs, a SIGALRM handler in the benchmark's own process times a
fixed round of Fraction arithmetic every SAMPLE_INTERVAL_S.  A timing is
scaled by (REFERENCE_ROUND_S / the median round time sampled during it)
** SENSITIVITY, and the handler's own time is left out of every timing.
The round runs none of the program's code, so a faster program still
reads faster.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# One round on the reference machine (a 2-core Xeon sandbox, Python 3.11).
REFERENCE_ROUND_S = 0.002
# The program slows less than the small, cache-resident round when the
# machine slows.  Over ten sets of five or ten seeded runs (90 runs of the
# four workloads), this power left the smallest worst spread of wall_s in
# a set (11%, against 18% at power 1 and 41% unscaled).
SENSITIVITY = 0.75
SAMPLE_ROUNDS = 2
SAMPLE_INTERVAL_S = 0.25
_VALUES = [Fraction(i % 97 + 1, i % 13 + 1) for i in range(400)]


def round_seconds(rounds: int = SAMPLE_ROUNDS) -> float:
    """Seconds per round of 400 Fraction multiply-adds, measured now."""
    start = time.perf_counter()
    total = Fraction(0)
    for _ in range(rounds):
        for value in _VALUES:
            total += value * value
    return (time.perf_counter() - start) / rounds


def factor(round_s: float) -> float:
    """Scale factor for a timing taken while a round took ``round_s``."""
    return (REFERENCE_ROUND_S / round_s) ** SENSITIVITY


def factor_now(samples: int = 15) -> float:
    """Scale factor from the median of ``samples`` rounds timed now."""
    return factor(statistics.median(round_seconds() for _ in range(samples)))


class SpeedSampler:
    """Samples the round time while the program runs, inside ``with``."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the handler

    def clock(self) -> float:
        """time.perf_counter without the time spent sampling."""
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(round_seconds())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(
            signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S
        )
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def window_factor(self, lo: int, hi: int) -> float:
        """Scale factor for a timing during which samples[lo:hi] were
        taken, widened to at least three neighbouring samples."""
        while hi - lo < 3 and (lo > 0 or hi < len(self.samples)):
            lo, hi = max(0, lo - 1), min(len(self.samples), hi + 1)
        if lo == hi:
            return factor_now()
        return factor(statistics.median(self.samples[lo:hi]))
