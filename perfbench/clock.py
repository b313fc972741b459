"""Timing that cancels the host's speed swings.

On a shared host the same work can take half again as long, or more, for
seconds to minutes at a time while neighbours hold the cores: longer than a
run, so neither the best nor the median of a run's repetitions is steady
from run to run.  A ``Stopwatch`` therefore brackets each timed part with a
fixed reference loop (exact ``Fraction`` arithmetic from the standard
library; no library or benchmark code) and scales the part's wall time by
``REFERENCE_S`` over the loop's time around it.  The result is the time the
part takes at the reference speed.  A library change moves it as it moves
the wall time; a busy neighbour, which slows the loop as much as the part,
does not.  On an Intel Xeon VM with two vCPUs, the raw median time per
system of ``batch-2x2`` ranged over 1.6-3.1 ms in ten runs of the same code;
scaled, the spread between quartiles of ten runs was 3% of the median.
"""

from __future__ import annotations

import os
import statistics
import time
from fractions import Fraction

# The reference loop's time on an uncontended core of that VM under
# CPython 3.11.7 (its 1st percentile over 15 s).  It sets only the scale.
REFERENCE_S = 76e-6


def reference_loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i % 7 + 1, i)
    return total


def reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def pin() -> None:
    """Keep this process, and the processes it starts, on one CPU, so the
    reference loop runs on the core that does the work it brackets."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Stopwatch:
    """``with Stopwatch() as sw: work()``; then ``sw.seconds`` is the work's
    time at the reference speed and ``sw.wall`` its wall time.  Both are set
    even when the work raises."""

    slowdowns: list = []  # every bracket's loop time over REFERENCE_S

    def __enter__(self) -> "Stopwatch":
        self._before = reference()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._start
        loop = (self._before + reference()) / 2
        self.seconds = self.wall * REFERENCE_S / loop
        Stopwatch.slowdowns.append(loop / REFERENCE_S)


def host_slowdown() -> float:
    """The median reference loop time so far, over ``REFERENCE_S``."""
    return statistics.median(Stopwatch.slowdowns) if Stopwatch.slowdowns else 1.0
