"""A fixed reference kernel that tracks how fast the machine is right now.

On a shared host the same code runs at very different speeds from one
second to the next: on a 2-core VM with neighbours, runs of the same
pass were seen at 34k and 51k flow-ticks/s, and set-up loops switch
between two speeds 1.65x apart in blocks of seconds. No statistic over
one 15-second run removes a state that lasts minutes.

The harness therefore times this kernel next to every run it times and
reports *calibrated* seconds: wall seconds scaled by
``REFERENCE_SECONDS / kernel seconds``, i.e. the time the run would
have taken at the speed at which the kernel takes ``REFERENCE_SECONDS``.
A :class:`Calibration` samples the kernel before and after each run
and, in a simulated run longer than ``MIN_INTERVAL``, also inside it,
so every stretch of the run is scaled by the kernel samples on either
side of it; the kernel's own time is left out of the run's time.
The kernel is the benchmark's own code (plain Python and numpy), so no
change to the program under test can move it, and a program change
shows in calibrated time exactly as in wall time. Its two halves, an
interpreter-bound loop over objects and dicts and a numpy loop over 4k
element vectors, slow down under contention by about as much as the
simulator does: the interpreter half alone over-corrects, the numpy
half alone under-corrects.
"""

from __future__ import annotations

from bisect import bisect_left
from time import perf_counter

import numpy as np

#: The kernel's time on an uncontended core of the 2-core Xeon VM the
#: bounds were set on. It fixes only the scale of calibrated numbers.
REFERENCE_SECONDS = 0.009
#: Least wall time between two kernel samples taken inside one run.
MIN_INTERVAL = 0.25


class _Tally:
    def __init__(self) -> None:
        self.total = 0.0
        self.by_key: dict[int, float] = {}

    def add(self, key: int, value: float) -> None:
        self.total += value
        self.by_key[key] = self.by_key.get(key, 0.0) + value


def kernel_seconds() -> float:
    """Run the fixed kernel once; return its wall seconds."""
    started = perf_counter()
    tally = _Tally()
    small = np.arange(64, dtype=float)
    for i in range(8000):
        tally.add(i & 127, (i * 0.5) ** 0.5)
        if i & 7 == 0:
            tally.add(-1, float((small * 1.0001).sum()))
    big = np.arange(4096, dtype=float)
    acc = np.ones(4096)
    for _ in range(160):
        acc = np.minimum(np.cumsum(big * 1.0001 + acc), 5.0)
    return perf_counter() - started


class Calibration:
    """Kernel samples along a pass, and the calibrated time between them."""

    def __init__(self) -> None:
        #: ``(start, end, kernel seconds)`` per sample, in time order.
        self._samples: list[tuple[float, float, float]] = []

    def sample(self) -> None:
        start = perf_counter()
        seconds = kernel_seconds()
        self._samples.append((start, perf_counter(), seconds))

    def sample_if_due(self, _now: int = 0) -> None:
        """Engine-task callback: sample when ``MIN_INTERVAL`` has passed."""
        if perf_counter() - self._samples[-1][1] >= MIN_INTERVAL:
            self.sample()

    def scale(self) -> float:
        """Calibrated / wall seconds at the last two samples."""
        return 2 * REFERENCE_SECONDS / (self._samples[-2][2] + self._samples[-1][2])

    def between(self, started: float, ended: float) -> tuple[float, float]:
        """Wall and calibrated seconds of ``[started, ended]``, leaving out
        the samples taken inside it. Needs a sample ending before
        ``started`` and one starting after ``ended``."""
        starts = [s[0] for s in self._samples]
        first = bisect_left(starts, started) - 1
        last = bisect_left(starts, ended)
        edges = self._samples[first:last + 1]
        wall = calibrated = 0.0
        for left, right in zip(edges, edges[1:]):
            stretch = min(right[0], ended) - max(left[1], started)
            wall += stretch
            calibrated += stretch * 2 * REFERENCE_SECONDS / (left[2] + right[2])
        return wall, calibrated
