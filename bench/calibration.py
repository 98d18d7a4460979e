"""Host-speed reference: a fixed kernel timed next to every timed call.

The host this benchmark was tuned on changes speed by itself, by tens of
percent over seconds to minutes, and the program's calls slow and speed up
with it. A fixed kernel run right before and right after a call measures the
host's speed at that moment. `Reference.close` rescales each call's wall time
to the speed at which the kernel takes `REFERENCE_S`, so a slower host
lengthens both and leaves the ratio, while a slower program lengthens only the
call (see README, "Steadiness").

The kernel has three parts of about equal time on the reference host: an
interpreted Python loop, a pointer chase through a shuffled list of 200,000
Python ints, and a random gather from a 16 MB array. Over 15 s windows the
program's calls slowed and sped up about one for one with this mix; a tight
loop alone, BLAS products or a sequential stream moved less than the calls
did, so rescaling by them left part of the drift in.
"""

from __future__ import annotations

import random
import time

import numpy as np

# Kernel time on the reference host in its faster stretches (README, "Timing").
REFERENCE_S = 0.008

PY_STEPS = 50_000
CHASE_STEPS = 10_000
CHASE_LENGTH = 200_000
GATHER_SIZE = 2_000_000
GATHER_COUNT = 200_000


class Reference:
    """Runs the kernel and rescales the calls timed between two runs of it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._next = list(range(CHASE_LENGTH))
        random.Random(0).shuffle(self._next)
        self._array = rng.standard_normal(GATHER_SIZE)
        self._index = rng.integers(0, GATHER_SIZE, GATHER_COUNT)
        self.samples: list[float] = []  # every kernel time, in run order
        self._pending: list[tuple[list, float]] = []  # (sink, wall seconds)

    def kernel(self) -> float:
        """Run the kernel once, rescale the calls timed since its last run
        into their sinks, and return its time."""
        start = time.perf_counter()
        total = 0
        for i in range(PY_STEPS):
            total += i
        nxt, j = self._next, 0
        for _ in range(CHASE_STEPS):
            j = nxt[j]
        self._array[self._index].sum()
        seconds = time.perf_counter() - start
        before = self.samples[-1] if self.samples else seconds
        scale = REFERENCE_S / (0.5 * (before + seconds))
        for sink, wall in self._pending:
            sink.append(wall * scale)
        self._pending.clear()
        self.samples.append(seconds)
        return seconds

    def add(self, sink: list, wall_s: float) -> None:
        """Queue a call's wall time; the next `kernel` run rescales it into
        `sink` by the mean of the kernel times on either side of the call
        (by that run alone if the kernel has not run before)."""
        self._pending.append((sink, wall_s))
