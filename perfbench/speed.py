"""A fixed reference computation that gauges the host's current CPU speed.

On a shared host the speed one process gets swings by up to 2x within
seconds, and the slow and fast spells last long enough that the mean of a
whole run still moves with them.  So the benchmark runs this reference
right before and right after every timed region, and every INTERVAL_S
during it, and rescales each stretch of the region between two reference
runs to the reference speed:

    scaled = wall * REFERENCE_S / mean(reference before, reference after)

that is, the time the stretch would have taken on the host where the
reference takes REFERENCE_S.  The reference runs inside the region from a
SIGALRM handler, between two bytecodes of the program, and its own time is
left out of the region's wall time.  It mixes an interpreted loop and numpy
array work, as the program under test does; the loop has the larger share
because the program slows about as much as the loop when the host slows,
and more than numpy alone.  It uses only Python and numpy, never scanloc,
so no change to the program moves it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import signal
import time

import numpy as np

# About the reference's fastest duration on a 2-core x86-64 VM
# (Python 3.11, numpy 2.4): the unit that scaled times are given in.
REFERENCE_S = 0.022
# how often the reference runs inside a timed region
INTERVAL_S = 0.5
_POINTS = 20_000
_LOOP = 200_000


@dataclasses.dataclass
class Region:
    wall: float = 0.0
    scaled: float = 0.0


class SpeedGauge:
    """Runs the reference around timed regions and keeps every sample."""

    def __init__(self):
        self._points = np.random.default_rng(0).standard_normal((_POINTS, 3))
        self.samples: list[float] = []
        self.sample()  # the first run pays for numpy's lazy set-up

    def _reference(self) -> float:
        keys = np.floor(self._points * 50).astype(np.int64)
        order = np.lexsort(keys.T)
        total = float(self._points[order, 0] @ self._points[:, 1])
        acc = 0
        for i in range(_LOOP):
            acc += i * i % 7
        return total + acc

    def sample(self) -> float:
        start = time.perf_counter()
        self._reference()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    @contextlib.contextmanager
    def region(self, sampling: bool = True):
        """Time the body; on exit the yielded Region holds its wall and
        scaled seconds.

        With `sampling` off the reference runs only before and after the
        body: for a body that waits on a child process, which would keep
        running while the reference runs, and for traced runs, whose spans
        must not hold the reference's time.
        """
        region = Region()
        stretches = []  # wall seconds of the body between reference runs
        references = [self.sample()]
        active = sampling
        start = time.perf_counter()

        def tick(signum, frame):
            nonlocal start
            stretches.append(time.perf_counter() - start)
            references.append(self.sample())
            start = time.perf_counter()
            if active:  # re-armed here, so ticks never overlap
                signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

        if sampling:
            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        try:
            yield region
        finally:
            active = False
            if sampling:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            stretches.append(time.perf_counter() - start)
            references.append(self.sample())
            region.wall = sum(stretches)
            region.scaled = sum(
                wall * REFERENCE_S / ((before + after) / 2)
                for wall, before, after in zip(stretches, references, references[1:]))

    def speed(self) -> float:
        """The host's median speed over the run, relative to the reference."""
        return REFERENCE_S / float(np.median(self.samples)) if self.samples else 0.0
