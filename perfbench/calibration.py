"""Machine-speed calibration for a shared host whose speed drifts.

On a host shared with other tenants, the speed of one core drifts by up to
half for minutes at a time, and every timing in a run moves with it. A fixed
pure-Python kernel - breadth-first searches over a seeded random graph, the
same kind of work as linkform's hot path but independent of linkform's code -
is timed before and after each measured interval. The end-to-end times are
rescaled by ``REFERENCE_S`` over the kernel's mean time around the interval:
they read as seconds on a host where the kernel takes ``REFERENCE_S``. The
raw times are reported alongside.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

REFERENCE_S = 0.010  # the kernel's time on an idle 2-core x86-64 host, Python 3.11
NODES = 400
EDGES = 1_600
SOURCES = range(0, NODES, 8)
REPEATS = 3


class Speedometer:
    def __init__(self) -> None:
        rng = random.Random(20170113)
        self._adjacency: dict[int, set[int]] = {node: set() for node in range(NODES)}
        for _ in range(EDGES):
            a, b = rng.randrange(NODES), rng.randrange(NODES)
            if a != b:
                self._adjacency[a].add(b)
                self._adjacency[b].add(a)
        self.last: float | None = None
        self.samples: list[float] = []

    def _kernel(self) -> int:
        """Sum of hop distances from every eighth node to all it reaches."""
        total = 0
        for source in SOURCES:
            seen = {source}
            frontier = [source]
            depth = 0
            while frontier:
                depth += 1
                following = []
                for node in frontier:
                    for peer in self._adjacency[node]:
                        if peer not in seen:
                            seen.add(peer)
                            following.append(peer)
                            total += depth
                frontier = following
        return total

    def sample(self) -> float:
        """Median kernel time over ``REPEATS`` runs; also kept as ``last``."""
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            self._kernel()
            times.append(perf_counter() - start)
        self.last = statistics.median(times)
        self.samples.append(self.last)
        return self.last

    def timed(self, call):
        """``(result, raw seconds, seconds at reference speed)`` of ``call()``.

        The kernel sample taken after the previous interval serves as this
        interval's "before" sample.
        """
        before = self.last if self.last is not None else self.sample()
        start = perf_counter()
        result = call()
        elapsed = perf_counter() - start
        after = self.sample()
        return result, elapsed, elapsed * REFERENCE_S / ((before + after) / 2)
