"""A fixed pure-Python workload that measures how fast the host runs
Python right now.

The benchmark host shares its cores with others, and its speed for
interpreter-bound work drifts by tens of percent within minutes.  Timing
this loop between a workload's operations, in the same process, gives
a same-machine yardstick: CPU-bound operation times are reported scaled
to :data:`REFERENCE_S`, the loop's time on a quiet host.

The loop imitates what the simulator spends its time on (a heap of
events, dictionary counters, small objects) and uses nothing from the
repository, so a change to the program cannot move it.
"""

from __future__ import annotations

import heapq
import random
import time

#: Median seconds of :func:`calibration_loop` on the quiet 2-core host
#: where the baseline in README.md was recorded.
REFERENCE_S = 0.03


class _Event:
    __slots__ = ("time", "key")

    def __init__(self, time: float, key: int) -> None:
        self.time = time
        self.key = key


def calibration_loop(steps: int = 20_000) -> int:
    rng = random.Random(7)
    heap = [(rng.random(), index, _Event(0.0, index % 97))
            for index in range(2000)]
    heapq.heapify(heap)
    counts: dict[int, int] = {}
    total = 0
    for step in range(steps):
        when, index, event = heapq.heappop(heap)
        counts[event.key] = counts.get(event.key, 0) + 1
        total += len(counts)
        heapq.heappush(heap, (when + rng.random(), index,
                              _Event(when, (event.key * 31 + step) % 4099)))
    return total


def calibration_seconds() -> float:
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two calibrations, at reference
    speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
