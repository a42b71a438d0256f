"""Order statistics shared by the benchmark's harnesses."""

from __future__ import annotations

import math

#: Percentiles tried, lowest first, when reporting a tail.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct``."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def tail_percentile(values) -> tuple[float, float] | None:
    """``(pct, value)`` of the highest percentile with at least
    :data:`MIN_BEYOND` samples beyond it, or None if even the median
    has fewer."""
    best = None
    for pct in TAIL_PERCENTILES:
        if beyond(len(values), pct) >= MIN_BEYOND:
            best = (pct, percentile(values, pct))
    return best
