"""Order statistics for the benchmark's timing samples."""

from __future__ import annotations

import math

MIN_BEYOND = 10
TAIL_LADDER = (99.9, 99.0, 90.0)


def rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    if n < 1:
        raise ValueError("no samples")
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def beyond(n: int, p: float) -> int:
    """Samples that lie beyond the nearest-rank p-th percentile."""
    return n - rank(n, p)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with >= p % at or below it."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def tail_percentile(n: int, ladder=TAIL_LADDER) -> float | None:
    """The highest percentile in ``ladder`` with >= 10 samples beyond it, if any."""
    for p in sorted(ladder, reverse=True):
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None
