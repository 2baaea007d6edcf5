"""Order statistics for job timings."""

from __future__ import annotations

import math

# A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def samples_needed(q: float) -> int:
    """Smallest sample count that leaves MIN_BEYOND samples above the q-th."""
    n = 1
    while n - math.ceil(q * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples, q: float) -> float:
    """Nearest-rank q-th percentile (0 < q < 1).

    Raises ValueError when fewer than MIN_BEYOND samples lie above it.
    """
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_BEYOND:
        raise ValueError(
            f"{len(ordered)} samples leave {len(ordered) - rank} above the "
            f"{q:.0%} point; need {MIN_BEYOND}"
        )
    return ordered[rank - 1]
