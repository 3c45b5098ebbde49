"""Order statistics the benchmark reports: medians and tails."""

from __future__ import annotations

import statistics
from typing import List, Optional, Sequence, Tuple

# A tail is only reported where at least this many samples lie beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of ``values``; 0.0 for an empty sequence."""
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[Optional[float], Optional[float], int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, n)``.  With ``n`` sorted samples the
    answer is the sample at rank ``n - TAIL_BEYOND - 1`` (0-based): exactly
    ``TAIL_BEYOND`` samples are larger, and no higher rank qualifies.  Its
    percentile is ``100 * (n - TAIL_BEYOND) / n``.  Fewer than
    ``TAIL_BEYOND + 1`` samples have no tail: ``(None, None, n)``.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None, None, n
    ordered = sorted(values)
    rank = n - TAIL_BEYOND - 1
    return float(ordered[rank]), 100.0 * (n - TAIL_BEYOND) / n, n


def union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total
