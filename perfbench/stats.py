"""Order statistics used by the benchmark and by its spread check."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100), interpolating between closest ranks.

    The same definition as NumPy's default (``method="linear"``): rank
    ``q/100 * (n-1)`` in the sorted values.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be within [0, 100], got {q}")
    ordered = sorted(values)
    rank = q / 100 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median.

    Quartiles as ``statistics.quantiles(values, n=4)`` gives them, which is
    how the benchmark's acceptance check measures run-to-run spread.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
