"""Sample summaries and the regression verdict.

Quartiles follow :func:`statistics.quantiles` (``n=4``, exclusive
method), which is how the benchmark's spread is defined: the distance
between the first and third quartile as a share of the median.
"""

from __future__ import annotations

import statistics
from typing import Sequence


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile with linear interpolation between order
    statistics (0 = minimum, 100 = maximum)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: Percentiles considered for a tail report, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(
    values: Sequence[float], beyond: int = 10
) -> tuple[float, float] | None:
    """The highest percentile with at least ``beyond`` samples above it,
    as ``(p, value)``; None when not even the median qualifies."""
    if not values:
        return None
    for p in TAIL_PERCENTILES:
        value = percentile(values, p)
        if sum(1 for v in values if v > value) >= beyond:
            return p, value
    return None


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> str:
    """``better``, ``worse``, ``unchanged`` or ``unresolved``.

    A metric is unresolved when either side's run-to-run spread exceeds
    the bound, unless every run of the change reads better than every
    run of the parent. Otherwise the change is worse (better) when its
    median moved the wrong (right) way by more than ``bound`` of the
    parent's median.
    """
    lower_is_better = better == "lower"
    _, parent_median, _ = quartiles(parent)
    _, change_median, _ = quartiles(change)
    if max(spread(parent), spread(change)) > bound:
        if lower_is_better:
            clear_win = max(change) < min(parent)
        else:
            clear_win = min(change) > max(parent)
        return "better" if clear_win else "unresolved"
    if not parent_median:
        return "unchanged" if parent_median == change_median else "unresolved"
    worse_by = (change_median - parent_median) / abs(parent_median)
    if not lower_is_better:
        worse_by = -worse_by
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"
