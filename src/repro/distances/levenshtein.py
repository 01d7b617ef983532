"""Levenshtein (edit) distance with a banded dynamic program.

Comparison operators carry an absolute edit-distance threshold, so the
DP can run inside a diagonal band of width ``2*bound + 1`` and abort as
soon as every cell in a row exceeds the bound. This turns the usual
O(n*m) cost into O(n*bound), which is what makes pure-Python GP fitness
evaluation feasible at paper scale.

Both measures also expose vectorized batch columns under the
min-over-pairs column driver:
:func:`repro.distances.strings.levenshtein_pairs` runs Hyyrö's
bit-vector edit distance with every distinct value pair of a column a
lane of the same Python ints, so a text position costs about 17
big-int operations for all pairs at once. The scalar functions here
stay the bit-identical parity oracle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.distances.base import (
    DistanceMeasure,
    INFINITE_DISTANCE,
    ValueColumn,
    min_over_pairs,
    pairwise_min_column,
)
from repro.distances.strings import levenshtein_pairs


def levenshtein(a: str, b: str, bound: int | None = None) -> float:
    """Edit distance between two strings.

    When ``bound`` is given the result is exactly
    ``min(distance, bound + 1)``: every out-of-range pair reports
    ``bound + 1``, regardless of which shortcut detected it. The callers
    only need "out of range", but pinning the clamped value is what lets
    the batch kernel produce bit-identical columns.
    """
    if a == b:
        return 0.0
    la, lb = len(a), len(b)
    if bound is not None and abs(la - lb) > bound:
        return float(bound + 1)
    if la == 0:
        return float(lb)
    if lb == 0:
        return float(la)
    # Keep the shorter string as the row to minimise memory.
    if la > lb:
        a, b = b, a
        la, lb = lb, la
    previous = list(range(la + 1))
    current = [0] * (la + 1)
    for j in range(1, lb + 1):
        current[0] = j
        bj = b[j - 1]
        row_min = current[0]
        for i in range(1, la + 1):
            cost = 0 if a[i - 1] == bj else 1
            value = min(
                previous[i] + 1,      # deletion
                current[i - 1] + 1,   # insertion
                previous[i - 1] + cost,  # substitution
            )
            current[i] = value
            if value < row_min:
                row_min = value
        if bound is not None and row_min > bound:
            return float(bound + 1)
        previous, current = current, previous
    distance = previous[la]
    if bound is not None and distance > bound:
        return float(bound + 1)
    return float(distance)


def normalized_levenshtein(a: str, b: str) -> float:
    """Edit distance scaled to [0, 1] by the longer string length."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return levenshtein(a, b) / longest


class LevenshteinDistance(DistanceMeasure):
    """Minimum edit distance over the cross product of two value sets.

    ``max_bound`` limits how far the banded DP runs; distances beyond it
    are reported as ``max_bound + 1`` which is indistinguishable from
    "too far" for every threshold the GP can learn (thresholds are
    sampled from :attr:`threshold_range`).
    """

    name = "levenshtein"
    threshold_range = (0.0, 10.0)
    batch_capable = True

    def __init__(self, max_bound: int = 11):
        if max_bound < 1:
            raise ValueError("max_bound must be >= 1")
        self._max_bound = max_bound
        # Contract revision, serialised into cache_token(): revision 2
        # pins out-of-range distances to exactly bound + 1, so columns
        # persisted under the older "any value > bound" contract miss
        # cleanly instead of mixing both conventions.
        self._contract = 2

    def evaluate(self, values_a: Sequence[str], values_b: Sequence[str]) -> float:
        bound = self._max_bound
        return min_over_pairs(
            values_a, values_b, lambda x, y: levenshtein(x, y, bound=bound)
        )

    def evaluate_column(
        self, columns_a: ValueColumn, columns_b: ValueColumn
    ) -> np.ndarray:
        bound = self._max_bound

        def kernel(strings, index_a, index_b):
            return levenshtein_pairs(strings, index_a, index_b, bound)

        return pairwise_min_column(columns_a, columns_b, kernel)


class NormalizedLevenshteinDistance(DistanceMeasure):
    """Length-normalised edit distance in [0, 1] (used by baselines)."""

    name = "normalizedLevenshtein"
    threshold_range = (0.0, 1.0)
    batch_capable = True

    def evaluate(self, values_a: Sequence[str], values_b: Sequence[str]) -> float:
        if not values_a or not values_b:
            return INFINITE_DISTANCE
        return min_over_pairs(values_a, values_b, normalized_levenshtein)

    def evaluate_column(
        self, columns_a: ValueColumn, columns_b: ValueColumn
    ) -> np.ndarray:
        def kernel(strings, index_a, index_b):
            distances = levenshtein_pairs(strings, index_a, index_b)
            lengths = np.fromiter(map(len, strings), np.int64, len(strings))
            longest = np.maximum(lengths[index_a], lengths[index_b]).astype(
                np.float64
            )
            out = np.zeros(len(index_a), dtype=np.float64)
            positive = longest > 0.0
            # float / float division in the scalar expression order; the
            # longest == 0 rows stay 0.0 exactly like the scalar guard.
            out[positive] = distances[positive] / longest[positive]
            return out

        return pairwise_min_column(columns_a, columns_b, kernel)
