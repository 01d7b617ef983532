"""Exact-equality distance.

A degenerate measure (0 if any value is shared, 1 otherwise) useful for
identifier properties such as CAS numbers in the drug datasets, and as a
cheap building block in tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.distances.base import INFINITE_DISTANCE
from repro.distances.jaccard import SetAlgebraDistance


class EqualityDistance(SetAlgebraDistance):
    """0.0 when the value sets intersect, 1.0 otherwise."""

    name = "equality"
    threshold_range = (0.0, 0.9)

    def evaluate(self, values_a: Sequence[str], values_b: Sequence[str]) -> float:
        if not values_a or not values_b:
            return INFINITE_DISTANCE
        set_b = set(values_b)
        if any(v in set_b for v in values_a):
            return 0.0
        return 1.0

    def _finish(
        self, intersections: np.ndarray, sizes_a: np.ndarray, sizes_b: np.ndarray
    ) -> np.ndarray:
        return np.where(intersections > 0, 0.0, 1.0)
