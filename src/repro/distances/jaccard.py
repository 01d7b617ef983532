"""Jaccard distance between value sets.

The Jaccard coefficient treats the two value sets themselves as token
sets: ``|A intersect B| / |A union B|``. The distance is one minus the
coefficient, so it already lives in [0, 1] and needs no cross-product
lifting. This is the natural companion of the ``tokenize``
transformation: tokenising a label first and comparing with Jaccard
yields order-insensitive matching, one of the paper's motivating
examples (Section 3).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.distances.base import DistanceMeasure, INFINITE_DISTANCE, ValueColumn
from repro.distances.strings import StringKernelMemo, set_algebra_column


def jaccard_distance(values_a: Iterable[str], values_b: Iterable[str]) -> float:
    """1 - |A n B| / |A u B| over the two value sets."""
    set_a = set(values_a)
    set_b = set(values_b)
    if not set_a or not set_b:
        return INFINITE_DISTANCE
    intersection = len(set_a & set_b)
    union = len(set_a | set_b)
    return 1.0 - intersection / union


class SetAlgebraDistance(DistanceMeasure):
    """Shared batch column for measures over the value sets themselves
    (jaccard, dice, overlap, equality): set sizes and intersections come
    from :func:`repro.distances.strings.set_algebra_column`, and the
    subclass supplies the scalar measure plus its vectorized arithmetic
    in :meth:`_finish` (same operation order for bit-parity)."""

    batch_capable = True
    memo_capable = True

    def _finish(
        self, intersections: np.ndarray, sizes_a: np.ndarray, sizes_b: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError

    def evaluate_column(
        self,
        columns_a: ValueColumn,
        columns_b: ValueColumn,
        memo: StringKernelMemo | None = None,
    ) -> np.ndarray:
        return set_algebra_column(columns_a, columns_b, self._finish, memo=memo)


class JaccardDistance(SetAlgebraDistance):
    """Jaccard set distance in [0, 1]."""

    name = "jaccard"
    threshold_range = (0.1, 1.0)

    def evaluate(self, values_a: Sequence[str], values_b: Sequence[str]) -> float:
        return jaccard_distance(values_a, values_b)

    def _finish(
        self, intersections: np.ndarray, sizes_a: np.ndarray, sizes_b: np.ndarray
    ) -> np.ndarray:
        # Scalar expression order: 1.0 - (intersection / union), int / int.
        unions = sizes_a + sizes_b - intersections
        return 1.0 - intersections / unions
