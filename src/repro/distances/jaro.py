"""Jaro and Jaro-Winkler string similarity.

Not part of GenLink's Table 2, but the Carvalho et al. baseline (the
state-of-the-art GP approach the paper compares against) presupplies
``<attribute, similarity>`` pairs including Jaro, so we implement both
measures from scratch. Distances are ``1 - similarity``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.distances.base import (
    DistanceMeasure,
    ValueColumn,
    min_over_pairs,
    pairwise_min_column,
)
from repro.distances.strings import jaro_pairs


def jaro_similarity(a: str, b: str) -> float:
    """Classic Jaro similarity in [0, 1]."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    matched_a = [False] * la
    matched_b = [False] * lb
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        for j in range(lo, hi):
            if not matched_b[j] and b[j] == ca:
                matched_a[i] = True
                matched_b[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(la):
        if matched_a[i]:
            while not matched_b[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    m = float(matches)
    return (m / la + m / lb + (m - transpositions) / m) / 3.0


def jaro_winkler_similarity(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """Jaro similarity boosted by a shared prefix of up to 4 characters."""
    base = jaro_similarity(a, b)
    prefix = 0
    for ca, cb in zip(a[:4], b[:4]):
        if ca != cb:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


class JaroDistance(DistanceMeasure):
    """1 - Jaro similarity, lifted to value sets via the minimum."""

    name = "jaro"
    threshold_range = (0.0, 0.5)
    batch_capable = True

    #: Jaro winkler-prefix scale, or None for plain Jaro. The batch
    #: kernel is shared between the two measures through this knob.
    _prefix_scale: float | None = None

    def evaluate(self, values_a: Sequence[str], values_b: Sequence[str]) -> float:
        return min_over_pairs(
            values_a, values_b, lambda x, y: 1.0 - jaro_similarity(x, y)
        )

    def evaluate_column(
        self, columns_a: ValueColumn, columns_b: ValueColumn
    ) -> np.ndarray:
        prefix_scale = self._prefix_scale

        def kernel(strings, index_a, index_b):
            return 1.0 - jaro_pairs(strings, index_a, index_b, prefix_scale)

        return pairwise_min_column(columns_a, columns_b, kernel)


class JaroWinklerDistance(JaroDistance):
    """1 - Jaro-Winkler similarity, lifted to value sets via the minimum."""

    name = "jaroWinkler"
    threshold_range = (0.0, 0.5)
    _prefix_scale = 0.1

    def evaluate(self, values_a: Sequence[str], values_b: Sequence[str]) -> float:
        return min_over_pairs(
            values_a, values_b, lambda x, y: 1.0 - jaro_winkler_similarity(x, y)
        )
