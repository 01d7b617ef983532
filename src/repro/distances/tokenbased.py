"""Additional token/set distance measures from the Silk catalogue.

Dice and overlap coefficients complement Jaccard for token sets;
Monge-Elkan is the classic hybrid measure that matches each token of
one value against its best counterpart in the other — robust to
reordered multi-token names. ``relativeNumeric`` scales the numeric
difference by magnitude, which suits quantities spanning orders of
magnitude (molecular weights, populations).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.distances.base import DistanceMeasure, INFINITE_DISTANCE
from repro.distances.jaccard import SetAlgebraDistance
from repro.distances.jaro import jaro_winkler_similarity
from repro.distances.numeric import parse_number
from repro.distances.strings import BoundedValueMemo


class DiceDistance(SetAlgebraDistance):
    """1 - 2|A n B| / (|A| + |B|) over the two value sets."""

    name = "dice"
    threshold_range = (0.1, 1.0)

    def evaluate(self, values_a: Sequence[str], values_b: Sequence[str]) -> float:
        set_a = set(values_a)
        set_b = set(values_b)
        if not set_a or not set_b:
            return INFINITE_DISTANCE
        return 1.0 - 2.0 * len(set_a & set_b) / (len(set_a) + len(set_b))

    def _finish(
        self, intersections: np.ndarray, sizes_a: np.ndarray, sizes_b: np.ndarray
    ) -> np.ndarray:
        return 1.0 - 2.0 * intersections / (sizes_a + sizes_b)


class OverlapDistance(SetAlgebraDistance):
    """1 - |A n B| / min(|A|, |B|): full containment scores 0."""

    name = "overlap"
    threshold_range = (0.1, 1.0)

    def evaluate(self, values_a: Sequence[str], values_b: Sequence[str]) -> float:
        set_a = set(values_a)
        set_b = set(values_b)
        if not set_a or not set_b:
            return INFINITE_DISTANCE
        return 1.0 - len(set_a & set_b) / min(len(set_a), len(set_b))

    def _finish(
        self, intersections: np.ndarray, sizes_a: np.ndarray, sizes_b: np.ndarray
    ) -> np.ndarray:
        return 1.0 - intersections / np.minimum(sizes_a, sizes_b)


class MongeElkanDistance(DistanceMeasure):
    """Monge-Elkan with a Jaro-Winkler inner measure.

    For each token of the first value the best-matching token of the
    second is found; the distance is one minus the average of those
    best similarities. Asymmetric by definition; this implementation
    symmetrises by taking the smaller of the two directions.
    """

    name = "mongeElkan"
    threshold_range = (0.05, 0.6)
    max_tokens = 16

    def __init__(self) -> None:
        # Value tuples recur across calls (one tuple per unique
        # entity), so token lists are memoised per distinct tuple.
        self._token_memo = BoundedValueMemo()

    def _tokens(self, values: Sequence[str]) -> list[str]:
        return self._token_memo.get(values, self._split)

    def _split(self, values: Sequence[str]) -> list[str]:
        tokens: list[str] = []
        for value in values:
            tokens.extend(value.split())
            if len(tokens) >= self.max_tokens:
                break
        return tokens[: self.max_tokens]

    def _directed(self, tokens_a: list[str], tokens_b: list[str]) -> float:
        total = 0.0
        for token_a in tokens_a:
            total += max(
                jaro_winkler_similarity(token_a, token_b) for token_b in tokens_b
            )
        return total / len(tokens_a)

    def evaluate(self, values_a: Sequence[str], values_b: Sequence[str]) -> float:
        tokens_a = self._tokens(values_a)
        tokens_b = self._tokens(values_b)
        if not tokens_a or not tokens_b:
            return INFINITE_DISTANCE
        similarity = min(
            self._directed(tokens_a, tokens_b),
            self._directed(tokens_b, tokens_a),
        )
        return 1.0 - similarity


class RelativeNumericDistance(DistanceMeasure):
    """|a - b| / max(|a|, |b|): a scale-free numeric distance in [0, 2]."""

    name = "relativeNumeric"
    threshold_range = (0.01, 0.5)

    def evaluate(self, values_a: Sequence[str], values_b: Sequence[str]) -> float:
        numbers_a = [n for v in values_a if (n := parse_number(v)) is not None]
        numbers_b = [n for v in values_b if (n := parse_number(v)) is not None]
        if not numbers_a or not numbers_b:
            return INFINITE_DISTANCE
        best = INFINITE_DISTANCE
        for a in numbers_a:
            for b in numbers_b:
                scale = max(abs(a), abs(b))
                if scale == 0.0:
                    distance = 0.0
                else:
                    distance = abs(a - b) / scale
                best = min(best, distance)
        return best
