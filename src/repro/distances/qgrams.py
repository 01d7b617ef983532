"""Q-gram and soft-Jaccard string distances (Silk catalogue).

Two further measures the Silk framework ships for string matching:

* :class:`QGramsDistance` — Jaccard distance over padded character
  q-grams. Robust to small edits anywhere in the string and cheap to
  index (the MultiBlock q-gram indexer is exact for it).
* :class:`SoftJaccardDistance` — Jaccard over whitespace tokens where
  two tokens already count as equal when their Levenshtein distance is
  within a small budget; tolerates typos inside otherwise token-equal
  names.
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
from repro.distances.levenshtein import levenshtein
from repro.distances.strings import BoundedValueMemo


def qgrams(value: str, q: int = 2) -> set[str]:
    """Padded q-grams of one string (``^`` and ``$`` mark the ends).

    Strings shorter than ``q`` (after padding) yield themselves, so no
    value ever maps to an empty gram set.
    """
    text = f"^{value}$"
    if len(text) <= q:
        return {text}
    return {text[i : i + q] for i in range(len(text) - q + 1)}


class QGramsDistance(DistanceMeasure):
    """Jaccard distance over padded q-grams, minimised over value pairs."""

    name = "qgrams"
    threshold_range = (0.1, 1.0)
    batch_capable = True

    def __init__(self, q: int = 2):
        if q < 1:
            raise ValueError("q must be >= 1")
        self._q = q

    def _pair_distance(self, a: str, b: str) -> float:
        q = self._q
        return _grams_distance(qgrams(a.lower(), q), qgrams(b.lower(), q))

    def evaluate(self, values_a: Sequence[str], values_b: Sequence[str]) -> float:
        return min_over_pairs(values_a, values_b, self._pair_distance)

    def evaluate_column(
        self, columns_a: ValueColumn, columns_b: ValueColumn
    ) -> np.ndarray:
        """Batch q-gram Jaccard: gram sets are built once per distinct
        value and the set algebra runs once per distinct value pair,
        instead of once per candidate pair."""
        q = self._q

        def kernel(strings, index_a, index_b):
            grams = [qgrams(value.lower(), q) for value in strings]
            return np.fromiter(
                (
                    _grams_distance(grams[a], grams[b])
                    for a, b in zip(index_a.tolist(), index_b.tolist())
                ),
                np.float64,
                len(index_a),
            )

        return pairwise_min_column(columns_a, columns_b, kernel)


def _grams_distance(grams_a: set[str], grams_b: set[str]) -> float:
    return 1.0 - len(grams_a & grams_b) / len(grams_a | grams_b)


class SoftJaccardDistance(DistanceMeasure):
    """Jaccard over tokens with Levenshtein-tolerant token equality.

    A token of one side is covered when the other side has a token
    within ``max_token_distance`` edits; the distance is one minus
    covered-tokens / total-distinct-tokens (a symmetric soft overlap).
    """

    name = "softJaccard"
    threshold_range = (0.1, 1.0)

    def __init__(self, max_token_distance: int = 1):
        if max_token_distance < 0:
            raise ValueError("max_token_distance must be >= 0")
        self._max_token_distance = max_token_distance
        # Value tuples recur across calls (one tuple per unique
        # entity), so token lists are memoised per distinct tuple.
        self._token_memo = BoundedValueMemo()

    def _tokens(self, values: Sequence[str]) -> list[str]:
        return self._token_memo.get(values, self._split)

    @staticmethod
    def _split(values: Sequence[str]) -> list[str]:
        tokens: list[str] = []
        seen: set[str] = set()
        for value in values:
            for token in value.lower().split():
                if token not in seen:
                    seen.add(token)
                    tokens.append(token)
        return tokens

    def _covered(self, tokens_a: list[str], tokens_b: list[str]) -> int:
        budget = self._max_token_distance
        covered = 0
        for token in tokens_a:
            for other in tokens_b:
                if levenshtein(token, other, bound=budget) <= budget:
                    covered += 1
                    break
        return covered

    def evaluate(self, values_a: Sequence[str], values_b: Sequence[str]) -> float:
        tokens_a = self._tokens(values_a)
        tokens_b = self._tokens(values_b)
        if not tokens_a or not tokens_b:
            return INFINITE_DISTANCE
        covered = self._covered(tokens_a, tokens_b) + self._covered(
            tokens_b, tokens_a
        )
        total = len(tokens_a) + len(tokens_b)
        return 1.0 - covered / total
