"""Columnar candidate-pair sequences.

A :class:`PairBatch` stores a sequence of entity pairs as two entity
lists plus two integer index arrays: pair ``k`` is
``(entities_a[index_a[k]], entities_b[index_b[k]])``. Blockers cut
their probe results straight into this form, and the rule-execution
engine consumes it as is — per-entity value columns gather to per-pair
columns through the index arrays — so no step between candidate
generation and link emission builds a tuple per pair. The batch still
behaves as a read-only sequence of pairs (``len``, iteration, integer
indexing), so code that walks pairs keeps working unchanged.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Iterable, Iterator

import numpy as np

from repro.data.entity import Entity


class PairBatch(Sequence):
    """A read-only sequence of entity pairs in columnar form.

    ``entities_a``/``entities_b`` hold each side's distinct entities,
    in order of first appearance; ``index_a``/``index_b`` are ``intp``
    arrays with one entry per pair. Batches pickle as those four
    fields, which is what a process-pool shard ships.
    """

    __slots__ = ("entities_a", "entities_b", "index_a", "index_b")

    def __init__(
        self,
        entities_a: list[Entity],
        entities_b: list[Entity],
        index_a: np.ndarray,
        index_b: np.ndarray,
    ):
        self.entities_a = entities_a
        self.entities_b = entities_b
        self.index_a = np.asarray(index_a, dtype=np.intp)
        self.index_b = np.asarray(index_b, dtype=np.intp)

    @classmethod
    def from_pairs(
        cls, pairs: "Iterable[tuple[Entity, Entity]]"
    ) -> "PairBatch":
        """The batch of an ordered pair stream (a batch passes through).

        Each side's entities are keyed by the entity itself, not its
        uid: hashing costs only the uid hash, while full equality keeps
        degenerate pair lists (same uid, different properties) in
        separate slots, so they never share a value column.
        """
        if isinstance(pairs, cls):
            return pairs
        pairs = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
        entities_a, index_a = _index_side([pair[0] for pair in pairs])
        entities_b, index_b = _index_side([pair[1] for pair in pairs])
        return cls(entities_a, entities_b, index_a, index_b)

    def __len__(self) -> int:
        return len(self.index_a)

    def __getitem__(self, k):
        return self.entities_a[self.index_a[k]], self.entities_b[self.index_b[k]]

    def __iter__(self) -> Iterator[tuple[Entity, Entity]]:
        return zip(
            map(self.entities_a.__getitem__, self.index_a.tolist()),
            map(self.entities_b.__getitem__, self.index_b.tolist()),
        )


def _index_side(side: list[Entity]) -> tuple[list[Entity], np.ndarray]:
    """Distinct entities of one pair side plus the pair -> entity index
    (``setdefault`` hands a new entity the next free position)."""
    positions: dict[Entity, int] = {}
    index = [positions.setdefault(entity, len(positions)) for entity in side]
    return list(positions), np.array(index, dtype=np.intp)
