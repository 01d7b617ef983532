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
from repro.data.source import DataSource, SourceState


class PairBatch(Sequence):
    """A read-only sequence of entity pairs in columnar form.

    ``entities_a``/``entities_b`` hold each side's distinct entities,
    in order of first appearance; ``index_a``/``index_b`` are ``intp``
    arrays with one entry per pair. A side cut from a data source also
    carries that source's :class:`~repro.data.source.SourceState`
    (``state_a``/``state_b``) and each distinct entity's position in it
    (``positions_a``/``positions_b``): the coordinates the engine
    gathers transformed values by. A side without a source has neither.
    """

    __slots__ = (
        "entities_a",
        "entities_b",
        "index_a",
        "index_b",
        "state_a",
        "positions_a",
        "state_b",
        "positions_b",
    )

    def __init__(
        self,
        entities_a: list[Entity],
        entities_b: list[Entity],
        index_a: np.ndarray,
        index_b: np.ndarray,
        state_a: SourceState | None = None,
        positions_a: np.ndarray | None = None,
        state_b: SourceState | None = None,
        positions_b: np.ndarray | None = None,
    ):
        self.entities_a = entities_a
        self.entities_b = entities_b
        self.index_a = np.asarray(index_a, dtype=np.intp)
        self.index_b = np.asarray(index_b, dtype=np.intp)
        self.state_a = state_a
        self.positions_a = positions_a
        self.state_b = state_b
        self.positions_b = positions_b

    @classmethod
    def from_pairs(
        cls,
        pairs: "Iterable[tuple[Entity, Entity]]",
        source_a: DataSource | None = None,
        source_b: DataSource | None = None,
    ) -> "PairBatch":
        """The batch of an ordered pair stream (a batch passes through).

        With ``source_a``/``source_b``, a side whose entities are all
        the source's current ones is numbered by source position and
        carries the source state. Otherwise each side's entities are
        keyed by the entity itself, not its uid: hashing costs only the
        uid hash, while full equality keeps degenerate pair lists (same
        uid, different properties) in separate slots, so they never
        share a value column.
        """
        if isinstance(pairs, cls):
            return pairs
        pairs = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
        side_a = _index_side([pair[0] for pair in pairs], source_a)
        side_b = _index_side([pair[1] for pair in pairs], source_b)
        return cls(
            side_a[0], side_b[0], side_a[1], side_b[1], *side_a[2:], *side_b[2:]
        )

    def __len__(self) -> int:
        return len(self.index_a)

    def __getitem__(self, k):
        return self.entities_a[self.index_a[k]], self.entities_b[self.index_b[k]]

    def __iter__(self) -> Iterator[tuple[Entity, Entity]]:
        return zip(
            map(self.entities_a.__getitem__, self.index_a.tolist()),
            map(self.entities_b.__getitem__, self.index_b.tolist()),
        )


def first_appearance(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``codes`` in order of first appearance,
    plus each element's index into them."""
    present, first, inverse = np.unique(
        codes, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return present[order], rank[inverse]


def _index_side(side: list[Entity], source: DataSource | None) -> tuple:
    """``(distinct entities, pair -> entity index, state, positions)``
    of one pair side; state and positions are None unless every entity
    is ``source``'s current one."""
    if source is not None and side:
        state = source.state()
        found = state.positions_of(side)
        if None not in found:
            positions, index = first_appearance(np.array(found, dtype=np.intp))
            entities = list(map(state.entities.__getitem__, positions.tolist()))
            return entities, index, state, positions
    # ``setdefault`` hands a new entity the next free position.
    numbers: dict[Entity, int] = {}
    index = [numbers.setdefault(entity, len(numbers)) for entity in side]
    return list(numbers), np.array(index, dtype=np.intp), None, None
