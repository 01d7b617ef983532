"""Value-operator evaluation (Definitions 5 & 6) and the session's
transformed-value columns.

This is the single implementation of value semantics in the codebase;
:func:`repro.core.evaluation.evaluate_value` delegates here. It lives
in the engine package (rather than ``repro.core``) so the execution
layers below — columnar stores, compiled plans — can evaluate value
trees without importing the evaluation facade that sits on top of them.
:class:`ValueColumns` holds what they evaluate: a value operator's
result depends on one entity only, so it is kept per source state and
position and read back by position.

Parameterised transformations are resolved through
:meth:`TransformationRegistry.resolve`, so custom transformations with
parameters work without any special-casing here.
"""

from __future__ import annotations

import threading
import weakref
from typing import Sequence

from repro.core.nodes import PropertyNode, TransformationNode, ValueNode
from repro.data.entity import Entity
from repro.data.source import SourceState
from repro.engine.lru import CacheStats
from repro.transforms.registry import TransformationRegistry


def evaluate_value_op(
    node: ValueNode,
    entity: Entity,
    transforms: TransformationRegistry,
) -> tuple[str, ...]:
    """Evaluate a value operator for one entity."""
    if isinstance(node, PropertyNode):
        return entity.values(node.property_name)
    if isinstance(node, TransformationNode):
        transformation = transforms.resolve(node.function, node.params)
        inputs = [
            evaluate_value_op(child, entity, transforms) for child in node.inputs
        ]
        return transformation(inputs)
    raise TypeError(f"not a value operator: {type(node).__name__}")


class ValueColumns:
    """Transformed value columns, one per (value op, source state).

    A column maps source positions to transformed value tuples and is
    filled lazily, only at the positions a reader gathers, so an
    entity's values are evaluated once per state however many shards,
    probes and contexts read them. The columns of a live
    :class:`~repro.data.source.SourceState` are dropped when that state
    is garbage-collected (a weak reference per state). ``capacity``
    bounds the filled slots of all columns together; past it, whole
    columns leave in least-recently-gathered order.

    :meth:`stats` keeps the per-entity meaning of a value cache: a
    miss is a slot a gather filled, a hit a slot it found filled —
    including one a racing gather filled while this one evaluated it,
    so racing gathers count each fill once — and ``size`` counts the
    filled slots alive. Gathers are safe from concurrent threads:
    slots are written under the lock and a slot is never read before
    it holds a value, so a racing fill repeats pure work at worst.
    """

    def __init__(self, capacity: int, transforms: TransformationRegistry):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self._capacity = capacity
        self._transforms = transforms
        #: (state key, value-op signature) -> {position: values}, least
        #: recently gathered first.
        self._columns: dict[tuple, dict[int, tuple[str, ...]]] = {}
        #: state key -> weak reference to the live state.
        self._anchors: dict[int, weakref.ref] = {}
        #: Keys of collected states; a weakref callback may run inside
        #: a locked section, so it only appends and the next locked
        #: call drops their columns.
        self._dead: list[int] = []
        self._size = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._lock = threading.Lock()

    def gather(
        self,
        sig,
        node: ValueNode,
        state: SourceState,
        positions: Sequence[int],
    ) -> list[tuple[str, ...]]:
        """The values of ``node`` (signature ``sig``) at ``positions``
        of ``state``'s column. Unfilled slots evaluate the state's
        entity at that position."""
        key = state.key
        column_key = (key, sig)
        with self._lock:
            self._drop_dead()
            column = self._columns.pop(column_key, None)
            if column is None:
                column = {}
                if key not in self._anchors:
                    dead = self._dead
                    self._anchors[key] = weakref.ref(
                        state, lambda _ref, key=key: dead.append(key)
                    )
            self._columns[column_key] = column
        values = list(map(column.get, positions))
        missing = [i for i, held in enumerate(values) if held is None]
        transforms = self._transforms
        entities = state.entities
        for i in missing:
            values[i] = evaluate_value_op(node, entities[positions[i]], transforms)
        with self._lock:
            filled = 0
            for i in missing:
                position = positions[i]
                held = column.get(position)
                if held is None:
                    column[position] = values[i]
                    filled += 1
                else:
                    values[i] = held
            self._hits += len(values) - filled
            self._misses += filled
            if filled and self._columns.get(column_key) is column:
                self._size += filled
                self._evict()
        return values

    def release(self, state: SourceState) -> None:
        """Drop every column of ``state`` now (its slots count as
        evictions), instead of when the state is collected."""
        with self._lock:
            self._drop(state.key)

    def clear(self) -> None:
        """Drop all columns (statistics counters keep accumulating)."""
        with self._lock:
            self._columns.clear()
            self._anchors.clear()
            self._dead.clear()
            self._size = 0

    def stats(self) -> CacheStats:
        with self._lock:
            self._drop_dead()
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=self._size,
                capacity=self._capacity,
            )

    def _drop_dead(self) -> None:
        dead = self._dead
        while dead:
            self._drop(dead.pop())

    def _drop(self, key: int) -> None:
        self._anchors.pop(key, None)
        for column_key in [ck for ck in self._columns if ck[0] == key]:
            self._discard(column_key)

    def _evict(self) -> None:
        while self._size > self._capacity and self._columns:
            self._discard(next(iter(self._columns)))

    def _discard(self, column_key: tuple) -> None:
        slots = len(self._columns.pop(column_key))
        self._size -= slots
        self._evictions += slots
