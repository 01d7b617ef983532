"""Bounded LRU caches with hit/miss/eviction statistics.

The engine keeps three cache tiers (transformed values, distance
columns, thresholded score vectors). The seed evaluator protected its
memory bound by wholesale ``.clear()`` at capacity, which throws away
the shared genetic material the cache exists to exploit right when the
population is largest; :class:`LRUCache` evicts one least-recently-used
entry instead, so hot entries survive across generations and batches.

The cache is thread-safe: a hit mutates recency state (delete +
re-insert), so concurrent engine workers
(:mod:`repro.engine.executor`) would corrupt an unlocked dict. All
operations take one short uncontended lock; cached values themselves
are immutable (tuples, read-only arrays), so no lock is needed around
their use.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.engine.counters import GAUGE


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of one cache tier."""

    hits: int
    misses: int
    evictions: int
    size: int = field(metadata=GAUGE)
    capacity: int = field(metadata=GAUGE)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup; 0.0 before the first lookup."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


class LRUCache:
    """A dict-backed LRU cache (Python dicts preserve insertion order:
    a hit re-inserts the key at the end, eviction pops the front)."""

    __slots__ = ("_data", "_capacity", "_hits", "_misses", "_evictions", "_lock")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self._data: dict[Hashable, Any] = {}
        self._capacity = capacity
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    @property
    def capacity(self) -> int:
        return self._capacity

    def get(self, key: Hashable) -> Any | None:
        """The cached value or None; counts a hit or a miss and renews
        the entry's recency on a hit."""
        with self._lock:
            data = self._data
            value = data.get(key)
            if value is None:
                self._misses += 1
                return None
            self._hits += 1
            # Move to the most-recently-used position.
            del data[key]
            data[key] = value
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert an entry, evicting the least recently used at capacity."""
        with self._lock:
            data = self._data
            if key in data:
                del data[key]
            elif len(data) >= self._capacity:
                data.pop(next(iter(data)))
                self._evictions += 1
            data[key] = value

    def clear(self) -> None:
        """Drop all entries (statistics counters keep accumulating)."""
        with self._lock:
            self._data.clear()

    def evict_matching(self, predicate) -> int:
        """Evict every entry whose key satisfies ``predicate``; returns
        the number evicted. Used to release a discarded context's
        entries instead of waiting for capacity eviction."""
        with self._lock:
            doomed = [key for key in self._data if predicate(key)]
            for key in doomed:
                del self._data[key]
            self._evictions += len(doomed)
            return len(doomed)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                capacity=self._capacity,
            )
