"""The :class:`DataSource` container.

A data source is a keyed collection of entities sharing (loosely) a
schema. It provides the property statistics used in Table 6 of the
paper: the number of distinct properties and their *coverage*, i.e. the
average fraction of entities on which a property is actually set.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.data.entity import Entity

#: Serial numbers of source states (see :attr:`SourceState.key`).
_STATE_SERIALS = itertools.count()

# Upper bound on the retained delta log. The log exists so persisted
# index payloads a few epochs old can be patched forward instead of
# rebuilt; beyond this horizon a rebuild is cheaper than replaying the
# chain, so older deltas are dropped and patching falls back cleanly.
_DELTA_LOG_LIMIT = 16


@dataclass(frozen=True)
class SourceDelta:
    """One applied upsert/delete batch in a source's epoch chain.

    Captures everything an index patcher needs to move a payload from
    the parent epoch to this one without touching the source again:
    the *new* entity versions (``upserts``), the *old* versions they
    displaced (``replaced``), and the old versions of removed entities
    (``deletes``). ``parent_fingerprint`` → ``fingerprint`` is the edge
    this delta represents in the chain.
    """

    parent_fingerprint: str
    fingerprint: str
    upserts: tuple[Entity, ...] = ()
    replaced: tuple[Entity, ...] = ()
    deletes: tuple[Entity, ...] = ()

    @property
    def upsert_uids(self) -> frozenset[str]:
        return frozenset(entity.uid for entity in self.upserts)

    @property
    def delete_uids(self) -> frozenset[str]:
        return frozenset(entity.uid for entity in self.deletes)

    @property
    def changed_uids(self) -> frozenset[str]:
        return self.upsert_uids | self.delete_uids

    def old_entities(self) -> tuple[Entity, ...]:
        """Displaced entity versions: replaced upserts plus deletes."""
        return self.replaced + self.deletes

    def __bool__(self) -> bool:
        return bool(self.upserts or self.deletes)


class SourceState:
    """The entities of one data-source state, by position.

    Position ``p`` always names the same entity: a :class:`DataSource`
    starts a new state whenever its content changes, and an ad-hoc
    state over a pair list's entities never changes at all. That makes
    a state the unit the engine keeps transformed value columns for —
    a column slot is filled once per (value op, state, position) and
    dies with the state. ``key`` is a serial number unique to the
    state, which names its columns without holding the state alive;
    the uid -> position map is built on first use.
    """

    __slots__ = ("entities", "key", "_positions", "__weakref__")

    def __init__(self, entities: list[Entity]):
        self.entities = entities
        self.key = next(_STATE_SERIALS)
        self._positions: dict[str, int] | None = None

    def position(self, uid: str) -> int:
        """The position of the entity with ``uid`` (KeyError if none)."""
        return self._position_map()[uid]

    def positions_of(self, entities: Sequence[Entity]) -> list[int | None]:
        """Each entity's position, or None where the entity is not this
        state's own (a displaced version, or one from elsewhere)."""
        get = self._position_map().get
        own = self.entities
        found: list[int | None] = []
        for entity in entities:
            p = get(entity.uid)
            found.append(p if p is not None and own[p] is entity else None)
        return found

    def _position_map(self) -> dict[str, int]:
        positions = self._positions
        if positions is None:
            positions = {entity.uid: p for p, entity in enumerate(self.entities)}
            self._positions = positions
        return positions


class DataSource:
    """An ordered, uid-keyed collection of entities."""

    def __init__(self, name: str, entities: Iterable[Entity] = ()):
        self._name = name
        self._entities: dict[str, Entity] = {}
        self._fingerprint: str | None = None
        self._delta_log: list[SourceDelta] = []
        self._state: SourceState | None = None
        for entity in entities:
            self.add(entity)

    @property
    def name(self) -> str:
        return self._name

    def add(self, entity: Entity) -> None:
        if entity.uid in self._entities:
            raise ValueError(f"duplicate entity uid {entity.uid!r} in {self._name!r}")
        self._entities[entity.uid] = entity
        # A raw add bypasses the delta protocol, so the epoch chain no
        # longer describes this content: fall back to a content rehash
        # and void the lineage so nothing tries to patch across it.
        self._fingerprint = None
        self._delta_log.clear()
        self._state = None

    def apply_delta(
        self,
        upserts: Iterable[Entity] = (),
        deletes: Iterable[str] = (),
    ) -> SourceDelta:
        """Apply an upsert/delete batch and advance the epoch chain.

        ``deletes`` (uids) are removed first, then ``upserts`` are
        applied with dict semantics: an existing uid keeps its slot in
        the insertion order, a new uid appends at the end. Deleting an
        unknown uid raises; a uid may not appear twice in one batch.

        Instead of rehashing every entity, the new source fingerprint
        is chained from the parent: ``sha256(parent × delta-digest)``,
        where the digest covers only the changed entities. Unchanged
        entities keep their cached content fingerprints, so per-entity
        store keys stay valid and only the source-level epoch moves.
        The applied :class:`SourceDelta` is returned and kept in a
        bounded log (:meth:`delta_chain`) for index patching.
        """
        delete_uids = list(dict.fromkeys(deletes))
        upsert_list = list(upserts)
        parent = self.fingerprint()
        if not delete_uids and not upsert_list:
            return SourceDelta(parent_fingerprint=parent, fingerprint=parent)

        self._state = None
        removed: list[Entity] = []
        for uid in delete_uids:
            try:
                removed.append(self._entities.pop(uid))
            except KeyError:
                raise KeyError(f"no entity {uid!r} to delete in {self._name!r}")

        replaced: list[Entity] = []
        upsert_seen: set[str] = set()
        for entity in upsert_list:
            if entity.uid in upsert_seen:
                raise ValueError(
                    f"duplicate upsert uid {entity.uid!r} in one delta batch"
                )
            upsert_seen.add(entity.uid)
            old = self._entities.get(entity.uid)
            if old is not None:
                replaced.append(old)
            self._entities[entity.uid] = entity

        digest = hashlib.sha256()
        digest.update(parent.encode("ascii"))
        for uid in delete_uids:
            encoded = uid.encode("utf-8")
            digest.update(b"-")
            digest.update(str(len(encoded)).encode("ascii"))
            digest.update(b":")
            digest.update(encoded)
        for entity in upsert_list:
            digest.update(b"+")
            digest.update(entity.fingerprint().encode("ascii"))
        fingerprint = digest.hexdigest()

        delta = SourceDelta(
            parent_fingerprint=parent,
            fingerprint=fingerprint,
            upserts=tuple(upsert_list),
            replaced=tuple(replaced),
            deletes=tuple(removed),
        )
        self._fingerprint = fingerprint
        self._delta_log.append(delta)
        del self._delta_log[:-_DELTA_LOG_LIMIT]
        return delta

    def delta_chain(self) -> tuple[SourceDelta, ...]:
        """Retained epoch chain, oldest delta first.

        Each element's ``fingerprint`` equals the next element's
        ``parent_fingerprint``; the last one's ``fingerprint`` is this
        source's current :meth:`fingerprint`. Empty for sources that
        were never mutated (or mutated through :meth:`add`, which voids
        the chain).
        """
        return tuple(self._delta_log)

    def fingerprint(self) -> str:
        """Content hash of this source's snapshot — every entity's
        content fingerprint, in insertion order.

        Deliberately excludes the source *name*: two identically-loaded
        snapshots under different names describe the same data, so
        persistent caches keyed by this fingerprint (the engine's
        column store) can share work between them. Cached until the
        next :meth:`add`; entities themselves are immutable.
        """
        cached = self._fingerprint
        if cached is None:
            digest = hashlib.sha256()
            for entity in self._entities.values():
                digest.update(entity.fingerprint().encode("ascii"))
                digest.update(b"\x1e")
            cached = digest.hexdigest()
            self._fingerprint = cached
        return cached

    def state(self) -> SourceState:
        """The current :class:`SourceState`: created on first use and
        replaced by the next :meth:`add` or :meth:`apply_delta`, so
        readers holding an older state keep reading that state."""
        state = self._state
        if state is None:
            state = SourceState(list(self._entities.values()))
            self._state = state
        return state

    def get(self, uid: str) -> Entity:
        try:
            return self._entities[uid]
        except KeyError:
            raise KeyError(f"no entity {uid!r} in data source {self._name!r}")

    def __contains__(self, uid: str) -> bool:
        return uid in self._entities

    def __len__(self) -> int:
        return len(self._entities)

    def __iter__(self) -> Iterator[Entity]:
        return iter(self._entities.values())

    def uids(self) -> list[str]:
        return list(self._entities)

    def entities(self) -> list[Entity]:
        return list(self._entities.values())

    # -- schema statistics (Table 6) ---------------------------------------
    def property_names(self) -> list[str]:
        """All property names appearing on any entity, sorted."""
        names: set[str] = set()
        for entity in self._entities.values():
            names.update(entity.property_names())
        return sorted(names)

    def property_count(self) -> int:
        return len(self.property_names())

    def coverage(self) -> float:
        """Average fraction of the schema's properties set per entity.

        This matches the paper's Table 6 definition: "the percentage of
        properties which are actually set on an entity" on average.
        """
        names = self.property_names()
        if not names or not self._entities:
            return 0.0
        total = sum(
            sum(1 for name in names if entity.has(name))
            for entity in self._entities.values()
        )
        return total / (len(names) * len(self._entities))

    def property_coverage(self) -> Mapping[str, float]:
        """Per-property fraction of entities on which it is set."""
        if not self._entities:
            return {}
        counts: dict[str, int] = {}
        for entity in self._entities.values():
            for name in entity.property_names():
                counts[name] = counts.get(name, 0) + 1
        n = len(self._entities)
        return {name: count / n for name, count in sorted(counts.items())}

    def __repr__(self) -> str:
        return f"DataSource({self._name!r}, {len(self)} entities)"
