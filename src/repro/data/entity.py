"""The :class:`Entity` record type.

An entity (Section 2) is described by a set of properties, each of which
holds zero or more string values — the natural model for both RDF
resources (multi-valued by construction) and relational records
(single-valued). Entities are immutable so they can be shared freely
between data sources, pair lists and caches.
"""

from __future__ import annotations

import hashlib
from types import MappingProxyType
from typing import Iterable, Mapping


class Entity:
    """An immutable entity with a unique id and multi-valued properties."""

    __slots__ = ("_uid", "_properties", "_fingerprint")

    def __init__(
        self,
        uid: str,
        properties: Mapping[str, Iterable[str] | str],
    ):
        if not uid:
            raise ValueError("entity uid must be non-empty")
        normalized: dict[str, tuple[str, ...]] = {}
        for name, values in properties.items():
            if isinstance(values, str):
                values = (values,)
            value_tuple = tuple(str(v) for v in values if str(v) != "")
            if value_tuple:
                normalized[name] = value_tuple
        self._uid = uid
        self._properties = MappingProxyType(normalized)
        self._fingerprint: str | None = None

    @property
    def uid(self) -> str:
        return self._uid

    @property
    def properties(self) -> Mapping[str, tuple[str, ...]]:
        return self._properties

    def values(self, property_name: str) -> tuple[str, ...]:
        """All values of a property; empty tuple when unset."""
        return self._properties.get(property_name, ())

    def has(self, property_name: str) -> bool:
        return property_name in self._properties

    def property_names(self) -> tuple[str, ...]:
        return tuple(self._properties)

    def fingerprint(self) -> str:
        """Content hash of this entity (uid + every property value).

        The persistent column store keys cached distance columns by
        pair-content fingerprints, so any change to any property value
        changes the key and stale columns are never served. Computed
        lazily and cached — entities are immutable, so the hash can
        never go stale.
        """
        cached = self._fingerprint
        if cached is None:
            digest = hashlib.sha256()

            def feed(text: str) -> None:
                # Length-prefixed so the encoding is injective: a value
                # containing a would-be separator byte cannot collide
                # with two separate values of the same concatenation.
                encoded = text.encode("utf-8")
                digest.update(str(len(encoded)).encode("ascii"))
                digest.update(b":")
                digest.update(encoded)

            feed(self._uid)
            for name in sorted(self._properties):
                values = self._properties[name]
                feed(name)
                digest.update(str(len(values)).encode("ascii"))
                digest.update(b";")
                for value in values:
                    feed(value)
            cached = digest.hexdigest()
            self._fingerprint = cached
        return cached

    def revised(self, updates: Mapping[str, Iterable[str] | str]) -> "Entity":
        """A copy of this entity with some property values replaced.

        ``updates`` is merged over the existing properties; mapping a
        property to an empty value removes it (the constructor drops
        empty values). The uid is preserved, which is what makes the
        result an *upsert* of this entity rather than a new one. The
        copy's content fingerprint is recomputed lazily like any other
        entity's, so delta ingestion pays the hash cost only for the
        entities that actually changed.
        """
        merged: dict[str, Iterable[str] | str] = dict(self._properties)
        merged.update(updates)
        return Entity(self._uid, merged)

    def __reduce__(self) -> tuple:
        """Pickle support (mappingproxy is not picklable by default).

        Reconstruction through ``__init__`` re-normalises the
        already-normalised values, which is a no-op, so the round trip
        is exact.
        """
        return (Entity, (self._uid, dict(self._properties)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Entity):
            return NotImplemented
        return self._uid == other._uid and dict(self._properties) == dict(
            other._properties
        )

    def __hash__(self) -> int:
        return hash(self._uid)

    def __repr__(self) -> str:
        preview = ", ".join(
            f"{name}={values[0]!r}" for name, values in list(self._properties.items())[:3]
        )
        return f"Entity({self._uid!r}, {preview})"
