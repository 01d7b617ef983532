"""Persistent on-disk distance-column store.

:class:`ColumnStore` is the engine's fourth, cross-run cache tier: it
persists threshold-free distance columns as ``.npy`` blobs (loaded back
memory-mapped) below the in-memory LRU tiers of an
:class:`~repro.engine.session.EngineSession`. The in-memory tiers make
reuse cheap *within* a process; the store makes it cheap *across*
processes — a warm rerun of link generation or a Table-reproduction
experiment over unchanged sources skips the distance pass entirely and
produces byte-identical results (float64 round-trips through the npy
format bit-exactly).

Keying
------
A column is identified by a SHA-256 over two content tokens:

* the **pair-list fingerprint** — a hash chain over the content
  fingerprints (:meth:`repro.data.entity.Entity.fingerprint`) of every
  pair, in order. Any change to any entity's properties, to the pair
  set or to its order changes the fingerprint, so stale columns can
  never be served for modified sources — invalidation is automatic and
  needs no manifest bookkeeping;
* the **comparison-op token** — the compiler's threshold-free
  structural signature (:func:`repro.engine.compiler.signature_token`),
  so every threshold and weight mutation over the same
  ``(metric, source, target)`` shares one persisted column.

Index tier
----------
Next to the column tier the store keeps a **blocking-index tier**:
pickled candidate-generation indexes (token blocks, MultiBlock
comparison indexes and their probe-side code views) keyed by
``sha256(DataSource.fingerprint() x blocker signature)``. Indexes
reference entities by uid only — the live source resolves uids back to
entities on load — so a persisted index is valid exactly as long as the
source content is unchanged, which the fingerprint key guarantees.
Warm reruns of link generation then skip index construction the same
way they already skip distance-column builds.

Layout on disk
--------------
::

    <root>/columns-v1/<key[:2]>/<key>.npy    # float64 column blob
    <root>/indexes-v1/<key[:2]>/<key>.pkl    # pickled blocking index
    <root>/probes-v1/<key[:2]>/<key>.pkl     # per-entity probe ledger

Stores written by older versions may also hold ``<key>.json`` metadata
sidecars next to columns and ``epochs-v1/<key[:2]>/<key>.json``
provenance records. Nothing reads either: a sidecar leaves with its
column (gc, clear, corrupt-blob discard), and :meth:`ColumnStore.entries`
lists the epoch records so ``gc`` and ``clear`` remove them.

Disk protocol
-------------
The three tiers share one read path and one publish path; they differ
only in codec (a memory-mapped ``.npy`` checked for shape and read
through once, a pickle, a pickle that must be a dict) and in the
:class:`StoreStats` counter prefix (``""``, ``index_``, ``probe_``).

Blobs are written to a temp file in the destination directory and
published with ``os.replace``, so readers — including the other
processes of a service worker fleet sharing one cache dir — never
observe a partial file; racing writers each publish a complete blob
and the last rename wins.

The store never raises for storage faults: a failed load is a miss and
a failed save is skipped, so a read-only or full cache directory
degrades to cold-cache behaviour. A load tells three outcomes apart:

* a *missing* file is a plain miss;
* a *transient* I/O error while reading (``EIO``, ``ENOSPC``, an
  injected fault) leaves the blob alone — deleting a healthy file
  because the disk hiccuped would turn a transient fault into
  permanent cache loss — and counts in ``io_faults``;
* a *corrupt* blob (unreadable header, truncated data, wrong shape, a
  pickle that does not load or has the wrong type) is deleted, with
  any legacy sidecar, so the rebuilt blob can replace it, and counts in
  ``<prefix>invalid``.

Transient faults on any tier feed one
:class:`~repro.faults.CircuitBreaker`, and any successful disk
operation resets it: after enough consecutive failures the store stops
touching the disk entirely (every operation becomes a fast miss /
skipped write), re-probing it after a cooldown, and the trip is
surfaced through :class:`StoreStats` and session/match stats as a
recorded degradation. Every load and save runs through the
:func:`repro.faults.fire` injection seams (``store.read``,
``store.write``, ``store.rename``), which are inert without a
``REPRO_FAULTS`` plan.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro import faults
from repro.data.pairs import PairBatch
from repro.faults import CircuitBreaker

#: Environment variable selecting the cache directory when no store is
#: configured explicitly (absent or empty means "no persistent tier").
CACHE_ENV = "REPRO_ENGINE_CACHE"

#: Bumped whenever the blob format or key derivation changes; old
#: versions keep their own subdirectory and are simply ignored.
STORE_FORMAT_VERSION = 1

#: Format version of the blocking-index tier (independent of the column
#: tier: index payload layout can evolve without invalidating columns).
INDEX_FORMAT_VERSION = 1

#: Format version of the probe-ledger tier: per-entity candidate-code
#: results keyed entity fingerprint x probe signature.
PROBE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class StoreStats:
    """A point-in-time snapshot of one store's counters."""

    hits: int
    misses: int
    #: Columns persisted by this process (one per store-level miss that
    #: was subsequently built and written back).
    writes: int
    #: Corrupt/mismatched blobs dropped on load (each also counts as a
    #: miss: the caller rebuilds the column).
    invalid: int
    bytes_read: int
    bytes_written: int
    #: Blocking-index tier counters (separate from the column counters
    #: so "warm run skipped index construction" is assertable without
    #: conflating it with column hits).
    index_hits: int = 0
    index_misses: int = 0
    index_writes: int = 0
    index_invalid: int = 0
    #: Probe-ledger tier counters: per-*entity* hit/miss granularity
    #: (one blob holds many entities), so "the warm run probed only the
    #: changed entities" is directly assertable.
    probe_hits: int = 0
    probe_misses: int = 0
    probe_writes: int = 0
    probe_invalid: int = 0
    #: Transient I/O faults (EIO/ENOSPC/injected) across all tiers —
    #: distinct from ``invalid``: a transient fault never deletes the
    #: blob, it just degrades that operation.
    io_faults: int = 0
    #: Times the store's circuit breaker opened (disk bypassed until
    #: the cooldown half-opens it).
    breaker_trips: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup; 0.0 before the first lookup."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    @property
    def index_lookups(self) -> int:
        return self.index_hits + self.index_misses

    @property
    def index_hit_rate(self) -> float:
        """Index-tier hits per lookup; 0.0 before the first lookup."""
        lookups = self.index_lookups
        return self.index_hits / lookups if lookups else 0.0


@dataclass(frozen=True)
class StoreEntry:
    """One persisted blob, as seen by maintenance commands."""

    key: str
    path: Path
    nbytes: int
    #: Last use (mtime; renewed on every hit so GC evicts cold entries).
    last_used: float


@dataclass(frozen=True)
class GCResult:
    """Outcome of one :meth:`ColumnStore.gc` sweep."""

    removed: int
    freed_bytes: int
    kept: int
    kept_bytes: int


def column_key(pairs_fingerprint: str, op_token: str) -> str:
    """The store key of one (pair list, comparison op) column."""
    payload = f"{pairs_fingerprint}\x1f{op_token}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def index_key(source_fingerprint: str, blocker_token: str) -> str:
    """The store key of one (data source, blocker signature) index.

    ``source_fingerprint`` is :meth:`repro.data.source.DataSource.
    fingerprint` — a content hash over every entity — so any change to
    the indexed source changes the key and stale indexes are never
    served. ``blocker_token`` is the blocker's stable construction
    signature (:meth:`repro.matching.blocking.Blocker.signature`).
    """
    payload = f"{source_fingerprint}\x1f{blocker_token}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def pairs_fingerprint(pairs: "PairBatch | Sequence[tuple]") -> str:
    """Content fingerprint of an ordered entity-pair sequence.

    Hashes each pair's entity content fingerprints in order — columns
    are positional, so order is part of the identity. The digest is
    one SHA-256 update over a ``(pairs, 130)`` byte matrix gathered
    from per-entity fingerprints: per pair 64 hex bytes, ``0x1f``, 64
    hex bytes, ``0x1e`` — the same bytes, hence the same keys, as
    hashing pair by pair.
    """
    batch = PairBatch.from_pairs(pairs)
    rows = np.empty((len(batch), 130), dtype=np.uint8)
    rows[:, :64] = _fingerprint_matrix(batch.entities_a)[batch.index_a]
    rows[:, 64] = 0x1F
    rows[:, 65:129] = _fingerprint_matrix(batch.entities_b)[batch.index_b]
    rows[:, 129] = 0x1E
    return hashlib.sha256(rows).hexdigest()


def _fingerprint_matrix(entities: Sequence) -> np.ndarray:
    """The hex content fingerprints of ``entities``, one 64-byte row each."""
    text = "".join([entity.fingerprint() for entity in entities])
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, 64)


@dataclass(frozen=True)
class _Tier:
    """Where one tier's blobs live and which counters they feed."""

    directory: str
    suffix: str
    #: :class:`StoreStats` counter prefix (``index_`` -> ``index_hits``).
    prefix: str
    #: Whether hits, misses and writes count per blob. A probe ledger
    #: counts them per entity (:meth:`ColumnStore.record_probe_lookups`).
    per_blob: bool = True


#: The live tiers, by their :meth:`ColumnStore.describe` name.
_TIERS = {
    "columns": _Tier(f"columns-v{STORE_FORMAT_VERSION}", ".npy", ""),
    "indexes": _Tier(f"indexes-v{INDEX_FORMAT_VERSION}", ".pkl", "index_"),
    "probes": _Tier(
        f"probes-v{PROBE_FORMAT_VERSION}", ".pkl", "probe_", per_blob=False
    ),
}

#: Provenance records older versions wrote and nothing reads (directory,
#: suffix): listed by :meth:`ColumnStore.entries` so gc and clear
#: remove them.
_LEGACY_EPOCHS = ("epochs-v1", ".json")


def _load_npy(path: Path) -> np.ndarray:
    return np.load(path, mmap_mode="r", allow_pickle=False)


def _unpickle(blob: bytes) -> tuple[object, int]:
    return pickle.loads(blob), len(blob)


def _unpickle_dict(blob: bytes) -> tuple[dict, int]:
    payload, nbytes = _unpickle(blob)
    if not isinstance(payload, dict):
        raise TypeError(f"expected a dict, got {type(payload).__name__}")
    return payload, nbytes


def _unlink(path: str | os.PathLike) -> bool:
    """Delete ``path``; False when it could not be."""
    try:
        os.unlink(path)
    except OSError:
        return False
    return True


def _drop(path: Path) -> bool:
    """Delete a blob and the ``<key>.json`` sidecar older versions
    wrote next to each column; True when the blob itself went."""
    dropped = _unlink(path)
    _unlink(path.with_suffix(".json"))
    return dropped


def _pickled(payload: object) -> bytes | None:
    """``payload`` pickled, or None when it cannot be."""
    try:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None


class ColumnStore:
    """An on-disk, content-keyed store of float64 distance columns,
    blocking indexes and probe ledgers.

    Thread-safe (counters under one lock; the filesystem operations are
    atomic-rename publications) and safe for concurrent processes
    sharing one cache directory. Columns load memory-mapped.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        breaker: CircuitBreaker | None = None,
    ):
        self._root = Path(root).expanduser()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        #: Running totals of the :class:`StoreStats` counters, one
        #: entry per field, under one lock (``breaker_trips`` is read
        #: from the breaker at snapshot time).
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(
            (spec.name for spec in fields(StoreStats)), 0
        )

    @property
    def root(self) -> Path:
        """The cache directory this store persists under."""
        return self._root

    def _path(self, tier: str, key: str) -> Path:
        spec = _TIERS[tier]
        return self._root / spec.directory / key[:2] / f"{key}{spec.suffix}"

    # -- accounting -----------------------------------------------------------
    def _count(self, **amounts: int) -> None:
        """Add ``amounts`` to the named :class:`StoreStats` counters."""
        with self._lock:
            for name, amount in amounts.items():
                self._counts[name] += amount

    def _tally(self, spec: _Tier, outcome: str, **amounts: int) -> None:
        """Count one blob ``outcome`` (``hits``, ``misses``, ``writes``)
        under ``spec``'s prefix, plus ``amounts``."""
        if spec.per_blob:
            amounts[spec.prefix + outcome] = 1
        self._count(**amounts)

    def _io_fault(self, error: OSError) -> None:
        """Count a transient disk fault and feed the breaker."""
        self._count(io_faults=1)
        reason = error.strerror or str(error)
        self.breaker.record_failure(reason)

    def trip_reasons(self) -> tuple[str, ...]:
        """Every degradation the breaker has recorded (monotonic)."""
        return self.breaker.trip_reasons()

    # -- the disk protocol ----------------------------------------------------
    def _read(self, tier: str, key: str, read, decode):
        """One blob through the shared load protocol, or None.

        ``read(path)`` fetches the raw blob; ``decode(raw)`` returns
        ``(value, nbytes)`` or raises. A missing file is a plain miss.
        An ``OSError`` from ``read`` is transient: the blob stays and
        the breaker is fed. A ``ValueError`` or ``EOFError`` from
        ``read``, or any exception from ``decode``, marks the blob
        corrupt: it is deleted so a rebuild can replace it. A hit
        renews the blob's mtime for GC recency. With the breaker open
        the disk is bypassed and every load is a fast miss.
        """
        spec = _TIERS[tier]
        if not self.breaker.allow():
            self._tally(spec, "misses")
            return None
        path = self._path(tier, key)
        try:
            faults.fire("store.read")
            raw = read(path)
        except FileNotFoundError:
            self._tally(spec, "misses")
            self.breaker.record_success()
            return None
        except OSError as error:
            # Transient disk fault: the blob may be perfectly healthy,
            # so never delete it — degrade this lookup to a miss and
            # let the breaker decide whether to keep trying the disk.
            self._tally(spec, "misses")
            self._io_fault(error)
            return None
        except (ValueError, EOFError):
            # ``np.load`` found an unreadable header or truncated data.
            return self._discard_corrupt(spec, path)
        try:
            value, nbytes = decode(raw)
        except Exception:
            # Truncated or damaged blobs raise a zoo of error types
            # (ValueError, EOFError, UnpicklingError, ...); any of them
            # means the blob is unusable.
            return self._discard_corrupt(spec, path)
        try:
            os.utime(path, None)
        except OSError:
            pass
        self._tally(spec, "hits", bytes_read=nbytes)
        self.breaker.record_success()
        return value

    def _discard_corrupt(self, spec: _Tier, path: Path) -> None:
        _drop(path)
        self._tally(spec, "misses", **{spec.prefix + "invalid": 1})

    def _publish(self, tier: str, key: str, write, nbytes: int) -> bool:
        """Publish one blob atomically; returns success.

        ``write(handle)`` streams the blob into a temp file next to the
        destination, which ``os.replace`` then publishes, so readers
        never see a partial file. Concurrent writers are safe: all
        writers for one key write a valid blob and the last rename wins
        without a lock. Storage failures return False and feed the
        breaker — the engine then keeps the value in memory only.
        """
        spec = _TIERS[tier]
        if not self.breaker.allow():
            return False
        path = self._path(tier, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=spec.suffix
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    write(handle)
                # Injection seams bracket publication: ``store.write``
                # fires with the temp path (a torn fault truncates it —
                # the unlink below must keep the torn bytes invisible),
                # ``store.rename`` fires at the point of no return.
                faults.fire("store.write", tmp_path=tmp)
                faults.fire("store.rename")
                os.replace(tmp, path)
            except BaseException:
                _unlink(tmp)
                raise
        except OSError as error:
            self._io_fault(error)
            return False
        self._tally(spec, "writes", bytes_written=nbytes)
        self.breaker.record_success()
        return True

    # -- column tier ----------------------------------------------------------
    def load(self, key: str, rows: int) -> np.ndarray | None:
        """The persisted column for ``key``, or None on a miss.

        A hit returns a read-only, memory-mapped array of exactly
        ``rows`` float64 values. A blob of another shape or dtype is
        corrupt (see :meth:`_read`).
        """

        def decode(column: np.ndarray) -> tuple[np.ndarray, int]:
            # Key collision cannot produce this (keys hash the pair
            # list), so a shape/dtype mismatch means a damaged or
            # foreign file squatting on the key.
            if column.shape != (rows,) or column.dtype != np.float64:
                raise ValueError(f"column of shape {column.shape}")
            # Force the data pages through validation: a blob truncated
            # *after* a well-formed header would otherwise fault later,
            # inside a kernel. Reading also warms the page cache.
            float(np.sum(column))
            return column, column.nbytes

        return self._read("columns", key, _load_npy, decode)

    def save(self, key: str, column: np.ndarray) -> bool:
        """Persist a column under ``key`` (atomic; returns success).
        ``np.save`` streams straight into the temp file."""
        column = np.ascontiguousarray(column, dtype=np.float64)
        return self._publish(
            "columns", key, lambda handle: np.save(handle, column), column.nbytes
        )

    # -- blocking-index tier --------------------------------------------------
    def load_index(self, key: str) -> object | None:
        """The persisted blocking index for ``key``, or None on a miss.

        Payloads are pickled plain data structures (dicts/tuples of
        uids and block keys, numpy code arrays — never entity objects
        or code, and never private classes, so refactors only cost a
        clean miss).
        """
        return self._read("indexes", key, Path.read_bytes, _unpickle)

    def save_index(self, key: str, payload: object) -> bool:
        """Persist a blocking index under ``key`` (atomic; returns
        success; an unpicklable payload is skipped)."""
        blob = _pickled(payload)
        return blob is not None and self._publish(
            "indexes", key, lambda handle: handle.write(blob), len(blob)
        )

    # -- probe-ledger tier ----------------------------------------------------
    def load_probe_ledger(self, key: str) -> dict | None:
        """The persisted probe ledger for ``key``, or None when absent.

        A ledger maps entity content fingerprints to their probed
        candidate-code arrays for one (probe-side source epoch, probe
        signature). Unlike the column/index tiers, hit/miss accounting
        is per *entity*, not per blob — callers report it through
        :meth:`record_probe_lookups` after consulting the ledger, so a
        blob-level miss here counts nothing by itself. A blob that is
        not a pickled dict is corrupt.
        """
        return self._read("probes", key, Path.read_bytes, _unpickle_dict)

    def save_probe_ledger(self, key: str, payload: Mapping) -> bool:
        """Persist a probe ledger under ``key`` (atomic; returns
        success). Racing writers may each persist a different superset
        of the entries they loaded; any of them is a valid ledger —
        absent entries are simply re-probed next run."""
        blob = _pickled(dict(payload))
        return blob is not None and self._publish(
            "probes", key, lambda handle: handle.write(blob), len(blob)
        )

    def record_probe_lookups(
        self, hits: int = 0, misses: int = 0, writes: int = 0
    ) -> None:
        """Report per-entity ledger traffic (see :meth:`load_probe_ledger`)."""
        if not (hits or misses or writes):
            return
        self._count(probe_hits=hits, probe_misses=misses, probe_writes=writes)

    # -- maintenance ----------------------------------------------------------
    def _files(self) -> Iterator[tuple[str | None, StoreEntry]]:
        """Every persisted blob with its tier name (None: a legacy
        epoch record)."""
        layout = [
            (name, spec.directory, spec.suffix) for name, spec in _TIERS.items()
        ]
        for tier, directory, suffix in layout + [(None, *_LEGACY_EPOCHS)]:
            base = self._root / directory
            if not base.is_dir():
                continue
            for path in sorted(base.glob(f"*/*{suffix}")):
                if path.name.startswith(".tmp-"):
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue
                yield tier, StoreEntry(
                    key=path.stem,
                    path=path,
                    nbytes=stat.st_size,
                    last_used=stat.st_mtime,
                )

    def entries(self) -> Iterator[StoreEntry]:
        """All persisted blobs across every tier, unordered.

        Columns, blocking indexes, probe ledgers and legacy epoch
        records share the maintenance machinery: GC recency is mtime
        (renewed on hits) for all of them, ``clear`` drops everything.
        """
        for _, entry in self._files():
            yield entry

    def describe(self) -> dict:
        """Totals for ``cache info``: per-tier entry counts, plus the
        entries and bytes of everything :meth:`entries` lists."""
        counts = dict.fromkeys(_TIERS, 0)
        entries = 0
        total = 0
        for tier, entry in self._files():
            if tier is not None:
                counts[tier] += 1
            entries += 1
            total += entry.nbytes
        return {
            "path": str(self._root),
            "entries": entries,
            **counts,
            "bytes": total,
            "breaker": self.breaker.describe(),
        }

    def gc(
        self,
        max_age_days: float | None = None,
        max_bytes: int | None = None,
    ) -> GCResult:
        """Evict cold blobs by age and/or total size.

        ``max_age_days`` removes entries not used (loaded or written)
        within that window; ``max_bytes`` then removes
        least-recently-used entries until the store fits. With neither
        bound this is a no-op report.
        """
        entries = sorted(self.entries(), key=lambda e: e.last_used)
        removed = 0
        freed = 0
        kept: list[StoreEntry] = []
        now = time.time()
        cutoff = (
            now - max_age_days * 86400.0 if max_age_days is not None else None
        )
        for entry in entries:
            if cutoff is not None and entry.last_used < cutoff:
                if _drop(entry.path):
                    removed += 1
                    freed += entry.nbytes
                    continue
            kept.append(entry)
        if max_bytes is not None:
            kept_bytes = sum(e.nbytes for e in kept)
            survivors: list[StoreEntry] = []
            for entry in kept:
                if kept_bytes > max_bytes:
                    if _drop(entry.path):
                        removed += 1
                        freed += entry.nbytes
                        kept_bytes -= entry.nbytes
                        continue
                survivors.append(entry)
            kept = survivors
        return GCResult(
            removed=removed,
            freed_bytes=freed,
            kept=len(kept),
            kept_bytes=sum(e.nbytes for e in kept),
        )

    def clear(self) -> int:
        """Remove every persisted blob; returns the number removed."""
        return sum(_drop(entry.path) for entry in list(self.entries()))

    # -- statistics -----------------------------------------------------------
    def stats(self) -> StoreStats:
        with self._lock:
            counts = dict(self._counts)
        counts["breaker_trips"] = self.breaker.trips
        return StoreStats(**counts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnStore({str(self._root)!r})"


def resolve_store(
    store: "ColumnStore | str | os.PathLike | None" = None,
) -> ColumnStore | None:
    """Resolve a cache-dir argument to a :class:`ColumnStore` or None.

    ``None`` consults the ``REPRO_ENGINE_CACHE`` environment variable
    (absent or empty means no persistent tier); an empty string
    explicitly disables the tier; any other string/path opens a store
    rooted there; a store instance passes through unchanged.
    """
    if store is None:
        store = os.environ.get(CACHE_ENV, "")
    if isinstance(store, ColumnStore):
        return store
    if isinstance(store, (str, os.PathLike)):
        text = os.fspath(store)
        return ColumnStore(text) if text else None
    raise TypeError(
        f"store must be a ColumnStore, path, str or None, "
        f"not {type(store).__name__}"
    )
