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
    <root>/epochs-v1/<key[:2]>/<key>.json    # delta-epoch provenance

Blobs are written to a temp file in the destination directory and
published with ``os.replace``, so readers — including concurrent
writer processes under a process-pool executor — never observe a
partial file; racing writers produce identical bytes and the last
rename wins. Corrupt or truncated blobs (killed writer mid-``os.replace``
on a non-atomic filesystem, disk faults) are detected on load, counted
as ``invalid``, deleted and rebuilt — never a crash.

The store never raises for storage faults: a failed load is a miss and
a failed save is skipped, so a read-only or full cache directory
degrades to cold-cache behaviour. Two kinds of fault are told apart:
a *corrupt* blob (unreadable header, truncated data, wrong shape) is
deleted so the rebuilt column can replace it, while a *transient* I/O
error (``EIO``, ``ENOSPC``, an injected fault) leaves the blob alone —
deleting a healthy file because the disk hiccuped would turn a
transient fault into permanent cache loss. Transient faults feed a
:class:`~repro.faults.CircuitBreaker`: after enough consecutive
failures the store stops touching the disk entirely (every operation
becomes a fast miss / skipped write), re-probing it after a cooldown,
and the trip is surfaced through :class:`StoreStats` and session/match
stats as a recorded degradation. All disk entry points run through
:func:`repro.faults.fire` injection seams (``store.read``,
``store.write``, ``store.rename``), which are inert without a
``REPRO_FAULTS`` plan.
"""

from __future__ import annotations

import hashlib
import json
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

#: Format version of the delta-epoch record tier: small JSON provenance
#: blobs recording which parent epoch a patched index derived from.
EPOCH_FORMAT_VERSION = 1


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
    """One persisted column, as seen by maintenance commands."""

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


class ColumnStore:
    """An on-disk, content-keyed store of float64 distance columns.

    Thread-safe (counters under one lock; the filesystem operations are
    atomic-rename publications) and safe for concurrent processes
    sharing one cache directory. ``mmap=False`` loads blobs into memory
    instead of memory-mapping them — useful when the cache directory
    lives on a filesystem with poor mmap behaviour.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        mmap: bool = True,
        breaker: CircuitBreaker | None = None,
    ):
        self._root = Path(root).expanduser()
        self._columns_dir = self._root / f"columns-v{STORE_FORMAT_VERSION}"
        self._indexes_dir = self._root / f"indexes-v{INDEX_FORMAT_VERSION}"
        self._probes_dir = self._root / f"probes-v{PROBE_FORMAT_VERSION}"
        self._epochs_dir = self._root / f"epochs-v{EPOCH_FORMAT_VERSION}"
        self._mmap = mmap
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

    def _column_path(self, key: str) -> Path:
        return self._columns_dir / key[:2] / f"{key}.npy"

    def _index_path(self, key: str) -> Path:
        return self._indexes_dir / key[:2] / f"{key}.pkl"

    def _probe_path(self, key: str) -> Path:
        return self._probes_dir / key[:2] / f"{key}.pkl"

    def _epoch_path(self, key: str) -> Path:
        return self._epochs_dir / key[:2] / f"{key}.json"

    # -- accounting -----------------------------------------------------------
    def _count(self, **amounts: int) -> None:
        """Add ``amounts`` to the named :class:`StoreStats` counters."""
        with self._lock:
            for name, amount in amounts.items():
                self._counts[name] += amount

    def _io_fault(self, error: OSError) -> None:
        """Count a transient disk fault and feed the breaker."""
        self._count(io_faults=1)
        reason = error.strerror or str(error)
        self.breaker.record_failure(reason)

    def trip_reasons(self) -> tuple[str, ...]:
        """Every degradation the breaker has recorded (monotonic)."""
        return self.breaker.trip_reasons()

    # -- load / save ----------------------------------------------------------
    def load(self, key: str, rows: int) -> np.ndarray | None:
        """The persisted column for ``key``, or None on a miss.

        A hit returns a read-only array of exactly ``rows`` float64
        values (memory-mapped by default) and renews the blob's mtime
        for GC recency. Anything unreadable — missing, truncated,
        malformed, wrong shape or dtype — is a miss; corrupt blobs are
        additionally deleted so the rebuilt column can replace them,
        while transient I/O errors leave the blob in place and feed the
        circuit breaker. With the breaker open the disk is bypassed
        entirely and every load is a fast miss.
        """
        if not self.breaker.allow():
            self._count(misses=1)
            return None
        path = self._column_path(key)
        try:
            faults.fire("store.read")
            if self._mmap:
                column = np.load(path, mmap_mode="r", allow_pickle=False)
            else:
                column = np.load(path, allow_pickle=False)
        except FileNotFoundError:
            self._count(misses=1)
            self.breaker.record_success()
            return None
        except (ValueError, EOFError):
            # Unreadable header or truncated data: drop the blob and
            # report a miss so the caller rebuilds (and re-persists) it.
            self._discard_corrupt(path)
            return None
        except OSError as error:
            # Transient disk fault: the blob may be perfectly healthy,
            # so never delete it — degrade this lookup to a miss and
            # let the breaker decide whether to keep trying the disk.
            self._count(misses=1)
            self._io_fault(error)
            return None
        if column.shape != (rows,) or column.dtype != np.float64:
            # Key collision cannot produce this (keys hash the pair
            # list), so a shape/dtype mismatch means a damaged or
            # foreign file squatting on the key: treat as corruption.
            del column
            self._discard_corrupt(path)
            return None
        if self._mmap:
            # Force the data pages through validation: a blob truncated
            # *after* a well-formed header would otherwise fault later,
            # inside a kernel. Reading also warms the page cache.
            try:
                checksum = float(np.sum(column))
            except (ValueError, OSError):
                del column
                self._discard_corrupt(path)
                return None
            del checksum
        else:
            column.setflags(write=False)
        try:
            os.utime(path, None)
        except OSError:
            pass
        self._count(hits=1, bytes_read=column.nbytes)
        self.breaker.record_success()
        return column

    def save(self, key: str, column: np.ndarray) -> bool:
        """Persist a column under ``key`` (atomic; returns success).

        Concurrent writers are safe: every writer publishes a complete
        temp file via ``os.replace`` and all writers for one key write
        identical bytes (the computation is deterministic), so the last
        rename wins without a lock. Storage failures return False —
        the engine then simply keeps the column in memory only.
        """
        if not self.breaker.allow():
            return False
        path = self._column_path(key)
        column = np.ascontiguousarray(column, dtype=np.float64)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".npy"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    np.save(handle, column)
                # Injection seams bracket publication: ``store.write``
                # fires with the temp path (a torn fault truncates it —
                # the unlink below must keep the torn bytes invisible),
                # ``store.rename`` fires at the point of no return.
                faults.fire("store.write", tmp_path=tmp)
                faults.fire("store.rename")
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as error:
            self._io_fault(error)
            return False
        self._count(writes=1, bytes_written=column.nbytes)
        self.breaker.record_success()
        return True

    def _discard_corrupt(self, path: Path) -> None:
        # Stores written by older versions keep a ``<key>.json``
        # metadata sidecar next to each column: drop it with the blob.
        for doomed in (path, path.with_suffix(".json")):
            try:
                os.unlink(doomed)
            except OSError:
                pass
        self._count(invalid=1, misses=1)

    # -- blocking-index tier --------------------------------------------------
    def load_index(self, key: str) -> object | None:
        """The persisted blocking index for ``key``, or None on a miss.

        Payloads are pickled plain data structures (dicts/tuples of
        uids and block keys, numpy code arrays — never entity objects
        or code, and never private classes, so refactors only cost a
        clean miss). A
        truncated or otherwise unreadable blob is dropped, counted as
        ``index_invalid`` and reported as a miss so the caller rebuilds
        it. A hit renews the blob's mtime for GC recency.
        """
        if not self.breaker.allow():
            self._count(index_misses=1)
            return None
        path = self._index_path(key)
        try:
            faults.fire("store.read")
            blob = path.read_bytes()
        except FileNotFoundError:
            self._count(index_misses=1)
            self.breaker.record_success()
            return None
        except OSError as error:
            self._count(index_misses=1)
            self._io_fault(error)
            return None
        try:
            payload = pickle.loads(blob)
        except Exception:
            # Truncated/corrupt pickle streams raise a zoo of error
            # types (UnpicklingError, EOFError, AttributeError, ...);
            # any of them means the blob is unusable.
            for doomed in (path,):
                try:
                    os.unlink(doomed)
                except OSError:
                    pass
            self._count(index_invalid=1, index_misses=1)
            return None
        try:
            os.utime(path, None)
        except OSError:
            pass
        self._count(index_hits=1, bytes_read=len(blob))
        self.breaker.record_success()
        return payload

    def save_index(self, key: str, payload: object) -> bool:
        """Persist a blocking index under ``key`` (atomic; returns
        success). Same publication discipline as :meth:`save`: complete
        temp file + ``os.replace``, deterministic payloads make racing
        writers harmless, storage faults degrade to cold behaviour."""
        if not self.breaker.allow():
            return False
        path = self._index_path(key)
        try:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".pkl"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                faults.fire("store.write", tmp_path=tmp)
                faults.fire("store.rename")
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as error:
            self._io_fault(error)
            return False
        self._count(index_writes=1, bytes_written=len(blob))
        self.breaker.record_success()
        return True

    # -- probe-ledger tier ----------------------------------------------------
    def load_probe_ledger(self, key: str) -> dict | None:
        """The persisted probe ledger for ``key``, or None when absent.

        A ledger maps entity content fingerprints to their probed
        candidate-code arrays for one (probe-side source epoch, probe
        signature). Unlike the column/index tiers, hit/miss accounting
        is per *entity*, not per blob — callers report it through
        :meth:`record_probe_lookups` after consulting the ledger, so a
        blob-level miss here counts nothing by itself.
        """
        if not self.breaker.allow():
            return None
        path = self._probe_path(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as error:
            self._io_fault(error)
            return None
        try:
            payload = pickle.loads(blob)
        except Exception:
            try:
                os.unlink(path)
            except OSError:
                pass
            self._count(probe_invalid=1)
            return None
        if not isinstance(payload, dict):
            try:
                os.unlink(path)
            except OSError:
                pass
            self._count(probe_invalid=1)
            return None
        try:
            os.utime(path, None)
        except OSError:
            pass
        self._count(bytes_read=len(blob))
        return payload

    def save_probe_ledger(self, key: str, payload: Mapping) -> bool:
        """Persist a probe ledger under ``key`` (atomic; returns
        success). Racing writers may each persist a different superset
        of the entries they loaded; any of them is a valid ledger —
        absent entries are simply re-probed next run."""
        if not self.breaker.allow():
            return False
        path = self._probe_path(key)
        try:
            blob = pickle.dumps(dict(payload), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".pkl"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as error:
            self._io_fault(error)
            return False
        self._count(bytes_written=len(blob))
        return True

    def record_probe_lookups(
        self, hits: int = 0, misses: int = 0, writes: int = 0
    ) -> None:
        """Report per-entity ledger traffic (see :meth:`load_probe_ledger`)."""
        if not (hits or misses or writes):
            return
        self._count(probe_hits=hits, probe_misses=misses, probe_writes=writes)

    # -- delta-epoch records --------------------------------------------------
    def save_epoch(self, fingerprint: str, payload: Mapping[str, object]) -> bool:
        """Record provenance for a patched-index epoch (best effort).

        One small JSON blob per source epoch fingerprint, written when
        an index is patched forward rather than rebuilt. Purely
        introspective — nothing loads it on the hot path — but it makes
        ``cache info`` and GC aware of the epoch chain so orphaned
        records age out with everything else.
        """
        if not self.breaker.allow():
            return False
        path = self._epoch_path(
            hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(dict(payload), handle, default=str)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as error:
            self._io_fault(error)
            return False
        return True

    def load_epoch(self, fingerprint: str) -> dict | None:
        """The provenance record for one source epoch, or None."""
        path = self._epoch_path(
            hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()
        )
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    # -- maintenance ----------------------------------------------------------
    def entries(self) -> Iterator[StoreEntry]:
        """All persisted blobs across every tier, unordered.

        Columns, blocking indexes, probe ledgers and delta-epoch
        records share the maintenance machinery: GC recency is mtime
        (renewed on hits) for all of them, ``clear`` drops everything —
        so orphaned epoch blobs age out like any cold column.
        """
        for directory, pattern in (
            (self._columns_dir, "*/*.npy"),
            (self._indexes_dir, "*/*.pkl"),
            (self._probes_dir, "*/*.pkl"),
            (self._epochs_dir, "*/*.json"),
        ):
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob(pattern)):
                if path.name.startswith(".tmp-"):
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue
                yield StoreEntry(
                    key=path.stem,
                    path=path,
                    nbytes=stat.st_size,
                    last_used=stat.st_mtime,
                )

    def describe(self) -> dict:
        """Totals for ``cache info``: per-tier entry counts and bytes."""
        columns = 0
        indexes = 0
        probes = 0
        epochs = 0
        total = 0
        for entry in self.entries():
            tier = entry.path.parent.parent.name
            if tier.startswith("indexes-"):
                indexes += 1
            elif tier.startswith("probes-"):
                probes += 1
            elif tier.startswith("epochs-"):
                epochs += 1
            else:
                columns += 1
            total += entry.nbytes
        return {
            "path": str(self._root),
            "entries": columns + indexes + probes + epochs,
            "columns": columns,
            "indexes": indexes,
            "probes": probes,
            "epochs": epochs,
            "bytes": total,
            "breaker": self.breaker.describe(),
        }

    def gc(
        self,
        max_age_days: float | None = None,
        max_bytes: int | None = None,
    ) -> GCResult:
        """Evict cold columns by age and/or total size.

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
                if self._remove_entry(entry):
                    removed += 1
                    freed += entry.nbytes
                    continue
            kept.append(entry)
        if max_bytes is not None:
            kept_bytes = sum(e.nbytes for e in kept)
            survivors: list[StoreEntry] = []
            for entry in kept:
                if kept_bytes > max_bytes:
                    if self._remove_entry(entry):
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
        """Remove every persisted column; returns the number removed."""
        removed = 0
        for entry in list(self.entries()):
            if self._remove_entry(entry):
                removed += 1
        return removed

    def _remove_entry(self, entry: StoreEntry) -> bool:
        ok = False
        try:
            os.unlink(entry.path)
            ok = True
        except OSError:
            pass
        # A legacy column sidecar (see :meth:`_discard_corrupt`).
        try:
            os.unlink(entry.path.with_suffix(".json"))
        except OSError:
            pass
        return ok

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
