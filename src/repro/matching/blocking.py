"""Candidate generation (blocking) strategies.

Evaluating a linkage rule over the full Cartesian product A x B is
quadratic; blocking prunes the candidate set before rule evaluation.
The full index and token blocking are provided plus a rule-aware
blocker that derives its keys from the properties a rule actually
compares — a light-weight stand-in for Silk's MultiBlock [19] (the
full aggregation-aware variant lives in
:mod:`repro.matching.multiblock`).

Blocking is an **engine-integrated subsystem**, not a bare pair
stream:

* :meth:`Blocker.iter_shards` emits candidate pairs pre-chunked into
  ready-to-score shards, so :class:`repro.matching.engine.
  MatchingEngine` hands them straight to its shard-scoring workers
  without a re-chunking layer. Shard boundaries depend only on
  ``batch_size`` and the pair order never depends on it, so links stay
  byte-identical across batch sizes and worker counts. Shards are columnar
  (:class:`~repro.data.pairs.PairBatch`): token, rule and MultiBlock
  blocking cut them straight from probed partner-code arrays, so no
  tuple is built per candidate pair.
* Token and MultiBlock blocking keep every index in one **block-table
  layer**: a table ``{key: (uids...)}`` of one source is built by one
  builder from per-entity keys (:func:`_build_table`), moved along
  the source's delta chain by one patcher
  (:func:`_table_patcher`), and turned into ``int32`` code blocks by
  one code view (:func:`_code_view`); tables and the views derived
  from them resolve through one resolver over
  :meth:`EngineSession.blocking_index` (:func:`_resolve_index`). The
  blockers differ only in how an entity's keys are derived.
* :meth:`CodeProbeBlocker.probe_batch` probes the index for a whole
  A-side chunk at once — the probe side mirrors the build side, and
  both probing blockers answer in sorted partner-code arrays:
  :class:`TokenBlocker` bulk-tokenises the chunk through the same
  C-level lower/translate/split path used for indexing and unions each
  entity's postings in one boolean-mask pass over the code space;
  :class:`~repro.matching.multiblock.MultiBlocker` evaluates its
  candidate algebra the same way and memoises probe results per
  distinct transformed value tuple. Building and probing run inline
  on the calling thread; probe traffic is reported through the session
  (``EngineStats.probe_batches`` / ``probe_memo_hits``, surfaced per
  run in ``MatchStats``). :class:`CodeProbeBlocker` owns everything
  downstream of the probe — shard cutting, the affected-only rescore
  stream and the probe-result ledger — once for both.
* Every call of a probing blocker runs under the
  :class:`~repro.engine.session.EngineSession` it is handed, or else
  under a private session of the blocker. Indexes are memoised in
  that session and — when it has a persistent
  :class:`~repro.engine.store.ColumnStore` — persisted in the store's
  **index tier**, keyed by ``DataSource.fingerprint()`` × index token.
  Warm reruns over unchanged sources then skip index construction
  entirely, the same way they already skip distance-column builds,
  and a source a few deltas ahead patches its tables forward.

Indexes reference entities by uid only; the live source resolves uids
back to entities at emission time, which is what makes the persisted
form safe (content fingerprints guarantee the uids still describe the
same entities).
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.core.nodes import PropertyNode, TransformationNode, ValueNode
from repro.core.rule import LinkageRule
from repro.data.entity import Entity
from repro.data.pairs import PairBatch, first_appearance
from repro.data.source import DataSource, SourceState
from repro.engine.session import EngineSession
from repro.engine.store import index_key

CandidatePair = tuple[Entity, Entity]

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

#: A-side entities probed per :meth:`CodeProbeBlocker.probe_batch`
#: call inside the pair stream. Bounds resident per-entity candidate
#: lists (the stream stays memory-bounded like the per-entity loop it
#: replaced) while amortising batch machinery. Never affects results —
#: only how many entities are probed per batch.
_PROBE_CHUNK = 2048

#: Pairs per shard when a blocker reads its flat :meth:`Blocker.
#: candidates` stream off its own shards (any size gives the same
#: stream; this only bounds how many pairs are resident at once).
_STREAM_BATCH = 4096

#: Entries kept in a run's probe memo before it is dropped wholesale.
#: The memo caches one partner-code array per distinct probe input, so
#: its footprint is bounded by O(limit x average candidate count);
#: clearing resets hit statistics, never results.
_PROBE_MEMO_LIMIT = 65536

#: Shared empty partner result (probing never mutates code arrays).
_EMPTY_CODES = np.empty(0, dtype=np.int32)


def _union_codes(blocks: list, size: int) -> np.ndarray:
    """Union of sorted unique code blocks, sorted: one concatenate +
    one boolean-mask assignment + one ``flatnonzero`` — three C calls,
    with zero-copy fast paths for zero and one block."""
    if not blocks:
        return _EMPTY_CODES
    if len(blocks) == 1:
        return blocks[0]
    mask = np.zeros(size, dtype=bool)
    mask[np.concatenate(blocks)] = True
    return np.flatnonzero(mask)


def _memo_put(memo: dict, key, value) -> None:
    """Insert into a probe memo, dropping it wholesale at the size
    bound (resets hit statistics, never results)."""
    if len(memo) >= _PROBE_MEMO_LIMIT:
        memo.clear()
    memo[key] = value


# -- the block-table layer -----------------------------------------------
#
# Every index a probing blocker keeps is either a *block table*
# ``{key: (uids...)}`` of one source, built from per-entity keys and
# patched along the source's delta chain, or a *view* derived from
# tables (a size filter, a code view). Both resolve through
# :meth:`EngineSession.blocking_index` under their index token.


def _build_table(
    entities: Sequence[Entity],
    keys_of: Callable[[Sequence[Entity]], list],
) -> dict:
    """The ``{key: (uids...)}`` table of ``entities``: each entity filed
    under the keys ``keys_of`` derives for it (one duplicate-free key
    collection per entity), each block in entity order."""
    blocks: dict = {}
    get = blocks.get
    for entity, keys in zip(entities, keys_of(entities)):
        uid = entity.uid
        for key in keys:
            block = get(key)
            if block is None:
                blocks[key] = [uid]
            else:
                block.append(uid)
    return {key: tuple(uids) for key, uids in blocks.items()}


def _table_patcher(source: DataSource, keys_of: Callable):
    """An :meth:`EngineSession.blocking_index` patcher moving a block
    table of ``source`` one delta forward: displaced entity versions
    leave the blocks of their old keys, upserted versions join the
    blocks of their new keys. Blocks an upsert joins are re-sorted by
    the entity's *current* source position — deletions and
    replacements preserve surviving uids' relative order, so only
    joined blocks can drift, and restoring source order there makes the
    patched table equal a cold rebuild block-for-block (dict upsert
    semantics keep a replaced uid's slot; fresh uids append)."""

    def patch(blocks: dict, delta) -> dict:
        blocks = dict(blocks)
        old_entities = delta.old_entities()
        for old, keys in zip(old_entities, keys_of(old_entities)):
            uid = old.uid
            for key in keys:
                block = blocks.get(key)
                if block is None or uid not in block:
                    continue
                pruned = tuple(u for u in block if u != uid)
                if pruned:
                    blocks[key] = pruned
                else:
                    del blocks[key]
        order: dict[str, int] | None = None
        fallback = 0
        for entity, keys in zip(delta.upserts, keys_of(delta.upserts)):
            uid = entity.uid
            for key in keys:
                block = blocks.get(key)
                if block is None:
                    blocks[key] = (uid,)
                elif uid not in block:
                    if order is None:
                        order = {u: i for i, u in enumerate(source.uids())}
                        # Mid-chain uids a later delta removes are not
                        # in the live source; park them at the end (a
                        # later patch step deletes them anyway).
                        fallback = len(order)
                    blocks[key] = tuple(
                        sorted(
                            block + (uid,),
                            key=lambda u: order.get(u, fallback),
                        )
                    )
        return blocks

    return patch


def _code_view(blocks: dict, code_of: dict) -> dict:
    """A block table in code space: each block a sorted unique
    ``int32`` array of its uids' codes."""
    return {
        key: np.unique(
            np.fromiter(
                (code_of[uid] for uid in uids), dtype=np.int32, count=len(uids)
            )
        )
        for key, uids in blocks.items()
    }


def _resolve_index(
    session: EngineSession,
    source: DataSource,
    token: str,
    build: Callable[[], object],
    patcher: Callable | None = None,
) -> object:
    """One index of ``source`` under ``token``, through the session's
    index memo and persistent index tier. An ancestor epoch's payload
    moves forward along the source's delta chain through ``patcher``;
    a view (``patcher=None``) is re-derived by ``build`` from the
    already-resolved tables instead, once at the end of the chain
    however many deltas it spans, which counts as a patch, not a build.
    Only without an ancestor does ``build`` count as a build."""
    lineage = source.delta_chain()
    if patcher is None:
        last = lineage[-1] if lineage else None

        def patcher(payload, delta):
            return build() if delta is last else payload

    return session.blocking_index(
        source.fingerprint(), token, build, lineage=lineage, patcher=patcher
    )


def _table_index(
    session: EngineSession,
    source: DataSource,
    token: str,
    keys_of: Callable[[Sequence[Entity]], list],
) -> dict:
    """The block table of ``source`` under ``token`` whose entities file
    under ``keys_of`` (see :func:`_build_table`): resolved, patched or
    built."""
    return _resolve_index(
        session,
        source,
        token,
        lambda: _build_table(source.state().entities, keys_of),
        _table_patcher(source, keys_of),
    )


def _emitted_codes(
    uid_a: str, codes: np.ndarray, uids: Sequence[str], dedup: bool
) -> np.ndarray:
    """The partner codes one probe entity emits pairs with.

    Codes are sorted in uid order, so the dedup-mode constraint
    (``uid_a < uid_b``) is a suffix — one bisect over the uid table
    plus one searchsorted over the codes — and the self-pair deletes
    in one probe. Code arrays are never mutated.
    """
    if dedup:
        return codes[np.searchsorted(codes, bisect_right(uids, uid_a)) :]
    i = bisect_left(uids, uid_a)
    if i < len(uids) and uids[i] == uid_a:
        j = int(np.searchsorted(codes, i))
        if j < len(codes) and codes[j] == i:
            return np.delete(codes, j)
    return codes


def _code_shards(
    chunks: Iterable[tuple[Sequence[Entity], Sequence[np.ndarray]]],
    uids: Sequence[str],
    state_a: SourceState,
    state_b: SourceState,
    dedup: bool,
    batch_size: int,
) -> Iterator[PairBatch]:
    """Shards cut straight from per-entity partner-code arrays.

    ``chunks`` yields ``(probe entities, partner codes)`` per probe
    chunk, over ``state_a``'s entities in order; each entity pairs with
    the ``state_b`` entity of ``uids[code]`` for its emitted codes
    (:func:`_emitted_codes`), in code (= uid) order. The flat pair
    stream is cut every ``batch_size`` pairs and a partial shard
    carries over into the next probe chunk, so pairs, order and
    boundaries are exactly those of :func:`_chunked` over the
    flattened stream — without building a tuple per pair. At most one
    shard plus one entity's partners are pending at a time.
    """
    # Code -> position in the target state, for every partner code.
    code_positions = np.fromiter(
        map(state_b.position, uids), dtype=np.intp, count=len(uids)
    )
    # Pending pairs as one segment per probe entity: the entity's
    # position and the partner codes it emits.
    probes: list[int] = []
    segments: list[np.ndarray] = []
    pending = 0
    position = -1
    for chunk, code_lists in chunks:
        for entity, partners in zip(chunk, code_lists):
            position += 1
            partners = _emitted_codes(entity.uid, partners, uids, dedup)
            if not len(partners):
                continue
            probes.append(position)
            segments.append(partners)
            pending += len(partners)
            if pending < batch_size:
                continue
            owners, codes = _flat_segments(segments)
            probe_positions = np.asarray(probes, dtype=np.intp)
            cut = pending - pending % batch_size
            for start in range(0, cut, batch_size):
                stop = start + batch_size
                yield _code_batch(
                    state_a,
                    probe_positions[owners[start:stop]],
                    state_b,
                    code_positions[codes[start:stop]],
                )
            # Every full shard ends inside the newest segment (the
            # pending pairs before it did not fill one), so what is
            # left is that segment's tail.
            pending -= cut
            probes = [position] if pending else []
            segments = [codes[cut:]] if pending else []
    if pending:
        owners, codes = _flat_segments(segments)
        yield _code_batch(
            state_a,
            np.asarray(probes, dtype=np.intp)[owners],
            state_b,
            code_positions[codes],
        )


def _flat_segments(segments: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per pending pair: its segment's position and its partner code."""
    counts = np.fromiter(map(len, segments), dtype=np.intp, count=len(segments))
    return np.repeat(np.arange(len(segments)), counts), np.concatenate(segments)


def _code_batch(
    state_a: SourceState,
    pair_positions_a: np.ndarray,
    state_b: SourceState,
    pair_positions_b: np.ndarray,
) -> PairBatch:
    """One shard from each pair's source positions (the probe side's
    ascending). Both sides number their entities in order of first
    appearance, as :meth:`PairBatch.from_pairs` would."""
    positions_a, index_a = np.unique(pair_positions_a, return_inverse=True)
    positions_b, index_b = first_appearance(pair_positions_b)
    return PairBatch(
        list(map(state_a.entities.__getitem__, positions_a.tolist())),
        list(map(state_b.entities.__getitem__, positions_b.tolist())),
        index_a,
        index_b,
        state_a,
        positions_a,
        state_b,
        positions_b,
    )


def _affected_code_pair_lists(
    chunk: Sequence[Entity],
    code_lists: Sequence[np.ndarray],
    uids: Sequence[str],
    by_code: Sequence[Entity],
    dedup: bool,
    affected: frozenset,
) -> Iterator[list[CandidatePair]]:
    """Per-entity candidate pairs for an *affected-only* rescore.

    The probe chunk holds only affected entities. Two-source mode emits
    every partner (each pair has a unique probe side, so each affected
    pair appears exactly once). Dedup mode emits the forward
    (``uid_a < uid_b``) partners unconditionally plus the backward
    partners that are *not* themselves affected — an affected backward
    partner emits the pair when it is probed itself. Pairs are
    uid-ordered exactly like the cold stream, so rescored pairs key the
    same columns a cold run would.
    """
    for entity_a, codes in zip(chunk, code_lists):
        uid_a = entity_a.uid
        if dedup:
            floor = bisect_right(uids, uid_a)
            split = int(np.searchsorted(codes, floor))
            pairs: list[CandidatePair] = []
            for code in codes[:split].tolist():
                partner = by_code[code]
                # Self-pairs drop here too: the probe entity is always
                # in ``affected``.
                if partner.uid not in affected:
                    pairs.append((partner, entity_a))
            pairs.extend(
                zip(
                    repeat(entity_a),
                    map(by_code.__getitem__, codes[split:].tolist()),
                )
            )
            yield pairs
        else:
            codes = _emitted_codes(uid_a, codes, uids, dedup)
            yield list(
                zip(repeat(entity_a), map(by_code.__getitem__, codes.tolist()))
            )


class _ProbeLedger:
    """Per-entity probe results over the store's ``probes-v1`` tier.

    One ledger blob maps entity content fingerprints to their probed
    partner-code arrays for a fixed (target-epoch, probe-signature)
    key. Probing is deterministic, so a ledger entry equals what
    :meth:`CodeProbeBlocker.probe_batch` would recompute — warm runs
    serve unchanged entities from the ledger and probe only the rest.
    Hit/miss traffic is per entity (``StoreStats.probe_hits`` /
    ``probe_misses``). A pair stream opens one ledger and flushes it
    once, in its ``finally`` — so partial consumption still saves what
    was probed, and the reverse pass of an affected-only stream shares
    the forward pass's ledger instead of loading and saving it again.
    """

    __slots__ = ("_store", "_session", "_key", "_entries", "_fresh")

    def __init__(self, session, key: str):
        store = session.store if session is not None else None
        self._store = store
        self._session = session
        self._key = key
        self._entries: dict = (
            (store.load_probe_ledger(key) if store is not None else None) or {}
        )
        self._fresh: dict = {}

    def probe(self, chunk: Sequence[Entity], probe_missing):
        """Chunk results, serving known entities and probing the rest
        through ``probe_missing(entities) -> list[codes]``."""
        if self._store is None:
            return probe_missing(chunk)
        entries = self._entries
        fingerprints = [entity.fingerprint() for entity in chunk]
        cached = [entries.get(fp) for fp in fingerprints]
        missing = [
            entity for entity, codes in zip(chunk, cached) if codes is None
        ]
        if missing:
            fresh_iter = iter(probe_missing(missing))
            results = []
            for fp, codes in zip(fingerprints, cached):
                if codes is None:
                    codes = next(fresh_iter)
                    self._fresh[fp] = codes
                results.append(codes)
        else:
            # Fully served: no probe_batch call happened, but the chunk
            # *was* probed — keep the batch counter's meaning stable.
            if self._session is not None:
                self._session.record_probe(batches=1)
            results = cached
        self._store.record_probe_lookups(
            hits=len(chunk) - len(missing), misses=len(missing)
        )
        return results

    def flush(self) -> None:
        if self._store is None or not self._fresh:
            return
        merged = dict(self._entries)
        merged.update(self._fresh)
        if self._store.save_probe_ledger(self._key, merged):
            self._store.record_probe_lookups(writes=len(self._fresh))
        self._entries = merged
        self._fresh = {}


def _probed_chunks(
    blocker: "CodeProbeBlocker",
    entities: Sequence[Entity],
    index: object,
    ledger: _ProbeLedger,
    session: "EngineSession | None",
) -> Iterator[tuple[Sequence[Entity], list]]:
    """``(chunk, partner codes)`` per :data:`_PROBE_CHUNK` probe
    entities: served from the probe ledger where it can, probed in a
    batch through one memo for the whole stream otherwise. The caller
    owns the ledger and flushes it."""
    memo: dict = {}
    for start in range(0, len(entities), _PROBE_CHUNK):
        chunk = entities[start : start + _PROBE_CHUNK]
        yield chunk, ledger.probe(
            chunk,
            lambda miss: blocker.probe_batch(miss, index, session, memo=memo),
        )


def _chunked(
    pairs: Iterable[CandidatePair],
    batch_size: int,
    source_a: DataSource | None = None,
    source_b: DataSource | None = None,
) -> Iterator[PairBatch]:
    """Group a pair stream into shards of at most ``batch_size``
    (C-level: one ``islice`` materialisation per shard, no per-pair
    Python bytecode) — the way every pair stream not cut from probe
    codes enters the shard type. Shards of the sources' own entities
    carry their source positions (:meth:`PairBatch.from_pairs`)."""
    iterator = iter(pairs)
    while True:
        shard = list(islice(iterator, batch_size))
        if not shard:
            return
        yield PairBatch.from_pairs(shard, source_a, source_b)


class Blocker(ABC):
    """Produces candidate entity pairs from two data sources."""

    @abstractmethod
    def candidates(
        self, source_a: DataSource, source_b: DataSource
    ) -> Iterator[CandidatePair]:
        """Yield candidate pairs (each pair at most once)."""

    def candidate_count(self, source_a: DataSource, source_b: DataSource) -> int:
        return sum(1 for _ in self.candidates(source_a, source_b))

    def signature(self) -> str | None:
        """Stable identity of the index this blocker builds over a
        target source, or None when it builds no (persistable) index.

        The persistent index tier keys on
        ``DataSource.fingerprint() x signature()``, so the signature
        must change whenever construction parameters that affect the
        index content change, and must be stable across processes
        (no ``id()``, no hash randomisation).
        """
        return None

    def build_index(
        self, source: DataSource, session: "EngineSession | None" = None
    ) -> object | None:
        """Build (or load) this blocker's reusable index over a target
        source; None for blockers that don't index.

        With a ``session`` the index resolves through the session's
        index memo and — when the session has a persistent store — the
        store's index tier, and a source a few deltas ahead of a
        resolved epoch patches it forward instead of rebuilding.
        Without one, a probing blocker resolves it the same way through
        a private session of its own (:class:`CodeProbeBlocker`).
        """
        return None

    def iter_shards(
        self,
        source_a: DataSource,
        source_b: DataSource,
        batch_size: int,
        session: "EngineSession | None" = None,
    ) -> Iterator[PairBatch]:
        """Candidate pairs pre-chunked into ready-to-score shards.

        Shards are :class:`~repro.data.pairs.PairBatch` es. The pair
        order is exactly :meth:`candidates` order and does not depend
        on ``batch_size`` (only the chunk boundaries do), which is what
        keeps generated links byte-identical across batch sizes and
        worker counts. ``session`` lets index construction share the
        engine's caches; the default implementation chunks the plain
        pair stream.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return self._shards(source_a, source_b, session, batch_size)

    def _shards(
        self,
        source_a: DataSource,
        source_b: DataSource,
        session: "EngineSession | None",
        batch_size: int,
    ) -> Iterator[PairBatch]:
        """The shard stream behind :meth:`iter_shards` (``batch_size``
        already validated); the default chunks the plain pair stream."""
        return _chunked(
            self.candidates(source_a, source_b), batch_size, source_a, source_b
        )

    def affected_probe_uids(
        self,
        source_a: DataSource,
        source_b: DataSource,
        deltas_a: Sequence,
        deltas_b: Sequence,
        session: "EngineSession | None" = None,
    ) -> frozenset | None:
        """Probe-side uids whose candidate sets may have changed after
        the given :class:`~repro.data.source.SourceDelta` chains, or
        None when this blocker cannot bound the impact (the engine then
        falls back to a full rescore — always correct, never fast).

        The contract is *soundness*, not minimality: any pair whose
        candidate membership or participants changed must touch the
        returned set once the engine unions in the changed/deleted uids
        themselves. Over-approximation only costs rescoring work.
        """
        return None

    def iter_affected_shards(
        self,
        source_a: DataSource,
        source_b: DataSource,
        affected: frozenset,
        batch_size: int,
        session: "EngineSession | None" = None,
    ) -> Iterator[PairBatch]:
        """Ready-to-score shards of exactly the candidate pairs that
        touch ``affected`` (each such pair once, uid-ordered like the
        cold stream). The default filters the full pair stream — always
        correct; probing blockers override it to probe only the
        affected entities.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return _chunked(
            _touching(self.candidates(source_a, source_b), affected),
            batch_size,
            source_a,
            source_b,
        )


def _touching(
    pairs: Iterable[CandidatePair], affected: frozenset
) -> Iterator[CandidatePair]:
    """The pairs of a stream with at least one side in ``affected``."""
    for entity_a, entity_b in pairs:
        if entity_a.uid in affected or entity_b.uid in affected:
            yield entity_a, entity_b


class FullIndexBlocker(Blocker):
    """The full Cartesian product — exact but quadratic.

    For deduplication (both sources identical) only unordered pairs
    ``(i, j)`` with ``i < j`` are produced. Both the pair stream and
    the shard stream are fully lazy: nothing quadratic is materialised
    ahead of consumption, so a streaming consumer stays memory-bounded
    even on sources whose cross product would not fit in memory.
    """

    def candidates(self, source_a, source_b):
        if source_a is source_b:
            entities = source_a.entities()
            for i, entity_a in enumerate(entities):
                # islice, not a slice: entities[i+1:] would copy O(n^2)
                # references across the whole iteration.
                for entity_b in islice(entities, i + 1, None):
                    yield entity_a, entity_b
            return
        entities_b = source_b.entities()
        for entity_a in source_a:
            for entity_b in entities_b:
                yield entity_a, entity_b

    def candidate_count(self, source_a: DataSource, source_b: DataSource) -> int:
        # Closed form — benchmarks and blocking-quality reports call
        # this on full Cartesian products, where iterating is quadratic.
        if source_a is source_b:
            n = len(source_a.entities())
            return n * (n - 1) // 2
        return len(source_a.entities()) * len(source_b.entities())


class CodeProbeBlocker(Blocker):
    """A blocker that probes a target index in integer code space.

    Subclasses supply the probe side — :meth:`probe_index` (whose
    ``uids`` is the sorted code -> uid table), :meth:`probe_batch`, a
    probe-ledger token and the two-source reverse pass — and inherit
    everything downstream of it: the flat :meth:`candidates` stream,
    :meth:`probe_uids`, shards cut straight from partner-code arrays
    (:func:`_code_shards`), the affected-only rescore stream, and the
    probe-result ledger. Candidates are emitted grouped per A entity in
    source order, each entity's partners in sorted uid order — the
    same deterministic stream for every chunking, worker count and
    batch size.

    Every call runs under the session it is handed or, without one,
    under a private :class:`~repro.engine.session.EngineSession` of
    this blocker (created on its first session-less call): indexes
    resolve, patch and persist through that session's index memo and
    store, and probe traffic lands in its counters.
    """

    def __init__(self) -> None:
        self._private_session: EngineSession | None = None

    def _session(self, session: "EngineSession | None") -> EngineSession:
        """The session one call runs under (see the class docstring)."""
        if session is not None:
            return session
        if self._private_session is None:
            self._private_session = EngineSession()
        return self._private_session

    @abstractmethod
    def probe_index(
        self,
        source_a: DataSource,
        source_b: DataSource,
        session: "EngineSession | None" = None,
    ) -> object:
        """The probe-side state of this blocker over a source pairing
        (the argument :meth:`probe_batch` expects as ``index``): an
        integer *code view* of the target index — one code per
        distinct B uid, in sorted uid order (``index.uids``), each
        block a sorted unique ``int32`` code array — so batch probing
        unions postings with numpy instead of per-uid Python. The view
        resolves through the same session index memo / persistent
        index tier as the block tables it derives from, and is
        re-derived from them on a delta.
        """

    @abstractmethod
    def probe_batch(
        self,
        entities: Sequence[Entity],
        index: object,
        session: "EngineSession | None" = None,
        memo: dict | None = None,
    ) -> list[np.ndarray]:
        """Candidate B-side partners for a whole chunk of probe
        entities, against this blocker's :meth:`probe_index`.

        Returns one sorted partner-code array per probe entity, in
        input order: already partner-deduped, **unfiltered** —
        self-pairs and dedup-mode ordering are the caller's concern
        (the pair stream applies them), so parity suites can compare
        raw probe results directly. Code arrays are references into
        the probe index and are never mutated; :meth:`probe_uids`
        materialises the uid view. ``memo`` lets a streaming caller
        share the distinct-value probe memo across batches (the shard
        stream threads one through the whole run); ``None`` scopes it
        to this call.

        Probe traffic is recorded in the session's probe counters.
        Results never depend on the session or on how entities are
        chunked across calls.
        """

    @abstractmethod
    def _ledger_token(self) -> str:
        """Index-tier token of this blocker's probe-result ledger."""

    @abstractmethod
    def _reverse_pair_lists(
        self,
        source_a: DataSource,
        source_b: DataSource,
        affected: frozenset,
        index: object,
        session: EngineSession,
        ledger: _ProbeLedger,
    ) -> Iterator[list[CandidatePair]]:
        """Two-source pairs of *unaffected* probe entities with
        affected stored entities, per stored entity. Only A probes, so
        these never surface from the affected probes; affected probe
        entities are excluded (their own probe already emits the
        pair), which keeps every affected pair emitted exactly once.
        Probes ride the stream's ``ledger``."""

    def _probe_plan(
        self,
        source_a: DataSource,
        source_b: DataSource,
        session: EngineSession,
    ) -> object | None:
        """The probe index the probe streams run against, or None when
        it cannot prune (the streams then fall back to the full
        product)."""
        return self.probe_index(source_a, source_b, session=session)

    def probe_uids(self, index: object, partners: np.ndarray) -> tuple[str, ...]:
        """The uid view of one entity's :meth:`probe_batch` result."""
        return tuple(map(index.uids.__getitem__, partners.tolist()))

    def candidates(self, source_a, source_b):
        return chain.from_iterable(
            self._shards(source_a, source_b, None, _STREAM_BATCH)
        )

    def _shards(self, source_a, source_b, session, batch_size):
        """Shards cut straight from the batch probe's partner codes
        (:func:`_code_shards`), or the chunked full product when the
        index cannot prune."""
        session = self._session(session)
        index = self._probe_plan(source_a, source_b, session)
        if index is None:
            yield from _chunked(
                FullIndexBlocker().candidates(source_a, source_b),
                batch_size,
                source_a,
                source_b,
            )
            return
        ledger = self._probe_ledger(source_b, session)
        state_a = source_a.state()
        try:
            yield from _code_shards(
                _probed_chunks(self, state_a.entities, index, ledger, session),
                index.uids,
                state_a,
                source_b.state(),
                source_a is source_b,
                batch_size,
            )
        finally:
            ledger.flush()

    def iter_affected_shards(
        self, source_a, source_b, affected, batch_size, session=None
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return self._affected_shards(
            source_a, source_b, affected, session, batch_size
        )

    def _affected_shards(self, source_a, source_b, affected, session, batch_size):
        session = self._session(session)
        index = self._probe_plan(source_a, source_b, session)
        if index is None:
            pairs = _touching(
                FullIndexBlocker().candidates(source_a, source_b), affected
            )
        else:
            pairs = chain.from_iterable(
                self._affected_pair_lists(
                    source_a, source_b, affected, index, session
                )
            )
        yield from _chunked(pairs, batch_size, source_a, source_b)

    def _affected_pair_lists(self, source_a, source_b, affected, index, session):
        """Per-entity pair lists of an affected-only rescore: the
        affected probe entities' own probes, then (two-source) the
        reverse pass for affected stored entities — both over one probe
        ledger, flushed once when the stream ends or is abandoned."""
        dedup = source_a is source_b
        by_code = list(map(source_b.get, index.uids))
        entities = [
            entity for entity in source_a.entities() if entity.uid in affected
        ]
        ledger = self._probe_ledger(source_b, session)
        try:
            for chunk, results in _probed_chunks(
                self, entities, index, ledger, session
            ):
                yield from _affected_code_pair_lists(
                    chunk, results, index.uids, by_code, dedup, affected
                )
            if not dedup:
                yield from self._reverse_pair_lists(
                    source_a, source_b, affected, index, session, ledger
                )
        finally:
            ledger.flush()

    def _probe_ledger(self, source_b: DataSource, session) -> _ProbeLedger:
        """The probe-result ledger against ``source_b``'s epoch (a
        pass-through without a session store)."""
        if session.store is None:
            return _ProbeLedger(None, "")
        return _ProbeLedger(
            session, index_key(source_b.fingerprint(), self._ledger_token())
        )


#: ASCII fast path for tokenisation: every ASCII codepoint that is not
#: alphanumeric maps to a space (including ``_``, which ``[^\W_]+``
#: excludes from tokens); ``str.translate`` + ``str.split`` then
#: tokenise an entire entity's text in C. Uppercase needs no mapping —
#: the text is lowercased first.
_ASCII_TOKEN_TABLE = {
    i: " " for i in range(128) if not chr(i).isalnum()
}


def _text_tokens(text: str) -> list[str]:
    """Lowercased word tokens of a text, in text order (duplicates
    kept; callers dedup with ``dict.fromkeys`` where order matters).

    ASCII text — the overwhelming share of real sources — tokenises
    entirely in C (lower + translate + split), where lowering first is
    provably boundary-preserving. Anything else tokenises *before*
    lowering, like the seed's per-value regex tokeniser: lowering can
    decompose characters into combining marks ('İ' → 'i' + U+0307) that
    would otherwise split a token mid-word.
    """
    if text.isascii():
        return text.lower().translate(_ASCII_TOKEN_TABLE).split()
    return [token.lower() for token in _TOKEN_RE.findall(text)]


def _entity_text(entity: Entity, properties: Sequence[str]) -> str:
    """All of an entity's values on ``properties``, space-joined.

    One joined string means one tokenisation call per entity instead of
    one per value; the space separator is a token boundary in both
    tokenisation paths, so the token stream equals the concatenation of
    the per-value streams.
    """
    values = entity.properties
    parts: list[str] = []
    for name in properties:
        entity_values = values.get(name)
        if entity_values:
            parts.extend(entity_values)
    return " ".join(parts)


def _token_keys(
    properties: Sequence[str],
) -> Callable[[Sequence[Entity]], list]:
    """Per-entity keys of a token table over ``properties``: each
    entity's distinct tokens, in text order."""

    def keys_of(entities: Sequence[Entity]) -> list:
        return [
            dict.fromkeys(_text_tokens(_entity_text(entity, properties)))
            for entity in entities
        ]

    return keys_of


@dataclass(frozen=True)
class _TokenProbeIndex:
    """Integer code view of one token block table.

    Codes number the distinct B uids appearing in any block, in sorted
    uid order — so sorted code arrays are sorted uid sequences, and the
    dedup-mode ordering constraint becomes a suffix slice. Blocks are
    sorted unique ``int32`` arrays; the whole view pickles, so it
    persists in the store's index tier alongside the raw block table.
    """

    #: code -> uid, ascending.
    uids: tuple[str, ...]
    #: token -> sorted unique codes of the B entities filed under it.
    blocks: dict
    #: Code-space size (mask length for the postings union).
    size: int


def _token_code_payload(blocks: dict) -> tuple[tuple[str, ...], dict]:
    """Derive the probe-side code view from a token block table.

    Returned as a plain ``(uids, code blocks)`` tuple — the form the
    persistent index tier pickles stays free of private classes, so
    old blobs survive refactors (an unreadable blob is just a miss).
    """
    uids = sorted(set(chain.from_iterable(blocks.values())))
    code_of = {uid: code for code, uid in enumerate(uids)}
    return tuple(uids), _code_view(blocks, code_of)


class TokenBlocker(CodeProbeBlocker):
    """Standard token blocking: pairs sharing a token on key properties.

    ``max_block_size`` drops high-frequency tokens (stop words) whose
    blocks would reintroduce quadratic behaviour. Four indexes resolve
    through the block-table layer: the unfiltered forward table over
    the target (the persisted, patched form), its size-filtered view
    (:meth:`build_index`), the probe-code view of that
    (:meth:`probe_index`), and the unfiltered reverse table over the
    probe side that bounds affected sets. Probing is batch
    (:meth:`probe_batch`, over the code view).
    """

    def __init__(
        self,
        properties_a: Iterable[str],
        properties_b: Iterable[str] | None = None,
        max_block_size: int = 200,
    ):
        super().__init__()
        self._properties_a = list(properties_a)
        self._properties_b = (
            list(properties_b) if properties_b is not None else self._properties_a
        )
        self._max_block_size = max_block_size

    def signature(self) -> str:
        # v2: the persisted payload is the *unfiltered* block table
        # (see :meth:`_raw_blocks`); v1 blobs miss cleanly.
        return (
            f"token-index:v2:props={sorted(self._properties_b)!r}:"
            f"max={self._max_block_size}"
        )

    def build_index(self, source, session=None):
        """Token index of a target source: ``{token: (uids...)}`` in
        source order, with oversized (stop-word) blocks dropped.

        A view of the *unfiltered* table (:meth:`_raw_blocks`), which
        is what persists and patches — a delta patch can shrink a block
        back under the limit, which a filtered payload could not
        express. On a delta the view is re-derived from the patched
        table."""
        session = self._session(session)

        def filtered():
            raw = self._raw_blocks(source, session)
            limit = self._max_block_size
            return {
                token: uids for token, uids in raw.items() if len(uids) <= limit
            }

        return _resolve_index(
            session, source, f"{self.signature()}|filtered-blocks-v1", filtered
        )

    def _raw_blocks(self, source: DataSource, session: EngineSession) -> dict:
        """The unfiltered forward token table of the target source."""
        return _table_index(
            session, source, self.signature(), _token_keys(self._properties_b)
        )

    def probe_index(self, source_a, source_b, session=None):
        """Code view of the filtered target table: distinct B uids
        number into sorted-uid order, each block becomes a sorted
        ``int32`` code array. Resolved under its own index token
        (suffix ``probe-codes-v1``), so warm sessions and warm stores
        skip the derivation, and re-derived from the patched filtered
        table on a delta."""
        session = self._session(session)
        # The block tables are only materialised inside the builder: a
        # probe-view hit (warm session or warm store) never loads them.
        uids, blocks = _resolve_index(
            session,
            source_b,
            f"{self.signature()}|probe-codes-v1",
            lambda: _token_code_payload(self.build_index(source_b, session)),
        )
        return _TokenProbeIndex(uids=uids, blocks=blocks, size=len(uids))

    def probe_batch(self, entities, index, session=None, memo=None):
        """Batch token probe: bulk tokenisation (the same C-level
        lower/translate/split path the index build uses) plus one
        single-pass postings-union per entity — a boolean mask over the
        code space absorbs every block in C and ``flatnonzero`` reads
        the union back sorted (an entity probing a single block reuses
        the index's own array, zero-copy). Probe results memoise per
        distinct property text (``memo``; the shard stream threads one
        through the whole run), so duplicate-heavy sources skip
        tokenisation *and* the union."""
        session = self._session(session)
        properties = self._properties_a
        get = index.blocks.get
        size = index.size
        shared_memo = memo if memo is not None else {}
        session.record_probe(batches=1)
        hits = 0
        results = []
        for entity in entities:
            text = _entity_text(entity, properties)
            codes = shared_memo.get(text)
            if codes is not None:
                hits += 1
                results.append(codes)
                continue
            blocks = []
            for token in dict.fromkeys(_text_tokens(text)):
                block = get(token)
                if block is not None:
                    blocks.append(block)
            codes = _union_codes(blocks, size)
            _memo_put(shared_memo, text, codes)
            results.append(codes)
        if hits:
            session.record_probe(memo_hits=hits)
        return results

    def affected_probe_uids(
        self, source_a, source_b, deltas_a, deltas_b, session=None
    ):
        """Probe-side entities whose candidate sets may have changed.

        Pairs touching a *changed* entity need no coverage here: the
        engine unions changed uids into the drop set itself, and
        :meth:`iter_affected_shards` re-emits their current pairs —
        through the changed entity's own probe in dedup mode, through
        a targeted reverse probe of changed B entities in two-source
        mode. What remains is pairs between two *unchanged* entities,
        and those can only move when a block crosses
        ``max_block_size``: pairs among otherwise-unchanged members
        appear when a block shrinks under the limit, vanish when it
        grows past it. The affected set is therefore the changed uids
        (dedup) plus, for every limit-crossing block, its probe-side
        holders: its members in dedup mode (members that *left* the
        block are changed uids, already in the set), the holders in
        the unfiltered reverse table in two-source mode. Parent-epoch
        block sizes reconstruct exactly from the chain's membership
        deltas.
        """
        session = self._session(session)
        properties_b = self._properties_b

        def entity_tokens(entity) -> frozenset:
            return frozenset(_text_tokens(_entity_text(entity, properties_b)))

        # Endpoint token sets per changed B uid across the whole chain:
        # first old version wins the baseline, last state wins the
        # final (deletes end absent; a mid-chain insert later deleted
        # nets out to no membership change).
        baseline: dict[str, "frozenset | None"] = {}
        final: dict[str, "frozenset | None"] = {}
        for delta in deltas_b:
            for entity in delta.old_entities():
                baseline.setdefault(entity.uid, entity_tokens(entity))
            for uid in delta.delete_uids:
                final[uid] = None
            for entity in delta.upserts:
                baseline.setdefault(entity.uid, None)
                final[entity.uid] = entity_tokens(entity)
        if not baseline and not final:
            return frozenset()

        limit = self._max_block_size
        raw = self._raw_blocks(source_b, session)
        changed = set(baseline) | set(final)
        growth: dict[str, int] = {}
        for uid in changed:
            before = baseline.get(uid) or frozenset()
            after = final.get(uid) or frozenset()
            for token in after - before:
                growth[token] = growth.get(token, 0) + 1
            for token in before - after:
                growth[token] = growth.get(token, 0) - 1
        crossing = []
        for token, delta_size in growth.items():
            new_size = len(raw.get(token, ()))
            if (new_size - delta_size > limit) != (new_size > limit):
                crossing.append(token)
        if source_a is source_b:
            affected, holders = changed, raw
        elif crossing:
            affected, holders = set(), self._reverse_blocks(source_a, session)
        else:
            return frozenset()
        for token in crossing:
            affected.update(holders.get(token, ()))
        return frozenset(affected)

    def _reverse_blocks(
        self, source_a: DataSource, session: EngineSession
    ) -> dict:
        """Unfiltered token table over the *probe* side, keyed by the
        probe properties — the reverse index that answers "which A
        entities could pair with a B entity holding these tokens".
        Unbounded (no stop-word filter): affected sets must
        over-approximate, never drop. Persisted and patched like the
        forward table, under its own ``:rev:`` token."""
        properties = self._properties_a
        return _table_index(
            session,
            source_a,
            f"token-index:v2:rev:props={sorted(properties)!r}",
            _token_keys(properties),
        )

    def _reverse_pair_lists(
        self, source_a, source_b, affected, index, session, ledger
    ):
        """The reverse table answers a changed B entity's unchanged A
        partners directly, under the same stop-word filter the forward
        probe applies."""
        limit = self._max_block_size
        raw = self._raw_blocks(source_b, session)
        reverse = self._reverse_blocks(source_a, session)
        properties_b = self._properties_b
        get_a = source_a.get
        for uid in sorted(affected):
            if uid not in source_b:
                continue
            entity_b = source_b.get(uid)
            partners: set[str] = set()
            for token in set(
                _text_tokens(_entity_text(entity_b, properties_b))
            ):
                if len(raw.get(token, ())) > limit:
                    continue
                partners.update(reverse.get(token, ()))
            partners -= affected
            partners.discard(uid)
            if partners:
                yield [
                    (get_a(partner), entity_b) for partner in sorted(partners)
                ]

    def _ledger_token(self) -> str:
        return (
            f"{self.signature()}|probe-results-v1:"
            f"probe_props={sorted(self._properties_a)!r}"
        )


def _root_property(node: ValueNode) -> str | None:
    """The left-most property a value tree reads, if any."""
    while isinstance(node, TransformationNode):
        node = node.inputs[0]
    if isinstance(node, PropertyNode):
        return node.property_name
    return None


class RuleBlocker(TokenBlocker):
    """Rule-aware blocking: token-block on the properties the rule
    compares (the MultiBlock idea, simplified).

    Every comparison contributes its source/target property pair as a
    blocking key, so any pair the rule could plausibly match shares at
    least one token on at least one compared property.
    """

    def __init__(self, rule: LinkageRule, max_block_size: int = 200):
        properties_a: list[str] = []
        properties_b: list[str] = []
        for comparison in rule.comparisons():
            prop_a = _root_property(comparison.source)
            prop_b = _root_property(comparison.target)
            if prop_a is not None and prop_b is not None:
                properties_a.append(prop_a)
                properties_b.append(prop_b)
        if not properties_a:
            raise ValueError("rule has no property-based comparisons to block on")
        super().__init__(properties_a, properties_b, max_block_size=max_block_size)
