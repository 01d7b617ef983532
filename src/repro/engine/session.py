"""The persistent rule-execution engine session.

An :class:`EngineSession` owns the compiler and the in-memory cache
tiers, and hands out :class:`PairContext` objects bound to concrete
pair lists:

* **value tier** (session-wide, keyed by value op × source state):
  transformed value columns, filled lazily at the source positions
  readers gather (:class:`~repro.engine.values.ValueColumns`). Shards,
  MultiBlock probes and learning contexts over one source state all
  read the same column, so a matching run that streams 4096-pair
  batches evaluates each entity's values once; a column is freed with
  the source state it describes, and an ad-hoc pair list's column with
  its context;
* **column tier** (keyed per context): threshold-free distance columns
  per comparison op. Shared by every rule and every threshold mutation
  within a context;
* **score tier** (keyed per context): thresholded score vectors per
  (comparison op, threshold), matching the seed evaluator's comparison
  cache granularity;
* **index tier** (session-wide, keyed by source fingerprint × blocker
  signature): blocking indexes resolved through
  :meth:`EngineSession.blocking_index`, so repeated matching runs over
  an unchanged source skip index construction;
* **persistent tier** (optional, content-keyed): an on-disk
  :class:`~repro.engine.store.ColumnStore` below the column and index
  tiers that lets *separate runs* over unchanged sources reuse
  distance columns and blocking indexes (``store=`` or the
  ``REPRO_ENGINE_CACHE`` environment variable).

``context()`` creates a context; :meth:`PairContext.scores` evaluates
one rule, :meth:`PairContext.population_scores` evaluates a whole GP
population through one compiled plan so shared subtrees are computed
exactly once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from repro.core.nodes import SimilarityNode, ValueNode
from repro.data.entity import Entity
from repro.data.pairs import PairBatch
from repro.data.source import SourceState
from repro.distances.registry import DistanceRegistry
from repro.distances.registry import default_registry as default_distances
from repro.distances.strings import StringKernelMemo
from repro.engine.columns import PairStore
from repro.engine.compiler import (
    CompiledAggregation,
    CompiledComparison,
    CompiledPlan,
    CompiledSimilarity,
    GenerationDiff,
    RuleCompiler,
)
from repro.engine.counters import KEYED, LOG
from repro.engine.executor import Executor, resolve_executor
from repro.engine.kernels import aggregate_scores, threshold_scores
from repro.engine.lru import CacheStats, LRUCache
from repro.engine.store import ColumnStore, StoreStats, index_key, resolve_store
from repro.engine.values import ValueColumns
from repro.transforms.registry import TransformationRegistry
from repro.transforms.registry import default_registry as default_transforms


@dataclass(frozen=True, kw_only=True)
class EngineCounters:
    """The counters an engine session accumulates, shared by the
    session snapshot (:class:`EngineStats`) and the per-run report
    (:class:`~repro.matching.engine.MatchStats`); combined field by
    field through :mod:`repro.engine.counters`."""

    values: CacheStats | None
    columns: CacheStats | None
    scores: CacheStats | None
    #: Persistent-tier counters (None when no column store is
    #: configured). Kept separate from the in-memory tiers so
    #: consumers — CI assertions, docs — can tell a cross-run store
    #: hit from an in-memory value/column hit unambiguously. Covers
    #: distance columns (``hits``/``misses``/``writes``), blocking
    #: indexes (``index_*``) and probe ledgers (``probe_*``).
    store: StoreStats | None = None
    #: Blocking probe-side counters: batch-probe invocations recorded
    #: by the blockers (:meth:`EngineSession.record_probe`) and probe
    #: results served from MultiBlock's distinct-value-tuple memo
    #: instead of fresh key derivation + postings union.
    probe_batches: int = 0
    probe_memo_hits: int = 0
    #: Per-measure kernel routing: sorted ``(measure, batch_pairs,
    #: fallback_pairs)`` triples counting non-empty pairs evaluated by
    #: a vectorized batch kernel vs the per-pair scalar fallback (cache
    #: and store hits evaluate nothing and count toward neither). A
    #: measure that silently falls back shows up here immediately.
    kernel_routing: tuple[tuple[str, int, int], ...] = field(
        default=(), metadata=KEYED
    )
    #: Blocking-index provenance: payloads constructed from scratch vs
    #: payloads derived by patching a parent-epoch payload through a
    #: source delta chain (:meth:`EngineSession.blocking_index` with
    #: ``lineage=``/``patcher=``). A delta rerun should patch, not
    #: build — the incremental benchmark gates on this ratio.
    index_builds: int = 0
    index_patches: int = 0
    #: Degradations: human-readable reasons the persistent store's
    #: circuit breaker tripped (empty when the disk behaved or no store
    #: is configured). Surfaced onward through ``MatchStats.degraded``
    #: and service health.
    degraded: tuple[str, ...] = field(default=(), metadata=LOG)

    @classmethod
    def of(cls, stats: "EngineCounters") -> "EngineCounters":
        """The counter fields of ``stats`` (a snapshot of any subclass)."""
        return cls(
            **{spec.name: getattr(stats, spec.name) for spec in fields(cls)}
        )


@dataclass(frozen=True)
class EngineStats(EngineCounters):
    """Cache and compiler statistics of one session."""

    #: Unique ops interned by the compiler over the session lifetime.
    value_ops: int
    comparison_ops: int
    #: Populations compiled so far (one per GP generation).
    generations: int = 0
    #: Reuse record of the most recently compiled population, if any.
    last_generation: GenerationDiff | None = None

    @property
    def last_comparison_reuse(self) -> float | None:
        """Comparison-op reuse ratio of the most recent generation
        (None before the first compiled population)."""
        return (
            self.last_generation.comparison_reuse_ratio
            if self.last_generation is not None
            else None
        )


class EngineSession:
    """Compiles rules once and evaluates them over pair contexts."""

    def __init__(
        self,
        distances: DistanceRegistry | None = None,
        transforms: TransformationRegistry | None = None,
        max_value_entries: int = 500_000,
        max_column_entries: int = 30_000,
        max_score_entries: int = 30_000,
        max_index_entries: int = 64,
        executor: Executor | int | str | None = None,
        store: "ColumnStore | str | None" = None,
    ):
        """``executor`` is the executor a matching run over this
        session scores its shards on
        (:class:`~repro.matching.engine.MatchingEngine`), the session's
        one parallel site: compiling, learning and blocking run inline.
        ``None`` consults ``REPRO_ENGINE_WORKERS`` (default serial); an
        int selects a thread pool of that size; see
        :func:`repro.engine.executor.resolve_executor` for the full
        spec grammar. Results are byte-identical for every setting —
        only wall-clock and cache statistics change.

        ``store`` enables the persistent distance-column tier: a
        :class:`~repro.engine.store.ColumnStore`, a cache-directory
        path, or ``None`` to consult ``REPRO_ENGINE_CACHE`` (absent or
        empty: no persistent tier; pass ``""`` to force it off). The
        store is below the in-memory tiers and equally
        result-invisible — only cold-start cost and statistics change."""
        self._distances = distances if distances is not None else default_distances()
        self._transforms = (
            transforms if transforms is not None else default_transforms()
        )
        self._compiler = RuleCompiler()
        #: Transformed value columns; ``max_value_entries`` bounds
        #: their filled slots.
        self._values = ValueColumns(max_value_entries, self._transforms)
        self._column_cache = LRUCache(max_column_entries)
        self._score_cache = LRUCache(max_score_entries)
        #: Blocking indexes keyed (source fingerprint, blocker token).
        #: Few entries, each potentially large — the bound is an entry
        #: count, not a byte budget, so keep it small.
        self._index_cache = LRUCache(max_index_entries)
        self._executor = resolve_executor(executor)
        self._store = resolve_store(store)
        self._next_context_id = 0
        self._context_id_lock = threading.Lock()
        #: Blocking probe-side counters (monotonic; reported through
        #: :meth:`stats` and per-run deltas in ``MatchStats``). Locked:
        #: one session may serve several threads at once.
        self._probe_lock = threading.Lock()
        self._probe_batches = 0
        self._probe_memo_hits = 0
        self._index_builds = 0
        self._index_patches = 0
        #: Session-scoped string-kernel carrier: a bounded token-code
        #: memo (one set per distinct value tuple) plus the per-measure
        #: kernel-routing counters. Threaded through every PairStore
        #: like the probe memo; thread-safe, so shard threads are fine.
        self._string_memo = StringKernelMemo()

    @property
    def distances(self) -> DistanceRegistry:
        return self._distances

    @property
    def transforms(self) -> TransformationRegistry:
        return self._transforms

    @property
    def executor(self) -> Executor:
        """The executor matching runs over this session score shards
        on."""
        return self._executor

    @property
    def store(self) -> ColumnStore | None:
        """The persistent column store, or None when disabled."""
        return self._store

    # -- compilation ----------------------------------------------------------
    def compile(self, root: SimilarityNode) -> CompiledSimilarity:
        return self._compiler.compile(root)

    def compile_population(
        self, roots: Sequence[SimilarityNode]
    ) -> CompiledPlan:
        return self._compiler.compile_population(roots)

    # -- contexts -------------------------------------------------------------
    def context(
        self, pairs: "PairBatch | Sequence[tuple[Entity, Entity]]"
    ) -> "PairContext":
        """A pair context sharing this session's caches and compiler.

        ``pairs`` is a :class:`~repro.data.pairs.PairBatch` (a blocker
        shard) or any pair sequence, which
        :meth:`~repro.data.pairs.PairBatch.from_pairs` factors. Safe to
        call from engine worker threads (shard consumers create
        one context per batch); context ids are allocated under a lock
        so concurrent contexts never share column/score cache keys.
        """
        with self._context_id_lock:
            context_id = self._next_context_id
            self._next_context_id += 1
        store = PairStore(
            pairs,
            store_id=context_id,
            distances=self._distances,
            value_columns=self._values,
            column_cache=self._column_cache,
            persistent_store=self._store,
            string_memo=self._string_memo,
        )
        return PairContext(self, store, context_id)

    # -- value columns ---------------------------------------------------------
    def value_tuples(
        self,
        node: ValueNode,
        state: SourceState,
        positions: Sequence[int],
    ) -> list[tuple[str, ...]]:
        """Transformed values of one value tree at ``positions`` of a
        source state, gathered from the session's column of that state
        (filled where empty). Blocking-index construction and probing
        read values here, so index keys share every evaluation with the
        rule scoring that follows."""
        return self._values.gather(
            self._compiler.value_signature(node), node, state, positions
        )

    # -- blocking indexes ------------------------------------------------------
    def blocking_index(
        self,
        source_fingerprint: str,
        blocker_token: str,
        build,
        *,
        lineage=(),
        patcher=None,
    ):
        """A blocking index through the session's index memo.

        Resolution order mirrors the distance-column path: the
        in-memory index cache first, then the persistent store's index
        tier (when a store is configured), then — new with delta
        ingestion — *patching*: when the caller passes the source's
        ``lineage`` (its :meth:`~repro.data.source.DataSource.
        delta_chain`) and a ``patcher`` callable, an ancestor epoch's
        payload found in the memo or store is moved forward one
        :class:`~repro.data.source.SourceDelta` at a time
        (``patcher(payload, delta) -> payload | None``; None abandons
        patching) instead of rebuilding from scratch. Only as a last
        resort does ``build()`` run. Whatever resolves is persisted
        under the *current* epoch's key and memoised, so every epoch's
        payload is internally consistent — a reader can never observe a
        half-patched index. Keys are pure content hashes (source
        fingerprint × blocker construction signature), so a changed
        source or a differently-configured blocker misses cleanly and
        can never be served a stale index. Safe to call concurrently: a
        racing build costs duplicated work, never a divergent index
        (construction and patching are deterministic).
        """
        memo_key = (source_fingerprint, blocker_token)
        cached = self._index_cache.get(memo_key)
        if cached is not None:
            return cached
        payload = None
        store = self._store
        if store is not None:
            persistent_key = index_key(source_fingerprint, blocker_token)
            payload = store.load_index(persistent_key)
        if payload is None:
            if patcher is not None:
                payload = self._patch_from_lineage(
                    source_fingerprint, blocker_token, lineage, patcher
                )
            if payload is not None:
                with self._probe_lock:
                    self._index_patches += 1
            else:
                payload = build()
                with self._probe_lock:
                    self._index_builds += 1
            if store is not None:
                store.save_index(persistent_key, payload)
        self._index_cache.put(memo_key, payload)
        return payload

    def _patch_from_lineage(
        self, source_fingerprint: str, blocker_token: str, lineage, patcher
    ):
        """Try to derive the current epoch's payload from an ancestor.

        Walks the delta chain newest-first looking for any ancestor
        epoch whose payload is already resolved (memo or store), then
        replays the intervening deltas oldest-first through ``patcher``.
        Returns the patched payload, or None when no ancestor is
        available, the chain doesn't lead to the current fingerprint,
        or the patcher gives up.
        """
        chain = tuple(lineage)
        if not chain or chain[-1].fingerprint != source_fingerprint:
            return None
        for earlier, later in zip(chain, chain[1:]):
            if earlier.fingerprint != later.parent_fingerprint:
                return None
        store = self._store
        pending = []
        for delta in reversed(chain):
            pending.append(delta)
            ancestor = delta.parent_fingerprint
            base = self._index_cache.get((ancestor, blocker_token))
            if base is None and store is not None:
                base = store.load_index(index_key(ancestor, blocker_token))
            if base is None:
                continue
            payload = base
            for step in reversed(pending):
                payload = patcher(payload, step)
                if payload is None:
                    return None
            return payload
        return None

    def record_probe(self, batches: int = 0, memo_hits: int = 0) -> None:
        """Record blocking probe-side traffic (called by the blockers'
        :meth:`~repro.matching.blocking.CodeProbeBlocker.probe_batch`
        paths; thread-safe)."""
        with self._probe_lock:
            self._probe_batches += batches
            self._probe_memo_hits += memo_hits

    # -- maintenance ----------------------------------------------------------
    def release_context(self, context: "PairContext") -> None:
        """Evict a context's column- and score-tier entries, and the
        value columns of its ad-hoc (source-less) pair sides.

        Column and score vectors are keyed per context and can never
        hit again once the context is discarded; streaming consumers
        (one context per batch) call this so dead vectors don't sit in
        the tiers until capacity eviction. Value columns of source
        states stay — they are exactly what later batches reuse.
        """
        context_id = context._context_id
        self._column_cache.evict_matching(lambda key: key[0] == context_id)
        self._score_cache.evict_matching(lambda key: key[0] == context_id)
        for state in context._store.local_states:
            self._values.release(state)

    def clear_caches(self) -> None:
        """Drop all cached values, columns and scores (the compiler's
        interned ops are kept — they are tiny and never stale; the
        persistent store is untouched — surviving process boundaries is
        its purpose, use :meth:`ColumnStore.clear` to invalidate it)."""
        self._values.clear()
        self._column_cache.clear()
        self._score_cache.clear()
        self._index_cache.clear()

    def stats(self) -> EngineStats:
        diffs = self._compiler.generation_diffs
        return EngineStats(
            values=self._values.stats(),
            columns=self._column_cache.stats(),
            scores=self._score_cache.stats(),
            value_ops=self._compiler.value_op_count,
            comparison_ops=self._compiler.comparison_op_count,
            generations=len(diffs),
            last_generation=diffs[-1] if diffs else None,
            store=self._store.stats() if self._store is not None else None,
            probe_batches=self._probe_batches,
            probe_memo_hits=self._probe_memo_hits,
            kernel_routing=self._string_memo.routing(),
            index_builds=self._index_builds,
            index_patches=self._index_patches,
            degraded=(
                self._store.trip_reasons() if self._store is not None else ()
            ),
        )

    def generation_diffs(self) -> "tuple[GenerationDiff, ...]":
        """Per-generation op-reuse records (one per compiled
        population), for crossover-operator tuning."""
        return self._compiler.generation_diffs

    def close(self) -> None:
        """Release the executor's pooled workers (serial: a no-op).
        The session itself stays usable — a later shard map lazily
        recreates the pool. Usable as a context manager."""
        self._executor.close()

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PairContext:
    """Evaluates compiled rules over one fixed pair list."""

    def __init__(self, session: EngineSession, store: PairStore, context_id: int):
        self._session = session
        self._store = store
        self._context_id = context_id

    @property
    def session(self) -> EngineSession:
        return self._session

    @property
    def pairs(self) -> list[tuple[Entity, Entity]]:
        return self._store.pairs

    def __len__(self) -> int:
        return len(self._store)

    # -- execution ------------------------------------------------------------
    def scores(self, node: SimilarityNode) -> np.ndarray:
        """Score vector of a similarity node over all pairs.

        Comparison vectors come from the score cache and are read-only;
        aggregation results are fresh arrays.
        """
        return self.execute(self._session.compile(node))

    def predictions(self, node: SimilarityNode) -> np.ndarray:
        """Boolean match predictions at the 0.5 threshold."""
        return self.scores(node) >= 0.5

    def population_scores(
        self, roots: Sequence[SimilarityNode]
    ) -> list[np.ndarray]:
        """Score vectors for a whole population through one plan.

        Unique comparison ops are evaluated first (each one exactly
        once — this is where the deduplicated DAG pays off), then each
        root reduces over the shared vectors. Column building is
        independent per op, but it runs inline on every executor: the
        string kernels hold the GIL, and on a 2-core host fanning a
        population's columns across threads never beat building them
        inline, from 250 to 64k pairs. Every op is pure, so results
        are byte-identical for any worker count.
        """
        plan = self._session.compile_population(roots)
        for op in plan.comparison_ops:
            self._store.distance_column(op)
        return [self.execute(root) for root in plan.roots]

    def execute(self, compiled: CompiledSimilarity) -> np.ndarray:
        """Evaluate a compiled similarity tree."""
        if isinstance(compiled, CompiledComparison):
            return self._comparison_scores(compiled)
        if isinstance(compiled, CompiledAggregation):
            child_scores = [self.execute(child) for child in compiled.children]
            return aggregate_scores(
                compiled.function, child_scores, compiled.weights
            )
        raise TypeError(f"not a compiled similarity: {type(compiled).__name__}")

    def _comparison_scores(self, compiled: CompiledComparison) -> np.ndarray:
        cache = self._session._score_cache
        key = (self._context_id, compiled.op.sig, compiled.threshold)
        scores = cache.get(key)
        if scores is None:
            distances = self._store.distance_column(compiled.op)
            scores = threshold_scores(distances, compiled.threshold)
            cache.put(key, scores)
        return scores
