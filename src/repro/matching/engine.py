"""Link generation: evaluate a rule over candidate pairs.

This is the execution path a Silk user runs after learning: blocking
produces candidates, the rule scores them in batches and every pair at
or above the 0.5 threshold (Definition 3) becomes a link. Batches are
evaluated through one persistent :class:`repro.engine.EngineSession`
per execution, so an entity's transformed values computed in one batch
are re-used by every later batch it appears in (the seed discarded all
caches every 4096 pairs).

Shard scoring is the run's one parallel site: batches are **sharded
across workers** through the run session's
:class:`repro.engine.executor.Executor` (``workers=`` or the
``REPRO_ENGINE_WORKERS`` environment variable). Groups of 2x the
worker count are scored concurrently on threads sharing the session's
caches, and results are merged back in submission order. Candidate
shards come straight from the blocker
(:meth:`repro.matching.blocking.Blocker.iter_shards`), which builds and
probes its indexes inline over the run's session, so they share its
value columns and the persistent store's index tier. Batch boundaries
depend only on ``batch_size`` and every shard is scored by pure
functions, so the generated links are byte-identical for every worker
count, including their order.

The default blocker is rule-structure-aware (:func:`default_blocker`):
MultiBlock, built for the engine's link threshold, where the rule's
comparisons support a dismissal-free index, token blocking on the
compared properties otherwise, gated by
``benchmarks/bench_multiblock.py`` asserting MultiBlock executions
generate exactly the full-index links on every bundled dataset.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from repro import faults
from repro.core.rule import MATCH_THRESHOLD, LinkageRule
from repro.faults import CancelToken
from repro.data.pairs import PairBatch
from repro.data.source import DataSource
from repro.engine import counters
from repro.engine.executor import Executor, resolve_executor
from repro.engine.session import EngineCounters, EngineSession, EngineStats
from repro.engine.store import ColumnStore
from repro.matching.blocking import Blocker, FullIndexBlocker, RuleBlocker
from repro.matching.multiblock import MultiBlocker, multiblock_supports

#: Environment variable selecting the default blocking strategy when an
#: engine is constructed without an explicit ``blocker`` (values:
#: ``auto`` — structure-aware selection, the default — ``multiblock``,
#: ``rule``, ``full``).
BLOCKER_ENV = "REPRO_ENGINE_BLOCKER"


def default_blocker(
    rule: LinkageRule, spec: str = "auto", threshold: float = MATCH_THRESHOLD
) -> Blocker:
    """The blocker an engine uses when none is configured explicitly,
    for an engine that links at ``threshold``.

    ``auto`` picks :class:`~repro.matching.multiblock.MultiBlocker`
    when the rule's comparison structure supports a selective,
    dismissal-free index (:func:`~repro.matching.multiblock.
    multiblock_supports` — gated on the ``bench_multiblock`` recall/
    reduction benchmark across the bundled datasets), falling back to
    token blocking on the compared properties
    (:class:`~repro.matching.blocking.RuleBlocker`) and, for rules
    without property comparisons, the full index. A MultiBlocker
    indexes each comparison only as far as a pair can still reach
    ``threshold``. The blocker holds no session: the engine hands its
    run session to every blocker call, so index construction shares the
    run's caches and persistent index tier.
    """
    text = spec.strip().lower() or "auto"
    if text == "full":
        return FullIndexBlocker()
    if text not in ("auto", "multiblock", "rule"):
        raise ValueError(
            f"invalid blocker spec {spec!r}: expected auto, multiblock, "
            f"rule or full"
        )
    if text == "multiblock" or (text == "auto" and multiblock_supports(rule)):
        return MultiBlocker(rule, threshold)
    try:
        return RuleBlocker(rule)
    except ValueError:
        return FullIndexBlocker()


@dataclass(frozen=True)
class GeneratedLink:
    """A link produced by executing a rule."""

    uid_a: str
    uid_b: str
    score: float

    def as_pair(self) -> tuple[str, str]:
        return (self.uid_a, self.uid_b)


@dataclass(frozen=True)
class MatchStats(EngineCounters):
    """Execution statistics of one :meth:`MatchingEngine.iter_links`
    run (available after the iterator is exhausted).

    The four cache tiers are reported separately — in-memory values /
    columns / scores plus the persistent column store — so consumers
    (CI assertions, docs, tuning scripts) can tell a cross-run store
    hit from an in-memory hit unambiguously. Counters are **per run**:
    a session outlives individual runs, so the engine snapshots its
    statistics at run start and reports the delta — a warm rerun on a
    shared session really shows ``store.misses == 0``, not the cold
    run's misses folded in. ``size``/``capacity`` remain point-in-time
    gauges, and ``degraded`` lists each breaker-trip reason of the run
    once, sorted.
    """

    batches: int
    pairs: int
    links: int


@dataclass(frozen=True)
class LinkDiff:
    """Result of one incremental :meth:`MatchingEngine.link_diff` run.

    ``links`` is the complete, sorted link set of the *current* source
    epochs — byte-identical to a cold :meth:`MatchingEngine.execute`
    over the same data. The diff buckets compare exact
    :class:`GeneratedLink` values against ``previous_links``: a pair
    whose score changed appears in ``added`` (new version) *and*
    ``removed`` (old version); ``unchanged`` holds links equal in pair
    and score.
    """

    #: Links in the new set that were not in the previous set.
    added: tuple[GeneratedLink, ...]
    #: Previous links absent from the new set.
    removed: tuple[GeneratedLink, ...]
    #: Links identical (pair and score) in both sets.
    unchanged: tuple[GeneratedLink, ...]
    #: The full new link set, sorted by (-score, uid_a, uid_b).
    links: tuple[GeneratedLink, ...]
    #: Probe-side uids that were rescored (changed uids included);
    #: None when the blocker could not bound the impact and the run
    #: fell back to a full rescore.
    affected_uids: frozenset | None
    #: Candidate pairs actually scored this run.
    rescored_pairs: int
    #: Previous links carried over without rescoring.
    kept_links: int
    #: Statistics of the scoring pass (the full-rescore fallback
    #: reports its complete run here).
    stats: MatchStats | None


def _batch_links(
    batch: PairBatch, scores: np.ndarray, threshold: float
) -> list[GeneratedLink]:
    """The links of one scored batch, in pair order: only the pairs
    scoring at or above ``threshold`` are resolved to entities."""
    hits = np.flatnonzero(scores >= threshold)
    entities_a = batch.entities_a
    entities_b = batch.entities_b
    return [
        GeneratedLink(entities_a[a].uid, entities_b[b].uid, score)
        for a, b, score in zip(
            batch.index_a[hits].tolist(),
            batch.index_b[hits].tolist(),
            scores[hits].tolist(),
        )
    ]


class MatchingEngine:
    """Executes linkage rules over data sources.

    Each run blocks and scores through one
    :class:`~repro.engine.session.EngineSession`, and the shard loop
    maps through that session's executor, the run's only one. A
    session-less engine resolves ``workers=`` once and lends that
    executor to every per-run session it creates; :meth:`close`
    releases it. An explicit ``session=`` owns its executor and its
    store.
    """

    def __init__(
        self,
        blocker: Blocker | None = None,
        batch_size: int = 4096,
        threshold: float = MATCH_THRESHOLD,
        session: EngineSession | None = None,
        workers: Executor | int | str | None = None,
        cache_dir: "ColumnStore | str | None" = None,
    ):
        """``blocker=None`` selects rule-aware blocking per executed
        rule (:func:`default_blocker`; ``REPRO_ENGINE_BLOCKER``
        overrides the ``auto`` strategy), falling back to the full
        index for rules without property comparisons.
        ``session=None`` creates a fresh engine session per
        :meth:`iter_links` call (caches persist across the batches of
        one execution but cannot go stale across data sources); pass a
        session explicitly to share caches across executions.
        ``workers`` selects the sharding executor of a session-less
        engine (see :func:`repro.engine.executor.resolve_executor`);
        ``None`` consults ``REPRO_ENGINE_WORKERS``. Shards go to it in
        groups of 2x its worker count.

        ``cache_dir`` enables the persistent distance-column store for
        the sessions this engine creates (a path, a
        :class:`~repro.engine.store.ColumnStore`, or ``None`` to
        consult ``REPRO_ENGINE_CACHE``; ``""`` forces it off). A warm
        rerun over unchanged sources then loads every distance column
        from disk instead of rebuilding it — links are byte-identical
        either way. An explicit ``session`` owns its own executor and
        store, and rejects ``workers`` and ``cache_dir``.

        An explicit :class:`~repro.matching.multiblock.MultiBlocker`
        must be built for a link threshold no higher than
        ``threshold``: one built for a higher one could dismiss
        links."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if isinstance(blocker, MultiBlocker) and blocker.threshold > threshold:
            raise ValueError(
                f"the MultiBlocker indexes for link threshold "
                f"{blocker.threshold}, above the engine's {threshold}; "
                f"build it with MultiBlocker(rule, threshold={threshold})"
            )
        if session is not None and workers is not None:
            raise ValueError(
                "the executor is owned by the session; configure "
                "executor= on EngineSession instead of workers="
            )
        if session is not None and cache_dir is not None:
            raise ValueError(
                "the persistent store is owned by the session; configure "
                "store= on EngineSession instead of cache_dir="
            )
        self._blocker = blocker
        self._batch_size = batch_size
        self._threshold = threshold
        self._session = session
        self._executor = (
            session.executor if session is not None else resolve_executor(workers)
        )
        self._cache_dir = cache_dir
        self._last_stats: MatchStats | None = None

    @property
    def executor(self) -> Executor:
        """The executor this engine's runs score shards on."""
        return self._executor

    def last_run_stats(self) -> MatchStats | None:
        """Statistics of the most recently *completed* run (None before
        the first run; a partially consumed :meth:`iter_links` iterator
        does not update this)."""
        return self._last_stats

    def close(self) -> None:
        """Release the pooled workers of the executor this engine
        resolved (an explicit session's executor is the session's to
        close). Usable as a context manager."""
        if self._session is None:
            self._executor.close()

    def __enter__(self) -> "MatchingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _resolve_blocker(self, rule: LinkageRule) -> Blocker:
        if self._blocker is not None:
            return self._blocker
        return default_blocker(
            rule, os.environ.get(BLOCKER_ENV, ""), self._threshold
        )

    def execute(
        self,
        rule: LinkageRule,
        source_a: DataSource,
        source_b: DataSource,
        cancel: CancelToken | None = None,
    ) -> list[GeneratedLink]:
        """All links the rule generates between the two sources,
        sorted by descending score."""
        links = list(self.iter_links(rule, source_a, source_b, cancel=cancel))
        links.sort(key=lambda link: (-link.score, link.uid_a, link.uid_b))
        return links

    def iter_links(
        self,
        rule: LinkageRule,
        source_a: DataSource,
        source_b: DataSource,
        cancel: CancelToken | None = None,
    ) -> Iterator[GeneratedLink]:
        """Stream links batch by batch (memory-bounded).

        With a parallel executor, a group of 2x the worker count of
        shards is in flight at a time; links are always emitted in batch
        order, then pair order within a batch — the same order the
        serial engine produces, whatever the worker count.

        Candidate shards come straight from the blocker
        (:meth:`~repro.matching.blocking.Blocker.iter_shards`) — no
        re-chunking layer — and the blocker shares the run's engine
        session, so its inline index construction goes through the
        session's value columns and (when configured) the persistent
        store's index tier.

        ``cancel`` enables cooperative cancellation: the token is
        checked at every shard-group boundary (the engine's natural
        preemption points — nothing is interrupted mid-kernel), so a
        deadline or an operator cancel raises
        :class:`~repro.faults.Cancelled` between groups and the
        session/store are left in the same consistent state any other
        failure would leave them in.
        """
        session = self._run_session()
        baseline = session.stats()
        blocker = self._resolve_blocker(rule)
        batches = pairs = links = 0
        shards = blocker.iter_shards(
            source_a, source_b, self._batch_size, session=session
        )
        for batch, scores in self._scored_batches(
            session, rule, shards, cancel=cancel
        ):
            batches += 1
            pairs += len(batch)
            emitted = _batch_links(batch, scores, self._threshold)
            links += len(emitted)
            yield from emitted
        self._last_stats = self._finish_stats(
            session, baseline, batches, pairs, links
        )

    def link_diff(
        self,
        rule: LinkageRule,
        source_a: DataSource,
        source_b: DataSource,
        previous_links: "Iterable[GeneratedLink]",
        deltas_a: "Iterable" = (),
        deltas_b: "Iterable" = (),
        cancel: CancelToken | None = None,
    ) -> LinkDiff:
        """Incrementally re-derive the link set after source deltas.

        ``previous_links`` is the link set generated over the *parent*
        epochs (before ``deltas_a``/``deltas_b``, typically
        ``DataSource.delta_chain()`` of each side; for deduplication
        runs passing one side's chain is enough). The blocker bounds
        which probe entities' candidate sets can have changed
        (:meth:`~repro.matching.blocking.Blocker.affected_probe_uids`);
        links not touching that set carry over unscored, and only the
        affected candidate pairs re-score — against the patched
        persisted indexes and the probe-result ledger, so the work is
        proportional to the delta, not the source. The resulting
        ``links`` are byte-identical to a cold
        :meth:`execute` over the current sources; when the blocker
        cannot bound the impact the run *is* a cold execute
        (``affected_uids is None``).
        """
        previous = list(previous_links)
        deltas_a = tuple(deltas_a)
        deltas_b = tuple(deltas_b)
        if source_a is source_b and (bool(deltas_a) != bool(deltas_b)):
            deltas_a = deltas_b = deltas_a or deltas_b
        session = self._run_session()
        baseline = session.stats()
        blocker = self._resolve_blocker(rule)
        changed: set[str] = set()
        chains = (
            (deltas_a,) if source_a is source_b else (deltas_a, deltas_b)
        )
        for chain in chains:
            for delta in chain:
                changed |= delta.changed_uids
        if deltas_a or deltas_b:
            affected = blocker.affected_probe_uids(
                source_a, source_b, deltas_a, deltas_b, session=session
            )
        else:
            affected = frozenset()
        if affected is None:
            links = list(self.execute(rule, source_a, source_b, cancel=cancel))
            stats = self._last_stats
            aff = None
            kept: list[GeneratedLink] = []
            rescored_pairs = stats.pairs if stats is not None else 0
        else:
            aff = frozenset(affected) | changed
            kept = [
                link
                for link in previous
                if link.uid_a not in aff and link.uid_b not in aff
            ]
            batches = pairs = 0
            rescored: list[GeneratedLink] = []
            shards = blocker.iter_affected_shards(
                source_a, source_b, aff, self._batch_size, session=session
            )
            for batch, scores in self._scored_batches(
                session, rule, shards, cancel=cancel
            ):
                batches += 1
                pairs += len(batch)
                rescored.extend(_batch_links(batch, scores, self._threshold))
            links = kept + rescored
            links.sort(key=lambda link: (-link.score, link.uid_a, link.uid_b))
            rescored_pairs = pairs
            stats = self._finish_stats(
                session, baseline, batches, pairs, len(links)
            )
            self._last_stats = stats
        prev_by_pair = {link.as_pair(): link for link in previous}
        new_by_pair = {link.as_pair(): link for link in links}
        return LinkDiff(
            added=tuple(
                link for link in links if prev_by_pair.get(link.as_pair()) != link
            ),
            removed=tuple(
                link
                for link in previous
                if new_by_pair.get(link.as_pair()) != link
            ),
            unchanged=tuple(
                link for link in links if prev_by_pair.get(link.as_pair()) == link
            ),
            links=tuple(links),
            affected_uids=aff,
            rescored_pairs=rescored_pairs,
            kept_links=len(kept),
            stats=stats,
        )

    def iter_link_diff(
        self,
        rule: LinkageRule,
        source_a: DataSource,
        source_b: DataSource,
        previous_links: "Iterable[GeneratedLink]",
        deltas_a: "Iterable" = (),
        deltas_b: "Iterable" = (),
    ) -> Iterator[tuple[str, GeneratedLink]]:
        """Streaming view of :meth:`link_diff`: yields ``(kind, link)``
        with kind in ``{"added", "removed", "unchanged"}`` (removed
        links carry their previous score)."""
        diff = self.link_diff(
            rule,
            source_a,
            source_b,
            previous_links,
            deltas_a=deltas_a,
            deltas_b=deltas_b,
        )
        for link in diff.added:
            yield "added", link
        for link in diff.removed:
            yield "removed", link
        for link in diff.unchanged:
            yield "unchanged", link

    def _run_session(self) -> EngineSession:
        """The session one run blocks and scores through: the shared
        one, or a fresh one per run on this engine's executor."""
        if self._session is not None:
            return self._session
        return EngineSession(executor=self._executor, store=self._cache_dir)

    def _scored_batches(
        self,
        session: EngineSession,
        rule: LinkageRule,
        shards,
        cancel: CancelToken | None = None,
    ) -> Iterator[tuple[PairBatch, np.ndarray]]:
        """Score a shard stream across the session's executor, yielding
        ``(batch, score_vector)`` in stream order — groups of 2x the
        worker count are in flight at a time, map preserves submission
        order within a group, so concatenation reproduces the serial
        emission order whatever the worker count.

        Each group boundary is both a cancellation point
        (``cancel.check()``) and the ``engine.shard`` fault-injection
        seam — together they bound how long a hung or doomed run can
        keep computing to one in-flight group."""
        executor = session.executor
        window = max(1, 2 * executor.workers)

        def score(batch):
            return self._batch_scores(session, rule, batch)

        stream = iter(shards)
        while True:
            if cancel is not None:
                cancel.check()
            faults.fire("engine.shard")
            group = list(islice(stream, window))
            if not group:
                return
            yield from zip(group, executor.map(score, group))

    def _finish_stats(
        self,
        session: EngineSession,
        baseline: EngineStats,
        batches: int,
        pairs: int,
        links: int,
    ) -> MatchStats:
        """The run's counters: the run session's delta since
        ``baseline``, with each breaker-trip reason listed once,
        sorted."""
        run = counters.delta(EngineCounters.of(session.stats()), baseline)
        return MatchStats(
            **{**vars(run), "degraded": tuple(sorted(set(run.degraded)))},
            batches=batches,
            pairs=pairs,
            links=links,
        )

    def _batch_scores(
        self,
        session: EngineSession,
        rule: LinkageRule,
        batch: PairBatch,
    ) -> np.ndarray:
        """Score one batch through the run session (thread-safe via the
        session's locked caches)."""
        context = session.context(batch)
        try:
            return context.scores(rule.root)
        finally:
            # Column/score vectors are batch-local; evict them so long
            # streams don't pin dead arrays until capacity eviction.
            # (Value-tier entries persist — that's the cross-batch win.)
            session.release_context(context)


def generate_links(
    rule: LinkageRule,
    source_a: DataSource,
    source_b: DataSource,
    blocker: Blocker | None = None,
    workers: Executor | int | str | None = None,
    cache_dir: "ColumnStore | str | None" = None,
) -> list[GeneratedLink]:
    """Convenience wrapper around :class:`MatchingEngine`."""
    engine = MatchingEngine(blocker=blocker, workers=workers, cache_dir=cache_dir)
    try:
        return engine.execute(rule, source_a, source_b)
    finally:
        engine.close()
