"""Queue workers: claim jobs, execute them, survive crashes.

A worker is a plain loop: recover stale claims, claim a ticket (or,
with none eligible, wait on the queue until a submit wakes it or
``poll_interval`` ends), transition the job ``queued -> running``,
execute it through a :class:`JobRunner` (one persistent engine session
per worker process — the in-memory analogue of the shared on-disk
cache), persist links and :class:`~repro.matching.engine.MatchStats`
into the job record, and transition to ``succeeded``. Every
transition is validated against the expected state and claim owner,
so a worker whose lease was reaped mid-run fails loudly instead of
overwriting the retry.

Crash recovery needs no supervisor: a dead worker leaves a claimed
ticket and a record whose heartbeat stops. :func:`recover_stale`
(run by every worker before claiming, and by service health checks)
requeues such jobs with exponential backoff until ``max_attempts`` is
exhausted, then fails them. Because link generation is deterministic,
a retried job produces byte-identical links — retry is always safe.

All workers share one :class:`~repro.engine.store.ColumnStore` cache
dir (atomic-rename writes were built for concurrent writers): the
first job over a dataset builds columns/indexes/probes, every later
job on any worker loads them, which is the service's warm path.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
import uuid
from pathlib import Path

from repro import faults
from repro.engine.session import EngineSession
from repro.faults import Cancelled, CancelToken
from repro.matching.engine import MatchingEngine
from repro.registry import (
    CorruptVersion,
    MigrationError,
    RegistryError,
    RuleRef,
    RuleRegistry,
    SchemaGapError,
    check_rule,
    resolve_rules_dir,
)
from repro.service.jobs import (
    CorruptRecord,
    InvalidTransition,
    JobRecord,
    JobStore,
    StaleJob,
    _atomic_write_json,
)
from repro.service.queue import ClaimTicket, FileQueue

#: Seconds without a heartbeat after which a running job's claim is
#: considered lost and the job is requeued.
DEFAULT_LEASE = 30.0


class JobRunner:
    """Executes job records through one persistent matching engine.

    The engine and its :class:`~repro.engine.session.EngineSession`
    are created once and reused across every job the runner sees —
    transformed values, blocking indexes and probe results computed
    for one job warm the next, on top of the shared persistent store.
    """

    def __init__(
        self, cache_dir: str | None = None, rules_dir: str | None = None
    ):
        self.cache_dir = cache_dir
        self.rules_dir = rules_dir
        self._session = EngineSession(store=cache_dir)
        self._engine = MatchingEngine(session=self._session)

    @property
    def engine(self) -> MatchingEngine:
        """The persistent engine jobs execute through."""
        return self._engine

    def close(self) -> None:
        """Release the engine's executor and session."""
        self._engine.close()
        self._session.close()

    def run(
        self,
        record: JobRecord,
        store: JobStore,
        cancel: CancelToken | None = None,
    ) -> tuple[list, dict | None, dict]:
        """Execute one job record; returns ``(links, stats, result)``.

        ``links`` are exact :class:`~repro.matching.engine.
        GeneratedLink` values — byte-identical to a direct
        ``MatchingEngine.execute`` because this *is* a direct execute,
        just on a persistent engine. ``stats`` is the run's
        :class:`~repro.matching.engine.MatchStats` as a
        ``dataclasses.asdict`` payload; ``result`` the kind-specific
        summary stored on the record.

        ``cancel`` is threaded into the engine's shard loop: a deadline
        or operator cancel raises :class:`~repro.faults.Cancelled` at
        the next shard boundary.
        """
        if record.kind == "link":
            return self._run_link(record, cancel)
        if record.kind == "learn":
            return self._run_learn(record, cancel)
        if record.kind == "delta":
            return self._run_delta(record, store, cancel)
        raise ValueError(f"unknown job kind {record.kind!r}")

    # -- kinds -------------------------------------------------------------
    def _sources(self, spec: dict):
        from repro.datasets import load_dataset

        return load_dataset(
            spec["dataset"],
            seed=int(spec.get("seed", 0)),
            scale=float(spec.get("scale", 1.0)),
        )

    def _registry(self) -> RuleRegistry:
        """The registry this runner resolves references from.

        Workers and the submitting service must see the same directory
        (the service defaults both to ``<root>/rules``); a runner with
        no configured registry fails any referencing job terminally."""
        root = resolve_rules_dir(self.rules_dir)
        if root is None:
            raise RegistryError(
                "no rules directory configured: pass rules_dir= or set "
                "REPRO_RULES_DIR"
            )
        return RuleRegistry(root)

    def _rule(self, spec: dict):
        from repro.core.serialization import rule_from_dict
        from repro.matching.incremental import dataset_rule

        if spec.get("rule_ref"):
            return self._resolve_ref(spec).linkage_rule()
        if spec.get("rule"):
            return rule_from_dict(spec["rule"])
        return dataset_rule(spec["dataset"])

    def _resolve_ref(self, spec: dict):
        """Load the registry version a job spec references, re-verifying
        the content hash recorded at submission time — a registry whose
        version content drifted from what the submitter pinned is a
        corruption, not a silent substitution."""
        version = self._registry().resolve(RuleRef.parse(spec["rule_ref"]))
        expected = spec.get("rule_hash")
        if expected and version.rule_hash != expected:
            raise CorruptVersion(
                f"{version.ref}: content hash {version.rule_hash[:12]} "
                f"does not match {expected[:12]} recorded at submission"
            )
        return version

    def _run_link(self, record: JobRecord, cancel: CancelToken | None = None):
        from repro.core.serialization import rule_to_dict

        spec = record.spec
        dataset = self._sources(spec)
        rule = self._rule(spec)
        if spec.get("rule_ref") or spec.get("rule"):
            # Stored/inline rules may have been learned on a different
            # schema; an execute that would silently score starved
            # comparisons 0.0 is refused with the structured report.
            report = check_rule(
                rule,
                dataset.source_a,
                dataset.source_b,
                ref=spec.get("rule_ref"),
            )
            if not report.ok:
                raise SchemaGapError(report)
        links = self._engine.execute(
            rule, dataset.source_a, dataset.source_b, cancel=cancel
        )
        stats = self._engine.last_run_stats()
        result = {
            "links": len(links),
            "rule": rule_to_dict(rule),
        }
        if spec.get("rule_ref"):
            result["rule_ref"] = spec["rule_ref"]
            result["rule_hash"] = spec.get("rule_hash")
        return links, dataclasses.asdict(stats), result

    def _run_learn(self, record: JobRecord, cancel: CancelToken | None = None):
        import random

        from repro.core.genlink import GenLink, GenLinkConfig
        from repro.core.serialization import rule_to_dict
        from repro.data.splits import train_validation_split

        spec = record.spec
        dataset = self._sources(spec)
        rng = random.Random(int(spec.get("seed", 0)))
        train, validation = train_validation_split(dataset.links, rng)
        config = GenLinkConfig(
            population_size=int(spec.get("population_size", 20)),
            max_iterations=int(spec.get("iterations", 5)),
        )
        learned = GenLink(config).learn(
            dataset.source_a, dataset.source_b, train, validation, rng=rng
        )
        rule = learned.best_rule
        final = learned.history[-1]
        if cancel is not None:
            cancel.check()
        links = self._engine.execute(
            rule, dataset.source_a, dataset.source_b, cancel=cancel
        )
        stats = self._engine.last_run_stats()
        result = {
            "links": len(links),
            "rule": rule_to_dict(rule),
            "train_f_measure": final.train_f_measure,
            "validation_f_measure": final.validation_f_measure,
            "iterations": final.iteration,
        }
        if spec.get("publish"):
            # Publish the learned rule into the requested lineage with
            # full provenance: what it was learned on (down to the
            # source content fingerprints), how well it scored, and
            # which job produced it.
            ref = RuleRef.parse(spec["publish"])
            version = self._registry().publish(
                ref,
                rule,
                provenance={
                    "job_id": record.job_id,
                    "dataset": spec["dataset"],
                    "seed": int(spec.get("seed", 0)),
                    "scale": float(spec.get("scale", 1.0)),
                    "source_fingerprints": {
                        "a": dataset.source_a.fingerprint(),
                        "b": dataset.source_b.fingerprint(),
                    },
                    "train_f_measure": final.train_f_measure,
                    "validation_f_measure": final.validation_f_measure,
                    "iterations": final.iteration,
                },
            )
            result["published"] = {
                "ref": str(version.ref),
                "rule_hash": version.rule_hash,
            }
        return links, dataclasses.asdict(stats), result

    def _run_delta(
        self,
        record: JobRecord,
        store: JobStore,
        cancel: CancelToken | None = None,
    ):
        import random

        from repro.core.serialization import rule_from_dict, rule_to_dict
        from repro.matching.incremental import random_source_delta

        spec = record.spec
        parent = store.get(spec["parent"])
        if parent.state != "succeeded":
            raise ValueError(
                f"parent job {parent.job_id} is {parent.state!r}; delta "
                f"jobs build on a succeeded run"
            )
        previous = store.load_links(parent.job_id)
        # Re-materialise the parent's sources (datasets are generated
        # deterministically from name/seed/scale) and replay its rule.
        dataset = self._sources(parent.spec)
        rule = (
            rule_from_dict(parent.result["rule"])
            if parent.result and parent.result.get("rule")
            else self._rule(parent.spec)
        )
        rng = random.Random(int(spec.get("seed", 0)))
        upserts = int(spec.get("upserts", 0))
        deletes = int(spec.get("deletes", 0))
        source_a, source_b = dataset.source_a, dataset.source_b
        dedup = source_a is source_b
        deltas_a = [random_source_delta(source_a, rng, upserts=upserts, deletes=deletes)]
        deltas_b = (
            deltas_a
            if dedup
            else [random_source_delta(source_b, rng, upserts=upserts, deletes=deletes)]
        )
        diff = self._engine.link_diff(
            rule,
            source_a,
            source_b,
            previous,
            deltas_a=deltas_a,
            deltas_b=deltas_b,
            cancel=cancel,
        )
        result = {
            "links": len(diff.links),
            "rule": rule_to_dict(rule),
            "parent": parent.job_id,
            "added": len(diff.added),
            "removed": len(diff.removed),
            "unchanged": len(diff.unchanged),
            "kept_links": diff.kept_links,
            "rescored_pairs": diff.rescored_pairs,
            "affected_uids": (
                None
                if diff.affected_uids is None
                else len(diff.affected_uids)
            ),
        }
        return list(diff.links), dataclasses.asdict(diff.stats), result


def _worker_dir(root: str | os.PathLike) -> Path:
    return Path(root) / "workers"


def write_worker_heartbeat(
    root: str | os.PathLike, worker_id: str, jobs_done: int
) -> None:
    """Publish a worker's liveness record (atomic replace), read by
    :meth:`repro.service.service.LinkageService.health`."""
    _atomic_write_json(
        _worker_dir(root) / f"{worker_id}.json",
        {
            "worker": worker_id,
            "pid": os.getpid(),
            "heartbeat_at": time.time(),
            "jobs_done": jobs_done,
        },
    )


def live_workers(
    root: str | os.PathLike, lease: float = DEFAULT_LEASE
) -> list[dict]:
    """Worker liveness records with a heartbeat within ``lease``."""
    directory = _worker_dir(root)
    if not directory.is_dir():
        return []
    now = time.time()
    workers = []
    for path in sorted(directory.glob("*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if now - float(payload.get("heartbeat_at", 0.0)) <= lease:
            workers.append(payload)
    return workers


def failure_fields(error: Exception) -> tuple[dict, bool]:
    """The ``failed`` transition fields for an exception a job run
    raised, and whether a worker may retry it.

    Cancellation, schema gaps and other registry or migration errors
    are terminal: a deadline would expire again, an operator cancel
    means stop, and registry state fails identically on every attempt.
    A schema gap also carries its structured report as the record's
    ``result``. Anything else is ``"<Type>: <msg>"`` and retryable.
    Workers and inline runs both fail jobs through this, so a job's
    error never depends on where it ran (inline runs never retry).
    """
    if isinstance(error, Cancelled):
        return {"error": error.reason}, False
    if isinstance(error, SchemaGapError):
        return {
            "error": f"schema gap: {error}",
            "result": {"gap_report": error.report.to_payload()},
        }, False
    if isinstance(error, (RegistryError, MigrationError)):
        return {"error": f"registry: {error}"}, False
    return {"error": f"{type(error).__name__}: {error}"}, True


def _backoff(attempts: int, base: float, cap: float) -> float:
    """Exponential retry delay: ``base * 2**(attempts-1)``, capped."""
    return min(cap, base * (2 ** max(0, attempts - 1)))


def _quiet(call, *args, **kwargs) -> bool:
    """Run a queue/store side effect, swallowing transient I/O faults.

    Used where failing the bookkeeping is strictly better than failing
    the worker: a ticket that couldn't be acked or released stays
    claimed and the reaper re-resolves it against the job record after
    the lease — the system self-heals, the worker keeps draining.
    """
    try:
        call(*args, **kwargs)
        return True
    except OSError:
        return False


def recover_stale(
    store: JobStore,
    queue: FileQueue,
    lease: float = DEFAULT_LEASE,
    backoff_base: float = 0.5,
    max_backoff: float = 30.0,
) -> int:
    """Requeue (or fail) jobs whose claiming worker died; returns how
    many claims were recovered.

    A claim is stale when its job is ``running`` with no heartbeat for
    ``lease`` seconds, or still ``queued`` ``lease`` seconds after the
    claim (the worker died between claiming and transitioning). Stale
    running jobs requeue with exponential backoff until their attempt
    budget is spent, then fail. Concurrent reapers are safe: the
    validated transition picks one winner, the loser skips. A claim
    whose job is already terminal is simply dropped.
    """
    recovered = 0
    now = time.time()
    for job_id, token, claimed_at in queue.claimed():
        ticket = ClaimTicket(job_id=job_id, token=token)
        try:
            record = store.get(job_id)
        except KeyError:
            _quiet(queue.ack, ticket)
            recovered += 1
            continue
        except CorruptRecord:
            # An unreadable record can't be resolved either way; leave
            # the ticket claimed for the operator rather than guessing.
            continue
        if record.state == "running":
            last = record.heartbeat_at or claimed_at
            if now - last < lease:
                continue
            error = (
                f"worker {record.worker!r} lost "
                f"(no heartbeat for {now - last:.1f}s)"
            )
            if record.attempts >= record.max_attempts:
                try:
                    store.transition(
                        job_id, "failed", expect="running", error=error
                    )
                except (StaleJob, InvalidTransition, OSError):
                    continue
                _quiet(queue.ack, ticket)
            else:
                delay = _backoff(record.attempts, backoff_base, max_backoff)
                try:
                    store.transition(
                        job_id,
                        "queued",
                        expect="running",
                        error=error,
                        not_before=now + delay,
                        worker=None,
                        heartbeat_at=None,
                    )
                except (StaleJob, InvalidTransition, OSError):
                    continue
                _quiet(queue.release, ticket, not_before=now + delay)
            recovered += 1
        elif record.state == "queued":
            if now - claimed_at < lease:
                continue
            # Died between claim and the running transition: the
            # record needs no edge, the ticket just goes back.
            _quiet(queue.release, ticket, not_before=now)
            recovered += 1
        else:
            _quiet(queue.ack, ticket)
            recovered += 1
    return recovered


def run_worker(
    root: str | os.PathLike,
    worker_id: str | None = None,
    queue: FileQueue | None = None,
    cache_dir: str | None = None,
    rules_dir: str | None = None,
    drain: bool = False,
    max_jobs: int | None = None,
    lease: float = DEFAULT_LEASE,
    poll_interval: float = 0.2,
    backoff_base: float = 0.5,
    max_backoff: float = 30.0,
    heartbeat_interval: float | None = None,
) -> int:
    """Run one worker loop over a service directory; returns how many
    claims it processed.

    ``drain=True`` exits once the queue is empty (the batch mode the
    CI smoke leg and ``repro-experiments serve --drain`` use);
    otherwise the loop runs until ``max_jobs`` or forever. The worker
    publishes its own liveness record every iteration and heartbeats
    the job record from a background thread while executing, so the
    reaper can tell a slow job from a dead worker.

    An idle worker blocks in ``queue.wait(poll_interval)``. The queue
    wakes it when a job is submitted or a backed-off retry becomes
    eligible, so ``poll_interval`` bounds only the wait for submitters
    that cannot ring its doorbell (and for queues where no doorbell
    could be made), and the pace of the idle loop's reaper and
    heartbeat.

    ``rules_dir`` names the rule registry referencing jobs resolve
    against (``REPRO_RULES_DIR``, then ``<root>/rules`` — the same
    default the submitting service uses over this directory).
    """
    store = JobStore(root)
    owned = queue is None
    if queue is None:
        queue = FileQueue(root)
    worker_id = worker_id or f"worker-{os.getpid()}-{uuid.uuid4().hex[:6]}"
    if heartbeat_interval is None:
        heartbeat_interval = max(0.05, lease / 3.0)
    runner = JobRunner(
        cache_dir,
        rules_dir=str(resolve_rules_dir(rules_dir, default=Path(root) / "rules")),
    )
    processed = 0
    try:
        while max_jobs is None or processed < max_jobs:
            recover_stale(
                store,
                queue,
                lease=lease,
                backoff_base=backoff_base,
                max_backoff=max_backoff,
            )
            _quiet(write_worker_heartbeat, root, worker_id, processed)
            try:
                ticket = queue.claim(worker_id)
            except OSError:
                # Transient claim fault (disk hiccup, injected): treat
                # as an empty poll and try again.
                ticket = None
            if ticket is None:
                if drain and queue.depth() == 0:
                    break
                queue.wait(poll_interval)
                continue
            processed += 1
            self_describe = f"attempt on {ticket.job_id} by {worker_id}"
            try:
                record = store.get(ticket.job_id)
                record = store.transition(
                    ticket.job_id,
                    "running",
                    expect="queued",
                    attempts=record.attempts + 1,
                    worker=worker_id,
                    heartbeat_at=time.time(),
                )
            except (KeyError, StaleJob, InvalidTransition, CorruptRecord):
                # Deleted, duplicate ticket, terminal, or unreadable:
                # drop the ticket.
                _quiet(queue.ack, ticket)
                continue
            except OSError:
                # The running transition failed to persist; the job is
                # still queued, so the ticket goes straight back.
                _quiet(queue.release, ticket, not_before=time.time())
                continue
            token = CancelToken(deadline=record.deadline)
            if record.cancel_requested:
                token.cancel("cancelled")
            stop = threading.Event()
            beat = threading.Thread(
                target=_heartbeat_loop,
                args=(
                    store,
                    ticket.job_id,
                    worker_id,
                    stop,
                    heartbeat_interval,
                    token,
                ),
                name=self_describe,
                daemon=True,
            )
            beat.start()
            try:
                # The ``worker.execute`` seam sits after the running
                # transition and before any work: an injected crash
                # here leaves exactly the claimed-ticket-plus-running-
                # record state the reaper must recover from.
                faults.fire("worker.execute")
                links, stats, result = runner.run(record, store, cancel=token)
                stop.set()
                beat.join()
                store.save_links(ticket.job_id, links)
            except Exception as error:
                stop.set()
                beat.join()
                fields, retryable = failure_fields(error)
                if retryable:
                    _handle_failure(
                        store,
                        queue,
                        ticket,
                        record,
                        worker_id,
                        fields["error"],
                        backoff_base,
                        max_backoff,
                    )
                else:
                    _handle_terminal(store, queue, ticket, worker_id, fields)
                continue
            try:
                store.transition(
                    ticket.job_id,
                    "succeeded",
                    expect="running",
                    expect_worker=worker_id,
                    stats=stats,
                    result=result,
                    error=None,
                    heartbeat_at=time.time(),
                )
            except (StaleJob, InvalidTransition):
                # Lease reaped mid-run and the job retried elsewhere.
                # Links are deterministic, so the other attempt writes
                # the identical result; this one just steps aside.
                pass
            except OSError:
                # The succeeded transition failed to persist: the job
                # is still running on disk with a stopped heartbeat,
                # so the reaper requeues it after the lease and the
                # deterministic retry writes the identical result.
                continue
            _quiet(queue.ack, ticket)
    finally:
        runner.close()
        if owned:
            queue.close()
        _quiet(write_worker_heartbeat, root, worker_id, processed)
    return processed


def _heartbeat_loop(
    store: JobStore,
    job_id: str,
    worker_id: str,
    stop: threading.Event,
    interval: float,
    token: CancelToken | None = None,
) -> None:
    """Background liveness updates while a job executes; exits as soon
    as the job is no longer this worker's (reaped lease). The beat
    doubles as the cancel relay: an operator ``cancel`` flags the
    record, the beat sees the flag and cancels the run's token, the
    engine raises at its next shard boundary."""
    while not stop.wait(interval):
        record = store.heartbeat(job_id, worker_id)
        if record is None:
            return
        if token is not None and record.cancel_requested:
            token.cancel("cancelled")


def _handle_terminal(
    store: JobStore,
    queue: FileQueue,
    ticket: ClaimTicket,
    worker_id: str,
    fields: dict,
) -> None:
    """Fail a job with no retry, regardless of remaining attempts —
    used for the terminal failures of :func:`failure_fields`
    (cancellation, registry errors, schema gaps), whose ``fields``
    it records."""
    try:
        store.transition(
            ticket.job_id,
            "failed",
            expect="running",
            expect_worker=worker_id,
            heartbeat_at=time.time(),
            **fields,
        )
    except (StaleJob, InvalidTransition, OSError):
        pass
    _quiet(queue.ack, ticket)


def _handle_failure(
    store: JobStore,
    queue: FileQueue,
    ticket: ClaimTicket,
    record: JobRecord,
    worker_id: str,
    error: str,
    backoff_base: float,
    max_backoff: float,
) -> None:
    """Terminal-or-retry bookkeeping after an execution exception."""
    if record.attempts >= record.max_attempts:
        try:
            store.transition(
                ticket.job_id,
                "failed",
                expect="running",
                expect_worker=worker_id,
                error=error,
            )
        except (StaleJob, InvalidTransition, OSError):
            pass
        _quiet(queue.ack, ticket)
        return
    delay = _backoff(record.attempts, backoff_base, max_backoff)
    not_before = time.time() + delay
    try:
        store.transition(
            ticket.job_id,
            "queued",
            expect="running",
            expect_worker=worker_id,
            error=error,
            not_before=not_before,
            worker=None,
            heartbeat_at=None,
        )
    except (StaleJob, InvalidTransition):
        _quiet(queue.ack, ticket)
        return
    except OSError:
        # Couldn't persist the requeue: leave the running record and
        # claimed ticket for the reaper, which retries after the lease.
        return
    _quiet(queue.release, ticket, not_before=not_before)
