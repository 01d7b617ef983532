"""The client-facing service facade: submit, poll, fetch, health.

:class:`LinkageService` binds the three service pieces — job store,
file queue, shared cache dir — behind the API a client (or the
``repro-experiments serve|submit|status|links`` commands) talks to.

With ``queue="inline"`` there is no queue: submissions execute in the
calling process, through the exact same job records, state
transitions, failure handling and engine code path the workers use.
The only observable difference is where the work ran — links, stats
and the record schema are identical, which is what the inline tests
assert.
"""

from __future__ import annotations

import os
import random
import time
from pathlib import Path

from repro.engine.store import CACHE_ENV, ColumnStore
from repro.faults import CancelToken
from repro.matching.engine import GeneratedLink
from repro.registry import RegistryError, RuleRef, RuleRegistry, resolve_rules_dir
from repro.service.jobs import JobRecord, JobStore
from repro.service.queue import FileQueue, resolve_queue
from repro.service.worker import (
    DEFAULT_LEASE,
    JobRunner,
    failure_fields,
    live_workers,
    recover_stale,
)

#: Environment variable naming the default service directory (job
#: records, queue tickets, worker heartbeats) when none is passed.
SERVICE_DIR_ENV = "REPRO_SERVICE_DIR"

#: Environment variable setting the default per-attempt deadline in
#: seconds for submitted jobs (unset/empty: unbounded). An explicit
#: ``deadline=`` argument wins.
DEADLINE_ENV = "REPRO_JOB_DEADLINE"


def _resolve_deadline(deadline: float | None) -> float | None:
    if deadline is not None:
        return deadline
    text = os.environ.get(DEADLINE_ENV, "").strip()
    if not text:
        return None
    value = float(text)
    if value <= 0:
        raise ValueError(f"{DEADLINE_ENV} must be positive, got {text!r}")
    return value


def _resolve_root(root: str | os.PathLike | None) -> Path:
    if root is not None:
        return Path(root)
    env = os.environ.get(SERVICE_DIR_ENV, "")
    if not env:
        raise ValueError(
            f"no service directory: pass root= or set {SERVICE_DIR_ENV}"
        )
    return Path(env)


class LinkageService:
    """A long-lived linkage service over one service directory.

    ``root`` holds everything the service owns: job records, queue
    tickets, worker heartbeats, and (by default) the shared
    :class:`~repro.engine.store.ColumnStore` under ``<root>/cache``.
    ``cache_dir`` overrides the store location (``REPRO_ENGINE_CACHE``
    is consulted next, then the default); every worker process and the
    inline path resolve the same directory, so any job warms all
    later jobs whatever executes them.

    ``queue`` selects the file queue (``file``) or inline execution
    (``inline`` or ``none``); ``None`` consults ``REPRO_SERVICE_QUEUE``,
    and any other value raises ``ValueError``.

    ``rules_dir`` names the rule registry jobs may reference rules from
    (``REPRO_RULES_DIR`` is consulted next, then ``<root>/rules``);
    workers resolving registry references for this service's jobs must
    see the same directory, exactly like the shared cache dir.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        queue: str | None = None,
        cache_dir: str | None = None,
        rules_dir: str | None = None,
        max_attempts: int = 3,
        lease: float = DEFAULT_LEASE,
    ):
        self.root = _resolve_root(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.store = JobStore(self.root)
        self._lease = lease
        self._max_attempts = max_attempts
        self.queue: FileQueue | None = resolve_queue(self.root, queue)
        if cache_dir is not None:
            self.cache_dir = cache_dir
        else:
            self.cache_dir = os.environ.get(CACHE_ENV, "") or str(
                self.root / "cache"
            )
        self.rules_dir = str(
            resolve_rules_dir(rules_dir, default=self.root / "rules")
        )
        self._inline_runner: JobRunner | None = None

    @property
    def registry(self) -> RuleRegistry:
        """The rule registry this service resolves references from."""
        return RuleRegistry(self.rules_dir)

    @property
    def inline(self) -> bool:
        """Whether submissions execute in this process (no queue)."""
        return self.queue is None

    def close(self) -> None:
        """Release the inline runner's engine, if one was created."""
        if self._inline_runner is not None:
            self._inline_runner.close()
            self._inline_runner = None

    def __enter__(self) -> "LinkageService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission --------------------------------------------------------
    def submit(
        self,
        kind: str,
        *,
        dataset: str | None = None,
        rule: RuleRef | str | dict | None = None,
        seed: int = 0,
        scale: float = 1.0,
        parent: str | None = None,
        upserts: int = 0,
        deletes: int = 0,
        population_size: int = 20,
        iterations: int = 5,
        publish: RuleRef | str | None = None,
        deadline: float | None = None,
    ) -> JobRecord:
        """Create a job and hand it to the execution mode in force.

        This is the whole submission surface: ``kind`` selects the job
        (``link``, ``learn``, ``delta``) and keyword fields carry its
        inputs — ``dataset``/``seed``/``scale`` for link and learn jobs,
        ``parent``/``upserts``/``deletes`` for deltas. ``rule`` (link
        jobs) is either an inline rule dict or a registry reference
        (:class:`~repro.registry.RuleRef` or ``tenant/scenario/name
        [@vN|@active]`` string); references are resolved *now*, against
        this service's registry, and the job record stores the pinned
        ``name@vN`` plus content hash — an activation flip after
        submission never changes what the job runs. ``publish`` (learn
        jobs) names the lineage the learned rule is published into.

        A reference that does not resolve (unknown lineage or version,
        ``@active`` with no activation) is a *terminal* submission
        failure: the record is created and immediately failed with the
        registry error — it is never enqueued and never retried, because
        retrying cannot conjure the missing version.

        With a queue: the record is persisted ``queued`` and a ticket
        enqueued — a worker picks it up. Inline: the record runs
        through the identical lifecycle (``queued -> running ->
        succeeded``/``failed``) in this process before returning, so
        callers poll and fetch exactly as they would against workers.

        ``deadline`` bounds each attempt's wall-clock seconds
        (``None`` consults ``REPRO_JOB_DEADLINE``, then unbounded); an
        exceeded deadline fails the job terminally with
        ``error="deadline"``.
        """
        spec = self._build_spec(
            kind,
            dataset=dataset,
            rule=rule,
            seed=seed,
            scale=scale,
            parent=parent,
            upserts=upserts,
            deletes=deletes,
            population_size=population_size,
            iterations=iterations,
            publish=publish,
        )
        if isinstance(rule, (str, RuleRef)):
            error = self._pin_rule_ref(spec, rule)
            if error is not None:
                record = self.store.create(
                    kind,
                    spec,
                    max_attempts=self._max_attempts,
                    deadline=_resolve_deadline(deadline),
                )
                return self.store.transition(
                    record.job_id,
                    "failed",
                    expect="queued",
                    error=f"registry: {error}",
                )
        record = self.store.create(
            kind,
            spec,
            max_attempts=self._max_attempts,
            deadline=_resolve_deadline(deadline),
        )
        if self.queue is not None:
            self.queue.submit(record.job_id)
            return record
        return self._run_inline(record)

    def _build_spec(
        self,
        kind: str,
        *,
        dataset: str | None,
        rule: RuleRef | str | dict | None,
        seed: int,
        scale: float,
        parent: str | None,
        upserts: int,
        deletes: int,
        population_size: int,
        iterations: int,
        publish: RuleRef | str | None,
    ) -> dict:
        """Validate keyword fields for ``kind`` and shape the job spec."""
        if kind == "delta":
            if parent is None:
                raise ValueError("delta jobs need parent=<job id>")
            if rule is not None:
                raise ValueError(
                    "delta jobs replay the parent's rule; rule= is not "
                    "accepted"
                )
            return {
                "parent": parent,
                "seed": seed,
                "upserts": upserts,
                "deletes": deletes,
            }
        if kind not in ("link", "learn"):
            raise ValueError(f"unknown job kind {kind!r}")
        if dataset is None:
            raise ValueError(f"{kind} jobs need dataset=<name>")
        spec: dict = {"dataset": dataset, "seed": seed, "scale": scale}
        if kind == "learn":
            if rule is not None:
                raise ValueError(
                    "learn jobs learn their rule; rule= is not accepted"
                )
            spec["population_size"] = population_size
            spec["iterations"] = iterations
            if publish is not None:
                ref = RuleRef.parse(publish)
                if ref.pinned:
                    raise ValueError(
                        f"publish={str(ref)!r} pins a version; publishing "
                        f"always appends the next one — pass the bare "
                        f"lineage {ref.lineage!r}"
                    )
                spec["publish"] = ref.lineage
            return spec
        if publish is not None:
            raise ValueError("publish= applies to learn jobs only")
        if isinstance(rule, dict):
            spec["rule"] = rule
        return spec

    def _pin_rule_ref(
        self, spec: dict, rule: RuleRef | str
    ) -> RegistryError | None:
        """Resolve a registry reference at submission time.

        On success the spec gains the pinned ``rule_ref`` (always
        ``@vN``, even when the caller said ``@active``) and its
        ``rule_hash``; on a registry failure the *requested* reference
        is recorded and the error returned for the caller to fail the
        job with. A malformed reference raises — that is a caller bug,
        not a registry state."""
        ref = RuleRef.parse(rule)
        spec["rule_ref"] = str(ref)
        try:
            version = self.registry.resolve(ref)
        except RegistryError as error:
            return error
        spec["rule_ref"] = str(version.ref)
        spec["rule_hash"] = version.rule_hash
        return None

    def _run_inline(self, record: JobRecord) -> JobRecord:
        """Inline execution: same transitions, same engine path and
        same failure fields as a worker, but no queue, no worker process
        and no retry. Deadlines apply exactly as they do on workers —
        the run's token is checked at shard boundaries and an expired
        budget fails the job terminally."""
        runner = self._runner()
        record = self.store.transition(
            record.job_id,
            "running",
            expect="queued",
            attempts=record.attempts + 1,
            worker="inline",
            heartbeat_at=time.time(),
        )
        token = CancelToken(deadline=record.deadline)
        try:
            links, stats, result = runner.run(record, self.store, cancel=token)
        except Exception as error:
            fields, _ = failure_fields(error)
            return self.store.transition(
                record.job_id, "failed", expect="running", **fields
            )
        self.store.save_links(record.job_id, links)
        return self.store.transition(
            record.job_id,
            "succeeded",
            expect="running",
            stats=stats,
            result=result,
            error=None,
        )

    def _runner(self) -> JobRunner:
        if self._inline_runner is None:
            self._inline_runner = JobRunner(
                self.cache_dir, rules_dir=self.rules_dir
            )
        return self._inline_runner

    # -- polling and results -----------------------------------------------
    def status(self, job_id: str) -> JobRecord:
        """The job's current record (raises ``KeyError`` if unknown)."""
        return self.store.get(job_id)

    def wait(
        self,
        job_id: str,
        timeout: float = 60.0,
        poll: float = 0.1,
        max_poll: float = 2.0,
    ) -> JobRecord:
        """Block until the job reaches a terminal state.

        Runs the reaper between polls (with a queue), so a submitter
        waiting on a crashed worker sees the retry happen rather than
        a silent hang; raises ``TimeoutError`` when the budget runs
        out first.

        Polling backs off exponentially from ``poll`` up to
        ``max_poll`` with jitter: short jobs still resolve within
        ~``poll`` seconds, while long waits converge to one jittered
        store read every couple of seconds instead of hammering the
        job store (and de-synchronise concurrent waiters) — a fixed
        0.1s busy-poll multiplied across clients was measurable I/O
        load for zero added latency benefit.
        """
        deadline = time.monotonic() + timeout
        interval = max(0.001, poll)
        jitter = random.Random()
        while True:
            record = self.store.get(job_id)
            if record.state in ("succeeded", "failed"):
                return record
            now = time.monotonic()
            if now >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record.state!r} after {timeout}s"
                )
            if self.queue is not None:
                recover_stale(self.store, self.queue, lease=self._lease)
            sleep_for = min(
                interval * jitter.uniform(0.8, 1.25), deadline - now
            )
            time.sleep(max(0.0, sleep_for))
            interval = min(max_poll, interval * 1.6)

    def links(self, job_id: str) -> list[GeneratedLink]:
        """A succeeded job's links, exact to the executing engine's
        output (``KeyError`` when the job has no stored links)."""
        return self.store.load_links(job_id)

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a job: queued jobs fail immediately, running jobs are
        flagged for cooperative cancellation (the executing worker's
        heartbeat loop relays the flag and the engine stops at its next
        shard boundary). Terminal jobs raise ``ValueError`` — there is
        nothing left to cancel."""
        record = self.store.get(job_id)
        if record.state == "queued":
            # The ticket stays in the queue; whichever worker claims it
            # sees the terminal record and drops it.
            return self.store.transition(
                job_id, "failed", expect="queued", error="cancelled"
            )
        if record.state == "running":
            return self.store.request_cancel(job_id)
        raise ValueError(
            f"job {job_id} is {record.state!r}; only queued or running "
            f"jobs can be cancelled"
        )

    def requeue(self, job_id: str) -> JobRecord:
        """Re-enqueue a ``queued`` job whose ticket was lost (operator
        escape hatch; inline services just re-run it)."""
        record = self.store.get(job_id)
        if record.state != "queued":
            raise ValueError(
                f"job {job_id} is {record.state!r}; only queued jobs requeue"
            )
        if self.queue is None:
            return self._run_inline(record)
        self.queue.submit(job_id, not_before=record.not_before)
        return record

    # -- health ------------------------------------------------------------
    def health(self) -> dict:
        """One structured snapshot of queue, store, workers and jobs.

        ``mode`` is ``"queue"`` or ``"inline"``. ``workers`` lists
        liveness records with a fresh heartbeat; ``store`` summarises
        the shared persistent cache (including its circuit-breaker
        state).

        ``degradations`` is the one schema every degraded path reports
        under: a list of ``{"component", "scope", "reason"}`` dicts,
        where ``component`` is ``"store"`` (a run recorded
        circuit-breaker trips via ``MatchStats.degraded``) or
        ``"registry"`` (a job failed on reference resolution or a
        schema gap), and ``scope`` is the affected job id. Empty means
        nothing degraded anywhere. Running the reaper first means the
        snapshot reflects recovered state, not stale claims.
        """
        if self.queue is not None:
            recover_stale(self.store, self.queue, lease=self._lease)
        store_info: dict | None = None
        if self.cache_dir:
            try:
                store_info = ColumnStore(self.cache_dir).describe()
            except OSError:  # pragma: no cover - unreadable cache dir
                store_info = None
        degradations: list[dict] = []
        for record in self.store.records():
            for reason in (record.stats or {}).get("degraded") or []:
                degradations.append(
                    {
                        "component": "store",
                        "scope": record.job_id,
                        "reason": reason,
                    }
                )
            error = record.error or ""
            if record.state == "failed" and error.startswith(
                ("registry:", "schema gap:")
            ):
                degradations.append(
                    {
                        "component": "registry",
                        "scope": record.job_id,
                        "reason": error,
                    }
                )
        return {
            "mode": "inline" if self.queue is None else "queue",
            "queue": None if self.queue is None else self.queue.describe(),
            "jobs": self.store.state_counts(),
            "workers": live_workers(self.root, lease=self._lease),
            "store": store_info,
            "degradations": degradations,
        }
