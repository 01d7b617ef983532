"""Job records and the file-backed job store.

A job is one unit of service work — generate links, learn a rule, or
re-derive links after a source delta — recorded as a single JSON file
under ``<root>/jobs/``. The store follows the persistence discipline
of :class:`repro.engine.store.ColumnStore`: every write lands in a
temporary file first and is published with an atomic ``os.replace``,
so concurrent readers (pollers, health checks, the reaper) never see a
torn record and a crashed writer leaves at most an orphaned temp file.

State transitions go through :meth:`JobStore.transition`, which
re-reads the record and validates the edge against the expected
current state (and, for workers, the expected claim owner) before
publishing — a worker whose lease was reaped mid-run fails its final
``running -> succeeded`` transition with :class:`StaleJob` instead of
silently overwriting the retry's record.

Generated links are stored next to the records under ``<root>/links/``
as exact ``(uid_a, uid_b, score)`` triples: JSON serialises floats via
``repr``, which round-trips IEEE doubles exactly, so links fetched
from a job record compare byte-identical to a direct
:meth:`repro.matching.engine.MatchingEngine.execute`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro import faults
from repro.matching.engine import GeneratedLink

#: Lifecycle states of a job record.
JOB_STATES = ("queued", "running", "succeeded", "failed")

#: Work kinds the service executes (see :mod:`repro.service.worker`).
JOB_KINDS = ("link", "learn", "delta")

#: Legal lifecycle edges. ``running -> queued`` is the retry path (a
#: crashed or reaped attempt goes back on the queue with backoff).
_TRANSITIONS = frozenset(
    [
        ("queued", "running"),
        ("running", "succeeded"),
        ("running", "failed"),
        ("running", "queued"),
        ("queued", "failed"),
    ]
)


class InvalidTransition(RuntimeError):
    """A requested lifecycle edge is not in the transition table."""


class StaleJob(RuntimeError):
    """The record on disk no longer matches the expected state/owner —
    another process (a retry after a reaped lease) took the job over."""


class CorruptRecord(RuntimeError):
    """A job record that persistently fails to parse. With atomic
    publication this should be unreachable — seeing it means the
    storage layer broke its rename guarantee (or something external
    damaged the file), so it is surfaced loudly rather than treated as
    an unknown job."""


@dataclass
class JobRecord:
    """One service job: payload, lifecycle state and bookkeeping.

    ``spec`` is the client-supplied work description (dataset, seed,
    scale, rule JSON, learn config, delta parameters — see
    :mod:`repro.service.worker` for the per-kind schema). ``stats``
    holds the executed run's :class:`~repro.matching.engine.MatchStats`
    as a ``dataclasses.asdict`` payload (tuples become JSON lists:
    consumers index fields, they don't rebuild the dataclass),
    ``result`` the kind-specific outcome summary (link counts,
    learned-rule JSON, diff buckets).
    """

    job_id: str
    kind: str
    spec: dict
    state: str = "queued"
    #: Claim attempts so far (incremented when a worker takes the job).
    attempts: int = 0
    max_attempts: int = 3
    created_at: float = 0.0
    updated_at: float = 0.0
    #: Earliest wall-clock time the next attempt may start (backoff).
    not_before: float = 0.0
    #: Worker id of the current/last attempt.
    worker: str | None = None
    #: Last liveness signal from the executing worker.
    heartbeat_at: float | None = None
    error: str | None = None
    stats: dict | None = None
    result: dict | None = None
    #: Per-attempt wall-clock budget in seconds (None: unbounded). The
    #: worker arms a :class:`~repro.faults.CancelToken` with it; an
    #: expired deadline is a terminal ``running -> failed`` transition
    #: with ``error="deadline"`` — never a retry, a too-slow job would
    #: just time out again.
    deadline: float | None = None
    #: Operator cancellation flag (the ``cancel`` verb). The executing
    #: worker's heartbeat loop observes it and cancels the run at the
    #: next shard boundary.
    cancel_requested: bool = False

    def to_payload(self) -> dict:
        """JSON-safe dict form of this record."""
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "JobRecord":
        """Rebuild a record from :meth:`to_payload` output."""
        return cls(**payload)


def _atomic_write_json(path: Path, payload) -> None:
    """Publish ``payload`` at ``path`` via temp file + ``os.replace``
    (the store-wide atomicity discipline: readers see the old file or
    the new file, never a partial one)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        # The ``jobs.write`` seam sits between content and publication:
        # an injected torn/ENOSPC fault here must leave the previous
        # record intact (the unlink below discards the temp file).
        faults.fire("jobs.write", tmp_path=tmp)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class JobStore:
    """File-backed job records with validated atomic state transitions.

    One JSON file per job under ``<root>/jobs/``, links under
    ``<root>/links/``. Safe for concurrent processes: writes are
    atomic replaces, and :meth:`transition` validates the edge against
    the freshly-read record so racing writers fail loudly
    (:class:`StaleJob`) instead of clobbering each other's state.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self._jobs = self.root / "jobs"
        self._links = self.root / "links"

    # -- record I/O --------------------------------------------------------
    def create(
        self,
        kind: str,
        spec: dict,
        max_attempts: int = 3,
        job_id: str | None = None,
        deadline: float | None = None,
    ) -> JobRecord:
        """Create and persist a new queued job record. ``deadline``
        bounds each attempt's wall-clock seconds (None: unbounded)."""
        if kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {kind!r}; expected {JOB_KINDS}")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        now = time.time()
        record = JobRecord(
            job_id=job_id or f"job-{uuid.uuid4().hex[:12]}",
            kind=kind,
            spec=dict(spec),
            max_attempts=max_attempts,
            created_at=now,
            updated_at=now,
            deadline=deadline,
        )
        if self._record_path(record.job_id).exists():
            raise ValueError(f"job id {record.job_id!r} already exists")
        self.save(record)
        return record

    def save(self, record: JobRecord) -> None:
        """Persist a record (atomic replace)."""
        record.updated_at = time.time()
        _atomic_write_json(
            self._record_path(record.job_id), record.to_payload()
        )

    def get(self, job_id: str) -> JobRecord:
        """Load one record; raises ``KeyError`` for unknown ids.

        A parse failure is retried once (pure paranoia — atomic
        renames mean readers should never see partial JSON) and then
        surfaced as :class:`CorruptRecord`, not swallowed: a record
        that exists but cannot be read is an integrity violation the
        operator must see."""
        path = self._record_path(job_id)
        last_error: ValueError | None = None
        for _ in range(2):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except FileNotFoundError:
                raise KeyError(f"unknown job {job_id!r}") from None
            except ValueError as error:
                last_error = error
                continue
            return JobRecord.from_payload(payload)
        raise CorruptRecord(
            f"job record {job_id!r} at {path} is unreadable: {last_error}"
        )

    def job_ids(self) -> list[str]:
        """All known job ids, sorted."""
        if not self._jobs.is_dir():
            return []
        return sorted(
            path.stem
            for path in self._jobs.iterdir()
            if path.suffix == ".json"
        )

    def records(self) -> Iterator[JobRecord]:
        """All records, in job-id order."""
        for job_id in self.job_ids():
            try:
                yield self.get(job_id)
            except KeyError:  # pragma: no cover - deleted mid-iteration
                continue
            except CorruptRecord:
                # Aggregate views stay usable with one damaged record;
                # a direct ``get`` of that id still raises loudly.
                continue

    def state_counts(self) -> dict[str, int]:
        """``{state: record count}`` over every known job."""
        counts = {state: 0 for state in JOB_STATES}
        for record in self.records():
            counts[record.state] = counts.get(record.state, 0) + 1
        return counts

    # -- lifecycle ---------------------------------------------------------
    def transition(
        self,
        job_id: str,
        to_state: str,
        expect: str,
        expect_worker: str | None = None,
        **fields,
    ) -> JobRecord:
        """Move a job along one validated lifecycle edge.

        Re-reads the record, checks it is still in ``expect`` (and, if
        ``expect_worker`` is given, still owned by that worker), checks
        the edge is legal, applies ``fields`` and publishes. Raises
        :class:`StaleJob` when the record moved underneath the caller
        and :class:`InvalidTransition` for an illegal edge — the two
        failure modes a retry loop must distinguish.
        """
        record = self.get(job_id)
        if record.state != expect:
            raise StaleJob(
                f"job {job_id} is {record.state!r}, expected {expect!r}"
            )
        if expect_worker is not None and record.worker != expect_worker:
            raise StaleJob(
                f"job {job_id} is owned by {record.worker!r}, "
                f"expected {expect_worker!r}"
            )
        if (record.state, to_state) not in _TRANSITIONS:
            raise InvalidTransition(
                f"illegal transition {record.state!r} -> {to_state!r} "
                f"for job {job_id}"
            )
        record.state = to_state
        for name, value in fields.items():
            if not hasattr(record, name):
                raise AttributeError(f"JobRecord has no field {name!r}")
            setattr(record, name, value)
        self.save(record)
        return record

    def request_cancel(self, job_id: str) -> JobRecord:
        """Flag a running job for cooperative cancellation.

        The executing worker's heartbeat loop sees the flag and cancels
        the run at its next shard boundary. Raises ``ValueError`` for
        jobs not currently running (queued jobs are cancelled by the
        service via a direct ``queued -> failed`` transition; terminal
        jobs have nothing to cancel)."""
        record = self.get(job_id)
        if record.state != "running":
            raise ValueError(
                f"job {job_id} is {record.state!r}; only running jobs "
                f"take a cancel request"
            )
        record.cancel_requested = True
        self.save(record)
        return record

    def heartbeat(self, job_id: str, worker: str) -> JobRecord | None:
        """Refresh a running job's liveness signal; returns the fresh
        record, or ``None`` (without writing) when the job is no longer
        this worker's. A transient write failure still returns the
        record — liveness is best-effort and the next beat retries."""
        try:
            record = self.get(job_id)
        except (KeyError, CorruptRecord):
            return None
        if record.state != "running" or record.worker != worker:
            return None
        record.heartbeat_at = time.time()
        try:
            self.save(record)
        except OSError:
            pass
        return record

    # -- links -------------------------------------------------------------
    def save_links(self, job_id: str, links: Iterable[GeneratedLink]) -> int:
        """Persist a job's generated links; returns the link count."""
        triples = [
            [link.uid_a, link.uid_b, link.score] for link in links
        ]
        _atomic_write_json(self._links_path(job_id), triples)
        return len(triples)

    def load_links(self, job_id: str) -> list[GeneratedLink]:
        """A job's persisted links as exact :class:`GeneratedLink`
        values (float scores round-trip bit-for-bit through JSON)."""
        path = self._links_path(job_id)
        try:
            triples = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise KeyError(f"no links stored for job {job_id!r}") from None
        return [
            GeneratedLink(uid_a, uid_b, float(score))
            for uid_a, uid_b, score in triples
        ]

    def describe(self) -> dict:
        """Store summary for health checks."""
        return {
            "path": str(self.root),
            "jobs": self.state_counts(),
        }

    def _record_path(self, job_id: str) -> Path:
        return self._jobs / f"{job_id}.json"

    def _links_path(self, job_id: str) -> Path:
        return self._links / f"{job_id}.json"
