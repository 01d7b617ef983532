"""The file-backed job queue.

The queue carries only job *ids* — the payload lives in the
:class:`~repro.service.jobs.JobStore` — so it needs exactly four
operations: submit, claim, ack, release. Mutual exclusion comes from
``os.rename``: a ready ticket is one file under ``<root>/queue/ready/``,
claiming renames it into ``<root>/queue/claimed/``, and POSIX rename
atomicity guarantees exactly one winner however many workers race. A
crashed worker leaves its claimed ticket behind;
:func:`repro.service.worker.recover_stale` turns those back into ready
tickets with backoff.

Ticket filenames are ``<not_before_ms>-<submit_ns>-<job_id>``:
lexicographic order is eligibility order, so claiming is one sorted
directory listing, and retry backoff is encoded in the name instead of
requiring a scheduler. A claim appends ``--<worker_id>``, so worker ids
may not contain ``--`` (nor ``/``, like job ids).

An idle worker blocks in :meth:`FileQueue.wait` between claims. The
queue wakes it on submit through a doorbell, a named pipe at
``<root>/queue/doorbell``: every submit (and so every release) writes
one byte to it without blocking, and the waiter holds the read end open
and blocks in ``select`` until a byte arrives or its timeout ends. A
byte rung while the worker was busy stays in the pipe, so its next wait
returns at once. A submitter that cannot reach the pipe (another host
on a shared filesystem) rings nobody, so its jobs wait up to the
worker's timeout as before. Where no named pipe can be made, waits
sleep their timeout and ``describe()`` reports ``"wake": "poll"``.
"""

from __future__ import annotations

import os
import select
import time
from dataclasses import dataclass
from pathlib import Path

from repro import faults

#: Environment variable selecting the queue when a service is
#: constructed without an explicit ``queue=`` (values: ``file`` — the
#: default — or ``inline``/``none`` to execute submissions in-process).
QUEUE_ENV = "REPRO_SERVICE_QUEUE"


def _check_id(kind: str, value: str, *forbidden: str) -> None:
    """Reject ids that cannot be embedded in a ticket file name."""
    if not value or value != value.strip() or any(part in value for part in forbidden):
        raise ValueError(f"unsupported {kind} for file queue: {value!r}")


@dataclass(frozen=True)
class ClaimTicket:
    """A successfully claimed queue entry: the job to run plus the
    claimed ticket's path, to ack or release it."""

    job_id: str
    token: str


class FileQueue:
    """Directory-backed queue with atomic-rename claiming.

    Requires no services and no locks: submission is one atomic JSON-
    free file creation, claiming is one ``os.rename`` race that exactly
    one worker wins, and crash recovery is a directory scan. Suited to
    single-host worker fleets sharing a filesystem — the same scope as
    the shared :class:`~repro.engine.store.ColumnStore` cache dir.

    :meth:`wait` holds the doorbell's read end open until :meth:`close`;
    one waiting thread per instance. Every method is safe for
    concurrent submitters and claimers in separate processes.
    """

    #: Queue name for health checks and logs.
    name = "file"

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self._ready = self.root / "queue" / "ready"
        self._claimed = self.root / "queue" / "claimed"
        self._ready.mkdir(parents=True, exist_ok=True)
        self._claimed.mkdir(parents=True, exist_ok=True)
        self._doorbell: Path | None = self.root / "queue" / "doorbell"
        try:
            os.mkfifo(self._doorbell)
        except OSError:
            pass  # made by another queue, or no named pipes here
        if not self._doorbell.is_fifo():
            self._doorbell = None
        self._bell: int | None = None  # read end, opened by wait
        self._next_eligible = 0.0  # head ticket's not_before, if backing off

    def submit(self, job_id: str, not_before: float = 0.0) -> None:
        """Enqueue a job id, eligible for claiming at ``not_before``
        (a wall-clock timestamp; 0 = immediately)."""
        _check_id("job id", job_id, "/")
        # Two fixed-width numeric fields then the job id: parsing
        # splits on the first two dashes, so ids may contain dashes.
        name = f"{int(max(0.0, not_before) * 1000):015d}-{time.time_ns():020d}-{job_id}"
        path = self._ready / name
        with open(path, "x", encoding="utf-8") as handle:
            handle.write(job_id)
        if self._doorbell is not None:
            try:
                bell = os.open(self._doorbell, os.O_WRONLY | os.O_NONBLOCK)
                try:
                    os.write(bell, b"\0")
                finally:
                    os.close(bell)
            except OSError:
                pass  # ENXIO: no worker waits; EAGAIN: already ringing

    def claim(self, worker_id: str) -> ClaimTicket | None:
        """Atomically take the oldest eligible ticket, or ``None`` when
        nothing is eligible right now."""
        _check_id("worker id", worker_id, "/", "--")
        self._next_eligible = 0.0
        faults.fire("queue.claim")
        now_ms = int(time.time() * 1000)
        for path in sorted(self._ready.iterdir()):
            not_before_ms, _, job_id = self._parse(path.name)
            if job_id is None:
                continue
            if not_before_ms > now_ms:
                # Names sort by eligibility time first: everything
                # after this entry is even further in the future.
                self._next_eligible = not_before_ms / 1000
                return None
            target = self._claimed / f"{path.name}--{worker_id}"
            try:
                os.rename(path, target)
            except FileNotFoundError:
                continue  # another worker won this ticket
            return ClaimTicket(job_id=job_id, token=str(target))
        return None

    def ack(self, ticket: ClaimTicket) -> None:
        """Drop a claimed ticket for good (job finished, terminally)."""
        faults.fire("queue.ack")
        try:
            os.unlink(ticket.token)
        except FileNotFoundError:
            pass

    def release(self, ticket: ClaimTicket, not_before: float = 0.0) -> None:
        """Return a claimed ticket to the queue (retry with backoff)."""
        self.submit(ticket.job_id, not_before=not_before)
        self.ack(ticket)

    def depth(self) -> int:
        """Tickets waiting to be claimed (eligible or backing off)."""
        return sum(1 for _ in self._ready.iterdir())

    def claimed(self) -> list[tuple[str, str, float]]:
        """In-flight claims as ``(job_id, token, claimed_at)`` — the
        reaper's input for crash recovery."""
        entries: list[tuple[str, str, float]] = []
        for path in sorted(self._claimed.iterdir()):
            base = path.name.rsplit("--", 1)[0]
            _, _, job_id = self._parse(base)
            if job_id is None:
                continue
            try:
                claimed_at = path.stat().st_mtime
            except FileNotFoundError:
                continue
            entries.append((job_id, str(path), claimed_at))
        return entries

    def wait(self, timeout: float) -> None:
        """Block until a submit rings the doorbell or ``timeout`` ends,
        but no later than the moment the backing-off ticket that the
        last claim stopped at becomes eligible.

        The first call only opens the read end and returns at once: a
        ticket submitted before then rang nobody, and the caller's next
        claim finds it. The read end is opened read-write, because a
        read-only end reports end-of-file whenever no writer is open,
        which would end every wait at once.
        """
        if self._next_eligible:
            timeout = min(timeout, max(0.0, self._next_eligible - time.time()))
        if self._doorbell is None:
            time.sleep(timeout)
            return
        if self._bell is None:
            try:
                self._bell = os.open(self._doorbell, os.O_RDWR | os.O_NONBLOCK)
            except OSError:
                self._doorbell = None
                time.sleep(timeout)
            return
        if select.select([self._bell], [], [], timeout)[0]:
            try:
                while len(os.read(self._bell, 4096)) == 4096:
                    pass
            except BlockingIOError:
                pass  # drained, possibly by another waiter first

    def close(self) -> None:
        """Release the doorbell's read end, if :meth:`wait` opened it."""
        if self._bell is not None:
            os.close(self._bell)
            self._bell = None

    def describe(self) -> dict:
        """Queue summary for health checks."""
        return {
            "backend": self.name,
            "depth": self.depth(),
            "claimed": len(self.claimed()),
            "wake": "poll" if self._doorbell is None else "doorbell",
        }

    @staticmethod
    def _parse(name: str) -> tuple[int, int, str | None]:
        parts = name.split("-", 2)
        if len(parts) != 3:
            return 0, 0, None
        try:
            return int(parts[0]), int(parts[1]), parts[2]
        except ValueError:
            return 0, 0, None


def resolve_queue(
    root: str | os.PathLike, backend: str | None = None
) -> FileQueue | None:
    """Resolve a queue spec to the queue, or ``None`` for inline
    execution.

    ``backend=None`` consults :data:`QUEUE_ENV` (default ``file``);
    ``inline``/``none`` select inline execution in the submitting
    process. Any other value raises ``ValueError``.
    """
    spec = backend if backend is not None else os.environ.get(QUEUE_ENV, "file")
    text = spec.strip().lower() or "file"
    if text in ("inline", "none"):
        return None
    if text == "file":
        return FileQueue(root)
    raise ValueError(f"unknown queue {spec!r}: expected file, inline or none")
