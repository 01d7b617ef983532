"""Pluggable job queues: file-backed default, optional redis.

The queue carries only job *ids* — the payload lives in the
:class:`~repro.service.jobs.JobStore` — so a backend needs exactly
four operations: submit, claim, ack, release. The file backend builds
mutual exclusion out of ``os.rename``: a ready ticket is one file
under ``<root>/queue/ready/``, claiming renames it into
``<root>/queue/claimed/``, and POSIX rename atomicity guarantees
exactly one winner however many workers race. A crashed worker leaves
its claimed ticket behind; :func:`repro.service.worker.recover_stale`
turns those back into ready tickets with backoff.

Ticket filenames are ``<not_before_ms>-<submit_ns>-<job_id>``:
lexicographic order is eligibility order, so claiming is one sorted
directory listing, and retry backoff is encoded in the name instead of
requiring a scheduler. A claim appends ``--<worker_id>``, so worker ids
may not contain ``--`` (nor ``/``, like job ids).

An idle worker blocks in :meth:`QueueBackend.wait` between claims. The
file backend wakes it on submit through a doorbell, a named pipe at
``<root>/queue/doorbell``: every submit (and so every release) writes
one byte to it without blocking, and the waiter holds the read end open
and blocks in ``select`` until a byte arrives or its timeout ends. A
byte rung while the worker was busy stays in the pipe, so its next wait
returns at once. A submitter that cannot reach the pipe (another host
on a shared filesystem) rings nobody, so its jobs wait up to the
worker's timeout as before. Where no named pipe can be made, waits
sleep their timeout and ``describe()`` reports ``"wake": "poll"``; the
redis backend always sleeps.

The redis backend is import-gated: the container may not ship the
``redis`` package, so :meth:`RedisQueue.available` reports whether it
can run and :func:`resolve_queue` degrades to ``None`` (inline
execution) instead of failing when it cannot.
"""

from __future__ import annotations

import os
import select
import time
from dataclasses import dataclass
from pathlib import Path

from repro import faults

#: Environment variable selecting the queue backend when a service is
#: constructed without an explicit ``queue=`` (values: ``file`` — the
#: default — ``redis``, ``inline``/``none`` to force inline execution).
QUEUE_ENV = "REPRO_SERVICE_QUEUE"

#: Environment variable naming a live redis server url. Doubles as the
#: :class:`RedisQueue` default url and as the integration-test gate
#: (``tests/test_redis_queue.py`` skips cleanly when unset).
REDIS_URL_ENV = "REPRO_TEST_REDIS_URL"

#: Fallback url when neither an argument nor the environment names one.
_DEFAULT_REDIS_URL = "redis://localhost:6379/0"


def _default_redis_url() -> str:
    return os.environ.get(REDIS_URL_ENV, "").strip() or _DEFAULT_REDIS_URL


def _check_id(kind: str, value: str, *forbidden: str) -> None:
    """Reject ids that cannot be embedded in a ticket file name."""
    if not value or value != value.strip() or any(part in value for part in forbidden):
        raise ValueError(f"unsupported {kind} for file queue: {value!r}")


@dataclass(frozen=True)
class ClaimTicket:
    """A successfully claimed queue entry: the job to run plus the
    backend token (file path / redis entry) to ack or release it."""

    job_id: str
    token: str


class QueueBackend:
    """Interface of a job queue backend.

    All methods operate on job ids; payloads live in the job store.
    Backends must be safe for concurrent submitters and claimers in
    separate processes.
    """

    #: Short backend name for health checks and logs.
    name = "abstract"

    def submit(self, job_id: str, not_before: float = 0.0) -> None:
        """Enqueue a job id, eligible for claiming at ``not_before``
        (a wall-clock timestamp; 0 = immediately)."""
        raise NotImplementedError

    def claim(self, worker_id: str) -> ClaimTicket | None:
        """Atomically take the oldest eligible entry, or ``None`` when
        nothing is eligible right now."""
        raise NotImplementedError

    def ack(self, ticket: ClaimTicket) -> None:
        """Drop a claimed entry for good (job finished, terminally)."""
        raise NotImplementedError

    def release(self, ticket: ClaimTicket, not_before: float = 0.0) -> None:
        """Return a claimed entry to the queue (retry with backoff)."""
        raise NotImplementedError

    def depth(self) -> int:
        """Entries waiting to be claimed (eligible or backing off)."""
        raise NotImplementedError

    def claimed(self) -> list[tuple[str, str, float]]:
        """In-flight claims as ``(job_id, token, claimed_at)`` — the
        reaper's input for crash recovery."""
        raise NotImplementedError

    def wait(self, timeout: float) -> None:
        """Block an idle worker for at most ``timeout`` seconds before
        its next claim. Backends that can tell when a job arrives return
        earlier; this default just sleeps."""
        time.sleep(timeout)

    def describe(self) -> dict:
        """Backend summary for health checks."""
        return {
            "backend": self.name,
            "depth": self.depth(),
            "claimed": len(self.claimed()),
        }


class FileQueue(QueueBackend):
    """Directory-backed queue with atomic-rename claiming.

    Requires no services and no locks: submission is one atomic JSON-
    free file creation, claiming is one ``os.rename`` race that exactly
    one worker wins, and crash recovery is a directory scan. Suited to
    single-host worker fleets sharing a filesystem — the same scope as
    the shared :class:`~repro.engine.store.ColumnStore` cache dir.

    :meth:`wait` holds the doorbell's read end open until :meth:`close`;
    one waiting thread per instance.
    """

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
        faults.fire("queue.ack")
        try:
            os.unlink(ticket.token)
        except FileNotFoundError:
            pass

    def release(self, ticket: ClaimTicket, not_before: float = 0.0) -> None:
        self.submit(ticket.job_id, not_before=not_before)
        self.ack(ticket)

    def depth(self) -> int:
        return sum(1 for _ in self._ready.iterdir())

    def claimed(self) -> list[tuple[str, str, float]]:
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
        return {
            **super().describe(),
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


def _redis_module():
    """The ``redis`` package, or ``None`` when not importable (the
    container intentionally does not bundle it)."""
    try:
        import redis
    except ImportError:
        return None
    return redis


class RedisQueue(QueueBackend):
    """Redis-list-backed queue for multi-host worker fleets.

    Submission pushes the job id onto a ready list; claiming moves it
    atomically onto a per-worker processing list (``LMPOP``-free
    ``RPOPLPUSH`` pattern, available on every redis version); acking
    removes it from the processing list. Backoff rides in the job
    record's ``not_before`` — an ineligible claim is released straight
    back. Only constructed when the ``redis`` package imports *and*
    the server answers a ping; otherwise :func:`resolve_queue`
    degrades to inline execution.
    """

    name = "redis"

    def __init__(self, url: str | None = None, prefix: str = "repro"):
        module = _redis_module()
        if module is None:
            raise RuntimeError(
                "the redis package is not installed; use the file queue "
                "or inline execution"
            )
        if url is None:
            url = _default_redis_url()
        self._redis = module.Redis.from_url(url, decode_responses=True)
        self._ready_key = f"{prefix}:queue:ready"
        self._claimed_prefix = f"{prefix}:queue:claimed:"
        self._redis.ping()

    @classmethod
    def available(cls, url: str | None = None) -> bool:
        """Whether this backend can run here (package importable and
        server reachable) — the degradation probe. ``url=None``
        consults :data:`REDIS_URL_ENV` before the localhost default."""
        module = _redis_module()
        if module is None:
            return False
        if url is None:
            url = _default_redis_url()
        try:
            module.Redis.from_url(url, socket_connect_timeout=0.5).ping()
        except Exception:
            return False
        return True

    def submit(self, job_id: str, not_before: float = 0.0) -> None:
        # Eligibility is enforced at claim time from the job record;
        # the entry itself carries the earliest-start timestamp.
        self._redis.lpush(self._ready_key, f"{not_before!r}|{job_id}")

    def claim(self, worker_id: str) -> ClaimTicket | None:
        faults.fire("queue.claim")
        claimed_key = self._claimed_prefix + worker_id
        entry = self._redis.rpoplpush(self._ready_key, claimed_key)
        if entry is None:
            return None
        not_before_text, _, job_id = entry.partition("|")
        try:
            not_before = float(not_before_text)
        except ValueError:
            not_before, job_id = 0.0, entry
        if not_before > time.time():
            # Not eligible yet: put it back and report empty-handed.
            self._redis.lrem(claimed_key, 1, entry)
            self._redis.lpush(self._ready_key, entry)
            return None
        return ClaimTicket(job_id=job_id, token=f"{claimed_key}|{entry}")

    def ack(self, ticket: ClaimTicket) -> None:
        faults.fire("queue.ack")
        claimed_key, _, entry = ticket.token.partition("|")
        self._redis.lrem(claimed_key, 1, entry)

    def release(self, ticket: ClaimTicket, not_before: float = 0.0) -> None:
        self.ack(ticket)
        self.submit(ticket.job_id, not_before=not_before)

    def depth(self) -> int:
        return int(self._redis.llen(self._ready_key))

    def claimed(self) -> list[tuple[str, str, float]]:
        entries: list[tuple[str, str, float]] = []
        now = time.time()
        for key in self._redis.keys(self._claimed_prefix + "*"):
            for entry in self._redis.lrange(key, 0, -1):
                job_id = entry.partition("|")[2] or entry
                entries.append((job_id, f"{key}|{entry}", now))
        return entries


def resolve_queue(
    root: str | os.PathLike,
    backend: str | None = None,
) -> tuple[QueueBackend | None, str | None]:
    """Resolve a queue backend spec to ``(queue, degradation_reason)``.

    ``backend=None`` consults :data:`QUEUE_ENV` (default ``file``).
    ``inline``/``none``/empty force inline execution deliberately
    (reason ``None`` — that is a configuration, not a degradation);
    ``redis`` degrades with a reason when the package or server is
    unavailable, so :class:`~repro.service.service.LinkageService`
    keeps working on machines without redis.
    """
    spec = backend if backend is not None else os.environ.get(QUEUE_ENV, "file")
    text = spec.strip().lower() or "file"
    if text in ("inline", "none"):
        return None, None
    if text == "file":
        return FileQueue(root), None
    if text == "redis":
        if not RedisQueue.available():
            return None, "redis backend unavailable (package or server missing)"
        return RedisQueue(), None
    raise ValueError(
        f"unknown queue backend {spec!r}: expected file, redis, or inline"
    )
