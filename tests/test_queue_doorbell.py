"""The file queue's doorbell: idle workers wake on submit, not on a poll.

The contracts under test:

- **Wake-up** — a submit from this process or another one ends a
  worker's wait within milliseconds, however long ``poll_interval``
  is; a byte rung while nobody was waiting is not lost.
- **No spin, no block** — with nobody ringing a wait lasts its
  timeout, also after a writer hung up; submits never block or raise
  when no worker holds the pipe or when it is full.
- **Fallback** — where no named pipe can be made, submits still
  enqueue, waits sleep their timeout and ``health()`` says ``poll``.
- **Ticket names** — worker ids that would corrupt a claimed ticket's
  name are rejected, and a backed-off retry is claimed when it
  becomes eligible, not a poll interval later.

Timing margins are wide: the suite runs on small shared hosts.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.service import FileQueue, LinkageService, run_worker

SRC = str(Path(__file__).resolve().parents[1] / "src")

DATASET = "restaurant"
SCALE = 0.2


def doorbell(root) -> Path:
    return Path(root) / "queue" / "doorbell"


def open_doorbell_fds(root) -> int:
    """How many of this process's file descriptors hold the doorbell."""
    target = str(doorbell(root))
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}") == target
        except OSError:
            continue  # closed while listing
    return count


def timed_wait(queue: FileQueue, timeout: float) -> float:
    started = time.monotonic()
    queue.wait(timeout)
    return time.monotonic() - started


def opened(queue: FileQueue) -> FileQueue:
    """The queue after its first wait, which opens the read end."""
    queue.wait(0.0)
    return queue


def start_worker(root, **kwargs) -> tuple[threading.Thread, list]:
    """A ``run_worker`` thread and the list its exception lands in. The
    thread is a daemon, so a worker that never exits fails its test
    instead of hanging the suite."""
    errors: list[Exception] = []

    def work():
        try:
            run_worker(root, **kwargs)
        except Exception as error:
            errors.append(error)

    worker = threading.Thread(target=work, daemon=True)
    worker.start()
    return worker, errors


# -- wake-up -----------------------------------------------------------------


def test_submit_wakes_an_idle_worker_long_before_its_poll_interval(tmp_path):
    service = LinkageService(root=tmp_path, queue="file")
    worker, errors = start_worker(
        tmp_path,
        worker_id="w0",
        cache_dir=service.cache_dir,
        poll_interval=5.0,
        max_jobs=1,
    )
    try:
        time.sleep(0.3)  # the worker is idle in its wait by now
        record = service.submit("link", dataset=DATASET, seed=0, scale=SCALE)
        done = service.wait(record.job_id, timeout=4.0)
        assert done.state == "succeeded" and done.worker == "w0"
    finally:
        worker.join(timeout=30)
    assert not worker.is_alive() and errors == []
    # run_worker closed the queue it made; the service never opens one.
    assert open_doorbell_fds(tmp_path) == 0


def test_a_submit_from_another_process_ends_the_wait(tmp_path):
    queue = opened(FileQueue(tmp_path))
    try:
        child = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys\n"
                "from repro.service.queue import FileQueue\n"
                "FileQueue(sys.argv[1]).submit('job-from-child')\n",
                str(tmp_path),
            ],
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert timed_wait(queue, 10.0) < 5.0
        assert child.wait(timeout=30) == 0
        ticket = queue.claim("w0")
        assert ticket is not None and ticket.job_id == "job-from-child"
    finally:
        queue.close()


def test_a_ticket_submitted_before_the_first_wait_is_not_missed(tmp_path):
    queue = FileQueue(tmp_path)
    try:
        assert queue.claim("w0") is None
        # Nobody holds the pipe yet, so this submit rings nobody; the
        # first wait must still not sleep through it.
        FileQueue(tmp_path).submit("early")
        assert timed_wait(queue, 5.0) < 2.5
        ticket = queue.claim("w0")
        assert ticket is not None and ticket.job_id == "early"
    finally:
        queue.close()


def test_a_ring_while_busy_ends_the_next_wait(tmp_path):
    queue = opened(FileQueue(tmp_path))
    try:
        FileQueue(tmp_path).submit("while-busy")
        assert timed_wait(queue, 5.0) < 2.5
        # The wait drained the pipe: the next one lasts its timeout.
        assert timed_wait(queue, 0.3) >= 0.25
    finally:
        queue.close()


# -- no spin, no block ---------------------------------------------------------


def test_without_a_ring_the_wait_lasts_its_timeout(tmp_path):
    queue = opened(FileQueue(tmp_path))
    try:
        assert timed_wait(queue, 0.3) >= 0.25
        # A writer that hangs up without writing leaves a read-only end
        # at end-of-file for good; the read-write end must not see it.
        writer = os.open(doorbell(tmp_path), os.O_WRONLY | os.O_NONBLOCK)
        os.close(writer)
        assert timed_wait(queue, 0.3) >= 0.25
    finally:
        queue.close()


def test_submits_with_no_waiter_neither_block_nor_raise(tmp_path):
    queue = FileQueue(tmp_path)
    errors: list[Exception] = []

    def submit_all():
        try:
            for index in range(1000):
                queue.submit(f"job-{index}")
        except Exception as error:  # surfaced by the assert below
            errors.append(error)

    submitter = threading.Thread(target=submit_all, daemon=True)
    submitter.start()
    submitter.join(timeout=60)
    assert not submitter.is_alive() and errors == []
    assert queue.depth() == 1000


def test_a_full_pipe_neither_blocks_nor_fails_a_submit(tmp_path):
    queue = opened(FileQueue(tmp_path))
    try:
        writer = os.open(doorbell(tmp_path), os.O_WRONLY | os.O_NONBLOCK)
        try:
            with pytest.raises(BlockingIOError):
                while True:
                    os.write(writer, b"\0" * 4096)
        finally:
            os.close(writer)
        queue.submit("into-a-full-pipe")
        assert queue.depth() == 1
        assert timed_wait(queue, 5.0) < 2.5
        # One wait drains every queued byte.
        assert timed_wait(queue, 0.3) >= 0.25
    finally:
        queue.close()


# -- fallback ------------------------------------------------------------------


def service_root(wake: str, root: Path, monkeypatch) -> Path:
    """A service root whose queue wakes by ``doorbell``, or polls
    because ``mkfifo`` fails or a ``regular-file`` holds the path."""
    if wake == "mkfifo-fails":

        def refuse(*args, **kwargs):
            raise OSError("named pipes not supported")

        monkeypatch.setattr(os, "mkfifo", refuse)
    elif wake == "regular-file":
        doorbell(root).parent.mkdir(parents=True)
        doorbell(root).write_bytes(b"")
    return root


@pytest.fixture(params=["mkfifo-fails", "regular-file"])
def pipeless_root(request, tmp_path, monkeypatch):
    return service_root(request.param, tmp_path, monkeypatch)


@pytest.fixture(params=["doorbell", "mkfifo-fails", "regular-file"])
def any_root(request, tmp_path, monkeypatch):
    return service_root(request.param, tmp_path, monkeypatch)


def test_without_a_named_pipe_the_queue_polls(pipeless_root):
    queue = FileQueue(pipeless_root)
    try:
        assert queue.describe()["wake"] == "poll"
        queue.submit("job-a")
        assert queue.depth() == 1
        # Even the first wait sleeps: there is no read end to open.
        assert timed_wait(queue, 0.3) >= 0.25
        assert timed_wait(queue, 0.3) >= 0.25
        if doorbell(pipeless_root).is_file():
            assert doorbell(pipeless_root).read_bytes() == b""
        with LinkageService(root=pipeless_root, queue="file") as service:
            assert service.health()["queue"]["wake"] == "poll"
    finally:
        queue.close()


def test_close_releases_the_read_end(tmp_path):
    queue = FileQueue(tmp_path)
    assert open_doorbell_fds(tmp_path) == 0
    opened(queue)
    assert open_doorbell_fds(tmp_path) == 1
    queue.close()
    assert open_doorbell_fds(tmp_path) == 0
    queue.close()  # idempotent


def test_run_worker_leaves_a_queue_it_was_given_open(tmp_path):
    queue = FileQueue(tmp_path)
    try:
        FileQueue(tmp_path).submit("not-yet", not_before=time.time() + 0.3)
        # Draining waits out the backed-off ticket, then finds no job
        # record for it and drops it.
        assert run_worker(tmp_path, queue=queue, drain=True) == 1
        assert open_doorbell_fds(tmp_path) == 1
    finally:
        queue.close()
    assert open_doorbell_fds(tmp_path) == 0


# -- ticket names and backoff --------------------------------------------------


@pytest.mark.parametrize("worker_id", ["host--7", "rack/3", "", " w0", "w0 "])
def test_claim_rejects_worker_ids_that_break_the_ticket_name(tmp_path, worker_id):
    queue = FileQueue(tmp_path)
    queue.submit("job1")
    with pytest.raises(ValueError, match="worker id"):
        queue.claim(worker_id)
    assert queue.depth() == 1 and queue.claimed() == []


def test_a_dashed_worker_id_keeps_the_claimed_job_id(tmp_path):
    queue = FileQueue(tmp_path)
    queue.submit("job1")
    ticket = queue.claim("host-7")
    assert ticket is not None and ticket.job_id == "job1"
    assert [job_id for job_id, _, _ in queue.claimed()] == ["job1"]


@pytest.mark.parametrize("worker_id", ["host--7", "rack/3"])
def test_a_worker_with_an_unusable_id_fails_fast(tmp_path, worker_id):
    service = LinkageService(root=tmp_path, queue="file")
    record = service.submit("link", dataset=DATASET, seed=0, scale=SCALE)
    worker, errors = start_worker(
        tmp_path, worker_id=worker_id, cache_dir=service.cache_dir, drain=True
    )
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert len(errors) == 1 and isinstance(errors[0], ValueError)
    assert service.status(record.job_id).state == "queued"
    assert service.queue.depth() == 1
    assert open_doorbell_fds(tmp_path) == 0


def test_a_backed_off_retry_is_claimed_when_it_becomes_eligible(tmp_path):
    service = LinkageService(root=tmp_path, queue="file")
    record = service.submit("link", dataset=DATASET, seed=0, scale=SCALE)
    queue = FileQueue(tmp_path)
    ticket = queue.claim("w-test")
    assert ticket is not None
    queue.release(ticket, not_before=time.time() + 0.3)

    started = time.monotonic()
    processed = run_worker(
        tmp_path,
        worker_id="w0",
        cache_dir=service.cache_dir,
        drain=True,
        poll_interval=5.0,
    )
    assert time.monotonic() - started < 2.0
    assert processed == 1
    assert service.status(record.job_id).state == "succeeded"


def test_a_wait_ends_when_the_head_ticket_becomes_eligible(any_root):
    queue = opened(FileQueue(any_root))
    try:
        queue.submit("later", not_before=time.time() + 0.3)
        started = time.monotonic()
        ticket = queue.claim("w0")
        while ticket is None and time.monotonic() - started < 10.0:
            queue.wait(5.0)
            ticket = queue.claim("w0")
        assert ticket is not None and ticket.job_id == "later"
        assert time.monotonic() - started < 2.0
        # The claim cleared that deadline: an empty queue waits it out.
        assert timed_wait(queue, 0.3) >= 0.25
    finally:
        queue.close()
