"""The linkage job service: lifecycle, queue, inline mode, recovery.

The contracts under test, in the order an operator cares about them:

- **Byte-parity** — a job's links are identical to calling
  ``MatchingEngine.execute`` directly, whether the job ran inline
  (no queue) or through file-queue workers.
- **Queue selection** — the file queue is the default, ``inline`` and
  ``none`` choose in-process execution, and any other value is refused
  rather than silently degraded.
- **Crash recovery** — a worker dying mid-job (stale heartbeat)
  leads to a backoff retry that completes the job; exhausted attempt
  budgets fail it with the error recorded.
- **Health** — one snapshot reports mode, queue, job counts, workers
  and the shared store.
"""

from __future__ import annotations

import contextlib
import gc
import sys
import threading
import time
import weakref

import pytest

from repro.datasets import load_dataset
from repro.matching.engine import MatchingEngine
from repro.matching.incremental import dataset_rule
from repro.service import (
    FileQueue,
    InvalidTransition,
    JobRunner,
    JobStore,
    LinkageService,
    StaleJob,
    recover_stale,
    resolve_queue,
    run_worker,
)
from repro.service.worker import _RESIDENT_DATASETS

DATASET = "restaurant"
SCALE = 0.3


def direct_links(seed: int = 0, scale: float = SCALE):
    """The oracle: engine-direct execution of the job's exact work."""
    dataset = load_dataset(DATASET, seed=seed, scale=scale)
    engine = MatchingEngine()
    try:
        return engine.execute(
            dataset_rule(DATASET), dataset.source_a, dataset.source_b
        )
    finally:
        engine.close()


# -- job store ---------------------------------------------------------------


def test_job_store_lifecycle_and_persistence(tmp_path):
    store = JobStore(tmp_path)
    record = store.create("link", {"dataset": DATASET})
    assert record.state == "queued" and record.attempts == 0

    record = store.transition(
        record.job_id, "running", expect="queued", attempts=1, worker="w0"
    )
    assert record.state == "running" and record.worker == "w0"

    # A fresh store over the same directory sees the same record.
    reread = JobStore(tmp_path).get(record.job_id)
    assert reread.state == "running" and reread.attempts == 1


def test_job_store_rejects_illegal_and_stale_transitions(tmp_path):
    store = JobStore(tmp_path)
    record = store.create("link", {"dataset": DATASET})

    with pytest.raises(InvalidTransition):
        store.transition(record.job_id, "succeeded", expect="queued")
    with pytest.raises(StaleJob):
        store.transition(record.job_id, "running", expect="running")

    store.transition(record.job_id, "running", expect="queued", worker="w0")
    # Owner mismatch: another worker must not complete w0's job.
    with pytest.raises(StaleJob):
        store.transition(
            record.job_id,
            "succeeded",
            expect="running",
            expect_worker="w1",
        )


# -- file queue --------------------------------------------------------------


def test_file_queue_orders_and_claims_exactly_once(tmp_path):
    queue = FileQueue(tmp_path)
    queue.submit("job-a")
    queue.submit("job-b")
    assert queue.depth() == 2

    first = queue.claim("w0")
    second = queue.claim("w1")
    assert first is not None and first.job_id == "job-a"
    assert second is not None and second.job_id == "job-b"
    assert queue.claim("w2") is None  # nothing left to win

    queue.ack(first)
    queue.release(second, not_before=time.time() + 60)
    # Backed-off entries exist but are not yet claimable.
    assert queue.depth() == 1
    assert queue.claim("w0") is None


def test_resolve_queue_backends(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_SERVICE_QUEUE", raising=False)
    assert isinstance(resolve_queue(tmp_path), FileQueue)
    assert resolve_queue(tmp_path, "inline") is None

    monkeypatch.setenv("REPRO_SERVICE_QUEUE", "none")
    assert resolve_queue(tmp_path) is None

    with pytest.raises(ValueError):
        resolve_queue(tmp_path, "carrier-pigeon")


def test_unknown_queue_is_refused_not_degraded(tmp_path, monkeypatch):
    # A queue the service does not have fails construction, naming the
    # choices, instead of quietly running every submission inline.
    with pytest.raises(ValueError, match="file.*inline"):
        LinkageService(root=tmp_path, queue="redis")
    monkeypatch.setenv("REPRO_SERVICE_QUEUE", "redis")
    with pytest.raises(ValueError, match="file.*inline"):
        LinkageService(root=tmp_path)


# -- inline execution --------------------------------------------------------


def test_inline_service_matches_direct_execution(tmp_path):
    with LinkageService(root=tmp_path, queue="inline") as service:
        assert service.inline and not hasattr(service, "degraded_reason")
        assert "degraded_reason" not in service.health()
        record = service.submit("link", dataset=DATASET, seed=0, scale=SCALE)
        assert record.state == "succeeded"
        assert record.worker == "inline" and record.attempts == 1
        assert record.stats is not None and record.stats["links"] > 0
        links = service.links(record.job_id)
    assert links == direct_links()


def test_inline_failure_is_recorded_not_raised(tmp_path):
    with LinkageService(root=tmp_path, queue="inline") as service:
        record = service.submit("link", dataset="no-such-dataset")
        assert record.state == "failed"
        assert record.error and "no-such-dataset" in record.error


# -- worker path -------------------------------------------------------------


def test_worker_executes_queued_job_with_identical_links(tmp_path):
    service = LinkageService(root=tmp_path, queue="file")
    record = service.submit("link", dataset=DATASET, seed=0, scale=SCALE)
    assert record.state == "queued"
    assert service.queue is not None and service.queue.depth() == 1

    processed = run_worker(
        tmp_path,
        worker_id="w0",
        cache_dir=service.cache_dir,
        drain=True,
    )
    assert processed == 1
    done = service.status(record.job_id)
    assert done.state == "succeeded" and done.worker == "w0"
    assert service.links(record.job_id) == direct_links()
    # The run's MatchStats payload rode along on the record.
    assert done.stats is not None and done.stats["links"] == len(
        service.links(record.job_id)
    )


def test_second_job_hits_the_shared_store(tmp_path):
    service = LinkageService(root=tmp_path, queue="file")
    first = service.submit("link", dataset=DATASET, seed=0, scale=SCALE)
    second = service.submit("link", dataset=DATASET, seed=0, scale=SCALE)
    # Two drain invocations = two cold worker processes in sequence,
    # sharing only the on-disk store — the service's warm path.
    run_worker(tmp_path, worker_id="w0", cache_dir=service.cache_dir, drain=True, max_jobs=1)
    run_worker(tmp_path, worker_id="w1", cache_dir=service.cache_dir, drain=True)

    cold = service.status(first.job_id).stats
    warm = service.status(second.job_id).stats
    assert cold is not None and warm is not None
    assert cold["store"]["hits"] == 0
    assert warm["store"]["hits"] > 0 and warm["store"]["misses"] == 0
    assert warm["store"]["index_hits"] > 0
    assert service.links(first.job_id) == service.links(second.job_id)


def test_delta_job_builds_on_parent(tmp_path):
    with LinkageService(root=tmp_path, queue="inline") as service:
        parent = service.submit("link", dataset=DATASET, seed=0, scale=SCALE)
        assert parent.state == "succeeded"
        delta = service.submit(
            "delta", parent=parent.job_id, seed=1, upserts=4, deletes=2
        )
        assert delta.state == "succeeded"
        assert delta.result is not None
        assert delta.result["parent"] == parent.job_id
        counts = (
            delta.result["added"]
            + delta.result["removed"]
            + delta.result["unchanged"]
        )
        assert counts >= delta.result["links"] > 0
        # Incremental work happened: some links carried over unscored.
        assert delta.result["kept_links"] > 0


# -- resident job sources ----------------------------------------------------


def _run_job(runner, store, kind, **spec):
    """Run one job through ``runner`` and record its success, as a
    worker does; returns the job id and its links."""
    record = store.create(kind, spec)
    links, stats, result = runner.run(record, store)
    store.save_links(record.job_id, links)
    store.transition(record.job_id, "running", expect="queued")
    store.transition(
        record.job_id, "succeeded", expect="running", stats=stats, result=result
    )
    return record.job_id, links


def _spy(monkeypatch, owner, name):
    """Record the arguments of every call of ``owner.name``: the
    positional ones, then the keyword values."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args + tuple(kwargs.values()))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_link_jobs_on_one_spec_share_the_resident_sources(tmp_path, monkeypatch):
    import repro.datasets

    loads = _spy(monkeypatch, repro.datasets, "load_dataset")
    store = JobStore(tmp_path)
    with contextlib.closing(JobRunner()) as runner:
        executes = _spy(monkeypatch, runner.engine, "execute")
        for _ in range(2):
            _run_job(runner, store, "link", dataset=DATASET, seed=0, scale=SCALE)
    assert len(loads) == 1
    (_, source_a, source_b, _), (_, again_a, again_b, _) = executes
    assert again_a is source_a and again_b is source_b


def test_delta_jobs_leave_the_resident_sources_untouched(tmp_path, monkeypatch):
    store = JobStore(tmp_path)
    with contextlib.closing(JobRunner()) as runner:
        executes = _spy(monkeypatch, runner.engine, "execute")
        parent, _ = _run_job(
            runner, store, "link", dataset=DATASET, seed=0, scale=SCALE
        )
        source = executes[0][1]
        fingerprint, size = source.fingerprint(), len(source)
        _run_job(runner, store, "delta", parent=parent, seed=1, upserts=4, deletes=3)
        _, links = _run_job(
            runner, store, "link", dataset=DATASET, seed=0, scale=SCALE
        )
    assert executes[-1][1] is source
    assert source.fingerprint() == fingerprint and len(source) == size
    assert source.delta_chain() == ()
    assert links == direct_links()


def test_a_dedup_delta_mutates_one_private_source(tmp_path, monkeypatch):
    store = JobStore(tmp_path)
    with contextlib.closing(JobRunner()) as runner:
        executes = _spy(monkeypatch, runner.engine, "execute")
        diffs = _spy(monkeypatch, runner.engine, "link_diff")
        parent, _ = _run_job(runner, store, "link", dataset="cora", seed=0, scale=0.1)
        _run_job(runner, store, "delta", parent=parent, seed=1, upserts=4, deletes=3)
    resident = executes[0][1]
    _, source_a, source_b = diffs[0][:3]
    assert source_b is source_a
    assert source_a is not resident and source_a.delta_chain()


def test_least_recently_used_dataset_leaves_past_the_bound(tmp_path, monkeypatch):
    import repro.datasets

    loads = _spy(monkeypatch, repro.datasets, "load_dataset")
    bound = _RESIDENT_DATASETS
    store = JobStore(tmp_path)
    with contextlib.closing(JobRunner()) as runner:
        # Seed 0 is used again before the spec past the bound arrives,
        # so seed 1 is the least recently used and the one that leaves.
        for seed in [*range(bound), 0, bound, 0, 1]:
            _run_job(runner, store, "link", dataset=DATASET, seed=seed, scale=0.1)
    assert [seed for _, seed, _ in loads] == [*range(bound), bound, 1]


def test_concurrent_jobs_load_each_spec_once(monkeypatch):
    """An inline service runs jobs on its callers' threads: racing
    requests for one spec load it once and share its sources."""
    import repro.datasets

    loads = []
    load = repro.datasets.load_dataset

    def slow_load(name, seed, scale):
        loads.append(seed)
        time.sleep(0.01)  # a window for racing requests of the seed
        return load(name, seed=seed, scale=scale)

    monkeypatch.setattr(repro.datasets, "load_dataset", slow_load)
    specs = [{"dataset": DATASET, "seed": seed, "scale": 0.05} for seed in range(3)]
    seen: list[tuple[int, object]] = []
    runner = JobRunner()

    def request(offset):
        for index in range(12):
            seed = (index + offset) % len(specs)
            seen.append((seed, runner._sources(specs[seed]).source_a))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=request, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        runner.close()
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 6 * 12
    assert sorted(loads) == [0, 1, 2]
    for seed in range(3):
        assert len({id(source) for s, source in seen if s == seed}) == 1


def test_close_drops_the_resident_datasets(tmp_path, monkeypatch):
    store = JobStore(tmp_path)
    runner = JobRunner()
    executes = _spy(monkeypatch, runner.engine, "execute")
    _run_job(runner, store, "link", dataset=DATASET, seed=0, scale=SCALE)
    source = weakref.ref(executes.pop()[1])
    assert source() is not None
    runner.close()
    gc.collect()
    assert source() is None


# -- crash recovery ----------------------------------------------------------


def _simulate_crash(service, record):
    """Claim the job and mark it running with a long-dead heartbeat —
    exactly the state a killed worker leaves behind."""
    ticket = service.queue.claim("dead-worker")
    assert ticket is not None and ticket.job_id == record.job_id
    service.store.transition(
        record.job_id,
        "running",
        expect="queued",
        attempts=record.attempts + 1,
        worker="dead-worker",
        heartbeat_at=time.time() - 3600.0,
    )


def test_crashed_worker_job_is_retried_and_completes(tmp_path):
    service = LinkageService(root=tmp_path, queue="file")
    record = service.submit("link", dataset=DATASET, seed=0, scale=SCALE)
    _simulate_crash(service, record)

    recovered = recover_stale(
        service.store, service.queue, lease=0.5, backoff_base=0.05
    )
    assert recovered == 1
    requeued = service.status(record.job_id)
    assert requeued.state == "queued"
    assert requeued.attempts == 1  # the lost attempt stays counted
    assert requeued.error and "dead-worker" in requeued.error

    time.sleep(0.1)  # let the backoff window pass
    run_worker(
        tmp_path, worker_id="w0", cache_dir=service.cache_dir, drain=True
    )
    done = service.status(record.job_id)
    assert done.state == "succeeded"
    assert done.attempts == 2 and done.error is None
    assert service.links(record.job_id) == direct_links()


def test_exhausted_attempts_fail_the_job(tmp_path):
    service = LinkageService(root=tmp_path, queue="file", max_attempts=1)
    record = service.submit("link", dataset=DATASET, seed=0, scale=SCALE)
    _simulate_crash(service, record)

    recovered = recover_stale(service.store, service.queue, lease=0.5)
    assert recovered == 1
    failed = service.status(record.job_id)
    assert failed.state == "failed"
    assert failed.error and "no heartbeat" in failed.error
    assert service.queue.depth() == 0 and not service.queue.claimed()


def test_reaper_requeues_first_then_slow_worker_steps_aside(tmp_path):
    """Race interleaving A: the reaper requeues a stale claim while the
    (actually alive, just slow) worker is still running. The worker's
    final transition must fail with StaleJob — exactly one process owns
    the job's outcome."""
    service = LinkageService(root=tmp_path, queue="file")
    record = service.submit("link", dataset=DATASET, seed=0, scale=SCALE)
    _simulate_crash(service, record)  # "slow" worker: stale heartbeat

    assert recover_stale(
        service.store, service.queue, lease=0.5, backoff_base=0.01
    ) == 1
    assert service.status(record.job_id).state == "queued"

    # The slow worker finishes now and tries to publish its result.
    with pytest.raises(StaleJob):
        service.store.transition(
            record.job_id,
            "succeeded",
            expect="running",
            expect_worker="dead-worker",
            result={"links": 0},
        )

    # The retry converges to exactly one terminal record.
    time.sleep(0.1)
    run_worker(
        tmp_path, worker_id="w1", cache_dir=service.cache_dir, drain=True
    )
    done = service.status(record.job_id)
    assert done.state == "succeeded" and done.worker == "w1"
    assert done.attempts == 2
    assert service.links(record.job_id) == direct_links()
    assert service.queue.depth() == 0 and not service.queue.claimed()


def test_worker_completes_first_then_reaper_drops_the_claim(tmp_path):
    """Race interleaving B: the worker publishes success just before
    the reaper examines its stale-looking claim. The reaper must drop
    the ticket and leave the terminal record untouched."""
    service = LinkageService(root=tmp_path, queue="file")
    record = service.submit("link", dataset=DATASET, seed=0, scale=SCALE)
    _simulate_crash(service, record)

    # The worker wins the race: terminal record lands first.
    service.store.transition(
        record.job_id,
        "succeeded",
        expect="running",
        expect_worker="dead-worker",
        result={"links": 7},
    )

    assert recover_stale(service.store, service.queue, lease=0.5) == 1
    done = service.status(record.job_id)
    assert done.state == "succeeded" and done.result == {"links": 7}
    assert done.attempts == 1  # no retry was ever scheduled
    assert service.queue.depth() == 0 and not service.queue.claimed()


def test_wait_backs_off_exponentially_with_jitter(tmp_path, monkeypatch):
    """The submitter poll loop must not busy-poll at a fixed interval:
    sleeps grow geometrically from ``poll`` to ``max_poll`` (with
    jitter), so long waits converge to a couple of store reads per
    second instead of ten."""
    service = LinkageService(root=tmp_path, queue="file")
    record = service.submit("link", dataset=DATASET, seed=0, scale=SCALE)

    clock = {"now": 0.0}
    sleeps: list[float] = []

    def fake_sleep(seconds: float) -> None:
        sleeps.append(seconds)
        clock["now"] += max(0.0, seconds)

    monkeypatch.setattr(time, "monotonic", lambda: clock["now"])
    monkeypatch.setattr(time, "sleep", fake_sleep)
    with pytest.raises(TimeoutError):
        service.wait(record.job_id, timeout=30.0, poll=0.1, max_poll=2.0)

    assert len(sleeps) >= 5
    # Early sleeps sit near ``poll``, late sleeps near ``max_poll``;
    # jitter keeps each within [0.8, 1.25] of its nominal interval.
    assert sleeps[0] <= 0.1 * 1.25
    assert max(sleeps) <= 2.0 * 1.25
    assert max(sleeps) >= 2.0 * 0.8
    # Monotone growth of the underlying interval (the final sleep is
    # clamped to the remaining timeout budget, so it is exempt): each
    # sleep, modulo jitter, is no smaller than 0.64x the previous one,
    # and the total poll count is far below a fixed-0.1s loop's 300.
    for earlier, later in zip(sleeps[:-1], sleeps[1:-1]):
        assert later >= earlier * 0.8 / 1.25
    assert len(sleeps) < 40


def test_wait_runs_the_reaper_for_a_blocked_submitter(tmp_path):
    service = LinkageService(root=tmp_path, queue="file", lease=0.2)
    record = service.submit("link", dataset=DATASET, seed=0, scale=SCALE)
    _simulate_crash(service, record)

    # No worker is running; wait() itself must recover the claim so
    # the job is claimable again, then time out (nothing executes it).
    with pytest.raises(TimeoutError):
        service.wait(record.job_id, timeout=0.8, poll=0.05)
    assert service.status(record.job_id).state == "queued"
    assert service.queue.depth() == 1 and not service.queue.claimed()


# -- health ------------------------------------------------------------------


def test_health_reports_queue_jobs_workers_and_store(tmp_path):
    service = LinkageService(root=tmp_path, queue="file")
    service.submit("link", dataset=DATASET, seed=0, scale=SCALE)
    run_worker(
        tmp_path, worker_id="w0", cache_dir=service.cache_dir, drain=True
    )

    health = service.health()
    assert health["mode"] == "queue" and "degraded_reason" not in health
    assert health["queue"]["backend"] == "file"
    assert health["queue"]["depth"] == 0
    assert health["queue"]["wake"] == "doorbell"  # idle workers wake on submit
    assert health["jobs"]["succeeded"] == 1
    workers = {entry["worker"] for entry in health["workers"]}
    assert "w0" in workers
    assert health["store"] is not None  # the shared cache dir exists
