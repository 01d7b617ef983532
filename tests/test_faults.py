"""The deterministic fault-injection layer.

The contracts under test:

- **Grammar** — ``REPRO_FAULTS`` parses into validated rules; every
  malformed rule fails loudly (a typo'd chaos schedule must never
  silently inject nothing).
- **Determinism** — the same plan text, seed and per-site invocation
  sequence fire the same faults, so a failing chaos run replays
  exactly.
- **Inertness** — with no plan installed the seams are a single
  ``None`` check and the engine's output is byte-identical.
- **Store resilience** — transient I/O faults degrade the persistent
  store to cold-cache behaviour without deleting healthy blobs or
  changing links; torn writes never publish partial bytes; enough
  consecutive faults trip the circuit breaker, which bypasses the
  disk, records the degradation, and half-opens after a cooldown.
- **Deadlines and cancellation** — a per-job wall-clock budget fails
  the job terminally at the next shard boundary (inline and worker
  paths); the ``cancel`` verb fails queued jobs immediately and flags
  running jobs cooperatively.
"""

from __future__ import annotations

import errno
import itertools
import os
from unittest import mock

import numpy as np
import pytest

from repro import faults
from repro.engine.store import ColumnStore
from repro.faults import (
    Cancelled,
    CancelToken,
    CircuitBreaker,
    FaultPlan,
    FaultPlanError,
    FiredFault,
)
from repro.matching.engine import MatchingEngine
from repro.service import JobStore, LinkageService, run_worker
from tests.test_service import DATASET, SCALE, direct_links


@pytest.fixture(autouse=True)
def _inert_after(monkeypatch):
    """Every test leaves the process-wide plan inert."""
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    yield
    faults.install(None)


# -- plan grammar ------------------------------------------------------------


def test_plan_parses_the_documented_example():
    plan = FaultPlan.parse(
        "store.write:io_error@0.05;queue.claim:delay@0.2:50ms;"
        "worker.execute:crash@job=3"
    )
    assert [r.site for r in plan.rules] == [
        "store.write", "queue.claim", "worker.execute",
    ]
    assert plan.rules[0].kind == "io_error" and plan.rules[0].rate == 0.05
    assert plan.rules[1].arg == pytest.approx(0.05)  # 50ms
    assert plan.rules[2].nth == 3 and plan.rules[2].rate is None
    assert "worker.execute:crash@n=3" in plan.describe()


def test_plan_defaults_missing_trigger_to_every_invocation():
    plan = FaultPlan.parse("engine.shard:delay")
    assert plan.rules[0].rate == 1.0 and plan.rules[0].arg is None


def test_plan_parses_errno_names_and_durations():
    plan = FaultPlan.parse("store.write:io_error@1.0:ENOSPC;store.read:delay:0.5s")
    assert plan.rules[0].arg == errno.ENOSPC
    assert plan.rules[1].arg == pytest.approx(0.5)


@pytest.mark.parametrize(
    "text",
    [
        "store.wriet:io_error",  # typo'd site
        "store.write:explode",  # unknown kind
        "store.write:io_error@maybe",  # unparseable probability
        "store.write:io_error@1.5",  # probability out of range
        "store.write:io_error@n=0",  # ordinal below 1
        "store.write:crash:50ms",  # crash takes no argument
        "store.write:io_error@1.0:EWHATEVER",  # unknown errno
        "store.write:delay:soon",  # unparseable duration
        "store.write",  # no kind at all
        "",  # no rules at all
        ";;",  # still no rules
    ],
)
def test_malformed_plans_fail_loudly(text):
    with pytest.raises(FaultPlanError):
        FaultPlan.parse(text)


# -- determinism -------------------------------------------------------------


def _drive(plan: FaultPlan, invocations: int = 200) -> list[FiredFault]:
    for _ in range(invocations):
        try:
            plan.fire("store.read")
        except OSError:
            pass
    return list(plan.fired)


def test_same_seed_fires_the_same_schedule():
    text = "store.read:io_error@0.1"
    first = _drive(FaultPlan.parse(text, seed=7))
    second = _drive(FaultPlan.parse(text, seed=7))
    assert first == second and len(first) > 0
    assert all(f.kind == "io_error" for f in first)


def test_different_seeds_fire_different_schedules():
    text = "store.read:io_error@0.1"
    first = _drive(FaultPlan.parse(text, seed=7))
    second = _drive(FaultPlan.parse(text, seed=8))
    assert [f.invocation for f in first] != [f.invocation for f in second]


def test_ordinal_trigger_fires_exactly_once():
    plan = FaultPlan.parse("store.read:io_error@n=3")
    fired = _drive(plan, invocations=10)
    assert fired == [FiredFault("store.read", "io_error", 3)]


def test_environment_resolution_and_reset(monkeypatch):
    monkeypatch.setenv(faults.FAULTS_ENV, "store.read:io_error@n=1")
    monkeypatch.setenv(faults.FAULTS_SEED_ENV, "42")
    plan = faults.reset_from_env()
    assert plan is not None and plan.seed == 42
    assert faults.active() is plan
    monkeypatch.delenv(faults.FAULTS_ENV)
    assert faults.reset_from_env() is None


def test_fire_is_inert_without_a_plan():
    faults.install(None)
    faults.fire("store.read")  # must not raise, count, or allocate
    assert faults.active() is None


# -- store resilience --------------------------------------------------------


def _store(tmp_path, **breaker_kwargs) -> ColumnStore:
    breaker = CircuitBreaker(**breaker_kwargs) if breaker_kwargs else None
    return ColumnStore(tmp_path / "cache", breaker=breaker)


#: Every store tier as ``(save(store, key, value), load(store, key),
#: value)``; the fault seams must hold for each alike.
TIERS = [
    pytest.param(
        (
            ColumnStore.save,
            lambda store, key: store.load(key, rows=64),
            np.arange(64, dtype=np.float64),
        ),
        id="column",
    ),
    pytest.param(
        (
            ColumnStore.save_index,
            ColumnStore.load_index,
            {"berlin": ("b1", "b3"), "bonn": ("b2",)},
        ),
        id="index",
    ),
    pytest.param(
        (
            ColumnStore.save_probe_ledger,
            ColumnStore.load_probe_ledger,
            {"f" * 64: (3, 5, 8), "0" * 64: ()},
        ),
        id="probe-ledger",
    ),
]


def _same(loaded, value) -> bool:
    if isinstance(value, np.ndarray):
        return loaded is not None and np.array_equal(loaded, value)
    return loaded == value


@pytest.mark.parametrize("tier", TIERS)
def test_transient_read_fault_is_a_miss_that_keeps_the_blob(tmp_path, tier):
    save, load, value = tier
    store = _store(tmp_path)
    assert save(store, "k" * 64, value)

    faults.install(FaultPlan.parse("store.read:io_error@n=1"))
    assert load(store, "k" * 64) is None  # degraded to a miss
    faults.install(None)

    # The blob survived the fault.
    assert _same(load(store, "k" * 64), value)
    stats = store.stats()
    assert stats.io_faults == 1
    assert (stats.invalid, stats.index_invalid, stats.probe_invalid) == (0, 0, 0)


@pytest.mark.parametrize("tier", TIERS)
def test_torn_write_never_publishes_partial_bytes(tmp_path, tier):
    save, load, value = tier
    store = _store(tmp_path)
    faults.install(FaultPlan.parse("store.write:torn@n=1"))
    assert save(store, "k" * 64, value) is False
    faults.install(None)

    # Nothing half-written is visible: the key is a clean miss, and a
    # rebuilt save round-trips exactly.
    assert load(store, "k" * 64) is None
    assert not list((tmp_path / "cache").rglob("*.tmp*"))
    assert save(store, "k" * 64, value)
    assert _same(load(store, "k" * 64), value)


def test_breaker_trips_bypasses_disk_and_half_opens(tmp_path):
    clock = {"now": 0.0}
    store = _store(
        tmp_path, threshold=2, cooldown=10.0, clock=lambda: clock["now"]
    )
    column = np.arange(3, dtype=np.float64)
    faults.install(FaultPlan.parse("store.write:io_error@1.0:ENOSPC"))
    assert store.save("a" * 64, column) is False
    assert store.save("b" * 64, column) is False  # second fault: trips
    assert store.breaker.state == "open"
    assert store.stats().breaker_trips == 1
    assert any("ENOSPC" in r or "space" in r for r in store.trip_reasons())

    # Open breaker: the disk is bypassed entirely — the still-armed
    # fault plan records no further invocations of the write seam.
    plan = faults.active()
    fired_before = len(plan.fired)
    assert store.save("c" * 64, column) is False
    assert store.load("a" * 64, rows=3) is None
    assert len(plan.fired) == fired_before

    # Cooldown elapses, the plan is healthy again: the half-open probe
    # succeeds and the breaker closes.
    faults.install(None)
    clock["now"] = 11.0
    assert store.breaker.state == "half-open"
    assert store.save("a" * 64, column)
    assert store.breaker.state == "closed"
    assert np.array_equal(store.load("a" * 64, rows=3), column)


def test_probe_ledger_traffic_resets_and_closes_the_breaker(tmp_path):
    """Ledger saves and loads are disk successes like any other: a save
    between two faults resets the consecutive count, and a ledger load
    is a valid half-open probe."""
    clock = {"now": 0.0}
    store = _store(
        tmp_path, threshold=2, cooldown=10.0, clock=lambda: clock["now"]
    )
    ledger = {"f" * 64: (3, 5, 8)}
    store.breaker.record_failure("disk hiccup")
    assert store.save_probe_ledger("p" * 64, ledger)
    store.breaker.record_failure("disk hiccup")
    assert store.breaker.state == "closed"

    store.breaker.record_failure("disk gone")
    assert store.breaker.state == "open"
    clock["now"] = 11.0
    assert store.breaker.state == "half-open"
    assert store.load_probe_ledger("p" * 64) == ledger
    assert store.breaker.state == "closed"


def test_breaker_reopens_on_a_failed_probe():
    clock = {"now": 0.0}
    breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=lambda: clock["now"])
    breaker.record_failure("disk gone")
    assert breaker.state == "open" and not breaker.allow()
    clock["now"] = 6.0
    assert breaker.state == "half-open" and breaker.allow()
    breaker.record_failure("still gone")
    assert breaker.state == "open" and breaker.trips == 2
    assert len(breaker.trip_reasons()) == 2


def test_match_stats_list_each_trip_reason_once_sorted(tmp_path):
    """A serial run whose breaker re-trips from half-open with the same
    reason reports each degradation once, in sorted order."""
    from repro.datasets import load_dataset
    from repro.matching.incremental import dataset_rule

    dataset = load_dataset(DATASET, seed=0, scale=SCALE)
    # A zero cooldown half-opens the breaker before every disk
    # operation, and every write fails, alternating between two errors
    # whose chronological order is the reverse of their sorted order:
    # each failed probe re-trips the breaker with one of two reasons.
    store = ColumnStore(
        tmp_path / "cache", breaker=CircuitBreaker(threshold=1, cooldown=0.0)
    )
    disk_errors = itertools.cycle(
        [
            OSError(errno.ENOSPC, "No space left on device"),
            OSError(errno.EIO, "Input/output error"),
        ]
    )
    engine = MatchingEngine(workers=0, cache_dir=store)
    try:
        with mock.patch("tempfile.mkstemp", side_effect=disk_errors):
            links = engine.execute(
                dataset_rule(DATASET), dataset.source_a, dataset.source_b
            )
        stats = engine.last_run_stats()
    finally:
        engine.close()

    assert links == direct_links()
    reasons = store.trip_reasons()
    assert len(reasons) > 2 and reasons[0].endswith("No space left on device")
    assert stats.degraded == (
        "store breaker open after 1 consecutive faults: Input/output error",
        "store breaker open after 1 consecutive faults: No space left on device",
    )


def test_store_faults_degrade_links_without_changing_them(tmp_path):
    """The store is only a cache: a disk faulting on every other
    operation must not change a single link, only record degradation."""
    baseline = direct_links()

    faults.install(
        FaultPlan.parse("store.read:io_error@0.5;store.write:io_error@0.5", seed=3)
    )
    try:
        from repro.datasets import load_dataset
        from repro.matching.incremental import dataset_rule

        dataset = load_dataset(DATASET, seed=0, scale=SCALE)
        engine = MatchingEngine(cache_dir=str(tmp_path / "cache"))
        try:
            links = engine.execute(
                dataset_rule(DATASET), dataset.source_a, dataset.source_b
            )
            stats = engine.last_run_stats()
        finally:
            engine.close()
    finally:
        faults.install(None)

    assert links == baseline
    assert stats.store is not None and stats.store.io_faults > 0


def test_inert_plan_means_identical_links_and_stats(tmp_path):
    """The acceptance gate in miniature: seams without a plan change
    nothing — links and store counters match a seam-free-equivalent
    run bit for bit."""
    from repro.datasets import load_dataset
    from repro.matching.incremental import dataset_rule

    dataset = load_dataset(DATASET, seed=0, scale=SCALE)
    runs = []
    for directory in ("one", "two"):
        engine = MatchingEngine(cache_dir=str(tmp_path / directory))
        try:
            links = engine.execute(
                dataset_rule(DATASET), dataset.source_a, dataset.source_b
            )
            runs.append((links, engine.last_run_stats()))
        finally:
            engine.close()
    (links_a, stats_a), (links_b, stats_b) = runs
    assert links_a == links_b == direct_links()
    assert stats_a.store == stats_b.store
    assert stats_a.degraded == () and stats_a.store.io_faults == 0


# -- job-record atomicity ----------------------------------------------------


def test_torn_record_write_leaves_the_previous_record_visible(tmp_path):
    store = JobStore(tmp_path)
    record = store.create("link", {"dataset": DATASET})

    faults.install(FaultPlan.parse("jobs.write:torn@n=1"))
    with pytest.raises(OSError):
        store.transition(record.job_id, "running", expect="queued", worker="w0")
    faults.install(None)

    # The failed publication is invisible: the record still parses and
    # still holds the pre-transition state.
    reread = store.get(record.job_id)
    assert reread.state == "queued" and reread.worker is None
    assert not list((tmp_path / "jobs").glob("*.tmp*"))


# -- cancellation and deadlines ----------------------------------------------


def test_cancel_token_deadline_and_first_reason_wins():
    clock = {"now": 0.0}
    token = CancelToken(deadline=1.0, clock=lambda: clock["now"])
    token.check()  # within budget: a no-op
    clock["now"] = 1.5
    assert token.cancelled
    with pytest.raises(Cancelled) as caught:
        token.check()
    assert caught.value.reason == "deadline"
    token.cancel("operator")  # later reasons do not overwrite
    assert token.reason == "deadline"

    explicit = CancelToken()
    explicit.cancel("operator")
    with pytest.raises(Cancelled) as caught:
        explicit.check()
    assert caught.value.reason == "operator"


def test_inline_deadline_fails_the_job_terminally(tmp_path):
    with LinkageService(root=tmp_path, queue="inline") as service:
        record = service.submit("link", dataset=DATASET, scale=SCALE, deadline=1e-9)
        assert record.state == "failed" and record.error == "deadline"
        assert record.deadline == 1e-9


def test_deadline_env_default_and_argument_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_JOB_DEADLINE", "120")
    service = LinkageService(root=tmp_path, queue="file")
    from_env = service.submit("link", dataset=DATASET, scale=SCALE)
    explicit = service.submit(
        "link", dataset=DATASET, scale=SCALE, deadline=5.0
    )
    assert from_env.deadline == 120.0
    assert explicit.deadline == 5.0


def test_worker_deadline_fails_the_job_and_acks_the_ticket(tmp_path):
    service = LinkageService(root=tmp_path, queue="file")
    record = service.submit("link", dataset=DATASET, scale=SCALE, deadline=1e-9)
    assert record.state == "queued"
    run_worker(
        tmp_path, worker_id="w0", cache_dir=service.cache_dir, drain=True
    )
    done = service.status(record.job_id)
    assert done.state == "failed" and done.error == "deadline"
    assert service.queue.depth() == 0 and not service.queue.claimed()


def test_cancel_verb_fails_queued_jobs_immediately(tmp_path):
    service = LinkageService(root=tmp_path, queue="file")
    record = service.submit("link", dataset=DATASET, scale=SCALE)
    cancelled = service.cancel(record.job_id)
    assert cancelled.state == "failed" and cancelled.error == "cancelled"

    # The orphaned ticket is dropped by the next worker, not executed.
    run_worker(
        tmp_path, worker_id="w0", cache_dir=service.cache_dir, drain=True
    )
    assert service.status(record.job_id).state == "failed"
    assert service.queue.depth() == 0 and not service.queue.claimed()


def test_cancel_verb_flags_running_jobs_and_rejects_terminal(tmp_path):
    import time

    service = LinkageService(root=tmp_path, queue="file")
    record = service.submit("link", dataset=DATASET, scale=SCALE)
    service.queue.claim("w0")
    service.store.transition(
        record.job_id, "running", expect="queued",
        attempts=1, worker="w0", heartbeat_at=time.time(),
    )
    flagged = service.cancel(record.job_id)
    assert flagged.state == "running" and flagged.cancel_requested

    service.store.transition(
        record.job_id, "failed", expect="running", error="cancelled"
    )
    with pytest.raises(ValueError):
        service.cancel(record.job_id)


def test_pre_claimed_cancel_is_honoured_by_the_worker(tmp_path):
    """A cancel flag set while the job is queued-but-claimed is seen by
    the worker before any work: the run starts pre-cancelled."""
    service = LinkageService(root=tmp_path, queue="file")
    record = service.submit("link", dataset=DATASET, scale=SCALE)
    # Flag the record directly (the verb only flags running jobs).
    stored = service.store.get(record.job_id)
    stored.cancel_requested = True
    service.store.save(stored)

    run_worker(
        tmp_path, worker_id="w0", cache_dir=service.cache_dir, drain=True
    )
    done = service.status(record.job_id)
    assert done.state == "failed" and done.error == "cancelled"
    with pytest.raises(KeyError):
        service.links(record.job_id)  # nothing was computed or stored


# -- cli -----------------------------------------------------------------------


def test_cli_cancel_and_deadline(tmp_path, capsys):
    from repro.experiments.cli import main

    service_args = ["--service-dir", str(tmp_path), "--queue", "file"]
    assert main(["submit", *service_args, DATASET, "--scale", str(SCALE),
                 "--deadline", "300"]) == 0
    job_id = capsys.readouterr().out.split()[0]

    store = JobStore(tmp_path)
    assert store.get(job_id).deadline == 300.0

    assert main(["cancel", *service_args, job_id]) == 0
    out = capsys.readouterr().out
    assert job_id in out and "failed" in out
    assert store.get(job_id).error == "cancelled"

    with pytest.raises(SystemExit):
        main(["cancel", *service_args, job_id])  # already terminal
