"""Registry-backed jobs end to end: reference pinning, byte-parity,
terminal resolution failures, the no-silent-zero-score gate, and the
consolidated keyword submission surface."""

from __future__ import annotations

import warnings

import pytest

from repro.datasets import load_dataset
from repro.matching.engine import MatchingEngine
from repro.matching.incremental import dataset_rule
from repro.registry import RuleRef, check_rule
from repro.service import LinkageService, run_worker

DATASET = "restaurant"
SCALE = 0.3
LINEAGE = "acme/restaurants/base"


def direct_links(rule=None, seed: int = 0, scale: float = SCALE):
    dataset = load_dataset(DATASET, seed=seed, scale=scale)
    engine = MatchingEngine()
    try:
        return engine.execute(
            rule or dataset_rule(DATASET), dataset.source_a, dataset.source_b
        )
    finally:
        engine.close()


@pytest.fixture()
def service(tmp_path):
    with LinkageService(root=tmp_path / "svc", queue="inline") as svc:
        yield svc


def _publish_active(service, rule=None, lineage: str = LINEAGE):
    version = service.registry.publish(
        lineage, rule or dataset_rule(DATASET)
    )
    service.registry.activate(version.ref)
    return version


# -- reference resolution and pinning ----------------------------------------


def test_job_by_active_ref_pins_version_and_matches_direct(service):
    version = _publish_active(service)
    record = service.submit(
        "link", dataset=DATASET, scale=SCALE, rule=f"{LINEAGE}@active"
    )
    assert record.state == "succeeded"
    # @active was resolved exactly once, at submission: the record
    # carries the pinned version and its content hash.
    assert record.spec["rule_ref"] == f"{LINEAGE}@v1"
    assert record.spec["rule_hash"] == version.rule_hash
    assert record.result["rule_ref"] == f"{LINEAGE}@v1"
    assert service.links(record.job_id) == direct_links()


def test_pinned_job_reproduces_after_activation_flip(service):
    _publish_active(service)
    first = service.submit(
        "link", dataset=DATASET, scale=SCALE, rule=f"{LINEAGE}@active"
    )
    original = service.links(first.job_id)

    # Publish and activate a different rule; the recorded pinned ref
    # must reproduce the original links regardless.
    from repro.core.nodes import ComparisonNode, PropertyNode
    from repro.core.rule import LinkageRule

    other = service.registry.publish(
        LINEAGE,
        LinkageRule(
            ComparisonNode(
                "equality", 0.0, PropertyNode("name"), PropertyNode("name")
            )
        ),
    )
    service.registry.activate(other.ref)

    replay = service.submit(
        "link", dataset=DATASET, scale=SCALE, rule=first.spec["rule_ref"]
    )
    assert replay.state == "succeeded"
    assert service.links(replay.job_id) == original

    # ...while a fresh @active submission follows the flip.
    flipped = service.submit(
        "link", dataset=DATASET, scale=SCALE, rule=f"{LINEAGE}@active"
    )
    assert flipped.spec["rule_ref"] == f"{LINEAGE}@v2"


def test_rule_ref_accepts_ruleref_values(service):
    _publish_active(service)
    record = service.submit(
        "link", dataset=DATASET, scale=SCALE,
        rule=RuleRef.parse(f"{LINEAGE}@v1"),
    )
    assert record.state == "succeeded"
    assert record.spec["rule_ref"] == f"{LINEAGE}@v1"


def test_unresolvable_ref_fails_terminally_without_running(service):
    record = service.submit(
        "link", dataset=DATASET, scale=SCALE, rule="acme/nowhere/rule@active"
    )
    assert record.state == "failed"
    assert record.error.startswith("registry:")
    # Never ran: resolution failed before any attempt started.
    assert record.attempts == 0
    assert record.spec["rule_ref"] == "acme/nowhere/rule@active"
    with pytest.raises(KeyError):
        service.links(record.job_id)


def test_active_without_activation_fails_terminally(service):
    service.registry.publish(LINEAGE, dataset_rule(DATASET))
    record = service.submit(
        "link", dataset=DATASET, scale=SCALE, rule=f"{LINEAGE}@active"
    )
    assert record.state == "failed" and record.attempts == 0
    assert "no active version" in record.error


def test_malformed_ref_raises_instead_of_failing_job(service):
    with pytest.raises(ValueError):
        service.submit("link", dataset=DATASET, rule="not-a-ref")


def test_worker_registry_failure_is_terminal_never_retried(tmp_path):
    service = LinkageService(root=tmp_path / "svc", queue="file")
    version = _publish_active(service)
    record = service.submit(
        "link", dataset=DATASET, scale=SCALE, rule=f"{LINEAGE}@active"
    )
    assert record.state == "queued"
    # Break the registry between submission and execution: the pinned
    # version disappears, so the worker must fail the job on its first
    # attempt — attempts budget notwithstanding.
    import shutil

    shutil.rmtree(service.rules_dir)
    run_worker(tmp_path / "svc", drain=True, max_jobs=3)
    done = service.status(record.job_id)
    assert done.state == "failed"
    assert done.attempts == 1 and done.max_attempts > 1
    assert done.error.startswith("registry:")
    service.close()


def test_worker_detects_submission_hash_mismatch(tmp_path):
    service = LinkageService(root=tmp_path / "svc", queue="file")
    _publish_active(service)
    # A spec whose recorded hash doesn't match the stored version: the
    # worker must refuse to run a version whose content drifted from
    # what the submitter pinned.
    record = service.store.create(
        "link",
        {
            "dataset": DATASET,
            "seed": 0,
            "scale": SCALE,
            "rule_ref": f"{LINEAGE}@v1",
            "rule_hash": "0" * 64,
        },
        max_attempts=3,
    )
    service.queue.submit(record.job_id)
    run_worker(tmp_path / "svc", drain=True, max_jobs=3)
    done = service.status(record.job_id)
    assert done.state == "failed" and done.attempts == 1
    assert "does not match" in done.error
    service.close()


# -- the no-silent-zero-score gate -------------------------------------------


def _gap_rule():
    """Cora's gate rule reads ``title`` — absent from restaurant."""
    return dataset_rule("cora")


def test_direct_engine_scores_gap_rule_silently_to_zero():
    """The failure mode the gate exists for: executed directly, a rule
    whose property vanished just produces zero links — nothing fails."""
    assert direct_links(rule=_gap_rule()) == []


@pytest.mark.parametrize("queue", ["inline", "file"])
def test_service_refuses_gap_rule_with_structured_report(tmp_path, queue):
    from repro.core.serialization import rule_to_dict

    with LinkageService(root=tmp_path / "svc", queue=queue) as service:
        record = service.submit(
            "link", dataset=DATASET, scale=SCALE, rule=rule_to_dict(_gap_rule())
        )
        if queue == "file":
            run_worker(service.root, drain=True)
            # Terminal on the first attempt, and the ticket is acked.
            assert service.queue.depth() == 0 and not service.queue.claimed()
            record = service.status(record.job_id)
    assert record.state == "failed" and record.attempts == 1
    # Inline and worker runs record the same error and report: the
    # registry's own check of the rule against the live schemas.
    dataset = load_dataset(DATASET, scale=SCALE)
    expected = check_rule(_gap_rule(), dataset.source_a, dataset.source_b)
    assert record.error == f"schema gap: {expected.describe()}"
    assert record.result == {"gap_report": expected.to_payload()}
    report = record.result["gap_report"]
    assert report["ok"] is False
    gaps = report["gaps"]
    # Every starved node is named, with its path and a suggestion.
    assert {gap["property"] for gap in gaps} == {"title"}
    assert {gap["side"] for gap in gaps} == {"source", "target"}
    assert all(gap["path"].startswith("root.") for gap in gaps)
    assert all("comparison" in gap and "suggestion" in gap for gap in gaps)


def test_registry_gap_rule_fails_with_ref_in_report(service):
    version = service.registry.publish("acme/cora/base", _gap_rule())
    service.registry.activate(version.ref)
    record = service.submit(
        "link", dataset=DATASET, scale=SCALE, rule="acme/cora/base@active"
    )
    assert record.state == "failed"
    assert record.result["gap_report"]["ref"] == "acme/cora/base@v1"


# -- learn jobs publish into lineages ----------------------------------------


def test_learn_job_publishes_with_provenance(service):
    record = service.submit(
        "learn",
        dataset=DATASET,
        scale=0.2,
        population_size=4,
        iterations=1,
        publish="acme/restaurants/learned",
    )
    assert record.state == "succeeded"
    published = record.result["published"]
    assert published["ref"] == "acme/restaurants/learned@v1"
    version = service.registry.resolve(published["ref"])
    assert version.rule_hash == published["rule_hash"]
    provenance = version.provenance
    assert provenance["dataset"] == DATASET
    assert provenance["job_id"] == record.job_id
    assert set(provenance["source_fingerprints"]) == {"a", "b"}
    assert "validation_f_measure" in provenance

    # The published rule is servable: activate and run a job from it.
    service.registry.activate(version.ref)
    linked = service.submit(
        "link", dataset=DATASET, scale=0.2,
        rule="acme/restaurants/learned@active",
    )
    assert linked.state == "succeeded"


def test_publish_rejects_pinned_lineage(service):
    with pytest.raises(ValueError):
        service.submit(
            "learn", dataset=DATASET, publish="acme/restaurants/learned@v2"
        )


# -- consolidated submission surface ------------------------------------------


def test_submit_validates_keyword_fields(service):
    with pytest.raises(ValueError):
        service.submit("link")  # no dataset
    with pytest.raises(ValueError):
        service.submit("delta", dataset=DATASET)  # no parent
    with pytest.raises(ValueError):
        service.submit("delta", parent="job-x", rule="a/b/c@v1")
    with pytest.raises(ValueError):
        service.submit("learn", dataset=DATASET, rule="a/b/c@v1")
    with pytest.raises(ValueError):
        service.submit("link", dataset=DATASET, publish="a/b/c")
    with pytest.raises(ValueError):
        service.submit("frobnicate", dataset=DATASET)


def test_submit_takes_keyword_fields_only(service):
    """The spec-dict form is gone: a positional spec is a caller error,
    not a job."""
    with pytest.raises(TypeError):
        service.submit("link", {"dataset": DATASET, "seed": 0, "scale": SCALE})
    assert not hasattr(service, "submit_link")
    assert not hasattr(service, "submit_delta")


def test_new_surface_emits_no_deprecation_warning(service):
    _publish_active(service)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        record = service.submit(
            "link", dataset=DATASET, scale=SCALE, rule=f"{LINEAGE}@active"
        )
        delta = service.submit("delta", parent=record.job_id, upserts=1)
    assert record.state == "succeeded" and delta.state == "succeeded"


# -- health ------------------------------------------------------------------


def test_health_reports_registry_degradations(service):
    record = service.submit(
        "link", dataset=DATASET, scale=SCALE, rule="acme/nowhere/rule@v1"
    )
    health = service.health()
    degradations = health["degradations"]
    assert isinstance(degradations, list)
    assert all(
        set(entry) == {"component", "scope", "reason"}
        for entry in degradations
    )
    registry_entries = [
        entry for entry in degradations if entry["component"] == "registry"
    ]
    assert len(registry_entries) == 1
    assert registry_entries[0]["scope"] == record.job_id
    assert registry_entries[0]["reason"].startswith("registry:")
