"""Incremental matching equivalence gate.

The contract under test: after any sequence of
``DataSource.apply_delta`` calls, ``MatchingEngine.link_diff`` produces
a link list **byte-identical** to a cold ``execute`` over freshly
rebuilt sources — across every bundled dataset, every delta-aware
blocker and every executor shape. The diff's bookkeeping (added /
removed / unchanged, carried-over links) must also reconcile exactly
with the two link sets it claims to compare.
"""

from __future__ import annotations

import random

import pytest

from repro.data.source import DataSource
from repro.datasets import load_dataset
from repro.matching.blocking import TokenBlocker
from repro.matching.engine import MatchingEngine
from repro.matching.incremental import (
    DATASET_RULE_PROPERTIES,
    dataset_rule,
    random_source_delta,
    rebuilt,
)
from repro.matching.multiblock import MultiBlocker

#: Subsample scales keeping the full dataset x blocker x executor
#: matrix fast while every side stays large enough for K=25 mutations.
_SCALES = {
    "cora": 0.05,
    "restaurant": 0.1,
    "sider_drugbank": 0.05,
    "nyt": 0.04,
    "linkedmdb": 0.5,
    "dbpedia_drugbank": 0.04,
}

#: K = 25 mutation events per side, split over two delta steps so the
#: gate exercises multi-epoch chains (patch replay, not just one hop).
_STEPS = ((9, 4), (8, 4))

_BLOCKERS = ("multiblock", "token")
_WORKERS = (0, 2)


def _blocker(kind: str, name: str):
    prop_a, prop_b = DATASET_RULE_PROPERTIES[name]
    if kind == "token":
        return TokenBlocker([prop_a], [prop_b], max_block_size=200)
    return MultiBlocker(dataset_rule(name))


def _links(links) -> list[tuple[str, str, float]]:
    return [(link.uid_a, link.uid_b, link.score) for link in links]


def _run_combo(name: str, kind: str, workers, tmp_path) -> None:
    rule = dataset_rule(name)
    dataset = load_dataset(name, seed=0, scale=_SCALES[name])
    source_a, source_b = dataset.source_a, dataset.source_b
    dedup = source_a is source_b
    rng = random.Random(f"{name}/{kind}/{workers}")
    engine = MatchingEngine(
        blocker=_blocker(kind, name),
        cache_dir=str(tmp_path / f"{kind}-{workers}"),
        workers=workers,
        batch_size=512,
    )
    try:
        previous = list(engine.execute(rule, source_a, source_b))
        deltas_a = []
        deltas_b = deltas_a if dedup else []
        for upserts, deletes in _STEPS:
            deltas_a.append(
                random_source_delta(
                    source_a,
                    rng,
                    upserts=upserts,
                    deletes=min(deletes, len(source_a) // 3),
                )
            )
            if not dedup:
                deltas_b.append(
                    random_source_delta(
                        source_b,
                        rng,
                        upserts=upserts,
                        deletes=min(deletes, len(source_b) // 3),
                    )
                )
        diff = engine.link_diff(
            rule,
            source_a,
            source_b,
            previous,
            deltas_a=deltas_a,
            deltas_b=deltas_b,
        )
    finally:
        engine.close()

    # Cold reference: rebuilt sources (no epoch chain, no persisted
    # lineage), fresh serial engine, no store. Dedup identity must
    # survive the rebuild — two distinct copies would change the
    # pair-orientation semantics.
    cold_a = rebuilt(source_a)
    cold_b = cold_a if dedup else rebuilt(source_b)
    verifier = MatchingEngine(blocker=_blocker(kind, name), batch_size=512)
    try:
        cold = list(verifier.execute(rule, cold_a, cold_b))
    finally:
        verifier.close()

    label = (name, kind, workers)
    assert _links(diff.links) == _links(cold), label

    # Diff bookkeeping reconciles with the two link sets exactly.
    assert set(diff.added) | set(diff.unchanged) == set(diff.links), label
    assert not set(diff.added) & set(diff.unchanged), label
    assert set(diff.unchanged) <= set(previous), label
    assert set(diff.removed) <= set(previous), label
    previous_pairs = {link.as_pair(): link for link in previous}
    for link in diff.added:
        assert previous_pairs.get(link.as_pair()) != link, label
    for link in diff.removed:
        assert link not in diff.links, label
    assert diff.kept_links <= len(previous), label
    if diff.affected_uids is not None:
        changed = set()
        for delta in deltas_a:
            changed |= delta.changed_uids
        for delta in deltas_b:
            changed |= delta.changed_uids
        assert changed <= diff.affected_uids, label


@pytest.mark.parametrize("name", sorted(_SCALES))
@pytest.mark.parametrize("kind", _BLOCKERS)
def test_incremental_equivalence(name, kind, tmp_path):
    """Every dataset x blocker x executor of the matrix."""
    for workers in _WORKERS:
        _run_combo(name, kind, workers, tmp_path)


def test_empty_delta_is_identity(tmp_path):
    """No deltas: everything carries over, nothing is re-scored."""
    dataset = load_dataset("restaurant", seed=0, scale=_SCALES["restaurant"])
    source = dataset.source_a
    rule = dataset_rule("restaurant")
    engine = MatchingEngine(
        blocker=_blocker("token", "restaurant"), cache_dir=str(tmp_path)
    )
    try:
        previous = list(engine.execute(rule, source, source))
        diff = engine.link_diff(rule, source, source, previous)
    finally:
        engine.close()
    assert list(diff.links) == previous
    assert diff.added == () and diff.removed == ()
    assert diff.unchanged == tuple(diff.links)
    assert diff.rescored_pairs == 0
    assert diff.kept_links == len(previous)
    assert diff.affected_uids == frozenset()


def test_full_rescore_fallback(tmp_path):
    """A blocker without delta support returns None from
    affected_probe_uids: link_diff degrades to a cold execute and
    reports it (affected_uids is None)."""
    from repro.matching.blocking import FullIndexBlocker

    dataset = load_dataset("restaurant", seed=0, scale=_SCALES["restaurant"])
    source = dataset.source_a
    rule = dataset_rule("restaurant")
    engine = MatchingEngine(blocker=FullIndexBlocker(), batch_size=512)
    try:
        previous = list(engine.execute(rule, source, source))
        rng = random.Random(3)
        delta = random_source_delta(source, rng, upserts=5, deletes=2)
        diff = engine.link_diff(
            rule, source, source, previous,
            deltas_a=[delta], deltas_b=[delta],
        )
        cold_source = rebuilt(source)
        cold = list(engine.execute(rule, cold_source, cold_source))
    finally:
        engine.close()
    assert diff.affected_uids is None
    assert diff.kept_links == 0
    assert _links(diff.links) == _links(cold)


def test_unindexable_multiblock_probe_side_delta(tmp_path):
    """MultiBlock over a rule with no indexable comparison, after a
    probe-side-only delta: the affected set is just the changed uids,
    so link_diff rescores them through the filtered full product — and
    still equals a cold execute."""
    from repro.core.nodes import ComparisonNode, PropertyNode
    from repro.core.rule import LinkageRule
    from repro.data.entity import Entity

    rule = LinkageRule(
        ComparisonNode(
            "relativeNumeric", 0.05, PropertyNode("n"), PropertyNode("n")
        )
    )
    source_a = DataSource(
        "A", [Entity(f"a{i}", {"n": str(100 + i)}) for i in range(30)]
    )
    source_b = DataSource(
        "B", [Entity(f"b{i}", {"n": str(100 + 2 * i)}) for i in range(30)]
    )
    engine = MatchingEngine(
        blocker=MultiBlocker(rule), cache_dir=str(tmp_path), batch_size=16
    )
    try:
        previous = list(engine.execute(rule, source_a, source_b))
        delta = source_a.apply_delta(
            [Entity("a4", {"n": "131"}), Entity("a99", {"n": "150"})], ["a3"]
        )
        diff = engine.link_diff(
            rule, source_a, source_b, previous, deltas_a=[delta]
        )
    finally:
        engine.close()
    verifier = MatchingEngine(blocker=MultiBlocker(rule))
    try:
        cold = list(
            verifier.execute(rule, rebuilt(source_a), rebuilt(source_b))
        )
    finally:
        verifier.close()
    assert diff.affected_uids == {"a3", "a4", "a99"}
    # Two live affected probe entities, each against all 30 B entities.
    assert diff.rescored_pairs == 60
    assert cold and _links(diff.links) == _links(cold)
    assert diff.kept_links < len(previous)


def test_iter_link_diff_streams_the_diff(tmp_path):
    dataset = load_dataset("restaurant", seed=0, scale=_SCALES["restaurant"])
    source = dataset.source_a
    rule = dataset_rule("restaurant")
    engine = MatchingEngine(
        blocker=_blocker("token", "restaurant"), cache_dir=str(tmp_path)
    )
    try:
        previous = list(engine.execute(rule, source, source))
        rng = random.Random(5)
        delta = random_source_delta(source, rng, upserts=6, deletes=3)
        events = list(
            engine.iter_link_diff(
                rule, source, source, previous,
                deltas_a=[delta], deltas_b=[delta],
            )
        )
    finally:
        engine.close()
    kinds = {kind for kind, _ in events}
    assert kinds <= {"added", "removed", "unchanged"}
    by_kind = {
        kind: [link for k, link in events if k == kind]
        for kind in ("added", "removed", "unchanged")
    }
    assert set(by_kind["unchanged"]) <= set(previous)
    # Every event link is a real link of one of the two link sets.
    new_links = set(by_kind["added"]) | set(by_kind["unchanged"])
    for link in by_kind["removed"]:
        assert link in previous
    for link in new_links:
        assert link.score >= 0.5


def test_affected_stream_opens_one_probe_ledger(tmp_path, monkeypatch):
    """A two-source MultiBlock link_diff whose forward pass probes the
    changed A entities and whose reverse pass probes unchanged partners
    of a changed B entity loads and saves the probe ledger once: the
    reverse pass rides the forward pass's ledger."""
    from repro.core.nodes import ComparisonNode, PropertyNode
    from repro.core.rule import LinkageRule
    from repro.data.entity import Entity
    from repro.engine.store import ColumnStore

    rule = LinkageRule(
        ComparisonNode(
            "levenshtein", 2.0, PropertyNode("n"), PropertyNode("n")
        )
    )
    source_a = DataSource(
        "A", [Entity(f"a{i}", {"n": f"name{i}"}) for i in range(20)]
    )
    source_b = DataSource(
        "B", [Entity(f"b{i}", {"n": f"name{i}"}) for i in range(20)]
    )
    engine = MatchingEngine(
        blocker=MultiBlocker(rule), cache_dir=str(tmp_path)
    )
    try:
        previous = list(engine.execute(rule, source_a, source_b))
        delta_a = source_a.apply_delta([Entity("a3", {"n": "name3x"})])
        delta_b = source_b.apply_delta([Entity("b5", {"n": "name5y"})])
        calls: list[str] = []
        for name in ("load_probe_ledger", "save_probe_ledger"):
            method = getattr(ColumnStore, name)

            def counted(self, *args, _name=name, _method=method):
                calls.append(_name)
                return _method(self, *args)

            monkeypatch.setattr(ColumnStore, name, counted)
        diff = engine.link_diff(
            rule,
            source_a,
            source_b,
            previous,
            deltas_a=[delta_a],
            deltas_b=[delta_b],
        )
    finally:
        engine.close()
    # The reverse pass paired the changed b5 with unchanged partners.
    assert any(
        link.uid_b == "b5" and link.uid_a != "a3" for link in diff.links
    )
    assert calls == ["load_probe_ledger", "save_probe_ledger"]
    verifier = MatchingEngine(blocker=MultiBlocker(rule))
    try:
        cold = list(
            verifier.execute(rule, rebuilt(source_a), rebuilt(source_b))
        )
    finally:
        verifier.close()
    assert _links(diff.links) == _links(cold)
