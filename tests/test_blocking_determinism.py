"""Blocking determinism: identical links whatever the execution shape.

The blocking front-end promises that generated links depend only on
(rule, sources, blocker): never on worker count, batch size, or
whether indexes came fresh, from the session memo, or from the
persistent store — and that every complete blocker agrees on the link
*set*. These tests pin that contract property-based (random sources ×
blockers × workers × batch sizes) plus targeted cases for
persisted-index invalidation on source change.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nodes import ComparisonNode, PropertyNode, TransformationNode
from repro.core.rule import LinkageRule
from repro.data.entity import Entity
from repro.data.source import DataSource
from repro.engine.session import EngineSession
from repro.matching.blocking import (
    FullIndexBlocker,
    RuleBlocker,
    TokenBlocker,
)
from repro.matching.engine import MatchingEngine
from repro.matching.multiblock import MultiBlocker


def _rule() -> LinkageRule:
    return LinkageRule(
        ComparisonNode(
            "equality",
            0.0,
            TransformationNode("lowerCase", (PropertyNode("label"),)),
            TransformationNode("lowerCase", (PropertyNode("label"),)),
        )
    )


@st.composite
def _sources(draw):
    """Two sources over a shared single-word vocabulary.

    Labels are single words unique per source, so *every* blocker
    under test is complete: equal-after-lowercase pairs share a token
    (token/rule blocking) and an equality block on the transformed
    value (MultiBlock).
    """
    pool = draw(
        st.lists(
            st.text(alphabet="abcd", min_size=1, max_size=5),
            min_size=2,
            max_size=8,
            unique=True,
        )
    )
    labels_a = draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True)
    )
    labels_b = draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True)
    )
    shout_a = draw(st.booleans())
    source_a = DataSource(
        "A",
        [
            Entity(f"a{i}", {"label": label.upper() if shout_a else label})
            for i, label in enumerate(labels_a)
        ],
    )
    source_b = DataSource(
        "B", [Entity(f"b{i}", {"label": label}) for i, label in enumerate(labels_b)]
    )
    return source_a, source_b


def _blockers(rule):
    return {
        "full": lambda: FullIndexBlocker(),
        "token": lambda: TokenBlocker(["label"]),
        "rule": lambda: RuleBlocker(rule),
        "multiblock": lambda: MultiBlocker(rule),
    }


@given(sources=_sources())
@settings(max_examples=15, deadline=None)
def test_links_identical_across_blockers_workers_and_batches(sources):
    """Per blocker: identical links *and emission order* across
    workers and batch sizes; across blockers: identical link sets."""
    source_a, source_b = sources
    rule = _rule()
    link_sets = {}
    for label, make in _blockers(rule).items():
        reference = None
        for workers, batch_size in ((0, 3), (0, 1000), (2, 2), (2, 1000)):
            engine = MatchingEngine(
                blocker=make(), workers=workers, batch_size=batch_size
            )
            try:
                links = [
                    (link.uid_a, link.uid_b, link.score)
                    for link in engine.iter_links(rule, source_a, source_b)
                ]
            finally:
                engine.close()
            if reference is None:
                reference = links
            else:
                assert links == reference, (label, workers, batch_size)
        link_sets[label] = frozenset(reference)
    assert all(
        pairs == link_sets["full"] for pairs in link_sets.values()
    ), link_sets


class TestPersistedIndexInvalidation:
    def _source(self, marker: str) -> DataSource:
        return DataSource(
            "S",
            [
                Entity("e1", {"label": f"alpha {marker}"}),
                Entity("e2", {"label": "beta"}),
                Entity("e3", {"label": "alpha beta"}),
            ],
        )

    def test_token_index_invalidates_on_source_change(self, tmp_path):
        blocker = TokenBlocker(["label"])
        original = self._source("one")

        cold = EngineSession(store=str(tmp_path))
        index = blocker.build_index(original, session=cold)
        assert "one" in index
        store_stats = cold.stats().store
        # Two persisted payloads per token index: the raw (unfiltered)
        # block table plus the size-filtered view derived from it.
        assert store_stats.index_misses == 2
        assert store_stats.index_writes == 2

        # Unchanged source, fresh session: the filtered view loads from
        # the index tier directly — the raw table is never touched.
        warm = EngineSession(store=str(tmp_path))
        warm_index = blocker.build_index(original, session=warm)
        assert warm_index == index
        assert warm.stats().store.index_hits == 1
        assert warm.stats().store.index_misses == 0

        # One changed value: different fingerprint, clean miss, fresh
        # index reflecting the new content — never a stale hit.
        changed = self._source("two")
        changed_session = EngineSession(store=str(tmp_path))
        changed_index = blocker.build_index(changed, session=changed_session)
        assert "two" in changed_index and "one" not in changed_index
        assert changed_session.stats().store.index_misses == 2
        assert changed_session.stats().store.index_hits == 0

    def test_changed_source_changes_generated_links(self, tmp_path):
        rule = _rule()

        def run(source_b):
            engine = MatchingEngine(cache_dir=str(tmp_path))
            try:
                return {
                    l.as_pair()
                    for l in engine.execute(
                        rule,
                        DataSource("A", [Entity("a1", {"label": "alpha"})]),
                        source_b,
                    )
                }
            finally:
                engine.close()

        matching = DataSource("B", [Entity("b1", {"label": "ALPHA"})])
        assert run(matching) == {("a1", "b1")}
        # Same uids, different content: the persisted index for the old
        # snapshot must not leak into the new one.
        differing = DataSource("B", [Entity("b1", {"label": "gamma"})])
        assert run(differing) == set()
        # And the original snapshot still resolves (and still hits).
        assert run(matching) == {("a1", "b1")}


class TestShardContract:
    """iter_shards is the candidates stream, chunked — nothing else."""

    @pytest.mark.parametrize("batch_size", [1, 2, 5, 1000])
    def test_shards_reconcatenate_to_candidates(self, batch_size):
        rule = _rule()
        source_a = DataSource(
            "A", [Entity(f"a{i}", {"label": f"w{i % 4}"}) for i in range(12)]
        )
        source_b = DataSource(
            "B", [Entity(f"b{i}", {"label": f"w{i % 3}"}) for i in range(12)]
        )
        for label, make in _blockers(rule).items():
            blocker = make()
            expected = [
                (a.uid, b.uid) for a, b in blocker.candidates(source_a, source_b)
            ]
            shards = list(
                make().iter_shards(source_a, source_b, batch_size)
            )
            flattened = [
                (a.uid, b.uid) for shard in shards for a, b in shard
            ]
            assert flattened == expected, label
            assert all(len(shard) <= batch_size for shard in shards), label
            if expected:
                assert all(shard for shard in shards), label

    def test_invalid_batch_size_rejected(self):
        blocker = FullIndexBlocker()
        source = DataSource("A", [Entity("a1", {"label": "x"})])
        with pytest.raises(ValueError, match="batch_size"):
            blocker.iter_shards(source, source, 0)
