"""Batch-probe parity with the frozen per-entity probe loops.

``Blocker.probe_batch`` replaced the per-entity Python probe loops;
these tests pin it to the frozen copies in
``benchmarks/_seed_blocking.py`` property-based: for random sources,
every blocker's batch probe must produce exactly the per-entity
candidates the seed loops produced, for every chunking of the A side —
and the probe memo must actually hit on duplicate-heavy sources, with
the traffic reported through the session's probe counters
(``EngineStats.probe_batches`` / ``probe_memo_hits``, surfaced per run
in ``MatchStats``).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# The frozen probe baselines live with the benchmarks (they are the
# "do not improve" reference the speedup bench gates against).
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from _seed_blocking import (  # noqa: E402  (path set up above)
    SeedValueMemo,
    seed_multiblock_probe_kernel,
    seed_token_probe_kernel,
)

from repro.core.nodes import (  # noqa: E402
    AggregationNode,
    ComparisonNode,
    PropertyNode,
    TransformationNode,
)
from repro.core.rule import LinkageRule  # noqa: E402
from repro.data.entity import Entity  # noqa: E402
from repro.data.source import DataSource  # noqa: E402
from repro.engine.session import EngineSession  # noqa: E402
from repro.matching.blocking import TokenBlocker  # noqa: E402
from repro.matching.engine import MatchingEngine  # noqa: E402
from repro.matching.multiblock import MultiBlocker  # noqa: E402


def _lower(prop: str):
    return TransformationNode("lowerCase", (PropertyNode(prop),))


def _equality_rule() -> LinkageRule:
    return LinkageRule(
        ComparisonNode("equality", 0.0, _lower("label"), _lower("label"))
    )


def _algebra_rules() -> dict[str, LinkageRule]:
    """Rules exercising every branch of the candidate algebra:
    single comparison, min (intersection), max (union), and an
    unindexable child (``relativeNumeric``) contributing the full
    candidate universe."""
    equality = ComparisonNode("equality", 0.0, _lower("label"), _lower("label"))
    jaccard = ComparisonNode(
        "jaccard",
        0.5,
        TransformationNode("tokenize", (PropertyNode("label"),)),
        TransformationNode("tokenize", (PropertyNode("label"),)),
    )
    unindexable = ComparisonNode(
        "relativeNumeric", 0.1, PropertyNode("label"), PropertyNode("label")
    )
    return {
        "single": LinkageRule(equality),
        "min": LinkageRule(AggregationNode("min", (equality, jaccard))),
        "max": LinkageRule(AggregationNode("max", (equality, jaccard))),
        "min-unindexable": LinkageRule(
            AggregationNode("min", (equality, unindexable))
        ),
    }


@st.composite
def _sources(draw):
    """Two sources over a shared multi-word vocabulary (labels may
    repeat within a source, so blocks and probe memos see duplicates)."""
    pool = draw(
        st.lists(
            st.text(alphabet="abcd ", min_size=1, max_size=7),
            min_size=2,
            max_size=8,
            unique=True,
        )
    )
    labels_a = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    labels_b = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
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
    dedup = draw(st.booleans())
    if dedup:
        return source_a, source_a
    return source_a, source_b


def _chunked_probe(blocker, entities, index, chunk_size):
    results = []
    for start in range(0, len(entities), chunk_size):
        results.extend(
            blocker.probe_batch(entities[start : start + chunk_size], index)
        )
    return results


CHUNK_SIZES = (1, 3, 1000)


@given(sources=_sources(), chunk=st.sampled_from(CHUNK_SIZES))
@settings(max_examples=40, deadline=None)
def test_token_probe_batch_matches_seed(sources, chunk):
    """Token batch probing == the frozen per-entity token probe, per
    entity, for every chunking; chunking never changes the arrays."""
    source_a, source_b = sources
    blocker = TokenBlocker(["label"])
    raw_index = blocker.build_index(source_b)
    probe_index = blocker.probe_index(source_a, source_b)
    entities = source_a.entities()
    results = _chunked_probe(blocker, entities, probe_index, chunk)
    seed = seed_token_probe_kernel(source_a, raw_index, ["label"])
    assert len(results) == len(seed)
    for (uid_a, partners), codes in zip(seed, results):
        assert set(blocker.probe_uids(probe_index, codes)) == set(
            partners
        ), uid_a
    whole = blocker.probe_batch(entities, probe_index)
    assert [c.tolist() for c in whole] == [c.tolist() for c in results]


@given(sources=_sources(), chunk=st.sampled_from(CHUNK_SIZES))
@settings(max_examples=25, deadline=None)
def test_multiblock_probe_batch_matches_seed(sources, chunk):
    """MultiBlock batch probing == the frozen per-entity candidate
    algebra, exactly (order included), across aggregation shapes."""
    source_a, source_b = sources
    for label, rule in _algebra_rules().items():
        blocker = MultiBlocker(rule)
        indexes = blocker.build_index(source_b)
        probe_index = blocker.probe_index(source_a, source_b)
        seed = seed_multiblock_probe_kernel(
            rule,
            source_a,
            indexes,
            frozenset(entity.uid for entity in source_b),
            SeedValueMemo(),
        )
        results = _chunked_probe(
            blocker, source_a.entities(), probe_index, chunk
        )
        assert len(results) == len(seed)
        for (uid_a, partners), codes in zip(seed, results):
            assert (
                list(blocker.probe_uids(probe_index, codes)) == partners
            ), (label, uid_a)


class TestProbeMemo:
    def _duplicate_sources(self) -> tuple[DataSource, DataSource]:
        source_a = DataSource(
            "A",
            [Entity(f"a{i}", {"label": f"value {i % 5}"}) for i in range(200)],
        )
        source_b = DataSource(
            "B",
            [Entity(f"b{i}", {"label": f"value {i % 5}"}) for i in range(50)],
        )
        return source_a, source_b

    def test_multiblock_probe_memo_hits_on_duplicate_heavy_source(self):
        """200 probe entities over 5 distinct transformed tuples: at
        most 5 probes derive keys, the rest hit the memo."""
        source_a, source_b = self._duplicate_sources()
        rule = _equality_rule()
        with MatchingEngine(blocker=MultiBlocker(rule), workers=0) as engine:
            links = engine.execute(rule, source_a, source_b)
            stats = engine.last_run_stats()
        assert links  # the workload matches, so the probe found pairs
        assert stats.probe_batches >= 1
        assert stats.probe_memo_hits >= 195
        hit_rate = stats.probe_memo_hits / len(source_a.entities())
        assert hit_rate >= 0.97

    def test_token_probe_memo_hits_on_duplicate_heavy_source(self):
        source_a, source_b = self._duplicate_sources()
        rule = _equality_rule()
        with MatchingEngine(
            blocker=TokenBlocker(["label"]), workers=0
        ) as engine:
            engine.execute(rule, source_a, source_b)
            stats = engine.last_run_stats()
        assert stats.probe_batches >= 1
        assert stats.probe_memo_hits >= 195

    def test_distinct_values_produce_no_memo_hits(self):
        source_a = DataSource(
            "A", [Entity(f"a{i}", {"label": f"unique {i}"}) for i in range(50)]
        )
        source_b = DataSource(
            "B", [Entity(f"b{i}", {"label": f"unique {i}"}) for i in range(50)]
        )
        rule = _equality_rule()
        with MatchingEngine(blocker=MultiBlocker(rule), workers=0) as engine:
            engine.execute(rule, source_a, source_b)
            stats = engine.last_run_stats()
        assert stats.probe_batches >= 1
        assert stats.probe_memo_hits == 0


class TestMatchStatsProbeCounters:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_probe_counters_reported_per_run(self, workers):
        """Every execution shape reports probe traffic."""
        source_a = DataSource(
            "A", [Entity(f"a{i}", {"label": f"w{i % 7}"}) for i in range(30)]
        )
        source_b = DataSource(
            "B", [Entity(f"b{i}", {"label": f"w{i % 7}"}) for i in range(30)]
        )
        rule = _equality_rule()
        with MatchingEngine(workers=workers) as engine:
            first = list(engine.iter_links(rule, source_a, source_b))
            stats = engine.last_run_stats()
            assert stats.probe_batches >= 1
            assert stats.probe_memo_hits >= 0
            # Per-run delta: a second run reports its own traffic, not
            # the accumulated history.
            second = list(engine.iter_links(rule, source_a, source_b))
            again = engine.last_run_stats()
        assert second == first
        assert again.probe_batches >= 1
        assert again.probe_batches <= stats.probe_batches + 2
