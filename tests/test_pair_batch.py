"""The columnar shard type and its contract.

Token, rule and MultiBlock blocking cut :class:`PairBatch` shards
straight from probed partner-code arrays, carrying a partial shard
across probe chunks; every other pair stream enters through
:meth:`PairBatch.from_pairs`. These tests pin that both routes produce
exactly the pairs, order and boundaries of the plain chunked pair
stream, and that the batch form keeps store keys and link emission
unchanged.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.core.nodes import ComparisonNode, PropertyNode, TransformationNode
from repro.core.rule import LinkageRule
from repro.data.entity import Entity
from repro.data.pairs import PairBatch
from repro.data.source import DataSource
from repro.engine.session import EngineSession
from repro.engine.store import pairs_fingerprint
from repro.matching import blocking
from repro.matching.blocking import (
    FullIndexBlocker,
    RuleBlocker,
    TokenBlocker,
    _chunked,
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


def _code_blockers():
    rule = _rule()
    return {
        "token": lambda: TokenBlocker(["label"]),
        "rule": lambda: RuleBlocker(rule),
        "multiblock": lambda: MultiBlocker(rule),
    }


def _sources():
    """Small label vocabularies, so every probe entity has several
    partners and a 3-entity probe chunk spans several small shards."""
    source_a = DataSource(
        "A", [Entity(f"a{i:02d}", {"label": f"w{i % 4}"}) for i in range(13)]
    )
    source_b = DataSource(
        "B", [Entity(f"b{i:02d}", {"label": f"w{i % 3}"}) for i in range(11)]
    )
    return source_a, source_b


def _uids(pairs):
    return [(a.uid, b.uid) for a, b in pairs]


def _probe_reference(blocker, source_a, source_b):
    """The candidate stream spelled out pair by pair from raw probe
    results: probe order, partners in uid order, ``uid_a < uid_b`` in
    dedup mode, no self-pairs otherwise."""
    index = blocker.probe_index(source_a, source_b)
    entities = source_a.entities()
    dedup = source_a is source_b
    pairs = []
    for entity, partners in zip(entities, blocker.probe_batch(entities, index)):
        for uid_b in blocker.probe_uids(index, partners):
            if (uid_b > entity.uid) if dedup else (uid_b != entity.uid):
                pairs.append((entity.uid, uid_b))
    return pairs


class TestCodeCutShards:
    @pytest.fixture(autouse=True)
    def _small_probe_chunks(self, monkeypatch):
        monkeypatch.setattr(blocking, "_PROBE_CHUNK", 3)

    @pytest.mark.parametrize("dedup", [False, True], ids=["two-source", "dedup"])
    @pytest.mark.parametrize("batch_size", [1, 2, 5, 7, 4096])
    @pytest.mark.parametrize("label", sorted(_code_blockers()))
    def test_shards_match_the_chunked_candidate_stream(
        self, label, batch_size, dedup
    ):
        make = _code_blockers()[label]
        source_a, source_b = _sources()
        if dedup:
            source_b = source_a
        candidates = list(make().candidates(source_a, source_b))
        assert _uids(candidates) == _probe_reference(make(), source_a, source_b)
        shards = list(make().iter_shards(source_a, source_b, batch_size))
        expected = list(_chunked(candidates, batch_size))
        assert [len(shard) for shard in shards] == [
            len(shard) for shard in expected
        ]
        for shard, reference in zip(shards, expected):
            assert isinstance(shard, PairBatch)
            assert _uids(shard) == _uids(reference)
            # Same entity numbering as the generic converter, so value
            # columns (and their cache traffic) are the same too.
            factored = PairBatch.from_pairs(list(shard))
            assert shard.entities_a == factored.entities_a
            assert shard.entities_b == factored.entities_b
            assert shard.index_a.tolist() == factored.index_a.tolist()
            assert shard.index_b.tolist() == factored.index_b.tolist()

    @pytest.mark.parametrize("label", sorted(_code_blockers()))
    def test_probe_chunks_span_shards(self, label):
        """The fixture really carries a partial shard across probe
        chunks and splits an entity's partners between shards."""
        source_a, source_b = _sources()
        chunk_of = {e.uid: i // 3 for i, e in enumerate(source_a.entities())}
        shards = list(_code_blockers()[label]().iter_shards(source_a, source_b, 7))
        owners = [{a.uid for a in shard.entities_a} for shard in shards]
        assert any(len({chunk_of[uid] for uid in uids}) > 1 for uids in owners)
        assert any(left & right for left, right in zip(owners, owners[1:]))


def _frozen_pairs_fingerprint(pairs) -> str:
    """The per-pair hashing loop the store keyed columns with before
    batches existed (kept verbatim: store keys must not move)."""
    digest = hashlib.sha256()
    for entity_a, entity_b in pairs:
        digest.update(entity_a.fingerprint().encode("ascii"))
        digest.update(b"\x1f")
        digest.update(entity_b.fingerprint().encode("ascii"))
        digest.update(b"\x1e")
    return digest.hexdigest()


class TestPairsFingerprint:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_per_pair_loop(self, seed):
        rng = random.Random(seed)
        entities = [
            Entity(f"e{i}", {"label": f"v{rng.randrange(5)}"}) for i in range(9)
        ]
        pairs = [
            (rng.choice(entities), rng.choice(entities))
            for _ in range(rng.randrange(1, 60))
        ]
        expected = _frozen_pairs_fingerprint(pairs)
        assert pairs_fingerprint(pairs) == expected
        assert pairs_fingerprint(PairBatch.from_pairs(pairs)) == expected

    def test_empty(self):
        expected = _frozen_pairs_fingerprint([])
        assert pairs_fingerprint([]) == expected
        assert pairs_fingerprint(PairBatch.from_pairs([])) == expected

    def test_code_cut_shards_key_like_pair_lists(self):
        source_a, source_b = _sources()
        for shard in TokenBlocker(["label"]).iter_shards(source_a, source_b, 5):
            assert pairs_fingerprint(shard) == _frozen_pairs_fingerprint(
                list(shard)
            )


class TestFromPairs:
    def test_same_uid_different_properties_keep_separate_slots(self):
        probe = Entity("a", {"label": "x"})
        matching = Entity("b", {"label": "x"})
        differing = Entity("b", {"label": "y"})
        pairs = [(probe, matching), (probe, differing), (probe, matching)]
        batch = PairBatch.from_pairs(pairs)
        assert batch.entities_a == [probe]
        assert len(batch.entities_b) == 2
        assert batch.entities_b[0] is matching
        assert batch.entities_b[1] is differing
        assert batch.index_b.tolist() == [0, 1, 0]
        node = ComparisonNode(
            "equality", 0.0, PropertyNode("label"), PropertyNode("label")
        )
        scores = EngineSession().context(pairs).scores(node)
        assert scores.tolist() == [1.0, 0.0, 1.0]

    def test_batch_passes_through(self):
        batch = PairBatch.from_pairs([(Entity("a", {}), Entity("b", {}))])
        assert PairBatch.from_pairs(batch) is batch

    def test_sequence_protocol(self):
        a1, a2 = Entity("a1", {"x": "1"}), Entity("a2", {"x": "2"})
        b1 = Entity("b1", {"x": "1"})
        pairs = [(a1, b1), (a2, b1), (a1, b1)]
        batch = PairBatch.from_pairs(pairs)
        assert len(batch) == 3
        assert list(batch) == pairs
        assert [batch[k] for k in range(3)] == pairs
        assert batch[-1] == pairs[-1]
        assert batch.index_a.dtype == np.intp


class TestSourcePositions:
    def test_code_cut_shards_carry_source_positions(self):
        source_a, source_b = _sources()
        for label, make in _code_blockers().items():
            for shard in make().iter_shards(source_a, source_b, 5):
                assert shard.state_a is source_a.state(), label
                assert shard.state_b is source_b.state(), label
                assert [
                    source_a.state().entities[p] for p in shard.positions_a
                ] == shard.entities_a
                assert [
                    source_b.state().entities[p] for p in shard.positions_b
                ] == shard.entities_b

    def test_from_pairs_positions_only_the_sources_own_entities(self):
        source_a, source_b = _sources()
        pairs = list(FullIndexBlocker().candidates(source_a, source_b))[:7]
        batch = PairBatch.from_pairs(pairs, source_a, source_b)
        assert list(batch) == pairs
        assert batch.state_a is source_a.state()
        assert batch.positions_b.tolist() == [
            source_b.state().position(e.uid) for e in batch.entities_b
        ]
        # A stranger (here: an equal copy) makes its side ad-hoc.
        stranger = Entity("b00", dict(source_b.get("b00").properties))
        mixed = PairBatch.from_pairs(
            pairs + [(pairs[0][0], stranger)], source_a, source_b
        )
        assert mixed.state_a is source_a.state()
        assert mixed.state_b is None and mixed.positions_b is None


class TestLinkEmission:
    def test_threshold_edges_match_the_per_pair_loop(self, monkeypatch):
        """Scores exactly at, just below and just above the threshold
        (plus 0, 1 and NaN) emit the links the per-pair loop did."""
        source_a = DataSource(
            "A", [Entity(f"a{i}", {"label": "w"}) for i in range(4)]
        )
        source_b = DataSource(
            "B", [Entity(f"b{i}", {"label": "w"}) for i in range(5)]
        )
        edges = [
            0.5,
            np.nextafter(0.5, 0.0),
            np.nextafter(0.5, 1.0),
            0.0,
            1.0,
            float("nan"),
        ]
        scores = np.array([edges[k % len(edges)] for k in range(20)])
        served: list[int] = []

        def batch_scores(self, session, rule, batch):
            start = sum(served)
            served.append(len(batch))
            return scores[start : start + len(batch)]

        monkeypatch.setattr(MatchingEngine, "_batch_scores", batch_scores)
        engine = MatchingEngine(
            blocker=FullIndexBlocker(), batch_size=6, workers=0
        )
        links = [
            (link.uid_a, link.uid_b, link.score)
            for link in engine.iter_links(_rule(), source_a, source_b)
        ]
        pairs = FullIndexBlocker().candidates(source_a, source_b)
        expected = [
            (a.uid, b.uid, float(score))
            for (a, b), score in zip(pairs, scores)
            if score >= 0.5
        ]
        assert served == [6, 6, 6, 2]
        assert links == expected
        assert [score for *_, score in links].count(0.5) == 4
        assert engine.last_run_stats().links == len(expected)
