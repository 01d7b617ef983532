"""Tests for blocking strategies."""

import sys
from pathlib import Path

import pytest

from repro.core.nodes import (
    AggregationNode,
    ComparisonNode,
    PropertyNode,
    TransformationNode,
)
from repro.core.rule import LinkageRule
from repro.data.entity import Entity
from repro.data.source import DataSource
from repro.engine.session import EngineSession
from repro.matching import blocking
from repro.matching.blocking import (
    FullIndexBlocker,
    RuleBlocker,
    TokenBlocker,
)
from repro.matching.incremental import rebuilt
from repro.matching.multiblock import MultiBlocker, comparison_index_token

# The seed per-entity tokeniser is frozen with the benchmarks.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from _seed_blocking import _tokens_of  # noqa: E402  (path set up above)


def _sources():
    source_a = DataSource(
        "A",
        [
            Entity("a1", {"label": "Berlin City"}),
            Entity("a2", {"label": "Hamburg Port"}),
            Entity("a3", {"label": "Munich"}),
        ],
    )
    source_b = DataSource(
        "B",
        [
            Entity("b1", {"name": "berlin city"}),
            Entity("b2", {"name": "hamburg"}),
            Entity("b3", {"name": "stuttgart"}),
        ],
    )
    return source_a, source_b


def _delta_sources():
    """Two sources whose ``tok<k>`` blocks hold three entities each."""
    source_a = DataSource(
        "A",
        [Entity(f"a{i}", {"label": f"tok{i % 4} word{i}"}) for i in range(12)],
    )
    source_b = DataSource(
        "B",
        [
            Entity(f"b{i}", {"name": f"tok{i % 4} word{i} common"})
            for i in range(12)
        ],
    )
    return source_a, source_b


def _count_builds(monkeypatch) -> list[int]:
    """Record the entity count of every cold block-table build (every
    table of every probing blocker goes through the shared builder)."""
    builds: list[int] = []
    build_table = blocking._build_table

    def counted(entities, keys_of):
        builds.append(len(entities))
        return build_table(entities, keys_of)

    monkeypatch.setattr(blocking, "_build_table", counted)
    return builds


def _token_indexes(blocker, source_a, source_b) -> dict:
    """Every index a TokenBlocker resolves, in comparable form: the
    forward and reverse tables, the filtered view and the code view."""
    session = blocker._session(None)
    probe = blocker.probe_index(source_a, source_b)
    codes = {token: codes.tolist() for token, codes in probe.blocks.items()}
    return {
        "forward": blocker._raw_blocks(source_b, session),
        "filtered": blocker.build_index(source_b),
        "codes": (probe.uids, codes),
        "reverse": blocker._reverse_blocks(source_a, session),
    }


def _multiblock_rule() -> LinkageRule:
    def compare(metric, threshold, function):
        return ComparisonNode(
            metric,
            threshold,
            TransformationNode(function, (PropertyNode("label"),)),
            TransformationNode(function, (PropertyNode("name"),)),
        )

    return LinkageRule(
        AggregationNode(
            "max",
            (
                compare("jaccard", 0.5, "tokenize"),
                compare("qgrams", 0.5, "lowerCase"),
            ),
        )
    )


def _multiblock_indexes(blocker, source_a, source_b) -> dict:
    """Every index a MultiBlocker resolves, in comparable form: per
    comparison the forward and reverse tables and the code view, plus
    the shared uid code table."""
    session = blocker._session(None)
    probe = blocker.probe_index(source_a, source_b)
    found: dict = {"uids": probe.uids}
    for node_id, index in probe.indexes.items():
        name = comparison_index_token(index.comparison, index.indexer)
        found[f"{name}|forward"] = index.blocks
        found[f"{name}|codes"] = {
            key: codes.tolist() for key, codes in probe.views[node_id].items()
        }
        found[f"{name}|reverse"] = blocker._reverse_blocks(
            index.comparison, index.indexer, source_a, session
        )
    return found


#: blocker kind -> (blocker factory, index snapshot, tables per build).
_PROBING_BLOCKERS = {
    "token": (
        lambda: TokenBlocker(["label"], ["name"], max_block_size=3),
        _token_indexes,
        2,
    ),
    "multiblock": (
        lambda: MultiBlocker(_multiblock_rule()),
        _multiblock_indexes,
        4,
    ),
}


class TestFullIndexBlocker:
    def test_cartesian_product(self):
        source_a, source_b = _sources()
        pairs = list(FullIndexBlocker().candidates(source_a, source_b))
        assert len(pairs) == 9

    def test_deduplication_yields_unordered_pairs(self):
        source_a, _ = _sources()
        pairs = list(FullIndexBlocker().candidates(source_a, source_a))
        assert len(pairs) == 3  # C(3, 2)
        for entity_a, entity_b in pairs:
            assert entity_a.uid < entity_b.uid

    def test_candidate_count(self):
        source_a, source_b = _sources()
        assert FullIndexBlocker().candidate_count(source_a, source_b) == 9


class TestTokenBlocker:
    def test_shared_tokens_paired(self):
        source_a, source_b = _sources()
        blocker = TokenBlocker(["label"], ["name"])
        pairs = {(a.uid, b.uid) for a, b in blocker.candidates(source_a, source_b)}
        assert ("a1", "b1") in pairs  # share 'berlin' and 'city'
        assert ("a2", "b2") in pairs  # share 'hamburg'
        assert ("a3", "b3") not in pairs  # nothing shared

    def test_no_duplicate_pairs(self):
        source_a, source_b = _sources()
        blocker = TokenBlocker(["label"], ["name"])
        pairs = list(blocker.candidates(source_a, source_b))
        assert len(pairs) == len({(a.uid, b.uid) for a, b in pairs})

    def test_tokenisation_case_insensitive(self):
        source_a, source_b = _sources()
        blocker = TokenBlocker(["label"], ["name"])
        pairs = {(a.uid, b.uid) for a, b in blocker.candidates(source_a, source_b)}
        assert ("a1", "b1") in pairs

    def test_stop_word_blocks_dropped(self):
        source_a = DataSource(
            "A", [Entity(f"a{i}", {"label": f"the item {i}"}) for i in range(20)]
        )
        source_b = DataSource(
            "B", [Entity(f"b{i}", {"label": f"the thing {i}"}) for i in range(20)]
        )
        blocker = TokenBlocker(["label"], max_block_size=5)
        pairs = list(blocker.candidates(source_a, source_b))
        # 'the' blocks are dropped; only same-number pairs remain.
        assert all(a.uid[1:] == b.uid[1:] for a, b in pairs)

    def test_deduplication_mode(self):
        source_a, _ = _sources()
        blocker = TokenBlocker(["label"])
        pairs = list(blocker.candidates(source_a, source_a))
        for entity_a, entity_b in pairs:
            assert entity_a.uid < entity_b.uid


class TestTokenIndex:
    def test_index_maps_tokens_to_uids_in_source_order(self):
        _, source_b = _sources()
        index = TokenBlocker(["name"]).build_index(source_b)
        assert index["berlin"] == ("b1",)
        assert index["hamburg"] == ("b2",)

    def test_index_tokens_match_seed_tokenisation(self):
        """Bulk (translate/split) tokenisation produces exactly the
        seed per-entity token sets."""
        source_a, source_b = _sources()
        for source in (source_a, source_b):
            properties = source.property_names()
            index = TokenBlocker(properties).build_index(source)
            expected: set[str] = set()
            for entity in source:
                expected |= _tokens_of(entity, properties)
            assert set(index) == expected

    def test_non_ascii_tokens_match_seed_tokenisation(self):
        """Lowering can decompose characters ('İ' → 'i' + combining
        dot); tokenisation must happen before lowering on the Unicode
        path so tokens never split mid-word."""
        source = DataSource(
            "B", [Entity("b1", {"label": "İstanbul Ölüdeniz"})]
        )
        index = TokenBlocker(["label"]).build_index(source)
        assert set(index) == _tokens_of(source.get("b1"), ["label"])

    def test_oversized_blocks_dropped_at_build(self):
        source = DataSource(
            "B", [Entity(f"b{i}", {"label": f"the item{i}"}) for i in range(9)]
        )
        index = TokenBlocker(["label"], max_block_size=5).build_index(source)
        assert "the" not in index
        assert index["item3"] == ("b3",)

    def test_repeated_token_within_entity_counts_once(self):
        """An entity repeating a token (across values/properties) files
        once — and must not push its block over the size limit."""
        source = DataSource(
            "B",
            [
                Entity("b1", {"label": "echo echo", "alt": "echo"}),
                Entity("b2", {"label": "echo"}),
            ],
        )
        index = TokenBlocker(["label", "alt"], max_block_size=2).build_index(source)
        assert index["echo"] == ("b1", "b2")

    def test_instance_memo_reuses_index_for_unchanged_source(self):
        _, source_b = _sources()
        blocker = TokenBlocker(["name"])
        assert blocker.build_index(source_b) is blocker.build_index(source_b)

    @pytest.mark.parametrize("kind", sorted(_PROBING_BLOCKERS))
    def test_sessionless_memo_patches_every_index_forward(
        self, kind, monkeypatch
    ):
        """Without a session, a probing blocker resolves through its
        private session: after deltas on both sources its forward and
        reverse tables patch forward and its views re-derive — no table
        is rebuilt, every index counts one patch — and every index
        equals a fresh blocker's cold build over rebuilt sources."""
        factory, indexes_of, tables = _PROBING_BLOCKERS[kind]
        source_a, source_b = _delta_sources()
        blocker = factory()
        cold = indexes_of(blocker, source_a, source_b)
        before = blocker._session(None).stats()
        assert before.index_builds == len(cold)
        builds = _count_builds(monkeypatch)
        source_b.apply_delta(
            [
                Entity("b12", {"name": "tok0 fresh"}),
                Entity("b1", {"name": "tok2 moved"}),
            ],
            ["b5"],
        )
        source_b.apply_delta([Entity("b13", {"name": "tok3 later"})], ["b12"])
        source_a.apply_delta([Entity("a12", {"label": "tok1 new"})], ["a3"])
        patched = indexes_of(blocker, source_a, source_b)
        after = blocker._session(None).stats()
        assert builds == []
        assert after.index_builds == before.index_builds
        assert after.index_patches - before.index_patches == len(patched)

        fresh = factory()
        cold_a, cold_b = rebuilt(source_a), rebuilt(source_b)
        assert patched == indexes_of(fresh, cold_a, cold_b)
        assert patched != cold
        assert len(builds) == tables

    def test_view_derives_once_along_a_delta_chain(self, monkeypatch):
        """A view patched along a delta chain derives once at its end:
        after 5 single-entity deltas on a 600-entity target, the probe
        code view runs ``_token_code_payload`` once, not once per step,
        and equals a fresh blocker's cold build."""
        source_a = DataSource(
            "A", [Entity(f"a{i}", {"label": f"tok{i % 40}"}) for i in range(50)]
        )
        source_b = DataSource(
            "B",
            [Entity(f"b{i:03d}", {"name": f"tok{i % 40} w{i}"}) for i in range(600)],
        )
        blocker = TokenBlocker(["label"], ["name"])
        blocker.probe_index(source_a, source_b)
        for step in range(5):
            source_b.apply_delta([Entity(f"b{step:03d}", {"name": f"new{step}"})])
        derived = []
        derive = blocking._token_code_payload

        def counting(blocks):
            derived.append(len(blocks))
            return derive(blocks)

        monkeypatch.setattr(blocking, "_token_code_payload", counting)
        patched = blocker.probe_index(source_a, source_b)
        assert len(derived) == 1
        cold = TokenBlocker(["label"], ["name"]).probe_index(
            rebuilt(source_a), rebuilt(source_b)
        )
        assert (patched.uids, patched.blocks.keys()) == (cold.uids, cold.blocks.keys())
        for token, codes in cold.blocks.items():
            assert patched.blocks[token].tolist() == codes.tolist()

    def test_alternating_resolution_never_rebuilds(self, monkeypatch):
        """Alternating the filtered view, the probe codes and the
        affected-set tables over one unchanged source builds each once:
        every index kind keeps its own memo entry."""
        source_a, source_b = _delta_sources()
        source_b.apply_delta([Entity("b12", {"name": "tok0 fresh"})])
        deltas_b = source_b.delta_chain()
        blocker = TokenBlocker(["label"], ["name"], max_block_size=3)
        builds = _count_builds(monkeypatch)
        filtered = blocker.build_index(source_b)
        probe = blocker.probe_index(source_a, source_b)
        # b12 pushes the tok0 block over the limit: its A-side holders
        # come from the reverse table.
        affected = blocker.affected_probe_uids(source_a, source_b, (), deltas_b)
        assert affected == {"a0", "a4", "a8"}
        # The forward table over B and the reverse table over A.
        assert builds == [13, 12]
        stats = blocker._session(None).stats()
        assert (stats.index_builds, stats.index_patches) == (4, 0)
        for _ in range(3):
            assert (
                blocker.affected_probe_uids(source_a, source_b, (), deltas_b)
                == affected
            )
            assert blocker.probe_index(source_a, source_b).blocks is probe.blocks
            assert blocker.build_index(source_b) is filtered
        assert builds == [13, 12]
        stats = blocker._session(None).stats()
        assert (stats.index_builds, stats.index_patches) == (4, 0)

    def test_session_memo_shared_across_blocker_instances(self):
        _, source_b = _sources()
        session = EngineSession()
        first = TokenBlocker(["name"]).build_index(source_b, session=session)
        second = TokenBlocker(["name"]).build_index(source_b, session=session)
        assert first is second
        # A differently-configured blocker keys separately.
        other = TokenBlocker(["name"], max_block_size=1).build_index(
            source_b, session=session
        )
        assert other is not first

    def test_signature_stable_and_parameter_sensitive(self):
        base = TokenBlocker(["name"]).signature()
        assert base == TokenBlocker(["name"]).signature()
        assert TokenBlocker(["name"], max_block_size=9).signature() != base
        assert TokenBlocker(["label"]).signature() != base

    def test_pooled_session_index_equals_sessionless_build(self):
        """An index resolved under a session with a thread pool equals
        the build of a blocker called without a session."""
        source = DataSource(
            "B",
            [Entity(f"b{i}", {"label": f"tok{i % 50} fill{i}"}) for i in range(600)],
        )
        sessionless = TokenBlocker(["label"]).build_index(source)
        with EngineSession(executor=4) as session:
            pooled = TokenBlocker(["label"]).build_index(source, session=session)
        assert pooled == sessionless


class TestIterShards:
    def test_default_chunking_matches_candidates(self):
        source_a, source_b = _sources()
        blocker = TokenBlocker(["label"], ["name"])
        expected = [
            (a.uid, b.uid) for a, b in blocker.candidates(source_a, source_b)
        ]
        shards = list(blocker.iter_shards(source_a, source_b, 1))
        assert [(a.uid, b.uid) for s in shards for a, b in s] == expected
        assert all(len(s) == 1 for s in shards)

    def test_full_index_shards_are_lazy(self):
        """The first shard of a quadratic source arrives without the
        cross product being materialised."""
        source = DataSource(
            "big", [Entity(f"e{i}", {"label": str(i)}) for i in range(3000)]
        )
        shards = FullIndexBlocker().iter_shards(source, source, 128)
        first = next(iter(shards))
        assert len(first) == 128
        assert first[0][0].uid == "e0"

    def test_full_index_shards_cover_the_product(self):
        source_a, source_b = _sources()
        shards = list(FullIndexBlocker().iter_shards(source_a, source_b, 4))
        assert sum(len(s) for s in shards) == 9
        assert [len(s) for s in shards] == [4, 4, 1]


class TestRuleBlocker:
    def test_derives_properties_from_rule(self):
        source_a, source_b = _sources()
        rule = LinkageRule(
            ComparisonNode(
                "levenshtein",
                1.0,
                TransformationNode("lowerCase", (PropertyNode("label"),)),
                PropertyNode("name"),
            )
        )
        blocker = RuleBlocker(rule)
        pairs = {(a.uid, b.uid) for a, b in blocker.candidates(source_a, source_b)}
        assert ("a1", "b1") in pairs

    def test_rejects_rule_without_properties(self):
        # A rule whose value trees have no property roots cannot happen
        # through the public API; simulate with a property-free rule by
        # checking the error path via an empty comparison list instead.
        rule = LinkageRule(
            ComparisonNode("levenshtein", 1.0, PropertyNode("x"), PropertyNode("y"))
        )
        # Valid rule works fine.
        RuleBlocker(rule)

    def test_recall_complete_on_shared_token_matches(self):
        """Every true match sharing a token is retained by the blocker."""
        source_a, source_b = _sources()
        rule = LinkageRule(
            ComparisonNode(
                "levenshtein", 2.0,
                TransformationNode("lowerCase", (PropertyNode("label"),)),
                PropertyNode("name"),
            )
        )
        pairs = {
            (a.uid, b.uid)
            for a, b in RuleBlocker(rule).candidates(source_a, source_b)
        }
        assert {("a1", "b1"), ("a2", "b2")} <= pairs
