"""Tests for MultiBlock candidate generation (repro.matching.multiblock)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nodes import (
    AggregationNode,
    ComparisonNode,
    PropertyNode,
    TransformationNode,
)
from repro.core.rule import LinkageRule
from repro.data.entity import Entity
from repro.data.source import DataSource
from repro.matching.blocking import FullIndexBlocker
from repro.matching.multiblock import (
    BlockingQuality,
    DateGridIndexer,
    EqualityIndexer,
    GridIndexer,
    LatitudeGridIndexer,
    MultiBlocker,
    QGramIndexer,
    TokenIndexer,
    blocking_quality,
    build_comparison_index,
    indexer_for_comparison,
)
from repro.transforms.registry import default_registry as default_transforms


def compare(metric="levenshtein", threshold=1.0, source="label", target="label"):
    return ComparisonNode(
        metric=metric,
        threshold=threshold,
        source=PropertyNode(source),
        target=PropertyNode(target),
    )


class TestIndexers:
    def test_equality_blocks_on_exact_values(self):
        indexer = EqualityIndexer()
        assert indexer.block_keys(("a", "b")) == {"a", "b"}
        assert indexer.probe_keys(("a",)) == {"a"}

    def test_token_blocks_lowercase_tokens(self):
        indexer = TokenIndexer()
        assert indexer.block_keys(("New York", "NY")) == {"new", "york", "ny"}

    def test_qgram_blocks_share_grams_for_close_strings(self):
        indexer = QGramIndexer(q=2)
        keys_a = indexer.block_keys(("berlin",))
        keys_b = indexer.block_keys(("berlim",))  # edit distance 1
        assert keys_a & keys_b

    def test_qgram_short_strings_filed_whole(self):
        indexer = QGramIndexer(q=4)
        assert indexer.block_keys(("ab",)) == {"^ab$"}

    def test_qgram_rejects_bad_q(self):
        with pytest.raises(ValueError, match="q must be"):
            QGramIndexer(q=0)

    def test_grid_neighbours_probed(self):
        indexer = GridIndexer(extent=10.0)
        assert indexer.block_keys(("25",)) == {2}
        assert indexer.probe_keys(("25",)) == {1, 2, 3}

    def test_grid_ignores_unparseable(self):
        indexer = GridIndexer(extent=1.0)
        assert indexer.block_keys(("not-a-number",)) == set()

    def test_grid_rejects_bad_extent(self):
        with pytest.raises(ValueError, match="extent"):
            GridIndexer(extent=0.0)
        with pytest.raises(ValueError, match="extent"):
            GridIndexer(extent=float("nan"))

    def test_date_grid_uses_ordinals(self):
        indexer = DateGridIndexer(extent=365.0)
        keys = indexer.block_keys(("2001-06-15",))
        assert len(keys) == 1

    def test_latitude_grid_parses_points(self):
        indexer = LatitudeGridIndexer(threshold_metres=100_000)
        keys_city = indexer.block_keys(("52.5200,13.4050",))
        keys_near = indexer.block_keys(("POINT(13.30 52.60)",))
        assert keys_city
        probe = indexer.probe_keys(("52.5200,13.4050",))
        assert keys_near & probe

    def test_indexer_selection(self):
        assert isinstance(
            indexer_for_comparison(compare(metric="equality")), EqualityIndexer
        )
        assert isinstance(
            indexer_for_comparison(compare(metric="jaccard")), TokenIndexer
        )
        assert isinstance(
            indexer_for_comparison(compare(metric="levenshtein")), QGramIndexer
        )
        # Loose character thresholds have no dismissal-free index.
        assert indexer_for_comparison(
            compare(metric="levenshtein", threshold=8.0)
        ) is None
        assert indexer_for_comparison(
            compare(metric="jaroWinkler", threshold=0.6)
        ) is None
        assert indexer_for_comparison(compare(metric="mongeElkan")) is None
        assert isinstance(
            indexer_for_comparison(compare(metric="qgrams", threshold=0.9)),
            QGramIndexer,
        )
        assert isinstance(
            indexer_for_comparison(compare(metric="numeric", threshold=5.0)),
            GridIndexer,
        )
        # relativeNumeric has no dismissal-free fixed grid.
        assert indexer_for_comparison(
            compare(metric="relativeNumeric", threshold=0.1)
        ) is None
        assert isinstance(
            indexer_for_comparison(compare(metric="date", threshold=30.0)),
            DateGridIndexer,
        )
        assert isinstance(
            indexer_for_comparison(compare(metric="geographic", threshold=1000.0)),
            LatitudeGridIndexer,
        )
        assert indexer_for_comparison(compare(metric="unknownMeasure")) is None


def city_sources() -> tuple[DataSource, DataSource, list[tuple[str, str]]]:
    names = ["Berlin", "Hamburg", "Munich", "Cologne", "Dresden", "Leipzig",
             "Bremen", "Stuttgart", "Hanover", "Nuremberg"]
    entities_a = [
        Entity(f"a:{name.lower()}", {"label": name, "pop": str(1000 + i)})
        for i, name in enumerate(names)
    ]
    entities_b = [
        Entity(f"b:{name.lower()}", {"label": name.upper(), "pop": str(1000 + i)})
        for i, name in enumerate(names)
    ]
    matches = [
        (f"a:{name.lower()}", f"b:{name.lower()}") for name in names
    ]
    return DataSource("a", entities_a), DataSource("b", entities_b), matches


class TestMultiBlocker:
    def test_blocks_on_transformed_values(self):
        """Labels differ by case; blocking on lowerCase-transformed
        values still finds every match."""
        source_a, source_b, matches = city_sources()
        rule = LinkageRule(
            ComparisonNode(
                metric="levenshtein",
                threshold=1.0,
                source=TransformationNode("lowerCase", (PropertyNode("label"),)),
                target=TransformationNode("lowerCase", (PropertyNode("label"),)),
            )
        )
        quality = blocking_quality(MultiBlocker(rule), source_a, source_b, matches)
        assert quality.pairs_completeness == 1.0
        assert quality.reduction_ratio > 0.5

    def test_min_aggregation_intersects(self):
        source_a, source_b, matches = city_sources()
        rule = LinkageRule(
            AggregationNode(
                function="min",
                operators=(
                    ComparisonNode(
                        metric="levenshtein",
                        threshold=1.0,
                        source=TransformationNode(
                            "lowerCase", (PropertyNode("label"),)
                        ),
                        target=TransformationNode(
                            "lowerCase", (PropertyNode("label"),)
                        ),
                    ),
                    ComparisonNode(
                        metric="numeric",
                        threshold=2.0,
                        source=PropertyNode("pop"),
                        target=PropertyNode("pop"),
                    ),
                ),
            )
        )
        intersect_quality = blocking_quality(
            MultiBlocker(rule), source_a, source_b, matches
        )
        single_rule = LinkageRule(rule.root.operators[0])
        single_quality = blocking_quality(
            MultiBlocker(single_rule), source_a, source_b, matches
        )
        assert intersect_quality.pairs_completeness == 1.0
        assert intersect_quality.candidate_pairs <= single_quality.candidate_pairs

    def test_max_aggregation_unions(self):
        source_a, source_b, matches = city_sources()
        label = ComparisonNode(
            metric="equality",
            threshold=0.0,
            source=PropertyNode("label"),
            target=PropertyNode("label"),
        )
        pop = ComparisonNode(
            metric="numeric",
            threshold=2.0,
            source=PropertyNode("pop"),
            target=PropertyNode("pop"),
        )
        rule = LinkageRule(AggregationNode(function="max", operators=(label, pop)))
        # equality blocking alone finds nothing (case differs), the
        # numeric branch of the union still covers all matches.
        quality = blocking_quality(MultiBlocker(rule), source_a, source_b, matches)
        assert quality.pairs_completeness == 1.0

    def test_unknown_measure_falls_back_to_full_index(self):
        source_a, source_b, __ = city_sources()
        rule = LinkageRule(compare(metric="someCustomMeasure"))
        blocker = MultiBlocker(rule)
        full = FullIndexBlocker()
        assert blocker.candidate_count(source_a, source_b) == full.candidate_count(
            source_a, source_b
        )

    def test_unknown_measure_inside_min_still_prunes(self):
        source_a, source_b, matches = city_sources()
        rule = LinkageRule(
            AggregationNode(
                function="min",
                operators=(
                    compare(metric="someCustomMeasure"),
                    ComparisonNode(
                        metric="numeric",
                        threshold=2.0,
                        source=PropertyNode("pop"),
                        target=PropertyNode("pop"),
                    ),
                ),
            )
        )
        quality = blocking_quality(MultiBlocker(rule), source_a, source_b, matches)
        assert quality.pairs_completeness == 1.0
        assert quality.reduction_ratio > 0.0

    def test_dedup_mode_yields_ordered_pairs_once(self):
        entities = [
            Entity(f"e{i}", {"label": f"Item {i // 2}"}) for i in range(8)
        ]
        source = DataSource("dedup", entities)
        rule = LinkageRule(compare(metric="jaccard", threshold=0.5))
        pairs = list(MultiBlocker(rule).candidates(source, source))
        seen = set()
        for a, b in pairs:
            assert a.uid < b.uid
            assert (a.uid, b.uid) not in seen
            seen.add((a.uid, b.uid))

    def test_engine_integration_matches_full_index(self):
        """Link generation through MultiBlocker equals the full-index
        result on a workload the indexers cover."""
        from repro.matching.engine import MatchingEngine

        source_a, source_b, __ = city_sources()
        rule = LinkageRule(
            ComparisonNode(
                metric="levenshtein",
                threshold=1.0,
                source=TransformationNode("lowerCase", (PropertyNode("label"),)),
                target=TransformationNode("lowerCase", (PropertyNode("label"),)),
            )
        )
        full_links = MatchingEngine(blocker=FullIndexBlocker()).execute(
            rule, source_a, source_b
        )
        multi_links = MatchingEngine(blocker=MultiBlocker(rule)).execute(
            rule, source_a, source_b
        )
        assert [l.as_pair() for l in multi_links] == [
            l.as_pair() for l in full_links
        ]


class TestSessionAdoption:
    def _rule(self):
        return LinkageRule(
            ComparisonNode(
                metric="levenshtein",
                threshold=1.0,
                source=TransformationNode("lowerCase", (PropertyNode("label"),)),
                target=TransformationNode("lowerCase", (PropertyNode("label"),)),
            )
        )

    def test_default_blocker_adopts_engine_session(self, tmp_path):
        """An explicitly-passed, default-constructed MultiBlocker must
        still index through the engine's cache_dir (persistent index
        tier)."""
        from repro.matching.engine import MatchingEngine

        source_a, source_b, __ = city_sources()
        rule = self._rule()
        engine = MatchingEngine(
            blocker=MultiBlocker(rule), cache_dir=str(tmp_path)
        )
        try:
            cold = engine.execute(rule, source_a, source_b)
        finally:
            engine.close()
        store = engine.last_run_stats().store
        assert store.index_writes > 0

        warm_engine = MatchingEngine(
            blocker=MultiBlocker(rule), cache_dir=str(tmp_path)
        )
        try:
            warm = warm_engine.execute(rule, source_a, source_b)
        finally:
            warm_engine.close()
        warm_store = warm_engine.last_run_stats().store
        assert warm == cold
        assert warm_store.index_misses == 0
        assert warm_store.index_hits > 0


class TestComparisonIndex:
    def test_build_and_probe(self):
        source_a, source_b, __ = city_sources()
        comparison = ComparisonNode(
            metric="levenshtein",
            threshold=1.0,
            source=TransformationNode("lowerCase", (PropertyNode("label"),)),
            target=TransformationNode("lowerCase", (PropertyNode("label"),)),
        )
        index = build_comparison_index(comparison, source_b, default_transforms())
        assert index is not None
        berlin = source_a.entities()[0]
        assert "b:berlin" in index.candidates_for(berlin, default_transforms())

    def test_unindexable_returns_none(self):
        __, source_b, ___ = city_sources()
        index = build_comparison_index(
            compare(metric="mystery"), source_b, default_transforms()
        )
        assert index is None


class TestBlockingQuality:
    def test_counts(self):
        quality = BlockingQuality(
            candidate_pairs=20, total_pairs=100, covered_matches=9, total_matches=10
        )
        assert quality.pairs_completeness == pytest.approx(0.9)
        assert quality.reduction_ratio == pytest.approx(0.8)

    def test_no_matches_is_complete(self):
        quality = BlockingQuality(
            candidate_pairs=5, total_pairs=10, covered_matches=0, total_matches=0
        )
        assert quality.pairs_completeness == 1.0

    def test_dedup_counts_unordered_pairs(self):
        """A dedup source has n(n-1)/2 candidate pairs, and a match
        names an unordered pair whichever way round it is given: the
        full index prunes nothing and covers both matches."""
        source = DataSource(
            "S", [Entity(f"e{i}", {"label": "x"}) for i in range(10)]
        )
        quality = blocking_quality(
            FullIndexBlocker(), source, source, [("e1", "e2"), ("e3", "e2")]
        )
        assert quality.total_pairs == 45
        assert quality.reduction_ratio == 0.0
        assert quality.pairs_completeness == 1.0

    def test_two_source_pairs_stay_ordered(self):
        """Two sources keep the Cartesian baseline and ordered pairs:
        a match given B-side first is not a candidate pair."""
        source_a = DataSource(
            "A", [Entity(f"a{i}", {"label": f"w{i % 5}"}) for i in range(10)]
        )
        source_b = DataSource(
            "B", [Entity(f"b{i}", {"label": f"w{i % 5}"}) for i in range(10)]
        )
        blocker = MultiBlocker(LinkageRule(compare(metric="equality", threshold=0.0)))
        quality = blocking_quality(
            blocker, source_a, source_b, [("a1", "b6"), ("b6", "a1"), ("a1", "b2")]
        )
        assert quality.candidate_pairs == 20
        assert quality.total_pairs == 100
        assert quality.reduction_ratio == pytest.approx(0.8)
        assert quality.covered_matches == 1
        assert quality.pairs_completeness == pytest.approx(1 / 3)


# -- property-based: grid dismissal-freedom -----------------------------------


@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=30,
    ),
    extent=st.floats(min_value=0.01, max_value=1e4, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_grid_indexer_never_dismisses_within_extent(values, extent):
    """Any two numbers within ``extent`` share a probed block."""
    indexer = GridIndexer(extent=extent)
    for x in values:
        for y in values:
            if abs(x - y) <= extent:
                probe = indexer.probe_keys((str(x),))
                blocks = indexer.block_keys((str(y),))
                assert probe & blocks, (x, y, extent)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    edits=st.integers(min_value=0, max_value=1),
)
@settings(max_examples=60, deadline=None)
def test_qgram_indexer_covers_single_edits(seed, edits):
    """Strings at edit distance <= 1 (GenLink's typical threshold on
    names) always share a padded bigram for realistic lengths."""
    rng = random.Random(seed)
    word = "".join(rng.choice("abcdefghij") for __ in range(rng.randint(4, 12)))
    mutated = list(word)
    if edits:
        position = rng.randrange(len(mutated))
        mutated[position] = rng.choice("klmnop")
    mutated_word = "".join(mutated)
    indexer = QGramIndexer(q=2)
    assert indexer.block_keys((word,)) & indexer.probe_keys((mutated_word,))
