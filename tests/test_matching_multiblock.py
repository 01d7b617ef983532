"""Tests for MultiBlock candidate generation (repro.matching.multiblock)."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nodes import (
    AggregationNode,
    ComparisonNode,
    PropertyNode,
    TransformationNode,
)
from repro.core.rule import MATCH_THRESHOLD, LinkageRule
from repro.data.entity import Entity
from repro.data.source import DataSource
from repro.datasets import load_dataset
from repro.distances.registry import get_measure, measure_names
from repro.engine.kernels import threshold_scores
from repro.matching.blocking import FullIndexBlocker, RuleBlocker
from repro.matching.engine import BLOCKER_ENV, MatchingEngine, default_blocker
from repro.matching.incremental import dataset_rule
from repro.matching.multiblock import (
    BlockingQuality,
    DateGridIndexer,
    EqualityIndexer,
    GridIndexer,
    LatitudeGridIndexer,
    MultiBlocker,
    PrefixIndexer,
    QGramIndexer,
    TokenIndexer,
    _content_order,
    blocking_quality,
    build_comparison_index,
    indexer_for_comparison,
    multiblock_supports,
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


class TestThresholdIndexers:
    """Each comparison is indexed only as far as a pair can still reach
    the link threshold t: ``1 - d/θ >= t`` iff ``d <= θ(1 - t)``."""

    def test_prefix_files_the_first_values_in_content_order(self):
        indexer = PrefixIndexer(0.5)
        values = ("a", "b", "c", "d")
        keys = indexer.block_keys(values)
        # 4 - ceil(0.5 * 4) + 1 = 3 of the 4 values, whatever the
        # input order or duplicates.
        assert len(keys) == 3
        assert indexer.block_keys(("d", "c", "b", "a", "a")) == keys
        assert indexer.probe_keys(values) == keys
        assert indexer.block_keys(()) == set()

    def test_prefix_rejects_bad_similarity(self):
        with pytest.raises(ValueError, match="similarity"):
            PrefixIndexer(0.0)
        with pytest.raises(ValueError, match="similarity"):
            PrefixIndexer(float("nan"))

    def test_set_measures_take_a_prefix_filter(self):
        jaccard = indexer_for_comparison(compare(metric="jaccard", threshold=0.6), 0.5)
        dice = indexer_for_comparison(compare(metric="dice", threshold=0.6), 0.5)
        assert isinstance(jaccard, PrefixIndexer)
        assert isinstance(dice, PrefixIndexer)
        # dice's Jaccard equivalent of 1 - L is (1 - L) / (1 + L) < 1 - L.
        assert jaccard.cache_token() != dice.cache_token()
        # Above θ 1 disjoint sets score above 0: no index at all.
        assert (
            indexer_for_comparison(compare(metric="jaccard", threshold=4.0), 0.5)
            is None
        )
        assert isinstance(
            indexer_for_comparison(compare(metric="overlap", threshold=0.6), 0.5),
            TokenIndexer,
        )

    @pytest.mark.parametrize(
        "metric,theta,t,size_a,size_b",
        [
            ("jaccard", 1.0, 0.3, 3, 10),
            ("dice", 1.0, 0.8, 6, 9),
            ("dice", 0.4, 0.5, 6, 9),
        ],
    )
    def test_guard_keeps_pairs_scoring_exactly_the_threshold(
        self, metric, theta, t, size_a, size_b
    ):
        """Where float rounding lifts the similarity bound above the
        pair's own (3 of 10 shared values: ceil(0.30000000000000004 *
        10) = 4), the t - 1e-9 guard keeps the pair a candidate. The
        shared values are the last in content order, so the prefixes
        meet only if neither is cut short."""
        values_b = tuple(_content_order(f"v{i}" for i in range(size_b)))
        values_a = values_b[-size_a:]
        distance = get_measure(metric).evaluate(values_a, values_b)
        assert threshold_scores(np.array([distance]), theta)[0] >= t
        indexer = indexer_for_comparison(compare(metric=metric, threshold=theta), t)
        assert indexer.probe_keys(values_a) & indexer.block_keys(values_b)
        assert indexer.probe_keys(values_b) & indexer.block_keys(values_a)

    def test_levenshtein_below_one_edit_blocks_on_exact_values(self):
        assert isinstance(
            indexer_for_comparison(compare(metric="levenshtein", threshold=1.0), 0.5),
            EqualityIndexer,
        )
        # L = 2 * (1 - 0.5) = 1 edit still needs q-grams.
        assert isinstance(
            indexer_for_comparison(compare(metric="levenshtein", threshold=2.0), 0.5),
            QGramIndexer,
        )

    def test_grids_take_the_reach_as_extent(self):
        loose = indexer_for_comparison(compare(metric="numeric", threshold=10.0))
        tight = indexer_for_comparison(compare(metric="numeric", threshold=10.0), 0.8)
        assert loose.cache_token() == GridIndexer(extent=10.0).cache_token()
        assert tight.cache_token() != loose.cache_token()
        # Extent 10 * (1 - 0.8): 25 and 29 can no longer score 0.8 ...
        assert not tight.probe_keys(("25",)) & tight.block_keys(("29",))
        # ... but 25 and 26.9 can.
        assert tight.probe_keys(("25",)) & tight.block_keys(("26.9",))

    def test_no_threshold_keeps_the_positive_score_indexers(self):
        """t <= 0, and θ <= 0, keep the indexers of "could score above
        0"."""
        for t in (0.0, -0.5):
            jaccard = compare(metric="jaccard", threshold=0.6)
            levenshtein = compare(metric="levenshtein", threshold=1.0)
            assert isinstance(indexer_for_comparison(jaccard, t), TokenIndexer)
            assert isinstance(indexer_for_comparison(levenshtein, t), QGramIndexer)
        for metric, kind in (("jaccard", TokenIndexer), ("levenshtein", QGramIndexer)):
            node = compare(metric=metric, threshold=0.0)
            assert isinstance(indexer_for_comparison(node, 0.5), kind)

    def test_indexability_does_not_depend_on_the_threshold(self):
        for metric in measure_names():
            for theta in (0.0, 0.1, 0.25, 0.3, 0.5, 1.0, 2.0, 2.5, 30.0, 1000.0):
                node = compare(metric=metric, threshold=theta)
                unindexed = indexer_for_comparison(node) is None
                for t in (0.0, 1e-10, 0.3, 0.5, 0.8, 1.0):
                    assert (indexer_for_comparison(node, t) is None) == unindexed, (
                        metric, theta, t
                    )


_SYMBOLS = "abcdefgh"


@given(
    values_a=st.lists(st.sampled_from(_SYMBOLS), max_size=8),
    values_b=st.lists(st.sampled_from(_SYMBOLS), max_size=8),
    theta=st.floats(min_value=0.1, max_value=1.0),
    t=st.sampled_from((0.3, 0.5, 0.8)),
)
@settings(max_examples=300, deadline=None)
def test_prefix_filter_never_dismisses_a_pair_reaching_the_threshold(
    values_a, values_b, theta, t
):
    """Whenever jaccard or dice scores a pair at least t, the probe
    keys of either side meet the block keys of the other, forward and
    through the reverse probe."""
    for metric in ("jaccard", "dice"):
        indexer = indexer_for_comparison(compare(metric=metric, threshold=theta), t)
        distance = get_measure(metric).evaluate(values_a, values_b)
        score = threshold_scores(np.array([distance]), theta)[0]
        if score < t:
            continue
        assert indexer.probe_keys(values_a) & indexer.block_keys(values_b), (
            metric, values_a, values_b, theta, t
        )
        assert indexer.reverse_probe_keys(values_b) & indexer.block_keys(values_a)


@given(
    x=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    y=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    theta=st.floats(min_value=0.01, max_value=1e3),
    t=st.sampled_from((0.3, 0.5, 0.8)),
)
@settings(max_examples=200, deadline=None)
def test_grid_at_threshold_never_dismisses_a_pair_reaching_it(x, y, theta, t):
    indexer = indexer_for_comparison(compare(metric="numeric", threshold=theta), t)
    distance = get_measure("numeric").evaluate((str(x),), (str(y),))
    if threshold_scores(np.array([distance]), theta)[0] >= t:
        assert indexer.probe_keys((str(x),)) & indexer.block_keys((str(y),))
        assert indexer.reverse_probe_keys((str(y),)) & indexer.block_keys((str(x),))


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


def _lower(prop):
    return TransformationNode("lowerCase", (PropertyNode(prop),))


def _tokens(node):
    return TransformationNode("tokenize", (node,))


def _cmp(metric, threshold, source, target=None, weight=1):
    return ComparisonNode(
        metric=metric,
        threshold=threshold,
        source=source,
        target=source if target is None else target,
        weight=weight,
    )


def _agg(function, *operators, weight=1):
    return AggregationNode(function=function, operators=operators, weight=weight)


def _restaurant_rules():
    name = _tokens(_lower("name"))
    address = _tokens(_lower("address"))
    return {
        "min": _agg(
            "min",
            _cmp("jaccard", 0.8, name),
            _cmp("levenshtein", 2.0, _lower("city")),
        ),
        "max": _agg(
            "max",
            _cmp("dice", 0.6, address),
            _cmp("numeric", 20.0, PropertyNode("address")),
        ),
        "wmean": _agg(
            "wmean",
            _cmp("jaccard", 1.0, name, weight=2),
            _cmp("levenshtein", 1.0, _lower("name")),
            _cmp("numeric", 10.0, PropertyNode("address")),
        ),
        "nested": _agg(
            "max",
            _agg(
                "min",
                _cmp("jaccard", 0.7, name),
                _cmp("numeric", 50.0, PropertyNode("address")),
            ),
            _agg(
                "wmean",
                _cmp("jaccard", 0.9, address, weight=3),
                _cmp("levenshtein", 1.0, _lower("city")),
            ),
        ),
    }


def _nyt_rules():
    def geo(threshold):
        return _cmp(
            "geographic", threshold, PropertyNode("geo"), PropertyNode("point")
        )

    names = _cmp(
        "jaccard",
        0.6,
        _tokens(_lower("nytName")),
        _tokens(
            TransformationNode(
                "lowerCase",
                (TransformationNode("stripUriPrefix", (PropertyNode("label"),)),),
            )
        ),
    )
    return {
        "max": _agg("max", names, geo(1000.0)),
        "min": _agg("min", geo(5000.0), names),
        "wmean": _agg(
            "wmean",
            _cmp("jaccard", 0.6, names.source, names.target, weight=3),
            geo(2000.0),
        ),
        "nested": _agg(
            "max",
            _cmp("levenshtein", 2.0, _lower("nytName"), _lower("name")),
            _agg(
                "min",
                geo(500.0),
                _cmp(
                    "numeric",
                    5.0,
                    PropertyNode("nytProp003"),
                    PropertyNode("dbpProp018"),
                ),
            ),
        ),
    }


_ENGINE_CASES = [("restaurant", name) for name in _restaurant_rules()] + [
    ("nyt", name) for name in _nyt_rules()
]


@pytest.fixture(scope="module")
def small_datasets():
    return {
        name: load_dataset(name, seed=0, scale=scale)
        for name, scale in (("restaurant", 0.3), ("nyt", 0.05))
    }


class TestThresholdAwareExecution:
    """MultiBlock at the engine's link threshold generates exactly the
    full-index links, from no more candidates than at threshold 0."""

    @pytest.mark.parametrize("dataset,rule_name", _ENGINE_CASES)
    def test_links_equal_full_index_at_every_threshold(
        self, small_datasets, dataset, rule_name
    ):
        rules = _restaurant_rules() if dataset == "restaurant" else _nyt_rules()
        rule = LinkageRule(rules[rule_name])
        assert multiblock_supports(rule)
        data = small_datasets[dataset]
        sources = (data.source_a, data.source_b)
        loose = MultiBlocker(rule, threshold=0.0)
        with MatchingEngine(blocker=loose) as engine:
            engine.execute(rule, *sources)
            loose_pairs = engine.last_run_stats().pairs
        for t in (0.3, 0.5, 0.8):
            full = FullIndexBlocker()
            with MatchingEngine(blocker=full, threshold=t) as engine:
                expected = engine.execute(rule, *sources)
            blocker = MultiBlocker(rule, threshold=t)
            with MatchingEngine(blocker=blocker, threshold=t) as engine:
                links = engine.execute(rule, *sources)
                stats = engine.last_run_stats()
            assert links == expected, (dataset, rule_name, t)
            assert stats.pairs <= loose_pairs, (dataset, rule_name, t)

    def test_default_blocker_takes_the_engine_threshold(
        self, monkeypatch, small_datasets
    ):
        monkeypatch.delenv(BLOCKER_ENV, raising=False)
        rule = LinkageRule(_nyt_rules()["max"])
        assert default_blocker(rule).threshold == MATCH_THRESHOLD
        assert default_blocker(rule, "auto", 0.8).threshold == 0.8
        assert default_blocker(rule, "multiblock", 0.3).threshold == 0.3
        data = small_datasets["nyt"]
        pairs = []
        for t in (0.3, 0.8):
            with MatchingEngine(threshold=t) as engine:
                engine.execute(rule, data.source_a, data.source_b)
                pairs.append(engine.last_run_stats().pairs)
        assert pairs[1] < pairs[0]

    def test_engine_refuses_a_multiblocker_above_its_threshold(self):
        rule = LinkageRule(compare(metric="jaccard", threshold=0.6))
        with pytest.raises(ValueError, match="threshold"):
            MatchingEngine(blocker=MultiBlocker(rule), threshold=0.3)
        MatchingEngine(blocker=MultiBlocker(rule, threshold=0.3), threshold=0.5).close()

    def test_probe_ledger_names_the_threshold(self):
        rule = LinkageRule(compare(metric="jaccard", threshold=0.6))
        assert (
            MultiBlocker(rule, threshold=0.3)._ledger_token()
            != MultiBlocker(rule, threshold=0.5)._ledger_token()
        )

    def test_probe_ledger_names_the_block_key_derivation(self, monkeypatch):
        """Probe results follow from the indexers' block keys, so a
        ledger written under another derivation is never served."""
        rule = LinkageRule(compare(metric="overlap", threshold=0.6))
        token = MultiBlocker(rule)._ledger_token()
        monkeypatch.setattr(TokenIndexer, "cache_token", lambda self: "TokenIndexer:v1")
        assert MultiBlocker(rule)._ledger_token() != token

    @pytest.mark.parametrize("metric", ["jaccard", "dice", "overlap"])
    def test_set_measures_above_theta_one_link_disjoint_sets(self, metric):
        """θ 4: disjoint value sets score 1 - 1/4 = 0.75, so every pair
        links, and no block can hold them; MultiBlock does not claim
        the rule and an explicit MultiBlocker scores the full product."""
        rule = LinkageRule(compare(metric=metric, threshold=4.0))
        source_a = DataSource("a", [Entity("a1", {"label": ("x",)}),
                                    Entity("a2", {"label": ("y",)})])
        source_b = DataSource("b", [Entity("b1", {"label": ("z",)}),
                                    Entity("b2", {"label": ("w",)})])
        assert not multiblock_supports(rule)
        with MatchingEngine(blocker=FullIndexBlocker()) as engine:
            expected = engine.execute(rule, source_a, source_b)
        with MatchingEngine(blocker=MultiBlocker(rule)) as engine:
            links = engine.execute(rule, source_a, source_b)
        assert len(expected) == 4
        assert links == expected

    def test_values_without_a_token_share_a_block(self):
        """An all-whitespace value splits into no token; it is filed
        under itself, so two entities sharing it stay candidates."""
        assert TokenIndexer().block_keys((" ", "", "A b")) == {" ", "", "a", "b"}
        rule = LinkageRule(compare(metric="overlap", threshold=1.0))
        source_a = DataSource("a", [Entity("a1", {"label": (" ", "x")}),
                                    Entity("a2", {"label": ("q",)})])
        source_b = DataSource("b", [Entity("b1", {"label": (" ", "y")}),
                                    Entity("b2", {"label": ("r",)})])
        with MatchingEngine(blocker=FullIndexBlocker()) as engine:
            expected = engine.execute(rule, source_a, source_b)
        with MatchingEngine(blocker=MultiBlocker(rule)) as engine:
            links = engine.execute(rule, source_a, source_b)
        assert [(l.uid_a, l.uid_b, l.score) for l in expected] == [("a1", "b1", 0.5)]
        assert links == expected

    def test_lowercased_levenshtein_candidates_are_its_links(self):
        """A lowercased-levenshtein θ 1 rule links only identical
        lowercased names at t = 0.5, so its MultiBlock candidates are
        exactly its links (q-gram blocks emitted 148,964 of the 231,345
        pairs of the cross product for 197 links here), and they equal
        token blocking's links."""
        data = load_dataset("dbpedia_drugbank", seed=0, scale=0.1)
        rule = dataset_rule("dbpedia_drugbank")
        with MatchingEngine(blocker=MultiBlocker(rule)) as engine:
            links = engine.execute(rule, data.source_a, data.source_b)
            stats = engine.last_run_stats()
        with MatchingEngine(blocker=RuleBlocker(rule)) as engine:
            expected = engine.execute(rule, data.source_a, data.source_b)
        assert links
        assert stats.pairs == stats.links == len(links)
        assert links == expected


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
