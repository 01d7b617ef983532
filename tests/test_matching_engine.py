"""Tests for the matching engine and link evaluation."""

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
from repro.matching.blocking import (
    FullIndexBlocker,
    RuleBlocker,
    TokenBlocker,
)
from repro.matching.engine import (
    BLOCKER_ENV,
    GeneratedLink,
    MatchingEngine,
    default_blocker,
    generate_links,
)
from repro.matching.evaluation import evaluate_links
from repro.matching.multiblock import MultiBlocker


@pytest.fixture
def rule() -> LinkageRule:
    return LinkageRule(
        ComparisonNode(
            "levenshtein",
            1.0,
            TransformationNode("lowerCase", (PropertyNode("label"),)),
            TransformationNode("lowerCase", (PropertyNode("name"),)),
        )
    )


@pytest.fixture
def sources():
    source_a = DataSource(
        "A",
        [
            Entity("a1", {"label": "Berlin"}),
            Entity("a2", {"label": "Hamburg"}),
            Entity("a3", {"label": "Unmatched Place"}),
        ],
    )
    source_b = DataSource(
        "B",
        [
            Entity("b1", {"name": "berlin"}),
            Entity("b2", {"name": "HAMBURG"}),
            Entity("b3", {"name": "something else"}),
        ],
    )
    return source_a, source_b


class TestMatchingEngine:
    def test_generates_expected_links(self, rule, sources):
        source_a, source_b = sources
        links = generate_links(rule, source_a, source_b)
        pairs = {link.as_pair() for link in links}
        assert pairs == {("a1", "b1"), ("a2", "b2")}

    def test_scores_at_least_threshold(self, rule, sources):
        source_a, source_b = sources
        for link in generate_links(rule, source_a, source_b):
            assert link.score >= 0.5

    def test_sorted_by_score_desc(self, rule, sources):
        source_a, source_b = sources
        links = MatchingEngine().execute(rule, source_a, source_b)
        scores = [link.score for link in links]
        assert scores == sorted(scores, reverse=True)

    def test_explicit_full_blocker(self, rule, sources):
        source_a, source_b = sources
        links = generate_links(rule, source_a, source_b, blocker=FullIndexBlocker())
        assert {link.as_pair() for link in links} == {("a1", "b1"), ("a2", "b2")}

    def test_small_batches_match_single_batch(self, rule, sources):
        source_a, source_b = sources
        small = MatchingEngine(blocker=FullIndexBlocker(), batch_size=2)
        big = MatchingEngine(blocker=FullIndexBlocker(), batch_size=1000)
        assert {l.as_pair() for l in small.execute(rule, source_a, source_b)} == {
            l.as_pair() for l in big.execute(rule, source_a, source_b)
        }

    def test_custom_threshold(self, rule, sources):
        source_a, source_b = sources
        strict = MatchingEngine(blocker=FullIndexBlocker(), threshold=1.0)
        links = strict.execute(rule, source_a, source_b)
        assert all(link.score == 1.0 for link in links)

    def test_deduplication_execution(self, rule):
        source = DataSource(
            "dedup",
            [
                Entity("e1", {"label": "Berlin", "name": "irrelevant"}),
                Entity("e2", {"label": "x", "name": "berlin"}),
                Entity("e3", {"label": "y", "name": "zzz"}),
            ],
        )
        links = generate_links(rule, source, source, blocker=FullIndexBlocker())
        assert {link.as_pair() for link in links} == {("e1", "e2")}


class TestDefaultBlocker:
    def _indexable_rule(self):
        return LinkageRule(
            ComparisonNode(
                "levenshtein",
                1.0,
                TransformationNode("lowerCase", (PropertyNode("label"),)),
                TransformationNode("lowerCase", (PropertyNode("name"),)),
            )
        )

    def _unindexable_rule(self):
        # mongeElkan has no dismissal-free index; the property roots
        # still allow token blocking.
        return LinkageRule(
            ComparisonNode(
                "mongeElkan", 0.5, PropertyNode("label"), PropertyNode("name")
            )
        )

    def test_auto_picks_multiblock_for_indexable_rules(self):
        assert isinstance(default_blocker(self._indexable_rule()), MultiBlocker)

    def test_auto_falls_back_to_rule_blocking(self):
        assert isinstance(default_blocker(self._unindexable_rule()), RuleBlocker)

    def test_auto_max_needs_every_branch_indexable(self):
        rule = LinkageRule(
            AggregationNode(
                "max",
                (
                    self._indexable_rule().root,
                    self._unindexable_rule().root,
                ),
            )
        )
        assert isinstance(default_blocker(rule), RuleBlocker)
        intersecting = LinkageRule(
            AggregationNode(
                "min",
                (
                    self._indexable_rule().root,
                    self._unindexable_rule().root,
                ),
            )
        )
        assert isinstance(default_blocker(intersecting), MultiBlocker)

    def test_explicit_specs(self):
        rule = self._unindexable_rule()
        assert isinstance(default_blocker(rule, "full"), FullIndexBlocker)
        assert isinstance(default_blocker(rule, "multiblock"), MultiBlocker)
        assert isinstance(default_blocker(rule, "rule"), RuleBlocker)
        with pytest.raises(ValueError, match="invalid blocker spec"):
            default_blocker(rule, "bogus")

    def test_env_var_overrides_auto(self, monkeypatch, rule, sources):
        source_a, source_b = sources
        monkeypatch.setenv(BLOCKER_ENV, "full")
        engine = MatchingEngine()
        links = engine.execute(rule, source_a, source_b)
        assert {link.as_pair() for link in links} == {("a1", "b1"), ("a2", "b2")}

    def test_default_run_equals_full_index_run(self, rule, sources):
        source_a, source_b = sources
        default_links = MatchingEngine().execute(rule, source_a, source_b)
        full_links = MatchingEngine(blocker=FullIndexBlocker()).execute(
            rule, source_a, source_b
        )
        assert default_links == full_links

    def test_explicit_blocker_wins_over_env(self, monkeypatch, rule, sources):
        source_a, source_b = sources
        monkeypatch.setenv(BLOCKER_ENV, "full")
        engine = MatchingEngine(blocker=TokenBlocker(["label"], ["name"]))
        links = engine.execute(rule, source_a, source_b)
        assert {link.as_pair() for link in links} == {("a1", "b1"), ("a2", "b2")}


class TestEvaluateLinks:
    def test_perfect(self):
        generated = [GeneratedLink("a1", "b1", 1.0), GeneratedLink("a2", "b2", 0.9)]
        expected = [("a1", "b1"), ("a2", "b2")]
        result = evaluate_links(generated, expected)
        assert result.precision == 1.0
        assert result.recall == 1.0
        assert result.f_measure == 1.0

    def test_partial(self):
        generated = [GeneratedLink("a1", "b1", 1.0), GeneratedLink("a9", "b9", 0.8)]
        expected = [("a1", "b1"), ("a2", "b2")]
        result = evaluate_links(generated, expected)
        assert result.precision == 0.5
        assert result.recall == 0.5

    def test_accepts_plain_tuples(self):
        result = evaluate_links([("a1", "b1")], [("a1", "b1")])
        assert result.f_measure == 1.0

    def test_symmetric_mode(self):
        result = evaluate_links(
            [("b1", "a1")], [("a1", "b1")], symmetric=True
        )
        assert result.f_measure == 1.0

    def test_empty_generated(self):
        result = evaluate_links([], [("a1", "b1")])
        assert result.recall == 0.0
        assert result.f_measure == 0.0

    def test_empty_expected(self):
        result = evaluate_links([GeneratedLink("a1", "b1", 1.0)], [])
        assert result.precision == 0.0


class TestEndToEnd:
    def test_learn_then_execute(self):
        """Learned rules generalise to unlinked entities at execution."""
        from repro.core.genlink import GenLink, GenLinkConfig
        from repro.data.reference_links import ReferenceLinkSet

        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta",
                 "theta", "kappa", "sigma", "omega", "lambda", "omicron"]
        source_a = DataSource("A")
        source_b = DataSource("B")
        for i, word in enumerate(words):
            source_a.add(Entity(f"a{i}", {"label": word.capitalize()}))
            source_b.add(Entity(f"b{i}", {"name": word.upper()}))
        train = ReferenceLinkSet(
            [(f"a{i}", f"b{i}") for i in range(8)],
            [(f"a{i}", f"b{(i + 3) % 8}") for i in range(8)],
        )
        config = GenLinkConfig(population_size=30, max_iterations=10)
        result = GenLink(config).learn(source_a, source_b, train, rng=3)
        links = generate_links(
            result.best_rule, source_a, source_b, blocker=FullIndexBlocker()
        )
        evaluation = evaluate_links(
            links, [(f"a{i}", f"b{i}") for i in range(len(words))]
        )
        assert evaluation.recall >= 0.9
        # Trained on 8 of 12 pairs; a couple of near-miss false positives
        # are acceptable at this scale.
        assert evaluation.precision >= 0.75
