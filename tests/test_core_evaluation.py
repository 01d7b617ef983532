"""Tests for rule semantics and the batch evaluator."""

import numpy as np
import pytest

from repro.core.evaluation import (
    PairEvaluator,
    compare_value_sets,
    evaluate_rule,
    evaluate_value,
)
from repro.core.nodes import (
    AggregationNode,
    ComparisonNode,
    PropertyNode,
    TransformationNode,
)
from repro.data.entity import Entity
from repro.distances.registry import default_registry as distances
from repro.transforms.registry import default_registry as transforms


def _entity(uid="e", **props):
    return Entity(uid, props)


class TestValueOperators:
    def test_property_operator(self):
        entity = _entity(label="Berlin")
        assert evaluate_value(PropertyNode("label"), entity, transforms()) == (
            "Berlin",
        )

    def test_missing_property_empty(self):
        assert evaluate_value(PropertyNode("x"), _entity(), transforms()) == ()

    def test_transformation_chain(self):
        node = TransformationNode(
            "tokenize", (TransformationNode("lowerCase", (PropertyNode("label"),)),)
        )
        entity = _entity(label="New York")
        assert evaluate_value(node, entity, transforms()) == ("new", "york")

    def test_concatenate_two_properties(self):
        node = TransformationNode(
            "concatenate", (PropertyNode("first"), PropertyNode("last"))
        )
        entity = _entity(first="John", last="Smith")
        assert evaluate_value(node, entity, transforms()) == ("John Smith",)

    def test_parameterised_replace(self):
        node = TransformationNode(
            "replace",
            (PropertyNode("name"),),
            params=(("replacement", " "), ("search", "-")),
        )
        entity = _entity(name="beta-blocker")
        assert evaluate_value(node, entity, transforms()) == ("beta blocker",)


class TestComparisonSemantics:
    def test_definition7_formula(self):
        # d=1, theta=2 -> 1 - 1/2 = 0.5
        sim = compare_value_sets("levenshtein", 2.0, ("cat",), ("cut",), distances())
        assert sim == pytest.approx(0.5)

    def test_distance_above_threshold_is_zero(self):
        sim = compare_value_sets("levenshtein", 1.0, ("abc",), ("xyz",), distances())
        assert sim == 0.0

    def test_zero_distance_is_one(self):
        sim = compare_value_sets("levenshtein", 1.0, ("same",), ("same",), distances())
        assert sim == 1.0

    def test_zero_threshold_means_exact(self):
        assert (
            compare_value_sets("levenshtein", 0.0, ("a",), ("a",), distances()) == 1.0
        )
        assert (
            compare_value_sets("levenshtein", 0.0, ("a",), ("b",), distances()) == 0.0
        )

    def test_empty_values_yield_zero(self):
        assert compare_value_sets("levenshtein", 5.0, (), ("x",), distances()) == 0.0


class TestEvaluateRule:
    def test_min_aggregation(self, city_rule):
        entity_a = _entity(label="Berlin", point="52.52,13.405")
        entity_b = _entity(uid="e2", name="berlin", coord="POINT(13.405 52.52)")
        score = evaluate_rule(city_rule.root, entity_a, entity_b)
        assert score == 1.0

    def test_min_fails_when_one_comparison_fails(self, city_rule):
        entity_a = _entity(label="Berlin", point="52.52,13.405")
        entity_b = _entity(uid="e2", name="berlin", coord="POINT(9.99 53.55)")
        assert evaluate_rule(city_rule.root, entity_a, entity_b) == 0.0

    def test_max_aggregation(self):
        root = AggregationNode(
            "max",
            (
                ComparisonNode("levenshtein", 1.0, PropertyNode("a"), PropertyNode("a")),
                ComparisonNode("levenshtein", 1.0, PropertyNode("b"), PropertyNode("b")),
            ),
        )
        entity_a = _entity(a="xxx", b="yyy")
        entity_b = _entity(uid="e2", a="zzz", b="yyy")
        assert evaluate_rule(root, entity_a, entity_b) == 1.0

    def test_wmean_weights(self):
        root = AggregationNode(
            "wmean",
            (
                ComparisonNode(
                    "levenshtein", 1.0, PropertyNode("a"), PropertyNode("a"), weight=3
                ),
                ComparisonNode(
                    "levenshtein", 1.0, PropertyNode("b"), PropertyNode("b"), weight=1
                ),
            ),
        )
        entity_a = _entity(a="x", b="y")
        entity_b = _entity(uid="e2", a="x", b="zzz")
        # (3 * 1.0 + 1 * 0.0) / 4
        assert evaluate_rule(root, entity_a, entity_b) == pytest.approx(0.75)


class TestPairEvaluator:
    def _pairs(self):
        entity_a1 = _entity("a1", label="Berlin", point="52.52,13.405")
        entity_a2 = _entity("a2", label="Hamburg", point="53.55,9.99")
        entity_b1 = _entity("b1", name="berlin", coord="POINT(13.405 52.52)")
        entity_b2 = _entity("b2", name="munich", coord="POINT(11.58 48.14)")
        return [
            (entity_a1, entity_b1),  # match
            (entity_a1, entity_b2),  # non-match
            (entity_a2, entity_b1),  # non-match
        ]

    def test_scores_vector(self, city_rule):
        evaluator = PairEvaluator(self._pairs())
        scores = evaluator.scores(city_rule.root)
        assert scores.shape == (3,)
        assert scores[0] == 1.0
        assert scores[1] == 0.0
        assert scores[2] == 0.0

    def test_batch_matches_single_evaluation(self, city_rule):
        pairs = self._pairs()
        evaluator = PairEvaluator(pairs)
        batch = evaluator.scores(city_rule.root)
        for i, (entity_a, entity_b) in enumerate(pairs):
            single = evaluate_rule(city_rule.root, entity_a, entity_b)
            assert batch[i] == pytest.approx(single)

    def test_predictions_threshold(self, city_rule):
        evaluator = PairEvaluator(self._pairs())
        assert list(evaluator.predictions(city_rule.root)) == [True, False, False]

    def test_comparison_cache_hit(self, city_rule):
        evaluator = PairEvaluator(self._pairs())
        evaluator.scores(city_rule.root)
        misses = evaluator.engine_stats().scores.misses
        evaluator.scores(city_rule.root)
        assert evaluator.engine_stats().scores.misses == misses
        assert evaluator.engine_stats().scores.hits > 0

    def test_weight_excluded_from_cache_key(self):
        from dataclasses import replace

        comparison = ComparisonNode(
            "levenshtein", 1.0, PropertyNode("label"), PropertyNode("name")
        )
        evaluator = PairEvaluator(self._pairs())
        evaluator.scores(comparison)
        evaluator.scores(replace(comparison, weight=5))
        assert evaluator.engine_stats().scores.misses == 1

    def test_cached_comparison_scores_are_readonly(self, label_comparison):
        evaluator = PairEvaluator(self._pairs())
        scores = evaluator.scores(label_comparison)
        with pytest.raises(ValueError):
            scores[0] = 0.5

    def test_clear_caches(self, city_rule):
        evaluator = PairEvaluator(self._pairs())
        evaluator.scores(city_rule.root)
        evaluator.clear_caches()
        misses_before = evaluator.engine_stats().scores.misses
        evaluator.scores(city_rule.root)
        assert evaluator.engine_stats().scores.misses > misses_before

    def test_unknown_aggregation_raises(self):
        root = AggregationNode(
            "median",
            (ComparisonNode("levenshtein", 1.0, PropertyNode("a"), PropertyNode("a")),),
        )
        evaluator = PairEvaluator(self._pairs())
        with pytest.raises(ValueError, match="median"):
            evaluator.scores(root)
