"""Tests for the Carvalho GP baseline."""

import random

import numpy as np
import pytest

from repro.baselines.carvalho import (
    BinaryOp,
    CarvalhoConfig,
    CarvalhoGP,
    Constant,
    FeatureRef,
    SimilarityFeatures,
)
from repro.data.entity import Entity
from repro.data.reference_links import ReferenceLinkSet
from repro.data.source import DataSource


def _task(n: int = 16):
    words = [
        "berlin", "hamburg", "munich", "cologne", "frankfurt", "stuttgart",
        "dortmund", "essen", "leipzig", "bremen", "dresden", "hannover",
        "nuremberg", "duisburg", "bochum", "wuppertal",
    ][:n]
    source_a = DataSource("A")
    source_b = DataSource("B")
    positive = []
    for i, word in enumerate(words):
        source_a.add(Entity(f"a{i}", {"label": word}))
        source_b.add(Entity(f"b{i}", {"name": word}))
        positive.append((f"a{i}", f"b{i}"))
    negative = [(f"a{i}", f"b{(i + 5) % n}") for i in range(n)]
    return source_a, source_b, ReferenceLinkSet(positive, negative)


class TestSimilarityFeatures:
    def test_matrix_shape(self):
        source_a, source_b, links = _task(4)
        pairs, _ = links.labelled_pairs(source_a, source_b)
        features = SimilarityFeatures([("label", "name")], pairs)
        assert features.matrix.shape == (len(pairs), 5)  # 5 similarity functions

    def test_feature_values_in_unit_interval(self):
        source_a, source_b, links = _task(4)
        pairs, _ = links.labelled_pairs(source_a, source_b)
        features = SimilarityFeatures([("label", "name")], pairs)
        assert np.all(features.matrix >= 0.0)
        assert np.all(features.matrix <= 1.0)

    def test_identical_pairs_have_similarity_one(self):
        source_a, source_b, links = _task(4)
        pairs, labels = links.labelled_pairs(source_a, source_b)
        features = SimilarityFeatures([("label", "name")], pairs)
        exact_column = features.names.index("exact(label,name)")
        for row, label in enumerate(labels):
            if label:
                assert features.matrix[row, exact_column] == 1.0

    def test_requires_attribute_pairs(self):
        with pytest.raises(ValueError):
            SimilarityFeatures([], [])


class TestExpressionTrees:
    def _features(self):
        source_a, source_b, links = _task(4)
        pairs, _ = links.labelled_pairs(source_a, source_b)
        return SimilarityFeatures([("label", "name")], pairs)

    def test_constant(self):
        features = self._features()
        assert np.all(Constant(0.7).evaluate(features) == 0.7)

    def test_feature_ref(self):
        features = self._features()
        column = FeatureRef(0).evaluate(features)
        assert column.shape == (len(features),)

    def test_arithmetic(self):
        features = self._features()
        tree = BinaryOp("+", Constant(1.0), Constant(2.0))
        assert np.all(tree.evaluate(features) == 3.0)

    def test_protected_division(self):
        features = self._features()
        tree = BinaryOp("/", Constant(1.0), Constant(0.0))
        assert np.all(tree.evaluate(features) == 1.0)

    def test_size(self):
        tree = BinaryOp("*", Constant(1.0), BinaryOp("+", FeatureRef(0), Constant(2.0)))
        assert tree.size() == 5

    def test_render(self):
        features = self._features()
        tree = BinaryOp("+", FeatureRef(0), Constant(0.5))
        text = tree.render(features.names)
        assert "+" in text and "0.5" in text


class TestCarvalhoGP:
    def test_learns_simple_task(self):
        source_a, source_b, links = _task()
        learner = CarvalhoGP(CarvalhoConfig(population_size=40, max_generations=15))
        result = learner.learn(source_a, source_b, links, rng=1)
        assert result.train_f_measure >= 0.95

    def test_validation_evaluation(self):
        source_a, source_b, links = _task()
        learner = CarvalhoGP(CarvalhoConfig(population_size=40, max_generations=10))
        result = learner.learn(source_a, source_b, links, rng=1)
        score = learner.evaluate(result, source_a, source_b, links)
        assert score == pytest.approx(result.train_f_measure, abs=0.15)

    def test_history_recorded(self):
        source_a, source_b, links = _task()
        learner = CarvalhoGP(CarvalhoConfig(population_size=20, max_generations=5))
        result = learner.learn(source_a, source_b, links, rng=2)
        assert len(result.history) >= 1
        assert all(0.0 <= f1 <= 1.0 for f1 in result.history)

    def test_deterministic(self):
        source_a, source_b, links = _task()
        config = CarvalhoConfig(population_size=20, max_generations=5)
        r1 = CarvalhoGP(config).learn(source_a, source_b, links, rng=9)
        r2 = CarvalhoGP(config).learn(source_a, source_b, links, rng=9)
        assert r1.train_f_measure == r2.train_f_measure

    def test_render_result(self):
        source_a, source_b, links = _task()
        learner = CarvalhoGP(CarvalhoConfig(population_size=20, max_generations=3))
        result = learner.learn(source_a, source_b, links, rng=4)
        assert isinstance(result.render(), str)

