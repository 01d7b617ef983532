"""Column-path determinism: links, scores and learning history must be
bit-identical whether a measure scores its columns through a batch
kernel or through the inherited per-pair fallback
(``DistanceMeasure.evaluate_column`` over the scalar ``evaluate``), and
for every executor kind. The path may only move wall-clock.
"""

from __future__ import annotations

import random

from repro.core.genlink import GenLink, GenLinkConfig
from repro.core.nodes import AggregationNode, ComparisonNode, PropertyNode, TransformationNode
from repro.core.rule import LinkageRule
from repro.data.splits import train_validation_split
from repro.datasets import load_dataset
from repro.distances.base import DistanceMeasure
from repro.distances.registry import DistanceRegistry, default_registry
from repro.engine import EngineSession
from repro.matching.engine import MatchingEngine


class _ScalarOnly(DistanceMeasure):
    """A built-in measure reduced to its scalar ``evaluate``: columns
    take the inherited ``fallback_column(evaluate)``."""

    def __init__(self, measure: DistanceMeasure):
        self._measure = measure
        self.name = measure.name
        self.threshold_range = measure.threshold_range

    def evaluate(self, values_a, values_b):
        return self._measure.evaluate(values_a, values_b)


def _scalar_registry() -> DistanceRegistry:
    """Every built-in measure, without its batch kernel."""
    builtin = default_registry()
    registry = DistanceRegistry()
    for name in builtin:
        registry.register(_ScalarOnly(builtin.get(name)))
    return registry


def _string_rule() -> LinkageRule:
    """A rule leaning on every string-kernel family at once."""
    name = PropertyNode("name")
    tokens = TransformationNode("tokenize", (PropertyNode("address"),))
    return LinkageRule(
        AggregationNode(
            function="wmean",
            operators=(
                ComparisonNode("levenshtein", 3.0, name, name),
                ComparisonNode("jaroWinkler", 0.25, name, name),
                ComparisonNode("jaccard", 0.8, tokens, tokens),
            ),
        )
    )


def _restaurant():
    return load_dataset("restaurant", seed=5, scale=0.3)


def test_links_identical_across_backends_and_workers():
    """One string-heavy rule over workers {0, 2}: identical links
    including emission order."""
    dataset = _restaurant()
    rule = _string_rule()
    reference = None
    for workers in (0, 2):
        engine = MatchingEngine(workers=workers, batch_size=128)
        try:
            links = [
                (link.uid_a, link.uid_b, link.score)
                for link in engine.iter_links(
                    rule, dataset.source_a, dataset.source_b
                )
            ]
        finally:
            engine.close()
        if reference is None:
            reference = links
            assert links, "rule generated no links"
        else:
            assert links == reference, workers


def test_routing_counters_reported_per_run():
    """The per-run MatchStats carry the kernel-routing split: every
    pair of the built-in string measures is batch. The same rule over
    kernel-less measures routes every pair through the fallback."""
    dataset = _restaurant()
    rule = _string_rule()
    engine = MatchingEngine(batch_size=128)
    try:
        list(engine.iter_links(rule, dataset.source_a, dataset.source_b))
        stats = engine.last_run_stats()
    finally:
        engine.close()
    routing = {name: (batch, fallback) for name, batch, fallback in stats.kernel_routing}
    assert set(routing) == {"levenshtein", "jaroWinkler", "jaccard"}, routing
    for name, (batch, fallback) in routing.items():
        assert batch > 0 and fallback == 0, (name, routing)

    pairs = list(zip(dataset.source_a, dataset.source_b))
    with EngineSession(distances=_scalar_registry(), store="") as session:
        session.context(pairs).scores(rule.root)
        scalar = {
            name: (batch, fallback)
            for name, batch, fallback in session.stats().kernel_routing
        }
    assert set(scalar) == set(routing), scalar
    for name, (batch, fallback) in scalar.items():
        assert batch == 0 and fallback > 0, (name, scalar)


def test_learning_identical_across_backends():
    """Full GenLink learning (history and best rule) is bit-identical
    between the built-in batch kernels and the per-pair fallback on a
    real dataset slice."""
    results = []
    for distances in (None, _scalar_registry()):
        dataset = _restaurant()
        rng = random.Random(5)
        train, validation = train_validation_split(dataset.links, rng)
        result = GenLink(
            GenLinkConfig(population_size=24, max_iterations=3),
            distances=distances,
            cache_dir="",
        ).learn(
            dataset.source_a,
            dataset.source_b,
            train,
            validation_links=validation,
            rng=rng,
        )
        results.append(
            (
                result.best_rule,
                [
                    (
                        record.iteration,
                        record.best_fitness,
                        record.train_f_measure,
                    )
                    for record in result.history
                ],
            )
        )
    assert results[1] == results[0]
