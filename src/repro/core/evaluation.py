"""Linkage rule semantics (Definitions 5-8) and batch evaluation.

:class:`PairEvaluator` evaluates similarity nodes over a *fixed* list
of entity pairs and returns numpy score vectors. Since the engine
refactor it is a thin facade over :class:`repro.engine.EngineSession`:
rule trees are compiled into deduplicated plans, transformed values are
materialised per unique entity, and thresholding runs as numpy array
operations over cached distance columns (see ``docs/engine.md``).

Semantics notes:

* Comparison (Definition 7): ``1 - d/theta`` when ``d <= theta``, else
  0. The degenerate ``theta = 0`` means exact matching: similarity 1
  when the distance is 0, else 0.
* Comparisons where either side produces no values yield similarity 0
  (the paper leaves this case open; Silk treats absent values as
  non-matching, and the drug datasets rely on this for their partially
  missing identifiers).
* Aggregation (Definition 8): ``min`` / ``max`` ignore weights,
  ``wmean`` uses the integer weights attached to its child operators.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.nodes import (
    AggregationNode,
    ComparisonNode,
    SimilarityNode,
    ValueNode,
)
from repro.data.entity import Entity
from repro.distances.base import INFINITE_DISTANCE
from repro.distances.registry import DistanceRegistry
from repro.distances.registry import default_registry as default_distances
from repro.engine.session import EngineSession, EngineStats
from repro.engine.values import evaluate_value_op
from repro.transforms.registry import TransformationRegistry
from repro.transforms.registry import default_registry as default_transforms

#: Aggregation function names accepted by :class:`AggregationNode`.
AGGREGATION_FUNCTIONS = ("min", "max", "wmean")


def evaluate_value(
    node: ValueNode,
    entity: Entity,
    transforms: TransformationRegistry,
) -> tuple[str, ...]:
    """Evaluate a value operator for one entity (Definitions 5 & 6)."""
    return evaluate_value_op(node, entity, transforms)


def compare_value_sets(
    metric_name: str,
    threshold: float,
    values_a: Sequence[str],
    values_b: Sequence[str],
    distances: DistanceRegistry,
) -> float:
    """Similarity of two value sets under a comparison's measure."""
    if not values_a or not values_b:
        return 0.0
    distance = distances.get(metric_name).evaluate(values_a, values_b)
    if distance >= INFINITE_DISTANCE:
        return 0.0
    if threshold <= 0.0:
        return 1.0 if distance == 0.0 else 0.0
    if distance > threshold:
        return 0.0
    return 1.0 - distance / threshold


class PairEvaluator:
    """Evaluates similarity nodes over a fixed list of entity pairs.

    A compatibility facade over one :class:`EngineSession` pair
    context. Passing ``session`` shares an existing session (and its
    caches) instead of creating a private one; registries and cache
    capacities are then owned by the session and may not be overridden
    here. :meth:`engine_stats` reports the backing session's tiers —
    with a shared session the counts aggregate all sharers.
    """

    def __init__(
        self,
        pairs: Sequence[tuple[Entity, Entity]],
        distances: DistanceRegistry | None = None,
        transforms: TransformationRegistry | None = None,
        max_cached_comparisons: int | None = None,
        max_cached_values: int | None = None,
        session: EngineSession | None = None,
        cache_dir: "str | None" = None,
    ):
        if session is None:
            # None means "engine defaults". An explicit comparison bound
            # caps both per-comparison tiers (distance columns and score
            # vectors) — the column tier is what actually holds the bulk
            # of per-comparison memory now.
            capacities: dict[str, int] = {}
            if max_cached_values is not None:
                capacities["max_value_entries"] = max_cached_values
            if max_cached_comparisons is not None:
                capacities["max_column_entries"] = max_cached_comparisons
                capacities["max_score_entries"] = max_cached_comparisons
            session = EngineSession(
                distances=distances,
                transforms=transforms,
                store=cache_dir,
                **capacities,
            )
        else:
            # A shared session evaluates with *its* registries and cache
            # bounds; accepting different ones here would silently
            # change semantics (or silently do nothing).
            if distances is not None and distances is not session.distances:
                raise ValueError(
                    "conflicting distance registries: pass either a session "
                    "or a registry, not both"
                )
            if transforms is not None and transforms is not session.transforms:
                raise ValueError(
                    "conflicting transformation registries: pass either a "
                    "session or a registry, not both"
                )
            if max_cached_comparisons is not None or max_cached_values is not None:
                raise ValueError(
                    "cache capacities are owned by the session; configure "
                    "them on EngineSession instead"
                )
            if cache_dir is not None:
                raise ValueError(
                    "the persistent store is owned by the session; "
                    "configure store= on EngineSession instead"
                )
        self._session = session
        self._context = session.context(pairs)

    @property
    def pairs(self) -> list[tuple[Entity, Entity]]:
        return self._context.pairs

    def __len__(self) -> int:
        return len(self._context)

    @property
    def session(self) -> EngineSession:
        """The engine session backing this evaluator."""
        return self._session

    # -- similarity operators -----------------------------------------------
    def scores(self, node: SimilarityNode) -> np.ndarray:
        """Score vector of a similarity node over all pairs (comparison
        vectors are cached and read-only)."""
        return self._context.scores(node)

    def predictions(self, node: SimilarityNode) -> np.ndarray:
        """Boolean match predictions at the 0.5 threshold."""
        return self._context.predictions(node)

    def prime_population(self, roots: Sequence[SimilarityNode]) -> None:
        """Evaluate a whole population through one compiled plan,
        warming the distance-column and score caches; subsequent
        per-rule :meth:`scores` calls hit those caches."""
        self._context.population_scores(roots)

    # -- cache statistics ----------------------------------------------------
    def engine_stats(self) -> EngineStats:
        """Full per-tier cache and compiler statistics."""
        return self._session.stats()

    def clear_caches(self) -> None:
        """Drop the backing session's cached values, columns, scores."""
        self._session.clear_caches()

    def release(self) -> None:
        """Evict this evaluator's context-local (column/score) cache
        entries from the backing session.

        Only relevant when sharing a session across many short-lived
        evaluators: released entries can never hit again once the
        evaluator is discarded, and releasing keeps them from crowding
        out live ones. Value columns of source states stay; those of an
        ad-hoc pair list go with the evaluator. Usable as a context
        manager: ``with PairEvaluator(pairs, session=s) as ev:``.
        """
        self._session.release_context(self._context)

    def __enter__(self) -> "PairEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


def evaluate_rule(
    rule_root: SimilarityNode,
    entity_a: Entity,
    entity_b: Entity,
    distances: DistanceRegistry | None = None,
    transforms: TransformationRegistry | None = None,
) -> float:
    """One-off evaluation of a rule on a single entity pair.

    Convenience wrapper for interactive use and the reference semantics
    for engine parity tests; batch workloads should use
    :class:`PairEvaluator`.
    """
    distances = distances if distances is not None else default_distances()
    transforms = transforms if transforms is not None else default_transforms()
    if isinstance(rule_root, ComparisonNode):
        values_a = evaluate_value(rule_root.source, entity_a, transforms)
        values_b = evaluate_value(rule_root.target, entity_b, transforms)
        return compare_value_sets(
            rule_root.metric, rule_root.threshold, values_a, values_b, distances
        )
    if isinstance(rule_root, AggregationNode):
        child_scores = [
            evaluate_rule(child, entity_a, entity_b, distances, transforms)
            for child in rule_root.operators
        ]
        if rule_root.function == "min":
            return min(child_scores)
        if rule_root.function == "max":
            return max(child_scores)
        if rule_root.function == "wmean":
            weights = [child.weight for child in rule_root.operators]
            total = sum(weights)
            return sum(w * s for w, s in zip(weights, child_scores)) / total
        raise ValueError(f"unknown aggregation function {rule_root.function!r}")
    raise TypeError(f"not a similarity operator: {type(rule_root).__name__}")
