"""Tests for the compiled rule-execution engine: LRU cache tiers,
structural-hash deduplication, persistent sessions and statistics."""

import gc
import threading

import numpy as np
import pytest

from repro.core.nodes import (
    AggregationNode,
    ComparisonNode,
    PropertyNode,
    TransformationNode,
)
from repro.data.entity import Entity
from repro.data.pairs import PairBatch
from repro.data.source import DataSource
from repro.engine import EngineSession, LRUCache, RuleCompiler


def _comparison(metric="levenshtein", threshold=2.0, prop_a="name", prop_b="name"):
    return ComparisonNode(
        metric,
        threshold,
        TransformationNode("lowerCase", (PropertyNode(prop_a),)),
        TransformationNode("lowerCase", (PropertyNode(prop_b),)),
    )


def _pairs(n=4):
    return [
        (
            Entity(f"a{i}", {"name": f"entity {i}", "year": str(1990 + i)}),
            Entity(f"b{i}", {"name": f"entity {i % 2}", "year": str(1990 + i)}),
        )
        for i in range(n)
    ]


def _sourced_pairs(n=4):
    """``_pairs(n)`` as batches cut from two sources would carry them."""
    pairs = _pairs(n)
    source_a = DataSource("A", [a for a, _ in pairs])
    source_b = DataSource("B", list({b.uid: b for _, b in pairs}.values()))
    pairs = [(source_a.get(a.uid), source_b.get(b.uid)) for a, b in pairs]
    return source_a, source_b, pairs


class TestLRUCache:
    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # renews "a"
        cache.put("c", 3)  # evicts "b", not "a"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_eviction_is_single_entry_not_wholesale(self):
        cache = LRUCache(3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 3
        assert cache.stats().evictions == 7

    def test_stats_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.size == 1
        assert stats.capacity == 2
        assert stats.hit_rate == pytest.approx(0.5)

    def test_clear_keeps_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestRuleCompiler:
    def test_structurally_equal_comparisons_share_one_op(self):
        compiler = RuleCompiler()
        # Two distinct node objects, same structure, different thresholds
        # and weights: one distance op.
        c1 = _comparison(threshold=1.0)
        c2 = ComparisonNode(
            "levenshtein",
            2.5,
            TransformationNode("lowerCase", (PropertyNode("name"),)),
            TransformationNode("lowerCase", (PropertyNode("name"),)),
            weight=3,
        )
        plan = compiler.compile_population([c1, c2])
        assert plan.comparison_node_count == 2
        assert len(plan.comparison_ops) == 1
        assert compiler.comparison_op_count == 1

    def test_shared_value_subtrees_dedupe(self):
        compiler = RuleCompiler()
        root = AggregationNode(
            "max",
            (
                _comparison("levenshtein", 1.0),
                _comparison("jaro", 0.3),
            ),
        )
        plan = compiler.compile_population([root])
        # Both comparisons read lowerCase(name) on both sides: one
        # unique value op.
        assert plan.value_op_count == 1

    def test_population_plan_across_rules(self):
        compiler = RuleCompiler()
        shared = _comparison()
        rules = [
            AggregationNode("min", (shared, _comparison(prop_a="year"))),
            AggregationNode("max", (shared,)),
            shared,
        ]
        plan = compiler.compile_population(rules)
        assert len(plan.roots) == 3
        assert len(plan.comparison_ops) == 2

    def test_interning_persists_across_compilations(self):
        compiler = RuleCompiler()
        compiler.compile(_comparison())
        compiler.compile(_comparison(threshold=9.0))
        assert compiler.comparison_op_count == 1

    def test_value_tree_signature_matches_interned_signatures(self):
        """The standalone signature function (used by blocking-index
        cache keys) must produce exactly what the compiler interns."""
        from repro.engine.compiler import value_tree_signature

        compiler = RuleCompiler()
        trees = [
            PropertyNode("name"),
            TransformationNode("lowerCase", (PropertyNode("name"),)),
            TransformationNode(
                "replace",
                (TransformationNode("tokenize", (PropertyNode("x"),)),),
                params=(("search", "a"), ("replace", "b")),
            ),
        ]
        for tree in trees:
            assert compiler.value_signature(tree) == value_tree_signature(tree)


class TestBlockingIndexMemo:
    def test_builds_once_per_key(self):
        session = EngineSession()
        calls = []

        def build():
            calls.append(1)
            return {"tok": ("u1",)}

        first = session.blocking_index("fp", "token:v1", build)
        second = session.blocking_index("fp", "token:v1", build)
        assert first is second
        assert len(calls) == 1

    def test_keys_separate_fingerprints_and_tokens(self):
        session = EngineSession()
        a = session.blocking_index("fp1", "tok", lambda: {"a": ()})
        b = session.blocking_index("fp2", "tok", lambda: {"b": ()})
        c = session.blocking_index("fp1", "other", lambda: {"c": ()})
        assert a != b and a != c

    def test_persists_through_the_store(self, tmp_path):
        cold = EngineSession(store=str(tmp_path))
        payload = cold.blocking_index("fp", "tok", lambda: {"a": ("x",)})
        assert cold.stats().store.index_writes == 1

        warm = EngineSession(store=str(tmp_path))
        loaded = warm.blocking_index(
            "fp", "tok", lambda: pytest.fail("must load, not rebuild")
        )
        assert loaded == payload
        assert warm.stats().store.index_hits == 1

    def test_clear_caches_drops_the_memo(self):
        session = EngineSession()
        session.blocking_index("fp", "tok", lambda: {"a": ()})
        session.clear_caches()
        calls = []
        session.blocking_index("fp", "tok", lambda: calls.append(1) or {"a": ()})
        assert calls == [1]


class TestEngineSession:
    def test_threshold_mutation_reuses_distance_column(self):
        session = EngineSession()
        context = session.context(_pairs())
        context.scores(_comparison(threshold=1.0))
        columns_after_first = session.stats().columns.misses
        context.scores(_comparison(threshold=2.0))
        stats = session.stats()
        # Second threshold: no new distance column, only a new score
        # vector.
        assert stats.columns.misses == columns_after_first
        assert stats.columns.hits >= 1

    def test_value_cache_survives_across_contexts(self):
        session = EngineSession()
        source_a, source_b, pairs = _sourced_pairs()
        batch = PairBatch.from_pairs(pairs[:2], source_a, source_b)
        session.context(batch).scores(_comparison())
        value_misses = session.stats().values.misses
        # A second batch over the same source states gathers the first
        # batch's slots.
        again = PairBatch.from_pairs(pairs[:2], source_a, source_b)
        session.context(again).scores(_comparison())
        stats = session.stats()
        assert stats.values.misses == value_misses
        assert stats.values.hits > 0

    def test_population_scores_match_per_rule_scores(self):
        rules = [
            _comparison(threshold=1.0),
            AggregationNode(
                "wmean",
                (
                    ComparisonNode(
                        "levenshtein",
                        2.0,
                        PropertyNode("name"),
                        PropertyNode("name"),
                        weight=2,
                    ),
                    _comparison("equality", 0.0, "year", "year"),
                ),
            ),
        ]
        pairs = _pairs()
        vectors = EngineSession().context(pairs).population_scores(rules)
        for rule, vector in zip(rules, vectors):
            expected = EngineSession().context(pairs).scores(rule)
            np.testing.assert_array_equal(vector, expected)

    def test_bounded_score_cache_evicts_not_clears(self):
        session = EngineSession(max_score_entries=2)
        context = session.context(_pairs())
        for threshold in (1.0, 2.0, 3.0, 4.0):
            context.scores(_comparison(threshold=threshold))
        stats = session.stats()
        assert stats.scores.size == 2
        assert stats.scores.evictions == 2

    def test_value_tuples_gather_from_the_source_column(self):
        session = EngineSession()
        node = TransformationNode("lowerCase", (PropertyNode("name"),))
        source = DataSource(
            "S", [Entity("e", {"name": "Berlin"}), Entity("f", {"name": "Bonn"})]
        )
        state = source.state()
        assert session.value_tuples(node, state, [1, 0]) == [("bonn",), ("berlin",)]
        before = session.stats().values
        assert session.value_tuples(node, state, [0]) == [("berlin",)]
        after = session.stats().values
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert after.size == 2

    def test_dedup_workload_shares_value_entries_across_sides(self):
        # Deduplication batches cut both sides from one source state;
        # the value tier must hold one slot per (op, entity), not two.
        source = DataSource(
            "S", [Entity(f"e{i}", {"name": f"n{i}"}) for i in range(3)]
        )
        entities = source.entities()
        pairs = [(entities[0], entities[1]), (entities[1], entities[2])]
        session = EngineSession()
        session.context(PairBatch.from_pairs(pairs, source, source)).scores(
            _comparison()
        )
        stats = session.stats()
        assert stats.values.size == 3  # one per unique entity
        assert stats.values.hits >= 1  # e1 reused across sides

    def test_facade_release_evicts_context_entries(self):
        from repro.core.evaluation import PairEvaluator

        session = EngineSession()
        source_a, source_b, pairs = _sourced_pairs()
        batch = PairBatch.from_pairs(pairs, source_a, source_b)
        with PairEvaluator(batch, session=session) as evaluator:
            evaluator.scores(_comparison())
            assert session.stats().scores.size == 1
        stats = session.stats()
        assert stats.scores.size == 0
        assert stats.columns.size == 0
        assert stats.values.size > 0  # source columns survive release
        # An ad-hoc pair list's value columns are the context's own.
        with PairEvaluator(_pairs(), session=session) as evaluator:
            evaluator.scores(_comparison())
            assert session.stats().values.size > stats.values.size
        assert session.stats().values.size == stats.values.size

    def test_clear_caches(self):
        session = EngineSession()
        context = session.context(_pairs())
        context.scores(_comparison())
        session.clear_caches()
        stats = session.stats()
        assert stats.values.size == 0
        assert stats.columns.size == 0
        assert stats.scores.size == 0
        # Compiler interning survives (never stale).
        assert stats.comparison_ops == 1

    def test_comparison_scores_read_only(self):
        context = EngineSession().context(_pairs())
        scores = context.scores(_comparison())
        with pytest.raises(ValueError):
            scores[0] = 0.5

    def test_engine_stats_through_evaluator_facade(self):
        from repro.core.evaluation import PairEvaluator

        evaluator = PairEvaluator(_pairs())
        evaluator.scores(_comparison())
        stats = evaluator.engine_stats()
        assert stats.scores.misses == 1
        assert stats.comparison_ops == 1
        assert evaluator.engine_stats().scores.misses == 1

    def test_facade_capacity_bounds_column_tier(self):
        from repro.core.evaluation import PairEvaluator

        evaluator = PairEvaluator(_pairs(), max_cached_comparisons=2)
        for prop in ("name", "year"):
            for threshold in (1.0, 2.0):
                evaluator.scores(
                    ComparisonNode(
                        "levenshtein",
                        threshold,
                        PropertyNode(prop),
                        PropertyNode(prop),
                    )
                )
        stats = evaluator.engine_stats()
        assert stats.columns.capacity == 2
        assert stats.scores.capacity == 2
        assert stats.columns.size <= 2
        assert stats.scores.size <= 2

    def test_shared_session_rejects_conflicting_registries(self):
        from repro.core.evaluation import PairEvaluator
        from repro.transforms.registry import TransformationRegistry

        session = EngineSession()
        with pytest.raises(ValueError, match="conflicting"):
            PairEvaluator(
                _pairs(), transforms=TransformationRegistry(), session=session
            )
        # The session's own registries are accepted.
        PairEvaluator(
            _pairs(),
            distances=session.distances,
            transforms=session.transforms,
            session=session,
        )

    def test_huge_sentinel_distances_no_overflow_warning(self):
        import warnings

        pairs = [
            (Entity("a0", {"name": "x"}), Entity("b0", {})),  # empty side
            (Entity("a1", {"name": "x"}), Entity("b1", {"name": "x"})),
        ]
        context = EngineSession().context(pairs)
        node = ComparisonNode(
            "levenshtein", 1e-9, PropertyNode("name"), PropertyNode("name")
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = context.scores(node)
        assert scores[0] == 0.0
        assert scores[1] == 1.0

    def test_release_context_evicts_batch_local_tiers_only(self):
        session = EngineSession()
        source_a, source_b, pairs = _sourced_pairs()
        ctx1 = session.context(PairBatch.from_pairs(pairs[:2], source_a, source_b))
        ctx2 = session.context(PairBatch.from_pairs(pairs[2:], source_a, source_b))
        ctx1.scores(_comparison())
        ctx2.scores(_comparison())
        values_before = session.stats().values.size
        session.release_context(ctx1)
        stats = session.stats()
        # ctx1's column/score vectors are gone, ctx2's remain, and the
        # source-state value columns are untouched (cross-batch reuse).
        assert stats.columns.size == 1
        assert stats.scores.size == 1
        assert stats.values.size == values_before
        np.testing.assert_array_equal(
            ctx2.scores(_comparison()),
            EngineSession().context(pairs[2:]).scores(_comparison()),
        )
        # An ad-hoc context's value columns are batch-local too.
        ctx3 = session.context(_pairs())
        ctx3.scores(_comparison())
        assert session.stats().values.size > values_before
        session.release_context(ctx3)
        assert session.stats().values.size == values_before

    def test_compiler_memo_bound(self):
        compiler = RuleCompiler(max_memo_entries=4)
        for i in range(20):
            compiler.compile(_comparison(threshold=float(i + 1)))
        # Memo tables stay bounded; interned threshold-free ops persist.
        assert len(compiler._compiled) <= 4
        assert compiler.comparison_op_count == 1

    def test_record_probe_counters_surface_in_stats(self):
        """Blocking probe traffic recorded via ``record_probe`` shows
        up in ``EngineStats`` (and survives ``clear_caches`` — probe
        counters are monotonic run statistics, not cache state)."""
        session = EngineSession()
        before = session.stats()
        assert before.probe_batches == 0
        assert before.probe_memo_hits == 0
        session.record_probe(batches=2, memo_hits=7)
        session.record_probe(memo_hits=1)
        session.clear_caches()
        stats = session.stats()
        assert stats.probe_batches == 2
        assert stats.probe_memo_hits == 8


_LOWER = TransformationNode("lowerCase", (PropertyNode("name"),))
_UPPER = TransformationNode("upperCase", (PropertyNode("name"),))


def _named_source(name, count, stem="N"):
    return DataSource(
        name, [Entity(f"{name}{i}", {"name": f"{stem}{i}"}) for i in range(count)]
    )


class TestValueColumns:
    """Value columns per (value op, source state): lifetime, state
    changes, the slot bound and concurrent fills."""

    def test_columns_die_with_their_source_and_contexts(self):
        from repro.core.evaluation import PairEvaluator
        from repro.data.reference_links import ReferenceLinkSet

        session = EngineSession()
        source_a, source_b, pairs = _sourced_pairs()
        context = session.context(PairBatch.from_pairs(pairs, source_a, source_b))
        context.scores(_comparison())
        links = ReferenceLinkSet([("a0", "b0")], [("a1", "b0")])
        batch, _ = links.labelled_pairs(source_a, source_b)
        evaluator = PairEvaluator(batch, session=session)
        evaluator.scores(_comparison(prop_a="year", prop_b="year"))
        assert session.stats().values.size > 0
        del context, evaluator, batch, pairs, source_a, source_b
        gc.collect()
        stats = session.stats().values
        assert stats.size == 0
        assert stats.evictions == stats.misses

    def test_context_reads_the_upserted_state_never_the_old_slot(self):
        session = EngineSession()
        node = ComparisonNode("equality", 0.0, _LOWER, _LOWER)
        source_a = DataSource("A", [Entity("a0", {"name": "Bonn"})])
        source_b = DataSource(
            "B", [Entity("b0", {"name": "Berlin"}), Entity("b1", {"name": "Paris"})]
        )

        def scores():
            pairs = [(source_a.get("a0"), entity) for entity in source_b]
            batch = PairBatch.from_pairs(pairs, source_a, source_b)
            return batch, session.context(batch).scores(node).tolist()

        old_batch, old_scores = scores()
        assert old_scores == [0.0, 0.0]
        old_state = source_b.state()
        source_b.apply_delta(upserts=[Entity("b0", {"name": "BONN"})])
        assert source_b.state() is not old_state
        _, upserted = scores()
        assert upserted == [1.0, 0.0]
        source_b.add(Entity("b2", {"name": "bonn"}))
        _, added = scores()
        assert added == [1.0, 0.0, 1.0]
        # The old state's batch still reads its own slots.
        assert session.context(old_batch).scores(node).tolist() == [0.0, 0.0]
        assert session.value_tuples(_LOWER, old_state, [0]) == [("berlin",)]
        assert session.value_tuples(_LOWER, source_b.state(), [0]) == [("bonn",)]

    def test_bound_counts_filled_slots_and_evicts_whole_columns(self):
        session = EngineSession(max_value_entries=5)
        state = _named_source("s", 4).state()
        session.value_tuples(_LOWER, state, range(4))
        assert session.stats().values.size == 4
        # 8 filled slots > 5: the least recently gathered column goes.
        session.value_tuples(_UPPER, state, range(4))
        stats = session.stats().values
        assert (stats.size, stats.evictions) == (4, 4)
        assert session.value_tuples(_UPPER, state, [1]) == [("N1",)]
        assert session.stats().values.hits == stats.hits + 1

    def test_racing_fills_never_expose_an_unfilled_slot(self):
        session = EngineSession()
        state = _named_source("s", 300).state()
        expected = [(f"n{i}",) for i in range(300)]
        barrier = threading.Barrier(4)
        results = []

        def read():
            barrier.wait()
            results.append(session.value_tuples(_LOWER, state, range(300)))

        threads = [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [expected] * 4
        stats = session.stats().values
        assert stats.size == 300
        assert stats.hits + stats.misses == 1200

    def test_racing_fill_counts_one_miss_per_slot(self):
        """Two gathers that both evaluate one unfilled slot count one
        miss (the fill) and one hit (the slot the other one filled)."""
        from repro.transforms.base import Transformation
        from repro.transforms.registry import TransformationRegistry

        barrier = threading.Barrier(2)

        class Rendezvous(Transformation):
            name = "rendezvous"

            def apply(self, inputs):
                barrier.wait(timeout=10)
                return inputs[0]

        transforms = TransformationRegistry()
        transforms.register(Rendezvous())
        session = EngineSession(transforms=transforms)
        node = TransformationNode("rendezvous", (PropertyNode("name"),))
        state = _named_source("s", 1).state()
        results = []

        def read():
            results.append(session.value_tuples(node, state, [0]))

        threads = [threading.Thread(target=read) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [[("N0",)]] * 2
        stats = session.stats().values
        assert (stats.misses, stats.hits, stats.size) == (1, 1, 1)
