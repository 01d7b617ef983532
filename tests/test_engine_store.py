"""Tests for the persistent distance-column store: content-hash keys,
corruption/partial-write recovery, snapshot invalidation, concurrent
writers, and warm-rerun reuse over the bundled datasets."""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from unittest import mock

import numpy as np
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
from repro.datasets import load_dataset
from repro.engine import (
    CACHE_ENV,
    ColumnStore,
    EngineSession,
    counters,
    resolve_store,
)
from repro.engine.store import (
    StoreStats,
    column_key,
    index_key,
    pairs_fingerprint,
)
from repro.matching import FullIndexBlocker, MatchingEngine


def _comparison(metric="levenshtein", threshold=2.0, prop="name"):
    return ComparisonNode(
        metric,
        threshold,
        TransformationNode("lowerCase", (PropertyNode(prop),)),
        TransformationNode("lowerCase", (PropertyNode(prop),)),
    )


def _pairs(n=6):
    return [
        (
            Entity(f"a{i}", {"name": f"entity {i}", "year": str(1990 + i)}),
            Entity(f"b{i}", {"name": f"entity {i % 2}", "year": str(1990 + i)}),
        )
        for i in range(n)
    ]


def _sharing_case():
    """The rule and sources both processes of the store-sharing test
    execute."""
    rule = LinkageRule(_comparison(prop="name"))
    source_a = DataSource(
        "A",
        [Entity(f"a{i}", {"name": f"entity {i % 7}"}) for i in range(40)],
    )
    source_b = DataSource(
        "B",
        [Entity(f"b{i}", {"name": f"Entity {i % 5}"}) for i in range(40)],
    )
    return rule, source_a, source_b


def _execute_serially(cache_dir: str):
    """One serial execute of :func:`_sharing_case` into ``cache_dir``:
    the links as ``(uid_a, uid_b, score hex)`` and the run's stats."""
    rule, source_a, source_b = _sharing_case()
    engine = MatchingEngine(
        blocker=FullIndexBlocker(), batch_size=256, workers=0, cache_dir=cache_dir
    )
    try:
        links = engine.execute(rule, source_a, source_b)
    finally:
        engine.close()
    triples = [(link.uid_a, link.uid_b, link.score.hex()) for link in links]
    return triples, engine.last_run_stats()


def _cold_execute_in_child(cache_dir: str, links_path: str) -> None:
    """Child-process body (module-level, so any start method can run
    it): a cold execute into ``cache_dir``, its links saved to
    ``links_path``."""
    links, stats = _execute_serially(cache_dir)
    assert stats.store.writes > 0 and stats.store.invalid == 0
    with open(links_path, "wb") as handle:
        pickle.dump(links, handle)


class TestFingerprints:
    def test_entity_fingerprint_is_content_based(self):
        a = Entity("x", {"name": "Berlin", "year": "1990"})
        b = Entity("x", {"year": "1990", "name": "Berlin"})  # order-free
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() == a.fingerprint()  # cached, stable

    def test_entity_fingerprint_changes_with_content(self):
        base = Entity("x", {"name": "Berlin"})
        assert base.fingerprint() != Entity("y", {"name": "Berlin"}).fingerprint()
        assert base.fingerprint() != Entity("x", {"name": "Bonn"}).fingerprint()
        assert (
            base.fingerprint()
            != Entity("x", {"name": ("Berlin", "Bonn")}).fingerprint()
        )

    def test_entity_fingerprint_survives_pickle(self):
        entity = Entity("x", {"name": "Berlin"})
        clone = pickle.loads(pickle.dumps(entity))
        assert clone.fingerprint() == entity.fingerprint()

    def test_source_fingerprint_excludes_name_tracks_content(self):
        entities = [Entity(f"e{i}", {"name": f"n{i}"}) for i in range(3)]
        a = DataSource("a", entities)
        b = DataSource("b", entities)
        assert a.fingerprint() == b.fingerprint()
        b.add(Entity("extra", {"name": "x"}))
        assert a.fingerprint() != b.fingerprint()

    def test_pairs_fingerprint_is_order_sensitive(self):
        pairs = _pairs(3)
        assert pairs_fingerprint(pairs) == pairs_fingerprint(list(pairs))
        assert pairs_fingerprint(pairs) != pairs_fingerprint(pairs[::-1])

    def test_fingerprint_encoding_is_injective(self):
        # A value containing a would-be separator must not collide with
        # the multi-value split of the same text (length-prefixed
        # encoding), nor values straddling the name/value boundary.
        joined = Entity("u", {"p": ("a\x1eb",)})
        split = Entity("u", {"p": ("a", "b")})
        assert joined.fingerprint() != split.fingerprint()
        assert (
            Entity("u", {"ab": ("c",)}).fingerprint()
            != Entity("u", {"a": ("bc",)}).fingerprint()
        )


class TestResolveStore:
    def test_none_without_env_disables(self):
        with mock.patch.dict(os.environ, {}, clear=False):
            os.environ.pop(CACHE_ENV, None)
            assert resolve_store(None) is None

    def test_env_enables(self, tmp_path):
        with mock.patch.dict(os.environ, {CACHE_ENV: str(tmp_path)}):
            store = resolve_store(None)
        assert isinstance(store, ColumnStore)
        assert store.root == tmp_path

    def test_empty_string_forces_off_despite_env(self, tmp_path):
        with mock.patch.dict(os.environ, {CACHE_ENV: str(tmp_path)}):
            assert resolve_store("") is None

    def test_passthrough_and_type_errors(self, tmp_path):
        store = ColumnStore(tmp_path)
        assert resolve_store(store) is store
        with pytest.raises(TypeError):
            resolve_store(123)


class TestColumnStore:
    def test_roundtrip_is_bit_exact_and_read_only(self, tmp_path):
        store = ColumnStore(tmp_path)
        column = np.array([0.0, 0.5, 1e9, np.pi], dtype=np.float64)
        assert store.save("k" * 64, column)
        loaded = store.load("k" * 64, 4)
        assert loaded is not None
        assert loaded.dtype == np.float64
        assert np.array_equal(
            loaded.view(np.uint64), column.view(np.uint64)
        )  # bit-identical, not just value-equal
        assert not loaded.flags.writeable
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.writes) == (1, 0, 1)

    def test_missing_key_is_a_miss(self, tmp_path):
        store = ColumnStore(tmp_path)
        assert store.load("0" * 64, 4) is None
        assert store.stats().misses == 1
        assert store.stats().invalid == 0

    def test_truncated_blob_rebuilds_instead_of_crashing(self, tmp_path):
        store = ColumnStore(tmp_path)
        key = "a" * 64
        store.save(key, np.zeros(128, dtype=np.float64))
        [path] = list(tmp_path.glob("columns-v*/*/*.npy"))
        path.write_bytes(path.read_bytes()[:40])  # partial write
        assert store.load(key, 128) is None
        assert store.stats().invalid == 1
        assert not path.exists()  # corrupt blob dropped...
        store.save(key, np.ones(128, dtype=np.float64))  # ...and rebuilt
        loaded = store.load(key, 128)
        assert loaded is not None and float(loaded[0]) == 1.0

    def test_garbage_blob_is_invalid(self, tmp_path):
        store = ColumnStore(tmp_path)
        key = "b" * 64
        path = tmp_path / "columns-v1" / key[:2] / f"{key}.npy"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not an npy file at all")
        assert store.load(key, 4) is None
        assert store.stats().invalid == 1

    def test_wrong_row_count_is_invalid(self, tmp_path):
        store = ColumnStore(tmp_path)
        key = "c" * 64
        store.save(key, np.zeros(4, dtype=np.float64))
        assert store.load(key, 8) is None
        assert store.stats().invalid == 1

    def test_save_failure_degrades_gracefully(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        store = ColumnStore(blocker / "nested")  # parent is a file
        assert store.save("d" * 64, np.zeros(2, dtype=np.float64)) is False
        assert store.load("d" * 64, 2) is None  # miss, no crash

    def test_describe_clear_and_gc(self, tmp_path):
        store = ColumnStore(tmp_path)
        for index in range(4):
            store.save(str(index) * 64, np.zeros(16, dtype=np.float64))
        info = store.describe()
        assert info["entries"] == 4 and info["bytes"] > 0

        # Age-based GC: backdate two blobs beyond the window.
        entries = sorted(store.entries(), key=lambda e: e.key)
        for entry in entries[:2]:
            os.utime(entry.path, (0, 0))
        result = store.gc(max_age_days=1.0)
        assert result.removed == 2 and result.kept == 2

        # Size-based GC: shrink to one blob's worth of bytes.
        result = store.gc(max_bytes=entries[2].nbytes)
        assert result.removed == 1 and result.kept == 1

        assert store.clear() == 1
        assert store.describe()["entries"] == 0

    def test_legacy_sidecars_leave_with_their_columns(self, tmp_path):
        """A save writes the blob alone; the ``<key>.json`` sidecars
        older versions wrote go with their column on gc, clear and
        corrupt-blob discard, and their ``epochs-v1`` provenance
        records are listed so gc and clear remove them too: no orphan
        survives."""
        store = ColumnStore(tmp_path)
        keys = [str(index) * 64 for index in range(3)]
        for key in keys:
            store.save(key, np.zeros(8, dtype=np.float64))
        assert not list(tmp_path.rglob("*.json"))
        for path in tmp_path.glob("columns-v1/*/*.npy"):
            path.with_suffix(".json").write_text("{}")
        epoch = tmp_path / "epochs-v1" / "ee" / f"{'e' * 64}.json"
        epoch.parent.mkdir(parents=True)
        epoch.write_text('{"parent": "fp", "deltas": 1}')
        info = store.describe()
        assert (info["entries"], info["columns"]) == (4, 3)
        assert "epochs" not in info
        assert epoch in [entry.path for entry in store.entries()]
        [corrupt, aged, kept] = sorted(
            (e for e in store.entries() if e.path.suffix == ".npy"),
            key=lambda entry: entry.key,
        )
        corrupt.path.write_bytes(b"not an npy file")
        assert store.load(corrupt.key, 8) is None
        os.utime(aged.path, (0, 0))
        assert store.gc(max_age_days=1.0).removed == 1
        assert store.clear() == 2  # the kept column and the epoch record
        assert not [path for path in tmp_path.rglob("*") if path.is_file()]

    def test_stats_hit_rate(self):
        assert StoreStats(1, 2, 3, 0, 10, 20).hit_rate == pytest.approx(1 / 3)


class TestSessionTier:
    def test_warm_session_loads_all_columns(self, tmp_path):
        pairs = _pairs()
        rules = [_comparison(), _comparison("jaro", 0.3, "year")]

        def scores(session):
            context = session.context(pairs)
            return [context.scores(rule) for rule in rules]

        cold = EngineSession(store=str(tmp_path))
        cold_scores = scores(cold)
        assert cold.stats().store.writes == 2
        assert cold.stats().store.hits == 0

        warm = EngineSession(store=str(tmp_path))
        warm_scores = scores(warm)
        stats = warm.stats()
        assert stats.store.hits == 2 and stats.store.misses == 0
        assert stats.store.writes == 0  # nothing rebuilt
        for cold_vector, warm_vector in zip(cold_scores, warm_scores):
            assert np.array_equal(
                np.asarray(cold_vector).view(np.uint64),
                np.asarray(warm_vector).view(np.uint64),
            )

    def test_threshold_mutations_share_one_persisted_column(self, tmp_path):
        cold = EngineSession(store=str(tmp_path))
        context = cold.context(_pairs())
        for threshold in (1.0, 2.0, 3.0):
            context.scores(_comparison(threshold=threshold))
        stats = cold.stats().store
        # Threshold-free keying: one store lookup, one blob, however
        # many thresholds the GP mutates over the same comparison.
        assert stats.lookups == 1 and stats.writes == 1

    def test_source_change_invalidates(self, tmp_path):
        node = _comparison()
        pairs = _pairs()
        EngineSession(store=str(tmp_path)).context(pairs).scores(node)

        changed = [
            (Entity("a0", {"name": "CHANGED", "year": "1990"}), pairs[0][1])
        ] + pairs[1:]
        session = EngineSession(store=str(tmp_path))
        session.context(changed).scores(node)
        stats = session.stats().store
        assert stats.hits == 0 and stats.misses == 1

    def test_engine_stats_store_none_without_cache(self):
        with mock.patch.dict(os.environ, {}, clear=False):
            os.environ.pop(CACHE_ENV, None)
            session = EngineSession()
        assert session.store is None
        assert session.stats().store is None

    def test_env_var_enables_store(self, tmp_path):
        with mock.patch.dict(os.environ, {CACHE_ENV: str(tmp_path)}):
            session = EngineSession()
        assert session.store is not None
        assert session.store.root == tmp_path

    def test_reconfigured_measure_does_not_hit_stale_columns(self, tmp_path):
        from repro.distances.qgrams import QGramsDistance
        from repro.distances.registry import DistanceRegistry

        node = ComparisonNode(
            "qgrams", 0.5, PropertyNode("name"), PropertyNode("name")
        )
        pairs = _pairs()
        EngineSession(store=str(tmp_path)).context(pairs).scores(node)

        # Same metric *name*, different configuration: the store key
        # records the measure's class + scalar config, so this must
        # rebuild instead of serving the q=2 column.
        registry = DistanceRegistry()
        registry.register(QGramsDistance(q=3))
        session = EngineSession(distances=registry, store=str(tmp_path))
        session.context(pairs).scores(node)
        stats = session.stats().store
        assert stats.hits == 0 and stats.misses == 1

    def test_population_scores_persist_through_store(self, tmp_path):
        rules = [
            AggregationNode(
                "max", (_comparison(), _comparison("jaro", 0.3, "year"))
            ),
            _comparison(threshold=1.5),
        ]
        pairs = _pairs()
        cold = EngineSession(store=str(tmp_path))
        cold_vectors = cold.context(pairs).population_scores(rules)
        assert cold.stats().store.writes == 2  # two unique ops

        warm = EngineSession(store=str(tmp_path))
        warm_vectors = warm.context(pairs).population_scores(rules)
        assert warm.stats().store.hits == 2
        for cold_vector, warm_vector in zip(cold_vectors, warm_vectors):
            np.testing.assert_array_equal(cold_vector, warm_vector)


class TestIndexTier:
    def test_save_load_roundtrip(self, tmp_path):
        store = ColumnStore(tmp_path)
        payload = {"berlin": ("b1", "b3"), "bonn": ("b2",), 7: ("b4",)}
        key = index_key("fp", "token-index:v1")
        assert store.save_index(key, payload)
        loaded = store.load_index(key)
        assert loaded == payload
        stats = store.stats()
        assert stats.index_writes == 1
        assert stats.index_hits == 1
        assert stats.index_misses == 0
        assert stats.bytes_written > 0 and stats.bytes_read > 0

    def test_missing_key_is_a_miss(self, tmp_path):
        store = ColumnStore(tmp_path)
        assert store.load_index(index_key("fp", "nope")) is None
        assert store.stats().index_misses == 1

    def test_corrupt_blob_discarded_and_counted(self, tmp_path):
        store = ColumnStore(tmp_path)
        key = index_key("fp", "tok")
        assert store.save_index(key, {"a": ("x",)})
        path = store._path("indexes", key)
        path.write_bytes(b"\x80\x05garbage-truncated")
        assert store.load_index(key) is None
        assert not path.exists()  # dropped so a rebuild can replace it
        stats = store.stats()
        assert stats.index_invalid == 1
        assert stats.index_misses == 1

    def test_index_keys_separate_sources_and_blockers(self):
        assert index_key("fp1", "tok") != index_key("fp2", "tok")
        assert index_key("fp1", "tok") != index_key("fp1", "snb")

    def test_describe_and_clear_cover_indexes(self, tmp_path):
        store = ColumnStore(tmp_path)
        store.save(column_key("fp", "op"), np.zeros(4))
        store.save_index(index_key("fp", "tok"), {"a": ("x",)})
        info = store.describe()
        assert info["columns"] == 1
        assert info["indexes"] == 1
        assert info["entries"] == 2
        assert store.clear() == 2
        assert store.describe()["entries"] == 0

    def test_gc_evicts_cold_indexes(self, tmp_path):
        store = ColumnStore(tmp_path)
        store.save_index(index_key("fp", "cold"), {"a": ("x",)})
        old = store._path("indexes", index_key("fp", "cold"))
        stale = 10 * 86400
        os.utime(old, (old.stat().st_atime - stale, old.stat().st_mtime - stale))
        store.save_index(index_key("fp", "hot"), {"b": ("y",)})
        result = store.gc(max_age_days=1.0)
        assert result.removed == 1
        assert store.load_index(index_key("fp", "hot")) is not None

    def test_stats_delta_covers_index_counters(self, tmp_path):
        store = ColumnStore(tmp_path)
        baseline = store.stats()
        store.save_index(index_key("fp", "tok"), {"a": ("x",)})
        store.load_index(index_key("fp", "tok"))
        delta = counters.delta(store.stats(), baseline)
        assert (delta.index_writes, delta.index_hits) == (1, 1)

    def test_unreadable_directory_degrades_to_cold(self, tmp_path):
        store = ColumnStore(tmp_path / "missing")
        with mock.patch("tempfile.mkstemp", side_effect=OSError("full")):
            assert not store.save_index(index_key("fp", "tok"), {"a": ()})
        assert store.load_index(index_key("fp", "tok")) is None

    def test_unpicklable_payload_is_skipped(self, tmp_path):
        store = ColumnStore(tmp_path)
        assert not store.save_index(index_key("fp", "bad"), lambda: None)
        assert store.stats().index_writes == 0


class TestProbeLedgerTier:
    @pytest.mark.parametrize(
        "blob",
        [b"\x80\x05garbage-truncated", pickle.dumps(["not", "a", "dict"])],
        ids=["garbage", "non-dict"],
    )
    def test_corrupt_ledger_discarded_and_counted(self, tmp_path, blob):
        store = ColumnStore(tmp_path)
        assert store.save_probe_ledger("p" * 64, {"f" * 64: (3, 5)})
        [path] = tmp_path.glob("probes-v1/*/*.pkl")
        path.write_bytes(blob)
        assert store.load_probe_ledger("p" * 64) is None
        assert not path.exists()  # dropped so a rebuild can replace it
        stats = store.stats()
        assert stats.probe_invalid == 1 and stats.io_faults == 0
        # Hits and misses are per entity, reported by the caller.
        assert (stats.probe_hits, stats.probe_misses) == (0, 0)


class TestConcurrentWriters:
    def test_racing_threads_leave_a_valid_blob(self, tmp_path):
        store = ColumnStore(tmp_path)
        column = np.linspace(0.0, 1.0, 257)
        key = column_key("fp", "op")
        errors: list[BaseException] = []

        def writer():
            try:
                for _ in range(25):
                    assert store.save(key, column)
                    loaded = store.load(key, 257)
                    if loaded is not None:
                        np.testing.assert_array_equal(loaded, column)
            except BaseException as error:  # pragma: no cover - fails test
                errors.append(error)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.stats().invalid == 0
        np.testing.assert_array_equal(store.load(key, 257), column)

    def test_delta_writers_gc_and_readers_agree_per_epoch(self, tmp_path):
        """Racing apply_delta writers, gc eviction and warm readers
        never observe a mixed-epoch index.

        Epoch fingerprints are deterministic functions of the parent
        fingerprint and the delta content, so independent replays of
        the same delta script land on the same chain. One thread
        advances its replay epoch by epoch, building (and patching)
        indexes into a shared store; reader threads hold frozen
        replays pinned at every intermediate epoch and keep resolving
        their index through the same store while a gc thread evicts
        everything it can. Every resolved index — fresh build, store
        hit, or lineage patch, with files vanishing underneath — must
        equal the cold reference for exactly that epoch.
        """
        from repro.matching.blocking import TokenBlocker

        blocker = TokenBlocker(["name"])
        base = [
            Entity(f"e{i}", {"name": f"alpha{i % 4} beta{i % 3}"})
            for i in range(24)
        ]
        script = [
            (
                [
                    Entity(f"e{step}", {"name": f"gamma{step} beta{step % 3}"}),
                    Entity(f"n{step}", {"name": f"alpha{step % 4} delta{step}"}),
                ],
                [f"e{20 - step}"],
            )
            for step in range(4)
        ]

        def replay(steps: int) -> DataSource:
            source = DataSource("S", [Entity(e.uid, dict(e.properties)) for e in base])
            for upserts, deletes in script[:steps]:
                source.apply_delta(
                    [Entity(e.uid, dict(e.properties)) for e in upserts],
                    deletes,
                )
            return source

        # Cold references per epoch: store-less builds over one replay.
        expected = {}
        for steps in range(len(script) + 1):
            source = replay(steps)
            expected[source.fingerprint()] = blocker.build_index(
                source, session=EngineSession()
            )
        assert len(expected) == len(script) + 1  # all epochs distinct

        store = ColumnStore(tmp_path)
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer():
            try:
                source = replay(0)
                for steps, (upserts, deletes) in enumerate(script, start=1):
                    source.apply_delta(
                        [Entity(e.uid, dict(e.properties)) for e in upserts],
                        deletes,
                    )
                    for _ in range(5):
                        index = blocker.build_index(
                            source, session=EngineSession(store=store)
                        )
                        assert index == expected[source.fingerprint()], steps
            except BaseException as error:  # pragma: no cover - fails test
                errors.append(error)
            finally:
                stop.set()

        def reader(steps: int):
            source = replay(steps)
            fingerprint = source.fingerprint()
            try:
                while not stop.is_set():
                    index = blocker.build_index(
                        source, session=EngineSession(store=store)
                    )
                    assert index == expected[fingerprint], steps
            except BaseException as error:  # pragma: no cover - fails test
                errors.append(error)

        def collector():
            try:
                while not stop.is_set():
                    store.gc(max_age_days=0.0)
            except BaseException as error:  # pragma: no cover - fails test
                errors.append(error)

        threads = [threading.Thread(target=writer)]
        threads += [
            threading.Thread(target=reader, args=(steps,))
            for steps in range(len(script) + 1)
        ]
        threads.append(threading.Thread(target=collector))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_separate_processes_share_one_store(self, tmp_path):
        """A store another process wrote is fully warm here: service
        worker fleets share one cache dir this way."""
        cache_dir = str(tmp_path / "store")
        links_path = str(tmp_path / "cold.links")
        child = multiprocessing.get_context("spawn").Process(
            target=_cold_execute_in_child, args=(cache_dir, links_path)
        )
        child.start()
        child.join(timeout=120)
        if child.is_alive():
            child.terminate()
        assert child.exitcode == 0
        with open(links_path, "rb") as handle:
            cold_links = pickle.load(handle)

        warm_links, warm_stats = _execute_serially(cache_dir)
        assert warm_links == cold_links
        assert warm_stats.store.misses == 0
        assert warm_stats.store.hits == warm_stats.store.lookups > 0


class TestPerRunStats:
    def test_shared_session_runs_report_deltas(self, tmp_path):
        dataset_pairs = _pairs(12)
        rule = LinkageRule(_comparison())
        source_a = DataSource("A", [a for a, _ in dataset_pairs])
        source_b = DataSource("B", [b for _, b in dataset_pairs])
        session = EngineSession(store=str(tmp_path))
        engine = MatchingEngine(
            blocker=FullIndexBlocker(), batch_size=64, session=session
        )
        engine.execute(rule, source_a, source_b)
        cold = engine.last_run_stats()
        assert cold.store.misses > 0 and cold.values.misses > 0

        engine.execute(rule, source_a, source_b)
        warm = engine.last_run_stats()
        # Second run on the same session: store hits short-circuit the
        # whole distance pass (no value transformations run at all),
        # and the counters are this run's only — not the cold run's
        # misses folded in.
        assert warm.values.misses == 0
        assert warm.store.hits > 0
        assert warm.store.misses == 0 and warm.store.writes == 0


def _dataset_rule(name: str) -> LinkageRule:
    """A hand-built multi-comparison rule over the dataset's schema
    (learning is not under test here — column persistence is)."""
    if name == "restaurant":
        children = (
            _comparison("levenshtein", 2.0, "name"),
            _comparison("jaro", 0.4, "address"),
            ComparisonNode(
                "equality", 0.0, PropertyNode("city"), PropertyNode("city")
            ),
        )
    else:  # cora
        children = (
            _comparison("levenshtein", 3.0, "title"),
            _comparison("jaro", 0.4, "author"),
            ComparisonNode(
                "equality", 0.0, PropertyNode("date"), PropertyNode("date")
            ),
        )
    return LinkageRule(AggregationNode("wmean", children))


class TestWarmRerun:
    """The PR's acceptance bar: a warm rerun over restaurant/cora is
    byte-identical and skips >= 90% of distance-column builds."""

    @pytest.mark.parametrize("name", ["restaurant", "cora"])
    def test_warm_rerun_byte_identical_and_skips_builds(self, tmp_path, name):
        dataset = load_dataset(name, seed=0, scale=0.06)
        rule = _dataset_rule(name)

        def run():
            engine = MatchingEngine(
                blocker=FullIndexBlocker(),
                batch_size=512,
                cache_dir=str(tmp_path),
            )
            try:
                links = engine.execute(rule, dataset.source_a, dataset.source_b)
            finally:
                engine.close()
            return links, engine.last_run_stats()

        cold_links, cold_stats = run()
        assert cold_stats.store is not None
        assert cold_stats.store.hits == 0
        assert cold_stats.store.writes == cold_stats.store.misses > 0

        warm_links, warm_stats = run()
        # Byte-identical: GeneratedLink equality compares the float
        # scores exactly, and order is part of the contract.
        assert warm_links == cold_links
        store = warm_stats.store
        assert store.lookups == cold_stats.store.lookups
        # Every store miss is a distance-column build; the rerun must
        # skip >= 90% of them (it actually skips all of them).
        assert store.hits / store.lookups >= 0.9
        assert store.misses == 0

    def test_warm_rerun_stats_distinguish_tiers(self, tmp_path):
        dataset = load_dataset("restaurant", seed=0, scale=0.06)
        engine = MatchingEngine(
            blocker=FullIndexBlocker(), batch_size=512, cache_dir=str(tmp_path)
        )
        try:
            engine.execute(_dataset_rule("restaurant"), dataset.source_a,
                           dataset.source_b)
        finally:
            engine.close()
        stats = engine.last_run_stats()
        # All four tiers reported separately (the old API folded
        # everything into one value-cache snapshot).
        assert stats.values is not None and stats.values.lookups > 0
        assert stats.columns is not None and stats.columns.capacity > 0
        assert stats.scores is not None and stats.scores.misses > 0
        assert stats.store is not None and stats.store.writes > 0
