"""The benchmark's workloads.

Each workload is one kind of user-visible operation, repeated until the
run's time is up. Sizes are pinned here, never read from the
environment. The run seed picks every input: learning operations draw
a fresh dataset and GP seed per operation (``seed * 1000 + index``), so
a run's median covers many learning trajectories instead of one; the
matching workloads generate their dataset once per run.

A workload's life cycle, as :mod:`benchmarks.perf.runner` drives it:
``setup`` (timed, repeated for ``setup_s``), ``warm_up`` (untimed), then
per operation ``before`` (untimed), ``run`` (timed) and ``after``
(untimed), then ``checks`` and ``teardown``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import statistics
import threading
import time
from pathlib import Path

from .layers import record_run_stats

RULES_DIR = Path(__file__).resolve().parent / "rules"

#: Sub-seeds of the operations of one run: ``seed * SUBSEEDS + index``.
SUBSEEDS = 1000

#: nyt at half size: 2810 x 910 entities, ~190k candidate pairs.
NYT_SCALE = 0.5

#: Service jobs: datasets at this scale, cycled in this order; every
#: fourth job is a delta on the latest cora link job.
SERVICE_SCALE = 0.2
SERVICE_CYCLE = ("cora", "restaurant", "linkedmdb", "delta")


def links_digest(links) -> str:
    """sha256 over ``(uid_a, uid_b, score.hex())`` in link order."""
    digest = hashlib.sha256()
    for link in links:
        digest.update(f"{link.uid_a}\t{link.uid_b}\t{float(link.score).hex()}\n".encode())
    return digest.hexdigest()


def link_triples(links) -> list[tuple[str, str, str]]:
    return [(l.uid_a, l.uid_b, float(l.score).hex()) for l in links]


def learning_digest(result) -> str:
    """sha256 over the learning history (without wall-clock seconds,
    floats as hex) plus the best rule's JSON."""
    from repro.core.serialization import rule_to_json

    history = []
    for record in result.history:
        fields = dataclasses.asdict(record)
        fields.pop("seconds")
        history.append(
            {k: v.hex() if isinstance(v, float) else v for k, v in fields.items()}
        )
    payload = json.dumps(history, sort_keys=True) + rule_to_json(result.best_rule)
    return hashlib.sha256(payload.encode()).hexdigest()


class Workload:
    """Base class: every hook is optional except :meth:`run`."""

    name = ""
    why = ""

    def setup(self, seed: int, directory: Path) -> None:
        self.seed = seed

    def teardown(self) -> None:
        pass

    def warm_up(self) -> None:
        pass

    def before(self, index: int) -> None:
        pass

    def run(self, index: int) -> float | None:
        """One measured operation. Returns its latency when the runner's
        wall-clock time of this call is not the latency."""
        raise NotImplementedError

    def after(self, index: int, tracer) -> None:
        pass

    def checks(self) -> list[tuple[str, bool, str]]:
        """``(name, passed, detail)`` for each untimed output check."""
        return []

    def digest(self) -> str:
        """Digest of the first operation's output."""
        raise NotImplementedError

    def quality(self) -> dict:
        return {}


class Learn(Workload):
    """``GenLink.learn`` with the CLI's train/validation split."""

    def __init__(self, name, why, dataset, scale, population, iterations,
                 seeding_links=100):
        self.name = name
        self.why = why
        self.dataset = dataset
        self.scale = scale
        self.config = dict(
            population_size=population,
            max_iterations=iterations,
            max_seeding_links=seeding_links,
        )

    def setup(self, seed, directory):
        from repro.core.genlink import GenLink, GenLinkConfig

        self.seed = seed
        self.learner = GenLink(GenLinkConfig(**self.config), workers=0, cache_dir="")
        self.inputs = self._inputs(0)
        self.first_digest = None
        self.f1: list[float] = []
        self.iterations: list[int] = []

    def _inputs(self, index):
        from repro.data.splits import train_validation_split
        from repro.datasets import load_dataset

        subseed = self.seed * SUBSEEDS + index
        dataset = load_dataset(self.dataset, seed=subseed, scale=self.scale)
        rng = random.Random(subseed)
        train, validation = train_validation_split(dataset.links, rng)
        return index, dataset, train, validation, rng

    def before(self, index):
        if self.inputs[0] != index:
            self.inputs = self._inputs(index)

    def run(self, index):
        _, dataset, train, validation, rng = self.inputs
        self.result = self.learner.learn(
            dataset.source_a, dataset.source_b, train, validation, rng=rng
        )

    def after(self, index, tracer):
        final = self.result.history[-1]
        self.f1.append(final.validation_f_measure)
        self.iterations.append(final.iteration)
        if index == 0:
            self.first_digest = learning_digest(self.result)
        self.result = None

    def checks(self):
        worst = min(self.f1)
        return [("every learned rule has positive validation F1", worst > 0.0,
                 f"lowest validation F1 {worst:.3f}")]

    def digest(self):
        return self.first_digest

    def quality(self):
        return {
            "val_f1": statistics.median(self.f1),
            "iterations": statistics.median(self.iterations),
        }


def _nyt_rule():
    from repro.core.serialization import rule_from_json

    return rule_from_json((RULES_DIR / "nyt.json").read_text(encoding="utf-8"))


class MatchNyt(Workload):
    """Cold ``MatchingEngine.execute`` of the frozen nyt rule, each
    operation into a fresh store directory."""

    name = "match-nyt"
    why = (
        "cold execute of a frozen jaccard+geographic rule over nyt into a "
        "fresh store: blocking, scoring kernels, aggregation and store "
        "writes; GP layers idle"
    )

    def setup(self, seed, directory):
        from repro.datasets import load_dataset

        self.seed = seed
        self.directory = directory
        self.dataset = load_dataset("nyt", seed=seed, scale=NYT_SCALE)
        self.rule = _nyt_rule()
        self.digests: list[str] = []

    def _store(self, index):
        return self.directory / f"store-{index}"

    def before(self, index):
        # The first store stays for the warm re-execute check.
        if index >= 2:
            shutil.rmtree(self._store(index - 1), ignore_errors=True)

    def run(self, index):
        from repro.matching.engine import MatchingEngine

        with MatchingEngine(workers=0, cache_dir=str(self._store(index))) as engine:
            self.links = engine.execute(self.rule, self.dataset.source_a, self.dataset.source_b)
            self.stats = engine.last_run_stats()

    def after(self, index, tracer):
        self.digests.append(links_digest(self.links))
        if index == 0:
            self.first_links = self.links
        if tracer is not None:
            record_run_stats(tracer, dataclasses.asdict(self.stats))

    def checks(self):
        from repro.matching.engine import MatchingEngine

        started = time.perf_counter()
        with MatchingEngine(workers=0, cache_dir=str(self._store(0))) as engine:
            warm = engine.execute(self.rule, self.dataset.source_a, self.dataset.source_b)
            stats = engine.last_run_stats()
        self.warm_seconds = time.perf_counter() - started
        return [
            ("warm re-execute equals the cold links",
             link_triples(warm) == link_triples(self.first_links),
             f"{len(warm)} warm vs {len(self.first_links)} cold links"),
            ("warm re-execute builds no column",
             stats.store is not None and stats.store.misses == 0,
             f"store misses {stats.store.misses if stats.store else None}"),
            ("every cold execute produced the same links",
             len(set(self.digests)) == 1, f"{len(set(self.digests))} distinct"),
        ]

    def digest(self):
        return self.digests[0]

    def quality(self):
        return {"links": len(self.first_links), "warm_execute_s": self.warm_seconds}


class DeltaNyt(Workload):
    """Chained ``MatchingEngine.link_diff`` steps on a warm store, each
    after a ~1% mutation of both nyt sources."""

    name = "delta-nyt"
    why = (
        "incremental link_diff after ~1% mutations of both nyt sources on "
        "a warm store: affected-set probing, index patching and store reads"
    )

    def setup(self, seed, directory):
        from repro.datasets import load_dataset
        from repro.matching.engine import MatchingEngine

        self.seed = seed
        self.dataset = load_dataset("nyt", seed=seed, scale=NYT_SCALE)
        self.rule = _nyt_rule()
        self.engine = MatchingEngine(workers=0, cache_dir=str(directory / "store"))
        self.first_digest = None
        self.full_reruns = 0
        self.steps = 0

    def teardown(self):
        self.engine.close()

    def warm_up(self):
        self.links = self.engine.execute(
            self.rule, self.dataset.source_a, self.dataset.source_b
        )
        self.rng = random.Random(self.seed)

    def before(self, index):
        from repro.matching.incremental import random_source_delta

        # Upserts split evenly into revisions and inserts, so with half
        # as many deletes the sources keep their size.
        self.deltas = []
        for source in (self.dataset.source_a, self.dataset.source_b):
            changes = max(2, len(source) // 100)
            self.deltas.append(random_source_delta(
                source, self.rng, upserts=changes, deletes=changes // 2
            ))

    def run(self, index):
        self.diff = self.engine.link_diff(
            self.rule,
            self.dataset.source_a,
            self.dataset.source_b,
            self.links,
            deltas_a=[self.deltas[0]],
            deltas_b=[self.deltas[1]],
        )

    def after(self, index, tracer):
        diff = self.diff
        self.links = list(diff.links)
        self.steps += 1
        self.full_reruns += diff.affected_uids is None
        if index == 0:
            self.first_digest = links_digest(self.links)
        if tracer is not None:
            record_run_stats(tracer, dataclasses.asdict(diff.stats))
            tracer.count("matching.rescored_pairs", diff.rescored_pairs)
            tracer.count("matching.kept_links", diff.kept_links)
            tracer.count("matching.diff_links", len(diff.links))

    def checks(self):
        from repro.matching.engine import MatchingEngine
        from repro.matching.incremental import rebuilt

        with MatchingEngine(workers=0, cache_dir="") as engine:
            cold = engine.execute(
                self.rule,
                rebuilt(self.dataset.source_a),
                rebuilt(self.dataset.source_b),
            )
        return [
            ("final delta links equal a cold execute over rebuilt sources",
             link_triples(self.links) == link_triples(cold),
             f"{len(self.links)} delta vs {len(cold)} cold links"),
            ("every step took the incremental path", self.full_reruns == 0,
             f"{self.full_reruns} full re-runs"),
        ]

    def digest(self):
        return self.first_digest

    def quality(self):
        return {"links": len(self.links), "steps": self.steps}


def _stoppable_queue(root, stop: threading.Event):
    """A ``FileQueue`` whose ``depth`` reads non-zero until ``stop`` is
    set, so a draining worker keeps polling between the closed-loop
    client's jobs and exits once the client is done."""
    from repro.service.queue import FileQueue

    class StoppableQueue(FileQueue):
        def depth(self) -> int:
            depth = super().depth()
            return depth if stop.is_set() else max(1, depth)

    return StoppableQueue(root)


class ServiceMix(Workload):
    """A closed-loop client against ``LinkageService`` with one
    ``run_worker`` thread on the default file queue.

    Both run with their API defaults, as a deployment would, so a job's
    latency is mostly the worker's poll wait (``poll_interval`` 0.2 s):
    the per-job path (job records, queue, registry, engine) is a few
    tens of milliseconds on top."""

    name = "service-mix"
    why = (
        "closed-loop client and one file-queue worker thread at API "
        "defaults: small warm jobs, so latency is mostly the worker's 0.2 s "
        "poll wait, then job records, registry and engine"
    )

    def setup(self, seed, directory):
        from repro.matching.incremental import dataset_rule
        from repro.service import LinkageService, run_worker

        self.seed = seed
        self.service = LinkageService(directory / "service")
        registry = self.service.registry
        for dataset in SERVICE_CYCLE[:-1]:
            version = registry.publish(f"bench/{dataset}/base", dataset_rule(dataset))
            registry.activate(version.ref)
        self.stop = threading.Event()
        self.worker = threading.Thread(
            target=run_worker,
            args=(str(self.service.root),),
            kwargs=dict(
                queue=_stoppable_queue(self.service.root, self.stop),
                cache_dir=self.service.cache_dir,
                drain=True,
            ),
            name="service-worker",
        )
        self.worker.start()
        self.jobs: list[tuple[str, str]] = []
        self.latest_cora = None

    def teardown(self):
        self.stop.set()
        self.worker.join(timeout=60)
        self.service.close()
        if self.worker.is_alive():
            raise RuntimeError("service worker did not stop")

    def warm_up(self):
        # One untimed cycle computes each dataset's columns and indexes
        # once; measured jobs then see the service's steady state.
        # Negative indices keep its delta seeds apart from measured ones.
        for index in range(-len(SERVICE_CYCLE), 0):
            self.run(index)

    def run(self, index):
        if not self.worker.is_alive():
            raise RuntimeError("service worker died")
        kind = SERVICE_CYCLE[index % len(SERVICE_CYCLE)]
        if kind == "delta" and self.latest_cora is None:
            kind = "cora"
        started = time.time()
        if kind == "delta":
            record = self.service.submit(
                "delta",
                parent=self.latest_cora,
                seed=self.seed * SUBSEEDS + index,
                upserts=2,
                deletes=2,
            )
        else:
            record = self.service.submit(
                "link",
                dataset=kind,
                seed=self.seed,
                scale=SERVICE_SCALE,
                rule=f"bench/{kind}/base@active",
            )
        done = self.service.wait(record.job_id, timeout=30.0)
        if done.state != "succeeded":
            raise RuntimeError(f"job {done.job_id} {done.state}: {done.error}")
        self.done = done
        self.jobs.append((kind, done.job_id))
        if kind == "cora":
            self.latest_cora = done.job_id
        # Completion as the service recorded it; the client's polling
        # back-off after that moment is not job latency.
        return done.updated_at - started

    def after(self, index, tracer):
        if tracer is None:
            return
        record_run_stats(tracer, self.done.stats)
        result = self.done.result or {}
        if "kept_links" in result:
            tracer.count("matching.rescored_pairs", result["rescored_pairs"])
            tracer.count("matching.kept_links", result["kept_links"])
            tracer.count("matching.diff_links", result["links"])

    def checks(self):
        from repro.datasets import load_dataset
        from repro.matching.engine import MatchingEngine
        from repro.matching.incremental import dataset_rule, random_source_delta, rebuilt

        engine = MatchingEngine(workers=0, cache_dir="")
        direct: dict[str, list] = {}
        mismatched = []
        # Replaying a delta costs a cold execute, so only the first and
        # last delta jobs are replayed; every link job is checked.
        deltas = [job for job in self.jobs if job[0] == "delta"]
        checked = [job for job in self.jobs if job[0] != "delta"] + deltas[:1] + deltas[1:][-1:]
        try:
            for kind, job_id in checked:
                record = self.service.status(job_id)
                if kind == "delta":
                    parent = self.service.status(record.spec["parent"]).spec
                    dataset = load_dataset(
                        parent["dataset"], seed=parent["seed"], scale=parent["scale"]
                    )
                    rng = random.Random(record.spec["seed"])
                    source_a, source_b = dataset.source_a, dataset.source_b
                    random_source_delta(source_a, rng, upserts=2, deletes=2)
                    if source_b is not source_a:
                        random_source_delta(source_b, rng, upserts=2, deletes=2)
                    cold_a = rebuilt(source_a)
                    cold_b = cold_a if source_b is source_a else rebuilt(source_b)
                    expected = link_triples(engine.execute(
                        dataset_rule(parent["dataset"]), cold_a, cold_b
                    ))
                else:
                    if kind not in direct:
                        dataset = load_dataset(kind, seed=self.seed, scale=SERVICE_SCALE)
                        direct[kind] = link_triples(engine.execute(
                            dataset_rule(kind), dataset.source_a, dataset.source_b
                        ))
                    expected = direct[kind]
                if link_triples(self.service.links(job_id)) != expected:
                    mismatched.append(job_id)
        finally:
            engine.close()
        return [("service job links equal a direct execute", not mismatched,
                 f"{len(mismatched)} of {len(checked)} checked jobs differ")]

    def digest(self):
        return links_digest(self.service.links(self.jobs[0][1]))

    def quality(self):
        kinds = [kind for kind, _ in self.jobs]
        return {kind: kinds.count(kind) for kind in sorted(set(kinds))}


def all_workloads() -> dict[str, Workload]:
    """Fresh instances of every workload, by name."""
    workloads = [
        Learn(
            "learn-cora",
            "GenLink learning on cora: fitness-bound, time goes to distance "
            "columns (dates, multi-valued levenshtein) and transforms; "
            "seeding is small",
            "cora", scale=0.05, population=30, iterations=8,
        ),
        # Capped at generation 0: most seeds stop there anyway, and the
        # few that evolve further take twice as long, which would make a
        # run's mean depend on which seeds it drew. Five seeding links
        # at scale 0.1 keep an operation under 2 s, so a run holds seven
        # or more, and seeding still takes over four fifths of it.
        Learn(
            "learn-dbpedia",
            "GenLink learning on dbpedia_drugbank capped at generation 0: "
            "seeding-bound (Algorithm 2 date parsing), GP operators idle and "
            "fitness small",
            "dbpedia_drugbank", scale=0.1, population=100, iterations=0,
            seeding_links=5,
        ),
        MatchNyt(),
        DeltaNyt(),
        ServiceMix(),
    ]
    return {workload.name: workload for workload in workloads}
