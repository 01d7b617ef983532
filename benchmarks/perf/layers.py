"""The program's layers as the traced run sees them.

:func:`targets` lists the public callables the tracer wraps and the
span each one records; :data:`LAYER_METRICS` lists the per-layer
metrics computed from those spans and from the engine statistics the
workloads hand to :func:`record_run_stats`, each with the end-to-end
metric and workload it should move (``moves``). Times and counts are
per measured operation; ratios are over the whole traced run.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from .tracer import Target, Tracer

#: Span name of the benchmark's own root span around each operation;
#: its self time is the time no layer span accounts for.
OP_SPAN = "op"

#: Every built-in distance measure (the registry's names).
DISTANCE_MEASURES = (
    "date", "dice", "equality", "geographic", "jaccard", "jaro",
    "jaroWinkler", "levenshtein", "mongeElkan", "normalizedLevenshtein",
    "numeric", "overlap", "qgrams", "relativeNumeric", "softJaccard",
)


def targets() -> list[Target]:
    """The traced callables, with fresh per-run hook state."""
    submitted: dict[str, float] = {}

    def distance_pairs(args, kwargs, result):
        return ((f"distances.{args[0].name}.pairs", len(args[1])),)

    def job_write(args, kwargs, result):
        return (("service.jobstore.writes", 1),)

    def queue_submit(args, kwargs, result):
        submitted[args[1]] = time.perf_counter()
        return ()

    def queue_claim(args, kwargs, result):
        if result is None or result.job_id not in submitted:
            return ()
        wait = time.perf_counter() - submitted.pop(result.job_id)
        return (("service.queue_wait.s", wait),)

    def session_closed(args, kwargs, result):
        session = args[0]
        diffs = session.generation_diffs()
        compiled = sum(diff.comparison_ops for diff in diffs)
        new = sum(diff.new_comparison_ops for diff in diffs)
        return run_stats_counters(dataclasses.asdict(session.stats())) + [
            ("engine.comparison_ops", compiled),
            ("engine.comparison_ops_reused", compiled - new),
        ]

    spans = [
        ("repro.core.compatible:find_compatible_properties", "core.seeding"),
        ("repro.core.generation:RandomRuleGenerator.population", "core.generation"),
        ("repro.core.generation:RandomRuleGenerator.random_rule", "core.generation"),
        ("repro.core.crossover:CrossoverOperator.apply", "core.crossover"),
        ("repro.core.selection:TournamentSelector.select", "core.selection"),
        ("repro.core.fitness:FitnessFunction.prime_population", "core.fitness"),
        ("repro.core.fitness:FitnessFunction.confusion", "core.fitness"),
        ("repro.engine.compiler:RuleCompiler.compile", "engine.compile"),
        ("repro.engine.compiler:RuleCompiler.compile_population", "engine.compile"),
        ("repro.engine.session:EngineSession.context", "engine.context"),
        ("repro.engine.columns:PairStore.value_column", "engine.value_column"),
        ("repro.engine.columns:PairStore.distance_column", "engine.distance_column"),
        ("repro.engine.kernels:aggregate_scores", "engine.aggregate"),
        ("repro.engine.kernels:threshold_scores", "engine.threshold"),
        ("repro.distances.dates:parse_date", "distances.parse_date"),
        ("repro.transforms.base:Transformation.__call__", "transforms"),
        ("repro.engine.session:EngineSession.blocking_index", "matching.index"),
        ("repro.matching.blocking:Blocker.probe_batch", "matching.probe"),
        ("repro.matching.blocking:Blocker.affected_probe_uids", "matching.affected"),
        ("repro.data.source:DataSource.fingerprint", "data.fingerprint"),
        ("repro.engine.store:pairs_fingerprint", "data.fingerprint"),
        ("repro.datasets.registry:load_dataset", "datasets.generate"),
        ("repro.service.service:LinkageService.submit", "service.submit"),
        ("repro.service.service:LinkageService.wait", "service.poll"),
        ("repro.service.jobs:JobStore.create", "service.jobstore"),
        ("repro.service.jobs:JobStore.get", "service.jobstore"),
        ("repro.service.jobs:JobStore.transition", "service.jobstore"),
        ("repro.service.jobs:JobStore.heartbeat", "service.jobstore"),
        ("repro.service.jobs:JobStore.load_links", "service.jobstore"),
        ("repro.service.queue:FileQueue.ack", "service.queue"),
        ("repro.service.queue:FileQueue.release", "service.queue"),
        ("repro.service.queue:FileQueue.depth", "service.queue"),
        ("repro.service.queue:FileQueue.claimed", "service.queue"),
        ("repro.service.worker:JobRunner.run", "service.run"),
        ("repro.service.worker:recover_stale", "service.reaper"),
        ("repro.registry.store:RuleRegistry.resolve", "registry.resolve"),
        ("repro.registry.migrate:check_rule", "registry.check"),
    ]
    store = "repro.engine.store:ColumnStore."
    spans += [(store + method, "store.read") for method in (
        "load", "load_index", "load_probe_ledger", "load_epoch")]
    spans += [(store + method, "store.write") for method in (
        "save", "save_index", "save_probe_ledger", "save_epoch")]
    return [Target(path, name) for path, name in spans] + [
        Target(
            "repro.distances.base:DistanceMeasure.evaluate_column",
            lambda measure: f"distances.{measure.name}",
            distance_pairs,
        ),
        Target("repro.service.jobs:JobStore.save", "service.jobstore", job_write),
        Target("repro.service.jobs:JobStore.save_links", "service.jobstore", job_write),
        Target("repro.service.queue:FileQueue.submit", "service.queue", queue_submit),
        Target("repro.service.queue:FileQueue.claim", "service.queue", queue_claim),
        Target("repro.engine.session:EngineSession.close", None, session_closed),
        Target("repro.matching.blocking:Blocker.iter_shards",
               "matching.shards", iterator=True),
        Target("repro.matching.blocking:Blocker.iter_affected_shards",
               "matching.shards", iterator=True),
    ]


def run_stats_counters(stats: dict | None) -> list[tuple[str, float]]:
    """Counters from one run's engine statistics.

    ``stats`` is :class:`~repro.matching.engine.MatchStats` or
    :class:`~repro.engine.session.EngineStats` as a dict (the shape job
    records store), so every workload reports through one path.
    """
    if not stats:
        return []
    counters: list[tuple[str, float]] = []
    for tier in ("value", "column"):
        cache = stats.get(f"{tier}s") or {}
        hits = cache.get("hits", 0)
        counters += [
            (f"engine.{tier}_hits", hits),
            (f"engine.{tier}_lookups", hits + cache.get("misses", 0)),
        ]
    store = stats.get("store") or {}
    counters += [
        ("store.hits", store.get("hits", 0)),
        ("store.lookups", store.get("hits", 0) + store.get("misses", 0)),
        ("store.index_hits", store.get("index_hits", 0)),
        ("store.index_lookups",
         store.get("index_hits", 0) + store.get("index_misses", 0)),
        ("store.bytes",
         store.get("bytes_read", 0) + store.get("bytes_written", 0)),
        ("engine.fallback_pairs",
         sum(fallback for _, _, fallback in stats.get("kernel_routing", ()))),
        ("matching.pairs", stats.get("pairs", 0)),
        ("matching.index_builds", stats.get("index_builds", 0)),
        ("matching.index_patches", stats.get("index_patches", 0)),
    ]
    return counters


def record_run_stats(tracer: Tracer, stats: dict | None) -> None:
    for counter, amount in run_stats_counters(stats):
        tracer.count(counter, amount)


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric: ``source`` is ``("self", span)``,
    ``("calls", span)``, ``("counter", counter)`` (all per operation)
    or ``("ratio", numerator, denominator)`` over the run."""

    name: str
    unit: str
    better: str
    source: tuple[str, ...]
    #: (end-to-end metric, workload) pairs this metric should move.
    moves: tuple[tuple[str, str], ...] = ()


def _time(span: str, *moves: tuple[str, str]) -> LayerMetric:
    return LayerMetric(f"{span}.s", "s", "lower", ("self", span), moves)


def _calls(span: str, *moves: tuple[str, str]) -> LayerMetric:
    return LayerMetric(f"{span}.calls", "count", "lower", ("calls", span), moves)


def _count(counter: str, better: str, *moves: tuple[str, str]) -> LayerMetric:
    return LayerMetric(counter, "count", better, ("counter", counter), moves)


def _ratio(name: str, numerator: str, denominator: str, *moves) -> LayerMetric:
    return LayerMetric(name, "ratio", "higher", ("ratio", numerator, denominator), moves)


CORA = ("op_p50_s", "learn-cora")
DBPEDIA = ("op_p50_s", "learn-dbpedia")
MATCH = ("op_p50_s", "match-nyt")
DELTA = ("op_p50_s", "delta-nyt")
#: service-mix latency is mostly the worker's poll wait: of the layers
#: that move it, only ``service.queue_wait.s`` can move it past its
#: bound alone (README, "What service-mix can resolve").
SERVICE = ("op_p50_s", "service-mix")
SERVICE_MEAN = ("op_mean_s", "service-mix")
SETUP = ("setup_s", "match-nyt")

#: Measures the nyt rule uses; the learners explore every measure.
_MATCH_MEASURES = ("jaccard", "geographic")

LAYER_METRICS: tuple[LayerMetric, ...] = (
    _time("core.seeding", DBPEDIA),
    _calls("core.seeding", DBPEDIA),
    _time("core.generation", CORA),
    _time("core.crossover", CORA),
    _calls("core.crossover", CORA),
    _time("core.selection", CORA),
    _time("core.fitness", CORA),
    _time("engine.compile", CORA),
    _time("engine.distance_column", CORA),
    _calls("engine.distance_column", CORA),
    _time("engine.value_column", CORA),
    _ratio("engine.comparison_reuse", "engine.comparison_ops_reused",
           "engine.comparison_ops", CORA),
    _count("engine.fallback_pairs", "lower", CORA),
    _time("engine.context", MATCH),
    _time("engine.aggregate", MATCH),
    _time("engine.threshold", MATCH),
    _ratio("engine.value_hit_ratio", "engine.value_hits", "engine.value_lookups", CORA),
    _ratio("engine.column_hit_ratio", "engine.column_hits", "engine.column_lookups", CORA),
    *(
        metric
        for measure in DISTANCE_MEASURES
        for moves in [(MATCH, DELTA) if measure in _MATCH_MEASURES else (CORA,)]
        for metric in (
            _time(f"distances.{measure}", *moves),
            _count(f"distances.{measure}.pairs", "lower", *moves),
        )
    ),
    _time("distances.parse_date", CORA, DBPEDIA),
    _calls("distances.parse_date", CORA, DBPEDIA),
    _time("transforms", CORA, MATCH),
    _calls("transforms", CORA, MATCH),
    _time("matching.index", MATCH),
    _time("matching.probe", MATCH),
    _time("matching.shards", MATCH, DELTA),
    _count("matching.pairs", "lower", MATCH),
    _time("matching.affected", DELTA),
    _count("matching.index_patches", "higher", DELTA),
    _count("matching.index_builds", "lower", DELTA),
    _count("matching.rescored_pairs", "lower", DELTA),
    _ratio("matching.kept_ratio", "matching.kept_links", "matching.diff_links", DELTA),
    _time("store.read", DELTA, SERVICE),
    _ratio("store.hit_ratio", "store.hits", "store.lookups", DELTA, SERVICE),
    _ratio("store.index_hit_ratio", "store.index_hits", "store.index_lookups", DELTA),
    _time("store.write", MATCH),
    _count("store.bytes", "lower", MATCH),
    _time("data.fingerprint", MATCH, DELTA),
    _time("datasets.generate", SERVICE, SETUP),
    _time("service.submit", SERVICE),
    _time("service.jobstore", SERVICE),
    _count("service.jobstore.writes", "lower", SERVICE),
    _time("service.queue", SERVICE),
    LayerMetric("service.queue_wait.s", "s", "lower",
                ("counter", "service.queue_wait.s"), (SERVICE,)),
    _time("service.run", SERVICE),
    _time("service.reaper", SERVICE_MEAN),
    _time("service.poll"),
    _time("registry.resolve", SERVICE),
    _time("registry.check", SERVICE),
    LayerMetric("unattributed.s", "s", "lower", ("self", OP_SPAN)),
)


def layer_values(tracer: Tracer, operations: int) -> dict[str, float]:
    """Every per-layer metric of a traced run of ``operations`` ops."""
    times = tracer.self_times()
    calls = tracer.calls()
    counters = tracer.counters()
    ops = max(1, operations)
    values: dict[str, float] = {}
    for metric in LAYER_METRICS:
        kind, *keys = metric.source
        if kind == "self":
            values[metric.name] = times.get(keys[0], 0.0) / ops
        elif kind == "calls":
            values[metric.name] = calls.get(keys[0], 0) / ops
        elif kind == "counter":
            values[metric.name] = counters.get(keys[0], 0) / ops
        else:
            denominator = counters.get(keys[1], 0)
            values[metric.name] = (
                counters.get(keys[0], 0) / denominator if denominator else 0.0
            )
    return values
