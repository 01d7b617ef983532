"""Supporting micro-benchmarks: distance throughput, batch rule
evaluation, the compiled engine's population-level speedup, and
blocking efficiency.

Most are classic pytest-benchmark timings (multiple rounds);
``test_population_fitness_speedup`` is a ratio assertion comparing the
engine against the frozen seed evaluator (``_seed_evaluator.py``) on
the workload the GP loop actually runs every generation.
"""

import os
import random
import time

import numpy as np

# Plain import (no `benchmarks.` prefix) so the file collects under
# both `python -m pytest` from the repo root and `pytest benchmarks/`
# (pytest puts this directory on sys.path via conftest.py).
from _seed_evaluator import SeedPairEvaluator
from _seed_blocking import SeedTokenBlocker, seed_token_index
from _seed_compatible import seed_find_compatible_properties

from repro.core.compatible import find_compatible_properties
from repro.core.evaluation import PairEvaluator
from repro.core.fitness import confusion_counts
from repro.core.nodes import (
    AggregationNode,
    ComparisonNode,
    PropertyNode,
    TransformationNode,
)
from repro.core.rule import LinkageRule
from repro.data.entity import Entity
from repro.datasets import DATASET_NAMES, load_dataset
from repro.distances.dates import parse_date
from repro.distances.numeric import parse_number
from repro.distances.levenshtein import levenshtein
from repro.distances.jaro import jaro_winkler_similarity
from repro.engine import EngineSession
from repro.matching.blocking import FullIndexBlocker, TokenBlocker


def test_levenshtein_banded_throughput(benchmark):
    rng = random.Random(0)
    words = ["".join(rng.choice("abcdefghij") for _ in range(12)) for _ in range(200)]

    def run():
        total = 0.0
        for i in range(0, len(words) - 1):
            total += levenshtein(words[i], words[i + 1], bound=3)
        return total

    benchmark(run)


def test_jaro_winkler_throughput(benchmark):
    rng = random.Random(0)
    words = ["".join(rng.choice("abcdefghij") for _ in range(12)) for _ in range(200)]

    def run():
        total = 0.0
        for i in range(0, len(words) - 1):
            total += jaro_winkler_similarity(words[i], words[i + 1])
        return total

    benchmark(run)


def _rule() -> LinkageRule:
    return LinkageRule(
        AggregationNode(
            "max",
            (
                ComparisonNode(
                    "levenshtein",
                    2.0,
                    TransformationNode("lowerCase", (PropertyNode("name"),)),
                    TransformationNode("lowerCase", (PropertyNode("name"),)),
                ),
                ComparisonNode(
                    "jaccard",
                    0.7,
                    TransformationNode("tokenize", (PropertyNode("name"),)),
                    TransformationNode("tokenize", (PropertyNode("name"),)),
                ),
            ),
        )
    )


def test_pair_evaluator_cold_cache(benchmark):
    rng = random.Random(1)
    pairs = [
        (
            Entity(f"a{i}", {"name": f"entity number {rng.randint(0, 50)}"}),
            Entity(f"b{i}", {"name": f"entity number {rng.randint(0, 50)}"}),
        )
        for i in range(500)
    ]
    rule = _rule()

    def run():
        evaluator = PairEvaluator(pairs)
        return evaluator.scores(rule.root).sum()

    benchmark(run)


def test_pair_evaluator_warm_cache(benchmark):
    rng = random.Random(1)
    pairs = [
        (
            Entity(f"a{i}", {"name": f"entity number {rng.randint(0, 50)}"}),
            Entity(f"b{i}", {"name": f"entity number {rng.randint(0, 50)}"}),
        )
        for i in range(500)
    ]
    rule = _rule()
    evaluator = PairEvaluator(pairs)
    evaluator.scores(rule.root)

    def run():
        return evaluator.scores(rule.root).sum()

    benchmark(run)


def _gp_population(rng: random.Random, size: int) -> list[LinkageRule]:
    """A population shaped like a mid-run GP generation: rules share
    (metric, source, target) genetic material via crossover but carry
    individually mutated thresholds and weights."""
    genes = (
        (
            "levenshtein",
            (0.5, 3.0),
            TransformationNode("lowerCase", (PropertyNode("name"),)),
            TransformationNode("lowerCase", (PropertyNode("name"),)),
        ),
        (
            "jaccard",
            (0.3, 0.9),
            TransformationNode("tokenize", (PropertyNode("name"),)),
            TransformationNode("tokenize", (PropertyNode("name"),)),
        ),
        (
            "jaroWinkler",
            (0.1, 0.4),
            TransformationNode("lowerCase", (PropertyNode("city"),)),
            TransformationNode("lowerCase", (PropertyNode("city"),)),
        ),
        (
            "numeric",
            (1.0, 10.0),
            PropertyNode("year"),
            PropertyNode("year"),
        ),
    )

    def random_comparison():
        metric, (low, high), source, target = genes[rng.randrange(len(genes))]
        return ComparisonNode(
            metric,
            round(rng.uniform(low, high), 3),
            source,
            target,
            weight=rng.randint(1, 4),
        )

    population = []
    for _ in range(size):
        comparisons = tuple(
            random_comparison() for _ in range(rng.randint(1, 3))
        )
        if len(comparisons) == 1:
            population.append(LinkageRule(comparisons[0]))
        else:
            function = rng.choice(("min", "max", "wmean"))
            population.append(
                LinkageRule(AggregationNode(function, comparisons))
            )
    return population


def _fitness_pairs(rng: random.Random, count: int):
    pairs = []
    labels = []
    for i in range(count):
        match = rng.random() < 0.3
        name = f"restaurant {rng.randint(0, 80)} on main"
        other = name if match else f"diner {rng.randint(0, 80)} off side"
        pairs.append(
            (
                Entity(
                    f"a{i}",
                    {
                        "name": name,
                        "city": rng.choice(("Berlin", "Hamburg", "Munich")),
                        "year": str(1980 + rng.randint(0, 40)),
                    },
                ),
                Entity(
                    f"b{i}",
                    {
                        "name": other,
                        "city": rng.choice(("berlin", "hamburg", "munich")),
                        "year": str(1980 + rng.randint(0, 40)),
                    },
                ),
            )
        )
        labels.append(match)
    return pairs, labels


def test_population_fitness_speedup():
    """Population-level fitness evaluation through the compiled engine
    must be at least 3x faster than the seed per-pair evaluator path.

    The seed caches score vectors per (metric, threshold, source,
    target), so the threshold mutations the GP applies every generation
    force full per-pair re-evaluation; the engine shares one distance
    column per (metric, source, target) and re-thresholds it as a numpy
    expression.
    """
    rng = random.Random(7)
    pairs, labels = _fitness_pairs(rng, 400)
    population = _gp_population(rng, 60)

    def fitness_of(scores_fn):
        return [
            confusion_counts(scores_fn(rule.root) >= 0.5, labels).mcc()
            for rule in population
        ]

    seed_evaluator = SeedPairEvaluator(pairs)
    start = time.perf_counter()
    seed_fitness = fitness_of(seed_evaluator.scores)
    seed_seconds = time.perf_counter() - start

    context = EngineSession().context(pairs)
    start = time.perf_counter()
    context.population_scores([rule.root for rule in population])
    engine_fitness = fitness_of(context.scores)
    engine_seconds = time.perf_counter() - start

    assert seed_fitness == engine_fitness  # bit-identical scores
    speedup = seed_seconds / engine_seconds
    print(
        f"\npopulation fitness: seed {seed_seconds * 1000:.1f} ms, "
        f"engine {engine_seconds * 1000:.1f} ms, speedup {speedup:.1f}x"
    )
    if os.environ.get("CI"):
        # Shared CI runners make ms-scale wall-clock ratios flaky; the
        # smoke run keeps the bit-identity assertion above and reports
        # the ratio without gating the build on it.
        return
    assert speedup >= 3.0, (
        f"engine speedup {speedup:.2f}x below the required 3x "
        f"(seed {seed_seconds:.3f}s vs engine {engine_seconds:.3f}s)"
    )


def _distance_columns(rng: random.Random, count: int, kind: str):
    """Per-pair value-set columns shaped like engine workloads: few
    unique entities (shared tuple objects) fanned out over many pairs."""
    if kind == "numeric":
        unique = [(f"{rng.uniform(0, 500):.2f}",) for _ in range(200)]
    elif kind == "date":
        unique = [
            (f"{rng.randint(1950, 2020)}-{rng.randint(1, 12):02d}-"
             f"{rng.randint(1, 28):02d}",)
            for _ in range(200)
        ]
    else:
        raise ValueError(kind)
    columns_a = [unique[rng.randrange(len(unique))] for _ in range(count)]
    columns_b = [unique[rng.randrange(len(unique))] for _ in range(count)]
    return columns_a, columns_b


def test_batch_kernel_speedup():
    """`evaluate_column` must be at least 2x faster than the per-pair
    loop on numeric and date columns, while staying bit-identical to
    the live `evaluate` loop. The loops run the frozen unmemoised
    parsers (``_seed_compatible.seed_numeric_distance`` and
    ``seed_date_distance``), so the gate measures the kernel against
    per-pair parsing rather than against a loop served by the same
    process memo."""
    from _seed_compatible import seed_date_distance, seed_numeric_distance

    from repro.distances.registry import default_registry

    registry = default_registry()
    rng = random.Random(13)

    def cold_best_of_3(fn):
        # Every trial starts from cold parser memos, so the gate
        # measures the kernel rather than parses an earlier trial left
        # behind.
        best = float("inf")
        for _ in range(3):
            parse_date.cache_clear()
            parse_number.cache_clear()
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        return result, best

    pair_loops = {"numeric": seed_numeric_distance, "date": seed_date_distance}
    for kind, pair_loop in pair_loops.items():
        measure = registry.get(kind)
        columns_a, columns_b = _distance_columns(rng, 4000, kind)

        loop, loop_seconds = cold_best_of_3(lambda: [
            pair_loop(a, b) for a, b in zip(columns_a, columns_b)
        ])
        batch, batch_seconds = cold_best_of_3(
            lambda: measure.evaluate_column(columns_a, columns_b)
        )

        assert loop == [
            measure.evaluate(a, b) for a, b in zip(columns_a, columns_b)
        ]
        assert batch.tolist() == loop  # bit-identical distances
        speedup = loop_seconds / batch_seconds
        print(
            f"\n{kind} batch kernel: loop {loop_seconds * 1000:.1f} ms, "
            f"batch {batch_seconds * 1000:.1f} ms, speedup {speedup:.1f}x"
        )
        if os.environ.get("CI"):
            # Same policy as the population benchmark: shared runners
            # make wall-clock ratios flaky; CI keeps the bit-identity
            # assertion and reports the ratio.
            continue
        assert speedup >= 2.0, (
            f"{kind} batch kernel speedup {speedup:.2f}x below the "
            f"required 2x (loop {loop_seconds:.3f}s vs batch "
            f"{batch_seconds:.3f}s)"
        )


def test_seeding_speedup():
    """Algorithm 2 seeding over per-entity profiles must be at least 3x
    faster than the frozen per-pair detectors
    (``_seed_compatible.py``), which re-parse every value of one
    property once per property of the other entity, and must rank the
    same pairs. The live leg starts from cold date and number memos."""
    dataset = load_dataset("dbpedia_drugbank", seed=0, scale=0.06)
    links = list(dataset.links.positive)

    def run(find):
        return find(
            dataset.source_a, dataset.source_b, links,
            max_links=20, rng=random.Random(3),
        )

    start = time.perf_counter()
    seed_pairs = run(seed_find_compatible_properties)
    seed_seconds = time.perf_counter() - start

    parse_date.cache_clear()
    parse_number.cache_clear()
    start = time.perf_counter()
    live_pairs = run(find_compatible_properties)
    live_seconds = time.perf_counter() - start

    assert live_pairs == seed_pairs
    speedup = seed_seconds / live_seconds
    print(
        f"\nseeding (20 links): seed {seed_seconds * 1000:.1f} ms, "
        f"profiles {live_seconds * 1000:.1f} ms, speedup {speedup:.1f}x"
    )
    if os.environ.get("CI"):
        # Same policy as the other ratio benchmarks: shared runners
        # make wall-clock ratios flaky; CI keeps the parity assertion
        # and reports the ratio.
        return
    assert speedup >= 3.0, (
        f"seeding speedup {speedup:.2f}x below the required 3x "
        f"(seed {seed_seconds:.3f}s vs profiles {live_seconds:.3f}s)"
    )


def _string_columns(rng: random.Random, count: int, kind: str):
    """String columns shaped like engine workloads: unique value tuples
    (one object per entity) fanned out over many pairs, with enough
    near-duplicates to exercise match windows and the levenshtein band."""
    alphabet = "abcdefghijklmnop"

    def word() -> str:
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(8, 14)))

    def mutate(w: str) -> str:
        chars = list(w)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(chars))
            chars[pos] = rng.choice(alphabet)
        return "".join(chars)

    if kind == "tokens":
        vocabulary = [word() for _ in range(60)]
        unique = [
            tuple(rng.sample(vocabulary, rng.randint(3, 8))) for _ in range(400)
        ]
    else:
        base = [word() for _ in range(200)]
        unique = [
            (mutate(rng.choice(base)) if rng.random() < 0.5 else word(),)
            for _ in range(400)
        ]
    columns_a = [unique[rng.randrange(len(unique))] for _ in range(count)]
    columns_b = [unique[rng.randrange(len(unique))] for _ in range(count)]
    return columns_a, columns_b


def test_string_kernel_speedup():
    """The vectorized string kernels must be at least 2x faster than the
    frozen per-pair fallback (``_seed_string_kernels.py``) for each
    measure family — levenshtein, jaro and jaccard/token — while staying
    bit-identical to the live scalar oracle. The frozen levenshtein kept
    the seed's loose out-of-range contract, so bit-identity is asserted
    against the live ``evaluate`` loop; the frozen path is timing-only.
    """
    from _seed_string_kernels import (
        seed_jaccard_column,
        seed_jaro_winkler_column,
        seed_levenshtein_column,
    )
    from repro.distances.registry import default_registry

    registry = default_registry()
    rng = random.Random(29)
    workloads = (
        ("levenshtein", "words", 6000, seed_levenshtein_column),
        ("jaroWinkler", "words", 20000, seed_jaro_winkler_column),
        ("jaccard", "tokens", 20000, seed_jaccard_column),
    )
    def best_of(trials, fn):
        times = []
        for _ in range(trials):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    for name, kind, count, seed_column in workloads:
        measure = registry.get(name)
        columns_a, columns_b = _string_columns(rng, count, kind)

        seed_seconds = best_of(3, lambda: seed_column(columns_a, columns_b))
        batch_seconds = best_of(
            3, lambda: measure.evaluate_column(columns_a, columns_b)
        )
        batch = measure.evaluate_column(columns_a, columns_b)

        # Bit-identical to the live per-pair oracle (the contract every
        # backend honours), checked over a deterministic row sample to
        # keep the oracle loop out of the timed region.
        sample = range(0, count, 7)
        expected = [
            measure.evaluate(columns_a[i], columns_b[i]) for i in sample
        ]
        assert [batch[i] for i in sample] == expected

        speedup = seed_seconds / batch_seconds
        print(
            f"\n{name} string kernel: seed {seed_seconds * 1000:.1f} ms, "
            f"batch {batch_seconds * 1000:.1f} ms, speedup {speedup:.1f}x"
        )
        if os.environ.get("CI"):
            # Same policy as the other ratio gates: shared runners make
            # wall-clock ratios flaky; CI keeps the bit-identity
            # assertion and reports the ratio.
            continue
        assert speedup >= 2.0, (
            f"{name} string kernel speedup {speedup:.2f}x below the "
            f"required 2x (seed {seed_seconds:.3f}s vs batch "
            f"{batch_seconds:.3f}s)"
        )


def _levenshtein_pool(rng: random.Random, low: int, high: int):
    """300 distinct strings of ``low``-``high`` characters built from a
    word vocabulary, half of them one to three typos away from another,
    plus 3000 distinct index pairs over them: the shape of one distance
    column's kernel call."""
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    vocabulary = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 9)))
        for _ in range(400)
    ]

    def text() -> str:
        words = []
        while len(" ".join(words)) < low:
            words.append(rng.choice(vocabulary))
        return " ".join(words)[:high]

    def typo(value: str) -> str:
        chars = list(value)
        for _ in range(rng.randint(1, 3)):
            chars[rng.randrange(len(chars))] = rng.choice(alphabet)
        return "".join(chars)

    strings: list[str] = []
    while len(strings) < 300:
        value = typo(rng.choice(strings)) if strings and rng.random() < 0.5 else text()
        if value not in strings:
            strings.append(value)
    pairs = sorted(
        {(rng.randrange(300), rng.randrange(300)) for _ in range(3200)}
    )[:3000]
    index_a = np.array([a for a, _ in pairs], dtype=np.int64)
    index_b = np.array([b for _, b in pairs], dtype=np.int64)
    return strings, index_a, index_b


def test_levenshtein_kernel_speedup():
    """The lane-packed bit-vector levenshtein kernel must be at least 2x
    faster than the numpy row-DP kernel it replaced (frozen as
    ``_seed_string_kernels.seed_levenshtein_pairs``) on cora-title-shaped
    strings (60-120 characters) and on short words, both at the
    measure's bound 11, and bit-identical to the scalar ``levenshtein``.
    """
    from _seed_string_kernels import seed_levenshtein_pairs

    from repro.distances.strings import levenshtein_pairs

    rng = random.Random(37)
    bound = 11

    def best_of_3(fn):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        return result, best

    for shape, low, high in (("cora titles", 60, 120), ("short words", 8, 14)):
        strings, index_a, index_b = _levenshtein_pool(rng, low, high)
        frozen, frozen_seconds = best_of_3(
            lambda: seed_levenshtein_pairs(strings, index_a, index_b, bound)
        )
        lanes, lanes_seconds = best_of_3(
            lambda: levenshtein_pairs(strings, index_a, index_b, bound)
        )
        expected = [
            levenshtein(strings[a], strings[b], bound=bound)
            for a, b in zip(index_a.tolist(), index_b.tolist())
        ]
        assert lanes.tolist() == expected  # bit-identical to the scalar
        assert frozen.tolist() == expected
        assert min(expected) <= bound  # some pairs are near
        speedup = frozen_seconds / lanes_seconds
        print(
            f"\nlevenshtein kernel on {shape}: row-DP "
            f"{frozen_seconds * 1000:.1f} ms, lanes {lanes_seconds * 1000:.1f} ms, "
            f"speedup {speedup:.1f}x"
        )
        if os.environ.get("CI"):
            # Same policy as the other ratio gates: shared runners make
            # wall-clock ratios flaky; CI keeps the bit-identity
            # assertion and reports the ratio.
            continue
        assert speedup >= 2.0, (
            f"levenshtein kernel speedup on {shape} {speedup:.2f}x below the "
            f"required 2x (row-DP {frozen_seconds:.3f}s vs lanes "
            f"{lanes_seconds:.3f}s)"
        )


def _multivalued_columns(rng: random.Random, count: int):
    """Cora-shaped multi-valued columns: author lists of 2-5 names per
    side (one tuple object per entity, fanned out over many pairs),
    with typo'd name variants so the levenshtein band and the jaro
    windows see near matches."""
    alphabet = "abcdefghijklmnop"
    surnames = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(5, 10)))
        for _ in range(150)
    ]

    def author() -> str:
        name = f"{rng.choice(alphabet)}. {rng.choice(surnames)}"
        if rng.random() < 0.3:
            pos = rng.randrange(len(name))
            name = name[:pos] + rng.choice(alphabet) + name[pos + 1 :]
        return name

    unique = [
        tuple(author() for _ in range(rng.randint(2, 5))) for _ in range(300)
    ]
    columns_a = [unique[rng.randrange(len(unique))] for _ in range(count)]
    columns_b = [unique[rng.randrange(len(unique))] for _ in range(count)]
    return columns_a, columns_b


def test_multivalued_kernel_speedup():
    """Multi-valued rows run through the same vectorized kernels as
    singletons (``pairwise_min_column`` expands each distinct
    combination into its value pairs): on cora-shaped author lists the
    levenshtein and jaroWinkler columns must be bit-identical to the
    scalar ``evaluate`` loop and at least 2x faster than it."""
    from repro.distances.registry import default_registry

    registry = default_registry()
    rng = random.Random(31)

    def best_of_3(fn):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        return result, best

    for name in ("levenshtein", "jaroWinkler"):
        measure = registry.get(name)
        columns_a, columns_b = _multivalued_columns(rng, 2000)
        loop, loop_seconds = best_of_3(lambda: [
            measure.evaluate(a, b) for a, b in zip(columns_a, columns_b)
        ])
        batch, batch_seconds = best_of_3(
            lambda: measure.evaluate_column(columns_a, columns_b)
        )
        assert batch.tolist() == loop  # bit-identical distances
        speedup = loop_seconds / batch_seconds
        print(
            f"\n{name} multi-valued column: loop {loop_seconds * 1000:.1f} ms, "
            f"batch {batch_seconds * 1000:.1f} ms, speedup {speedup:.1f}x"
        )
        if os.environ.get("CI"):
            # Same policy as the other ratio gates: shared runners make
            # wall-clock ratios flaky; CI keeps the bit-identity
            # assertion and reports the ratio.
            continue
        assert speedup >= 2.0, (
            f"{name} multi-valued column speedup {speedup:.2f}x below the "
            f"required 2x (loop {loop_seconds:.3f}s vs batch "
            f"{batch_seconds:.3f}s)"
        )


def test_persistent_store_warm_rerun():
    """The persistent column store must let a warm rerun skip >= 90% of
    distance-column builds (it skips all of them: every store lookup
    hits) with bit-identical scores; the wall-clock ratio is reported
    but not asserted — mmap loads vs recompute depends on the metric
    mix and the disk."""
    import tempfile

    rng = random.Random(7)
    pairs, _labels = _fitness_pairs(rng, 400)
    population = _gp_population(rng, 60)
    roots = [rule.root for rule in population]

    with tempfile.TemporaryDirectory() as cache_dir:
        cold_session = EngineSession(store=cache_dir)
        start = time.perf_counter()
        cold_vectors = cold_session.context(pairs).population_scores(roots)
        cold_seconds = time.perf_counter() - start
        cold_store = cold_session.stats().store
        assert cold_store.writes == cold_store.misses > 0

        warm_session = EngineSession(store=cache_dir)
        start = time.perf_counter()
        warm_vectors = warm_session.context(pairs).population_scores(roots)
        warm_seconds = time.perf_counter() - start
        warm_store = warm_session.stats().store

    for cold, warm in zip(cold_vectors, warm_vectors):
        assert cold.tobytes() == warm.tobytes()
    assert warm_store.lookups == cold_store.lookups
    assert warm_store.hits / warm_store.lookups >= 0.9
    print(
        f"\npersistent store: cold {cold_seconds * 1000:.1f} ms "
        f"({cold_store.writes} columns built), warm "
        f"{warm_seconds * 1000:.1f} ms ({warm_store.hits} loaded, "
        f"{warm_store.misses} rebuilt), speedup "
        f"{cold_seconds / warm_seconds:.1f}x"
    )


def test_engine_population_eval(benchmark):
    """pytest-benchmark timing of the engine population path alone."""
    rng = random.Random(7)
    pairs, _labels = _fitness_pairs(rng, 400)
    population = _gp_population(rng, 60)
    roots = [rule.root for rule in population]

    def run():
        context = EngineSession().context(pairs)
        return sum(vector.sum() for vector in context.population_scores(roots))

    benchmark(run)


def test_blocking_index_speedup():
    """Blocking-index construction must be at least 2x faster than the
    frozen per-entity seed baseline on a bundled dataset, measured over
    the profile the engine actually runs — a workload with repeated
    executions (learning then matching, re-executed rules, quality
    reports), where the seed rebuilt its index on every call while the
    new subsystem builds once (bulk-tokenised in C) and serves the
    rest from the session index memo. The candidate sets must be
    identical — the speedup never buys a different result."""
    dataset = load_dataset("cora", seed=4, scale=0.5)
    source_a, source_b = dataset.source_a, dataset.source_b
    properties = source_b.property_names()

    seed_pairs = {
        (a.uid, b.uid)
        for a, b in SeedTokenBlocker(properties).candidates(source_a, source_b)
    }
    new_pairs = {
        (a.uid, b.uid)
        for a, b in TokenBlocker(properties).candidates(source_a, source_b)
    }
    assert new_pairs == seed_pairs  # identical candidate sets

    runs = 2  # one learning pass + one matching pass, the minimum

    def best_of(trials, fn):
        best = float("inf")
        for _ in range(trials):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    def seed_workload():
        for _ in range(runs):
            seed_token_index(source_b, properties)

    def engine_workload():
        session = EngineSession()
        blocker = TokenBlocker(properties)
        for _ in range(runs):
            blocker.build_index(source_b, session=session)

    # Best-of-3 on both sides: the ratio is what matters and a single
    # noisy trial (GC pause, turbo transition) should not gate it.
    seed_seconds = best_of(3, seed_workload)
    engine_seconds = best_of(3, engine_workload)

    speedup = seed_seconds / engine_seconds
    print(
        f"\nblocking index ({runs}-run workload): seed "
        f"{seed_seconds * 1000:.1f} ms, engine "
        f"{engine_seconds * 1000:.1f} ms, speedup {speedup:.1f}x"
    )
    if os.environ.get("CI"):
        # Same policy as the other ratio benchmarks: shared runners
        # make wall-clock ratios flaky; CI keeps the candidate-set
        # parity assertion and reports the ratio.
        return
    assert speedup >= 2.0, (
        f"blocking-index speedup {speedup:.2f}x below the required 2x "
        f"(seed {seed_seconds:.3f}s vs engine {engine_seconds:.3f}s)"
    )


def test_blocking_persistent_index_warm_rerun():
    """A warm rerun over unchanged sources must skip >= 90% of blocking
    index builds: every index the cold run persisted loads from the
    store's index tier (reported per run in ``MatchStats.store``), and
    the generated links are byte-identical."""
    import tempfile

    from repro.matching.engine import MatchingEngine

    dataset = load_dataset("restaurant", seed=4, scale=0.25)
    rule = _rule()

    with tempfile.TemporaryDirectory() as cache_dir:

        def run():
            engine = MatchingEngine(cache_dir=cache_dir)
            try:
                links = engine.execute(
                    rule, dataset.source_a, dataset.source_b
                )
            finally:
                engine.close()
            return links, engine.last_run_stats().store

        cold_links, cold_store = run()
        assert cold_store.index_misses > 0
        assert cold_store.index_writes == cold_store.index_misses

        warm_links, warm_store = run()

    assert warm_links == cold_links
    assert warm_store.index_lookups == cold_store.index_lookups
    assert warm_store.index_hit_rate >= 0.9  # skips >= 90% of builds
    assert warm_store.index_misses == 0  # in fact: all of them
    print(
        f"\npersistent index tier: cold built {cold_store.index_writes} "
        f"index(es), warm loaded {warm_store.index_hits}, rebuilt "
        f"{warm_store.index_misses}"
    )


def _probe_rule(source_a, source_b):
    """A two-comparison rule over the sources' leading properties —
    both comparisons indexable, so MultiBlock always engages."""
    props_a = source_a.property_names()
    props_b = source_b.property_names()
    second_a = props_a[1] if len(props_a) > 1 else props_a[0]
    second_b = props_b[1] if len(props_b) > 1 else props_b[0]
    return LinkageRule(
        AggregationNode(
            "max",
            (
                ComparisonNode(
                    "jaccard",
                    0.5,
                    TransformationNode("tokenize", (PropertyNode(props_a[0]),)),
                    TransformationNode("tokenize", (PropertyNode(props_b[0]),)),
                ),
                ComparisonNode(
                    "equality",
                    0.0,
                    TransformationNode("lowerCase", (PropertyNode(second_a),)),
                    TransformationNode("lowerCase", (PropertyNode(second_b),)),
                ),
            ),
        )
    )


class _FrozenCandidates(FullIndexBlocker):
    """Replays a fixed candidate-pair list (the frozen-probe reference
    path for link-parity checks)."""

    def __init__(self, pairs):
        self._pairs = list(pairs)

    def candidates(self, source_a, source_b):
        return iter(self._pairs)


def test_blocking_probe_speedup():
    """Batch probing must beat the frozen per-entity probe loops by
    >=2x on the engine's repeated-execution profile, and must never
    buy a different result: candidate sets and generated links stay
    byte-identical across all six bundled datasets x blockers
    {multiblock, token} x workers {0, 2}.

    The timed workload is the probe side proper — per-entity partner
    computation over prebuilt indexes, two sweeps (one learning + one
    matching pass, the minimum), including the batch path's one-off
    code-view derivation — because pair materialisation downstream of
    probing is shared by both implementations. Links are compared via
    ``MatchingEngine.execute`` (deterministically sorted), with the
    reference engine replaying the frozen probes' candidate pairs.
    """
    from _seed_blocking import (
        SeedValueMemo,
        seed_multiblock_probe,
        seed_multiblock_probe_kernel,
        seed_token_probe,
        seed_token_probe_kernel,
    )

    from repro.experiments.scale import current_scale
    from repro.engine.executor import ThreadExecutor
    from repro.matching.blocking import _PROBE_CHUNK
    from repro.matching.engine import MatchingEngine
    from repro.matching.multiblock import MultiBlocker

    # ---- speedup: 2-run probe workload over the heaviest bundled
    # probe mass (cora at half scale, as in the index-build bench).
    dataset = load_dataset("cora", seed=4, scale=0.5)
    source_a, source_b = dataset.source_a, dataset.source_b
    entities = source_a.entities()
    props = source_b.property_names()
    rule = _probe_rule(source_a, source_b)

    token_blocker = TokenBlocker(props)
    token_index = token_blocker.build_index(source_b)
    multi = MultiBlocker(rule)
    multi_indexes = multi.build_index(source_b)
    seed_memo = SeedValueMemo()
    all_uids = frozenset(entity.uid for entity in source_b)

    runs = 2  # one learning pass + one matching pass, the minimum

    def seed_workload():
        for _ in range(runs):
            seed_token_probe_kernel(source_a, token_index, props)
            seed_multiblock_probe_kernel(
                rule, source_a, multi_indexes, all_uids, seed_memo
            )

    def batch_workload():
        session = EngineSession()
        for _ in range(runs):
            for blocker in (token_blocker, multi):
                probe_index = blocker.probe_index(
                    source_a, source_b, session=session
                )
                memo: dict = {}
                for start in range(0, len(entities), _PROBE_CHUNK):
                    chunk = entities[start : start + _PROBE_CHUNK]
                    blocker.probe_batch(chunk, probe_index, session, memo=memo)

    # Per-entity probe parity before timing anything: the batch results
    # must be exactly the frozen kernels' candidates.
    token_probe_index = token_blocker.probe_index(source_a, source_b)
    batch_token = token_blocker.probe_batch(entities, token_probe_index)
    for (uid_a, partners), codes in zip(
        seed_token_probe_kernel(source_a, token_index, props), batch_token
    ):
        assert set(partners) == set(
            token_blocker.probe_uids(token_probe_index, codes)
        ), uid_a
    multi_probe_index = multi.probe_index(source_a, source_b)
    batch_multi = multi.probe_batch(entities, multi_probe_index)
    for (uid_a, partners), codes in zip(
        seed_multiblock_probe_kernel(
            rule, source_a, multi_indexes, all_uids, seed_memo
        ),
        batch_multi,
    ):
        assert tuple(partners) == multi.probe_uids(
            multi_probe_index, codes
        ), uid_a

    def best_of(trials, fn):
        best = float("inf")
        for _ in range(trials):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    seed_seconds = best_of(3, seed_workload)
    batch_seconds = best_of(3, batch_workload)
    speedup = seed_seconds / batch_seconds
    print(
        f"\nblocking probe ({runs}-run workload, 2 blockers): seed "
        f"{seed_seconds * 1000:.1f} ms, batch {batch_seconds * 1000:.1f} ms, "
        f"speedup {speedup:.1f}x"
    )

    # ---- parity: candidate sets and links across every bundled
    # dataset, blocker and worker strategy.
    scale = current_scale().effective_dataset_scale(0)
    thread_executor = ThreadExecutor(2)
    try:
        for name in DATASET_NAMES:
            bundle = load_dataset(name, seed=23, scale=scale)
            a, b = bundle.source_a, bundle.source_b
            bundle_rule = _probe_rule(a, b)
            reference_memo = SeedValueMemo()
            multi_reference = MultiBlocker(bundle_rule)

            def seed_pairs_of(label):
                if label == "token":
                    blocker = TokenBlocker(
                        a.property_names(), b.property_names()
                    )
                    return list(
                        seed_token_probe(
                            a, b, blocker.build_index(b), a.property_names()
                        )
                    )
                return list(
                    seed_multiblock_probe(
                        bundle_rule,
                        a,
                        b,
                        multi_reference.build_index(b),
                        reference_memo,
                    )
                )

            makers = {
                "multiblock": lambda: MultiBlocker(bundle_rule),
                "token": lambda: TokenBlocker(
                    a.property_names(), b.property_names()
                ),
            }
            for label, make in makers.items():
                seed_pairs = seed_pairs_of(label)
                seed_set = {(x.uid, y.uid) for x, y in seed_pairs}
                new_set = {(x.uid, y.uid) for x, y in make().candidates(a, b)}
                assert new_set == seed_set, (name, label)

                reference_links = MatchingEngine(
                    blocker=_FrozenCandidates(seed_pairs)
                ).execute(bundle_rule, a, b)
                for workers_label, workers in (("0", 0), ("2", thread_executor)):
                    engine = MatchingEngine(blocker=make(), workers=workers)
                    links = engine.execute(bundle_rule, a, b)
                    assert links == reference_links, (
                        name,
                        label,
                        workers_label,
                    )
    finally:
        thread_executor.close()

    if os.environ.get("CI"):
        # Same policy as the other ratio benchmarks: shared runners
        # make wall-clock ratios flaky; CI keeps the parity assertions
        # and reports the ratio.
        return
    assert speedup >= 2.0, (
        f"blocking probe speedup {speedup:.2f}x below the required 2x "
        f"(seed {seed_seconds:.3f}s vs batch {batch_seconds:.3f}s)"
    )


def test_sharded_scoring_vs_serial():
    """Measured (not asserted): what a 2-thread shard pool buys over
    serial scoring on skewed shards. Scores a workload whose shards
    alternate between cheap (short equal strings) and expensive (long
    distinct strings) serially and with ``workers=2``; links must be
    byte-identical, the wall-clocks are reported for tuning."""
    from repro.data.source import DataSource
    from repro.matching.blocking import FullIndexBlocker
    from repro.matching.engine import MatchingEngine

    rng = random.Random(11)
    entities_a = []
    entities_b = []
    for i in range(120):
        if (i // 20) % 2:
            # Expensive region: long, mostly distinct names.
            name = " ".join(
                "".join(rng.choice("abcdefghij") for _ in range(12))
                for _ in range(6)
            )
            other = name[:-1] + rng.choice("abcdefghij")
        else:
            name = f"item {i % 5}"
            other = name
        entities_a.append(Entity(f"a{i}", {"name": name}))
        entities_b.append(Entity(f"b{i}", {"name": other}))
    source_a = DataSource("A", entities_a)
    source_b = DataSource("B", entities_b)
    rule = _rule()

    timings = {}
    reference = None
    for workers in (0, 2):
        with MatchingEngine(
            blocker=FullIndexBlocker(), batch_size=256, workers=workers
        ) as engine:
            start = time.perf_counter()
            links = engine.execute(rule, source_a, source_b)
            timings[workers] = time.perf_counter() - start
        if reference is None:
            reference = links
        else:
            assert links == reference  # sharding never changes output
    print(
        f"\nshard scoring on skewed shards: serial={timings[0] * 1000:.1f}ms, "
        f"workers=2={timings[2] * 1000:.1f}ms"
    )


def test_token_blocking_vs_full_index(benchmark):
    dataset = load_dataset("restaurant", seed=4, scale=0.5)
    # Small blocks: frequent tokens ("The", "Street") are dropped.
    blocker = TokenBlocker(["name", "address"], max_block_size=40)

    def run():
        return sum(1 for _ in blocker.candidates(dataset.source_a, dataset.source_b))

    candidates = benchmark(run)
    full = FullIndexBlocker().candidate_count(dataset.source_a, dataset.source_b)
    # Blocking prunes the vast majority of the Cartesian product.
    assert candidates < full * 0.25
