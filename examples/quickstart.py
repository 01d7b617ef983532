"""Quickstart: learn a linkage rule from reference links.

Builds two tiny product catalogues whose labels diverge in letter case
and decoration, hands GenLink a handful of positive/negative reference
links and prints the learned rule plus the links it generates across
the full sources.

Run with::

    python examples/quickstart.py

Link generation scores its candidate shards on a thread pool when you
ask for workers; learning is sequential and runs the same on every
setting. Results are byte-identical either way::

    REPRO_ENGINE_WORKERS=4 python examples/quickstart.py   # thread pool
    repro-experiments --workers 4 learn restaurant --execute

or per call: ``generate_links(..., workers=4)`` (see
``docs/engine.md``).

Point ``REPRO_ENGINE_CACHE`` at a directory and reruns get warm-cache
distance columns — the second invocation loads every column from disk
instead of recomputing it, with byte-identical output::

    REPRO_ENGINE_CACHE=/tmp/engine-cache python examples/quickstart.py
    REPRO_ENGINE_CACHE=/tmp/engine-cache python examples/quickstart.py

    repro-experiments --cache-dir /tmp/engine-cache learn restaurant
    repro-experiments --cache-dir /tmp/engine-cache cache info

or per component: ``GenLink(config, cache_dir=...)``,
``MatchingEngine(cache_dir=...)``. This script reports the run's
counters on stderr (``[engine run] probe_batches=... pairs=...``) and,
when the cache is active, the store's hit/miss counters — distance
columns *and* blocking indexes (``[engine store] hits=...``). Stdout
stays identical across runs, which CI's cache-reuse leg asserts.

Link generation picks its blocking strategy from the learned rule's
structure (MultiBlock where its comparisons support a dismissal-free
index). Force a specific strategy with ``REPRO_ENGINE_BLOCKER`` or the
CLI's ``--blocker`` flag — the generated links are identical, only the
candidate count changes::

    REPRO_ENGINE_BLOCKER=multiblock python examples/quickstart.py
    repro-experiments --blocker multiblock learn restaurant --execute

Every built-in measure but softJaccard and mongeElkan scores whole
columns through a vectorized batch kernel, multi-valued properties
included; links are bit-identical to the per-pair scalar measures.
This script reports the per-measure batch/fallback routing on stderr
(``[engine kernels] levenshtein:batch=...,fallback=0``).
"""

from __future__ import annotations

import random
import sys

from repro import DataSource, Entity, GenLink, GenLinkConfig, ReferenceLinkSet
from repro import render_rule, rule_to_json
from repro.engine import counters
from repro.matching import MatchingEngine, evaluate_links


def build_sources() -> tuple[DataSource, DataSource, list[tuple[str, str]]]:
    """Two catalogues describing the same products differently."""
    products = [
        "iPod Nano", "ThinkPad Carbon", "Galaxy Note", "Kindle Paperwhite",
        "PlayStation Vita", "Lumia Phone", "Nexus Tablet", "Xperia Ultra",
        "MacBook Air", "Surface Book", "Chromebook Pixel", "Aspire One",
    ]
    shop_a = DataSource("shop_a")
    shop_b = DataSource("shop_b")
    matches = []
    for i, name in enumerate(products):
        uid_a, uid_b = f"a:{i}", f"b:{i}"
        # Shop A uses clean names; shop B shouts.
        shop_a.add(Entity(uid_a, {"label": name, "category": "electronics"}))
        shop_b.add(Entity(uid_b, {"name": name.upper()}))
        matches.append((uid_a, uid_b))
    return shop_a, shop_b, matches


def main() -> None:
    shop_a, shop_b, matches = build_sources()

    # Reference links: a few confirmed matches plus cross-paired
    # non-matches (the paper's negative generation scheme).
    rng = random.Random(7)
    train = ReferenceLinkSet(
        positive=matches[:8],
        negative=[(matches[i][0], matches[(i + 3) % 8][1]) for i in range(8)],
    )

    config = GenLinkConfig(population_size=50, max_iterations=15)
    result = GenLink(config).learn(shop_a, shop_b, train, rng=rng)

    print("Learned linkage rule:")
    print(render_rule(result.best_rule))
    print()
    print("Learning curve (training F1 per iteration):")
    for record in result.history:
        print(
            f"  iteration {record.iteration:2d}: "
            f"F1={record.train_f_measure:.3f} "
            f"(fitness {record.best_fitness:+.3f}, "
            f"{record.operator_count} operators)"
        )
    print()

    # Execute the rule over the full sources, including the four
    # products that were never part of the reference links. The default
    # blocker is rule-structure-aware (MultiBlock where the rule's
    # comparisons support it; REPRO_ENGINE_BLOCKER overrides) and
    # generates exactly the links the full index would.
    engine = MatchingEngine()
    try:
        links = engine.execute(result.best_rule, shop_a, shop_b)
    finally:
        engine.close()
    # Run counters go to stderr so stdout stays byte-identical between
    # cold and warm runs.
    match_stats = engine.last_run_stats()
    print(counters.line("engine run", match_stats), file=sys.stderr)
    if match_stats.store is not None:
        # Persistent column store active (REPRO_ENGINE_CACHE). Columns
        # and blocking indexes are separate tiers — a warm run shows
        # hits on both.
        print(counters.line("engine store", match_stats.store), file=sys.stderr)
    if match_stats.kernel_routing:
        # Per-measure kernel routing on stderr (stdout must stay
        # byte-identical across cache states): a measure without a
        # batch kernel shows up here as per-pair fallback pairs.
        routed = " ".join(
            f"{name}:batch={batch},fallback={fallback}"
            for name, batch, fallback in match_stats.kernel_routing
        )
        print(f"[engine kernels] {routed}", file=sys.stderr)
    evaluation = evaluate_links(links, matches)
    print(f"Generated {len(links)} links over the full catalogues:")
    for link in links:
        print(f"  {link.uid_a} <-> {link.uid_b}  (score {link.score:.2f})")
    print(
        f"precision={evaluation.precision:.2f} "
        f"recall={evaluation.recall:.2f} F1={evaluation.f_measure:.2f}"
    )
    print()
    print("Rule as JSON (for storage / transfer):")
    print(rule_to_json(result.best_rule))


if __name__ == "__main__":
    main()
