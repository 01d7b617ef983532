"""Blocking quality: MultiBlock versus the classic blockers.

The paper executes rules through Silk's MultiBlock engine [19], whose
promise is "no lost recall at a large reduction ratio". This bench
measures exactly that trade-off **across all bundled datasets**: pairs
completeness (recall of the candidate set over the positive reference
links) and reduction ratio (fraction of the Cartesian product pruned),
for the full index, token blocking on all properties, and the
rule-aware MultiBlock of :mod:`repro.matching.multiblock`.

It is also the gate behind the engine's blocker default:
``MatchingEngine`` resolves ``blocker=None`` to ``MultiBlocker``
whenever :func:`repro.matching.multiblock.multiblock_supports` accepts
the rule, and this bench asserts that on every dataset where that
happens the MultiBlock execution generates exactly the full-index
links. MultiBlock indexes each comparison only as far as a pair can
still reach the engine's link threshold, so each learned rule is
executed at the link thresholds :data:`_THRESHOLDS`, with a
``MultiBlocker`` built for each, and the links are compared at every
one.
"""

from __future__ import annotations

import random

from repro.core.genlink import GenLink, GenLinkConfig
from repro.data.splits import train_validation_split
from repro.datasets import DATASET_NAMES, load_dataset
from repro.experiments.scale import current_scale
from repro.experiments.tables import format_table
from repro.matching.blocking import FullIndexBlocker, TokenBlocker
from repro.matching.multiblock import (
    MultiBlocker,
    blocking_quality,
    multiblock_supports,
)

from benchmarks._util import emit, strict_assertions

_DATASETS = DATASET_NAMES

#: Engine link thresholds each learned rule is executed at.
_THRESHOLDS = (0.3, 0.5, 0.8)


def _quality_row(name: str, seed: int) -> dict:
    scale = current_scale()
    dataset = load_dataset(
        name, seed=seed, scale=scale.effective_dataset_scale(0)
    )
    rng = random.Random(seed)
    train, __ = train_validation_split(dataset.links, rng)
    config = GenLinkConfig(
        population_size=max(30, scale.population_size // 2),
        max_iterations=max(5, scale.max_iterations // 2),
    )
    result = GenLink(config).learn(
        dataset.source_a, dataset.source_b, train, rng=rng
    )
    rule = result.best_rule

    matches = list(dataset.links.positive)
    blockers = {
        "full": FullIndexBlocker(),
        "token": TokenBlocker(
            dataset.source_a.property_names(),
            dataset.source_b.property_names(),
        ),
        "multiblock": MultiBlocker(rule),
    }
    qualities = {
        label: blocking_quality(
            blocker, dataset.source_a, dataset.source_b, matches
        )
        for label, blocker in blockers.items()
    }

    # MultiBlock's actual claim [19]: executing the rule over the
    # blocked candidates generates exactly the links the full index
    # generates, at every link threshold. (Absolute pairs-completeness
    # against the reference links is reported for context but bounded
    # by the rule itself — positives whose compared properties are
    # missing, or that score below the threshold, are no links under
    # any blocker.)
    from repro.matching.engine import MatchingEngine, default_blocker

    def links(blocker, threshold):
        with MatchingEngine(blocker=blocker, threshold=threshold) as engine:
            generated = engine.execute(rule, dataset.source_a, dataset.source_b)
            return generated, engine.last_run_stats().pairs

    executions = {}
    for threshold in _THRESHOLDS:
        full_links, __ = links(FullIndexBlocker(), threshold)
        multiblock_links, pairs = links(MultiBlocker(rule, threshold), threshold)
        executions[threshold] = (full_links, multiblock_links, pairs)
    return {
        "dataset": name,
        "qualities": qualities,
        "executions": executions,
        "auto_is_multiblock": isinstance(default_blocker(rule), MultiBlocker),
        "supported": multiblock_supports(rule),
    }


def test_multiblock_blocking_quality(benchmark, results_dir):
    rows_data = benchmark.pedantic(
        lambda: [_quality_row(name, seed=23) for name in _DATASETS],
        rounds=1,
        iterations=1,
    )
    rows = []
    for row in rows_data:
        for label, quality in row["qualities"].items():
            rows.append(
                [
                    row["dataset"],
                    label,
                    quality.candidate_pairs,
                    f"{quality.pairs_completeness:.3f}",
                    f"{quality.reduction_ratio:.3f}",
                ]
            )
        for threshold, (full, multi, pairs) in row["executions"].items():
            rows.append(
                [
                    row["dataset"],
                    f"links@{threshold}",
                    pairs,
                    f"{len(multi)} " + ("= full" if multi == full else "LOST"),
                    "",
                ]
            )
    text = format_table(
        ["Dataset", "Blocker", "Candidates", "Completeness", "Reduction"],
        rows,
        title=(
            "Blocking quality (pairs completeness vs reduction ratio; "
            "links@t rows: MultiBlock candidates and links at engine "
            "threshold t)"
        ),
    )
    emit(results_dir, "multiblock", text)
    if not strict_assertions():
        return

    for row in rows_data:
        qualities = row["qualities"]
        # The full index is complete by construction.
        assert qualities["full"].pairs_completeness == 1.0
        # The MultiBlock guarantee: no recall lost relative to the rule,
        # at every link threshold.
        for threshold, (full, multi, __) in row["executions"].items():
            assert multi == full, (row["dataset"], threshold)
        assert (
            qualities["multiblock"].reduction_ratio
            >= qualities["full"].reduction_ratio
        )
        # The default-blocker gate: wherever the structure check
        # accepts a learned rule, auto resolution must pick MultiBlock
        # — and the link-set equality above is exactly what makes that
        # default safe.
        assert row["auto_is_multiblock"] == row["supported"], row["dataset"]
    assert any(
        row["qualities"]["multiblock"].reduction_ratio > 0.5 for row in rows_data
    ), "MultiBlock should prune at least half the Cartesian product somewhere"
    assert any(row["supported"] for row in rows_data), (
        "auto selection should engage MultiBlock on at least one "
        "bundled dataset's learned rule"
    )
