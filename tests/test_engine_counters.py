"""Tests for the field-driven statistics arithmetic
(:mod:`repro.engine.counters`): per-run deltas and the counter line,
over each field kind."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.engine import counters
from repro.engine.lru import CacheStats
from repro.engine.session import EngineCounters
from repro.engine.store import StoreStats
from repro.matching.engine import MatchStats

EMPTY = CacheStats(0, 0, 0, 0, 0)
STORE = StoreStats(
    hits=3, misses=1, writes=1, invalid=0, bytes_read=8, bytes_written=4
)


def _engine(**fields) -> EngineCounters:
    return EngineCounters(
        **{"values": EMPTY, "columns": EMPTY, "scores": EMPTY, **fields}
    )


@pytest.mark.parametrize(
    "current, baseline, expected",
    [
        pytest.param(
            CacheStats(5, 2, 1, 7, 10),
            CacheStats(3, 1, 0, 4, 10),
            CacheStats(2, 1, 1, 7, 10),
            id="delta-counters-subtract-gauges-keep-current",
        ),
        pytest.param(
            _engine(
                probe_batches=4,
                kernel_routing=(("jaro", 5, 0), ("levenshtein", 3, 1)),
            ),
            _engine(probe_batches=1, kernel_routing=(("levenshtein", 3, 1),)),
            _engine(probe_batches=3, kernel_routing=(("jaro", 5, 0),)),
            id="delta-keyed-gains-a-name-and-drops-a-zero-row",
        ),
        pytest.param(
            _engine(degraded=("breaker open: EIO", "breaker open: EIO")),
            _engine(degraded=("breaker open: EIO",)),
            _engine(degraded=("breaker open: EIO",)),
            id="delta-log-keeps-entries-past-the-baseline",
        ),
        pytest.param(
            _engine(store=STORE),
            _engine(store=None),
            _engine(store=STORE),
            id="delta-store-against-a-none-baseline",
        ),
        pytest.param(
            STORE,
            None,
            STORE,
            id="delta-without-baseline-is-the-full-history",
        ),
    ],
)
def test_delta_by_field_kind(current, baseline, expected):
    assert counters.delta(current, baseline) == expected


def test_line_reads_a_snapshot_and_its_job_record_alike():
    stats = MatchStats(
        values=EMPTY,
        columns=EMPTY,
        scores=EMPTY,
        store=STORE,
        kernel_routing=(("jaro", 5, 0),),
        degraded=("breaker open: EIO",),
        batches=2,
        pairs=40,
        links=3,
    )
    record = json.loads(json.dumps(dataclasses.asdict(stats)))
    assert counters.line("run", stats) == counters.line("run", record) == (
        "[run] probe_batches=0 probe_memo_hits=0 index_builds=0 "
        "index_patches=0 batches=2 pairs=40 links=3"
    )
    assert counters.line("store", STORE).startswith(
        "[store] hits=3 misses=1 writes=1 invalid=0 bytes_read=8 "
    )
