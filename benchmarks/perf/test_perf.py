"""Tests of the benchmark's own logic; no workload is run."""

from __future__ import annotations

import json
import re
import statistics
import sys
import threading
from pathlib import Path

import pytest

from . import __main__ as driver
from . import layers, runner
from .runner import END_TO_END
from .speed import PROBE_SECONDS, Measurement, measured
from .summary import percentile, quartiles, spread, tail_percentile, verdict
from .tracer import Target, Tracer, _defining_classes
from .workloads import all_workloads

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


# -- percentiles and verdicts ------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [
        (9, None),
        (20, (50.0, 10.5)),  # p75 of 20 samples has only 5 beyond it
        (48, (75.0, 36.25)),
        (100, (90.0, 90.1)),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    values = [float(v) for v in range(count, 0, -1)]
    assert tail_percentile(values) == expected
    if expected is not None:
        p, value = expected
        assert sum(v > value for v in values) >= 10
        assert percentile(values, p) == value


def test_quartiles_follow_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    q1, median, q3 = quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert spread(values) == (q3 - q1) / median
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([1.0, 1.01, 0.99], [1.3, 1.31, 1.29], "lower", "worse"),
        ([1.0, 1.01, 0.99], [0.8, 0.81, 0.79], "lower", "better"),
        ([1.0, 1.01, 0.99], [1.05, 1.06, 1.04], "lower", "unchanged"),
        ([1.0, 1.01, 0.99], [0.7, 0.71, 0.69], "higher", "worse"),
        ([1.0, 1.01, 0.99], [1.3, 1.31, 1.29], "higher", "better"),
        # Parent spread above the bound: unresolved unless every change
        # run beats every parent run.
        ([1.0, 2.0, 3.0], [1.5, 2.5, 3.5], "lower", "unresolved"),
        ([1.0, 2.0, 3.0], [0.1, 0.2, 0.3], "lower", "better"),
        ([1.0, 2.0, 3.0], [9.0, 9.5, 9.9], "lower", "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert verdict(parent, change, better, bound=0.1) == expected


def _result(seconds: float, values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    entry = {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}
    return {
        "provenance": {"seconds": seconds},
        "workloads": {"learn-cora": {"metrics": {
            metric: dict(entry, unit=unit) for metric, unit in END_TO_END
        }}},
    }


def test_compare_exits_on_worse_and_refuses_other_run_lengths(tmp_path):
    def compare(parent, change):
        files = []
        for name, result in (("a.json", parent), ("b.json", change)):
            files.append(tmp_path / name)
            files[-1].write_text(json.dumps(result), encoding="utf-8")
        return driver.main(["compare", *map(str, files)])

    assert compare(_result(15, [1.0, 1.01, 0.99]), _result(15, [1.0, 1.02, 0.98])) == 0
    assert compare(_result(15, [1.0, 1.01, 0.99]), _result(15, [2.0, 2.01, 1.99])) == 1
    assert compare(_result(15, [1.0, 1.01, 0.99]), _result(10, [1.0, 1.01, 0.99])) == 2


# -- host-speed normalisation --------------------------------------------------
def test_cpu_seconds_scale_to_reference_speed_and_waiting_does_not():
    # The probe ran at half the reference speed.
    measurement = Measurement(wall=2.0, cpu=1.5, probes=[2 * PROBE_SECONDS] * 4)
    assert measurement.speed == 0.5
    assert measurement.at_reference_speed() == 0.5 + 1.5 * 0.5
    # A latency shorter than the CPU time counts as CPU time only.
    assert measurement.at_reference_speed(1.0) == 0.5


def test_measured_brackets_the_body_with_probes():
    with measured() as measurement:
        sum(range(10_000))
    assert len(measurement.probes) == 4
    assert measurement.wall > 0 and measurement.speed > 0


def test_import_is_normalised_by_probes_taken_in_the_child():
    measurement = runner.import_measurement()
    assert len(measurement.probes) == 4
    assert 0 < measurement.wall < 60 and measurement.speed > 0


# -- BENCHMARK.json ------------------------------------------------------------
@pytest.fixture(scope="module")
def spec():
    text = BENCHMARK.read_text(encoding="utf-8")
    assert len(text.encode()) <= 64 * 1024
    return json.loads(text)


def test_benchmark_json_schema(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    command = spec["command"]
    assert 1 <= len(command) <= 32
    for part in command:
        assert isinstance(part, str) and len(part) <= 200
        assert not part.startswith("/") and ".." not in part.split("/")
    paths = spec["paths"]
    assert 1 <= len(paths) <= 16
    for path in paths:
        assert PATH.fullmatch(path) and not path.startswith("/") and ".." not in path
        assert (BENCHMARK.parent / path).is_dir()
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60

    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))

    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_benchmark_json_matches_the_code(spec):
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.LAYER_METRICS
    ]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in all_workloads().items()
    }


def test_every_move_names_a_metric_and_workload(spec):
    metrics = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for metric in layers.LAYER_METRICS:
        for moved, workload in metric.moves:
            assert moved in metrics, metric.name
            assert workload in workloads, metric.name


def test_distance_measures_are_the_registry():
    from repro.distances.registry import default_registry

    assert list(layers.DISTANCE_MEASURES) == default_registry().names()


# -- tracer --------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    root = tracer.enter("op")
    clock.now += 1
    outer = tracer.enter("a")
    clock.now += 2
    inner = tracer.enter("b")
    clock.now += 3
    tracer.exit(inner)
    clock.now += 1
    tracer.exit(outer)
    sibling = tracer.enter("b")
    clock.now += 4
    tracer.exit(sibling)
    clock.now += 0.5
    tracer.exit(root)

    # op lasts 11.5 with children a (6) and b (4); a lasts 6 with child b (3).
    assert tracer.self_times() == {"op": 1.5, "a": 3.0, "b": 7.0}
    assert tracer.calls() == {"op": 1, "a": 1, "b": 2}
    spans = {(name, start): (span_id, parent) for span_id, parent, name, _, start, _ in tracer.spans}
    op_id, op_parent = spans[("op", 0.0)]
    a_id, a_parent = spans[("a", 1.0)]
    assert op_parent == 0 and a_parent == op_id
    assert spans[("b", 3.0)][1] == a_id
    assert spans[("b", 7.0)][1] == op_id


def test_self_time_is_per_thread():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    root = tracer.enter("op")

    def worker():
        frame = tracer.enter("w")
        clock.now += 5
        tracer.exit(frame)

    thread = threading.Thread(target=worker, name="worker")
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    clock.now += 1
    tracer.exit(root)
    # The worker's span runs inside op's interval but on another
    # thread, so it is not op's child.
    assert tracer.self_times() == {"op": 6.0, "w": 5.0}
    threads = {name: thread for _, _, name, thread, _, _ in tracer.spans}
    assert threads["w"] == "worker"


def test_span_cap_counts_dropped_spans():
    tracer = Tracer(max_spans=2)
    for _ in range(5):
        tracer.exit(tracer.enter("x"))
    assert len(tracer.spans) == 2 and tracer.dropped == 3
    assert tracer.calls() == {"x": 5}


class Stepper:
    def step(self, amount):
        if amount < 0:
            raise ValueError("negative")
        return amount * 2


class FastStepper(Stepper):
    def step(self, amount):
        return super().step(amount) + 1


def test_wrappers_record_only_while_active_and_restore():
    original = Stepper.__dict__["step"], FastStepper.__dict__["step"]
    tracer = Tracer()
    target = Target(
        f"{__name__}:Stepper.step",
        lambda stepper: f"step.{type(stepper).__name__}",
        lambda args, kwargs, result: (("amount", args[1]),),
    )
    assert set(_defining_classes(Stepper, "step")) == {Stepper, FastStepper}
    tracer.install([target])
    try:
        assert Stepper().step(2) == 4  # inactive: passes through
        assert tracer.calls() == {}
        tracer.active = True
        # The override and the base method it calls are both wrapped.
        assert FastStepper().step(3) == 7
        with pytest.raises(ValueError):
            Stepper().step(-1)
        assert tracer.calls() == {"step.FastStepper": 2, "step.Stepper": 1}
        assert tracer.counters() == {"amount": 6}
    finally:
        tracer.uninstall()
    assert (Stepper.__dict__["step"], FastStepper.__dict__["step"]) == original


def _bindings(target: Target) -> dict:
    """Every place the target's callable is bound, with the object."""
    import importlib

    module_name, _, attr_path = target.path.partition(":")
    module = importlib.import_module(module_name)
    owner, _, attr = attr_path.rpartition(".")
    if owner:
        return {
            (klass, attr): klass.__dict__[attr]
            for klass in _defining_classes(getattr(module, owner), attr)
        }
    original = getattr(module, attr)
    return {
        (bound, key): value
        for bound in list(sys.modules.values())
        if getattr(bound, "__name__", "").startswith("repro")
        for key, value in list(vars(bound).items())
        if value is original
    }


def test_uninstalling_restores_every_original_callable():
    targets = layers.targets()
    tracer = Tracer()
    for target in targets:  # import every traced module first
        _bindings(target)
    before = {}
    for target in targets:
        before.update(_bindings(target))
    try:
        tracer.install(targets)
        import repro.core.compatible
        import repro.core.genlink

        assert repro.core.genlink.find_compatible_properties.__traced__
        assert repro.core.compatible.parse_date.__traced__
        changed = sum(
            getattr(owner, attr) is not value for (owner, attr), value in before.items()
        )
        assert changed == len(before)
    finally:
        tracer.uninstall()
    for (owner, attr), value in before.items():
        assert getattr(owner, attr) is value, (owner, attr)


def test_layer_values_per_operation_and_ratios():
    tracer = Tracer()
    frame = tracer.enter(layers.OP_SPAN)
    tracer.exit(frame)
    layers.record_run_stats(tracer, {
        "values": {"hits": 3, "misses": 1},
        "columns": {"hits": 0, "misses": 0},
        "store": None,
        "kernel_routing": [["levenshtein", 10, 4]],
        "pairs": 100,
    })
    values = layers.layer_values(tracer, operations=2)
    assert set(values) == {m.name for m in layers.LAYER_METRICS}
    assert values["engine.value_hit_ratio"] == 0.75
    assert values["engine.column_hit_ratio"] == 0.0
    assert values["engine.fallback_pairs"] == 2.0
    assert values["matching.pairs"] == 50.0
    assert values["unattributed.s"] == tracer.self_times()[layers.OP_SPAN] / 2
