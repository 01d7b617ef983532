"""One measured run of one workload.

Set-up runs several times and ``setup_s`` reports the median package
import (each in a fresh interpreter) plus the median workload set-up.
Operations then repeat until ``--seconds`` have passed; untraced runs
report the end-to-end metrics, traced runs (``--trace 1``) the
per-layer metrics. Times are at the reference host speed
(:mod:`benchmarks.perf.speed`). Output checks run untimed afterwards,
and a failed operation or check makes the run incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from .layers import LAYER_METRICS, OP_SPAN, layer_values, targets
from .speed import Measurement, measured
from .tracer import Tracer
from .workloads import all_workloads

ROOT = Path(__file__).resolve().parents[2]
BASELINE = Path(__file__).resolve().parent / "baseline.json"

#: End-to-end metrics of every workload: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_mean_s", "s"),
    ("peak_rss_mb", "MB"),
)

SETUP_REPEATS = 5

#: What a user of the package imports before the first call.
IMPORTS = (
    "repro", "repro.core.genlink", "repro.matching.engine",
    "repro.service", "repro.registry", "repro.datasets",
)


def import_measurement() -> Measurement:
    """Importing the package in a fresh interpreter, timed by the child.

    The child also takes the speed probes, right after the imports: the
    host's speed while the child runs is what the import time is
    normalised by, and probes taken in this process would miss it."""
    code = (
        "import time\nwall, cpu = time.perf_counter(), time.process_time()\n"
        + "".join(f"import {module}\n" for module in IMPORTS)
        + "wall, cpu = time.perf_counter() - wall, time.process_time() - cpu\n"
        "from benchmarks.perf.speed import PROBES, probe\n"
        "print(wall, cpu, *[probe() for _ in range(2 * PROBES)])"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    wall, cpu, *probes = map(float, completed.stdout.split())
    return Measurement(wall=wall, cpu=cpu, probes=probes)


def expected_digests() -> dict:
    if not BASELINE.exists():
        return {}
    return json.loads(BASELINE.read_text(encoding="utf-8")).get("expected", {})


def provenance(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def run_once(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scratch: Path,
    spans_path: Path | None = None,
) -> dict:
    """Measure one run; returns the full record (see :func:`main`)."""
    # Loaded here first, every set-up repetition finds the same modules
    # imported; import cost is measured in fresh interpreters instead.
    for module in IMPORTS:
        __import__(module)
    workload = all_workloads()[name]
    imports = [import_measurement() for _ in range(SETUP_REPEATS)]
    setups = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.teardown()
        directory = scratch / f"run-{repeat}"
        directory.mkdir()
        with measured() as measurement:
            workload.setup(seed, directory)
        setups.append(measurement)
    try:
        return _measure(workload, seed, seconds, trace, spans_path, imports, setups)
    finally:
        workload.teardown()


def _measure(workload, seed, seconds, trace, spans_path, imports, setups) -> dict:
    workload.warm_up()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(targets())
    latencies: list[float] = []
    walls: list[float] = []
    speeds: list[float] = []
    errors: list[str] = []
    op_wall = 0.0
    index = 0
    started = time.perf_counter()
    try:
        while index == 0 or time.perf_counter() - started < seconds:
            workload.before(index)
            with measured() as measurement:
                if tracer is not None:
                    tracer.active = True
                    frame = tracer.enter(OP_SPAN)
                try:
                    latency = workload.run(index)
                except Exception:
                    errors.append(traceback.format_exc())
                    latency = None
                    succeeded = False
                else:
                    succeeded = True
                finally:
                    if tracer is not None:
                        tracer.exit(frame)
                        tracer.active = False
            op_wall += measurement.wall
            if succeeded:
                wall = measurement.wall if latency is None else latency
                walls.append(wall)
                speeds.append(measurement.speed)
                latencies.append(measurement.at_reference_speed(wall))
                workload.after(index, tracer)
            index += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    # Read before the checks, which run more engine work of their own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    try:
        checks = workload.checks()
        digest = workload.digest()
        quality = workload.quality()
    except Exception:
        errors.append(traceback.format_exc())
        checks, digest, quality = [("output checks ran", False, "raised")], None, {}
    expected = expected_digests().get(workload.name)
    if seed == 0 and expected is not None:
        checks.append(("seed-0 output digest matches baseline.json",
                       digest == expected, f"{digest} vs {expected}"))
    for error in errors:
        print(error, file=sys.stderr)
    if not latencies:
        raise RuntimeError(f"{workload.name}: no operation succeeded")

    failed = (index - len(latencies)) + sum(not passed for _, passed, _ in checks)
    if tracer is not None:
        units = {metric.name: metric.unit for metric in LAYER_METRICS}
        values = layer_values(tracer, len(latencies))
    else:
        units = dict(END_TO_END)
        values = {
            "setup_s": statistics.median(m.at_reference_speed() for m in imports)
            + statistics.median(m.at_reference_speed() for m in setups),
            "op_p50_s": statistics.median(latencies),
            "op_mean_s": statistics.fmean(latencies),
            "peak_rss_mb": peak_rss_mb,
        }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(tracer),
        "correct": failed == 0,
        "attempted": index + len(checks),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
        "latencies": latencies,
        "wall_latencies": walls,
        "speeds": speeds,
        "import_s": [m.at_reference_speed() for m in imports],
        "prepare_s": [m.at_reference_speed() for m in setups],
        "checks": [
            {"name": name, "passed": passed, "detail": detail}
            for name, passed, detail in checks
        ],
        "digest": digest,
        "quality": quality,
        "provenance": provenance(seed),
    }
    if tracer is not None:
        record["unattributed_share"] = (
            tracer.self_times().get(OP_SPAN, 0.0) / op_wall if op_wall else 0.0
        )
        record["spans"] = {"recorded": len(tracer.spans), "dropped": tracer.dropped}
        if spans_path is not None:
            spans_path.write_text(json.dumps({
                "workload": workload.name,
                "seed": seed,
                "fields": ["id", "parent", "name", "thread", "start", "end"],
                "spans": tracer.spans,
                "dropped": tracer.dropped,
                "self_time": tracer.self_times(),
                "calls": tracer.calls(),
            }), encoding="utf-8")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(all_workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full run record here")
    parser.add_argument("--spans", type=Path, help="write the traced spans here")
    args = parser.parse_args(argv)

    parent = ROOT / ".perf_tmp"
    parent.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=parent))
    try:
        record = run_once(
            args.workload, args.seed, args.seconds, bool(args.trace),
            scratch, args.spans,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    for check in record["checks"]:
        if not check["passed"]:
            print(f"check failed: {check['name']}: {check['detail']}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1
