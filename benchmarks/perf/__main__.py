"""Drive several benchmark runs, or compare two result files.

    python -m benchmarks.perf run [--seed S] [--runs R] [--trace]
                                  [--workload W ...] [--out FILE]
    python -m benchmarks.perf compare A.json [B.json]

``run`` starts every run as a fresh ``benchmarks/perf/run.py``
subprocess measuring ``BENCHMARK.json``'s ``run_seconds``, prints each
end-to-end metric's median, quartiles and sample count per workload,
and writes a result file (by default under
``benchmarks/perf/results/``). ``--trace`` adds one traced run per
workload and records its per-layer metrics, span file and overhead.
``compare`` prints a verdict per workload and metric against
``baseline.json`` (one file) or the first file (two files) and exits 1
when any metric got worse, or 2 when the two sides ran for different
lengths.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from .summary import quartiles, tail_percentile, verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
BASELINE = HERE / "baseline.json"


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def git_sha() -> str | None:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return completed.stdout.strip() or None


def one_run(workload: str, seed: int, seconds: float, trace: bool,
            scratch: Path, spans: Path | None = None) -> dict:
    """One subprocess run; returns its full record."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    with tempfile.TemporaryDirectory(dir=scratch) as directory:
        out = Path(directory) / "record.json"
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", "--out", str(out),
        ]
        if spans is not None:
            command += ["--spans", str(spans)]
        completed = subprocess.run(command, cwd=ROOT, env=env, timeout=900,
                                   capture_output=True, text=True)
        if not out.exists():
            sys.stderr.write(completed.stderr)
            raise RuntimeError(f"{workload}: run failed with exit {completed.returncode}")
        return json.loads(out.read_text(encoding="utf-8"))


def summarise(records: list[dict], traced: dict | None) -> dict:
    """Aggregate one workload's untimed runs (and its traced run)."""
    first = records[0]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = {}
    for name, entry in first["metrics"].items():
        values = [r["metrics"][name]["value"] for r in records]
        q1, median, q3 = quartiles(values)
        metrics[name] = {"unit": entry["unit"], "median": median, "q1": q1,
                         "q3": q3, "n": len(values), "values": values}
    latencies = [x for r in records for x in r["latencies"]]
    tail = tail_percentile(latencies)
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "digest": first["digest"],
        "digests_agree": len({r["digest"] for r in records}) == 1,
        "quality": first["quality"],
        "checks": [c for r in records for c in r["checks"] if not c["passed"]],
        "metrics": metrics,
        "latency": {
            "samples": len(latencies),
            "p50": statistics.median(latencies),
            "tail": list(tail) if tail else None,
        },
    }
    if traced is not None:
        summary["correct"] = summary["correct"] and traced["correct"]
        summary["layers"] = traced["metrics"]
        traced_p50 = statistics.median(traced["latencies"])
        summary["trace"] = {
            "overhead_ratio": traced_p50 / metrics["op_p50_s"]["median"],
            "unattributed_share": traced["unattributed_share"],
            "spans": traced["spans"],
            "correct": traced["correct"],
        }
    return summary


def print_summary(name: str, summary: dict) -> None:
    print(f"\n{name}  (failed {summary['failed']}/{summary['attempted']}"
          f"{'' if summary['correct'] else '  INCORRECT'})")
    for metric, entry in summary["metrics"].items():
        print(f"  {metric:<14} {entry['median']:>12.6g} {entry['unit']:<3} "
              f"[{entry['q1']:.6g}, {entry['q3']:.6g}]  n={entry['n']}")
    latency = summary["latency"]
    tail = latency["tail"]
    tail_text = f", p{tail[0]:g} {tail[1]:.4g} s" if tail and tail[0] > 50 else ""
    print(f"  op latency     p50 {latency['p50']:.4g} s{tail_text} "
          f"over {latency['samples']} operations")
    if summary["quality"]:
        print(f"  quality        {json.dumps(summary['quality'])}")
    for check in summary["checks"]:
        print(f"  FAILED CHECK   {check['name']}: {check['detail']}")
    trace = summary.get("trace")
    if trace:
        print(f"  trace          overhead x{trace['overhead_ratio']:.2f}, "
              f"unattributed {trace['unattributed_share']:.1%}")
        top = sorted(
            ((value["value"], layer) for layer, value in summary["layers"].items()
             if value["unit"] == "s"),
            reverse=True,
        )[:6]
        for value, layer in top:
            print(f"    {layer:<32} {value:.4g} s/op")


def cmd_run(args: argparse.Namespace) -> int:
    benchmark = load_benchmark()
    names = args.workload or [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    sha = git_sha()
    out = args.out or HERE / "results" / (
        f"perf-{(sha or 'unknown')[:12]}-seed{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    result = {"provenance": None, "workloads": {}}
    for name in names:
        records = []
        for index in range(args.runs):
            print(f"[{name}] run {index + 1}/{args.runs}", file=sys.stderr)
            records.append(one_run(name, args.seed, seconds, False, out.parent))
        traced = None
        if args.trace:
            print(f"[{name}] traced run", file=sys.stderr)
            spans = out.with_name(f"{out.stem}-{name}-spans.json")
            traced = one_run(name, args.seed, seconds, True, out.parent, spans)
            traced["spans"]["file"] = str(spans)
        summary = summarise(records, traced)
        result["workloads"][name] = summary
        print_summary(name, summary)
    result["provenance"] = dict(
        records[0]["provenance"],
        git_sha=sha, runs=args.runs, seconds=seconds,
        created=time.strftime("%Y-%m-%dT%H:%M:%S"),
    )
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(f"\nwrote {out}")
    return 0 if all(s["correct"] for s in result["workloads"].values()) else 1


def cmd_compare(args: argparse.Namespace) -> int:
    benchmark = load_benchmark()
    if args.change is None:
        parent = json.loads(BASELINE.read_text(encoding="utf-8"))["baseline"]
        change = json.loads(args.parent.read_text(encoding="utf-8"))
    else:
        parent = json.loads(args.parent.read_text(encoding="utf-8"))
        change = json.loads(args.change.read_text(encoding="utf-8"))
    lengths = {side["provenance"]["seconds"] for side in (parent, change)}
    if len(lengths) > 1:
        print(f"runs of different lengths cannot be compared: {sorted(lengths)} s",
              file=sys.stderr)
        return 2

    def cell(entry: dict) -> str:
        return f"{entry['median']:.4g} [{entry['q1']:.4g}, {entry['q3']:.4g}]"

    worse = 0
    print(f"{'workload':<14} {'metric':<12} {'parent [q1, q3]':<28} "
          f"{'change [q1, q3]':<28} {'ratio':>6}  verdict")
    for workload in benchmark["workloads"]:
        name = workload["name"]
        if name not in parent["workloads"] or name not in change["workloads"]:
            continue
        for metric in benchmark["end_to_end"]:
            a = parent["workloads"][name]["metrics"][metric["name"]]
            b = change["workloads"][name]["metrics"][metric["name"]]
            result = verdict(a["values"], b["values"], metric["better"], metric["bound"])
            worse += result == "worse"
            ratio = b["median"] / a["median"] if a["median"] else float("nan")
            print(f"{name:<14} {metric['name']:<12} {cell(a):<28} {cell(b):<28} "
                  f"{ratio:>6.3f}  {result}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure workloads over several runs")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--runs", type=int, default=3)
    run.add_argument("--trace", action="store_true", help="add one traced run per workload")
    run.add_argument("--workload", action="append", help="limit to this workload (repeatable)")
    run.add_argument("--out", type=Path, help="result file")
    compare = commands.add_parser("compare", help="compare two result files")
    compare.add_argument("parent", type=Path)
    compare.add_argument("change", type=Path, nargs="?")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
