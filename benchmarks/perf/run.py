"""The benchmark command: one measured run of one workload.

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics untraced, per-layer metrics with ``--trace 1``).
The exit code is 0 only for a correct run.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The benchmark pins its own configuration: no REPRO_* setting of
    # the calling shell reaches the program, and numeric kernels stay
    # single-threaded like the serial engine.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    # Replace this script's directory on the path by the repository
    # root (for the benchmark package) and the package source.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.perf.runner import main as run

    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
