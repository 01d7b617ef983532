"""The repository's performance benchmark.

``python3 benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0|1``
measures one run of one workload; ``python -m benchmarks.perf run|compare``
drives several runs and compares result files. See ``README.md``.
"""
