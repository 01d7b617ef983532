"""Smoke tests: the fast example scripts run end to end.

Examples are the first code a new user executes; API drift that breaks
them must fail the suite. Only the sub-two-second examples run here —
the longer scenarios (movie/drug interlinking, active learning) are
exercised manually and through the benchmark suite's equivalent
drivers.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = (
    "quickstart.py",
    "custom_operators.py",
    "silk_interop.py",
    "baseline_comparison.py",
    "service_quickstart.py",
)


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_cleanly(script):
    """The script exits 0 and produces output."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), f"{script} produced no output"


#: The stderr checks of CI's cache-reuse leg, per run.
COLD_STDERR = (
    r"\[engine store\] hits=0 ",
    r" index_hits=0 ",
    r" index_writes=[1-9][0-9]* ",
    r" probe_batches=[1-9][0-9]* probe_memo_hits=[0-9]+",
    r"\[engine kernels\] .*:batch=[1-9][0-9]*,fallback=0",
)
WARM_STDERR = (
    r"\[engine store\] hits=[1-9][0-9]* ",
    r" misses=0 ",
    r" index_hits=[1-9][0-9]* ",
    r" index_misses=0 ",
    r" probe_batches=[1-9][0-9]* probe_memo_hits=[0-9]+",
)


def test_quickstart_warm_run_reuses_the_store(tmp_path):
    """Cold then warm quickstart against one cache dir: identical
    stdout, and the counter lines on stderr show the cold run writing
    the store and the warm run served from it without any kernel."""
    env = {**os.environ, "REPRO_ENGINE_CACHE": str(tmp_path / "cache")}
    cold, warm = [
        subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        for _ in range(2)
    ]
    assert cold.returncode == 0, cold.stderr[-2000:]
    assert warm.returncode == 0, warm.stderr[-2000:]
    assert cold.stdout == warm.stdout
    for pattern in COLD_STDERR:
        assert re.search(pattern, cold.stderr), (pattern, cold.stderr)
    for pattern in WARM_STDERR:
        assert re.search(pattern, warm.stderr), (pattern, warm.stderr)
    assert "[engine kernels]" not in warm.stderr


def test_all_examples_exist_and_have_docstrings():
    """Every example advertised in the README exists and documents
    itself (the docstring is the usage text)."""
    scripts = sorted(EXAMPLES_DIR.glob("*.py"))
    assert len(scripts) >= 7
    for script in scripts:
        text = script.read_text()
        assert text.lstrip().startswith('"""'), f"{script.name} lacks a docstring"
        assert "def main(" in text, f"{script.name} lacks a main()"
