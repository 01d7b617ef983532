"""The docs environment-variable table stays in sync with the code.

``docs/index.md`` carries the single reference table of every
``REPRO_*`` environment variable the system reads. This meta-test
scans the source tree for ``REPRO_[A-Z_]+`` tokens and asserts the
two sets are identical — adding an ambient knob without documenting
it fails CI, as does documenting one that no longer exists. A second
check keeps the docs manual's relative links resolvable, and a third
parses every documented ``repro-experiments`` command line.
"""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import pytest

from repro.engine.executor import WORKERS_ENV
from repro.engine.store import CACHE_ENV
from repro.experiments import cli
from repro.matching.engine import BLOCKER_ENV

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
SRC = REPO / "src"
EXAMPLES = REPO / "examples"

ENV_VAR = re.compile(r"REPRO_[A-Z][A-Z_]*")


def _documented_variables() -> set[str]:
    """Variable names from the index table's first column."""
    names: set[str] = set()
    for line in (DOCS / "index.md").read_text().splitlines():
        match = re.match(r"\|\s*`(REPRO_[A-Z_]+)`\s*\|", line)
        if match:
            names.add(match.group(1))
    return names


def _source_variables() -> set[str]:
    """Every REPRO_* token read anywhere under src/."""
    names: set[str] = set()
    for path in SRC.rglob("*.py"):
        names.update(ENV_VAR.findall(path.read_text()))
    return names


def test_env_table_matches_source():
    documented = _documented_variables()
    in_source = _source_variables()
    assert documented, "no REPRO_* rows parsed from docs/index.md"
    missing = in_source - documented
    stale = documented - in_source
    assert not missing, f"env vars read by src/ but absent from docs/index.md: {sorted(missing)}"
    assert not stale, f"env vars documented but never read by src/: {sorted(stale)}"


def test_docs_cross_links_resolve():
    """Every relative .md link inside docs/ points at a real file."""
    link = re.compile(r"\]\(([A-Za-z0-9_./-]+\.md)(?:#[A-Za-z0-9_-]+)?\)")
    broken: list[str] = []
    for page in sorted(DOCS.glob("*.md")):
        for target in link.findall(page.read_text()):
            if not (DOCS / target).exists():
                broken.append(f"{page.name} -> {target}")
    assert not broken, f"broken docs links: {broken}"


def _documented_commands() -> list[str]:
    """Every ``repro-experiments ...`` line (a ``$`` prompt allowed) in
    the fenced code blocks of ``docs/*.md`` and in the examples'
    module docstrings."""
    texts: list[str] = []
    for page in sorted(DOCS.glob("*.md")):
        fenced = False
        for line in page.read_text().splitlines():
            if line.lstrip().startswith("```"):
                fenced = not fenced
            elif fenced:
                texts.append(line)
    for script in sorted(EXAMPLES.glob("*.py")):
        docstring = ast.get_docstring(ast.parse(script.read_text())) or ""
        texts.extend(docstring.splitlines())
    commands = []
    for text in texts:
        text = text.strip().removeprefix("$ ")
        if text.startswith("repro-experiments "):
            commands.append(shlex.join(shlex.split(text, comments=True)))
    return commands


#: Every command handler ``cli.main`` dispatches to.
CLI_HANDLERS = (
    "_print_dataset_statistics", "_print_learning_curve",
    "_print_representations", "_print_seeding", "_print_crossover",
    "_learn_rule", "_run_delta", "_cache_maintenance", "_serve",
    "_submit", "_status", "_cancel", "_links_cmd", "_health", "_rules_cmd",
)


@pytest.mark.parametrize("command", _documented_commands())
def test_documented_cli_lines_parse(command, monkeypatch):
    """The parser accepts every command line the docs and examples show.

    Handlers are no-ops, so only argument parsing runs; it exits with
    status 2 on a line it rejects."""
    for name in CLI_HANDLERS:
        monkeypatch.setattr(cli, name, lambda args: None)
    for name in (WORKERS_ENV, CACHE_ENV, BLOCKER_ENV):
        # ``main`` exports its global flags into these; setting first
        # makes teardown restore (or remove) each one.
        monkeypatch.setenv(name, "")
        monkeypatch.delenv(name)
    try:
        status = cli.main(shlex.split(command)[1:])
    except SystemExit as exit:
        status = exit.code
    assert status != 2, command
