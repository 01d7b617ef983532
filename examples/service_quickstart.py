"""Quickstart for the linkage job service.

Runs the full service API — submit a job, poll it, fetch its links,
inspect its engine statistics — with **no infrastructure at all**: the
service is constructed with ``queue="inline"``, so the job executes in
this process through the exact same job records, state machine and
engine path a worker fleet would use (see ``docs/service.md``).

Run with::

    python examples/service_quickstart.py

Point ``REPRO_SERVICE_DIR`` at a persistent directory to keep the job
records and the shared engine cache around — a second invocation then
reports store and index hits on stderr, exactly like a warm worker::

    REPRO_SERVICE_DIR=/tmp/repro-service python examples/service_quickstart.py
    REPRO_SERVICE_DIR=/tmp/repro-service python examples/service_quickstart.py

To run the same job through real queue workers instead, use the CLI
(``docs/service.md`` has the full tour)::

    export REPRO_SERVICE_DIR=/tmp/repro-service
    repro-experiments submit restaurant
    repro-experiments serve --drain --service-workers 2
    repro-experiments status
"""

from __future__ import annotations

import os
import sys
import tempfile

from repro.engine import counters
from repro.service import SERVICE_DIR_ENV, LinkageService


def print_stats(stats: dict) -> None:
    """Summarise a job's recorded MatchStats payload on stderr.

    Stats go to stderr so stdout (the links) stays byte-identical
    between cold and warm runs — the same discipline as
    ``examples/quickstart.py``, and what CI greps.
    """
    print(counters.line("job engine", stats), file=sys.stderr)
    store = stats.get("store")
    if store is not None:
        print(counters.line("job store", store), file=sys.stderr)


def run(root: str) -> None:
    """Submit, wait, fetch — the whole client lifecycle."""
    # queue="inline" is the degraded/zero-infrastructure mode: no
    # queue, no workers, identical records and identical links.
    with LinkageService(root=root, queue="inline") as service:
        record = service.submit("link", dataset="restaurant", seed=0)
        print(f"submitted {record.job_id} ({record.kind})", file=sys.stderr)

        # Inline jobs are terminal on return, but poll anyway — this
        # is the exact loop a client runs against a worker fleet.
        record = service.wait(record.job_id, timeout=300.0)
        print(
            f"job {record.job_id}: {record.state} "
            f"(attempts={record.attempts}, worker={record.worker})",
            file=sys.stderr,
        )
        if record.state != "succeeded":
            raise SystemExit(f"job failed: {record.error}")
        if record.stats is not None:
            print_stats(record.stats)

        links = service.links(record.job_id)
        print(f"Generated {len(links)} links:")
        for link in links[:10]:
            print(f"  {link.uid_a} <-> {link.uid_b}  (score {link.score:.2f})")
        if len(links) > 10:
            print(f"  ... and {len(links) - 10} more")

        # Registry-backed jobs: publish a rule into a versioned lineage,
        # activate it, and submit by reference. The record pins the
        # resolved version (``@v1``) plus content hash, so the job is
        # reproducible even after later activation flips.
        from repro.matching.incremental import dataset_rule

        version = service.registry.publish(
            "demo/restaurants/base", dataset_rule("restaurant")
        )
        service.registry.activate(version.ref)
        by_ref = service.submit(
            "link", dataset="restaurant", seed=0,
            rule="demo/restaurants/base@active",
        )
        print(
            f"[registry] {by_ref.job_id}: {by_ref.state} "
            f"rule={by_ref.spec['rule_ref']} "
            f"hash={by_ref.spec['rule_hash'][:12]}",
            file=sys.stderr,
        )
        assert service.links(by_ref.job_id) == links

        health = service.health()
        print(
            f"[health] mode={health['mode']} jobs={health['jobs']} "
            f"degradations={len(health['degradations'])}",
            file=sys.stderr,
        )


def main() -> None:
    root = os.environ.get(SERVICE_DIR_ENV, "")
    if root:
        run(root)
    else:
        # No service dir configured: everything is throwaway.
        with tempfile.TemporaryDirectory(prefix="repro-service-") as tmp:
            run(tmp)


if __name__ == "__main__":
    main()
