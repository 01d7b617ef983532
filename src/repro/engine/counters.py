"""Field-driven arithmetic over engine statistics snapshots.

Every statistics dataclass of the engine —
:class:`~repro.engine.lru.CacheStats`,
:class:`~repro.engine.store.StoreStats` and
:class:`~repro.engine.session.EngineCounters` with the
``EngineStats``/``MatchStats`` built on it — is combined by the same
function, driven by each field's kind:

* a plain int is a monotonic **counter**: a delta subtracts;
* ``metadata=GAUGE`` marks a point-in-time **gauge** (a cache's
  ``size`` and ``capacity``): a delta keeps the current value;
* ``metadata=KEYED`` marks a **keyed table** of ``(name, count, ...)``
  rows (kernel routing): rows combine per name, all-zero rows are
  dropped and the result is sorted by name;
* ``metadata=LOG`` marks an append-only **log** tuple (breaker trip
  reasons): a delta keeps the entries past the baseline's length;
* a nested snapshot (a dataclass, or None where no store is
  configured) recurses.

:func:`delta` is the per-run view — what a session did since an
earlier snapshot of itself. :func:`line` renders a snapshot's counters
as one greppable ``[label] name=value ...`` line.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, Mapping, TypeVar

_KIND = "counters.kind"

#: Field metadata of a point-in-time gauge.
GAUGE = {_KIND: "gauge"}
#: Field metadata of a ``(name, count, ...)`` row table.
KEYED = {_KIND: "keyed"}
#: Field metadata of an append-only log tuple.
LOG = {_KIND: "log"}

Snapshot = TypeVar("Snapshot")


def _keyed(now: tuple, then: tuple) -> tuple:
    """Per-name difference of two ``(name, count, ...)`` row tables."""
    totals: dict[str, list[int]] = {}
    for table, sign in ((now, 1), (then, -1)):
        for name, *counts in table:
            total = totals.setdefault(name, [0] * len(counts))
            for position, count in enumerate(counts):
                total[position] += sign * count
    return tuple(
        sorted((name, *total) for name, total in totals.items() if any(total))
    )


def delta(current: Snapshot, baseline: Snapshot | None) -> Snapshot:
    """What ``current`` accumulated since ``baseline``, an earlier
    snapshot of the same source (or of a subclass carrying the same
    fields). ``baseline=None`` means no earlier snapshot: the delta is
    the full history, ``current`` itself."""
    if current is None or baseline is None:
        return current
    values: dict[str, Any] = {}
    for spec in fields(current):
        now = getattr(current, spec.name)
        then = getattr(baseline, spec.name)
        kind = spec.metadata.get(_KIND)
        if kind == "gauge":
            values[spec.name] = now
        elif kind == "keyed":
            values[spec.name] = _keyed(now, then)
        elif kind == "log":
            values[spec.name] = now[len(then) :]
        elif now is None or is_dataclass(now):
            values[spec.name] = delta(now, then)
        else:
            values[spec.name] = now - then
    return type(current)(**values)


def line(label: str, snapshot: Any) -> str:
    """``[label] name=value ...`` over the int fields of ``snapshot``
    in declaration order. ``snapshot`` is a statistics dataclass or its
    job-record dict (``dataclasses.asdict`` output read back from
    JSON), so engine runs and job records print the same line."""
    if isinstance(snapshot, Mapping):
        items = snapshot.items()
    else:
        items = (
            (spec.name, getattr(snapshot, spec.name)) for spec in fields(snapshot)
        )
    counts = " ".join(
        f"{name}={value}" for name, value in items if type(value) is int
    )
    return f"[{label}] {counts}"
