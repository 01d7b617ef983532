"""Pluggable parallel execution for shard scoring.

A matching run has one parallel site: its candidate-pair shards are
independent per shard, and
:class:`~repro.matching.engine.MatchingEngine` scores them through its
run session's executor, the run's only one. Learning, compiling and
blocking run inline. :class:`Executor` abstracts *how* the shards run —
inline (:class:`SerialExecutor`) or on a shared-memory thread pool
(:class:`ThreadExecutor`) — behind one order-preserving ``map``. Either
way every shard, column and counter stays in one address space, so
submitted callables may close over the engine session and its caches.

Determinism is the design constraint: every shard is scored by a pure
function, and results are always consumed in submission order, so
outputs are byte-identical regardless of executor kind or worker
count. Parallelism may change *cache statistics* (who computed what
first), never results.

Selection is explicit (constructor argument) or ambient via the
``REPRO_ENGINE_WORKERS`` environment variable::

    REPRO_ENGINE_WORKERS=0          # serial (the default)
    REPRO_ENGINE_WORKERS=4          # thread pool, 4 workers
    REPRO_ENGINE_WORKERS=thread:4   # same, explicit
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

#: Environment variable consulted when no executor is configured.
WORKERS_ENV = "REPRO_ENGINE_WORKERS"

#: The spec forms :func:`parse_workers_spec` accepts, for error messages.
_SPEC_FORMS = "'serial' or '0' (serial), a worker count 'N', or 'thread:N'"


class Executor(ABC):
    """Maps a pure function over items, preserving input order.

    ``kind`` names the strategy (``serial`` / ``thread``) and
    ``workers`` is the configured worker count (0 for serial).
    """

    kind: str = "abstract"
    workers: int = 0

    @abstractmethod
    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` to every item; results in input order."""

    def close(self) -> None:
        """Release pooled workers (idempotent; a closed executor may
        not be reused)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """Inline execution — the zero-dependency, zero-overhead default."""

    kind = "serial"
    workers = 0

    def map(self, fn, items):
        return [fn(item) for item in items]


class ThreadExecutor(Executor):
    """A persistent shared-memory thread pool.

    Python threads cooperate through the engine's thread-safe caches, so
    closures over a shared :class:`~repro.engine.session.EngineSession`
    are fine. Throughput gains come from numpy kernels and (on
    free-threaded builds) the pure-Python parse loops; on GIL builds the
    win is bounded, but results are identical either way.
    """

    kind = "thread"

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("thread executor needs at least 1 worker")
        self.workers = workers
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-engine"
            )
        return self._pool

    def map(self, fn, items):
        items = list(items)
        # Not worth a thread hop for trivial fan-outs.
        if len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))

    def close(self):
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def parse_workers_spec(spec: str) -> Executor:
    """Build an executor from a spec string.

    Accepted forms: ``"serial"`` / ``"0"`` (serial), ``"N"`` (thread
    pool of N) and ``"thread:N"``; anything else, ``"process:N"``
    included, raises :class:`ValueError`.
    """
    text = spec.strip().lower()
    if text in ("", "0", "serial"):
        return SerialExecutor()
    kind, _, count_text = text.partition(":")
    if not _:
        kind, count_text = "thread", text
    if kind != "thread":
        raise ValueError(
            f"invalid workers spec {spec!r}: unknown executor kind "
            f"{kind!r}; expected {_SPEC_FORMS}"
        )
    try:
        count = int(count_text)
    except ValueError:
        raise ValueError(
            f"invalid workers spec {spec!r}: expected {_SPEC_FORMS}"
        ) from None
    if count < 0:
        raise ValueError(f"invalid workers spec {spec!r}: count must be >= 0")
    return ThreadExecutor(count) if count else SerialExecutor()


def resolve_executor(
    workers: "int | str | Executor | None" = None,
) -> Executor:
    """Resolve a workers argument to an :class:`Executor`.

    ``None`` consults ``REPRO_ENGINE_WORKERS`` (absent or ``0`` means
    serial); an int selects a thread pool of that size (0 = serial); a
    string is parsed by :func:`parse_workers_spec`; an executor
    instance passes through unchanged.
    """
    if workers is None:
        return parse_workers_spec(os.environ.get(WORKERS_ENV, ""))
    if isinstance(workers, Executor):
        return workers
    if isinstance(workers, bool):  # bool is an int subclass; reject it
        raise TypeError("workers must be an int, str, Executor or None")
    if isinstance(workers, int):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        return ThreadExecutor(workers) if workers else SerialExecutor()
    if isinstance(workers, str):
        return parse_workers_spec(workers)
    raise TypeError(
        f"workers must be an int, str, Executor or None, "
        f"not {type(workers).__name__}"
    )
