"""An in-memory span tracer installed from outside the program.

The benchmark times the program's layers without changing a line of
``src/``: :meth:`Tracer.install` replaces each target callable by a
timing wrapper at every place it is bound (module globals of every
``repro`` module holding the same function object, or the class and
each subclass that defines the method), and :meth:`Tracer.uninstall`
puts the original objects back.

A span has a name, a thread, a start, an end and a parent. Self time —
a span's duration minus the part covered by its child spans — is
accumulated per thread as spans close, so it stays exact however many
spans the run produces; the span records themselves are kept in memory
up to ``max_spans`` and written out by the caller.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

#: ``(args, kwargs, result) -> iterable of (counter, amount)``.
CountHook = Callable[[tuple, dict, object], Iterable[tuple[str, float]]]


@dataclass(frozen=True)
class Target:
    """One callable to trace.

    ``path`` is ``module:function`` or ``module:Class.method``. ``name``
    is the span name; a callable receives the bound instance (the first
    argument) and returns the name, for spans named per instance.
    ``name=None`` records no span, only ``count``. ``count`` runs after
    each traced call and returns counters to add. With ``iterator`` the
    callable returns an iterator whose work happens as it is consumed,
    so each step of the iteration is a span as well.
    """

    path: str
    name: str | Callable[[object], str] | None
    count: CountHook | None = None
    iterator: bool = False


class _ThreadState:
    """One thread's open spans, totals and closed-span records.

    Closed spans are kept as parallel arrays with interned names: one
    Python object per span would load the garbage collector enough to
    distort the traced run."""

    __slots__ = (
        "thread", "stack", "self_time", "calls", "counters", "names",
        "span_ids", "parents", "name_ids", "starts", "ends", "dropped",
    )

    def __init__(self, thread: str):
        self.thread = thread
        #: Open frames: [name, start, child_seconds, span_id, parent_id].
        self.stack: list[list] = []
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.names: dict[str, int] = {}
        self.span_ids = array("q")
        self.parents = array("q")
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.dropped = 0


class Tracer:
    """Spans and counters of one traced run.

    Wrappers record only while :attr:`active` is true, so set-up and
    untimed checks leave no spans even though the wrappers stay
    installed for the whole run.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        max_spans: int = 100_000,
    ):
        self.clock = clock
        #: Closed spans kept per thread; later ones are only counted.
        self.max_spans = max_spans
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def enter(self, name: str) -> list:
        """Open a span on the calling thread; pass the result to
        :meth:`exit`."""
        state = self._state()
        stack = state.stack
        parent = stack[-1][3] if stack else 0
        frame = [name, self.clock(), 0.0, next(self._ids), parent]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        """Close the innermost span, which must be ``frame``."""
        end = self.clock()
        state = self._local.state
        stack = state.stack
        stack.pop()
        name, start, children, span_id, parent = frame
        duration = end - start
        state.self_time[name] = state.self_time.get(name, 0.0) + duration - children
        state.calls[name] = state.calls.get(name, 0) + 1
        if stack:
            stack[-1][2] += duration
        if len(state.ends) < self.max_spans:
            names = state.names
            state.span_ids.append(span_id)
            state.parents.append(parent)
            state.name_ids.append(names.setdefault(name, len(names)))
            state.starts.append(start)
            state.ends.append(end)
        else:
            state.dropped += 1

    def count(self, counter: str, amount: float = 1) -> None:
        """Add to a counter (per thread; merged by :meth:`counters`)."""
        counters = self._state().counters
        counters[counter] = counters.get(counter, 0) + amount

    # -- results -----------------------------------------------------------
    def _thread_states(self) -> list[_ThreadState]:
        with self._states_lock:
            return list(self._states)

    @property
    def spans(self) -> list[tuple[int, int, str, str, float, float]]:
        """Recorded spans as ``(id, parent, name, thread, start, end)``;
        parent 0 marks a root span."""
        spans = []
        for state in self._thread_states():
            text = {index: name for name, index in state.names.items()}
            spans += [
                (span_id, parent, text[name], state.thread, start, end)
                for span_id, parent, name, start, end in zip(
                    state.span_ids, state.parents, state.name_ids,
                    state.starts, state.ends,
                )
            ]
        return spans

    @property
    def dropped(self) -> int:
        """Closed spans not recorded because of ``max_spans``."""
        return sum(state.dropped for state in self._thread_states())

    def _merged(self, field: str) -> dict:
        merged: dict = {}
        for state in self._thread_states():
            for key, value in getattr(state, field).items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name, summed over threads."""
        return self._merged("self_time")

    def calls(self) -> dict[str, int]:
        """Closed spans per span name."""
        return self._merged("calls")

    def counters(self) -> dict[str, float]:
        return self._merged("counters")

    # -- installation ------------------------------------------------------
    def wrap(self, function: Callable, target: Target) -> Callable:
        """``function`` with a span (and counters) around each call."""
        tracer = self
        name = target.name
        named_by_instance = callable(name)
        count = target.count
        iterator = target.iterator

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            if name is None:
                result = function(*args, **kwargs)
            else:
                frame = tracer.enter(name(args[0]) if named_by_instance else name)
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer.exit(frame)
            if count is not None:
                for counter, amount in count(args, kwargs, result):
                    tracer.count(counter, amount)
            if iterator:
                return tracer._steps(name, result)
            return result

        traced.__traced__ = True
        return traced

    def _steps(self, name: str, iterator) -> Iterator:
        """``iterator`` with a span around the computation of each item."""
        iterator = iter(iterator)
        while True:
            frame = self.enter(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.exit(frame)
            yield item

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target at every binding site."""
        for target in targets:
            module_name, _, attr_path = target.path.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = attr_path.rpartition(".")
            if owner_name:
                for owner in _defining_classes(getattr(module, owner_name), attr):
                    original = owner.__dict__[attr]
                    if not getattr(original, "__traced__", False):
                        self._patch(owner, attr, original, self.wrap(original, target))
                continue
            original = getattr(module, attr)
            if getattr(original, "__traced__", False):
                continue
            wrapped = self.wrap(original, target)
            for bound in list(sys.modules.values()):
                if not getattr(bound, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(bound).items()):
                    if value is original:
                        self._patch(bound, key, original, wrapped)

    def _patch(self, owner: object, attr: str, original: object, wrapped: object) -> None:
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched binding to its original object."""
        self.active = False
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def _defining_classes(cls: type, attr: str) -> list[type]:
    """``cls`` and its subclasses, each that defines ``attr`` itself."""
    found: list[type] = []
    pending = [cls]
    seen: set[type] = set()
    while pending:
        klass = pending.pop()
        if klass in seen:
            continue
        seen.add(klass)
        if attr in klass.__dict__:
            found.append(klass)
        pending.extend(klass.__subclasses__())
    return found
