"""Host-speed normalisation of measured times.

The benchmark runs on shared cores, where the same work takes up to
~2.5x longer while neighbouring jobs are busy, and that state changes
within seconds. Every measurement is therefore accompanied by a fixed
probe, and reported at the reference speed at which the probe takes
:data:`PROBE_SECONDS`: the measurement's CPU seconds are scaled by
``PROBE_SECONDS / mean probe time``, while waiting (wall time beyond
the CPU time, such as a worker's poll interval) is kept as measured.
Run records keep the raw wall times too.
"""

from __future__ import annotations

import re
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

#: Duration of :func:`probe` at the reference host speed.
PROBE_SECONDS = 0.002

#: Probe samples taken before and again after each measurement.
PROBES = 2


_WORDS = [f"Value {i} of the {i % 97} set" for i in range(300)]
_TOKEN = re.compile(r"[^\W_]+")
_NUMBERS = np.arange(20_000, dtype=np.float64)


def probe() -> float:
    """Seconds taken by a fixed mix of the interpreter work the program
    does: dict and string work, parsing, regex tokenising and small
    numpy sorts. A mix tracks the slowdowns of all workloads better than
    any single kind of work."""
    started = time.perf_counter()
    table: dict[str, int] = {}
    for i in range(750):
        key = str(i * 7919 % 4099)
        table[key] = table.get(key, 0) + len(key)
    for i in range(120):
        text = f"2001-05-{i % 28 + 1:02d}"
        year, month, day = text.split("-")
        table[text.lower()] = int(year) * 372 + int(month) * 31 + int(day)
    for words in _WORDS:
        _TOKEN.findall(words.lower())
    for _ in range(10):
        np.sort(_NUMBERS[::-1])
    return time.perf_counter() - started


@dataclass
class Measurement:
    """Wall and CPU seconds of one measured interval, with the probe
    times taken around it."""

    wall: float = 0.0
    cpu: float = 0.0
    probes: list[float] = field(default_factory=list)

    @property
    def speed(self) -> float:
        """Host speed relative to the reference (above 1: faster)."""
        return PROBE_SECONDS / statistics.fmean(self.probes)

    def at_reference_speed(self, seconds: float | None = None) -> float:
        """``seconds`` (default: the wall time) with its CPU part
        rescaled to the reference speed."""
        seconds = self.wall if seconds is None else seconds
        cpu = min(self.cpu, seconds)
        return seconds - cpu + cpu * self.speed


@contextmanager
def measured() -> Iterator[Measurement]:
    """Measure the ``with`` body: probes, then wall and process CPU
    time (all threads), then probes again."""
    measurement = Measurement(probes=[probe() for _ in range(PROBES)])
    cpu_started = time.process_time()
    started = time.perf_counter()
    try:
        yield measurement
    finally:
        measurement.wall = time.perf_counter() - started
        measurement.cpu = time.process_time() - cpu_started
        measurement.probes += [probe() for _ in range(PROBES)]
