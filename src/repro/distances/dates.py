"""Date distance in days (Table 2: ``date``)."""

from __future__ import annotations

import datetime as _dt
import functools
import re
from typing import Sequence

import numpy as np

from repro.distances.base import (
    DistanceMeasure,
    INFINITE_DISTANCE,
    ValueColumn,
    min_over_pairs,
    pairwise_min_column,
)
from repro.distances.numeric import absdiff_kernel

_FORMATS = (
    "%Y-%m-%d",
    "%Y/%m/%d",
    "%d.%m.%Y",
    "%d/%m/%Y",
    "%m/%d/%Y",
    "%B %d, %Y",
    "%d %B %Y",
    "%b %d, %Y",
)

#: Each format with the literal separators its text must contain. A
#: space filters nothing: ``strptime`` reads it as ``\s+``.
_FORMAT_SEPARATORS = tuple(
    (fmt, tuple(sep for sep in "-/.," if sep in fmt)) for fmt in _FORMATS
)

_YEAR_RE = re.compile(r"^\s*(\d{4})\s*$")
# Every format needs %Y, which ``strptime`` matches as four ``\d``
# (Unicode digits on str patterns), and so does the bare-year path.
_FOUR_DIGITS_RE = re.compile(r"\d{4}")


@functools.lru_cache(maxsize=8192)
def parse_date(value: str) -> _dt.date | None:
    """Parse a date string; bare years resolve to January 1st.

    Memoised per process: seeding, fitness date columns and the date
    grid index all parse the same values over and over. Text without
    four consecutive digits returns ``None`` before the ``strptime``
    loop, whose failures each raise an exception, and the loop skips
    every format with a literal separator the text lacks.
    """
    text = value.strip()
    if _FOUR_DIGITS_RE.search(text) is None:
        return None
    year_match = _YEAR_RE.match(text)
    if year_match is not None:
        year = int(year_match.group(1))
        if 1 <= year <= 9999:
            return _dt.date(year, 1, 1)
        return None
    for fmt, separators in _FORMAT_SEPARATORS:
        if not all(sep in text for sep in separators):
            continue
        try:
            return _dt.datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    return None


def _pair_distance(a: str, b: str) -> float:
    da = parse_date(a)
    db = parse_date(b)
    if da is None or db is None:
        return INFINITE_DISTANCE
    return float(abs((da - db).days))


def _parse_ordinal(value: str) -> float | None:
    """Parse a date to its proleptic ordinal as a float.

    ``abs((da - db).days)`` equals ``abs(ordinal_a - ordinal_b)``
    exactly, and ordinals (< 3.7 million) are exact in float64, so the
    batch kernel's vectorized difference is bit-identical to the scalar
    ``timedelta`` arithmetic.
    """
    date = parse_date(value)
    return None if date is None else float(date.toordinal())


class DateDistance(DistanceMeasure):
    """Absolute difference between two dates in days."""

    name = "date"
    threshold_range = (0.0, 730.0)
    batch_capable = True

    def evaluate(self, values_a: Sequence[str], values_b: Sequence[str]) -> float:
        return min_over_pairs(values_a, values_b, _pair_distance)

    def evaluate_column(
        self, columns_a: ValueColumn, columns_b: ValueColumn
    ) -> np.ndarray:
        """Vectorized day differences over parsed date ordinals: values
        parse through the process-wide ``parse_date`` memo (text without
        four digits is rejected before any ``strptime``)."""
        return pairwise_min_column(
            columns_a, columns_b, absdiff_kernel(_parse_ordinal)
        )
