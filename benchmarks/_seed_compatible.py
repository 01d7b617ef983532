"""The per-pair Algorithm 2 seeding path and the unmemoised date and
number parsers, frozen verbatim.

``repro.core.compatible`` now builds one property profile per entity
(tokens, points, dates and numbers parsed once per value) and runs the
detectors over those pre-parsed lists, and
``repro.distances.dates.parse_date`` and
``repro.distances.numeric.parse_number`` are memoised per process (the
date parser behind a four-digit prefilter). This module preserves the
original shapes: every detector re-tokenises and re-parses both value
lists for each property pair, ``seed_parse_date`` tries the eight
``strptime`` formats on every call, and ``seed_parse_number`` runs its
regex on every call (``seed_date_distance`` and
``seed_numeric_distance`` are the per-pair measures over them).

``tests/test_core_compatible.py`` and ``tests/test_distances_dates.py``
pin the live code to these copies, and ``bench_micro_engine.py``'s
``test_seeding_speedup`` and the date and numeric legs of
``test_batch_kernel_speedup`` measure against them.
Do not "improve" this module; its value is being frozen.
"""

from __future__ import annotations

import datetime as _dt
import random
import re
from typing import Sequence

from repro.core.compatible import CompatibleProperty
from repro.data.entity import Entity
from repro.data.reference_links import Link
from repro.data.source import DataSource
from repro.distances.base import INFINITE_DISTANCE, min_over_pairs
from repro.distances.geographic import haversine_metres, parse_point
from repro.distances.levenshtein import levenshtein

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

_YEAR_RE = re.compile(r"^\s*(\d{4})\s*$")


def seed_parse_date(value: str) -> _dt.date | None:
    """Parse a date string; bare years resolve to January 1st."""
    text = value.strip()
    year_match = _YEAR_RE.match(text)
    if year_match is not None:
        year = int(year_match.group(1))
        if 1 <= year <= 9999:
            return _dt.date(year, 1, 1)
        return None
    for fmt in _FORMATS:
        try:
            return _dt.datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    return None


def seed_date_distance(values_a: Sequence[str], values_b: Sequence[str]) -> float:
    """``DateDistance.evaluate`` over the unmemoised parser."""

    def pair_distance(a: str, b: str) -> float:
        da = seed_parse_date(a)
        db = seed_parse_date(b)
        if da is None or db is None:
            return INFINITE_DISTANCE
        return float(abs((da - db).days))

    return min_over_pairs(values_a, values_b, pair_distance)


_NUMBER_RE = re.compile(r"[-+]?\d+(?:[.,]\d+)?(?:[eE][-+]?\d+)?")


def seed_parse_number(value: str) -> float | None:
    """Extract the first number from a string, or None.

    Accepts both ``.`` and ``,`` decimal separators, a common divergence
    between data sources (e.g. "3,5 mg" vs "3.5mg").
    """
    match = _NUMBER_RE.search(value.strip())
    if match is None:
        return None
    text = match.group(0).replace(",", ".")
    try:
        return float(text)
    except ValueError:  # pragma: no cover - regex should guarantee parse
        return None


def seed_numeric_distance(values_a: Sequence[str], values_b: Sequence[str]) -> float:
    """``NumericDistance.evaluate`` over the unmemoised parser."""

    def pair_distance(a: str, b: str) -> float:
        na = seed_parse_number(a)
        nb = seed_parse_number(b)
        if na is None or nb is None:
            return INFINITE_DISTANCE
        return abs(na - nb)

    return min_over_pairs(values_a, values_b, pair_distance)


_TOKEN_CAP = 24  # tokens considered per property value set

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def _tokens(values: Sequence[str]) -> list[str]:
    tokens: list[str] = []
    for value in values:
        for token in _TOKEN_RE.findall(value.lower()):
            if len(token) < 3:
                continue  # one/two-letter tokens collide by chance
            tokens.append(token)
            if len(tokens) >= _TOKEN_CAP:
                return tokens
    return tokens


def _levenshtein_compatible(
    values_a: Sequence[str], values_b: Sequence[str], threshold: float
) -> bool:
    tokens_a = _tokens(values_a)
    tokens_b = _tokens(values_b)
    if not tokens_a or not tokens_b:
        return False
    bound = int(threshold)
    for ta in tokens_a:
        for tb in tokens_b:
            if levenshtein(ta, tb, bound=bound) <= threshold:
                return True
    return False


def _geographic_compatible(
    values_a: Sequence[str], values_b: Sequence[str], threshold: float = 100_000.0
) -> bool:
    points_a = [p for v in values_a if (p := parse_point(v)) is not None]
    points_b = [p for v in values_b if (p := parse_point(v)) is not None]
    if not points_a or not points_b:
        return False
    return any(
        haversine_metres(pa[0], pa[1], pb[0], pb[1]) <= threshold
        for pa in points_a
        for pb in points_b
    )


def _date_compatible(
    values_a: Sequence[str], values_b: Sequence[str], threshold_days: float = 1000.0
) -> bool:
    dates_a = [d for v in values_a if (d := seed_parse_date(v)) is not None]
    dates_b = [d for v in values_b if (d := seed_parse_date(v)) is not None]
    if not dates_a or not dates_b:
        return False
    return any(
        abs((da - db).days) <= threshold_days for da in dates_a for db in dates_b
    )


def _numeric_compatible(
    values_a: Sequence[str], values_b: Sequence[str], tolerance: float = 0.1
) -> bool:
    numbers_a = [n for v in values_a if (n := seed_parse_number(v)) is not None]
    numbers_b = [n for v in values_b if (n := seed_parse_number(v)) is not None]
    if not numbers_a or not numbers_b:
        return False
    for na in numbers_a:
        for nb in numbers_b:
            scale = max(abs(na), abs(nb), 1.0)
            if abs(na - nb) <= tolerance * scale:
                return True
    return False


def seed_find_compatible_properties(
    source_a: DataSource,
    source_b: DataSource,
    positive_links: Sequence[Link],
    levenshtein_threshold: float = 1.0,
    max_links: int = 100,
    min_support: float = 0.1,
    rng: random.Random | None = None,
) -> list[CompatibleProperty]:
    """Algorithm 2 as shipped before per-entity profiles."""
    links = list(positive_links)
    if rng is not None:
        rng.shuffle(links)
    links = links[:max_links]
    if not links:
        return []

    support: dict[CompatibleProperty, int] = {}
    for uid_a, uid_b in links:
        entity_a = source_a.get(uid_a)
        entity_b = source_b.get(uid_b)
        _analyse_pair(entity_a, entity_b, levenshtein_threshold, support)

    threshold_count = max(1, int(min_support * len(links)))
    ranked = sorted(support.items(), key=lambda item: (-item[1], str(item[0])))
    return [pair for pair, count in ranked if count >= threshold_count]


def _analyse_pair(
    entity_a: Entity,
    entity_b: Entity,
    levenshtein_threshold: float,
    support: dict[CompatibleProperty, int],
) -> None:
    for prop_a in entity_a.property_names():
        values_a = entity_a.values(prop_a)
        for prop_b in entity_b.property_names():
            values_b = entity_b.values(prop_b)
            if _levenshtein_compatible(values_a, values_b, levenshtein_threshold):
                key = CompatibleProperty(prop_a, prop_b, "levenshtein")
                support[key] = support.get(key, 0) + 1
            if _geographic_compatible(values_a, values_b):
                key = CompatibleProperty(prop_a, prop_b, "geographic")
                support[key] = support.get(key, 0) + 1
            if _date_compatible(values_a, values_b):
                key = CompatibleProperty(prop_a, prop_b, "date")
                support[key] = support.get(key, 0) + 1
            elif _numeric_compatible(values_a, values_b):
                key = CompatibleProperty(prop_a, prop_b, "numeric")
                support[key] = support.get(key, 0) + 1
