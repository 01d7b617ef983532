"""Finding compatible property pairs (Algorithm 2, Section 5.1).

The seeding step analyses the entities behind the positive reference
links: for each property pair and each detector distance function, the
lower-cased, tokenised values are compared; if any token pair is within
the detector threshold, the property pair is recorded together with the
distance measure that made it compatible. The GP's random rule
generator then only builds comparisons over these pairs, which shrinks
the search space dramatically on wide schemata (Table 14).

The paper uses Levenshtein with threshold 1 as the only detector; we
additionally detect numeric / geographic / date compatibility (the
"for all distance functions fd" loop of Algorithm 2) so that seeded
comparisons over coordinates and dates carry an appropriate measure.

Each link's two entities are profiled once: every property's values are
tokenised and parsed into points, dates and numbers a single time, and
the detectors then run over those pre-parsed lists for every property
pair. Parsing thus costs O(P_a + P_b) per link instead of O(P_a * P_b);
the detectors, thresholds and support counting are unchanged.
"""

from __future__ import annotations

import datetime as _dt
import random
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.data.entity import Entity
from repro.data.reference_links import Link
from repro.data.source import DataSource
from repro.distances.dates import parse_date
from repro.distances.geographic import haversine_metres, parse_point
from repro.distances.levenshtein import levenshtein
from repro.distances.numeric import parse_number

_TOKEN_CAP = 24  # tokens considered per property value set

# Split on any non-alphanumeric character. Splitting only on whitespace
# would hide URI-wrapped labels ("http://dbpedia.org/resource/Salem")
# from the compatibility check, and the seeding would then never offer
# the label property to the learner.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class CompatibleProperty:
    """A (source property, target property, measure) triple."""

    source_property: str
    target_property: str
    measure: str


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


class _Profile(NamedTuple):
    """One property's values, tokenised and parsed once per entity."""

    tokens: list[str]
    points: list[tuple[float, float]]
    dates: list[_dt.date]
    numbers: list[float]


def _profiles(entity: Entity) -> list[tuple[str, _Profile]]:
    profiles = []
    for prop in entity.property_names():
        values = entity.values(prop)
        profiles.append((prop, _Profile(
            _tokens(values),
            [p for v in values if (p := parse_point(v)) is not None],
            [d for v in values if (d := parse_date(v)) is not None],
            [n for v in values if (n := parse_number(v)) is not None],
        )))
    return profiles


def _levenshtein_compatible(
    tokens_a: Sequence[str], tokens_b: Sequence[str], threshold: float
) -> bool:
    bound = int(threshold)
    for ta in tokens_a:
        for tb in tokens_b:
            if levenshtein(ta, tb, bound=bound) <= threshold:
                return True
    return False


def _geographic_compatible(
    points_a: Sequence[tuple[float, float]],
    points_b: Sequence[tuple[float, float]],
    threshold: float = 100_000.0,
) -> bool:
    return any(
        haversine_metres(pa[0], pa[1], pb[0], pb[1]) <= threshold
        for pa in points_a
        for pb in points_b
    )


def _date_compatible(
    dates_a: Sequence[_dt.date], dates_b: Sequence[_dt.date],
    threshold_days: float = 1000.0,
) -> bool:
    return any(
        abs((da - db).days) <= threshold_days for da in dates_a for db in dates_b
    )


def _numeric_compatible(
    numbers_a: Sequence[float], numbers_b: Sequence[float], tolerance: float = 0.1
) -> bool:
    for na in numbers_a:
        for nb in numbers_b:
            scale = max(abs(na), abs(nb), 1.0)
            if abs(na - nb) <= tolerance * scale:
                return True
    return False


def find_compatible_properties(
    source_a: DataSource,
    source_b: DataSource,
    positive_links: Sequence[Link],
    levenshtein_threshold: float = 1.0,
    max_links: int = 100,
    min_support: float = 0.1,
    rng: random.Random | None = None,
) -> list[CompatibleProperty]:
    """Algorithm 2: property pairs holding similar values.

    ``max_links`` bounds the analysed sample for wide schemata;
    ``min_support`` drops pairs compatible on fewer than that fraction
    of sampled links (spurious single-link token collisions on wide
    schemata would otherwise flood the list). Results are ordered by
    descending support so callers can weight sampling towards strongly
    compatible pairs.
    """
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
    profiles_b = _profiles(entity_b)
    for prop_a, a in _profiles(entity_a):
        for prop_b, b in profiles_b:
            if _levenshtein_compatible(a.tokens, b.tokens, levenshtein_threshold):
                key = CompatibleProperty(prop_a, prop_b, "levenshtein")
                support[key] = support.get(key, 0) + 1
            if _geographic_compatible(a.points, b.points):
                key = CompatibleProperty(prop_a, prop_b, "geographic")
                support[key] = support.get(key, 0) + 1
            if _date_compatible(a.dates, b.dates):
                key = CompatibleProperty(prop_a, prop_b, "date")
                support[key] = support.get(key, 0) + 1
            elif _numeric_compatible(a.numbers, b.numbers):
                key = CompatibleProperty(prop_a, prop_b, "numeric")
                support[key] = support.get(key, 0) + 1
