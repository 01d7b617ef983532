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
pair. Parsing thus costs O(P_a + P_b) per link instead of O(P_a * P_b).
The levenshtein detector runs once for the whole sample: each link's
token pairs within ``bound`` in length join one bounded call of the
batch kernel (:func:`repro.distances.strings.levenshtein_pairs`), and a
property pair gains support from every link where any of its token
pairs is a hit. The detectors, thresholds and support counts are those
of the per-pair loops.
"""

from __future__ import annotations

import datetime as _dt
import random
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.data.entity import Entity
from repro.data.reference_links import Link
from repro.data.source import DataSource
from repro.distances.dates import parse_date
from repro.distances.geographic import haversine_metres, parse_point
from repro.distances.numeric import parse_number
from repro.distances.strings import levenshtein_pairs

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


def _near_token_pairs(
    link: int,
    profiles_a: list[tuple[str, _Profile]],
    profiles_b: list[tuple[str, _Profile]],
    bound: int,
    candidates: dict[tuple[str, str], list[tuple[int, str, str]]],
) -> None:
    """File one link's token pairs that can be within ``bound`` edits
    under ``candidates[(token a, token b)]`` as ``(link, property a,
    property b)``: pairs whose lengths differ by more than ``bound`` are
    never within it, so they are left out."""
    by_length: dict[int, list[tuple[str, str]]] = {}
    for prop_b, profile in profiles_b:
        for token in profile.tokens:
            by_length.setdefault(len(token), []).append((prop_b, token))
    for prop_a, profile in profiles_a:
        for token in profile.tokens:
            for length in range(len(token) - bound, len(token) + bound + 1):
                for prop_b, other in by_length.get(length, ()):
                    candidates.setdefault((token, other), []).append(
                        (link, prop_a, prop_b)
                    )


def _levenshtein_support(
    candidates: dict[tuple[str, str], list[tuple[int, str, str]]],
    threshold: float,
    support: dict[CompatibleProperty, int],
) -> None:
    """Count the levenshtein detector's support over every sampled link
    (``candidates`` as :func:`_near_token_pairs` files them).

    A token pair is a hit when its distance is within ``threshold``, and
    a property pair is compatible on a link when any of its token pairs
    is a hit. The distinct token pairs of all links run through one
    bounded call of the batch kernel.
    """
    ids: dict[str, int] = {}
    for token_a, token_b in candidates:
        ids.setdefault(token_a, len(ids))
        ids.setdefault(token_b, len(ids))
    left, right = (
        np.fromiter((ids[pair[side]] for pair in candidates), np.int64, len(candidates))
        for side in (0, 1)
    )
    hits = levenshtein_pairs(list(ids), left, right, int(threshold)) <= threshold
    compatible = {
        owner
        for owners, hit in zip(candidates.values(), hits.tolist())
        if hit
        for owner in owners
    }
    for _, prop_a, prop_b in compatible:
        key = CompatibleProperty(prop_a, prop_b, "levenshtein")
        support[key] = support.get(key, 0) + 1


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
    candidates: dict[tuple[str, str], list[tuple[int, str, str]]] = {}
    for link, (uid_a, uid_b) in enumerate(links):
        profiles_a = _profiles(source_a.get(uid_a))
        profiles_b = _profiles(source_b.get(uid_b))
        _value_support(profiles_a, profiles_b, support)
        _near_token_pairs(
            link, profiles_a, profiles_b, int(levenshtein_threshold), candidates
        )
    _levenshtein_support(candidates, levenshtein_threshold, support)

    threshold_count = max(1, int(min_support * len(links)))
    ranked = sorted(support.items(), key=lambda item: (-item[1], str(item[0])))
    return [pair for pair, count in ranked if count >= threshold_count]


def _value_support(
    profiles_a: list[tuple[str, _Profile]],
    profiles_b: list[tuple[str, _Profile]],
    support: dict[CompatibleProperty, int],
) -> None:
    """Count one link's support from the geographic, date and numeric
    detectors."""
    for prop_a, a in profiles_a:
        for prop_b, b in profiles_b:
            if _geographic_compatible(a.points, b.points):
                key = CompatibleProperty(prop_a, prop_b, "geographic")
                support[key] = support.get(key, 0) + 1
            if _date_compatible(a.dates, b.dates):
                key = CompatibleProperty(prop_a, prop_b, "date")
                support[key] = support.get(key, 0) + 1
            elif _numeric_compatible(a.numbers, b.numbers):
                key = CompatibleProperty(prop_a, prop_b, "numeric")
                support[key] = support.get(key, 0) + 1
