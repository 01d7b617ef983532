"""Registry mapping measure names to :class:`DistanceMeasure` instances.

The GP references measures by name (rules stay JSON-serialisable);
evaluation resolves names through a registry. ``default_registry()``
contains every measure from Table 2 plus the baseline extras. Users can
register their own measures, which then become available to learning
and execution alike (see ``examples/custom_operators.py``).

Every built-in measure except softJaccard and mongeElkan scores whole
columns through a vectorized kernel (:mod:`repro.distances.strings`,
:func:`repro.distances.base.pairwise_min_column`); a registered measure
that only defines ``evaluate`` inherits the deduplicated per-pair
fallback. Both paths are bit-identical to ``evaluate``.
"""

from __future__ import annotations

from typing import Iterator

from repro.distances.base import DistanceMeasure
from repro.distances.dates import DateDistance
from repro.distances.equality import EqualityDistance
from repro.distances.geographic import GeographicDistance
from repro.distances.jaccard import JaccardDistance
from repro.distances.jaro import JaroDistance, JaroWinklerDistance
from repro.distances.levenshtein import (
    LevenshteinDistance,
    NormalizedLevenshteinDistance,
)
from repro.distances.numeric import NumericDistance
from repro.distances.qgrams import QGramsDistance, SoftJaccardDistance
from repro.distances.tokenbased import (
    DiceDistance,
    MongeElkanDistance,
    OverlapDistance,
    RelativeNumericDistance,
)


class DistanceRegistry:
    """Name -> measure lookup with registration support."""

    def __init__(self) -> None:
        self._measures: dict[str, DistanceMeasure] = {}

    def register(self, measure: DistanceMeasure) -> None:
        """Add a measure under its ``name``; re-registering overwrites."""
        if not measure.name or measure.name == "abstract":
            raise ValueError("distance measure must define a concrete name")
        self._measures[measure.name] = measure

    def get(self, name: str) -> DistanceMeasure:
        try:
            return self._measures[name]
        except KeyError:
            known = ", ".join(sorted(self._measures))
            raise KeyError(f"unknown distance measure {name!r}; known: {known}")

    def __contains__(self, name: str) -> bool:
        return name in self._measures

    def __iter__(self) -> Iterator[str]:
        return iter(self._measures)

    def names(self) -> list[str]:
        return sorted(self._measures)


_DEFAULT: DistanceRegistry | None = None


def default_registry() -> DistanceRegistry:
    """The process-wide registry with all built-in measures."""
    global _DEFAULT
    if _DEFAULT is None:
        registry = DistanceRegistry()
        for measure in (
            LevenshteinDistance(),
            NormalizedLevenshteinDistance(),
            JaccardDistance(),
            NumericDistance(),
            GeographicDistance(),
            DateDistance(),
            JaroDistance(),
            JaroWinklerDistance(),
            EqualityDistance(),
            DiceDistance(),
            OverlapDistance(),
            MongeElkanDistance(),
            RelativeNumericDistance(),
            QGramsDistance(),
            SoftJaccardDistance(),
        ):
            registry.register(measure)
        _DEFAULT = registry
    return _DEFAULT


def get_measure(name: str) -> DistanceMeasure:
    """Convenience lookup in the default registry."""
    return default_registry().get(name)


def measure_names() -> list[str]:
    """Names of all built-in measures."""
    return default_registry().names()
