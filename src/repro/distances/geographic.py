"""Geographic distance in metres (Table 2: ``geographic``).

Points are parsed from the formats that occur in the wild on the Linked
Data sources the paper evaluates on:

* WKT: ``POINT(13.37 52.52)``      (lon lat)
* comma pair: ``52.52,13.37``      (lat, lon)
* space pair: ``52.52 13.37``      (lat lon)

Distances use the haversine great-circle formula on a spherical earth,
which is accurate to ~0.5% — far below any threshold the GP learns.
"""

from __future__ import annotations

import functools
import math
import re
from itertools import repeat
from typing import Sequence

import numpy as np

from repro.distances.base import (
    DistanceMeasure,
    INFINITE_DISTANCE,
    ValueColumn,
    min_over_pairs,
    pairwise_min_column,
)

EARTH_RADIUS_METRES = 6_371_000.0

_WKT_RE = re.compile(
    r"POINT\s*\(\s*([-+]?\d+(?:\.\d+)?)\s+([-+]?\d+(?:\.\d+)?)\s*\)", re.IGNORECASE
)
_PAIR_RE = re.compile(
    r"^\s*([-+]?\d+(?:\.\d+)?)\s*[, ]\s*([-+]?\d+(?:\.\d+)?)\s*$"
)


@functools.lru_cache(maxsize=8192)
def parse_point(value: str) -> tuple[float, float] | None:
    """Parse a value into (lat, lon) degrees, or None.

    Memoised per process: geographic columns, seeding and MultiBlock's
    latitude grid parse the same coordinate strings over and over.
    """
    wkt = _WKT_RE.search(value)
    if wkt is not None:
        lon, lat = float(wkt.group(1)), float(wkt.group(2))
    else:
        pair = _PAIR_RE.match(value)
        if pair is None:
            return None
        lat, lon = float(pair.group(1)), float(pair.group(2))
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        return None
    return lat, lon


def haversine_metres(
    lat_a: float, lon_a: float, lat_b: float, lon_b: float
) -> float:
    """Great-circle distance between two (lat, lon) points in metres."""
    phi_a = math.radians(lat_a)
    phi_b = math.radians(lat_b)
    d_phi = math.radians(lat_b - lat_a)
    d_lambda = math.radians(lon_b - lon_a)
    h = (
        math.sin(d_phi / 2.0) ** 2
        + math.cos(phi_a) * math.cos(phi_b) * math.sin(d_lambda / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_METRES * math.asin(min(1.0, math.sqrt(h)))


def _pair_distance(a: str, b: str) -> float:
    pa = parse_point(a)
    pb = parse_point(b)
    if pa is None or pb is None:
        return INFINITE_DISTANCE
    return haversine_metres(pa[0], pa[1], pb[0], pb[1])


class GeographicDistance(DistanceMeasure):
    """Great-circle distance in metres between coordinate values."""

    name = "geographic"
    threshold_range = (100.0, 50_000.0)
    batch_capable = True

    def evaluate(self, values_a: Sequence[str], values_b: Sequence[str]) -> float:
        return min_over_pairs(values_a, values_b, _pair_distance)

    def evaluate_column(
        self, columns_a: ValueColumn, columns_b: ValueColumn
    ) -> np.ndarray:
        """Batch haversine over arrays: each distinct value parses once
        (through the ``parse_point`` memo) and each distinct value pair
        is measured once. Numpy does only the IEEE-exact steps
        (differences, degree-to-radian products, halving, the products
        and sum of the haversine term, ``sqrt``, the clamp at 1 and the
        final scaling), in the scalar expression's order. ``sin``,
        ``** 2``, ``cos`` and ``asin`` stay the libm calls the scalar
        path makes, mapped over Python floats: numpy's SIMD
        trigonometry and ``square`` may differ from libm in the last
        ulp, and the engine guarantees bit-identical scores between the
        batch and per-pair paths."""
        return pairwise_min_column(columns_a, columns_b, _haversine_kernel)


#: ``math.radians(x)`` is ``x * (pi / 180)`` in one IEEE product.
_DEGREES_TO_RADIANS = math.pi / 180.0

#: Coordinates of an unparseable value: NaN distances, which
#: :func:`~repro.distances.base.pairwise_min_column` skips exactly like
#: the scalar loop skips ``INFINITE_DISTANCE``.
_NO_POINT = (math.nan, math.nan)


def _haversine_kernel(strings, index_a, index_b) -> np.ndarray:
    """:func:`haversine_metres` over the pairs ``(strings[index_a[k]],
    strings[index_b[k]])``, bit for bit, with NaN for unparseable
    values."""
    points = [parse_point(value) or _NO_POINT for value in strings]
    lat, lon = np.array(points, dtype=np.float64).reshape(len(strings), 2).T
    cos_lat = _libm(math.cos, lat * _DEGREES_TO_RADIANS)
    half_phi = ((lat[index_b] - lat[index_a]) * _DEGREES_TO_RADIANS) / 2.0
    half_lambda = ((lon[index_b] - lon[index_a]) * _DEGREES_TO_RADIANS) / 2.0
    sin2_phi, sin2_lambda = _sin_squared(half_phi), _sin_squared(half_lambda)
    h = sin2_phi + (cos_lat[index_a] * cos_lat[index_b]) * sin2_lambda
    root = np.minimum(1.0, np.sqrt(h))
    return (2.0 * EARTH_RADIUS_METRES) * _libm(math.asin, root)


def _libm(function, x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(function, x.tolist()), np.float64, len(x))


def _sin_squared(x: np.ndarray) -> np.ndarray:
    """``math.sin(x) ** 2`` per element: float ``**`` is libm ``pow``,
    which is not always ``sin * sin``."""
    return np.fromiter(
        map(pow, map(math.sin, x.tolist()), repeat(2.0)), np.float64, len(x)
    )
