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

import math
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

EARTH_RADIUS_METRES = 6_371_000.0

_WKT_RE = re.compile(
    r"POINT\s*\(\s*([-+]?\d+(?:\.\d+)?)\s+([-+]?\d+(?:\.\d+)?)\s*\)", re.IGNORECASE
)
_PAIR_RE = re.compile(
    r"^\s*([-+]?\d+(?:\.\d+)?)\s*[, ]\s*([-+]?\d+(?:\.\d+)?)\s*$"
)


def parse_point(value: str) -> tuple[float, float] | None:
    """Parse a value into (lat, lon) degrees, or None."""
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


def _parsed_pair_distance(
    point_a: tuple[float, float] | None, point_b: tuple[float, float] | None
) -> float:
    if point_a is None or point_b is None:
        return INFINITE_DISTANCE
    return haversine_metres(point_a[0], point_a[1], point_b[0], point_b[1])


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
        """Batch haversine: each distinct value is regex-parsed once per
        column and each distinct value pair measured once. The
        trigonometry stays on scalar ``math`` functions: numpy's SIMD
        ``sin``/``cos`` loops may differ from libm in the last ulp, and
        the engine guarantees bit-identical scores between the batch
        and per-pair paths."""
        return pairwise_min_column(columns_a, columns_b, _haversine_kernel)


def _haversine_kernel(strings, index_a, index_b) -> np.ndarray:
    points = list(map(parse_point, strings))
    return np.fromiter(
        (
            _parsed_pair_distance(points[a], points[b])
            for a, b in zip(index_a.tolist(), index_b.tolist())
        ),
        np.float64,
        len(index_a),
    )
