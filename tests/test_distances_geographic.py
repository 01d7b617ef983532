"""Tests for the geographic distance."""

import math
import random

import numpy as np
import pytest

from repro.distances.base import INFINITE_DISTANCE
from repro.distances.geographic import (
    GeographicDistance,
    _haversine_kernel,
    haversine_metres,
    parse_point,
)


class TestParsePoint:
    def test_wkt_lon_lat_order(self):
        assert parse_point("POINT(13.4050 52.5200)") == (52.52, 13.405)

    def test_wkt_case_insensitive(self):
        assert parse_point("point(0 0)") == (0.0, 0.0)

    def test_comma_pair_lat_lon(self):
        assert parse_point("52.52,13.405") == (52.52, 13.405)

    def test_space_pair(self):
        assert parse_point("52.52 13.405") == (52.52, 13.405)

    def test_negative_coordinates(self):
        assert parse_point("-33.86,151.21") == (-33.86, 151.21)

    def test_out_of_range_latitude(self):
        assert parse_point("95.0,10.0") is None

    def test_out_of_range_longitude(self):
        assert parse_point("10.0,190.0") is None

    def test_garbage(self):
        assert parse_point("not a point") is None

    def test_plain_number_is_not_a_point(self):
        assert parse_point("42") is None

    def test_repeated_calls_hit_the_memo(self):
        parse_point.cache_clear()
        parse_point("52.52,13.405")
        parse_point("52.52,13.405")
        info = parse_point.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert info.maxsize == 8192


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_metres(52.52, 13.405, 52.52, 13.405) == 0.0

    def test_berlin_hamburg_about_255km(self):
        distance = haversine_metres(52.52, 13.405, 53.5511, 9.9937)
        assert 240_000 < distance < 270_000

    def test_equator_degree_about_111km(self):
        distance = haversine_metres(0.0, 0.0, 0.0, 1.0)
        assert 110_000 < distance < 112_000

    def test_symmetry(self):
        d1 = haversine_metres(10, 20, 30, 40)
        d2 = haversine_metres(30, 40, 10, 20)
        assert d1 == pytest.approx(d2)


class TestGeographicDistance:
    def test_mixed_formats(self):
        measure = GeographicDistance()
        distance = measure.evaluate(
            ("52.5200,13.4050",), ("POINT(13.4050 52.5200)",)
        )
        assert distance == pytest.approx(0.0, abs=1.0)

    def test_unparseable_infinite(self):
        measure = GeographicDistance()
        assert measure.evaluate(("somewhere",), ("52.5,13.4",)) == INFINITE_DISTANCE

    def test_min_over_sets(self):
        measure = GeographicDistance()
        distance = measure.evaluate(
            ("0.0,0.0", "52.52,13.405"), ("52.53,13.405",)
        )
        assert distance < 2000


#: Edge-case coordinates for the batch kernel: both poles, longitude
#: +-180, signed zeros, one point in two notations (an exact 0.0),
#: separations under a micro-degree, and unparseable strings.
_EDGE_POINTS = (
    "90,0",
    "-90,0",
    "90,180",
    "-90,-180",
    "0,180",
    "0,-180",
    "45.5,180",
    "45.5,-180",
    "0.0,0.0",
    "-0.0,-0.0",
    "0.0,-0.0",
    "52.52,13.405",
    "POINT(13.405 52.52)",
    "52.5200001,13.405",
    "52.52,13.4050001",
    "52.52000000001,13.40499999999",
    "somewhere",
    "95.0,10.0",
    "",
)


def _random_points(count: int) -> list[str]:
    rng = random.Random(20121)
    return [
        f"{rng.uniform(-90.0, 90.0):.6f},{rng.uniform(-180.0, 180.0):.6f}"
        for _ in range(count)
    ]


def _scalar(point_a, point_b) -> float:
    if point_a is None or point_b is None:
        return INFINITE_DISTANCE
    return haversine_metres(*point_a, *point_b)


class TestHaversineKernel:
    """The batch kernel against :func:`haversine_metres`, bit for bit,
    after the column driver's clamp at ``INFINITE_DISTANCE`` (which
    turns the kernel's NaN for unparseable values into the sentinel)."""

    def test_bit_identical_to_scalar(self):
        strings = [*_EDGE_POINTS, *_random_points(150)]
        index_a, index_b = np.divmod(np.arange(len(strings) ** 2), len(strings))
        batch = np.fmin(
            _haversine_kernel(strings, index_a, index_b), INFINITE_DISTANCE
        )
        points = [parse_point(value) for value in strings]
        expected = np.array(
            [
                _scalar(points[a], points[b])
                for a, b in zip(index_a.tolist(), index_b.tolist())
            ],
            dtype=np.float64,
        )
        assert batch.tobytes() == expected.tobytes()
        # ``** 2`` is libm ``pow``, which is not always ``sin * sin``:
        # the draw must hold half-angles where the two differ, or a
        # switch to ``np.square`` could pass unnoticed.
        half_angles = [
            math.radians(pb[axis] - pa[axis]) / 2.0
            for pa in points
            if pa is not None
            for pb in points
            if pb is not None
            for axis in (0, 1)
        ]
        assert any(
            math.sin(x) ** 2 != math.sin(x) * math.sin(x) for x in half_angles
        )

    def test_identical_points_are_exactly_zero(self):
        strings = ["52.52,13.405", "POINT(13.405 52.52)", "-0.0,-0.0", "0,0"]
        out = _haversine_kernel(strings, np.array([0, 0, 2]), np.array([0, 1, 3]))
        assert out.tolist() == [0.0, 0.0, 0.0]
        assert all(math.copysign(1.0, d) == 1.0 for d in out.tolist())

    def test_unparseable_values_are_nan(self):
        out = _haversine_kernel(
            ["somewhere", "52.5,13.4"], np.array([0, 1]), np.array([1, 0])
        )
        assert np.isnan(out).all()

    def test_column_matches_scalar_evaluate(self):
        measure = GeographicDistance()
        columns_a = [(value,) for value in _EDGE_POINTS] + [("somewhere", "0,1")]
        columns_b = [(value,) for value in reversed(_EDGE_POINTS)] + [("0,1.5",)]
        batch = measure.evaluate_column(columns_a, columns_b)
        expected = np.array(
            [
                measure.evaluate(a, b) if a and b else INFINITE_DISTANCE
                for a, b in zip(columns_a, columns_b)
            ],
            dtype=np.float64,
        )
        assert batch.tobytes() == expected.tobytes()
