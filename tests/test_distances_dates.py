"""Tests for the date distance."""

import datetime
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# The frozen unmemoised parser lives with the benchmarks.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from _seed_compatible import seed_parse_date  # noqa: E402

from repro.datasets import DATASET_NAMES, load_dataset  # noqa: E402
from repro.distances.base import INFINITE_DISTANCE  # noqa: E402
from repro.distances.dates import DateDistance, parse_date  # noqa: E402

_FORMATS = (
    "%Y-%m-%d", "%Y/%m/%d", "%d.%m.%Y", "%d/%m/%Y", "%m/%d/%Y",
    "%B %d, %Y", "%d %B %Y", "%b %d, %Y",
)


class TestParseDate:
    def test_iso(self):
        assert parse_date("1994-05-20") == datetime.date(1994, 5, 20)

    def test_slash(self):
        assert parse_date("1994/05/20") == datetime.date(1994, 5, 20)

    def test_german_dotted(self):
        assert parse_date("20.05.1994") == datetime.date(1994, 5, 20)

    def test_long_month_name(self):
        assert parse_date("May 20, 1994") == datetime.date(1994, 5, 20)

    def test_bare_year_resolves_to_january_first(self):
        assert parse_date("1994") == datetime.date(1994, 1, 1)

    def test_whitespace_tolerated(self):
        assert parse_date("  1994  ") == datetime.date(1994, 1, 1)

    def test_garbage(self):
        assert parse_date("not a date") is None

    def test_year_zero_rejected(self):
        assert parse_date("0000") is None


class TestFrozenParity:
    """The memo and the four-digit prefilter must return exactly what
    the frozen eight-format parser returns, on first and repeated
    calls."""

    @pytest.mark.parametrize("text", [
        "\u0661\u0669\u0669\u0664",  # Arabic-Indic "1994"
        "\u0661\u0669\u0669\u0664-05-20",
        "1994-02-30",
        "0000",
        " May 20, 1994 ",
        "12345",
        "DB00001",
        "",
        "   ",
        "19 94",
    ])
    def test_targeted_inputs(self, text):
        expected = seed_parse_date(text)
        assert parse_date(text) == expected
        assert parse_date(text) == expected  # memo hit

    def test_unicode_digit_year_parses(self):
        assert parse_date("\u0661\u0669\u0669\u0664") == datetime.date(1994, 1, 1)

    def test_repeated_calls_hit_the_memo(self):
        parse_date.cache_clear()
        parse_date("1994-05-20")
        parse_date("1994-05-20")
        info = parse_date.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert info.maxsize == 8192

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(max_size=20),
        st.text(alphabet="0123456789-/., \u0661\u0669", max_size=14),
        st.builds(
            lambda date, fmt, pad: pad + date.strftime(fmt) + pad,
            st.dates(min_value=datetime.date(1000, 1, 1)),
            st.sampled_from(_FORMATS),
            st.sampled_from(["", " ", "\t"]),
        ),
    ))
    def test_matches_frozen_parser(self, text):
        expected = seed_parse_date(text)
        assert parse_date(text) == expected
        assert parse_date(text) == expected  # memo hit


class TestSeparatorFilter:
    """``parse_date`` skips each format with a literal separator
    (``-``, ``/``, ``.``, ``,``) its text lacks. The filtered loop must
    agree with the unfiltered one of the frozen parser everywhere."""

    def test_every_bundled_dataset_value(self):
        values: set[str] = set()
        for name in DATASET_NAMES:
            dataset = load_dataset(name, seed=0, scale=0.05)
            for source in (dataset.source_a, dataset.source_b):
                for entity in source.entities():
                    for property_values in entity.properties.values():
                        values.update(property_values)
        # Text without four digits never reaches the format loop (see
        # TestFrozenParity), so only the rest can tell the loops apart.
        unmemoised = parse_date.__wrapped__
        assert [
            value
            for value in sorted(values)
            if re.search(r"\d{4}", value)
            and unmemoised(value) != seed_parse_date(value)
        ] == []

    @settings(max_examples=300, deadline=None)
    @given(
        date=st.dates(min_value=datetime.date(1000, 1, 1)),
        fmt=st.sampled_from(_FORMATS),
        replacements=st.lists(
            st.sampled_from(["-", "/", ".", ",", " ", "\t", ""]),
            min_size=5,
            max_size=5,
        ),
    )
    def test_dates_with_swapped_or_missing_separators(self, date, fmt, replacements):
        # A tab keeps a format's space: strptime reads it as \s+.
        text = date.strftime(fmt).translate(str.maketrans(
            {sep: new for sep, new in zip("-/., ", replacements)}
        ))
        assert parse_date.__wrapped__(text) == seed_parse_date(text)


class TestDateDistance:
    def test_same_date_zero(self):
        assert DateDistance().evaluate(("1994-05-20",), ("20.05.1994",)) == 0.0

    def test_days_difference(self):
        assert DateDistance().evaluate(("1994-05-20",), ("1994-05-25",)) == 5.0

    def test_year_vs_full_date(self):
        # 1994 -> Jan 1; May 20 is 139 days later.
        assert DateDistance().evaluate(("1994",), ("1994-05-20",)) == 139.0

    def test_unparseable_infinite(self):
        assert DateDistance().evaluate(("soon",), ("1994",)) == INFINITE_DISTANCE

    def test_min_over_sets(self):
        distance = DateDistance().evaluate(
            ("1990-01-01", "1994-05-20"), ("1994-05-21",)
        )
        assert distance == 1.0
