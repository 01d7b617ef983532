"""Tests for the Levenshtein distance."""

import pytest

from repro.distances.base import INFINITE_DISTANCE
from repro.distances.levenshtein import (
    LevenshteinDistance,
    NormalizedLevenshteinDistance,
    levenshtein,
    normalized_levenshtein,
)


class TestLevenshteinFunction:
    def test_identical_strings(self):
        assert levenshtein("kitten", "kitten") == 0.0

    def test_empty_both(self):
        assert levenshtein("", "") == 0.0

    def test_empty_left(self):
        assert levenshtein("", "abc") == 3.0

    def test_empty_right(self):
        assert levenshtein("abc", "") == 3.0

    def test_classic_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3.0

    def test_single_substitution(self):
        assert levenshtein("cat", "cut") == 1.0

    def test_single_insertion(self):
        assert levenshtein("cat", "cart") == 1.0

    def test_single_deletion(self):
        assert levenshtein("cart", "cat") == 1.0

    def test_symmetry(self):
        assert levenshtein("flaw", "lawn") == levenshtein("lawn", "flaw")

    def test_case_sensitive(self):
        assert levenshtein("Berlin", "berlin") == 1.0

    def test_completely_different(self):
        assert levenshtein("abc", "xyz") == 3.0

    def test_bound_exceeded_returns_above_bound(self):
        value = levenshtein("abcdefgh", "zyxwvuts", bound=2)
        assert value > 2

    def test_bound_respected_when_within(self):
        assert levenshtein("cat", "cut", bound=2) == 1.0

    def test_bound_with_length_difference_shortcut(self):
        assert levenshtein("a", "abcdefgh", bound=3) > 3

    def test_out_of_range_is_exactly_bound_plus_one(self):
        """The clamp contract: every out-of-range result is exactly
        ``bound + 1``, whichever shortcut detects it — that pinned
        value is what lets the batch row-DP kernel stay bit-identical
        to this oracle."""
        # Early-exit path (rows of the DP all exceed the bound).
        assert levenshtein("abcdefgh", "zyxwvuts", bound=2) == 3.0
        # Length-difference prefilter, including empty strings.
        assert levenshtein("a", "abcdefgh", bound=3) == 4.0
        assert levenshtein("", "abc", bound=1) == 2.0
        # Full DP finishing just above the bound (no early exit: the
        # final row still has an in-bound cell, only the corner is out).
        assert levenshtein("ab", "ba", bound=1) == 2.0
        assert levenshtein("abcdefghij", "jihgfedcba", bound=5) == 6.0
        # In-range distances stay exact.
        assert levenshtein("kitten", "sitting", bound=3) == 3.0

    def test_unicode(self):
        assert levenshtein("café", "cafe") == 1.0


class TestNormalizedLevenshtein:
    def test_identical(self):
        assert normalized_levenshtein("same", "same") == 0.0

    def test_empty_both(self):
        assert normalized_levenshtein("", "") == 0.0

    def test_range_upper(self):
        assert normalized_levenshtein("abc", "xyz") == 1.0

    def test_scaled_by_longest(self):
        # distance 1 over max length 4
        assert normalized_levenshtein("cats", "cat") == pytest.approx(0.25)


class TestLevenshteinMeasure:
    def test_min_over_value_sets(self):
        measure = LevenshteinDistance()
        assert measure.evaluate(("alpha", "beta"), ("betta",)) == 1.0

    def test_empty_values_are_infinite(self):
        measure = LevenshteinDistance()
        assert measure.evaluate((), ("x",)) == INFINITE_DISTANCE
        assert measure.evaluate(("x",), ()) == INFINITE_DISTANCE

    def test_exact_match_short_circuits(self):
        measure = LevenshteinDistance()
        assert measure.evaluate(("a", "b"), ("b",)) == 0.0

    def test_max_bound_caps_reported_distance(self):
        measure = LevenshteinDistance(max_bound=3)
        distance = measure.evaluate(("abcdefghij",), ("zyxwvutsrq",))
        assert distance == 4.0  # bound + 1

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            LevenshteinDistance(max_bound=0)

    def test_threshold_range_is_positive(self):
        low, high = LevenshteinDistance.threshold_range
        assert 0 <= low < high

    def test_normalized_measure_on_sets(self):
        measure = NormalizedLevenshteinDistance()
        assert measure.evaluate(("cats",), ("cat",)) == pytest.approx(0.25)
