"""Batch distance-kernel parity: ``evaluate_column`` must be
bit-identical to the per-pair ``evaluate`` loop for every measure —
vectorized kernels and the generic fallback alike, on plain lists and
on the engine's per-entity ``IndexedColumn`` — including empty value
sets (``INFINITE_DISTANCE`` propagation), unparseable values,
multi-valued properties, tuples shared across rows and sides, and the
min-over-pairs budget."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nodes import ComparisonNode, PropertyNode
from repro.data.entity import Entity
from repro.distances.base import (
    INFINITE_DISTANCE,
    MAX_PAIRS,
    DistanceMeasure,
    IndexedColumn,
    fallback_column,
    min_over_pairs,
    pairwise_min_column,
)
from repro.distances.registry import DistanceRegistry, default_registry
from repro.distances.strings import StringKernelMemo
from repro.engine import EngineSession
from repro.engine.kernels import threshold_scores

_REGISTRY = default_registry()

#: Every measure with a vectorized kernel (PR 2 families plus the
#: string families).
BATCH_CAPABLE = (
    "numeric",
    "date",
    "equality",
    "geographic",
    "qgrams",
    "levenshtein",
    "normalizedLevenshtein",
    "jaro",
    "jaroWinkler",
    "jaccard",
    "dice",
    "overlap",
)

#: Measures still on the generic per-pair column path.
FALLBACK = ("softJaccard", "mongeElkan", "relativeNumeric")

#: Measures whose columns run on the string kernels.
STRING_MEASURES = (
    "levenshtein",
    "normalizedLevenshtein",
    "jaro",
    "jaroWinkler",
    "jaccard",
    "dice",
    "overlap",
    "equality",
)

#: The set-algebra measures: the string measures that take the
#: session's ``StringKernelMemo`` (its token-set cache).
SET_MEASURES = ("jaccard", "dice", "overlap", "equality")

#: Measures lifting a pair distance through ``min_over_pairs`` — the
#: ones whose columns run on ``pairwise_min_column``.
MIN_OVER_PAIRS = (
    "numeric",
    "date",
    "geographic",
    "qgrams",
    "levenshtein",
    "normalizedLevenshtein",
    "jaro",
    "jaroWinkler",
)

#: Value pools chosen to hit every parse branch of every measure:
#: numbers with both decimal separators, dates in several formats, bare
#: years, WKT and lat/lon coordinates, plain words, and garbage.
_VALUES = (
    "3.5",
    "3,5 mg",
    "-17",
    "1e3",
    "1999-01-01",
    "May 6, 2000",
    "2000/05/06",
    "1987",
    "POINT(13.37 52.52)",
    "52.52,13.37",
    "48.13 11.57",
    "Berlin",
    "berlin city",
    "x",
    "not a number",
    "",
    "2000000000000",  # 13 digits: |a-b| exceeds the sentinel unclamped
    "9e999",  # parses to float('inf')
)


def _column_strategy(values):
    """Two aligned columns whose rows index one pool of six value
    tuples, the last of them empty: the same tuple object recurs across
    rows and sits on both sides (as dedup datasets produce), some rows
    have values on one side only, and value sets run long enough (up to
    20 values) to cross the 256-pair budget of ``min_over_pairs``.
    Draws ``(pool, index_a, index_b)``; :func:`_forms` builds the
    columns."""
    value_set = st.lists(st.sampled_from(values), max_size=20).map(tuple)
    slot = st.integers(min_value=0, max_value=5)
    return st.tuples(
        st.lists(value_set, min_size=5, max_size=5),
        st.lists(st.tuples(slot, slot), max_size=8),
    ).map(
        lambda drawn: (
            [*drawn[0], ()],
            [i for i, _ in drawn[1]],
            [j for _, j in drawn[1]],
        )
    )


def _forms(drawn):
    """A drawn column pair in both forms a measure receives: gathered
    lists, and the engine's ``IndexedColumn`` over the pool."""
    pool, index_a, index_b = drawn
    gathered = ([pool[i] for i in index_a], [pool[j] for j in index_b])
    return gathered, (IndexedColumn(pool, index_a), IndexedColumn(pool, index_b))


def _reference(measure, columns_a, columns_b):
    """The per-pair loop the engine used before the batch API."""
    out = np.full(len(columns_a), INFINITE_DISTANCE, dtype=np.float64)
    for i, (values_a, values_b) in enumerate(zip(columns_a, columns_b)):
        if values_a and values_b:
            out[i] = measure.evaluate(values_a, values_b)
    return out


@pytest.mark.parametrize("name", BATCH_CAPABLE)
def test_batch_capable_flag(name):
    assert _REGISTRY.get(name).batch_capable


@pytest.mark.parametrize("name", FALLBACK)
def test_fallback_measures_not_flagged(name):
    assert not _REGISTRY.get(name).batch_capable


@pytest.mark.parametrize("name", BATCH_CAPABLE + FALLBACK)
@given(columns=_column_strategy(_VALUES))
@settings(max_examples=40, deadline=None)
def test_evaluate_column_matches_per_pair(name, columns):
    measure = _REGISTRY.get(name)
    gathered, indexed = _forms(columns)
    expected = _reference(measure, *gathered)
    for columns_a, columns_b in (gathered, indexed):
        batch = measure.evaluate_column(columns_a, columns_b)
        assert batch.dtype == np.float64
        # Bit-identical, not approximately equal: the engine caches
        # these columns and guarantees byte-identical scores across
        # code paths.
        np.testing.assert_array_equal(batch, expected)


@pytest.mark.parametrize("name", BATCH_CAPABLE + FALLBACK)
def test_empty_value_sets_propagate_infinite(name):
    measure = _REGISTRY.get(name)
    columns_a = [(), ("3.5",), ()]
    columns_b = [("3.5",), (), ()]
    out = measure.evaluate_column(columns_a, columns_b)
    assert (out == INFINITE_DISTANCE).all()


@pytest.mark.parametrize("name", BATCH_CAPABLE + FALLBACK)
def test_empty_columns(name):
    out = _REGISTRY.get(name).evaluate_column([], [])
    assert out.shape == (0,)
    assert out.dtype == np.float64


def test_huge_differences_clamp_to_sentinel():
    """The scalar min-over-pairs loop never returns more than the
    INFINITE_DISTANCE sentinel it starts from and skips NaN; the batch
    column must clamp and skip identically (13-digit values, inf
    parses, inf - inf on both sides), singleton and multi-valued."""
    measure = _REGISTRY.get("numeric")
    singletons = (
        [("2000000000000",), ("9e999",), ("1",), ("9e999",)],
        [("0",), ("1",), ("9e999",), ("9e999",)],
    )
    multi_valued = (
        [("2000000000000", "x"), ("9e999", "x"), ("9e999", "5")],
        [("0",), ("9e999",), ("9e999", "7")],
    )
    for columns_a, columns_b in (singletons, multi_valued):
        batch = measure.evaluate_column(columns_a, columns_b)
        np.testing.assert_array_equal(
            batch, _reference(measure, columns_a, columns_b)
        )
        assert (batch[:2] == INFINITE_DISTANCE).all()
    assert measure.evaluate_column(*multi_valued)[2] == 2.0


#: One distinct value per index, per min-over-pairs measure.
_BUDGET_VALUES = {
    "numeric": str,
    "date": lambda i: str(1900 + i),
    "geographic": lambda i: f"{i * 0.5},10.0",
}


def test_min_over_pairs_budget_parity():
    """Value sets big enough to exhaust the 256-pair budget must agree
    between batch and scalar paths for every min-over-pairs measure:
    the only exact match sits at pair 1599, past the budget, so a
    column that ignored the cut would report a smaller distance."""
    for name in MIN_OVER_PAIRS:
        measure = _REGISTRY.get(name)
        value = _BUDGET_VALUES.get(name, lambda i: f"value {i:03d}")
        values_a = tuple(value(i) for i in range(40))
        values_b = tuple(value(100 + j) for j in range(39)) + (value(39),)
        batch = measure.evaluate_column([values_a], [values_b])
        assert batch[0] == measure.evaluate(values_a, values_b), name
        assert 0.0 < batch[0] < INFINITE_DISTANCE, name


#: Pair distances for the driver test: zero, NaN, infinity, values
#: above the sentinel and ordinary ones (distances are non-negative by
#: contract, so the scalar loop's early exit at 0.0 is a plain minimum).
_PAIR_DISTANCES = (0.0, 0.5, 3.0, math.nan, math.inf, INFINITE_DISTANCE, 2e12)


@given(
    columns=_column_strategy(tuple("abcdefgh")),
    table=st.lists(st.sampled_from(_PAIR_DISTANCES), min_size=64, max_size=64),
)
@settings(max_examples=100, deadline=None)
def test_pairwise_min_column_matches_min_over_pairs(columns, table):
    """The driver reduces exactly like the scalar loop: NaN skipped,
    values at or above the sentinel clamped, the budget honoured, and
    the kernel only ever asked about distinct pairs of strings that a
    row with values on both sides references — on gathered lists and
    on indexed columns alike."""
    gathered, indexed = _forms(columns)
    columns_a, columns_b = gathered
    kept = {value for a, b in zip(*gathered) if a and b for value in (*a, *b)}

    def pair_distance(a, b):
        return table[(ord(a) - 97) * 8 + ord(b) - 97]

    seen = []

    def kernel(strings, index_a, index_b):
        pairs = list(zip(index_a.tolist(), index_b.tolist()))
        assert len(set(pairs)) == len(pairs)
        assert len(set(strings)) == len(strings)
        assert set(strings) <= kept
        seen.extend(pairs)
        return np.array(
            [pair_distance(strings[a], strings[b]) for a, b in pairs],
            dtype=np.float64,
        )

    expected = [
        min_over_pairs(a, b, pair_distance) if a and b else INFINITE_DISTANCE
        for a, b in zip(columns_a, columns_b)
    ]
    for form in (gathered, indexed):
        seen.clear()
        batch = pairwise_min_column(*form, kernel)
        np.testing.assert_array_equal(batch, np.array(expected, dtype=np.float64))
        assert len(seen) <= sum(
            min(len(a) * len(b), MAX_PAIRS) for a, b in zip(columns_a, columns_b)
        )


def test_column_length_mismatch_rejected():
    measure = _REGISTRY.get("numeric")
    with pytest.raises(ValueError, match="length mismatch"):
        measure.evaluate_column([("1",)], [])
    with pytest.raises(ValueError, match="length mismatch"):
        fallback_column(measure.evaluate, [("1",)], [])


def _text(length: int) -> str:
    """Deterministic lowercase text of ``length`` characters."""
    return "".join(chr(97 + (i * 7 + length) % 26) for i in range(length))


def _one_edit(value: str) -> str:
    """``value`` with its middle character substituted."""
    middle = len(value) // 2
    return value[:middle] + "#" + value[middle + 1 :]


#: Strings around the 64- and 128-bit word sizes and beyond, each with
#: a one-edit near-duplicate.
_LONG_VALUES = tuple(
    value
    for length in (63, 64, 65, 127, 128, 129, 200)
    for value in (_text(length), _one_edit(_text(length)))
)

#: Adversarial string pool for the string-kernel parity tests: empty
#: strings, non-ASCII and combining marks (precomposed e-acute vs
#: e + U+0301 must stay distinct characters), astral-plane code points,
#: strings far longer than the levenshtein band, near-duplicates that
#: stress the bag bound and transposition paths, lengths on both sides
#: of machine-word sizes, and an alphabet wider than one byte of codes.
_STRING_VALUES = (
    "",
    "a",
    "ab",
    "café",          # precomposed e-acute
    "café",          # e + combining acute: different code points
    "\U0001F600 emoji",
    "Berlin",
    "berlin",
    "berlin city centre",
    "x" * 40,              # far beyond the default band (max_bound=11)
    "x" * 39 + "y",
    "kitten",
    "sitting",
    "the quick brown fox jumps over the lazy dog",
    "quick the fox brown jumps lazy the over dog",
    *_LONG_VALUES,
    "".join(map(chr, range(0x100, 0x100 + 300))),  # 300 distinct code points
)


#: Enough distinct tokens to push a memo's token space past the bitset
#: width of the set-algebra driver.
_FILLER_TOKENS = tuple(f"filler{i}" for i in range(5000))


@pytest.mark.parametrize("name", STRING_MEASURES)
@given(columns=_column_strategy(_STRING_VALUES))
@settings(max_examples=40, deadline=None)
def test_string_kernels_match_scalar_on_all_backends(name, columns):
    """Batch/scalar bit-parity for the string kernels over adversarial
    inputs, gathered then indexed; the set measures also run with the
    session memo, so their second call reads a warm token table. The
    memo starts with more than 4096 interned tokens, which moves the
    set measures from packed bitsets to the sorted-key intersection
    pass; the plain call keeps the bitsets."""
    gathered, indexed = _forms(columns)
    measure = _REGISTRY.get(name)
    expected = _reference(measure, *gathered)
    memo = StringKernelMemo()
    memo.token_sets([_FILLER_TOKENS])
    plain = measure.evaluate_column(*gathered)
    np.testing.assert_array_equal(plain, expected)
    extra = {"memo": memo} if measure.memo_capable else {}
    for columns_a, columns_b in (gathered, indexed):
        column = measure.evaluate_column(columns_a, columns_b, **extra)
        np.testing.assert_array_equal(column, expected)


def test_pair_kernels_accept_repeated_strings():
    """The column driver hands the string kernels distinct strings, but
    the kernels stay exact without that promise: equal strings at
    different indexes (empty ones included) score like the scalar."""
    from repro.distances.jaro import jaro_similarity, jaro_winkler_similarity
    from repro.distances.levenshtein import levenshtein
    from repro.distances.strings import jaro_pairs, levenshtein_pairs

    strings = ["", "kitten", "", "kitten", "sitting"]
    index_a = np.array([0, 1, 0, 1, 4, 2])
    index_b = np.array([2, 3, 1, 4, 3, 0])
    pairs = [(strings[a], strings[b]) for a, b in zip(index_a, index_b)]
    np.testing.assert_array_equal(
        levenshtein_pairs(strings, index_a, index_b, bound=3),
        [levenshtein(a, b, bound=3) for a, b in pairs],
    )
    np.testing.assert_array_equal(
        jaro_pairs(strings, index_a, index_b),
        [jaro_similarity(a, b) for a, b in pairs],
    )
    np.testing.assert_array_equal(
        jaro_pairs(strings, index_a, index_b, prefix_scale=0.1),
        [jaro_winkler_similarity(a, b) for a, b in pairs],
    )


def _scalar_pairs(strings, index_a, index_b, bound):
    from repro.distances.levenshtein import levenshtein

    return [
        levenshtein(strings[a], strings[b], bound=bound)
        for a, b in zip(index_a.tolist(), index_b.tolist())
    ]


@given(
    strings=st.lists(st.text(alphabet="abc", max_size=150), min_size=1, max_size=6),
    pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10),
)
@settings(max_examples=50, deadline=None)
def test_levenshtein_pairs_match_scalar(strings, pairs):
    """The lane-packed kernel is exactly the scalar ``levenshtein``,
    clamp included, unbounded and at bounds 0, 1 and 11, over strings of
    0-150 characters from a three-letter alphabet (so near and far
    pairs, equal strings and empty ones all occur)."""
    from repro.distances.strings import levenshtein_pairs

    index_a = np.array([a % len(strings) for a, _ in pairs], dtype=np.int64)
    index_b = np.array([b % len(strings) for _, b in pairs], dtype=np.int64)
    for bound in (None, 0, 1, 11):
        np.testing.assert_array_equal(
            levenshtein_pairs(strings, index_a, index_b, bound),
            _scalar_pairs(strings, index_a, index_b, bound),
        )


def test_levenshtein_pairs_across_small_chunks(monkeypatch):
    """A tiny cell budget cuts one call into many lane chunks, match
    masks into many blocks of text positions and the bag bound into
    many steps; the distances stay exactly the scalar ones."""
    from repro.distances import strings as kernels

    strings = [*_LONG_VALUES, "kitten", "sitting", "", "a", _text(9)]
    count = len(strings)
    index_a = np.repeat(np.arange(count), count)
    index_b = np.tile(np.arange(count), count)
    chunks = []
    lane_chunk = kernels._lane_chunk

    def counting(*args):
        chunks.append(args[4].size)
        return lane_chunk(*args)

    monkeypatch.setattr(kernels, "_LANE_BUDGET", 512)
    monkeypatch.setattr(kernels, "_lane_chunk", counting)
    for bound in (None, 11):
        chunks.clear()
        np.testing.assert_array_equal(
            kernels.levenshtein_pairs(strings, index_a, index_b, bound),
            _scalar_pairs(strings, index_a, index_b, bound),
        )
        assert len(chunks) > 3


def test_levenshtein_pairs_wide_alphabet_stays_within_budget(monkeypatch):
    """Three-character strings over a 2,000-character alphabet: the
    match-mask tables and bag histograms grow with the alphabet, so the
    cell budget must shrink chunks and blocks rather than let them grow.
    The call's peak allocation stays within a few budgets (the inputs,
    code pool and index arrays, take about 100 KB of it), and the
    distances stay exactly the scalar ones."""
    import tracemalloc

    from repro.distances import strings as kernels

    rng = np.random.default_rng(11)
    alphabet = [chr(0x4E00 + k) for k in range(2000)]
    strings = [
        "".join(alphabet[c] for c in rng.integers(0, 2000, 3)) for _ in range(400)
    ]
    strings += [value[0] + alphabet[0] + value[2] for value in strings[:100]]
    count = len(strings)
    index_a = np.arange(count)
    index_b = np.concatenate([np.arange(400, count), rng.permutation(count)[:400]])
    budget = 1 << 16
    monkeypatch.setattr(kernels, "_LANE_BUDGET", budget)
    for bound in (None, 1):
        tracemalloc.start()
        try:
            distances = kernels.levenshtein_pairs(strings, index_a, index_b, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * budget
        np.testing.assert_array_equal(
            distances, _scalar_pairs(strings, index_a, index_b, bound)
        )


@pytest.mark.parametrize("name", STRING_MEASURES)
def test_string_measures_are_memo_capable(name):
    """Only the set measures take the session memo; the pair kernels
    encode each call's strings afresh."""
    assert _REGISTRY.get(name).memo_capable == (name in SET_MEASURES)


def test_routing_counters_split_batch_and_fallback():
    """The engine counts non-empty pairs by column path: every pair of a
    measure with a kernel is batch, multi-valued combinations included;
    only a measure without one (softJaccard) counts as fallback; rows
    with an empty side count as neither."""
    pairs = [
        (Entity("a0", {"name": "kitten"}), Entity("b0", {"name": "sitting"})),
        (Entity("a1", {"name": ("a", "b")}), Entity("b1", {"name": "c"})),
        (Entity("a2", {}), Entity("b2", {"name": "x"})),
        (Entity("a3", {"name": "kitten"}), Entity("b3", {"name": "sitting"})),
    ]
    with EngineSession() as session:
        context = session.context(pairs)
        for metric in ("levenshtein", "softJaccard"):
            context.scores(
                ComparisonNode(
                    metric, 1.0, PropertyNode("name"), PropertyNode("name")
                )
            )
        routing = session.stats().kernel_routing
    assert routing == (("levenshtein", 3, 0), ("softJaccard", 0, 3))


def test_plain_custom_measure_walks_the_engine_column():
    """A registered measure with the plain two-argument
    ``evaluate_column`` receives columns it can take the length of,
    iterate twice and index, holding the gathered per-pair value sets,
    and the engine scores them as it scores the gathered lists."""
    received = []

    class SizeGap(DistanceMeasure):
        name = "sizeGap"

        def evaluate(self, values_a, values_b):
            if not values_a or not values_b:
                return INFINITE_DISTANCE
            return float(abs(len(values_a) - len(values_b)))

        def evaluate_column(self, columns_a, columns_b):
            for column in (columns_a, columns_b):
                rows = [column[k] for k in range(len(column))]
                assert list(column) == list(column) == rows
            received.append((list(columns_a), list(columns_b)))
            return np.array(
                [self.evaluate(a, b) for a, b in zip(columns_a, columns_b)],
                dtype=np.float64,
            )

    measure = SizeGap()
    registry = DistanceRegistry()
    registry.register(measure)
    a0 = Entity("a0", {"name": ("x", "y", "z")})
    a1 = Entity("a1", {"name": "x"})
    b0 = Entity("b0", {"name": "y"})
    b1 = Entity("b1", {})
    pairs = [(a0, b0), (a0, b1), (a1, b0), (a0, b0), (a1, b1)]
    node = ComparisonNode("sizeGap", 3.0, PropertyNode("name"), PropertyNode("name"))
    with EngineSession(distances=registry) as session:
        scores = session.context(pairs).scores(node)
    gathered_a = [a.values("name") for a, _ in pairs]
    gathered_b = [b.values("name") for _, b in pairs]
    assert received == [(gathered_a, gathered_b)]
    expected = threshold_scores(measure.evaluate_column(gathered_a, gathered_b), 3.0)
    np.testing.assert_array_equal(scores, expected)
    assert scores.tolist() == [1.0 - 2.0 / 3.0, 0.0, 1.0, 1.0 - 2.0 / 3.0, 0.0]


def test_string_memo_tables_are_bounded():
    memo = StringKernelMemo(limit=4)
    keep_alive = [tuple([f"token{i}"]) for i in range(10)]
    for values in keep_alive:
        memo.token_sets([values])
    assert len(memo._token_sets) <= 4


def test_fallback_deduplicates_repeated_value_sets():
    """The generic fallback evaluates each distinct value-set
    combination once — repeated tuples (the engine's per-unique-entity
    columns) must not trigger repeated evaluation."""
    calls = []

    def spy(values_a, values_b):
        calls.append((values_a, values_b))
        return 1.0

    shared_a = ("x",)
    shared_b = ("y",)
    out = fallback_column(spy, [shared_a] * 5, [shared_b] * 5)
    assert len(calls) == 1
    assert (out == 1.0).all()
