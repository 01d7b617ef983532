"""Common infrastructure for distance measures.

A :class:`DistanceMeasure` maps two value sets to a non-negative float
distance. ``INFINITE_DISTANCE`` is returned whenever a distance is
undefined (empty inputs, unparseable values); any comparison operator
then yields similarity 0 because the distance exceeds every threshold.

Measures additionally expose a **batch API**: :meth:`evaluate_column`
takes two aligned columns of value sets (one entry per candidate pair,
in the engine an :class:`IndexedColumn` per pair side) and returns a
float64 distance vector. Batch-capable measures override
it with vectorized kernels — every measure that lifts a pair distance
through :func:`min_over_pairs` does so with a pair kernel under the one
column driver :func:`pairwise_min_column`; everything else inherits a
generic fallback that deduplicates per distinct value-set combination
before calling the scalar :meth:`evaluate`. The contract is strict: for
every row the batch result must be *bit-identical* to the scalar path,
with empty value sets on either side yielding ``INFINITE_DISTANCE``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from collections.abc import Sequence
from itertools import chain
from typing import Callable, Iterator

import numpy as np

#: Sentinel distance for undefined comparisons. Large but finite so that
#: arithmetic on it stays well-behaved (no NaNs in score vectors).
INFINITE_DISTANCE = 1.0e12

#: Value pairs a set comparison looks at: the first ``MAX_PAIRS`` pairs
#: of the cross product, row-major (the Silk convention's work bound).
MAX_PAIRS = 256

#: A column of value sets, one entry per candidate pair: any read-only
#: sequence of value tuples. The engine passes an :class:`IndexedColumn`
#: (one tuple per unique entity plus the pair -> entity index), so the
#: same tuple object recurs across many rows; the column drivers read
#: that form directly and treat a plain sequence as an indexed column
#: over ``arange(len)``.
ValueColumn = Sequence[tuple[str, ...]]


class IndexedColumn(Sequence):
    """A read-only column of value sets in per-entity form.

    ``values`` holds one value tuple per unique entity and ``index`` is
    an ``intp`` array with one entry per row: row ``k`` is
    ``values[index[k]]``. It is the value-side counterpart of
    :class:`repro.data.pairs.PairBatch`: the engine hands a measure one
    per pair side, the side's per-entity value column plus the batch's
    index array, instead of a gathered list per pair. ``len``,
    iteration and integer indexing match the gathered list, so measures
    written against plain sequences keep working.
    """

    __slots__ = ("values", "index")

    def __init__(self, values: Sequence[tuple[str, ...]], index) -> None:
        self.values = values
        self.index = np.asarray(index, dtype=np.intp)

    @classmethod
    def of(cls, column: ValueColumn) -> "IndexedColumn":
        """The column itself, or a plain sequence as the indexed column
        over ``arange(len)`` (every row its own entity)."""
        if isinstance(column, cls):
            return column
        return cls(column, np.arange(len(column)))

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, k):
        return self.values[self.index[k]]

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        return map(self.values.__getitem__, self.index.tolist())


class DistanceMeasure(ABC):
    """A distance function between two value sets.

    Subclasses define :meth:`evaluate` and advertise a sensible range of
    distance thresholds via :attr:`threshold_range`, which the GP's
    random rule generator samples from (e.g. character edits for
    Levenshtein, metres for geographic distance). Measures that also
    override :meth:`evaluate_column` with a vectorized kernel set
    :attr:`batch_capable` so callers and tests can tell real kernels
    from the generic fallback.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    #: Inclusive (low, high) range for sampling random thresholds.
    threshold_range: tuple[float, float] = (0.0, 1.0)

    #: True when :meth:`evaluate_column` is a vectorized batch kernel
    #: rather than the inherited per-pair fallback.
    batch_capable: bool = False

    #: True when :meth:`evaluate_column` additionally accepts a
    #: ``memo`` keyword (a :class:`repro.distances.strings.StringKernelMemo`)
    #: carrying the session's token-set cache (the set-algebra
    #: measures). Kept as a separate flag so user-defined measures with
    #: the plain two-argument signature keep working unchanged.
    memo_capable: bool = False

    @abstractmethod
    def evaluate(self, values_a: Sequence[str], values_b: Sequence[str]) -> float:
        """Return the distance between two value sets (>= 0)."""

    def evaluate_column(
        self, columns_a: ValueColumn, columns_b: ValueColumn
    ) -> np.ndarray:
        """Distances for aligned columns of value sets, one per pair.

        Rows where either side is empty get ``INFINITE_DISTANCE``. The
        generic implementation memoises per distinct (value set, value
        set) combination — entity value tuples recur across pairs, so
        even the fallback avoids re-evaluating repeated combinations —
        and is bit-identical to calling :meth:`evaluate` per row.
        """
        return fallback_column(self.evaluate, columns_a, columns_b)

    def cache_token(self) -> str:
        """Stable identity of this measure for *persistent* cache keys.

        The registry name alone is not enough across processes: two
        runs sharing a cache directory could resolve the same name to
        different implementations or configurations (a custom
        ``levenshtein``, ``QGramsDistance(q=3)`` vs the default q=2).
        The token therefore records the implementation class and its
        scalar configuration attributes; memo tables and other
        non-scalar state are excluded — they never change results.
        """
        params = ",".join(
            f"{name}={value!r}"
            for name, value in sorted(vars(self).items())
            if value is None or isinstance(value, (bool, int, float, str))
        )
        return f"{type(self).__module__}.{type(self).__qualname__}({params})"

    def __call__(self, values_a: Sequence[str], values_b: Sequence[str]) -> float:
        return self.evaluate(values_a, values_b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def fallback_column(
    evaluate: Callable[[Sequence[str], Sequence[str]], float],
    columns_a: ValueColumn,
    columns_b: ValueColumn,
) -> np.ndarray:
    """Per-pair batch fallback, deduplicated per value-set combination.

    Keys the memo by the identity of the value tuples (the engine hands
    out one tuple object per unique entity, so identity collapses the
    cross product to unique combinations without hashing string
    contents). ``evaluate`` must be pure, which every distance measure
    is by contract.
    """
    out = np.full(
        aligned_length(columns_a, columns_b), INFINITE_DISTANCE, dtype=np.float64
    )
    memo: dict[tuple[int, int], float] = {}
    for i, (values_a, values_b) in enumerate(zip(columns_a, columns_b)):
        if not values_a or not values_b:
            continue
        key = (id(values_a), id(values_b))
        distance = memo.get(key)
        if distance is None:
            distance = evaluate(values_a, values_b)
            memo[key] = distance
        out[i] = distance
    return out


def min_over_pairs(
    values_a: Sequence[str],
    values_b: Sequence[str],
    pair_distance: Callable[[str, str], float],
    max_pairs: int = MAX_PAIRS,
) -> float:
    """Lift a pairwise distance to value sets via the minimum.

    The minimum over the cross product is the Silk convention: two
    entities are as close as their closest pair of values. ``max_pairs``
    bounds the work on pathologically multi-valued properties; values
    beyond the cap are ignored deterministically (first values win).
    """
    if not values_a or not values_b:
        return INFINITE_DISTANCE
    best = INFINITE_DISTANCE
    budget = max_pairs
    for va in values_a:
        for vb in values_b:
            d = pair_distance(va, vb)
            if d < best:
                best = d
                if best == 0.0:
                    return 0.0
            budget -= 1
            if budget <= 0:
                return best
    return best


def pairwise_min_column(
    columns_a: ValueColumn,
    columns_b: ValueColumn,
    pair_kernel: Callable[[list[str], np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Batch :func:`min_over_pairs`: the column driver of every measure
    that lifts a pair distance to value sets.

    Rows with values on both sides dedupe through :func:`distinct_rows`.
    Each distinct combination expands into its first :data:`MAX_PAIRS`
    value pairs in ``min_over_pairs`` order, and ``pair_kernel(strings,
    index_a, index_b)`` runs once over the distinct pairs: ``strings``
    holds the distinct values, entry ``k`` of the index arrays names the
    pair ``(strings[index_a[k]], strings[index_b[k]])``, and the kernel
    returns one float64 distance per entry. Each row then reduces with
    ``np.fmin.reduceat`` capped at ``INFINITE_DISTANCE``, which skips
    NaN and clamps larger values exactly as the scalar ``d < best``
    loop does. Columns of singletons skip the expansion.
    """
    out = np.full(aligned_length(columns_a, columns_b), INFINITE_DISTANCE)
    rows, tuples, slot_a, slot_b = distinct_rows(columns_a, columns_b)
    if not tuples:
        return out
    values = list(chain.from_iterable(tuples))
    if len(values) == len(tuples):
        # Singletons only: distinct tuples hold distinct strings, slots
        # index them directly, and each row is its only pair.
        distances = _distinct_pair_kernel(pair_kernel, values, slot_a, slot_b)
        out[rows] = np.fmin(distances, INFINITE_DISTANCE)
        return out
    strings = list(dict.fromkeys(values))
    code_of = dict(zip(strings, range(len(strings))))
    codes = np.fromiter(map(code_of.__getitem__, values), np.intp, len(values))
    sizes = np.fromiter(map(len, tuples), np.intp, len(tuples))
    # Flat position of each tuple's first value.
    firsts = np.cumsum(sizes) - sizes
    combos, row_combo = np.unique(
        slot_a * len(tuples) + slot_b, return_inverse=True
    )
    combo_a, combo_b = np.divmod(combos, len(tuples))
    widths = sizes[combo_b]
    pair_counts = np.minimum(sizes[combo_a] * widths, MAX_PAIRS)
    starts = np.cumsum(pair_counts) - pair_counts
    # Pair k of a combination is (a_{k // width}, b_{k % width}): the
    # row-major walk of min_over_pairs, cut at its budget.
    step = np.arange(int(pair_counts.sum())) - np.repeat(starts, pair_counts)
    index_a, index_b = np.divmod(step, np.repeat(widths, pair_counts))
    index_a += np.repeat(firsts[combo_a], pair_counts)
    index_b += np.repeat(firsts[combo_b], pair_counts)
    distances = _distinct_pair_kernel(
        pair_kernel, strings, codes[index_a], codes[index_b]
    )
    best = np.fmin(np.fmin.reduceat(distances, starts), INFINITE_DISTANCE)
    out[rows] = best[row_combo]
    return out


def distinct_rows(
    columns_a: ValueColumn, columns_b: ValueColumn
) -> tuple[slice | np.ndarray, list[tuple[str, ...]], np.ndarray, np.ndarray]:
    """The rows of two aligned columns that have values on both sides,
    deduped through one table of distinct value tuples shared by both
    sides (dedup datasets put the same tuple on both sides). Tuples key
    the table by value, so identical tuples and equal ones share a slot.

    Works per entity (:class:`IndexedColumn`; a plain sequence is the
    indexed column over ``arange(len)``): the kept rows come from
    :func:`kept_rows`, only the entities that kept rows reference enter
    the table, each once, and the rows' slots are gathered through the
    index arrays.

    Returns ``(rows, tuples, slot_a, slot_b)``: the kept rows (a slice
    when every row qualifies), the distinct tuples, and each kept row's
    tuple index per side.
    """
    column_a, column_b = IndexedColumn.of(columns_a), IndexedColumn.of(columns_b)
    rows, kept_a, kept_b = kept_rows(column_a, column_b)
    # Slots number the distinct tuples in order of first appearance: a
    # missing tuple's slot is the table's size before it is inserted.
    table: defaultdict[tuple[str, ...], int] = defaultdict()
    table.default_factory = table.__len__
    slots = []
    for column, kept in ((column_a, kept_a), (column_b, kept_b)):
        referenced = np.zeros(len(column.values), dtype=bool)
        referenced[kept] = True
        entities = np.flatnonzero(referenced)
        entity_slot = np.zeros(len(column.values), dtype=np.intp)
        entity_slot[entities] = np.fromiter(
            map(table.__getitem__, map(column.values.__getitem__, entities.tolist())),
            np.intp,
            len(entities),
        )
        slots.append(entity_slot[kept])
    return rows, list(table), slots[0], slots[1]


def kept_rows(
    column_a: IndexedColumn, column_b: IndexedColumn
) -> tuple[slice | np.ndarray, np.ndarray, np.ndarray]:
    """The rows of two aligned indexed columns with values on both
    sides, from per-entity non-empty masks gathered through the index.

    Returns ``(rows, index_a, index_b)``: the kept rows (a slice when
    every row qualifies) and their entity indexes per side.
    """
    index_a, index_b = column_a.index, column_b.index
    if all(column_a.values) and all(column_b.values):
        return slice(None), index_a, index_b
    has_a, has_b = _nonempty(column_a.values), _nonempty(column_b.values)
    rows = np.flatnonzero(has_a[index_a] & has_b[index_b])
    return rows, index_a[rows], index_b[rows]


def _nonempty(values: Sequence[tuple[str, ...]]) -> np.ndarray:
    return np.fromiter(map(bool, values), dtype=bool, count=len(values))


def _distinct_pair_kernel(pair_kernel, strings, index_a, index_b) -> np.ndarray:
    """Run ``pair_kernel`` once per distinct ``(index_a, index_b)``
    pair and fan the distances back out to every entry."""
    pairs, inverse = np.unique(index_a * len(strings) + index_b, return_inverse=True)
    distinct_a, distinct_b = np.divmod(pairs, len(strings))
    return pair_kernel(strings, distinct_a, distinct_b)[inverse]


def aligned_length(columns_a: ValueColumn, columns_b: ValueColumn) -> int:
    """The shared length of two aligned value columns."""
    if len(columns_a) != len(columns_b):
        raise ValueError(
            f"column length mismatch: {len(columns_a)} vs {len(columns_b)}"
        )
    return len(columns_a)
