"""Vectorized batch kernels for the string-measure family.

The levenshtein and jaro/jaro-winkler measures are pair kernels under
the one min-over-pairs column driver
(:func:`repro.distances.base.pairwise_min_column`): each receives the
column's distinct strings plus two index arrays naming the distinct
pairs, and works on **integer code matrices** gathered from one pool of
encoded strings. The set measures have their own column driver here:

* :func:`levenshtein_pairs` — a clamped edit-distance DP run as numpy
  row sweeps across every distinct pair at once. Each distinct string
  is encoded once into int32 code points (UTF-32 — one code per Python
  character, so batch equality is exactly ``str`` equality), pairs are
  gathered into padded per-chunk matrices, and the classic row
  recurrence is evaluated for all pairs simultaneously; the sequential
  insertion dependency inside a row becomes a logarithmic min-plus
  doubling scan. The band contract: every intermediate cell is clamped
  at ``bound + 1``, which provably yields ``min(true_distance, bound +
  1)`` per pair, the length-difference pre-filter is one vectorized
  mask, and pairs whose entire DP row hits the clamp are retired early
  (the batch analogue of the scalar loop's early exit).
* :func:`jaro_pairs` — bulk Jaro / Jaro-Winkler over the same code
  matrices: the greedy match-window scan runs one character position at
  a time across all pairs (first-fit ``argmax`` per row reproduces the
  scalar loop's leftmost-unmatched choice exactly), transpositions are
  counted by stable-argsort compaction of the matched flags, and the
  final similarity arithmetic keeps the scalar expression's operation
  order so IEEE float64 results are bit-identical.
* :func:`set_algebra_column` — jaccard/dice/overlap/equality as set
  algebra over an interned integer token-code space: each distinct
  value tuple is encoded once into a sorted-unique int64 code array,
  and intersection sizes for *all* distinct tuple combinations are
  computed with one sort over ``combo_id * token_space + code`` keys
  (each side holds unique codes, so every adjacent duplicate is
  exactly one shared token).

:class:`StringKernelMemo` is the session-scoped carrier for the
encoding memoisation (per distinct string / per distinct value tuple,
bounded like the blocking probe memo) and for the per-measure
kernel-routing counters surfaced in ``EngineStats``/``MatchStats``.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from repro.distances.base import INFINITE_DISTANCE, aligned_length, distinct_rows

#: Size bound for each memo table; at the bound the table is dropped
#: wholesale (resets warm-up, never results) — the same policy as the
#: blocking probe memo.
_MEMO_LIMIT = 65536

#: Cell budget for one padded DP/matching matrix (rows x width). Chunks
#: are cut so no intermediate matrix exceeds this many int32 cells,
#: which keeps one pathologically long string from inflating the
#: padding of thousands of short ones.
_CELL_BUDGET = 1 << 20


def encode_string(value: str) -> np.ndarray:
    """One string as an int32 array of Unicode code points.

    UTF-32-LE gives exactly one code unit per Python character, so
    elementwise comparison of encoded arrays is exactly ``str``
    character equality — including combining marks and astral-plane
    characters, which stay separate code points just like they do for
    the scalar measures.
    """
    return np.frombuffer(value.encode("utf-32-le"), dtype="<i4")


class StringKernelMemo:
    """Session-scoped encode memo + kernel-routing counters.

    Three bounded tables, each dropped wholesale at the limit (the
    probe-memo policy — resets warm-up, never results):

    * per distinct **string**: its int32 code-point array (levenshtein
      and jaro kernels);
    * per distinct **value tuple** (identity-keyed; the engine hands
      out one tuple object per filled value-column slot — one per
      entity of a source state — and the column keeps it alive while
      its source state lives): its sorted-unique token-code array over
      a shared interning table (jaccard/dice/overlap set algebra);
    * per **measure name**: counts of pairs the engine scored through a
      batch kernel vs the inherited per-pair fallback, surfaced as
      ``EngineStats.kernel_routing``.

    Thread-safe: the token table and the counters take a lock (token
    ids have a cross-key invariant), the string-code table relies on
    GIL-atomic dict operations — races there only duplicate pure work.
    """

    def __init__(self, limit: int = _MEMO_LIMIT):
        self._limit = limit
        self._codes: dict[str, np.ndarray] = {}
        self._token_ids: dict[str, int] = {}
        #: id(tuple) -> (tuple, sorted unique code array); the tuple is
        #: kept alive so its id cannot be recycled while cached.
        self._token_sets: dict[int, tuple] = {}
        self._routing: dict[str, list[int]] = {}
        self._lock = threading.Lock()

    def codes(self, value: str) -> np.ndarray:
        """Encoded code-point array of one string (memoised)."""
        arr = self._codes.get(value)
        if arr is None:
            if len(self._codes) >= self._limit:
                self._codes.clear()
            arr = encode_string(value)
            self._codes[value] = arr
        return arr

    def token_sets(
        self, value_sets: Sequence[Sequence[str]]
    ) -> tuple[list[np.ndarray], int]:
        """Sorted-unique token-code arrays for value tuples, plus the
        current token-space size (every returned code is below it).

        One lock window covers the whole batch so a concurrent bound
        reset can never mix code assignments from two table
        generations within one caller's result list.
        """
        with self._lock:
            if (
                len(self._token_ids) >= self._limit
                or len(self._token_sets) >= self._limit
            ):
                self._token_ids.clear()
                self._token_sets.clear()
            table = self._token_ids
            sets = self._token_sets
            results: list[np.ndarray] = []
            for values in value_sets:
                key = id(values)
                entry = sets.get(key)
                if entry is None:
                    ids = {table.setdefault(v, len(table)) for v in values}
                    entry = (values, np.array(sorted(ids), dtype=np.int64))
                    sets[key] = entry
                results.append(entry[1])
            return results, len(table)

    # -- routing counters -----------------------------------------------------
    def record_routing(self, name: str, batch: int = 0, fallback: int = 0) -> None:
        """Count pairs scored through a measure's batch kernel vs the
        per-pair fallback (empty-side pairs are counted by neither)."""
        if not batch and not fallback:
            return
        with self._lock:
            entry = self._routing.get(name)
            if entry is None:
                self._routing[name] = entry = [0, 0]
            entry[0] += batch
            entry[1] += fallback

    def routing(self) -> tuple[tuple[str, int, int], ...]:
        """Snapshot of the per-measure counters as sorted
        ``(measure, batch_pairs, fallback_pairs)`` triples."""
        with self._lock:
            return tuple(
                sorted((k, v[0], v[1]) for k, v in self._routing.items())
            )


class BoundedValueMemo:
    """Bounded identity-keyed memo for data derived from value tuples.

    Used by the token-based measures to stop re-tokenising each value
    on every scalar call: the derived data (token lists) is cached per
    distinct value tuple, keyed by identity — the engine hands out one
    tuple object per value-column slot — with the tuple kept alive in the
    entry so its id cannot be recycled while cached. At the bound the
    table is dropped wholesale, the probe-memo policy.
    """

    __slots__ = ("_limit", "_table")

    def __init__(self, limit: int = _MEMO_LIMIT):
        self._limit = limit
        self._table: dict[int, tuple] = {}

    def get(self, values, build: Callable):
        entry = self._table.get(id(values))
        if entry is None:
            if len(self._table) >= self._limit:
                self._table.clear()
            entry = (values, build(values))
            self._table[id(values)] = entry
        return entry[1]


# -- levenshtein ----------------------------------------------------------------


def levenshtein_pairs(
    strings: Sequence[str],
    index_a: np.ndarray,
    index_b: np.ndarray,
    bound: int | None = None,
    memo: StringKernelMemo | None = None,
) -> np.ndarray:
    """Edit distances of the pairs ``(strings[index_a[k]],
    strings[index_b[k]])``, as float64.

    With ``bound`` the result is exactly ``min(d, bound + 1)`` per pair
    — the scalar :func:`repro.distances.levenshtein.levenshtein`
    contract. The DP runs as vectorized row sweeps over all pairs at
    once; every cell is clamped at ``bound + 1`` (which by induction
    clamps the final value and nothing else), ``|len(a) - len(b)| >
    bound`` pairs are pre-filtered as one mask, and pairs whose whole
    DP row reaches the clamp retire early. Equal indexes and pairs of
    empty strings short-cut to 0 (the column driver hands in distinct
    strings, so those are all the equal pairs; equal non-empty strings
    at different indexes still compute 0 through the DP).
    """
    count = len(index_a)
    out = np.empty(count, dtype=np.float64)
    if count == 0:
        return out
    lengths = np.fromiter(map(len, strings), np.int64, len(strings))
    la, lb = lengths[index_a], lengths[index_b]
    eq = (index_a == index_b) | ((la == 0) & (lb == 0))
    out[eq] = 0.0
    todo = ~eq
    if bound is not None:
        over = (np.abs(la - lb) > bound) & todo
        out[over] = float(bound + 1)
        todo &= ~over
    indexes = np.flatnonzero(todo)
    if indexes.size == 0:
        return out
    pool, starts = _code_pool(strings, lengths, memo)
    la, lb = la[indexes], lb[indexes]
    index_a, index_b = index_a[indexes], index_b[indexes]
    swap = la > lb
    shorts = np.where(swap, index_b, index_a)
    longs = np.where(swap, index_a, index_b)
    slen = np.minimum(la, lb)
    llen = np.maximum(la, lb)
    if bound is not None:
        cap = bound + 1
    else:
        cap = int(llen.max()) + 1  # unreachable: d <= max(la, lb)
    order = np.argsort(llen, kind="stable")
    for chunk in _budget_chunks(order, slen):
        width = max(int(slen[chunk].max()), 1)
        rows = _lev_chunk(
            _padded(pool, starts, lengths, shorts[chunk], width, -1),
            _padded(pool, starts, lengths, longs[chunk], int(llen[chunk].max()), -2),
            slen[chunk],
            llen[chunk],
            cap,
        )
        out[indexes[chunk]] = rows
    return out


def _budget_chunks(order: np.ndarray, width_len: np.ndarray):
    """Split ``order`` (indexes sorted by cost driver) into chunks whose
    padded matrix ``rows x (max width + 1)`` stays within the cell
    budget, so one long string cannot inflate every row's padding."""
    start = 0
    count = order.size
    while start < count:
        end = start + 1
        max_width = int(width_len[order[start]])
        while end < count:
            width = max(max_width, int(width_len[order[end]]))
            if (end - start + 1) * (width + 1) > _CELL_BUDGET:
                break
            max_width = width
            end += 1
        yield order[start:end]
        start = end


def _code_pool(
    strings: Sequence[str], lengths: np.ndarray, memo: StringKernelMemo | None
) -> tuple[np.ndarray, np.ndarray]:
    """Every string's code points back to back, plus each string's
    start offset. Each distinct string encodes once per call, or once
    per session through the memo."""
    encode = memo.codes if memo is not None else encode_string
    pool = np.concatenate([encode(value) for value in strings])
    return pool, np.cumsum(lengths) - lengths


def _padded(
    pool: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    index: np.ndarray,
    width: int,
    fill: int,
) -> np.ndarray:
    """Code-point rows of the strings ``index`` names, padded with
    ``fill`` to ``width`` columns (one gather, no per-row loop)."""
    columns = np.arange(width)
    inside = columns < lengths[index][:, None]
    matrix = np.full((index.size, width), fill, dtype=np.int32)
    matrix[inside] = pool[(starts[index][:, None] + columns)[inside]]
    return matrix


def _lev_chunk(
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    slen: np.ndarray,
    llen: np.ndarray,
    cap: int,
) -> np.ndarray:
    """Clamped edit distances for one padded chunk (all pairs at once):
    row ``k`` of ``a_matrix``/``b_matrix`` holds the shorter/longer
    string of pair ``k``, padded with codes that never match.

    Row sweep over the longer strings: ``prev``/``cur`` hold one DP row
    per pair. The in-row insertion dependency is resolved by a min-plus
    doubling scan (after step ``s``, ``cur[i]`` covers insertion chains
    up to ``2^s`` long — log2(width) vector ops instead of a sequential
    scan). Cells clamp at ``cap``; a pair whose whole row clamps can
    never come back under it (distances are bounded below by row
    minima along any alignment path), so those pairs retire with
    ``cap`` immediately — the vectorized early exit.
    """
    width = int(slen.max())
    size = len(slen)
    results = np.empty(size, dtype=np.int32)
    prev = np.minimum(np.arange(width + 1, dtype=np.int32), cap)
    prev = np.broadcast_to(prev, (size, width + 1)).copy()
    pending = np.arange(size)
    sw, lw = slen.astype(np.int64), llen.astype(np.int64)
    j = 1
    while pending.size:
        column = b_matrix[:, j - 1][:, None]
        cur = np.empty((pending.size, width + 1), dtype=np.int32)
        cur[:, 0] = min(j, cap)
        np.minimum(
            prev[:, :-1] + (a_matrix[:, :width] != column),
            prev[:, 1:] + 1,
            out=cur[:, 1:],
        )
        np.minimum(cur, cap, out=cur)
        shift = 1
        while shift <= width:
            cur[:, shift:] = np.minimum(
                cur[:, shift:], cur[:, :-shift] + shift
            )
            shift <<= 1
        np.minimum(cur, cap, out=cur)
        done = lw == j
        finished = done | (cur.min(axis=1) >= cap)
        if finished.any():
            if done.any():
                results[pending[done]] = cur[done, sw[done]]
            capped = finished & ~done
            if capped.any():
                results[pending[capped]] = cap
            keep = ~finished
            pending = pending[keep]
            a_matrix = a_matrix[keep]
            b_matrix = b_matrix[keep]
            sw, lw = sw[keep], lw[keep]
            prev = cur[keep]
        else:
            prev = cur
        j += 1
    return results.astype(np.float64)


# -- jaro / jaro-winkler --------------------------------------------------------


def jaro_pairs(
    strings: Sequence[str],
    index_a: np.ndarray,
    index_b: np.ndarray,
    memo: StringKernelMemo | None = None,
    prefix_scale: float | None = None,
) -> np.ndarray:
    """Jaro similarities of the pairs ``(strings[index_a[k]],
    strings[index_b[k]])`` (Jaro-Winkler when ``prefix_scale`` is
    given), bit-identical to the scalar loops.

    The greedy match scan runs one character position at a time across
    all pairs: a boolean candidate matrix (``==`` over the encoded
    codes, window mask, unmatched mask) and its per-row ``argmax``
    reproduce the scalar loop's first-unmatched-in-window choice
    exactly. Transpositions compare the k-th matched character of each
    side via stable-argsort compaction. The final arithmetic keeps the
    scalar expression order, so the float64 results match bit for bit.
    """
    count = len(index_a)
    out = np.empty(count, dtype=np.float64)
    if count == 0:
        return out
    lengths = np.fromiter(map(len, strings), np.int64, len(strings))
    la, lb = lengths[index_a], lengths[index_b]
    # Equal indexes are equal strings, and so are two empty ones; equal
    # non-empty strings at different indexes still score exactly 1.0
    # through the scan.
    eq = (index_a == index_b) | ((la == 0) & (lb == 0))
    out[eq] = 1.0
    empty = ((la == 0) | (lb == 0)) & ~eq
    out[empty] = 0.0
    indexes = np.flatnonzero(~eq & ~empty)
    if indexes.size == 0:
        return out
    pool, starts = _code_pool(strings, lengths, memo)
    index_a, index_b = index_a[indexes], index_b[indexes]
    la, lb = la[indexes], lb[indexes]
    order = np.argsort(la + lb, kind="stable")
    for chunk in _budget_chunks(order, lb):
        similarities = _jaro_chunk(
            _padded(pool, starts, lengths, index_a[chunk], int(la[chunk].max()), -1),
            _padded(pool, starts, lengths, index_b[chunk], int(lb[chunk].max()), -2),
            la[chunk],
            lb[chunk],
            prefix_scale,
        )
        out[indexes[chunk]] = similarities
    return out


def _jaro_chunk(
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    la: np.ndarray,
    lb: np.ndarray,
    prefix_scale: float | None,
) -> np.ndarray:
    size, width_a = a_matrix.shape
    width_b = b_matrix.shape[1]
    window = np.maximum(np.maximum(la, lb) // 2 - 1, 0)[:, None]
    columns = np.arange(width_b, dtype=np.int64)
    matched_a = np.zeros((size, width_a), dtype=bool)
    matched_b = np.zeros((size, width_b), dtype=bool)
    matches = np.zeros(size, dtype=np.int64)
    rows = np.arange(size)
    for i in range(width_a):
        # The scalar window is [max(0, i - w), min(lb, i + w + 1)); the
        # lb clamp only excludes padding columns, which can never win
        # the equality test (pad codes differ by construction), so one
        # |column - i| <= w band mask is enough.
        candidates = (
            (b_matrix == a_matrix[:, i][:, None])
            & ~matched_b
            & (np.abs(columns - i) <= window)
        )
        first = candidates.argmax(axis=1)
        found = candidates[rows, first]
        matched_b[rows[found], first[found]] = True
        matched_a[found, i] = True
        matches += found
    # k-th matched character of each side, in original order (stable
    # argsort floats matched positions to the front without reordering
    # them — the scalar transposition walk).
    order_a = np.argsort(~matched_a, axis=1, kind="stable")
    order_b = np.argsort(~matched_b, axis=1, kind="stable")
    gathered_a = np.take_along_axis(a_matrix, order_a, axis=1)
    gathered_b = np.take_along_axis(b_matrix, order_b, axis=1)
    width = min(width_a, width_b)
    positions = np.arange(width, dtype=np.int64)
    transpositions = (
        (
            (gathered_a[:, :width] != gathered_b[:, :width])
            & (positions < matches[:, None])
        ).sum(axis=1)
        // 2
    )
    similarities = np.zeros(size, dtype=np.float64)
    positive = matches > 0
    m = matches[positive].astype(np.float64)
    t = transpositions[positive].astype(np.float64)
    la_f = la[positive].astype(np.float64)
    lb_f = lb[positive].astype(np.float64)
    # Exactly the scalar expression order: ((m/la + m/lb) + (m-t)/m) / 3.
    similarities[positive] = (m / la_f + m / lb_f + (m - t) / m) / 3.0
    if prefix_scale is not None:
        limit = min(4, width_a, width_b)
        shared = a_matrix[:, :limit] == b_matrix[:, :limit]
        prefix = np.cumprod(shared, axis=1).sum(axis=1).astype(np.float64)
        similarities = similarities + prefix * prefix_scale * (
            1.0 - similarities
        )
    return similarities


# -- set algebra (jaccard family) -----------------------------------------------


def set_intersections(
    sets: list[np.ndarray],
    select_a: np.ndarray,
    select_b: np.ndarray,
    token_space: int,
) -> np.ndarray:
    """Intersection sizes of the set pairs ``(sets[select_a[k]],
    sets[select_b[k]])`` of sorted-unique code sets.

    One sort over ``combo_id * token_space + code`` keys: within a
    combo each side holds unique codes, so every adjacent duplicate in
    the sorted key array is exactly one token shared by both sides.
    """
    count = len(select_a)
    space = max(token_space, 1)
    lengths = np.fromiter(map(len, sets), np.int64, len(sets))
    starts = np.cumsum(lengths) - lengths
    pool = np.concatenate(sets)
    combo_keys = np.arange(count, dtype=np.int64) * space
    keys = np.concatenate(
        [
            np.repeat(combo_keys, lengths[select])
            + pool[_positions(starts[select], lengths[select])]
            for select in (select_a, select_b)
        ]
    )
    keys.sort(kind="quicksort")
    duplicates = keys[1:] == keys[:-1]
    return np.bincount(
        keys[1:][duplicates] // space, minlength=count
    ).astype(np.int64)


def _positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Pool positions of consecutive runs ``starts[k] .. starts[k] +
    lengths[k] - 1``, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(int(ends[-1]))


def set_algebra_column(
    columns_a,
    columns_b,
    finish: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    memo: StringKernelMemo | None = None,
) -> np.ndarray:
    """Batch driver for measures over the two value sets themselves
    (jaccard, dice, overlap, equality): deduplicate rows per distinct
    value-tuple combination, encode each distinct tuple once into the
    integer token-code space, compute all intersection sizes at once,
    and let ``finish(intersections, sizes_a, sizes_b)`` apply the
    measure's arithmetic (which must keep the scalar operation order
    for bit-parity).
    """
    out = np.full(aligned_length(columns_a, columns_b), INFINITE_DISTANCE)
    rows, tuples, slot_a, slot_b = distinct_rows(columns_a, columns_b)
    if not tuples:
        return out
    sets, token_space = (memo or StringKernelMemo()).token_sets(tuples)
    combos, row_combo = np.unique(
        slot_a * len(tuples) + slot_b, return_inverse=True
    )
    select_a, select_b = np.divmod(combos, len(tuples))
    intersections = _distinct_intersections(sets, select_a, select_b, token_space)
    sizes = np.fromiter(map(len, sets), np.int64, len(sets))
    distances = finish(intersections, sizes[select_a], sizes[select_b])
    out[rows] = distances[row_combo]
    return out


#: Widest bitset (in 64-bit words) worth materialising per combination;
#: beyond it (token spaces over 4096 codes) the sorted-key path wins.
_BITSET_WORDS = 64


def _distinct_intersections(
    sets: list[np.ndarray],
    select_a: np.ndarray,
    select_b: np.ndarray,
    token_space: int,
) -> np.ndarray:
    """Intersection sizes for ``(select_a[i], select_b[i])`` pairs of
    distinct code sets.

    Small token spaces pack each distinct set into a fixed-width bitset
    once and count shared tokens with ``bitwise_and`` +
    ``bitwise_count`` per combination — O(words) per pair with a tiny
    constant. Large spaces fall back to the sorted-key pass of
    :func:`set_intersections`. Both produce exact integer counts, so
    the choice cannot affect parity.
    """
    words = (max(token_space, 1) + 63) // 64
    if words > _BITSET_WORDS:
        return set_intersections(sets, select_a, select_b, token_space)
    masks = _bitset_pack(sets, words)
    shared = masks[select_a] & masks[select_b]
    return np.bitwise_count(shared).sum(axis=1, dtype=np.int64)


def _bitset_pack(sets: list[np.ndarray], words: int) -> np.ndarray:
    """Each sorted-unique code set as one row of a packed bit matrix."""
    masks = np.zeros((len(sets), words), dtype=np.uint64)
    lens = np.fromiter(map(len, sets), np.int64, len(sets))
    codes = (
        np.concatenate(sets)
        if sets
        else np.zeros(0, np.int64)
    )
    owner = np.repeat(np.arange(len(sets), dtype=np.int64), lens)
    np.bitwise_or.at(
        masks,
        (owner, codes >> 6),
        np.uint64(1) << (codes & 63).astype(np.uint64),
    )
    return masks
