"""Vectorized batch kernels for the string-measure family.

The levenshtein and jaro/jaro-winkler measures are pair kernels under
the one min-over-pairs column driver
(:func:`repro.distances.base.pairwise_min_column`): each receives the
column's distinct strings plus two index arrays naming the distinct
pairs, and works on **integer codes** gathered from one pool of
encoded strings (each call encodes its distinct strings once, into
int32 code points: UTF-32 gives one code per Python character, so code
equality is exactly ``str`` character equality). The set measures have
their own column driver here:

* :func:`levenshtein_pairs` — Hyyrö's bit-vector edit distance (Myers'
  recurrence) with every pair a lane of one Python ``int``. Each lane
  holds the shorter string's characters as bits plus guard bits up to a
  byte boundary, which absorb the carry of the recurrence's addition,
  so one text position costs about 17 big-int operations for a whole
  chunk of pairs, at any string length. Match masks are gathered byte
  by byte from a per-chunk table over the call's dense alphabet, and
  one cell budget bounds a chunk's text positions x lane bits and its
  table (lane bytes x alphabet). Bounded calls first drop the pairs
  whose length gap or bag distance (the character-multiset difference,
  a lower bound) already exceeds the bound, then clamp to
  ``min(d, bound + 1)``, the scalar contract.
* :func:`jaro_pairs` — bulk Jaro / Jaro-Winkler over padded code
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

:class:`StringKernelMemo` is the session-scoped carrier for the set
measures' token memo (per distinct value tuple, bounded like the
blocking probe memo) and for the per-measure kernel-routing counters
surfaced in ``EngineStats``/``MatchStats``.
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

#: Cell budget for one padded jaro matching matrix (rows x width).
#: Chunks are cut so no intermediate matrix exceeds this many int32
#: cells, which keeps one pathologically long string from inflating the
#: padding of thousands of short ones.
_CELL_BUDGET = 1 << 20

#: Cell budget of the levenshtein kernel, a constant. One lane chunk
#: spans at most this many text positions x lane bits, and its
#: match-mask table (lane bytes x alphabet) stays within this many
#: bytes. Each block of a chunk's match masks (eight gather-index bytes
#: per lane byte) and each block of the bag bound's histogram counts
#: stays within this many bytes too. Without a cap, one call over a
#: whole column held every match mask at once.
_LANE_BUDGET = 1 << 18

#: Character classes of the bag bound's histograms. Each string's
#: histogram holds at most this many counts, so a wide alphabet (CJK
#: names, say) neither widens the histograms nor shrinks their blocks.
#: The kernel calls of cora and dbpedia_drugbank learning see at most
#: 55 distinct characters, one class each.
_BAG_CLASSES = 64


class StringKernelMemo:
    """Session-scoped token memo + kernel-routing counters.

    Two tables, the first bounded and dropped wholesale at the limit
    (the probe-memo policy — resets warm-up, never results):

    * per distinct **value tuple** (identity-keyed; the engine hands
      out one tuple object per filled value-column slot — one per
      entity of a source state — and the column keeps it alive while
      its source state lives): its sorted-unique token-code array over
      a shared interning table (jaccard/dice/overlap set algebra);
    * per **measure name**: counts of pairs the engine scored through a
      batch kernel vs the inherited per-pair fallback, surfaced as
      ``EngineStats.kernel_routing``.

    Thread-safe: the token table and the counters take a lock (token
    ids have a cross-key invariant).
    """

    def __init__(self, limit: int = _MEMO_LIMIT):
        self._limit = limit
        self._token_ids: dict[str, int] = {}
        #: id(tuple) -> (tuple, sorted unique code array); the tuple is
        #: kept alive so its id cannot be recycled while cached.
        self._token_sets: dict[int, tuple] = {}
        self._routing: dict[str, list[int]] = {}
        self._lock = threading.Lock()

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
) -> np.ndarray:
    """Edit distances of the pairs ``(strings[index_a[k]],
    strings[index_b[k]])``, as float64.

    With ``bound`` the result is exactly ``min(d, bound + 1)`` per pair
    — the scalar :func:`repro.distances.levenshtein.levenshtein`
    contract. Equal indexes score 0 and an empty side scores the other
    side's length. Bounded calls drop the ``|len(a) - len(b)| > bound``
    pairs and then the pairs whose bag distance (a lower bound on the
    edit distance) already exceeds ``bound``; every other pair runs
    through the lane-packed bit-vector kernel (:func:`_lane_distances`).
    Equal non-empty strings at different indexes compute 0 there.
    """
    lengths = np.fromiter(map(len, strings), np.int64, len(strings))
    la, lb = lengths[index_a], lengths[index_b]
    slen, llen = np.minimum(la, lb), np.maximum(la, lb)
    out = llen.astype(np.float64)
    same = index_a == index_b
    out[same] = 0.0
    todo = ~same & (slen > 0)
    if bound is not None:
        todo &= llen - slen <= bound
    indexes = np.flatnonzero(todo)
    if indexes.size:
        codes, starts, sigma = _dense_pool(strings, lengths)
        swap = la[indexes] > lb[indexes]
        shorts = np.where(swap, index_b[indexes], index_a[indexes])
        longs = np.where(swap, index_a[indexes], index_b[indexes])
        if bound is not None:
            near = (
                _bag_distances(codes, sigma, starts, lengths, shorts, longs)
                <= bound
            )
            indexes, shorts, longs = indexes[near], shorts[near], longs[near]
        out[indexes] = _lane_distances(codes, sigma, starts, lengths, shorts, longs)
    if bound is not None:
        # Every dropped pair is at least bound + 1 away: its length gap
        # or bag distance says so, and ``out`` holds the longer length.
        np.minimum(out, float(bound + 1), out=out)
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
    strings: Sequence[str], lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every string's Unicode code points back to back as int32, plus
    each string's start offset, from one encode of the joined strings.
    UTF-32-LE gives exactly one code unit per Python character, so
    elementwise comparison of codes is exactly ``str`` character
    equality — including combining marks and astral-plane characters,
    which stay separate code points just like they do for the scalar
    measures."""
    pool = np.frombuffer("".join(strings).encode("utf-32-le"), dtype="<i4")
    return pool, np.cumsum(lengths) - lengths


def _padded(
    pool: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    index: np.ndarray,
    width: int,
    fill: int,
) -> np.ndarray:
    """Code rows of the strings ``index`` names, padded with ``fill`` to
    ``width`` columns (one gather, no per-row loop)."""
    columns = np.arange(width)
    inside = columns < lengths[index][:, None]
    matrix = np.full((index.size, width), fill, dtype=pool.dtype)
    matrix[inside] = pool[(starts[index][:, None] + columns)[inside]]
    return matrix


def _dense_pool(
    strings: Sequence[str], lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """The code pool over a dense alphabet: every distinct code point of
    the call numbered ``0 .. sigma - 1`` (``uint8`` while the padding
    code ``sigma`` still fits), plus each string's start offset and
    ``sigma``."""
    pool, starts = _code_pool(strings, lengths)
    alphabet, dense = np.unique(pool, return_inverse=True)
    sigma = alphabet.size
    dtype = np.uint8 if sigma < 256 else np.int32
    return dense.astype(dtype), starts, sigma


def _bag_distances(
    codes: np.ndarray,
    sigma: int,
    starts: np.ndarray,
    lengths: np.ndarray,
    shorts: np.ndarray,
    longs: np.ndarray,
) -> np.ndarray:
    """Bag distances ``max(|A - B|, |B - A|)`` of the pairs' multisets
    of character classes, a lower bound on the edit distance (an edit
    changes at most one element of each multiset). A class is a dense
    code mod :data:`_BAG_CLASSES`, so a small alphabet has one class
    per character; merging characters into a class only lowers the bag
    distance, which keeps it a lower bound. With ``L1`` the summed
    difference of the two class histograms, the shared elements number
    ``(len(a) + len(b) - L1) / 2``, so the bag distance is
    ``(len(long) - len(short) + L1) / 2``. Histograms are counted once
    per string, at most :data:`_BAG_CLASSES` int16 counts each whatever
    the alphabet, and both passes run in row blocks within the cell
    budget's bytes."""
    width = min(sigma, _BAG_CLASSES)
    rows = max(1, _LANE_BUDGET // (8 * width))
    depth = np.int16 if int(lengths.max()) < 1 << 15 else np.int64
    histograms = np.empty((lengths.size, width), dtype=depth)
    for lo in range(0, lengths.size, rows):
        part = lengths[lo : lo + rows]
        first = int(starts[lo])
        owner = np.repeat(np.arange(part.size) * width, part)
        histograms[lo : lo + rows] = np.bincount(
            owner + codes[first : first + int(part.sum())] % width,
            minlength=part.size * width,
        ).reshape(part.size, width)
    out = np.empty(shorts.size, dtype=np.int64)
    for lo in range(0, shorts.size, rows):
        pair_s, pair_l = shorts[lo : lo + rows], longs[lo : lo + rows]
        l1 = np.abs(histograms[pair_s] - histograms[pair_l]).sum(axis=1)
        out[lo : lo + rows] = (lengths[pair_l] - lengths[pair_s] + l1) // 2
    return out


def _lane_distances(
    codes: np.ndarray,
    sigma: int,
    starts: np.ndarray,
    lengths: np.ndarray,
    shorts: np.ndarray,
    longs: np.ndarray,
) -> np.ndarray:
    """Exact edit distances of non-empty pairs ``(shorts[k], longs[k])``
    (the shorter string first), in chunks of pairs sorted by the longer
    length. :data:`_LANE_BUDGET` bounds both a chunk's text positions x
    lane bits and its match-mask table (lane bytes x alphabet), so a
    long text never pads the steps of many short ones and a wide
    alphabet never inflates the table."""
    out = np.empty(shorts.size, dtype=np.float64)
    widths = 8 * ((lengths[shorts] + 8) // 8)  # lane bits, guards included
    texts = lengths[longs]
    order = np.argsort(texts, kind="stable")
    cumulative = np.cumsum(widths[order])
    # Cells per lane bit: the text's positions, or the table's bytes.
    depth = np.maximum(texts[order], -(-(sigma + 1) // 8))
    start = 0
    while start < order.size:
        before = cumulative[start - 1] if start else 0
        cells = depth[start:] * (cumulative[start:] - before)
        end = start + max(1, int(np.searchsorted(cells, _LANE_BUDGET, "right")))
        chunk = order[start:end]
        out[chunk] = _lane_chunk(
            codes, sigma, starts, lengths, shorts[chunk], longs[chunk]
        )
        start = end
    return out


def _lane_chunk(
    codes: np.ndarray,
    sigma: int,
    starts: np.ndarray,
    lengths: np.ndarray,
    shorts: np.ndarray,
    longs: np.ndarray,
) -> np.ndarray:
    """Hyyrö's bit-vector edit distance (Myers' recurrence with a +1 top
    row) for one chunk, every pair a lane of the same Python ints.

    Lane ``k`` holds one bit per character of the shorter string (the
    pattern), then guard bits up to the next byte boundary. The guards
    are 0 in ``vp`` and in ``eq & vp``, so they absorb the carry of
    ``(eq & vp) + vp`` and no lane reaches into the next; each lane's
    bottom bit is forced to 1 by ``low`` after the shift, and
    ``lane_mask`` clears the guards of ``vp``. Text position ``j`` costs
    about 17 int operations for the whole chunk; its match mask ``eq``
    is gathered byte by byte from ``peq``. ``vp``/``vn`` hold the
    vertical deltas of the current DP column, so a lane's distance is
    its text length plus ``popcount(vp) - popcount(vn)`` over its bits.

    ``longs`` arrive sorted by length, and lanes are laid out longest
    text first: the lanes whose text ends at a step are the top ones, so
    their bytes are read out then and every int narrows below them.
    """
    m = lengths[shorts][::-1]
    n = lengths[longs][::-1]
    lane_bytes = (m + 8) // 8
    byte_ends = np.cumsum(lane_bytes)
    byte_starts = byte_ends - lane_bytes
    size = int(byte_ends[-1])
    bit = _positions(8 * byte_starts, m)
    char = codes[_positions(starts[shorts[::-1]], m)].astype(np.int64)
    # peq[b * (sigma + 1) + c] is byte b of the chunk's match mask for
    # character c; code sigma, which pads the texts, matches nothing.
    # A byte's bits are distinct powers of two, so adding them is or.
    peq = np.zeros(size * (sigma + 1), dtype=np.uint8)
    np.add.at(
        peq, (bit >> 3) * (sigma + 1) + char, (1 << (bit & 7)).astype(np.uint8)
    )
    lane = np.repeat(np.arange(n.size), lane_bytes)
    text = _padded(codes, starts, lengths, longs[::-1], int(n[0]), sigma)
    rows = text[lane].T
    base = np.arange(size) * (sigma + 1)
    # Each byte's pattern bits: 8, fewer in a lane's last pattern byte,
    # none in its guard bytes.
    pattern_bits = np.clip(m[lane] - 8 * (np.arange(size) - byte_starts[lane]), 0, 8)
    lane_bits = ((1 << pattern_bits) - 1).astype(np.uint8)
    bottom = np.zeros(size, dtype=np.uint8)
    bottom[byte_starts] = 1
    lane_mask, low = (
        int.from_bytes(mask.tobytes(), "little") for mask in (lane_bits, bottom)
    )
    # Step j ends the lanes of text length j + 1: bytes [first, live).
    first = np.flatnonzero(np.diff(n, prepend=-1))
    ends = dict(zip((n[first] - 1).tolist(), byte_starts[first].tolist()))
    vp, vn, full, live = lane_mask, 0, (1 << (8 * size)) - 1, size
    read_vp, read_vn = [], []
    from_bytes = int.from_bytes
    step = max(1, _LANE_BUDGET // (8 * size))
    for done in range(0, rows.shape[0], step):
        data = peq.take(base + rows[done : done + step]).tobytes()
        for j in range(done, min(done + step, rows.shape[0])):
            at = (j - done) * size
            eq = from_bytes(data[at : at + live], "little")
            x = eq | vn
            d0 = (((eq & vp) + vp) ^ vp) | x
            hn = vp & d0
            hp = vn | ((d0 | vp) ^ full)
            x = (hp << 1) | low
            vn = x & d0
            vp = ((hn << 1) | ((d0 | x) ^ full)) & lane_mask
            first_byte = ends.get(j)
            if first_byte is not None:
                read_vp.append(vp.to_bytes(live, "little")[first_byte:])
                read_vn.append(vn.to_bytes(live, "little")[first_byte:])
                live = first_byte
                full = (1 << (8 * live)) - 1
                vp &= full
                vn &= full
                lane_mask &= full
                low &= full
    # vn keeps stray bits in the guards; count lane bits only.
    up, down = (
        np.add.reduceat(
            np.bitwise_count(
                np.frombuffer(b"".join(reversed(read)), np.uint8) & lane_bits
            ),
            byte_starts,
            dtype=np.int64,
        )
        for read in (read_vp, read_vn)
    )
    return (n + up - down)[::-1].astype(np.float64)


# -- jaro / jaro-winkler --------------------------------------------------------


def jaro_pairs(
    strings: Sequence[str],
    index_a: np.ndarray,
    index_b: np.ndarray,
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
    pool, starts = _code_pool(strings, lengths)
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
