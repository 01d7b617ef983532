"""The pre-vectorization string-distance column path, frozen verbatim.

``repro.distances`` now routes the string-measure family (levenshtein,
jaro/jaro-winkler, jaccard and the token set measures) through batch
numpy kernels; this module preserves the original per-pair scalar
implementations plus the deduplicated ``fallback_column`` loop that
``evaluate_column`` used before, so ``bench_micro_engine.py`` can
measure the kernels against the exact path they replaced. Do not "fix"
or optimise this file — it is a measurement baseline, not production
code.

Note the frozen ``seed_levenshtein`` keeps the seed's loose out-of-range
contract (any value above the bound may come back); the live scalar now
pins out-of-range results to exactly ``bound + 1``. The benchmark
therefore asserts bit-identity against the *live* scalar oracle and uses
this module for timing only.

The module also freezes the first batch levenshtein kernel,
``seed_levenshtein_pairs``: a clamped edit-distance DP run as numpy row
sweeps over padded code matrices (``_lev_chunk``), which the
lane-packed bit-vector kernel replaced. ``bench_micro_engine.py``'s
``test_levenshtein_kernel_speedup`` times the live kernel against it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.distances.base import INFINITE_DISTANCE
from repro.distances.strings import StringKernelMemo

ValueColumn = Sequence[Sequence[str]]


def seed_levenshtein(a: str, b: str, bound: int | None = None) -> float:
    """Banded edit distance, seed version (row-at-a-time Python DP)."""
    if a == b:
        return 0.0
    la, lb = len(a), len(b)
    if la == 0:
        return float(lb)
    if lb == 0:
        return float(la)
    if bound is not None and abs(la - lb) > bound:
        return float(bound + 1)
    if la > lb:
        a, b = b, a
        la, lb = lb, la
    previous = list(range(la + 1))
    current = [0] * (la + 1)
    for j in range(1, lb + 1):
        current[0] = j
        bj = b[j - 1]
        row_min = current[0]
        for i in range(1, la + 1):
            cost = 0 if a[i - 1] == bj else 1
            value = min(
                previous[i] + 1,
                current[i - 1] + 1,
                previous[i - 1] + cost,
            )
            current[i] = value
            if value < row_min:
                row_min = value
        if bound is not None and row_min > bound:
            return float(bound + 1)
        previous, current = current, previous
    return float(previous[la])


def seed_jaro_similarity(a: str, b: str) -> float:
    """Classic Jaro similarity, seed version (per-character loops)."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    matched_a = [False] * la
    matched_b = [False] * lb
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        for j in range(lo, hi):
            if not matched_b[j] and b[j] == ca:
                matched_a[i] = True
                matched_b[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(la):
        if matched_a[i]:
            while not matched_b[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    m = float(matches)
    return (m / la + m / lb + (m - transpositions) / m) / 3.0


def seed_jaro_winkler_similarity(a: str, b: str, prefix_scale: float = 0.1) -> float:
    base = seed_jaro_similarity(a, b)
    prefix = 0
    for ca, cb in zip(a[:4], b[:4]):
        if ca != cb:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def seed_jaccard_distance(values_a: Iterable[str], values_b: Iterable[str]) -> float:
    set_a = set(values_a)
    set_b = set(values_b)
    if not set_a or not set_b:
        return INFINITE_DISTANCE
    intersection = len(set_a & set_b)
    union = len(set_a | set_b)
    return 1.0 - intersection / union


def seed_dice_distance(values_a: Iterable[str], values_b: Iterable[str]) -> float:
    set_a = set(values_a)
    set_b = set(values_b)
    if not set_a or not set_b:
        return INFINITE_DISTANCE
    return 1.0 - 2.0 * len(set_a & set_b) / (len(set_a) + len(set_b))


def seed_min_over_pairs(
    values_a: Sequence[str],
    values_b: Sequence[str],
    pair_distance: Callable[[str, str], float],
    max_pairs: int = 256,
) -> float:
    """Minimum over the value cross product with the 256-pair budget."""
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


def seed_string_column(
    evaluate: Callable[[Sequence[str], Sequence[str]], float],
    columns_a: ValueColumn,
    columns_b: ValueColumn,
) -> np.ndarray:
    """The pre-kernel ``evaluate_column``: per-pair loop deduplicated by
    value-tuple identity — exactly the seed ``fallback_column``."""
    if len(columns_a) != len(columns_b):
        raise ValueError(
            f"column length mismatch: {len(columns_a)} vs {len(columns_b)}"
        )
    out = np.full(len(columns_a), INFINITE_DISTANCE, dtype=np.float64)
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


def seed_levenshtein_column(
    columns_a: ValueColumn, columns_b: ValueColumn, max_bound: int = 11
) -> np.ndarray:
    return seed_string_column(
        lambda va, vb: seed_min_over_pairs(
            va, vb, lambda x, y: seed_levenshtein(x, y, bound=max_bound)
        ),
        columns_a,
        columns_b,
    )


def seed_jaro_winkler_column(
    columns_a: ValueColumn, columns_b: ValueColumn
) -> np.ndarray:
    return seed_string_column(
        lambda va, vb: seed_min_over_pairs(
            va, vb, lambda x, y: 1.0 - seed_jaro_winkler_similarity(x, y)
        ),
        columns_a,
        columns_b,
    )


def seed_jaccard_column(
    columns_a: ValueColumn, columns_b: ValueColumn
) -> np.ndarray:
    return seed_string_column(seed_jaccard_distance, columns_a, columns_b)


def seed_dice_column(columns_a: ValueColumn, columns_b: ValueColumn) -> np.ndarray:
    return seed_string_column(seed_dice_distance, columns_a, columns_b)


# -- the numpy row-DP batch kernel ------------------------------------------

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


def seed_levenshtein_pairs(
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
