"""MultiBlock: multidimensional, rule-aware candidate generation.

The paper executes learned rules with the MultiBlock engine of the Silk
framework [19] (Isele, Jentzsch & Bizer: "Efficient Multidimensional
Blocking for Link Discovery without losing Recall", WebDB 2011). This
module implements the same idea from scratch:

* every comparison contributes an *index*: entities are mapped into
  blocks derived from the comparison's **transformed** values — the
  same value trees the rule evaluates, so e.g. a rule comparing
  ``lowerCase(tokenize(label))`` blocks on lowercased tokens, not on
  the raw label;
* the block extent follows the link threshold t (Definition 3): a
  comparison scores ``1 - d/θ >= t`` only if ``d <= L = θ(1 - t)``, so
  each comparison is indexed only as far as a pair can still reach t.
  Numeric/date/geographic comparisons index into grid cells of width L
  and read candidates from adjacent cells (pairs within L are never
  more than one cell apart); jaccard and dice file each value set
  under a prefix of its values (prefix filtering: Chaudhuri, Ganti &
  Kaushik, ICDE 2006); levenshtein with L < 1 blocks on exact values;
* indexes compose through the aggregation hierarchy: ``min`` reaches t
  only if every child does, so its candidate set is the *intersection*
  of the children's; ``max`` and ``wmean`` (weights >= 1) reach t only
  if some child does, so their candidate set is the *union*. Either
  way every comparison is indexed at the rule's own t.

Guarantees: grid indexers (numeric, date, geographic latitude), the
prefix filter and the set indexers for ``equality``/token measures are
dismissal-free with respect to "the comparison could score at least
t". Indexes are built for ``t - 1e-9``, so float rounding of
``1 - d/θ`` and of a weighted mean never dismisses a pair that scores
exactly t. At t <= 0, and for comparisons with θ <= 0, the indexers
keep the extent of "the comparison could score above 0". Character
measures (levenshtein & friends) otherwise use padded q-gram indexing,
which can in principle dismiss a pair whose edit distance is large
relative to the string length; with the thresholds GenLink learns this
does not occur in practice (the recall of every blocker is measurable
with :func:`blocking_quality`).

Index construction is engine-integrated and runs on the block-table
layer of :mod:`repro.matching.blocking`, as token blocking does: each
comparison keeps a forward block table over the target and a reverse
one over the probe side, built, patched and resolved by the layer's
one builder, patcher and resolver, plus a code view of the forward
table. Transformed values are gathered from the session's value
column of the source state (the columns rule scoring reads
afterwards), block keys are derived once per *distinct* transformed
value tuple, and finished tables persist in the session store's index
tier keyed by source fingerprint × comparison structure — warm reruns
skip construction entirely. Probing mirrors it
(:meth:`MultiBlocker.probe_batch`): whole A-side chunks gather their
values per comparison and evaluate the candidate algebra at once, and
per-comparison probe results memoise per distinct transformed value
tuple. Both run inline on the calling thread.
:func:`multiblock_supports` is the structure test behind the engine's
default-blocker selection.
"""

from __future__ import annotations

import hashlib
import math
import zlib
from abc import ABC, abstractmethod
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.nodes import (
    AggregationNode,
    ComparisonNode,
    SimilarityNode,
)
from repro.core.rule import MATCH_THRESHOLD, LinkageRule
from repro.data.entity import Entity
from repro.data.source import DataSource, SourceState
from repro.distances.dates import parse_date
from repro.distances.geographic import parse_point
from repro.distances.numeric import parse_number
from repro.engine.compiler import signature_token, value_tree_signature
from repro.engine.session import EngineSession
from repro.engine.values import evaluate_value_op
from repro.matching.blocking import (
    _code_view,
    _memo_put,
    _probed_chunks,
    _resolve_index,
    _table_index,
    _union_codes,
    Blocker,
    CodeProbeBlocker,
    FullIndexBlocker,
)
from repro.transforms.registry import TransformationRegistry

#: Comparison indexes a :class:`MultiBlocker` builds at most (the
#: rule's first comparisons); further comparisons are simply not used
#: for pruning, which is always sound — fewer indexes means a larger
#: candidate set.
_MAX_COMPARISONS = 8


def _values_of(
    node,
    entities: Sequence[Entity],
    state: SourceState,
    session: EngineSession,
) -> list[tuple[str, ...]]:
    """Transformed values of ``entities`` for index keys: gathered from
    the session's column of ``state`` (shared with rule scoring) when
    every entity is the state's own, evaluated directly otherwise —
    displaced versions a delta patch unfiles."""
    found = state.positions_of(entities)
    if None not in found:
        return session.value_tuples(node, state, found)
    transforms = session.transforms
    return [evaluate_value_op(node, entity, transforms) for entity in entities]


#: Metres per degree of latitude (conservative lower bound).
_METRES_PER_DEGREE_LATITUDE = 110_574.0


class ComparisonIndexer(ABC):
    """Maps a comparison's value sets into hashable block keys.

    Two entities are candidates for the comparison iff their key sets
    intersect (after :meth:`probe_keys` expansion on the left side).
    """

    @abstractmethod
    def block_keys(self, values: Sequence[str]) -> set:
        """Block keys under which an entity with ``values`` is filed."""

    def probe_keys(self, values: Sequence[str]) -> set:
        """Keys to look up when searching partners for ``values``.

        Grid indexers override this to also probe adjacent cells; the
        default probes exactly the filing keys.
        """
        return self.block_keys(values)

    def reverse_probe_keys(self, values: Sequence[str]) -> set:
        """Keys to look up in a *reverse* index — probe-side entities
        filed under their own block keys — to find every entity whose
        :meth:`probe_keys` reach any of ``values``'s block keys.

        Must over-approximate (missed entities would silently drop
        candidate pairs from an incremental rescore). Exact for
        indexers whose probe keys equal their block keys; grid
        indexers widen by one extra cell per side to absorb the
        floor-rounding asymmetry between probing from A and probing
        back from B.
        """
        return self.probe_keys(values)

    def cache_token(self) -> str:
        """Stable identity of this indexer's block-key derivation.

        Part of the persistent index-tier key: two indexers with the
        same token must file identical values under identical keys
        (grid indexers fold their extent in, q-gram indexers their q,
        prefix indexers their similarity bound).
        """
        return type(self).__name__


class EqualityIndexer(ComparisonIndexer):
    """Exact-value blocks; dismissal-free for the equality measure."""

    def block_keys(self, values: Sequence[str]) -> set:
        return set(values)


class TokenIndexer(ComparisonIndexer):
    """One block per lowercased whitespace token; a value with no token
    (empty or all whitespace) is filed under the value itself, which
    never collides with a token.

    Dismissal-free for the set measures (jaccard, dice, overlap) with
    θ <= 1: a pair with distance < 1 shares a value, and a shared value
    shares its tokens, or its own key when it has none.
    """

    def cache_token(self) -> str:
        # v2 files tokenless values; a v1 index never filed them.
        return "TokenIndexer:v2"

    def block_keys(self, values: Sequence[str]) -> set:
        keys: set[str] = set()
        for value in values:
            tokens = value.split()
            if tokens:
                keys.update(token.lower() for token in tokens)
            else:
                keys.add(value)
        return keys


def _crc32(value: str) -> int:
    return zlib.crc32(value.encode("utf-8", "surrogatepass"))


def _content_order(values: Iterable[str]) -> list[str]:
    """``values`` in one fixed, content-only order: crc32 of the UTF-8
    bytes, ties broken by the value (never ``hash()``, which varies
    with the process's hash seed)."""
    return sorted(sorted(values), key=_crc32)


class PrefixIndexer(ComparisonIndexer):
    """Prefix-filter blocks for a Jaccard lower bound ``similarity``.

    A set of n distinct values files and probes under its first
    ``n - ceil(s*n) + 1`` values in :func:`_content_order`. Two sets
    with Jaccard >= s share at least ``ceil(s*n)`` values for either
    side's n, and the first shared value in that order lies in both
    prefixes, so no such pair is dismissed (prefix filtering:
    Chaudhuri, Ganti & Kaushik, ICDE 2006).
    """

    def __init__(self, similarity: float):
        if not (similarity > 0.0) or not math.isfinite(similarity):
            raise ValueError(
                f"similarity must be positive and finite, got {similarity}"
            )
        self._similarity = similarity

    def cache_token(self) -> str:
        return f"PrefixIndexer:s={self._similarity!r}"

    def block_keys(self, values: Sequence[str]) -> set:
        distinct = set(values)
        keep = len(distinct) - math.ceil(self._similarity * len(distinct)) + 1
        if keep >= len(distinct):
            return distinct
        return set(_content_order(distinct)[: max(keep, 0)])


class QGramIndexer(ComparisonIndexer):
    """Padded q-gram blocks for character-based measures.

    Strings within a small edit distance share most of their q-grams;
    strings shorter than ``q`` are filed under themselves.
    """

    def __init__(self, q: int = 2):
        if q < 1:
            raise ValueError("q must be >= 1")
        self._q = q

    def cache_token(self) -> str:
        return f"QGramIndexer:q={self._q}"

    def block_keys(self, values: Sequence[str]) -> set:
        keys: set[str] = set()
        for value in values:
            text = f"^{value.lower()}$"
            if len(text) <= self._q:
                keys.add(text)
                continue
            keys.update(
                text[i : i + self._q] for i in range(len(text) - self._q + 1)
            )
        return keys


class GridIndexer(ComparisonIndexer):
    """1-D grid blocks of width ``extent`` over a numeric projection.

    Values within ``extent`` of each other land in the same or an
    adjacent cell, so probing every block intersecting
    ``[v - extent, v + extent]`` is dismissal-free. The probe range
    carries a small relative guard so pairs sitting exactly on the
    threshold survive float rounding (the distance measures compare
    ``d <= theta`` in float arithmetic too).
    """

    def __init__(self, extent: float):
        if not (extent > 0.0) or not math.isfinite(extent):
            raise ValueError(f"extent must be positive and finite, got {extent}")
        self._extent = extent

    def cache_token(self) -> str:
        # repr() of the float is exact, so extents that differ in any
        # bit key differently (subclasses inherit: their class name and
        # derived extent identify the projection + grid).
        return f"{type(self).__name__}:extent={self._extent!r}"

    def project(self, value: str) -> float | None:
        """The numeric projection of one value; None if unparseable.

        Uses the same embedded-number extraction as the ``numeric``
        distance measure — the index must see exactly the values the
        comparison will see, or pairs the measure accepts could be
        dismissed.
        """
        return parse_number(value)

    def block_keys(self, values: Sequence[str]) -> set:
        keys: set[int] = set()
        for value in values:
            projected = self.project(value)
            if projected is not None:
                keys.add(math.floor(projected / self._extent))
        return keys

    def probe_keys(self, values: Sequence[str]) -> set:
        keys: set[int] = set()
        extent = self._extent
        for value in values:
            projected = self.project(value)
            if projected is None:
                continue
            guard = max(extent, abs(projected)) * 1e-9
            low = math.floor((projected - extent - guard) / extent)
            high = math.floor((projected + extent + guard) / extent)
            keys.update(range(low, high + 1))
        return keys

    def reverse_probe_keys(self, values: Sequence[str]) -> set:
        # One extra cell each side: a probe from value v_a reaches
        # cell(v_b) whenever |v_a - v_b| <~ extent, which bounds
        # |cell(v_a) - cell(v_b)| by 2 — one cell beyond the forward
        # probe range of v_b.
        keys: set[int] = set()
        extent = self._extent
        for value in values:
            projected = self.project(value)
            if projected is None:
                continue
            guard = max(extent, abs(projected)) * 1e-9
            low = math.floor((projected - extent - guard) / extent) - 1
            high = math.floor((projected + extent + guard) / extent) + 1
            keys.update(range(low, high + 1))
        return keys


class DateGridIndexer(GridIndexer):
    """Grid over proleptic ordinal day numbers (date measure)."""

    def project(self, value: str) -> float | None:
        parsed = parse_date(value)
        return float(parsed.toordinal()) if parsed is not None else None


class LatitudeGridIndexer(GridIndexer):
    """Grid over latitude degrees for the geographic measure.

    Latitude alone gives a sound 1-D reduction: two points within θ
    metres differ by at most θ / 110574 degrees of latitude regardless
    of longitude, so the ±1 cell probe never dismisses a true match.
    (A longitude dimension would need latitude-dependent extents to
    stay sound near the poles; the latitude grid keeps the guarantee
    simple and already removes the quadratic blow-up.)
    """

    def __init__(self, threshold_metres: float):
        super().__init__(
            extent=max(threshold_metres, 1.0) / _METRES_PER_DEGREE_LATITUDE
        )

    def project(self, value: str) -> float | None:
        point = parse_point(value)
        return point[0] if point is not None else None


#: Largest Levenshtein threshold (character edits) the q-gram index
#: accepts: k edits destroy at most 2k padded bigrams, so shared grams
#: are guaranteed for strings longer than ~2k+2 characters and near-
#: certain below that. GenLink's learned name comparisons sit at 1-2.
_MAX_INDEXED_EDITS = 2.0

#: Largest threshold for [0, 1]-normalised character measures
#: (normalizedLevenshtein, jaro, jaroWinkler): here the permitted edits
#: scale with the string length and so does the q-gram overlap, making
#: moderate thresholds safe at every length.
_MAX_INDEXED_NORMALIZED = 0.25

#: Indexes are built for the link threshold minus this guard, so float
#: rounding of ``1 - d/θ`` and of a weighted mean never dismisses a pair
#: that scores exactly the threshold.
_THRESHOLD_GUARD = 1e-9


def _reach(theta: float, threshold: float) -> float | None:
    """The largest distance L at which a comparison with threshold θ
    still scores the link threshold t: ``1 - d/θ >= t`` iff
    ``d <= θ(1 - t)``, taken at ``t - 1e-9``. None for t <= 0 or
    θ <= 0, where the comparison is indexed for "could score above 0"."""
    limit = threshold - _THRESHOLD_GUARD
    if limit <= 0.0 or theta <= 0.0:
        return None
    return theta * (1.0 - limit)


def indexer_for_comparison(
    node: ComparisonNode, threshold: float = 0.0
) -> ComparisonIndexer | None:
    """The indexer matching a comparison's measure, or None when the
    measure (at this comparison's threshold) has no dismissal-free
    index — the caller then treats the comparison as non-selective,
    which is always sound.

    ``threshold`` is the link threshold t the comparison must reach;
    an indexable comparison is indexed only as far as a pair can still
    reach it (:func:`_reach`). Which comparisons are indexable does not
    depend on t; the default 0 indexes for "could score above 0".

    Unindexed on principle: ``relativeNumeric`` (its absolute tolerance
    scales with the values' magnitude, so no fixed grid works),
    ``mongeElkan`` (tokens may match approximately, so exact-token
    blocks lose recall), and jaccard, dice and overlap with θ > 1
    (disjoint value sets, at distance 1, still score ``1 - 1/θ > 0``,
    and reach t = 0.5 from θ 2). Character measures are indexed only
    up to the thresholds where q-gram co-occurrence is
    (near-)guaranteed; learned rules with looser thresholds fall back
    to the other comparisons of the rule for pruning.
    """
    metric = node.metric
    reach = _reach(node.threshold, threshold)
    if metric == "equality":
        return EqualityIndexer()
    if metric in ("jaccard", "dice", "overlap") and node.threshold > 1.0:
        return None
    if metric in ("jaccard", "dice") and reach is not None:
        # Jaccard >= 1 - L; dice >= 1 - L means Jaccard >= (1-L)/(1+L).
        similarity = 1.0 - reach
        if metric == "dice":
            similarity /= 1.0 + reach
        if similarity > 0.0:
            return PrefixIndexer(similarity)
    if metric in ("jaccard", "dice", "overlap"):
        # At θ <= 1 a pair scores above 0 only at distance < 1, which
        # needs a shared value, so token blocking never dismisses.
        return TokenIndexer()
    if metric in ("qgrams", "softJaccard"):
        # qgrams: distance < 1 literally means shared grams. The
        # soft-jaccard tolerance is per token (<= 1 edit), which keeps
        # bigram overlap through the matching token.
        return QGramIndexer()
    if metric == "levenshtein" and node.threshold <= _MAX_INDEXED_EDITS:
        # An integer edit distance <= L < 1 means identical strings.
        if reach is not None and reach < 1.0:
            return EqualityIndexer()
        return QGramIndexer()
    if (
        metric in ("normalizedLevenshtein", "jaro", "jaroWinkler")
        and node.threshold <= _MAX_INDEXED_NORMALIZED
    ):
        return QGramIndexer()
    extent = node.threshold if reach is None else reach
    if metric == "numeric":
        return GridIndexer(extent=max(extent, 1e-9))
    if metric == "date":
        return DateGridIndexer(extent=max(extent, 1.0))
    if metric == "geographic":
        return LatitudeGridIndexer(threshold_metres=extent)
    return None


def multiblock_supports(rule: LinkageRule) -> bool:
    """Whether a rule's comparison structure gives MultiBlock a
    selective, dismissal-free candidate set.

    Mirrors the candidate-set algebra of :class:`MultiBlocker`: a
    comparison is selective iff it has an indexer at its threshold; a
    ``min`` aggregation is selective if *any* child is (intersection);
    ``max``/``wmean`` need *every* child selective, because the union
    with one unindexable child is the whole source. Engines use this to
    pick :class:`MultiBlocker` as the default only where it actually
    prunes.
    """

    def selective(node: SimilarityNode) -> bool:
        if isinstance(node, ComparisonNode):
            return indexer_for_comparison(node) is not None
        assert isinstance(node, AggregationNode)
        if node.function == "min":
            return any(selective(child) for child in node.operators)
        return all(selective(child) for child in node.operators)

    return selective(rule.root)


@dataclass(frozen=True)
class ComparisonIndex:
    """A built index of source B for one comparison."""

    comparison: ComparisonNode
    indexer: ComparisonIndexer
    #: block key -> uids of B entities filed under it (source order).
    blocks: dict

    def candidates_for(
        self, entity: Entity, transforms: TransformationRegistry
    ) -> set[str]:
        values = evaluate_value_op(self.comparison.source, entity, transforms)
        return self.candidates_for_values(values)

    def candidates_for_values(self, values: Sequence[str]) -> set[str]:
        """Candidate uids for one transformed value tuple (the
        memoisable half of :meth:`candidates_for` — identical values
        always probe identical keys, so batch probing derives this
        once per *distinct* tuple)."""
        uids: set[str] = set()
        for key in self.indexer.probe_keys(values):
            uids.update(self.blocks.get(key, ()))
        return uids


def comparison_index_token(
    comparison: ComparisonNode, indexer: ComparisonIndexer
) -> str:
    """Persistent-tier key token of one comparison's target index.

    Combines the indexer's block-key derivation (class + extent/q —
    thresholds enter *only* through the indexer they select) with the
    canonical structural signature of the target value tree, so every
    weight mutation and every comparison sharing the same target tree
    and indexer configuration shares one persisted index.
    """
    return (
        f"cmpidx:v1:{indexer.cache_token()}:"
        f"{signature_token(value_tree_signature(comparison.target))}"
    )


def _comparison_table(
    value_node,
    indexer: ComparisonIndexer,
    source: DataSource,
    session: EngineSession,
    token: str,
) -> dict:
    """One ``{block key: (uids...)}`` table of ``source`` under a value
    tree × indexer, through the block-table layer under ``token``:
    each entity files under the block keys of its transformed values,
    derived once per *distinct* value tuple."""
    state = source.state()
    key_memo: dict[tuple[str, ...], tuple] = {}

    def keys_of(entities: Sequence[Entity]) -> list:
        keys = []
        for values in _values_of(value_node, entities, state, session):
            entity_keys = key_memo.get(values)
            if entity_keys is None:
                entity_keys = tuple(indexer.block_keys(values))
                key_memo[values] = entity_keys
            keys.append(entity_keys)
        return keys

    return _table_index(session, source, token, keys_of)


def build_comparison_index(
    comparison: ComparisonNode,
    source_b: DataSource,
    transforms: TransformationRegistry,
    session: EngineSession | None = None,
    threshold: float = 0.0,
) -> ComparisonIndex | None:
    """Index source B under a comparison's target value tree, as far as
    a pair can still reach the link ``threshold``
    (:func:`indexer_for_comparison`).

    Transformed values are gathered from the session's value column of
    ``source_b``'s state (the column the rule scoring that follows
    blocking reads), and the finished block table resolves through the
    session's index memo and the persistent store's index tier — a
    warm rerun over an unchanged source skips construction entirely,
    and a source a few deltas ahead of a resolved epoch patches the
    table forward instead of rebuilding. Without a ``session`` the
    index builds through a serial, store-less session over
    ``transforms``.

    Construction is value-memoised: block keys are derived once per
    *distinct* transformed value tuple.
    """
    indexer = indexer_for_comparison(comparison, threshold)
    if indexer is None:
        return None
    if session is None:
        session = EngineSession(transforms=transforms, executor=0, store="")
    blocks = _comparison_table(
        comparison.target,
        indexer,
        source_b,
        session,
        comparison_index_token(comparison, indexer),
    )
    return ComparisonIndex(comparison=comparison, indexer=indexer, blocks=blocks)


def _intersect_codes(sets: Sequence[np.ndarray], size: int) -> np.ndarray:
    """Intersection of sorted unique code arrays, sorted."""
    mask = np.zeros(size, dtype=bool)
    mask[sets[0]] = True
    for codes in sets[1:]:
        other = np.zeros(size, dtype=bool)
        other[codes] = True
        mask &= other
    return np.flatnonzero(mask)


@dataclass(frozen=True)
class MultiProbeIndex:
    """Probe-side state of one :class:`MultiBlocker` over a target
    source: the per-comparison indexes, their code-space views, and
    the shared code table. Codes number *all* B uids in sorted order
    (unindexable nodes contribute ``all_codes`` to the candidate
    algebra), so sorted code arrays are sorted uid sequences."""

    indexes: dict[int, ComparisonIndex]
    #: comparison node id -> {block key: sorted unique int32 codes}.
    views: dict[int, dict]
    #: code -> uid, ascending (the shared code table of every view).
    uids: tuple[str, ...]
    #: Candidate set of unindexable nodes (identity-compared sentinel).
    all_codes: np.ndarray
    #: Code-space size (mask length for unions/intersections).
    size: int
    #: The probe side's source state, whose value columns probing
    #: gathers from.
    probe_state: SourceState

    @property
    def all_uids(self) -> frozenset:
        """uid view of the full candidate universe (parity suites)."""
        return frozenset(self.uids)


class MultiBlocker(CodeProbeBlocker):
    """Aggregation-aware multidimensional blocking for one rule.

    Indexes the rule's first :data:`_MAX_COMPARISONS` comparisons. Each
    indexable comparison contributes a forward block table over the
    target and a reverse one over the probe side, plus a code view of
    the forward table over one shared uid code table — all through the
    block-table layer of :mod:`repro.matching.blocking`, under the
    session a call is handed (whose transforms define the index keys)
    or this blocker's private one.

    ``threshold`` is the link threshold the candidates must be able to
    reach: every comparison is indexed only as far as a pair can still
    score it (the engine refuses a blocker whose threshold is above its
    own, which could dismiss links).
    """

    def __init__(self, rule: LinkageRule, threshold: float = MATCH_THRESHOLD):
        super().__init__()
        self._rule = rule
        self._threshold = threshold

    @property
    def threshold(self) -> float:
        """The link threshold this blocker's indexes are built for."""
        return self._threshold

    # -- candidate set algebra -------------------------------------------------
    def _node_codes(
        self,
        node: SimilarityNode,
        values: dict[int, list],
        probe: MultiProbeIndex,
        memo: dict,
        memo_hits: list[int],
    ) -> list[np.ndarray] | None:
        """Per probe entity of a chunk, the codes of B entities that
        could make ``node`` score at least the blocker's threshold,
        given the chunk's transformed values per comparison id; None
        when the node is not indexable (every B entity is a candidate —
        a property of the rule's structure, so it holds for the whole
        chunk).

        The whole algebra runs in code space, one node at a time over
        the chunk: a comparison unions its probed blocks through a
        boolean mask over the code space (one C pass, result sorted
        for free via ``flatnonzero``); ``min`` intersects and
        ``max``/``wmean`` union child sets the same way. Per-comparison
        probe results memoise in ``memo`` keyed by ``(comparison id,
        transformed value tuple)`` — the probe-side mirror of the index
        build's distinct-value memo — so entities sharing a transformed
        tuple (duplicate-heavy sources, constant properties) skip
        probe-key derivation *and* the union; ``memo_hits[0]`` counts
        the skips. The memo is shared across the probe batches of a
        run; a memoised result equals a recomputed one, so sharing can
        only save work, never change a result.
        """
        size = probe.size
        if isinstance(node, ComparisonNode):
            node_id = id(node)
            view = probe.views.get(node_id)
            if view is None:
                return None
            get = view.get
            probe_keys = probe.indexes[node_id].indexer.probe_keys
            rows = []
            hits = 0
            for tuple_ in values[node_id]:
                key = (node_id, tuple_)
                codes = memo.get(key)
                if codes is None:
                    blocks = [
                        block
                        for block in map(get, probe_keys(tuple_))
                        if block is not None
                    ]
                    codes = _union_codes(blocks, size)
                    _memo_put(memo, key, codes)
                else:
                    hits += 1
                rows.append(codes)
            memo_hits[0] += hits
            return rows
        assert isinstance(node, AggregationNode)
        children = [
            self._node_codes(child, values, probe, memo, memo_hits)
            for child in node.operators
        ]
        if node.function == "min":
            selective = [rows for rows in children if rows is not None]
            if len(selective) < 2:
                return selective[0] if selective else None
            return [_intersect_codes(sets, size) for sets in zip(*selective)]
        # max / wmean: reaching t requires at least one child that
        # reaches t (a weighted mean never exceeds its largest child),
        # so the union is dismissal-free.
        if any(rows is None for rows in children):
            return None
        return [
            _union_codes([codes for codes in sets if len(codes)], size)
            for sets in zip(*children)
        ]

    def signature(self) -> str | None:
        """None: MultiBlock persistence is finer-grained — each
        comparison index is its own index-tier entry (see
        :func:`comparison_index_token`), so rules sharing comparisons
        share persisted indexes."""
        return None

    def build_index(self, source, session=None):
        """All comparison indexes of this blocker's rule over a target
        source, keyed by comparison node id (each index resolves
        through the session's memo and persistent index tier)."""
        session = self._session(session)
        comparisons = self._rule.comparisons()[:_MAX_COMPARISONS]
        built = [
            build_comparison_index(
                comparison, source, session.transforms, session, self._threshold
            )
            for comparison in comparisons
        ]
        return {
            id(comparison): index
            for comparison, index in zip(comparisons, built)
            if index is not None
        }

    def probe_index(
        self,
        source_a: DataSource,
        source_b: DataSource,
        session: "EngineSession | None" = None,
    ) -> "MultiProbeIndex":
        """The probe-side state over a target source: the built
        comparison indexes, their code-space views and the shared uid
        code table. The uid table and each comparison's code view are
        views of the block-table layer (key suffix ``probe-codes-v1``):
        warm sessions and warm stores skip the derivation like they
        skip the block tables themselves, and a delta re-derives them
        from the patched tables."""
        session = self._session(session)
        indexes = self.build_index(source_b, session=session)
        uids: tuple[str, ...] = _resolve_index(
            session,
            source_b,
            "multiblock-uid-codes-v1",
            lambda: tuple(sorted(entity.uid for entity in source_b)),
        )
        code_of = {uid: code for code, uid in enumerate(uids)}
        views: dict[int, dict] = {}
        for node_id, comparison_index in indexes.items():
            token = (
                comparison_index_token(
                    comparison_index.comparison, comparison_index.indexer
                )
                + "|probe-codes-v1"
            )
            views[node_id] = _resolve_index(
                session,
                source_b,
                token,
                lambda ci=comparison_index: _code_view(ci.blocks, code_of),
            )
        return MultiProbeIndex(
            indexes=indexes,
            views=views,
            uids=uids,
            all_codes=np.arange(len(uids), dtype=np.int32),
            size=len(uids),
            probe_state=source_a.state(),
        )

    def probe_batch(self, entities, index, session=None, memo=None):
        """Batch probe: gathers the chunk's transformed values per
        comparison from the session's columns of the probe state
        (``index.probe_state``), then evaluates the min/max/wmean
        candidate algebra for the whole chunk in code space, memoising
        per-comparison probe results per distinct transformed value
        tuple (mirroring the index build's distinct-value memo).
        Returns one sorted partner-code array per entity (sorted codes
        are sorted uids — the blocker's deterministic emission order);
        :meth:`probe_uids` materialises the uid view.

        ``memo`` lets a streaming caller share the distinct-value memo
        across successive probe batches (the shard stream threads one
        through the whole run); ``None`` scopes it to this call.
        """
        session = self._session(session)
        root = self._rule.root
        shared_memo = memo if memo is not None else {}
        session.record_probe(batches=1)
        values = {
            node_id: _values_of(
                comparison_index.comparison.source,
                entities,
                index.probe_state,
                session,
            )
            for node_id, comparison_index in index.indexes.items()
        }
        hits = [0]
        results = self._node_codes(root, values, index, shared_memo, hits)
        session.record_probe(memo_hits=hits[0])
        if results is None:
            return [index.all_codes] * len(entities)
        return results

    def _probe_plan(self, source_a, source_b, session):
        """With no indexable comparison the streams take the (lazy)
        full product rather than a degenerate everything-matches
        probe."""
        probe = self.probe_index(source_a, source_b, session=session)
        return probe if probe.indexes else None

    def _reverse_blocks(
        self,
        comparison: ComparisonNode,
        indexer: ComparisonIndexer,
        source_a: DataSource,
        session: EngineSession,
    ) -> dict:
        """Reverse comparison index: probe-side (A) entities filed
        under the block keys of the comparison's *source* value tree.
        ``reverse[key]`` answers "which A entities' probe keys could
        reach ``key``" (after :meth:`ComparisonIndexer.
        reverse_probe_keys` expansion at lookup time). Persisted and
        patched like the forward tables, under its own ``rev`` token."""
        token = (
            f"cmpidx-rev:v1:{indexer.cache_token()}:"
            f"{signature_token(value_tree_signature(comparison.source))}"
        )
        return _comparison_table(
            comparison.source, indexer, source_a, session, token
        )

    def affected_probe_uids(
        self, source_a, source_b, deltas_a, deltas_b, session=None
    ):
        """Probe-side uids whose candidate sets may have changed.

        The candidate algebra is a monotone function of the
        per-comparison block relations, each of which depends only on
        its two endpoints' values (MultiBlock has no data-dependent
        block-size limit, unlike token blocking), and the set of
        *built* comparisons is a pure function of the rule structure —
        so a pair of two *unchanged* entities can never flip. The
        minimal affected set is therefore empty: the engine unions in
        the changed uids itself, and the pairs of a changed B entity
        with unchanged probe entities are emitted by the targeted
        reverse pass of :meth:`iter_affected_shards` instead of
        re-probing every reverse-index hit in full. Returns None (full
        rescore) when the algebra has a non-selective branch — there
        an inserted or deleted B entity pairs with *every* probe
        entity."""
        dedup = source_a is source_b
        deltas_b = tuple(deltas_a) if dedup else tuple(deltas_b)
        if not deltas_b:
            # Only the probe side changed: unchanged probe entities
            # keep their candidate sets (the target index is frozen).
            return frozenset()
        probe = self.probe_index(source_a, source_b, session=session)
        if not probe.indexes:
            return None

        def selective(node: SimilarityNode) -> bool:
            if isinstance(node, ComparisonNode):
                return id(node) in probe.views
            assert isinstance(node, AggregationNode)
            if node.function == "min":
                return any(selective(child) for child in node.operators)
            return all(selective(child) for child in node.operators)

        if not selective(self._rule.root):
            return None
        return frozenset()

    def _reverse_pair_lists(
        self, source_a, source_b, affected, index, session, ledger
    ):
        """For each affected B entity this pass derives a coarse
        A-partner superset from the per-comparison reverse indexes
        (sound because a candidate pair satisfies at least one built
        comparison's block relation, and
        :meth:`ComparisonIndexer.reverse_probe_keys` over-approximates
        it), then *verifies* exact candidacy by probing those partners
        against the current index and checking the B entity's code in
        their partner-code arrays — emission without verification
        would leak non-candidate pairs and break byte-parity with a
        cold execute. Verification probes ride the stream's
        probe-result ledger and a distinct-value memo like every other
        probe."""
        uids = index.uids
        get_a = source_a.get
        targets: list[tuple[str, int]] = []
        for uid in sorted(affected):
            if uid not in source_b:
                continue
            code = bisect_left(uids, uid)
            if code < len(uids) and uids[code] == uid:
                targets.append((uid, code))
        if not targets:
            return
        entities_b = [source_b.get(uid) for uid, _ in targets]
        # Per built comparison: the reverse table's lookup, the
        # indexer, and the targets' transformed values.
        lookups = []
        for comparison_index in index.indexes.values():
            comparison = comparison_index.comparison
            indexer = comparison_index.indexer
            reverse = self._reverse_blocks(comparison, indexer, source_a, session)
            values = _values_of(
                comparison.target, entities_b, source_b.state(), session
            )
            lookups.append((reverse.get, indexer, values))
        coarse: list[tuple[str, int, list[str]]] = []
        partner_uids: set[str] = set()
        for row, (uid, code) in enumerate(targets):
            partners: set[str] = set()
            for get, indexer, values in lookups:
                for key in indexer.reverse_probe_keys(values[row]):
                    block = get(key)
                    if block is not None:
                        partners.update(block)
            partners -= affected
            partners.discard(uid)
            if partners:
                coarse.append((uid, code, sorted(partners)))
                partner_uids.update(partners)
        if not coarse:
            return
        entities = [get_a(uid) for uid in sorted(partner_uids)]
        codes_of: dict[str, np.ndarray] = {}
        for chunk, results in _probed_chunks(
            self, entities, index, ledger, session
        ):
            for entity, codes in zip(chunk, results):
                codes_of[entity.uid] = codes
        for uid_b, code_b, partners in coarse:
            entity_b = source_b.get(uid_b)
            pairs = []
            for partner in partners:
                codes = codes_of[partner]
                position = int(np.searchsorted(codes, code_b))
                if position < len(codes) and codes[position] == code_b:
                    pairs.append((get_a(partner), entity_b))
            if pairs:
                yield pairs

    def _ledger_token(self) -> str:
        from repro.core.serialization import rule_to_json

        rule_token = hashlib.sha256(
            rule_to_json(self._rule, indent=None).encode("utf-8")
        ).hexdigest()[:24]
        # Probe results follow from each comparison's block keys, so
        # the ledger names its indexers' derivations: a ledger written
        # under another one reads as a miss.
        indexers = [
            indexer_for_comparison(comparison, self._threshold)
            for comparison in self._rule.comparisons()[:_MAX_COMPARISONS]
        ]
        keys_token = hashlib.sha256(
            "|".join(
                "-" if indexer is None else indexer.cache_token()
                for indexer in indexers
            ).encode("utf-8")
        ).hexdigest()[:24]
        return (
            f"multiblock:v3:rule={rule_token}:t={self._threshold!r}:"
            f"keys={keys_token}:max={_MAX_COMPARISONS}|probe-results-v1"
        )


@dataclass(frozen=True)
class BlockingQuality:
    """Pair-completeness / reduction-ratio of a blocker on a workload."""

    candidate_pairs: int
    total_pairs: int
    covered_matches: int
    total_matches: int

    @property
    def pairs_completeness(self) -> float:
        """Recall of the candidate set over the true matches."""
        if self.total_matches == 0:
            return 1.0
        return self.covered_matches / self.total_matches

    @property
    def reduction_ratio(self) -> float:
        """Fraction of the Cartesian product pruned away."""
        if self.total_pairs == 0:
            return 0.0
        return 1.0 - self.candidate_pairs / self.total_pairs


def blocking_quality(
    blocker: Blocker,
    source_a: DataSource,
    source_b: DataSource,
    true_matches: Iterable[tuple[str, str]],
) -> BlockingQuality:
    """Measure a blocker against known matches (e.g. reference links).

    The baseline is the full index's candidate count, so a
    deduplication source (``source_a is source_b``) counts its
    n(n-1)/2 unordered pairs; there, matches and candidates compare as
    unordered uid pairs, whichever way round either names them.
    """
    dedup = source_a is source_b

    def key(uid_a: str, uid_b: str) -> tuple[str, str]:
        if dedup and uid_b < uid_a:
            return uid_b, uid_a
        return uid_a, uid_b

    matches = {key(uid_a, uid_b) for uid_a, uid_b in true_matches}
    candidate_pairs = 0
    covered: set[tuple[str, str]] = set()
    for entity_a, entity_b in blocker.candidates(source_a, source_b):
        candidate_pairs += 1
        pair = key(entity_a.uid, entity_b.uid)
        if pair in matches:
            covered.add(pair)
    return BlockingQuality(
        candidate_pairs=candidate_pairs,
        total_pairs=FullIndexBlocker().candidate_count(source_a, source_b),
        covered_matches=len(covered),
        total_matches=len(matches),
    )
