"""Frozen per-entity blocking baseline (pre-vectorization).

Two generations of frozen code live here:

* **Index construction** (PR 4 baseline): verbatim copies of the
  construction paths that ``repro.matching.blocking.TokenBlocker`` and
  ``repro.matching.multiblock.build_comparison_index`` shipped before
  the blocking front-end was vectorized — tokenisation/key extraction
  runs once per *entity occurrence* (no distinct-value memoisation, no
  bulk dict assembly, no executor fan-out).
* **Probing** (PR 5 baseline): verbatim copies of the per-entity probe
  loops the blockers shipped before batch probing —
  ``seed_token_probe`` (per-A-entity tokenise + per-uid seen-set
  loop) and ``seed_multiblock_probe`` (per-entity recursive candidate
  algebra, no probe-key memoisation).

``bench_micro_engine.py`` measures the live implementations against
these, and asserts the candidate sets stay identical — the speedup
must never buy a different result. ``tests/test_probe_parity.py``
additionally pins batch probing to the frozen probe loops
property-based.

The frozen MultiBlock loops read transformed values through
:class:`SeedValueMemo`, a plain per-(value signature, entity) memo
standing in for the per-entity session value cache they were written
against, so they keep measuring the same work.

Do not "improve" this module; its value is being frozen.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

from repro.data.entity import Entity
from repro.data.source import DataSource
from repro.engine.compiler import RuleCompiler
from repro.engine.values import evaluate_value_op
from repro.transforms.registry import default_registry as default_transforms

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


class SeedValueMemo:
    """Transformed values per (value signature, entity) in a plain
    dict — what the frozen MultiBlock loops look values up in."""

    def __init__(self):
        self._compiler = RuleCompiler()
        self._transforms = default_transforms()
        self._memo: dict[tuple, tuple[str, ...]] = {}

    def entity_values(self, node, entity: Entity) -> tuple[str, ...]:
        key = (self._compiler.value_signature(node), entity)
        values = self._memo.get(key)
        if values is None:
            values = evaluate_value_op(node, entity, self._transforms)
            self._memo[key] = values
        return values


def _tokens_of(entity: Entity, properties: Iterable[str]) -> set[str]:
    tokens: set[str] = set()
    for name in properties:
        for value in entity.values(name):
            tokens.update(t.lower() for t in _TOKEN_RE.findall(value))
    return tokens


def seed_token_index(
    source_b: DataSource, properties_b: list[str]
) -> dict[str, list[Entity]]:
    """The seed ``TokenBlocker.candidates`` index-construction loop."""
    index: dict[str, list[Entity]] = {}
    for entity_b in source_b:
        for token in _tokens_of(entity_b, properties_b):
            index.setdefault(token, []).append(entity_b)
    return index


class SeedTokenBlocker:
    """The seed per-entity token blocker (index built per call)."""

    def __init__(
        self,
        properties_a: Iterable[str],
        properties_b: Iterable[str] | None = None,
        max_block_size: int = 200,
    ):
        self._properties_a = list(properties_a)
        self._properties_b = (
            list(properties_b) if properties_b is not None else self._properties_a
        )
        self._max_block_size = max_block_size

    def candidates(self, source_a, source_b):
        index = seed_token_index(source_b, self._properties_b)
        dedup = source_a is source_b
        seen: set[tuple[str, str]] = set()
        for entity_a in source_a:
            for token in _tokens_of(entity_a, self._properties_a):
                block = index.get(token)
                if block is None or len(block) > self._max_block_size:
                    continue
                for entity_b in block:
                    if dedup:
                        if entity_a.uid >= entity_b.uid:
                            continue
                    elif entity_a.uid == entity_b.uid:
                        continue
                    key = (entity_a.uid, entity_b.uid)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield entity_a, entity_b


def seed_comparison_blocks(comparison, source_b, indexer, entity_values) -> dict:
    """The seed per-entity MultiBlock index-construction loop.

    ``entity_values(node, entity)`` supplies transformed values (the
    live path hands in the session value cache so both sides pay the
    same transformation cost and the timing isolates index assembly).
    """
    blocks: dict = {}
    for entity in source_b:
        values = entity_values(comparison.target, entity)
        for key in indexer.block_keys(values):
            blocks.setdefault(key, set()).add(entity.uid)
    return blocks


# ---------------------------------------------------------------------------
# Frozen per-entity probe loops (the pre-batch-probing implementations,
# operating over *live-built* indexes so timings isolate the probe side).
# ---------------------------------------------------------------------------

#: Frozen copy of the bulk tokenisation the per-entity probe loop used
#: (the probe baseline postdates bulk tokenisation; what it predates is
#: batch probing, so it tokenises exactly like the live path).
_ASCII_TOKEN_TABLE = {i: " " for i in range(128) if not chr(i).isalnum()}


def _text_tokens(text: str) -> list[str]:
    if text.isascii():
        return text.lower().translate(_ASCII_TOKEN_TABLE).split()
    return [token.lower() for token in _TOKEN_RE.findall(text)]


def _entity_text(entity: Entity, properties: Sequence[str]) -> str:
    values = entity.properties
    parts: list[str] = []
    for name in properties:
        entity_values = values.get(name)
        if entity_values:
            parts.extend(entity_values)
    return " ".join(parts)


def seed_token_probe(
    source_a: DataSource,
    source_b: DataSource,
    index: dict,
    properties_a: Sequence[str],
) -> Iterator[tuple[Entity, Entity]]:
    """The pre-batch ``TokenBlocker`` probe loop: per A entity,
    tokenise, look up each token's block and dedup partners through a
    per-entity Python ``seen`` set."""
    dedup = source_a is source_b
    for entity_a in source_a:
        uid_a = entity_a.uid
        seen: set[str] = set()
        tokens = dict.fromkeys(_text_tokens(_entity_text(entity_a, properties_a)))
        for token in tokens:
            block = index.get(token)
            if block is None:
                continue
            for uid_b in block:
                if dedup:
                    if uid_a >= uid_b:
                        continue
                elif uid_a == uid_b:
                    continue
                if uid_b in seen:
                    continue
                seen.add(uid_b)
                yield entity_a, source_b.get(uid_b)


def seed_multiblock_node_candidates(
    node, entity: Entity, indexes: dict, all_uids: frozenset, memo
) -> frozenset:
    """The pre-batch per-entity MultiBlock candidate algebra: probe
    keys derived afresh for every entity (no memoisation across
    entities sharing a transformed value tuple)."""
    from repro.core.nodes import AggregationNode, ComparisonNode

    if isinstance(node, ComparisonNode):
        index = indexes.get(id(node))
        if index is None:
            return all_uids
        values = memo.entity_values(node.source, entity)
        uids: set[str] = set()
        for key in index.indexer.probe_keys(values):
            uids.update(index.blocks.get(key, ()))
        return frozenset(uids)
    assert isinstance(node, AggregationNode)
    child_sets = [
        seed_multiblock_node_candidates(child, entity, indexes, all_uids, memo)
        for child in node.operators
    ]
    if node.function == "min":
        result = child_sets[0]
        for child_set in child_sets[1:]:
            result = result & child_set
        return result
    result = frozenset()
    for child_set in child_sets:
        result = result | child_set
    return result


def seed_token_probe_kernel(
    source_a: DataSource, index: dict, properties_a: Sequence[str]
) -> list[tuple[str, list[str]]]:
    """The probe *kernel* of the pre-batch token loop — per-entity
    partner computation (tokenise, per-token block lookup, per-uid
    ``seen``-set dedup) with the pair-level dedup/self filtering
    lifted out, matching the unfiltered ``probe_batch`` contract.
    Partner order is the loop's first-occurrence order."""
    out: list[tuple[str, list[str]]] = []
    for entity_a in source_a:
        seen: set[str] = set()
        partners: list[str] = []
        tokens = dict.fromkeys(_text_tokens(_entity_text(entity_a, properties_a)))
        for token in tokens:
            block = index.get(token)
            if block is None:
                continue
            for uid_b in block:
                if uid_b in seen:
                    continue
                seen.add(uid_b)
                partners.append(uid_b)
        out.append((entity_a.uid, partners))
    return out


def seed_multiblock_probe_kernel(
    rule, source_a: DataSource, indexes: dict, all_uids: frozenset, memo
) -> list[tuple[str, list[str]]]:
    """The probe kernel of the pre-batch MultiBlock loop — one
    recursive candidate-algebra evaluation per entity plus the
    per-entity sort that produced the deterministic emission order."""
    out: list[tuple[str, list[str]]] = []
    for entity_a in source_a:
        uids = seed_multiblock_node_candidates(
            rule.root, entity_a, indexes, all_uids, memo
        )
        out.append((entity_a.uid, sorted(uids)))
    return out


def seed_multiblock_probe(
    rule,
    source_a: DataSource,
    source_b: DataSource,
    indexes: dict,
    memo,
) -> Iterator[tuple[Entity, Entity]]:
    """The pre-batch ``MultiBlocker`` probe loop: per A entity, one
    recursive candidate-algebra evaluation, partners emitted in sorted
    uid order."""
    by_uid = {entity.uid: entity for entity in source_b}
    all_uids = frozenset(by_uid)
    dedup = source_a is source_b
    for entity_a in source_a:
        uids = seed_multiblock_node_candidates(
            rule.root, entity_a, indexes, all_uids, memo
        )
        for uid in sorted(uids):
            if dedup and entity_a.uid >= uid:
                continue
            if not dedup and entity_a.uid == uid:
                continue
            yield entity_a, by_uid[uid]
