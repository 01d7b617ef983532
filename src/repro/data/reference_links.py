"""Reference link sets (Definition 2) and negative-link generation.

The evaluation datasets ship with positive links only; the paper
generates negatives by cross-pairing: for two positive links (a, b) and
(c, d) it adds (a, d) and (c, b) as negatives, which is sound when the
positive links are complete or the sources are internally duplicate-free
(Section 6.1).
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Sequence

from repro.data.entity import Entity
from repro.data.pairs import PairBatch
from repro.data.source import DataSource

Link = tuple[str, str]


class ReferenceLinkSet:
    """Positive and negative reference links between two data sources."""

    def __init__(
        self,
        positive: Iterable[Link] = (),
        negative: Iterable[Link] = (),
    ):
        self._positive: list[Link] = list(dict.fromkeys(tuple(l) for l in positive))
        self._negative: list[Link] = list(dict.fromkeys(tuple(l) for l in negative))
        overlap = set(self._positive) & set(self._negative)
        if overlap:
            raise ValueError(
                f"{len(overlap)} link(s) are both positive and negative, "
                f"e.g. {next(iter(overlap))}"
            )

    @property
    def positive(self) -> list[Link]:
        return list(self._positive)

    @property
    def negative(self) -> list[Link]:
        return list(self._negative)

    def __len__(self) -> int:
        return len(self._positive) + len(self._negative)

    def __iter__(self) -> Iterator[tuple[Link, bool]]:
        """Iterate (link, is_positive) pairs, positives first."""
        for link in self._positive:
            yield link, True
        for link in self._negative:
            yield link, False

    def labelled_pairs(
        self, source_a: DataSource, source_b: DataSource
    ) -> tuple[PairBatch, list[bool]]:
        """Resolve links to entity pairs plus a parallel label list.

        The pairs come as a :class:`~repro.data.pairs.PairBatch` that
        carries both sides' source positions, so every context over it
        — training and validation alike — gathers transformed values
        from the sources' shared value columns."""
        pairs: list[tuple[Entity, Entity]] = []
        labels: list[bool] = []
        for (uid_a, uid_b), label in self:
            pairs.append((source_a.get(uid_a), source_b.get(uid_b)))
            labels.append(label)
        return PairBatch.from_pairs(pairs, source_a, source_b), labels

    def subset(self, indices: Sequence[int]) -> "ReferenceLinkSet":
        """A new link set containing the links at the given indices.

        Indices follow the iteration order of :meth:`__iter__`
        (positives first, then negatives).
        """
        all_links = list(self)
        chosen = [all_links[i] for i in indices]
        positive = [link for link, label in chosen if label]
        negative = [link for link, label in chosen if not label]
        return ReferenceLinkSet(positive, negative)

    def shuffled(self, rng: random.Random) -> "ReferenceLinkSet":
        """A copy with both lists shuffled (stable content)."""
        positive = list(self._positive)
        negative = list(self._negative)
        rng.shuffle(positive)
        rng.shuffle(negative)
        return ReferenceLinkSet(positive, negative)

    def with_negatives(self, negative: Iterable[Link]) -> "ReferenceLinkSet":
        return ReferenceLinkSet(self._positive, negative)

    def __repr__(self) -> str:
        return (
            f"ReferenceLinkSet({len(self._positive)} positive, "
            f"{len(self._negative)} negative)"
        )


def generate_negative_links(
    positive: Sequence[Link],
    rng: random.Random,
    count: int | None = None,
) -> list[Link]:
    """Generate negative links by cross-pairing positive links.

    For two positive links (a, b) and (c, d), the pairs (a, d) and
    (c, b) are negatives (Section 6.1). Positive links are paired up in
    a shuffled round so that by default exactly ``len(positive)``
    negatives are produced, matching the balanced |R+| = |R-| counts of
    Table 5.
    """
    if len(positive) < 2:
        return []
    target = count if count is not None else len(positive)
    existing = set(positive)
    negatives: list[Link] = []
    seen: set[Link] = set()
    attempts = 0
    max_attempts = max(100, target * 20)
    while len(negatives) < target and attempts < max_attempts:
        attempts += 1
        (a, b) = positive[rng.randrange(len(positive))]
        (c, d) = positive[rng.randrange(len(positive))]
        if a == c or b == d:
            continue
        for candidate in ((a, d), (c, b)):
            if candidate in existing or candidate in seen:
                continue
            seen.add(candidate)
            negatives.append(candidate)
            if len(negatives) >= target:
                break
    return negatives
