"""Fitness measures: confusion counts, F-measure, MCC, parsimony.

The paper uses Matthews correlation coefficient as the fitness signal
(robust to class imbalance) combined with a parsimony penalty of 0.05
per operator to suppress bloat (Section 5.2):

    fitness = mcc - 0.05 * operator_count
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.evaluation import PairEvaluator
from repro.core.rule import LinkageRule


@dataclass(frozen=True)
class ConfusionCounts:
    """True/false positive/negative counts over reference links."""

    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def precision(self) -> float:
        denominator = self.tp + self.fp
        return self.tp / denominator if denominator else 0.0

    def recall(self) -> float:
        denominator = self.tp + self.fn
        return self.tp / denominator if denominator else 0.0

    def f_measure(self) -> float:
        p = self.precision()
        r = self.recall()
        return 2.0 * p * r / (p + r) if (p + r) > 0.0 else 0.0

    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else 0.0

    def mcc(self) -> float:
        """Matthews correlation coefficient in [-1, 1]; 0 on degenerate
        denominators (the standard convention)."""
        tp, tn, fp, fn = self.tp, self.tn, self.fp, self.fn
        denominator = math.sqrt(
            float(tp + fp) * float(tp + fn) * float(tn + fp) * float(tn + fn)
        )
        if denominator == 0.0:
            return 0.0
        return (tp * tn - fp * fn) / denominator


def confusion_counts(
    predictions: Sequence[bool] | np.ndarray,
    labels: Sequence[bool] | np.ndarray,
) -> ConfusionCounts:
    """Build confusion counts from parallel prediction/label vectors."""
    predicted = np.asarray(predictions, dtype=bool)
    actual = np.asarray(labels, dtype=bool)
    if predicted.shape != actual.shape:
        raise ValueError(
            f"shape mismatch: predictions {predicted.shape} vs labels {actual.shape}"
        )
    tp = int(np.count_nonzero(predicted & actual))
    tn = int(np.count_nonzero(~predicted & ~actual))
    fp = int(np.count_nonzero(predicted & ~actual))
    fn = int(np.count_nonzero(~predicted & actual))
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def matthews_correlation(
    predictions: Sequence[bool] | np.ndarray,
    labels: Sequence[bool] | np.ndarray,
) -> float:
    """MCC of parallel prediction/label vectors."""
    return confusion_counts(predictions, labels).mcc()


def f_measure(
    predictions: Sequence[bool] | np.ndarray,
    labels: Sequence[bool] | np.ndarray,
) -> float:
    """F1 of parallel prediction/label vectors."""
    return confusion_counts(predictions, labels).f_measure()


class FitnessFunction:
    """MCC-with-parsimony fitness over a fixed labelled pair set."""

    def __init__(
        self,
        evaluator: PairEvaluator,
        labels: Sequence[bool],
        parsimony_weight: float = 0.005,
        parsimony_mode: str = "similarity",
    ):
        """Create a fitness function.

        ``parsimony_mode`` selects what "operator count" means in the
        paper's formula: ``"all"`` counts every node (the literal
        reading), ``"similarity"`` counts comparisons and aggregations
        only. The literal reading penalises a second comparison by 0.15
        or more, which collapses populations to single-comparison rules
        and contradicts the multi-comparison rules the paper reports
        learning (Fig. 7); counting similarity operators reproduces the
        reported behaviour, so it is the default.
        """
        if len(labels) != len(evaluator):
            raise ValueError(
                f"label count {len(labels)} != pair count {len(evaluator)}"
            )
        if parsimony_mode not in ("all", "similarity"):
            raise ValueError("parsimony_mode must be 'all' or 'similarity'")
        self._evaluator = evaluator
        self._labels = np.asarray(labels, dtype=bool)
        self._parsimony_weight = parsimony_weight
        self._parsimony_mode = parsimony_mode

    @property
    def evaluator(self) -> PairEvaluator:
        return self._evaluator

    @property
    def labels(self) -> np.ndarray:
        return self._labels.copy()

    def prime_population(self, rules: Sequence[LinkageRule]) -> None:
        """Evaluate a whole population through one compiled engine plan
        so the per-rule calls below hit warm caches (shared subtrees
        are computed exactly once)."""
        self._evaluator.prime_population([rule.root for rule in rules])

    def confusion(self, rule: LinkageRule) -> ConfusionCounts:
        return confusion_counts(self._evaluator.predictions(rule.root), self._labels)

    def operator_count(self, rule: LinkageRule) -> int:
        if self._parsimony_mode == "all":
            return rule.operator_count()
        return len(rule.comparisons()) + len(rule.aggregations())

    def fitness(self, rule: LinkageRule) -> float:
        """mcc - parsimony_weight * operator_count (Section 5.2)."""
        mcc = self.confusion(rule).mcc()
        return mcc - self._parsimony_weight * self.operator_count(rule)

    def f_measure(self, rule: LinkageRule) -> float:
        return self.confusion(rule).f_measure()

    def mcc(self, rule: LinkageRule) -> float:
        return self.confusion(rule).mcc()
