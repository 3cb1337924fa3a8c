"""Strict span metrics, localization/classification subtasks, query affinity.

A prediction counts for the strict metric only when span and type match a
gold triple exactly; each gold triple is consumable once. Localization
ignores the type; classification is measured over the localized subset.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .data import EntityAnnotation
from .heads import Prediction


@dataclass
class MatchCounts:
    """Gold/predicted/correct tallies with the derived P/R/F1."""

    gold: int = 0
    predicted: int = 0
    correct: int = 0

    @property
    def precision(self) -> float:
        return self.correct / self.predicted if self.predicted else 0.0

    @property
    def recall(self) -> float:
        return self.correct / self.gold if self.gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r > 0 else 0.0

    def as_dict(self) -> dict:
        return {"p": self.precision, "r": self.recall, "f1": self.f1}


@dataclass
class EvalReport:
    """Strict, localization, and classification counts for one corpus."""

    ner: MatchCounts = field(default_factory=MatchCounts)
    localization: MatchCounts = field(default_factory=MatchCounts)
    classification: MatchCounts = field(default_factory=MatchCounts)

    def to_dict(self) -> dict:
        return {
            "ner": self.ner.as_dict(),
            "loc": self.localization.as_dict(),
            "cls": self.classification.as_dict(),
            "counts": {
                "ner": vars(self.ner).copy(),
                "loc": vars(self.localization).copy(),
                "cls": vars(self.classification).copy(),
            },
        }


def strict_match(predictions: list[Prediction], gold: list[EntityAnnotation]) -> MatchCounts:
    """Exact (left, right, type) matching; each gold triple consumed once."""
    available = Counter((e.left, e.right, e.type_id) for e in gold)
    correct = 0
    for p in predictions:
        triple = (p.left, p.right, p.type_id)
        if available[triple] > 0:
            available[triple] -= 1
            correct += 1
    return MatchCounts(gold=len(gold), predicted=len(predictions), correct=correct)


def subtask_metrics(
    predictions: list[Prediction], gold: list[EntityAnnotation]
) -> tuple[MatchCounts, MatchCounts]:
    """Localization counts (type ignored) and classification counts over the
    localized predictions. A localized prediction consumes one gold span; a
    type-matching gold is consumed preferentially."""
    span_types: dict[tuple[int, int], Counter] = {}
    for e in gold:
        span_types.setdefault((e.left, e.right), Counter())[e.type_id] += 1
    localized = 0
    cls_correct = 0
    for p in predictions:
        types_here = span_types.get((p.left, p.right))
        if not types_here:
            continue
        localized += 1
        if types_here[p.type_id] > 0:
            cls_correct += 1
            types_here[p.type_id] -= 1
        else:
            first = next(t for t in types_here if types_here[t] > 0)
            types_here[first] -= 1
        if sum(types_here.values()) == 0:
            span_types.pop((p.left, p.right))
    loc = MatchCounts(gold=len(gold), predicted=len(predictions), correct=localized)
    cls = MatchCounts(gold=localized, predicted=localized, correct=cls_correct)
    return loc, cls


def evaluate_corpus(
    prediction_lists: list[list[Prediction]], gold_lists: list[list[EntityAnnotation]]
) -> EvalReport:
    """Micro-averaged report: per-sentence counts summed, metrics recomputed."""
    report = EvalReport()
    for predictions, gold in zip(prediction_lists, gold_lists):
        loc, cls = subtask_metrics(predictions, gold)
        for total, counts in ((report.ner, strict_match(predictions, gold)),
                              (report.localization, loc), (report.classification, cls)):
            total.gold += counts.gold
            total.predicted += counts.predicted
            total.correct += counts.correct
    return report


def span_center(left: int, right: int, sentence_length: int) -> float:
    """Normalized span midpoint in [0, 1]; 0.5 for single-word sentences."""
    if sentence_length <= 1:
        return 0.5
    center = (left + right) / (2.0 * (sentence_length - 1))
    return min(1.0, max(0.0, center))


def query_affinity_stats(
    sentence_predictions: Iterable[tuple[list[Prediction], int]],
    query_count: int,
    type_count: int,
) -> dict:
    """Per-query type histograms and normalized predicted span centers.

    Also emits the query-type co-occurrence matrix normalized over the type
    axis (each type column sums to 1 when that type was predicted at all).
    """
    histograms = np.zeros((query_count, type_count), dtype=np.int64)
    centers: list[list[float]] = [[] for _ in range(query_count)]
    for predictions, sentence_length in sentence_predictions:
        for p in predictions:
            histograms[p.query_id, p.type_id] += 1
            centers[p.query_id].append(span_center(p.left, p.right, sentence_length))
    column_sums = histograms.sum(axis=0, keepdims=True)
    normalized = np.divide(
        histograms, column_sums, out=np.zeros(histograms.shape), where=column_sums > 0
    )
    return {
        "queries": [
            {
                "query_id": i,
                "type_counts": histograms[i].tolist(),
                "centers": centers[i],
            }
            for i in range(query_count)
        ],
        "type_normalized": normalized.tolist(),
    }
