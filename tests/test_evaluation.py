import numpy as np
import pytest

from iqner.data import EntityAnnotation
from iqner.evaluation import (
    EvalReport,
    MatchCounts,
    evaluate_corpus,
    query_affinity_stats,
    span_center,
    strict_match,
    subtask_metrics,
)
from iqner.heads import Prediction


def pred(q, l, r, t):
    return Prediction(q, l, r, t, 0.9, 0.9, 0.9)


PER, ORG = 0, 1


def test_perfect_match():
    gold = [EntityAnnotation(0, 1, PER), EntityAnnotation(3, 5, ORG)]
    preds = [pred(0, 0, 1, PER), pred(1, 3, 5, ORG)]
    counts = strict_match(preds, gold)
    assert (counts.precision, counts.recall, counts.f1) == (1.0, 1.0, 1.0)


def test_half_correct_fixture():
    gold = [EntityAnnotation(0, 1, PER), EntityAnnotation(3, 5, ORG)]
    preds = [pred(0, 0, 1, PER), pred(1, 3, 5, PER)]
    ner = strict_match(preds, gold)
    assert ner.precision == 0.5 and ner.recall == 0.5 and ner.f1 == 0.5
    loc, cls = subtask_metrics(preds, gold)
    assert loc.f1 == 1.0
    assert cls.gold == 2 and cls.predicted == 2 and cls.correct == 1
    assert cls.f1 == 0.5


def test_empty_predictions_by_convention():
    gold = [EntityAnnotation(0, 1, PER)]
    counts = strict_match([], gold)
    assert counts.precision == 0.0 and counts.recall == 0.0 and counts.f1 == 0.0
    loc, cls = subtask_metrics([], gold)
    assert cls.precision == 0.0 and cls.recall == 0.0 and cls.f1 == 0.0


def test_gold_triple_consumed_once():
    gold = [EntityAnnotation(0, 1, PER)]
    preds = [pred(0, 0, 1, PER), pred(1, 0, 1, PER)]
    counts = strict_match(preds, gold)
    assert counts.correct == 1


def test_same_span_two_types_in_gold():
    gold = [EntityAnnotation(2, 4, PER), EntityAnnotation(2, 4, ORG)]
    preds = [pred(0, 2, 4, ORG)]
    loc, cls = subtask_metrics(preds, gold)
    assert loc.correct == 1  # one gold span consumed, one left unmatched
    assert cls.correct == 1  # the type-matching gold is consumed preferentially
    assert loc.recall == 0.5


def test_counts_bounded_and_cls_below_loc():
    rng = np.random.default_rng(3)
    for _ in range(50):
        gold = [
            EntityAnnotation(int(l), int(l) + int(w), int(t))
            for l, w, t in zip(rng.integers(0, 6, 4), rng.integers(0, 3, 4), rng.integers(0, 3, 4))
        ]
        gold = list({(e.left, e.right, e.type_id): e for e in gold}.values())
        preds = [
            pred(i, int(l), int(l) + int(w), int(t))
            for i, (l, w, t) in enumerate(
                zip(rng.integers(0, 6, 3), rng.integers(0, 3, 3), rng.integers(0, 3, 3))
            )
        ]
        seen_spans = set()
        preds = [p for p in preds if (p.left, p.right) not in seen_spans
                 and not seen_spans.add((p.left, p.right))]
        ner = strict_match(preds, gold)
        loc, cls = subtask_metrics(preds, gold)
        assert ner.correct <= min(ner.gold, ner.predicted)
        assert loc.correct <= min(loc.gold, loc.predicted)
        assert cls.correct <= loc.correct
        assert ner.correct <= loc.correct


def test_permutation_invariance():
    gold = [EntityAnnotation(0, 1, PER), EntityAnnotation(3, 5, ORG)]
    preds = [pred(0, 0, 1, PER), pred(1, 3, 5, ORG), pred(2, 0, 5, PER)]
    a = strict_match(preds, gold)
    b = strict_match(list(reversed(preds)), gold)
    assert vars(a) == vars(b)


def test_micro_average_equals_count_sum():
    golds = [[EntityAnnotation(0, 1, PER)], [EntityAnnotation(2, 3, ORG)]]
    preds = [[pred(0, 0, 1, PER)], [pred(0, 2, 3, PER)]]
    report = evaluate_corpus(preds, golds)
    counts = [(strict_match(p, g), *subtask_metrics(p, g)) for p, g in zip(preds, golds)]
    for i, total in enumerate((report.ner, report.localization, report.classification)):
        assert vars(total) == {name: sum(getattr(c[i], name) for c in counts)
                               for name in ("gold", "predicted", "correct")}
    payload = report.to_dict()
    assert set(payload) == {"ner", "loc", "cls", "counts"}
    assert payload["ner"]["p"] == report.ner.precision


def test_span_centers():
    assert span_center(0, 0, 5) == 0.0
    assert span_center(4, 4, 5) == 1.0
    assert span_center(1, 3, 5) == 0.5
    assert span_center(0, 0, 1) == 0.5


def test_query_affinity_histograms_and_normalization():
    per_sentence = [
        ([pred(0, 0, 0, PER), pred(2, 4, 4, ORG)], 5),
        ([pred(0, 1, 3, PER)], 5),
    ]
    stats = query_affinity_stats(per_sentence, query_count=3, type_count=2)
    rows = {q["query_id"]: q for q in stats["queries"]}
    assert rows[0]["type_counts"] == [2, 0]
    assert rows[2]["type_counts"] == [0, 1]
    assert rows[0]["centers"] == [0.0, 0.5]
    assert sum(rows[0]["type_counts"]) == len(rows[0]["centers"])
    normalized = np.array(stats["type_normalized"])
    assert normalized[0, 0] == 1.0  # all PER predictions came from query 0
    assert normalized[2, 1] == 1.0
    assert np.allclose(normalized.sum(axis=0), [1.0, 1.0])
