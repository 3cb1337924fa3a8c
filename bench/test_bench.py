"""Tests of the benchmark's own checking code and a tiny run of each workload.

Run from the repository root: ``python -m pytest bench``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run
from checks import CheckFailed, check_assignment, check_prediction_records, f1_score, strict_counts

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_strict_f1_nested_spans_and_duplicate_prediction():
    gold = [
        [(0, 4, "A"), (1, 2, "B"), (3, 3, "A")],  # (1, 2) and (3, 3) nest inside (0, 4)
        [],
    ]
    predicted = [
        [(0, 4, "A"), (1, 2, "B"), (1, 2, "B"), (3, 3, "B")],  # duplicate, then wrong type
        [(0, 0, "A")],
    ]
    assert strict_counts(predicted, gold) == (3, 5, 2)
    assert f1_score(3, 5, 2) == pytest.approx(2 * 0.4 * (2 / 3) / (0.4 + 2 / 3))
    assert f1_score(3, 0, 0) == 0.0
    assert strict_counts([[(0, 4, "B")]], [[(0, 4, "A")]]) == (1, 1, 0)


def test_strict_f1_matches_program_scorer():
    run.load_program()
    from iqner.data import EntityAnnotation
    from iqner.evaluation import evaluate_corpus
    from iqner.heads import Prediction

    gold = [[(0, 4, 0), (1, 2, 1), (3, 3, 0)], [(2, 5, 1)]]
    predicted = [[(0, 4, 0), (1, 2, 1), (1, 2, 1), (3, 3, 1)], [(2, 5, 1), (2, 4, 1)]]
    report = evaluate_corpus(
        [[Prediction(q, l, r, t, 1.0, 1.0, 1.0) for q, (l, r, t) in enumerate(p)] for p in predicted],
        [[EntityAnnotation(l, r, t) for l, r, t in g] for g in gold],
    )
    counts = strict_counts(predicted, gold)
    assert counts == (report.ner.gold, report.ner.predicted, report.ner.correct)
    assert f1_score(*counts) == report.ner.f1


COST = np.array([[-3.0, 0.0], [-2.0, -1.0], [-1.0, -3.0], [0.0, 0.0]])
COUNTS = np.array([2, 1])  # optimum -8: queries 0, 1 -> entity 0 and query 2 -> entity 1


def _result(pairs: list[tuple[int, int]]) -> SimpleNamespace:
    matrix = np.zeros(COST.shape, dtype=np.int64)
    for q, k in pairs:
        matrix[q, k] = 1
    return SimpleNamespace(matrix=matrix, total_cost=float(COST[matrix == 1].sum()))


def test_assignment_oracle_accepts_the_known_optimum():
    assert check_assignment(COST, COUNTS, _result([(0, 0), (1, 0), (2, 1)])) == 0.0
    run.load_program()
    from iqner.assignment import QuantityVector, solve_one_to_many_lap

    solved = solve_one_to_many_lap(COST, QuantityVector(COUNTS))
    assert solved.total_cost == -8.0
    assert check_assignment(COST, COUNTS, solved) <= 1e-12


@pytest.mark.parametrize("pairs, reason", [
    ([(0, 0), (2, 0), (1, 1)], "optimum"),  # feasible, total -5
    ([(0, 0), (2, 1)], "queries"),  # entity 0 short of its quantity
    ([(0, 0), (0, 1), (1, 0)], "two entities"),
])
def test_assignment_oracle_rejects_wrong_results(pairs, reason):
    with pytest.raises(CheckFailed, match=reason):
        check_assignment(COST, COUNTS, _result(pairs))


def test_prediction_structure_violations_are_caught():
    good = {"entities": [{"start": 0, "end": 1, "type": "T0", "score": 0.9}], "query_ids": [3]}
    check_prediction_records([good], [2], {"T0"}, 0.8, 12)
    bad = [
        ({**good, "query_ids": [12]}, "query id"),
        ({"entities": good["entities"] * 2, "query_ids": [1, 2]}, "repeats"),
        ({"entities": [{**good["entities"][0], "score": 0.5}], "query_ids": [3]}, "threshold"),
        ({"entities": [{**good["entities"][0], "end": 2}], "query_ids": [3]}, "outside"),
    ]
    for record, reason in bad:
        with pytest.raises(CheckFailed, match=reason):
            check_prediction_records([record], [2], {"T0"}, 0.8, 12)
    with pytest.raises(CheckFailed, match="output lines"):
        check_prediction_records([good], [2, 3], {"T0"}, 0.8, 12)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_and_reports_every_metric(name, trace, tmp_path, monkeypatch):
    # Tiny corpora and few epochs; the F1 floor assumes a full-size checkpoint.
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    run.load_program()
    tiny = dataclasses.replace(run.WORKLOADS[name], epochs=2, train_sentences=8,
                               heldout_sentences=12, f1_floor=None)
    result, probe_s = run.run_workload(tiny, seed=5, seconds=0.01, trace=trace)
    assert probe_s > 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_refuses_to_run_without_program_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "train-fixture", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
