"""Checks on the program's outputs, computed apart from the program.

Nothing here reads a stored copy of earlier output: each check is either a
property the method must have or a figure recomputed independently (strict
F1 by a separate scorer, assignment optima by scipy on the replicated matrix).
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

TOTAL_COST_TOLERANCE = 1e-9


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_epoch_losses(records: list[dict]) -> list[float]:
    """Every epoch line has a finite loss, and the last is below the first."""
    losses = [r.get("loss") for r in records if "epoch" in r]
    require(len(losses) >= 2, f"expected at least two epoch lines, got {len(losses)}")
    for epoch, loss in enumerate(losses):
        require(isinstance(loss, (int, float)) and math.isfinite(loss),
                f"epoch {epoch} loss is not finite: {loss!r}")
    require(losses[-1] < losses[0],
            f"last epoch loss {losses[-1]} is not below the first {losses[0]}")
    return losses


def strict_counts(predicted: list[list[tuple]], gold: list[list[tuple]]) -> tuple[int, int, int]:
    """(gold, predicted, correct) over (start, end, type) triples, micro-summed.

    Each gold triple matches at most one prediction, so a repeated
    prediction of the same triple counts once as correct and once as wrong.
    """
    require(len(predicted) == len(gold), f"{len(predicted)} predicted vs {len(gold)} gold sentences")
    n_gold = n_pred = n_correct = 0
    for pred, ref in zip(predicted, gold):
        left = Counter(ref)
        n_gold += len(ref)
        n_pred += len(pred)
        for triple in pred:
            if left[triple]:
                left[triple] -= 1
                n_correct += 1
    return n_gold, n_pred, n_correct


def f1_score(n_gold: int, n_pred: int, n_correct: int) -> float:
    if n_correct == 0:
        return 0.0
    precision = n_correct / n_pred
    recall = n_correct / n_gold
    return 2.0 * precision * recall / (precision + recall)


def check_prediction_records(
    records: list[dict],
    lengths: list[int],
    types: set[str],
    cls_threshold: float,
    queries: int,
) -> None:
    """Structural properties every `iqner predict` output must have."""
    require(len(records) == len(lengths),
            f"{len(records)} output lines for {len(lengths)} input sentences")
    for line, (record, n) in enumerate(zip(records, lengths), start=1):
        entities = record.get("entities")
        query_ids = record.get("query_ids")
        require(isinstance(entities, list) and isinstance(query_ids, list),
                f"line {line}: missing entities or query_ids")
        require(len(entities) == len(query_ids),
                f"line {line}: {len(entities)} entities but {len(query_ids)} query ids")
        spans = set()
        for e in entities:
            start, end = e["start"], e["end"]
            require(0 <= start <= end < n, f"line {line}: span ({start}, {end}) outside {n} words")
            require(e["type"] in types, f"line {line}: type {e['type']!r} not in the inventory")
            require(e["score"] >= cls_threshold,
                    f"line {line}: score {e['score']} below threshold {cls_threshold}")
            require((start, end) not in spans, f"line {line}: span ({start}, {end}) repeats")
            spans.add((start, end))
        require(len(set(query_ids)) == len(query_ids), f"line {line}: repeated query id")
        require(all(0 <= q < queries for q in query_ids),
                f"line {line}: query id outside [0, {queries})")


def check_assignment(cost: np.ndarray, counts: np.ndarray, result) -> float:
    """Compare one solver result with scipy on the column-replicated matrix.

    Returns the absolute total-cost difference; raises when it exceeds
    ``TOTAL_COST_TOLERANCE`` or entity k does not get exactly counts[k]
    distinct queries.
    """
    from scipy.optimize import linear_sum_assignment

    matrix = np.asarray(result.matrix)
    queries, entities = cost.shape
    require(matrix.shape == (queries, entities), f"assignment shape {matrix.shape}")
    require(bool(np.isin(matrix, (0, 1)).all()), "assignment is not binary")
    require(bool((matrix.sum(axis=1) <= 1).all()), "a query is assigned to two entities")
    require(np.array_equal(matrix.sum(axis=0), counts),
            f"entities got {matrix.sum(axis=0).tolist()} queries, wanted {counts.tolist()}")
    replicated = cost[:, np.repeat(np.arange(entities), counts)]
    rows, cols = linear_sum_assignment(replicated)
    optimum = float(replicated[rows, cols].sum())
    own_total = float(cost[matrix == 1].sum())
    gap = max(abs(result.total_cost - optimum), abs(own_total - optimum))
    require(gap <= TOTAL_COST_TOLERANCE,
            f"solver total {result.total_cost} vs scipy optimum {optimum} (gap {gap:.3e})")
    return gap
