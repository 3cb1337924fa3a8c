import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from iqner.assignment import (
    QuantityVector,
    allocate_quantities,
    brute_force_lap,
    solve_one_to_many_lap,
)
from iqner.data import EntityAnnotation
from iqner.evaluation import strict_match, subtask_metrics
from iqner.heads import BoundaryScores, Prediction, TypeDistribution, decode_entities
from iqner.tensor import Tensor, row_softmax

COMMON = settings(max_examples=30, deadline=None, derandomize=True)

finite_rows = st.lists(
    st.lists(st.floats(min_value=-40, max_value=40), min_size=2, max_size=6),
    min_size=1,
    max_size=5,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@COMMON
@given(finite_rows)
def test_row_softmax_rows_sum_to_one(rows):
    out = row_softmax(Tensor(np.array(rows))).data
    assert np.all(np.abs(out.sum(axis=-1) - 1.0) < 1e-12)
    assert np.all(out >= 0.0)


@COMMON
@given(finite_rows, st.floats(min_value=-30, max_value=30))
def test_row_softmax_shift_invariance(rows, shift):
    x = np.array(rows)
    base = row_softmax(Tensor(x)).data
    shifted = row_softmax(Tensor(x + shift)).data
    assert np.max(np.abs(base - shifted)) < 1e-12


@st.composite
def lap_instances(draw):
    entities = draw(st.integers(1, 3))
    counts = np.array([draw(st.integers(1, 3)) for _ in range(entities)])
    assume(int(counts.sum()) <= 8)
    queries = draw(st.integers(int(counts.sum()), 8))
    cost = np.array(
        [[draw(st.floats(min_value=-3, max_value=0)) for _ in range(entities)]
         for _ in range(queries)]
    )
    return cost, QuantityVector(counts)


@COMMON
@given(lap_instances())
def test_solver_is_optimal_and_feasible(instance):
    cost, quantities = instance
    fast = solve_one_to_many_lap(cost, quantities)
    slow = brute_force_lap(cost, quantities)
    assert abs(fast.total_cost - slow.total_cost) < 1e-12
    assert np.all(fast.matrix.sum(axis=1) <= 1)
    assert np.array_equal(fast.matrix.sum(axis=0), quantities.counts)
    assert np.all(fast.extended.sum(axis=1) == 1)


@COMMON
@given(st.integers(1, 6), st.integers(1, 60),
       st.floats(min_value=0.05, max_value=1.0), st.integers(0, 100))
def test_allocation_floor_and_total(entities, queries, ratio, seed):
    q = allocate_quantities(entities, queries, ratio, np.random.default_rng(seed))
    total = int(np.floor(queries * ratio + 0.5))
    if entities > total:
        assert q.total == entities
        assert np.all(q.counts == 1)
    else:
        assert q.total == total
        assert np.all(q.counts >= total // entities)


@st.composite
def decode_inputs(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(2, 6))
    classes = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    left = rng.uniform(size=(m, n))
    right = rng.uniform(size=(m, n))
    raw = rng.uniform(size=(m, classes))
    probs = raw / raw.sum(axis=1, keepdims=True)
    scores = BoundaryScores(left_logits=Tensor(np.zeros_like(left)),
                            right_logits=Tensor(np.zeros_like(right)),
                            left=Tensor(left), right=Tensor(right))
    types = TypeDistribution(logits=Tensor(np.zeros_like(probs)), probs=probs)
    return scores, types


@COMMON
@given(decode_inputs(), st.floats(min_value=0, max_value=1),
       st.floats(min_value=0, max_value=1))
def test_decode_spans_unique_and_threshold_monotone(inputs, low, high):
    scores, types = inputs
    low_t, high_t = sorted((low, high))
    relaxed = decode_entities(scores, types, low_t, low_t)
    strict = decode_entities(scores, types, high_t, high_t)
    spans = [(p.left, p.right) for p in relaxed]
    assert len(spans) == len(set(spans))
    assert len(strict) <= len(relaxed)
    for p in relaxed:
        assert 0 <= p.left <= p.right
        assert p.type_id < types.none_id


@st.composite
def eval_cases(draw):
    triples = st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 2))
    gold_raw = draw(st.lists(triples, max_size=5))
    gold = []
    seen = set()
    for l, w, t in gold_raw:
        key = (l, l + w, t)
        if key not in seen:
            seen.add(key)
            gold.append(EntityAnnotation(l, l + w, t))
    preds = []
    used_spans = set()
    for i, (l, w, t) in enumerate(draw(st.lists(triples, max_size=5))):
        if (l, l + w) not in used_spans:
            used_spans.add((l, l + w))
            preds.append(Prediction(i, l, l + w, t, 0.9, 0.9, 0.9))
    return preds, gold


@COMMON
@given(eval_cases())
def test_match_counts_are_bounded(case):
    preds, gold = case
    ner = strict_match(preds, gold)
    loc, cls = subtask_metrics(preds, gold)
    assert ner.correct <= min(ner.gold, ner.predicted)
    assert loc.correct <= min(loc.gold, loc.predicted)
    assert cls.correct <= loc.correct
    assert ner.correct <= loc.correct
    for counts in (ner, loc, cls):
        assert 0.0 <= counts.precision <= 1.0
        assert 0.0 <= counts.recall <= 1.0
        if counts.precision + counts.recall > 0:
            expected = (2 * counts.precision * counts.recall
                        / (counts.precision + counts.recall))
            assert math.isclose(counts.f1, expected)
        else:
            assert counts.f1 == 0.0
