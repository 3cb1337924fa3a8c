import math

import numpy as np
import pytest

from iqner.heads import (
    BoundaryHead,
    BoundaryScores,
    LayerHeads,
    Prediction,
    TypeDistribution,
    boundary_pointer,
    decode_entities,
    entity_classifier,
)
from iqner.tensor import Tensor


def make_heads(hidden=4, type_count=2, seed=0):
    return LayerHeads.init(hidden, type_count, np.random.default_rng(seed))


def zero_heads(hidden=4, type_count=2):
    heads = make_heads(hidden, type_count)
    for _, p in heads.named("h"):
        p.data[...] = 0.0
    return heads


def test_pointer_zero_parameters_give_half():
    heads = zero_heads()
    h_q = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
    h_w = Tensor(np.random.default_rng(2).normal(size=(5, 4)))
    scores = boundary_pointer(h_q, h_w, heads)
    assert np.all(scores.left.data == 0.5)
    assert np.all(scores.right.data == 0.5)


def test_pointer_output_shapes():
    heads = make_heads()
    scores = boundary_pointer(Tensor(np.zeros((6, 4))), Tensor(np.zeros((9, 4))), heads)
    assert scores.left.data.shape == (6, 9)
    assert scores.right.data.shape == (6, 9)


def test_pointer_hand_computed_case():
    heads = make_heads(hidden=2, type_count=1)
    for side in (heads.left, heads.right):
        side.w_query.data[...] = [[0.1, 0.2], [0.3, 0.4]]
        side.w_word.data[...] = [[0.5, 0.0], [0.0, 0.5]]
        side.scorer.data[...] = [[1.0], [-1.0]]
        side.bias.data[...] = [0.1]
    scores = boundary_pointer(Tensor([[1.0, 2.0]]), Tensor([[0.5, -1.0]]), heads)
    # relu([0.7+0.25, 1.0-0.5]) . [1,-1] + 0.1 = 0.95 - 0.5 + 0.1
    expected = 1.0 / (1.0 + math.exp(-0.55))
    assert scores.left.data[0, 0] == pytest.approx(expected, abs=1e-12)


def test_classifier_zero_scorers_uniform():
    heads = zero_heads(type_count=2)
    h_q = Tensor(np.random.default_rng(3).normal(size=(4, 4)))
    h_w = Tensor(np.random.default_rng(4).normal(size=(5, 4)))
    scores = boundary_pointer(h_q, h_w, heads)
    types = entity_classifier(h_q, h_w, scores, heads)
    assert np.allclose(types.probs, 1.0 / 3.0)


def test_classifier_rows_sum_to_one():
    heads = make_heads()
    h_q = Tensor(np.random.default_rng(5).normal(size=(4, 4)))
    h_w = Tensor(np.random.default_rng(6).normal(size=(5, 4)))
    types = entity_classifier(h_q, h_w, boundary_pointer(h_q, h_w, heads), heads)
    assert np.all(np.abs(types.probs.sum(axis=1) - 1.0) < 1e-12)


def test_classifier_hand_computed_case():
    heads = make_heads(hidden=2, type_count=1)
    heads.w_type.data[...] = np.eye(2)
    heads.type_scorer.data[...] = 0.0
    heads.type_scorer.data[0, 0] = 1.0
    heads.type_scorer.data[2, 1] = 1.0
    heads.type_bias.data[...] = [0.5, 0.0]
    scores = BoundaryScores(
        left_logits=Tensor(np.zeros((1, 2))),
        right_logits=Tensor(np.zeros((1, 2))),
        left=Tensor([[0.5, 0.25]]),
        right=Tensor([[0.1, 0.9]]),
    )
    types = entity_classifier(Tensor([[1.0, 0.0]]), Tensor([[1.0, 2.0], [3.0, 4.0]]), scores, heads)
    # fused = relu([1, 0, 1.25, 2.0, 2.8, 3.8]); logits = [1+0.5, 1.25]
    z0, z1 = 1.5, 1.25
    expected0 = math.exp(z0) / (math.exp(z0) + math.exp(z1))
    assert types.probs[0, 0] == pytest.approx(expected0, abs=1e-12)
    assert types.probs[0, 1] == pytest.approx(1.0 - expected0, abs=1e-12)


def _scores_from_probs(left, right):
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    return BoundaryScores(
        left_logits=Tensor(np.zeros_like(left)),
        right_logits=Tensor(np.zeros_like(right)),
        left=Tensor(left),
        right=Tensor(right),
    )


def _types_from_probs(probs):
    probs = np.asarray(probs, dtype=np.float64)
    return TypeDistribution(logits=Tensor(np.zeros_like(probs)), probs=probs)


def _peaked(n, idx, peak, floor=0.01):
    row = np.full(n, floor)
    row[idx] = peak
    return row


def test_decode_dedup_keeps_highest_type_probability():
    n = 6
    scores = _scores_from_probs(
        [_peaked(n, 2, 0.95), _peaked(n, 2, 0.9)],
        [_peaked(n, 4, 0.95), _peaked(n, 4, 0.9)],
    )
    types = _types_from_probs([[0.9, 0.05, 0.05], [0.05, 0.85, 0.10]])  # ORG=0, PER=1
    preds = decode_entities(scores, types, 0.6, 0.8)
    assert len(preds) == 1
    assert (preds[0].left, preds[0].right, preds[0].type_id) == (2, 4, 0)
    assert preds[0].query_id == 0


def test_decode_threshold_filters_weak_localization():
    scores = _scores_from_probs([_peaked(4, 1, 0.55)], [_peaked(4, 2, 0.99)])
    types = _types_from_probs([[0.95, 0.03, 0.02]])
    assert decode_entities(scores, types, 0.6, 0.8) == []
    assert len(decode_entities(scores, types, 0.5, 0.8)) == 1


def test_decode_none_class_emits_nothing():
    scores = _scores_from_probs([_peaked(4, 1, 0.9)], [_peaked(4, 2, 0.9)])
    types = _types_from_probs([[0.05, 0.05, 0.9]])
    assert decode_entities(scores, types, 0.6, 0.8) == []


def test_decode_drops_inverted_span():
    scores = _scores_from_probs([_peaked(6, 5, 0.9)], [_peaked(6, 3, 0.9)])
    types = _types_from_probs([[0.9, 0.05, 0.05]])
    assert decode_entities(scores, types, 0.6, 0.8) == []


def test_decode_exact_duplicates_collapse():
    n = 5
    scores = _scores_from_probs(
        [_peaked(n, 1, 0.9), _peaked(n, 1, 0.8)],
        [_peaked(n, 3, 0.9), _peaked(n, 3, 0.8)],
    )
    types = _types_from_probs([[0.85, 0.1, 0.05], [0.95, 0.03, 0.02]])
    preds = decode_entities(scores, types, 0.6, 0.8)
    assert len(preds) == 1
    assert preds[0].query_id == 1 and preds[0].type_prob == pytest.approx(0.95)


def test_decode_never_two_predictions_per_span_and_monotone():
    rng = np.random.default_rng(17)
    m, n, classes = 12, 7, 4
    left = rng.uniform(size=(m, n))
    right = rng.uniform(size=(m, n))
    raw = rng.uniform(size=(m, classes))
    probs = raw / raw.sum(axis=1, keepdims=True)
    scores = _scores_from_probs(left, right)
    types = _types_from_probs(probs)
    previous = None
    for threshold in (0.0, 0.2, 0.4, 0.6, 0.8):
        preds = decode_entities(scores, types, threshold, threshold)
        spans = [(p.left, p.right) for p in preds]
        assert len(spans) == len(set(spans))
        if previous is not None:
            assert len(preds) <= previous
        previous = len(preds)


def reference_decode(scores, types, loc_threshold, cls_threshold):
    """Query-by-query decoding, the loop ``decode_entities`` replaces."""
    left, right, type_probs = scores.left.data, scores.right.data, types.probs
    best_by_span = {}
    for i in range(left.shape[0]):
        l, r, t = int(np.argmax(left[i])), int(np.argmax(right[i])), int(np.argmax(type_probs[i]))
        if t == types.none_id:
            continue
        lp, rp, tp = float(left[i, l]), float(right[i, r]), float(type_probs[i, t])
        if min(lp, rp) < loc_threshold or tp < cls_threshold or l > r:
            continue
        candidate = Prediction(i, l, r, t, lp, rp, tp)
        kept = best_by_span.get((l, r))
        if kept is None or candidate.type_prob > kept.type_prob:
            best_by_span[(l, r)] = candidate
    return sorted(best_by_span.values(), key=lambda p: p.query_id)


def test_decode_matches_the_query_loop_on_ties_and_threshold_edges():
    # probabilities on a coarse grid tie within rows (argmax), across queries
    # sharing a span (type probability), and with the thresholds
    grid = np.array([0.1, 0.4, 0.6, 0.8, 0.9])
    kept = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        m, n, classes = int(rng.integers(1, 13)), int(rng.integers(1, 5)), int(rng.integers(2, 5))
        scores = _scores_from_probs(rng.choice(grid, size=(m, n)), rng.choice(grid, size=(m, n)))
        types = _types_from_probs(rng.choice(grid, size=(m, classes)))
        loc, cls = (float(v) for v in rng.choice(np.append(grid, 0.0), size=2))
        preds = decode_entities(scores, types, loc, cls)
        assert preds == reference_decode(scores, types, loc, cls)
        assert all(type(v) in (int, float) for p in preds for v in vars(p).values())
        kept += len(preds)
    assert kept > 100


def test_decode_validates_thresholds():
    scores = _scores_from_probs([_peaked(3, 0, 0.9)], [_peaked(3, 1, 0.9)])
    types = _types_from_probs([[0.9, 0.05, 0.05]])
    with pytest.raises(ValueError):
        decode_entities(scores, types, -0.1, 0.8)
    with pytest.raises(ValueError):
        decode_entities(scores, types, 0.6, 1.2)


def test_heads_use_only_their_layer():
    heads = make_heads()
    rng = np.random.default_rng(9)
    h_q, h_w = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(5, 4)))
    scores1 = boundary_pointer(h_q, h_w, heads)
    other_q, other_w = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(5, 4)))
    boundary_pointer(other_q, other_w, heads)  # unrelated layer's call
    scores2 = boundary_pointer(h_q, h_w, heads)
    assert np.array_equal(scores1.left.data, scores2.left.data)
