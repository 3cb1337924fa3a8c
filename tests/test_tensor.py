import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from iqner import tensor as T
from iqner.encoder import ModelConfig, attention_mask, build_one_way_mask
from iqner.tensor import (
    DegenerateRowError,
    DimensionError,
    Tensor,
    backward,
    grad_check,
    topological_order,
)


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.matmul(a, b).data, b.data)


def test_matmul_zero():
    z = Tensor(np.zeros((2, 2)))
    b = Tensor(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(T.matmul(z, b).data, np.zeros((2, 3)))


def test_matmul_hand_checked():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0], [6.0]])
    assert np.array_equal(T.matmul(a, b).data, [[17.0], [39.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_rejects_mismatched_leading_axes_and_vectors():
    # a weight shared by every row, (2, 3, 4) @ (4, 5), is linear's
    for sa, sb in (((2, 3, 4), (3, 4, 5)), ((3, 4), (2, 4, 5)), ((4,), (4, 5)), ((3, 4), (4,)),
                   ((2, 3, 4), (4, 5))):
        with pytest.raises(DimensionError, match=re.escape(f"{sa} and {sb}")):
            T.matmul(Tensor(np.zeros(sa)), Tensor(np.zeros(sb)))


def test_row_softmax_uniform():
    out = T.row_softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out.data, 0.25, atol=0)


def test_row_softmax_single_element():
    for c in (-3.7, 0.0, 12.5):
        assert T.row_softmax(Tensor([c])).data[0] == 1.0


def test_row_softmax_masked_entry_exact_zero():
    out = T.row_softmax(Tensor([0.0, -np.inf]))
    assert out.data[0] == 1.0
    assert out.data[1] == 0.0


def test_row_softmax_all_masked_row_rejected():
    with pytest.raises(DegenerateRowError):
        T.row_softmax(Tensor([[0.0, 1.0], [-np.inf, -np.inf]]))


def test_masked_row_is_rejected_beside_a_nan_row():
    x = Tensor([[np.nan, 0.0], [-np.inf, -np.inf], [0.0, 1.0]])
    with pytest.raises(DegenerateRowError):
        T.row_softmax(x)
    with pytest.raises(DegenerateRowError):
        T.softmax_cross_entropy(x, np.eye(2)[[0, 1, 0]])
    assert np.isnan(T.row_softmax(Tensor([[np.nan, 0.0], [0.0, 1.0]])).data[0]).all()


def test_row_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 7))
    y = T.row_softmax(Tensor(x)).data
    assert np.all(np.abs(y.sum(axis=-1) - 1.0) < 1e-12)
    shifted = T.row_softmax(Tensor(x + 3.25)).data
    assert np.max(np.abs(y - shifted)) < 1e-12


def test_pointwise_definition_cases():
    assert T.sigmoid(Tensor(0.0)).item() == 0.5
    assert T.relu(Tensor(-1.0)).item() == 0.0
    assert T.relu(Tensor(2.0)).item() == 2.0
    out = T.concat([Tensor([1.0, 2.0]), Tensor([3.0])], axis=-1)
    assert np.array_equal(out.data, [1.0, 2.0, 3.0])


def test_pointwise_broadcast_mismatch():
    with pytest.raises(DimensionError):
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def test_backward_square():
    x = Tensor(3.0, tracked=True)
    backward(T.mul(x, x))
    assert x.grad == pytest.approx(6.0)


def test_backward_sigmoid_at_zero():
    w = Tensor(np.zeros(4), tracked=True)
    backward(T.tsum(T.sigmoid(w)))
    assert np.allclose(w.grad, 0.25, atol=1e-15)


def test_backward_two_layer_composition_matches_fd():
    rng = np.random.default_rng(7)
    w1 = Tensor(rng.normal(size=(4, 5)), tracked=True)
    w2 = Tensor(rng.normal(size=(5, 3)), tracked=True)
    x = Tensor(rng.normal(size=(2, 4)))

    def f(p):
        h = T.relu(T.matmul(x, w1))
        return T.tsum(T.sigmoid(T.matmul(h, w2)))

    assert grad_check(f, w1, 1e-5) < 1e-4
    assert grad_check(f, w2, 1e-5) < 1e-4


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), tracked=True)
    with pytest.raises(DimensionError):
        backward(T.mul(x, x))


def test_backward_accumulates_and_reset_is_deterministic():
    x = Tensor([1.0, -2.0], tracked=True)
    loss = T.tsum(T.mul(x, x))
    backward(loss)
    first = x.grad.copy()
    backward(loss)
    assert np.array_equal(x.grad, 2.0 * first)
    x.zero_grad()
    backward(loss)
    assert np.array_equal(x.grad, first)


def test_backward_adds_in_place_and_returns_the_leaves_it_reached():
    x, y, unused = (Tensor(np.ones(2), tracked=True) for _ in range(3))
    grads = [x.grad, y.grad, unused.grad]
    reached = backward(T.tsum(T.add(x, T.mul(y, 0.0))))  # y's gradient is zero
    assert {id(p) for p in reached} == {id(x), id(y)} and len(reached) == 2
    assert all(p.grad is g for p, g in zip((x, y, unused), grads))
    assert np.array_equal(x.grad, [1.0, 1.0]) and not y.grad.any() and not unused.grad.any()
    assert backward(T.tsum(Tensor(np.ones(2)))) == []  # an untracked loss reaches nothing


def test_grad_check_linear_is_exact():
    x = Tensor([0.3, -1.2, 4.0], tracked=True)
    err = grad_check(lambda p: T.tsum(T.mul(p, 3.0)), x, 1e-5)
    assert err < 1e-10


def test_grad_check_rejects_zero_eps():
    x = Tensor([1.0], tracked=True)
    with pytest.raises(ValueError):
        grad_check(lambda p: T.tsum(p), x, 0.0)


def test_computation_record_topological_order():
    x = Tensor([1.0, 2.0], tracked=True)
    a = T.mul(x, x)
    b = T.add(a, x)
    loss = T.tsum(b)
    order = topological_order(loss)
    position = {id(node): i for i, node in enumerate(order)}
    for node in order:
        for parent in node._parents:
            if parent.tracked:
                assert position[id(parent)] < position[id(node)]


# Composed references are built from exact copying ops (narrow, tsum over one
# entry, take_rows, concat) plus the arithmetic they check.


def _unstack(x):
    """The tracked slices x[0], x[1], ... of the leading axis."""
    return [T.tsum(T.narrow(x, 0, i, 1), axis=0) for i in range(x.shape[0])]


def _stack(parts):
    return T.concat([T.take_rows(p, np.arange(p.shape[0])[None]) for p in parts], axis=0)


def _transposed(t):
    """A tracked (T, d) matrix as (d, T)."""
    rows = np.arange(t.shape[0])[None]
    return T.concat([T.take_rows(T.tsum(T.narrow(t, 1, j, 1), axis=1), rows)
                     for j in range(t.shape[1])], axis=0)


def _composed_pair_score(a, b, w, bias):
    """What ``pair_relu_score`` fuses: a broadcast add, a relu and a linear map."""
    def one(a, b):
        m, n = a.shape[0], b.shape[0]
        pairs = T.relu(T.add(T.take_rows(a, np.repeat(np.arange(m)[:, None], n, axis=1)),
                             T.take_rows(b, np.tile(np.arange(n), (m, 1)))))
        return T.tsum(T.linear(pairs, w, bias), axis=-1)

    if a.ndim == 2:
        return one(a, b)
    return _stack([one(*parts) for parts in zip(_unstack(a), _unstack(b))])


def _pair_score_leaves(rng, lead):
    m, n, h = (int(v) for v in rng.integers(1, 7, size=3))
    shapes = ((*lead, m, h), (*lead, n, h), (h, 1), (1,))
    return [Tensor(rng.normal(size=shape), tracked=True) for shape in shapes]


def test_pair_relu_score_matches_composed_ops():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        lead = () if seed % 2 else (int(rng.integers(1, 4)),)
        leaves = _pair_score_leaves(rng, lead)
        weights = None
        outs, grads = [], []
        for op in (T.pair_relu_score, _composed_pair_score):
            for p in leaves:
                p.zero_grad()
            out = op(*leaves)
            if weights is None:
                weights = Tensor(rng.normal(size=out.shape))
            backward(T.tsum(T.mul(out, weights)))
            outs.append(out.data)
            grads.append([p.grad for p in leaves])
        assert outs[0].shape == outs[1].shape
        assert np.max(np.abs(outs[0] - outs[1])) <= 1e-12 * np.max(np.abs(outs[1]))
        for fused, composed in zip(*grads):
            assert np.max(np.abs(fused - composed)) <= 1e-12 * np.max(np.abs(composed))


def _paper_shape_pair_inputs(rng):
    """(8, 60, 16, 64): the paper point's boundary op, with sentences of
    unequal length whose pad words are zero rows."""
    a = rng.normal(size=(8, 60, 64))
    b = rng.normal(size=(8, 16, 64))
    for i, length in enumerate((16, 9, 12, 16, 8, 14, 10, 11)):
        b[i, length:] = 0.0
    return a, b, rng.normal(size=(64, 1)), rng.normal(size=1)


def test_pair_relu_score_forward_is_the_whole_batch_formula_bit_for_bit():
    a, b, w, bias = _paper_shape_pair_inputs(np.random.default_rng(3))
    pairs = np.maximum(a[:, :, None, :] + b[:, None, :, :], 0.0)
    whole_batch = (pairs.reshape(-1, 64) @ w + bias).reshape(8, 60, 16)
    out = T.pair_relu_score(Tensor(a), Tensor(b), Tensor(w), Tensor(bias)).data
    assert out.tobytes() == whole_batch.tobytes()


def test_pair_relu_score_never_allocates_the_batch_of_pair_sums():
    a, b, w, bias = _paper_shape_pair_inputs(np.random.default_rng(4))
    leaves = [Tensor(x, tracked=True) for x in (a, b, w, bias)]
    g = np.random.default_rng(5).normal(size=(8, 60, 16))
    one_batch = 8 * 60 * 16 * 64 * 8  # bytes of one (B, M, N, h) float64 array
    tracemalloc.start()
    try:
        out = T.pair_relu_score(*leaves)
        backward(T.tsum(T.mul(out, Tensor(g))))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in leaves)
    assert peak < one_batch, f"peak {peak} bytes"


def test_pair_relu_score_gradients():
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        leaves = _pair_score_leaves(rng, (2,))
        for leaf in leaves:
            err = grad_check(_scalarize(lambda: T.pair_relu_score(*leaves), None), leaf, 1e-5)
            assert err < 1e-4, f"seed {seed}: {err}"


def test_pair_relu_score_rejects_incompatible_shapes():
    a, b = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 5, 4)))
    w, bias = Tensor(np.zeros((4, 1))), Tensor(np.zeros(1))
    for args in ((a, Tensor(np.zeros((3, 5, 4))), w, bias), (a, Tensor(np.zeros((2, 5, 3))), w, bias),
                 (a, b, Tensor(np.zeros((4, 2))), bias), (a, b, w, Tensor(np.zeros(2)))):
        with pytest.raises(DimensionError):
            T.pair_relu_score(*args)


def _composed_attention(q, k, v, mask, heads):
    """What ``attention`` fuses, one sentence and one head at a time."""
    d = q.shape[-1] // heads

    def one(q, k, v, mask):
        parts = []
        for i in range(heads):
            qi, ki, vi = (T.narrow(t, 1, i * d, d) for t in (q, k, v))
            scores = T.add(T.matmul(T.mul(qi, 1.0 / math.sqrt(d)), _transposed(ki)), Tensor(mask))
            parts.append(T.matmul(T.row_softmax(scores), vi))
        return T.concat(parts, axis=-1)

    if q.ndim == 2:
        return one(q, k, v, mask)
    total = q.shape[-2]
    masks = np.broadcast_to(mask, (q.shape[0], 1, total, total))[:, 0]
    return _stack([one(*parts, m) for *parts, m in zip(*map(_unstack, (q, k, v)), masks)])


def _attention_case(seed):
    """Random q, k, v leaves, a head count and a mask: the one-way mask of one
    sentence, or a batch's mask with pad columns, with the queries blind to
    each other in some cases and without the one-way block in others."""
    rng = np.random.default_rng(seed)
    heads = (1, 2, 4)[seed % 3]
    width = heads * int(rng.integers(1, 4))
    n, m = int(rng.integers(1, 6)), int(rng.integers(0, 4))
    kind = seed % 4
    config = ModelConfig(hidden=width, queries=m or 1, heads=heads, one_way=kind != 3,
                         query_interaction=kind != 2)
    if kind == 0:  # one sentence, no batch axis
        lead, mask = (), build_one_way_mask(n, m)
    else:
        lengths = rng.integers(1, n + 1, size=int(rng.integers(1, 4)))
        lengths[0] = n
        m = config.queries
        lead, mask = (len(lengths),), attention_mask(lengths, config)
    leaves = [Tensor(rng.normal(size=(*lead, n + m, width)), tracked=True) for _ in range(3)]
    return leaves, mask, heads


def test_attention_matches_composed_ops():
    for seed in range(24):
        (q, k, v), mask, heads = _attention_case(seed)
        weights = None
        outs, grads = [], []
        for op in (T.attention, _composed_attention):
            for p in (q, k, v):
                p.zero_grad()
            out = op(q, k, v, mask, heads)
            if weights is None:
                weights = Tensor(np.random.default_rng(seed).normal(size=out.shape))
            backward(T.tsum(T.mul(out, weights)))
            outs.append(out.data)
            grads.append([p.grad for p in (q, k, v)])
        assert outs[0].shape == outs[1].shape == q.shape
        assert np.max(np.abs(outs[0] - outs[1])) <= 1e-12 * np.max(np.abs(outs[1]))
        for fused, composed in zip(*grads):
            assert np.max(np.abs(fused - composed)) <= 1e-12 * np.max(np.abs(composed))


def test_attention_gradients():
    for seed in range(8):
        (q, k, v), mask, heads = _attention_case(40 + seed)
        for leaf in (q, k, v):
            f = _scalarize(lambda: T.attention(q, k, v, mask, heads), None)
            err = grad_check(f, leaf, 1e-5)
            assert err < 1e-4, f"seed {seed}: {err}"


def test_attention_rejects_bad_shapes_and_empty_rows():
    x = Tensor(np.zeros((2, 5, 4)))
    for mask in (np.zeros((4, 4)), np.zeros((3, 1, 5, 5)), np.zeros((2, 2, 2, 5, 5))):
        with pytest.raises(DimensionError):
            T.attention(x, x, x, mask, 2)
    with pytest.raises(DimensionError):
        T.attention(x, Tensor(np.zeros((2, 4, 4))), x, np.zeros((5, 5)), 2)
    with pytest.raises(DimensionError):
        T.attention(x, x, x, np.zeros((5, 5)), 3)
    blind = np.zeros((5, 5))
    blind[2] = -np.inf
    with pytest.raises(DegenerateRowError):
        T.attention(x, x, x, blind, 2)


def _scalarize(op, parts):
    """Random fixed projection to a scalar so grad_check sees every output."""
    rng = np.random.default_rng(1234)
    weights = None

    def f(_):
        nonlocal weights
        out = op()
        if weights is None:
            weights = rng.normal(size=out.shape)
        return T.tsum(T.mul(out, Tensor(weights)))

    return f


UNARY_OPS = [
    ("relu", T.relu, lambda r, s: r.normal(size=s) + 0.05),
    ("sigmoid", T.sigmoid, lambda r, s: r.normal(size=s)),
    ("row_softmax", T.row_softmax, lambda r, s: r.normal(size=s)),
    ("sum_all", lambda x: T.tsum(x), lambda r, s: r.normal(size=s)),
    ("sum_axis", lambda x: T.tsum(x, axis=0), lambda r, s: r.normal(size=s)),
    ("narrow", lambda x: T.narrow(x, 1, 1, 2), lambda r, s: r.normal(size=s)),
]


@pytest.mark.parametrize("name,op,sampler", UNARY_OPS, ids=[u[0] for u in UNARY_OPS])
def test_unary_op_gradients(name, op, sampler):
    # relu points are nudged away from the kink so central differences apply
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = Tensor(sampler(rng, (3, 4)), tracked=True)
        err = grad_check(_scalarize(lambda: op(x), None), x, 1e-5)
        assert err < 1e-4, f"{name} seed {seed}: {err}"


BINARY_OPS = [
    ("add", T.add, (3, 4), (3, 4)),
    ("add_broadcast", T.add, (3, 4), (4,)),
    ("mul", T.mul, (3, 4), (3, 4)),
    ("mul_broadcast", T.mul, (3, 1), (3, 4)),
    ("matmul", T.matmul, (3, 4), (4, 2)),
    ("matmul_batched", T.matmul, (2, 3, 4), (2, 4, 5)),
    ("linear_no_bias", T.linear, (2, 3, 4), (4, 5)),
]


@pytest.mark.parametrize("name,op,sa,sb", BINARY_OPS, ids=[b[0] for b in BINARY_OPS])
def test_binary_op_gradients(name, op, sa, sb):
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        a = Tensor(rng.normal(size=sa), tracked=True)
        b = Tensor(rng.normal(size=sb), tracked=True)
        fa = _scalarize(lambda: op(a, b), None)
        assert grad_check(fa, a, 1e-5) < 1e-4, f"{name} lhs seed {seed}"
        fb = _scalarize(lambda: op(a, b), None)
        assert grad_check(fb, b, 1e-5) < 1e-4, f"{name} rhs seed {seed}"


def test_structural_op_gradients():
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        a = Tensor(rng.normal(size=(3, 2)), tracked=True)
        b = Tensor(rng.normal(size=(3, 3)), tracked=True)
        f = _scalarize(lambda: T.concat([a, b], axis=-1), None)
        assert grad_check(f, a, 1e-5) < 1e-4
        table = Tensor(rng.normal(size=(5, 3)), tracked=True)
        ids = rng.integers(0, 5, size=4)
        f2 = _scalarize(lambda: T.take_rows(table, ids), None)
        assert grad_check(f2, table, 1e-5) < 1e-4


def test_linear_over_leading_axes_gradients_and_value():
    for seed in range(6):
        rng = np.random.default_rng(250 + seed)
        x = Tensor(rng.normal(size=(2, 3, 4)), tracked=True)
        w = Tensor(rng.normal(size=(4, 5)), tracked=True)
        b = Tensor(rng.normal(size=5), tracked=True)
        for p in (x, w, b):
            f = _scalarize(lambda: T.linear(x, w, b), None)
            assert grad_check(f, p, 1e-5) < 1e-4
        rows = np.concatenate([T.linear(Tensor(x.data[i]), w, b).data[None] for i in range(2)])
        assert np.array_equal(T.linear(x, w, b).data, rows)


def test_layer_norm_gradients_and_value():
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        x = Tensor(rng.normal(size=(3, 6)), tracked=True)
        gamma = Tensor(rng.normal(size=6) + 1.5, tracked=True)
        beta = Tensor(rng.normal(size=6), tracked=True)
        for p in (x, gamma, beta):
            f = _scalarize(lambda: T.layer_norm(x, gamma, beta), None)
            assert grad_check(f, p, 1e-5) < 1e-4
    out = T.layer_norm(Tensor(np.arange(8.0)), Tensor(np.ones(8)), Tensor(np.zeros(8)))
    assert abs(out.data.mean()) < 1e-12
    assert abs(out.data.std() - 1.0) < 1e-4


def test_take_rows_repeated_ids_accumulate():
    table = Tensor(np.zeros((3, 2)), tracked=True)
    out = T.take_rows(table, [1, 1, 2])
    backward(T.tsum(out))
    assert np.array_equal(table.grad, [[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])


def test_forward_outputs_finite_on_finite_inputs():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(4, 4)) * 50)
    for op in (T.sigmoid, T.row_softmax, T.relu):
        assert np.all(np.isfinite(op(x).data))


# Every public op: its name, the shapes of its tensor operands, and a call on them.
RECORDING_CASES = [
    ("add", [(2, 3), (2, 3)], T.add),
    ("mul", [(2, 3), (3,)], T.mul),
    ("matmul", [(2, 3), (3, 4)], T.matmul),
    ("linear", [(2, 3), (3, 4), (4,)], T.linear),
    ("linear", [(2, 3), (3, 4)], T.linear),
    ("pair_relu_score", [(3, 4), (5, 4), (4, 1), (1,)], T.pair_relu_score),
    ("bce_with_logits", [(2, 3)],
     lambda z: T.bce_with_logits(z, np.eye(2, 3), np.ones((2, 1)))),
    ("softmax_cross_entropy", [(2, 3)], lambda z: T.softmax_cross_entropy(z, np.eye(2, 3))),
    ("relu", [(2, 3)], T.relu),
    ("sigmoid", [(2, 3)], T.sigmoid),
    ("tsum", [(2, 3)], lambda x: T.tsum(x, axis=0)),
    ("concat", [(2, 3), (2, 2)], lambda a, b: T.concat([a, b])),
    ("narrow", [(2, 3)], lambda x: T.narrow(x, 1, 1, 2)),
    ("take_rows", [(4, 3)], lambda x: T.take_rows(x, [0, 2, 2])),
    ("row_softmax", [(2, 3)], T.row_softmax),
    ("attention", [(3, 4)] * 3, lambda q, k, v: T.attention(q, k, v, np.zeros((3, 3)), 2)),
    ("layer_norm", [(2, 3), (3,), (3,)], T.layer_norm),
]


def test_no_grad_suppresses_recording():
    not_ops = {"Tensor", "DimensionError", "DegenerateRowError", "NumericError",
               "topological_order", "ParameterLayout", "ParameterGroup", "no_grad", "backward",
               "grad_check", "grad_check_stacked"}
    assert {case[0] for case in RECORDING_CASES} == set(T.__all__) - not_ops
    rng = np.random.default_rng(0)
    for name, shapes, op in RECORDING_CASES:
        def operands(tracked_at, leaf=True):
            args = [Tensor(rng.normal(size=shape), tracked=i == tracked_at)
                    for i, shape in enumerate(shapes)]
            if not leaf:  # the tracked operand is itself a recorded result
                args[tracked_at] = T.add(args[tracked_at], 0.0)
            return args

        # a predict pass keeps no graph: nothing is recorded inside no_grad,
        # even from tracked operands, nor from untracked operands outside it
        with T.no_grad():
            plain = [op(*operands(i)) for i in range(len(shapes))]
        plain.append(op(*operands(None)))
        for out in plain:
            assert not out.tracked and out._node is T._UNTRACKED and out._parents == (), name
        for i in range(len(shapes)):
            for leaf in (True, False):
                args = operands(i, leaf)
                out = op(*args)
                assert out.tracked and isinstance(out._node, T._Node), name
                # one entry per operand, in order: a recorded result's node, a
                # tracked leaf itself, or the shared untracked marker
                expected = [T._UNTRACKED] * len(args)
                expected[i] = args[i] if leaf else args[i]._node
                assert len(out._parents) == len(args), name
                assert all(p is e for p, e in zip(out._parents, expected)), name


def _holds_tensor(value) -> bool:
    if isinstance(value, Tensor):
        return True
    return isinstance(value, (tuple, list)) and any(_holds_tensor(v) for v in value)


def test_recorded_rules_hold_no_tensor():
    rng = np.random.default_rng(1)
    for name, shapes, op in RECORDING_CASES:
        # every operand a tracked non-leaf, so each rule saves all it may read
        args = [T.add(Tensor(rng.normal(size=shape), tracked=True), 0.0) for shape in shapes]
        out = op(*args)
        node = out._node
        assert isinstance(node, T._Node), name
        assert node._rule.__closure__ is None, name
        assert not _holds_tensor(node._saved), name
        assert all(type(p) is T._Node for p in node._parents), name
        grads = node._rule(np.ones(out.shape), *node._saved)
        assert [np.shape(g) for g in grads] == [a.shape for a in args], name


def test_gradient_rules_keep_a_float32_graph_in_float32(monkeypatch):
    """Every rule of a float32 graph with no loss gets and returns float32
    gradients, from the seed on, so backward never upcasts it. The losses
    are left out: their targets are float64."""
    rules = []
    record = T._record

    def spy(data, parents, rule, *saved):
        def checked(g, *args):
            grads = rule(g, *args)
            rules.append((rule.__name__, g.dtype, {pg.dtype for pg in grads if pg is not None}))
            return grads
        return record(data, parents, checked, *saved)

    monkeypatch.setattr(T, "_record", spy)
    rng = np.random.default_rng(2)
    for name, shapes, op in RECORDING_CASES:
        if name in ("bce_with_logits", "softmax_cross_entropy"):
            continue
        args = [Tensor(rng.normal(size=shape).astype(np.float32), tracked=True)
                for shape in shapes]
        reached = backward(T.tsum(op(*args)))
        assert len(reached) == len(args), name
        assert all(p.grad.dtype == np.float32 for p in args), name
    assert {"_take_rows_grad", "_narrow_grad", "_pair_relu_score_grad", "_layer_norm_grad",
            "_attention_grad", "_tsum_grad"} <= {name for name, _, _ in rules}
    upcast = [(name, g, out) for name, g, out in rules
              if g != np.float32 or out != {np.dtype(np.float32)}]
    assert not upcast, upcast


def test_graph_objects_are_freed_without_the_cycle_collector():
    # a leaf or node that held itself would live until a cyclic collection,
    # so a discarded model's parameters would pile up until then
    gc.disable()
    try:
        w = Tensor(np.ones(3), tracked=True)
        loss = T.tsum(T.mul(T.relu(w), w))
        backward(loss)
        refs = [weakref.ref(x) for x in (w, loss, loss._node)]
        del w, loss
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


# Stacks: inside no_grad a parameter operand may be a (P, rows, cols) stack,
# a vector taken as one row, with index p applied to index p of the first axis.

STACKED_OPS = [
    # name, operand shapes, roles: "x" one per copy on a first axis, "s" a
    # stack, "-" one value shared by every copy
    ("linear", [(3, 4), (4, 5), (5,)], "xss", T.linear),
    ("linear_shared_bias", [(3, 4), (4, 5), (5,)], "xs-", T.linear),
    ("linear_no_bias", [(3, 4), (4, 5)], "xs", T.linear),
    ("layer_norm", [(3, 6), (6,), (6,)], "xs-", T.layer_norm),
    ("pair_relu_score", [(2, 4), (3, 4), (4, 1), (1,)], "xxss", T.pair_relu_score),
]


@pytest.mark.parametrize("name,shapes,roles,op", STACKED_OPS, ids=[s[0] for s in STACKED_OPS])
def test_stacked_operands_equal_each_copy_bit_for_bit(name, shapes, roles, op):
    copies = 5
    rng = np.random.default_rng(7)
    values = [rng.normal(size=(copies,) + s) for s in shapes]
    operands = []
    for v, shape, role in zip(values, shapes, roles):
        if role == "s":  # a vector is one row
            v = v.reshape((copies,) + (1,) * (2 - len(shape)) + shape)
        operands.append(v[0] if role == "-" else v)
    with T.no_grad():
        out = op(*map(Tensor, operands)).data
    for p in range(copies):
        one = [v[0] if role == "-" else v[p] for v, role in zip(values, roles)]
        assert np.array_equal(out[p], op(*map(Tensor, one)).data), f"{name} copy {p}"
    # a stack is rejected while gradients are recorded, naming its shape
    with pytest.raises(DimensionError, match=re.escape(str(operands[roles.index("s")].shape))):
        op(*(Tensor(a, tracked=True) for a in operands))


def test_stacked_take_rows_gathers_each_row_of_ids_from_its_own_table():
    rng = np.random.default_rng(8)
    tables = rng.normal(size=(3, 5, 2))
    ids = rng.integers(0, 5, size=(3, 4))
    with T.no_grad():
        out = T.take_rows(Tensor(tables), ids).data
    for p in range(3):
        assert np.array_equal(out[p], T.take_rows(Tensor(tables[p]), ids[p]).data)
    # recorded, a 3-D table still gathers whole rows of its first axis
    assert T.take_rows(Tensor(tables, tracked=True), ids % 3).shape == (3, 4, 5, 2)


@pytest.mark.parametrize("loss", ["bce", "softmax_cross_entropy"])
def test_per_item_losses_sum_each_item_and_differentiate(loss):
    rng = np.random.default_rng(9)
    z = Tensor(rng.normal(size=(3, 2, 4)), tracked=True)
    if loss == "bce":
        targets = (rng.random(size=z.shape) < 0.5).astype(float)
        mask = (rng.random(size=(3, 2, 1)) < 0.7).astype(float)

        def op(x, per_item=False):
            return T.bce_with_logits(x, targets, mask, per_item=per_item)
    else:
        targets = np.eye(4)[rng.integers(0, 4, size=(3, 2))]

        def op(x, per_item=False):
            return T.softmax_cross_entropy(x, targets, per_item=per_item)
    per = op(z, per_item=True)
    assert per.shape == (3,)
    assert per.data.sum() == pytest.approx(op(z).item(), rel=1e-14)
    if loss == "softmax_cross_entropy":  # one item's targets alone
        for p in range(3):
            alone = T.softmax_cross_entropy(Tensor(z.data[p]), targets[p])
            assert per.data[p] == alone.item()
    assert grad_check(_scalarize(lambda: op(z, per_item=True), None), z, 1e-5) < 1e-4


def _stacked_model_loss(rng):
    """A (copies,)-valued loss through every op that reads a stack."""
    params = {"w": (4, 4), "b": (4,), "gamma": (4,), "beta": (4,), "table": (6, 4),
              "scorer": (4, 1), "bias": (1,)}
    params = {k: Tensor(rng.normal(size=s), tracked=True) for k, s in params.items()}
    ids = rng.integers(0, 6, size=3)
    targets = (rng.random(size=(1, 3, 3)) < 0.5).astype(float)

    def f(copies):
        x = T.take_rows(params["table"], np.repeat(ids[None], copies, axis=0))
        x = T.layer_norm(T.linear(x, params["w"], params["b"]), params["gamma"], params["beta"])
        logits = T.pair_relu_score(x, x, params["scorer"], params["bias"])
        return T.bce_with_logits(logits, np.repeat(targets, copies, axis=0), 1.0, per_item=True)

    return f, params


def test_grad_check_stacked_equals_grad_check():
    for seed in range(3):
        f, params = _stacked_model_loss(np.random.default_rng(400 + seed))
        singles = []
        for name, p in params.items():
            before = p.data.copy()
            stacked = T.grad_check_stacked(f, [p], 1e-5)
            assert np.array_equal(p.data, before), name  # restored
            assert stacked == grad_check(lambda _: T.tsum(f(1)), p, 1e-5), name
            assert stacked < 1e-4, name
            singles.append(stacked)
        before = {name: p.data.copy() for name, p in params.items()}
        assert T.grad_check_stacked(f, list(params.values()), 1e-5) == max(singles)
        for name, p in params.items():
            assert np.array_equal(p.data, before[name]), name  # every point restored


def test_grad_check_stacked_catches_a_missing_gradient_and_bad_targets():
    f, params = _stacked_model_loss(np.random.default_rng(410))
    w, points = params["w"], list(params.values())
    missing = lambda copies: T.add(f(copies), Tensor(w.data.sum(axis=(-2, -1))))  # noqa: E731
    assert T.grad_check_stacked(missing, [w], 1e-5) > 1e-2
    assert T.grad_check_stacked(missing, points, 1e-5) > 1e-2
    for eps in (0.0, -1e-5):
        with pytest.raises(ValueError, match="eps must be positive"):
            T.grad_check_stacked(f, points, eps)
    with pytest.raises(ValueError, match="must be tracked"):
        T.grad_check_stacked(f, [w, Tensor(np.zeros(4))], 1e-5)
    with pytest.raises(DimensionError):  # not one value per copy
        T.grad_check_stacked(lambda copies: T.tsum(f(copies)), points, 1e-5)
    with pytest.raises(DimensionError):
        T.grad_check_stacked(f, [w, Tensor(np.zeros((2, 2, 2)), tracked=True)], 1e-5)
