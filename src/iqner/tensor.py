"""Dense float tensors with reverse-mode automatic differentiation.

Everything the encoder, prediction heads, and losses need: a small set of
differentiable operations over numpy arrays, a single-sweep backward pass,
and a central-difference gradient checker. CPU only. Training and every
gradient run in float64. An op computes in its operands' dtype, so a
no-grad pass over float32 parameters (decoding) computes in float32, and a
gradient rule allocates in its gradient's dtype, seeded in the loss's.

Every operation hands its result to ``_record``, the one place that decides
whether to record it: only while gradients are on (outside ``no_grad``) and
some operand is tracked. Otherwise the result is a plain value and nothing
else is built.

The graph is made of nodes kept apart from the values. A recorded result
gets a ``_Node`` that holds its parents' nodes, its gradient rule (a
module-level function) and the arrays, shapes and flags that rule reads,
never a Tensor. A parameter leaf is its own node, and an untracked operand
is recorded as the shared ``_UNTRACKED`` marker. So an intermediate that no
rule reads is freed with its last reference instead of living until the
backward pass.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "DimensionError",
    "DegenerateRowError",
    "NumericError",
    "topological_order",
    "ParameterLayout",
    "ParameterGroup",
    "no_grad",
    "add",
    "mul",
    "matmul",
    "linear",
    "pair_relu_score",
    "bce_with_logits",
    "softmax_cross_entropy",
    "relu",
    "sigmoid",
    "tsum",
    "concat",
    "narrow",
    "take_rows",
    "row_softmax",
    "attention",
    "layer_norm",
    "backward",
    "grad_check",
    "grad_check_stacked",
]


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DegenerateRowError(ValueError):
    """A softmax row contained no finite entry."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


class _Node:
    """A recorded result's place in the graph: its parents' nodes, and the
    gradient rule with the values it reads. ``_rule(g, *_saved)`` returns one
    gradient (or None) per parent."""

    __slots__ = ("_parents", "_rule", "_saved", "__weakref__")
    tracked = True


# stands for every untracked operand among a node's parents
_UNTRACKED = SimpleNamespace(tracked=False, _parents=())


class Tensor:
    """A dense float64 array, or float32 when made from a float32 array, plus
    optional gradient.

    ``tracked`` tensors participate in differentiation: operations consuming
    them record a gradient rule, and :func:`backward` adds into the ``grad``
    of every tracked leaf it reaches, zeros from the start. Untracked tensors
    are plain values.
    """

    __slots__ = ("data", "grad", "tracked", "_node", "__weakref__")

    def __init__(self, data, tracked: bool = False):
        dtype = np.float32 if getattr(data, "dtype", None) == np.float32 else np.float64
        self.data = np.array(data, dtype=dtype, copy=True, order="C")
        self.grad: np.ndarray | None = np.zeros_like(self.data) if tracked else None
        self.tracked = tracked
        # None marks a tracked leaf, which is its own graph node; holding
        # itself would keep a discarded model's parameters for the cycle collector
        self._node = None if tracked else _UNTRACKED

    @property
    def _parents(self) -> tuple:
        """The nodes this result was computed from; empty for leaves and plain values."""
        return () if self._node is None else self._node._parents

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, tracked={self.tracked})"


class ParameterLayout:
    """Declares tracked leaves without values, then lays them out on one
    vector ``theta`` and a float64 ``grad`` vector of zeros alike: each
    leaf's ``data`` and ``grad`` become views of its slices."""

    def __init__(self):
        self._specs: dict[int, tuple] = {}

    def __call__(self, shape, std: float | None = None, fill: float = 0.0) -> Tensor:
        """A leaf to be drawn N(0, ``std``) or, without ``std``, filled with ``fill``."""
        leaf = Tensor.__new__(Tensor)
        leaf.data, leaf.grad, leaf.tracked, leaf._node = None, None, True, None
        self._specs[id(leaf)] = ((shape,) if isinstance(shape, int) else shape, std, fill)
        return leaf

    def place(self, leaves: list[Tensor], rng: np.random.Generator | None = None,
              theta: np.ndarray | None = None,
              trainable: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
        """Lay ``leaves`` out in the order given and return ``theta`` and
        ``grad``. A given ``theta`` is viewed as it is; else each leaf is drawn
        from ``rng`` or filled, in that order, into a new vector of zeros.
        Unless ``trainable``, no ``grad`` is made (None is returned) and the
        leaves become untracked values, which no op records."""
        specs = [self._specs[id(leaf)] for leaf in leaves]
        total = sum(math.prod(shape) for shape, _, _ in specs)
        draw = theta is None
        if draw:
            theta = np.zeros(total)
        elif theta.shape != (total,):
            raise DimensionError(f"parameters have shape {theta.shape}, the model needs ({total},)")
        grad = np.zeros(total) if trainable else None
        start = 0
        for leaf, (shape, std, fill) in zip(leaves, specs):
            stop = start + math.prod(shape)
            leaf.data = theta[start:stop].reshape(shape)
            if trainable:
                leaf.grad = grad[start:stop].reshape(shape)
            else:
                leaf.tracked, leaf._node = False, _UNTRACKED
            if draw and std is None:
                leaf.data.fill(fill)
            elif draw:  # the numbers rng.normal(0.0, std, shape) gives, drawn in place
                rng.standard_normal(out=leaf.data)
                leaf.data *= std
            start = stop
        return theta, grad


class ParameterGroup:
    """Base of a dataclass whose fields are parameters or nested groups, built
    by a classmethod ``declare(..., new)`` from a ``ParameterLayout``."""

    @classmethod
    def init(cls, *args) -> "ParameterGroup":
        """A group on vectors of its own: ``declare``'s arguments, with the
        generator to draw from in place of the layout."""
        *args, rng = args
        new = ParameterLayout()
        group = cls.declare(*args, new)
        new.place([p for _, p in group.named("")], rng)
        return group

    def named(self, prefix: str) -> list[tuple[str, Tensor]]:
        """Every parameter in field order, named ``prefix.field``; a nested
        group's named ``prefix.field.inner``."""
        out = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            name = f"{prefix}.{f.name}"
            out += value.named(name) if isinstance(value, ParameterGroup) else [(name, value)]
        return out


_GRAD_ENABLED = [True]


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable gradient recording inside the block (fast plain-value math)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node_of(t: Tensor):
    """The tensor's graph node; a tracked leaf is its own."""
    return t if t._node is None else t._node


def _record(data: np.ndarray, parents: tuple[Tensor, ...], rule, *saved) -> Tensor:
    """An op's result. ``parents`` are its operands, in order.

    A ``_Node`` of the parents' nodes, ``rule`` and ``saved`` is built only
    while gradients are on and some parent is tracked; otherwise the result
    is a plain value.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _GRAD_ENABLED[-1]:
        for p in parents:
            if p.tracked:
                node = _Node.__new__(_Node)
                node._parents = tuple([q if q._node is None else q._node for q in parents])
                node._rule = rule
                node._saved = saved
                out.tracked = True
                out._node = node
                return out
    out.tracked = False
    out._node = _UNTRACKED
    return out


def _is_stack(a: np.ndarray, shape: tuple[int, ...], lead: np.ndarray) -> bool:
    """Whether ``a`` is a stack of P values of a parameter of ``shape``, one
    for each index of the first axis of the (P, ...) operand ``lead``.

    A stack is a (P, rows, cols) array, a vector taken as one row, so that it
    broadcasts against (P, T, h) activations. Ops read stacks only inside
    ``no_grad``; their gradient rules take single values. See
    ``grad_check_stacked``.
    """
    return (not _GRAD_ENABLED[-1] and lead.ndim == 3
            and a.shape == lead.shape[:1] + (1,) * (2 - len(shape)) + shape)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise and structural operations
#
# Each op's gradient rule is the module-level ``_<op>_grad(g, *saved)``. An
# operand array that only another operand's gradient reads is saved only when
# that operand is tracked, and None stands for "not needed".


def _add_grad(g, a_shape, b_shape, a_tracked, b_tracked):
    return (
        _unbroadcast(g, a_shape) if a_tracked else None,
        _unbroadcast(g, b_shape) if b_tracked else None,
    )


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None
    return _record(data, (a, b), _add_grad,
                   a.data.shape, b.data.shape, a.tracked, b.tracked)


def _mul_grad(g, a_shape, b_shape, a, b):
    return (
        _unbroadcast(g * b, a_shape) if b is not None else None,
        _unbroadcast(g * a, b_shape) if a is not None else None,
    )


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None
    return _record(data, (a, b), _mul_grad, a.data.shape, b.data.shape,
                   a.data if b.tracked else None, b.data if a.tracked else None)


def _rows(x: np.ndarray) -> np.ndarray:
    """The array as a matrix of its last axis, leading axes flattened."""
    return x.reshape(-1, x.shape[-1])


def _matmul_grad(g, a, b):
    return (
        g @ b.swapaxes(-1, -2) if b is not None else None,
        a.swapaxes(-1, -2) @ g if a is not None else None,
    )


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes, whose leading axes must be equal.

    A product with one weight matrix shared by every row is ``linear``.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if (ad.ndim < 2 or bd.ndim != ad.ndim or ad.shape[:-2] != bd.shape[:-2]
            or ad.shape[-1] != bd.shape[-2]):
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} are not compatible")
    return _record(ad @ bd, (a, b), _matmul_grad,
                   ad if b.tracked else None, bd if a.tracked else None)


def _linear_grad(g, x, w, *bias_shape):
    # bias_shape is empty without a bias operand, else (its shape, or None when untracked)
    gx = g @ w.T if w is not None else None
    gw = _rows(x).T @ _rows(g) if x is not None else None
    if not bias_shape:
        return gx, gw
    return gx, gw, _unbroadcast(g, bias_shape[0]) if bias_shape[0] is not None else None


def linear(x, w, b=None) -> Tensor:
    """x @ w (+ b) for x (..., k), one matrix w (k, n) shared by every row of
    x, and an optional vector bias b: the one op that multiplies by a weight.

    Inside ``no_grad``, w and b may also be stacks (``_is_stack``) against a
    (P, T, k) x.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    xd, wd = x.data, w.data
    if (xd.ndim < 2 or not (wd.ndim == 2 or _is_stack(wd, wd.shape[1:], xd))
            or xd.shape[-1] != wd.shape[-2]):
        raise DimensionError(f"linear: shapes {x.shape} and {w.shape} are not compatible")
    if b is None:
        return _record(xd @ wd, (x, w), _linear_grad,
                       xd if w.tracked else None, wd if x.tracked else None)
    b = _as_tensor(b)
    return _record(xd @ wd + b.data, (x, w, b), _linear_grad,
                   xd if w.tracked else None, wd if x.tracked else None,
                   b.data.shape if b.tracked else None)


def _pair_relu_score_grad(g, a, b, w, a_tracked, b_tracked, w_tracked, bias_tracked):
    # relu(x) = x [x > 0], so with S_a = sum_j g_ij [a_i + b_j > 0] and S_b its
    # sum over i: ga = w S_a, gb = w S_b and gw = sum_i a_i S_a,i + sum_j b_j S_b,j.
    # A rounded sum has the exact sum's sign, so a_i + b_j > 0 is a_i > -b_j.
    m, n, h = a.shape[-2], b.shape[-2], a.shape[-1]
    a3, b3, g3 = a.reshape(-1, m, h), b.reshape(-1, n, h), g.reshape(-1, m, n)
    negative_b = np.negative(b3)
    s_a, s_b = np.empty_like(a3), np.empty_like(b3)
    active = np.empty((m, n, h), np.result_type(g, b))  # one sentence's pairs at a time
    for i in range(len(a3)):
        # filled from the contiguous operand first: a broadcast copy, then one
        # in-place compare, beats comparing two broadcast operands
        np.copyto(active, negative_b[i])
        np.less(active, a3[i, :, None], out=active)
        np.einsum("ij,ijh->ih", g3[i], active, out=s_a[i])
        np.einsum("ij,ijh->jh", g3[i], active, out=s_b[i])
    scorer = w[:, 0]
    return (
        (s_a * scorer).reshape(a.shape) if a_tracked else None,
        (s_b * scorer).reshape(b.shape) if b_tracked else None,
        (_rows(a3 * s_a).sum(axis=0) + _rows(b3 * s_b).sum(axis=0)).reshape(h, 1)
        if w_tracked else None,
        g.sum().reshape(1) if bias_tracked else None,
    )


def pair_relu_score(a, b, w, bias) -> Tensor:
    """relu(a_i + b_j) @ w + bias for every row i of ``a`` and row j of ``b``.

    ``a`` is (..., M, h) and ``b`` (..., N, h) with equal leading axes, ``w``
    is (h, 1) and ``bias`` (1,); the result is (..., M, N). The forward and
    the backward each run one (M, N, h) block of pair sums at a time, in one
    reused buffer, so no (..., M, N, h) array is ever allocated; backward
    recomputes each block from ``a`` and ``b``. Inside ``no_grad``, ``w`` and
    ``bias`` may be stacks (``_is_stack``) against a (P, M, h) ``a``.
    """
    a, b, w, bias = _as_tensor(a), _as_tensor(b), _as_tensor(w), _as_tensor(bias)
    ad, bd = a.data, b.data
    h = ad.shape[-1]
    stacked = w.shape != (h, 1) and _is_stack(w.data, (h, 1), ad)
    if (ad.ndim < 2 or bd.ndim != ad.ndim or ad.shape[:-2] != bd.shape[:-2]
            or bd.shape[-1] != h or not (w.shape == (h, 1) or stacked)
            or not (bias.shape == (1,) or _is_stack(bias.data, (1,), ad))):
        raise DimensionError(f"pair_relu_score: shapes {a.shape}, {b.shape}, {w.shape} "
                             f"and {bias.shape} are not compatible")
    m, n = ad.shape[-2], bd.shape[-2]
    a3, b3 = ad.reshape(-1, m, h), bd.reshape(-1, n, h)
    dtype = np.result_type(ad, bd, w.data, bias.data)
    data = np.empty((len(a3), m * n, 1), dtype)
    fused = np.empty((m, n, h), dtype)
    pairs = fused.reshape(m * n, h)
    for i in range(len(a3)):
        np.copyto(fused, b3[i])  # see _pair_relu_score_grad
        np.add(fused, a3[i, :, None], out=fused)
        np.maximum(fused, 0.0, out=fused)
        np.dot(pairs, w.data[i] if stacked else w.data, out=data[i])
    data += bias.data
    return _record(data.reshape(ad.shape[:-1] + (n,)), (a, b, w, bias), _pair_relu_score_grad,
                   ad, bd, w.data, a.tracked, b.tracked, w.tracked, bias.tracked)


def _relu_grad(g, out):
    return (g * (out > 0.0),)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    data = np.maximum(x.data, 0.0)
    # the output is positive exactly where the input is
    return _record(data, (x,), _relu_grad, data)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _sigmoid_grad(g, y):
    return (g * y * (1.0 - y),)


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    y = _stable_sigmoid(x.data)
    return _record(y, (x,), _sigmoid_grad, y)


def _tsum_grad(g, shape, axis, keepdims):
    if axis is None:
        return (np.broadcast_to(g, shape).copy(),)
    ge = g if keepdims else np.expand_dims(g, axis)
    return (np.broadcast_to(ge, shape).copy(),)


def tsum(x, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Sum over an axis (or everything when axis is None)."""
    x = _as_tensor(x)
    return _record(x.data.sum(axis=axis, keepdims=keepdims), (x,), _tsum_grad,
                   x.data.shape, axis, keepdims)


def _concat_grad(g, axis, sizes):
    return np.split(g, np.cumsum(sizes)[:-1], axis=axis)


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    parts = tuple(_as_tensor(p) for p in parts)
    data = np.concatenate([p.data for p in parts], axis=axis)
    return _record(data, parts, _concat_grad,
                   axis, [p.data.shape[axis] for p in parts])


def _narrow_grad(g, shape, index):
    full = np.zeros(shape, g.dtype)
    full[index] = g
    return (full,)


def narrow(x, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    x = _as_tensor(x)
    if start == 0 and length == x.data.shape[axis]:
        return x  # the slice is the whole axis
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    return _record(x.data[index], (x,), _narrow_grad, x.data.shape, index)


def _take_rows_grad(g, shape, ids):
    full = np.zeros(shape, g.dtype)
    np.add.at(full, ids, g)
    return (full,)


def take_rows(x, ids) -> Tensor:
    """Gather rows of a matrix by integer index (embedding lookup).

    Inside ``no_grad``, ``x`` may be a stack (``_is_stack``) of P matrices
    for (P, n) ``ids``; each row of ``ids`` then gathers from its own matrix.
    """
    x = _as_tensor(x)
    ids = np.asarray(ids, dtype=np.intp)
    if x.ndim == 3 and ids.ndim == 2 and _is_stack(x.data, x.shape[1:], ids[..., None]):
        return _record(x.data[np.arange(len(ids))[:, None], ids], (x,), _take_rows_grad,
                       x.data.shape, ids)
    return _record(x.data[ids], (x,), _take_rows_grad, x.data.shape, ids)


def _loss_sum(terms: np.ndarray, per_item: bool) -> np.ndarray:
    """The sum of a loss's terms: one total, or one per index of the first axis."""
    return terms.reshape(len(terms), -1).sum(axis=1) if per_item else terms.sum()


def _per_term(g: np.ndarray, ndim: int) -> np.ndarray:
    """A loss's upstream gradient, one total or one per item, against its terms."""
    return g.reshape(g.shape + (1,) * (ndim - g.ndim))


def _bce_grad(g, z, t, mask):
    return (_per_term(g, z.ndim) * (_stable_sigmoid(z) - t) * mask,)


def bce_with_logits(logits, targets, mask, per_item: bool = False) -> Tensor:
    """Summed binary cross entropy from logits against {0,1} targets.

    Computed as t*softplus(-z) + (1-t)*softplus(z), which never overflows
    and is exactly zero at saturated correct logits. ``mask`` (0/1,
    broadcast against the logits) excludes entries from the sum. With
    ``per_item`` the result is one sum per index of the first axis.
    """
    z = _as_tensor(logits)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != z.shape:
        raise DimensionError(f"bce targets {t.shape} do not match logits {z.shape}")
    mask = np.asarray(mask, dtype=np.float64)
    per = t * np.logaddexp(0.0, -z.data) + (1.0 - t) * np.logaddexp(0.0, z.data)
    return _record(_loss_sum(per * mask, per_item), (z,), _bce_grad, z.data, t, mask)


def _softmax_cross_entropy_grad(g, z, lse, t):
    soft = np.exp(z - lse)
    return (_per_term(g, z.ndim) * (soft * t.sum(axis=-1, keepdims=True) - t),)


def softmax_cross_entropy(logits, one_hot, per_item: bool = False) -> Tensor:
    """Summed cross entropy of row-softmax(logits) against one-hot targets;
    with ``per_item``, one sum per index of the first axis."""
    z = _as_tensor(logits)
    t = np.asarray(one_hot, dtype=np.float64)
    if t.shape != z.shape:
        raise DimensionError(f"targets {t.shape} do not match logits {z.shape}")
    m = z.data.max(axis=-1, keepdims=True)
    _check_rows_finite_max(m)
    shifted = z.data - m
    lse = m + np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return _record(_loss_sum(t * (lse - z.data), per_item), (z,), _softmax_cross_entropy_grad,
                   z.data, lse, t)


# ---------------------------------------------------------------------------
# row-wise softmax family


def _check_rows_finite_max(m: np.ndarray) -> None:
    # fmin ignores NaN, so a fully masked row is caught even beside a NaN row
    if np.fmin.reduce(m, axis=None, initial=np.inf) == -np.inf:
        raise DegenerateRowError("softmax row with every entry masked to -inf")


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place in ``x``, which it returns."""
    m = x.max(axis=-1, keepdims=True)
    _check_rows_finite_max(m)
    x -= m
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _softmax_rows_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The gradient of the softmax input, from ``g`` at its output ``y``."""
    return (g - (g * y).sum(axis=-1, keepdims=True)) * y


def _row_softmax_grad(g, y):
    return (_softmax_rows_grad(g, y),)


def row_softmax(x) -> Tensor:
    """Softmax over the last axis; -inf entries come out exactly 0."""
    x = _as_tensor(x)
    y = _softmax_rows(x.data.copy())
    return _record(y, (x,), _row_softmax_grad, y)


def _split_heads(x: np.ndarray, layout) -> np.ndarray:
    """(..., T, h) as a (..., heads, T, d) view."""
    _, split_shape, heads_first = layout
    return x.reshape(split_shape).transpose(heads_first)


def _merge_heads(x: np.ndarray, layout) -> np.ndarray:
    shape, _, heads_first = layout
    return x.transpose(heads_first).reshape(shape)


def _attention_grad(g, qh, kh, vh, weights, scale, layout, q_tracked, k_tracked, v_tracked):
    gh = _split_heads(g, layout)
    gs = _softmax_rows_grad(gh @ vh.swapaxes(-1, -2), weights)
    return (
        _merge_heads(gs @ kh, layout) * scale if q_tracked else None,
        _merge_heads((qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2), layout) if k_tracked else None,
        _merge_heads(weights.swapaxes(-1, -2) @ gh, layout) if v_tracked else None,
    )


def attention(q, k, v, mask, heads: int) -> Tensor:
    """Masked multi-head scaled dot-product attention: softmax(q k^T / sqrt(d) + mask) v.

    ``q``, ``k`` and ``v`` are (..., T, h) projections whose last axis holds
    ``heads`` slices of d = h / heads; the result is the (..., T, h) context,
    heads side by side. ``mask``, an array of additive 0 / -inf entries,
    broadcasts against the (..., heads, T, T) scores.
    Scores, mask, softmax and weights share one buffer, and the backward
    keeps only the head-split scaled q, k, v and the weights.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    shape = q.shape
    if q.ndim < 2 or k.shape != shape or v.shape != shape or heads < 1 or shape[-1] % heads:
        raise DimensionError(f"attention: shapes {q.shape}, {k.shape} and {v.shape} "
                             f"do not split into {heads} heads")
    mask = np.asarray(mask, dtype=q.data.dtype)
    lead, total, head_dim = shape[:-2], shape[-2], shape[-1] // heads
    scores_shape = lead + (heads, total, total)
    if mask.ndim > len(scores_shape) or any(
            m not in (1, s) for m, s in zip(mask.shape[::-1], scores_shape[::-1])):
        raise DimensionError(f"attention: mask shape {mask.shape} does not fit "
                             f"scores of shape {scores_shape}")
    axes = len(lead)
    heads_first = (*range(axes), axes + 1, axes, axes + 2)  # its own inverse
    layout = (shape, lead + (total, heads, head_dim), heads_first)
    scale = 1.0 / math.sqrt(head_dim)
    qh = _split_heads(q.data * scale, layout)
    kh, vh = _split_heads(k.data, layout), _split_heads(v.data, layout)
    weights = qh @ kh.swapaxes(-1, -2)
    weights += mask
    _softmax_rows(weights)
    return _record(_merge_heads(weights @ vh, layout), (q, k, v),
                   _attention_grad, qh, kh, vh, weights, scale, layout,
                   q.tracked, k.tracked, v.tracked)


def _layer_norm_grad(g, y, inv, gamma, gamma_tracked, beta_tracked):
    if gamma is not None:  # kept only when x is tracked
        h = y.shape[-1]
        dy = g * gamma
        mean_dy = dy.sum(axis=-1, keepdims=True) / h  # as in layer_norm
        mean_dyy = (dy * y).sum(axis=-1, keepdims=True) / h
        gx = (dy - mean_dy - y * mean_dyy) * inv
    else:
        gx = None
    width = y.shape[-1:]  # the shape of gamma and beta
    ggamma = _unbroadcast(g * y, width) if gamma_tracked else None
    gbeta = _unbroadcast(g, width) if beta_tracked else None
    return (gx, ggamma, gbeta)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then rescale.

    Inside ``no_grad``, ``gamma`` and ``beta`` may be stacks (``_is_stack``)
    against a (P, T, h) ``x``.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    h = x.shape[-1]
    if not all(p.shape == (h,) or _is_stack(p.data, (h,), x.data) for p in (gamma, beta)):
        raise DimensionError(
            f"layer_norm: parameters {gamma.shape}/{beta.shape} do not match width {h}"
        )
    # sum / h is what ndarray.mean computes, without its Python-level wrapper
    mu = x.data.sum(axis=-1, keepdims=True) / h
    xc = x.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / h
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    return _record(y * gamma.data + beta.data, (x, gamma, beta),
                   _layer_norm_grad, y, inv, gamma.data if x.tracked else None,
                   gamma.tracked, beta.tracked)


# ---------------------------------------------------------------------------
# reverse sweep


def topological_order(root: Tensor) -> list:
    """The graph nodes ``root`` depends on, its own node last, each after
    every producer of its inputs; a parameter leaf is its own node.

    A single reverse iteration over this order propagates gradients correctly.
    """
    start = _node_of(root)
    order: list = []
    seen: set[int] = {id(start)}
    stack: list[tuple[object, Iterator]] = [(start, iter(start._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if id(p) not in seen and p.tracked:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def backward(loss: Tensor) -> list[Tensor]:
    """Add d(loss)/d(leaf) into ``grad`` of every tracked leaf ``loss``
    depends on, in place, and return those leaves.

    Repeated calls without zeroing the grads sum their contributions.
    """
    if not isinstance(loss, Tensor) or loss.ndim != 0:
        shape = getattr(loss, "shape", None)
        raise DimensionError(f"backward requires a scalar tensor, got shape {shape}")
    reached: list[Tensor] = []
    if not loss.tracked:
        return reached
    grads: dict[int, np.ndarray] = {id(_node_of(loss)): np.ones((), loss.data.dtype)}
    for node in reversed(topological_order(loss)):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if type(node) is Tensor:  # a parameter leaf
            node.grad += g
            reached.append(node)
            continue
        for parent, pg in zip(node._parents, node._rule(g, *node._saved)):
            if pg is None or not parent.tracked:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
    return reached


def _analytic_gradient(loss: Callable[[], Tensor], point: Tensor, eps: float) -> np.ndarray:
    """d(loss())/d(point), flat, by backward() from the scalar ``loss()``."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not point.tracked:
        raise ValueError("grad_check point must be tracked")
    point.zero_grad()
    out = loss()
    if out.ndim != 0:
        raise DimensionError(f"grad_check target must be scalar, got shape {out.shape}")
    if not np.isfinite(out.data):
        raise NumericError("grad_check: function value is not finite")
    backward(out)
    return point.grad.reshape(-1).copy()


def _max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def grad_check(f: Callable[[Tensor], Tensor], point: Tensor, eps: float) -> float:
    """Max relative error between backward() and central differences at ``point``.

    Relative error per coordinate is |analytic - numeric| divided by
    max(1e-8, |analytic| + |numeric|). ``f`` must return a scalar tensor and
    may read ``point`` directly; its data is perturbed in place and restored.
    """
    analytic = _analytic_gradient(lambda: f(point), point, eps)
    flat = point.data.reshape(-1)
    numeric = np.zeros_like(analytic)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f(point).data)
            flat[i] = orig - eps
            lo = float(f(point).data)
            flat[i] = orig
            if not (math.isfinite(hi) and math.isfinite(lo)):
                raise NumericError("grad_check: perturbed evaluation is not finite")
            numeric[i] = (hi - lo) / (2.0 * eps)
    return _max_relative_error(analytic, numeric)


def grad_check_stacked(f: Callable[[int], Tensor], point: Tensor, eps: float) -> float:
    """``grad_check`` with every perturbed evaluation in one forward pass.

    ``f(copies)`` evaluates the function on a batch of ``copies`` identical
    inputs and returns one value per copy, (copies,); it reads ``point``
    directly. The analytic gradient is taken of ``f(1)``. For the central
    differences, ``point.data`` is replaced, inside ``no_grad``, by a stack
    (``_is_stack``) of 2S perturbed copies, S its size: copy i has +eps on
    coordinate i, copy S + i has -eps on it. One ``f(2S)`` then gives every
    difference, and ``point.data`` is restored.
    """
    if point.ndim > 2:
        raise DimensionError(f"grad_check_stacked: point of shape {point.shape} has over 2 axes")
    analytic = _analytic_gradient(lambda: tsum(f(1)), point, eps)
    size, original = point.size, point.data
    rows = original.reshape((1,) * (2 - original.ndim) + original.shape)  # a vector is one row
    stack = np.repeat(rows[None], 2 * size, axis=0)
    flat, coords = stack.reshape(2 * size, size), np.arange(size)
    flat[coords, coords] += eps
    flat[size + coords, coords] -= eps
    point.data = stack
    try:
        with no_grad():
            values = f(2 * size).data
    finally:
        point.data = original
    if values.shape != (2 * size,):
        raise DimensionError(f"grad_check_stacked: f({2 * size}) has shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise NumericError("grad_check: perturbed evaluation is not finite")
    return _max_relative_error(analytic, (values[:size] - values[size:]) / (2.0 * eps))
