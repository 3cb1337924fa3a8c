"""Boundary pointing, boundary-aware type classification, and decoding.

Each instance query scores every word as its left/right boundary, weighs the
word encodings by those probabilities to build a boundary-aware
representation, and classifies the queried entity over the type inventory
plus a trailing None class. Decoding takes per-query argmaxes, applies the
localization/classification thresholds, and keeps one prediction per span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import require_fraction
from .tensor import (ParameterGroup, ParameterLayout, Tensor, concat, linear, matmul, mul,
                     pair_relu_score, relu, row_softmax, sigmoid)

HEAD_INIT_STD = 0.02


@dataclass
class BoundaryHead(ParameterGroup):
    """Fusion projections and scorer for one boundary side."""

    w_query: Tensor
    w_word: Tensor
    scorer: Tensor
    bias: Tensor

    @classmethod
    def declare(cls, hidden: int, new: ParameterLayout) -> "BoundaryHead":
        return cls(
            w_query=new((hidden, hidden), HEAD_INIT_STD),
            w_word=new((hidden, hidden), HEAD_INIT_STD),
            scorer=new((hidden, 1), HEAD_INIT_STD),
            bias=new(1),
        )


@dataclass
class LayerHeads(ParameterGroup):
    """Pointer and classifier parameters attached to one word-level layer."""

    left: BoundaryHead
    right: BoundaryHead
    w_type: Tensor
    type_scorer: Tensor
    type_bias: Tensor

    @classmethod
    def declare(cls, hidden: int, type_count: int, new: ParameterLayout) -> "LayerHeads":
        classes = type_count + 1  # trailing None class
        return cls(
            left=BoundaryHead.declare(hidden, new),
            right=BoundaryHead.declare(hidden, new),
            w_type=new((hidden, hidden), HEAD_INIT_STD),
            type_scorer=new((3 * hidden, classes), HEAD_INIT_STD),
            type_bias=new(classes),
        )


@dataclass
class BoundaryScores:
    """Per-query, per-word boundary logits and probabilities ((..., M, N) each).

    Probabilities stay on the autodiff graph: the classifier consumes them
    as attention-like weights over the word encodings. In a padded batch
    they are 0 at pad words.
    """

    left_logits: Tensor
    right_logits: Tensor
    left: Tensor
    right: Tensor

    def sentence(self, index: int, length: int) -> "BoundaryScores":
        """Sentence ``index``'s unpadded (M, length) maps, as values off the graph."""
        return BoundaryScores(*(Tensor(t.data[index, :, :length]) for t in
                                (self.left_logits, self.right_logits, self.left, self.right)))


@dataclass
class TypeDistribution:
    """Class logits (on-graph) and their row softmax ((..., M, C) each), a value
    computed with them once per batch for the matching cost and decode."""

    logits: Tensor
    probs: np.ndarray

    @property
    def none_id(self) -> int:
        return self.logits.shape[-1] - 1

    def sentence(self, index: int) -> "TypeDistribution":
        """Sentence ``index``'s (M, C) distribution, as values off the graph."""
        return TypeDistribution(Tensor(self.logits.data[index]), self.probs[index])


@dataclass(frozen=True)
class Prediction:
    """One decoded entity with the probabilities that produced it."""

    query_id: int
    left: int
    right: int
    type_id: int
    left_prob: float
    right_prob: float
    type_prob: float


def _boundary_logits(h_q: Tensor, h_w: Tensor, head: BoundaryHead) -> Tensor:
    return pair_relu_score(linear(h_q, head.w_query), linear(h_w, head.w_word),
                           head.scorer, head.bias)


def boundary_pointer(h_q: Tensor, h_w: Tensor, heads: LayerHeads,
                     word_mask: np.ndarray | None = None) -> BoundaryScores:
    """Probability of each word being the queried entity's left/right boundary.

    ``h_q`` is (..., M, h) and ``h_w`` (..., N, h). ``word_mask`` (..., 1, N),
    1 at real words and 0 at pads, zeroes the pads' probabilities.
    """
    left_logits = _boundary_logits(h_q, h_w, heads.left)
    right_logits = _boundary_logits(h_q, h_w, heads.right)
    left, right = sigmoid(left_logits), sigmoid(right_logits)
    if word_mask is not None:
        left, right = mul(left, word_mask), mul(right, word_mask)
    return BoundaryScores(left_logits=left_logits, right_logits=right_logits,
                          left=left, right=right)


def entity_classifier(
    h_q: Tensor, h_w: Tensor, scores: BoundaryScores, heads: LayerHeads
) -> TypeDistribution:
    """Type distribution from the projected query and probability-weighted words.

    The boundary probabilities are used raw (unnormalized) as weights.
    """
    query_part = linear(h_q, heads.w_type)
    left_part = matmul(scores.left, h_w)
    right_part = matmul(scores.right, h_w)
    fused = relu(concat([query_part, left_part, right_part], axis=-1))
    logits = linear(fused, heads.type_scorer, heads.type_bias)
    # in float64 also from float32 logits, where a probability within 6e-8 of 1
    # would round to 1.0 and tie with another query's in decode's span dedup
    return TypeDistribution(logits, row_softmax(logits.data.astype(np.float64, copy=False)).data)


def decode_entities(
    scores: BoundaryScores,
    types: TypeDistribution,
    loc_threshold: float,
    cls_threshold: float,
) -> list[Prediction]:
    """Argmax decoding with threshold filtering and span deduplication.

    Per query: argmax boundaries and type; drop None-typed queries, queries
    whose weaker boundary probability is under ``loc_threshold`` or whose
    type probability is under ``cls_threshold``, and inverted spans. Among
    surviving predictions sharing a span, the highest type probability wins
    (first query on ties).
    """
    require_fraction("loc_threshold", loc_threshold)
    require_fraction("cls_threshold", cls_threshold)
    left = scores.left.data
    right = scores.right.data
    type_probs = types.probs
    rows = np.arange(left.shape[0])
    l, r, t = left.argmax(axis=1), right.argmax(axis=1), type_probs.argmax(axis=1)
    lp, rp, tp = left[rows, l], right[rows, r], type_probs[rows, t]
    dropped = ((t == types.none_id) | (np.minimum(lp, rp) < loc_threshold)
               | (tp < cls_threshold) | (l > r))
    best_by_span: dict[tuple[int, int], Prediction] = {}
    kept_rows = np.flatnonzero(~dropped)
    for fields in zip(*(a.tolist() for a in (kept_rows, l[kept_rows], r[kept_rows], t[kept_rows],
                                             lp[kept_rows], rp[kept_rows], tp[kept_rows]))):
        candidate = Prediction(*fields)  # in query order, so the first query wins ties
        kept = best_by_span.get((candidate.left, candidate.right))
        if kept is None or candidate.type_prob > kept.type_prob:
            best_by_span[(candidate.left, candidate.right)] = candidate
    return sorted(best_by_span.values(), key=lambda p: p.query_id)
