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

from .tensor import (Tensor, add, concat, linear, matmul, parameter, relu, reshape,
                     row_softmax, sigmoid)

HEAD_INIT_STD = 0.02


@dataclass
class BoundaryHead:
    """Fusion projections and scorer for one boundary side."""

    w_query: Tensor
    w_word: Tensor
    scorer: Tensor
    bias: Tensor

    @classmethod
    def init(cls, hidden: int, rng: np.random.Generator) -> "BoundaryHead":
        return cls(
            w_query=parameter((hidden, hidden), rng, HEAD_INIT_STD),
            w_word=parameter((hidden, hidden), rng, HEAD_INIT_STD),
            scorer=parameter((hidden, 1), rng, HEAD_INIT_STD),
            bias=parameter(np.zeros(1)),
        )

    def named(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [
            (f"{prefix}.w_query", self.w_query),
            (f"{prefix}.w_word", self.w_word),
            (f"{prefix}.scorer", self.scorer),
            (f"{prefix}.bias", self.bias),
        ]


@dataclass
class LayerHeads:
    """Pointer and classifier parameters attached to one word-level layer."""

    left: BoundaryHead
    right: BoundaryHead
    w_type: Tensor
    type_scorer: Tensor
    type_bias: Tensor

    @classmethod
    def init(cls, hidden: int, type_count: int, rng: np.random.Generator) -> "LayerHeads":
        classes = type_count + 1  # trailing None class
        return cls(
            left=BoundaryHead.init(hidden, rng),
            right=BoundaryHead.init(hidden, rng),
            w_type=parameter((hidden, hidden), rng, HEAD_INIT_STD),
            type_scorer=parameter((3 * hidden, classes), rng, HEAD_INIT_STD),
            type_bias=parameter(np.zeros(classes)),
        )

    def named(self, prefix: str) -> list[tuple[str, Tensor]]:
        out = self.left.named(f"{prefix}.left") + self.right.named(f"{prefix}.right")
        out += [
            (f"{prefix}.w_type", self.w_type),
            (f"{prefix}.type_scorer", self.type_scorer),
            (f"{prefix}.type_bias", self.type_bias),
        ]
        return out


@dataclass
class BoundaryScores:
    """Per-query, per-word boundary logits and probabilities (M x N each).

    Probabilities stay on the autodiff graph: the classifier consumes them
    as attention-like weights over the word encodings.
    """

    left_logits: Tensor
    right_logits: Tensor
    left: Tensor
    right: Tensor


@dataclass
class TypeDistribution:
    """Class logits (on-graph) and the row-stochastic probabilities."""

    logits: Tensor
    probs: np.ndarray

    @property
    def none_id(self) -> int:
        return self.probs.shape[1] - 1


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


def _fused_boundary(h_q: Tensor, h_w: Tensor, head: BoundaryHead) -> Tensor:
    m, hidden = h_q.shape
    n = h_w.shape[0]
    query_part = reshape(matmul(h_q, head.w_query), (m, 1, hidden))
    word_part = reshape(matmul(h_w, head.w_word), (1, n, hidden))
    fused = relu(add(query_part, word_part))
    logits = linear(reshape(fused, (m * n, hidden)), head.scorer, head.bias)
    return reshape(logits, (m, n))


def boundary_pointer(h_q: Tensor, h_w: Tensor, heads: LayerHeads) -> BoundaryScores:
    """Probability of each word being the queried entity's left/right boundary."""
    left_logits = _fused_boundary(h_q, h_w, heads.left)
    right_logits = _fused_boundary(h_q, h_w, heads.right)
    return BoundaryScores(
        left_logits=left_logits,
        right_logits=right_logits,
        left=sigmoid(left_logits),
        right=sigmoid(right_logits),
    )


def entity_classifier(
    h_q: Tensor, h_w: Tensor, scores: BoundaryScores, heads: LayerHeads
) -> TypeDistribution:
    """Type distribution from the projected query and probability-weighted words.

    The boundary probabilities are used raw (unnormalized) as weights.
    """
    query_part = matmul(h_q, heads.w_type)
    left_part = matmul(scores.left, h_w)
    right_part = matmul(scores.right, h_w)
    fused = relu(concat([query_part, left_part, right_part], axis=-1))
    logits = linear(fused, heads.type_scorer, heads.type_bias)
    return TypeDistribution(logits=logits, probs=row_softmax(logits.data).data)


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
    for name, value in (("loc_threshold", loc_threshold), ("cls_threshold", cls_threshold)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    left = scores.left.data
    right = scores.right.data
    type_probs = types.probs
    none_id = types.none_id
    best_by_span: dict[tuple[int, int], Prediction] = {}
    for i in range(left.shape[0]):
        l = int(np.argmax(left[i]))
        r = int(np.argmax(right[i]))
        t = int(np.argmax(type_probs[i]))
        if t == none_id:
            continue
        lp, rp, tp = float(left[i, l]), float(right[i, r]), float(type_probs[i, t])
        if min(lp, rp) < loc_threshold or tp < cls_threshold:
            continue
        if l > r:
            continue
        candidate = Prediction(i, l, r, t, lp, rp, tp)
        kept = best_by_span.get((l, r))
        if kept is None or candidate.type_prob > kept.type_prob:
            best_by_span[(l, r)] = candidate
    return sorted(best_by_span.values(), key=lambda p: p.query_id)
