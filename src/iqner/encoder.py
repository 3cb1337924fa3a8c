"""Joint encoding of sentence tokens and instance queries.

The token sequence and the learnable query bank are concatenated into one
sequence and pushed through transformer layers whose attention carries a
one-way mask: sentence positions cannot attend to query positions, so the
sentence encoding stays independent of the query bank. Word-level layers
expose their split outputs for per-layer auxiliary heads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    DimensionError,
    Tensor,
    add,
    concat,
    layer_norm,
    linear,
    matmul,
    mul,
    narrow,
    parameter,
    relu,
    reshape,
    row_softmax,
    take_rows,
    transpose,
)

QUERY_INIT_STD = 0.02
INIT_STD = 0.02
FF_MULT = 2
NEG_INF = -np.inf


class LengthError(ValueError):
    """Sentence longer than the position table allows."""


class VocabError(ValueError):
    """Token id outside the embedding table."""


@dataclass
class ModelConfig:
    """Architecture knobs. ``queries`` and ``word_layers`` default to the
    standard operating point (60 queries, 5 auxiliary layers)."""

    hidden: int = 64
    queries: int = 60
    base_layers: int = 1
    word_layers: int = 5
    heads: int = 4
    vocab_size: int = 64
    max_len: int = 64
    type_count: int = 4
    one_way: bool = True
    query_interaction: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.hidden % self.heads != 0:
            raise ValueError(f"hidden {self.hidden} not divisible by {self.heads} heads")
        if min(self.queries, self.word_layers, self.base_layers) < 1:
            raise ValueError("queries, word_layers, and base_layers must all be >= 1")
        if min(self.hidden, self.heads, self.vocab_size, self.max_len, self.type_count) < 1:
            raise ValueError("model dimensions must be positive")


@dataclass
class EmbeddingTables:
    """Token, query, position, and sequence-type embeddings."""

    word: Tensor
    query: Tensor
    pos_word: Tensor
    pos_query: Tensor
    type_word: Tensor
    type_query: Tensor

    @classmethod
    def init(cls, config: ModelConfig, rng: np.random.Generator) -> "EmbeddingTables":
        h = config.hidden
        return cls(
            word=parameter((config.vocab_size, h), rng, INIT_STD),
            query=parameter((config.queries, h), rng, QUERY_INIT_STD),
            pos_word=parameter((config.max_len, h), rng, INIT_STD),
            pos_query=parameter((config.queries, h), rng, INIT_STD),
            type_word=parameter((h,), rng, INIT_STD),
            type_query=parameter((h,), rng, INIT_STD),
        )

    def named(self, prefix: str = "emb") -> list[tuple[str, Tensor]]:
        return [
            (f"{prefix}.word", self.word),
            (f"{prefix}.query", self.query),
            (f"{prefix}.pos_word", self.pos_word),
            (f"{prefix}.pos_query", self.pos_query),
            (f"{prefix}.type_word", self.type_word),
            (f"{prefix}.type_query", self.type_query),
        ]


@dataclass
class TransformerLayer:
    """Projection, output, feed-forward, and normalization parameters."""

    wq: Tensor
    bq: Tensor
    wk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    ln1_gamma: Tensor
    ln1_beta: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor

    @classmethod
    def init(cls, hidden: int, rng: np.random.Generator) -> "TransformerLayer":
        ff = FF_MULT * hidden
        return cls(
            wq=parameter((hidden, hidden), rng, INIT_STD),
            bq=parameter(np.zeros(hidden)),
            wk=parameter((hidden, hidden), rng, INIT_STD),
            wv=parameter((hidden, hidden), rng, INIT_STD),
            bv=parameter(np.zeros(hidden)),
            wo=parameter((hidden, hidden), rng, INIT_STD),
            bo=parameter(np.zeros(hidden)),
            w1=parameter((hidden, ff), rng, INIT_STD),
            b1=parameter(np.zeros(ff)),
            w2=parameter((ff, hidden), rng, INIT_STD),
            b2=parameter(np.zeros(hidden)),
            ln1_gamma=parameter(np.ones(hidden)),
            ln1_beta=parameter(np.zeros(hidden)),
            ln2_gamma=parameter(np.ones(hidden)),
            ln2_beta=parameter(np.zeros(hidden)),
        )

    def named(self, prefix: str) -> list[tuple[str, Tensor]]:
        names = ("wq", "bq", "wk", "wv", "bv", "wo", "bo",
                 "w1", "b1", "w2", "b2",
                 "ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta")
        return [(f"{prefix}.{n}", getattr(self, n)) for n in names]


@dataclass
class LayerOutputs:
    """Split encodings after each word-level layer: H_w (N x h), H_q (M x h)."""

    word: list[Tensor] = field(default_factory=list)
    query: list[Tensor] = field(default_factory=list)

    @property
    def final_word(self) -> Tensor:
        return self.word[-1]

    @property
    def final_query(self) -> Tensor:
        return self.query[-1]

    def __len__(self) -> int:
        return len(self.word)


def build_input(token_ids, tables: EmbeddingTables) -> Tensor:
    """Summed token+position+type embeddings for the (N+M) joint sequence."""
    ids = np.asarray(token_ids, dtype=np.int64)
    n = len(ids)
    if n == 0:
        raise LengthError("empty sentence")
    if n > tables.pos_word.shape[0]:
        raise LengthError(f"sentence length {n} exceeds maximum {tables.pos_word.shape[0]}")
    if np.any(ids < 0) or np.any(ids >= tables.word.shape[0]):
        raise VocabError(f"token id outside vocabulary of size {tables.word.shape[0]}")
    word_side = add(add(take_rows(tables.word, ids), narrow(tables.pos_word, 0, 0, n)),
                    tables.type_word)
    query_side = add(add(tables.query, tables.pos_query), tables.type_query)
    return concat([word_side, query_side], axis=0)


def build_one_way_mask(
    n: int, m: int, query_interaction: bool = True, one_way: bool = True
) -> np.ndarray:
    """Additive attention mask over the (N+M) x (N+M) joint sequence.

    With ``one_way`` the upper-right N x M block is -inf, so sentence rows
    never attend to query columns. With ``query_interaction`` off, queries
    are additionally blinded to each other (off-diagonal of the query block).
    """
    size = n + m
    mask = np.zeros((size, size))
    if one_way and m > 0:
        mask[:n, n:] = NEG_INF
    if not query_interaction and m > 0:
        mask[n:, n:] = NEG_INF
        np.fill_diagonal(mask[n:, n:], 0.0)
    return mask


def one_way_self_attention(x: Tensor, mask: np.ndarray, layer: TransformerLayer,
                           n_heads: int) -> Tensor:
    """One masked multi-head attention block with post-norm residuals.

    The heads are the leading axis of each attention product, so the block
    records the same graph for every head count.
    """
    total, hidden = x.shape
    if mask.shape != (total, total):
        raise DimensionError(f"mask shape {mask.shape} does not match sequence {total}")
    head_dim = hidden // n_heads
    # scaling by sqrt(head_dim) folds into the query projection output
    q = mul(linear(x, layer.wq, layer.bq), 1.0 / math.sqrt(head_dim))
    # no key bias: a per-row constant in the scores is a softmax no-op
    k = matmul(x, layer.wk)
    v = linear(x, layer.wv, layer.bv)
    # queries and values as (heads, T, head_dim), keys as (heads, head_dim, T)
    split = (total, n_heads, head_dim)
    q = transpose(reshape(q, split), (1, 0, 2))
    k = transpose(reshape(k, split), (1, 2, 0))
    v = transpose(reshape(v, split), (1, 0, 2))
    weights = row_softmax(add(matmul(q, k), Tensor(mask)))
    context = reshape(transpose(matmul(weights, v), (1, 0, 2)), (total, hidden))
    attended = linear(context, layer.wo, layer.bo)
    x = layer_norm(add(x, attended), layer.ln1_gamma, layer.ln1_beta)
    ff = linear(relu(linear(x, layer.w1, layer.b1)), layer.w2, layer.b2)
    return layer_norm(add(x, ff), layer.ln2_gamma, layer.ln2_beta)


def encode(
    h0: Tensor,
    sentence_length: int,
    layers: list[TransformerLayer],
    config: ModelConfig,
) -> LayerOutputs:
    """Run base layers then word-level layers, splitting after each of the latter."""
    n = sentence_length
    m = config.queries
    if h0.shape[0] != n + m:
        raise DimensionError(f"input rows {h0.shape[0]} != N+M = {n + m}")
    if len(layers) != config.base_layers + config.word_layers:
        raise DimensionError(
            f"{len(layers)} layers for B={config.base_layers}, L={config.word_layers}"
        )
    mask = build_one_way_mask(n, m, config.query_interaction, config.one_way)
    x = h0
    for layer in layers[: config.base_layers]:
        x = one_way_self_attention(x, mask, layer, config.heads)
    outputs = LayerOutputs()
    for layer in layers[config.base_layers :]:
        x = one_way_self_attention(x, mask, layer, config.heads)
        outputs.word.append(narrow(x, 0, 0, n))
        outputs.query.append(narrow(x, 0, n, m))
    return outputs
