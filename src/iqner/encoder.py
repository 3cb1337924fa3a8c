"""Joint encoding of sentence tokens and instance queries.

The token sequence and the learnable query bank are concatenated into one
sequence and pushed through transformer layers whose attention carries a
one-way mask: sentence positions cannot attend to query positions, so the
sentence encoding stays independent of the query bank. Word-level layers
expose their split outputs for per-layer auxiliary heads. A batch of
sentences is padded to the longest one and encoded at once; a key-padding
mask keeps the pads out of every real position's attention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import require
from .tensor import (
    DimensionError,
    ParameterGroup,
    ParameterLayout,
    Tensor,
    add,
    attention,
    concat,
    layer_norm,
    linear,
    narrow,
    relu,
    take_rows,
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
        for name in ("hidden", "queries", "base_layers", "word_layers", "heads",
                     "vocab_size", "max_len", "type_count"):
            require(self, name, getattr(self, name) >= 1, ">= 1")
        require(self, "heads", self.hidden % self.heads == 0, f"a divisor of hidden {self.hidden}")
        require(self, "seed", self.seed >= 0, ">= 0")


@dataclass
class EmbeddingTables(ParameterGroup):
    """Token, query, position, and sequence-type embeddings."""

    word: Tensor
    query: Tensor
    pos_word: Tensor
    pos_query: Tensor
    type_word: Tensor
    type_query: Tensor

    @classmethod
    def declare(cls, config: ModelConfig, new: ParameterLayout) -> "EmbeddingTables":
        h = config.hidden
        return cls(
            word=new((config.vocab_size, h), INIT_STD),
            query=new((config.queries, h), QUERY_INIT_STD),
            pos_word=new((config.max_len, h), INIT_STD),
            pos_query=new((config.queries, h), INIT_STD),
            type_word=new(h, INIT_STD),
            type_query=new(h, INIT_STD),
        )


@dataclass
class TransformerLayer(ParameterGroup):
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
    def declare(cls, hidden: int, new: ParameterLayout) -> "TransformerLayer":
        ff = FF_MULT * hidden
        return cls(
            wq=new((hidden, hidden), INIT_STD),
            bq=new(hidden),
            wk=new((hidden, hidden), INIT_STD),
            wv=new((hidden, hidden), INIT_STD),
            bv=new(hidden),
            wo=new((hidden, hidden), INIT_STD),
            bo=new(hidden),
            w1=new((hidden, ff), INIT_STD),
            b1=new(ff),
            w2=new((ff, hidden), INIT_STD),
            b2=new(hidden),
            ln1_gamma=new(hidden, fill=1.0),
            ln1_beta=new(hidden),
            ln2_gamma=new(hidden, fill=1.0),
            ln2_beta=new(hidden),
        )


@dataclass
class LayerOutputs:
    """Split encodings after each word-level layer: H_w (..., N, h), H_q (..., M, h).

    ``word_mask`` is (B, 1, N) with 1 at real words and 0 at pads, for the
    heads to zero pad columns with; None when no sentence is padded.
    """

    word: list[Tensor] = field(default_factory=list)
    query: list[Tensor] = field(default_factory=list)
    word_mask: np.ndarray | None = None


def pad_batch(batch) -> tuple[np.ndarray, np.ndarray]:
    """Token ids of several sentences as one (B, N_max) array, and their lengths.

    Pad positions hold id 0; the attention and head masks keep them out of
    every real position's result, so any valid id would do.
    """
    lengths = np.array([len(ids) for ids in batch], dtype=np.int64)
    if lengths.size == 0 or lengths.min() == 0:
        raise LengthError("empty sentence")
    ids = np.zeros((lengths.size, lengths.max()), dtype=np.int64)
    for row, sentence in zip(ids, batch):
        row[: len(sentence)] = sentence
    return ids, lengths


def pad_positions(lengths: np.ndarray) -> np.ndarray | None:
    """(B, N_max) True at pad positions, or None when no sentence is padded."""
    n = lengths.max()
    if lengths.min() == n:
        return None
    return np.arange(n) >= lengths[:, None]


def build_input(token_ids, tables: EmbeddingTables) -> Tensor:
    """Summed token+position+type embeddings of the joint word+query sequence.

    One sentence's (N,) ids give (N+M, h); a padded (B, N) batch gives
    (B, N+M, h), each sentence's words first and its M queries after them.
    Inside ``no_grad``, a (B, N) batch may read tables stacked one per
    sentence, (B, rows, h), a vector table as one row (``grad_check_stacked``).
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    n = ids.shape[-1]
    if n == 0:
        raise LengthError("empty sentence")
    if n > tables.pos_word.shape[-2]:
        raise LengthError(f"sentence length {n} exceeds maximum {tables.pos_word.shape[-2]}")
    if np.any(ids < 0) or np.any(ids >= tables.word.shape[-2]):
        raise VocabError(f"token id outside vocabulary of size {tables.word.shape[-2]}")
    word_side = add(add(take_rows(tables.word, ids), narrow(tables.pos_word, -2, 0, n)),
                    tables.type_word)
    query_side = add(add(tables.query, tables.pos_query), tables.type_query)
    if ids.ndim > 1:  # one copy of the query rows per sentence
        m = query_side.shape[-2]
        query_side = take_rows(query_side, np.broadcast_to(np.arange(m), ids.shape[:-1] + (m,)))
    return concat([word_side, query_side], axis=-2)


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


def attention_mask(lengths: np.ndarray, config: ModelConfig) -> np.ndarray:
    """The one-way mask over N_max words, plus -inf at every pad key column.

    (T, T) when no sentence is padded, else (B, 1, T, T), which broadcasts
    over the heads. A pad column is then -inf in every row, so no real
    position attends to a pad.
    """
    n = int(lengths.max())
    m = config.queries
    mask = build_one_way_mask(n, m, config.query_interaction, config.one_way)
    pads = pad_positions(lengths)
    if pads is None:
        return mask
    keys = np.zeros((len(pads), n + m))
    keys[:, :n][pads] = NEG_INF
    return mask + keys[:, None, None, :]


def one_way_self_attention(x: Tensor, mask, layer: TransformerLayer,
                           n_heads: int) -> Tensor:
    """One masked multi-head attention block with post-norm residuals.

    ``x`` is one sequence (T, h) or a batch (B, T, h); ``mask``, an array,
    broadcasts against the (..., heads, T, T) scores.
    The attention itself is one op, so the block records the same graph for
    every head count.
    """
    q = linear(x, layer.wq, layer.bq)
    # no key bias: a per-row constant in the scores is a softmax no-op
    k = linear(x, layer.wk)
    v = linear(x, layer.wv, layer.bv)
    attended = linear(attention(q, k, v, mask, n_heads), layer.wo, layer.bo)
    x = layer_norm(add(x, attended), layer.ln1_gamma, layer.ln1_beta)
    ff = linear(relu(linear(x, layer.w1, layer.b1)), layer.w2, layer.b2)
    return layer_norm(add(x, ff), layer.ln2_gamma, layer.ln2_beta)


def encode(
    h0: Tensor,
    sentence_length,
    layers: list[TransformerLayer],
    config: ModelConfig,
) -> LayerOutputs:
    """Run base layers then word-level layers, splitting after each of the latter.

    ``h0`` is one sentence's (N+M, h) input with its length N, or a padded
    batch's (B, N+M, h) input with one length per sentence, N the longest.
    """
    lengths = np.atleast_1d(np.asarray(sentence_length, dtype=np.int64))
    n = int(lengths.max())
    m = config.queries
    sentences = h0.shape[0] if h0.ndim == 3 else 1
    if h0.ndim not in (2, 3) or sentences != lengths.size:
        raise DimensionError(f"input of shape {h0.shape} for {lengths.size} sentence lengths")
    if h0.shape[-2] != n + m:
        raise DimensionError(f"input rows {h0.shape[-2]} != N+M = {n + m}")
    if len(layers) != config.base_layers + config.word_layers:
        raise DimensionError(
            f"{len(layers)} layers for B={config.base_layers}, L={config.word_layers}"
        )
    mask = attention_mask(lengths, config).astype(h0.data.dtype, copy=False)
    x = h0
    for layer in layers[: config.base_layers]:
        x = one_way_self_attention(x, mask, layer, config.heads)
    outputs = LayerOutputs()
    pads = pad_positions(lengths)
    if pads is not None:
        outputs.word_mask = (~pads)[:, None, :].astype(h0.data.dtype)
    for layer in layers[config.base_layers :]:
        x = one_way_self_attention(x, mask, layer, config.heads)
        outputs.word.append(narrow(x, -2, 0, n))
        outputs.query.append(narrow(x, -2, n, m))
    return outputs
