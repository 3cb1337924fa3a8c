import math
import weakref

import numpy as np
import pytest

from iqner import encoder as E
from iqner import tensor as T
from iqner.encoder import (
    EmbeddingTables,
    LengthError,
    ModelConfig,
    TransformerLayer,
    VocabError,
    attention_mask,
    build_input,
    build_one_way_mask,
    encode,
    one_way_self_attention,
    pad_batch,
)
from iqner.tensor import Tensor, grad_check


def small_config(**kw):
    defaults = dict(hidden=8, queries=3, base_layers=1, word_layers=2, heads=2,
                    vocab_size=10, max_len=12, type_count=2, seed=0)
    defaults.update(kw)
    return ModelConfig(**defaults)


def make_model_params(config, seed=0):
    rng = np.random.default_rng(seed)
    tables = EmbeddingTables.init(config, rng)
    layers = [TransformerLayer.init(config.hidden, rng)
              for _ in range(config.base_layers + config.word_layers)]
    return tables, layers


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(hidden=10, heads=4)
    with pytest.raises(ValueError):
        ModelConfig(queries=0)
    assert ModelConfig().queries == 60
    assert ModelConfig().word_layers == 5


def test_build_input_zero_tables():
    config = small_config()
    tables, _ = make_model_params(config)
    for _, p in tables.named("emb"):
        p.data[...] = 0.0
    out = build_input([1, 2], tables)
    assert out.shape == (2 + config.queries, config.hidden)
    assert np.all(out.data == 0.0)


def test_build_input_rows_unrolled():
    config = small_config(queries=1)
    tables, _ = make_model_params(config)
    out = build_input([4], tables)
    expected_word = tables.word.data[4] + tables.pos_word.data[0] + tables.type_word.data
    expected_query = tables.query.data[0] + tables.pos_query.data[0] + tables.type_query.data
    assert np.allclose(out.data[0], expected_word)
    assert np.allclose(out.data[1], expected_query)


def test_build_input_shape_arithmetic():
    config = ModelConfig(hidden=32, queries=60, vocab_size=100, max_len=32, heads=4)
    tables, _ = make_model_params(config)
    out = build_input(list(range(7)), tables)
    assert out.shape == (67, 32)


def test_build_input_errors():
    config = small_config()
    tables, _ = make_model_params(config)
    with pytest.raises(LengthError):
        build_input(list(range(13)) * 2, tables)
    with pytest.raises(VocabError):
        build_input([99], tables)


def test_mask_basic_shape_and_blocks():
    mask = build_one_way_mask(2, 1)
    expected = np.array([[0, 0, -np.inf], [0, 0, -np.inf], [0, 0, 0]])
    assert np.array_equal(mask, expected)


def test_mask_no_queries():
    assert np.array_equal(build_one_way_mask(2, 0), np.zeros((2, 2)))


def test_mask_without_query_interaction():
    mask = build_one_way_mask(1, 2, query_interaction=False)
    ninf = -np.inf
    expected = np.array([[0, ninf, ninf], [0, 0, ninf], [0, ninf, 0]])
    assert np.array_equal(mask, expected)


def test_mask_one_way_disabled():
    assert np.array_equal(build_one_way_mask(2, 2, one_way=False), np.zeros((4, 4)))
    mask = build_one_way_mask(1, 2, query_interaction=False, one_way=False)
    expected = np.array([[0, 0, 0], [0, 0, -np.inf], [0, -np.inf, 0]])
    assert np.array_equal(mask, expected)


def test_single_token_attention_is_identity_under_contrived_params():
    # value/output projections identity, feed-forward zeroed: the single
    # token attends only to itself, so the block reduces to normalization
    rng = np.random.default_rng(0)
    layer = TransformerLayer.init(4, rng)
    for name in ("wv", "wo"):
        getattr(layer, name).data[...] = np.eye(4)
    for name in ("bv", "bo", "b1", "b2"):
        getattr(layer, name).data[...] = 0.0
    layer.w2.data[...] = 0.0
    x = Tensor(rng.normal(size=(1, 4)))
    out = one_way_self_attention(x, np.zeros((1, 1)), layer, n_heads=1)
    row = x.data[0]
    normalized = (2 * row - (2 * row).mean()) / np.sqrt((2 * row - (2 * row).mean()).var() + 1e-5)
    assert np.allclose(out.data[0], normalized, atol=1e-12)


def test_masked_attention_weight_is_exactly_zero():
    rng = np.random.default_rng(1)
    layer = TransformerLayer.init(4, rng)
    mask = np.array([[0.0, -np.inf], [0.0, 0.0]])
    x = rng.normal(size=(2, 4))
    out1 = one_way_self_attention(Tensor(x), mask, layer, n_heads=1)
    x2 = x.copy()
    x2[1] += 100.0  # row 0 must not see row 1 at the attention step
    out2 = one_way_self_attention(Tensor(x2), mask, layer, n_heads=1)
    # row 0 output changes only through the value of row 1 in later residual
    # paths; here there are none, so compare the attention rows directly
    assert np.array_equal(out1.data[0], out2.data[0])


def test_encode_layer_count_and_determinism():
    config = small_config()
    tables, layers = make_model_params(config, seed=3)
    ids = [1, 5, 2]
    out1 = encode(build_input(ids, tables), len(ids), layers, config)
    out2 = encode(build_input(ids, tables), len(ids), layers, config)
    assert len(out1.word) == len(out1.query) == config.word_layers
    for a, b in zip(out1.word + out1.query, out2.word + out2.query):
        assert np.array_equal(a.data, b.data)


def test_one_way_invariance_to_query_resampling():
    config = small_config()
    tables, layers = make_model_params(config, seed=5)
    ids = [1, 5, 2, 7]
    base = encode(build_input(ids, tables), len(ids), layers, config)
    rng = np.random.default_rng(999)
    tables.query.data[...] = rng.normal(0, 0.5, size=tables.query.shape)
    resampled = encode(build_input(ids, tables), len(ids), layers, config)
    for a, b in zip(base.word, resampled.word):
        assert np.max(np.abs(a.data - b.data)) < 1e-9
    # query encodings do change
    assert np.max(np.abs(base.query[-1].data - resampled.query[-1].data)) > 1e-6


def test_invariance_fails_without_one_way_mask():
    config = small_config(one_way=False)
    tables, layers = make_model_params(config, seed=5)
    ids = [1, 5, 2, 7]
    base = encode(build_input(ids, tables), len(ids), layers, config)
    rng = np.random.default_rng(999)
    tables.query.data[...] = rng.normal(0, 0.5, size=tables.query.shape)
    resampled = encode(build_input(ids, tables), len(ids), layers, config)
    diffs = [np.max(np.abs(a.data - b.data)) for a, b in zip(base.word, resampled.word)]
    assert max(diffs) > 1e-6


def test_query_permutation_equivariance():
    config = small_config()
    tables, layers = make_model_params(config, seed=8)
    ids = [3, 1, 6]
    base = encode(build_input(ids, tables), len(ids), layers, config)
    perm = np.array([2, 0, 1])
    tables.query.data[...] = tables.query.data[perm]
    tables.pos_query.data[...] = tables.pos_query.data[perm]
    permuted = encode(build_input(ids, tables), len(ids), layers, config)
    for a, b in zip(base.word, permuted.word):
        assert np.max(np.abs(a.data - b.data)) < 1e-9
    for a, b in zip(base.query, permuted.query):
        assert np.max(np.abs(a.data[perm] - b.data)) < 1e-9


def test_attention_block_gradients():
    # generic well-scaled point: tiny-std init leaves some coordinates with
    # gradients at the finite-difference noise floor
    rng = np.random.default_rng(11)
    layer = TransformerLayer.init(4, rng)
    for name, p in layer.named("layer"):
        if "ln" not in name:
            p.data[...] = rng.normal(0.0, 0.5, size=p.shape)
    x = Tensor(rng.normal(size=(3, 4)), tracked=True)
    mask = build_one_way_mask(2, 1)
    weights = rng.normal(size=(3, 4))

    def f(_):
        out = one_way_self_attention(x, mask, layer, n_heads=2)
        return T.tsum(T.mul(out, Tensor(weights)))

    assert grad_check(f, x, 1e-5) < 1e-4
    assert grad_check(f, layer.wq, 1e-5) < 1e-4
    assert grad_check(f, layer.w1, 1e-5) < 1e-4
    assert grad_check(f, layer.ln1_gamma, 1e-5) < 1e-4


def test_a_block_keeps_only_what_its_gradient_rules_read(monkeypatch):
    # the residual-add outputs (the two layer_norm inputs) and the pre-ReLU
    # feed-forward output are read by no gradient rule, so they die while the
    # loss is still held, and backward still gives the right gradients
    watched = []

    def watch(op):
        def wrapped(x, *args):
            watched.append(weakref.ref(x))
            return op(x, *args)
        return wrapped

    monkeypatch.setattr(E, "layer_norm", watch(E.layer_norm))
    monkeypatch.setattr(E, "relu", watch(E.relu))
    rng = np.random.default_rng(11)
    layer = TransformerLayer.init(4, rng)
    for name, p in layer.named("layer"):
        if "ln" not in name:
            p.data[...] = rng.normal(0.0, 0.5, size=p.shape)
    x = Tensor(rng.normal(size=(3, 4)), tracked=True)
    mask = build_one_way_mask(2, 1)
    weights = Tensor(rng.normal(size=(3, 4)))

    def f(_):
        return T.tsum(T.mul(one_way_self_attention(x, mask, layer, n_heads=2), weights))

    loss = f(x)
    assert len(watched) == 3 and all(ref() is None for ref in watched)
    T.backward(loss)
    held = {name: p.grad.copy() for name, p in [("x", x), *layer.named("layer")]}
    for name, p in [("x", x), *layer.named("layer")]:
        assert grad_check(f, p, 1e-5) < 1e-4, name
        assert np.array_equal(p.grad, held[name]), name


def transposed(t):
    """A tracked (T, d) matrix as (d, T), composed from exact copying ops."""
    rows = np.arange(t.shape[0])[None]
    return T.concat([T.take_rows(T.tsum(T.narrow(t, 1, j, 1), axis=1), rows)
                     for j in range(t.shape[1])], axis=0)


def per_head_attention(x, mask, layer, n_heads):
    """Reference block that slices the projections and loops over the heads."""
    d = x.shape[1] // n_heads
    q = T.mul(T.linear(x, layer.wq, layer.bq), 1.0 / math.sqrt(d))
    k = T.matmul(x, layer.wk)
    v = T.linear(x, layer.wv, layer.bv)
    parts = []
    for i in range(n_heads):
        qi, ki, vi = (T.narrow(t, 1, i * d, d) for t in (q, k, v))
        scores = T.add(T.matmul(qi, transposed(ki)), Tensor(mask))
        parts.append(T.matmul(T.row_softmax(scores), vi))
    attended = T.linear(T.concat(parts, axis=-1), layer.wo, layer.bo)
    x = T.layer_norm(T.add(x, attended), layer.ln1_gamma, layer.ln1_beta)
    ff = T.linear(T.relu(T.linear(x, layer.w1, layer.b1)), layer.w2, layer.b2)
    return T.layer_norm(T.add(x, ff), layer.ln2_gamma, layer.ln2_beta)


def test_attention_heads_match_per_head_reference():
    for seed in range(4):
        for n_heads in (1, 2, 4):
            rng = np.random.default_rng(seed)
            hidden = n_heads * int(rng.integers(1, 5))
            n, m = int(rng.integers(1, 7)), int(rng.integers(0, 5))
            layer = TransformerLayer.init(hidden, rng)
            for _, p in layer.named("layer"):
                p.data[...] = rng.normal(0.0, 0.5, size=p.shape)
            x = Tensor(rng.normal(size=(n + m, hidden)), tracked=True)
            mask = build_one_way_mask(n, m)
            weights = Tensor(rng.normal(size=x.shape))
            leaves = [x] + [p for _, p in layer.named("layer")]
            grads = []
            outs = []
            for block in (one_way_self_attention, per_head_attention):
                for p in leaves:
                    p.zero_grad()
                out = block(x, mask, layer, n_heads)
                T.backward(T.tsum(T.mul(out, weights)))
                outs.append(out.data)
                grads.append([p.grad for p in leaves])
            assert np.array_equal(outs[0], outs[1])
            for fast, ref in zip(*grads):
                assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_attention_graph_size_is_independent_of_head_count():
    sizes = set()
    for n_heads in (1, 4):
        rng = np.random.default_rng(2)
        layer = TransformerLayer.init(8, rng)
        x = Tensor(rng.normal(size=(5, 8)), tracked=True)
        out = one_way_self_attention(x, build_one_way_mask(3, 2), layer, n_heads)
        sizes.add(len(T.topological_order(T.tsum(out))))
    assert len(sizes) == 1


def _encode_batch(config, tables, layers, batch):
    ids, lengths = pad_batch(batch)
    return encode(build_input(ids, tables), lengths, layers, config)


def test_pad_batch_layout_and_errors():
    ids, lengths = pad_batch([[3, 4], [5], [6, 7, 8]])
    assert ids.tolist() == [[3, 4, 0], [5, 0, 0], [6, 7, 8]]
    assert lengths.tolist() == [2, 1, 3]
    with pytest.raises(LengthError):
        pad_batch([[1], []])


def test_attention_mask_blocks_pad_columns_in_every_row():
    for one_way in (True, False):
        for interaction in (True, False):
            config = small_config(queries=2, one_way=one_way, query_interaction=interaction)
            mask = attention_mask(np.array([3, 1, 2]), config)
            assert mask.shape == (3, 1, 5, 5)
            base = build_one_way_mask(3, 2, interaction, one_way)
            for b, n in enumerate([3, 1, 2]):
                assert np.all(mask[b, 0, :, n:3] == -np.inf)
                assert np.array_equal(mask[b, 0, :, :n], base[:, :n])
                assert np.array_equal(mask[b, 0, :, 3:], base[:, 3:])
    assert attention_mask(np.array([2, 2]), small_config()).shape == (5, 5)  # nothing padded


def test_padded_batch_matches_each_sentence_alone():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        one_way, interaction = bool(seed % 2), seed < 2
        config = small_config(heads=int(rng.choice([1, 2, 4])), queries=int(rng.integers(1, 5)),
                              one_way=one_way, query_interaction=interaction)
        tables, layers = make_model_params(config, seed=seed)
        batch = [rng.integers(0, config.vocab_size, size=int(rng.integers(1, 8)))
                 for _ in range(int(rng.integers(2, 5)))]
        outputs = _encode_batch(config, tables, layers, batch)
        for b, ids in enumerate(batch):
            alone = encode(build_input(ids, tables), len(ids), layers, config)
            for layer in range(config.word_layers):
                word = outputs.word[layer].data[b, :len(ids)]
                assert np.allclose(word, alone.word[layer].data, rtol=0, atol=1e-12)
                assert np.allclose(outputs.query[layer].data[b], alone.query[layer].data,
                                   rtol=0, atol=1e-12)


def test_one_way_invariance_on_padded_batches():
    for seed in range(6):
        rng = np.random.default_rng(500 + seed)
        config = small_config(queries=3, heads=2)
        tables, layers = make_model_params(config, seed=seed)
        batch = [rng.integers(0, config.vocab_size, size=int(rng.integers(1, 9)))
                 for _ in range(3)]
        lengths = [len(ids) for ids in batch]
        before = _encode_batch(config, tables, layers, batch)
        tables.query.data[...] = rng.normal(0.0, 0.5, size=tables.query.shape)
        tables.pos_query.data[...] = rng.normal(0.0, 0.5, size=tables.pos_query.shape)
        after = _encode_batch(config, tables, layers, batch)
        for b, n in enumerate(lengths):
            for old, new in zip(before.word, after.word):
                assert np.max(np.abs(old.data[b, :n] - new.data[b, :n])) < 1e-9
        open_config = small_config(queries=3, heads=2, one_way=False)
        open_before = _encode_batch(open_config, tables, layers, batch)
        tables.query.data[...] = rng.normal(0.0, 0.5, size=tables.query.shape)
        open_after = _encode_batch(open_config, tables, layers, batch)
        for b, n in enumerate(lengths):
            diff = np.max(np.abs(open_before.word[-1].data[b, :n] - open_after.word[-1].data[b, :n]))
            assert diff > 1e-6


@pytest.mark.parametrize("field", ["word", "query", "pos_word", "pos_query", "type_word",
                                   "type_query"])
def test_build_input_reads_a_stacked_table_one_copy_per_sentence(field):
    config = small_config()
    tables, _ = make_model_params(config, seed=3)
    rng = np.random.default_rng(4)
    copies, ids = 4, rng.integers(0, config.vocab_size, size=5)
    table = getattr(tables, field)
    values = table.data + rng.normal(size=(copies,) + table.shape)
    expected = []
    for v in values:
        table.data = v
        expected.append(build_input(ids[None], tables).data[0])
    table.data = values.reshape((copies,) + (1,) * (2 - table.ndim) + table.shape)
    with T.no_grad():
        out = build_input(np.repeat(ids[None], copies, axis=0), tables).data
    assert np.array_equal(out, np.stack(expected))
