import hashlib
import json
import math
import weakref
import zipfile

import numpy as np
import pytest

from iqner.data import (
    AnnotationError,
    DatasetMeta,
    EntityAnnotation,
    SentenceExample,
    SyntheticSpec,
    generate_synthetic,
)
from iqner.encoder import ModelConfig
from iqner import training
from iqner.heads import BoundaryScores, TypeDistribution
from iqner.tensor import Tensor, add, backward, grad_check, tsum, mul, topological_order
from iqner.training import (
    AdamOptimizer,
    Model,
    TrainConfig,
    assign_labels,
    boundary_loss,
    classification_loss,
    gold_arrays,
    linear_warmup_decay,
    load_checkpoint,
    model_gradcheck,
    save_checkpoint,
    sentence_loss,
    train,
    CheckpointError,
)


def scores_from_logits(left, right):
    from iqner.tensor import sigmoid

    lt = Tensor(np.asarray(left, dtype=np.float64))
    rt = Tensor(np.asarray(right, dtype=np.float64))
    return BoundaryScores(left_logits=lt, right_logits=rt, left=sigmoid(lt), right=sigmoid(rt))


def types_from_logits(logits):
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return TypeDistribution(logits=Tensor(logits), probs=e / e.sum(axis=-1, keepdims=True))


def _rows(labels, none_id):
    """The target rows of nested per-query labels: each entity's (left,
    right, type), and (-1, -1, none_id) for None."""
    if labels is None:
        return (-1, -1, none_id)
    if isinstance(labels, EntityAnnotation):
        return (labels.left, labels.right, labels.type_id)
    return np.array([_rows(label, none_id) for label in labels], dtype=np.int64)


def test_boundary_loss_zero_at_perfect_prediction():
    n = 4
    left = np.full((1, n), -1000.0)
    right = np.full((1, n), -1000.0)
    left[0, 1] = 1000.0
    right[0, 2] = 1000.0
    scores = scores_from_logits(left, right)
    loss = boundary_loss(scores, np.array([(1, 2, 0)]), n)
    assert loss.item() == 0.0


def test_boundary_loss_closed_form_at_half():
    n = 6
    scores = scores_from_logits(np.zeros((3, n)), np.zeros((3, n)))
    targets = np.array([(0, 2, 0), (-1, -1, 1), (-1, -1, 1)])
    loss = boundary_loss(scores, targets, n)
    assert loss.item() == pytest.approx(2 * n * math.log(2), abs=1e-9)


def test_boundary_loss_all_none_is_zero():
    scores = scores_from_logits(np.zeros((2, 3)), np.zeros((2, 3)))
    assert boundary_loss(scores, np.array([(-1, -1, 1)] * 2), 3).item() == 0.0


def test_classification_loss_zero_at_one_hot():
    logits = np.zeros((2, 3))
    logits[0, 1] = 1000.0
    logits[1, 2] = 1000.0
    types = types_from_logits(logits)
    targets = np.array([(0, 0, 1), (-1, -1, 2)])
    assert classification_loss(types, targets).item() == pytest.approx(0.0, abs=1e-12)


def test_classification_loss_uniform_closed_form():
    m, classes = 5, 4  # three types plus None
    types = types_from_logits(np.zeros((m, classes)))
    targets = np.array([(-1, -1, classes - 1)] * m)
    assert classification_loss(types, targets).item() == pytest.approx(
        m * math.log(classes), abs=1e-9
    )


def test_classification_loss_single_query_half():
    types = types_from_logits(np.zeros((1, 2)))
    assert classification_loss(types, np.array([(0, 0, 0)])).item() == pytest.approx(
        math.log(2), abs=1e-12
    )


def test_sentence_loss_sums_both_losses_over_layers():
    n, m, classes = 4, 2, 3
    half = (scores_from_logits(np.zeros((m, n)), np.zeros((m, n))),
            types_from_logits(np.zeros((m, classes))))
    targets = _rows([[EntityAnnotation(0, 1, 0), None], [None, None]], classes - 1)
    loss = sentence_loss([half, half], targets, n)
    assert isinstance(loss, Tensor)
    # 2n boundary terms of log 2 for the one labeled query, m log(classes) per layer
    expected = 2 * n * math.log(2) + 2 * m * math.log(classes)
    assert loss.item() == pytest.approx(expected, abs=1e-9)


def test_per_sentence_loss_is_each_sentences_own_loss():
    rng = np.random.default_rng(5)
    lengths, m, classes = [4, 2, 3], 2, 3
    shape = (len(lengths), m, max(lengths))
    targets = _rows([[[EntityAnnotation(0, 1, 0), None], [None, EntityAnnotation(1, 1, 2)],
                      [EntityAnnotation(2, 2, 1), None]]] * 2, classes - 1)
    outs = [(scores_from_logits(rng.normal(size=shape), rng.normal(size=shape)),
             types_from_logits(rng.normal(size=(len(lengths), m, classes)))) for _ in range(2)]
    per = sentence_loss(outs, targets, lengths, per_sentence=True)
    assert per.shape == (len(lengths),)
    for b, length in enumerate(lengths):
        own = [(scores.sentence(b, length), types.sentence(b)) for scores, types in outs]
        assert per.data[b] == pytest.approx(sentence_loss(own, targets[:, b], length).item(),
                                            rel=1e-14)
    unlabeled = sentence_loss(outs, _rows([[[None] * m] * 3] * 2, classes - 1), lengths,
                              per_sentence=True)
    assert unlabeled.shape == (len(lengths),)


def _loop_targets(labels, lengths, m, n, classes):
    """The boundary mask and targets and the class one-hot, one query at a time."""
    mask, left, right = (np.zeros((len(labels), m, n)) for _ in range(3))
    one_hot = np.zeros((len(labels), m, classes))
    for b, (sentence_labels, length) in enumerate(zip(labels, lengths)):
        for i, label in enumerate(sentence_labels):
            one_hot[b, i, classes - 1 if label is None else label.type_id] = 1.0
            if label is not None:
                mask[b, i, :length] = 1.0
                left[b, i, label.left] = 1.0
                right[b, i, label.right] = 1.0
    return mask, left, right, one_hot


@pytest.mark.parametrize("seed", range(12))
def test_loss_targets_equal_the_query_by_query_loop(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    batch, m, classes = int(rng.integers(1, 5)), int(rng.integers(1, 7)), int(rng.integers(2, 5))
    lengths = [int(x) for x in rng.integers(1, 9, size=batch)]
    n = max(lengths)
    labels = []
    for length in lengths:
        sentence_labels = []
        for _ in range(m):
            left = int(rng.integers(length))
            right = int(rng.integers(left, length))
            # type ids up to the None id itself, which a label may carry
            sentence_labels.append(None if rng.random() < 0.4 else
                                   EntityAnnotation(left, right, int(rng.integers(classes))))
        labels.append(sentence_labels)
    seen = []
    monkeypatch.setattr(training, "bce_with_logits",
                        lambda logits, target, mask, per_item: seen.append((mask, target))
                        or Tensor(0.0))
    monkeypatch.setattr(training, "softmax_cross_entropy",
                        lambda logits, target, per_item: seen.append(target) or Tensor(0.0))
    shape = (batch, m, n)
    targets = _rows(labels, classes - 1)
    boundary_loss(scores_from_logits(np.zeros(shape), np.zeros(shape)), targets, lengths)
    classification_loss(types_from_logits(np.zeros((batch, m, classes))), targets)
    mask, left, right, one_hot = _loop_targets(labels, lengths, m, n, classes)
    if mask.any():
        (mask_l, got_left), (mask_r, got_right), got_one_hot = seen
        for got, expected in ((mask_l, mask), (mask_r, mask), (got_left, left),
                              (got_right, right), (got_one_hot, one_hot)):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
    else:  # no labeled query: no boundary term at all
        assert len(seen) == 1 and np.array_equal(seen[0], one_hot)


def test_gold_arrays_name_the_sentence_with_a_bad_span_or_type():
    from iqner.assignment import gold_array

    with pytest.raises(AnnotationError,
                       match=r"^gold span \(1, 2\) outside sentence of length 2$"):
        gold_array([EntityAnnotation(0, 0, 0), EntityAnnotation(1, 2, 0)], 2, 3)
    examples = [SentenceExample(["a", "b"], [EntityAnnotation(0, 0, 2)]),
                SentenceExample(["a"], [EntityAnnotation(0, 0, 4), EntityAnnotation(0, 0, 3)])]
    with pytest.raises(AnnotationError,
                       match="^sentence 1: gold type 4 outside inventory of size 3$"):
        gold_arrays(examples, 3, 4, static=False)


@pytest.mark.parametrize("mode", ["dynamic", "static"])
def test_train_refuses_a_gold_type_outside_the_inventory_before_any_step(mode, monkeypatch):
    """Type ``type_count`` is the None id, so static mode once trained such an
    entity as None; both modes now refuse it before the first Adam step."""
    examples, meta, config = _tiny_fixture()
    examples = [*examples, SentenceExample(["w0"], [EntityAnnotation(0, 0, meta.type_count)])]
    steps = []
    monkeypatch.setattr(AdamOptimizer, "step", lambda *args: steps.append(args))
    with pytest.raises(AnnotationError, match=f"^sentence {len(examples) - 1}: gold type "
                                              f"{meta.type_count} outside inventory of size "
                                              f"{meta.type_count}$"):
        train(Model(config), examples, meta, TrainConfig(assignment_mode=mode, batch_size=1))
    assert steps == []


def _batch_of_one(left, right, probs, logits=None):
    """One layer's head outputs for a batch of one sentence's (M, N) and (M, C) arrays."""
    left, right, probs = (np.asarray(a, dtype=np.float64)[None] for a in (left, right, probs))
    logits = probs if logits is None else np.asarray(logits, dtype=np.float64)[None]
    return (BoundaryScores(left_logits=Tensor(left), right_logits=Tensor(left),
                           left=Tensor(left), right=Tensor(right)),
            TypeDistribution(logits=Tensor(logits), probs=probs))


def _stub_head_outs_for_cost():
    # cost matrix [[-0.9, -0.1], [-0.5, -0.6], [-0.2, -0.8]] via type probs only
    probs = np.array([[0.9, 0.1, 0.0], [0.5, 0.6, 0.0], [0.2, 0.8, 0.0]])
    return [_batch_of_one(np.zeros((3, 2)), np.zeros((3, 2)), probs, np.zeros((3, 3)))]


GOLD_PAIR = np.array([(0, 0, 0), (1, 1, 1)])
NONE = (-1, -1, 2)  # the stubs' None row: two types plus None


def test_assign_empty_gold_all_none():
    head_outs = _stub_head_outs_for_cost()
    targets, matched = assign_labels(head_outs, [GOLD_PAIR[:0]], TrainConfig(),
                                     np.random.default_rng(0))
    assert np.array_equal(targets, [[[NONE] * 3]]) and matched == [[None]]


def test_assign_static_mode_order_of_occurrence():
    head_outs = _stub_head_outs_for_cost()
    example = SentenceExample(["a", "b"], [EntityAnnotation(1, 1, 1), EntityAnnotation(0, 0, 0)])
    golds = gold_arrays([example], 2, 3, static=True)
    config = TrainConfig(assignment_mode="static")
    targets, _ = assign_labels(head_outs, golds, config, np.random.default_rng(0))
    assert np.array_equal(targets[0, 0], [GOLD_PAIR[0], GOLD_PAIR[1], NONE])
    # dynamic mode keeps the given order
    assert np.array_equal(gold_arrays([example], 2, 3, static=False)[0], GOLD_PAIR[::-1])


def test_assign_dynamic_matches_brute_force_optimum():
    head_outs = _stub_head_outs_for_cost()
    config = TrainConfig(quantity_mode="one_to_one")
    targets, _ = assign_labels(head_outs, [GOLD_PAIR], config, np.random.default_rng(0))
    assert np.array_equal(targets[0, 0], [GOLD_PAIR[0], NONE, GOLD_PAIR[1]])


def test_assign_one_to_many_counts_match_quantities():
    rng = np.random.default_rng(5)
    m, n, classes = 8, 4, 3
    left = rng.uniform(size=(m, n))
    right = rng.uniform(size=(m, n))
    raw = rng.uniform(size=(m, classes))
    head_outs = [_batch_of_one(left, right, raw / raw.sum(1, keepdims=True), raw)]
    gold = np.array([(0, 1, 0), (2, 3, 1)])
    config = TrainConfig(ratio=0.75)
    targets, _ = assign_labels(head_outs, [gold], config, np.random.default_rng(7))
    counts = [int((targets[0, 0] == row).all(axis=1).sum()) for row in gold]
    assert sum(counts) == round(m * 0.75)
    assert all(c >= (round(m * 0.75) // len(gold)) for c in counts)
    assert ((targets[0, 0] == gold[:, None]).all(axis=2).any(axis=0)
            | (targets[0, 0] == (-1, -1, classes - 1)).all(axis=1)).all()

    one = TrainConfig(quantity_mode="one_to_one")
    targets1, _ = assign_labels(head_outs, [gold], one, np.random.default_rng(7))
    for row in gold:
        assert (targets1[0, 0] == row).all(axis=1).sum() == 1


def test_assign_share_final_assignment():
    head_outs = _stub_head_outs_for_cost() * 3
    config = TrainConfig(quantity_mode="one_to_one", share_final_assignment=True)
    targets, matched = assign_labels(head_outs, [GOLD_PAIR], config, np.random.default_rng(0))
    assert np.array_equal(targets[0], targets[1]) and np.array_equal(targets[1], targets[2])
    assert matched[0][:2] == [None, None] and matched[0][2] is not None


def test_assign_more_entities_than_queries_keeps_first_by_occurrence():
    probs = np.full((2, 3), 1 / 3)
    head_outs = [_batch_of_one(np.zeros((2, 4)), np.zeros((2, 4)), probs, np.zeros((2, 3)))]
    gold = [EntityAnnotation(3, 3, 0), EntityAnnotation(0, 0, 1), EntityAnnotation(1, 2, 0)]
    golds = gold_arrays([SentenceExample(list("abcd"), gold)], 2, 2, static=False)
    config = TrainConfig(quantity_mode="one_to_one")
    targets, _ = assign_labels(head_outs, golds, config, np.random.default_rng(1))
    assigned = {tuple(row) for row in targets[0, 0].tolist()} - {(-1, -1, 2)}
    assert assigned == {(0, 0, 1), (1, 2, 0)}  # occurrence order: (0,0), (1,2), then (3,3)


def test_linear_warmup_decay_schedule():
    assert linear_warmup_decay(0, 100, 1.0, 0.0) == 1.0  # no warmup: starts at peak
    assert linear_warmup_decay(0, 100, 1.0, 0.1) == pytest.approx(0.1)
    assert linear_warmup_decay(9, 100, 1.0, 0.1) == pytest.approx(1.0)
    assert linear_warmup_decay(99, 100, 1.0, 0.1) == pytest.approx(1.0 / 90)


def _small_model() -> Model:
    return Model(ModelConfig(hidden=4, queries=2, base_layers=1, word_layers=1, heads=1,
                             vocab_size=5, max_len=4, type_count=1))


def _leaves(model: Model) -> list[Tensor]:
    return [p for _, p in model.named_parameters()]


def test_adam_minimizes_quadratic():
    model = _small_model()
    target = np.random.default_rng(3).uniform(-3.0, 3.0, size=model.theta.size)
    opt = AdamOptimizer(model)
    for _ in range(400):
        model.zero_grad()
        start, total = 0, None
        for p in _leaves(model):
            diff = add(p, Tensor(-target[start:start + p.size].reshape(p.shape)))
            start += p.size
            term = tsum(mul(diff, diff))
            total = term if total is None else add(total, term)
        opt.step(0.1, backward(total))
    assert np.allclose(model.theta, target, atol=1e-3)


@pytest.mark.parametrize("norm,scale", [(2.5, 0.5), (5.0, 1.0), (10.0, 1.0)])
def test_adam_clips_the_global_gradient_norm_down_to_the_bound(norm, scale):
    model = _small_model()
    model.grad[0], model.grad[-1] = 3.0, 4.0  # global norm 5
    gradient = model.grad.copy()
    opt = AdamOptimizer(model)
    opt.step(0.1, _leaves(model), max_grad_norm=norm)
    # the first moment holds (1 - beta1) times the gradient the step used
    assert np.allclose(opt.m, 0.1 * scale * gradient, rtol=1e-12, atol=0.0)


def _per_parameter_adam(params, grads, rates, max_grad_norm):
    """Adam as separate expressions per parameter: the flat optimizer's reference."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    data = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, (step_grads, lr) in enumerate(zip(grads, rates), start=1):
        if max_grad_norm is not None:
            norm = math.sqrt(sum(float((g * g).sum()) for g in step_grads))
            if norm > max_grad_norm:
                step_grads = [g * (max_grad_norm / norm) for g in step_grads]
        bias1, bias2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
        for i, g in enumerate(step_grads):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * (g * g)
            data[i] -= lr * (m[i] / bias1) / (np.sqrt(v[i] / bias2) + eps)
    return data, m, v


@pytest.mark.parametrize("max_grad_norm", [None, 1.0])
def test_flat_adam_matches_the_per_parameter_expressions(max_grad_norm):
    rng = np.random.default_rng(8)
    model = _small_model()
    params = _leaves(model)
    start = [p.data.copy() for p in params]
    opt = AdamOptimizer(model)
    grads, rates = [], [1e-2 * (t + 1) for t in range(6)]
    for lr in rates:
        step_grads = [rng.normal(size=p.shape) for p in params]
        for p, g in zip(params, step_grads):
            p.grad[...] = g  # a step consumes grad
        opt.step(lr, params, max_grad_norm)
        grads.append(step_grads)
    data, m, v = _per_parameter_adam(start, grads, rates, max_grad_norm)
    bounds = np.cumsum([x.size for x in start])[:-1]
    flat_m, flat_v = np.split(opt.m, bounds), np.split(opt.v, bounds)
    for p, expected, fm, em, fv, ev in zip(params, data, flat_m, m, flat_v, v):
        assert np.shares_memory(p.data, model.theta)
        if max_grad_norm is None:
            assert p.data.tobytes() == expected.tobytes()
            assert fm.tobytes() == em.reshape(-1).tobytes()
            assert fv.tobytes() == ev.reshape(-1).tobytes()
        else:  # only the norm's summation order differs
            assert np.allclose(p.data, expected, rtol=1e-13, atol=0.0)
            assert np.allclose(fm, em.reshape(-1), rtol=1e-13, atol=0.0)


def test_adam_refuses_a_parameter_without_gradient_by_its_name():
    """A zero gradient is a gradient; a parameter that the backward pass
    never reached is refused, though its slice of ``grad`` is zero too."""
    model = _small_model()
    total = None
    for name, p in model.named_parameters():
        if name != "layer0.bv":
            term = tsum(mul(p, 0.0))  # every gradient zero
            total = term if total is None else add(total, term)
    reached = backward(total)
    assert len(reached) == len(_leaves(model)) - 1 and not model.grad.any()
    before = model.theta.copy()
    opt = AdamOptimizer(model)
    with pytest.raises(ValueError, match="^parameter layer0.bv has no gradient$"):
        opt.step(0.1, reached)
    assert opt.step_count == 0 and np.array_equal(model.theta, before)
    opt.step(0.1, _leaves(model))  # every parameter reached: a zero gradient moves nothing
    assert opt.step_count == 1 and np.array_equal(model.theta, before)


@pytest.mark.parametrize("cls,field,value", [
    (ModelConfig, "hidden", 0), (ModelConfig, "queries", 0), (ModelConfig, "base_layers", 0),
    (ModelConfig, "word_layers", -1), (ModelConfig, "heads", 0), (ModelConfig, "heads", 3),
    (ModelConfig, "vocab_size", 0), (ModelConfig, "max_len", 0), (ModelConfig, "type_count", 0),
    (ModelConfig, "seed", -1),
    (TrainConfig, "epochs", 0), (TrainConfig, "batch_size", 0), (TrainConfig, "seed", -1),
    (TrainConfig, "loc_threshold", 1.5), (TrainConfig, "cls_threshold", -0.1),
    (TrainConfig, "warmup_fraction", math.nan), (TrainConfig, "ratio", 0.0),
    (TrainConfig, "learning_rate", math.nan), (TrainConfig, "learning_rate", -1.0),
    (TrainConfig, "learning_rate", math.inf), (TrainConfig, "max_grad_norm", 0.0),
    (TrainConfig, "max_grad_norm", -1.0), (TrainConfig, "max_grad_norm", math.inf),
    (TrainConfig, "assignment_mode", "greedy"), (TrainConfig, "quantity_mode", "many"),
])
def test_each_config_check_names_its_field_and_value(cls, field, value):
    with pytest.raises(ValueError) as err:
        cls(**{field: value})
    assert str(err.value).startswith(f"{field} must be ")
    assert str(err.value).endswith(f"got {value!r}")


def _tiny_fixture():
    spec = SyntheticSpec(sentences=8, vocab_size=20, min_length=5, max_length=7,
                         type_count=2, nesting_ratio=0.2, max_entities=2)
    examples, meta = generate_synthetic(spec, seed=0)
    config = ModelConfig(hidden=16, queries=4, base_layers=1, word_layers=1, heads=2,
                         vocab_size=meta.vocab_size, max_len=8, type_count=meta.type_count,
                         seed=0)
    return examples, meta, config


def test_train_is_deterministic_and_loss_decreases():
    examples, meta, config = _tiny_fixture()
    tconfig = TrainConfig(epochs=8, learning_rate=3e-3, batch_size=4, seed=1)
    h1 = train(Model(config), examples, meta, tconfig)
    h2 = train(Model(config), examples, meta, tconfig)
    assert h1 == h2
    assert h1[-1]["loss"] < h1[0]["loss"]


def test_train_rejects_empty_dataset():
    _, meta, config = _tiny_fixture()
    with pytest.raises(ValueError):
        train(Model(config), [], meta, TrainConfig(epochs=1))


def test_a_step_graph_is_freed_before_the_next_step_is_built(monkeypatch):
    examples, meta, config = _tiny_fixture()
    forward_batch = Model.forward_batch
    previous = []  # weak references to the last step's recorded graph nodes
    steps = []

    def watched(self, batch):
        alive = sum(ref() is not None for ref in previous)
        # a live result Tensor keeps its node alive, so this also covers the values
        assert alive == 0, f"{alive} of {len(previous)} graph nodes of step {len(steps)} alive"
        steps.append(len(batch))
        outputs, head_outs = forward_batch(self, batch)
        previous[:] = [weakref.ref(node)
                       for scores, types in head_outs
                       for root in (scores.left, scores.right, types.logits)
                       for node in topological_order(root) if node._parents]
        return outputs, head_outs

    monkeypatch.setattr(Model, "forward_batch", watched)
    train(Model(config), examples, meta, TrainConfig(epochs=2, batch_size=4, seed=1))
    assert len(steps) > 2 and previous


def test_checkpoint_round_trip(tmp_path):
    examples, meta, config = _tiny_fixture()
    model = Model(config)
    tconfig = TrainConfig(epochs=2, batch_size=4, seed=3)
    history = train(model, examples, meta, tconfig)
    assert history
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, meta)
    loaded, loaded_meta, opt_state = load_checkpoint(path)
    assert loaded_meta.types == meta.types
    assert loaded_meta.vocab == meta.vocab
    assert opt_state is None
    with np.load(path) as archive:
        header = json.loads(archive["header"].tobytes().decode("utf-8"))
        assert "optimizer_step" not in header
        assert sorted(archive.files) == ["header", "parameters"]
        # each parameter flattened, in named_parameters order
        assert np.array_equal(archive["parameters"], np.concatenate(
            [p.data.ravel() for _, p in model.named_parameters()]))
    for (name_a, a), (name_b, b) in zip(model.named_parameters(), loaded.named_parameters()):
        assert name_a == name_b
        assert np.array_equal(a.data, b.data)
    encoded = [meta.encode(ex.tokens) for ex in examples]
    assert list(model.predict(encoded, 0.0, 0.0)) == list(loaded.predict(encoded, 0.0, 0.0))


@pytest.mark.parametrize("settings, solved", [
    ({}, [True, True]),
    ({"share_final_assignment": True}, [False, True]),
    ({"assignment_mode": "static"}, [False, False]),
])
def test_epoch_reports_the_mean_matched_cost_of_each_solved_layer(settings, solved):
    examples, meta, config = _tiny_fixture()
    config = ModelConfig(**{**config.__dict__, "word_layers": 2})
    history = train(Model(config), examples, meta,
                    TrainConfig(epochs=2, batch_size=4, seed=1, **settings))
    for metrics in history:
        costs = metrics["matched_cost"]
        assert [cost is not None for cost in costs] == solved
        # a query's cost is minus three probabilities
        assert all(-3.0 * config.queries <= cost <= 0.0 for cost in costs if cost is not None)


def test_checkpoint_bytes_do_not_depend_on_the_flat_parameters(tmp_path):
    """An optimizer steps the model's own vector, which every parameter
    views, so making one changes no byte of the checkpoint."""
    examples, meta, config = _tiny_fixture()
    model = Model(config)
    save_checkpoint(tmp_path / "separate.npz", model, meta)
    opt = AdamOptimizer(model)
    assert opt.theta is model.theta and opt.grad is model.grad
    assert all(np.shares_memory(p.data, model.theta) and np.shares_memory(p.grad, model.grad)
               for _, p in model.named_parameters())
    save_checkpoint(tmp_path / "views.npz", model, meta)
    assert (tmp_path / "separate.npz").read_bytes() == (tmp_path / "views.npz").read_bytes()
    loaded, _, _ = load_checkpoint(tmp_path / "separate.npz")
    encoded = [meta.encode(ex.tokens) for ex in examples]
    assert list(loaded.predict(encoded, 0.0, 0.0)) == list(model.predict(encoded, 0.0, 0.0))


def test_parameter_names_are_pinned():
    """The names, in this order, are the checkpoint keys and the order in
    which model_gradcheck resamples the parameters."""
    model = Model(ModelConfig(hidden=4, queries=2, base_layers=1, word_layers=1, heads=1,
                              vocab_size=5, max_len=4, type_count=1))
    assert [name for name, _ in model.named_parameters()] == [
        "emb.word", "emb.query", "emb.pos_word", "emb.pos_query", "emb.type_word",
        "emb.type_query",
        "layer0.wq", "layer0.bq", "layer0.wk", "layer0.wv", "layer0.bv", "layer0.wo",
        "layer0.bo", "layer0.w1", "layer0.b1", "layer0.w2", "layer0.b2", "layer0.ln1_gamma",
        "layer0.ln1_beta", "layer0.ln2_gamma", "layer0.ln2_beta",
        "layer1.wq", "layer1.bq", "layer1.wk", "layer1.wv", "layer1.bv", "layer1.wo",
        "layer1.bo", "layer1.w1", "layer1.b1", "layer1.w2", "layer1.b2", "layer1.ln1_gamma",
        "layer1.ln1_beta", "layer1.ln2_gamma", "layer1.ln2_beta",
        "head0.left.w_query", "head0.left.w_word", "head0.left.scorer", "head0.left.bias",
        "head0.right.w_query", "head0.right.w_word", "head0.right.scorer", "head0.right.bias",
        "head0.w_type", "head0.type_scorer", "head0.type_bias",
    ]


@pytest.mark.parametrize("hidden,queries,word_layers,heads", [(32, 12, 2, 4), (64, 60, 5, 4)])
def test_load_reads_the_header_and_the_parameter_vector_alone(hidden, queries, word_layers, heads,
                                                              tmp_path, monkeypatch):
    """At the acceptance fixture's size and the paper default's, a load opens
    two archive members and reads each in one call, however many parameters
    the model has."""
    _, meta, config = _tiny_fixture()
    config = ModelConfig(**{**config.__dict__, "hidden": hidden, "queries": queries,
                            "word_layers": word_layers, "heads": heads})
    save_checkpoint(tmp_path / "model.npz", Model(config), meta)
    opened, reads = [], []
    open_member, read = zipfile.ZipFile.open, zipfile.ZipExtFile.read

    def counted_open(archive, name, *args, **kwargs):
        opened.append(name)
        return open_member(archive, name, *args, **kwargs)

    def counted_read(member, *args):
        reads.append(member.name)
        return read(member, *args)

    monkeypatch.setattr(zipfile.ZipFile, "open", counted_open)
    monkeypatch.setattr(zipfile.ZipExtFile, "read", counted_read)
    loaded, _, _ = load_checkpoint(tmp_path / "model.npz")
    assert len(loaded.named_parameters()) > 2
    assert sorted(opened) == sorted(reads) == ["header.npy", "parameters.npy"]


# sha256 of the random init's parameter vector, taken from the model as it
# was before it owned one vector: separate arrays, each drawn in field order
PINNED_INIT = {
    ("fixture", 0): "b340284b50ef84d2bb7be17f35aa748f987e4fa7c45e580b5b3c499b4d1a4517",
    ("fixture", 2): "b7bad65cefb4466e67c18fffeb2e99357e32caedc1b8f21f6bbd184d20b330ec",
    ("paper", 0): "8bdcfd5cc2e4ddc65163bc4644dc32503096fbf6695b5934d75233d9123d562c",
    ("paper", 2): "fef23040dd8c32da44351cf002663d4290342f35d2d65d4310afd2d84d128cda",
}
INIT_POINTS = {"fixture": (dict(hidden=32, queries=12, word_layers=2, max_len=16), 40270),
               "paper": ({}, 324323)}


@pytest.mark.parametrize("point,seed", sorted(PINNED_INIT))
def test_random_init_is_pinned(point, seed):
    """A random init draws each parameter into ``theta`` in
    ``named_parameters()`` order, or fills it with its constant. A NaN-filled
    block of the vector's size is freed just before, so a slot the init never
    wrote would likely show."""
    settings, size = INIT_POINTS[point]
    garbage = np.full(size, np.nan)
    del garbage
    model = Model(ModelConfig(**settings, seed=seed))
    assert model.theta.shape == (size,) and model.theta.dtype == np.float64
    assert hashlib.sha256(model.theta.tobytes()).hexdigest() == PINNED_INIT[(point, seed)]
    assert not model.grad.any() and model.grad.shape == (size,)


def test_each_parameter_views_theta_and_grad_in_name_order():
    model = _small_model()
    start = 0
    for _, p in model.named_parameters():
        assert np.shares_memory(p.data, model.theta[start:start + p.size])
        assert np.shares_memory(p.grad, model.grad[start:start + p.size])
        start += p.size
    assert start == model.theta.size


def test_load_builds_on_the_file_vector_and_draws_nothing(tmp_path, monkeypatch):
    """Generator.normal cannot be patched on numpy's type, so every way to
    make a generator is: ``default_rng`` raises, and ``Generator`` makes one
    whose ``normal`` raises."""
    _, meta, config = _tiny_fixture()
    model = Model(config)
    save_checkpoint(tmp_path / "model.npz", model, meta)

    class Refusing(np.random.Generator):
        def normal(self, *args, **kwargs):
            raise AssertionError("drew a random number")

    def refuse(*args, **kwargs):
        raise AssertionError("made a random generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "Generator", Refusing)
    read = zipfile.ZipFile.read
    members = {}
    monkeypatch.setattr(zipfile.ZipFile, "read",
                        lambda archive, name: members.setdefault(name, read(archive, name)))
    loaded, _, _ = load_checkpoint(tmp_path / "model.npz")
    # the bytes the file gave, viewed and not copied
    assert np.shares_memory(loaded.theta, np.frombuffer(members["parameters.npy"], np.uint8))
    assert loaded.theta.tobytes() == model.theta.tobytes()
    assert all(np.shares_memory(p.data, loaded.theta) for _, p in loaded.named_parameters())
    with pytest.raises(AssertionError, match="made a random generator"):
        Model(config)  # the patches bite on a random init


def test_save_writes_theta_as_it_is(tmp_path, monkeypatch):
    _, meta, config = _tiny_fixture()
    model = Model(config)
    savez = np.savez
    written = []

    def spy(fh, **arrays):
        written.append(arrays["parameters"])
        return savez(fh, **arrays)

    def refuse(*args, **kwargs):
        raise AssertionError("concatenated")

    monkeypatch.setattr(np, "savez", spy)
    monkeypatch.setattr(np, "concatenate", refuse)
    save_checkpoint(tmp_path / "model.npz", model, meta)
    monkeypatch.undo()
    assert written == [model.theta] and written[0] is model.theta
    with np.load(tmp_path / "model.npz") as archive:
        assert archive["parameters"].tobytes() == model.theta.tobytes()


def test_model_gradcheck_leaves_every_parameter_a_view_of_theta(monkeypatch):
    """``grad_check_stacked`` swaps one parameter's ``data`` for a stack and
    puts the view back."""
    built = []
    monkeypatch.setattr(training, "Model", lambda *args: built.append(Model(*args)) or built[-1])
    model_gradcheck(seed=0)
    (model,) = built
    start = 0
    for _, p in model.named_parameters():
        assert p.data.base is model.theta and np.shares_memory(p.data, model.theta[start:])
        start += p.size


def test_failed_save_leaves_the_previous_checkpoint(tmp_path, monkeypatch):
    _, meta, config = _tiny_fixture()
    path = tmp_path / "model.npz"
    save_checkpoint(path, Model(config), meta)
    before = path.read_bytes()

    def interrupted(fh, **arrays):
        fh.write(b"PK partial archive")
        raise OSError("No space left on device")

    monkeypatch.setattr(np, "savez", interrupted)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(path, Model(ModelConfig(**{**config.__dict__, "seed": 1})), meta)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_changed_parameter_bytes(tmp_path):
    """The one read of the parameters still checks the member's CRC."""
    _, meta, config = _tiny_fixture()
    model = Model(config)
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, meta)
    data = bytearray(path.read_bytes())
    start = data.find(model.theta.tobytes())  # np.savez stores members uncompressed
    assert start > 0
    data[start + 8] ^= 1
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="^checkpoint parameters cannot be read: Bad CRC-32"):
        load_checkpoint(path)


def test_model_gradcheck_passes_and_negative_control_fails():
    assert model_gradcheck(seed=0) < 1e-4
    assert model_gradcheck(seed=0, inject_error=True) > 1e-2


def test_model_gradcheck_sees_a_missing_gradient_inside_encode(monkeypatch):
    """The check differentiates the encoder that training runs: a value-only
    dependence of its output on a parameter fails it."""
    encode = training.encode

    def leaky(h0, sentence_length, layers, config):
        outputs = encode(h0, sentence_length, layers, config)
        leak = Tensor(0.05 * layers[0].wq.data.sum(axis=(-2, -1))[..., None, None])
        outputs.word[-1] = add(outputs.word[-1], leak)
        return outputs

    monkeypatch.setattr(training, "encode", leaky)
    assert model_gradcheck(seed=0) > 1e-2


@pytest.mark.parametrize("seed", range(4))
def test_model_gradcheck_checks_each_parameter_once_on_the_full_loss(seed, monkeypatch):
    """Each checked function's gradient on its parameter is that of the full
    multi-layer loss under the same frozen labels."""
    seen, checks = {}, []
    forward, assign = Model.forward_batch, training.assign_labels

    def recording_forward(self, batch):
        seen.setdefault("model", self)  # the first forward is the one labels are assigned on
        seen.setdefault("token_ids", np.array(batch[0]))
        return forward(self, batch)

    def recording_assign(*args):
        targets, matched = assign(*args)
        seen["targets"] = targets  # the one sentence's, (L, 1, M, 3)
        return targets, matched

    monkeypatch.setattr(Model, "forward_batch", recording_forward)
    monkeypatch.setattr(training, "assign_labels", recording_assign)
    monkeypatch.setattr(training, "grad_check_stacked",
                        lambda f, point, eps: checks.append((f, point)) or 0.0)
    model_gradcheck(seed=seed)
    model, token_ids = seen["model"], seen["token_ids"]
    params = [p for _, p in model.named_parameters()]
    assert sorted(id(p) for _, p in checks) == sorted(id(p) for p in params)

    model.zero_grad()
    _, head_outs = model.forward_batch([token_ids])
    backward(sentence_loss(head_outs, seen["targets"], [len(token_ids)]))
    full = {id(p): p.grad.copy() for p in params}
    for f, p in checks:
        p.zero_grad()
        backward(tsum(f(1)))
        assert np.array_equal(p.grad, full[id(p)])


def test_model_gradcheck_equals_the_serial_check(monkeypatch):
    """Batching the perturbations changes no bit of the result."""
    batched = model_gradcheck(seed=1)
    monkeypatch.setattr(training, "grad_check_stacked",
                        lambda f, point, eps: grad_check(lambda _: tsum(f(1)), point, eps))
    assert model_gradcheck(seed=1) == batched


def test_model_gradcheck_rejects_bad_eps():
    with pytest.raises(ValueError):
        model_gradcheck(seed=0, eps=0.0)


def test_inference_uses_only_the_final_layer():
    examples, meta, config = _tiny_fixture()
    config2 = ModelConfig(**{**config.__dict__, "word_layers": 2})
    model = Model(config2)
    encoded = [meta.encode(ex.tokens) for ex in examples]
    before = list(model.predict(encoded, 0.0, 0.0))
    for _, p in model.heads[0].named("head0"):
        p.data[...] += 7.5  # earlier layer's head parameters are inference-dead
    after = list(model.predict(encoded, 0.0, 0.0))
    assert before == after


def test_predict_runs_only_the_final_layer_heads(monkeypatch):
    examples, meta, config = _tiny_fixture()
    model = Model(ModelConfig(**{**config.__dict__, "word_layers": 3}))
    calls = []
    pointer = training.boundary_pointer
    monkeypatch.setattr(training, "boundary_pointer",
                        lambda *args: calls.append(args) or pointer(*args))
    list(model.predict([meta.encode(ex.tokens) for ex in examples[:2]], 0.0, 0.0))
    assert len(calls) == 2  # one per sentence


@pytest.fixture(scope="module")
def trained_decoder(tmp_path_factory):
    """A fixture-point model (h=32, M=12, L=2) trained until it decodes
    entities at the default thresholds, loaded from its checkpoint, and
    held-out sentences longer than its training ones."""
    examples, meta = generate_synthetic(SyntheticSpec(sentences=24), seed=11)
    held, _ = generate_synthetic(SyntheticSpec(sentences=300, min_length=17, max_length=30),
                                 seed=12)
    config = ModelConfig(hidden=32, queries=12, base_layers=1, word_layers=2, heads=4,
                         vocab_size=meta.vocab_size, max_len=30, type_count=meta.type_count,
                         seed=2)
    model = Model(config)
    train(model, examples, meta, TrainConfig(epochs=40, batch_size=4, learning_rate=6e-3,
                                             warmup_fraction=0.4, share_final_assignment=True,
                                             seed=2))
    path = tmp_path_factory.mktemp("decoder") / "model.npz"
    save_checkpoint(path, model, meta)
    loaded, _, _ = load_checkpoint(path)
    return loaded, [meta.encode(ex.tokens) for ex in held]


def test_predict_computes_in_float32(trained_decoder, monkeypatch):
    """Every op of the decode path, the encoder's and the final heads', gives
    a float32 result, except the class softmax, which entity_classifier runs
    in float64 on purpose. The ops run on one float32 copy of the model per
    call, made without a grad vector; the model's own vector stays float64."""
    from iqner import tensor

    model, sentences = trained_decoder
    results, copies = [], []
    record = tensor._record

    def spy(data, parents, rule, *saved):
        results.append((rule.__name__, data.dtype))
        return record(data, parents, rule, *saved)

    class Copy(Model):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            copies.append(self)

    monkeypatch.setattr(tensor, "_record", spy)
    monkeypatch.setattr(training, "Model", Copy)
    decoded = list(model.predict(sentences[:3], 0.0, 0.0))
    assert all(decoded)
    (copy,) = copies
    assert copy.theta.dtype == np.float32 and copy.grad is None
    dtypes = {}
    for rule, dtype in results:
        dtypes.setdefault(rule, set()).add(dtype)
    assert {"_attention_grad", "_layer_norm_grad", "_linear_grad", "_pair_relu_score_grad",
            "_sigmoid_grad", "_matmul_grad", "_concat_grad", "_relu_grad"} < set(dtypes)
    assert dtypes.pop("_row_softmax_grad") == {np.dtype(np.float64)}
    assert all(found == {np.dtype(np.float32)} for found in dtypes.values()), dtypes
    assert model.theta.dtype == np.float64


@pytest.mark.parametrize("thresholds", [(0.6, 0.8), (0.0, 0.0)])
def test_float32_decode_agrees_with_the_float64_forward(trained_decoder, thresholds):
    """``predict`` keeps the float64 decode's query ids, spans and types, and
    every probability within 1e-5 of it."""
    from iqner.heads import decode_entities

    model, sentences = trained_decoder
    decoded = list(model.predict(sentences, *thresholds))
    assert sum(map(len, decoded)) > len(sentences)
    for ids, got in zip(sentences, decoded):
        _, head_outs = model.forward(ids)
        scores, types = head_outs[-1]
        assert scores.left.data.dtype == types.probs.dtype == np.float64
        expected = decode_entities(scores, types, *thresholds)
        assert ([(p.query_id, p.left, p.right, p.type_id) for p in got]
                == [(p.query_id, p.left, p.right, p.type_id) for p in expected])
        for p, q in zip(got, expected):
            assert max(abs(p.left_prob - q.left_prob), abs(p.right_prob - q.right_prob),
                       abs(p.type_prob - q.type_prob)) <= 1e-5


def test_a_loaded_model_is_for_decoding(trained_decoder):
    """It views the file's bytes read-only, has no gradient vector and
    untracked parameters, and an optimizer refuses it."""
    model, _ = trained_decoder
    assert model.grad is None and not model.theta.flags.writeable
    assert not any(p.tracked or p.grad is not None for _, p in model.named_parameters())
    with pytest.raises(ValueError, match="not trainable"):
        AdamOptimizer(model)


@pytest.mark.parametrize("word_layers, share_final", [(2, True), (3, False)])
def test_a_train_step_computes_each_layers_class_probabilities_once(word_layers, share_final,
                                                                   monkeypatch):
    from iqner import heads

    spec = SyntheticSpec(sentences=4, vocab_size=20, min_length=5, max_length=9, type_count=3,
                         nesting_ratio=0.3, max_entities=3)
    examples, meta = generate_synthetic(spec, seed=3)
    config = ModelConfig(hidden=32, queries=12, base_layers=1, word_layers=word_layers, heads=4,
                         vocab_size=meta.vocab_size, max_len=9, type_count=meta.type_count,
                         seed=2)
    model = Model(config)
    batch = [meta.encode(ex.tokens) for ex in examples]
    golds = gold_arrays(examples, meta.type_count, config.queries, static=False)
    assert all(map(len, golds)) and len({len(ids) for ids in batch}) > 1  # all solved, padded
    softmax = heads.row_softmax
    calls = []
    monkeypatch.setattr(heads, "row_softmax", lambda x: calls.append(np.shape(x)) or softmax(x))
    training.train_step(model, batch, golds, AdamOptimizer(model),
                        TrainConfig(batch_size=4, share_final_assignment=share_final),
                        np.random.default_rng(0), 1e-3)
    assert calls == [(4, config.queries, meta.type_count + 1)] * word_layers  # one per layer

    _, head_outs = model.forward_batch(batch)
    for _, types in head_outs:
        for b in range(len(batch)):
            assert np.array_equal(types.sentence(b).probs, softmax(types.logits.data[b]).data)


# ---------------------------------------------------------------------------
# one graph per padded batch


def _random_labels(rng, lengths, queries, type_count, depth):
    """(L, B, M, 3) targets: a random span inside the sentence, or None."""
    def label(n):
        if rng.random() < 0.4:
            return None
        left = int(rng.integers(n))
        return EntityAnnotation(left, int(rng.integers(left, n)), int(rng.integers(type_count)))
    return _rows([[[label(n) for _ in range(queries)] for n in lengths] for _ in range(depth)],
                 type_count)


def test_batched_loss_and_gradients_equal_the_per_sentence_sum():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        heads = int(rng.choice([1, 2, 4]))
        config = ModelConfig(hidden=heads * int(rng.integers(2, 5)),
                             queries=int(rng.integers(1, 6)), base_layers=1,
                             word_layers=int(rng.integers(1, 3)), heads=heads, vocab_size=12,
                             max_len=10, type_count=int(rng.integers(1, 4)),
                             one_way=seed % 4 != 1, query_interaction=seed % 4 != 2, seed=seed)
        model = Model(config)
        for _, p in model.named_parameters():
            p.data[...] += rng.normal(0.0, 0.3, size=p.shape)
        lengths = [int(n) for n in rng.integers(1, 11, size=int(rng.integers(2, 5)))]
        lengths[0] = 10 if lengths[1] < 10 else 1  # unequal lengths, so some are padded
        batch = [rng.integers(0, 12, size=n) for n in lengths]
        labels = _random_labels(rng, lengths, config.queries, config.type_count,
                                config.word_layers)

        model.zero_grad()
        expected = 0.0
        for b, ids in enumerate(batch):
            _, head_outs = model.forward_batch([ids])
            loss = sentence_loss(head_outs, labels[:, b:b + 1], [len(ids)])
            backward(loss)
            expected += loss.item()
        per_sentence = {name: p.grad.copy() for name, p in model.named_parameters()}

        model.zero_grad()
        _, head_outs = model.forward_batch(batch)
        loss = sentence_loss(head_outs, labels, lengths)
        backward(loss)
        assert abs(loss.item() - expected) <= 1e-10 * abs(expected)
        for name, p in model.named_parameters():
            ref = per_sentence[name]
            assert np.max(np.abs(p.grad - ref)) <= 1e-10 * np.max(np.abs(ref)), name


def test_pad_columns_never_reach_decode_or_assignment():
    from iqner.assignment import compute_cost_matrix
    from iqner.heads import decode_entities
    from iqner.tensor import no_grad

    examples, meta, config = _tiny_fixture()
    model = Model(ModelConfig(**{**config.__dict__, "word_layers": 2}))
    batch = [meta.encode(ex.tokens)[:n] for ex, n in zip(examples, (3, 7, 5))]
    with no_grad():
        _, head_outs = model.forward_batch(batch)
    golds = [[EntityAnnotation(0, n - 1, 0), EntityAnnotation(n - 1, n - 1, 1)]
             for n in map(len, batch)]
    stack = np.array([[(e.left, e.right, e.type_id) for e in gold] for gold in golds])
    before = [compute_cost_matrix(scores, types, stack) for scores, types in head_outs]
    scores, types = head_outs[-1]
    decoded = [decode_entities(scores.sentence(b, len(ids)), types.sentence(b), 0.0, 0.0)
               for b, ids in enumerate(batch)]
    for layer_scores, _ in head_outs:
        for b, ids in enumerate(batch):
            left, right = layer_scores.left.data[b], layer_scores.right.data[b]
            assert not left[:, len(ids):].any() and not right[:, len(ids):].any()
            # make every pad the most probable boundary of every query
            left[:, len(ids):] = 1.0
            right[:, len(ids):] = 1.0
    after = [compute_cost_matrix(scores, types, stack) for scores, types in head_outs]
    for b, ids in enumerate(batch):
        n = len(ids)
        _, alone = model.forward(ids)
        for cost_before, cost_after, (s2, t2) in zip(before, after, alone):
            assert s2.left.shape == (config.queries, n)
            assert np.array_equal(cost_before[b], cost_after[b])
            assert np.allclose(cost_after[b], compute_cost_matrix(s2, t2, golds[b]),
                               rtol=0, atol=1e-12)
        predictions = decode_entities(scores.sentence(b, n), types.sentence(b), 0.0, 0.0)
        assert predictions == decoded[b]
        assert all(p.right < n for p in predictions)


def test_batch_graph_size_does_not_grow_with_the_batch():
    from iqner.tensor import topological_order

    examples, meta, config = _tiny_fixture()
    model = Model(config)
    sizes = set()
    for size in (2, 4, 8):
        batch = [meta.encode(ex.tokens) for ex in examples[:size]]
        assert len({len(ids) for ids in batch}) > 1
        _, head_outs = model.forward_batch(batch)
        lengths = [len(ids) for ids in batch]
        labels = _random_labels(np.random.default_rng(size), lengths, config.queries,
                                config.type_count, config.word_layers)
        sizes.add(len(topological_order(sentence_loss(head_outs, labels, lengths))))
    assert len(sizes) == 1
