"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line. The learnability fixture is frozen:
corpus generator seed 11 (64 sentences, 4 types, nesting 0.3, lengths 8-16,
up to 8 entities), model h=32/B=1/L=2/M=12, training lr 6e-3, batch 4,
warmup 0.4, shared final-layer assignment, ratio 0.75.
"""

import math
import time

import numpy as np
import pytest

from iqner.assignment import QuantityVector, brute_force_lap, solve_one_to_many_lap
from iqner.cli import RunConfig
from iqner.data import EntityAnnotation, SyntheticSpec, generate_synthetic
from iqner.encoder import (
    EmbeddingTables,
    ModelConfig,
    TransformerLayer,
    build_input,
    encode,
)
from iqner.evaluation import evaluate_corpus, strict_match, subtask_metrics
from iqner.heads import BoundaryScores, Prediction, TypeDistribution, decode_entities
from iqner.tensor import Tensor, sigmoid
from iqner.training import (
    Model,
    TrainConfig,
    boundary_loss,
    classification_loss,
    evaluate_model,
    model_gradcheck,
    train,
)

GRADCHECK_SEEDS = 10
GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_TIME_BUDGET = 30.0

OVERFIT_MODEL_SEED = 2
ABLATION_EPOCHS = 40
ABLATION_SEEDS = 5


def _report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# shared learnability fixture (criteria 5 and 6)


def _fixture_corpus():
    spec = SyntheticSpec(sentences=64, vocab_size=40, min_length=8, max_length=16,
                         type_count=4, nesting_ratio=0.3, max_entities=8)
    return generate_synthetic(spec, seed=11)


def _fixture_model_config(meta, seed):
    return ModelConfig(hidden=32, queries=12, base_layers=1, word_layers=2, heads=4,
                       vocab_size=meta.vocab_size, max_len=16, type_count=meta.type_count,
                       seed=seed)


def _fixture_train_config(seed, epochs, mode="dynamic", quantity="one_to_many"):
    return TrainConfig(epochs=epochs, learning_rate=6e-3, batch_size=4, seed=seed,
                       warmup_fraction=0.4, ratio=0.75, assignment_mode=mode,
                       quantity_mode=quantity, share_final_assignment=True)


@pytest.fixture(scope="module")
def corpus():
    return _fixture_corpus()


def test_criterion_1_gradient_correctness():
    start = time.time()
    errors = [model_gradcheck(seed=s, eps=1e-5) for s in range(GRADCHECK_SEEDS)]
    elapsed = time.time() - start
    worst = max(errors)
    _report(
        1,
        worst < GRADCHECK_TOLERANCE and elapsed < GRADCHECK_TIME_BUDGET,
        f"max relative error {worst:.3e} (< 1e-4) over {GRADCHECK_SEEDS} seeds "
        f"in {elapsed:.1f}s (< {GRADCHECK_TIME_BUDGET:.0f}s)",
    )


def _word_states(config, tables, layers, ids):
    outputs = encode(build_input(ids, tables), len(ids), layers, config)
    return [w.data.copy() for w in outputs.word]


def test_criterion_2_one_way_invariance():
    kept = 0
    detected = 0
    seeds = range(20)
    for seed in seeds:
        rng = np.random.default_rng(1000 + seed)
        config = ModelConfig(hidden=16, queries=6, base_layers=1, word_layers=2, heads=2,
                             vocab_size=12, max_len=10, type_count=2, seed=seed)
        tables = EmbeddingTables.init(config, rng)
        layers = [TransformerLayer.init(config.hidden, rng)
                  for _ in range(config.base_layers + config.word_layers)]
        ids = rng.integers(0, config.vocab_size, size=int(rng.integers(3, 9)))
        before = _word_states(config, tables, layers, ids)
        tables.query.data[...] = rng.normal(0.0, 0.5, size=tables.query.shape)
        after = _word_states(config, tables, layers, ids)
        diff = max(np.max(np.abs(a - b)) for a, b in zip(before, after))
        if diff < 1e-9:
            kept += 1
        off = ModelConfig(hidden=16, queries=6, base_layers=1, word_layers=2, heads=2,
                          vocab_size=12, max_len=10, type_count=2, seed=seed,
                          one_way=False)
        before_off = _word_states(off, tables, layers, ids)
        tables.query.data[...] = rng.normal(0.0, 0.5, size=tables.query.shape)
        after_off = _word_states(off, tables, layers, ids)
        diff_off = max(np.max(np.abs(a - b)) for a, b in zip(before_off, after_off))
        if diff_off > 1e-6:
            detected += 1
    _report(
        2,
        kept == 20 and detected >= 19,
        f"one-way invariance held on {kept}/20 seeds (need 20); "
        f"disabled mask detected on {detected}/20 seeds (need >= 19)",
    )


def test_criterion_3_assignment_optimality():
    rng = np.random.default_rng(2024)
    start = time.time()
    worst_gap = 0.0
    for _ in range(200):
        while True:
            entities = int(rng.integers(1, 4))
            counts = rng.integers(1, 4, size=entities)
            if counts.sum() <= 8:
                break
        queries = int(rng.integers(counts.sum(), 9))
        quantities = QuantityVector(np.asarray(counts, dtype=np.int64))
        cost = rng.uniform(-3.0, 0.0, size=(queries, entities))
        fast = solve_one_to_many_lap(cost, quantities)
        slow = brute_force_lap(cost, quantities)
        worst_gap = max(worst_gap, abs(fast.total_cost - slow.total_cost))
        assert np.all(fast.matrix.sum(axis=1) <= 1)
        assert np.array_equal(fast.matrix.sum(axis=0), quantities.counts)
        assert np.all(fast.extended.sum(axis=1) == 1)
    elapsed = time.time() - start
    _report(
        3,
        worst_gap < 1e-12 and elapsed < 10.0,
        f"200 instances, worst optimality gap {worst_gap:.2e} (< 1e-12), "
        f"constraints satisfied, {elapsed:.1f}s (< 10s)",
    )


def _scores_from_probs(left, right):
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    return BoundaryScores(left_logits=Tensor(np.zeros_like(left)),
                          right_logits=Tensor(np.zeros_like(right)),
                          left=Tensor(left), right=Tensor(right))


def _peaked(n, idx, peak, floor=0.01):
    row = np.full(n, floor)
    row[idx] = peak
    return row


def test_criterion_4_hand_checked_fixtures():
    checks = []

    cost1 = np.array([[-0.9, -0.1], [-0.5, -0.6], [-0.2, -0.8]])
    r1 = solve_one_to_many_lap(cost1, QuantityVector(np.array([1, 1])))
    checks.append(abs(r1.total_cost + 1.7) < 1e-12 and list(r1.labels) == [0, 2, 1])

    cost2 = np.array([[-0.9], [-0.5], [-0.2]])
    r2 = solve_one_to_many_lap(cost2, QuantityVector(np.array([2])))
    checks.append(abs(r2.total_cost + 1.4) < 1e-12 and list(r2.labels) == [0, 0, 1])

    # dedup: two queries locate the same span, different types
    scores = _scores_from_probs(
        [_peaked(6, 2, 0.95), _peaked(6, 2, 0.9)],
        [_peaked(6, 4, 0.95), _peaked(6, 4, 0.9)],
    )
    types = TypeDistribution(logits=Tensor(np.zeros((2, 3))),
                             probs=np.array([[0.9, 0.05, 0.05], [0.05, 0.85, 0.10]]))
    preds = decode_entities(scores, types, 0.6, 0.8)
    checks.append(len(preds) == 1 and (preds[0].left, preds[0].right, preds[0].type_id)
                  == (2, 4, 0))

    # localization threshold 0.6: a 0.55 boundary is filtered out
    weak = _scores_from_probs([_peaked(4, 1, 0.55)], [_peaked(4, 2, 0.99)])
    strong_type = TypeDistribution(logits=Tensor(np.zeros((1, 3))),
                                   probs=np.array([[0.95, 0.03, 0.02]]))
    checks.append(decode_entities(weak, strong_type, 0.6, 0.8) == [])

    # classification threshold 0.8
    confident = _scores_from_probs([_peaked(4, 1, 0.9)], [_peaked(4, 2, 0.9)])
    tepid_type = TypeDistribution(logits=Tensor(np.zeros((1, 3))),
                                  probs=np.array([[0.79, 0.11, 0.10]]))
    checks.append(decode_entities(confident, tepid_type, 0.6, 0.8) == [])
    checks.append(len(decode_entities(confident, strong_type, 0.6, 0.8)) == 1)

    # evaluation fixture
    gold = [EntityAnnotation(0, 1, 0), EntityAnnotation(3, 5, 1)]
    preds = [Prediction(0, 0, 1, 0, 0.9, 0.9, 0.9), Prediction(1, 3, 5, 0, 0.9, 0.9, 0.9)]
    ner = strict_match(preds, gold)
    loc, cls = subtask_metrics(preds, gold)
    checks.append(ner.precision == 0.5 and ner.recall == 0.5 and ner.f1 == 0.5)
    checks.append(loc.f1 == 1.0 and cls.f1 == 0.5)

    _report(4, all(checks), f"{sum(checks)}/{len(checks)} hand-checked fixtures exact")


@pytest.fixture(scope="module")
def overfit_run(corpus):
    examples, meta = corpus
    model = Model(_fixture_model_config(meta, OVERFIT_MODEL_SEED))
    config = _fixture_train_config(OVERFIT_MODEL_SEED, epochs=300)
    start = time.time()
    history = train(model, examples, meta, config, stop_f1=0.995)
    elapsed = time.time() - start
    report, _ = evaluate_model(model, examples, meta, 0.6, 0.8)
    return model, meta, history, elapsed, report


def test_criterion_5_learnability(overfit_run):
    _, _, history, elapsed, report = overfit_run
    f1 = report.ner.f1
    loss_ratio = history[-1]["loss"] / history[0]["loss"]
    _report(
        5,
        f1 >= 0.95 and len(history) <= 300 and elapsed < 300.0 and loss_ratio < 0.05,
        f"train strict F1 {f1:.4f} (>= 0.95) after {len(history)} epochs (<= 300) "
        f"in {elapsed:.0f}s (< 300s); final/initial loss {loss_ratio:.4f} (< 0.05)",
    )


def test_criterion_6_ablation_direction(corpus):
    examples, meta = corpus
    modes = {
        "one_to_many": ("dynamic", "one_to_many"),
        "one_to_one": ("dynamic", "one_to_one"),
        "static": ("static", "one_to_many"),
    }
    results = {name: [] for name in modes}
    for seed in range(ABLATION_SEEDS):
        for name, (mode, quantity) in modes.items():
            model = Model(_fixture_model_config(meta, seed))
            config = _fixture_train_config(seed, ABLATION_EPOCHS, mode, quantity)
            train(model, examples, meta, config)
            report, _ = evaluate_model(model, examples, meta, 0.6, 0.8)
            results[name].append(report.ner.f1)
    means = {name: float(np.mean(v)) for name, v in results.items()}
    strict_top = sum(
        1 for i in range(ABLATION_SEEDS)
        if results["one_to_many"][i] > max(results["one_to_one"][i], results["static"][i])
    )
    ordered = (means["one_to_many"] >= means["one_to_one"] >= means["static"])
    _report(
        6,
        ordered and strict_top >= 3,
        f"means one-to-many {means['one_to_many']:.3f} >= one-to-one "
        f"{means['one_to_one']:.3f} >= static {means['static']:.3f}; "
        f"one-to-many strictly highest on {strict_top}/{ABLATION_SEEDS} seeds (need >= 3)",
    )


def test_criterion_7_default_conformance():
    snapshot = RunConfig().snapshot()
    expected = {
        "queries": 60,
        "assignable_total": 45,
        "ratio": 0.75,
        "word_layers": 5,
        "loc_threshold": 0.6,
        "cls_threshold": 0.8,
        "query_init_std": 0.02,
    }
    _report(7, snapshot == expected, f"config snapshot {snapshot}")


def test_criterion_8_closed_form_losses():
    n, m, classes = 9, 7, 5  # four types plus None
    scores = BoundaryScores(
        left_logits=Tensor(np.zeros((m, n))),
        right_logits=Tensor(np.zeros((m, n))),
        left=sigmoid(Tensor(np.zeros((m, n)))),
        right=sigmoid(Tensor(np.zeros((m, n)))),
    )
    none = (-1, -1, classes - 1)
    targets = np.array([(2, 5, 0)] + [none] * (m - 1))
    b = boundary_loss(scores, targets, n).item()
    boundary_ok = abs(b - 2 * n * math.log(2)) < 1e-9

    types = TypeDistribution(logits=Tensor(np.zeros((m, classes))),
                             probs=np.full((m, classes), 1.0 / classes))
    t = classification_loss(types, np.array([none] * m)).item()
    classification_ok = abs(t - m * math.log(classes)) < 1e-9
    _report(
        8,
        boundary_ok and classification_ok,
        f"boundary {b:.12f} vs 2N ln2 {2 * n * math.log(2):.12f}; "
        f"classification {t:.12f} vs M ln C {m * math.log(classes):.12f}",
    )


def test_overfit_checkpoint_evaluates_high_via_cli(overfit_run, tmp_path, capsys):
    """The trained artifact round-trips through the CLI at F1 >= 0.95."""
    import json

    from iqner.cli import main
    from iqner.data import save_dataset
    from iqner.training import save_checkpoint

    model, meta, _, _, _ = overfit_run
    examples, _ = _fixture_corpus()
    data_path = tmp_path / "fixture.jsonl"
    ckpt_path = tmp_path / "overfit.npz"
    save_dataset(data_path, examples, meta)
    save_checkpoint(ckpt_path, model, meta)
    assert main(["eval", "--checkpoint", str(ckpt_path), "--data", str(data_path)]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["ner"]["f1"] >= 0.95
