"""Model assembly, losses with per-layer supervision, and the training loop.

Each word-level layer carries its own pointer/classifier heads. A training
step encodes its mini-batch as one padded batch and builds one autodiff
graph for it. Each layer's matching costs are gathered for the whole batch
at the sentences' (G, 3) gold rows, every (sentence, layer) instance is
solved in one lockstep call (or labeled statically in the ablation), and
the owners index the gold rows into the loss targets. Boundary and
classification losses are summed over layers and sentences, and the sum is
averaged per batch. Inference, ``Model.predict``, decodes the final layer
only, lazily, each sentence as a batch of one.
"""

from __future__ import annotations

import io
import json
import math
import os
import zipfile
from dataclasses import asdict, dataclass
from itertools import product
from typing import Iterable, Iterator, Literal, get_args, get_type_hints

import numpy as np

from .assignment import (
    QuantityVector,
    allocate_quantities,
    compute_cost_matrix,
    gold_array,
    solve_one_to_many_lap,
)
from .data import (AnnotationError, DatasetMeta, EntityAnnotation, SentenceExample, require,
                   require_fraction)
from .encoder import (
    EmbeddingTables,
    LayerOutputs,
    ModelConfig,
    TransformerLayer,
    build_input,
    encode,
    pad_batch,
)
from .evaluation import EvalReport, evaluate_corpus
from .heads import (
    BoundaryScores,
    LayerHeads,
    Prediction,
    TypeDistribution,
    boundary_pointer,
    decode_entities,
    entity_classifier,
)
from .tensor import (
    DimensionError,
    NumericError,
    ParameterLayout,
    Tensor,
    add,
    backward,
    bce_with_logits,
    grad_check_stacked,
    mul,
    no_grad,
    softmax_cross_entropy,
)

CHECKPOINT_FORMAT = "iqner-checkpoint-v2"
# The type of each ModelConfig field, which a checkpoint's config value must have.
CONFIG_HINTS = get_type_hints(ModelConfig)
GRADCHECK_EPS = 1e-5

AssignmentMode = Literal["dynamic", "static"]
QuantityMode = Literal["one_to_many", "one_to_one"]


class CheckpointError(ValueError):
    """Unreadable or incompatible checkpoint file."""


@dataclass
class TrainConfig:
    """Optimization and label-assignment settings."""

    epochs: int = 50
    learning_rate: float = 4e-3
    warmup_fraction: float = 0.1
    batch_size: int = 8
    seed: int = 0
    loc_threshold: float = 0.6
    cls_threshold: float = 0.8
    assignment_mode: AssignmentMode = "dynamic"
    quantity_mode: QuantityMode = "one_to_many"
    ratio: float = 0.75
    share_final_assignment: bool = False
    max_grad_norm: float | None = None

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            require(self, name, getattr(self, name) >= 1, ">= 1")
        for name in ("loc_threshold", "cls_threshold", "warmup_fraction"):
            require_fraction(name, getattr(self, name))
        require(self, "ratio", 0.0 < self.ratio <= 1.0, "in (0, 1]")
        require(self, "learning_rate", 0.0 <= self.learning_rate < math.inf, "finite and >= 0")
        require(self, "max_grad_norm",
                self.max_grad_norm is None or 0.0 < self.max_grad_norm < math.inf,
                "None or finite and > 0")
        require(self, "seed", self.seed >= 0, ">= 0")
        for name, hint in (("assignment_mode", AssignmentMode), ("quantity_mode", QuantityMode)):
            require(self, name, getattr(self, name) in get_args(hint), " or ".join(get_args(hint)))


class Model:
    """Embedding tables, encoder layers, and per-layer prediction heads.

    Every parameter's ``data`` and ``grad`` view one vector each, ``theta``
    and ``grad``, laid out in ``named_parameters()`` order. They are drawn
    from ``rng`` (by default seeded with the config's seed) into a float64
    ``theta``, or the model is built on a given ``theta`` as it is, drawing
    nothing. Unless ``trainable``, it has no ``grad`` (None) and its
    parameters are untracked values, fit only to decode with.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None,
                 theta: np.ndarray | None = None, trainable: bool = True):
        new = ParameterLayout()
        self.config = config
        self.tables = EmbeddingTables.declare(config, new)
        self.layers = [
            TransformerLayer.declare(config.hidden, new)
            for _ in range(config.base_layers + config.word_layers)
        ]
        self.heads = [
            LayerHeads.declare(config.hidden, config.type_count, new)
            for _ in range(config.word_layers)
        ]
        if theta is None and rng is None:
            rng = np.random.default_rng(config.seed)
        self.theta, self.grad = new.place([p for _, p in self.named_parameters()], rng, theta,
                                          trainable)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = self.tables.named("emb")
        for i, layer in enumerate(self.layers):
            out += layer.named(f"layer{i}")
        for i, heads in enumerate(self.heads):
            out += heads.named(f"head{i}")
        return out

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def encode(self, batch) -> LayerOutputs:
        """Encode the sentences (token id arrays) as one padded batch."""
        ids, lengths = pad_batch(batch)
        return encode(build_input(ids, self.tables), lengths, self.layers, self.config)

    def forward_batch(
        self, batch
    ) -> tuple[LayerOutputs, list[tuple[BoundaryScores, TypeDistribution]]]:
        """Encode a padded batch and run every word-level layer's heads on it."""
        outputs = self.encode(batch)
        head_outs = [_run_heads(h_q, h_w, heads, outputs.word_mask)
                     for h_w, h_q, heads in zip(outputs.word, outputs.query, self.heads)]
        return outputs, head_outs

    def forward(
        self, token_ids
    ) -> tuple[LayerOutputs, list[tuple[BoundaryScores, TypeDistribution]]]:
        """One sentence as a batch of one: its encodings, and each layer's
        (M, N) head outputs off the graph, as assignment and decode read them."""
        outputs, head_outs = self.forward_batch([token_ids])
        return outputs, [(scores.sentence(0, len(token_ids)), types.sentence(0))
                         for scores, types in head_outs]

    def predict(self, sentences: Iterable[np.ndarray], loc_threshold: float,
                cls_threshold: float) -> Iterator[list[Prediction]]:
        """Yield each sentence's entities, decoded from the final layer, the
        only one whose heads run. ``sentences`` holds token id arrays; each is
        encoded, as a batch of one, only when its predictions are asked for.

        The encoder and the heads compute in float32, on a copy of
        ``theta`` made once per call without a ``grad`` vector; only the
        class softmax is float64 (``entity_classifier``). A probability
        agrees with the float64 ``forward`` to about 1e-6."""
        model = Model(self.config, theta=self.theta.astype(np.float32), trainable=False)
        for token_ids in sentences:
            with no_grad():
                outputs = model.encode([token_ids])
                scores, types = _run_heads(outputs.query[-1], outputs.word[-1], model.heads[-1])
            yield decode_entities(scores.sentence(0, len(token_ids)), types.sentence(0),
                                  loc_threshold, cls_threshold)


def _run_heads(h_q, h_w, heads: LayerHeads,
               word_mask: np.ndarray | None = None) -> tuple[BoundaryScores, TypeDistribution]:
    scores = boundary_pointer(h_q, h_w, heads, word_mask)
    return scores, entity_classifier(h_q, h_w, scores, heads)


# ---------------------------------------------------------------------------
# losses
#
# Each loss takes one sentence's (M, N) outputs with its (M, 3) targets and
# length, or a padded batch's (B, M, N) outputs with (B, M, 3) targets and a
# list of lengths, one per sentence. A target row is the query's label,
# (left, right, type), or (-1, -1, type_count) for None. With
# ``per_sentence`` a batch's loss is one sum per sentence, (B,), not one total.


def boundary_loss(scores: BoundaryScores, targets: np.ndarray, sentence_length,
                  per_sentence: bool = False) -> Tensor:
    """Binary cross entropy of both boundary maps against one-hot targets.

    Only real words count. Queries labeled None carry no boundary target and
    are excluded; the classification loss alone supervises them.
    """
    n = scores.left_logits.shape[-1]
    lengths = np.asarray(sentence_length)[..., None, None]
    if n != lengths.max():
        raise AnnotationError(f"scores cover {n} words, the longest sentence has {lengths.max()}")
    labeled = targets[..., 0] >= 0
    if not labeled.any():
        return Tensor(np.zeros(lengths.size) if per_sentence else 0.0)
    words = np.arange(n)
    mask = (labeled[..., None] & (words < lengths)).astype(np.float64)
    left_target = (targets[..., 0, None] == words).astype(np.float64)
    right_target = (targets[..., 1, None] == words).astype(np.float64)
    return add(bce_with_logits(scores.left_logits, left_target, mask, per_item=per_sentence),
               bce_with_logits(scores.right_logits, right_target, mask, per_item=per_sentence))


def classification_loss(types: TypeDistribution, targets: np.ndarray,
                        per_sentence: bool = False) -> Tensor:
    """Cross entropy over the type inventory plus None, summed over queries."""
    one_hot = (targets[..., 2, None] == np.arange(types.logits.shape[-1])).astype(np.float64)
    return softmax_cross_entropy(types.logits, one_hot, per_item=per_sentence)


def sentence_loss(
    head_outs: list[tuple[BoundaryScores, TypeDistribution]],
    targets: np.ndarray,
    sentence_length,
    per_sentence: bool = False,
) -> Tensor:
    """Total loss of a sentence or a padded batch: boundary + classification
    at every layer. ``targets[layer]`` is what the two losses take."""
    total: Tensor | None = None
    for (scores, types), layer_targets in zip(head_outs, targets):
        layer_total = add(boundary_loss(scores, layer_targets, sentence_length, per_sentence),
                          classification_loss(types, layer_targets, per_sentence))
        total = layer_total if total is None else add(total, layer_total)
    assert total is not None
    return total


# ---------------------------------------------------------------------------
# label assignment orchestration


def gold_arrays(examples: list[SentenceExample], type_count: int, query_count: int,
                static: bool) -> list[np.ndarray]:
    """Each sentence's gold as ``gold_array`` rows, checked once for the corpus:
    an AnnotationError names the first sentence with a bad entity. The rows
    keep the given order, except in ``static`` mode and in a sentence of more
    than ``query_count`` entities, which keep the first ``query_count`` in
    occurrence order."""
    golds = []
    for s, example in enumerate(examples):
        try:
            gold = gold_array(example.entities, len(example), type_count)
        except AnnotationError as err:
            raise AnnotationError(f"sentence {s}: {err}") from None
        if static or len(gold) > query_count:
            gold = gold[np.lexsort(gold.T[::-1])][:query_count]  # by (left, right, type)
        golds.append(gold)
    return golds


def assign_labels(
    head_outs: list[tuple[BoundaryScores, TypeDistribution]],
    golds: list[np.ndarray],
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[list[float | None]]]:
    """The (L, B, M, 3) loss targets of a padded batch's queries under the
    configured scheme, and the optimal total cost of each solved (sentence,
    layer), None where nothing was solved.

    ``head_outs`` holds each layer's (B, M, N) outputs and ``golds`` each
    sentence's rows from ``gold_arrays``. Dynamic mode matches each layer's
    own predictions (or reuses the final layer's matching when
    ``share_final_assignment``); static mode hands row k to query k. The
    quantities are drawn in (sentence, layer) order, each solved layer's
    costs are one gather over the batch, and every instance is solved in one
    lockstep call. A query's target is its owner's row, or the None row.
    """
    types = head_outs[-1][1]
    batch, queries, _ = types.probs.shape
    depth = len(head_outs)
    sizes = [len(gold) for gold in golds]
    # row k < G of sentence b is its gold entity k, and every later row is None
    table = np.full((batch, queries + 1, 3), [-1, -1, types.none_id])
    for rows, gold in zip(table, golds):
        rows[:len(gold)] = gold
    owner = np.full((depth, batch, queries), queries)
    matched: list[list[float | None]] = [[None] * depth for _ in golds]
    solved = [b for b, size in enumerate(sizes) if size]
    if config.assignment_mode == "static":
        owner[:] = np.arange(queries)
    elif solved:
        layers = [depth - 1] if config.share_final_assignment else list(range(depth))
        instances = list(product(solved, layers))
        counts = np.zeros((len(instances), max(sizes)), dtype=np.int64)  # 0 past each G
        for row, (b, _) in zip(counts, instances):
            row[:sizes[b]] = (1 if config.quantity_mode == "one_to_one" else
                              allocate_quantities(sizes[b], queries, config.ratio, rng).counts)
        # the None rows past a sentence's own G gather costs that the solver ignores
        widest = table[:, :counts.shape[1]]
        cost = np.stack([compute_cost_matrix(*head_outs[layer], widest) for layer in layers], 1)
        owners, totals = solve_one_to_many_lap(
            cost[solved].reshape(len(instances), queries, -1), QuantityVector(counts))
        # a free query's owner is the stack's width, a None row of every
        # sentence; one layer's owners go to all layers when shared
        owner[:, solved] = owners.reshape(len(solved), len(layers), queries).swapaxes(0, 1)
        for (b, layer), total in zip(instances, totals.tolist()):
            matched[b][layer] = total
    return table[np.arange(batch)[:, None], owner], matched


# ---------------------------------------------------------------------------
# optimizer and schedule


class AdamOptimizer:
    """Adam over a model's ``theta``: a step is a few in-place whole-vector
    ops on it, its ``grad`` and the moments ``m`` and ``v``, laid out alike.
    A step consumes ``grad``: it is clipped in place and then holds the update."""

    def __init__(self, model: Model, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        if model.grad is None:
            raise ValueError("the model is not trainable; it was built to decode")
        self.params = model.named_parameters()
        self.theta, self.grad = model.theta, model.grad
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = np.zeros_like(self.theta)
        self.v = np.zeros_like(self.theta)
        self._scratch = np.zeros_like(self.theta)

    def step(self, lr: float, reached: list[Tensor], max_grad_norm: float | None = None) -> None:
        """One update; every parameter must be among the leaves ``reached``
        that ``backward`` returned, as a zero in ``grad`` may be no gradient."""
        reached_ids = {id(p) for p in reached}
        for name, p in self.params:
            if id(p) not in reached_ids:
                raise ValueError(f"parameter {name} has no gradient")
        self.step_count += 1
        g = self.grad
        if max_grad_norm is not None:
            norm = math.sqrt(float(g @ g))
            if norm > max_grad_norm:
                g *= max_grad_norm / norm
        bias1 = 1.0 - self.beta1 ** self.step_count
        bias2 = 1.0 - self.beta2 ** self.step_count
        m, v, tmp = self.m, self.v, self._scratch
        # m = beta1 * m + (1 - beta1) * g and v = beta2 * v + (1 - beta2) * (g * g)
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=tmp)
        m += tmp
        v *= self.beta2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - self.beta2
        v += tmp
        # theta -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
        np.divide(v, bias2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        np.divide(m, bias1, out=g)
        g *= lr
        g /= tmp
        self.theta -= g


def linear_warmup_decay(step: int, total_steps: int, peak: float,
                        warmup_fraction: float) -> float:
    """Ramp linearly to the peak rate, then decay linearly toward zero."""
    warmup = int(round(total_steps * warmup_fraction))
    if step < warmup:
        return peak * (step + 1) / warmup
    remaining = total_steps - warmup
    if remaining <= 0:
        return peak
    return peak * (1.0 - (step - warmup) / remaining)


# ---------------------------------------------------------------------------
# training loop


def train_step(
    model: Model,
    batch: list[np.ndarray],
    golds: list[np.ndarray],
    optimizer: AdamOptimizer,
    config: TrainConfig,
    rng: np.random.Generator,
    lr: float,
) -> tuple[float, list[list[Prediction]], list[list[float | None]]]:
    """One optimizer step on a mini-batch of encoded sentences and their gold
    rows (``gold_arrays``).

    Builds the batch graph, assigns labels, decodes the final layer, and
    runs backward and the Adam step. Returns the batch-mean loss, each
    sentence's predictions and its matched cost per layer (see
    ``assign_labels``); the graph dies with this call.
    """
    model.zero_grad()
    lengths = [len(ids) for ids in batch]
    _, head_outs = model.forward_batch(batch)
    targets, matched = assign_labels(head_outs, golds, config, rng)
    scores, types = head_outs[-1]
    predictions = [decode_entities(scores.sentence(b, length), types.sentence(b),
                                   config.loc_threshold, config.cls_threshold)
                   for b, length in enumerate(lengths)]
    batch_mean = mul(sentence_loss(head_outs, targets, lengths), 1.0 / len(batch))
    value = batch_mean.item()
    if not math.isfinite(value):
        raise NumericError("non-finite loss")
    optimizer.step(lr, backward(batch_mean), config.max_grad_norm)
    return value, predictions, matched


def train_epoch(
    model: Model,
    encoded: list[np.ndarray],
    golds: list[np.ndarray],
    entities: list[list[EntityAnnotation]],
    optimizer: AdamOptimizer,
    config: TrainConfig,
    rng: np.random.Generator,
    epoch: int,
    step_offset: int,
    total_steps: int,
) -> tuple[dict, int]:
    """One pass over seeded-shuffled batches; returns epoch metrics.

    ``golds`` holds each sentence's rows from ``gold_arrays``, and
    ``entities`` its whole gold, which the reported train F1 is scored
    against. That F1 is decoded from the final-layer outputs of the
    training forward passes (the model as it moves through the epoch).
    ``matched_cost`` holds, per word layer, the mean optimal assignment cost
    over the sentences solved at that layer, or None where none was.
    """
    order = rng.permutation(len(encoded))
    step = step_offset
    losses = []
    predictions: list[list[Prediction]] = [[] for _ in encoded]
    cost_sums = [0.0] * model.config.word_layers
    cost_counts = [0] * model.config.word_layers
    for start in range(0, len(order), config.batch_size):
        batch = order[start : start + config.batch_size]
        lr = linear_warmup_decay(step, total_steps, config.learning_rate, config.warmup_fraction)
        try:
            value, batch_predictions, matched = train_step(
                model, [encoded[idx] for idx in batch], [golds[idx] for idx in batch],
                optimizer, config, rng, lr)
        except NumericError as err:
            raise NumericError(f"{err} at epoch {epoch}, step {step}") from None
        for idx, sentence_predictions in zip(batch, batch_predictions):
            predictions[idx] = sentence_predictions
        for sentence_costs in matched:
            for layer, total in enumerate(sentence_costs):
                if total is not None:
                    cost_sums[layer] += total
                    cost_counts[layer] += 1
        losses.append(value)
        step += 1
    report = evaluate_corpus(predictions, entities)
    metrics = {
        "epoch": epoch,
        "loss": float(np.mean(losses)),
        "f1": report.ner.f1,
        "lr": lr,
        "matched_cost": [total / count if count else None
                         for total, count in zip(cost_sums, cost_counts)],
    }
    return metrics, step


def train(
    model: Model,
    examples: list[SentenceExample],
    meta: DatasetMeta,
    config: TrainConfig,
    on_epoch=None,
    stop_f1: float | None = None,
) -> list[dict]:
    """Full training run; deterministic given the config seed.

    Every sentence's gold is checked against the model's type inventory
    before the first step (``gold_arrays``). ``stop_f1`` optionally ends
    training early once the epoch's train F1 reaches the given value.
    """
    if not examples:
        raise ValueError("cannot train on an empty dataset")
    encoded = [meta.encode(ex.tokens) for ex in examples]
    golds = gold_arrays(examples, model.config.type_count, model.config.queries,
                        config.assignment_mode == "static")
    entities = [list(ex.entities) for ex in examples]
    rng = np.random.default_rng(config.seed)
    optimizer = AdamOptimizer(model)
    batches_per_epoch = math.ceil(len(examples) / config.batch_size)
    total_steps = config.epochs * batches_per_epoch
    history = []
    step = 0
    for epoch in range(config.epochs):
        metrics, step = train_epoch(
            model, encoded, golds, entities, optimizer, config, rng, epoch, step, total_steps
        )
        history.append(metrics)
        if on_epoch is not None:
            on_epoch(metrics)
        if stop_f1 is not None and metrics["f1"] >= stop_f1:
            break
    return history


def evaluate_model(
    model: Model,
    examples: list[SentenceExample],
    meta: DatasetMeta,
    loc_threshold: float,
    cls_threshold: float,
) -> tuple[EvalReport, list[list[Prediction]]]:
    """Decode every sentence at the final layer and score against gold."""
    predictions = list(model.predict((meta.encode(ex.tokens) for ex in examples),
                                     loc_threshold, cls_threshold))
    report = evaluate_corpus(predictions, [list(ex.entities) for ex in examples])
    return report, predictions


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(path, model: Model, meta: DatasetMeta) -> None:
    """Single-file archive of two members: ``header``, the JSON of the format
    tag, config and vocabulary, and ``parameters``, the model's ``theta``
    as it is.

    The archive is written to a temporary file beside ``path`` and then
    renamed onto it, so a save that fails leaves the old file as it was.
    Nothing resumes training, so the Adam moments are not written.
    """
    words = [None] * len(meta.vocab)
    for word, idx in meta.vocab.items():
        words[idx] = word
    header = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(model.config),
        "types": meta.types,
        "words": words,
    }
    directory, name = os.path.split(os.path.abspath(path))
    temporary = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as fh:
            np.savez(fh, header=np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
                     parameters=model.theta)
        os.replace(temporary, path)
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)


def _npy_member(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    """Array member ``name`` of an npz archive, read in one call, which checks
    its CRC once, and viewed where it was read, so it is read-only."""
    raw = archive.read(name)
    stream = io.BytesIO(raw)
    version = np.lib.format.read_magic(stream)
    if version != (1, 0):  # what np.savez writes for an array of a plain dtype
        raise ValueError(f"npy format version {version} is not supported")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(stream)
    if dtype.hasobject:  # numpy's own refusal: reading one needs pickle
        raise ValueError("Object arrays cannot be loaded when allow_pickle=False")
    array = np.frombuffer(raw, dtype, math.prod(shape), stream.tell())
    return array.reshape(shape[::-1]).T if fortran_order else array.reshape(shape)


def load_checkpoint(path) -> tuple[Model, DatasetMeta, None]:
    """Rebuild the model, on the file's parameter vector with no random
    init, and metadata, reading the archive's ``header`` and ``parameters``
    members and no other.

    The model is for decoding: it is not ``trainable``, and its ``theta``
    is the read-only vector read from the file. The third value, kept for
    callers that unpack three, is None.
    """
    try:
        fh = open(path, "rb")
    except OSError as err:  # missing, a directory or unreadable
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from None
    with fh:
        try:
            archive = zipfile.ZipFile(fh)
            members = set(archive.namelist())
        except (ValueError, EOFError, zipfile.BadZipFile):  # no zip archive
            members = set()
        if "header.npy" not in members:
            raise CheckpointError(f"{path} is not a model checkpoint")
        try:
            header = json.loads(_npy_member(archive, "header.npy").tobytes().decode("utf-8"))
        except (ValueError, EOFError, zipfile.BadZipFile) as err:  # unreadable or bad JSON
            raise CheckpointError(f"checkpoint header is not JSON: {err}") from None
        try:
            theta = _npy_member(archive, "parameters.npy") if "parameters.npy" in members else None
        except (ValueError, EOFError, zipfile.BadZipFile) as err:  # e.g. an object array
            raise CheckpointError(f"checkpoint parameters cannot be read: {err}") from None
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header must be a JSON object")
    if header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"unsupported checkpoint format {header.get('format')!r}")
    for key in ("config", "types", "words"):
        if key not in header:
            raise CheckpointError(f"checkpoint header has no {key!r}")
    settings = header["config"]
    if not isinstance(settings, dict):
        raise CheckpointError(f"checkpoint config must be a JSON object, got {settings!r}")
    unknown = set(settings) - set(CONFIG_HINTS)
    if unknown:
        raise CheckpointError(f"checkpoint config has unknown keys {sorted(unknown)}")
    for key, value in settings.items():
        if type(value) is not CONFIG_HINTS[key]:  # a bool is no int here
            raise CheckpointError(f"checkpoint config {key} is {value!r}, "
                                  f"expected {CONFIG_HINTS[key].__name__}")
    try:
        config = ModelConfig(**settings)
    except ValueError as err:
        raise CheckpointError(f"checkpoint config {err}") from None
    for key, size in (("types", config.type_count), ("words", config.vocab_size)):
        names = header[key]
        if not (isinstance(names, list) and all(isinstance(name, str) for name in names)
                and len(set(names)) == len(names) == size):
            raise CheckpointError(f"checkpoint {key} must be a list of {size} distinct "
                                  f"strings, as its config sets")
    if theta is None:
        raise CheckpointError("checkpoint has no parameters")
    if theta.dtype != np.float64:  # what save_checkpoint writes
        raise CheckpointError(f"checkpoint parameters have dtype {theta.dtype}, expected float64")
    try:
        model = Model(config, theta=theta, trainable=False)
    except DimensionError as err:
        raise CheckpointError(f"checkpoint {err}") from None
    if not np.isfinite(theta).all():
        name = next(name for name, p in model.named_parameters() if not np.isfinite(p.data).all())
        raise CheckpointError(f"checkpoint parameter {name} holds non-finite values")
    meta = DatasetMeta(types=header["types"],
                       vocab={word: idx for idx, word in enumerate(header["words"])})
    return model, meta, None


# ---------------------------------------------------------------------------
# full-loss gradient verification


def model_gradcheck(seed: int, eps: float = GRADCHECK_EPS, inject_error: bool = False) -> float:
    """Max relative error of the full multi-layer loss over every parameter.

    The model has 3 words, 2 queries, 2 types, h=8, one head, one base and
    two word layers. The label assignment is computed once at the evaluation
    point and then frozen: within a training step the assignment is a
    constant, and freezing it keeps the checked function smooth. Parameters
    are resampled to a generic O(1) scale so no coordinate sits at the
    finite-difference noise floor. ``inject_error`` adds a value-only
    dependence on one parameter (a deliberately missing gradient rule) as a
    negative control.

    The checked function is the training loss itself, ``sentence_loss`` of
    ``Model.forward_batch``. Every perturbation of one parameter is one
    sentence of a single batched forward (``grad_check_stacked``).
    """
    tokens, queries, type_count = 3, 2, 2
    rng = np.random.default_rng(seed)
    config = ModelConfig(hidden=8, queries=queries, base_layers=1, word_layers=2, heads=1,
                         vocab_size=tokens + 2, max_len=tokens, type_count=type_count, seed=seed)
    model = Model(config, rng)
    for name, p in model.named_parameters():
        if name.endswith("gamma"):
            p.data[...] = 1.0 + rng.normal(0.0, 0.2, size=p.shape)
        else:
            p.data[...] = rng.normal(0.0, 0.35, size=p.shape)
    token_ids = rng.integers(2, config.vocab_size, size=tokens)
    gold = np.array([(0, tokens - 1, rng.integers(type_count)), (1, 1, rng.integers(type_count))])
    _, head_outs = model.forward_batch([token_ids])
    targets, _ = assign_labels(head_outs, [gold], TrainConfig(seed=seed),
                               np.random.default_rng(seed))

    def loss(copies: int) -> Tensor:
        _, head_outs = model.forward_batch([token_ids] * copies)
        total = sentence_loss(head_outs, targets.repeat(copies, axis=1), [tokens] * copies,
                              per_sentence=True)
        if inject_error:
            total = add(total, Tensor(0.05 * model.layers[0].wq.data.sum(axis=(-2, -1))))
        return total

    return max(grad_check_stacked(loss, p, eps) for _, p in model.named_parameters())
