"""Command-line surface: train, eval, predict, gradcheck, datagen, stats.

Machine-readable output is line-delimited JSON on stdout; diagnostics go to
stderr. Exit codes: 0 success, 1 failed verification, 2 usage/validation
errors, 3 numeric divergence. Flags override the config file (JSON, field
names as below), which overrides built-in defaults; the PIQN_CONFIG
environment variable names a default config file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .data import (
    DatasetError,
    AnnotationError,
    DatasetMeta,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    load_meta,
    save_dataset,
    save_meta,
)
from .encoder import QUERY_INIT_STD, ModelConfig
from .evaluation import query_affinity_stats
from .tensor import NumericError
from .training import (
    AdamOptimizer,
    CheckpointError,
    Model,
    TrainConfig,
    evaluate_model,
    load_checkpoint,
    model_gradcheck,
    save_checkpoint,
    train,
)

GRADCHECK_TOLERANCE = 1e-4


class UsageError(ValueError):
    """Bad flags, config, or input files."""


@dataclass
class RunConfig:
    """Merged model/training/path settings driving every command."""

    hidden: int = 64
    queries: int = 60
    base_layers: int = 1
    word_layers: int = 5
    heads: int = 4
    max_len: int = 64
    one_way: bool = True
    query_interaction: bool = True
    epochs: int = 50
    learning_rate: float = 4e-3
    warmup_fraction: float = 0.1
    batch_size: int = 8
    seed: int = 0
    loc_threshold: float = 0.6
    cls_threshold: float = 0.8
    assignment_mode: str = "dynamic"
    quantity_mode: str = "one_to_many"
    ratio: float = 0.75
    share_final_assignment: bool = False
    max_grad_norm: float | None = None
    train_path: str | None = None
    dev_path: str | None = None
    meta_path: str | None = None
    checkpoint: str | None = None
    out: str | None = None

    @property
    def assignable_total(self) -> int:
        return int(np.floor(self.queries * self.ratio + 0.5))

    def snapshot(self) -> dict:
        """Structural defaults, including derived quantities."""
        return {
            "queries": self.queries,
            "assignable_total": self.assignable_total,
            "ratio": self.ratio,
            "word_layers": self.word_layers,
            "loc_threshold": self.loc_threshold,
            "cls_threshold": self.cls_threshold,
            "query_init_std": QUERY_INIT_STD,
        }

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            warmup_fraction=self.warmup_fraction,
            batch_size=self.batch_size,
            seed=self.seed,
            loc_threshold=self.loc_threshold,
            cls_threshold=self.cls_threshold,
            assignment_mode=self.assignment_mode,
            quantity_mode=self.quantity_mode,
            ratio=self.ratio,
            share_final_assignment=self.share_final_assignment,
            max_grad_norm=self.max_grad_norm,
        )

    def model_config(self, vocab_size: int, type_count: int, max_len: int) -> ModelConfig:
        return ModelConfig(
            hidden=self.hidden,
            queries=self.queries,
            base_layers=self.base_layers,
            word_layers=self.word_layers,
            heads=self.heads,
            vocab_size=vocab_size,
            max_len=max_len,
            type_count=type_count,
            one_way=self.one_way,
            query_interaction=self.query_interaction,
            seed=self.seed,
        )


_FIELD_NAMES = {f.name for f in dataclasses.fields(RunConfig)}

_FLAG_TO_FIELD = {
    "seed": "seed",
    "queries": "queries",
    "ratio": "ratio",
    "layers": "word_layers",
    "base_layers": "base_layers",
    "hidden": "hidden",
    "heads": "heads",
    "max_len": "max_len",
    "assignment_mode": "assignment_mode",
    "quantity_mode": "quantity_mode",
    "one_way": "one_way",
    "query_interaction": "query_interaction",
    "loc_threshold": "loc_threshold",
    "cls_threshold": "cls_threshold",
    "epochs": "epochs",
    "lr": "learning_rate",
    "warmup": "warmup_fraction",
    "batch_size": "batch_size",
    "share_final_assignment": "share_final_assignment",
    "max_grad_norm": "max_grad_norm",
    "train": "train_path",
    "dev": "dev_path",
    "meta": "meta_path",
    "checkpoint": "checkpoint",
    "out": "out",
}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    onoff = {"on": True, "off": False}
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--queries", type=int, default=None, help="instance query count")
    parser.add_argument("--ratio", type=float, default=None,
                        help="assignable fraction of the query budget")
    parser.add_argument("--layers", type=int, default=None, help="word-level layers")
    parser.add_argument("--base-layers", type=int, default=None, dest="base_layers")
    parser.add_argument("--hidden", type=int, default=None)
    parser.add_argument("--heads", type=int, default=None)
    parser.add_argument("--max-len", type=int, default=None, dest="max_len")
    parser.add_argument("--assignment-mode", choices=["dynamic", "static"],
                        default=None, dest="assignment_mode")
    parser.add_argument("--quantity-mode", choices=["one-to-many", "one-to-one"],
                        default=None, dest="quantity_mode")
    parser.add_argument("--one-way", choices=list(onoff), default=None, dest="one_way")
    parser.add_argument("--query-interaction", choices=list(onoff), default=None,
                        dest="query_interaction")
    parser.add_argument("--loc-threshold", type=float, default=None, dest="loc_threshold")
    parser.add_argument("--cls-threshold", type=float, default=None, dest="cls_threshold")
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--lr", type=float, default=None)
    parser.add_argument("--warmup", type=float, default=None)
    parser.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    parser.add_argument("--share-final-assignment", action="store_const", const=True,
                        default=None, dest="share_final_assignment")
    parser.add_argument("--max-grad-norm", type=float, default=None, dest="max_grad_norm")
    parser.add_argument("--out", default=None)


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then explicit flags."""
    values: dict = {}
    config_path = getattr(args, "config", None) or os.environ.get("PIQN_CONFIG")
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise UsageError(f"cannot read config {config_path}: {err}") from None
        unknown = set(file_values) - _FIELD_NAMES
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        values.update(file_values)
    for flag, field in _FLAG_TO_FIELD.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        if field in ("one_way", "query_interaction"):
            value = value == "on" if isinstance(value, str) else bool(value)
        if field == "quantity_mode" and isinstance(value, str):
            value = value.replace("-", "_")
        values[field] = value
    try:
        return RunConfig(**values)
    except TypeError as err:
        raise UsageError(str(err)) from None


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _load_examples(path, meta):
    try:
        return load_dataset(path, meta=meta)
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}") from None
    except (DatasetError, AnnotationError) as err:
        raise UsageError(str(err)) from None


def cmd_train(config: RunConfig) -> int:
    if not config.train_path:
        raise UsageError("--train PATH is required")
    meta = None
    if config.meta_path:
        try:
            meta = DatasetMeta(types=load_meta(config.meta_path), vocab={})
        except (OSError, DatasetError) as err:
            raise UsageError(str(err)) from None
        examples, _ = _load_examples(config.train_path, meta)
        meta = DatasetMeta.build(examples, types=meta.types)
    else:
        examples, meta = _load_examples(config.train_path, None)
    if not examples:
        raise UsageError(f"training file {config.train_path} is empty")
    longest = max(len(ex) for ex in examples)
    model_config = config.model_config(
        vocab_size=meta.vocab_size,
        type_count=meta.type_count,
        max_len=max(config.max_len, longest),
    )
    model = Model(model_config)
    optimizer = AdamOptimizer(model.named_parameters())
    train(model, examples, meta, config.train_config(), on_epoch=_emit,
          optimizer=optimizer)
    out = config.out or "model.npz"
    save_checkpoint(out, model, meta, optimizer)
    if config.dev_path:
        dev_examples, _ = _load_examples(config.dev_path, meta)
        report, _ = evaluate_model(model, dev_examples, meta,
                                   config.loc_threshold, config.cls_threshold)
        _emit({"dev": report.to_dict()})
    print(f"checkpoint written to {out}", file=sys.stderr)
    return 0


def _load_checkpoint_validated(config: RunConfig) -> tuple[Model, DatasetMeta]:
    if not config.checkpoint:
        raise UsageError("--checkpoint PATH is required")
    try:
        model, meta, _ = load_checkpoint(config.checkpoint)
    except FileNotFoundError:
        raise UsageError(f"no such checkpoint: {config.checkpoint}") from None
    except CheckpointError as err:
        raise UsageError(str(err)) from None
    return model, meta


def _check_override_consistency(args: argparse.Namespace, model: Model) -> None:
    """Explicit structural flags must match the checkpoint they evaluate."""
    for flag, field in (("queries", "queries"), ("hidden", "hidden"),
                        ("layers", "word_layers"), ("base_layers", "base_layers")):
        requested = getattr(args, flag, None)
        if requested is not None and requested != getattr(model.config, field):
            raise UsageError(
                f"--{flag.replace('_', '-')} {requested} does not match the checkpoint's "
                f"{field} = {getattr(model.config, field)}"
            )


def cmd_eval(config: RunConfig, args: argparse.Namespace) -> int:
    model, meta = _load_checkpoint_validated(config)
    _check_override_consistency(args, model)
    if not getattr(args, "data", None):
        raise UsageError("--data PATH is required")
    examples, _ = _load_examples(args.data, meta)
    report, _ = evaluate_model(model, examples, meta,
                               config.loc_threshold, config.cls_threshold)
    _emit(report.to_dict())
    return 0


def cmd_predict(config: RunConfig, args: argparse.Namespace) -> int:
    model, meta = _load_checkpoint_validated(config)
    _check_override_consistency(args, model)
    if not getattr(args, "input", None):
        raise UsageError("--input PATH is required")
    examples, _ = _load_examples(args.input, meta)
    for ex in examples:
        predictions = model.predict(meta.encode(ex.tokens),
                                    config.loc_threshold, config.cls_threshold)
        _emit({
            "entities": [
                {"start": p.left, "end": p.right, "type": meta.types[p.type_id],
                 "score": p.type_prob}
                for p in predictions
            ],
            "query_ids": [p.query_id for p in predictions],
        })
    return 0


def cmd_stats(config: RunConfig, args: argparse.Namespace) -> int:
    model, meta = _load_checkpoint_validated(config)
    _check_override_consistency(args, model)
    if not getattr(args, "data", None):
        raise UsageError("--data PATH is required")
    examples, _ = _load_examples(args.data, meta)
    per_sentence = []
    for ex in examples:
        predictions = model.predict(meta.encode(ex.tokens),
                                    config.loc_threshold, config.cls_threshold)
        per_sentence.append((predictions, len(ex)))
    stats = query_affinity_stats(per_sentence, model.config.queries, meta.type_count)
    stats["types"] = meta.types
    _emit(stats)
    return 0


def cmd_gradcheck(config: RunConfig, args: argparse.Namespace) -> int:
    eps = args.eps
    if eps is None:
        eps = 1e-5
    if not eps > 0:
        raise UsageError(f"--eps must be positive, got {eps}")
    if args.seeds < 1:
        raise UsageError("--seeds must be at least 1")
    errors = []
    for seed in range(args.seeds):
        errors.append(model_gradcheck(seed=seed, eps=eps, inject_error=args.inject_error))
    worst = max(errors)
    _emit({
        "max_relative_error": worst,
        "per_seed": errors,
        "tolerance": GRADCHECK_TOLERANCE,
        "passed": worst < GRADCHECK_TOLERANCE,
    })
    return 0 if worst < GRADCHECK_TOLERANCE else 1


def cmd_datagen(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        sentences=args.sentences,
        vocab_size=args.vocab_size,
        min_length=args.min_len,
        max_length=args.max_len_gen,
        type_count=args.types,
        nesting_ratio=args.nesting,
        max_entities=args.max_entities,
    )
    try:
        spec.validate()
    except DatasetError as err:
        raise UsageError(str(err)) from None
    examples, meta = generate_synthetic(spec, seed=args.seed if args.seed is not None else 0)
    out = args.out or "dataset.jsonl"
    try:
        save_dataset(out, examples, meta)
        if args.meta_out:
            save_meta(args.meta_out, meta.types)
    except OSError as err:
        raise UsageError(f"cannot write dataset: {err}") from None
    print(f"wrote {len(examples)} sentences to {out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iqner",
        description="Parallel instance-query extraction of flat and nested entities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    _add_common_flags(p_train)
    p_train.add_argument("--train", default=None, help="training JSONL file")
    p_train.add_argument("--dev", default=None, help="optional dev JSONL file")
    p_train.add_argument("--meta", default=None, help="optional meta JSON with types")

    p_eval = sub.add_parser("eval", help="score a checkpoint on a dataset")
    _add_common_flags(p_eval)
    p_eval.add_argument("--checkpoint", default=None)
    p_eval.add_argument("--data", default=None)

    p_pred = sub.add_parser("predict", help="decode entities for each sentence")
    _add_common_flags(p_pred)
    p_pred.add_argument("--checkpoint", default=None)
    p_pred.add_argument("--input", default=None)

    p_stats = sub.add_parser("stats", help="per-query affinity statistics")
    _add_common_flags(p_stats)
    p_stats.add_argument("--checkpoint", default=None)
    p_stats.add_argument("--data", default=None)

    p_grad = sub.add_parser("gradcheck", help="verify gradients of the full loss")
    _add_common_flags(p_grad)
    p_grad.add_argument("--eps", type=float, default=None)
    p_grad.add_argument("--seeds", type=int, default=10)
    p_grad.add_argument("--inject-error", action="store_true", dest="inject_error",
                        help="negative control: corrupt one gradient rule")

    p_gen = sub.add_parser("datagen", help="write a synthetic nested-NER corpus")
    p_gen.add_argument("--sentences", type=int, default=64)
    p_gen.add_argument("--types", type=int, default=4)
    p_gen.add_argument("--nesting", type=float, default=0.3)
    p_gen.add_argument("--vocab-size", type=int, default=40, dest="vocab_size")
    p_gen.add_argument("--min-len", type=int, default=8, dest="min_len")
    p_gen.add_argument("--max-len", type=int, default=16, dest="max_len_gen")
    p_gen.add_argument("--max-entities", type=int, default=4, dest="max_entities")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", default=None)
    p_gen.add_argument("--meta-out", default=None, dest="meta_out")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "datagen":
            return cmd_datagen(args)
        config = build_run_config(args)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "eval":
            return cmd_eval(config, args)
        if args.command == "predict":
            return cmd_predict(config, args)
        if args.command == "stats":
            return cmd_stats(config, args)
        if args.command == "gradcheck":
            return cmd_gradcheck(config, args)
        raise UsageError(f"unknown command {args.command}")
    except BrokenPipeError:
        # the downstream consumer closed the pipe; silence interpreter-exit noise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (DatasetError, AnnotationError, CheckpointError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric divergence: {err}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
