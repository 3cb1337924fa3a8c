"""Command-line surface: train, eval, predict, gradcheck, datagen, stats.

Machine-readable output is line-delimited JSON on stdout; diagnostics go to
stderr. Exit codes: 0 success, 1 failed verification, 2 usage/validation
errors (a flag the subcommand does not take included), 3 numeric divergence.
``main`` alone maps errors to codes: a ValueError (every validation error
of the package is one) or an OSError (a path that is missing, a directory,
unreadable or unwritable) exits 2, a NumericError exits 3.

Each model and training knob is one field of ``ModelConfig`` or
``TrainConfig``, which alone hold its type and default. ``RunConfig``, the
config file and the flags are derived from those fields: field
``base_layers`` is flag ``--base-layers``, except for the spellings in
``_FLAG_NAMES``. ``train`` takes every knob; ``eval``, ``predict`` and
``stats`` take only the decode thresholds, as they read the model structure
from the checkpoint. Flags override a JSON config file of flat ``RunConfig``
field names (``--config``, or the file the PIQN_CONFIG environment variable
names), which overrides the defaults. A ``train`` knob that the chosen
mode ignores, set by the file or a flag, is refused (``_IGNORED_UNDER``).
So is a model knob the file gives ``eval``, ``predict`` or ``stats`` that the
checkpoint disagrees with (``max_len`` up to the checkpoint's agrees).
``gradcheck`` reads no config file.
``datagen`` takes one flag per ``SyntheticSpec`` field, derived the same way.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Iterator, Literal, get_args, get_origin, get_type_hints

from .assignment import assignable_total
from .data import (
    DatasetMeta,
    EntityAnnotation,
    SyntheticSpec,
    checked_lines,
    generate_synthetic,
    load_dataset,
    load_meta,
    require_fraction,
    save_dataset,
    save_meta,
)
from .encoder import QUERY_INIT_STD, ModelConfig
from .evaluation import evaluate_corpus, query_affinity_stats
from .heads import Prediction
from .tensor import NumericError
from .training import (
    CONFIG_HINTS,
    GRADCHECK_EPS,
    Model,
    TrainConfig,
    evaluate_model,
    load_checkpoint,
    model_gradcheck,
    save_checkpoint,
    train,
)

GRADCHECK_TOLERANCE = 1e-4

# ModelConfig fields that the training data sets, not a knob.
_FROM_DATA = ("vocab_size", "type_count")
# Flag spellings that differ from the field name.
_FLAG_NAMES = {"word_layers": "layers", "learning_rate": "lr", "warmup_fraction": "warmup",
               "train_path": "train", "dev_path": "dev", "meta_path": "meta",
               "type_count": "types", "nesting_ratio": "nesting", "min_length": "min_len",
               "max_length": "max_len"}


# The knobs each (mode field, value) leaves unread, so train refuses them set.
_IGNORED_UNDER = {("quantity_mode", "one_to_one"): ("ratio",),
                  ("assignment_mode", "static"): ("ratio", "quantity_mode",
                                                  "share_final_assignment")}


class UsageError(ValueError):
    """Bad flags, config, or input files."""


# Every ModelConfig and TrainConfig field a user sets, by name; both hold ``seed``.
_KNOBS = {**{f.name: f for f in dataclasses.fields(ModelConfig) if f.name not in _FROM_DATA},
          **{f.name: f for f in dataclasses.fields(TrainConfig)}}
_HINTS = {**CONFIG_HINTS, **get_type_hints(TrainConfig)}
_Knobs = dataclasses.make_dataclass(
    "_Knobs", [(name, _HINTS[name], f.default) for name, f in _KNOBS.items()])


@dataclass
class RunConfig(_Knobs):
    """Every model and training knob, then the file paths of a run."""

    train_path: str | None = None
    dev_path: str | None = None
    meta_path: str | None = None
    checkpoint: str | None = None
    out: str | None = None

    def snapshot(self) -> dict:
        """Structural defaults, including derived quantities."""
        return {
            "queries": self.queries,
            "assignable_total": assignable_total(self.queries, self.ratio),
            "ratio": self.ratio,
            "word_layers": self.word_layers,
            "loc_threshold": self.loc_threshold,
            "cls_threshold": self.cls_threshold,
            "query_init_std": QUERY_INIT_STD,
        }

    def _values(self, cls) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(cls)
                if f.name not in _FROM_DATA}

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self._values(TrainConfig))

    def model_config(self, vocab_size: int, type_count: int) -> ModelConfig:
        return ModelConfig(**self._values(ModelConfig), vocab_size=vocab_size,
                           type_count=type_count)


# Each field's type, resolved once at import: a knob's, or a path's.
_RUN_HINTS = {f.name: _HINTS.get(f.name, str | None) for f in dataclasses.fields(RunConfig)}
_SPEC_HINTS = get_type_hints(SyntheticSpec)
_DECODE_FIELDS = ("checkpoint", "loc_threshold", "cls_threshold")
# The RunConfig fields each subcommand takes as flags.
_COMMAND_FIELDS = {
    "train": [f.name for f in dataclasses.fields(RunConfig) if f.name != "checkpoint"],
    "eval": _DECODE_FIELDS,
    "predict": _DECODE_FIELDS,
    "stats": _DECODE_FIELDS,
}
_SPEC_FIELDS = [f.name for f in dataclasses.fields(SyntheticSpec)]


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a UsageError, so main returns 2."""

    def error(self, message):
        raise UsageError(message)


def _spelled(values: dict):
    """argparse type taking one of the spellings in ``values`` to its value."""
    def parse(text: str):
        if text not in values:
            raise argparse.ArgumentTypeError(f"expected {' or '.join(values)}, got {text!r}")
        return values[text]
    return parse


def _optional_base(hint):
    """``T`` for a field of type ``T | None``, else the hint itself."""
    args = get_args(hint)
    if type(None) in args:
        return next(t for t in args if t is not type(None))
    return hint


def _text_parser(hint):
    """How a flag, or a string in a config file, is read for a field of type ``hint``."""
    if hint is bool:
        return _spelled({"on": True, "off": False})
    if get_origin(hint) is Literal:
        return _spelled({value.replace("_", "-"): value for value in get_args(hint)})
    return _optional_base(hint)


def _flag_kwargs(hint, default) -> dict:
    """How a flag for a field of type ``hint`` is spelled, parsed and described."""
    kwargs = {"type": _text_parser(hint)}
    if hint is bool:
        # a bare switch means on, as in `--share-final-assignment`
        return {**kwargs, "metavar": "on|off", "nargs": "?", "const": True,
                "help": f"default: {'on' if default else 'off'}"}
    if get_origin(hint) is Literal:
        return {**kwargs, "metavar": "|".join(v.replace("_", "-") for v in get_args(hint)),
                "help": f"default: {default.replace('_', '-')}"}
    return {**kwargs, "help": None if default is None else f"default: {default}"}


def _config_value(name: str, hint, value):
    """A config-file value for field ``name``: kept when it already has the
    field's type, else parsed from a string as the field's flag would be."""
    base = _optional_base(hint)
    if value is None and base is not hint:
        return value
    if get_origin(base) is Literal:
        if value in get_args(base):
            return value
    elif type(value) is base or (base is float and type(value) is int):
        return base(value)
    if isinstance(value, str):
        try:
            return _text_parser(hint)(value)
        except (ValueError, argparse.ArgumentTypeError):
            pass
    kind = "|".join(get_args(base)) if get_origin(base) is Literal else base.__name__
    raise UsageError(f"config field {name}: expected {kind}, got {value!r}")


def _flag(name: str) -> str:
    return "--" + _FLAG_NAMES.get(name, name).replace("_", "-")


def _add_field_flags(parser: argparse.ArgumentParser, cls, hints: dict, names) -> None:
    """A flag, typed by ``hints``, per field of dataclass ``cls`` in ``names``; unset is None."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    for name in names:
        parser.add_argument(_flag(name), dest=name, default=None,
                            **_flag_kwargs(hints[name], defaults[name]))


def _given(args: argparse.Namespace, names) -> dict:
    """The fields among ``names`` whose flags the command line set."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _config_file(args: argparse.Namespace) -> tuple[str, str | None]:
    """What names the run's config file, ``--config`` or else the PIQN_CONFIG
    environment variable, and its path, None when neither names one."""
    if args.config:
        return "--config", args.config
    return "PIQN_CONFIG", os.environ.get("PIQN_CONFIG")


def _file_values(args: argparse.Namespace) -> dict:
    """The fields the run's config file sets, parsed; none without a file."""
    _, config_path = _config_file(args)
    if not config_path:
        return {}
    try:
        with open(config_path, encoding="utf-8") as fh:
            file_values = json.load(fh)
    except (OSError, ValueError) as err:  # unreadable, not UTF-8 or not JSON
        raise UsageError(f"cannot read config {config_path}: {err}") from None
    if not isinstance(file_values, dict):
        raise UsageError(f"config {config_path} must hold one JSON object")
    unknown = set(file_values) - set(_RUN_HINTS)
    if unknown:
        raise UsageError(f"unknown config fields: {sorted(unknown)}")
    return {name: _config_value(name, _RUN_HINTS[name], v) for name, v in file_values.items()}


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then the subcommand's explicit flags.
    A ``train`` knob that the file or a flag sets and the mode ignores is refused."""
    values = _file_values(args)
    values.update(_given(args, _COMMAND_FIELDS[args.command]))
    config = RunConfig(**values)
    if args.command == "train":
        for (mode, value), knobs in _IGNORED_UNDER.items():
            ignored = [_flag(knob) for knob in knobs if knob in values]
            if getattr(config, mode) == value and ignored:
                raise UsageError(f"{_flag(mode)} {value.replace('_', '-')} ignores "
                                 f"{' and '.join(ignored)}")
    return config


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _require_outputs(outputs: dict[str, str | None], inputs: dict[str, str | None]) -> None:
    """Refuse an output path that is a directory, lies in a missing one, or
    is the same file as an input or another output, so a command fails
    before it computes or writes anything. Keys are flags; a None path is
    not given."""
    given = {flag: path for flag, path in inputs.items() if path}
    for flag, path in outputs.items():
        if not path:
            continue
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise UsageError(f"{flag} {path} must name a file in an existing directory")
        for other, other_path in given.items():
            if os.path.realpath(path) == os.path.realpath(other_path):
                raise UsageError(f"{flag} {path} is the same file as {other} {other_path}")
        given[flag] = path


def cmd_train(config: RunConfig, args: argparse.Namespace) -> int:
    if not config.train_path:
        raise UsageError("--train PATH is required")
    out = config.out or "model.npz"
    config_flag, config_path = _config_file(args)
    _require_outputs({"--out": out}, {"--train": config.train_path, "--dev": config.dev_path,
                                      "--meta": config.meta_path, config_flag: config_path})
    train_config = config.train_config()
    if config.meta_path:
        types = load_meta(config.meta_path)
        examples, _ = load_dataset(config.train_path, DatasetMeta(types=types, vocab={}))
        meta = DatasetMeta.build(examples, types=types)
    else:
        examples, meta = load_dataset(config.train_path)
    if not examples:
        raise UsageError(f"training file {config.train_path} is empty")
    longest = max(len(ex) for ex in examples)
    model_config = config.model_config(meta.vocab_size, meta.type_count)
    # the position table grows to fit the longest training sentence
    model_config = dataclasses.replace(model_config, max_len=max(config.max_len, longest))
    # read the dev file before training, so a bad line fails before any epoch
    dev_examples = None
    if config.dev_path:
        dev_examples, _ = load_dataset(config.dev_path, meta, model_config.max_len)
    m = model_config.queries
    dropped = [len(ex.entities) - m for ex in examples if len(ex.entities) > m]
    if dropped:
        print(f"warning: {len(dropped)} training sentences have more than {m} gold entities; "
              f"{sum(dropped)} entities are dropped, and each keeps its first {m} "
              f"in occurrence order", file=sys.stderr)
    model = Model(model_config)
    train(model, examples, meta, train_config, on_epoch=_emit)
    save_checkpoint(out, model, meta)
    if dev_examples is not None:
        report, _ = evaluate_model(model, dev_examples, meta,
                                   config.loc_threshold, config.cls_threshold)
        _emit({"dev": report.to_dict()})
    print(f"checkpoint written to {out}", file=sys.stderr)
    return 0


def _decode(
    config: RunConfig, args: argparse.Namespace, path: str | None, flag: str
) -> tuple[Model, DatasetMeta, list[tuple[list[str], list]], Iterator[list[Prediction]]]:
    """What ``eval``, ``predict`` and ``stats`` share: check the thresholds,
    that both paths are given and the config file's model knobs against the
    checkpoint, check every line in ``path`` against its ``max_len``, and
    return the model, metadata and each line's tokens and gold entity rows
    with their predictions, decoded lazily in file order."""
    for name in ("loc_threshold", "cls_threshold"):
        require_fraction(name, getattr(config, name))
    if not config.checkpoint:
        raise UsageError("--checkpoint PATH is required")
    if not path:
        raise UsageError(f"{flag} PATH is required")
    model, meta, _ = load_checkpoint(config.checkpoint)
    for key, value in _file_values(args).items():
        held = getattr(model.config, key, value)  # a training knob is not held
        if value != held and not (key == "max_len" and value < held):
            source, config_path = _config_file(args)
            raise UsageError(f"{source} {config_path} sets {key} {value!r}, but checkpoint "
                             f"{config.checkpoint} has {held!r}")
    lines = list(checked_lines(path, meta.type_ids, model.config.max_len))
    predictions = model.predict((meta.encode(tokens) for tokens, _ in lines),
                                config.loc_threshold, config.cls_threshold)
    return model, meta, lines, predictions


def cmd_eval(config: RunConfig, args: argparse.Namespace) -> int:
    _, _, lines, predictions = _decode(config, args, args.data, "--data")
    gold = [[EntityAnnotation(*row) for row in rows] for _, rows in lines]
    _emit(evaluate_corpus(list(predictions), gold).to_dict())
    return 0


def cmd_predict(config: RunConfig, args: argparse.Namespace) -> int:
    _, meta, _, predictions = _decode(config, args, args.input, "--input")
    for sentence in predictions:  # each line goes out as soon as its sentence is decoded
        _emit({
            "entities": [
                {"start": p.left, "end": p.right, "type": meta.types[p.type_id],
                 "score": p.type_prob}
                for p in sentence
            ],
            "query_ids": [p.query_id for p in sentence],
        })
    return 0


def cmd_stats(config: RunConfig, args: argparse.Namespace) -> int:
    model, meta, lines, predictions = _decode(config, args, args.data, "--data")
    stats = query_affinity_stats(zip(predictions, (len(t) for t, _ in lines)), model.config.queries,
                                 meta.type_count)
    stats["types"] = meta.types
    _emit(stats)
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if not 0 < args.eps < math.inf:
        raise UsageError(f"--eps must be finite and positive, got {args.eps}")
    if args.seeds < 1:
        raise UsageError("--seeds must be at least 1")
    errors = []
    for seed in range(args.seeds):
        errors.append(model_gradcheck(seed=seed, eps=args.eps, inject_error=args.inject_error))
    worst = max(errors)
    _emit({
        "max_relative_error": worst,
        "per_seed": errors,
        "tolerance": GRADCHECK_TOLERANCE,
        "passed": worst < GRADCHECK_TOLERANCE,
    })
    return 0 if worst < GRADCHECK_TOLERANCE else 1


def cmd_datagen(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    out = args.out or "dataset.jsonl"
    _require_outputs({"--out": out, "--meta-out": args.meta_out}, {})
    examples, meta = generate_synthetic(SyntheticSpec(**_given(args, _SPEC_FIELDS)),
                                        seed=args.seed)
    save_dataset(out, examples, meta)
    if args.meta_out:
        save_meta(args.meta_out, meta.types)
    print(f"wrote {len(examples)} sentences to {out}", file=sys.stderr)
    return 0


# Each subcommand and its help line, in the order `iqner --help` lists them.
_ABOUT = {"train": "train a model and write a checkpoint",
          "eval": "score a checkpoint on a dataset",
          "predict": "decode entities for each sentence",
          "stats": "per-query affinity statistics",
          "gradcheck": "verify gradients of the full loss",
          "datagen": "write a synthetic nested-NER corpus"}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with ``command`` of that one alone,
    which parses its command lines as the full parser does."""
    parser = _Parser(
        prog="iqner",
        description="Parallel instance-query extraction of flat and nested entities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _ABOUT if command is None else (command,):
        p_cmd = sub.add_parser(name, help=_ABOUT[name])
        if name in _COMMAND_FIELDS:
            p_cmd.add_argument("--config", default=None, help="JSON config file")
            _add_field_flags(p_cmd, RunConfig, _RUN_HINTS, _COMMAND_FIELDS[name])
            if name != "train":
                p_cmd.add_argument("--input" if name == "predict" else "--data", default=None)
        elif name == "gradcheck":
            p_cmd.add_argument("--eps", type=float, default=GRADCHECK_EPS)
            p_cmd.add_argument("--seeds", type=int, default=10)
            p_cmd.add_argument("--inject-error", action="store_true", dest="inject_error",
                               help="negative control: corrupt one gradient rule")
        else:
            _add_field_flags(p_cmd, SyntheticSpec, _SPEC_HINTS, _SPEC_FIELDS)
            p_cmd.add_argument("--seed", type=int, default=0, help="default: %(default)s")
            p_cmd.add_argument("--out", default=None)
            p_cmd.add_argument("--meta-out", default=None, dest="meta_out")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # a command line that starts with a subcommand needs that one's flags
        # alone; any other (none, an unknown one, --help) gets the full parser
        command = argv[0] if argv and argv[0] in _ABOUT else None
        args = build_parser(command).parse_args(argv)
        if args.command == "datagen":
            return cmd_datagen(args)
        if args.command == "gradcheck":
            return cmd_gradcheck(args)
        config = build_run_config(args)
        if args.command == "train":
            return cmd_train(config, args)
        if args.command == "eval":
            return cmd_eval(config, args)
        if args.command == "predict":
            return cmd_predict(config, args)
        return cmd_stats(config, args)
    except BrokenPipeError:
        # the downstream consumer closed the pipe; silence interpreter-exit noise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as err:  # BrokenPipeError, an OSError, is caught above
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric divergence: {err}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
