import contextlib
import dataclasses
import io
import itertools
import json
import sys
import typing
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np
import pytest

from iqner import cli, training
from iqner.cli import RunConfig, build_parser, build_run_config, main
from iqner.encoder import ModelConfig
from iqner.training import Model, TrainConfig, load_checkpoint
from iqner.data import (DatasetMeta, EntityAnnotation, SentenceExample, SyntheticSpec,
                        generate_synthetic, load_dataset, load_meta, save_dataset)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-corpus")
    spec = SyntheticSpec(sentences=10, vocab_size=24, min_length=5, max_length=8,
                         type_count=2, nesting_ratio=0.2, max_entities=2)
    examples, meta = generate_synthetic(spec, seed=3)
    path = root / "train.jsonl"
    save_dataset(path, examples, meta)
    return path, meta


@pytest.fixture(scope="module")
def trained_checkpoint(corpus, tmp_path_factory):
    path, _ = corpus
    out = tmp_path_factory.mktemp("cli-ckpt") / "model.npz"
    code = main([
        "train", "--train", str(path), "--out", str(out),
        "--epochs", "3", "--hidden", "16", "--queries", "4", "--layers", "1",
        "--base-layers", "1", "--heads", "2", "--seed", "5",
    ])
    assert code == 0
    return out


def _parse_lines(captured: str):
    return [json.loads(line) for line in captured.strip().splitlines() if line.strip()]


def test_train_emits_metric_lines_and_is_deterministic(corpus, tmp_path, capsys):
    path, _ = corpus
    argv = ["train", "--train", str(path), "--out", str(tmp_path / "a.npz"),
            "--epochs", "2", "--hidden", "16", "--queries", "4", "--layers", "1",
            "--base-layers", "1", "--heads", "2", "--seed", "7"]
    assert main(argv) == 0
    first = _parse_lines(capsys.readouterr().out)
    argv[4] = str(tmp_path / "b.npz")
    assert main(argv) == 0
    second = _parse_lines(capsys.readouterr().out)
    assert first == second
    assert len(first) == 2
    assert {"epoch", "loss", "f1", "lr"} <= set(first[0])


def test_train_missing_data_exits_2(tmp_path, capsys):
    assert main(["train", "--train", str(tmp_path / "nope.jsonl")]) == 2


# argv and the one error line, with {empty} an empty file, {config} a config
# file holding `[1]` and {out} a checkpoint path
REFUSALS = {
    "train-without-train": (["train"], "--train PATH is required"),
    "train-on-an-empty-file": (["train", "--train", "{empty}", "--out", "{out}"],
                               "training file {empty} is empty"),
    "eval-without-checkpoint": (["eval", "--data", "{empty}"], "--checkpoint PATH is required"),
    "predict-without-checkpoint": (["predict", "--input", "{empty}"],
                                   "--checkpoint PATH is required"),
    "stats-without-checkpoint": (["stats", "--data", "{empty}"], "--checkpoint PATH is required"),
    "gradcheck-without-seeds": (["gradcheck", "--seeds", "0"], "--seeds must be at least 1"),
    "config-that-is-no-object": (["train", "--config", "{config}", "--train", "{empty}",
                                  "--out", "{out}"], "config {config} must hold one JSON object"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_refusal_exits_2_with_its_one_message(case, tmp_path, capsys):
    paths = {"empty": tmp_path / "empty.jsonl", "config": tmp_path / "config.json",
             "out": tmp_path / "model.npz"}
    paths["empty"].write_text("")
    paths["config"].write_text("[1]")
    argv, message = REFUSALS[case]
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(**paths)}\n")
    assert not paths["out"].exists()


# (command, flag) for every flag that names a file, read or written
PATH_FLAGS = [("train", "--train"), ("train", "--dev"), ("train", "--meta"),
              ("train", "--config"), ("train", "--out"), ("eval", "--checkpoint"),
              ("predict", "--checkpoint"), ("eval", "--data"), ("stats", "--data"),
              ("predict", "--input"), ("datagen", "--out"), ("datagen", "--meta-out")]


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("command,flag", PATH_FLAGS, ids=lambda x: x)
def test_each_path_flag_refuses_a_missing_path_and_a_directory(
        command, flag, kind, corpus, trained_checkpoint, tmp_path, capsys):
    path, _ = corpus
    argv = {
        "train": ["train", "--train", str(path), "--out", str(tmp_path / "m.npz"), "--epochs",
                  "1", "--hidden", "8", "--queries", "2", "--layers", "1", "--heads", "1"],
        "eval": ["eval", "--checkpoint", str(trained_checkpoint), "--data", str(path)],
        "stats": ["stats", "--checkpoint", str(trained_checkpoint), "--data", str(path)],
        "predict": ["predict", "--checkpoint", str(trained_checkpoint), "--input", str(path)],
        "datagen": ["datagen", "--sentences", "4", "--out", str(tmp_path / "d.jsonl"),
                    "--meta-out", str(tmp_path / "m.json")],
    }[command]
    bad = str(tmp_path / "absent" / "file" if kind == "missing" else tmp_path)
    assert main(argv + [flag, bad]) == 2  # the last of a repeated flag wins
    out, err = capsys.readouterr()
    assert out == ""  # a train run stops before its first epoch line
    assert err.startswith("error: ") and bad in err and "Traceback" not in err, err
    if flag in ("--out", "--meta-out"):  # every output is checked before any is written
        assert flag in err
        assert not any(p.name in ("d.jsonl", "m.json") for p in tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--train", "--dev", "--meta", "--config", "PIQN_CONFIG",
                                  "--meta-out"])
def test_an_output_that_is_an_input_or_the_other_output_exits_2_naming_both(
        flag, corpus, tmp_path, capsys, monkeypatch):
    shared = tmp_path / "shared.jsonl"
    shared.write_bytes(b"{}" if flag in ("--config", "PIQN_CONFIG") else corpus[0].read_bytes())
    alias = tmp_path / "alias.jsonl"
    alias.symlink_to(shared)  # the same file by another name
    if flag == "--meta-out":
        argv = ["datagen", "--sentences", "4", "--out", str(shared), "--meta-out", str(alias)]
    else:
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps({"types": corpus[1].types}))
        argv = ["train", "--train", str(corpus[0]), "--meta", str(meta), "--epochs", "1",
                "--hidden", "8", "--queries", "2", "--layers", "1", "--heads", "1",
                "--out", str(alias)]
        if flag == "PIQN_CONFIG":
            monkeypatch.setenv(flag, str(shared))
        else:
            argv += [flag, str(shared)]
    before = shared.read_bytes()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    first, second = ("--meta-out", "--out") if flag == "--meta-out" else ("--out", flag)
    assert out == "" and err.startswith(f"error: {first} ") and f"same file as {second} " in err
    assert shared.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["shared.jsonl", "alias.jsonl"] + ([] if flag == "--meta-out" else ["meta.json"]))


@pytest.mark.parametrize("command,flag", [("eval", "--data"), ("predict", "--input"),
                                          ("stats", "--data")])
def test_decode_names_a_missing_path_flag_before_reading_the_checkpoint(command, flag, tmp_path,
                                                                        capsys):
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"not a checkpoint")
    assert main([command, "--checkpoint", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {flag} PATH is required\n"


@pytest.mark.parametrize("payload,named", [('["T0"]', "list of type names"),
                                           ('"x"', "list of type names"),
                                           ('{"types": ', "not UTF-8 JSON")])
def test_train_meta_that_is_no_object_exits_2_naming_the_file(payload, named, corpus, tmp_path,
                                                              capsys):
    meta = tmp_path / "m.json"
    meta.write_text(payload)
    assert main(["train", "--train", str(corpus[0]), "--meta", str(meta),
                 "--out", str(tmp_path / "m.npz")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {meta}: meta file ") and named in err


@pytest.mark.parametrize("types,named", [([], "empty type inventory"),
                                         (["T0", "T1", "T0"], "duplicate type names")])
def test_train_meta_with_an_empty_or_repeated_inventory_exits_2_naming_the_file(
        types, named, corpus, tmp_path, capsys):
    meta = tmp_path / "m.json"
    meta.write_text(json.dumps({"types": types}))
    assert main(["train", "--train", str(corpus[0]), "--meta", str(meta),
                 "--out", str(tmp_path / "m.npz")]) == 2
    assert capsys.readouterr().err == f"error: {meta}: {named}\n"


def test_train_static_mode_runs(corpus, tmp_path, capsys):
    path, _ = corpus
    code = main(["train", "--train", str(path), "--out", str(tmp_path / "s.npz"),
                 "--epochs", "1", "--hidden", "16", "--queries", "4", "--layers", "1",
                 "--base-layers", "1", "--heads", "2", "--assignment-mode", "static"])
    assert code == 0
    capsys.readouterr()


@pytest.mark.parametrize("flags,named", [
    (["--quantity-mode", "one-to-one", "--ratio", "0.3"],
     "--quantity-mode one-to-one ignores --ratio"),
    (["--assignment-mode", "static", "--share-final-assignment", "on", "--ratio", "0.5"],
     "--assignment-mode static ignores --ratio and --share-final-assignment"),
    (["--assignment-mode", "static", "--quantity-mode", "one-to-many"],
     "--assignment-mode static ignores --quantity-mode"),
    # set to its default, the knob is still set, and still ignored
    (["--assignment-mode", "static", "--share-final-assignment", "off"],
     "--assignment-mode static ignores --share-final-assignment"),
])
def test_train_refuses_a_knob_its_mode_ignores_naming_both_flags(flags, named, corpus, tmp_path,
                                                                  capsys):
    path, _ = corpus
    out = tmp_path / "m.npz"
    code = main(["train", "--train", str(path), "--out", str(out), "--epochs", "1", *flags])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not out.exists()
    assert captured.err == f"error: {named}\n"


@pytest.mark.parametrize("source", ["--config", "PIQN_CONFIG"])
def test_train_refuses_an_ignored_knob_from_a_config_file(source, corpus, tmp_path, monkeypatch,
                                                          capsys):
    path, _ = corpus
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"assignment_mode": "static", "ratio": 0.5}))
    argv = ["train", "--train", str(path), "--out", str(tmp_path / "m.npz"), "--epochs", "1"]
    if source == "--config":
        argv += ["--config", str(config_path)]
    else:
        monkeypatch.setenv("PIQN_CONFIG", str(config_path))
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --assignment-mode static ignores --ratio\n"
    # the mode from the file and the knob from a flag are refused alike
    config_path.write_text(json.dumps({"quantity_mode": "one_to_one"}))
    assert main([*argv, "--ratio", "0.3"]) == 2
    assert capsys.readouterr().err == "error: --quantity-mode one-to-one ignores --ratio\n"


def test_a_mode_with_its_ignored_knobs_at_their_defaults_trains(corpus, tmp_path, capsys):
    """Only an explicitly set knob is refused; the defaults stand with any mode."""
    path, _ = corpus
    for mode in (["--quantity-mode", "one-to-one"], ["--assignment-mode", "static"]):
        config = build_run_config(build_parser().parse_args(["train", *mode]))
        assert config.ratio == RunConfig().ratio
    code = main(["train", "--train", str(path), "--out", str(tmp_path / "m.npz"), "--epochs", "1",
                 "--hidden", "16", "--queries", "4", "--layers", "1", "--heads", "2",
                 "--quantity-mode", "one-to-one"])
    assert code == 0
    capsys.readouterr()


def test_train_reports_entities_beyond_the_query_count(tmp_path, capsys):
    lines = [{"tokens": ["a", "b", "c", "d"], "entities": [
                 {"start": i, "end": i, "type": "T"} for i in range(4)]},
             {"tokens": ["a", "b"], "entities": [{"start": 0, "end": 1, "type": "T"}]},
             {"tokens": ["c", "d", "a"], "entities": [
                 {"start": 0, "end": 0, "type": "T"}, {"start": 1, "end": 2, "type": "T"},
                 {"start": 2, "end": 2, "type": "T"}]}]
    path = tmp_path / "train.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    argv = ["train", "--train", str(path), "--out", str(tmp_path / "m.npz"), "--epochs", "1",
            "--hidden", "8", "--layers", "1", "--heads", "1"]
    assert main(argv + ["--queries", "2"]) == 0
    truncated = capsys.readouterr()
    notes = [line for line in truncated.err.splitlines() if "dropped" in line]
    assert len(notes) == 1
    assert "2 training sentences" in notes[0] and "3 entities" in notes[0]
    assert "first 2 in occurrence order" in notes[0]
    assert main(argv + ["--queries", "4"]) == 0
    whole = capsys.readouterr()
    assert "dropped" not in whole.err
    assert _parse_lines(truncated.out)[0].keys() == _parse_lines(whole.out)[0].keys()


def test_train_meta_order_sets_type_ids(tmp_path, capsys):
    spec = SyntheticSpec(sentences=4, vocab_size=24, min_length=5, max_length=8,
                         type_count=2, nesting_ratio=0.0, max_entities=2)
    examples, meta = generate_synthetic(spec, seed=3)
    path = tmp_path / "train.jsonl"
    save_dataset(path, examples, meta)
    # without --meta, type ids follow the file's first-appearance order
    first_seen = list(dict.fromkeys(meta.types[e.type_id] for ex in examples
                                    for e in ex.entities))
    assert len(first_seen) == 2
    reversed_meta = tmp_path / "meta.json"
    reversed_meta.write_text(json.dumps({"types": first_seen[::-1]}))

    def ner_f1(extra, out):
        assert main(["train", "--train", str(path), "--out", str(tmp_path / out),
                     "--epochs", "80", "--hidden", "32", "--queries", "12", "--layers", "2",
                     "--base-layers", "1", "--heads", "4", "--batch-size", "4", "--lr", "6e-3",
                     "--warmup", "0.4", "--share-final-assignment", "--seed", "2", *extra]) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(tmp_path / out), "--data", str(path)]) == 0
        return _parse_lines(capsys.readouterr().out)[-1]["ner"]["f1"]

    plain = ner_f1([], "plain.npz")
    assert plain > 0.5
    assert ner_f1(["--meta", str(reversed_meta)], "meta.npz") == plain

    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"types": first_seen[:1]}))
    assert main(["train", "--train", str(path), "--meta", str(partial), "--epochs", "1",
                 "--out", str(tmp_path / "partial.npz")]) == 2
    capsys.readouterr()


def test_eval_report_shape(trained_checkpoint, corpus, capsys):
    path, _ = corpus
    code = main(["eval", "--checkpoint", str(trained_checkpoint), "--data", str(path)])
    assert code == 0
    report = _parse_lines(capsys.readouterr().out)[-1]
    assert set(report) == {"ner", "loc", "cls", "counts"}
    assert set(report["ner"]) == {"p", "r", "f1"}
    assert report["counts"]["ner"]["gold"] > 0


def test_eval_empty_file_gives_zero_counts(trained_checkpoint, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(["eval", "--checkpoint", str(trained_checkpoint), "--data", str(empty)])
    assert code == 0
    report = _parse_lines(capsys.readouterr().out)[-1]
    assert report["counts"]["ner"] == {"gold": 0, "predicted": 0, "correct": 0}


def test_eval_structural_mismatch_exits_2(trained_checkpoint, corpus, capsys):
    path, _ = corpus
    code = main(["eval", "--checkpoint", str(trained_checkpoint), "--data", str(path),
                 "--queries", "9"])
    assert code == 2
    capsys.readouterr()


def test_eval_unknown_type_exits_2(trained_checkpoint, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"tokens":["w0","w1"],"entities":[{"start":0,"end":1,"type":"OTHER"}]}\n')
    code = main(["eval", "--checkpoint", str(trained_checkpoint), "--data", str(bad)])
    assert code == 2
    capsys.readouterr()


def _tampered_checkpoint(source, target, edit):
    """Copy a checkpoint's members, header decoded to a dict, through ``edit``,
    which may return a header to write in its place."""
    with np.load(source) as archive:
        arrays = {key: archive[key] for key in archive.files}
    header = json.loads(arrays["header"].tobytes().decode("utf-8"))
    header = edit(arrays, header) or header
    arrays["header"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    np.savez(target, **arrays)
    return target


def _parameter(arrays, header, name):
    """The view of parameter ``name`` in the flat ``parameters`` member: each
    parameter flattened, in ``named_parameters`` order."""
    start = 0
    for other, p in Model(ModelConfig(**header["config"])).named_parameters():
        if other == name:
            return arrays["parameters"][start:start + p.data.size].reshape(p.shape)
        start += p.data.size
    raise KeyError(name)


def test_checkpoint_unknown_config_key_exits_2(trained_checkpoint, corpus, tmp_path, capsys):
    ckpt = _tampered_checkpoint(trained_checkpoint, tmp_path / "bad.npz",
                                lambda arrays, header: header["config"].update(bogus=1))
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(corpus[0])])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_checkpoint_wrong_parameter_shape_exits_2(trained_checkpoint, corpus, tmp_path,
                                                  capsys):
    with np.load(trained_checkpoint) as archive:
        size = archive["parameters"].size

    def shrink(arrays, header):
        arrays["parameters"] = arrays["parameters"][:-3]

    def stack(arrays, header):
        arrays["parameters"] = arrays["parameters"].reshape(1, -1)

    def drop(arrays, header):
        del arrays["parameters"]

    def poison(arrays, header):
        _parameter(arrays, header, "layer0.wq")[...] = np.nan

    def overflow(arrays, header):
        _parameter(arrays, header, "emb.word")[1, 0] = -np.inf

    def retype(dtype):
        def edit(arrays, header):
            arrays["parameters"] = arrays["parameters"].astype(dtype)
        return edit

    for edit, named in ((shrink, ("parameters", f"({size - 3},)", f"({size},)")),
                        (stack, ("parameters", f"(1, {size})", f"({size},)")),
                        (drop, ("has no parameters",)),
                        (poison, ("parameter layer0.wq", "non-finite")),
                        (overflow, ("parameter emb.word", "non-finite")),
                        # save_checkpoint writes float64, so any other dtype is
                        # refused by name; numpy loads no object array at all
                        (retype(np.complex128), ("parameters", "complex128")),
                        (retype(np.str_), ("parameters", "<U")),
                        (retype(object), ("parameters", "cannot be read", "Object arrays")),
                        (retype(np.float32), ("parameters", "float32"))):
        ckpt = _tampered_checkpoint(trained_checkpoint, tmp_path / "bad.npz", edit)
        # zero thresholds would print every query's score, NaN ones included
        code = main(["predict", "--checkpoint", str(ckpt), "--input", str(corpus[0]),
                     "--loc-threshold", "0", "--cls-threshold", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert all(part in captured.err for part in named), captured.err


def test_version_1_checkpoint_exits_2_naming_its_format(trained_checkpoint, corpus, tmp_path,
                                                        capsys):
    def as_version_1(arrays, header):
        # version 1 stored one param/<name> array per parameter
        for name, p in Model(ModelConfig(**header["config"])).named_parameters():
            arrays[f"param/{name}"] = _parameter(arrays, header, name).copy()
        del arrays["parameters"]
        return {**header, "format": "iqner-checkpoint-v1"}

    ckpt = _tampered_checkpoint(trained_checkpoint, tmp_path / "v1.npz", as_version_1)
    assert main(["predict", "--checkpoint", str(ckpt), "--input", str(corpus[0])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unsupported checkpoint format 'iqner-checkpoint-v1'\n"


def _npy_with_a_header_element(path):
    with open(path, "wb") as fh:  # np.save would append .npy to a path
        np.save(fh, np.array(["header", "parameters"]))


@pytest.mark.parametrize("write", [
    lambda path: path.write_bytes(b""),
    lambda path: path.write_text("not a checkpoint\n"),
    lambda path: path.write_bytes(b"PK\x03\x04 not a zip archive"),
    _npy_with_a_header_element,
], ids=["empty", "text", "broken-zip", "npy-array"])
def test_a_file_that_is_no_archive_exits_2_as_no_checkpoint(write, corpus, tmp_path, capsys):
    bad = tmp_path / "bad.npz"
    write(bad)
    assert main(["predict", "--checkpoint", str(bad), "--input", str(corpus[0])]) == 2
    assert capsys.readouterr() == ("", f"error: {bad} is not a model checkpoint\n")


def test_predict_lines_align(trained_checkpoint, corpus, capsys):
    path, _ = corpus
    code = main(["predict", "--checkpoint", str(trained_checkpoint), "--input", str(path),
                 "--loc-threshold", "0.0", "--cls-threshold", "0.0"])
    assert code == 0
    lines = _parse_lines(capsys.readouterr().out)
    assert len(lines) == 10
    for line in lines:
        assert set(line) == {"entities", "query_ids"}
        assert len(line["entities"]) == len(line["query_ids"])
        for ent in line["entities"]:
            assert {"start", "end", "type", "score"} <= set(ent)


def test_predict_writes_each_line_before_decoding_the_next(trained_checkpoint, corpus,
                                                          monkeypatch):
    events = []
    decode = training.decode_entities
    monkeypatch.setattr(training, "decode_entities",
                        lambda *args: events.append("decode") or decode(*args))

    class Stdout:
        def write(self, text):
            events.append("line")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Stdout())
    assert main(["predict", "--checkpoint", str(trained_checkpoint),
                 "--input", str(corpus[0])]) == 0
    assert events == ["decode", "line"] * 10


def test_predict_builds_no_record_and_prints_what_the_model_predicts_over_load_dataset(
        trained_checkpoint, corpus, monkeypatch, capsys):
    built = []
    for cls in (EntityAnnotation, SentenceExample):
        def counted(self, check=cls.__post_init__):
            built.append(type(self).__name__)
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    assert main(["predict", "--checkpoint", str(trained_checkpoint), "--input", str(corpus[0]),
                 "--loc-threshold", "0.2", "--cls-threshold", "0.2"]) == 0
    assert built == []
    lines = _parse_lines(capsys.readouterr().out)
    model, meta, _ = load_checkpoint(trained_checkpoint)
    examples, _ = load_dataset(corpus[0], meta, model.config.max_len)
    assert built.count("SentenceExample") == len(examples) == len(lines) == 10
    assert built.count("EntityAnnotation") == sum(len(ex.entities) for ex in examples) > 0
    expected = [{"entities": [{"start": p.left, "end": p.right, "type": meta.types[p.type_id],
                               "score": p.type_prob} for p in sentence],
                 "query_ids": [p.query_id for p in sentence]}
                for sentence in model.predict((meta.encode(ex.tokens) for ex in examples),
                                              loc_threshold=0.2, cls_threshold=0.2)]
    assert lines == expected
    assert any(line["entities"] for line in lines)


def test_type_hints_are_resolved_once_at_import(trained_checkpoint, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("typing.get_type_hints called after import")

    monkeypatch.setattr(typing, "get_type_hints", refuse)
    for module in (cli, training):
        monkeypatch.setattr(module, "get_type_hints", refuse, raising=False)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"cls_threshold": 0.5}))
    args = build_parser().parse_args(["predict", "--config", str(config_path)])
    assert build_run_config(args).cls_threshold == 0.5
    load_checkpoint(trained_checkpoint)
    monkeypatch.undo()
    assert cli._RUN_HINTS == get_type_hints(RunConfig)
    assert cli._HINTS == {**get_type_hints(ModelConfig), **get_type_hints(TrainConfig)}


def test_predict_untrained_model_emits_nothing(corpus, tmp_path, capsys):
    path, _ = corpus
    ck = tmp_path / "fresh.npz"
    assert main(["train", "--train", str(path), "--out", str(ck), "--epochs", "1",
                 "--hidden", "16", "--queries", "4", "--layers", "1",
                 "--base-layers", "1", "--heads", "2", "--lr", "0.0"]) == 0
    capsys.readouterr()
    assert main(["predict", "--checkpoint", str(ck), "--input", str(path)]) == 0
    lines = _parse_lines(capsys.readouterr().out)
    assert all(line["entities"] == [] for line in lines)


def test_predict_deterministic(trained_checkpoint, corpus, capsys):
    path, _ = corpus
    argv = ["predict", "--checkpoint", str(trained_checkpoint), "--input", str(path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_stats_output(trained_checkpoint, corpus, capsys):
    path, _ = corpus
    code = main(["stats", "--checkpoint", str(trained_checkpoint), "--data", str(path),
                 "--loc-threshold", "0.0", "--cls-threshold", "0.0"])
    assert code == 0
    stats = _parse_lines(capsys.readouterr().out)[-1]
    assert {"queries", "type_normalized", "types"} <= set(stats)
    assert len(stats["queries"]) == 4
    for row in stats["queries"]:
        assert sum(row["type_counts"]) == len(row["centers"])


def test_gradcheck_single_seed_passes(capsys):
    assert main(["gradcheck", "--seeds", "1"]) == 0
    payload = _parse_lines(capsys.readouterr().out)[-1]
    assert payload["passed"] is True
    assert payload["max_relative_error"] < 1e-4


def test_gradcheck_negative_control_fails(capsys):
    assert main(["gradcheck", "--seeds", "1", "--inject-error"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("eps", ["0", "-1e-5", "inf"])
def test_gradcheck_zero_eps_exits_2(eps, capsys):
    assert main(["gradcheck", "--seeds", "1", f"--eps={eps}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"--eps must be finite and positive, got {float(eps)}" in err


def test_datagen_deterministic_and_counts(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["datagen", "--sentences", "64", "--types", "4", "--nesting", "0.3",
            "--seed", "1", "--out", None]
    argv[-1] = str(a)
    assert main(argv) == 0
    argv[-1] = str(b)
    assert main(argv) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 64
    capsys.readouterr()


def test_datagen_invalid_nesting_exits_2(tmp_path, capsys):
    for flags, named in ((["--nesting", "1.5"], "nesting_ratio must be in [0, 1), got 1.5"),
                         (["--seed", "-1"], "--seed must be >= 0, got -1"),
                         (["--sentences", "0"], "sentences must be >= 1, got 0"),
                         (["--max-entities", "0"], "max_entities must be >= 1, got 0"),
                         (["--min-len", "9", "--max-len", "5"],
                          "max_length must be >= min_length 9, got 5"),
                         (["--vocab-size", "5"],
                          "vocab_size must be >= 3 * type_count + 2 = 14, got 5")):
        code = main(["datagen", *flags, "--out", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()


DATAGEN_FLAGS = {"sentences": "--sentences", "vocab_size": "--vocab-size",
                 "min_length": "--min-len", "max_length": "--max-len", "type_count": "--types",
                 "nesting_ratio": "--nesting", "max_entities": "--max-entities"}


def test_datagen_flags_reach_spec_fields(tmp_path, capsys):
    assert set(DATAGEN_FLAGS) == {f.name for f in dataclasses.fields(SyntheticSpec)}
    changed = {"sentences": 5, "vocab_size": 30, "min_length": 6, "max_length": 9,
               "type_count": 3, "nesting_ratio": 0.5, "max_entities": 3}
    # every knob set away from its default, then no knob and no seed at all
    for values, seed_flag, seed in ((changed, ["--seed", "4"], 4), ({}, [], 0)):
        argv = ["datagen", "--out", str(tmp_path / "cli.jsonl"), *seed_flag]
        for name, value in values.items():
            argv += [DATAGEN_FLAGS[name], str(value)]
        assert main(argv) == 0
        examples, meta = generate_synthetic(SyntheticSpec(**values), seed=seed)
        save_dataset(tmp_path / "lib.jsonl", examples, meta)
        assert (tmp_path / "cli.jsonl").read_bytes() == (tmp_path / "lib.jsonl").read_bytes()
    capsys.readouterr()


def test_datagen_meta_out_holds_the_corpus_types(tmp_path, capsys):
    out, meta_out = tmp_path / "corpus.jsonl", tmp_path / "meta.json"
    assert main(["datagen", "--types", "3", "--seed", "2", "--out", str(out),
                 "--meta-out", str(meta_out)]) == 0
    _, meta = generate_synthetic(SyntheticSpec(type_count=3), seed=2)
    assert load_meta(meta_out) == meta.types == ["T0", "T1", "T2"]
    capsys.readouterr()


TRAINING_ONLY_FLAGS = [["--one-way", "off"], ["--heads", "8"], ["--epochs", "99"],
                       ["--out", "x.npz"], ["--max-len", "2"]]


@pytest.mark.parametrize("command", ["eval", "predict", "stats"])
@pytest.mark.parametrize("flag", TRAINING_ONLY_FLAGS, ids=lambda f: f[0])
def test_decode_commands_reject_training_flags(command, flag, trained_checkpoint, corpus, capsys):
    path, _ = corpus
    data = "--input" if command == "predict" else "--data"
    argv = [command, "--checkpoint", str(trained_checkpoint), data, str(path), *flag]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert flag[0] in captured.err
    assert captured.out == ""


def test_gradcheck_rejects_model_flags(capsys):
    assert main(["gradcheck", "--seeds", "1", "--hidden", "999"]) == 2
    assert "--hidden" in capsys.readouterr().err


def test_gradcheck_reads_no_config(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PIQN_CONFIG", str(tmp_path / "missing.json"))
    assert main(["gradcheck", "--seeds", "1"]) == 0
    capsys.readouterr()


def test_train_flags_reach_config_fields():
    model_values = {"hidden": 48, "queries": 7, "base_layers": 2, "word_layers": 3, "heads": 6,
                    "max_len": 20, "one_way": False, "query_interaction": False, "seed": 9}
    train_values = {"epochs": 11, "learning_rate": 0.5, "warmup_fraction": 0.25,
                    "batch_size": 3, "seed": 9, "loc_threshold": 0.1, "cls_threshold": 0.2,
                    "max_grad_norm": 2.5}
    argv = ["train", "--hidden", "48", "--queries", "7", "--base-layers", "2", "--layers", "3",
            "--heads", "6", "--max-len", "20", "--one-way", "off", "--query-interaction", "off",
            "--seed", "9", "--epochs", "11", "--lr", "0.5", "--warmup", "0.25",
            "--batch-size", "3", "--loc-threshold", "0.1", "--cls-threshold", "0.2",
            "--max-grad-norm", "2.5"]
    # a mode refuses the knobs it ignores, so each mode's knobs get a run of their own
    modes = [(["--ratio", "0.5", "--share-final-assignment"],
              {"ratio": 0.5, "share_final_assignment": True}),
             (["--quantity-mode", "one-to-one"], {"quantity_mode": "one_to_one"}),
             (["--assignment-mode", "static"], {"assignment_mode": "static"})]
    defaults = ModelConfig()
    assert set(model_values) == {f.name for f in dataclasses.fields(ModelConfig)} - {
        "vocab_size", "type_count"}
    assert set(train_values).union(*(values for _, values in modes)) == {
        f.name for f in dataclasses.fields(TrainConfig)}
    for flags, mode_values in modes:
        config = build_run_config(build_parser().parse_args(argv + flags))
        model = config.model_config(vocab_size=30, type_count=3)
        trainer = config.train_config()
        for name, value in model_values.items():
            assert getattr(model, name) == value != getattr(defaults, name), name
        for name, value in {**train_values, **mode_values}.items():
            assert getattr(trainer, name) == value != getattr(TrainConfig(), name), name
        assert (model.vocab_size, model.type_count) == (30, 3)


def test_config_file_and_flag_precedence(tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"queries": 24, "ratio": 0.5, "epochs": 9}))
    parser = build_parser()
    args = parser.parse_args(["train", "--config", str(config_path), "--queries", "8"])
    config = build_run_config(args)
    assert config.queries == 8          # flag wins
    assert config.ratio == 0.5          # file wins over default
    assert config.epochs == 9
    assert config.snapshot()["assignable_total"] == 4


def test_env_var_config(tmp_path, monkeypatch):
    config_path = tmp_path / "env.json"
    config_path.write_text(json.dumps({"hidden": 48, "heads": 6}))
    monkeypatch.setenv("PIQN_CONFIG", str(config_path))
    args = build_parser().parse_args(["train"])
    config = build_run_config(args)
    assert config.hidden == 48 and config.heads == 6


def test_unknown_config_field_rejected(tmp_path):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"nonsense": 1}))
    args = build_parser().parse_args(["train", "--config", str(config_path)])
    with pytest.raises(Exception):
        build_run_config(args)


def test_run_config_defaults_snapshot():
    snapshot = RunConfig().snapshot()
    assert snapshot == {
        "queries": 60,
        "assignable_total": 45,
        "ratio": 0.75,
        "word_layers": 5,
        "loc_threshold": 0.6,
        "cls_threshold": 0.8,
        "query_init_std": 0.02,
    }


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_numeric_divergence_exits_3(corpus, tmp_path, capsys):
    path, _ = corpus
    code = main(["train", "--train", str(path), "--out", str(tmp_path / "d.npz"),
                 "--epochs", "3", "--hidden", "16", "--queries", "4", "--layers", "1",
                 "--base-layers", "1", "--heads", "2", "--lr", "1e200"])
    assert code == 3
    capsys.readouterr()


@pytest.mark.parametrize("key,value,expected", [("hidden", "16", "int"), ("queries", 4.0, "int"),
                                                ("heads", True, "int"), ("one_way", 1, "bool")])
def test_checkpoint_config_value_of_wrong_type_exits_2(key, value, expected, trained_checkpoint,
                                                       corpus, tmp_path, capsys):
    ckpt = _tampered_checkpoint(trained_checkpoint, tmp_path / "bad.npz",
                                lambda arrays, header: header["config"].update({key: value}))
    code = main(["predict", "--checkpoint", str(ckpt), "--input", str(corpus[0])])
    assert code == 2
    err = capsys.readouterr().err
    assert key in err and expected in err


def _drop(key):
    def edit(arrays, header):
        del header[key]
    return edit


@pytest.mark.parametrize("edit,named", [
    (_drop("config"), "'config'"), (_drop("types"), "'types'"), (_drop("words"), "'words'"),
    (lambda arrays, header: [header], "header must be a JSON object"),
    (lambda arrays, header: {**header, "config": [1]}, "config must be a JSON object"),
    (lambda arrays, header: {**header, "types": "T0"}, "types"),
    (lambda arrays, header: {**header, "types": header["types"][:1]}, "types"),
    (lambda arrays, header: {**header, "types": header["types"][:1] * 2}, "types"),
    (lambda arrays, header: {**header, "words": dict.fromkeys(header["words"], 0)}, "words"),
    (lambda arrays, header: {**header, "words": header["words"] + ["extra"]}, "words"),
    (lambda arrays, header: header["config"].update(heads=0), "heads must be >= 1, got 0"),
    (lambda arrays, header: header["config"].update(heads=3), "heads must be a divisor"),
])
def test_checkpoint_malformed_header_exits_2_naming_the_key(edit, named, trained_checkpoint,
                                                             corpus, tmp_path, capsys):
    ckpt = _tampered_checkpoint(trained_checkpoint, tmp_path / "bad.npz", edit)
    code = main(["predict", "--checkpoint", str(ckpt), "--input", str(corpus[0])])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: checkpoint") and named in captured.err


@pytest.mark.parametrize("flags,named", [
    (["--heads", "0"], "heads must be >= 1, got 0"),
    (["--heads", "3"], "heads must be a divisor of hidden 16, got 3"),
    (["--lr", "nan"], "learning_rate must be finite and >= 0, got nan"),
    (["--lr", "inf"], "learning_rate must be finite and >= 0, got inf"),
    (["--lr", "-1"], "learning_rate must be finite and >= 0, got -1.0"),
    (["--max-grad-norm", "0"], "max_grad_norm must be None or finite and > 0, got 0.0"),
    (["--max-grad-norm", "-1"], "max_grad_norm must be None or finite and > 0, got -1.0"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    (["--max-len", "0"], "max_len must be >= 1, got 0"),
])
def test_train_bad_config_value_exits_2_naming_the_field(flags, named, corpus, tmp_path,
                                                         capsys):
    out = tmp_path / "model.npz"
    argv = ["train", "--train", str(corpus[0]), "--out", str(out), "--epochs", "1",
            "--hidden", "16", "--queries", "2", "--layers", "1"]
    assert main(argv + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: {named}\n"
    # the same value from a config file
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({named.split()[0]: flags[1]}))
    assert main(argv + ["--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {named}\n"


def test_checkpoint_extra_members_are_ignored(trained_checkpoint, corpus, tmp_path, capsys):
    def add_members(arrays, header):
        # what version 1 held, Adam moments, and a member numpy reads only with pickle
        arrays["param/emb.word"] = np.zeros((3, 3))
        arrays["adam_m"] = np.full(5, np.nan)
        arrays["notes"] = np.array([{"a": 1}], dtype=object)

    argv = ["predict", "--checkpoint", str(trained_checkpoint), "--input", str(corpus[0]),
            "--loc-threshold", "0", "--cls-threshold", "0"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    argv[2] = str(_tampered_checkpoint(trained_checkpoint, tmp_path / "extra.npz", add_members))
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_train_checks_dev_lengths_before_training(corpus, tmp_path, capsys):
    dev = tmp_path / "dev.jsonl"
    lines = [{"tokens": ["w0", "w1"]}, {"tokens": ["w3"] * 70}]
    dev.write_text("".join(json.dumps(line) + "\n" for line in lines))
    out = tmp_path / "model.npz"
    code = main(["train", "--train", str(corpus[0]), "--dev", str(dev), "--out", str(out),
                 "--epochs", "1", "--hidden", "8", "--queries", "2", "--layers", "1",
                 "--heads", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert f"{dev}:2:" in captured.err and "70" in captured.err


@pytest.mark.parametrize("field,value,parsed", [
    ("one_way", "off", False), ("one_way", False, False), ("share_final_assignment", "on", True),
    ("hidden", "48", 48), ("epochs", 3, 3), ("learning_rate", 1, 1.0),
    ("quantity_mode", "one-to-one", "one_to_one"), ("quantity_mode", "one_to_one", "one_to_one"),
    ("max_grad_norm", None, None),
])
def test_config_file_values_parse_like_flags(field, value, parsed, tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({field: value}))
    config = build_run_config(build_parser().parse_args(["train", "--config", str(config_path)]))
    assert getattr(config, field) == parsed and type(getattr(config, field)) is type(parsed)


def test_config_file_switch_off_trains_without_the_mask(corpus, tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"one_way": "off"}))
    out = tmp_path / "model.npz"
    code = main(["train", "--config", str(config_path), "--train", str(corpus[0]),
                 "--out", str(out), "--epochs", "1", "--hidden", "8", "--queries", "2",
                 "--layers", "1", "--heads", "1"])
    assert code == 0
    capsys.readouterr()
    with np.load(out) as archive:
        header = json.loads(archive["header"].tobytes().decode("utf-8"))
    assert header["config"]["one_way"] is False


@pytest.mark.parametrize("field,value", [("one_way", "maybe"), ("one_way", 0), ("hidden", "4.5"),
                                         ("hidden", 48.0), ("quantity_mode", "many"),
                                         ("assignment_mode", 1), ("epochs", True)])
def test_config_file_bad_value_exits_2_naming_the_field(field, value, corpus, tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({field: value}))
    assert main(["train", "--config", str(config_path), "--train", str(corpus[0])]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and field in captured.err


BAD_THRESHOLDS = {
    "predict": (["--loc-threshold", "5"], "loc_threshold must be in [0, 1], got 5.0"),
    "eval": (["--loc-threshold", "7"], "loc_threshold must be in [0, 1], got 7.0"),
    "stats": (["--cls-threshold", "-1"], "cls_threshold must be in [0, 1], got -1.0"),
}


@pytest.mark.parametrize("command", BAD_THRESHOLDS)
def test_decode_commands_check_thresholds_before_reading_data(command, trained_checkpoint,
                                                              corpus, tmp_path, capsys):
    flags, named = BAD_THRESHOLDS[command]
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    data = "--input" if command == "predict" else "--data"
    for path in (empty, corpus[0]):
        assert main([command, "--checkpoint", str(trained_checkpoint), data, str(path),
                     *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {named}\n"


@pytest.mark.parametrize("command", ["predict", "eval", "stats"])
def test_decode_commands_check_every_length_before_output(command, trained_checkpoint, tmp_path,
                                                          capsys):
    data = tmp_path / "long.jsonl"
    lines = [{"tokens": ["w0", "w1"]}, {"tokens": ["w2"] * 5}, {"tokens": ["w3"] * 70}]
    data.write_text("".join(json.dumps(line) + "\n" for line in lines))
    flag = "--input" if command == "predict" else "--data"
    assert main([command, "--checkpoint", str(trained_checkpoint), flag, str(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{data}:3:" in captured.err and "70" in captured.err


# Every `cli._KNOBS` entry is checked against one base run by one generic rule,
# so a knob added to ModelConfig or TrainConfig is checked with no new test
# code. The base's zero thresholds and dev file let the thresholds show in the
# dev line.
KNOB_BASE = ["--hidden", "8", "--queries", "4", "--layers", "2", "--base-layers", "1",
             "--heads", "1", "--epochs", "2", "--batch-size", "4", "--warmup", "0.5",
             "--loc-threshold", "0", "--cls-threshold", "0"]


def _other_value(hint, value):
    """A value of a knob's type other than ``value``, one its checks accept."""
    if hint is bool:
        return not value
    if get_origin(hint) is Literal:
        return next(other for other in get_args(hint) if other != value)
    if value is None or type(value) is float:
        return value / 2 if value else 0.5
    return value + 1


def _spelled_flag_value(value) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    return str(value).replace("_", "-")


@pytest.fixture(scope="module")
def knob_base_run(corpus, tmp_path_factory):
    argv = ["train", "--train", str(corpus[0]), "--dev", str(corpus[0]), *KNOB_BASE]
    out = tmp_path_factory.mktemp("knob-base") / "model.npz"
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main(argv + ["--out", str(out)]) == 0
    return argv, stdout.getvalue(), out.read_bytes()


@pytest.mark.parametrize("name", list(cli._KNOBS))
def test_each_train_knob_changes_the_run_or_exits_2_naming_its_flag(name, knob_base_run,
                                                                    tmp_path, capsys):
    argv, base_stdout, base_checkpoint = knob_base_run
    base = getattr(build_run_config(build_parser().parse_args(argv)), name)
    value = _other_value(cli._HINTS[name], base)
    flag = cli._flag(name)
    out = tmp_path / "model.npz"
    code = main(argv + [flag, _spelled_flag_value(value), "--out", str(out)])
    captured = capsys.readouterr()
    if code == 2:
        assert flag in captured.err
    else:
        assert code == 0 and (captured.out != base_stdout
                              or out.read_bytes() != base_checkpoint), (
            f"{flag} {value} changed neither the epoch lines nor the checkpoint")


# The knobs of label assignment, where one knob may act only together with
# another: each pair is checked against both of its single-knob runs.
ASSIGNMENT_KNOBS = ("assignment_mode", "quantity_mode", "ratio", "share_final_assignment")


def _train_with_other_values(argv, names, out):
    """Exit code, stdout, stderr and checkpoint bytes (None unless it exits 0)
    of ``argv`` with each knob in ``names`` at a value other than ``argv``'s."""
    config = build_run_config(build_parser().parse_args(argv))
    flags = []
    for name in names:
        value = _other_value(cli._HINTS[name], getattr(config, name))
        flags += [cli._flag(name), _spelled_flag_value(value)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv + flags + ["--out", str(out)])
    return code, stdout.getvalue(), stderr.getvalue(), out.read_bytes() if code == 0 else None


@pytest.fixture(scope="module")
def single_assignment_knob_runs(knob_base_run, tmp_path_factory):
    root = tmp_path_factory.mktemp("assignment-knobs")
    runs = {name: _train_with_other_values(knob_base_run[0], [name], root / f"{name}.npz")
            for name in ASSIGNMENT_KNOBS}
    assert all(run[0] == 0 for run in runs.values())
    return runs


@pytest.mark.parametrize("pair", list(itertools.combinations(ASSIGNMENT_KNOBS, 2)), ids="+".join)
def test_each_pair_of_assignment_knobs_changes_the_run_or_exits_2_naming_a_flag(
        pair, knob_base_run, single_assignment_knob_runs, tmp_path):
    code, out, err, checkpoint = _train_with_other_values(knob_base_run[0], pair,
                                                          tmp_path / "model.npz")
    if code == 2:
        assert any(cli._flag(name) in err for name in pair), err
        return
    assert code == 0, err
    for name in pair:
        _, single_out, _, single_checkpoint = single_assignment_knob_runs[name]
        assert (out, checkpoint) != (single_out, single_checkpoint), (
            f"{' and '.join(pair)} together ran as {name} alone")


@pytest.mark.parametrize("source", ["--config", "PIQN_CONFIG"])
@pytest.mark.parametrize("command", ["eval", "predict", "stats"])
@pytest.mark.parametrize("key,value,held", [("hidden", 99, 16), ("one_way", False, True),
                                            ("max_len", 65, 64), ("seed", 4, 5)])
def test_decode_commands_refuse_a_model_key_the_checkpoint_disagrees_with(
        key, value, held, command, source, trained_checkpoint, corpus, tmp_path, monkeypatch,
        capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({key: value}))
    data = "--input" if command == "predict" else "--data"
    argv = [command, "--checkpoint", str(trained_checkpoint), data, str(corpus[0])]
    if source == "--config":
        argv += ["--config", str(config_path)]
    else:
        monkeypatch.setenv("PIQN_CONFIG", str(config_path))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {source} {config_path} sets {key} {value!r}, but "
                            f"checkpoint {trained_checkpoint} has {held!r}\n")


@pytest.mark.parametrize("command", ["eval", "predict", "stats"])
def test_decode_commands_take_the_config_file_of_the_whole_pipeline(command, trained_checkpoint,
                                                                    corpus, tmp_path, capsys):
    data = "--input" if command == "predict" else "--data"
    argv = [command, "--checkpoint", str(trained_checkpoint), data, str(corpus[0])]
    assert main(argv) == 0
    alone = capsys.readouterr().out
    # the keys that trained the checkpoint, training knobs, and a max_len train grew past
    config_path = tmp_path / "pipeline.json"
    config_path.write_text(json.dumps({
        "epochs": 3, "hidden": 16, "queries": 4, "word_layers": 1, "base_layers": 1, "heads": 2,
        "seed": 5, "one_way": True, "max_len": 8, "learning_rate": 0.5, "ratio": 0.5}))
    assert main(argv + ["--config", str(config_path)]) == 0
    assert capsys.readouterr().out == alone


# Every `cli._SPEC_FIELDS` entry and --seed, checked against one default
# datagen run by the same rule as the train knobs above.
@pytest.fixture(scope="module")
def datagen_base_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("datagen-base")
    corpus, meta = root / "corpus.jsonl", root / "meta.json"
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["datagen", "--out", str(corpus), "--meta-out", str(meta)]) == 0
    return corpus.read_bytes(), meta.read_bytes()


@pytest.mark.parametrize("name", [*cli._SPEC_FIELDS, "seed"])
def test_each_datagen_flag_changes_the_corpus_or_exits_2_naming_it(name, datagen_base_run,
                                                                  tmp_path, capsys):
    if name == "seed":
        flag, hint, base = "--seed", int, build_parser().parse_args(["datagen"]).seed
    else:
        flag, hint = cli._flag(name), get_type_hints(SyntheticSpec)[name]
        base = getattr(SyntheticSpec(), name)
    value = _other_value(hint, base)
    corpus, meta = tmp_path / "corpus.jsonl", tmp_path / "meta.json"
    code = main(["datagen", flag, str(value), "--out", str(corpus), "--meta-out", str(meta)])
    captured = capsys.readouterr()
    if code == 2:
        assert flag in captured.err
    else:
        assert code == 0 and (corpus.read_bytes(), meta.read_bytes()) != datagen_base_run, (
            f"{flag} {value} changed neither the corpus nor the meta file")


def _parser_outcome(argv: list[str]) -> tuple:
    """``main``'s exit code, stdout and stderr for a command line that ends
    in the parser: a usage error or --help."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as done:  # --help prints and exits
            code = done.code
    return code, out.getvalue(), err.getvalue()


PARSER_LINES = [[], ["--help"], ["bogus"], ["bogus", "--help"], ["predict", "--hidden", "3"],
                ["train", "--lr", "fast"], ["datagen", "--types"], ["gradcheck", "--eps"],
                *([command, "--help"] for command in cli._ABOUT)]


@pytest.mark.parametrize("argv", PARSER_LINES, ids=" ".join)
def test_main_parses_as_the_full_parser_does(argv, monkeypatch):
    narrow = _parser_outcome(argv)
    full_parser = build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    assert narrow == _parser_outcome(argv)
    assert narrow[0] in (0, 2) and (narrow[1] or narrow[2])


@pytest.mark.parametrize("command", cli._ABOUT)
def test_main_adds_flags_to_the_named_subparser_only(command, monkeypatch):
    flagged = set()
    add_argument = cli._Parser.add_argument

    def spy(parser, *args, **kwargs):
        flagged.add(parser.prog)
        return add_argument(parser, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "add_argument", spy)
    assert _parser_outcome([command, "--no-such-flag"])[0] == 2
    assert flagged == {"iqner", f"iqner {command}"}
    flagged.clear()
    build_parser()
    assert flagged == {"iqner", *(f"iqner {name}" for name in cli._ABOUT)}
