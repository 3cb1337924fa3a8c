"""Malformed inputs, generated by hypothesis, driven through ``main``.

Each bad dataset line, checkpoint header, config file and meta file must
exit 2 with one ``error:`` line that names the line, key, field or file, and
print nothing on stdout.
"""

import contextlib
import io
import json
import math
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iqner.cli import RunConfig, main
from iqner.data import (AnnotationError, DatasetError, DatasetMeta, SyntheticSpec,
                        generate_synthetic, load_dataset, save_dataset)
from iqner.encoder import ModelConfig
from iqner.training import Model, save_checkpoint

FUZZ = settings(max_examples=40, deadline=None, derandomize=True)

SENTENCES = 3
MAX_LEN = 16
TOKENS = ["w0", "w1", "w2"]
TYPES = ["T0", "T1"]

json_scalars = (st.none() | st.booleans() | st.integers(-10, 10)
                | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=5))
json_values = st.recursive(json_scalars, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                           max_leaves=6)
not_objects = json_values.filter(lambda v: not isinstance(v, dict))
not_integers = json_values.filter(lambda v: type(v) is not int)
# one line of text, neither blank nor a JSON object
line_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
                    min_size=1, max_size=20).filter(
                        lambda t: t.strip() and not t.strip().startswith("{"))


def _not_utf8(raw: bytes) -> bool:
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        return True
    return False


# bytes of one line, without a line break, that do not decode as UTF-8
not_utf8 = st.tuples(st.binary(max_size=8),
                     st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]),
                     st.binary(max_size=8)).map(
    lambda parts: b"".join(parts).replace(b"\n", b"").replace(b"\r", b"")).filter(_not_utf8)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A corpus and an untrained checkpoint whose inventory matches it."""
    root = tmp_path_factory.mktemp("fuzz")
    spec = SyntheticSpec(sentences=SENTENCES, vocab_size=20, min_length=4, max_length=6,
                         type_count=len(TYPES), max_entities=2)
    examples, meta = generate_synthetic(spec, seed=0)
    corpus = root / "corpus.jsonl"
    save_dataset(corpus, examples, meta)
    config = ModelConfig(hidden=8, queries=2, base_layers=1, word_layers=1, heads=1,
                         vocab_size=meta.vocab_size, max_len=MAX_LEN,
                         type_count=meta.type_count)
    checkpoint = root / "model.npz"
    save_checkpoint(checkpoint, Model(config), meta)
    return root, corpus, checkpoint


def _run(argv):
    """Exit code, stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_rejected(argv, named):
    """Assert that ``argv`` exits 2 with one error line naming ``named``; return the line."""
    code, out, err = _run(argv)
    assert (code, out) == (2, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err, err
    return err


def _load_error(data):
    """The message ``load_dataset`` raises for ``data`` read as predict reads it."""
    with pytest.raises((DatasetError, AnnotationError)) as raised:
        load_dataset(data, DatasetMeta(types=TYPES, vocab={}), MAX_LEN)
    return str(raised.value)


# ---------------------------------------------------------------------------
# dataset lines


def _entity(start=0, end=1, type_="T0"):
    return {"start": start, "end": end, "type": type_}


def _bad_records(unknown_types, max_len=None):
    """Records that one dataset line may not hold. ``unknown_types`` draws the
    type names outside the inventory; without ``max_len`` no length is too long."""
    bad_entities = st.one_of(
        not_objects,
        st.sampled_from(["start", "end", "type"]).map(
            lambda key: {k: v for k, v in _entity().items() if k != key}),
        st.tuples(st.sampled_from(["start", "end"]), not_integers).map(
            lambda kv: _entity(**{kv[0]: kv[1]})),
        st.integers(-5, -1).map(lambda start: _entity(start=start)),
        st.integers(len(TOKENS), 40).map(lambda end: _entity(end=end)),
        st.integers(1, 2).map(lambda start: _entity(start=start, end=0)),
        unknown_types.map(lambda name: _entity(type_=name)),
    )
    too_long = [] if max_len is None else [
        st.integers(max_len + 1, 3 * max_len).map(lambda n: {"tokens": ["w0"] * n})]
    return st.one_of(
        not_objects,
        st.just({"entities": []}),
        not_objects.filter(
            lambda v: not (isinstance(v, list) and all(isinstance(t, str) for t in v)))
        .map(lambda tokens: {"tokens": tokens}),
        st.just({"tokens": []}),
        *too_long,
        not_objects.filter(lambda v: not isinstance(v, list)).map(
            lambda entities: {"tokens": TOKENS, "entities": entities}),
        bad_entities.map(lambda entity: {"tokens": TOKENS, "entities": [entity]}),
    )


def _with_line(root, corpus, lineno, line):
    """A copy of ``corpus`` whose line ``lineno`` is ``line``."""
    lines = corpus.read_text(encoding="utf-8").splitlines()
    lines[lineno - 1] = line
    data = root / "bad.jsonl"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return data


@FUZZ
@given(lineno=st.integers(1, SENTENCES),
       line=line_text | _bad_records(json_values.filter(lambda name: name not in TYPES),
                                     MAX_LEN).map(json.dumps))
def test_predict_rejects_a_bad_dataset_line_by_its_number(files, lineno, line):
    root, corpus, checkpoint = files
    data = _with_line(root, corpus, lineno, line)
    err = _assert_rejected(["predict", "--checkpoint", str(checkpoint), "--input", str(data)],
                           f"{data}:{lineno}:")
    assert err == f"error: {_load_error(data)}\n"


# Without --meta the training file names the inventory, so only a type name
# that is no string is unknown; the model's table grows to its longest sentence.
@FUZZ
@given(lineno=st.integers(1, SENTENCES),
       line=line_text | _bad_records(json_values.filter(
           lambda name: not isinstance(name, str))).map(json.dumps))
def test_train_rejects_a_bad_dataset_line_by_its_number(files, lineno, line):
    root, corpus, _ = files
    data = _with_line(root, corpus, lineno, line)
    _assert_rejected(["train", "--train", str(data), "--out", str(root / "never.npz")],
                     f"{data}:{lineno}:")
    assert not (root / "never.npz").exists()


@FUZZ
@given(lineno=st.integers(1, SENTENCES), raw=not_utf8)
def test_predict_rejects_a_line_that_is_not_utf8_by_its_number(files, lineno, raw):
    root, corpus, checkpoint = files
    lines = corpus.read_bytes().splitlines()
    lines[lineno - 1] = raw
    data = root / "bad.jsonl"
    data.write_bytes(b"\n".join(lines) + b"\n")
    err = _assert_rejected(["predict", "--checkpoint", str(checkpoint), "--input", str(data)],
                           f"{data}:{lineno}: not UTF-8")
    assert err == f"error: {_load_error(data)}\n"


# ---------------------------------------------------------------------------
# checkpoint headers

_MODEL_HINTS = get_type_hints(ModelConfig)


def _bad_config_value(key):
    wrong_type = json_values.filter(lambda v: type(v) is not _MODEL_HINTS[key])
    if _MODEL_HINTS[key] is not int:
        return wrong_type
    return wrong_type | st.integers(-5, -1 if key == "seed" else 0)


def _distinct_strings(value, size):
    return (isinstance(value, list) and all(isinstance(name, str) for name in value)
            and len(set(value)) == len(value) == size)


def _header_edits(header):
    """(edited header, the text its error must hold) for one malformed part."""
    sizes = {"types": header["config"]["type_count"], "words": header["config"]["vocab_size"]}
    dropped = st.sampled_from(["config", "types", "words"]).map(
        lambda key: ({k: v for k, v in header.items() if k != key}, repr(key)))
    names = st.sampled_from(["types", "words"]).flatmap(
        lambda key: json_values.filter(lambda v: not _distinct_strings(v, sizes[key])).map(
            lambda v: ({**header, key: v}, key)))
    config = not_objects.map(lambda v: ({**header, "config": v}, "config"))
    field = st.sampled_from(sorted(_MODEL_HINTS)).flatmap(
        lambda key: _bad_config_value(key).map(
            lambda v: ({**header, "config": {**header["config"], key: v}}, key)))
    unknown = st.text(min_size=1, max_size=5).filter(lambda k: k not in _MODEL_HINTS).map(
        lambda key: ({**header, "config": {**header["config"], key: 1}}, repr(key)))
    fmt = json_values.filter(lambda v: v != header["format"]).map(
        lambda v: ({**header, "format": v}, "format"))
    whole = not_objects.map(lambda v: (v, "header"))
    return st.one_of(dropped, names, config, field, unknown, fmt, whole)


@FUZZ
@given(data=st.data())
def test_predict_rejects_a_malformed_checkpoint_header_by_its_key(files, data):
    root, corpus, checkpoint = files
    with np.load(checkpoint) as archive:
        arrays = {key: archive[key] for key in archive.files}
    header, named = data.draw(_header_edits(json.loads(arrays["header"].tobytes())))
    arrays["header"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    bad = root / "bad.npz"
    np.savez(bad, **arrays)
    _assert_rejected(["predict", "--checkpoint", str(bad), "--input", str(corpus)], named)


# ---------------------------------------------------------------------------
# config files

_RUN_HINTS = get_type_hints(RunConfig)
letters = st.text("xyz", min_size=1, max_size=4)  # parses as no number, switch or mode
containers = st.lists(json_scalars, max_size=2) | st.dictionaries(st.text(max_size=2),
                                                                  json_scalars, max_size=2)


def _bad_field_value(name):
    """A JSON value that field ``name`` of a config file must refuse."""
    hint = _RUN_HINTS[name]
    args = get_args(hint)
    optional = type(None) in args
    base = next(t for t in args if t is not type(None)) if optional else hint
    wrong = [containers]
    if base is not str:
        wrong.append(letters)
    if not optional:
        wrong.append(st.none())
    if base is not bool:
        wrong.append(st.booleans())
    if base in (bool, str) or get_origin(base) is Literal:
        wrong.append(st.integers(-3, 3) | st.floats(-3, 3))
    if base is int:
        wrong.append(st.floats(-3, 3))
    if base in (int, float):  # every number knob excludes negatives
        wrong.append(st.integers(-5, -1))
    if base is float:  # and infinities and NaN
        wrong.append(st.floats(max_value=-1e-9) | st.sampled_from([math.inf, -math.inf, math.nan]))
    return st.one_of(wrong)


@FUZZ
@given(data=st.data())
def test_train_rejects_a_bad_config_file_value_by_its_field(files, data):
    root, corpus, _ = files
    name = data.draw(st.sampled_from(sorted(_RUN_HINTS)))
    config = root / "config.json"
    config.write_text(json.dumps({name: data.draw(_bad_field_value(name))}))
    _assert_rejected(["train", "--config", str(config), "--train", str(corpus),
                      "--out", str(root / "never.npz")], name)


@FUZZ
@given(key=st.text(min_size=1, max_size=5).filter(lambda k: k not in _RUN_HINTS),
       value=json_scalars)
def test_train_rejects_an_unknown_config_file_field_by_its_name(files, key, value):
    root, corpus, _ = files
    config = root / "config.json"
    config.write_text(json.dumps({key: value}))
    _assert_rejected(["train", "--config", str(config), "--train", str(corpus),
                      "--out", str(root / "never.npz")], repr(key))


@FUZZ
@given(raw=not_utf8)
def test_train_rejects_a_config_file_that_is_not_utf8_by_its_path(files, raw):
    root, corpus, _ = files
    config = root / "config.json"
    config.write_bytes(raw)
    _assert_rejected(["train", "--config", str(config), "--train", str(corpus),
                      "--out", str(root / "never.npz")], f"cannot read config {config}: ")


# ---------------------------------------------------------------------------
# meta files


def _type_names(value):
    return isinstance(value, list) and all(isinstance(name, str) for name in value)


bad_meta = st.one_of(
    not_utf8,
    line_text.map(lambda text: text.encode("utf-8")),  # not JSON, or JSON but no object
    not_objects.map(lambda v: json.dumps(v).encode("utf-8")),
    st.dictionaries(st.text(max_size=5), json_values, max_size=3).filter(
        lambda v: not _type_names(v.get("types"))).map(lambda v: json.dumps(v).encode("utf-8")),
)


@FUZZ
@given(raw=bad_meta)
def test_train_rejects_a_bad_meta_file_by_its_path(files, raw):
    root, corpus, _ = files
    meta = root / "meta.json"
    meta.write_bytes(raw)
    _assert_rejected(["train", "--meta", str(meta), "--train", str(corpus),
                      "--out", str(root / "never.npz")], f"error: {meta}: meta file ")
