import hashlib
import json

import pytest

from iqner.cli import main
from iqner.data import (
    AnnotationError,
    DatasetError,
    DatasetMeta,
    EntityAnnotation,
    SentenceExample,
    SyntheticSpec,
    checked_lines,
    generate_synthetic,
    load_dataset,
    load_meta,
    nesting_ratio,
    save_dataset,
    save_meta,
)


def test_load_single_record(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"tokens":["a","b"],"entities":[{"start":0,"end":1,"type":"ORG"}]}\n')
    examples, meta = load_dataset(path)
    assert len(examples) == 1
    assert examples[0].tokens == ["a", "b"]
    assert examples[0].entities == [EntityAnnotation(0, 1, 0)]
    assert meta.types == ["ORG"]


def test_load_rejects_out_of_bounds_span(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"tokens":["a","b"],"entities":[{"start":0,"end":5,"type":"ORG"}]}\n')
    with pytest.raises(AnnotationError, match="1"):
        load_dataset(path)


def test_load_accepts_empty_entity_list(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"tokens":["a"],"entities":[]}\n')
    examples, meta = load_dataset(path, meta=DatasetMeta(types=["X"], vocab={"<pad>": 0, "<unk>": 1}))
    assert examples[0].entities == []


def test_load_parse_error_names_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"tokens":["a"],"entities":[]}\nnot json\n')
    with pytest.raises(DatasetError, match=":2"):
        load_dataset(path)


@pytest.mark.parametrize("bound", [None, [0], "x", "0", 0.7, 1.0, True, False, {"v": 0}])
@pytest.mark.parametrize("key", ["start", "end"])
def test_load_rejects_entity_bounds_that_are_not_integers(key, bound, tmp_path):
    path = tmp_path / "d.jsonl"
    entity = {"start": 0, "end": 1, "type": "ORG", key: bound}
    path.write_text('{"tokens":["a","b"]}\n' + json.dumps({"tokens": ["a", "b"],
                                                           "entities": [entity]}) + "\n")
    with pytest.raises(DatasetError) as err:
        load_dataset(path)
    assert str(err.value).startswith(f"{path}:2: entity start and end must be integers")


def test_duplicate_triples_rejected():
    with pytest.raises(AnnotationError):
        SentenceExample(tokens=["a", "b"], entities=[EntityAnnotation(0, 1, 0), EntityAnnotation(0, 1, 0)])


def test_round_trip_exact(tmp_path):
    spec = SyntheticSpec(sentences=30, vocab_size=30, min_length=5, max_length=9,
                         type_count=3, nesting_ratio=0.2, max_entities=3)
    examples, meta = generate_synthetic(spec, seed=5)
    path = tmp_path / "rt.jsonl"
    save_dataset(path, examples, meta)
    reloaded, _ = load_dataset(path, meta=meta)
    assert len(reloaded) == len(examples)
    for a, b in zip(examples, reloaded):
        assert a.tokens == b.tokens
        assert a.entities == b.entities
    save_dataset(tmp_path / "rt2.jsonl", reloaded, meta)
    assert (tmp_path / "rt.jsonl").read_bytes() == (tmp_path / "rt2.jsonl").read_bytes()


def test_meta_round_trip(tmp_path):
    save_meta(tmp_path / "meta.json", ["PER", "ORG"])
    assert load_meta(tmp_path / "meta.json") == ["PER", "ORG"]


def test_generator_deterministic():
    spec = SyntheticSpec(sentences=20)
    a, _ = generate_synthetic(spec, seed=11)
    b, _ = generate_synthetic(spec, seed=11)
    assert all(x.tokens == y.tokens and x.entities == y.entities for x, y in zip(a, b))


def test_generator_zero_nesting():
    spec = SyntheticSpec(sentences=50, nesting_ratio=0.0)
    examples, _ = generate_synthetic(spec, seed=3)
    assert nesting_ratio(examples) == 0.0


def test_generator_hits_target_nesting_ratio():
    spec = SyntheticSpec(sentences=1000, nesting_ratio=0.3)
    examples, _ = generate_synthetic(spec, seed=7)
    realized = nesting_ratio(examples)
    assert 0.25 <= realized <= 0.35, realized


def test_generator_span_validity_and_uniqueness():
    spec = SyntheticSpec(sentences=200, nesting_ratio=0.4)
    examples, meta = generate_synthetic(spec, seed=1)
    for ex in examples:
        triples = {(e.left, e.right, e.type_id) for e in ex.entities}
        assert len(triples) == len(ex.entities)
        for e in ex.entities:
            assert 0 <= e.left <= e.right < len(ex.tokens)
            assert e.type_id < meta.type_count


def test_generator_rejects_infeasible_spec():
    with pytest.raises(DatasetError):
        generate_synthetic(SyntheticSpec(max_entities=20, min_length=8), seed=0)
    with pytest.raises(DatasetError):
        generate_synthetic(SyntheticSpec(nesting_ratio=1.5), seed=0)


def test_generator_markers_match_types():
    # boundary tokens encode the planted type, making the corpus learnable
    spec = SyntheticSpec(sentences=40)
    examples, _ = generate_synthetic(spec, seed=2)
    for ex in examples:
        for e in ex.entities:
            if e.left == e.right:
                assert ex.tokens[e.left] == f"s{e.type_id}"
            else:
                assert ex.tokens[e.left] == f"b{e.type_id}"
                assert ex.tokens[e.right] == f"e{e.type_id}"


def test_unknown_token_maps_to_unk():
    meta = DatasetMeta(types=["X"], vocab={"<pad>": 0, "<unk>": 1, "a": 2})
    assert meta.encode(["a", "zzz"]).tolist() == [2, 1]


def test_load_names_the_first_bad_line_of_several(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"tokens": ["a", "b"], "entities": [{"start": 1, "end": 0, "type": "T"}]}\n'
                    '{"tokens": ["a"]}\n'
                    '{not json\n')
    with pytest.raises(AnnotationError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}:1: invalid span (1, 0)"


def test_load_skips_a_blank_line_but_counts_it(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"tokens": ["a"]}\n   \n{"tokens": ["a", 3]}\n')
    with pytest.raises(DatasetError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}:3: 'tokens' must be a list of strings"
    path.write_text('{"tokens": ["a"]}\n\n{"tokens": ["b"]}\n')
    examples, _ = load_dataset(path)
    assert [ex.tokens for ex in examples] == [["a"], ["b"]]


def test_load_gives_an_entity_free_file_one_type(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"tokens": ["a", "b"]}\n{"tokens": ["c"], "entities": []}\n')
    examples, meta = load_dataset(path)
    assert meta.types == ["ENT"]
    assert list(meta.vocab) == ["<pad>", "<unk>", "a", "b", "c"]
    assert all(ex.entities == [] for ex in examples)


def test_load_numbers_types_where_they_first_appear(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"tokens": ["a", "b"], "entities": [{"start": 0, "end": 0, "type": "Y"}]}\n'
                    '{"tokens": ["a", "b"], "entities": [{"start": 1, "end": 1, "type": "X"}, '
                    '{"start": 0, "end": 1, "type": "Y"}]}\n')
    examples, meta = load_dataset(path)
    assert meta.types == ["Y", "X"]
    assert examples[1].entities == [EntityAnnotation(1, 1, 1), EntityAnnotation(0, 1, 0)]


def test_load_rejects_tokens_that_are_not_all_strings(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"tokens": ["a", 3]}\n')
    with pytest.raises(DatasetError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}:1: 'tokens' must be a list of strings"


def test_checked_lines_yield_the_rows_of_load_datasets_records(tmp_path):
    spec = SyntheticSpec(sentences=20, vocab_size=30, min_length=5, max_length=9,
                         type_count=3, nesting_ratio=0.4, max_entities=3)
    examples, meta = generate_synthetic(spec, seed=4)
    path = tmp_path / "d.jsonl"
    save_dataset(path, examples, meta)
    for given in (meta, None):
        records, read_meta = load_dataset(path, given)
        type_ids = {} if given is None else meta.type_ids
        lines = list(checked_lines(path, type_ids, grow=given is None))
        assert lines == [(ex.tokens, [(e.left, e.right, e.type_id) for e in ex.entities])
                         for ex in records]
        assert list(type_ids) == read_meta.types


_ENTITY = '{"start": %s, "end": %s, "type": "T"}'
_ONE = '{"tokens": ["a"], "entities": [%s]}'
_TWO = '{"tokens": ["a", "b"], "entities": [%s]}'

# Each line's rows, or the error class and message the reader gives it
# (after ``<path>:<line>: ``), with the types {"T": 0} and max_len 2.
CRAFTED_LINES = [
    ('{"tokens": ["a"]} x', (DatasetError, "1: invalid JSON (Extra data)")),
    ('{"tokens": ["a"]}{"tokens": ["b"]}', (DatasetError, "1: invalid JSON (Extra data)")),
    ('{"tokens": ["a"]} {"tokens": ["b"]}', (DatasetError, "1: invalid JSON (Extra data)")),
    ('\ufeff{"tokens": ["a"]}',
     (DatasetError, "1: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))")),
    ('{"tokens": ["a"]', (DatasetError, "1: invalid JSON (Expecting ',' delimiter)")),
    ('{tokens: ["a"]}',
     (DatasetError, "1: invalid JSON (Expecting property name enclosed in double quotes)")),
    ('{"tokens": ["a"],\n"entities": []}',
     (DatasetError, "1: invalid JSON (Expecting property name enclosed in double quotes)")),
    ('"entities": []}', (DatasetError, "1: invalid JSON (Extra data)")),
    ("NaN", (DatasetError, "1: record must carry a 'tokens' list")),
    ('[{"tokens": ["a"]}]', (DatasetError, "1: record must carry a 'tokens' list")),
    (_ONE % (_ENTITY % ("NaN", 0)),
     (DatasetError, "1: entity start and end must be integers, got nan and 0")),
    (_ONE % (_ENTITY % (0, "Infinity")),
     (DatasetError, "1: entity start and end must be integers, got 0 and inf")),
    (_ONE % (_ENTITY % (0, "-Infinity")),
     (DatasetError, "1: entity start and end must be integers, got 0 and -inf")),
    (_ONE % (_ENTITY % ("1e400", 0)),
     (DatasetError, "1: entity start and end must be integers, got inf and 0")),
    (_ONE % (_ENTITY % ("true", 0)),
     (DatasetError, "1: entity start and end must be integers, got True and 0")),
    (_ONE % (_ENTITY % (0, "0.0")),
     (DatasetError, "1: entity start and end must be integers, got 0 and 0.0")),
    ("\x0c" + _TWO % (_ENTITY % (0, 1)) + "\x0c ", [(["a", "b"], [(0, 1, 0)])]),
    (" \t\x0c\x0b \n" + '{"tokens": ["a", 3]}',
     (DatasetError, "2: 'tokens' must be a list of strings")),
    (" \t\x0c\x0b ", []),
    # U+2028 ends a line for str.splitlines, but not for bytes.splitlines
    ('{"tokens": ["a\u2028b"]}', [(["a\u2028b"], [])]),
    ('{"tokens": "ab"}', (DatasetError, "1: 'tokens' must be a list of strings")),
    ('{"tokens": ["a", ["b"]]}', (DatasetError, "1: 'tokens' must be a list of strings")),
    ('{"tokens": ["a", null]}', (DatasetError, "1: 'tokens' must be a list of strings")),
    ('{"tokens": ["a", "b", "c"]}', (DatasetError, "1: sentence length 3 exceeds maximum 2")),
    ('{"tokens": ["a"], "entities": {}}', (DatasetError, "1: 'entities' must be a list")),
    (_ONE % '["start", "end", "type"]', (DatasetError, "1: entity needs start/end/type")),
    (_ONE % '"start"', (DatasetError, "1: entity needs start/end/type")),
    (_ONE % "null", (DatasetError, "1: entity needs start/end/type")),
    (_ONE % '{"start": 0, "end": 0}', (DatasetError, "1: entity needs start/end/type")),
    (_ONE % '{"start": 0, "end": 0, "type": ["T"]}',
     (AnnotationError, "1: unknown entity type ['T']")),
    (_ONE % '{"start": 0.5, "end": 0, "type": "U"}',
     (AnnotationError, "1: unknown entity type 'U'")),
    (_TWO % ", ".join([_ENTITY % (1, 0), _ENTITY % (0, 0.5)]),
     (AnnotationError, "1: invalid span (1, 0)")),
    (_TWO % ", ".join([_ENTITY % (0, 0), _ENTITY % (0, 0), _ENTITY % (0, 5)]),
     (AnnotationError, "1: duplicate entity triple (0, 0, 0)")),
    (_TWO % ", ".join([_ENTITY % (0, 0), _ENTITY % (0, 5), _ENTITY % (0, 0)]),
     (AnnotationError, "1: span (0, 5) exceeds sentence length 2")),
    ('{"tokens": [], "entities": [%s]}' % (_ENTITY % (0, 0)),
     (DatasetError, "1: sentence with no tokens")),
    ('{"tokens": ["a"], "entities": [%s], "tokens": ["b", "c"]}' % (_ENTITY % (0, 1)),
     [(["b", "c"], [(0, 1, 0)])]),
]


@pytest.mark.parametrize("text, expected", CRAFTED_LINES)
def test_checked_lines_give_each_crafted_line_its_rows_or_message(text, expected, tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(text + "\n", encoding="utf-8")
    if isinstance(expected, list):
        assert list(checked_lines(path, {"T": 0}, 2)) == expected
        return
    error, message = expected
    with pytest.raises(error) as err:
        list(checked_lines(path, {"T": 0}, 2))
    assert type(err.value) is error and str(err.value) == f"{path}:{message}"


def test_checked_lines_parse_a_valid_file_without_json_loads(tmp_path, monkeypatch):
    spec = SyntheticSpec(sentences=1000, min_length=17, max_length=40, max_entities=8)
    examples, meta = generate_synthetic(spec, seed=12)
    path = tmp_path / "d.jsonl"
    save_dataset(path, examples, meta)

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called for a valid line")

    monkeypatch.setattr(json, "loads", refuse)
    lines = list(checked_lines(path, meta.type_ids, 40))
    assert lines == [(ex.tokens, [(e.left, e.right, e.type_id) for e in ex.entities])
                     for ex in examples]


# sha256 of `iqner datagen` output for the bench's set-up corpora: the
# training file (seed 11) and the held-out file and its meta (seed 12).
CORPUS_DIGESTS = [
    (["--sentences", "64", "--max-entities", "8", "--seed", "11"],
     "f6c8ba669fcf2a5e6ca27723f859d2f58d6a1dc7f8acd4472e95951baccf5644", None),
    (["--sentences", "1000", "--max-entities", "8", "--min-len", "17", "--max-len", "40",
      "--seed", "12"],
     "dba0556500b9ab5c6065531b43ce6eac9211032802dccc0bc0d2dc7e78aab63c",
     "0ba58a1b08d8bd2c5bc6310b8b915b097bb4675574f8d8957ffdc9147d200798"),
]


@pytest.mark.parametrize("flags, corpus_digest, meta_digest", CORPUS_DIGESTS,
                         ids=["train-seed11", "heldout-seed12"])
def test_datagen_writes_the_pinned_corpus(flags, corpus_digest, meta_digest, tmp_path, capsys):
    corpus, meta = tmp_path / "d.jsonl", tmp_path / "meta.json"
    assert main(["datagen", *flags, "--out", str(corpus), "--meta-out", str(meta)]) == 0
    assert hashlib.sha256(corpus.read_bytes()).hexdigest() == corpus_digest
    if meta_digest is not None:
        assert hashlib.sha256(meta.read_bytes()).hexdigest() == meta_digest
