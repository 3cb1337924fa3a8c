"""Sentence/annotation types, JSON-lines IO, and synthetic corpora.

Dataset files are UTF-8 JSON lines, one sentence per line:

    {"tokens": ["w", ...], "entities": [{"start": 0, "end": 2, "type": "T"}, ...]}

with ``end`` inclusive. The companion meta file is ``{"types": [...]}``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1


class DatasetError(ValueError):
    """Malformed dataset file or record."""


class AnnotationError(ValueError):
    """Entity span or type outside the sentence/inventory bounds."""


def require(config, name: str, ok: bool, rule: str, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming field ``name`` of ``config``, its value and the
    rule it breaks, unless ``ok``."""
    if not ok:
        raise error(f"{name} must be {rule}, got {getattr(config, name)!r}")


def require_fraction(name: str, value: float) -> None:
    """Raise a ValueError naming ``name`` and ``value`` unless it is in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def entity_row(left: int, right: int, type_id: int) -> tuple[int, int, int]:
    """``(left, right, type_id)``, checked: 0 <= left <= right, type_id >= 0."""
    if not 0 <= left <= right:
        raise AnnotationError(f"invalid span ({left}, {right})")
    if type_id < 0:
        raise AnnotationError(f"negative type id {type_id}")
    return left, right, type_id


def check_sentence(tokens: list[str], rows: list[tuple[int, int, int]]) -> None:
    """Raise unless there are tokens, and each entity row ends inside them and is new."""
    if not tokens:
        raise DatasetError("sentence with no tokens")
    seen = set()
    for row in rows:
        if row[1] >= len(tokens):
            raise AnnotationError(
                f"span ({row[0]}, {row[1]}) exceeds sentence length {len(tokens)}")
        if row in seen:
            raise AnnotationError(f"duplicate entity triple {row}")
        seen.add(row)


@dataclass(frozen=True)
class EntityAnnotation:
    """One gold entity: inclusive word span plus type index."""

    left: int
    right: int
    type_id: int

    def __post_init__(self):
        entity_row(self.left, self.right, self.type_id)


@dataclass
class SentenceExample:
    """A token sequence with its (possibly nested, possibly empty) gold set."""

    tokens: list[str]
    entities: list[EntityAnnotation] = field(default_factory=list)

    def __post_init__(self):
        check_sentence(self.tokens, [(e.left, e.right, e.type_id) for e in self.entities])

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class DatasetMeta:
    """Ordered type inventory plus the token vocabulary."""

    types: list[str]
    vocab: dict[str, int]

    def __post_init__(self):
        if not self.types:
            raise DatasetError("empty type inventory")
        if len(set(self.types)) != len(self.types):
            raise DatasetError("duplicate type names")

    @property
    def type_count(self) -> int:
        return len(self.types)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    @property
    def type_ids(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.types)}

    def encode(self, tokens: list[str]) -> np.ndarray:
        return np.array([self.vocab.get(t, UNK_ID) for t in tokens], dtype=np.int64)

    @classmethod
    def build(cls, examples: list[SentenceExample], types: list[str]) -> "DatasetMeta":
        """The given type inventory, and the vocabulary in first-seen order."""
        vocab = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}
        for ex in examples:
            for tok in ex.tokens:
                if tok not in vocab:
                    vocab[tok] = len(vocab)
        return cls(types=list(types), vocab=vocab)


def load_meta(path: str | Path) -> list[str]:
    """Read a {"types": [...]} meta file."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as err:  # not UTF-8 or not JSON
            raise DatasetError(f"{path}: meta file is not UTF-8 JSON: {err}") from None
    types = payload.get("types") if isinstance(payload, dict) else None
    if not isinstance(types, list) or not all(isinstance(t, str) for t in types):
        raise DatasetError(f"{path}: meta file must contain a list of type names")
    try:
        DatasetMeta(types=types, vocab={})  # an empty or repeated inventory, named by its file
    except DatasetError as err:
        raise DatasetError(f"{path}: {err}") from None
    return types


def save_meta(path: str | Path, types: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"types": list(types)}, fh)
        fh.write("\n")


def checked_lines(
    path: str | Path, type_ids: dict[str, int], max_len: int | None = None, grow: bool = False
) -> Iterator[tuple[list[str], list[tuple[int, int, int]]]]:
    """Yield each non-blank line's tokens and its entities' ``(left, right,
    type_id)`` rows, checking the line in full before it is yielded, so a
    file with several bad lines is named by its first.

    A type name outside ``type_ids`` is rejected, or with ``grow`` added to
    it with the next id. With ``max_len``, a longer sentence is rejected.
    """
    with open(path, "rb") as fh:  # bytes, so that a line that is not UTF-8 has a number
        # bytes.splitlines ends a line where text mode would: at \n, \r or \r\n
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        try:  # each check raises its message, which the handlers prefix with the line
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            obj = json.loads(line)
            if not isinstance(obj, dict) or "tokens" not in obj:
                raise DatasetError("record must carry a 'tokens' list")
            tokens = obj["tokens"]
            if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
                raise DatasetError("'tokens' must be a list of strings")
            if max_len is not None and len(tokens) > max_len:
                raise DatasetError(f"sentence length {len(tokens)} exceeds maximum {max_len}")
            entities = obj.get("entities", [])
            if not isinstance(entities, list):
                raise DatasetError("'entities' must be a list")
            rows = []
            for ent in entities:
                if not isinstance(ent, dict) or not {"start", "end", "type"} <= ent.keys():
                    raise DatasetError("entity needs start/end/type")
                name = ent["type"]
                if grow and isinstance(name, str):
                    type_ids.setdefault(name, len(type_ids))
                if not isinstance(name, str) or name not in type_ids:
                    raise AnnotationError(f"unknown entity type {name!r}")
                start, end = ent["start"], ent["end"]
                if type(start) is not int or type(end) is not int:  # a bool is no int here
                    raise DatasetError(f"entity start and end must be integers, "
                                       f"got {start!r} and {end!r}")
                rows.append(entity_row(start, end, type_ids[name]))
            check_sentence(tokens, rows)
        except UnicodeDecodeError as err:
            raise DatasetError(f"{path}:{lineno}: not UTF-8 ({err.reason} "
                               f"at byte {err.start})") from None
        except json.JSONDecodeError as err:
            raise DatasetError(f"{path}:{lineno}: invalid JSON ({err.msg})") from None
        except (DatasetError, AnnotationError) as err:
            raise type(err)(f"{path}:{lineno}: {err}") from None
        yield tokens, rows


def load_dataset(
    path: str | Path, meta: DatasetMeta | None = None, max_len: int | None = None
) -> tuple[list[SentenceExample], DatasetMeta]:
    """Read a JSON-lines file as records, each line checked by ``checked_lines``.

    Without ``meta``, each type name gets the next id where it first appears
    (``["ENT"]`` for a file with no entities) and the vocabulary is built
    from the file's tokens. With ``meta``, only its type inventory is read:
    a type name outside it is rejected. With ``max_len``, a longer sentence
    is rejected.
    """
    type_ids = {} if meta is None else meta.type_ids
    examples = [SentenceExample(tokens, [EntityAnnotation(*row) for row in rows])
                for tokens, rows in checked_lines(path, type_ids, max_len, grow=meta is None)]
    if meta is None:
        meta = DatasetMeta.build(examples, types=list(type_ids) or ["ENT"])
    return examples, meta


def save_dataset(path: str | Path, examples: list[SentenceExample], meta: DatasetMeta) -> None:
    """Write JSON lines in the external format (inclusive end indices)."""
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            obj = {
                "tokens": ex.tokens,
                "entities": [
                    {"start": e.left, "end": e.right, "type": meta.types[e.type_id]}
                    for e in ex.entities
                ],
            }
            fh.write(json.dumps(obj, ensure_ascii=False))
            fh.write("\n")


# ---------------------------------------------------------------------------
# synthetic corpus generation


@dataclass
class SyntheticSpec:
    """Knobs for the synthetic nested-span corpus."""

    sentences: int = 64
    vocab_size: int = 40
    min_length: int = 8
    max_length: int = 16
    type_count: int = 4
    nesting_ratio: float = 0.3
    max_entities: int = 4

    def __post_init__(self):
        for name in ("sentences", "vocab_size", "min_length", "max_length", "type_count",
                     "max_entities"):
            require(self, name, getattr(self, name) >= 1, ">= 1", DatasetError)
        require(self, "nesting_ratio", 0.0 <= self.nesting_ratio < 1.0, "in [0, 1)",
                DatasetError)
        require(self, "max_length", self.max_length >= self.min_length,
                f">= min_length {self.min_length}", DatasetError)
        require(self, "max_entities", self.max_entities <= self.min_length,
                f"<= min_length {self.min_length}", DatasetError)
        least = 3 * self.type_count + 2
        require(self, "vocab_size", self.vocab_size >= least,
                f">= 3 * type_count + 2 = {least}", DatasetError)


def nesting_ratio(examples: list[SentenceExample]) -> float:
    """Share of entities strictly contained in another entity of the sentence."""
    total = nested = 0
    for ex in examples:
        for e in ex.entities:
            total += 1
            for other in ex.entities:
                if other is e:
                    continue
                if other.left <= e.left and e.right <= other.right and (
                    other.left < e.left or e.right < other.right
                ):
                    nested += 1
                    break
    return nested / total if total else 0.0


def generate_synthetic(spec: SyntheticSpec, seed: int) -> tuple[list[SentenceExample], DatasetMeta]:
    """Deterministic corpus with plantable nesting and type-marked boundaries.

    Every span of type t begins with marker word ``bt``/ends with ``et``
    (single-token spans use ``st``), so boundaries and types are decodable
    from token identity and the task is learnable by a small model. Each
    sentence plants the number of nested spans needed to keep the corpus-wide
    nesting ratio on target.
    """
    rng = np.random.default_rng(seed)
    types = [f"T{t}" for t in range(spec.type_count)]
    fillers = [f"w{j}" for j in range(spec.vocab_size - 3 * spec.type_count)]

    examples = []
    total_spans = 0
    nested_spans = 0
    for _ in range(spec.sentences):
        n = int(rng.integers(spec.min_length, spec.max_length + 1))
        tokens = [fillers[int(rng.integers(len(fillers)))] for _ in range(n)]
        want = int(rng.integers(1, spec.max_entities + 1))
        desired_nested = int(np.floor(spec.nesting_ratio * (total_spans + want) + 0.5))
        plan_nested = min(want - 1, max(0, desired_nested - nested_spans))
        placed: list[tuple[int, int, int, bool]] = []
        marked: set[int] = set()

        def place(left: int, right: int, nested: bool) -> None:
            type_id = int(rng.integers(spec.type_count))
            if left == right:
                tokens[left] = f"s{type_id}"
            else:
                tokens[left] = f"b{type_id}"
                tokens[right] = f"e{type_id}"
            marked.update((left, right))
            placed.append((left, right, type_id, nested))

        def top_level_span(min_len: int = 1, pref_len: int | None = None):
            # top-level spans stay disjoint from everything already placed
            occupied = np.zeros(n, dtype=bool)
            for l1, r1, _, _ in placed:
                occupied[l1 : r1 + 1] = True
            gaps = []
            start = None
            for j in range(n + 1):
                if j < n and not occupied[j]:
                    start = j if start is None else start
                elif start is not None:
                    gaps.append((start, j - 1))
                    start = None
            gaps = [g for g in gaps if g[1] - g[0] + 1 >= min_len]
            if not gaps:
                return None
            gl, gr = gaps[int(rng.integers(len(gaps)))]
            width = gr - gl + 1
            if pref_len is not None:
                length = min(width, pref_len)
            else:
                length = int(rng.integers(1, min(width, 5) + 1))
            lc = gl + int(rng.integers(0, width - length + 1))
            return (lc, lc + length - 1)

        def nested_span():
            hosts = [s for s in placed if s[1] - s[0] >= 2]
            rng.shuffle(hosts)
            for hl, hr, _, _ in hosts:
                for _ in range(30):
                    lc = int(rng.integers(hl + 1, hr))
                    rc = int(rng.integers(lc, hr))
                    interior = set(range(lc, rc + 1))
                    if {lc, rc} & marked:
                        continue
                    if any((l1, r1) == (lc, rc) for l1, r1, _, _ in placed):
                        continue
                    if any(l1 in interior or r1 in interior
                           for l1, r1, _, _ in placed if not (l1 <= lc and rc <= r1)):
                        continue
                    return (lc, rc)
            return None

        if plan_nested:
            host = top_level_span(min_len=3, pref_len=min(n, 2 * plan_nested + 3))
            if host is not None:
                place(host[0], host[1], nested=False)
                total_spans += 1
        while len(placed) < want:
            span = None
            nested_now = False
            if sum(1 for s in placed if s[3]) < plan_nested:
                span = nested_span()
                nested_now = span is not None
            if span is None:
                span = top_level_span()
            if span is None:
                break
            place(span[0], span[1], nested_now)
            total_spans += 1
            nested_spans += int(nested_now)

        entities = [EntityAnnotation(l, r, t) for l, r, t, _ in placed]
        examples.append(SentenceExample(tokens=tokens, entities=entities))

    meta = DatasetMeta.build(examples, types=types)
    return examples, meta
