"""Corpus data model and tooling.

Covers the BIO tag algebra, two-column tag-file I/O with a JSON-lines
annotation sidecar, greedy-longest-match subword tokenization, and a seeded
synthetic corpus generator.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import ContractError, ParseError, ValidationError

DEFAULT_CLASSES = ("Specific", "Composite", "Modifier", "Undetermined")
RELATION_LABELS = ("no-relation", "treats", "causes")
NO_RELATION = "no-relation"

PAD, UNK, MASK, ENT_MASK = 0, 1, 2, 3
# "[ENT-MASK]" has no producer in the package; it keeps index 3 because every
# vocabulary and saved checkpoint starts with these four entries.
RESERVED_ENTRIES = ("[PAD]", "[UNK]", "[MASK]", "[ENT-MASK]")

SPLITS = ("train", "val", "test")
# train/val/test fractions, mirroring a 5064/787/1030 style partition
SPLIT_FRACTIONS = (0.72, 0.11, 0.17)


@dataclass(frozen=True, slots=True)  # frozen: load_conll shares one per surface
class Token:
    surface: str
    subword_ids: Sequence[int] = ()  # a list once tokenize_corpus fills it


@dataclass(frozen=True)
class EntitySpan:
    start: int  # token index, inclusive
    end: int  # token index, inclusive
    cls: str


@dataclass(frozen=True)
class RelationInstance:
    head: int  # index into the sentence's span list
    tail: int
    label: str


@dataclass
class Sentence:
    tokens: list[Token]
    tags: list[int]
    spans: list[EntitySpan] = field(default_factory=list)
    relations: list[RelationInstance] = field(default_factory=list)

    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]


class TagScheme:
    """BIO tag inventory over an ordered list of entity classes.

    Tag indices: O = 0, then B-c = 1 + 2i and I-c = 2 + 2i for class i, so
    K = 2 * len(classes) + 1.
    """

    def __init__(self, classes: Sequence[str] = DEFAULT_CLASSES):
        if len(set(classes)) != len(classes) or not classes:
            raise ContractError(f"classes must be nonempty and unique, got {classes!r}")
        self.classes = list(classes)
        self.tags = ["O"]
        for cls in self.classes:
            self.tags.append(f"B-{cls}")
            self.tags.append(f"I-{cls}")
        self._index = {name: i for i, name in enumerate(self.tags)}

    @property
    def num_tags(self) -> int:
        return len(self.tags)

    def tag_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ParseError(f"unknown tag {name!r}") from None

    def tag_name(self, index: int) -> str:
        return self.tags[index]

    def begin_index(self, cls: str) -> int:
        return self.tag_index(f"B-{cls}")

    def inside_index(self, cls: str) -> int:
        return self.tag_index(f"I-{cls}")

    def __eq__(self, other) -> bool:
        return isinstance(other, TagScheme) and self.classes == other.classes


@dataclass
class Corpus:
    sentences: list[Sentence]
    scheme: TagScheme
    splits: list[str] = field(default_factory=list)  # one of SPLITS per sentence

    def __post_init__(self):
        if not self.splits:
            self.splits = assign_splits(len(self.sentences))
        if len(self.splits) != len(self.sentences):
            raise ContractError("split assignment length does not match sentence count")

    def split_indices(self, split: str) -> list[int]:
        return [i for i, s in enumerate(self.splits) if s == split]

    def subset(self, split: str) -> "Corpus":
        """A corpus holding only one split's sentences, all marked train."""
        return self.select(self.split_indices(split))

    def select(self, indices: Sequence[int]) -> "Corpus":
        picked = [self.sentences[i] for i in indices]
        return Corpus(picked, self.scheme, ["train"] * len(picked))

    def __len__(self) -> int:
        return len(self.sentences)


def assign_splits(n: int) -> list[str]:
    """Deterministic contiguous train/val/test partition by index."""
    n_train = int(n * SPLIT_FRACTIONS[0])
    n_val = int(n * SPLIT_FRACTIONS[1])
    return ["train"] * n_train + ["val"] * n_val + ["test"] * (n - n_train - n_val)


# ---------------------------------------------------------------------------
# BIO tag algebra


def tags_to_spans(
    tags: Sequence[int],
    scheme: TagScheme,
    mode: Literal["strict", "repair"] = "strict",
) -> list[EntitySpan]:
    """Decode a BIO tag sequence into entity spans.

    B-c opens a span, a following I-c extends it, anything else closes it.
    In strict mode an I-c without a preceding B-c/I-c of the same class is
    an error, whose ``index`` is the tag's; repair mode promotes it to B-c.
    """
    if mode not in ("strict", "repair"):
        raise ContractError(f"unknown mode {mode!r}")
    classes = scheme.classes
    spans: list[EntitySpan] = []
    start, open_c = 0, -1  # the open span's first index and class number; -1: none
    for i, tag in enumerate(tags):
        c = (tag - 1) // 2  # O is -1; B-c is odd, I-c even
        if c == open_c and not tag & 1:  # I-c inside c, or O outside any span
            continue
        if tag and not tag & 1 and mode == "strict":
            error = ValidationError(
                f"invalid BIO: {scheme.tag_name(tag)} at index {i} does not continue a span"
            )
            error.index = i
            raise error
        if open_c >= 0:
            spans.append(EntitySpan(start, i - 1, classes[open_c]))
        start, open_c = i, c
    if open_c >= 0:
        spans.append(EntitySpan(start, len(tags) - 1, classes[open_c]))
    return spans


def invalid_transition_rate(batch: Sequence[Sequence[int]]) -> float:
    """Fraction of BIO-violating transitions, counting a virtual start->first.

    An I-tag (even, nonzero) is valid only after its B-tag (``tag - 1``) or
    itself; the virtual start acts as O, so each sentence contributes
    len(sentence) checks.
    """
    if not batch:
        raise ContractError("invalid_transition_rate requires a nonempty batch")
    violations = sum(
        tag > 0 and not tag & 1 and before not in (tag - 1, tag)
        for tags in batch
        for before, tag in zip([0, *tags], tags)
    )
    checked = sum(len(tags) for tags in batch)
    return violations / checked if checked else 0.0


def spans_to_tags(spans: Sequence[EntitySpan], n: int, scheme: TagScheme) -> list[int]:
    """Encode non-overlapping spans as a BIO tag sequence of length n."""
    tags = [0] * n
    for span in spans:
        if not 0 <= span.start <= span.end < n:
            raise ContractError(f"span {span} out of range for length {n}")
        if any(tags[span.start : span.end + 1]):  # every B and I tag is nonzero
            raise ContractError(f"span {span} overlaps another span")
        tags[span.start] = scheme.begin_index(span.cls)
        for i in range(span.start + 1, span.end + 1):
            tags[i] = scheme.inside_index(span.cls)
    return tags


# ---------------------------------------------------------------------------
# tag-file and annotation I/O


def read_utf8(path: str | Path) -> str:
    """A UTF-8 file's text, newlines read as ``Path.read_text`` reads them; a
    byte that is not UTF-8 raises ParseError naming the file and its line."""
    data = Path(path).read_bytes()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line, bad = data.count(b"\n", 0, exc.start) + 1, f"byte {data[exc.start]:#04x}"
        raise ParseError(f"{path} line {line}: {bad} is not UTF-8 ({exc.reason})") from None


def parse_json(text: str):
    """``json.loads``; nesting too deep for it, or an integer longer than
    ``int()`` converts, raises JSONDecodeError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        raise json.JSONDecodeError(str(exc), text, 0) from None


def load_conll(path: str | Path, scheme: TagScheme) -> Corpus:
    """Load a two-column "token<TAB>tag" file, one sentence per blank-line
    block.  Each distinct line is parsed once, each distinct tag sequence's
    spans derived once; sentences share those ``Token``s and ``EntitySpan``s."""
    lines = read_utf8(path).split("\n")
    lines.append("")  # closes the last sentence
    index = scheme._index
    shared: dict[str, Token] = {}
    # each distinct line's (Token, tag); None for a separator, the error if malformed
    parsed: dict[str, tuple[Token, int] | str | None] = dict.fromkeys(lines)
    for line in parsed:
        surface, tab, tag_name = line.partition("\t")
        tag = index.get(tag_name)
        if tag is not None and surface:  # a surface and a known tag: never blank, no tab
            token = shared.get(surface)
            if token is None:
                token = shared[surface] = Token(surface)
            parsed[line] = token, tag
        elif line.strip():
            parsed[line] = (f"unknown tag {tag_name!r}" if tab and surface and "\t" not in tag_name
                            else f"expected 'token<TAB>tag', got {line!r}")
    derived: dict[tuple[int, ...], list[EntitySpan]] = {}
    sentences: list[Sentence] = []
    tokens: list[Token] = []
    tags: list[int] = []
    for line_no, entry in enumerate(map(parsed.__getitem__, lines), start=1):
        if entry.__class__ is tuple:
            token, tag = entry
            tokens.append(token)
            tags.append(tag)
        elif entry:
            raise ParseError(f"{path} line {line_no}: {entry}")
        elif tags:
            key = tuple(tags)
            spans = derived.get(key)
            if spans is None:
                try:
                    spans = derived[key] = tags_to_spans(tags, scheme)
                except ValidationError as exc:
                    bad_line = line_no - len(tags) + exc.index
                    raise ValidationError(f"{path} line {bad_line}: {exc}") from None
            sentences.append(Sentence(tokens, tags, list(spans)))
            tokens, tags = [], []
    return Corpus(sentences, scheme)


def save_conll(corpus: Corpus, path: str | Path) -> None:
    blocks = []
    for sentence in corpus.sentences:
        lines = [
            f"{token.surface}\t{corpus.scheme.tag_name(tag)}"
            for token, tag in zip(sentence.tokens, sentence.tags)
        ]
        blocks.append("\n".join(lines))
    Path(path).write_text("\n\n".join(blocks) + ("\n" if blocks else ""), encoding="utf-8")


def load_annotations(corpus: Corpus, path: str | Path) -> Corpus:
    """Attach spans/relations from a JSON-lines sidecar (order matches the tag
    file).  The spans are ``corpus``'s own objects, in the sidecar's order.
    Each distinct line is decoded and field-checked once, and checked against
    each sentence it annotates."""
    lines = [(n, ln) for n, ln in enumerate(read_utf8(path).split("\n"), 1) if ln.strip()]
    if len(lines) != len(corpus.sentences):
        raise ParseError(
            f"annotation file {path} has {len(lines)} records for {len(corpus.sentences)} sentences"
        )
    decoded: dict[str, tuple[list[tuple], list[RelationInstance]]] = {}
    sentences = []
    for (line_no, line), sentence in zip(lines, corpus.sentences):
        where = f"annotation file {path} line {line_no}"
        fields = decoded.get(line)
        if fields is None:
            try:
                record = parse_json(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{where}: {exc}") from None
            if not isinstance(record, dict):
                raise ParseError(f"{where}: expected a JSON object, got {type(record).__name__}")
            triples = _records(record, "spans", _SPAN_FIELDS, where)
            relations = _records(record, "relations", _RELATION_FIELDS, where)
            fields = decoded[line] = triples, [RelationInstance(*t) for t in relations]
        triples, relations = fields
        if len(sentence.tags) != len(sentence.tokens):
            raise ParseError(
                f"{where}: {len(sentence.tags)} tags for {len(sentence.tokens)} tokens"
            )
        # sentence.spans are load_conll's, derived from the tags in order; the
        # record's may list them in another order, which relations index
        spans = sentence.spans
        derived = [(s.start, s.end, s.cls) for s in spans]
        if triples != derived:
            if sorted(triples) != derived:
                listed = [EntitySpan(*t) for t in triples]
                raise ParseError(f"{where}: spans {listed} disagree with tags {sentence.tags}")
            by_triple = dict(zip(derived, spans))
            spans = [by_triple[triple] for triple in triples]
        pairs = set()
        for rel in relations:
            if rel.head == rel.tail:
                raise ParseError(f"{where}: relation {rel} links a span to itself")
            for idx in (rel.head, rel.tail):
                if not 0 <= idx < len(spans):
                    raise ParseError(f"{where}: relation {rel} references missing span {idx}")
            if rel.label not in RELATION_LABELS:
                raise ParseError(f"{where}: relation {rel} has a label not in {RELATION_LABELS}")
            if (rel.head, rel.tail) in pairs:
                raise ParseError(f"{where}: relation {rel} gives its span pair a second relation")
            pairs.add((rel.head, rel.tail))
        sentences.append(Sentence(sentence.tokens, sentence.tags, list(spans), list(relations)))
    return Corpus(sentences, corpus.scheme, list(corpus.splits))


_SPAN_FIELDS = (("start", int), ("end", int), ("cls", str))
_RELATION_FIELDS = (("head", int), ("tail", int), ("label", str))


def _records(record: dict, key: str, fields: tuple, where: str) -> list[tuple]:
    """The (x, y, z) field values of each span or relation record of ``record[key]``.

    Every record must be an object holding each field with its type; the
    first one that is not raises ParseError naming the field.
    """
    items = record.get(key, [])
    if not isinstance(items, list):
        raise ParseError(f"{where}: {key!r} must be a JSON list")
    (a, kind_a), (b, kind_b), (c, kind_c) = fields
    out = []
    for item in items:
        try:
            x, y, z = item[a], item[b], item[c]
        except (KeyError, TypeError):
            x = y = z = None
        if type(x) is not kind_a or type(y) is not kind_b or type(z) is not kind_c:
            _reject(item, fields, key[:-1], where)
        out.append((x, y, z))
    return out


def _reject(item, fields: tuple, what: str, where: str) -> None:
    if not isinstance(item, dict):
        raise ParseError(f"{where}: each {what} must be a JSON object, got {type(item).__name__}")
    for key, kind in fields:
        if key not in item:
            raise ParseError(f"{where}: {what} record is missing key {key!r}")
        value = item[key]
        if type(value) is not kind:
            raise ParseError(f"{where}: {what} key {key!r} must be {kind.__name__}, got {value!r}")


def save_annotations(corpus: Corpus, path: str | Path) -> None:
    lines = []
    for sentence in corpus.sentences:
        record = {
            "spans": [{"start": s.start, "end": s.end, "cls": s.cls} for s in sentence.spans],
            "relations": [
                {"head": r.head, "tail": r.tail, "label": r.label}
                for r in sentence.relations
            ],
        }
        lines.append(json.dumps(record, separators=(",", ":")))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


# ---------------------------------------------------------------------------
# subword vocabulary


class Vocab:
    """Ordered subword inventory with fixed reserved entries.  It memoizes
    ``tokenize_subword``, so each surface is segmented once per vocab."""

    def __init__(self, entries: Sequence[str]):
        if tuple(entries[:4]) != RESERVED_ENTRIES:
            raise ContractError("vocab must start with the reserved entries")
        if len(set(entries)) != len(entries):
            raise ContractError("vocab has duplicate entries")
        self.entries = list(entries)
        self._index = {entry: i for i, entry in enumerate(self.entries)}
        self._max_piece = max((len(e) for e in self.entries[4:]), default=0)
        self._pieces: dict[str, list[int]] = {}

    def index(self, entry: str) -> int | None:
        return self._index.get(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocab) and self.entries == other.entries


def build_vocab(corpus: Corpus | Iterable[Sentence]) -> Vocab:
    """Reserved entries, then whole tokens, then characters.

    Each section is ordered by (-frequency, lexicographic) so builds are
    deterministic.
    """
    sentences = corpus.sentences if isinstance(corpus, Corpus) else corpus
    word_freq = Counter([token.surface for sentence in sentences for token in sentence.tokens])
    char_freq: Counter[str] = Counter()
    for word, count in word_freq.items():  # each distinct word once, weighted
        for char in word:
            char_freq[char] += count
    entries = list(RESERVED_ENTRIES)
    seen = set(entries)
    for freq in (word_freq, char_freq):
        for entry, _ in sorted(freq.items(), key=lambda kv: (-kv[1], kv[0])):
            if entry not in seen:
                entries.append(entry)
                seen.add(entry)
    return Vocab(entries)


def tokenize_subword(surface: str, vocab: Vocab) -> list[int]:
    """Greedy longest-match segmentation; unknown characters map to [UNK].
    Memoized per vocab; every call returns a new list."""
    ids = vocab._pieces.get(surface)
    if ids is None:
        ids = vocab._pieces[surface] = _segment(surface, vocab)
    return list(ids)


def _segment(surface: str, vocab: Vocab) -> list[int]:
    """``tokenize_subword`` without the memo."""
    reserved = vocab.index(surface)
    if surface in RESERVED_ENTRIES and reserved is not None:
        return [reserved]
    ids: list[int] = []
    pos = 0
    while pos < len(surface):
        match = None
        limit = min(vocab._max_piece, len(surface) - pos)
        for length in range(limit, 0, -1):
            candidate = vocab.index(surface[pos : pos + length])
            if candidate is not None and candidate >= 4:
                match = (candidate, length)
                break
        if match is None:
            ids.append(UNK)
            pos += 1
        else:
            ids.append(match[0])
            pos += match[1]
    return ids or [UNK]


def tokenize_corpus(corpus: Corpus, vocab: Vocab) -> Corpus:
    """Fill every token's subword_ids; returns a new corpus."""
    sentences = []
    for sentence in corpus.sentences:
        tokens = [Token(t.surface, tokenize_subword(t.surface, vocab)) for t in sentence.tokens]
        sentences.append(Sentence(tokens, sentence.tags, sentence.spans, sentence.relations))
    return Corpus(sentences, corpus.scheme, list(corpus.splits))


# ---------------------------------------------------------------------------
# synthetic corpus generation

_ENTITY_LEXICON: dict[str, tuple[tuple[str, ...], ...]] = {
    "Specific": (
        ("influenza",),
        ("asthma",),
        ("migraine",),
        ("tuberculosis",),
        ("malaria",),
        ("measles",),
        ("pneumonia",),
        ("epilepsy",),
        ("lung", "cancer"),
        ("skin", "melanoma"),
    ),
    "Composite": (
        ("cardiovascular", "disease"),
        ("metabolic", "syndrome"),
        ("polycystic", "kidney", "disease"),
        ("irritable", "bowel", "syndrome"),
        ("congestive", "heart", "failure"),
    ),
    "Modifier": (
        ("acute", "inflammation"),
        ("chronic", "fatigue"),
        ("recurrent", "infection"),
        ("severe", "anemia"),
        ("persistent", "cough"),
    ),
    "Undetermined": (
        ("unspecified", "disorder"),
        ("unknown", "syndrome"),
        ("idiopathic", "condition"),
        ("atypical", "presentation"),
        ("undiagnosed", "illness"),
    ),
}

_SLOT = None  # sentinel inside templates

_SINGLE_TEMPLATES: tuple[tuple, ...] = (
    ("the", "patient", "presented", "with", _SLOT, "during", "admission"),
    ("records", "indicate", "a", "history", "of", _SLOT, "since", "childhood"),
    ("follow", "up", "confirmed", _SLOT, "without", "complications"),
    ("the", "clinic", "documented", _SLOT, "in", "the", "discharge", "note"),
)

_PAIR_TEMPLATES: tuple[tuple[tuple, str], ...] = (
    (("untreated", _SLOT, "often", "causes", _SLOT, "in", "elderly", "patients"), "causes"),
    (("specialists", "report", "that", _SLOT, "causes", _SLOT, "over", "time"), "causes"),
    (("early", "therapy", "for", _SLOT, "also", "treats", _SLOT, "in", "most", "cases"), "treats"),
    (("supervised", "care", "for", _SLOT, "treats", _SLOT, "during", "recovery"), "treats"),
    ((_SLOT, "and", _SLOT, "were", "both", "documented", "at", "admission"), NO_RELATION),
    (("the", "registry", "lists", _SLOT, "alongside", _SLOT, "for", "completeness"), NO_RELATION),
)


def generate_synthetic_corpus(size: int, seed: int) -> Corpus:
    """Deterministic pseudo-clinical corpus with all four entity classes.

    A pure function of (size, seed): template and entity choices come from a
    single seeded generator, and splits are assigned by index.
    """
    if size < 0:
        raise ContractError(f"size must be >= 0, got {size}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(np.random.SeedSequence([size, seed]))
    scheme = TagScheme(DEFAULT_CLASSES)
    templates = [(t, None) for t in _SINGLE_TEMPLATES] + list(_PAIR_TEMPLATES)
    sentences: list[Sentence] = []
    for _ in range(size):
        template, label = templates[rng.integers(len(templates))]
        tokens: list[Token] = []
        spans: list[EntitySpan] = []
        for item in template:
            if item is not _SLOT:
                tokens.append(Token(item))
                continue
            cls = scheme.classes[rng.integers(len(scheme.classes))]
            surfaces = _ENTITY_LEXICON[cls]
            surface = surfaces[rng.integers(len(surfaces))]
            start = len(tokens)
            tokens.extend(Token(word) for word in surface)
            spans.append(EntitySpan(start, len(tokens) - 1, cls))
        relations = []
        if label is not None and label != NO_RELATION:
            relations.append(RelationInstance(0, 1, label))
        tags = spans_to_tags(spans, len(tokens), scheme)
        sentences.append(Sentence(tokens, tags, spans, relations))
    return Corpus(sentences, scheme)

