import dataclasses
import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medext import corpus as C
from medext.corpus import (
    Corpus,
    EntitySpan,
    RelationInstance,
    Sentence,
    TagScheme,
    Token,
    Vocab,
    build_vocab,
    generate_synthetic_corpus,
    load_annotations,
    load_conll,
    save_annotations,
    save_conll,
    spans_to_tags,
    tags_to_spans,
    tokenize_corpus,
    tokenize_subword,
)
from medext.errors import ContractError, ParseError, ValidationError
import oracles

PROPERTY = settings(max_examples=150, deadline=None)


@pytest.fixture
def scheme_d():
    return TagScheme(["D"])


ANNOTATED = Corpus(
    [
        Sentence([Token(w) for w in "a b c d e".split()], [1, 2, 0, 3, 0],
                 [EntitySpan(0, 1, "D"), EntitySpan(3, 3, "E")]),
        Sentence([Token(w) for w in "f g h".split()], [0, 3, 1],
                 [EntitySpan(1, 1, "E"), EntitySpan(2, 2, "D")]),
        Sentence([Token("i")], [0]),
    ],
    TagScheme(["D", "E"]),
)


def make_sentence(words, spans, scheme, relations=()):
    tags = spans_to_tags(spans, len(words), scheme)
    return Sentence([Token(w) for w in words], tags, list(spans), list(relations))


class TestTagScheme:
    def test_tag_inventory(self):
        scheme = TagScheme(["Specific", "Composite", "Modifier", "Undetermined"])
        assert scheme.num_tags == 9
        assert scheme.tag_index("O") == 0
        assert scheme.tag_name(scheme.tag_index("B-Modifier")) == "B-Modifier"

    def test_bijection(self):
        scheme = TagScheme(["A", "B"])
        for i in range(scheme.num_tags):
            assert scheme.tag_index(scheme.tag_name(i)) == i


class TestTagsToSpans:
    def test_all_outside(self, scheme_d):
        assert tags_to_spans([0, 0, 0], scheme_d) == []

    def test_hand_trace(self, scheme_d):
        b, i = scheme_d.begin_index("D"), scheme_d.inside_index("D")
        spans = tags_to_spans([b, i, 0, b], scheme_d)
        assert spans == [EntitySpan(0, 1, "D"), EntitySpan(3, 3, "D")]

    def test_dangling_inside_repair_vs_strict(self, scheme_d):
        tags = [0, scheme_d.inside_index("D")]
        assert tags_to_spans(tags, scheme_d, mode="repair") == [EntitySpan(1, 1, "D")]
        with pytest.raises(ValidationError, match="index 1"):
            tags_to_spans(tags, scheme_d, mode="strict")

    def test_class_switch_inside_closes_span(self):
        scheme = TagScheme(["A", "B"])
        tags = [scheme.begin_index("A"), scheme.inside_index("B")]
        spans = tags_to_spans(tags, scheme, mode="repair")
        assert spans == [EntitySpan(0, 0, "A"), EntitySpan(1, 1, "B")]

    def test_trailing_entity_closed(self, scheme_d):
        b, i = scheme_d.begin_index("D"), scheme_d.inside_index("D")
        assert tags_to_spans([0, b, i], scheme_d) == [EntitySpan(1, 2, "D")]

    @PROPERTY
    @given(data=st.data(), classes=st.integers(1, 4), mode=st.sampled_from(["strict", "repair"]))
    def test_matches_oracle(self, data, classes, mode):
        """The flat loop gives the spans, or the error text, of the decoder
        that goes through ``oracles.kind``."""
        scheme = TagScheme([f"C{k}" for k in range(classes)])
        tags = data.draw(st.lists(st.integers(0, scheme.num_tags - 1), max_size=14))
        try:
            expected = oracles.tags_to_spans(tags, scheme, mode)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as info:
                tags_to_spans(tags, scheme, mode)
            assert str(info.value) == str(exc)
        else:
            assert tags_to_spans(tags, scheme, mode) == expected


class TestSpansToTags:
    def test_empty(self, scheme_d):
        assert spans_to_tags([], 3, scheme_d) == [0, 0, 0]

    def test_hand_trace(self, scheme_d):
        tags = spans_to_tags([EntitySpan(0, 1, "D")], 3, scheme_d)
        assert tags == [scheme_d.begin_index("D"), scheme_d.inside_index("D"), 0]

    def test_overlap_rejected(self, scheme_d):
        # the later span overlaps the earlier one at its last, then at its first position
        for spans in (
            [EntitySpan(0, 2, "D"), EntitySpan(2, 3, "D")],
            [EntitySpan(2, 3, "D"), EntitySpan(0, 2, "D")],
        ):
            with pytest.raises(ContractError, match="overlaps another span"):
                spans_to_tags(spans, 5, scheme_d)

    def test_out_of_range_rejected(self, scheme_d):
        with pytest.raises(ContractError):
            spans_to_tags([EntitySpan(1, 3, "D")], 3, scheme_d)

    @pytest.mark.parametrize("seed", range(25))
    def test_round_trip_on_random_span_sets(self, seed):
        scheme = TagScheme(["A", "B", "C"])
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 15))
        spans, used = [], [False] * n
        for _ in range(rng.integers(0, 5)):
            start = int(rng.integers(0, n))
            end = min(n - 1, start + int(rng.integers(0, 3)))
            if any(used[start : end + 1]):
                continue
            for k in range(start, end + 1):
                used[k] = True
            spans.append(EntitySpan(start, end, scheme.classes[rng.integers(3)]))
        spans.sort(key=lambda s: s.start)
        assert tags_to_spans(spans_to_tags(spans, n, scheme), scheme, "strict") == spans


class TestConllIO:
    def test_empty_file(self, tmp_path, scheme_d):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        assert len(load_conll(path, scheme_d)) == 0

    def test_single_sentence(self, tmp_path):
        scheme = TagScheme(["Specific"])
        path = tmp_path / "one.tsv"
        path.write_text("flu\tB-Specific\n\n")
        corpus = load_conll(path, scheme)
        assert len(corpus) == 1
        assert corpus.sentences[0].spans == [EntitySpan(0, 0, "Specific")]

    def test_unknown_tag_named_in_error(self, tmp_path):
        scheme = TagScheme(["Specific"])
        path = tmp_path / "bad.tsv"
        path.write_text("flu\tB-Bogus\n")
        with pytest.raises(ParseError, match=r"bad.tsv line 1: unknown tag 'B-Bogus'"):
            load_conll(path, scheme)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_bad_byte_names_file_and_line(self, tmp_path, scheme_d, newline):
        path = tmp_path / "bytes.tsv"
        path.write_bytes(newline.join([b"flu\tO", b"", "\u00e9t\u00e9\tO".encode(), b"b\xffd\tO"]))
        with pytest.raises(ParseError, match=r"bytes.tsv line 4: byte 0xff is not UTF-8"):
            load_conll(path, scheme_d)

    @pytest.mark.parametrize(
        "data", [b"a\tO\r\nb\tO\r\rc\tO\r", "\ufeff\u2028x\tO\n".encode(), b""]
    )
    def test_read_utf8_matches_read_text(self, tmp_path, data):
        path = tmp_path / "text.tsv"
        path.write_bytes(data)
        assert C.read_utf8(path) == path.read_text(encoding="utf-8")

    def test_tokens_are_frozen_and_shared_per_surface(self, tmp_path, scheme_d):
        path = tmp_path / "two.tsv"
        path.write_text("a\tO\nb\tB-D\n\nb\tO\na\tO\n")
        first, second = load_conll(path, scheme_d).sentences
        assert first.tokens[0] is second.tokens[1] and first.tokens[1] is second.tokens[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.tokens[0].surface = "c"

    def test_arity_mismatch(self, tmp_path, scheme_d):
        path = tmp_path / "bad.tsv"
        path.write_text("flu\n")
        with pytest.raises(ParseError, match=r"bad.tsv line 1: expected"):
            load_conll(path, scheme_d)

    def test_invalid_bio_strict(self, tmp_path, scheme_d):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tO\nb\tI-D\n")
        message = "bad.tsv line 2: invalid BIO: I-D at index 1 does not continue a span"
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_conll(path, scheme_d)

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"a\tO\nb\tI-D", 2),  # no final newline
            (b"x\tB-D\r\n \t\r\n\r\n\r\na\tO\r\nb\tO\r\nc\tI-D\r\n\r\n", 7),
            (b"a\tB-D\nb\tI-D\nc\tO\nd\tI-D\ne\tO\n", 4),
        ],
        ids=["no-final-newline", "crlf-after-separators", "after-a-span"],
    )
    def test_invalid_bio_names_the_tags_line(self, tmp_path, scheme_d, data, line):
        path = tmp_path / "bad.tsv"
        path.write_bytes(data)
        with pytest.raises(ValidationError, match=rf"bad.tsv line {line}: invalid BIO: I-D"):
            load_conll(path, scheme_d)

    def test_save_load_round_trip_bytes(self, tmp_path):
        corpus = generate_synthetic_corpus(30, seed=3)
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        save_conll(corpus, first)
        reloaded = load_conll(first, corpus.scheme)
        save_conll(reloaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_annotation_round_trip(self, tmp_path):
        corpus = generate_synthetic_corpus(30, seed=3)
        tags = tmp_path / "c.tsv"
        ann = tmp_path / "c.jsonl"
        save_conll(corpus, tags)
        save_annotations(corpus, ann)
        loaded = load_annotations(load_conll(tags, corpus.scheme), ann)
        for orig, back in zip(corpus.sentences, loaded.sentences):
            assert back.spans == orig.spans
            assert back.relations == orig.relations
        ann2 = tmp_path / "d.jsonl"
        save_annotations(loaded, ann2)
        assert ann.read_bytes() == ann2.read_bytes()

    def test_one_span_derivation_per_distinct_tag_sequence(self, tmp_path, monkeypatch):
        corpus = generate_synthetic_corpus(30, seed=3)
        save_conll(corpus, tmp_path / "c.tsv")
        save_annotations(corpus, tmp_path / "c.jsonl")
        calls, derive = [], C.tags_to_spans
        monkeypatch.setattr(C, "tags_to_spans", lambda *a, **k: calls.append(1) or derive(*a, **k))
        tagged = load_conll(tmp_path / "c.tsv", corpus.scheme)
        assert len(calls) == len({tuple(s.tags) for s in corpus.sentences}) == 20
        load_annotations(tagged, tmp_path / "c.jsonl")
        assert len(calls) == 20

    @PROPERTY
    @given(data=st.data())
    def test_record_checks_match_oracle(self, tmp_path_factory, data):
        """A record loads, or fails with the message the check against spans
        derived anew from the tags gives."""
        corpus = ANNOTATED
        row = data.draw(st.integers(0, len(corpus) - 1))
        sentence = corpus.sentences[row]
        n = len(sentence.tokens)
        span = st.builds(
            EntitySpan, st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(["D", "E"])
        )
        spans = data.draw(st.permutations(sentence.spans + data.draw(st.lists(span, max_size=2))))
        spans = spans[: data.draw(st.integers(0, len(spans)))]
        relation = st.builds(
            RelationInstance, st.integers(-1, 3), st.integers(-1, 3), st.just("treats")
        )
        relations = data.draw(st.lists(relation, max_size=2))
        edited = Sentence(sentence.tokens, sentence.tags, spans, relations)
        records = Corpus([edited if i == row else s for i, s in enumerate(corpus.sentences)],
                         corpus.scheme)
        path = tmp_path_factory.mktemp("records") / "a.jsonl"
        save_annotations(records, path)
        try:
            oracles.validate_sentence(edited, corpus.scheme)
        except ValidationError as exc:
            with pytest.raises(ParseError) as info:
                load_annotations(corpus, path)
            assert str(info.value) == f"annotation file {path} line {row + 1}: {exc}"
        else:
            loaded = load_annotations(corpus, path).sentences[row]
            assert (loaded.spans, loaded.relations) == (spans, relations)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_record_error_names_its_file_line(self, tmp_path, newline):
        # blank and whitespace-only lines between records still count as lines
        path = tmp_path / "a.jsonl"
        save_annotations(ANNOTATED, path)
        first, second, third = path.read_text().split("\n")[:3]
        record = json.loads(second)
        record["relations"] = [{"head": 0, "tail": 0, "label": "treats"}]
        path.write_bytes(newline.join([first, "", " \t", json.dumps(record), third]).encode())
        with pytest.raises(ParseError, match=r"a.jsonl line 4: relation .* links a span to itself"):
            load_annotations(ANNOTATED, path)

    def test_a_span_pair_takes_one_relation(self, tmp_path):
        """A second relation on a (head, tail) pair is rejected; the reverse
        pair is another pair."""
        path = tmp_path / "a.jsonl"
        save_annotations(ANNOTATED, path)
        first, second, third = path.read_text().split("\n")[:3]
        record = json.loads(first)
        record["relations"] = [{"head": 0, "tail": 1, "label": "causes"},
                               {"head": 1, "tail": 0, "label": "treats"}]
        path.write_text("\n".join([json.dumps(record), second, third]))
        assert len(load_annotations(ANNOTATED, path).sentences[0].relations) == 2
        record["relations"].append({"head": 0, "tail": 1, "label": "treats"})
        path.write_text("\n".join([json.dumps(record), second, third]))
        repeated = RelationInstance(0, 1, "treats")
        message = f"a.jsonl line 1: relation {repeated} gives its span pair a second relation"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_annotations(ANNOTATED, path)

    def test_records_are_decoded_line_by_line(self, tmp_path, scheme_d):
        """A record split over two lines fails on its first line, although a
        line of two records makes up the count and the whole file would
        decode as one JSON array."""
        corpus = Corpus([make_sentence(["a"], [], scheme_d) for _ in range(3)], scheme_d)
        path = tmp_path / "a.jsonl"
        path.write_text('{"spans":\n[]}\n{}, {}\n')
        with pytest.raises(ParseError, match=r"a.jsonl line 1: Expecting value"):
            load_annotations(corpus, path)

    def test_annotation_count_mismatch(self, tmp_path):
        corpus = generate_synthetic_corpus(5, seed=1)
        ann = tmp_path / "short.jsonl"
        ann.write_text('{"spans":[],"relations":[]}\n')
        with pytest.raises(ParseError, match=r"short.jsonl has 1 records for 5 sentences"):
            load_annotations(corpus, ann)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r["spans"][0].pop("end"), "span record is missing key 'end'"),
            (lambda r: r["spans"][0].pop("cls"), "span record is missing key 'cls'"),
            (lambda r: r["relations"][0].pop("label"), "relation record is missing key 'label'"),
            (lambda r: r["spans"].insert(0, 5), "each span must be a JSON object"),
            (lambda r: r["spans"][0].update(start="0"), "span key 'start' must be int"),
            (lambda r: r.update(relations={}), "'relations' must be a JSON list"),
            (lambda r: [1, 2], "expected a JSON object, got list"),
        ],
    )
    def test_malformed_record_names_file_and_line(self, tmp_path, edit, message):
        corpus = generate_synthetic_corpus(30, seed=3)
        ann = tmp_path / "c.jsonl"
        save_annotations(corpus, ann)
        lines = ann.read_text().split("\n")
        row = next(i for i, s in enumerate(corpus.sentences) if s.relations)
        record = json.loads(lines[row])
        edited = edit(record)
        lines[row] = json.dumps(edited if isinstance(edited, list) else record)
        ann.write_text("\n".join(lines))
        with pytest.raises(ParseError) as info:
            load_annotations(corpus, ann)
        assert str(ann) in str(info.value)
        assert f"line {row + 1}:" in str(info.value)
        assert message in str(info.value)


def failure(load, *args) -> tuple[type, str]:
    with pytest.raises((ParseError, ValidationError)) as info:
        load(*args)
    return type(info.value), str(info.value)


class TestRepeatedLines:
    """The loaders parse each distinct line once, but a line's checks that
    depend on its place still run at every place: nothing one occurrence
    found carries over to another."""

    @pytest.mark.parametrize(
        "lines, bad_line",
        [
            (["a\tO", "x", "", "x\tB-Bogus", "x", "x\tB-Bogus"], 2),
            (["a\tO", "x\tB-Bogus", "", "x", "x\tB-Bogus", "x"], 2),
            (["a\tI-D", "", "x", "x"], 1),  # a sentence that ends first fails first
            (["a\tB-D", "b\tI-D", "", "a\tO", "b\tI-D"], 5),  # valid at line 2, not at 5
        ],
        ids=["malformed-first", "unknown-tag-first", "invalid-bio-first", "line-valid-once"],
    )
    def test_tag_file_error_names_the_first_bad_line(self, tmp_path, scheme_d, lines, bad_line):
        path = tmp_path / "bad.tsv"
        path.write_text("\n".join(lines) + "\n")
        got = failure(load_conll, path, scheme_d)
        assert got == failure(oracles.load_conll, path, scheme_d)
        assert f"bad.tsv line {bad_line}:" in got[1]

    @pytest.mark.parametrize(
        "records, bad_line",
        [
            (["{}", '{"spans": 1}', "{}", '{"spans": 1}'], 2),
            (["{}", "nul", "[]", "nul", "[]"], 2),
            (['{"relations": [{"head": 0, "tail": 0, "label": "treats"}]}', "nul", "nul"], 1),
        ],
        ids=["field-check", "decode", "sentence-check-first"],
    )
    def test_sidecar_error_names_the_first_bad_line(self, tmp_path, scheme_d, records, bad_line):
        corpus = Corpus([make_sentence(["a"], [], scheme_d) for _ in records], scheme_d)
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(records) + "\n")
        got = failure(load_annotations, corpus, path)
        assert got == failure(oracles.load_annotations, corpus, path)
        assert f"bad.jsonl line {bad_line}:" in got[1]

    @pytest.mark.parametrize(
        "tags, record",
        [
            ("flu\tB-D\n\nflu\tO\n", {"spans": [{"start": 0, "end": 0, "cls": "D"}]}),
            ("flu\tO\n\nflu\tB-D\n", {}),
        ],
    )
    def test_sidecar_line_is_checked_against_each_sentence(self, tmp_path, scheme_d, tags, record):
        """One record line fits the first sentence's tags, not the second's."""
        (tmp_path / "c.tsv").write_text(tags)
        corpus = load_conll(tmp_path / "c.tsv", scheme_d)
        path = tmp_path / "a.jsonl"
        path.write_text(f"{json.dumps(record)}\n" * 2)
        got = failure(load_annotations, corpus, path)
        assert got == failure(oracles.load_annotations, corpus, path)
        assert got[1].startswith(f"annotation file {path} line 2: spans")

    def test_sentences_with_equal_lines_get_their_own_lists(self, tmp_path, scheme_d):
        (tmp_path / "c.tsv").write_text("a\tB-D\nb\tB-D\n\na\tB-D\nb\tB-D\n")
        spans = [{"start": 0, "end": 0, "cls": "D"}, {"start": 1, "end": 1, "cls": "D"}]
        record = {"spans": spans, "relations": [{"head": 0, "tail": 1, "label": "treats"}]}
        sidecar = tmp_path / "c.jsonl"
        sidecar.write_text(f"{json.dumps(record)}\n" * 2)
        corpus = load_conll(tmp_path / "c.tsv", scheme_d)
        loaded = load_annotations(corpus, sidecar)
        assert loaded == oracles.load_annotations(corpus, sidecar)
        for first, second in (corpus.sentences, loaded.sentences):
            assert first == second
            for name in ("tags", "spans", "relations"):
                assert getattr(first, name) is not getattr(second, name), name


class TestVocab:
    def test_empty_corpus_reserved_only(self, scheme_d):
        vocab = build_vocab(Corpus([], scheme_d))
        assert vocab.entries == list(C.RESERVED_ENTRIES)

    def test_determinism(self):
        corpus = generate_synthetic_corpus(50, seed=9)
        assert build_vocab(corpus).entries == build_vocab(corpus).entries

    def test_duplicate_rejected(self):
        with pytest.raises(ContractError):
            Vocab(list(C.RESERVED_ENTRIES) + ["x", "x"])


class TestVocabOracle:
    SURFACE = st.sampled_from(["flu", "cough", "fever", "ß", "[PAD]", "[MASK]", "f"]) | st.text(
        st.sampled_from("abcé[]ß"), min_size=1, max_size=4
    )

    @PROPERTY
    @given(sentences=st.lists(st.lists(SURFACE, min_size=1, max_size=6), max_size=8))
    def test_entries_match_per_token_count(self, sentences):
        corpus = [Sentence([Token(w) for w in words], [0] * len(words)) for words in sentences]
        assert build_vocab(corpus).entries == oracles.vocab_entries(corpus)


class TestTokenizeSubword:
    def test_whole_token_hit(self, scheme_d):
        vocab = build_vocab([make_sentence(["flu"], [], scheme_d)])
        assert tokenize_subword("flu", vocab) == [vocab.index("flu")]

    def test_greedy_longest_match(self, scheme_d):
        vocab = build_vocab([make_sentence(["flu", "cough"], [], scheme_d)])
        ids = tokenize_subword("flucough", vocab)
        assert ids == [vocab.index("flu"), vocab.index("cough")]
        char_ids = tokenize_subword("fluco", vocab)
        assert char_ids == [vocab.index("flu"), vocab.index("c"), vocab.index("o")]

    def test_unknown_char_falls_back(self, scheme_d):
        vocab = build_vocab([make_sentence(["flu"], [], scheme_d)])
        assert tokenize_subword("ß", vocab) == [C.UNK]

    def test_reserved_surface(self, scheme_d):
        vocab = build_vocab([make_sentence(["flu"], [], scheme_d)])
        assert tokenize_subword("[ENT-MASK]", vocab) == [C.ENT_MASK]

    def test_pieces_reconstruct_surface(self):
        corpus = generate_synthetic_corpus(100, seed=5)
        vocab = build_vocab(corpus)
        for sentence in corpus.sentences[:30]:
            for token in sentence.tokens:
                ids = tokenize_subword(token.surface, vocab)
                if C.UNK not in ids:
                    assert "".join(vocab.entries[i] for i in ids) == token.surface


class TestTokenizeCorpus:
    def test_equals_per_token_segmentation(self):
        corpus = generate_synthetic_corpus(80, seed=6)
        vocab = build_vocab(corpus.sentences[:40])  # later sentences have unseen words
        tokenized = tokenize_corpus(corpus, vocab)
        fresh = Vocab(vocab.entries)  # an empty memo: each surface is segmented anew
        for before, after in zip(corpus.sentences, tokenized.sentences):
            assert after.surfaces() == before.surfaces()
            for token in after.tokens:
                assert token.subword_ids == tokenize_subword(token.surface, fresh)

    def test_each_token_owns_its_list(self):
        corpus = generate_synthetic_corpus(10, seed=6)
        tokenized = tokenize_corpus(corpus, build_vocab(corpus))
        tokens = [t for sentence in tokenized.sentences for t in sentence.tokens]
        first = next(t for t in tokens if sum(u.surface == t.surface for u in tokens) > 1)
        twin = next(t for t in tokens if t is not first and t.surface == first.surface)
        assert first.subword_ids == twin.subword_ids
        assert first.subword_ids is not twin.subword_ids
        first.subword_ids.append(C.UNK)
        assert twin.subword_ids != first.subword_ids


class TestGenerator:
    def test_size_zero(self):
        assert len(generate_synthetic_corpus(0, seed=0)) == 0

    def test_same_seed_identical(self):
        a = generate_synthetic_corpus(40, seed=11)
        b = generate_synthetic_corpus(40, seed=11)
        assert a.sentences == b.sentences
        assert a.splits == b.splits

    def test_different_seed_differs(self):
        a = generate_synthetic_corpus(40, seed=11)
        b = generate_synthetic_corpus(40, seed=12)
        assert a.sentences != b.sentences

    def test_class_balance_at_1000(self):
        corpus = generate_synthetic_corpus(1000, seed=7)
        counts = Counter(s.cls for sent in corpus.sentences for s in sent.spans)
        assert set(counts) == set(corpus.scheme.classes)
        for cls in corpus.scheme.classes:
            assert counts[cls] >= 150

    def test_split_ratios(self):
        corpus = generate_synthetic_corpus(1000, seed=7)
        assert len(corpus.split_indices("train")) == 720
        assert len(corpus.split_indices("val")) == 110
        assert len(corpus.split_indices("test")) == 170

    def test_sentences_validate(self):
        corpus = generate_synthetic_corpus(200, seed=2)
        for sentence in corpus.sentences:
            oracles.validate_sentence(sentence, corpus.scheme)

    def test_relations_use_real_labels(self):
        corpus = generate_synthetic_corpus(500, seed=4)
        labels = {r.label for s in corpus.sentences for r in s.relations}
        assert labels == {"treats", "causes"}
