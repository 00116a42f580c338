"""Batched inference: one head pass and one relation pass per packed chunk.

Each batched decoder gives, sentence by sentence, exactly what its
one-sentence oracle in ``oracles`` gives, and so does a batch of one;
``evaluate_split`` gives exactly the per-sentence oracle's report.  The
work guard counts the passes one ``evaluate_split`` makes.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medext import pipeline
from medext import tensor as T
from medext.corpus import Corpus, EntitySpan, RelationInstance, Sentence, generate_synthetic_corpus
from medext.crf_head import emissions, init_crf, viterbi
from medext.pipeline import EVAL_CHUNK, HEAD_KINDS, evaluate_split, predict
from medext.relation_head import init_relation, predict_relations
from medext.seq2seq_head import greedy_decode, init_seq2seq
from medext.span_head import decode_spans, init_span, score_all_spans
from medext.tensor import Tensor
from medext.training import TrainConfig, train
from oracles import (
    decode_spans_one,
    evaluate_split_one,
    greedy_decode_one,
    predict_relations_one,
    viterbi_one,
)

EQUIVALENCE = settings(max_examples=100, deadline=None)
D = 6  # width of the random word rows
CLASSES = ["A", "B"]

# A chunk: 1 to EVAL_CHUNK sentences of 1 to 12 words.
LENGTHS = st.lists(st.integers(1, 12), min_size=1, max_size=EVAL_CHUNK)


def chunk_examples(test):
    """One one-word sentence, a full chunk of them, the longest sentence
    last, and equal lengths."""
    for lengths in ([1], [1] * EVAL_CHUNK, [2, 1, 3, 1, 12], [4, 4, 4]):
        test = example(lengths=lengths, seed=len(lengths))(test)
    return test


def setup_function(_):
    T.reset_tape()


def packed(lengths, seed, d=D):
    """Random packed word rows and each sentence's own rows."""
    h = Tensor(np.random.default_rng(seed).standard_normal((sum(lengths), d)))
    bounds = np.cumsum([0, *lengths]).tolist()
    return h, [T.gather(h, slice(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]


def randomize(params, seed):
    """Every parameter tensor of a head drawn at random, biases included."""
    rng = np.random.default_rng(seed)
    for t in params.named().values():
        t.values[...] = rng.standard_normal(t.shape)
    return params


@EQUIVALENCE
@given(lengths=LENGTHS, seed=st.integers(0, 2**16))
@chunk_examples
def test_crf_chunk_decode_matches_one_sentence_oracle(lengths, seed):
    head = randomize(init_crf(D, 5, seed), seed)
    h, blocks = packed(lengths, seed)
    decoded = viterbi(emissions(h, head), head.trans, head.start, head.stop, lengths)
    assert len(decoded) == len(lengths)
    for (path, score), block in zip(decoded, blocks):
        e = emissions(block, head)
        want_path, want_score = viterbi_one(e, head.trans, head.start, head.stop)
        assert path == want_path
        assert math.isclose(score, want_score, rel_tol=1e-12, abs_tol=1e-12)
        assert viterbi(e, head.trans, head.start, head.stop) == (want_path, want_score)


@EQUIVALENCE
@given(lengths=LENGTHS, seed=st.integers(0, 2**16))
@chunk_examples
def test_seq2seq_chunk_decode_matches_one_sentence_oracle(lengths, seed):
    head = randomize(init_seq2seq(D, 5, seed), seed)
    h, blocks = packed(lengths, seed)
    decoded = greedy_decode(h, head, lengths)
    assert decoded == [greedy_decode_one(block, head) for block in blocks]
    assert [greedy_decode(b, head, [n])[0] for b, n in zip(blocks, lengths)] == decoded


@EQUIVALENCE
@given(lengths=LENGTHS, seed=st.integers(0, 2**16))
@chunk_examples
def test_span_chunk_decode_matches_one_sentence_oracle(lengths, seed):
    head = randomize(init_span(D, CLASSES, seed, max_width=1 + seed % 4), seed)
    h, blocks = packed(lengths, seed)
    decoded = decode_spans(score_all_spans(h, head, lengths), head.classes)
    tables = [score_all_spans(b, head, [n]) for b, n in zip(blocks, lengths)]
    want = [decode_spans_one(table, head.classes) for table in tables]
    assert decoded == want
    assert [decode_spans(table, head.classes)[0] for table in tables] == want


@EQUIVALENCE
@given(lengths=LENGTHS, seed=st.integers(0, 2**16))
@chunk_examples
def test_chunk_relations_match_one_sentence_oracle(lengths, seed):
    """Up to four spans per sentence, overlaps and repeats allowed."""
    params = randomize(init_relation(D, seed), seed)
    h, blocks = packed(lengths, seed)
    rng = np.random.default_rng(seed + 1)
    groups = []
    for n in lengths:
        starts = rng.integers(0, n, size=rng.integers(0, 5)).tolist()
        groups.append([EntitySpan(i, int(rng.integers(i, n)), "A") for i in starts])
    found = predict_relations(h, groups, params, lengths)
    want = [predict_relations_one(block, group, params) for block, group in zip(blocks, groups)]
    assert found == want
    alone = zip(blocks, groups, lengths)
    assert [predict_relations(b, [g], params, [n])[0] for b, g, n in alone] == want


@functools.cache
def trained(head):
    """A briefly trained model of each head, and the corpus it saw."""
    corpus = generate_synthetic_corpus(60, seed=11)
    return train(corpus, TrainConfig(steps=20, seed=3, head=head)).model, corpus


def cut(sentence, k):
    """A sentence's first k words, with the gold spans and relations inside them."""
    kept = [i for i, span in enumerate(sentence.spans) if span.end < k]
    index = {old: new for new, old in enumerate(kept)}
    relations = [
        RelationInstance(index[r.head], index[r.tail], r.label)
        for r in sentence.relations if r.head in index and r.tail in index
    ]
    spans = [sentence.spans[i] for i in kept]
    return Sentence(sentence.tokens[:k], sentence.tags[:k], spans, relations)


@settings(max_examples=30, deadline=None)
@given(
    head=st.sampled_from(HEAD_KINDS),
    picks=st.lists(st.tuples(st.integers(0, 59), st.integers(1, 13)), min_size=1, max_size=40),
)
@example(head="crf", picks=[(0, 1)])
@example(head="span", picks=[(i, 1 + i % 3) for i in range(EVAL_CHUNK)] + [(20, 13)])
@example(head="seq2seq", picks=[(i, 13) for i in range(2 * EVAL_CHUNK + 1)])
def test_evaluate_split_matches_per_sentence_oracle(head, picks):
    """A split of up to 40 drawn sentences, each cut to a drawn length,
    scores exactly as the one-sentence-at-a-time oracle scores it."""
    model, corpus = trained(head)
    sentences = [cut(corpus.sentences[i], k) for i, k in picks]
    split = Corpus(sentences, corpus.scheme, ["test"] * len(sentences))
    want = evaluate_split_one(model, split, "test")
    assert evaluate_split(model, split, "test").as_dict() == want


@pytest.mark.parametrize("head, scorer", [
    ("crf", "emissions"), ("span", "score_all_spans"), ("seq2seq", "greedy_decode"),
])
def test_one_head_pass_and_two_relation_passes_per_chunk(monkeypatch, head, scorer):
    """On a 40-sentence split, evaluate_split scores the head once per chunk
    of EVAL_CHUNK sentences and runs one relation pass over each chunk's gold
    spans and one over its predicted spans, recording nothing; the caller
    iterates predict's result with recording on."""
    model, corpus = trained(head)
    split = corpus.select(range(40))
    chunks = math.ceil(40 / EVAL_CHUNK)
    scored, passes = [], []
    score, relate = getattr(pipeline, scorer), pipeline.predict_relations

    def counting_score(*args, **kwargs):
        scored.append(args)
        return score(*args, **kwargs)

    def counting_relate(h, spans, params, lengths=None):
        passes.append((h.shape[0], list(spans), list(lengths)))
        return relate(h, spans, params, lengths)

    monkeypatch.setattr(pipeline, scorer, counting_score)
    monkeypatch.setattr(pipeline, "predict_relations", counting_relate)
    T.reset_tape()
    evaluate_split(model, split, "train")
    assert len(scored) == chunks
    assert len(T.active_tape().records) == 0
    assert len(passes) == 2 * chunks
    sentences = split.sentences
    for c in range(chunks):
        chunk = sentences[c * EVAL_CHUNK:(c + 1) * EVAL_CHUNK]
        lengths = [len(s.tokens) for s in chunk]
        (rows, gold, gold_lengths), (_, pred, pred_lengths) = passes[2 * c:2 * c + 2]
        assert rows == sum(lengths) and gold_lengths == pred_lengths == lengths
        assert gold == [s.spans for s in chunk] and len(pred) == len(chunk)
    for spans, tags in predict(model, sentences):
        assert T.active_tape().recording
    assert T.active_tape().recording
