"""Glue between the encoder and the extraction heads.

The encoder runs over subword ids; tags, spans, and relations live at the
word level.  Each word is represented by the encoder row of its first
subword, which keeps every head aligned with the gold annotations regardless
of how words fragment.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields, replace
from typing import Sequence

from . import tensor as T
from .corpus import (
    Corpus,
    EntitySpan,
    Sentence,
    TagScheme,
    Vocab,
    NO_RELATION,
    invalid_transition_rate,
    spans_to_tags,
    tags_to_spans,
    tokenize_subword,
)
from .crf_head import CRFParams, crf_nll, emissions, init_crf, viterbi
from .encoder import EncoderConfig, EncoderParams, encode_batch
from .encoder import encode  # noqa: F401  (perfbench/tracer.py wraps pipeline.encode)
from .errors import ContractError
from .evaluation import (
    EvalReport,
    entity_prf,
    relation_prf,
    resolve_relations,
    token_accuracy,
)
from .relation_head import RelationHeadParams, init_relation, predict_relations, span_pairs
from .seq2seq_head import (
    Seq2SeqParams,
    greedy_decode,
    init_seq2seq,
    teacher_forced_loss,
)
from .span_head import (
    SpanHeadParams,
    batch_span_loss,
    decode_spans,
    init_span,
    score_all_spans,
)
from .tensor import Tensor

HeadParams = CRFParams | SpanHeadParams | Seq2SeqParams
Decoded = tuple[list[EntitySpan], list[int]]  # spans, pre-repair tags
_KIND_OF = {CRFParams: "crf", SpanHeadParams: "span", Seq2SeqParams: "seq2seq"}
HEAD_KINDS = tuple(_KIND_OF.values())
EVAL_CHUNK = 16  # sentences per packed encoder and head pass in predict


@dataclass(frozen=True)
class Model:
    """Everything needed to run inference: encoder, heads, vocab, tag scheme.
    It owns its parameters: building one deep-copies the encoder and heads it
    is given and packs the copies in one flat vector (``T.FlatParams``); the
    fields are frozen, so the vector always holds them all."""

    config: EncoderConfig
    encoder: EncoderParams
    vocab: Vocab
    scheme: TagScheme
    head: HeadParams | None = None
    relation: RelationHeadParams | None = None

    def __post_init__(self):
        if (self.head is None) != (self.relation is None):
            raise ContractError("a model has an extraction head and a relation head, or neither")
        parts = copy.deepcopy((self.encoder, self.head, self.relation))
        for name, part in zip(("encoder", "head", "relation"), parts):
            object.__setattr__(self, name, part)
        object.__setattr__(self, "_params", T.FlatParams(named_parameters(*parts)))

    @property
    def head_kind(self) -> str | None:
        """The extraction head's kind, from its type; None without a head."""
        return _KIND_OF.get(type(self.head))

    def parameters(self) -> T.FlatParams:
        """The model's own parameter mapping: read it, do not change it."""
        return self._params

    def clone(self) -> "Model":
        """A model with copies of the parameters, without gradients; the
        encoder config, vocab and tag scheme are shared with the original."""
        return replace(self)


def named_parameters(
    encoder: EncoderParams, head: HeadParams | None, relation: RelationHeadParams | None
) -> dict[str, Tensor]:
    """The one parameter walk, in flat-vector order: 'encoder/…', 'head/…', 'relation/…'."""
    parts = {"encoder": encoder, "head": head, "relation": relation}
    return {f"{p}/{k}": v for p, part in parts.items() if part for k, v in part.named().items()}


def init_heads(kind: str, config: EncoderConfig, scheme: TagScheme,
               seed: int) -> tuple[HeadParams, RelationHeadParams]:
    """A fresh extraction head of ``kind`` from ``seed`` and its relation head from ``seed + 1``."""
    if kind == "crf":
        head = init_crf(config.d_model, scheme.num_tags, seed)
    elif kind == "span":
        head = init_span(config.d_model, scheme.classes, seed)
    elif kind == "seq2seq":
        head = init_seq2seq(config.d_model, scheme.num_tags, seed)
    else:
        raise ContractError(f"unknown head kind {kind!r}; expected one of {HEAD_KINDS}")
    return head, init_relation(config.d_model, seed + 1)


def word_ids(sentence: Sentence, vocab: Vocab) -> tuple[list[int], list[int]]:
    """Flatten a sentence to subword ids plus each word's first-subword index.
    Each word is segmented under ``vocab`` (through its memo), whatever
    vocabulary filled the token's ``subword_ids``."""
    ids: list[int] = []
    starts: list[int] = []
    memo = vocab._pieces  # tokenize_subword's; read here, never written
    for token in sentence.tokens:
        starts.append(len(ids))
        ids.extend(memo.get(token.surface) or tokenize_subword(token.surface, vocab))
    return ids, starts


def encode_words(model: Model, sentence: Sentence) -> Tensor:
    """Encoder rows for each word (first subwords), without dropout -> [n_words, d_model]."""
    return encode_words_batch(model, [sentence])


def encode_words_batch(
    model: Model,
    sentences: Sequence[Sentence],
    dropout_seeds: Sequence[int] | None = None,
) -> Tensor:
    """Encoder word rows for a batch in one packed encoder pass.

    Returns the sentences' word rows packed one after another,
    [sum of n_words, d_model], as one row gather from the packed encoder
    output; sentence b's block equals what a one-sentence batch gives.
    """
    flat = [word_ids(sentence, model.vocab) for sentence in sentences]
    h = encode_batch([ids for ids, _ in flat], model.encoder, model.config, dropout_seeds)
    rows, offset = [], 0
    for ids, starts in flat:
        rows.extend(offset + s for s in starts)
        offset += len(ids)
    return T.gather(h, rows)


def ner_loss(
    model: Model, h_words: Tensor, sentences: Sequence[Sentence], seeds: Sequence[int]
) -> Tensor:
    """Mean over a batch of each sentence's extraction loss for the model's head.

    ``h_words`` packs the sentences' word rows as ``encode_words_batch``
    returns them; ``seeds`` (one per sentence) drive the span head's
    negative subsampling.  One head pass over the whole batch.
    """
    head = model.head
    lengths = [len(sentence.tokens) for sentence in sentences]
    tags = [tag for sentence in sentences for tag in sentence.tags]
    if isinstance(head, CRFParams):
        e = emissions(h_words, head)
        return crf_nll(e, head.trans, head.start, head.stop, tags, lengths)
    if isinstance(head, SpanHeadParams):
        table = score_all_spans(h_words, head, lengths)
        return batch_span_loss(table, [s.spans for s in sentences], head.classes, seeds)
    if isinstance(head, Seq2SeqParams):
        return teacher_forced_loss(h_words, tags, head, lengths)
    raise ContractError("model has no trainable head")


def decode_entities(model: Model, h_words: Tensor, lengths: Sequence[int] | None = None):
    """Predicted spans plus the tag sequence they came from (pre-repair).

    With ``lengths``, ``h_words`` packs several sentences' word rows and the
    result is one (spans, tags) per sentence, from one head pass over the
    packed rows; without, ``h_words`` is one sentence, a batch of one.
    """
    head = model.head
    scheme = model.scheme
    sizes = [h_words.shape[0]] if lengths is None else lengths
    if isinstance(head, SpanHeadParams):
        found = decode_spans(score_all_spans(h_words, head, sizes), head.classes)
        paths = [spans_to_tags(spans, n, scheme) for spans, n in zip(found, sizes)]
    else:
        if isinstance(head, CRFParams):
            e = emissions(h_words, head)
            paths = [tags for tags, _ in viterbi(e, head.trans, head.start, head.stop, sizes)]
        elif isinstance(head, Seq2SeqParams):
            paths = greedy_decode(h_words, head, sizes)
        else:
            raise ContractError("model has no decodable head")
        found = [tags_to_spans(tags, scheme, mode="repair") for tags in paths]
    decoded = list(zip(found, paths))
    return decoded if lengths is not None else decoded[0]


def length_errors(sentences: Sequence[Sentence], vocab: Vocab, max_len: int) -> dict[int, str]:
    """The one length check, made before any encoder pass: by index, the
    error of each sentence with more than ``max_len`` subwords under ``vocab``."""
    lengths = [len(word_ids(sentence, vocab)[0]) for sentence in sentences]
    return {
        i: f"sequence length {n} exceeds max_len {max_len}"
        for i, n in enumerate(lengths) if n > max_len
    }


def _decode_chunks(
    model: Model, sentences: Sequence[Sentence]
) -> list[tuple[Tensor, Sequence[Sentence], list[int], list[Decoded]]]:
    """The one inference loop: for every EVAL_CHUNK sentences, their packed
    word rows (one encoder pass), their word counts, and each one's decoded
    spans and tags (one head pass).  No tape is recorded; a list, not a
    generator, so no caller code runs unrecorded."""
    out = []
    with T.no_grad():
        for lo in range(0, len(sentences), EVAL_CHUNK):
            chunk = sentences[lo:lo + EVAL_CHUNK]
            h_words = encode_words_batch(model, chunk)
            lengths = [len(sentence.tokens) for sentence in chunk]
            out.append((h_words, chunk, lengths, decode_entities(model, h_words, lengths)))
    return out


def predict(model: Model, sentences: Sequence[Sentence]) -> list[Decoded]:
    """Each sentence's decoded spans and pre-repair tags."""
    return [d for *_, decoded in _decode_chunks(model, sentences) for d in decoded]


def gold_relation_pairs(
    h_words: Tensor, sentences: Sequence[Sentence]
) -> tuple[Tensor, Tensor, list[str]] | None:
    """Training pairs over a batch's gold spans, from its packed word rows.

    Every ordered pair of distinct gold spans within a sentence is one pair
    (``span_pairs``); unannotated pairs are no-relation.  Returns the head
    rows, tail rows and labels, or None when no sentence has two spans.
    """
    lengths = [len(sentence.tokens) for sentence in sentences]
    pairs = span_pairs(h_words, [sentence.spans for sentence in sentences], lengths)
    if pairs is None:
        return None
    heads, tails, index = pairs
    annotated = [{(r.head, r.tail): r.label for r in s.relations} for s in sentences]
    return heads, tails, [annotated[b].get((i, j), NO_RELATION) for b, i, j in index]


@dataclass
class SplitEvaluation:
    entities: EvalReport
    relations_gold_spans: EvalReport
    relations_predicted_spans: EvalReport

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name).as_dict() for f in fields(self)}


def evaluate_split(model: Model, corpus: Corpus, split: str = "test") -> SplitEvaluation:
    """Decode every sentence of a split and score entities and relations.
    Each chunk of ``_decode_chunks`` gets one relation pass over its gold
    spans and one over its predicted spans.  Nothing is recorded on the tape."""
    sentences = [corpus.sentences[i] for i in corpus.split_indices(split)]
    chunks = _decode_chunks(model, sentences)
    predicted = [d for *_, decoded in chunks for d in decoded]
    pred_tags = [tags for _, tags in predicted]
    report = entity_prf([s.spans for s in sentences], [spans for spans, _ in predicted])
    report.token_accuracy = token_accuracy([s.tags for s in sentences], pred_tags)
    if model.head_kind in ("crf", "seq2seq") and pred_tags:
        report.invalid_transition_rate = invalid_transition_rate(pred_tags)
    on_gold, on_pred = [], []
    with T.no_grad():
        for h_words, chunk, lengths, decoded in chunks:
            gold_spans = [s.spans for s in chunk]
            on_gold += predict_relations(h_words, gold_spans, model.relation, lengths)
            pred_spans = [spans for spans, _ in decoded]
            on_pred += predict_relations(h_words, pred_spans, model.relation, lengths)
    gold = [resolve_relations(s.spans, s.relations) for s in sentences]
    found_on_gold = [resolve_relations(s.spans, r) for s, r in zip(sentences, on_gold)]
    found_on_pred = [resolve_relations(spans, r) for (spans, _), r in zip(predicted, on_pred)]
    return SplitEvaluation(
        report, relation_prf(gold, found_on_gold), relation_prf(gold, found_on_pred)
    )
