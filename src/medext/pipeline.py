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
from .relation_head import RelationHeadParams, ordered_pairs, predict_relations
from .seq2seq_head import (
    Seq2SeqParams,
    greedy_decode,
    init_seq2seq,
    invalid_transition_rate,
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
Decoded = tuple[Tensor, list[EntitySpan], list[int]]  # word rows, spans, pre-repair tags
_KIND_OF = {CRFParams: "crf", SpanHeadParams: "span", Seq2SeqParams: "seq2seq"}
HEAD_KINDS = tuple(_KIND_OF.values())
EVAL_CHUNK = 16  # sentences per packed encoder pass in predict


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


def init_head(kind: str, config: EncoderConfig, scheme: TagScheme, seed: int) -> HeadParams:
    if kind == "crf":
        return init_crf(config.d_model, scheme.num_tags, seed)
    if kind == "span":
        return init_span(config.d_model, scheme.classes, seed)
    if kind == "seq2seq":
        return init_seq2seq(config.d_model, scheme.num_tags, seed)
    raise ContractError(f"unknown head kind {kind!r}; expected one of {HEAD_KINDS}")


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


def encode_words(
    model: Model,
    sentence: Sentence,
    training: bool = False,
    dropout_seed: int | None = None,
) -> Tensor:
    """Encoder rows for each word (first-subword selection) -> [n_words, d_model]."""
    return encode_words_batch(
        model, [sentence], training, None if dropout_seed is None else [dropout_seed]
    )


def encode_words_batch(
    model: Model,
    sentences: Sequence[Sentence],
    training: bool = False,
    dropout_seeds: Sequence[int] | None = None,
) -> Tensor:
    """Encoder word rows for a batch in one packed encoder pass.

    Returns the sentences' word rows packed one after another,
    [sum of n_words, d_model], as one row gather from the packed encoder
    output; sentence b's block equals what a one-sentence batch gives.
    """
    flat = [word_ids(sentence, model.vocab) for sentence in sentences]
    h = encode_batch(
        [ids for ids, _ in flat], model.encoder, model.config,
        training=training, dropout_seeds=dropout_seeds,
    )
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


def decode_entities(model: Model, h_words: Tensor) -> tuple[list[EntitySpan], list[int]]:
    """Predicted spans plus the tag sequence they came from (pre-repair)."""
    head = model.head
    scheme = model.scheme
    if isinstance(head, CRFParams):
        e = emissions(h_words, head)
        tags, _ = viterbi(e, head.trans, head.start, head.stop)
        return tags_to_spans(tags, scheme, mode="repair"), tags
    if isinstance(head, SpanHeadParams):
        spans = decode_spans(score_all_spans(h_words, head), head.classes)
        return spans, spans_to_tags(spans, h_words.shape[0], scheme)
    if isinstance(head, Seq2SeqParams):
        tags = greedy_decode(h_words, head)
        return tags_to_spans(tags, scheme, mode="repair"), tags
    raise ContractError("model has no decodable head")


def length_errors(sentences: Sequence[Sentence], vocab: Vocab, max_len: int) -> dict[int, str]:
    """The one length check, made before any encoder pass: by index, the
    error of each sentence with more than ``max_len`` subwords under ``vocab``."""
    lengths = [len(word_ids(sentence, vocab)[0]) for sentence in sentences]
    return {
        i: f"sequence length {n} exceeds max_len {max_len}"
        for i, n in enumerate(lengths) if n > max_len
    }


def predict(model: Model, sentences: Sequence[Sentence]) -> list[Decoded]:
    """The one inference loop: each sentence's word rows, decoded spans and
    pre-repair tags.  EVAL_CHUNK sentences share a packed encoder pass and no
    tape is recorded; a list, not a generator, so no caller code runs unrecorded."""
    out = []
    with T.no_grad():
        for lo in range(0, len(sentences), EVAL_CHUNK):
            chunk = sentences[lo:lo + EVAL_CHUNK]
            h_words, offset = encode_words_batch(model, chunk), 0
            for sentence in chunk:
                h = T.gather(h_words, slice(offset, offset + len(sentence.tokens)))
                offset += len(sentence.tokens)
                out.append((h, *decode_entities(model, h)))
    return out


def gold_relation_pairs(
    h_words: Tensor, sentences: Sequence[Sentence]
) -> tuple[Tensor, Tensor, list[str]] | None:
    """Training pairs over a batch's gold spans, from its packed word rows.

    Every ordered pair of distinct gold spans within a sentence is one pair;
    unannotated pairs are no-relation.  Returns the head rows, tail rows and
    labels, or None when no sentence has two spans.  All gold entities of
    the batch are pooled at once and the pair rows are two gathers.
    """
    starts: list[int] = []
    stops: list[int] = []
    heads: list[int] = []
    tails: list[int] = []
    labels: list[str] = []
    offset = 0
    for sentence in sentences:
        if len(sentence.spans) >= 2:
            annotated = {(r.head, r.tail): r.label for r in sentence.relations}
            first, second = ordered_pairs(len(sentence.spans))
            heads.extend(len(starts) + i for i in first)
            tails.extend(len(starts) + j for j in second)
            labels.extend(annotated.get(pair, NO_RELATION) for pair in zip(first, second))
            starts.extend(offset + span.start for span in sentence.spans)
            stops.extend(offset + span.end + 1 for span in sentence.spans)
        offset += len(sentence.tokens)
    if not labels:
        return None
    pooled = T.range_means(h_words, starts, stops)
    return T.gather(pooled, heads), T.gather(pooled, tails), labels


@dataclass
class SplitEvaluation:
    entities: EvalReport
    relations_gold_spans: EvalReport | None = None
    relations_predicted_spans: EvalReport | None = None

    def as_dict(self) -> dict:
        reports = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: report.as_dict() for name, report in reports.items() if report is not None}


def evaluate_split(model: Model, corpus: Corpus, split: str = "test") -> SplitEvaluation:
    """Decode every sentence of a split through ``predict`` and score entities
    (and relations).  Nothing is recorded on the tape."""
    sentences = [corpus.sentences[i] for i in corpus.split_indices(split)]
    predicted = predict(model, sentences)
    pred_tags = [tags for _, _, tags in predicted]
    report = entity_prf([s.spans for s in sentences], [spans for _, spans, _ in predicted])
    report.token_accuracy = token_accuracy([s.tags for s in sentences], pred_tags)
    if model.head_kind in ("crf", "seq2seq") and pred_tags:
        report.invalid_transition_rate = invalid_transition_rate(pred_tags, model.scheme)
    result = SplitEvaluation(entities=report)
    if model.relation is not None:
        def found(spans: list[EntitySpan], h: Tensor) -> list:
            return resolve_relations(spans, predict_relations(h, spans, model.relation))

        gold = [resolve_relations(s.spans, s.relations) for s in sentences]
        with T.no_grad():
            on_gold = [found(s.spans, h) for s, (h, _, _) in zip(sentences, predicted)]
            on_pred = [found(spans, h) for h, spans, _ in predicted]
        result.relations_gold_spans = relation_prf(gold, on_gold)
        result.relations_predicted_spans = relation_prf(gold, on_pred)
    return result
