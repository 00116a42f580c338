"""Glue between the encoder and the extraction heads.

The encoder runs over subword ids; tags, spans, and relations live at the
word level.  Each word is represented by the encoder row of its first
subword, which keeps every head aligned with the gold annotations regardless
of how words fragment.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
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
from .encoder import EncoderConfig, EncoderParams, encode, encode_batch
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

HEAD_KINDS = ("crf", "span", "seq2seq")
EVAL_CHUNK = 16  # sentences per packed encoder pass in evaluate_split

HeadParams = CRFParams | SpanHeadParams | Seq2SeqParams


@dataclass
class Model:
    """Everything needed to run inference: encoder, heads, vocab, tag scheme."""

    config: EncoderConfig
    encoder: EncoderParams
    vocab: Vocab
    scheme: TagScheme
    head_kind: str | None = None
    head: HeadParams | None = None
    relation: RelationHeadParams | None = None

    def parameters(self) -> dict[str, Tensor]:
        out = {f"encoder/{k}": v for k, v in self.encoder.named().items()}
        if self.head is not None:
            out.update({f"head/{k}": v for k, v in self.head.named().items()})
        if self.relation is not None:
            out.update({f"relation/{k}": v for k, v in self.relation.named().items()})
        return out

    def clone(self) -> "Model":
        """Copy every parameter tensor (without its gradient); the encoder
        config, vocab and tag scheme are shared with the original."""
        memo = {id(shared): shared for shared in (self.config, self.vocab, self.scheme)}
        for p in self.parameters().values():
            memo[id(p)] = Tensor(p.values.copy(), p.requires_grad)
        return copy.deepcopy(self, memo)


def init_head(kind: str, config: EncoderConfig, scheme: TagScheme, seed: int) -> HeadParams:
    if kind == "crf":
        return init_crf(config.d_model, scheme.num_tags, seed)
    if kind == "span":
        return init_span(config.d_model, scheme.classes, seed)
    if kind == "seq2seq":
        return init_seq2seq(config.d_model, scheme.num_tags, seed)
    raise ContractError(f"unknown head kind {kind!r}; expected one of {HEAD_KINDS}")


def word_ids(sentence: Sentence, vocab: Vocab) -> tuple[list[int], list[int]]:
    """Flatten a sentence to subword ids plus each word's first-subword index."""
    ids: list[int] = []
    starts: list[int] = []
    for token in sentence.tokens:
        pieces = token.subword_ids or tokenize_subword(token.surface, vocab)
        starts.append(len(ids))
        ids.extend(pieces)
    return ids, starts


def encode_words(
    model: Model,
    sentence: Sentence,
    training: bool = False,
    dropout_seed: int | None = None,
) -> Tensor:
    """Encoder rows for each word (first-subword selection) -> [n_words, d_model]."""
    ids, starts = word_ids(sentence, model.vocab)
    h = encode(
        ids, model.encoder, model.config, training=training, dropout_seed=dropout_seed
    )
    return T.gather(h, starts)


def encode_words_batch(
    model: Model,
    sentences: Sequence[Sentence],
    training: bool = False,
    dropout_seeds: Sequence[int] | None = None,
) -> Tensor:
    """``encode_words`` for a batch in one packed encoder pass.

    Returns the sentences' word rows packed one after another,
    [sum of n_words, d_model], as one row gather from the packed encoder
    output; sentence b's block equals its own ``encode_words`` call.
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


def sentence_rows(h_words: Tensor, sentences: Sequence[Sentence]) -> list[Tensor]:
    """Split packed word rows back into one [n_words, d_model] matrix per sentence."""
    out, offset = [], 0
    for sentence in sentences:
        out.append(T.gather(h_words, slice(offset, offset + len(sentence.tokens))))
        offset += len(sentence.tokens)
    return out


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
    raise ContractError(f"model has no trainable head (kind={model.head_kind!r})")


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
    raise ContractError(f"model has no decodable head (kind={model.head_kind!r})")


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
        out = {"entities": self.entities.as_dict()}
        if self.relations_gold_spans is not None:
            out["relations_gold_spans"] = self.relations_gold_spans.as_dict()
        if self.relations_predicted_spans is not None:
            out["relations_predicted_spans"] = self.relations_predicted_spans.as_dict()
        return out


def evaluate_split(model: Model, corpus: Corpus, split: str = "test") -> SplitEvaluation:
    """Decode every sentence of a split and score entities (and relations).

    Sentences are encoded EVAL_CHUNK at a time in one packed pass each.
    Nothing is recorded on the tape.
    """
    sentences = [corpus.sentences[i] for i in corpus.split_indices(split)]
    gold_spans, pred_spans = [], []
    gold_tags, pred_tags = [], []
    gold_rel, pred_rel_gold_spans, pred_rel_pred_spans = [], [], []
    with T.no_grad():
        for lo in range(0, len(sentences), EVAL_CHUNK):
            chunk = sentences[lo:lo + EVAL_CHUNK]
            words = sentence_rows(encode_words_batch(model, chunk), chunk)
            for sentence, h in zip(chunk, words):
                spans, tags = decode_entities(model, h)
                gold_spans.append(sentence.spans)
                pred_spans.append(spans)
                gold_tags.append(sentence.tags)
                pred_tags.append(tags)
                if model.relation is not None:
                    gold_rel.append(resolve_relations(sentence.spans, sentence.relations))
                    on_gold = predict_relations(h, sentence.spans, model.relation)
                    pred_rel_gold_spans.append(resolve_relations(sentence.spans, on_gold))
                    on_pred = predict_relations(h, spans, model.relation)
                    pred_rel_pred_spans.append(resolve_relations(spans, on_pred))

    report = entity_prf(gold_spans, pred_spans)
    report.token_accuracy = token_accuracy(gold_tags, pred_tags)
    if model.head_kind in ("crf", "seq2seq") and pred_tags:
        report.invalid_transition_rate = invalid_transition_rate(pred_tags, model.scheme)
    result = SplitEvaluation(entities=report)
    if model.relation is not None:
        result.relations_gold_spans = relation_prf(gold_rel, pred_rel_gold_spans)
        result.relations_predicted_spans = relation_prf(gold_rel, pred_rel_pred_spans)
    return result
