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
from .relation_head import RelationHeadParams, entity_pool, predict_relations
from .seq2seq_head import (
    Seq2SeqParams,
    greedy_decode,
    init_seq2seq,
    invalid_transition_rate,
    teacher_forced_loss,
)
from .span_head import SpanHeadParams, decode_spans, init_span, score_all_spans, span_loss
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
        """Deep-copy every parameter tensor (configs/vocab/scheme are shared)."""

        def copy_container(container):
            if container is None:
                return None
            duplicate = copy.copy(container)
            for name, value in vars(container).items():
                if isinstance(value, Tensor):
                    fresh = Tensor(value.values.copy(), value.requires_grad)
                    setattr(duplicate, name, fresh)
                elif isinstance(value, list) and value and not isinstance(value[0], (str, int, float)):
                    setattr(duplicate, name, [copy_container(item) for item in value])
            return duplicate

        return Model(
            config=self.config,
            encoder=copy_container(self.encoder),
            vocab=self.vocab,
            scheme=self.scheme,
            head_kind=self.head_kind,
            head=copy_container(self.head),
            relation=copy_container(self.relation),
        )


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
    return T.rows(h, starts)


def encode_words_batch(
    model: Model,
    sentences: Sequence[Sentence],
    training: bool = False,
    dropout_seeds: Sequence[int] | None = None,
) -> list[Tensor]:
    """``encode_words`` for a batch in one packed encoder pass.

    Returns one [n_words, d_model] matrix per sentence, each one row gather
    from the packed output; they equal per-sentence ``encode_words`` calls.
    """
    flat = [word_ids(sentence, model.vocab) for sentence in sentences]
    h = encode_batch(
        [ids for ids, _ in flat], model.encoder, model.config,
        training=training, dropout_seeds=dropout_seeds,
    )
    out, offset = [], 0
    for ids, starts in flat:
        out.append(T.rows(h, [offset + s for s in starts]))
        offset += len(ids)
    return out


def ner_loss(model: Model, h_words: Tensor, sentence: Sentence, seed: int = 0) -> Tensor:
    """Per-sentence extraction loss for the model's configured head."""
    head = model.head
    if isinstance(head, CRFParams):
        e = emissions(h_words, head)
        return crf_nll(e, head.trans, head.start, head.stop, sentence.tags)
    if isinstance(head, SpanHeadParams):
        candidates = score_all_spans(h_words, head)
        return span_loss(candidates, sentence.spans, head.classes, seed=seed)
    if isinstance(head, Seq2SeqParams):
        return teacher_forced_loss(h_words, sentence.tags, head)
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
    model: Model, h_words: Tensor, sentence: Sentence
) -> list[tuple[Tensor, Tensor, str]]:
    """Training pairs over gold spans; unannotated ordered pairs are no-relation."""
    if len(sentence.spans) < 2:
        return []
    annotated = {(r.head, r.tail): r.label for r in sentence.relations}
    pooled = [entity_pool(h_words, span) for span in sentence.spans]
    pairs = []
    for i in range(len(sentence.spans)):
        for j in range(len(sentence.spans)):
            if i != j:
                pairs.append((pooled[i], pooled[j], annotated.get((i, j), NO_RELATION)))
    return pairs


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

    Sentences are encoded EVAL_CHUNK at a time in one packed pass each, and
    the tape is reset after every chunk.
    """
    T.reset_tape()
    sentences = [corpus.sentences[i] for i in corpus.split_indices(split)]
    gold_spans, pred_spans = [], []
    gold_tags, pred_tags = [], []
    gold_rel, pred_rel_gold_spans, pred_rel_pred_spans = [], [], []
    for lo in range(0, len(sentences), EVAL_CHUNK):
        chunk = sentences[lo:lo + EVAL_CHUNK]
        for sentence, h in zip(chunk, encode_words_batch(model, chunk)):
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
        T.reset_tape()

    report = entity_prf(gold_spans, pred_spans)
    report.token_accuracy = token_accuracy(gold_tags, pred_tags)
    if model.head_kind in ("crf", "seq2seq") and pred_tags:
        report.invalid_transition_rate = invalid_transition_rate(pred_tags, model.scheme)
    result = SplitEvaluation(entities=report)
    if model.relation is not None:
        result.relations_gold_spans = relation_prf(gold_rel, pred_rel_gold_spans)
        result.relations_predicted_spans = relation_prf(gold_rel, pred_rel_pred_spans)
    return result
