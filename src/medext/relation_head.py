"""Relation extraction over entity pairs.

Each entity is summarized by the mean of its encoder rows; ordered pairs are
scored together by one affine map over their concatenated representations
(``pair_logits``) and trained with cross-entropy.  Label index 0 is always
"no-relation" and is never emitted as a prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .corpus import RELATION_LABELS, EntitySpan, RelationInstance
from .errors import ContractError
from .tensor import Params, Tensor, param, xavier

_LABEL_INDEX = {label: r for r, label in enumerate(RELATION_LABELS)}  # pair_logits' columns


@dataclass
class RelationHeadParams(Params):
    w: Tensor  # [2*d_model, R], one column per RELATION_LABELS entry
    b: Tensor  # [R]


def init_relation(d_model: int, seed: int) -> RelationHeadParams:
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    return RelationHeadParams(
        w=xavier(rng, 2 * d_model, len(RELATION_LABELS)),
        b=param(len(RELATION_LABELS)),
    )


def pair_logits(heads: Tensor, tails: Tensor, params: RelationHeadParams) -> Tensor:
    """Affine scores of P ordered pairs: concat(heads, tails) @ w + b -> [P, R]."""
    if (
        heads.values.ndim != 2
        or heads.shape != tails.shape
        or 2 * heads.shape[1] != params.w.shape[0]
    ):
        raise ContractError(f"pair_logits: rows {heads.shape}/{tails.shape} vs w {params.w.shape}")
    return T.affine(T.concat([heads, tails], axis=1), params.w, params.b)


def pair_loss(
    heads: Tensor, tails: Tensor, labels: Sequence[str], params: RelationHeadParams
) -> Tensor:
    """Mean cross-entropy of the P pairs' ``pair_logits`` against their gold labels."""
    for label in labels:
        if label not in _LABEL_INDEX:
            raise ContractError(f"unknown relation label {label!r}")
    targets = [_LABEL_INDEX[label] for label in labels]
    return T.mean_cross_entropy(pair_logits(heads, tails, params), targets)


def relation_loss(
    pairs: Sequence[tuple[Tensor, Tensor, str]], params: RelationHeadParams
) -> Tensor:
    """Mean cross-entropy of one ``pair_logits`` row per (head, tail, label) triple."""
    if not pairs:
        raise ContractError("relation_loss requires a nonempty pair list")
    heads = T.concat([T.gather(h1, None) for h1, _, _ in pairs], axis=0)
    tails = T.concat([T.gather(h2, None) for _, h2, _ in pairs], axis=0)
    return pair_loss(heads, tails, [label for _, _, label in pairs], params)


def ordered_pairs(k: int) -> tuple[list[int], list[int]]:
    """(heads, tails) of the k*(k-1) ordered pairs of distinct indices, row-major."""
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    return [i for i, _ in pairs], [j for _, j in pairs]


def span_pairs(
    h: Tensor, groups: Sequence[Sequence[EntitySpan]], lengths: Sequence[int]
) -> tuple[Tensor, Tensor, list[tuple[int, int, int]]] | None:
    """Every ordered pair of distinct spans within one sentence of packed rows.

    ``h`` packs the sentences' word rows, ``lengths`` rows each, and
    ``groups`` holds each sentence's spans.  Returns the pairs' head rows and
    tail rows, and each pair's (sentence, head span, tail span) indices; None
    when no sentence has two spans.  The spans of all sentences are pooled in
    one ``range_means`` and the pair rows are two gathers.
    """
    sizes = T.tiling(lengths, h.shape[0], "span_pairs")
    if len(groups) != len(sizes):
        raise ContractError(f"{len(groups)} span lists for {len(sizes)} sentences")
    starts: list[int] = []
    stops: list[int] = []
    heads: list[int] = []
    tails: list[int] = []
    index: list[tuple[int, int, int]] = []
    offset = 0
    for b, (spans, n) in enumerate(zip(groups, sizes)):
        for span in spans:
            if not 0 <= span.start <= span.end < n:
                raise ContractError(f"span {span} out of range for {n} positions")
        if len(spans) >= 2:
            first, second = ordered_pairs(len(spans))
            heads.extend(len(starts) + i for i in first)
            tails.extend(len(starts) + j for j in second)
            index.extend((b, i, j) for i, j in zip(first, second))
            starts.extend(offset + span.start for span in spans)
            stops.extend(offset + span.end + 1 for span in spans)
        offset += n
    if not index:
        return None
    pooled = T.range_means(h, starts, stops)
    return T.gather(pooled, heads), T.gather(pooled, tails), index


def predict_relations(
    h: Tensor, spans: Sequence, params: RelationHeadParams, lengths: Sequence[int]
) -> list[list[RelationInstance]]:
    """Argmax label for every ordered pair of distinct spans; no-relation omitted.

    ``h`` packs the sentences' word rows, ``lengths`` rows each, ``spans``
    holds one span list per sentence and the result is one relation list
    per sentence, from one ``span_pairs`` and one ``pair_logits`` pass.
    """
    pairs = span_pairs(h, spans, lengths)
    found: list[list[RelationInstance]] = [[] for _ in spans]
    if pairs is not None:
        heads, tails, index = pairs
        best = pair_logits(heads, tails, params).values.argmax(axis=1).tolist()
        for (b, i, j), label in zip(index, best):
            if label != 0:
                found[b].append(RelationInstance(i, j, RELATION_LABELS[label]))
    return found
