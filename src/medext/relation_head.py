"""Relation extraction over entity pairs.

Each entity is summarized by the mean of its encoder rows; ordered pairs are
scored together by one affine map over their concatenated means
(``pair_logits``, one ``T.pooled_affine`` over the pairs' row ranges) and
trained with cross-entropy.  Label index 0 is always
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


Ranges = tuple[np.ndarray, np.ndarray]  # (starts, stops): one packed row range per pair


def pair_logits(h: Tensor, heads: Ranges, tails: Ranges, params: RelationHeadParams) -> Tensor:
    """Affine scores of P ordered pairs of row ranges of ``h``:
    concat(mean(h[head]), mean(h[tail])) @ w + b -> [P, R], one ``T.pooled_affine``."""
    return T.pooled_affine([(h, *heads), (h, *tails)], params.w, params.b)


def pair_loss(
    h: Tensor, heads: Ranges, tails: Ranges, labels: Sequence[str], params: RelationHeadParams
) -> Tensor:
    """Mean cross-entropy of the P pairs' ``pair_logits`` against their gold labels."""
    for label in labels:
        if label not in _LABEL_INDEX:
            raise ContractError(f"unknown relation label {label!r}")
    targets = [_LABEL_INDEX[label] for label in labels]
    return T.mean_cross_entropy(pair_logits(h, heads, tails, params), targets)


def relation_loss(
    pairs: Sequence[tuple[Tensor, Tensor, str]], params: RelationHeadParams
) -> Tensor:
    """Mean cross-entropy of one ``pair_logits`` row per (head, tail, label) triple,
    over the vectors stacked as rows head, tail, head, tail, ..."""
    if not pairs:
        raise ContractError("relation_loss requires a nonempty pair list")
    rows = T.concat([T.gather(v, None) for h1, h2, _ in pairs for v in (h1, h2)], axis=0)
    at = np.arange(0, 2 * len(pairs), 2)
    return pair_loss(rows, (at, at + 1), (at + 1, at + 2), [label for *_, label in pairs], params)


def ordered_pairs(k: int) -> tuple[list[int], list[int]]:
    """(heads, tails) of the k*(k-1) ordered pairs of distinct indices, row-major."""
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    return [i for i, _ in pairs], [j for _, j in pairs]


def span_pairs(
    h: Tensor, groups: Sequence[Sequence[EntitySpan]], lengths: Sequence[int]
) -> tuple[Ranges, Ranges, list[tuple[int, int, int]]] | None:
    """Every ordered pair of distinct spans within one sentence of packed rows.

    ``h`` packs the sentences' word rows, ``lengths`` rows each, and
    ``groups`` holds each sentence's spans.  Returns the pairs' head and tail
    row ranges in ``h``, and each pair's (sentence, head span, tail span)
    indices; None when no sentence has two spans.
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
    lo, hi = np.array(starts), np.array(stops)
    return (lo[heads], hi[heads]), (lo[tails], hi[tails]), index


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
        best = pair_logits(h, heads, tails, params).values.argmax(axis=1).tolist()
        for (b, i, j), label in zip(index, best):
            if label != 0:
                found[b].append(RelationInstance(i, j, RELATION_LABELS[label]))
    return found
