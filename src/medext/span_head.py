"""Span-based extraction head.

Enumerates every candidate span up to a width cap, classifies each from the
boundary rows, the mean over the span, and a width embedding, and decodes a
non-overlapping span set greedily by score.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .corpus import EntitySpan
from .errors import ContractError
from .tensor import Params, Tensor, param, xavier

logger = logging.getLogger(__name__)

NULL = 0  # classifier index for "not an entity"
NEG_RATIO = 3.0  # a sentence trains on at most NEG_RATIO * max(1, gold spans) nulls


@dataclass
class SpanHeadParams(Params):
    width_emb: Tensor  # [max_width, d_w]
    w_cls: Tensor  # [3*d_model + d_w, C+1]
    b_cls: Tensor  # [C+1]
    classes: list[str]  # classifier column c+1 predicts classes[c]

    @property
    def max_width(self) -> int:
        return self.width_emb.shape[0]


def init_span(
    d_model: int, classes: Sequence[str], seed: int, max_width: int = 8, d_w: int = 8
) -> SpanHeadParams:
    if max_width < 1:
        raise ContractError(f"max_width must be >= 1, got {max_width}")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    return SpanHeadParams(
        width_emb=xavier(rng, max_width, d_w),
        w_cls=xavier(rng, 3 * d_model + d_w, len(classes) + 1),
        b_cls=param(len(classes) + 1),
        classes=list(classes),
    )


@dataclass
class SpanTable:
    """Every candidate span of one or more sentences, scored in one matrix.

    Row r scores the span starts[r]..ends[r] (word indices inside its own
    sentence, inclusive) of sentence ``sentence[r]``; a sentence's rows are
    contiguous and ordered by (start, end).
    """

    logits: Tensor  # [M, C+1], differentiable
    starts: np.ndarray  # [M]
    ends: np.ndarray  # [M]
    sentence: np.ndarray  # [M]

    def __len__(self) -> int:
        return int(self.starts.size)


@functools.lru_cache(maxsize=256)
def _candidates(n: int, max_width: int) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of every span of an n-word sentence up to max_width wide."""
    first, extra = np.divmod(np.arange(n * max_width), max_width)
    keep = first + extra < n
    return first[keep], (first + extra)[keep]


def score_all_spans(h: Tensor, params: SpanHeadParams, lengths: Sequence[int]) -> SpanTable:
    """Classify every span (i, j) with j - i < max_width -> one table row each.

    Logits per span: concat(h[i], h[j], mean(h[i..j]), width_emb[j-i]) @ w_cls
    + b_cls, as one ``T.pooled_affine`` over the four blocks of w_cls, so each
    block projects its rows once and no span representation is built.  ``h``
    packs ``lengths`` word rows per sentence; spans stay inside their
    sentence.  The logits stay differentiable back to h and the head parameters.
    """
    sizes = T.tiling(lengths, h.shape[0], "score_all_spans")
    max_width = params.max_width
    bounds = [_candidates(int(n), max_width) for n in sizes]
    counts = [len(i) for i, _ in bounds]
    starts = np.concatenate([i for i, _ in bounds])
    ends = np.concatenate([j for _, j in bounds])
    offsets = np.repeat(np.cumsum(sizes) - sizes, counts)
    first, last, width = starts + offsets, ends + offsets, ends - starts
    logits = T.pooled_affine([
        (h, first, first + 1),
        (h, last, last + 1),
        (h, first, last + 1),
        (params.width_emb, width, width + 1),
    ], params.w_cls, params.b_cls)
    return SpanTable(logits, starts, ends, np.repeat(np.arange(len(sizes)), counts))


def batch_span_loss(
    table: SpanTable,
    golds: Sequence[Sequence[EntitySpan]],
    classes: Sequence[str],
    seeds: Sequence[int],
) -> Tensor:
    """Mean over sentences of each one's cross-entropy over its gold-labeled
    candidates with subsampled negatives, from one table.

    A sentence's null candidates are cut down to at most NEG_RATIO *
    max(1, positives) by a draw from its own seed, so training steps stay
    reproducible.  Gold spans wider than the candidate cap cannot be matched
    and are dropped with a warning.  A sentence's retained rows are weighted
    1 / (B * retained), and all of them are taken with one gather into one
    weighted cross-entropy.
    """
    if not len(table):
        raise ContractError("batch_span_loss requires at least one candidate")
    class_index = {cls: c + 1 for c, cls in enumerate(classes)}
    bounds = np.searchsorted(table.sentence, np.arange(len(golds) + 1)).tolist()
    picked: list[int] = []
    targets: list[int] = []
    weights: list[float] = []
    for b, (gold, seed) in enumerate(zip(golds, seeds)):
        lo, hi = bounds[b], bounds[b + 1]
        if lo == hi:
            raise ContractError("batch_span_loss requires at least one candidate")
        rows = list(zip(table.starts[lo:hi].tolist(), table.ends[lo:hi].tolist()))
        max_width = max(end - start + 1 for start, end in rows)
        gold_by_bounds = {}
        for span in gold:
            if span.end - span.start + 1 > max_width:
                logger.warning("gold span %s wider than max_width %d; dropped", span, max_width)
                continue
            gold_by_bounds[(span.start, span.end)] = class_index[span.cls]
        labels = [gold_by_bounds.get(bound, NULL) for bound in rows]
        retained = subsample_negatives(labels, seed)
        picked.extend(lo + i for i in retained)
        targets.extend(labels[i] for i in retained)
        weights.extend([1.0 / (len(golds) * len(retained))] * len(retained))
    return T.cross_entropy(T.gather(table.logits, picked), targets, weights)


def subsample_negatives(labels: Sequence[int], seed: int) -> list[int]:
    """Indices to train on: all positives plus at most NEG_RATIO * max(1, P) nulls."""
    positives = [i for i, lab in enumerate(labels) if lab != NULL]
    negatives = [i for i, lab in enumerate(labels) if lab == NULL]
    cap = int(NEG_RATIO * max(1, len(positives)))
    if len(negatives) > cap:
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        picked = rng.choice(len(negatives), size=cap, replace=False)
        negatives = [negatives[i] for i in sorted(picked)]
    return sorted(positives + negatives)


def decode_spans(table: SpanTable, classes: Sequence[str]) -> list[list[EntitySpan]]:
    """Greedy non-overlapping decode of each sentence of the table, one span
    list per sentence: best winning logit first, ties by (start, end)."""
    values = table.logits.values
    cls = values.argmax(axis=1)
    won = np.flatnonzero(cls != NULL)
    winners = sorted(zip(
        table.sentence[won].tolist(), (-values[won, cls[won]]).tolist(),
        table.starts[won].tolist(), table.ends[won].tolist(), cls[won].tolist(),
    ))
    taken: list[list[EntitySpan]] = [[] for _ in range(int(table.sentence[-1]) + 1)]
    current, occupied = 0, set()  # the positions taken in sentence ``current``
    for b, _, start, end, c in winners:
        if b != current:
            current, occupied = b, set()
        if occupied.isdisjoint(range(start, end + 1)):
            occupied.update(range(start, end + 1))
            taken[b].append(EntitySpan(start, end, classes[c - 1]))
    for spans in taken:
        spans.sort(key=lambda s: (s.start, s.end))
    return taken
