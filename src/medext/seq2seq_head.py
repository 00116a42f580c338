"""Autoregressive tag-generation head.

A one-step-conditioned tagger: each position's logits come from the encoder
row concatenated with an embedding of the previous tag (gold during teacher
forcing, the model's own prediction during greedy decoding).  No BIO
constraint is applied at decode time, so boundary errors are observable;
``corpus.invalid_transition_rate``, the BIO algebra's count of them, scores
the decoded tags before repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import ContractError
from .tensor import Params, Tensor, param, xavier


@dataclass
class Seq2SeqParams(Params):
    tag_emb: Tensor  # [K+1, d_t]; row K embeds begin-of-sequence
    w_out: Tensor  # [d_model + d_t, K]
    b_out: Tensor  # [K]

    @property
    def bos(self) -> int:
        return self.tag_emb.shape[0] - 1


def init_seq2seq(d_model: int, num_tags: int, seed: int, d_t: int = 8) -> Seq2SeqParams:
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    return Seq2SeqParams(
        tag_emb=xavier(rng, num_tags + 1, d_t),
        w_out=xavier(rng, d_model + d_t, num_tags),
        b_out=param(num_tags),
    )


def teacher_forced_loss(
    h: Tensor, y: Sequence[int], params: Seq2SeqParams, lengths: Sequence[int]
) -> Tensor:
    """Mean cross-entropy with gold previous tags fed as conditioning input.

    ``h`` and ``y`` pack the sentences, ``lengths`` rows each; each one's
    mean is weighted 1/B, so the result is the mean of per-sentence means.
    """
    n = h.shape[0]
    if len(y) != n:
        raise ContractError(f"{len(y)} tags for {n} positions")
    sizes, _, position = T.segments(lengths, n, "teacher_forced_loss")
    previous = np.roll(np.asarray(y, dtype=np.intp), 1)
    previous[position == 0] = params.bos
    feats = T.concat([h, T.gather(params.tag_emb, previous)], axis=1)
    logits = T.affine(feats, params.w_out, params.b_out)
    return T.cross_entropy(logits, y, np.repeat(1.0 / (sizes.size * sizes), sizes))


def greedy_decode(h: Tensor, params: Seq2SeqParams, lengths: Sequence[int]) -> list[list[int]]:
    """Left-to-right argmax, feeding each prediction forward; lowest index wins ties.

    One matmul scores every row under each of the K+1 tags that can precede
    it (begin-of-sequence included) and one argmax picks each one's winner,
    so the left-to-right walk is table lookups.  ``h`` packs the sentences,
    ``lengths`` rows each, and the result is one tag list per sentence.
    """
    n = h.shape[0]
    sizes = T.tiling(lengths, n, "greedy_decode")
    emb = params.tag_emb.values
    feats = np.concatenate([np.repeat(h.values, len(emb), axis=0), np.tile(emb, (n, 1))], axis=1)
    logits = feats @ params.w_out.values + params.b_out.values
    after = logits.argmax(axis=1).reshape(n, len(emb)).tolist()  # [row][previous tag]
    out, offset = [], 0
    for size in sizes:
        tags, previous = [], params.bos
        for choice in after[offset:offset + size]:
            previous = choice[previous]
            tags.append(previous)
        out.append(tags)
        offset += size
    return out

