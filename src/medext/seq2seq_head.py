"""Autoregressive tag-generation head.

A one-step-conditioned tagger: each position's logits come from the encoder
row concatenated with an embedding of the previous tag (gold during teacher
forcing, the model's own prediction during greedy decoding).  No BIO
constraint is applied at decode time, so boundary errors are observable;
``invalid_transition_rate`` quantifies them before repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .corpus import TagScheme
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
    h: Tensor, y: Sequence[int], params: Seq2SeqParams, lengths: Sequence[int] | None = None
) -> Tensor:
    """Mean cross-entropy with gold previous tags fed as conditioning input.

    With ``lengths``, ``h`` and ``y`` pack several sentences; each one's mean
    is weighted 1/B, so the result is the mean of per-sentence means.
    """
    n = h.shape[0]
    if len(y) != n or n < 1:
        raise ContractError(f"{len(y)} tags for {n} positions")
    sizes, _, position = T.segments([n] if lengths is None else lengths, n, "teacher_forced_loss")
    previous = np.roll(np.asarray(y, dtype=np.intp), 1)
    previous[position == 0] = params.bos
    feats = T.concat([h, T.gather(params.tag_emb, previous)], axis=1)
    logits = T.add_rowwise(T.matmul(feats, params.w_out), params.b_out)
    return T.cross_entropy(logits, y, np.repeat(1.0 / (sizes.size * sizes), sizes))


def greedy_decode(h: Tensor, params: Seq2SeqParams) -> list[int]:
    """Left-to-right argmax, feeding each prediction forward; lowest index wins ties."""
    n = h.shape[0]
    if n < 1:
        raise ContractError("greedy_decode requires at least one position")
    hv = h.values
    emb = params.tag_emb.values
    w, b = params.w_out.values, params.b_out.values
    tags: list[int] = []
    previous = params.bos
    for i in range(n):
        feats = np.concatenate([hv[i], emb[previous]])
        logits = feats @ w + b
        previous = int(logits.argmax())
        tags.append(previous)
    return tags


def invalid_transition_rate(batch: Sequence[Sequence[int]], scheme: TagScheme) -> float:
    """Fraction of BIO-violating transitions, counting a virtual start->first.

    A transition into I-c is valid only from B-c or I-c; everything else is
    always valid, so each sentence contributes len(sentence) checks.
    """
    if not batch:
        raise ContractError("invalid_transition_rate requires a nonempty batch")
    violations = 0
    checked = 0
    for tags in batch:
        previous: int | None = None  # virtual start
        for tag in tags:
            kind, cls = scheme.kind(tag)
            if kind == "I":
                if previous is None:
                    violations += 1
                else:
                    prev_kind, prev_cls = scheme.kind(previous)
                    if prev_cls != cls or prev_kind not in ("B", "I"):
                        violations += 1
            checked += 1
            previous = tag
    return violations / checked if checked else 0.0
