"""Linear-chain CRF head over BIO tags.

Scores a tag sequence as start + emissions + adjacent-tag transitions + stop,
normalizes with the exact forward algorithm in log space (one fused tape op
per batch, whose backward is the forward-backward marginals), and decodes
with Viterbi.  The tests check both dynamic programs against enumerating
every sequence.

All transitions are permitted: BIO validity is learned, not hard-coded, and
repair-mode span decoding handles any residual violations downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .tensor import Params, Tensor, param, xavier


@dataclass
class CRFParams(Params):
    w_emit: Tensor  # [d_model, K]
    b_emit: Tensor  # [K]
    trans: Tensor  # [K, K]; trans[a, b] scores tag b following tag a
    start: Tensor  # [K]
    stop: Tensor  # [K]


def init_crf(d_model: int, num_tags: int, seed: int) -> CRFParams:
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    return CRFParams(
        w_emit=xavier(rng, d_model, num_tags),
        b_emit=param(num_tags),
        trans=param((num_tags, num_tags)),
        start=param(num_tags),
        stop=param(num_tags),
    )


def emissions(h: Tensor, params: CRFParams) -> Tensor:
    """Per-position tag scores: h @ w_emit + b_emit -> [n, K]."""
    if h.values.ndim != 2 or h.shape[1] != params.w_emit.shape[0]:
        raise ShapeError(f"emissions: h {h.shape} vs w_emit {params.w_emit.shape}")
    return T.add_rowwise(T.matmul(h, params.w_emit), params.b_emit)


def _check_sequence(e: Tensor, y: Sequence[int] | None = None) -> int:
    n = e.shape[0]
    if n < 1:
        raise ContractError("CRF requires at least one position")
    if y is not None and len(y) != n:
        raise ContractError(f"{len(y)} tags for {n} positions")
    return n


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    peak = x.max(axis=axis, keepdims=True)
    return (peak + np.log(np.exp(x - peak).sum(axis=axis, keepdims=True))).squeeze(axis)


def log_partition_batch(
    e: Tensor, lengths: Sequence[int], trans: Tensor, start: Tensor, stop: Tensor
) -> Tensor:
    """Log partition of every sentence of packed emissions -> [B]; one tape record.

    ``e`` is [sum(lengths), K]: consecutive row blocks, one per sentence.
    Forward pads to [B, L_max, K] and runs the log-space alpha recursion,
    alpha1 = start + e[0], alpha_i[b] = e[i, b] + logsumexp_a(alpha_(i-1)[a]
    + trans[a, b]); positions past a sentence's end carry alpha forward
    unchanged.  Backward is the forward-backward algorithm: the node
    marginals give d/de, d/dstart and d/dstop, and the edge marginals summed
    over positions give d/dtrans.
    """
    _check_sequence(e)
    k = e.shape[1]
    if trans.shape != (k, k) or start.shape != (k,) or stop.shape != (k,):
        raise ShapeError(
            f"log_partition_batch: e {e.shape}, trans {trans.shape}, "
            f"start {start.shape}, stop {stop.shape}"
        )
    sizes, segment, position = T.segments(lengths, e.shape[0], "log_partition_batch")
    batch, longest = sizes.size, int(sizes.max())
    ep = np.zeros((batch, longest, k))
    ep[segment, position] = e.values
    tv = trans.values
    live = np.arange(longest) < sizes[:, None]  # [B, L] real positions
    alpha = np.empty((batch, longest, k))
    alpha[:, 0] = start.values + ep[:, 0]
    for i in range(1, longest):
        step = ep[:, i] + _logsumexp(alpha[:, i - 1, :, None] + tv, axis=1)
        alpha[:, i] = np.where(live[:, i, None], step, alpha[:, i - 1])
    log_z = _logsumexp(alpha[:, -1] + stop.values, axis=1)

    def rule(g):
        # beta_i[a] = logsumexp_b(trans[a, b] + e[i+1, b] + beta_(i+1)[b]), beta_n = stop
        beta = np.empty_like(alpha)
        beta[:, -1] = stop.values
        ahead = ep[:, 1:].copy()  # becomes e[i+1] + beta_(i+1)
        for i in range(longest - 2, -1, -1):
            ahead[:, i] += beta[:, i + 1]
            step = _logsumexp(tv + ahead[:, i, None, :], axis=2)
            beta[:, i] = np.where(live[:, i + 1, None], step, stop.values)
        weight = (live * g[:, None])[:, :, None]  # upstream grad on real positions
        node = np.exp(alpha + beta - log_z[:, None, None]) * weight
        edge = np.exp(
            alpha[:, :-1, :, None] + tv + ahead[:, :, None, :] - log_z[:, None, None, None]
        ) * weight[:, 1:, :, None]
        return (
            node[segment, position],
            edge.sum(axis=(0, 1)),
            node[:, 0].sum(axis=0),
            node[np.arange(batch), sizes - 1].sum(axis=0),
        )

    return T.record_op(log_z, (e, trans, start, stop), rule)


def sequence_score(
    e: Tensor,
    trans: Tensor,
    start: Tensor,
    stop: Tensor,
    y: Sequence[int],
    lengths: Sequence[int] | None = None,
) -> Tensor:
    """start[y1] + sum_i e[i, yi] + sum_i trans[y(i-1), yi] + stop[yn].

    With ``lengths``, ``e`` and ``y`` pack several sentences and the result
    is the sum of their scores.
    """
    n = _check_sequence(e, y)
    sizes, _, position = T.segments([n] if lengths is None else lengths, n, "sequence_score")
    y = np.asarray(y, dtype=np.intp)
    ends = np.cumsum(sizes)
    score = T.add(
        T.gather(e, (np.arange(n), y)).sum(),
        T.add(T.gather(start, y[ends - sizes]).sum(), T.gather(stop, y[ends - 1]).sum()),
    )
    inner = np.flatnonzero(position > 0)
    if inner.size:
        score = T.add(score, T.gather(trans, (y[inner - 1], y[inner])).sum())
    return score


def crf_nll(
    e: Tensor,
    trans: Tensor,
    start: Tensor,
    stop: Tensor,
    y: Sequence[int],
    lengths: Sequence[int] | None = None,
) -> Tensor:
    """Negative log-likelihood: log partition - sequence_score(y); always >= 0.

    With ``lengths``, ``e`` and ``y`` pack several sentences and the result
    is the mean of their NLLs.
    """
    lengths = [_check_sequence(e, y)] if lengths is None else lengths
    log_z = T.sum_all(log_partition_batch(e, lengths, trans, start, stop))
    nll = T.sub(log_z, sequence_score(e, trans, start, stop, y, lengths))
    return T.scale(nll, 1.0 / len(lengths))


def viterbi(
    e: Tensor, trans: Tensor, start: Tensor, stop: Tensor
) -> tuple[list[int], float]:
    """Highest-scoring tag sequence; ties break toward the lower tag index."""
    ev, tv = e.values, trans.values
    n = _check_sequence(e)
    score = start.values + ev[0]
    backptr = np.zeros((n, ev.shape[1]), dtype=np.intp)
    for i in range(1, n):
        cand = score[:, None] + tv
        backptr[i] = cand.argmax(axis=0)  # argmax picks the lowest index on ties
        score = ev[i] + cand.max(axis=0)
    final = score + stop.values
    best = int(final.argmax())
    tags = [best]
    for i in range(n - 1, 0, -1):
        tags.append(int(backptr[i, tags[-1]]))
    tags.reverse()
    return tags, float(final[best])
