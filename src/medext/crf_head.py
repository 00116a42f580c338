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
from itertools import accumulate
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
    return T.affine(h, params.w_emit, params.b_emit)


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
    """start[y1] + sum_i e[i, yi] + sum_i trans[y(i-1), yi] + stop[yn], as one tape record.

    With ``lengths``, ``e`` and ``y`` pack several sentences and the result
    is the sum of their scores.
    """
    n = e.shape[0]
    if len(y) != n:
        raise ContractError(f"{len(y)} tags for {n} positions")
    sizes, _, position = T.segments([n] if lengths is None else lengths, n, "sequence_score")
    y = np.asarray(y, dtype=np.intp)
    ends, inner = np.cumsum(sizes), np.flatnonzero(position > 0)
    inputs = (e, start, stop, trans)
    cells = ((np.arange(n), y), y[ends - sizes], y[ends - 1], (y[inner - 1], y[inner]))
    picked = [a.values[c] for a, c in zip(inputs, cells)]
    on_e, on_start, on_stop, on_trans = (p.sum() for p in picked)

    def rule(g):
        parts = zip(inputs, cells, picked)
        return [T.scatter(a.shape, c, np.full_like(p, float(g))) for a, c, p in parts]

    return T.record_op(on_e + (on_start + on_stop) + on_trans, inputs, rule)


def crf_nll(
    e: Tensor,
    trans: Tensor,
    start: Tensor,
    stop: Tensor,
    y: Sequence[int],
    lengths: Sequence[int],
) -> Tensor:
    """Mean over the sentences that ``e`` and ``y`` pack, ``lengths`` rows
    each, of log partition - sequence_score(y); always >= 0."""
    log_z = log_partition_batch(e, lengths, trans, start, stop).sum()
    nll = T.sub(log_z, sequence_score(e, trans, start, stop, y, lengths))
    return T.scale(nll, 1.0 / len(lengths))


def _longest_first(sizes: list[int]) -> tuple[list[int], Sequence[int] | slice, list[int]]:
    """Lay packed rows out for a left-to-right recursion that steps only the
    sentences still running.

    Returns (order, rows, begin).  ``order`` ranks the sentences longest
    first, ties in input order, so at position i the sentences still running
    are the first ``begin[i + 1] - begin[i]`` of ``order``.  ``rows`` lists
    the packed rows position by position, each position's in rank order:
    position i of the sentence ranked r is packed row ``rows[begin[i] + r]``.
    It is a permutation, not a padded copy; a single sentence is already in
    this layout, and its ``rows`` is a slice.
    """
    if len(sizes) == 1:
        return [0], slice(None), list(range(sizes[0] + 1))
    size = np.asarray(sizes, dtype=np.intp)
    order = np.argsort(-size, kind="stable")
    position = np.arange(size[order[0]])[:, None]
    running = position < size[order]  # [longest, B]
    rows = ((np.cumsum(size) - size)[order] + position)[running]
    return order.tolist(), rows, [0, *accumulate(running.sum(axis=1).tolist())]


def viterbi(
    e: Tensor,
    trans: Tensor,
    start: Tensor,
    stop: Tensor,
    lengths: Sequence[int] | None = None,
):
    """Highest-scoring tag sequence and its score, (path, score); ties break
    toward the lower tag index.

    With ``lengths``, ``e`` packs several sentences and the result is one
    (path, score) per sentence.  The sentences run longest first
    (``_longest_first``): each position is one step for the sentences still
    running, a prefix of that order, so a batch of one steps as a single
    sequence does.
    """
    ev, into = e.values, trans.values.T  # into[b, a] scores tag b following tag a
    n = e.shape[0]
    sizes = T.tiling([n] if lengths is None else lengths, n, "viterbi")
    order, rows, begin = _longest_first(sizes)
    ep = ev[rows]
    score = start.values + ep[:begin[1]]
    backptr = np.empty(ep.shape, dtype=np.intp)  # row-aligned with ep
    ended = []  # score blocks of the sentences that stopped, last rank first
    for lo, hi in zip(begin[1:-1], begin[2:]):
        if hi - lo < len(score):
            ended.append(score[hi - lo:])
            score = score[:hi - lo]
        cand = score[:, None, :] + into  # [m, to, from]
        cand.argmax(axis=2, out=backptr[lo:hi])  # argmax picks the lowest index on ties
        score = ep[lo:hi] + np.maximum.reduce(cand, axis=2)  # cand.max, without its wrapper
    best: list[int] = []
    top: list[float] = []
    for block in (score, *reversed(ended)):
        final = block + stop.values
        winners = final.argmax(axis=1).tolist()
        top += [row[t] for row, t in zip(final.tolist(), winners)]
        best += winners
    back = backptr.tolist()
    out: list = [None] * len(order)
    for r, b in enumerate(order):
        tags = [best[r]]
        for i in range(sizes[b] - 1, 0, -1):
            tags.append(back[begin[i] + r][tags[-1]])
        tags.reverse()
        out[b] = (tags, top[r])
    return out if lengths is not None else out[0]
