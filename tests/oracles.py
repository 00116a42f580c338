"""Reference ops that tests compare the package against.  The package never
calls them: its CRF runs the fused forward-backward op and scores the gold
path in one record, its losses the fused cross-entropy, its encoder the
packed multi-head ``segment_attention`` (which pads only when a segment is
shorter than the longest), one tape record per embedding sum, affine
map, Add & Norm and feed-forward block where ``add_rowwise``, ``relu`` and
``layer_norm`` chained several, a layer norm without
``np.mean``/``np.var``, its masked-token step runs the top encoder
layer only at the masked rows, its span and relation heads score candidates
with one ``pooled_affine`` where ``range_means``, gathers, ``concat`` and
``affine`` chained, its BIO decoder is one flat loop and its invalid-transition
rate index arithmetic, ``load_annotations`` checks records against the
spans ``load_conll`` derived, ``build_vocab`` counts each distinct word's
characters once, inference decodes and scores relations one packed chunk at
a time, the two corpus loaders share one ``Token`` per surface and
``load_conll``'s span objects, exact-match scoring counts a whole split
in one pass, and the k-shot sampler reads each train sentence's classes
once."""

import itertools
import json
import math
from collections import Counter
from dataclasses import astuple

import numpy as np

from medext import corpus as C
from medext import pipeline
from medext import tensor as T
from medext.corpus import (
    RELATION_LABELS,
    RESERVED_ENTRIES,
    EntitySpan,
    RelationInstance,
    Sentence,
    TagScheme,
    spans_to_tags,
)
from medext.corpus import tags_to_spans as repair_spans
from medext.crf_head import CRFParams, emissions
from medext.encoder import plan_masking
from medext.errors import ContractError, ShapeError, ValidationError
from medext.evaluation import ClassCounts, EvalReport, resolve_relations, token_accuracy
from medext.fewshot import Episode
from medext.relation_head import ordered_pairs
from medext.seq2seq_head import Seq2SeqParams
from medext.span_head import NULL, SpanHeadParams, SpanTable, _candidates, score_all_spans
from medext.tensor import Tensor, gather, record_op


def transpose(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    return record_op(a.values.T, (a,), lambda g: (g.T,))


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax of an m-by-n matrix; each output row sums to 1."""
    if a.values.ndim != 2 or a.shape[1] < 1:
        raise ShapeError(f"softmax_rows expects a nonempty matrix, got {a.shape}")
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def rule(g):
        return (p * (g - (g * p).sum(axis=1, keepdims=True)),)

    return record_op(p, (a,), rule)


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention over one sequence: softmax(q kᵀ / sqrt(d_k)) v."""
    n, d_k = q.shape
    if k.shape != (n, d_k) or v.shape[0] != n:
        raise ContractError(f"attention: shapes {q.shape}, {k.shape}, {v.shape} disagree")
    scores = T.scale(T.matmul(q, transpose(k)), 1.0 / math.sqrt(d_k))
    return T.matmul(softmax_rows(scores), v)


def add_rowwise(m: Tensor, v: Tensor) -> Tensor:
    """Add a length-n vector to every row of an m-by-n matrix."""
    if m.values.ndim != 2 or v.values.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ShapeError(f"add_rowwise: shapes {m.shape} and {v.shape}")
    return record_op(m.values + v.values, (m, v), lambda g: (g, g.sum(axis=0)))


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0
    return record_op(np.maximum(a.values, 0.0), (a,), lambda g: (g * mask,))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row to zero mean / unit variance, then scale and shift:
    the package's ``add_norm`` of ``x`` and zeros, as one op on ``x``."""
    if eps <= 0:
        raise ContractError(f"layer_norm eps must be positive, got {eps}")
    if x.values.ndim != 2 or gain.shape != (x.shape[1],) or bias.shape != (x.shape[1],):
        raise ShapeError(f"layer_norm: shapes {x.shape}, {gain.shape}, {bias.shape}")
    # np.mean / np.var's arithmetic without their wrappers, centering once
    n, add = x.shape[1], np.add.reduce
    centered = x.values - add(x.values, axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(add(centered * centered, axis=1, keepdims=True) / n + eps)
    xhat = centered * inv

    def rule(g):
        dxhat = g * gain.values
        dx = inv * (
            dxhat
            - add(dxhat, axis=1, keepdims=True) / n
            - xhat * (add(dxhat * xhat, axis=1, keepdims=True) / n)
        )
        return dx, add(g * xhat, axis=0), add(g, axis=0)

    return record_op(xhat * gain.values + bias.values, (x, gain, bias), rule)


def mean_var_layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Row normalization through ``np.mean`` and ``np.var``: the package's
    ``add_norm`` takes the same sums without the wrappers."""
    mu = x.values.mean(axis=1, keepdims=True)
    var = x.values.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.values - mu) * inv

    def rule(g):
        dgain = (g * xhat).sum(axis=0)
        dbias = g.sum(axis=0)
        dxhat = g * gain.values
        dx = inv * (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        )
        return dx, dgain, dbias

    return record_op(xhat * gain.values + bias.values, (x, gain, bias), rule)


def padded_segment_attention(q: Tensor, k: Tensor, v: Tensor, lengths, heads: int) -> Tensor:
    """``segment_attention`` that always pads to [B, heads, L_max, d_k] and
    masks, even when no segment is shorter than the longest."""
    n_rows, d = q.shape
    sizes, segment, position = T.segments(lengths, n_rows, "padded_segment_attention")
    batch, longest, d_k = sizes.size, int(sizes.max()), d // heads
    c = 1.0 / np.sqrt(d_k)

    def pad(a):
        out = np.zeros((batch, longest, d))
        out[segment, position] = a
        return out.reshape(batch, longest, heads, d_k).transpose(0, 2, 1, 3)

    def unpad(a):
        return a.transpose(0, 2, 1, 3).reshape(batch, longest, d)[segment, position]

    qp, kp, vp = pad(q.values), pad(k.values), pad(v.values)
    visible = np.arange(longest) < sizes[:, None]
    scores = np.where(visible[:, None, None, :], (qp @ kp.swapaxes(-1, -2)) * c, T.MASK_BIAS)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)

    def rule(g):
        gp = pad(g)
        dp = gp @ vp.swapaxes(-1, -2)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * c
        return unpad(ds @ kp), unpad(ds.swapaxes(-1, -2) @ qp), unpad(p.swapaxes(-1, -2) @ gp)

    return record_op(unpad(p @ vp), (q, k, v), rule)


def head_columns(a, h, d_k):
    """Columns h*d_k:(h+1)*d_k of ``a``, as an exact 0/1 selector product."""
    return T.matmul(a, Tensor(np.eye(a.shape[1])[:, h * d_k:(h + 1) * d_k]))


def embed(params, ids, positions):
    """The embedding sum as two gathers and an add."""
    return T.add(T.gather(params.tok_emb, ids), T.gather(params.pos_emb, positions))


def sublayers(xq, attn, layer, dropped):
    """A layer past its attention output as the chain of elementary ops the
    package fuses into ``add_norm``, ``feed_forward`` and ``add_norm``;
    ``dropped`` is the dropout of a sublayer's output."""
    x = layer_norm(T.add(xq, dropped(attn)), layer.ln1_gain, layer.ln1_bias)
    hidden = relu(add_rowwise(T.matmul(x, layer.ff_w1), layer.ff_b1))
    ff = add_rowwise(T.matmul(hidden, layer.ff_w2), layer.ff_b2)
    return layer_norm(T.add(x, dropped(ff)), layer.ln2_gain, layer.ln2_bias)


def reference_encode(ids, params, config, dropout_seed=None):
    """The per-sentence, per-head encoder built on ``attention``: the packed path's oracle."""
    dropping = dropout_seed is not None and config.dropout_rate > 0.0
    rng = np.random.default_rng(np.random.SeedSequence([dropout_seed])) if dropping else None
    n, d_k = len(ids), config.d_model // config.heads

    def dropped(a):
        return T.dropout(a, config.dropout_rate, [rng], [n]) if dropping else a

    x = embed(params, ids, slice(0, n))
    for layer in params.layers:
        q, k, v = (T.matmul(x, w) for w in (layer.w_q, layer.w_k, layer.w_v))
        heads = [
            attention(head_columns(q, h, d_k), head_columns(k, h, d_k), head_columns(v, h, d_k))
            for h in range(config.heads)
        ]
        x = sublayers(x, T.matmul(T.concat(heads, axis=1), layer.w_o), layer, dropped)
    return x


def unfused_encode_batch(seqs, params, config, dropout_seeds=None, rows=None):
    """``encode_batch`` as a chain of elementary ops: the embedding sum, each
    Add & Norm and each feed-forward block as several tape records.  With
    ``rows=None`` it is the packed loop with every layer at every row, as it
    ran before ``encode_batch`` took ``rows``."""
    lengths = [len(ids) for ids in seqs]
    drop = dropout_seeds is not None and config.dropout_rate > 0.0
    rngs = [np.random.default_rng(np.random.SeedSequence([s])) for s in dropout_seeds or ()]
    positions = np.concatenate([np.arange(n) for n in lengths])
    x = embed(params, [i for seq in seqs for i in seq], positions)
    top = len(params.layers) - 1
    for depth, layer in enumerate(params.layers):
        keep = rows if depth == top else None
        xq, q_lengths = x, None
        if keep is not None:
            xq = T.gather(x, keep)
            owner = np.searchsorted(np.cumsum(lengths), keep, side="right")
            q_lengths = np.bincount(owner, minlength=len(lengths)).tolist()

        def dropped(a):
            return T.dropout(a, config.dropout_rate, rngs, lengths, keep) if drop else a

        q, k, v = (T.matmul(xq, layer.w_q), T.matmul(x, layer.w_k), T.matmul(x, layer.w_v))
        attn = T.segment_attention(q, k, v, lengths, config.heads, q_lengths)
        x = sublayers(xq, T.matmul(attn, layer.w_o), layer, dropped)
    return x


def per_sentence_mlm(batch, params, config, mask_prob, seed):
    """``mlm_step`` one sentence per encoder call: the packed step's oracle."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    total, count = None, 0
    for i, ids in enumerate(batch):
        corrupted, positions = plan_masking(ids, mask_prob, config.vocab_size, rng)
        h = reference_encode(corrupted, params, config, seed * 100003 + i)
        logits = T.matmul(T.gather(h, positions), params.mlm_proj)
        targets = [ids[p] for p in positions]
        picked = T.gather(logits, (np.arange(len(positions)), np.asarray(targets)))
        ce = T.sub(logsumexp_rows(logits), picked)
        total = ce.sum() if total is None else T.add(total, ce.sum())
        count += len(positions)
    return T.scale(total, 1.0 / count)


def logsumexp(a: Tensor) -> Tensor:
    """log(sum(exp(entries))) over all entries of ``a``, as a scalar."""
    if a.values.size == 0:
        raise ContractError("logsumexp of an empty tensor")
    m = a.values.max()
    e = np.exp(a.values - m)
    total = e.sum()
    return record_op(m + np.log(total), (a,), lambda g: (g * e / total,))


def logsumexp_rows(a: Tensor) -> Tensor:
    """Row-wise log-sum-exp of an m-by-n matrix -> vector of length m."""
    if a.values.ndim != 2 or a.shape[1] < 1:
        raise ShapeError(f"logsumexp_rows expects a nonempty matrix, got {a.shape}")
    m = a.values.max(axis=1, keepdims=True)
    e = np.exp(a.values - m)
    total = e.sum(axis=1, keepdims=True)
    softmax = e / total
    return record_op((m + np.log(total)).reshape(-1), (a,), lambda g: (softmax * g[:, None],))


def mean0(a: Tensor) -> Tensor:
    """Column means of an m-by-n matrix -> vector of length n."""
    if a.values.ndim != 2 or a.shape[0] < 1:
        raise ShapeError(f"mean0 expects a nonempty matrix, got {a.shape}")
    m = a.shape[0]
    return record_op(a.values.mean(axis=0), (a,), lambda g: (np.tile(g / m, (m, 1)),))


def entity_pool(h: Tensor, span: EntitySpan) -> Tensor:
    """Mean of the encoder rows covered by the span -> (d_model,)."""
    if not 0 <= span.start <= span.end < h.shape[0]:
        raise ContractError(f"span {span} out of range for {h.shape[0]} positions")
    return mean0(gather(h, slice(span.start, span.end + 1)))


def range_means(a: Tensor, starts, stops) -> Tensor:
    """Mean of rows starts[s]:stops[s] of a matrix for every range s -> [S, n].

    Forward pools each range as a difference of prefix sums; backward spreads
    g[s] / width over the range.  One tape record however many ranges.
    """
    lo = np.asarray(starts, dtype=np.intp)
    hi = np.asarray(stops, dtype=np.intp)
    if a.values.ndim != 2 or lo.ndim != 1 or lo.shape != hi.shape:
        raise ShapeError(f"range_means: matrix {a.shape} with ranges {lo.shape}/{hi.shape}")
    if lo.size and (lo.min() < 0 or (hi <= lo).any() or hi.max() > a.shape[0]):
        raise ContractError(f"range_means: empty or out-of-range row range for {a.shape[0]} rows")
    prefix = np.vstack([np.zeros((1, a.shape[1])), np.cumsum(a.values, axis=0)])
    inverse = 1.0 / (hi - lo)
    out_values = (prefix[hi] - prefix[lo]) * inverse[:, None]

    def rule(g):
        share = g * inverse[:, None]
        steps = T.scatter(prefix.shape, np.concatenate([lo, hi]), np.vstack([share, -share]))
        return (np.cumsum(steps[:-1], axis=0),)

    return record_op(out_values, (a,), rule)


def concat_pooled_affine(parts, w: Tensor, b: Tensor) -> Tensor:
    """``tensor.pooled_affine`` as the chain it replaced: each part's rows (a
    ``gather`` when every range is one row wide, else ``range_means``), one
    ``concat`` of the pooled matrices and one ``affine`` map."""
    pooled = [
        gather(x, lo) if (np.asarray(hi) - np.asarray(lo) == 1).all() else range_means(x, lo, hi)
        for x, lo, hi in parts
    ]
    return T.affine(T.concat(pooled, axis=1), w, b)


def concat_score_all_spans(h: Tensor, params: SpanHeadParams, lengths) -> SpanTable:
    """``span_head.score_all_spans`` as it was: each candidate's
    [h_i; h_j; mean(h_i..j); width_emb] row built by three gathers and a
    ``range_means``, joined by ``concat``, through one ``affine``."""
    sizes = T.tiling(lengths, h.shape[0], "score_all_spans")
    bounds = [_candidates(int(n), params.max_width) for n in sizes]
    counts = [len(i) for i, _ in bounds]
    starts = np.concatenate([i for i, _ in bounds])
    ends = np.concatenate([j for _, j in bounds])
    offsets = np.repeat(np.cumsum(sizes) - sizes, counts)
    first, last = starts + offsets, ends + offsets
    rep = T.concat([
        gather(h, first),
        gather(h, last),
        range_means(h, first, last + 1),
        gather(params.width_emb, ends - starts),
    ], axis=1)
    logits = T.affine(rep, params.w_cls, params.b_cls)
    return SpanTable(logits, starts, ends, np.repeat(np.arange(len(sizes)), counts))


def concat_pair_logits(h: Tensor, heads, tails, params) -> Tensor:
    """``relation_head.pair_logits`` as it was: each pair's head and tail rows
    pooled by ``range_means``, joined by ``concat``, through one ``affine``."""
    pooled = [range_means(h, *heads), range_means(h, *tails)]
    return T.affine(T.concat(pooled, axis=1), params.w, params.b)


def concat_pair_loss(h: Tensor, heads, tails, labels, params) -> Tensor:
    """``relation_head.pair_loss`` over ``concat_pair_logits``."""
    targets = [RELATION_LABELS.index(label) for label in labels]
    return T.mean_cross_entropy(concat_pair_logits(h, heads, tails, params), targets)


def sequence_score(e, trans, start, stop, y, lengths=None) -> Tensor:
    """``crf_head.sequence_score`` as four gathers, four sums and three adds."""
    n = e.shape[0]
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


def brute_force_oracle(
    e: Tensor, trans: Tensor, start: Tensor, stop: Tensor
) -> tuple[float, list[int], float]:
    """Exhaustive (log partition, best sequence, best score) of a linear-chain
    CRF over all K^n tag sequences.

    The best-sequence tie break minimizes (yn, ..., y1) lexicographically,
    which is exactly what backpointer decoding with lowest-index argmax does.
    """
    n, k = e.shape
    if n < 1:
        raise ContractError("CRF requires at least one position")
    if k**n > 100_000:
        raise ContractError(f"brute force over {k}^{n} sequences is too large")
    ev, tv, sv, pv = e.values, trans.values, start.values, stop.values
    scores = []
    best_seq: tuple[int, ...] | None = None
    best_score = -np.inf
    for seq in itertools.product(range(k), repeat=n):
        score = sv[seq[0]] + pv[seq[-1]] + sum(ev[i, t] for i, t in enumerate(seq))
        score += sum(tv[a, b] for a, b in zip(seq, seq[1:]))
        scores.append(score)
        if score > best_score or (
            score == best_score and tuple(reversed(seq)) < tuple(reversed(best_seq))
        ):
            best_score, best_seq = score, seq
    arr = np.array(scores)
    m = arr.max()
    log_z = float(m + np.log(np.exp(arr - m).sum()))
    return log_z, list(best_seq), float(best_score)


def kind(scheme: TagScheme, index: int) -> tuple[str, str | None]:
    """Split a tag index into ("O"|"B"|"I", class name or None) by name,
    where the package's BIO algebra uses the index arithmetic."""
    if index == 0:
        return "O", None
    cls = scheme.classes[(index - 1) // 2]
    return ("B" if index % 2 == 1 else "I"), cls


def tags_to_spans(tags, scheme: TagScheme, mode: str = "strict") -> list[EntitySpan]:
    """``corpus.tags_to_spans`` through ``kind`` and a closure that closes
    the open span."""
    if mode not in ("strict", "repair"):
        raise ContractError(f"unknown mode {mode!r}")
    spans: list[EntitySpan] = []
    open_start: int | None = None
    open_cls: str | None = None

    def close():
        nonlocal open_start, open_cls
        if open_start is not None:
            spans.append(EntitySpan(open_start, i - 1, open_cls))
            open_start = open_cls = None

    i = 0
    for i, tag in enumerate(tags):
        tag_kind, cls = kind(scheme, tag)
        if tag_kind == "B":
            close()
            open_start, open_cls = i, cls
        elif tag_kind == "I":
            if open_cls == cls:
                continue
            if mode == "strict":
                raise ValidationError(
                    f"invalid BIO: {scheme.tag_name(tag)} at index {i} does not continue a span"
                )
            close()
            open_start, open_cls = i, cls
        else:
            close()
    i = len(tags)
    close()
    return spans


def invalid_transition_rate(batch, scheme: TagScheme) -> float:
    """``corpus.invalid_transition_rate`` through ``kind``: an I-c is valid
    only after a B-c or an I-c of the same class, and not at the start."""
    if not batch:
        raise ContractError("invalid_transition_rate requires a nonempty batch")
    violations = 0
    checked = 0
    for tags in batch:
        previous: int | None = None  # virtual start
        for tag in tags:
            tag_kind, cls = kind(scheme, tag)
            if tag_kind == "I":
                if previous is None:
                    violations += 1
                else:
                    prev_kind, prev_cls = kind(scheme, previous)
                    if prev_cls != cls or prev_kind not in ("B", "I"):
                        violations += 1
            checked += 1
            previous = tag
    return violations / checked if checked else 0.0


def validate_sentence(sentence: Sentence, scheme: TagScheme) -> None:
    """The checks ``load_annotations`` makes of a record, with the spans
    derived from the tags anew."""
    if len(sentence.tags) != len(sentence.tokens):
        raise ValidationError(f"{len(sentence.tags)} tags for {len(sentence.tokens)} tokens")
    derived = tags_to_spans(sentence.tags, scheme, mode="strict")
    if sorted(derived, key=astuple) != sorted(sentence.spans, key=astuple):
        raise ValidationError(f"spans {sentence.spans} disagree with tags {sentence.tags}")
    for index, rel in enumerate(sentence.relations):
        if rel.head == rel.tail:
            raise ValidationError(f"relation {rel} links a span to itself")
        for idx in (rel.head, rel.tail):
            if not 0 <= idx < len(sentence.spans):
                raise ValidationError(f"relation {rel} references missing span {idx}")
        if any((r.head, r.tail) == (rel.head, rel.tail) for r in sentence.relations[:index]):
            raise ValidationError(f"relation {rel} gives its span pair a second relation")


def vocab_entries(sentences) -> list[str]:
    """``build_vocab``'s entries, characters counted token by token."""
    word_freq: Counter[str] = Counter()
    char_freq: Counter[str] = Counter()
    for sentence in sentences:
        for token in sentence.tokens:
            word_freq[token.surface] += 1
            char_freq.update(token.surface)
    entries = list(RESERVED_ENTRIES)
    seen = set(entries)
    for word, _ in sorted(word_freq.items(), key=lambda kv: (-kv[1], kv[0])):
        if word not in seen:
            entries.append(word)
            seen.add(word)
    for char, _ in sorted(char_freq.items(), key=lambda kv: (-kv[1], kv[0])):
        if char not in seen:
            entries.append(char)
            seen.add(char)
    return entries


def viterbi_one(e: Tensor, trans: Tensor, start: Tensor, stop: Tensor) -> tuple[list[int], float]:
    """One sentence's Viterbi path and score, one position at a time."""
    ev, tv = e.values, trans.values
    n = e.shape[0]
    score = start.values + ev[0]
    backptr = np.zeros((n, ev.shape[1]), dtype=np.intp)
    for i in range(1, n):
        cand = score[:, None] + tv
        backptr[i] = cand.argmax(axis=0)
        score = ev[i] + cand.max(axis=0)
    final = score + stop.values
    best = int(final.argmax())
    tags = [best]
    for i in range(n - 1, 0, -1):
        tags.append(int(backptr[i, tags[-1]]))
    tags.reverse()
    return tags, float(final[best])


def greedy_decode_one(h: Tensor, params) -> list[int]:
    """One sentence's greedy tags, one matrix-vector product per position."""
    emb = params.tag_emb.values
    w, b = params.w_out.values, params.b_out.values
    tags: list[int] = []
    previous = params.bos
    for row in h.values:
        previous = int((np.concatenate([row, emb[previous]]) @ w + b).argmax())
        tags.append(previous)
    return tags


def decode_spans_one(table, classes) -> list[EntitySpan]:
    """Greedy non-overlapping decode of a one-sentence span table."""
    values = table.logits.values
    cls = values.argmax(axis=1)
    best = values[np.arange(len(table)), cls]
    winners = sorted(
        (-score, start, end, c)
        for score, start, end, c in zip(
            best.tolist(), table.starts.tolist(), table.ends.tolist(), cls.tolist()
        )
        if c != NULL
    )
    taken: list[EntitySpan] = []
    occupied: set[int] = set()
    for _, start, end, c in winners:
        positions = range(start, end + 1)
        if any(p in occupied for p in positions):
            continue
        occupied.update(positions)
        taken.append(EntitySpan(start, end, classes[c - 1]))
    taken.sort(key=lambda s: (s.start, s.end))
    return taken


def predict_relations_one(h: Tensor, spans, params) -> list[RelationInstance]:
    """One sentence's relations: its own ``range_means`` of its spans, gathered
    per pair, then ``concat`` and ``affine``."""
    heads, tails = ordered_pairs(len(spans))
    if not heads:
        return []
    pooled = range_means(h, [s.start for s in spans], [s.end + 1 for s in spans])
    logits = T.affine(T.concat([gather(pooled, heads), gather(pooled, tails)], axis=1),
                      params.w, params.b)
    best = logits.values.argmax(axis=1).tolist()
    return [
        RelationInstance(i, j, RELATION_LABELS[label])
        for i, j, label in zip(heads, tails, best)
        if label != 0
    ]


def decode_one(model, h: Tensor) -> tuple[list[EntitySpan], list[int]]:
    """One sentence's (spans, pre-repair tags) from its own word rows."""
    head, scheme = model.head, model.scheme
    if isinstance(head, CRFParams):
        tags, _ = viterbi_one(emissions(h, head), head.trans, head.start, head.stop)
    elif isinstance(head, Seq2SeqParams):
        tags = greedy_decode_one(h, head)
    else:
        assert isinstance(head, SpanHeadParams)
        spans = decode_spans_one(score_all_spans(h, head, [h.shape[0]]), head.classes)
        return spans, spans_to_tags(spans, h.shape[0], scheme)
    return repair_spans(tags, scheme, mode="repair"), tags


def entity_key(span: EntitySpan) -> tuple:
    return span.start, span.end, span.cls


def count_exact_match_one(gold_items, pred_items, key_of) -> EvalReport:
    """``evaluation._count_exact_match`` one sentence at a time: a set of the
    gold keys and a ``Counter`` of the predicted keys per sentence."""
    if len(gold_items) != len(pred_items):
        raise ContractError(f"{len(gold_items)} gold vs {len(pred_items)} predicted sentences")
    report = EvalReport()

    def bucket(cls: str) -> ClassCounts:
        return report.per_class.setdefault(cls, ClassCounts())

    for gold, pred in zip(gold_items, pred_items):
        gold_keys = {key_of(g) for g in gold}
        matched = set()
        for key, copies in Counter(key_of(p) for p in pred).items():
            if key in gold_keys:
                bucket(key[2]).tp += 1
                bucket(key[2]).fp += copies - 1  # duplicate copies are spurious
                matched.add(key)
            else:
                bucket(key[2]).fp += copies
        for key in gold_keys - matched:
            bucket(key[2]).fn += 1
    report.micro = ClassCounts(
        tp=sum(c.tp for c in report.per_class.values()),
        fp=sum(c.fp for c in report.per_class.values()),
        fn=sum(c.fn for c in report.per_class.values()),
    )
    return report


def evaluate_split_one(model, corpus, split: str) -> dict:
    """``evaluate_split(...).as_dict()`` one sentence at a time: each
    sentence's own encoder pass, decode and two relation passes."""
    sentences = [corpus.sentences[i] for i in corpus.split_indices(split)]
    with T.no_grad():
        rows = [pipeline.encode_words(model, s) for s in sentences]
        predicted = [decode_one(model, h) for h in rows]
    pred_tags = [tags for _, tags in predicted]
    gold_spans, pred_spans = [s.spans for s in sentences], [spans for spans, _ in predicted]
    report = count_exact_match_one(gold_spans, pred_spans, entity_key)
    report.token_accuracy = token_accuracy([s.tags for s in sentences], pred_tags)
    if model.head_kind in ("crf", "seq2seq") and pred_tags:
        report.invalid_transition_rate = invalid_transition_rate(pred_tags, model.scheme)
    out = {"entities": report.as_dict()}
    gold = [resolve_relations(s.spans, s.relations) for s in sentences]
    with T.no_grad():
        for name, span_lists in (
            ("relations_gold_spans", gold_spans),
            ("relations_predicted_spans", pred_spans),
        ):
            found = [
                resolve_relations(spans, predict_relations_one(h, spans, model.relation))
                for spans, h in zip(span_lists, rows)
            ]
            out[name] = count_exact_match_one(gold, found, lambda triple: triple).as_dict()
    return out


def load_conll(path, scheme: TagScheme) -> C.Corpus:
    """``corpus.load_conll`` with a new ``Token`` for every line, testing
    for a blank line first."""
    lines = C.read_utf8(path).split("\n")
    lines.append("")  # closes the last sentence
    index = scheme._index
    sentences: list[Sentence] = []
    surfaces: list[str] = []
    tags: list[int] = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            if tags:
                try:
                    spans = C.tags_to_spans(tags, scheme)
                except ValidationError as exc:
                    bad_line = line_no - len(tags) + exc.index
                    raise ValidationError(f"{path} line {bad_line}: {exc}") from None
                sentences.append(Sentence([C.Token(s) for s in surfaces], tags, spans))
                surfaces, tags = [], []
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0]:
            raise C.ParseError(f"{path} line {line_no}: expected 'token<TAB>tag', got {line!r}")
        surface, tag_name = fields
        try:
            tags.append(index[tag_name])
        except KeyError:
            raise C.ParseError(f"{path} line {line_no}: unknown tag {tag_name!r}") from None
        surfaces.append(surface)
    return C.Corpus(sentences, scheme)


def load_annotations(corpus: C.Corpus, path) -> C.Corpus:
    """``corpus.load_annotations`` through ``json.loads``, with a new
    ``EntitySpan`` per span record, compared with ``corpus``'s as objects.
    It checks relation labels as the package does."""
    lines = [(n, ln) for n, ln in enumerate(C.read_utf8(path).split("\n"), 1) if ln.strip()]
    if len(lines) != len(corpus.sentences):
        raise C.ParseError(
            f"annotation file {path} has {len(lines)} records for {len(corpus.sentences)} sentences"
        )
    sentences = []
    for (line_no, line), sentence in zip(lines, corpus.sentences):
        where = f"annotation file {path} line {line_no}"
        try:
            record = C.parse_json(line)
        except json.JSONDecodeError as exc:
            raise C.ParseError(f"{where}: {exc}") from None
        if not isinstance(record, dict):
            raise C.ParseError(f"{where}: expected a JSON object, got {type(record).__name__}")
        spans = _records(record, "spans", C._SPAN_FIELDS, EntitySpan, where)
        relations = _records(record, "relations", C._RELATION_FIELDS, RelationInstance, where)
        if len(sentence.tags) != len(sentence.tokens):
            raise C.ParseError(
                f"{where}: {len(sentence.tags)} tags for {len(sentence.tokens)} tokens"
            )
        if spans != sentence.spans and sorted(spans, key=astuple) != sentence.spans:
            raise C.ParseError(f"{where}: spans {spans} disagree with tags {sentence.tags}")
        for index, rel in enumerate(relations):
            if rel.head == rel.tail:
                raise C.ParseError(f"{where}: relation {rel} links a span to itself")
            for idx in (rel.head, rel.tail):
                if not 0 <= idx < len(spans):
                    raise C.ParseError(f"{where}: relation {rel} references missing span {idx}")
            if rel.label not in C.RELATION_LABELS:
                raise C.ParseError(
                    f"{where}: relation {rel} has a label not in {C.RELATION_LABELS}"
                )
            if any((r.head, r.tail) == (rel.head, rel.tail) for r in relations[:index]):
                raise C.ParseError(f"{where}: relation {rel} gives its span pair a second relation")
        sentences.append(Sentence(sentence.tokens, sentence.tags, spans, relations))
    return C.Corpus(sentences, corpus.scheme, list(corpus.splits))


def _records(record: dict, key: str, fields: tuple, make, where: str) -> list:
    """One ``make(...)`` per span or relation record of ``record[key]``."""
    items = record.get(key, [])
    if not isinstance(items, list):
        raise C.ParseError(f"{where}: {key!r} must be a JSON list")
    (a, kind_a), (b, kind_b), (c, kind_c) = fields
    out = []
    for item in items:
        try:
            x, y, z = item[a], item[b], item[c]
        except (KeyError, TypeError):
            x = y = z = None
        if type(x) is not kind_a or type(y) is not kind_b or type(z) is not kind_c:
            C._reject(item, fields, key[:-1], where)
        out.append(make(x, y, z))
    return out


def sample_k_shot(corpus: C.Corpus, k: int, seed: int) -> Episode:
    """The k-shot sampler that lists each class's train sentences, then scans
    a pick's spans once per class to credit it."""
    if k < 0:
        raise ContractError(f"k must be >= 0, got {k}")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    train_ids = corpus.split_indices("train")
    classes = corpus.scheme.classes
    containing = {
        cls: [
            i
            for i in train_ids
            if any(span.cls == cls for span in corpus.sentences[i].spans)
        ]
        for cls in classes
    }
    credit = {cls: 0 for cls in classes}
    unused = set(train_ids)
    support: list[int] = []
    for round_index in range(k):
        for cls in classes:
            if credit[cls] > round_index:
                continue
            candidates = [i for i in containing[cls] if i in unused]
            if not candidates:
                continue
            pick = candidates[int(rng.integers(len(candidates)))]
            unused.remove(pick)
            support.append(pick)
            for other in classes:
                if any(span.cls == other for span in corpus.sentences[pick].spans):
                    credit[other] += 1
    return Episode(support, k, seed, dict(credit))
