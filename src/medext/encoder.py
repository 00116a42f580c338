"""Mini transformer encoder and a masked-token pretraining objective.

The encoder maps subword-id sequences to contextual representations through
stacked self-attention blocks (post-norm, learned positional embeddings,
ReLU feed-forward).  A batch runs in one pass: its sequences are packed into
one matrix and attention stays within each sequence.  ``mlm_step`` is the
small-scale stand-in for domain pretraining: corrupt a seeded subset of
positions and score the model's reconstruction.  It runs the top layer only
at those positions (``encode_batch``'s ``rows``): keys and values at every
row, everything else at the masked rows, with each sequence's dropout masks
drawn whole and the masked rows' kept.  Its checkpoints may differ from a
full top layer's in the last bits, since BLAS sums over fewer rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .corpus import MASK
from .errors import ContractError
from .tensor import Params, Tensor, param, xavier


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_model: int = 32
    heads: int = 2
    layers: int = 2
    d_ff: int = 64
    max_len: int = 64
    dropout_rate: float = 0.0

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "heads", "layers", "d_ff", "max_len"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ContractError(f"{name} must be an integer >= 1, got {value!r}")
        if self.vocab_size < 5:
            raise ContractError("vocab_size must cover the reserved entries")
        if self.d_model % self.heads:
            raise ContractError(f"d_model={self.d_model} must be divisible by heads={self.heads}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ContractError(f"dropout_rate {self.dropout_rate} outside [0, 1)")


@dataclass
class LayerParams(Params):
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    ff_w1: Tensor
    ff_b1: Tensor
    ff_w2: Tensor
    ff_b2: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor


@dataclass
class EncoderParams(Params):
    tok_emb: Tensor
    pos_emb: Tensor
    layers: list[LayerParams] = field(default_factory=list)
    mlm_proj: Tensor = None

    def named(self) -> dict[str, Tensor]:
        out = super().named()  # tok_emb, pos_emb, mlm_proj
        for i, layer in enumerate(self.layers):
            out.update({f"layer{i}.{name}": value for name, value in layer.named().items()})
        return out


def init_params(config: EncoderConfig, seed: int) -> EncoderParams:
    """Seeded Xavier-uniform weights; zero biases; unit layer-norm gains."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    d, ff = config.d_model, config.d_ff
    params = EncoderParams(
        tok_emb=xavier(rng, config.vocab_size, d),
        pos_emb=xavier(rng, config.max_len, d),
    )
    for _ in range(config.layers):
        params.layers.append(
            LayerParams(
                w_q=xavier(rng, d, d),
                w_k=xavier(rng, d, d),
                w_v=xavier(rng, d, d),
                w_o=xavier(rng, d, d),
                ff_w1=xavier(rng, d, ff),
                ff_b1=param(ff),
                ff_w2=xavier(rng, ff, d),
                ff_b2=param(d),
                ln1_gain=param(d, 1.0),
                ln1_bias=param(d),
                ln2_gain=param(d, 1.0),
                ln2_bias=param(d),
            )
        )
    params.mlm_proj = xavier(rng, d, config.vocab_size)
    return params


def encode_batch(
    seqs: Sequence[Sequence[int]],
    params: EncoderParams,
    config: EncoderConfig,
    dropout_seeds: Sequence[int] | None = None,
    rows: Sequence[int] | None = None,
) -> Tensor:
    """Run the encoder stack over a batch of subword-id sequences in one pass.

    The sequences are packed into one [sum(n), d_model] matrix, one block of
    rows per sequence in batch order, and positions restart at 0 for each.
    Attention stays within a sequence, so every block equals what a
    one-sequence call gives.  Each sequence is checked against ``max_len``
    on its own.  Dropout runs exactly when ``dropout_seeds`` is given and
    ``dropout_rate > 0``: one seed per sequence, and each sequence draws its
    masks from its own generator.  Without seeds the pass is deterministic.

    ``rows`` are the packed rows the caller reads, grouped by sequence in
    batch order (any order within a sequence), at least one per sequence;
    the result is then [len(rows), d_model] in ``rows`` order.  The top
    layer computes keys and values at every row, since attention reads
    every key, and everything else only at ``rows``; its dropout still
    draws each sequence's whole masks and keeps the rows it holds, so every
    generator advances as in the full pass.  ``rows=None`` is every row.
    """
    lengths = [len(ids) for ids in seqs]
    if not lengths:
        raise ContractError("encode_batch requires at least one sequence")
    for n in lengths:
        if n == 0:
            raise ContractError("encode requires a nonempty sequence")
        if n > config.max_len:
            raise ContractError(f"sequence length {n} exceeds max_len {config.max_len}")
    if dropout_seeds is not None and len(dropout_seeds) != len(lengths):
        raise ContractError(f"{len(dropout_seeds)} dropout seeds for {len(lengths)} sequences")
    drop = dropout_seeds is not None and config.dropout_rate > 0.0
    if drop:
        rngs = [np.random.default_rng(np.random.SeedSequence([seed])) for seed in dropout_seeds]
    q_lengths = None
    if rows is not None:
        rows = np.asarray(rows, dtype=np.intp)
        owner = np.searchsorted(np.cumsum(lengths), rows, side="right").ravel()  # rows' sequences
        q_lengths = np.bincount(owner, minlength=len(lengths)).tolist()
        if (rows.ndim != 1 or rows.min(initial=0) < 0 or len(q_lengths) != len(lengths)
                or 0 in q_lengths or (np.diff(owner) < 0).any()):
            raise ContractError("encode_batch: rows must be packed rows grouped by sequence "
                                "in batch order, at least one of each")

    ids = np.array([i for seq in seqs for i in seq], dtype=np.intp)
    positions = np.concatenate([np.arange(n) for n in lengths])
    tok, pos = params.tok_emb, params.pos_emb
    x = T.record_op(tok.values[ids] + pos.values[positions], (tok, pos),
                    lambda g: (T.scatter(tok.shape, ids, g), T.scatter(pos.shape, positions, g)))
    top = len(params.layers) - 1
    for depth, layer in enumerate(params.layers):
        keep = rows if depth == top else None  # the rows this layer computes beyond k and v
        xq = x if keep is None else T.gather(x, keep)
        attn = T.segment_attention(
            T.matmul(xq, layer.w_q),
            T.matmul(x, layer.w_k),
            T.matmul(x, layer.w_v),
            lengths,
            config.heads,
            None if keep is None else q_lengths,
        )
        attn = T.matmul(attn, layer.w_o)
        if drop:
            attn = T.dropout(attn, config.dropout_rate, rngs, lengths, keep)
        x = T.add_norm(xq, attn, layer.ln1_gain, layer.ln1_bias)

        ff = T.feed_forward(x, layer.ff_w1, layer.ff_b1, layer.ff_w2, layer.ff_b2)
        if drop:
            ff = T.dropout(ff, config.dropout_rate, rngs, lengths, keep)
        x = T.add_norm(x, ff, layer.ln2_gain, layer.ln2_bias)
    return x


def encode(ids: Sequence[int], params: EncoderParams, config: EncoderConfig) -> Tensor:
    """Run the full encoder stack over one subword-id sequence, without dropout -> [n, d_model]."""
    return encode_batch([ids], params, config)


def plan_masking(
    ids: Sequence[int],
    mask_prob: float,
    vocab_size: int,
    rng: np.random.Generator,
) -> tuple[list[int], list[int]]:
    """Choose and corrupt max(1, floor(mask_prob*n)) positions.

    Of the selected positions, floor(0.8k) become [MASK], floor(0.1k) a
    random non-reserved id, and the remainder stay unchanged.
    """
    n = len(ids)
    count = max(1, int(mask_prob * n))
    positions = [int(p) for p in rng.choice(n, size=count, replace=False)]
    n_masked = int(0.8 * count)
    n_random = int(0.1 * count)
    corrupted = list(ids)
    for j, pos in enumerate(positions):
        if j < n_masked:
            corrupted[pos] = MASK
        elif j < n_masked + n_random:
            corrupted[pos] = int(rng.integers(4, vocab_size))
    return corrupted, positions


def mlm_step(
    batch: Sequence[Sequence[int]],
    params: EncoderParams,
    config: EncoderConfig,
    mask_prob: float = 0.15,
    seed: int = 0,
) -> Tensor:
    """Mean cross-entropy of reconstructing the selected positions of a batch."""
    if not batch:
        raise ContractError("mlm_step requires a nonempty batch")
    if not 0.0 < mask_prob < 1.0:
        raise ContractError(f"mask_prob must be in (0, 1), got {mask_prob}")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    corrupted, rows, targets = [], [], []
    offset = 0
    for ids in batch:
        sequence, positions = plan_masking(ids, mask_prob, config.vocab_size, rng)
        corrupted.append(sequence)
        rows.extend(offset + p for p in positions)
        targets.extend(ids[p] for p in positions)
        offset += len(ids)
    seeds = [seed * 100003 + i for i in range(len(batch))]
    h = encode_batch(corrupted, params, config, seeds, rows)
    return T.mean_cross_entropy(T.matmul(h, params.mlm_proj), targets)
