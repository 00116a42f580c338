"""Mini transformer encoder and a masked-token pretraining objective.

The encoder maps subword-id sequences to contextual representations through
stacked self-attention blocks (post-norm, learned positional embeddings,
ReLU feed-forward).  A batch runs in one pass: its sequences are packed into
one matrix and attention stays within each sequence.  ``mlm_step`` is the
small-scale stand-in for domain pretraining: corrupt a seeded subset of
positions and score the model's reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .corpus import MASK
from .errors import ContractError
from .tensor import MASK_BIAS, Params, Tensor, xavier


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

    @property
    def d_k(self) -> int:
        return self.d_model // self.heads


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
                ff_b1=Tensor(np.zeros(ff), requires_grad=True),
                ff_w2=xavier(rng, ff, d),
                ff_b2=Tensor(np.zeros(d), requires_grad=True),
                ln1_gain=Tensor(np.ones(d), requires_grad=True),
                ln1_bias=Tensor(np.zeros(d), requires_grad=True),
                ln2_gain=Tensor(np.ones(d), requires_grad=True),
                ln2_bias=Tensor(np.zeros(d), requires_grad=True),
            )
        )
    params.mlm_proj = xavier(rng, d, config.vocab_size)
    return params


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: Sequence[bool] | None = None,
    return_weights: bool = False,
):
    """Scaled dot-product attention: softmax(q kᵀ / sqrt(d_k)) v.

    ``mask`` flags visible positions; masked (False) positions receive a
    -1e9 score bias so their attention weight underflows to zero.
    """
    n, d_k = q.shape
    if k.shape != (n, d_k) or v.shape[0] != n:
        raise ContractError(f"attention: shapes {q.shape}, {k.shape}, {v.shape} disagree")
    scores = T.scale(T.matmul(q, T.transpose(k)), 1.0 / math.sqrt(d_k))
    if mask is not None:
        visible = np.asarray(mask, dtype=bool)
        if visible.shape != (n,):
            raise ContractError(f"mask length {visible.shape} does not match n={n}")
        if not visible.any():
            raise ContractError("attention requires at least one unmasked position")
        bias = np.where(visible, 0.0, MASK_BIAS)
        scores = T.add(scores, Tensor(np.tile(bias, (n, 1))))
    weights = T.softmax_rows(scores)
    out = T.matmul(weights, v)
    return (out, weights) if return_weights else out


def encode_batch(
    seqs: Sequence[Sequence[int]],
    params: EncoderParams,
    config: EncoderConfig,
    training: bool = False,
    dropout_seeds: Sequence[int] | None = None,
    attn_sink: list | None = None,
) -> Tensor:
    """Run the encoder stack over a batch of subword-id sequences in one pass.

    The sequences are packed into one [sum(n), d_model] matrix, one block of
    rows per sequence in batch order, and positions restart at 0 for each.
    Attention stays within a sequence, so every block equals what a
    one-sequence call gives.  Each sequence is checked against ``max_len``
    on its own.  Deterministic when ``training`` is false; dropout requires
    one seed per sequence, and each sequence draws its masks from its own
    generator.  ``attn_sink``, when given, collects every attention weight
    matrix, per layer, per sequence, per head (diagnostics only).
    """
    lengths = [len(ids) for ids in seqs]
    if not lengths:
        raise ContractError("encode_batch requires at least one sequence")
    for n in lengths:
        if n == 0:
            raise ContractError("encode requires a nonempty sequence")
        if n > config.max_len:
            raise ContractError(f"sequence length {n} exceeds max_len {config.max_len}")
    dropping = training and config.dropout_rate > 0.0
    if dropping and (dropout_seeds is None or len(dropout_seeds) != len(lengths)):
        raise ContractError("training with dropout requires a dropout_seed per sequence")
    rngs = (
        [np.random.default_rng(np.random.SeedSequence([seed])) for seed in dropout_seeds]
        if dropping
        else None
    )

    ids = [i for seq in seqs for i in seq]
    positions = np.concatenate([np.arange(n) for n in lengths])
    x = T.add(T.gather(params.tok_emb, ids), T.gather(params.pos_emb, positions))
    for layer in params.layers:
        attn = T.segment_attention(
            T.matmul(x, layer.w_q),
            T.matmul(x, layer.w_k),
            T.matmul(x, layer.w_v),
            lengths,
            config.heads,
            sink=attn_sink,
        )
        attn = T.matmul(attn, layer.w_o)
        if dropping:
            attn = T.dropout(attn, config.dropout_rate, rngs, lengths)
        x = T.layer_norm(T.add(x, attn), layer.ln1_gain, layer.ln1_bias)

        hidden = T.relu(T.add_rowwise(T.matmul(x, layer.ff_w1), layer.ff_b1))
        ff = T.add_rowwise(T.matmul(hidden, layer.ff_w2), layer.ff_b2)
        if dropping:
            ff = T.dropout(ff, config.dropout_rate, rngs, lengths)
        x = T.layer_norm(T.add(x, ff), layer.ln2_gain, layer.ln2_bias)
    return x


def encode(
    ids: Sequence[int],
    params: EncoderParams,
    config: EncoderConfig,
    training: bool = False,
    dropout_seed: int | None = None,
    attn_sink: list | None = None,
) -> Tensor:
    """Run the full encoder stack over one subword-id sequence -> [n, d_model]."""
    return encode_batch(
        [ids], params, config, training=training,
        dropout_seeds=None if dropout_seed is None else [dropout_seed],
        attn_sink=attn_sink,
    )


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
    seeds = (
        None if config.dropout_rate == 0.0 else [seed * 100003 + i for i in range(len(batch))]
    )
    h = encode_batch(corrupted, params, config, training=True, dropout_seeds=seeds)
    return T.mean_cross_entropy(T.matmul(T.gather(h, rows), params.mlm_proj), targets)
