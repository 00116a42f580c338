"""Dense float64 tensors with reverse-mode automatic differentiation.

A single module-level tape records every differentiable operation in
execution order (which is already a topological order).  ``backward`` seeds
the root gradient and replays the tape in reverse, accumulating gradients by
summation so that multiple uses of one tensor add their contributions.
Every op builds its output with ``record_op``.  No code writes a gradient
in place, so the backward pass stores gradient arrays as the rules return
them, shared or not.
``reset_tape`` must be called between training steps; nothing is freed
implicitly.  Inside ``no_grad()`` nothing is recorded (inference).

Everything is double precision.  Shapes are 0-d (scalars), 1-d (vectors) or
2-d (matrices); there is no broadcasting beyond row-wise affine maps.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError

Array = np.ndarray


class Tensor:
    """A dense array with an attached gradient slot.

    ``values`` is always a float64 ndarray.  ``grad`` is None until the
    backward pass stores a gradient of the same shape as ``values``.  That
    array may be shared with other tensors' gradients, so it is read-only by
    convention: replace it, never write into it.
    """

    __slots__ = ("values", "grad")

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: Array | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        return float(self.values)

    def zero_grad(self) -> None:
        self.grad = None

    def __deepcopy__(self, memo) -> "Tensor":
        """A copy of the values, without the gradient."""
        return Tensor(self.values.copy())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    def sum(self) -> "Tensor":
        return sum_all(self)

    def mean(self) -> "Tensor":
        return mean_all(self)


class Tape:
    """Ordered record of executed operations.

    Each record is ``(output, inputs, rule)`` where ``rule`` maps the
    output gradient to one gradient (or ``None``) per input.  Records are
    appended in execution order, so the list is topologically sorted and a
    reverse replay visits every node exactly once.  A tensor's first
    gradient is stored as the rule returned it and each later one is added
    into a new array, which is safe because no gradient is written in place.
    """

    __slots__ = ("records", "recording")

    def __init__(self):
        self.records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self.recording = True

    def reset(self) -> None:
        self.records.clear()

    def run_backward(self, root: Tensor) -> None:
        root.grad = np.ones_like(root.values)
        for out, inputs, rule in reversed(self.records):
            if out.grad is None:
                continue
            for tensor, grad in zip(inputs, rule(out.grad)):
                if grad is not None:
                    tensor.grad = grad if tensor.grad is None else tensor.grad + grad


_TAPE = Tape()


def active_tape() -> Tape:
    return _TAPE


def reset_tape() -> None:
    _TAPE.reset()


@contextmanager
def no_grad() -> Iterator[None]:
    """Record nothing on the tape inside the block (inference: nothing is replayed)."""
    previous = _TAPE.recording
    _TAPE.recording = False
    try:
        yield
    finally:
        _TAPE.recording = previous


def record_op(values: Array, inputs: Sequence[Tensor], rule: Callable) -> Tensor:
    """The one op constructor: a tensor holding ``values``, with one tape
    record while the tape is recording (outside ``no_grad()``).

    ``rule`` maps the output gradient to one gradient (or None) per input.
    It may return the output gradient itself, one array for several inputs,
    or views, since no gradient is ever written in place.
    """
    out = Tensor(values)
    if _TAPE.recording:
        _TAPE.records.append((out, tuple(inputs), rule))
    return out


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into every reachable tensor's grad slot.

    ``root`` must be a scalar.  Intended to run once per tape; call
    ``reset_tape`` before building the next graph.
    """
    if root.values.shape != ():
        raise ContractError(f"backward requires a scalar root, got shape {root.shape}")
    _TAPE.run_backward(root)


def assert_finite(values: Array, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise NumericError(f"non-finite values in {what}")


class Params:
    """Base of the parameter dataclasses: ``named()`` maps each tensor-valued
    field to its tensor, in declaration order."""

    def named(self) -> dict[str, Tensor]:
        return {name: v for name, v in vars(self).items() if isinstance(v, Tensor)}


Layout = tuple[tuple[str, tuple[int, ...], int], ...]  # (name, shape, offset) per parameter


def layout_of(named: dict[str, Tensor]) -> Layout:
    """The tensors' places, in order, in one vector that packs them end to end."""
    at = np.cumsum([0, *(t.values.size for t in named.values())]).tolist()
    return tuple((k, t.shape, i) for (k, t), i in zip(named.items(), at))


def views(layout: Layout, vector: Array) -> dict[str, Array]:
    """``vector``, laid out as ``layout`` says, as one view per name."""
    return {name: vector[at:at + math.prod(shape)].reshape(shape) for name, shape, at in layout}


class FlatParams(dict):
    """Named parameter tensors whose values are views of one contiguous
    float64 vector, ``flat``, at the (name, shape, offset) places of ``layout``.

    Building one copies the values into a new ``flat`` and rebinds each
    tensor it is given to its view, so only ``Model`` packs a model's
    tensors (copies of the ones it is given).  Write into ``values`` in
    place: assigning a new array detaches it from ``flat``.  ``buffers`` is
    the optimizer's work vectors, made on its first step.
    """

    def __init__(self, named: dict[str, Tensor]):
        super().__init__(named)
        self.layout = layout_of(named)
        self.flat = np.empty(sum(t.values.size for t in named.values()))
        for t, view in zip(named.values(), views(self.layout, self.flat).values()):
            view[...] = t.values
            t.values = view
        self.buffers: Array | None = None


_SHAPES_ONLY = False


@contextmanager
def shapes_only() -> Iterator[None]:
    """Inside the block ``param`` and ``xavier`` draw nothing and give tensors
    that hold only a shape (a read-only view of one 0.0), so a model's layout
    is known before any of its memory is allocated."""
    global _SHAPES_ONLY
    _SHAPES_ONLY = True
    try:
        yield
    finally:
        _SHAPES_ONLY = False


def param(shape, fill: float = 0.0) -> Tensor:
    values = np.broadcast_to(fill, shape) if _SHAPES_ONLY else np.full(shape, fill)
    return Tensor(values)


def xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    if _SHAPES_ONLY:
        return param((fan_in, fan_out))
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=(fan_in, fan_out)))


# ---------------------------------------------------------------------------
# elementwise and affine operations


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    return record_op(a.values + b.values, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} differ")
    return record_op(a.values - b.values, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    return record_op(a.values * b.values, (a, b), lambda g: (g * b.values, g * a.values))


def scale(a: Tensor, c: float) -> Tensor:
    return record_op(a.values * c, (a,), lambda g: (g * c,))


def add_rowwise(m: Tensor, v: Tensor) -> Tensor:
    """Add a length-n vector to every row of an m-by-n matrix."""
    if m.values.ndim != 2 or v.values.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ShapeError(f"add_rowwise: shapes {m.shape} and {v.shape}")
    return record_op(m.values + v.values, (m, v), lambda g: (g, g.sum(axis=0)))


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0
    return record_op(np.maximum(a.values, 0.0), (a,), lambda g: (g * mask,))


def dropout(
    a: Tensor, rate: float, rngs: Sequence[np.random.Generator], lengths: Sequence[int],
    rows: Array | None = None,
) -> Tensor:
    """Inverted dropout over blocks of rows, one seeded generator per block.

    Block i is the next ``lengths[i]`` rows and draws its mask from
    ``rngs[i]``, so its mask is the one it would get if dropped on its own.
    With ``rows``, ``a`` holds only those rows of the blocks, in that order:
    every block still draws its whole mask, so each generator advances as
    it would without ``rows``, and ``a`` keeps the mask rows it holds.
    """
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    if len(rngs) != len(lengths) or (sum(lengths) if rows is None else len(rows)) != a.shape[0]:
        raise ContractError(f"dropout: {len(rngs)} generators for row blocks {list(lengths)}")
    if rate == 0.0:
        return a
    draws = np.concatenate([g.random((n, *a.shape[1:])) for g, n in zip(rngs, lengths)])
    if rows is not None:
        draws = draws[rows]
    mask = (draws >= rate) / (1.0 - rate)
    return record_op(a.values * mask, (a,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# matrix operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    return record_op(a.values @ b.values, (a, b), lambda g: (g @ b.values.T, a.values.T @ g))


# ---------------------------------------------------------------------------
# normalization and attention (softmaxes max-shifted for stability)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row to zero mean / unit variance, then scale and shift."""
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


MASK_BIAS = -1e9  # additive stand-in for -inf; keeps arithmetic finite


def segments(lengths: Sequence[int], n_rows: int, what: str) -> tuple[Array, Array, Array]:
    """Check that ``lengths`` tile ``n_rows`` packed rows, each block nonempty.

    Returns (sizes, segment, position): the block lengths as an array, and
    for every packed row its block index and its position inside the block,
    so ``padded[segment, position] = rows`` pads to [B, max(lengths), ...].
    """
    sizes = np.asarray(tiling(lengths, n_rows, what), dtype=np.intp)
    segment = np.repeat(np.arange(sizes.size), sizes)
    position = np.arange(n_rows) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return sizes, segment, position


def tiling(lengths: Sequence[int], n_rows: int, what: str) -> list[int]:
    """``lengths`` as a list, checked to tile ``n_rows`` packed rows in
    nonempty blocks."""
    sizes = list(lengths)
    if not sizes or min(sizes) < 1 or sum(sizes) != n_rows:
        raise ContractError(f"{what}: segment lengths {sizes} do not tile {n_rows} rows")
    return sizes


def segment_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    lengths: Sequence[int],
    heads: int,
    q_lengths: Sequence[int] | None = None,
) -> Tensor:
    """Multi-head scaled dot-product attention within each segment of packed rows.

    ``k`` and ``v`` are [sum(lengths), d]: consecutive blocks of rows, one
    per segment, with head h in columns h*d_k:(h+1)*d_k.  ``q`` is
    [sum(q_lengths), d], its blocks in the same segment order; ``q_lengths``
    defaults to ``lengths``, and a shorter block holds the queries of only
    some of its segment's rows, in any order.  Every query attends only to
    the keys of its own segment, so each segment's output equals
    ``softmax(q kᵀ / sqrt(d_k)) v`` per head over that segment alone.

    One tape record for all segments and heads.  When every block of queries
    and every block of keys has its longest length (one segment, or equal
    lengths) the rows are only reshaped to [B, heads, L, d_k] and no score is
    masked.  Otherwise queries and keys are each padded to their own
    [B, heads, L_max, d_k] inside the op and padded key columns get a
    MASK_BIAS score, so the work is B·heads·Lq_max·Lk_max, not
    sum(q_lengths)·sum(lengths).
    """
    if q.values.ndim != 2 or k.shape != v.shape or k.shape[1:] != q.shape[1:]:
        raise ShapeError(f"segment_attention: shapes {q.shape}, {k.shape}, {v.shape} disagree")
    d = q.shape[1]
    if heads < 1 or d % heads:
        raise ShapeError(f"segment_attention: width {d} is not divisible by {heads} heads")
    sizes = tiling(lengths, k.shape[0], "segment_attention")
    q_sizes = sizes if q_lengths is None else tiling(q_lengths, q.shape[0], "segment_attention")
    if len(q_sizes) != len(sizes):
        raise ContractError(f"segment_attention: query lengths {q_sizes} for {len(sizes)} segments")
    batch, d_k = len(sizes), d // heads
    c = 1.0 / np.sqrt(d_k)

    def layout(blocks: list[int]):  # -> pad, unpad, and whether any block is padded
        n, longest = sum(blocks), max(blocks)
        padded = batch * longest != n  # else pad and unpad are views
        if padded:
            _, segment, position = segments(blocks, n, "segment_attention")

        def pad(a: Array) -> Array:  # [n, d] -> [B, H, L, d_k], padded rows zero
            if padded:
                a, rows = np.zeros((batch, longest, d)), a
                a[segment, position] = rows
            return a.reshape(batch, longest, heads, d_k).transpose(0, 2, 1, 3)

        def unpad(a: Array) -> Array:  # [B, H, L, d_k] -> [n, d]
            a = a.transpose(0, 2, 1, 3)
            return a.reshape(batch, longest, d)[segment, position] if padded else a.reshape(n, d)

        return pad, unpad, padded

    pad_k, unpad_k, keys_padded = layout(sizes)
    pad_q, unpad_q, _ = (pad_k, unpad_k, None) if q_sizes is sizes else layout(q_sizes)
    qp, kp, vp = pad_q(q.values), pad_k(k.values), pad_k(v.values)
    scores = (qp @ kp.swapaxes(-1, -2)) * c
    if keys_padded:
        visible = np.arange(max(sizes)) < np.array(sizes)[:, None]  # [B, L] real key columns
        scores = np.where(visible[:, None, None, :], scores, MASK_BIAS)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)

    def rule(g):
        gp = pad_q(g)
        dp = gp @ vp.swapaxes(-1, -2)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * c
        return (unpad_q(ds @ kp), unpad_k(ds.swapaxes(-1, -2) @ qp),
                unpad_k(p.swapaxes(-1, -2) @ gp))

    return record_op(unpad_q(p @ vp), (q, k, v), rule)


# ---------------------------------------------------------------------------
# reductions


def sum_all(a: Tensor) -> Tensor:
    return record_op(a.values.sum(), (a,), lambda g: (np.full_like(a.values, float(g)),))


def mean_all(a: Tensor) -> Tensor:
    n = a.values.size
    return record_op(a.values.mean(), (a,), lambda g: (np.full_like(a.values, float(g) / n),))


# ---------------------------------------------------------------------------
# indexing, slicing, concatenation


def scatter_rows(rows: int, index: Array, g: Array) -> Array:
    """``np.add.at(zeros((rows, ...)), index, g)`` for a 1-D index from 0 up
    into a vector or the rows of an array, bit for bit: ``np.bincount`` adds each element's terms in the
    same order onto the same 0.0, without ``np.add.at``'s per-element loop."""
    width = math.prod(g.shape[1:])
    cells = index if width == 1 else (index[:, None] * width + np.arange(width)).reshape(-1)
    return np.bincount(cells, g.reshape(-1), rows * width).reshape(rows, *g.shape[1:])


def gather(a: Tensor, index) -> Tensor:
    """``a.values[index]`` for any numpy index: an int, a slice, an index
    array (repeats allowed), a tuple of equal-length index arrays, or None (a
    new leading axis).  A basic index gives a view, as in numpy.

    Backward gives what ``np.add.at`` gives when it scatters the gradient into
    zeros, bit for bit, so repeated entries sum: ``scatter_rows`` for a 1-D
    integer array from 0 up, ``+=`` for a basic index (no entry repeats), and
    ``np.add.at`` for the rest.
    """
    if isinstance(index, (list, range)):
        index = np.asarray(index, dtype=np.intp)
    rows = isinstance(index, np.ndarray) and index.ndim == 1 and index.dtype.kind == "i"

    def rule(g):
        if rows and not (index < 0).any():
            return (scatter_rows(a.shape[0], index, g),)
        da = np.zeros_like(a.values)
        if isinstance(index, (tuple, np.ndarray)):
            np.add.at(da, index, g)
        else:
            da[index] += g
        return (da,)

    return record_op(a.values[index], (a,), rule)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    """Join tensors along an existing axis; backward splits the gradient."""
    if not parts:
        raise ContractError("concat of an empty sequence")
    values = np.concatenate([p.values for p in parts], axis=axis)
    splits = np.cumsum([p.shape[axis] for p in parts])[:-1]
    return record_op(values, parts, lambda g: tuple(np.split(g, splits, axis=axis)))


def range_means(a: Tensor, starts: Sequence[int], stops: Sequence[int]) -> Tensor:
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
        steps = scatter_rows(a.shape[0] + 1, np.concatenate([lo, hi]), np.vstack([share, -share]))
        return (np.cumsum(steps[:-1], axis=0),)

    return record_op(out_values, (a,), rule)


def cross_entropy(logits: Tensor, targets: Sequence[int], weights: Sequence[float]) -> Tensor:
    """Weighted sum of row-wise softmax cross-entropies of an m-by-k logit matrix.

    Returns sum_i weights[i] * (logsumexp(logits[i]) - logits[i, targets[i]])
    as a scalar; the weights are constants.  One tape record.
    """
    if logits.values.ndim != 2 or min(logits.shape) < 1:
        raise ShapeError(f"cross_entropy expects a nonempty matrix, got {logits.shape}")
    m = logits.shape[0]
    t = np.asarray(targets, dtype=np.intp)
    w = np.asarray(weights, dtype=np.float64)
    if t.shape != (m,) or w.shape != (m,):
        raise ShapeError(f"{t.size} targets and {w.size} weights for {m} logit rows")
    x = logits.values
    peak = x.max(axis=1, keepdims=True)
    e = np.exp(x - peak)
    total = e.sum(axis=1, keepdims=True)
    index = np.arange(m)
    ce = (peak + np.log(total)).reshape(-1) - x[index, t]

    def rule(g):
        d = e / total
        d[index, t] -= 1.0
        return (d * (w * g)[:, None],)

    return record_op(w @ ce, (logits,), rule)


def mean_cross_entropy(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Mean softmax cross-entropy of an m-by-k logit matrix against targets."""
    m = logits.shape[0]
    return cross_entropy(logits, targets, np.full(m, 1.0 / max(m, 1)))


# ---------------------------------------------------------------------------
# gradient validation


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Tensor | Iterable[Tensor],
    h: float = 1e-5,
) -> float:
    """Compare autodiff gradients of ``f`` against central differences.

    ``f`` must rebuild its graph on every call and return a scalar tensor;
    it is evaluated 2 times per parameter coordinate, so keep instances
    small.  Returns the max over coordinates of
    ``|fd - ad| / max(1, |fd|, |ad|)``.
    """
    if h <= 0:
        raise ContractError(f"finite_diff_check step must be positive, got {h}")
    tensors = [params] if isinstance(params, Tensor) else list(params)

    def evaluate() -> Tensor:
        reset_tape()
        out = f()
        if not np.isfinite(float(out.values)):
            raise NumericError("finite_diff_check: f evaluated to a non-finite value")
        return out

    for t in tensors:
        t.zero_grad()
    backward(evaluate())
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.values) for t in tensors
    ]
    reset_tape()

    worst = 0.0
    for t, grad in zip(tensors, analytic):
        flat_values = t.values.reshape(-1)
        flat_grad = grad.reshape(-1)
        for i in range(flat_values.size):
            original = flat_values[i]
            flat_values[i] = original + h
            upper = float(evaluate().values)
            flat_values[i] = original - h
            lower = float(evaluate().values)
            flat_values[i] = original
            fd = (upper - lower) / (2.0 * h)
            ad = flat_grad[i]
            err = abs(fd - ad) / max(1.0, abs(fd), abs(ad))
            if err > worst:
                worst = err
    for t, grad in zip(tensors, analytic):
        t.grad = grad
    return worst
