"""Dense float64 tensors with reverse-mode automatic differentiation.

A single module-level tape records every differentiable operation in
execution order (which is already a topological order).  ``backward`` seeds
the root gradient and replays the tape in reverse, accumulating gradients by
summation so that multiple uses of one tensor add their contributions.
Every op builds its output with ``record_op``; ``affine``, ``add_norm`` and
``feed_forward`` each stand for a chain of ops, and their rules return the
chain's gradients bit for bit, in its order.  ``pooled_affine`` stands for
range means, a concatenation and an affine map, but sums its partial dot
products in another order, so it matches that chain closely, not bitwise.
No code writes a gradient in place, so the backward pass stores gradient
arrays as the rules return them, shared or not.
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
    appended in execution order, so the list is topologically sorted and
    ``backward``'s reverse replay visits every node exactly once.
    """

    __slots__ = ("records", "recording")

    def __init__(self):
        self.records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self.recording = True


_TAPE = Tape()


def active_tape() -> Tape:
    return _TAPE


def reset_tape() -> None:
    _TAPE.records.clear()


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
    """Accumulate d(root)/d(leaf) into every reachable tensor's grad slot by
    replaying the tape in reverse.  A tensor's first gradient is stored as the
    rule returned it and each later one is added into a new array, which is
    safe because no gradient is written in place.

    ``root`` must be a scalar.  Intended to run once per tape; call
    ``reset_tape`` before building the next graph.
    """
    if root.values.shape != ():
        raise ContractError(f"backward requires a scalar root, got shape {root.shape}")
    root.grad = np.ones_like(root.values)
    for out, inputs, rule in reversed(_TAPE.records):
        if out.grad is None:
            continue
        for tensor, grad in zip(inputs, rule(out.grad)):
            if grad is not None:
                tensor.grad = grad if tensor.grad is None else tensor.grad + grad


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


def _affine(op: str, x: Array, w: Array, b: Array) -> Array:
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"{op}: incompatible shapes {x.shape} x {w.shape} + {b.shape}")
    out = x @ w
    out += b
    return out


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b``, ``b`` added to every row: a matmul and a row-wise add."""
    out = _affine("affine", x.values, w.values, b.values)
    return record_op(out, (x, w, b), lambda g: (g @ w.values.T, x.values.T @ g, g.sum(axis=0)))


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """The position-wise feed-forward block ``relu(x @ w1 + b1) @ w2 + b2``."""
    pre = _affine("feed_forward", x.values, w1.values, b1.values)
    mask, hidden = pre > 0, np.maximum(pre, 0.0)

    def rule(g):  # the affine, relu, affine chain's rules, last first
        d = (g @ w2.values.T) * mask
        return d @ w1.values.T, x.values.T @ d, d.sum(axis=0), hidden.T @ g, g.sum(axis=0)

    out = _affine("feed_forward", hidden, w2.values, b2.values)
    return record_op(out, (x, w1, b1, w2, b2), rule)


# ---------------------------------------------------------------------------
# normalization and attention (softmaxes max-shifted for stability)


LAYER_NORM_EPS = 1e-5


def add_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Add & Norm: ``x + y`` with rows normalized, then scaled and shifted."""
    if x.values.ndim != 2 or y.shape != x.shape or {gain.shape, bias.shape} != {x.shape[1:]}:
        raise ShapeError(f"add_norm: shapes {x.shape}, {y.shape}, {gain.shape}, {bias.shape}")
    # np.mean / np.var's arithmetic without their wrappers, centering once
    s = x.values + y.values
    n, add = s.shape[1], np.add.reduce
    centered = s - add(s, axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(add(centered * centered, axis=1, keepdims=True) / n + LAYER_NORM_EPS)
    xhat = centered * inv

    def rule(g):
        dxhat = g * gain.values
        dx = inv * (
            dxhat
            - add(dxhat, axis=1, keepdims=True) / n
            - xhat * (add(dxhat * xhat, axis=1, keepdims=True) / n)
        )
        return dx, dx, add(g * xhat, axis=0), add(g, axis=0)

    return record_op(xhat * gain.values + bias.values, (x, y, gain, bias), rule)


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


def scatter(shape: tuple[int, ...], index, g: Array) -> Array:
    """``g`` summed into zeros of ``shape`` at any numpy ``index``, each cell's terms
    onto 0.0 in index order: one ``np.bincount`` over the cells ``index`` picks."""
    size = math.prod(shape)
    cells = np.arange(size).reshape(shape)[index].reshape(-1)
    return np.bincount(cells, g.reshape(-1), size).reshape(shape).astype(float, copy=False)


def gather(a: Tensor, index) -> Tensor:
    """``a.values[index]`` for any numpy index: an int, a slice, None, an index
    array or list (repeats and negative entries allowed), a boolean mask, or a
    tuple of them; a basic index gives a view.  Backward is one ``scatter``."""
    if isinstance(index, (list, range)):
        index = np.asarray(index, dtype=np.intp)
    return record_op(a.values[index], (a,), lambda g: (scatter(a.shape, index, g),))


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    """Join tensors along an existing axis; backward splits the gradient."""
    if not parts:
        raise ContractError("concat of an empty sequence")
    values = np.concatenate([p.values for p in parts], axis=axis)
    splits = np.cumsum([p.shape[axis] for p in parts])[:-1]
    return record_op(values, parts, lambda g: tuple(np.split(g, splits, axis=axis)))


def pooled_affine(
    parts: Sequence[tuple[Tensor, Sequence[int], Sequence[int]]], w: Tensor, b: Tensor
) -> Tensor:
    """``concat([pooled(x, starts, stops) for each part], axis=1) @ w + b`` -> [R, C],
    where row r of a part's pooled block is the mean of rows starts[r]:stops[r]
    of its matrix x.  One tape record; the pooled [R, sum of widths] matrix is
    never built.

    Part k owns the next ``x.shape[1]`` rows of ``w`` and projects x onto them
    once ([n, C]); every range then takes its mean of that projection in C
    columns, as a difference of prefix sums times 1 / width, or as a row
    gather when every range of the part is one row.  The partial dot products
    are summed in another order than the chain's, so the two are close, not
    bitwise equal.
    """
    ranges = [(np.asarray(lo, dtype=np.intp), np.asarray(hi, dtype=np.intp)) for _, lo, hi in parts]
    shapes = [(x.shape, lo.shape, hi.shape) for (x, _, _), (lo, hi) in zip(parts, ranges)]
    if (
        not parts or w.values.ndim != 2 or b.shape != w.shape[1:]
        or any(len(xs) != 2 or len(lo) != 1 or {lo, hi} != {shapes[0][1]} for xs, lo, hi in shapes)
        or sum(xs[1] for xs, _, _ in shapes) != w.shape[0]
    ):
        raise ShapeError(f"pooled_affine: parts (x, starts, stops) of shapes {shapes} "
                         f"for w {w.shape} and b {b.shape}")
    out, plans, at = b.values, [], 0
    for (x, _, _), (lo, hi) in zip(parts, ranges):
        n, rows, width = x.shape[0], slice(at, at + x.shape[1]), hi - lo
        at = rows.stop
        if lo.size and (lo.min() < 0 or width.min() < 1 or hi.max() > n):
            raise ContractError(f"pooled_affine: empty or out-of-range row range for {n} rows")
        proj = x.values @ w.values[rows]
        inverse = None if (width == 1).all() else 1.0 / width
        if inverse is None:  # ``take`` gathers rows several times faster than ``proj[lo]``
            out = out + proj.take(lo, axis=0)
        else:
            prefix = np.zeros((n + 1, proj.shape[1]))
            np.cumsum(proj, axis=0, out=prefix[1:])
            out = out + (prefix.take(hi, axis=0) - prefix.take(lo, axis=0)) * inverse[:, None]
        plans.append((x, rows, lo, hi, inverse))
    sources = {id(x): x for x, _, _ in parts}

    def rule(g):
        dx = dict.fromkeys(sources, 0.0)
        dw = np.empty_like(w.values)
        for x, rows, lo, hi, inverse in plans:
            if inverse is None:
                dproj = scatter((x.shape[0], g.shape[1]), lo, g)
            else:  # +share at each start, -share at each stop, summed down the rows
                share = g * inverse[:, None]
                steps = scatter((x.shape[0] + 1, g.shape[1]), np.concatenate([lo, hi]),
                                np.vstack([share, -share]))
                dproj = np.cumsum(steps[:-1], axis=0)
            dw[rows] = x.values.T @ dproj
            dx[id(x)] = dx[id(x)] + dproj @ w.values[rows].T
        return (*dx.values(), dw, g.sum(axis=0))

    return record_op(out, (*sources.values(), w, b), rule)


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
