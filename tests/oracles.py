"""Reference ops that tests compare the package against.  The package never
calls them: its CRF runs the fused forward-backward op, its losses the fused
cross-entropy, and its relation head pools entities with ``range_means``."""

import numpy as np

from medext.corpus import EntitySpan
from medext.errors import ContractError, ShapeError
from medext.tensor import Tensor, gather, record_op


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
