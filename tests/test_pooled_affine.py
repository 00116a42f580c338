"""``tensor.pooled_affine`` and the two heads that score through it, held to
the chain it replaced: gathers and ``range_means`` of the rows, one
``concat`` and one ``affine`` (``oracles.concat_pooled_affine``,
``concat_score_all_spans`` and ``concat_pair_logits``).

The op sums its partial dot products in another order than the chain, so the
two agree closely, not bitwise.  The bound is 1e-12 relative: the largest
difference of a value or gradient over the largest magnitude of the chain's.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medext import tensor as T
from medext.corpus import EntitySpan
from medext.errors import ContractError, ShapeError
from medext.relation_head import init_relation, pair_logits, span_pairs
from medext.span_head import init_span, score_all_spans
from medext.tensor import Tensor
from oracles import concat_pair_logits, concat_pooled_affine, concat_score_all_spans

RTOL = 1e-12
D = 5  # width of the random word rows


def setup_function(_):
    T.reset_tape()


def assert_close(new, old):
    for a, b in zip(new, old, strict=True):
        assert a.shape == b.shape
        assert np.abs(a - b).max(initial=0.0) <= RTOL * np.abs(b).max(initial=0.0)


def values_and_grads(make, tensors, seed):
    """The output of ``make()`` and the gradient of each tensor under a random
    upstream gradient (zeros for a tensor that gets none)."""
    T.reset_tape()
    for t in tensors:
        t.zero_grad()
    out = make()
    upstream = Tensor(np.random.default_rng(seed).standard_normal(out.shape))
    T.backward(T.mul(out, upstream).sum())
    T.reset_tape()
    grads = [np.zeros_like(t.values) if t.grad is None else t.grad for t in tensors]
    return [out.values, *grads]


def spans_in(n):
    """0 to 5 spans of an n-word sentence, any widths, overlaps allowed."""
    span = st.integers(0, n - 1).flatmap(
        lambda start: st.integers(start, n - 1).map(lambda end: EntitySpan(start, end, "A"))
    )
    return st.lists(span, max_size=5)


# A ragged packed batch: 1-6 sentences of 1-14 words, a width cap, each
# sentence's spans, and a seed for the rows, the parameters and the upstream.
BATCHES = st.lists(st.integers(1, 14), min_size=1, max_size=6).flatmap(
    lambda lengths: st.tuples(
        st.just(lengths),
        st.integers(1, 8),
        st.tuples(*(spans_in(n) for n in lengths)),
        st.integers(0, 2**16),
    )
)


def batch_examples(test):
    """Wide spans and one-word ranges in one sentence; a one-word sentence;
    sentences with fewer than two spans next to one with three."""
    cases = [
        ([9], 8, ([EntitySpan(0, 0, "A"), EntitySpan(2, 6, "A"), EntitySpan(7, 8, "A")],), 1),
        ([1], 1, ([EntitySpan(0, 0, "A")],), 2),
        ([3, 14, 2], 4, ([], [EntitySpan(0, 13, "A"), EntitySpan(4, 4, "A"),
                              EntitySpan(3, 9, "A")], [EntitySpan(1, 1, "A")]), 3),
    ]
    for case in cases:
        test = example(batch=case)(test)
    return test


def packed_rows(lengths, seed):
    return Tensor(np.random.default_rng(seed).standard_normal((sum(lengths), D)))


@settings(max_examples=80, deadline=None)
@batch_examples
@given(batch=BATCHES)
def test_span_scores_match_the_concatenating_chain(batch):
    lengths, max_width, _, seed = batch
    h = packed_rows(lengths, seed)
    head = init_span(D, ["A", "B", "C"], seed, max_width=max_width, d_w=3)
    head.b_cls.values[:] = np.random.default_rng(seed + 1).standard_normal(4)
    tensors = [h, head.width_emb, head.w_cls, head.b_cls]
    new = values_and_grads(lambda: score_all_spans(h, head, lengths).logits, tensors, seed)
    old = values_and_grads(lambda: concat_score_all_spans(h, head, lengths).logits, tensors, seed)
    assert_close(new, old)


@settings(max_examples=80, deadline=None)
@batch_examples
@given(batch=BATCHES)
def test_pair_scores_match_the_concatenating_chain(batch):
    lengths, _, groups, seed = batch
    h = packed_rows(lengths, seed)
    params = init_relation(D, seed)
    params.b.values[:] = np.random.default_rng(seed + 1).standard_normal(params.b.shape)
    pairs = span_pairs(h, list(groups), lengths)
    if pairs is None:
        assert all(len(spans) < 2 for spans in groups)
        return
    heads, tails, _ = pairs
    tensors = [h, params.w, params.b]
    new = values_and_grads(lambda: pair_logits(h, heads, tails, params), tensors, seed)
    old = values_and_grads(lambda: concat_pair_logits(h, heads, tails, params), tensors, seed)
    assert_close(new, old)


@settings(max_examples=80, deadline=None)
@batch_examples
@given(batch=BATCHES)
def test_op_matches_the_concatenating_chain(batch):
    """One matrix in three parts (the spans, each span's last row, one
    ragged row gather) and a second matrix gathered by row."""
    lengths, max_width, groups, seed = batch
    rng = np.random.default_rng(seed)
    h = packed_rows(lengths, seed)
    table = Tensor(rng.standard_normal((max_width, 2)))
    offsets = np.cumsum([0, *lengths])
    starts = [offsets[b] + s.start for b, spans in enumerate(groups) for s in spans] or [0]
    stops = [offsets[b] + s.end + 1 for b, spans in enumerate(groups) for s in spans] or [1]
    rows = rng.integers(0, h.shape[0], len(starts))
    cells = rng.integers(0, max_width, len(starts))
    parts = [(h, starts, stops), (h, np.subtract(stops, 1), stops), (table, cells, cells + 1),
             (h, rows, rows + 1)]
    w = Tensor(rng.standard_normal((3 * D + 2, 3)))
    b = Tensor(rng.standard_normal(3))
    tensors = [h, table, w, b]
    new = values_and_grads(lambda: T.pooled_affine(parts, w, b), tensors, seed)
    old = values_and_grads(lambda: concat_pooled_affine(parts, w, b), tensors, seed)
    assert_close(new, old)


def test_finite_differences():
    """The op's gradients against central differences (the 1e-4 contract),
    and its value against the chain's."""
    rng = np.random.default_rng(4)
    h = Tensor(rng.standard_normal((6, 3)))
    table = Tensor(rng.standard_normal((4, 2)))
    w = Tensor(rng.standard_normal((8, 3)))
    b = Tensor(rng.standard_normal(3))
    upstream = Tensor(rng.standard_normal((5, 3)))
    parts = [
        (h, [0, 1, 3, 5, 2], [3, 2, 6, 6, 5]),
        (table, [3, 0, 0, 2, 1], [4, 1, 1, 3, 2]),
        (h, [2, 0, 4, 4, 1], [3, 1, 5, 5, 2]),
    ]
    assert T.finite_diff_check(
        lambda: T.mul(T.pooled_affine(parts, w, b), upstream).sum(), [h, table, w, b]
    ) < 1e-4
    assert_close([T.pooled_affine(parts, w, b).values],
                 [concat_pooled_affine(parts, w, b).values])


@pytest.mark.parametrize("starts, stops", [([0], [7]), ([2], [2]), ([3], [1]), ([-1], [2])])
def test_range_checks(starts, stops):
    h = Tensor(np.zeros((6, 2)))
    with pytest.raises(ContractError, match="empty or out-of-range row range for 6 rows"):
        T.pooled_affine([(h, [0], [1]), (h, starts, stops)], Tensor(np.zeros((4, 3))),
                        Tensor(np.zeros(3)))


@pytest.mark.parametrize("parts, w_rows, b_shape", [
    ([], 2, (3,)),                                              # no parts
    ([(np.zeros((4, 2)), [0], [1])], 3, (3,)),                  # w rows are not the widths
    ([(np.zeros((4, 2)), [0], [1])], 2, (2,)),                  # b is not one row of w
    ([(np.zeros((4, 2)), [0], [1]), (np.zeros((4, 2)), [0, 1], [1, 2])], 4, (3,)),  # counts
    ([(np.zeros((4, 2)), [[0]], [[1]])], 2, (3,)),              # ranges are not a list
    ([(np.zeros(4), [0], [1])], 1, (3,)),                       # a part is not a matrix
])
def test_shape_checks(parts, w_rows, b_shape):
    parts = [(Tensor(x), lo, hi) for x, lo, hi in parts]
    with pytest.raises(ShapeError, match="pooled_affine"):
        T.pooled_affine(parts, Tensor(np.zeros((w_rows, 3))), Tensor(np.zeros(b_shape)))
