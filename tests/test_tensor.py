import copy
import math

import numpy as np
import pytest

from medext import tensor as T
from medext.errors import ContractError, ShapeError
from medext.tensor import Tensor
from oracles import (
    add_rowwise,
    layer_norm,
    logsumexp,
    logsumexp_rows,
    mean0,
    mean_var_layer_norm,
    range_means,
    relu,
    softmax_rows,
)


def setup_function(_):
    T.reset_tape()


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        assert np.array_equal(T.matmul(eye, a).values, a.values)

    def test_scalar_case(self):
        out = T.matmul(Tensor([[1.0]]), Tensor([[3.0]]))
        assert out.values.tolist() == [[3.0]]

    def test_hand_multiplied_2x2(self):
        # [[1,2],[3,4]] @ [[5,6],[7,8]] worked out by hand
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        assert out.values.tolist() == [[19.0, 22.0], [43.0, 50.0]]

    def test_dimension_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_associativity_on_random_chains(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b, c = (Tensor(rng.standard_normal((4, 5))) for _ in range(3))
            b = Tensor(rng.standard_normal((5, 3)))
            c = Tensor(rng.standard_normal((3, 6)))
            left = T.matmul(T.matmul(a, b), c).values
            right = T.matmul(a, T.matmul(b, c)).values
            denom = max(1.0, np.abs(left).max())
            assert np.abs(left - right).max() / denom < 1e-9


class TestSoftmaxRows:
    def test_symmetry(self):
        out = softmax_rows(Tensor([[0.0, 0.0]]))
        assert out.values.tolist() == [[0.5, 0.5]]

    def test_single_element_row(self):
        assert softmax_rows(Tensor([[7.3]])).values.tolist() == [[1.0]]

    def test_large_values_no_overflow(self):
        out = softmax_rows(Tensor([[1000.0, 1000.0, 1000.0]]))
        assert np.allclose(out.values, 1.0 / 3.0)
        assert np.all(np.isfinite(out.values))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = softmax_rows(Tensor(rng.standard_normal((6, 9)) * 10))
        assert np.abs(out.values.sum(axis=1) - 1.0).max() < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 5))
        base = softmax_rows(Tensor(x)).values
        shifted = softmax_rows(Tensor(x + 13.5)).values
        assert np.abs(base - shifted).max() < 1e-9


class TestLogsumexp:
    def test_single_element(self):
        assert logsumexp(Tensor([4.2])).item() == pytest.approx(4.2, abs=1e-15)

    def test_two_zeros_is_ln2(self):
        assert logsumexp(Tensor([0.0, 0.0])).item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_stability_forced(self):
        out = logsumexp(Tensor([1000.0, 1000.0])).item()
        assert math.isfinite(out)
        assert out == pytest.approx(1000.0 + math.log(2.0), abs=1e-9)

    def test_lower_bounded_by_max(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.standard_normal(rng.integers(1, 8)) * 5
            assert logsumexp(Tensor(x)).item() >= x.max()

    def test_all_ties_equal_max_plus_log_count(self):
        out = logsumexp(Tensor([2.5, 2.5, 2.5, 2.5])).item()
        assert out == pytest.approx(2.5 + math.log(4.0), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            logsumexp(Tensor(np.zeros(0)))


def zeros_like(x: Tensor) -> Tensor:
    return Tensor(np.zeros(x.shape))


class TestLayerNorm:
    def test_constant_row_collapses_to_bias(self):
        x = Tensor([[3.0, 3.0, 3.0]])
        out = T.add_norm(x, zeros_like(x), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.abs(out.values).max() < 1e-12

    def test_already_normalized_row(self):
        x = Tensor([[1.0, -1.0]])
        out = T.add_norm(x, zeros_like(x), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        assert np.allclose(out.values, [[1.0, -1.0]], atol=1e-6)

    def test_zero_gain_broadcasts_bias(self):
        x = Tensor(np.random.default_rng(4).standard_normal((3, 4)))
        bias = Tensor([1.0, 2.0, 3.0, 4.0])
        out = T.add_norm(x, zeros_like(x), Tensor(np.zeros(4)), bias)
        assert np.array_equal(out.values, np.tile(bias.values, (3, 1)))

    @pytest.mark.parametrize("rows", [1, 18, 400])
    def test_bitwise_equal_to_mean_var_oracle(self, rows):
        rng = np.random.default_rng(rows)
        values = [rng.standard_normal((rows, 16)), rng.standard_normal((rows, 16)),
                  rng.standard_normal(16), rng.standard_normal(16)]
        weights = Tensor(rng.standard_normal((rows, 16)))
        results = []
        for op in (T.add_norm, lambda x, y, gain, bias: mean_var_layer_norm(T.add(x, y), gain, bias)):
            T.reset_tape()
            x, y, gain, bias = (Tensor(a.copy()) for a in values)
            out = op(x, y, gain, bias)
            T.backward(T.sum_all(T.mul(out, weights)))
            results.append([out.values, x.grad, y.grad, gain.grad, bias.grad])
        for got, want in zip(*results):
            assert np.array_equal(got, want)


# Each fused op and the chain of elementary ops it replaces, with its
# operands' shapes at ``rows`` rows.
FUSED = {
    "affine": (
        T.affine,
        lambda x, w, b: add_rowwise(T.matmul(x, w), b),
        lambda rows: [(rows, 5), (5, 3), (3,)],
    ),
    "add_norm": (
        T.add_norm,
        lambda x, y, gain, bias: layer_norm(T.add(x, y), gain, bias),
        lambda rows: [(rows, 6), (rows, 6), (6,), (6,)],
    ),
    "feed_forward": (
        T.feed_forward,
        lambda x, w1, b1, w2, b2: add_rowwise(
            T.matmul(relu(add_rowwise(T.matmul(x, w1), b1)), w2), b2
        ),
        lambda rows: [(rows, 4), (4, 7), (7,), (7, 4), (4,)],
    ),
}


def output_and_grads(op, values, upstream):
    """``op``'s output and every operand's gradient under ``upstream``."""
    T.reset_tape()
    operands = [Tensor(a.copy()) for a in values]
    out = op(*operands)
    T.backward(T.sum_all(T.mul(out, Tensor(upstream))))
    T.reset_tape()
    return [out.values, *(t.grad for t in operands)]


class TestFusedOps:
    """Each fused op against the chain of ops it replaces, bit for bit: its
    rule returns the chain's gradients, computed in the chain's order."""

    @pytest.mark.parametrize("rows", [1, 2, 13])
    @pytest.mark.parametrize("name", sorted(FUSED))
    def test_bitwise_equal_to_the_chain(self, name, rows):
        fused, chain, shapes = FUSED[name]
        rng = np.random.default_rng(rows)
        for _ in range(5):
            values = [rng.standard_normal(shape) for shape in shapes(rows)]
            upstream = rng.standard_normal(fused(*map(Tensor, values)).shape)
            upstream[rng.random(upstream.shape) < 0.2] = -0.0
            got = output_and_grads(fused, values, upstream)
            want = output_and_grads(chain, values, upstream)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name", sorted(FUSED))
    def test_gradients_match_finite_differences(self, name):
        fused, _, shapes = FUSED[name]
        rng = np.random.default_rng(21)
        operands = [Tensor(rng.standard_normal(shape)) for shape in shapes(3)]
        weights = Tensor(rng.standard_normal(fused(*operands).shape))
        err = T.finite_diff_check(lambda: T.sum_all(T.mul(fused(*operands), weights)), operands)
        assert err < 1e-6

    @pytest.mark.parametrize(
        "name, shapes",
        [
            ("affine", [(2, 5), (4, 3), (3,)]),
            ("affine", [(2, 5), (5, 3), (2,)]),
            ("affine", [(5,), (5, 3), (3,)]),
            ("add_norm", [(2, 6), (3, 6), (6,), (6,)]),
            ("add_norm", [(2, 6), (2, 6), (5,), (6,)]),
            ("add_norm", [(2, 6), (2, 6), (6,), (5,)]),
            ("feed_forward", [(2, 4), (3, 7), (7,), (7, 4), (4,)]),
            ("feed_forward", [(2, 4), (4, 7), (7,), (6, 4), (4,)]),
            ("feed_forward", [(2, 4), (4, 7), (7,), (7, 4), (3,)]),
        ],
    )
    def test_shape_mismatch_names_the_op(self, name, shapes):
        with pytest.raises(ShapeError, match=name):
            getattr(T, name)(*(Tensor(np.zeros(shape)) for shape in shapes))


class TestBackward:
    def test_product_rule_on_scalars(self):
        x = Tensor(3.0)
        y = Tensor(5.0)
        T.backward(T.mul(x, y))
        assert float(x.grad) == 5.0
        assert float(y.grad) == 3.0

    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        T.backward(x.sum())
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_logsumexp_gradient_is_softmax(self):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(5)
        x = Tensor(vals)
        T.backward(logsumexp(x))
        expected = np.exp(vals - vals.max())
        expected /= expected.sum()
        assert np.abs(x.grad - expected).max() < 1e-12
        err = T.finite_diff_check(lambda: logsumexp(x), x)
        assert err < 1e-7

    def test_reuse_sums_contributions(self):
        x = Tensor(2.0)
        T.backward(T.add(T.mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
        assert float(x.grad) == pytest.approx(5.0)

    def test_shared_gradient_is_not_written_through(self):
        # add hands a and b the same gradient array; a's later contribution
        # must land in a new array, leaving b's untouched
        a = Tensor(np.ones(3))
        b = Tensor(np.ones(3))
        c = Tensor(np.array([1.0, 2.0, 3.0]))
        doubled = T.scale(a, 2.0)  # replayed after add(a, b)
        T.backward(T.add(T.mul(T.add(a, b), c).sum(), doubled.sum()))
        assert a.grad is not b.grad
        assert np.array_equal(b.grad, [1.0, 2.0, 3.0])
        assert np.array_equal(a.grad, [3.0, 4.0, 5.0])

    def test_three_uses_sum_three_contributions(self):
        x = Tensor(np.ones(3))
        w1, w2 = Tensor(np.array([1.0, 2.0, 3.0])), Tensor(np.array([4.0, 5.0, 6.0]))
        parts = [T.mul(x, w1).sum(), T.mul(x, w2).sum(), T.scale(x, 3.0).sum()]
        T.backward(T.add(T.add(parts[0], parts[1]), parts[2]))
        assert np.array_equal(x.grad, [8.0, 10.0, 12.0])

    def test_non_scalar_root_rejected(self):
        x = Tensor(np.zeros(3))
        with pytest.raises(ContractError):
            T.backward(x)

    def test_grad_accumulates_across_calls(self):
        x = Tensor(4.0)
        T.backward(T.mul(x, x))
        T.reset_tape()
        T.backward(T.mul(x, x))
        assert float(x.grad) == pytest.approx(16.0)


class TestTape:
    def test_records_are_topologically_ordered(self):
        T.reset_tape()
        x = Tensor(np.ones((2, 2)))
        y = T.matmul(x, x)
        z = y.sum()
        records = T.active_tape().records
        seen = {id(x)}
        for out, inputs, _ in records:
            for inp in inputs:
                assert id(inp) in seen
            seen.add(id(out))
        assert records[-1][0] is z


class TestNoGrad:
    def test_nothing_recorded_inside(self):
        T.reset_tape()
        x = Tensor(np.ones((2, 2)))
        with T.no_grad():
            T.matmul(x, x).sum()
        assert not T.active_tape().records
        T.matmul(x, x)
        assert len(T.active_tape().records) == 1

    def test_restored_after_exception_and_nesting(self):
        T.reset_tape()
        x = Tensor(np.ones(2))
        with pytest.raises(ShapeError):
            with T.no_grad():
                with T.no_grad():
                    pass
                T.add(x, Tensor(np.ones(3)))
        T.add(x, x)
        assert len(T.active_tape().records) == 1


class TestDeepCopy:
    def test_copies_values_and_drops_the_gradient(self):
        x = Tensor(np.arange(4.0).reshape(2, 2))
        x.grad = np.ones((2, 2))
        y = copy.deepcopy(x)
        assert y.grad is None
        assert np.array_equal(y.values, x.values) and not np.shares_memory(y.values, x.values)
        view = Tensor(np.broadcast_to(0.0, (2, 3)))  # a shapes_only skeleton's values
        assert copy.deepcopy(view).values.flags.writeable


class TestCrossEntropy:
    def test_weighted_value(self):
        logits = Tensor([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        w = [0.5, 1.0, 2.0]
        expected = sum(
            wi * (math.log(math.exp(row[0]) + math.exp(row[1])) - row[t])
            for wi, row, t in zip(w, logits.values.tolist(), [0, 1, 1])
        )
        assert T.cross_entropy(logits, [0, 1, 1], w).item() == pytest.approx(expected, rel=1e-14)

    def test_mean_is_uniform_weights(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.standard_normal((4, 3)))
        picked = T.gather(logits, (np.arange(4), np.array([0, 2, 1, 1])))
        ce = T.sub(logsumexp_rows(logits), picked)
        assert T.mean_cross_entropy(logits, [0, 2, 1, 1]).item() == pytest.approx(
            ce.values.mean(), rel=1e-14
        )

    def test_gradient(self):
        rng = np.random.default_rng(6)
        logits = Tensor(rng.standard_normal((5, 3)))
        w = rng.random(5)
        err = T.finite_diff_check(lambda: T.cross_entropy(logits, [0, 1, 2, 2, 0], w), logits)
        assert err < 1e-6

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            T.cross_entropy(Tensor(np.zeros((2, 3))), [0], [1.0, 1.0])
        with pytest.raises(ShapeError):
            T.cross_entropy(Tensor(np.zeros((0, 3))), [], [])


class TestRangeMeans:
    def test_values(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.standard_normal((6, 3)))
        starts, stops = [0, 2, 5, 1], [2, 6, 6, 4]
        got = range_means(a, starts, stops).values
        for row, (lo, hi) in enumerate(zip(starts, stops)):
            expected = a.values[lo:hi].mean(axis=0)
            np.testing.assert_allclose(got[row], expected, rtol=1e-12, atol=1e-14)

    def test_gradient_with_overlapping_ranges(self):
        rng = np.random.default_rng(8)
        a = Tensor(rng.standard_normal((5, 2)))
        w = Tensor(rng.standard_normal((4, 2)))
        assert T.finite_diff_check(
            lambda: T.mul(range_means(a, [0, 1, 1, 4], [3, 2, 5, 5]), w).sum(), a
        ) < 1e-6

    def test_range_checks(self):
        a = Tensor(np.zeros((3, 2)))
        for starts, stops in (([0], [4]), ([1], [1]), ([-1], [2])):
            with pytest.raises(ContractError):
                range_means(a, starts, stops)


class TestFiniteDiffCheck:
    def test_sum_of_squares_against_analytic(self):
        p = Tensor([1.0, 2.0, 3.0])
        err = T.finite_diff_check(lambda: T.mul(p, p).sum(), p)
        assert err < 1e-7
        assert np.abs(p.grad - 2 * p.values).max() < 1e-9  # grad of sum p_i^2 is 2p

    def test_constant_function(self):
        p = Tensor([1.0, 2.0])
        err = T.finite_diff_check(lambda: Tensor(7.0), p)
        assert err < 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_random_composed_graphs(self, seed):
        rng = np.random.default_rng(seed)
        m, n, k = rng.integers(2, 5, size=3)
        a = Tensor(rng.standard_normal((m, n)))
        w = Tensor(rng.standard_normal((n, k)))
        v = Tensor(rng.standard_normal(k))
        gain = Tensor(rng.standard_normal(k))
        bias = Tensor(rng.standard_normal(k))

        def f():
            h = T.add_norm(relu(T.affine(a, w, v)), T.affine(a, w, v), gain, bias)
            p = softmax_rows(h)
            pooled = mean0(T.mul(p, h))
            return T.add(logsumexp_rows(h).sum(), logsumexp(pooled))

        err = T.finite_diff_check(f, [a, w, v, gain, bias])
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(4))
    def test_indexing_and_concat_graphs(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = Tensor(rng.standard_normal((5, 3)))
        b = Tensor(rng.standard_normal((5, 2)))

        def f():
            g = T.gather(a, [0, 2, 2, 4])
            joint = T.concat([T.gather(a, slice(0, 5)), b], axis=1)
            s = range_means(joint, [0, 1, 2], [2, 5, 3])
            picked = T.gather(s, (np.array([0, 1, 2]), np.array([0, 2, 4])))
            pooled = mean0(range_means(g, [0, 1], [3, 4]))
            joined = T.concat(
                [T.gather(picked, None), T.gather(pooled, None), T.gather(T.gather(b, 1), None)],
                axis=1,
            )
            return T.matmul(joined, Tensor(np.ones((joined.shape[1], 1)))).sum()

        err = T.finite_diff_check(f, [a, b])
        assert err < 1e-4

    @pytest.mark.parametrize(
        "index",
        [2, slice(1, 4), np.array([0, 3, 3, 1]), (np.array([0, 2, 2]), np.array([1, 0, 1])), None],
        ids=["int", "slice", "repeats", "pairs", "none"],
    )
    def test_gather_index_forms(self, index):
        rng = np.random.default_rng(7)
        a = Tensor(rng.standard_normal((5, 3)))
        got = T.gather(a, index)
        assert np.array_equal(got.values, a.values[index])
        w = Tensor(rng.standard_normal(got.shape))
        assert T.finite_diff_check(lambda: T.mul(T.gather(a, index), w).sum(), a) < 1e-4

    @pytest.mark.parametrize("axis", [0, 1])
    def test_concat_axes(self, axis):
        rng = np.random.default_rng(9)
        shapes = [(2, 3), (4, 3)] if axis == 0 else [(2, 3), (2, 1)]
        parts = [Tensor(rng.standard_normal(shape)) for shape in shapes]
        got = T.concat(parts, axis=axis)
        assert np.array_equal(got.values, np.concatenate([p.values for p in parts], axis=axis))
        w = Tensor(rng.standard_normal(got.shape))
        err = T.finite_diff_check(lambda: T.mul(T.concat(parts, axis=axis), w).sum(), parts)
        assert err < 1e-4

    def test_stack_and_take1d_graph(self):
        rng = np.random.default_rng(42)
        u = Tensor(rng.standard_normal(4))
        v = Tensor(rng.standard_normal(4))

        def f():
            m = T.concat([T.gather(x, None) for x in (u, v, T.add(u, v))], axis=0)
            picked = T.gather(logsumexp_rows(m), [0, 2, 2])
            return picked.mean()

        assert T.finite_diff_check(f, [u, v]) < 1e-4


class TestGatherBackward:
    """gather's backward against the ``np.add.at`` scatter it replaced, bit for
    bit (tolerance 0, the sign of zero included): one ``scatter``, a
    ``np.bincount`` over the cell numbers the index selects, for every kind
    of numpy index."""

    @pytest.mark.parametrize(
        "shape, index",
        [
            ((7, 3), slice(1, 5)),
            ((7, 3), 2),
            ((7, 3), None),
            ((7, 3), []),  # bincount of nothing
            ((7, 3), [0, 2, 5]),  # rising rows: bincount
            ((7, 3), [5, 2, 0]),  # distinct, not rising: bincount
            ((7, 3), [1, 1, 4, 1, 0, 6, 6]),  # repeated rows: bincount
            ((7,), [0, 3, 6]),  # rising entries of a vector: bincount
            ((7,), [3, 3, 0, 3, 6]),  # repeated entries of a vector: bincount
            ((7, 3), [-1, 0, 6]),  # negative
            ((7, 3), (np.arange(4), np.array([0, 2, 1, 1]))),  # a tuple
            ((7, 3), (np.array([1, 1, 2, 1]), np.array([0, 0, 2, 0]))),  # repeated cells of a tuple
            ((7, 3), np.array([True, False, True, True, False, False, True])),  # a row mask
            ((7, 3), np.arange(21).reshape(7, 3) % 4 == 1),  # a mask of cells
            ((7, 3), np.array([[0, 6, 6], [-1, 2, 0]])),  # a 2-D integer array
            ((7, 3), (np.array([-1, 0, -1, 6]), np.array([-3, 2, 0, -1]))),  # a negative tuple
            ((7, 3), np.int64(4)),  # a NumPy integer scalar
            ((7,), np.intp(-2)),  # a NumPy integer scalar into a vector
        ],
    )
    def test_equals_add_at_bitwise(self, shape, index):
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal(shape))
        T.reset_tape()
        out = T.gather(a, index)
        g = rng.standard_normal(out.shape)
        g[rng.random(out.shape) < 0.3] = -0.0
        T.backward(T.mul(out, Tensor(g)).sum())
        T.reset_tape()
        expected = np.zeros(shape)
        np.add.at(expected, np.asarray(index, np.intp) if isinstance(index, list) else index, g)
        assert a.grad.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("index", [[], slice(3, 3), np.zeros(7, dtype=bool)])
    def test_empty_index_gives_float_zeros(self, index):
        """``np.bincount`` of no cells gives integer zeros; scatter's are float64."""
        a = Tensor(np.ones((7, 3)))
        T.reset_tape()
        T.backward(T.gather(a, index).sum())
        T.reset_tape()
        assert a.grad.dtype == np.float64 and a.grad.tobytes() == np.zeros((7, 3)).tobytes()

    def test_random_row_gathers_equal_add_at_bitwise(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            rows, n = int(rng.integers(1, 40)), int(rng.integers(0, 120))
            shape = (rows, 4) if rng.random() < 0.5 else (rows,)
            a = Tensor(rng.standard_normal(shape))
            index = rng.integers(0, rows, n)
            if rng.random() < 0.3:
                index = np.unique(index)
            T.reset_tape()
            out = T.gather(a, index)
            g = rng.standard_normal(out.shape) * 10.0 ** rng.integers(-8, 8, out.shape)
            T.backward(T.mul(out, Tensor(g)).sum())
            T.reset_tape()
            expected = np.zeros(a.shape)
            np.add.at(expected, index, g)
            assert a.grad.tobytes() == expected.tobytes()

    def test_range_means_scatter_equals_add_at_bitwise(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.standard_normal((9, 3)))
        starts, stops = [0, 2, 2, 5, 0], [3, 4, 9, 6, 1]
        T.reset_tape()
        out = range_means(a, starts, stops)
        g = rng.standard_normal(out.shape)
        T.backward(T.mul(out, Tensor(g)).sum())
        T.reset_tape()
        share = g * (1.0 / (np.array(stops) - np.array(starts)))[:, None]
        steps = np.zeros((10, 3))
        np.add.at(steps, starts, share)
        np.add.at(steps, stops, -share)
        assert a.grad.tobytes() == np.cumsum(steps[:-1], axis=0).tobytes()
