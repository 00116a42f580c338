import itertools
import math

import numpy as np
import pytest

from medext import tensor as T
from medext.crf_head import (
    crf_nll,
    emissions,
    init_crf,
    log_partition_batch,
    sequence_score,
    viterbi,
)
from medext.errors import ContractError, ShapeError
from medext.tensor import Tensor
import oracles
from oracles import brute_force_oracle, logsumexp


def setup_function(_):
    T.reset_tape()


def random_instance(rng, n=None, k=None):
    n = n or int(rng.integers(1, 7))
    k = k or int(rng.integers(1, 5))
    make = lambda *shape: Tensor(rng.standard_normal(shape))
    return make(n, k), make(k, k), make(k), make(k)


def enumerate_scores(e, trans, start, stop):
    n, k = e.shape
    ev, tv, sv, pv = e.values, trans.values, start.values, stop.values
    out = {}
    for seq in itertools.product(range(k), repeat=n):
        score = sv[seq[0]] + pv[seq[-1]] + sum(ev[i, t] for i, t in enumerate(seq))
        score += sum(tv[a, b] for a, b in zip(seq, seq[1:]))
        out[seq] = score
    return out


def brute_marginals(e, trans, start, stop):
    scores = enumerate_scores(e, trans, start, stop)
    arr = np.array(list(scores.values()))
    m = arr.max()
    log_z = m + np.log(np.exp(arr - m).sum())
    n, k = e.shape
    marginals = np.zeros((n, k))
    for seq, score in scores.items():
        p = math.exp(score - log_z)
        for i, t in enumerate(seq):
            marginals[i, t] += p
    return marginals


class TestEmissions:
    def test_zero_weights_broadcast_bias(self):
        params = init_crf(4, 3, seed=0)
        params.w_emit.values[:] = 0.0
        params.b_emit.values[:] = [1.0, 2.0, 3.0]
        e = emissions(Tensor(np.random.default_rng(0).standard_normal((5, 4))), params)
        assert np.array_equal(e.values, np.tile([1.0, 2.0, 3.0], (5, 1)))

    def test_hand_case_n1_k2(self):
        params = init_crf(2, 2, seed=0)
        params.w_emit.values[:] = [[1.0, 2.0], [3.0, 4.0]]
        params.b_emit.values[:] = [0.5, -0.5]
        e = emissions(Tensor([[2.0, 1.0]]), params)
        # [2,1] @ [[1,2],[3,4]] + [0.5,-0.5] = [5.5, 7.5]
        assert e.values.tolist() == [[5.5, 7.5]]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            emissions(Tensor(np.zeros((2, 3))), init_crf(4, 2, seed=0))

    def test_gradient(self):
        params = init_crf(3, 2, seed=1)
        h = Tensor(np.random.default_rng(1).standard_normal((2, 3)))
        err = T.finite_diff_check(
            lambda: emissions(h, params).sum(), [h, params.w_emit, params.b_emit]
        )
        assert err < 1e-7


class TestSequenceScore:
    def test_all_zero_params(self):
        zeros = lambda *shape: Tensor(np.zeros(shape))
        score = sequence_score(zeros(3, 2), zeros(2, 2), zeros(2), zeros(2), [0, 1, 0])
        assert score.item() == 0.0

    def test_single_position(self):
        e = Tensor([[1.0, 2.0]])
        start, stop = Tensor([0.5, 0.25]), Tensor([0.125, 4.0])
        score = sequence_score(e, Tensor(np.zeros((2, 2))), start, stop, [1])
        assert score.item() == pytest.approx(2.0 + 0.25 + 4.0)

    def test_hand_summed_n2_k2(self):
        e = Tensor([[1.0, 2.0], [3.0, 4.0]])
        trans = Tensor([[5.0, 6.0], [7.0, 8.0]])
        start, stop = Tensor([0.5, 1.0]), Tensor([0.25, 0.75])
        # start[0] + e[0,0] + trans[0,1] + e[1,1] + stop[1] = 0.5+1+6+4+0.75
        score = sequence_score(e, trans, start, stop, [0, 1])
        assert score.item() == pytest.approx(12.25)


class TestOneRecordSequenceScore:
    """The one-record ``sequence_score`` against the same score built from
    gathers, sums and adds (``oracles.sequence_score``): the same bits in the
    value and in every gradient, with a None gradient taken as zeros."""

    @staticmethod
    def value_and_grads(score_of, params, y, lengths, upstream, with_partition):
        T.reset_tape()
        e, trans, start, stop = (Tensor(p.copy()) for p in params)
        out = T.scale(score_of(e, trans, start, stop, y, lengths), upstream)
        if with_partition:  # crf_nll's composition: the partition's grads add to the score's
            sizes = [e.shape[0]] if lengths is None else lengths
            out = T.sub(log_partition_batch(e, sizes, trans, start, stop).sum(), out)
        T.backward(out)
        leaves = (e, trans, start, stop)
        grads = [np.zeros_like(t.values) if t.grad is None else t.grad for t in leaves]
        return [a.tobytes() for a in (out.values, *grads)]

    def cases(self):
        rng = np.random.default_rng(35)
        yield 3, [0, 2, 1], [1, 1, 1]  # one-position sentences: no inner transitions
        yield 2, [1] * 7, [7]  # one transition, repeated
        yield 4, [3], None  # one position, one-sentence form
        yield 2, [0, 1, 1, 0, 0], None
        for _ in range(150):
            k = int(rng.integers(2, 10))
            lengths = [int(n) for n in rng.integers(1, 8, size=int(rng.integers(1, 6)))]
            y = [int(t) for t in rng.integers(k, size=sum(lengths))]
            yield k, y, None if len(lengths) == 1 and rng.random() < 0.5 else lengths

    @pytest.mark.parametrize("with_partition", [False, True])
    def test_bitwise_equal_to_gather_composition(self, with_partition):
        rng = np.random.default_rng(36)
        for k, y, lengths in self.cases():
            params = [rng.standard_normal(shape) for shape in ((len(y), k), (k, k), (k,), (k,))]
            upstream = float(rng.standard_normal())
            got, want = (
                self.value_and_grads(f, params, y, lengths, upstream, with_partition)
                for f in (sequence_score, oracles.sequence_score)
            )
            assert got == want, (k, y, lengths)

    def test_one_tape_record(self):
        rng = np.random.default_rng(37)
        e, trans, start, stop = ragged_batch(rng, [3, 1], 3)
        T.reset_tape()
        sequence_score(e, trans, start, stop, [0, 1, 1, 2], [3, 1])
        assert len(T.active_tape().records) == 1


class TestLogPartition:
    def test_single_position_reduces_to_logsumexp(self):
        e = Tensor([[1.5, -0.5]])
        zeros = Tensor(np.zeros(2))
        z = log_partition_batch(e, [1], Tensor(np.zeros((2, 2))), zeros, zeros).sum()
        expected = logsumexp(Tensor([1.5, -0.5])).item()
        assert z.item() == pytest.approx(expected, abs=1e-12)

    def test_all_zero_params_count_paths(self):
        zeros = lambda *shape: Tensor(np.zeros(shape))
        z = log_partition_batch(zeros(3, 5), [3], zeros(5, 5), zeros(5), zeros(5)).sum()
        assert z.item() == pytest.approx(3 * math.log(5.0), abs=1e-12)

    def test_matches_enumeration_n2_k2(self):
        rng = np.random.default_rng(10)
        e, trans, start, stop = random_instance(rng, n=2, k=2)
        scores = np.array(list(enumerate_scores(e, trans, start, stop).values()))
        expected = scores.max() + math.log(np.exp(scores - scores.max()).sum())
        z = log_partition_batch(e, [2], trans, start, stop).sum()
        assert z.item() == pytest.approx(expected, abs=1e-10)


class TestCrfNll:
    def test_single_tag_inventory_is_certain(self):
        rng = np.random.default_rng(11)
        e, trans, start, stop = random_instance(rng, n=4, k=1)
        assert crf_nll(e, trans, start, stop, [0, 0, 0, 0], [4]).item() == pytest.approx(
            0.0, abs=1e-12
        )

    def test_uniform_distribution_value(self):
        zeros = lambda *shape: Tensor(np.zeros(shape))
        nll = crf_nll(zeros(3, 5), zeros(5, 5), zeros(5), zeros(5), [1, 2, 3], [3])
        assert nll.item() == pytest.approx(3 * math.log(5.0), abs=1e-12)

    def test_matches_brute_force_probability(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            e, trans, start, stop = random_instance(rng, n=3, k=3)
            y = [int(rng.integers(3)) for _ in range(3)]
            scores = enumerate_scores(e, trans, start, stop)
            arr = np.array(list(scores.values()))
            m = arr.max()
            log_z = m + math.log(np.exp(arr - m).sum())
            expected = -(scores[tuple(y)] - log_z)
            assert crf_nll(e, trans, start, stop, y, [3]).item() == pytest.approx(
                expected, abs=1e-10
            )

    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            e, trans, start, stop = random_instance(rng)
            n, k = e.shape
            y = [int(rng.integers(k)) for _ in range(n)]
            assert crf_nll(e, trans, start, stop, y, [n]).item() >= -1e-12

    def test_gradient_full_parameter_set(self):
        rng = np.random.default_rng(14)
        e, trans, start, stop = random_instance(rng, n=3, k=3)
        err = T.finite_diff_check(
            lambda: crf_nll(e, trans, start, stop, [0, 2, 1], [3]),
            [e, trans, start, stop],
        )
        assert err < 1e-4

    def test_emission_gradient_equals_marginals_minus_onehot(self):
        rng = np.random.default_rng(15)
        e, trans, start, stop = random_instance(rng, n=4, k=3)
        y = [2, 0, 1, 1]
        T.reset_tape()
        T.backward(crf_nll(e, trans, start, stop, y, [4]))
        expected = brute_marginals(e, trans, start, stop)
        for i, t in enumerate(y):
            expected[i, t] -= 1.0
        assert np.abs(e.grad - expected).max() < 1e-8


class TestViterbi:
    def test_single_position_argmax(self):
        e = Tensor([[1.0, 5.0, 2.0]])
        start = Tensor([0.0, 0.0, 10.0])
        stop = Tensor([0.0, 1.0, 0.0])
        tags, score = viterbi(e, Tensor(np.zeros((3, 3))), start, stop)
        assert tags == [2]
        assert score == pytest.approx(12.0)

    def test_returned_score_is_sequence_score(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            e, trans, start, stop = random_instance(rng)
            tags, score = viterbi(e, trans, start, stop)
            recomputed = sequence_score(e, trans, start, stop, tags).item()
            assert score == pytest.approx(recomputed, abs=1e-10)

    def test_tie_break_toward_lower_index(self):
        zeros = lambda *shape: Tensor(np.zeros(shape))
        tags, score = viterbi(zeros(3, 4), zeros(4, 4), zeros(4), zeros(4))
        assert tags == [0, 0, 0]
        assert score == 0.0

    def test_permutation_stability(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            e, trans, start, stop = random_instance(rng, n=4, k=3)
            perm = rng.permutation(3)
            inverse = np.argsort(perm)
            permuted = (
                Tensor(e.values[:, perm]),
                Tensor(trans.values[np.ix_(perm, perm)]),
                Tensor(start.values[perm]),
                Tensor(stop.values[perm]),
            )
            base_tags, base_score = viterbi(e, trans, start, stop)
            perm_tags, perm_score = viterbi(*permuted)
            assert [int(perm[t]) for t in perm_tags] == base_tags
            assert perm_score == pytest.approx(base_score, abs=1e-10)


class TestBruteForceOracle:
    def test_size_guard(self):
        zeros = lambda *shape: Tensor(np.zeros(shape))
        with pytest.raises(ContractError):
            brute_force_oracle(zeros(10, 4), zeros(4, 4), zeros(4), zeros(4))

    def test_frozen_reference_instance(self):
        # seeded (n=3, K=3) params; values frozen from the enumeration itself
        rng = np.random.default_rng(np.random.SeedSequence([20240301]))
        e = Tensor(rng.standard_normal((3, 3)))
        trans = Tensor(rng.standard_normal((3, 3)))
        start = Tensor(rng.standard_normal(3))
        stop = Tensor(rng.standard_normal(3))
        log_z, best, best_score = brute_force_oracle(e, trans, start, stop)
        assert log_z == pytest.approx(6.211111399959997, abs=1e-12)
        assert best == [2, 0, 2]
        assert best_score == pytest.approx(5.11781595100869, abs=1e-12)

    def test_probabilities_normalize(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            e, trans, start, stop = random_instance(rng, n=3, k=3)
            log_z, _, _ = brute_force_oracle(e, trans, start, stop)
            total = sum(
                math.exp(score - log_z)
                for score in enumerate_scores(e, trans, start, stop).values()
            )
            assert total == pytest.approx(1.0, abs=1e-10)


class TestOracleEquivalence:
    def test_dynamic_programs_match_enumeration(self):
        rng = np.random.default_rng(19)
        for _ in range(120):
            e, trans, start, stop = random_instance(rng)
            log_z, best, best_score = brute_force_oracle(e, trans, start, stop)
            z = log_partition_batch(e, [e.shape[0]], trans, start, stop).sum()
            assert z.item() == pytest.approx(log_z, abs=1e-10)
            tags, score = viterbi(e, trans, start, stop)
            assert tags == best
            assert score == pytest.approx(best_score, abs=1e-10)

    def test_partition_dominates_any_sequence(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            e, trans, start, stop = random_instance(rng)
            n, k = e.shape
            y = [int(rng.integers(k)) for _ in range(n)]
            z = log_partition_batch(e, [n], trans, start, stop).sum().item()
            assert z >= sequence_score(e, trans, start, stop, y).item() - 1e-12

    def test_emission_row_shift(self):
        rng = np.random.default_rng(21)
        e, trans, start, stop = random_instance(rng, n=4, k=3)
        shifted = Tensor(e.values.copy())
        shifted.values[2] += 1.75
        base_z = log_partition_batch(e, [4], trans, start, stop).sum().item()
        assert log_partition_batch(shifted, [4], trans, start, stop).sum().item() == pytest.approx(
            base_z + 1.75, abs=1e-10
        )
        y = [0, 1, 2, 1]
        base_score = sequence_score(e, trans, start, stop, y).item()
        assert sequence_score(shifted, trans, start, stop, y).item() == pytest.approx(
            base_score + 1.75, abs=1e-10
        )
        assert viterbi(shifted, trans, start, stop)[0] == viterbi(e, trans, start, stop)[0]


def ragged_batch(rng, lengths, k):
    """Packed emissions for sentences of the given lengths, plus shared params."""
    make = lambda *shape: Tensor(rng.standard_normal(shape))
    return make(sum(lengths), k), make(k, k), make(k), make(k)


def blocks(e, lengths):
    offsets = np.cumsum([0] + list(lengths))
    return [Tensor(e.values[a:b]) for a, b in zip(offsets[:-1], offsets[1:])]


class TestLogPartitionBatch:
    def test_matches_brute_force_per_sentence(self):
        rng = np.random.default_rng(30)
        for _ in range(25):
            lengths = [int(n) for n in rng.integers(1, 6, size=int(rng.integers(1, 5)))]
            lengths[int(rng.integers(len(lengths)))] = 1  # every batch has a length-1 sentence
            e, trans, start, stop = ragged_batch(rng, lengths, int(rng.integers(1, 5)))
            got = log_partition_batch(e, lengths, trans, start, stop).values
            assert got.shape == (len(lengths),)
            for value, block in zip(got, blocks(e, lengths)):
                log_z, _, _ = brute_force_oracle(block, trans, start, stop)
                assert abs(value - log_z) < 1e-10

    def test_finite_differences_on_ragged_batch(self):
        rng = np.random.default_rng(31)
        e, trans, start, stop = ragged_batch(rng, [3, 1, 4], 3)
        upstream = Tensor(rng.standard_normal(3))  # distinct weight per sentence

        def f():
            return T.mul(log_partition_batch(e, [3, 1, 4], trans, start, stop), upstream).sum()

        assert T.finite_diff_check(f, [e, trans, start, stop]) < 1e-4

    def test_emission_gradient_is_node_marginals(self):
        rng = np.random.default_rng(32)
        lengths = [2, 1, 3]
        e, trans, start, stop = ragged_batch(rng, lengths, 3)
        T.backward(log_partition_batch(e, lengths, trans, start, stop).sum())
        expected = np.vstack([brute_marginals(b, trans, start, stop) for b in blocks(e, lengths)])
        assert np.abs(e.grad - expected).max() < 1e-10

    def test_nll_and_score_of_packed_batch(self):
        rng = np.random.default_rng(33)
        lengths = [4, 1, 2]
        e, trans, start, stop = ragged_batch(rng, lengths, 3)
        y = [int(t) for t in rng.integers(3, size=sum(lengths))]
        offsets = np.cumsum([0] + lengths)
        tags = [y[a:b] for a, b in zip(offsets[:-1], offsets[1:])]
        parts = blocks(e, lengths)
        nll = crf_nll(e, trans, start, stop, y, lengths).item()
        score = sequence_score(e, trans, start, stop, y, lengths).item()
        assert nll == pytest.approx(
            np.mean([
                crf_nll(b, trans, start, stop, t, [len(t)]).item() for b, t in zip(parts, tags)
            ]),
            rel=1e-12,
        )
        assert score == pytest.approx(
            sum(sequence_score(b, trans, start, stop, t).item() for b, t in zip(parts, tags)),
            rel=1e-12,
        )

    def test_lengths_must_tile_rows(self):
        rng = np.random.default_rng(34)
        e, trans, start, stop = ragged_batch(rng, [2, 2], 2)
        for lengths in ([3], [2, 1], [4, 0]):
            with pytest.raises(ContractError):
                log_partition_batch(e, lengths, trans, start, stop)
        with pytest.raises(ShapeError):
            log_partition_batch(e, [2, 2], Tensor(np.zeros((3, 3))), start, stop)
