import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medext import tensor as T
from medext.corpus import MASK
from medext.encoder import (
    EncoderConfig,
    encode,
    encode_batch,
    init_params,
    mlm_step,
    plan_masking,
)
from medext.errors import ContractError, ShapeError
from medext.tensor import Tensor
from oracles import (
    attention,
    every_row_encode_batch,
    padded_segment_attention,
    per_sentence_mlm,
    reference_encode,
)


def tiny_config(**overrides):
    base = dict(vocab_size=12, d_model=8, heads=2, layers=1, d_ff=16, max_len=8)
    base.update(overrides)
    return EncoderConfig(**base)


def setup_function(_):
    T.reset_tape()


def loss_and_grads(loss_fn, params):
    T.reset_tape()
    named = params.named()
    for p in named.values():
        p.zero_grad()
    loss = loss_fn()
    T.backward(loss)
    grads = {
        k: np.zeros_like(p.values) if p.grad is None else p.grad.copy()
        for k, p in named.items()
    }
    T.reset_tape()
    return loss.item(), grads


class TestConfig:
    def test_head_split_arithmetic(self):
        """d_model=8 over 2 heads gives each head 4 columns: changing q, k and
        v in columns 4:8 leaves output columns 0:4 as they were."""
        config = tiny_config(d_model=8, heads=2)
        rng = np.random.default_rng(5)
        q, k, v = (rng.standard_normal((3, config.d_model)) for _ in range(3))
        before = T.segment_attention(Tensor(q), Tensor(k), Tensor(v), [3], config.heads).values
        for a in (q, k, v):
            a[:, 4:] += rng.standard_normal((3, 4))
        after = T.segment_attention(Tensor(q), Tensor(k), Tensor(v), [3], config.heads).values
        assert np.array_equal(before[:, :4], after[:, :4])
        assert not np.allclose(before[:, 4:], after[:, 4:])

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ContractError):
            tiny_config(d_model=9, heads=2)


class TestInitParams:
    def test_same_seed_identical(self):
        config = tiny_config()
        a, b = init_params(config, seed=3), init_params(config, seed=3)
        for key, value in a.named().items():
            assert np.array_equal(value.values, b.named()[key].values)

    def test_shapes_match_config(self):
        config = tiny_config(layers=2)
        params = init_params(config, seed=0)
        assert params.tok_emb.shape == (config.vocab_size, config.d_model)
        assert params.pos_emb.shape == (config.max_len, config.d_model)
        assert params.mlm_proj.shape == (config.d_model, config.vocab_size)
        assert len(params.layers) == 2
        layer = params.layers[0]
        assert layer.w_q.shape == (config.d_model, config.d_model)
        assert layer.ff_w1.shape == (config.d_model, config.d_ff)
        assert np.array_equal(layer.ln1_gain.values, np.ones(config.d_model))
        assert np.array_equal(layer.ff_b1.values, np.zeros(config.d_ff))

    def test_xavier_bounds(self):
        params = init_params(tiny_config(), seed=1)
        limit = math.sqrt(6.0 / (12 + 8))
        assert np.abs(params.tok_emb.values).max() <= limit


class TestAttention:
    def test_single_position_returns_value_row(self):
        rng = np.random.default_rng(0)
        q, k = Tensor(rng.standard_normal((1, 4))), Tensor(rng.standard_normal((1, 4)))
        v = Tensor(rng.standard_normal((1, 6)))
        out = attention(q, k, v)
        assert np.array_equal(out.values, v.values)

    def test_identical_keys_average_values(self):
        q = Tensor(np.ones((2, 4)))
        k = Tensor(np.tile(np.arange(4.0), (2, 1)))  # both key rows identical
        v = Tensor([[2.0, 0.0], [0.0, 4.0]])
        out = attention(q, k, v)
        assert np.allclose(out.values, [[1.0, 2.0], [1.0, 2.0]])


def packed(rng, lengths, d):
    return [Tensor(rng.standard_normal((sum(lengths), d))) for _ in range(3)]


class TestSegmentAttention:
    @pytest.mark.parametrize("lengths", [[3, 5, 1], [1], [4, 4], [1, 1, 2], [7]])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_attention_per_segment(self, lengths, heads):
        rng = np.random.default_rng(len(lengths) * 10 + heads)
        d = 8
        d_k = d // heads
        q, k, v = packed(rng, lengths, d)
        out = T.segment_attention(q, k, v, lengths, heads)
        assert out.shape == (sum(lengths), d)
        offset = 0
        for n in lengths:
            for h in range(heads):
                rows, cols = slice(offset, offset + n), slice(h * d_k, (h + 1) * d_k)
                want = attention(
                    Tensor(q.values[rows, cols]), Tensor(k.values[rows, cols]),
                    Tensor(v.values[rows, cols]),
                )
                assert np.abs(out.values[rows, cols] - want.values).max() < 1e-12
            offset += n

    def test_no_attention_across_segments(self):
        rng = np.random.default_rng(3)
        lengths = [2, 3]
        q, k, v = packed(rng, lengths, 4)
        before = T.segment_attention(q, k, v, lengths, 2).values
        v.values[2:] += 50.0  # second segment only
        after = T.segment_attention(q, k, v, lengths, 2).values
        assert np.array_equal(before[:2], after[:2])

    @pytest.mark.parametrize("lengths", [[3, 5, 1], [1, 2]])
    def test_gradients_match_finite_differences(self, lengths):
        rng = np.random.default_rng(11)
        q, k, v = packed(rng, lengths, 4)
        weights = Tensor(rng.standard_normal((sum(lengths), 4)))
        err = T.finite_diff_check(
            lambda: T.sum_all(T.mul(T.segment_attention(q, k, v, lengths, 2), weights)),
            [q, k, v],
        )
        assert err < 1e-4

    @pytest.mark.parametrize("lengths", [[9], [4, 4, 4], [3, 5, 1]])
    @pytest.mark.parametrize("heads", [2, 4])
    def test_bitwise_equal_to_always_padded_oracle(self, lengths, heads):
        """Output and all three gradients, whether the op pads or reshapes."""
        rng = np.random.default_rng(sum(lengths) + heads)
        weights = Tensor(rng.standard_normal((sum(lengths), 8)))
        values = [t.values for t in packed(rng, lengths, 8)]
        results = []
        for op in (T.segment_attention, padded_segment_attention):
            T.reset_tape()
            q, k, v = (Tensor(a.copy()) for a in values)
            out = op(q, k, v, lengths, heads)
            T.backward(T.sum_all(T.mul(out, weights)))
            results.append([out.values, q.grad, k.grad, v.grad])
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    def test_pads_only_when_a_segment_is_shorter(self, monkeypatch):
        padded, segments = [], T.segments
        monkeypatch.setattr(T, "segments", lambda *args: padded.append(args[0]) or segments(*args))
        for lengths in ([6], [3, 3], [2, 4]):
            T.reset_tape()
            q, k, v = packed(np.random.default_rng(2), lengths, 4)
            T.backward(T.sum_all(T.segment_attention(q, k, v, lengths, 2)))
        assert padded == [[2, 4]]

    @pytest.mark.parametrize("lengths", [[2, 1], [0, 4], [], [5]])
    def test_lengths_must_tile_the_rows(self, lengths):
        x = Tensor(np.zeros((4, 4)))
        with pytest.raises(ContractError, match="lengths"):
            T.segment_attention(x, x, x, lengths, 2)

    def test_width_must_split_into_heads(self):
        x = Tensor(np.zeros((2, 6)))
        with pytest.raises(ShapeError):
            T.segment_attention(x, x, x, [2], 4)


@st.composite
def query_rows(draw):
    """Segment lengths (ragged, equal, or one segment), a nonempty subset of
    each segment's rows in any order as packed rows, the subsets' sizes, a
    head count and a seed."""
    shape = draw(st.sampled_from(["ragged", "equal", "one"]))
    if shape == "one":
        lengths = [draw(st.integers(1, 7))]
    elif shape == "equal":
        lengths = [draw(st.integers(1, 5))] * draw(st.integers(2, 4))
    else:
        lengths = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    rows, q_lengths, offset = [], [], 0
    for n in lengths:
        picked = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        rows.extend(offset + p for p in picked)
        q_lengths.append(len(picked))
        offset += n
    return lengths, rows, q_lengths, draw(st.sampled_from([1, 2, 4])), draw(st.integers(0, 2**16))


def attention_and_grads(values, lengths, heads, upstream, q_lengths=None):
    """segment_attention's output and q, k, v gradients under ``upstream``."""
    T.reset_tape()
    q, k, v = (Tensor(a.copy()) for a in values)
    out = T.segment_attention(q, k, v, lengths, heads, q_lengths)
    T.backward(T.sum_all(T.mul(out, Tensor(upstream))))
    return out.values, q.grad, k.grad, v.grad


class TestSegmentAttentionQueryRows:
    """``q_lengths``: queries at only some rows of each segment equal the
    full op at those rows, forward and backward."""

    @settings(max_examples=60, deadline=None)
    @given(case=query_rows())
    def test_equals_the_full_op_at_the_chosen_rows(self, case):
        lengths, rows, q_lengths, heads, seed = case
        rng = np.random.default_rng(seed)
        q, k, v = (t.values for t in packed(rng, lengths, 8))
        weights = rng.standard_normal((len(rows), 8))
        upstream = np.zeros((sum(lengths), 8))  # the full op's gradient: zero off the rows
        upstream[rows] = weights
        out, dq, dk, dv = attention_and_grads((q[rows], k, v), lengths, heads, weights, q_lengths)
        full, full_dq, full_dk, full_dv = attention_and_grads((q, k, v), lengths, heads, upstream)
        for got, want in ((out, full[rows]), (dq, full_dq[rows]), (dk, full_dk), (dv, full_dv)):
            assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("lengths, q_lengths", [([3, 5, 1], [2, 3, 1]), ([4, 4], [1, 3])])
    def test_gradients_match_finite_differences(self, lengths, q_lengths):
        rng = np.random.default_rng(12)
        _, k, v = packed(rng, lengths, 4)
        q = Tensor(rng.standard_normal((sum(q_lengths), 4)))
        weights = Tensor(rng.standard_normal((sum(q_lengths), 4)))
        err = T.finite_diff_check(
            lambda: T.sum_all(T.mul(T.segment_attention(q, k, v, lengths, 2, q_lengths), weights)),
            [q, k, v],
        )
        assert err < 1e-4

    @pytest.mark.parametrize("q_lengths", [[2, 1], [1, 1, 1, 1], [4], [2, 0, 2], [1, 2, 1, 0]])
    def test_query_lengths_must_tile_the_queries_per_segment(self, q_lengths):
        q, kv = Tensor(np.zeros((4, 4))), Tensor(np.zeros((6, 4)))
        with pytest.raises(ContractError, match="segment_attention"):
            T.segment_attention(q, kv, kv, [2, 3, 1], 2, q_lengths)


class TestEncodeBatch:
    BATCH = [[4, 5, 6], [7, 8, 9, 10, 11], [3], [5, 6, 7, 8, 9, 10, 11, 4]]

    def test_matches_per_sentence_oracle(self):
        config = tiny_config(layers=2)
        params = init_params(config, seed=6)
        h = encode_batch(self.BATCH, params, config)
        assert h.shape == (sum(map(len, self.BATCH)), config.d_model)
        offset = 0
        for ids in self.BATCH:
            block = h.values[offset:offset + len(ids)]
            assert np.abs(block - reference_encode(ids, params, config).values).max() < 1e-12
            assert np.abs(block - encode(ids, params, config).values).max() < 1e-12
            offset += len(ids)

    def test_dropout_masks_follow_each_sentence_seed(self):
        config = tiny_config(layers=2, dropout_rate=0.3)
        params = init_params(config, seed=6)
        seeds = [11, 12, 13, 14]
        h = encode_batch(self.BATCH, params, config, seeds)
        offset = 0
        for ids, seed in zip(self.BATCH, seeds):
            want = reference_encode(ids, params, config, seed)
            assert np.abs(h.values[offset:offset + len(ids)] - want.values).max() < 1e-12
            offset += len(ids)

    def test_dropout_requires_a_seed_per_sentence(self):
        config = tiny_config(dropout_rate=0.5)
        params = init_params(config, seed=0)
        for seeds in ([1], [1, 2, 3], []):
            with pytest.raises(ContractError, match="seed"):
                encode_batch([[1, 2], [3]], params, config, seeds)
        with pytest.raises(ContractError, match="seed"):  # checked at any dropout rate
            encode_batch([[1, 2], [3]], params, tiny_config(), [1])

    def test_each_sentence_checked_against_max_len(self):
        config = tiny_config(max_len=4)
        params = init_params(config, seed=0)
        with pytest.raises(ContractError, match="max_len"):
            encode_batch([[1, 2], [1] * 5, [3]], params, config)
        with pytest.raises(ContractError, match="nonempty"):
            encode_batch([[1, 2], []], params, config)
        with pytest.raises(ContractError):
            encode_batch([], params, config)

    ROWS = [2, 0, 7, 4, 3, 8, 16, 9, 12]  # BATCH's packed rows, out of order in each sentence

    def outputs_and_grads(self, encoded, params):
        """``encoded()``'s output and the parameter gradients of a fixed
        random weighting of it."""
        out = []

        def loss():
            out.append(encoded())
            weights = np.random.default_rng(1).standard_normal(out[0].shape)
            return T.sum_all(T.mul(out[0], Tensor(weights)))

        _, grads = loss_and_grads(loss, params)
        return out[0].values, grads

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.2])
    def test_rows_equal_gathering_the_full_output(self, layers, dropout_rate):
        config = tiny_config(layers=layers, dropout_rate=dropout_rate)
        params = init_params(config, seed=6)
        seeds = [11, 12, 13, 14]
        pruned, pruned_grads = self.outputs_and_grads(
            lambda: encode_batch(self.BATCH, params, config, seeds, self.ROWS), params
        )
        full, full_grads = self.outputs_and_grads(
            lambda: T.gather(encode_batch(self.BATCH, params, config, seeds), self.ROWS), params
        )
        assert np.abs(pruned - full).max() < 1e-12
        for key, grad in full_grads.items():
            assert np.abs(pruned_grads[key] - grad).max() < 1e-12, key

    @pytest.mark.parametrize("dropout_rate", [0.0, 0.2])
    def test_every_row_is_bitwise_the_unpruned_loop(self, dropout_rate):
        config = tiny_config(layers=2, dropout_rate=dropout_rate)
        params = init_params(config, seed=6)
        seeds = [11, 12, 13, 14]
        got = self.outputs_and_grads(lambda: encode_batch(self.BATCH, params, config, seeds), params)
        want = self.outputs_and_grads(
            lambda: every_row_encode_batch(self.BATCH, params, config, seeds), params
        )
        assert got[0].tobytes() == want[0].tobytes()
        for key, grad in want[1].items():
            assert got[1][key].tobytes() == grad.tobytes(), key

    @pytest.mark.parametrize(
        "rows", [[3, 0, 8, 9], [0, 3, 8, 17], [-1, 3, 8, 9], [], [0, 3, 9], [[0, 3, 8, 9]]]
    )
    def test_rows_must_be_grouped_by_sentence_and_cover_each(self, rows):
        config = tiny_config()
        with pytest.raises(ContractError, match="rows"):
            encode_batch(self.BATCH, init_params(config, seed=0), config, rows=rows)


class TestEncode:
    def test_output_shape(self):
        config = tiny_config()
        params = init_params(config, seed=0)
        h = encode([1, 5, 7], params, config)
        assert h.shape == (3, config.d_model)

    def test_length_error(self):
        config = tiny_config(max_len=4)
        params = init_params(config, seed=0)
        with pytest.raises(ContractError, match="max_len"):
            encode([1] * 5, params, config)

    def test_inference_is_deterministic(self):
        config = tiny_config()
        params = init_params(config, seed=0)
        a = encode([1, 2, 3], params, config)
        b = encode([1, 2, 3], params, config)
        assert np.array_equal(a.values, b.values)

    def test_permutation_equivariance_with_zeroed_positions(self):
        config = tiny_config()
        params = init_params(config, seed=4)
        params.pos_emb.values[:] = 0.0
        ids = [1, 4, 7, 9, 2]
        perm = [3, 0, 4, 2, 1]
        base = encode(ids, params, config).values
        permuted = encode([ids[p] for p in perm], params, config).values
        assert np.abs(permuted - base[perm]).max() < 1e-9

    def test_dropout_requires_seed(self):
        config = tiny_config(dropout_rate=0.5)
        params = init_params(config, seed=0)
        inference = encode([1, 2], params, tiny_config()).values
        # without a seed, nothing is dropped: bitwise the dropout-free pass
        assert np.array_equal(encode([1, 2], params, config).values, inference)
        deterministic = encode([1, 2], params, config, dropout_seed=9)
        again = encode([1, 2], params, config, dropout_seed=9)
        assert np.array_equal(deterministic.values, again.values)
        assert not np.array_equal(deterministic.values, inference)


class TestPlanMasking:
    def test_count_rule(self):
        rng = np.random.default_rng(0)
        _, positions = plan_masking(list(range(20)), 0.15, 12, rng)
        assert len(positions) == 3  # floor(0.15 * 20)

    def test_at_least_one_position(self):
        rng = np.random.default_rng(0)
        _, positions = plan_masking([5, 6], 0.15, 12, rng)
        assert len(positions) == 1

    def test_corruption_split(self):
        rng = np.random.default_rng(7)
        ids = list(range(4, 24))  # 20 real ids
        corrupted, positions = plan_masking(ids, 0.5, 30, rng)
        k = len(positions)  # 10 selected
        assert k == 10
        masked = [p for j, p in enumerate(positions) if j < int(0.8 * k)]
        assert all(corrupted[p] == MASK for p in masked)
        changed = sum(corrupted[p] != ids[p] for p in positions)
        assert int(0.8 * k) <= changed <= int(0.8 * k) + int(0.1 * k)
        untouched = [i for i in range(len(ids)) if i not in positions]
        assert all(corrupted[i] == ids[i] for i in untouched)


class TestMlmStep:
    def test_untrained_loss_near_uniform(self):
        config = tiny_config(vocab_size=20)
        params = init_params(config, seed=0)
        batch = [[4, 5, 6, 7, 8, 9], [10, 11, 12, 13]]
        loss = mlm_step(batch, params, config, mask_prob=0.3, seed=1).item()
        uniform = math.log(config.vocab_size)
        assert 0.5 * uniform <= loss <= 2.0 * uniform

    def test_same_seed_identical(self):
        config = tiny_config()
        params = init_params(config, seed=0)
        batch = [[4, 5, 6, 7], [8, 9, 10]]
        a = mlm_step(batch, params, config, seed=3).item()
        b = mlm_step(batch, params, config, seed=3).item()
        assert a == b

    def test_empty_batch_rejected(self):
        config = tiny_config()
        with pytest.raises(ContractError):
            mlm_step([], init_params(config, seed=0), config)

    def test_gradient_through_encoder(self):
        config = tiny_config(vocab_size=10, d_model=8, heads=2, layers=1, d_ff=8, max_len=4)
        params = init_params(config, seed=2)
        batch = [[4, 5, 6]]
        err = T.finite_diff_check(
            lambda: mlm_step(batch, params, config, mask_prob=0.4, seed=0),
            list(params.named().values()),
        )
        assert err < 1e-4

    @pytest.mark.parametrize("dropout_rate", [0.0, 0.2])
    def test_packed_step_matches_per_sentence_oracle(self, dropout_rate):
        config = tiny_config(vocab_size=20, layers=2, dropout_rate=dropout_rate)
        params = init_params(config, seed=3)
        batch = [[4, 5, 6, 7, 8, 9], [10, 11, 12], [13], [14, 15, 16, 17, 18, 19, 4, 5]]
        packed_loss, packed_grads = loss_and_grads(
            lambda: mlm_step(batch, params, config, mask_prob=0.3, seed=5), params
        )
        oracle_loss, oracle_grads = loss_and_grads(
            lambda: per_sentence_mlm(batch, params, config, 0.3, 5), params
        )
        assert abs(packed_loss - oracle_loss) < 1e-12
        for key, grad in oracle_grads.items():
            assert np.abs(packed_grads[key] - grad).max() < 1e-12, key

    def test_gradient_through_ragged_batch(self):
        config = tiny_config(vocab_size=10, d_model=4, heads=2, layers=1, d_ff=4, max_len=5)
        params = init_params(config, seed=2)
        batch = [[4, 5, 6], [7], [8, 9, 4, 5, 6]]
        err = T.finite_diff_check(
            lambda: mlm_step(batch, params, config, mask_prob=0.4, seed=0),
            list(params.named().values()),
        )
        assert err < 1e-4
