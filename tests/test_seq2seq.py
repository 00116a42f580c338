import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medext import tensor as T
from medext.corpus import TagScheme, invalid_transition_rate
from medext.errors import ContractError
from medext.seq2seq_head import greedy_decode, init_seq2seq, teacher_forced_loss
from medext.tensor import Tensor
import oracles


def setup_function(_):
    T.reset_tape()


@pytest.fixture
def scheme():
    return TagScheme(["D", "E"])


class TestTeacherForcedLoss:
    def test_zero_parameters_give_uniform(self):
        params = init_seq2seq(4, num_tags=5, seed=0)
        for t in params.named().values():
            t.values[:] = 0.0
        h = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
        loss = teacher_forced_loss(h, [0, 3, 1], params, [3])
        assert loss.item() == pytest.approx(math.log(5.0), abs=1e-12)

    def test_single_position_conditions_on_bos(self):
        params = init_seq2seq(4, num_tags=3, seed=1, d_t=2)
        h = Tensor(np.random.default_rng(1).standard_normal((1, 4)))
        loss = teacher_forced_loss(h, [2], params, [1])
        feats = np.concatenate([h.values[0], params.tag_emb.values[params.bos]])
        logits = feats @ params.w_out.values + params.b_out.values
        expected = -(logits[2] - (logits.max() + np.log(np.exp(logits - logits.max()).sum())))
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(2)
        params = init_seq2seq(4, num_tags=3, seed=2)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            h = Tensor(rng.standard_normal((n, 4)))
            y = [int(rng.integers(3)) for _ in range(n)]
            assert teacher_forced_loss(h, y, params, [n]).item() >= 0.0

    def test_gradient(self):
        params = init_seq2seq(4, num_tags=3, seed=3, d_t=3)
        h = Tensor(np.random.default_rng(3).standard_normal((3, 4)))
        err = T.finite_diff_check(
            lambda: teacher_forced_loss(h, [0, 2, 1], params, [3]),
            [h] + list(params.named().values()),
        )
        assert err < 1e-4


class TestGreedyDecode:
    def test_deterministic(self):
        params = init_seq2seq(4, num_tags=3, seed=4)
        h = Tensor(np.random.default_rng(4).standard_normal((5, 4)))
        assert greedy_decode(h, params, [5]) == greedy_decode(h, params, [5])

    def test_length_matches_input(self):
        params = init_seq2seq(4, num_tags=3, seed=5)
        for n in (1, 2, 7):
            h = Tensor(np.random.default_rng(n).standard_normal((n, 4)))
            assert len(greedy_decode(h, params, [n])[0]) == n

    def test_single_position_argmax_given_bos(self):
        params = init_seq2seq(4, num_tags=3, seed=6, d_t=2)
        h = Tensor(np.random.default_rng(6).standard_normal((1, 4)))
        feats = np.concatenate([h.values[0], params.tag_emb.values[params.bos]])
        logits = feats @ params.w_out.values + params.b_out.values
        assert greedy_decode(h, params, [1]) == [[int(logits.argmax())]]

    def test_can_emit_invalid_bio(self, scheme):
        # bias forces I-D everywhere, including the first position
        params = init_seq2seq(4, num_tags=scheme.num_tags, seed=7)
        params.w_out.values[:] = 0.0
        params.b_out.values[:] = 0.0
        params.b_out.values[scheme.inside_index("D")] = 5.0
        h = Tensor(np.zeros((3, 4)))
        [tags] = greedy_decode(h, params, [3])
        assert tags == [scheme.inside_index("D")] * 3
        assert invalid_transition_rate([tags]) > 0.0

    def test_ties_toward_lower_tag(self):
        params = init_seq2seq(4, num_tags=4, seed=8)
        for t in params.named().values():
            t.values[:] = 0.0
        h = Tensor(np.zeros((3, 4)))
        assert greedy_decode(h, params, [3]) == [[0, 0, 0]]


class TestInvalidTransitionRate:
    def test_all_outside_is_zero(self):
        assert invalid_transition_rate([[0, 0, 0], [0]]) == 0.0

    def test_dangling_inside_rate(self, scheme):
        tags = [0, scheme.inside_index("D")]
        assert invalid_transition_rate([tags]) == pytest.approx(0.5)

    def test_proper_entity_is_valid(self, scheme):
        tags = [scheme.begin_index("D"), scheme.inside_index("D")]
        assert invalid_transition_rate([tags]) == 0.0

    def test_inside_at_start_counts(self, scheme):
        assert invalid_transition_rate([[scheme.inside_index("D")]]) == 1.0

    def test_class_switch_counts(self, scheme):
        tags = [scheme.begin_index("D"), scheme.inside_index("E")]
        assert invalid_transition_rate([tags]) == pytest.approx(0.5)

    def test_gold_corpus_rate_is_zero(self):
        from medext.corpus import generate_synthetic_corpus

        corpus = generate_synthetic_corpus(100, seed=21)
        batch = [s.tags for s in corpus.sentences]
        assert invalid_transition_rate(batch) == 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            invalid_transition_rate([])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), classes=st.integers(1, 5))
    def test_matches_oracle(self, data, classes):
        """The index arithmetic gives exactly the rate of the oracle that
        compares class names through ``oracles.kind``, empty sentences included."""
        scheme = TagScheme([f"C{k}" for k in range(classes)])
        sentence = st.lists(st.integers(0, scheme.num_tags - 1), max_size=12)
        batch = data.draw(st.lists(sentence, min_size=1, max_size=6))
        assert invalid_transition_rate(batch) == oracles.invalid_transition_rate(batch, scheme)
