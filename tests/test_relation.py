import math

import numpy as np
import pytest

from medext import tensor as T
from medext.corpus import RELATION_LABELS, EntitySpan
from medext.errors import ContractError
from medext.relation_head import (
    init_relation,
    pair_logits,
    predict_relations,
    relation_loss,
)
from medext.tensor import Tensor
from oracles import entity_pool


def setup_function(_):
    T.reset_tape()


class TestEntityPool:
    def test_single_token_span_is_that_row(self):
        h = Tensor(np.random.default_rng(0).standard_normal((4, 6)))
        pooled = entity_pool(h, EntitySpan(2, 2, "A"))
        assert np.array_equal(pooled.values, h.values[2])

    def test_hand_average(self):
        h = Tensor([[1.0, 3.0], [3.0, 5.0], [9.0, 9.0]])
        pooled = entity_pool(h, EntitySpan(0, 1, "A"))
        assert pooled.values.tolist() == [2.0, 4.0]

    def test_mean_is_order_invariant(self):
        rng = np.random.default_rng(1)
        block = rng.standard_normal((3, 4))
        h1 = Tensor(np.vstack([block, rng.standard_normal((1, 4))]))
        h2 = Tensor(np.vstack([block[::-1], h1.values[3:]]))
        span = EntitySpan(0, 2, "A")
        assert np.allclose(entity_pool(h1, span).values, entity_pool(h2, span).values)

    def test_constant_rows_pool_to_that_row(self):
        h = Tensor(np.tile([1.0, 2.0, 3.0], (5, 1)))
        for span in (EntitySpan(0, 4, "A"), EntitySpan(1, 2, "A")):
            assert np.allclose(entity_pool(h, span).values, [1.0, 2.0, 3.0])

    def test_out_of_range_rejected(self):
        h = Tensor(np.zeros((3, 2)))
        with pytest.raises(ContractError):
            entity_pool(h, EntitySpan(1, 3, "A"))


def one_pair(h_e1, h_e2, params):
    """pair_logits of the single ordered pair (h_e1, h_e2) -> its (R,) row."""
    return pair_logits(Tensor([h_e1]), Tensor([h_e2]), params).values[0]


class TestRelationLogits:
    def test_zero_weights_give_bias(self):
        params = init_relation(4, seed=0)
        params.w.values[:] = 0.0
        params.b.values[:] = [0.5, 1.5, -2.0]
        rng = np.random.default_rng(2)
        out = one_pair(rng.standard_normal(4), rng.standard_normal(4), params)
        assert out.tolist() == [0.5, 1.5, -2.0]

    def test_ordered_pairs_not_symmetric(self):
        params = init_relation(3, seed=1)
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        assert not np.allclose(one_pair(a, b, params), one_pair(b, a, params))

    def test_symmetric_when_halves_coincide(self):
        params = init_relation(2, seed=2)
        params.w.values[2:] = params.w.values[:2]
        a, b = [1.0, 2.0], [3.0, -1.0]
        assert np.allclose(one_pair(a, b, params), one_pair(b, a, params))

    def test_hand_affine_case(self):
        params = init_relation(1, seed=3)
        params.w.values[:] = [[1.0, 2.0, -1.0], [3.0, 4.0, 0.5]]
        params.b.values[:] = [0.5, -0.5, 1.0]
        out = one_pair([2.0], [5.0], params)
        # concat [2,5]: [2*1+5*3+0.5, 2*2+5*4-0.5, 2*-1+5*0.5+1] = [17.5, 23.5, 1.5]
        assert out.tolist() == [17.5, 23.5, 1.5]


class TestRelationLoss:
    def test_uniform_logits(self):
        params = init_relation(3, seed=4)
        params.w.values[:] = 0.0
        rng = np.random.default_rng(4)
        pairs = [
            (Tensor(rng.standard_normal(3)), Tensor(rng.standard_normal(3)), "treats"),
            (Tensor(rng.standard_normal(3)), Tensor(rng.standard_normal(3)), "no-relation"),
        ]
        loss = relation_loss(pairs, params)
        assert loss.item() == pytest.approx(math.log(len(RELATION_LABELS)), abs=1e-12)

    def test_near_one_hot(self):
        params = init_relation(1, seed=5)
        params.w.values[:] = 0.0
        params.b.values[:] = [-40.0, 40.0, -40.0]
        pairs = [(Tensor([0.0]), Tensor([0.0]), "treats")]
        assert relation_loss(pairs, params).item() == pytest.approx(0.0, abs=1e-12)

    def test_unknown_label_rejected(self):
        params = init_relation(2, seed=6)
        with pytest.raises(ContractError, match="mystery"):
            relation_loss([(Tensor([0.0, 0.0]), Tensor([0.0, 0.0]), "mystery")], params)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ContractError):
            relation_loss([], init_relation(2, seed=0))

    def test_gradient_through_pooling(self):
        params = init_relation(3, seed=7)
        h = Tensor(np.random.default_rng(7).standard_normal((4, 3)))

        def f():
            h1 = entity_pool(h, EntitySpan(0, 1, "A"))
            h2 = entity_pool(h, EntitySpan(3, 3, "A"))
            return relation_loss([(h1, h2, "causes"), (h2, h1, "no-relation")], params)

        err = T.finite_diff_check(f, [h, params.w, params.b])
        assert err < 1e-4


class TestPredictRelations:
    def test_fewer_than_two_spans(self):
        params = init_relation(3, seed=8)
        h = Tensor(np.zeros((4, 3)))
        assert predict_relations(h, [[]], params, [4]) == [[]]
        assert predict_relations(h, [[EntitySpan(0, 1, "A")]], params, [4]) == [[]]

    def test_pair_counting(self):
        params = init_relation(3, seed=9)
        params.w.values[:] = 0.0
        params.b.values[:] = [0.0, 5.0, 0.0]  # every pair predicted "treats"
        h = Tensor(np.random.default_rng(9).standard_normal((6, 3)))
        spans = [EntitySpan(0, 0, "A"), EntitySpan(2, 2, "A"), EntitySpan(4, 5, "A")]
        [predictions] = predict_relations(h, [spans], params, [6])
        assert len(predictions) == 6  # k*(k-1) ordered pairs, all above threshold
        assert all(p.head != p.tail for p in predictions)
        assert all(p.label != "no-relation" for p in predictions)

    def test_no_relation_omitted(self):
        params = init_relation(3, seed=10)
        params.w.values[:] = 0.0
        params.b.values[:] = [5.0, 0.0, 0.0]
        h = Tensor(np.zeros((4, 3)))
        spans = [EntitySpan(0, 0, "A"), EntitySpan(2, 3, "A")]
        assert predict_relations(h, [spans], params, [4]) == [[]]
