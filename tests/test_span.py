import math

import numpy as np
import pytest

from medext import tensor as T
from medext.corpus import EntitySpan
from medext.errors import ContractError
from medext.span_head import (
    SpanTable,
    batch_span_loss,
    decode_spans,
    init_span,
    score_all_spans,
    subsample_negatives,
)
from medext.tensor import Tensor

CLASSES = ["A", "B"]


def setup_function(_):
    T.reset_tape()


def make_h(n, d=6, seed=0):
    return Tensor(np.random.default_rng(seed).standard_normal((n, d)))


def table(*rows):
    """A one-sentence SpanTable from (start, end, logits) rows."""
    starts = np.array([r[0] for r in rows], dtype=np.intp)
    ends = np.array([r[1] for r in rows], dtype=np.intp)
    logits = np.array([r[2] for r in rows], dtype=np.float64).reshape(len(rows), len(CLASSES) + 1)
    return SpanTable(Tensor(logits), starts, ends, np.zeros(len(rows), dtype=np.intp))


def bounds(t):
    return list(zip(t.starts.tolist(), t.ends.tolist()))


class TestScoreAllSpans:
    def test_single_token_sentence(self):
        params = init_span(6, CLASSES, seed=0, max_width=4)
        candidates = score_all_spans(make_h(1), params, [1])
        assert bounds(candidates) == [(0, 0)]

    def test_counting_formula(self):
        params = init_span(6, CLASSES, seed=0, max_width=2)
        candidates = score_all_spans(make_h(4), params, [4])
        assert len(candidates) == 7  # widths 1 and 2: 4 + 3

    def test_width_capped_by_sentence(self):
        params = init_span(6, CLASSES, seed=0, max_width=10)
        candidates = score_all_spans(make_h(3), params, [3])
        assert len(candidates) == 6
        assert max(end - start + 1 for start, end in bounds(candidates)) == 3

    def test_logits_match_manual_affine(self):
        params = init_span(6, CLASSES, seed=1, max_width=3, d_w=4)
        h = make_h(4, seed=2)
        candidates = score_all_spans(h, params, [4])
        for row, (start, end) in enumerate(bounds(candidates)):
            width = end - start + 1
            rep = np.concatenate(
                [
                    h.values[start],
                    h.values[end],
                    h.values[start : end + 1].mean(axis=0),
                    params.width_emb.values[width - 1],
                ]
            )
            expected = rep @ params.w_cls.values + params.b_cls.values
            assert np.abs(candidates.logits.values[row] - expected).max() < 1e-12

    def test_single_token_uses_same_row_three_ways(self):
        params = init_span(6, CLASSES, seed=3, max_width=2, d_w=4)
        h = make_h(2, seed=4)
        c = score_all_spans(h, params, [2])
        assert bounds(c)[0] == (0, 0)
        rep = np.concatenate(
            [h.values[0], h.values[0], h.values[0], params.width_emb.values[0]]
        )
        expected = rep @ params.w_cls.values + params.b_cls.values
        assert np.abs(c.logits.values[0] - expected).max() < 1e-12


class TestSubsampleNegatives:
    def test_cap_rule(self):
        labels = [0, 1, 0, 0, 0]  # 1 positive, 4 negatives
        retained = subsample_negatives(labels, seed=0)
        assert len(retained) == 4  # 1 positive + 3 sampled negatives
        assert 1 in retained

    def test_no_positives_keeps_min_one_budget(self):
        labels = [0, 0, 0, 0, 0]
        retained = subsample_negatives(labels, seed=0)
        assert len(retained) == 3  # 3 * max(1, 0)

    def test_under_cap_keeps_all(self):
        labels = [1, 0, 0]
        assert subsample_negatives(labels, seed=0) == [0, 1, 2]

    def test_deterministic(self):
        labels = [0] * 40 + [2]
        a = subsample_negatives(labels, seed=5)
        assert a == subsample_negatives(labels, seed=5)
        assert a != subsample_negatives(labels, seed=6)


class TestSpanLoss:
    def test_uniform_logits_no_gold(self):
        params = init_span(6, CLASSES, seed=0, max_width=2)
        params.w_cls.values[:] = 0.0
        params.width_emb.values[:] = 0.0
        candidates = score_all_spans(make_h(3), params, [3])
        loss = batch_span_loss(candidates, [[]], CLASSES, [0])
        assert loss.item() == pytest.approx(math.log(3.0), abs=1e-12)  # ln(C+1)

    def test_near_one_hot_correct(self):
        candidates = table((0, 0, [-30.0, 30.0, -30.0]))
        loss = batch_span_loss(candidates, [[EntitySpan(0, 0, "A")]], CLASSES, [0])
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_retained_budget_example(self):
        # n=3, max_width=2 -> 5 candidates; 1 gold positive, cap 3 negatives
        labels = [0, 0, 1, 0, 0]
        assert len(subsample_negatives(labels, seed=0)) <= 4

    def test_too_wide_gold_dropped_with_warning(self, caplog):
        params = init_span(6, CLASSES, seed=0, max_width=2)
        candidates = score_all_spans(make_h(5), params, [5])
        with caplog.at_level("WARNING"):
            batch_span_loss(candidates, [[EntitySpan(0, 3, "A")]], CLASSES, [0])
        assert "wider than max_width" in caplog.text

    def test_gradient(self):
        params = init_span(4, CLASSES, seed=7, max_width=2, d_w=3)
        h = Tensor(np.random.default_rng(8).standard_normal((3, 4)))
        gold = [EntitySpan(1, 2, "B")]

        def f():
            return batch_span_loss(score_all_spans(h, params, [3]), [gold], CLASSES, [1])

        err = T.finite_diff_check(f, [h, params.width_emb, params.w_cls, params.b_cls])
        assert err < 1e-4


class TestDecodeSpans:
    def test_no_winners(self):
        candidates = table((0, 0, [5.0, 1.0, 1.0]))
        assert decode_spans(candidates, CLASSES)[0] == []

    def test_greedy_overlap_resolution(self):
        candidates = table((0, 2, [0.0, 2.0, 0.0]), (1, 3, [0.0, 1.0, 0.0]))
        assert decode_spans(candidates, CLASSES)[0] == [EntitySpan(0, 2, "A")]

    def test_disjoint_kept(self):
        candidates = table((0, 0, [0.0, 2.0, 0.0]), (2, 3, [0.0, 0.0, 1.0]))
        assert decode_spans(candidates, CLASSES)[0] == [
            EntitySpan(0, 0, "A"),
            EntitySpan(2, 3, "B"),
        ]

    def test_global_logit_shift_invariance(self):
        rng = np.random.default_rng(9)
        candidates = table(
            *[(i, i + int(rng.integers(0, 2)), rng.standard_normal(3)) for i in range(5)]
        )
        base = decode_spans(candidates, CLASSES)[0]
        rows = zip(bounds(candidates), candidates.logits.values)
        shifted = table(*[(s, e, logits + 4.25) for (s, e), logits in rows])
        assert decode_spans(shifted, CLASSES)[0] == base

    def test_equal_logit_tie_resolved_by_position(self):
        candidates = table((2, 2, [0.0, 1.0, 0.0]), (0, 0, [0.0, 1.0, 0.0]))
        out = decode_spans(candidates, CLASSES)[0]
        assert out == [EntitySpan(0, 0, "A"), EntitySpan(2, 2, "A")]

    def test_output_non_overlapping_and_sorted(self):
        rng = np.random.default_rng(10)
        params = init_span(6, CLASSES, seed=11, max_width=3)
        table_8 = score_all_spans(Tensor(rng.standard_normal((8, 6))), params, [8])
        decoded = decode_spans(table_8, CLASSES)[0]
        used = set()
        last_start = -1
        for span in decoded:
            assert span.start >= last_start
            last_start = span.start
            positions = set(range(span.start, span.end + 1))
            assert not positions & used
            used |= positions


class TestContracts:
    def test_empty_candidates_rejected(self):
        with pytest.raises(ContractError):
            batch_span_loss(table(), [[]], CLASSES, [0])

    def test_max_width_one_allowed(self):
        params = init_span(6, CLASSES, seed=0, max_width=1)
        assert len(score_all_spans(make_h(3), params, [3])) == 3


class TestPackedTable:
    LENGTHS = [3, 1, 5]

    def packed(self, seed=20):
        return make_h(sum(self.LENGTHS), seed=seed), np.cumsum([0] + self.LENGTHS)

    def test_rows_match_per_span_representation(self):
        params = init_span(6, CLASSES, seed=21, max_width=3, d_w=4)
        h, offsets = self.packed()
        scores = score_all_spans(h, params, self.LENGTHS)
        alone = [len(score_all_spans(make_h(n), params, [n])) for n in self.LENGTHS]
        assert len(scores) == sum(alone)
        for row, (start, end) in enumerate(bounds(scores)):
            b = int(scores.sentence[row])
            block = h.values[offsets[b] : offsets[b + 1]]
            assert 0 <= start <= end < self.LENGTHS[b]
            rep = np.concatenate(
                [
                    block[start],
                    block[end],
                    block[start : end + 1].mean(axis=0),
                    params.width_emb.values[end - start],
                ]
            )
            expected = rep @ params.w_cls.values + params.b_cls.values
            assert np.abs(scores.logits.values[row] - expected).max() < 1e-12

    def test_sentence_rows_equal_one_sentence_tables(self):
        params = init_span(6, CLASSES, seed=22, max_width=2, d_w=4)
        h, offsets = self.packed(seed=23)
        scores = score_all_spans(h, params, self.LENGTHS)
        for b in range(len(self.LENGTHS)):
            block = Tensor(h.values[offsets[b] : offsets[b + 1]])
            alone = score_all_spans(block, params, [self.LENGTHS[b]])
            rows = scores.sentence == b
            assert bounds(alone) == list(zip(scores.starts[rows], scores.ends[rows]))
            np.testing.assert_allclose(
                scores.logits.values[rows], alone.logits.values, rtol=1e-12, atol=1e-14
            )

    def test_batch_loss_is_mean_of_sentence_losses(self):
        params = init_span(6, CLASSES, seed=24, max_width=3, d_w=4)
        h, offsets = self.packed(seed=25)
        golds = [[EntitySpan(0, 1, "A")], [], [EntitySpan(2, 4, "B"), EntitySpan(0, 0, "A")]]
        seeds = [7, 8, 9]
        batch = batch_span_loss(score_all_spans(h, params, self.LENGTHS), golds, CLASSES, seeds)
        alone = []
        for b, (gold, seed) in enumerate(zip(golds, seeds)):
            block = Tensor(h.values[offsets[b] : offsets[b + 1]])
            table = score_all_spans(block, params, [self.LENGTHS[b]])
            alone.append(batch_span_loss(table, [gold], CLASSES, [seed]).item())
        assert batch.item() == pytest.approx(np.mean(alone), rel=1e-12)

    def test_batch_loss_gradient(self):
        params = init_span(4, CLASSES, seed=26, max_width=2, d_w=3)
        h = Tensor(np.random.default_rng(27).standard_normal((6, 4)))
        golds = [[EntitySpan(1, 2, "B")], [EntitySpan(0, 0, "A")], []]

        def f():
            scores = score_all_spans(h, params, [3, 1, 2])
            return batch_span_loss(scores, golds, CLASSES, [1, 2, 3])

        err = T.finite_diff_check(f, [h, params.width_emb, params.w_cls, params.b_cls])
        assert err < 1e-4

    def test_lengths_must_tile_rows(self):
        params = init_span(6, CLASSES, seed=0, max_width=2)
        with pytest.raises(ContractError):
            score_all_spans(make_h(4), params, [2, 1])
        with pytest.raises(ContractError):
            score_all_spans(make_h(4), params, [4, 0])
