import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medext.corpus import EntitySpan, RelationInstance
from medext.errors import ContractError
from medext.evaluation import (
    ClassCounts,
    EvalReport,
    entity_prf,
    f1_from_pr,
    relation_prf,
    report_markdown,
    resolve_relations,
    token_accuracy,
)
import oracles


def spans(*triples):
    return [EntitySpan(s, e, c) for s, e, c in triples]


class TestF1FromPr:
    # published precision/recall pairs and the F1 each table reports
    TABLE_ROWS = [
        (0.852, 0.827, 0.839),
        (0.884, 0.861, 0.872),
        (0.897, 0.879, 0.888),
        (0.879, 0.856, 0.867),
        (0.881, 0.863, 0.872),
        (0.894, 0.878, 0.886),
        (0.867, 0.852, 0.859),
    ]

    @pytest.mark.parametrize("p,r,expected", TABLE_ROWS)
    def test_reproduces_published_rows(self, p, r, expected):
        assert abs(f1_from_pr(p, r) - expected) <= 0.0005

    def test_boundary_values(self):
        assert f1_from_pr(1.0, 1.0) == 1.0
        assert f1_from_pr(0.0, 0.7) == 0.0
        assert f1_from_pr(0.0, 0.0) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            f1_from_pr(1.2, 0.5)
        with pytest.raises(ContractError):
            f1_from_pr(0.5, -0.1)

    def test_harmonic_mean_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p, r = rng.random(), rng.random()
            f1 = f1_from_pr(p, r)
            if p > 0 and r > 0:
                assert min(p, r) <= f1 <= max(p, r)
                assert f1 == pytest.approx(2 / (1 / p + 1 / r))


class TestEntityPrf:
    def test_perfect_match(self):
        gold = [spans((1, 2, "A")), spans((0, 0, "B"))]
        report = entity_prf(gold, gold)
        assert (report.micro.precision, report.micro.recall, report.micro.f1) == (1, 1, 1)

    def test_hand_counted_case(self):
        gold = [spans((1, 2, "A"))]
        pred = [spans((1, 2, "A"), (4, 4, "A"))]
        report = entity_prf(gold, pred)
        assert report.micro.tp == 1 and report.micro.fp == 1 and report.micro.fn == 0
        assert report.micro.precision == pytest.approx(0.5)
        assert report.micro.recall == pytest.approx(1.0)
        assert report.micro.f1 == pytest.approx(2 / 3)

    def test_empty_predictions(self):
        report = entity_prf([spans((0, 1, "A"))], [[]])
        assert (report.micro.precision, report.micro.recall, report.micro.f1) == (0, 0, 0)

    def test_boundary_or_class_mismatch_is_wrong(self):
        gold = [spans((1, 2, "A"))]
        assert entity_prf(gold, [spans((1, 3, "A"))]).micro.tp == 0
        assert entity_prf(gold, [spans((1, 2, "B"))]).micro.tp == 0

    def test_swap_exchanges_precision_and_recall(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            gold, pred = [], []
            for _ in range(4):
                gold.append(
                    spans(*{(int(s), int(s), "A") for s in rng.integers(0, 8, size=3)})
                )
                pred.append(
                    spans(*{(int(s), int(s), "A") for s in rng.integers(0, 8, size=3)})
                )
            forward = entity_prf(gold, pred)
            backward = entity_prf(pred, gold)
            assert forward.micro.precision == pytest.approx(backward.micro.recall)
            assert forward.micro.recall == pytest.approx(backward.micro.precision)
            assert forward.micro.f1 == pytest.approx(backward.micro.f1)

    def test_macro_f1_is_class_mean(self):
        gold = [spans((0, 0, "A"), (2, 2, "B"))]
        pred = [spans((0, 0, "A"), (3, 3, "B"))]  # A perfect, B wrong
        report = entity_prf(gold, pred)
        expected = (report.per_class["A"].f1 + report.per_class["B"].f1) / 2
        assert report.macro_f1 == pytest.approx(expected)
        assert report.macro_f1 == pytest.approx(0.5)

    def test_micro_counts_are_class_sums(self):
        gold = [spans((0, 0, "A"), (2, 3, "B")), spans((1, 1, "B"))]
        pred = [spans((0, 0, "A"), (2, 2, "B")), spans((1, 1, "B"), (3, 3, "A"))]
        report = entity_prf(gold, pred)
        assert report.micro.tp == sum(c.tp for c in report.per_class.values())
        assert report.micro.fp == sum(c.fp for c in report.per_class.values())
        assert report.micro.fn == sum(c.fn for c in report.per_class.values())

    def test_duplicate_predictions_one_tp_extras_fp(self):
        gold = [spans((1, 2, "A"))]
        pred = [spans((1, 2, "A"), (1, 2, "A"), (1, 2, "A"))]
        report = entity_prf(gold, pred)
        assert report.micro.tp == 1
        assert report.micro.fp == 2
        assert report.micro.fn == 0

    def test_misaligned_sentence_counts_rejected(self):
        with pytest.raises(ContractError):
            entity_prf([[]], [[], []])


class TestRelationPrf:
    def triple(self, h, t, label):
        return ((h, h, "A"), (t, t, "A"), label)

    def test_identical_sets(self):
        gold = [[self.triple(0, 2, "treats")]]
        report = relation_prf(gold, gold)
        assert report.micro.f1 == 1.0

    def test_wrong_label_on_only_pair(self):
        gold = [[self.triple(0, 2, "treats")]]
        pred = [[self.triple(0, 2, "causes")]]
        report = relation_prf(gold, pred)
        assert (report.micro.precision, report.micro.recall, report.micro.f1) == (0, 0, 0)

    def test_half_right(self):
        gold = [[self.triple(0, 2, "treats"), self.triple(2, 0, "causes")]]
        pred = [[self.triple(0, 2, "treats"), self.triple(1, 0, "causes")]]
        report = relation_prf(gold, pred)
        assert report.micro.precision == pytest.approx(0.5)
        assert report.micro.recall == pytest.approx(0.5)
        assert report.micro.f1 == pytest.approx(0.5)

    def test_resolve_relations_drops_no_relation(self):
        span_list = spans((0, 0, "A"), (2, 2, "B"))
        relations = [
            RelationInstance(0, 1, "treats"),
            RelationInstance(1, 0, "no-relation"),
        ]
        triples = resolve_relations(span_list, relations)
        assert triples == [((0, 0, "A"), (2, 2, "B"), "treats")]


# (start, end, class) over a small range, so that draws repeat and match often
KEY = st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from("ABC"))
TRIPLE = st.tuples(KEY, KEY, st.sampled_from(["treats", "causes"]))


@st.composite
def split_pair(draw, item):
    """Gold and predicted items of the same number of sentences, any of them empty."""
    n = draw(st.integers(0, 6))
    sentences = st.lists(st.lists(item, max_size=6), min_size=n, max_size=n)
    return draw(sentences), draw(sentences)


class TestOnePassCount:
    """The split-wide count equals the per-sentence oracle, class by class."""

    def assert_same_counts(self, got: EvalReport, want: EvalReport):
        assert got.per_class == want.per_class
        assert got.micro == want.micro
        assert got.macro_f1 == want.macro_f1

    @settings(max_examples=200, deadline=None)
    @given(pair=split_pair(KEY.map(lambda key: EntitySpan(*key))))
    @example(pair=(  # duplicates on both sides, empty sentences, a key in two sentences
        [spans((0, 1, "A"), (0, 1, "A"), (2, 2, "B")), [], spans((1, 1, "A"))],
        [spans((0, 1, "A"), (0, 1, "A"), (0, 1, "A")), spans((0, 0, "B"), (1, 1, "A")), []],
    ))
    def test_entities(self, pair):
        gold, pred = pair
        want = oracles.count_exact_match_one(gold, pred, oracles.entity_key)
        self.assert_same_counts(entity_prf(gold, pred), want)

    @settings(max_examples=200, deadline=None)
    @given(pair=split_pair(TRIPLE))
    def test_relations(self, pair):
        gold, pred = pair
        want = oracles.count_exact_match_one(gold, pred, lambda triple: triple)
        self.assert_same_counts(relation_prf(gold, pred), want)


class TestMacroF1Order:
    # (tp, fp, fn) per class, whose F1 sum rounds differently in different orders
    COUNTS = {"A": (9, 2, 4), "B": (3, 1, 9), "C": (5, 8, 9), "D": (3, 4, 1)}

    def test_macro_f1_does_not_depend_on_class_order(self):
        """The per-class F1 are summed in sorted class order, so the insertion
        order of ``per_class`` (a set's iteration order, which depends on
        PYTHONHASHSEED) cannot change the last bit."""
        values = {
            EvalReport(per_class={c: ClassCounts(*self.COUNTS[c]) for c in order}).macro_f1
            for order in itertools.permutations(self.COUNTS)
        }
        assert values == {0.510206228956229}


class TestTokenAccuracy:
    def test_exact(self):
        assert token_accuracy([[0, 1, 2]], [[0, 1, 2]]) == 1.0

    def test_partial(self):
        assert token_accuracy([[0, 1], [2, 2]], [[0, 0], [2, 2]]) == pytest.approx(0.75)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            token_accuracy([[0, 1]], [[0]])

    @pytest.mark.parametrize("gold, pred", [([[0], [1]], [[0]]), ([[0]], [[0], [1]])])
    def test_sentence_count_mismatch_rejected(self, gold, pred):
        """A missing or extra sentence is an error, not a shorter score."""
        with pytest.raises(ContractError, match=f"{len(gold)} gold vs {len(pred)} predicted"):
            token_accuracy(gold, pred)


class TestReportMarkdown:
    def test_table_shape(self):
        gold = [spans((0, 0, "A"))]
        report = entity_prf(gold, gold)
        text = report_markdown([("crf", report), ("span", report)])
        lines = text.strip().split("\n")
        assert lines[0] == "| Method | Precision | Recall | F1-Score |"
        assert len(lines) == 4
        assert lines[2].startswith("| crf | 1.000 |")

    def test_as_dict_round_trips_via_json(self):
        import json

        gold = [spans((0, 0, "A"), (2, 2, "B"))]
        pred = [spans((0, 0, "A"))]
        report = entity_prf(gold, pred)
        report.token_accuracy = 0.9
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["micro"]["tp"] == 1
        assert payload["per_class"]["B"]["fn"] == 1
        assert payload["token_accuracy"] == 0.9
