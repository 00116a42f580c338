import pytest

from medext.corpus import (
    Corpus,
    EntitySpan,
    Sentence,
    TagScheme,
    Token,
    generate_synthetic_corpus,
    spans_to_tags,
)
from medext.errors import ContractError
from medext.fewshot import (
    CurveConfig,
    curve_csv,
    run_curve,
    sample_k_shot,
    summary_csv,
)
from medext.training import PretrainConfig, TrainConfig, pretrain


def single_entity_corpus(per_class=3):
    """Each sentence holds exactly one single-class entity; all train split."""
    scheme = TagScheme(["A", "B", "C", "D"])
    sentences = []
    for cls in scheme.classes:
        for i in range(per_class):
            words = ["note", f"{cls.lower()}{i}", "recorded"]
            spans = [EntitySpan(1, 1, cls)]
            sentences.append(
                Sentence([Token(w) for w in words], spans_to_tags(spans, 3, scheme), spans)
            )
    return Corpus(sentences, scheme, ["train"] * len(sentences))


class TestSampleKShot:
    def test_k_zero_empty_support(self):
        corpus = single_entity_corpus()
        assert sample_k_shot(corpus, 0, seed=1).support == []

    def test_exact_count_for_single_class_sentences(self):
        # 4 classes, one entity per sentence, k=2 -> 8 support sentences
        episode = sample_k_shot(single_entity_corpus(), 2, seed=5)
        assert len(episode.support) == 8
        assert episode.feasible()

    def test_same_seed_identical(self):
        corpus = generate_synthetic_corpus(200, seed=3)
        a = sample_k_shot(corpus, 5, seed=9)
        b = sample_k_shot(corpus, 5, seed=9)
        assert a.support == b.support and a.achieved == b.achieved

    @pytest.mark.parametrize("seed", range(4))
    def test_greedy_extension_subset_property(self, seed):
        corpus = generate_synthetic_corpus(300, seed=11)
        previous = set()
        for k in (1, 3, 8, 20):
            current = set(sample_k_shot(corpus, k, seed=seed).support)
            assert previous <= current
            previous = current

    def test_support_only_from_train_split(self):
        corpus = generate_synthetic_corpus(200, seed=13)
        held_out = set(corpus.split_indices("val")) | set(corpus.split_indices("test"))
        episode = sample_k_shot(corpus, 10, seed=2)
        assert not set(episode.support) & held_out

    def test_crediting_counts_cover_k(self):
        corpus = generate_synthetic_corpus(400, seed=17)
        episode = sample_k_shot(corpus, 6, seed=3)
        for cls, count in episode.achieved.items():
            assert count >= 6, cls

    def test_infeasible_k_recorded_not_fatal(self):
        corpus = single_entity_corpus(per_class=2)
        episode = sample_k_shot(corpus, 5, seed=0)
        assert not episode.feasible()
        assert all(count == 2 for count in episode.achieved.values())
        assert len(episode.support) == 8  # every train sentence

    def test_no_duplicate_support_sentences(self):
        corpus = generate_synthetic_corpus(300, seed=19)
        episode = sample_k_shot(corpus, 12, seed=4)
        assert len(episode.support) == len(set(episode.support))


@pytest.fixture(scope="module")
def curve():
    # the curve protocol fine-tunes every episode from one shared pretrained
    # checkpoint, which also supplies the full train-split vocabulary
    corpus = generate_synthetic_corpus(150, seed=23)
    pre = pretrain(corpus, PretrainConfig(steps=2, batch_size=4, seed=0))
    config = CurveConfig(
        k_values=(1, 2),
        seeds_per_k=2,
        base=TrainConfig(steps=5, batch_size=2, seed=0, lambda_re=0.0),
    )
    return run_curve(corpus, config, init=pre), corpus, config, pre


class TestRunCurve:

    def test_row_counts(self, curve):
        result, _, config, _ = curve
        assert len(result.rows) == len(config.k_values) * config.seeds_per_k
        assert [s.k for s in result.summary] == list(config.k_values)

    def test_pure_function_of_inputs(self, curve):
        result, corpus, config, pre = curve
        again = run_curve(corpus, config, init=pre)
        assert [
            (r.k, r.seed, r.precision, r.recall, r.f1) for r in result.rows
        ] == [(r.k, r.seed, r.precision, r.recall, r.f1) for r in again.rows]

    def test_summary_statistics_consistent(self, curve):
        result, _, _, _ = curve
        for summary in result.summary:
            f1s = [row.f1 for row in result.rows if row.k == summary.k]
            assert summary.min_f1 == min(f1s)
            assert summary.max_f1 == max(f1s)
            assert min(f1s) <= summary.median_f1 <= max(f1s)

    def test_csv_shapes(self, curve):
        result, _, config, _ = curve
        lines = curve_csv(result).strip().split("\n")
        assert lines[0] == "k,seed,precision,recall,f1"
        assert len(lines) == 1 + len(result.rows)
        summary_lines = summary_csv(result).strip().split("\n")
        assert summary_lines[0] == "k,median_f1,min_f1,max_f1"
        assert len(summary_lines) == 1 + len(config.k_values)


class TestCurveConfig:
    def test_descending_k_rejected(self):
        with pytest.raises(ContractError):
            CurveConfig(k_values=(5, 1))

    def test_repeated_k_rejected(self):
        with pytest.raises(ContractError, match="k_values must be positive and strictly ascending"):
            CurveConfig(k_values=(1, 5, 5))

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ContractError):
            CurveConfig(k_values=(0, 1))
