import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from medext import fewshot
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
from medext.training import PretrainConfig, TrainConfig, pretrain, train


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


def corpus_of(span_classes, splits):
    """Four-word sentences, one per entry of ``span_classes``: the entry's
    classes in turn are the spans on words 0 and 2.  A class outside the
    scheme (no loader makes one) gets no tag."""
    scheme = TagScheme(["A", "B", "C", "D"])
    sentences = []
    for classes in span_classes:
        spans = [EntitySpan(2 * j, 2 * j, cls) for j, cls in enumerate(classes)]
        tags = spans_to_tags([s for s in spans if s.cls in scheme.classes], 4, scheme)
        sentences.append(Sentence([Token(f"w{j}") for j in range(4)], tags, spans))
    return Corpus(sentences, scheme, splits)


def assert_same_episodes(corpus, ks, seeds):
    """sample_k_shot and the two-pass sampler it replaced pick the same support
    sentences in the same order and credit each class alike, key order included."""
    for k in ks:
        for seed in seeds:
            new, old = sample_k_shot(corpus, k, seed), oracles.sample_k_shot(corpus, k, seed)
            assert new.support == old.support, (k, seed)
            assert list(new.achieved.items()) == list(old.achieved.items()), (k, seed)


class TestOnePassSampler:
    @pytest.mark.parametrize("size", [0, 5, 30, 200, 1000])
    def test_equals_the_two_pass_sampler(self, size):
        assert_same_episodes(generate_synthetic_corpus(size, seed=size + 1), range(101), (0, 7, 11))

    def test_class_missing_from_the_train_split(self):
        classes = [("A",), ("B",), ("A", "B"), ("C",), ("D",), ("D",)]
        corpus = corpus_of(classes, ["train"] * 4 + ["test"] * 2)
        assert_same_episodes(corpus, range(8), range(10))
        assert sample_k_shot(corpus, 3, seed=0).achieved == {"A": 2, "B": 2, "C": 1, "D": 0}

    def test_sentences_that_hold_two_classes(self):
        rng = np.random.default_rng(3)
        pairs = [tuple(rng.permutation(["A", "B", "C", "D"])[:2].tolist()) for _ in range(30)]
        classes = pairs + [("A",), ("D",), ("Z", "B"), ("C", "Z")]  # Z is outside the scheme
        corpus = corpus_of(classes, ["train"] * 30 + ["val", "train", "train", "train"])
        assert_same_episodes(corpus, range(16), range(10))


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

    def test_k_beyond_the_split_stops_with_the_split(self):
        """k = 10**12 picks what k = the train split's size picks, every
        sentence that holds a class, and returns at once.  It runs in a child
        process with a time limit, so rounds that never stop fail the test."""
        corpus = generate_synthetic_corpus(200, seed=7)
        train_ids = corpus.split_indices("train")
        expected = sample_k_shot(corpus, len(train_ids), seed=3)
        script = (
            "import json\n"
            "from medext.corpus import generate_synthetic_corpus\n"
            "from medext.fewshot import sample_k_shot\n"
            "episode = sample_k_shot(generate_synthetic_corpus(200, seed=7), 10**12, seed=3)\n"
            "print(json.dumps([episode.support, list(episode.achieved.items())]))\n"
        )
        src = str(Path(fewshot.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True,
            timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        support, achieved = json.loads(out.stdout)
        assert support == expected.support
        assert [tuple(item) for item in achieved] == list(expected.achieved.items())
        assert sorted(support) == [i for i in train_ids if corpus.sentences[i].spans]


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


def test_run_seeds_are_distinct_above_31_seeds_per_k(monkeypatch):
    """Run seeds are base.seed * 911 + stride * k + rep with a stride of at
    least seeds_per_k, so (k, rep 31) and (k + 1, rep 0) differ."""
    corpus = generate_synthetic_corpus(30, seed=5)
    config = CurveConfig(k_values=(1, 2), seeds_per_k=32, base=TrainConfig(steps=0, lambda_re=0.0))
    init = train(corpus, config.base)
    seeds = []

    def spy(corpus, config, init=None):
        seeds.append(config.seed)
        return train(corpus, config, init=init)

    monkeypatch.setattr(fewshot, "train", spy)
    fewshot.run_curve(corpus, config, init=init)
    assert len(seeds) == 64 and len(set(seeds)) == 64


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
