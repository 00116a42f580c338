"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a pytest failure on any test is that criterion's FAIL line.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from medext.cli import main as cli_main
from medext.corpus import (
    Corpus,
    EntitySpan,
    TagScheme,
    generate_synthetic_corpus,
    spans_to_tags,
    tags_to_spans,
)
from medext.crf_head import crf_nll, emissions, init_crf, log_partition_batch, viterbi
from medext.encoder import EncoderConfig, encode, init_params
from medext.evaluation import f1_from_pr
from medext.fewshot import CurveConfig, run_curve
from medext.pipeline import evaluate_split
from medext.relation_head import init_relation, relation_loss
from medext.seq2seq_head import init_seq2seq, teacher_forced_loss
from medext.span_head import batch_span_loss, init_span, score_all_spans
from medext.tensor import Tensor, finite_diff_check
from medext.training import PretrainConfig, TrainConfig, pretrain, train
from oracles import brute_force_oracle, entity_pool


@pytest.fixture(scope="module")
def bundled_corpus():
    return generate_synthetic_corpus(1000, seed=7)


@pytest.fixture(scope="module")
def pretrained(bundled_corpus):
    return pretrain(bundled_corpus, PretrainConfig(steps=400, batch_size=8, seed=0))


def oracle_instances(count=120):
    rng = np.random.default_rng(np.random.SeedSequence([815]))
    for _ in range(count):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 5))
        yield (
            Tensor(rng.standard_normal((n, k))),
            Tensor(rng.standard_normal((k, k))),
            Tensor(rng.standard_normal(k)),
            Tensor(rng.standard_normal(k)),
        )


def test_criterion_1_crf_oracle_equivalence():
    started = time.monotonic()
    checked = 0
    for e, trans, start, stop in oracle_instances():
        log_z, best, best_score = brute_force_oracle(e, trans, start, stop)
        z = log_partition_batch(e, [e.shape[0]], trans, start, stop).sum()
        assert abs(z.item() - log_z) < 1e-10
        tags, score = viterbi(e, trans, start, stop)
        assert tags == best
        assert abs(score - best_score) < 1e-10
        checked += 1
    elapsed = time.monotonic() - started
    assert checked >= 100
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 1 PASS: CRF forward/Viterbi match brute force on "
        f"{checked} instances within 1e-10 in {elapsed:.1f}s"
    )


def test_criterion_2_gradient_suite():
    started = time.monotonic()
    scheme = TagScheme(["D"])
    config = EncoderConfig(vocab_size=12, d_model=8, heads=2, layers=1, d_ff=16, max_len=8)
    ids = [4, 5, 6]
    tags = [scheme.begin_index("D"), scheme.inside_index("D"), 0]
    spans = [EntitySpan(0, 1, "D")]
    results = {}

    def check(name, head_params, loss_of):
        encoder = init_params(config, seed=10)
        params = list(encoder.named().values()) + list(head_params.named().values())
        err = finite_diff_check(lambda: loss_of(encode(ids, encoder, config)), params)
        assert err < 1e-4, f"{name}: relative error {err:.2e}"
        results[name] = err

    crf = init_crf(config.d_model, scheme.num_tags, seed=11)
    check(
        "crf", crf,
        lambda h: crf_nll(emissions(h, crf), crf.trans, crf.start, crf.stop, tags, [3]),
    )

    span = init_span(config.d_model, scheme.classes, seed=12, max_width=2, d_w=4)
    check(
        "span", span,
        lambda h: batch_span_loss(score_all_spans(h, span, [3]), [spans], span.classes, [0]),
    )

    seq = init_seq2seq(config.d_model, scheme.num_tags, seed=13, d_t=4)
    check("seq2seq", seq, lambda h: teacher_forced_loss(h, tags, seq, [3]))

    rel = init_relation(config.d_model, seed=14)
    check(
        "relation", rel,
        lambda h: relation_loss(
            [(entity_pool(h, EntitySpan(0, 1, "D")), entity_pool(h, EntitySpan(2, 2, "D")), "treats")],
            rel,
        ),
    )
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    worst = max(results.values())
    print(
        f"\nACCEPTANCE 2 PASS: encoder+head gradients match central differences "
        f"(worst {worst:.2e} < 1e-4) in {elapsed:.1f}s"
    )


def test_criterion_3_published_f1_arithmetic():
    rows = [
        (0.852, 0.827, 0.839),
        (0.884, 0.861, 0.872),
        (0.897, 0.879, 0.888),
        (0.879, 0.856, 0.867),
        (0.881, 0.863, 0.872),
        (0.894, 0.878, 0.886),
        (0.867, 0.852, 0.859),
    ]
    for p, r, expected in rows:
        assert abs(f1_from_pr(p, r) - expected) <= 0.0005, (p, r, expected)
    print(f"\nACCEPTANCE 3 PASS: all {len(rows)} published P/R rows reproduce F1 within 0.0005")


def test_criterion_4_bio_round_trip():
    scheme = TagScheme()
    rng = np.random.default_rng(np.random.SeedSequence([44]))
    for _ in range(10_000):
        n = int(rng.integers(1, 16))
        spans, used = [], [False] * n
        for _ in range(rng.integers(0, 5)):
            start = int(rng.integers(0, n))
            end = min(n - 1, start + int(rng.integers(0, 4)))
            if any(used[start : end + 1]):
                continue
            for i in range(start, end + 1):
                used[i] = True
            spans.append(
                EntitySpan(start, end, scheme.classes[int(rng.integers(len(scheme.classes)))])
            )
        spans.sort(key=lambda s: s.start)
        assert tags_to_spans(spans_to_tags(spans, n, scheme), scheme, "strict") == spans

    repair_scheme = TagScheme(["D"])
    repaired = tags_to_spans([0, repair_scheme.inside_index("D")], repair_scheme, "repair")
    assert repaired == [EntitySpan(1, 1, "D")]
    print("\nACCEPTANCE 4 PASS: 10,000 random BIO round trips plus repair-mode promotion")


def test_criterion_5_overfit_contract():
    source = generate_synthetic_corpus(10, seed=42)
    corpus = Corpus(source.sentences, source.scheme, ["train"] * 10)
    checkpoint = None
    steps_used = 0
    f1 = 0.0
    while steps_used < 1000:
        checkpoint = train(
            corpus,
            TrainConfig(steps=100, batch_size=10, seed=5, head="crf"),
            init=checkpoint,
        )
        steps_used += 100
        f1 = evaluate_split(checkpoint.model, corpus, "train").entities.micro.f1
        if f1 == 1.0:
            break
    assert f1 == 1.0, f"training-set F1 only reached {f1:.3f} after {steps_used} steps"
    print(f"\nACCEPTANCE 5 PASS: CRF head reached training-set F1 = 1.0 in {steps_used} steps")


def test_criterion_6_pretraining_helps(bundled_corpus, pretrained):
    wins = 0
    outcomes = []
    for seed in range(5):
        config = TrainConfig(steps=150, batch_size=4, seed=seed, head="crf")
        tuned = train(bundled_corpus, config, init=pretrained)
        f1_pre = evaluate_split(tuned.model, bundled_corpus, "test").entities.micro.f1
        scratch = train(bundled_corpus, config)
        f1_rand = evaluate_split(scratch.model, bundled_corpus, "test").entities.micro.f1
        wins += f1_pre >= f1_rand
        outcomes.append(f"seed {seed}: {f1_pre:.3f} vs {f1_rand:.3f}")
    assert wins >= 4, "; ".join(outcomes)
    print(
        f"\nACCEPTANCE 6 PASS: pretrained init >= random init on test F1 in {wins}/5 seeds "
        f"({'; '.join(outcomes)})"
    )


def test_criterion_7_fewshot_curve_monotone(bundled_corpus, pretrained):
    config = CurveConfig(
        k_values=(1, 10, 50),
        seeds_per_k=5,
        base=TrainConfig(steps=150, batch_size=4, seed=1, head="crf"),
    )
    result = run_curve(bundled_corpus, config, init=pretrained)
    f1_1 = result.median_f1(1)
    f1_10 = result.median_f1(10)
    f1_50 = result.median_f1(50)
    assert f1_50 >= f1_10 >= f1_1, (f1_1, f1_10, f1_50)
    print(
        f"\nACCEPTANCE 7 PASS: median F1 monotone over shots "
        f"(k=1: {f1_1:.3f}, k=10: {f1_10:.3f}, k=50: {f1_50:.3f})"
    )


def test_criterion_8_cli_determinism(tmp_path):
    def tree(root: Path):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    corpus_dir = tmp_path / "corpus"
    assert cli_main(["gen-corpus", "--size", "40", "--corpus-seed", "5", "--out", str(corpus_dir)]) == 0
    tags = str(corpus_dir / "corpus.tsv")
    ann = str(corpus_dir / "annotations.jsonl")
    data = ["--tags", tags, "--annotations", ann]

    model_dir = tmp_path / "model-a"
    assert cli_main(["train", *data, "--steps", "10", "--out", str(model_dir)]) == 0
    checkpoint = str(model_dir / "model.json")
    text = tmp_path / "raw.txt"
    text.write_text("records indicate a history of influenza since childhood\n")

    invocations = {
        "gen-corpus": lambda out: ["gen-corpus", "--size", "40", "--corpus-seed", "5", "--out", out],
        "pretrain": lambda out: ["pretrain", *data, "--steps", "5", "--out", out],
        "train": lambda out: ["train", *data, "--steps", "10", "--out", out],
        "eval": lambda out: ["eval", "--checkpoint", checkpoint, *data, "--out", out],
        "fewshot-curve": lambda out: [
            "fewshot-curve", *data, "--set", "curve.k_values=[1,2]",
            "--set", "curve.seeds_per_k=2", "--steps", "3", "--out", out,
        ],
        "compare-heads": lambda out: ["compare-heads", *data, "--steps", "3", "--out", out],
        "predict": lambda out: [
            "predict", "--checkpoint", checkpoint, "--input", str(text),
            "--out-file", f"{out}/pred.jsonl",
        ],
    }
    for name, argv_of in invocations.items():
        first = tmp_path / f"{name}-1"
        second = tmp_path / f"{name}-2"
        assert cli_main(argv_of(str(first))) == 0, name
        assert cli_main(argv_of(str(second))) == 0, name
        assert tree(first) == tree(second), f"{name} outputs differ between re-runs"
    print(f"\nACCEPTANCE 8 PASS: all {len(invocations)} subcommands re-run byte-identically")


def test_criterion_9_normalization_identity():
    worst = 0.0
    for e, trans, start, stop in oracle_instances():
        log_z, _, _ = brute_force_oracle(e, trans, start, stop)
        n, k = e.shape
        total = 0.0
        for seq in itertools.product(range(k), repeat=n):
            score = (
                start.values[seq[0]]
                + stop.values[seq[-1]]
                + sum(e.values[i, t] for i, t in enumerate(seq))
                + sum(trans.values[a, b] for a, b in zip(seq, seq[1:]))
            )
            total += math.exp(score - log_z)
        worst = max(worst, abs(total - 1.0))
    assert worst < 1e-10
    print(f"\nACCEPTANCE 9 PASS: sequence probabilities sum to 1 (worst |error| {worst:.1e})")
