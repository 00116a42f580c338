import contextlib
import dataclasses
import gc
import importlib.util
import json
import math
import tracemalloc
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import medext
import medext.cli
from medext import corpus as C
from medext import tensor as T
from medext import pipeline, training
from medext.corpus import (
    NO_RELATION,
    Corpus,
    build_vocab,
    generate_synthetic_corpus,
    tokenize_corpus,
)
from medext.crf_head import CRFParams, emissions, sequence_score
from medext.encoder import EncoderConfig, encode, init_params, mlm_step
from medext.errors import CheckpointError, ContractError
from medext.pipeline import EVAL_CHUNK, encode_words, evaluate_split
from medext.relation_head import relation_loss
from medext.seq2seq_head import teacher_forced_loss
from medext.span_head import SpanHeadParams, batch_span_loss, score_all_spans
from medext.tensor import Tensor
from medext.training import (
    OptimizerState,
    PretrainConfig,
    TrainConfig,
    _BatchSampler,
    adam_step,
    joint_loss,
    load_checkpoint,
    pretrain,
    save_checkpoint,
    train,
)
from oracles import entity_pool, logsumexp, logsumexp_rows, per_sentence_mlm, transpose


def small_corpus(size=20, seed=1):
    corpus = generate_synthetic_corpus(size, seed=seed)
    return Corpus(corpus.sentences, corpus.scheme, ["train"] * size)


def params_equal(a, b):
    pa, pb = a.parameters(), b.parameters()
    return set(pa) == set(pb) and all(
        np.array_equal(pa[k].values, pb[k].values) for k in pa
    )


class TestJointLoss:
    def test_lambda_zero_is_ner_only(self):
        ner, re = Tensor(2.0), Tensor(9.0)
        assert joint_loss(ner, re, 0.0) is ner

    def test_no_relation_loss_is_ner_only(self):
        ner = Tensor(2.0)
        assert joint_loss(ner, None, 1.0) is ner

    def test_weighted_sum(self):
        assert joint_loss(Tensor(2.0), Tensor(3.0), 1.0).item() == pytest.approx(5.0)
        assert joint_loss(Tensor(2.0), Tensor(3.0), 0.5).item() == pytest.approx(3.5)

    def test_gradient_reaches_both_terms_iff_weighted(self):
        for lam, expect_re_grad in ((0.0, False), (1.0, True)):
            T.reset_tape()
            ner = Tensor(2.0)
            re = Tensor(3.0)
            T.backward(joint_loss(T.mul(ner, ner), T.mul(re, re), lam))
            assert ner.grad is not None
            assert (re.grad is not None) == expect_re_grad


class TestAdam:
    def test_clipping_equals_prescaled_gradients(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((3, 4))
        grad = rng.standard_normal((3, 4)) * 10
        norm = np.sqrt((grad**2).sum())

        a = Tensor(values.copy())
        a.grad = grad.copy()
        adam_step(T.FlatParams({"p": a}), OptimizerState(), 1e-2, clip_norm=1.0)

        b = Tensor(values.copy())
        b.grad = grad / norm  # pre-clipped by hand
        adam_step(T.FlatParams({"p": b}), OptimizerState(), 1e-2, clip_norm=1e9)
        assert np.allclose(a.values, b.values, atol=1e-15)

    def test_zero_grad_leaves_parameter_fixed(self):
        p = Tensor(np.ones(3))
        params, state = T.FlatParams({"p": p}), OptimizerState()
        for _ in range(5):
            p.grad = None
            adam_step(params, state, 1e-2, 1.0)
        assert np.array_equal(p.values, np.ones(3))

    def test_descends_a_quadratic(self):
        p = Tensor([5.0])
        params, state = T.FlatParams({"p": p}), OptimizerState()
        for _ in range(300):
            p.grad = 2 * p.values
            adam_step(params, state, 5e-2, clip_norm=100.0)
        assert abs(p.values[0]) < 0.1


def per_array_adam(record: dict):
    """adam_step as it was before the flat parameter vector: one array at a
    time, kept as the oracle of the flat step.  Its moments live in
    ``record["m"]`` and ``record["v"]``; it also notes whether each step
    clipped and which gradients were None."""

    def step(params, state, learning_rate, clip_norm):
        grads = {
            key: (p.grad if p.grad is not None else np.zeros_like(p.values))
            for key, p in params.items()
        }
        total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        factor = clip_norm / total if total > clip_norm else 1.0
        record["clipped"].append(total > clip_norm)
        record["none"].update(key for key, p in params.items() if p.grad is None)
        state.step += 1
        correction1 = 1.0 - training.BETA1**state.step
        correction2 = 1.0 - training.BETA2**state.step
        for key, p in params.items():
            g = grads[key] * factor
            m = record["m"].setdefault(key, np.zeros_like(p.values))
            v = record["v"].setdefault(key, np.zeros_like(p.values))
            m += (1.0 - training.BETA1) * (g - m)
            v += (1.0 - training.BETA2) * (g * g - v)
            p.values -= learning_rate * (m / correction1) / (np.sqrt(v / correction2) + training.EPS)

    return step


def assert_packed(model):
    """Every parameter's values is the view of the model's flat vector at its
    layout place, so no parameter has been detached by rebinding ``values``."""
    params = model.parameters()
    for (key, shape, at), p in zip(params.layout, params.values()):
        assert p.values.shape == shape and p.values.flags.c_contiguous, key
        assert p.values.ctypes.data == params.flat[at:].ctypes.data, key
        assert np.shares_memory(p.values, params.flat), key
    assert at + math.prod(shape) == params.flat.size


class TestFlatAdam:
    # clip norms near each run's median gradient norm, so some steps clip
    CLIP = {"crf": 20.0, "span": 5.0, "seq2seq": 5.0, "mlm": 5.2}

    @pytest.mark.parametrize("head", ["crf", "span", "seq2seq", "mlm"])
    def test_bitwise_equal_to_per_array_oracle(self, tmp_path, monkeypatch, head):
        corpus = small_corpus(30, seed=4)

        def run(steps, init=None, log=None):
            if head == "mlm":
                cfg = PretrainConfig(steps=steps, batch_size=4, seed=5, clip_norm=self.CLIP[head])
                return pretrain(corpus, cfg, log=log)
            cfg = TrainConfig(steps=steps, seed=5, head=head, clip_norm=self.CLIP[head])
            return train(corpus, cfg, init=init, log=log)

        flat_log = []
        if head == "mlm":
            flat = run(30, log=flat_log)
        else:  # 15 steps, a round trip through a checkpoint file, 15 more
            path = tmp_path / "model.json"
            save_checkpoint(run(15, log=flat_log), path)
            flat = run(15, init=load_checkpoint(path), log=flat_log)
        record = {"m": {}, "v": {}, "clipped": [], "none": set()}
        monkeypatch.setattr(training, "adam_step", per_array_adam(record))
        oracle_log = []
        oracle = run(30, log=oracle_log)

        assert flat_log == oracle_log
        assert flat.model.parameters().flat.tobytes() == oracle.model.parameters().flat.tobytes()
        assert flat.optimizer.step == oracle.optimizer.step == 30
        for name in ("m", "v"):
            moments = getattr(flat.optimizer, name)
            assert list(moments) == list(record[name])
            assert all(moments[k].tobytes() == a.tobytes() for k, a in record[name].items())
        assert True in record["clipped"] and False in record["clipped"]
        if head != "mlm":
            assert "encoder/mlm_proj" in record["none"]

    def test_moments_follow_the_layout(self):
        a = Tensor(np.arange(6.0).reshape(2, 3).copy())
        b = Tensor(np.ones(2))
        a.grad, b.grad = np.full((2, 3), 0.5), None
        state = OptimizerState()
        adam_step(T.FlatParams({"a": a, "b": b}), state, 1e-2, 1.0)
        assert state.layout == (("a", (2, 3), 0), ("b", (2,), 6))
        assert np.array_equal(b.values, np.ones(2)) and np.all(a.values < np.arange(6.0).reshape(2, 3))
        assert np.array_equal(state.m["b"], np.zeros(2)) and state.m["a"].shape == (2, 3)

    def test_a_model_of_another_models_parts_owns_copies(self):
        corpus = small_corpus()
        model = training._fresh_model(corpus, None, seed=0)
        before = model.parameters().flat.copy()
        twin = pipeline.Model(model.config, model.encoder, model.vocab, model.scheme)
        assert not np.shares_memory(twin.parameters().flat, model.parameters().flat)
        assert all(twin.parameters()[k] is not p for k, p in model.parameters().items())
        assert twin.parameters().flat.tobytes() == before.tobytes()
        batch = [pipeline.word_ids(s, model.vocab)[0] for s in corpus.sentences[:4]]

        def loss_at(step):  # the loop train() runs, on the twin's encoder
            return mlm_step(batch, twin.encoder, twin.config, 0.5, seed=step), ()

        training._optimize(twin, OptimizerState(), range(1), 1e-2, 1.0, loss_at, None)
        assert twin.parameters().flat.tobytes() != before.tobytes()
        assert model.parameters().flat.tobytes() == before.tobytes()
        assert_packed(model)
        assert_packed(twin)

    def test_a_model_has_both_heads_or_neither(self):
        model = train(small_corpus(), TrainConfig(steps=0)).model
        for one_head in ({"relation": None}, {"head": None}):
            with pytest.raises(ContractError, match="a relation head, or neither"):
                dataclasses.replace(model, **one_head)

    def test_state_of_another_layout_rejected(self):
        p = Tensor(np.ones(3))
        state = OptimizerState()
        adam_step(T.FlatParams({"p": p}), state, 1e-2, 1.0)
        with pytest.raises(ContractError, match="does not match"):
            adam_step(T.FlatParams({"q": Tensor(np.ones(3))}), state, 1e-2, 1.0)

    def test_every_parameter_views_the_flat_vector(self, tmp_path):
        corpus = small_corpus(20, seed=3)
        assert_packed(training._fresh_model(corpus, None, seed=0))
        pre = pretrain(corpus, PretrainConfig(steps=2, batch_size=4))
        assert_packed(pre.model)
        for init in (None, pre):
            ckpt = train(corpus, TrainConfig(steps=3, head="span"), init=init)
            assert_packed(ckpt.model)
        twin = ckpt.model.clone()
        assert_packed(twin)
        assert not np.shares_memory(twin.parameters().flat, ckpt.model.parameters().flat)
        assert twin.parameters().flat.tobytes() == ckpt.model.parameters().flat.tobytes()
        path = tmp_path / "model.json"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert_packed(loaded.model)
        assert loaded.model.parameters().flat.tobytes() == ckpt.model.parameters().flat.tobytes()
        assert loaded.optimizer.moments.tobytes() == ckpt.optimizer.moments.tobytes()
        resumed = train(corpus, TrainConfig(steps=2, head="span"), init=loaded)
        assert_packed(resumed.model)
        assert_packed(loaded.model)  # the init model is left as it was
        assert loaded.model.parameters().flat.tobytes() == ckpt.model.parameters().flat.tobytes()

    def test_clones_and_loaded_models_carry_no_gradients(self, tmp_path):
        ckpt = train(small_corpus(), TrainConfig(steps=2, head="span"))
        assert any(p.grad is not None for p in ckpt.model.parameters().values())
        path = tmp_path / "model.json"
        save_checkpoint(ckpt, path)
        for model in (ckpt.model.clone(), load_checkpoint(path).model):
            assert all(p.grad is None for p in model.parameters().values())
            assert model.parameters().flat.tobytes() == ckpt.model.parameters().flat.tobytes()

    def test_zero_step_checkpoint_has_empty_moments(self, tmp_path):
        path = tmp_path / "model.json"
        ckpt = train(small_corpus(), TrainConfig(steps=0))
        assert ckpt.optimizer.m == {} and ckpt.optimizer.moments is None
        save_checkpoint(ckpt, path)
        assert json.loads(path.read_text())["optimizer"] == {"moments": None, "step": 0}
        assert load_checkpoint(path).optimizer.moments is None


class TestParameterWalk:
    LAYER = [
        "w_q", "w_k", "w_v", "w_o", "ff_w1", "ff_b1", "ff_w2", "ff_b2",
        "ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias",
    ]
    HEAD = {
        "crf": ["w_emit", "b_emit", "trans", "start", "stop"],
        "span": ["width_emb", "w_cls", "b_cls"],
        "seq2seq": ["tag_emb", "w_out", "b_out"],
    }

    @pytest.mark.parametrize("head", ["crf", "span", "seq2seq"])
    def test_parameter_order(self, head):
        # adam_step sums the gradient norm in this order, so it is fixed
        model = train(small_corpus(), TrainConfig(steps=0, head=head)).model
        encoder = ["tok_emb", "pos_emb", "mlm_proj"]
        encoder += [f"layer{i}.{name}" for i in range(2) for name in self.LAYER]
        expected = [f"encoder/{k}" for k in encoder] + [f"head/{k}" for k in self.HEAD[head]]
        assert list(model.parameters()) == expected + ["relation/w", "relation/b"]

    @pytest.mark.parametrize("head", ["crf", "span", "seq2seq", "mlm"])
    def test_every_gradient_has_its_tensors_shape(self, head):
        # backward stores gradients as the rules return them
        corpus = generate_synthetic_corpus(24, seed=2)
        config = EncoderConfig(vocab_size=5, dropout_rate=0.2)
        model = train(corpus, TrainConfig(steps=0, head="crf" if head == "mlm" else head),
                      encoder_config=config).model
        sentences = tokenize_corpus(corpus, model.vocab).sentences[:6]
        T.reset_tape()
        if head == "mlm":
            batch = [[i for t in s.tokens for i in t.subword_ids] for s in sentences]
            loss = mlm_step(batch, model.encoder, model.config, seed=3)
        else:
            ner, re = training.step_losses(model, sentences, list(range(6)), 1.0)
            assert re is not None
            loss = joint_loss(ner, re, 1.0)
        records = list(T.active_tape().records)
        T.backward(loss)
        T.reset_tape()
        checked = 0
        for out, inputs, _ in records:
            for tensor in (out, *inputs):
                if tensor.grad is not None:
                    assert tensor.grad.shape == tensor.shape
                    assert tensor.grad.dtype == np.float64
                    checked += 1
        assert checked > len(records)


class TestBatchSampler:
    def test_uniform_mode_covers_epoch(self):
        corpus = small_corpus(10)
        sampler = _BatchSampler(corpus, batch_size=5, seed=3)
        seen = sampler.batch(0) + sampler.batch(1)
        assert sorted(seen) == list(range(10))

    def test_balanced_mode_equalizes_classes(self):
        corpus = small_corpus(60, seed=9)
        sampler = _BatchSampler(corpus, batch_size=8, seed=0, balanced=True)
        counts = Counter()
        for step in range(200):
            for idx in sampler.batch(step):
                for span in corpus.sentences[idx].spans:
                    counts[span.cls] += 1
        total = sum(counts.values())
        for cls in corpus.scheme.classes:
            assert counts[cls] / total > 0.15

    def test_deterministic(self):
        corpus = small_corpus(10)
        a = _BatchSampler(corpus, batch_size=4, seed=5)
        b = _BatchSampler(corpus, batch_size=4, seed=5)
        assert [a.batch(s) for s in range(6)] == [b.batch(s) for s in range(6)]


class TestTrain:
    def test_zero_steps_returns_initial_params(self):
        corpus = small_corpus()
        base = train(corpus, TrainConfig(steps=0, seed=2))
        resumed = train(corpus, TrainConfig(steps=0, seed=2), init=base)
        assert params_equal(base.model, resumed.model)

    def test_same_seed_bitwise_identical(self):
        corpus = small_corpus()
        cfg = TrainConfig(steps=30, batch_size=4, seed=4)
        assert params_equal(train(corpus, cfg).model, train(corpus, cfg).model)

    def test_chunked_resume_matches_one_shot(self):
        corpus = small_corpus()
        cfg40 = TrainConfig(steps=40, batch_size=4, seed=6)
        one_shot = train(corpus, cfg40)
        first = train(corpus, TrainConfig(steps=25, batch_size=4, seed=6))
        resumed = train(corpus, TrainConfig(steps=15, batch_size=4, seed=6), init=first)
        assert params_equal(one_shot.model, resumed.model)
        assert resumed.step == 40

    def test_resume_leaves_init_optimizer_unchanged(self):
        corpus = small_corpus()
        init = train(corpus, TrainConfig(steps=5, batch_size=4, seed=6))
        before = (init.optimizer.step, {k: v.copy() for k, v in init.optimizer.m.items()})
        cfg = TrainConfig(steps=5, batch_size=4, seed=9)
        first, second = train(corpus, cfg, init=init), train(corpus, cfg, init=init)
        assert params_equal(first.model, second.model)
        assert init.optimizer.step == before[0] == 5
        assert all(np.array_equal(v, before[1][k]) for k, v in init.optimizer.m.items())

    def test_loss_halves_in_300_steps(self):
        log = []
        train(small_corpus(20), TrainConfig(steps=300, batch_size=4, seed=0), log=log)
        first_losses = [row[1] for row in log[:5]]
        last_losses = [row[1] for row in log[-5:]]
        assert np.mean(last_losses) < 0.5 * np.mean(first_losses)

    def test_lambda_zero_freezes_relation_head(self):
        corpus = small_corpus()
        ckpt = train(corpus, TrainConfig(steps=25, seed=7, lambda_re=0.0))
        fresh = train(corpus, TrainConfig(steps=0, seed=7, lambda_re=0.0))
        assert np.array_equal(
            ckpt.model.relation.w.values, fresh.model.relation.w.values
        )
        assert not np.array_equal(
            ckpt.model.encoder.tok_emb.values, fresh.model.encoder.tok_emb.values
        )

    def test_relation_head_moves_with_positive_lambda(self):
        corpus = small_corpus()
        ckpt = train(corpus, TrainConfig(steps=25, seed=7, lambda_re=1.0))
        fresh = train(corpus, TrainConfig(steps=0, seed=7, lambda_re=1.0))
        assert not np.array_equal(
            ckpt.model.relation.w.values, fresh.model.relation.w.values
        )

    @pytest.mark.parametrize("head", ["crf", "span", "seq2seq"])
    def test_all_heads_train_and_stay_finite(self, head):
        corpus = small_corpus()
        log = []
        ckpt = train(corpus, TrainConfig(steps=20, seed=1, head=head), log=log)
        for value in ckpt.model.parameters().values():
            assert np.all(np.isfinite(value.values))
        assert log[-1][1] < log[0][1] * 1.5  # not diverging

    def test_empty_corpus_rejected(self):
        from medext.corpus import TagScheme

        with pytest.raises(ContractError):
            train(Corpus([], TagScheme()), TrainConfig(steps=1))

    def test_fine_tune_from_pretrained_checkpoint(self):
        corpus = small_corpus(30, seed=12)
        pre = pretrain(corpus, PretrainConfig(steps=10, batch_size=4, seed=0))
        assert pre.model.head_kind is None
        tuned = train(corpus, TrainConfig(steps=10, seed=3), init=pre)
        assert tuned.model.head_kind == "crf"
        assert tuned.model.vocab == pre.model.vocab
        report = evaluate_split(tuned.model, corpus, "train")
        assert 0.0 <= report.entities.micro.f1 <= 1.0


def sentence_words(model, sentence, dropout_seed=None):
    """One sentence's word rows from a one-sequence ``encode`` call and a row
    gather, without the packed path."""
    ids, starts = pipeline.word_ids(sentence, model.vocab)
    h = encode(ids, model.encoder, model.config, dropout_seed)
    return T.gather(h, starts)


def per_sentence_words(model, sentences, dropout_seeds=None):
    """``encode_words_batch`` one sentence per encoder call: the packed path's oracle."""
    seeds = dropout_seeds if dropout_seeds is not None else [None] * len(sentences)
    blocks = [sentence_words(model, sentence, seed) for sentence, seed in zip(sentences, seeds)]
    return T.concat(blocks, axis=0)


def oracle_log_partition(e, trans, start, stop):
    """The per-word forward recursion that the fused CRF op replaced."""
    alpha = T.add(start, T.gather(e, 0))
    trans_t = transpose(trans)
    for i in range(1, e.shape[0]):
        alpha = T.add(T.gather(e, i), logsumexp_rows(T.add_rowwise(trans_t, alpha)))
    return logsumexp(T.add(alpha, stop))


def per_sentence_losses(model, sentences, seeds, lambda_re):
    """``training.step_losses`` one sentence, one word and one pair at a time."""
    head = model.head
    terms, pairs = [], []
    for sentence, seed in zip(sentences, seeds):
        h = sentence_words(model, sentence, seed)
        if isinstance(head, CRFParams):
            e = emissions(h, head)
            terms.append(T.sub(
                oracle_log_partition(e, head.trans, head.start, head.stop),
                sequence_score(e, head.trans, head.start, head.stop, sentence.tags),
            ))
        elif isinstance(head, SpanHeadParams):
            table = score_all_spans(h, head, [len(sentence.tags)])
            terms.append(batch_span_loss(table, [sentence.spans], head.classes, [seed]))
        else:
            terms.append(teacher_forced_loss(h, sentence.tags, head, [len(sentence.tags)]))
        if lambda_re > 0.0 and len(sentence.spans) >= 2:
            annotated = {(r.head, r.tail): r.label for r in sentence.relations}
            pooled = [entity_pool(h, span) for span in sentence.spans]
            pairs.extend(
                (pooled[i], pooled[j], annotated.get((i, j), NO_RELATION))
                for i in range(len(pooled))
                for j in range(len(pooled))
                if i != j
            )
    ner = terms[0]
    for extra in terms[1:]:
        ner = T.add(ner, extra)
    ner = T.scale(ner, 1.0 / len(terms))
    return ner, relation_loss(pairs, model.relation) if pairs else None


class TestBatchedHeads:
    @pytest.mark.parametrize("lambda_re", [0.0, 1.0])
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    @pytest.mark.parametrize("head", ["crf", "span", "seq2seq"])
    def test_train_matches_per_sentence_oracle(self, monkeypatch, head, dropout, lambda_re):
        corpus = small_corpus()
        encoder_config = EncoderConfig(vocab_size=5, dropout_rate=dropout)
        cfg = TrainConfig(steps=6, batch_size=4, seed=3, head=head, lambda_re=lambda_re)
        batched, oracle = [], []
        first = train(corpus, cfg, encoder_config=encoder_config, log=batched)
        monkeypatch.setattr(training, "step_losses", per_sentence_losses)
        second = train(corpus, cfg, encoder_config=encoder_config, log=oracle)
        assert [row[0] for row in batched] == [row[0] for row in oracle]
        np.testing.assert_allclose(
            [row[1:] for row in batched], [row[1:] for row in oracle], rtol=1e-12, atol=1e-14
        )
        if lambda_re > 0.0:
            assert any(row[3] > 0.0 for row in batched)
        for key, value in first.model.parameters().items():
            np.testing.assert_allclose(
                value.values, second.model.parameters()[key].values, rtol=1e-9, atol=1e-12
            )

    # tape nodes of one step at lambda_re = 1: (a batch with relation pairs,
    # a batch of sentences with fewer than two spans each)
    TAPE_NODES = {"crf": (58, 49), "span": (50, 41), "seq2seq": (46, 37)}

    @pytest.mark.parametrize("head", ["crf", "span", "seq2seq"])
    def test_tape_nodes_per_step_do_not_grow_with_batch(self, head):
        corpus = generate_synthetic_corpus(200, seed=7)
        model = train(corpus, TrainConfig(steps=0, seed=1, head=head)).model
        sentences = tokenize_corpus(corpus, model.vocab).sentences
        no_pairs = [s for s in sentences if len(s.spans) < 2]
        pinned = self.TAPE_NODES[head]
        for size in (4, 16):
            counts = []
            for batch in (sentences[:size], no_pairs[:size]):
                T.reset_tape()
                ner, re = training.step_losses(model, batch, list(range(size)), 1.0)
                joint_loss(ner, re, 1.0)
                counts.append(len(T.active_tape().records))
            T.reset_tape()
            assert tuple(counts) == pinned, (
                f"{head} head at batch {size}: pinned {pinned} tape nodes "
                f"(with pairs, without), got {tuple(counts)}"
            )

    def test_mlm_tape_nodes_per_step_do_not_grow_with_batch(self):
        corpus = generate_synthetic_corpus(200, seed=7)
        model = train(corpus, TrainConfig(steps=0, seed=1)).model
        sentences = tokenize_corpus(corpus, model.vocab).sentences
        for size in (4, 16):
            T.reset_tape()
            batch = [[i for t in s.tokens for i in t.subword_ids] for s in sentences[:size]]
            mlm_step(batch, model.encoder, model.config, seed=3)
            count = len(T.active_tape().records)
            T.reset_tape()
            assert count == 34, f"mlm at batch {size}: pinned 34 tape nodes, got {count}"


class TestPackedEncoding:
    @pytest.mark.parametrize("head", ["crf", "span", "seq2seq"])
    def test_train_with_dropout_matches_per_sentence(self, monkeypatch, head):
        corpus = small_corpus()
        encoder_config = EncoderConfig(vocab_size=5, dropout_rate=0.2)
        cfg = TrainConfig(steps=6, batch_size=4, seed=3, head=head)
        packed, oracle = [], []
        train(corpus, cfg, encoder_config=encoder_config, log=packed)
        monkeypatch.setattr(training, "encode_words_batch", per_sentence_words)
        train(corpus, cfg, encoder_config=encoder_config, log=oracle)
        assert [row[0] for row in packed] == [row[0] for row in oracle]
        np.testing.assert_allclose(
            [row[1:] for row in packed], [row[1:] for row in oracle], rtol=1e-12, atol=1e-14
        )

    def test_chunked_evaluation_matches_per_sentence(self, monkeypatch):
        corpus = generate_synthetic_corpus(2 * EVAL_CHUNK + 5, seed=4)
        model = train(corpus, TrainConfig(steps=10, seed=2)).model
        assert len(corpus.split_indices("train")) > EVAL_CHUNK
        packed = evaluate_split(model, corpus, "train").as_dict()
        monkeypatch.setattr(pipeline, "encode_words_batch", per_sentence_words)
        assert evaluate_split(model, corpus, "train").as_dict() == packed

    def test_encode_words_is_a_one_sentence_batch(self):
        corpus = generate_synthetic_corpus(6, seed=4)
        model = train(corpus, TrainConfig(steps=0, seed=2)).model
        for sentence in corpus.sentences:
            np.testing.assert_array_equal(
                encode_words(model, sentence).values, sentence_words(model, sentence).values
            )

    @pytest.mark.parametrize("head", ["crf", "span", "seq2seq"])
    def test_chunked_predict_matches_per_sentence(self, tmp_path, monkeypatch, capsys, head):
        """``medext predict`` over more than two chunks, with an over-long line
        in the second, writes the records a per-sentence encoder gives, each
        line's spans those of its own one-sentence decode."""
        corpus = generate_synthetic_corpus(2 * EVAL_CHUNK + 5, seed=6)
        checkpoint = train(corpus, TrainConfig(steps=60, seed=2, head=head))
        save_checkpoint(checkpoint, tmp_path / "m.json")
        lines = [" ".join(sentence.surfaces()) for sentence in corpus.sentences]
        lines[EVAL_CHUNK + 3] = " ".join(["aspirin"] * 20)
        (tmp_path / "in.txt").write_text("\n".join(lines) + "\n")
        argv = ["predict", "--checkpoint", str(tmp_path / "m.json")]
        argv += ["--input", str(tmp_path / "in.txt")]
        assert medext.cli.main(argv + ["--out-file", str(tmp_path / "chunked.jsonl")]) == 1
        monkeypatch.setattr(pipeline, "encode_words_batch", per_sentence_words)
        assert medext.cli.main(argv + ["--out-file", str(tmp_path / "oracle.jsonl")]) == 1
        records = (tmp_path / "chunked.jsonl").read_text().splitlines()
        assert records == (tmp_path / "oracle.jsonl").read_text().splitlines()
        assert len(records) == len(lines)
        error = json.loads(records.pop(EVAL_CHUNK + 3))
        assert error["line"] == EVAL_CHUNK + 4 and error["error"].endswith("exceeds max_len 64")
        assert capsys.readouterr().err.count("exceeds max_len") == 2
        del corpus.sentences[EVAL_CHUNK + 3]
        for sentence, record in zip(corpus.sentences, records):
            spans, _ = pipeline.decode_entities(
                checkpoint.model, sentence_words(checkpoint.model, sentence)
            )
            assert json.loads(record)["spans"] == [asdict(span) for span in spans]
        assert any(json.loads(record)["spans"] for record in records)


class TestSegmentation:
    @staticmethod
    def count_segmentations(monkeypatch) -> Counter:
        """Refuse any tokenize_corpus call, and count C._segment calls per
        (surface, vocabulary)."""

        def refuse(*args):
            raise AssertionError("tokenize_corpus was called")

        segmented, segment = Counter(), C._segment

        def counting(surface, vocab):
            segmented[surface, id(vocab)] += 1
            return segment(surface, vocab)

        monkeypatch.setattr(training, "tokenize_corpus", refuse)
        monkeypatch.setattr(C, "tokenize_corpus", refuse)
        monkeypatch.setattr(C, "_segment", counting)
        return segmented

    def test_train_segments_each_surface_once_and_tokenizes_no_corpus(self, monkeypatch):
        segmented = self.count_segmentations(monkeypatch)
        train(small_corpus(), TrainConfig(steps=8, seed=1))
        assert segmented and max(segmented.values()) == 1

    def test_pretrain_segments_each_surface_once_and_tokenizes_no_corpus(self, monkeypatch):
        segmented = self.count_segmentations(monkeypatch)
        pretrain(small_corpus(), PretrainConfig(steps=4, batch_size=4, seed=1))
        assert segmented and max(segmented.values()) == 1

    def test_subword_ids_of_another_vocab_are_not_read(self):
        """A corpus tokenized under another vocabulary is encoded, and
        scored, as the same corpus untokenized."""
        corpus = generate_synthetic_corpus(40, seed=4)
        model = train(corpus, TrainConfig(steps=10, seed=2)).model
        stale = tokenize_corpus(corpus, build_vocab(corpus.sentences[:2]))
        for fresh, tokenized in zip(corpus.sentences, stale.sentences):
            assert pipeline.word_ids(tokenized, model.vocab) == pipeline.word_ids(
                fresh, model.vocab
            )
        assert evaluate_split(model, stale).as_dict() == evaluate_split(model, corpus).as_dict()


class TestNoRecordEvaluation:
    def test_tape_stays_empty_and_report_matches_recording_run(self, monkeypatch):
        corpus = generate_synthetic_corpus(30, seed=4)
        model = train(corpus, TrainConfig(steps=5, seed=2, head="span")).model
        T.reset_tape()
        quiet = evaluate_split(model, corpus, "train").as_dict()
        assert not T.active_tape().records
        monkeypatch.setattr(T, "no_grad", contextlib.nullcontext)
        recorded = evaluate_split(model, corpus, "train").as_dict()
        assert T.active_tape().records
        T.reset_tape()
        assert quiet == recorded


class TestNoCyclicGarbage:
    """Training, pretraining and loading leave nothing that only the cyclic
    collector can free, so pausing it would cost no memory."""

    @pytest.fixture(autouse=True)
    def paused(self):
        was_enabled = gc.isenabled()
        gc.disable()
        gc.collect()
        yield
        if was_enabled:
            gc.enable()

    @pytest.mark.parametrize("steps", [2, 20])
    @pytest.mark.parametrize("head", pipeline.HEAD_KINDS)
    def test_train(self, head, steps):
        train(small_corpus(), TrainConfig(steps=steps, head=head))
        assert gc.collect() == 0

    def test_pretrain(self):
        pretrain(small_corpus(), PretrainConfig(steps=5))
        assert gc.collect() == 0

    def test_load(self, tmp_path):
        corpus = generate_synthetic_corpus(60, seed=2)
        C.save_conll(corpus, tmp_path / "c.tsv")
        C.save_annotations(corpus, tmp_path / "c.jsonl")
        C.load_annotations(C.load_conll(tmp_path / "c.tsv", corpus.scheme), tmp_path / "c.jsonl")
        assert gc.collect() == 0


class TestPretrain:
    def test_deterministic(self):
        corpus = small_corpus(15, seed=2)
        cfg = PretrainConfig(steps=8, batch_size=4, seed=9)
        assert params_equal(pretrain(corpus, cfg).model, pretrain(corpus, cfg).model)

    def test_twenty_steps_at_batch_16_stay_on_the_per_sentence_oracle(self, monkeypatch):
        """Adam does not grow the packed step's rounding: 20 steps at batch 16
        end within 1e-12 of the same run on the per-sentence MLM oracle."""
        corpus = generate_synthetic_corpus(200, seed=7)
        cfg = PretrainConfig(steps=20, batch_size=16, seed=1)
        packed = pretrain(corpus, cfg).model.parameters().flat
        monkeypatch.setattr(training, "mlm_step", per_sentence_mlm)
        oracle = pretrain(corpus, cfg).model.parameters().flat
        assert np.abs(packed - oracle).max() < 1e-12

    def test_two_hundred_steps_halve_mlm_loss(self):
        # fixed 50-sentence batch, small encoder so the check stays quick
        corpus = generate_synthetic_corpus(50, seed=3)
        vocab = build_vocab(corpus)
        tokenized = tokenize_corpus(corpus, vocab)
        batch = [
            [piece for token in s.tokens for piece in token.subword_ids]
            for s in tokenized.sentences
        ]
        config = EncoderConfig(
            vocab_size=len(vocab), d_model=16, heads=2, layers=1, d_ff=32, max_len=32
        )
        params = init_params(config, seed=0)
        named = T.FlatParams(params.named())
        state = OptimizerState()
        initial = final = None
        for step in range(200):
            T.reset_tape()
            for p in named.values():
                p.zero_grad()
            loss = mlm_step(batch, params, config, mask_prob=0.15, seed=step)
            if initial is None:
                initial = loss.item()
            T.backward(loss)
            adam_step(named, state, 3e-3, 1.0)
            final = loss.item()
        assert final < 0.5 * initial


class TestCheckpointIO:
    def test_round_trip_bitwise(self, tmp_path):
        corpus = small_corpus()
        ckpt = train(corpus, TrainConfig(steps=5, seed=8))
        path = tmp_path / "model.json"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert params_equal(ckpt.model, loaded.model)
        assert loaded.step == ckpt.step
        assert loaded.seed_lineage == ckpt.seed_lineage
        for key, value in ckpt.optimizer.m.items():
            assert np.array_equal(value, loaded.optimizer.m[key])

    @pytest.mark.parametrize("kind", ["encoder", "crf", "span", "seq2seq"])
    @pytest.mark.parametrize("steps", [0, 3])
    def test_every_kind_round_trips_bitwise(self, tmp_path, kind, steps):
        corpus = small_corpus()
        if kind == "encoder":
            ckpt = pretrain(corpus, PretrainConfig(steps=steps, batch_size=4, seed=2))
        else:
            ckpt = train(corpus, TrainConfig(steps=steps, head=kind, seed=2))
        path = tmp_path / "model.json"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 3
        assert set(payload) == {
            "format_version", "encoder_config", "scheme_classes", "vocab_entries", "head_kind",
            "param_names", "params", "optimizer", "seed_lineage",
        }
        assert loaded.model.head_kind == ckpt.model.head_kind
        assert loaded.model.parameters().layout == ckpt.model.parameters().layout
        assert loaded.model.parameters().flat.tobytes() == ckpt.model.parameters().flat.tobytes()
        if steps == 0:
            assert loaded.optimizer.moments is None
        else:
            assert loaded.optimizer.moments.tobytes() == ckpt.optimizer.moments.tobytes()
            assert loaded.optimizer.moments.flags.writeable
        assert (loaded.step, loaded.seed_lineage) == (ckpt.step, ckpt.seed_lineage)
        assert loaded.step == loaded.optimizer.step == steps

    def test_truncated_file_rejected(self, tmp_path):
        corpus = small_corpus()
        path = tmp_path / "model.json"
        save_checkpoint(train(corpus, TrainConfig(steps=1, seed=0)), path)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)

    def test_shape_mismatch_names_the_key(self, tmp_path):
        # a d_ff that disagrees with the stored bytes: the layout needs more
        # floats than the data holds, and the last parameter no longer fits
        corpus = small_corpus()
        path = tmp_path / "model.json"
        save_checkpoint(train(corpus, TrainConfig(steps=1, seed=0)), path)
        payload = json.loads(path.read_text())
        payload["encoder_config"]["d_ff"] += 1
        path.write_text(json.dumps(payload))
        message = r"params holds \d+ bytes, expected \d+; the data ends inside 'relation/w'"
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key, size, message",
        [("vocab_size", 100_000, "vocab_size"), ("max_len", 100_000, "encoder/pos_emb")],
    )
    def test_declared_size_checked_before_allocation(self, tmp_path, key, size, message):
        # a 25 MB embedding would be allocated if the model were built first
        path = tmp_path / "model.json"
        save_checkpoint(train(generate_synthetic_corpus(100, seed=1), TrainConfig(steps=1)), path)
        payload = json.loads(path.read_text())
        payload["encoder_config"][key] = size
        path.write_text(json.dumps(payload))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match=message):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000

    def test_version_mismatch_rejected(self, tmp_path):
        corpus = small_corpus()
        path = tmp_path / "model.json"
        save_checkpoint(train(corpus, TrainConfig(steps=1, seed=0)), path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_resume_from_disk_matches_memory(self, tmp_path):
        corpus = small_corpus()
        first = train(corpus, TrainConfig(steps=10, batch_size=4, seed=6))
        path = tmp_path / "model.json"
        save_checkpoint(first, path)
        resumed_disk = train(
            corpus, TrainConfig(steps=10, batch_size=4, seed=6), init=load_checkpoint(path)
        )
        resumed_memory = train(
            corpus, TrainConfig(steps=10, batch_size=4, seed=6), init=first
        )
        assert params_equal(resumed_disk.model, resumed_memory.model)

    def test_failed_write_keeps_existing_checkpoint(self, tmp_path, monkeypatch):
        corpus = small_corpus()
        path = tmp_path / "model.json"
        save_checkpoint(train(corpus, TrainConfig(steps=1, seed=0)), path)
        saved = path.read_bytes()
        real_write = type(path).write_text

        def write_half_then_fail(self, text, *args, **kwargs):
            real_write(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(type(path), "write_text", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(train(corpus, TrainConfig(steps=2, seed=0)), path)
        assert path.read_bytes() == saved
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_non_object_payload_names_the_file(self, tmp_path):
        path = tmp_path / "listed.json"
        path.write_text("[]")
        with pytest.raises(CheckpointError, match="listed.json.*JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda c: c.pop("d_ff"), "missing key 'd_ff'"),
            (lambda c: c.update(d_hidden=3), "unknown encoder_config key 'd_hidden'"),
            (lambda c: c.update(heads=5), "divisible"),
        ],
    )
    def test_encoder_config_keys_checked(self, tmp_path, edit, message):
        path = tmp_path / "model.json"
        save_checkpoint(train(small_corpus(), TrainConfig(steps=1, seed=0)), path)
        payload = json.loads(path.read_text())
        edit(payload["encoder_config"])
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=message) as info:
            load_checkpoint(path)
        assert "model.json" in str(info.value)


class TestBenchmarkHooks:
    def test_tracer_wraps_a_traced_pass_and_unwraps(self):
        """The benchmark's tracer patches training, pipeline and cli entry points
        by name and reads adam_step's arguments by position; a traced pretrain,
        fine-tune and resume must run through them, and uninstall must restore
        all.  Only the resume clones a model; the fine-tune attaches a head."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        corpus = small_corpus(8)
        tr = tracer.install(medext)
        try:
            tr.on = tr.counting = True
            pre = pretrain(corpus, PretrainConfig(steps=1, batch_size=2, seed=0))
            tuned = train(corpus, TrainConfig(steps=1, batch_size=2, seed=0), init=pre)
            train(corpus, TrainConfig(steps=1, batch_size=2, seed=0), init=tuned)
        finally:
            tr.uninstall()
        assert tracer.leaked_wrappers(medext) == []
        for name in ("encoder.mlm", "training.clone"):
            assert tr.calls(name) == 1, name
        for name in ("crf_head.loss", "pipeline.gold_pairs"):
            assert tr.calls(name) == 2, name
        assert tr.calls("training.adam") == 3 and tr.counts["adam_steps"] == 3
