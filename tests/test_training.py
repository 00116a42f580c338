import contextlib
import importlib.util
import json
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import medext
import medext.cli
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
from medext.relation_head import entity_pool, relation_loss
from medext.seq2seq_head import teacher_forced_loss
from medext.span_head import SpanHeadParams, score_all_spans, span_loss
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

    def test_weighted_sum(self):
        assert joint_loss(Tensor(2.0), Tensor(3.0), 1.0).item() == pytest.approx(5.0)
        assert joint_loss(Tensor(2.0), Tensor(3.0), 0.5).item() == pytest.approx(3.5)

    def test_gradient_reaches_both_terms_iff_weighted(self):
        for lam, expect_re_grad in ((0.0, False), (1.0, True)):
            T.reset_tape()
            ner = Tensor(2.0, requires_grad=True)
            re = Tensor(3.0, requires_grad=True)
            T.backward(joint_loss(T.mul(ner, ner), T.mul(re, re), lam))
            assert ner.grad is not None
            assert (re.grad is not None) == expect_re_grad


class TestAdam:
    def test_clipping_equals_prescaled_gradients(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((3, 4))
        grad = rng.standard_normal((3, 4)) * 10
        norm = np.sqrt((grad**2).sum())

        a = Tensor(values.copy(), requires_grad=True)
        a.grad = grad.copy()
        adam_step({"p": a}, OptimizerState(), 1e-2, clip_norm=1.0)

        b = Tensor(values.copy(), requires_grad=True)
        b.grad = grad / norm  # pre-clipped by hand
        adam_step({"p": b}, OptimizerState(), 1e-2, clip_norm=1e9)
        assert np.allclose(a.values, b.values, atol=1e-15)

    def test_zero_grad_leaves_parameter_fixed(self):
        p = Tensor(np.ones(3), requires_grad=True)
        state = OptimizerState()
        for _ in range(5):
            p.grad = None
            adam_step({"p": p}, state, 1e-2, 1.0)
        assert np.array_equal(p.values, np.ones(3))

    def test_descends_a_quadratic(self):
        p = Tensor([5.0], requires_grad=True)
        state = OptimizerState()
        for _ in range(300):
            p.grad = 2 * p.values
            adam_step({"p": p}, state, 5e-2, clip_norm=100.0)
        assert abs(p.values[0]) < 0.1


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
            ner, re = training.step_losses(model, sentences, list(range(6)), 1.0, True)
            assert re.requires_grad
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


def sentence_words(model, sentence, training=False, dropout_seed=None):
    """One sentence's word rows from a one-sequence ``encode`` call and a row
    gather, without the packed path."""
    ids, starts = pipeline.word_ids(sentence, model.vocab)
    h = encode(ids, model.encoder, model.config, training=training, dropout_seed=dropout_seed)
    return T.gather(h, starts)


def per_sentence_words(model, sentences, training=False, dropout_seeds=None):
    """``encode_words_batch`` one sentence per encoder call: the packed path's oracle."""
    seeds = dropout_seeds if dropout_seeds is not None else [None] * len(sentences)
    blocks = [
        sentence_words(model, sentence, training=training, dropout_seed=seed)
        for sentence, seed in zip(sentences, seeds)
    ]
    return T.concat(blocks, axis=0)


def oracle_log_partition(e, trans, start, stop):
    """The per-word forward recursion that the fused CRF op replaced."""
    alpha = T.add(start, T.gather(e, 0))
    trans_t = T.transpose(trans)
    for i in range(1, e.shape[0]):
        alpha = T.add(T.gather(e, i), T.logsumexp_rows(T.add_rowwise(trans_t, alpha)))
    return T.logsumexp(T.add(alpha, stop))


def per_sentence_losses(model, sentences, seeds, lambda_re, dropping):
    """``training.step_losses`` one sentence, one word and one pair at a time."""
    head = model.head
    terms, pairs = [], []
    for sentence, seed in zip(sentences, seeds):
        h = sentence_words(
            model, sentence, training=dropping, dropout_seed=seed if dropping else None
        )
        if isinstance(head, CRFParams):
            e = emissions(h, head)
            terms.append(T.sub(
                oracle_log_partition(e, head.trans, head.start, head.stop),
                sequence_score(e, head.trans, head.start, head.stop, sentence.tags),
            ))
        elif isinstance(head, SpanHeadParams):
            table = score_all_spans(h, head)
            terms.append(span_loss(table, sentence.spans, head.classes, seed=seed))
        else:
            terms.append(teacher_forced_loss(h, sentence.tags, head))
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
    return ner, relation_loss(pairs, model.relation) if pairs else Tensor(0.0)


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

    @pytest.mark.parametrize("head", ["crf", "span", "seq2seq"])
    def test_tape_nodes_per_step_do_not_grow_with_batch(self, head):
        corpus = generate_synthetic_corpus(40, seed=5)
        model = train(corpus, TrainConfig(steps=0, seed=1, head=head)).model
        tokenized = tokenize_corpus(corpus, model.vocab)
        counts = []
        for size in (2, 8):
            T.reset_tape()
            sentences = tokenized.sentences[:size]
            training.step_losses(model, sentences, list(range(size)), 1.0, False)
            counts.append(len(T.active_tape().records))
        T.reset_tape()
        assert counts[0] == counts[1]


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


class TestPretrain:
    def test_deterministic(self):
        corpus = small_corpus(15, seed=2)
        cfg = PretrainConfig(steps=8, batch_size=4, seed=9)
        assert params_equal(pretrain(corpus, cfg).model, pretrain(corpus, cfg).model)

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
        named = params.named()
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

    def test_truncated_file_rejected(self, tmp_path):
        corpus = small_corpus()
        path = tmp_path / "model.json"
        save_checkpoint(train(corpus, TrainConfig(steps=1, seed=0)), path)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)

    def test_shape_mismatch_names_the_key(self, tmp_path):
        corpus = small_corpus()
        path = tmp_path / "model.json"
        save_checkpoint(train(corpus, TrainConfig(steps=1, seed=0)), path)
        payload = json.loads(path.read_text())
        payload["arrays"]["head/trans"] = [[0.0]]  # wrong shape for K tags
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="head/trans"):
            load_checkpoint(path)

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
        by name and reads adam_step's arguments by position; a traced pretrain
        and fine-tune must run through them, and uninstall must restore all."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        corpus = small_corpus(8)
        tr = tracer.install(medext)
        try:
            tr.on = tr.counting = True
            pre = pretrain(corpus, PretrainConfig(steps=1, batch_size=2, seed=0))
            train(corpus, TrainConfig(steps=1, batch_size=2, seed=0), init=pre)
        finally:
            tr.uninstall()
        assert tracer.leaked_wrappers(medext) == []
        for name in ("encoder.mlm", "training.clone", "crf_head.loss", "pipeline.gold_pairs"):
            assert tr.calls(name) == 1, name
        assert tr.calls("training.adam") == 2 and tr.counts["adam_steps"] == 2
