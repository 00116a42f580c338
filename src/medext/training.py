"""Optimizer, joint NER+RE training loop, MLM pretraining, and checkpoints.

Every run is a pure function of (corpus, init, config): batch order, dropout,
and subsampling all derive from the config seed and the step index, so a run
resumed from a checkpoint continues exactly where a longer run would have
been.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor as T
from .corpus import (
    RELATION_LABELS,
    Corpus,
    Sentence,
    TagScheme,
    Vocab,
    build_vocab,
    tokenize_corpus,
)
from .encoder import EncoderConfig, init_params, mlm_step
from .errors import CheckpointError, ContractError, NumericError
from .pipeline import (
    HEAD_KINDS,
    Model,
    encode_words,  # noqa: F401  (perfbench/tracer.py wraps training.encode_words)
    encode_words_batch,
    gold_relation_pairs,
    init_head,
    ner_loss,
)
from .relation_head import (  # noqa: F401  (perfbench/tracer.py wraps training.relation_loss)
    init_relation,
    pair_loss,
    relation_loss,
)
from .tensor import Tensor

FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    steps: int = 300
    batch_size: int = 4
    lambda_re: float = 1.0
    seed: int = 0
    head: str = "crf"
    class_balanced: bool = False
    clip_norm: float = 1.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ContractError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.steps < 0 or self.batch_size < 1:
            raise ContractError("steps must be >= 0 and batch_size >= 1")
        if self.lambda_re < 0:
            raise ContractError(f"lambda_re must be >= 0, got {self.lambda_re}")
        if self.head not in HEAD_KINDS:
            raise ContractError(f"head must be one of {HEAD_KINDS}, got {self.head!r}")
        if self.clip_norm <= 0:
            raise ContractError(f"clip_norm must be positive, got {self.clip_norm}")


@dataclass(frozen=True)
class PretrainConfig:
    learning_rate: float = 1e-3
    steps: int = 200
    batch_size: int = 8
    mask_prob: float = 0.15
    seed: int = 0
    clip_norm: float = 1.0


@dataclass
class OptimizerState:
    """Adam first/second moments keyed like the model's parameter dict."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_step(
    params: dict[str, Tensor],
    state: OptimizerState,
    learning_rate: float,
    clip_norm: float,
) -> None:
    """One Adam update with global gradient-norm clipping."""
    grads = {
        key: (p.grad if p.grad is not None else np.zeros_like(p.values))
        for key, p in params.items()
    }
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    factor = clip_norm / total if total > clip_norm else 1.0
    state.step += 1
    correction1 = 1.0 - state.beta1**state.step
    correction2 = 1.0 - state.beta2**state.step
    for key, p in params.items():
        g = grads[key] * factor
        m = state.m.setdefault(key, np.zeros_like(p.values))
        v = state.v.setdefault(key, np.zeros_like(p.values))
        m += (1.0 - state.beta1) * (g - m)
        v += (1.0 - state.beta2) * (g * g - v)
        p.values -= learning_rate * (m / correction1) / (np.sqrt(v / correction2) + state.eps)


def step_losses(
    model: Model,
    sentences: Sequence[Sentence],
    seeds: Sequence[int],
    lambda_re: float,
    dropping: bool,
) -> tuple[Tensor, Tensor]:
    """(ner, re) losses of one batch: one packed encoder pass, one head pass
    and one relation pass over the batch's packed word rows.

    ``seeds`` (one per sentence) drive dropout and negative subsampling.
    The relation loss is 0 when lambda_re is 0 or no sentence has two spans.
    """
    words = encode_words_batch(
        model, sentences, training=dropping, dropout_seeds=seeds if dropping else None
    )
    ner = ner_loss(model, words, sentences, seeds)
    pairs = gold_relation_pairs(words, sentences) if lambda_re > 0.0 else None
    re = pair_loss(*pairs, model.relation) if pairs else Tensor(0.0)
    return ner, re


def joint_loss(ner: Tensor, re: Tensor, lambda_re: float) -> Tensor:
    """ner + lambda_re * re; with lambda_re = 0 the relation term drops out."""
    if lambda_re == 0.0:
        return ner
    return T.add(ner, T.scale(re, lambda_re))


@dataclass
class Checkpoint:
    model: Model
    optimizer: OptimizerState | None = None
    step: int = 0
    seed_lineage: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# batch sampling


class _BatchSampler:
    """Deterministic batch index streams; both modes are pure in (seed, step)."""

    def __init__(self, corpus: Corpus, config: TrainConfig):
        self._n = len(corpus)
        self._seed = config.seed
        self._batch = config.batch_size
        self._balanced = config.class_balanced
        self._epoch_cache: dict[int, np.ndarray] = {}
        if self._balanced:
            self._by_class = {
                cls: [
                    i
                    for i, sentence in enumerate(corpus.sentences)
                    if any(s.cls == cls for s in sentence.spans)
                ]
                for cls in corpus.scheme.classes
            }
            self._classes = [cls for cls, ids in self._by_class.items() if ids]

    def _epoch_order(self, epoch: int) -> np.ndarray:
        if epoch not in self._epoch_cache:
            rng = np.random.default_rng(np.random.SeedSequence([self._seed, 0, epoch]))
            self._epoch_cache = {epoch: rng.permutation(self._n)}
        return self._epoch_cache[epoch]

    def batch(self, step: int) -> list[int]:
        if self._balanced and self._classes:
            rng = np.random.default_rng(np.random.SeedSequence([self._seed, 1, step]))
            out = []
            for _ in range(self._batch):
                cls = self._classes[rng.integers(len(self._classes))]
                ids = self._by_class[cls]
                out.append(int(ids[rng.integers(len(ids))]))
            return out
        offset = step * self._batch
        return [
            int(self._epoch_order((offset + i) // self._n)[(offset + i) % self._n])
            for i in range(self._batch)
        ]


# ---------------------------------------------------------------------------
# training loops


def _prepare_model(
    corpus: Corpus,
    config: TrainConfig,
    init: Checkpoint | None,
    encoder_config: EncoderConfig | None,
) -> tuple[Model, OptimizerState, int, list[str]]:
    if init is not None:
        model = init.model.clone()
        lineage = list(init.seed_lineage)
        start_step = init.step if init.model.head_kind == config.head else 0
        if model.head_kind != config.head or model.head is None:
            model.head_kind = config.head
            model.head = init_head(config.head, model.config, model.scheme, config.seed)
            model.relation = init_relation(model.config.d_model, config.seed + 1)
            lineage.append(f"head-init:{config.seed}")
            optimizer = OptimizerState()
        else:
            optimizer = init.optimizer or OptimizerState()
        return model, optimizer, start_step, lineage

    vocab = build_vocab(corpus.subset("train"))
    if encoder_config is None:
        encoder_config = EncoderConfig(vocab_size=len(vocab))
    elif encoder_config.vocab_size != len(vocab):
        encoder_config = replace(encoder_config, vocab_size=len(vocab))
    model = Model(
        config=encoder_config,
        encoder=init_params(encoder_config, config.seed),
        vocab=vocab,
        scheme=corpus.scheme,
        head_kind=config.head,
        head=init_head(config.head, encoder_config, corpus.scheme, config.seed),
        relation=init_relation(encoder_config.d_model, config.seed + 1),
    )
    return model, OptimizerState(), 0, [f"fresh-init:{config.seed}"]


def train(
    corpus: Corpus,
    config: TrainConfig,
    init: Checkpoint | None = None,
    encoder_config: EncoderConfig | None = None,
    log: list | None = None,
) -> Checkpoint:
    """Fine-tune the selected head (plus encoder and, when lambda_re > 0, the
    relation head) for config.steps Adam updates.

    ``init`` may be a pretraining checkpoint (head initialized fresh) or a
    previous run with the same head (training resumes, including optimizer
    moments).  ``log`` collects (step, loss, ner_loss, re_loss) rows.
    """
    if len(corpus) == 0:
        raise ContractError("cannot train on an empty corpus")
    model, optimizer, start_step, lineage = _prepare_model(
        corpus, config, init, encoder_config
    )
    lineage.append(f"train:{config.seed}")
    corpus = tokenize_corpus(corpus, model.vocab)
    sampler = _BatchSampler(corpus, config)
    params = model.parameters()
    dropping = model.config.dropout_rate > 0.0

    for step in range(start_step, start_step + config.steps):
        T.reset_tape()
        for p in params.values():
            p.zero_grad()
        sentences = [corpus.sentences[index] for index in sampler.batch(step)]
        seeds = [(config.seed * 1_000_003 + step) * 64 + slot for slot in range(len(sentences))]
        ner, re = step_losses(model, sentences, seeds, config.lambda_re, dropping)
        loss = joint_loss(ner, re, config.lambda_re)
        if not np.isfinite(loss.values):
            raise NumericError(f"non-finite loss at step {step}")
        T.backward(loss)
        adam_step(params, optimizer, config.learning_rate, config.clip_norm)
        if log is not None:
            log.append((step, float(loss.values), float(ner.values), float(re.values)))
    T.reset_tape()
    return Checkpoint(model, optimizer, start_step + config.steps, lineage)


def pretrain(
    corpus: Corpus,
    config: PretrainConfig,
    encoder_config: EncoderConfig | None = None,
    log: list | None = None,
) -> Checkpoint:
    """Masked-token pretraining of a fresh encoder on the train split."""
    if len(corpus) == 0:
        raise ContractError("cannot pretrain on an empty corpus")
    vocab = build_vocab(corpus.subset("train"))
    if encoder_config is None:
        encoder_config = EncoderConfig(vocab_size=len(vocab))
    elif encoder_config.vocab_size != len(vocab):
        encoder_config = replace(encoder_config, vocab_size=len(vocab))
    model = Model(
        config=encoder_config,
        encoder=init_params(encoder_config, config.seed),
        vocab=vocab,
        scheme=corpus.scheme,
    )
    train_corpus = tokenize_corpus(corpus.subset("train"), vocab)
    sequences = [
        [piece for token in sentence.tokens for piece in token.subword_ids]
        for sentence in train_corpus.sentences
    ]
    if not sequences:
        raise ContractError("train split is empty; nothing to pretrain on")
    optimizer = OptimizerState()
    params = model.parameters()
    n = len(sequences)
    epoch_cache: dict[int, np.ndarray] = {}

    def order(epoch: int) -> np.ndarray:
        if epoch not in epoch_cache:
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0, epoch]))
            epoch_cache.clear()
            epoch_cache[epoch] = rng.permutation(n)
        return epoch_cache[epoch]

    for step in range(config.steps):
        T.reset_tape()
        for p in params.values():
            p.zero_grad()
        offset = step * config.batch_size
        batch = [
            sequences[int(order((offset + i) // n)[(offset + i) % n])]
            for i in range(config.batch_size)
        ]
        loss = mlm_step(
            batch, model.encoder, model.config, config.mask_prob,
            seed=config.seed * 1_000_003 + step,
        )
        if not np.isfinite(loss.values):
            raise NumericError(f"non-finite pretraining loss at step {step}")
        T.backward(loss)
        adam_step(params, optimizer, config.learning_rate, config.clip_norm)
        if log is not None:
            log.append((step, float(loss.values)))
    T.reset_tape()
    return Checkpoint(model, optimizer, config.steps, [f"pretrain:{config.seed}"])


# ---------------------------------------------------------------------------
# checkpoint I/O


def _array_payload(params: dict[str, Tensor]) -> dict[str, list]:
    return {key: value.values.tolist() for key, value in params.items()}


def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> None:
    """Write a versioned JSON container; floats round-trip exactly via repr."""
    model = checkpoint.model
    for key, value in model.parameters().items():
        T.assert_finite(value.values, f"checkpoint array {key}")
    head_extras = {}
    if model.head_kind == "span" and model.head is not None:
        head_extras["classes"] = model.head.classes
    if model.relation is not None:
        head_extras["relation_labels"] = model.relation.labels
    payload = {
        "format_version": FORMAT_VERSION,
        "encoder_config": asdict(model.config),
        "scheme_classes": model.scheme.classes,
        "vocab_entries": model.vocab.entries,
        "vocab_min_freq": model.vocab.min_freq,
        "head_kind": model.head_kind,
        "head_extras": head_extras,
        "arrays": _array_payload(model.parameters()),
        "optimizer": None
        if checkpoint.optimizer is None
        else {
            "step": checkpoint.optimizer.step,
            "m": {k: v.tolist() for k, v in checkpoint.optimizer.m.items()},
            "v": {k: v.tolist() for k, v in checkpoint.optimizer.v.items()},
        },
        "step": checkpoint.step,
        "seed_lineage": checkpoint.seed_lineage,
    }
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, allow_nan=False), encoding="utf-8"
    )


_PAYLOAD_KEYS = (
    "encoder_config", "scheme_classes", "vocab_entries", "vocab_min_freq",
    "head_kind", "head_extras", "arrays", "optimizer", "step", "seed_lineage",
)
_ENCODER_KEYS = tuple(f.name for f in fields(EncoderConfig))


def _load_encoder_config(section, path) -> EncoderConfig:
    """The checkpoint's encoder config; every field present, nothing extra."""
    if not isinstance(section, dict):
        raise CheckpointError(f"checkpoint {path}: encoder_config must be a JSON object")
    for key in _ENCODER_KEYS:
        if key not in section:
            raise CheckpointError(f"checkpoint {path}: encoder_config is missing key {key!r}")
    for key in section:
        if key not in _ENCODER_KEYS:
            raise CheckpointError(f"checkpoint {path}: unknown encoder_config key {key!r}")
    try:
        return EncoderConfig(**section)
    except ContractError as exc:
        raise CheckpointError(f"checkpoint {path}: encoder_config: {exc}") from None


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Rebuild a checkpoint, validating the version and every array shape."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"checkpoint {path}: expected a JSON object, got {type(payload).__name__}"
        )
    if payload.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {payload.get('format_version')!r}"
        )
    for key in _PAYLOAD_KEYS:
        if key not in payload:
            raise CheckpointError(f"checkpoint {path}: missing key {key!r}")
    config = _load_encoder_config(payload["encoder_config"], path)
    vocab = Vocab(payload["vocab_entries"], payload["vocab_min_freq"])
    if len(vocab) != config.vocab_size:
        raise CheckpointError(
            f"vocab has {len(vocab)} entries but config declares {config.vocab_size}"
        )
    scheme = TagScheme(payload["scheme_classes"])
    arrays = payload["arrays"]

    if payload["head_kind"] is not None and payload["head_kind"] not in HEAD_KINDS:
        raise CheckpointError(
            f"checkpoint {path}: unknown head_kind {payload['head_kind']!r}; "
            f"expected one of {HEAD_KINDS} or null"
        )
    model = Model(
        config=config,
        encoder=init_params(config, seed=0),
        vocab=vocab,
        scheme=scheme,
        head_kind=payload["head_kind"],
    )
    if model.head_kind is not None:
        model.head = init_head(model.head_kind, config, scheme, seed=0)
        if model.head_kind == "span":
            model.head.classes = payload["head_extras"].get("classes", scheme.classes)
    if any(key.startswith("relation/") for key in arrays):
        labels = payload["head_extras"].get("relation_labels") or RELATION_LABELS
        model.relation = init_relation(config.d_model, seed=0, labels=labels)

    params = model.parameters()
    if set(params) != set(arrays):
        missing = sorted(set(params) ^ set(arrays))
        raise CheckpointError(f"checkpoint arrays do not match model: {missing}")
    for key, tensor in params.items():
        loaded = np.asarray(arrays[key], dtype=np.float64)
        if loaded.shape != tensor.values.shape:
            raise CheckpointError(
                f"array {key} has shape {loaded.shape}, expected {tensor.values.shape}"
            )
        T.assert_finite(loaded, f"checkpoint array {key}")
        tensor.values = loaded

    optimizer = _load_optimizer(payload["optimizer"], path)
    return Checkpoint(model, optimizer, payload["step"], payload["seed_lineage"])


def _load_optimizer(section, path) -> OptimizerState | None:
    """Adam state from the checkpoint's optimizer section (null for none)."""
    if section is None:
        return None
    if not isinstance(section, dict):
        raise CheckpointError(f"checkpoint {path}: optimizer must be a JSON object or null")
    for key in ("step", "m", "v"):
        if key not in section:
            raise CheckpointError(f"checkpoint {path}: optimizer is missing key {key!r}")
    optimizer = OptimizerState(step=section["step"])
    for name, store in (("m", optimizer.m), ("v", optimizer.v)):
        if not isinstance(section[name], dict):
            raise CheckpointError(
                f"checkpoint {path}: optimizer key {name!r} must be a JSON object"
            )
        for key, value in section[name].items():
            store[key] = np.asarray(value, dtype=np.float64)
    return optimizer
