"""Optimizer, joint NER+RE training loop, MLM pretraining, and checkpoints.

Every run is a pure function of (corpus, init, config): batch order, dropout,
and subsampling all derive from the config seed and the step index, so a run
resumed from a checkpoint continues exactly where a longer run would have
been.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Sequence

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
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard


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
        _check_optimizer_fields(self)
        if self.lambda_re < 0:
            raise ContractError(f"lambda_re must be >= 0, got {self.lambda_re}")
        if self.head not in HEAD_KINDS:
            raise ContractError(f"head must be one of {HEAD_KINDS}, got {self.head!r}")


@dataclass(frozen=True)
class PretrainConfig:
    learning_rate: float = 1e-3
    steps: int = 200
    batch_size: int = 8
    mask_prob: float = 0.15
    seed: int = 0
    clip_norm: float = 1.0

    def __post_init__(self):
        _check_optimizer_fields(self)
        if not 0.0 < self.mask_prob < 1.0:
            raise ContractError(f"mask_prob must be in (0, 1), got {self.mask_prob}")


def _check_optimizer_fields(config: TrainConfig | PretrainConfig) -> None:
    """The checks TrainConfig and PretrainConfig share.  Every config check
    message opens with the field it names."""
    if config.learning_rate <= 0:
        raise ContractError(f"learning_rate must be positive, got {config.learning_rate}")
    if config.steps < 0:
        raise ContractError(f"steps must be >= 0, got {config.steps}")
    if config.batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {config.batch_size}")
    if config.clip_norm <= 0:
        raise ContractError(f"clip_norm must be positive, got {config.clip_norm}")


@dataclass
class OptimizerState:
    """Adam first/second moments keyed like the model's parameter dict."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


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
    correction1 = 1.0 - BETA1**state.step
    correction2 = 1.0 - BETA2**state.step
    for key, p in params.items():
        g = grads[key] * factor
        m = state.m.setdefault(key, np.zeros_like(p.values))
        v = state.v.setdefault(key, np.zeros_like(p.values))
        m += (1.0 - BETA1) * (g - m)
        v += (1.0 - BETA2) * (g * g - v)
        p.values -= learning_rate * (m / correction1) / (np.sqrt(v / correction2) + EPS)


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
    """Batch indices from seeded epoch permutations, or from class-balanced
    draws when ``balanced``; both modes are pure in (seed, step)."""

    def __init__(self, corpus: Corpus, batch_size: int, seed: int, balanced: bool = False):
        self._n = len(corpus)
        self._seed = seed
        self._batch = batch_size
        self._epoch_cache: dict[int, np.ndarray] = {}
        self._by_class = {
            cls: [i for i, s in enumerate(corpus.sentences) if any(e.cls == cls for e in s.spans)]
            for cls in (corpus.scheme.classes if balanced else ())
        }
        self._classes = [cls for cls, ids in self._by_class.items() if ids]

    def _epoch_order(self, epoch: int) -> np.ndarray:
        if epoch not in self._epoch_cache:
            rng = np.random.default_rng(np.random.SeedSequence([self._seed, 0, epoch]))
            self._epoch_cache = {epoch: rng.permutation(self._n)}
        return self._epoch_cache[epoch]

    def batch(self, step: int) -> list[int]:
        if self._classes:
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


def _fresh_model(corpus: Corpus, encoder_config: EncoderConfig | None, seed: int) -> Model:
    """A headless model: vocab from the train split, encoder initialized from seed."""
    vocab = build_vocab(corpus.subset("train"))
    if encoder_config is None:
        encoder_config = EncoderConfig(vocab_size=len(vocab))
    elif encoder_config.vocab_size != len(vocab):
        encoder_config = replace(encoder_config, vocab_size=len(vocab))
    return Model(encoder_config, init_params(encoder_config, seed), vocab, corpus.scheme)


def _attach_head(model: Model, kind: str, seed: int) -> None:
    """Give ``model`` a fresh extraction head of ``kind`` and a fresh relation head."""
    model.head = init_head(kind, model.config, model.scheme, seed)
    model.relation = init_relation(model.config.d_model, seed + 1)


def _prepare_model(
    corpus: Corpus,
    config: TrainConfig,
    init: Checkpoint | None,
    encoder_config: EncoderConfig | None,
) -> tuple[Model, OptimizerState, int, list[str]]:
    if init is None:
        model = _fresh_model(corpus, encoder_config, config.seed)
        _attach_head(model, config.head, config.seed)
        return model, OptimizerState(), 0, [f"fresh-init:{config.seed}"]
    model = init.model.clone()
    lineage = list(init.seed_lineage)
    if model.head_kind == config.head:
        # resume: continue the step count from a copy of init's Adam moments
        return model, copy.deepcopy(init.optimizer or OptimizerState()), init.step, lineage
    _attach_head(model, config.head, config.seed)
    return model, OptimizerState(), 0, lineage + [f"head-init:{config.seed}"]


def _optimize(
    model: Model, optimizer: OptimizerState, steps: range, learning_rate: float,
    clip_norm: float, loss_at: Callable[[int], tuple[Tensor, tuple]], log: list | None,
) -> None:
    """One Adam update per step: ``loss_at(step)`` builds the step's graph and
    returns (loss, log row); a non-finite loss stops the run."""
    params = model.parameters()
    for step in steps:
        T.reset_tape()
        for p in params.values():
            p.zero_grad()
        loss, row = loss_at(step)
        if not np.isfinite(loss.values):
            raise NumericError(f"non-finite loss at step {step}")
        T.backward(loss)
        adam_step(params, optimizer, learning_rate, clip_norm)
        if log is not None:
            log.append(row)
    T.reset_tape()


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
    previous run with the same head (training resumes from a copy of its
    optimizer moments; ``init`` itself is left unchanged).  ``log`` collects
    (step, loss, ner_loss, re_loss) rows.
    """
    if len(corpus) == 0:
        raise ContractError("cannot train on an empty corpus")
    model, optimizer, start_step, lineage = _prepare_model(
        corpus, config, init, encoder_config
    )
    lineage.append(f"train:{config.seed}")
    corpus = tokenize_corpus(corpus, model.vocab)
    sampler = _BatchSampler(corpus, config.batch_size, config.seed, config.class_balanced)
    dropping = model.config.dropout_rate > 0.0

    def loss_at(step: int):
        sentences = [corpus.sentences[index] for index in sampler.batch(step)]
        seeds = [(config.seed * 1_000_003 + step) * 64 + slot for slot in range(len(sentences))]
        ner, re = step_losses(model, sentences, seeds, config.lambda_re, dropping)
        loss = joint_loss(ner, re, config.lambda_re)
        return loss, (step, float(loss.values), float(ner.values), float(re.values))

    steps = range(start_step, start_step + config.steps)
    _optimize(model, optimizer, steps, config.learning_rate, config.clip_norm, loss_at, log)
    return Checkpoint(model, optimizer, steps.stop, lineage)


def pretrain(
    corpus: Corpus,
    config: PretrainConfig,
    encoder_config: EncoderConfig | None = None,
    log: list | None = None,
) -> Checkpoint:
    """Masked-token pretraining of a fresh encoder on the train split."""
    if len(corpus) == 0:
        raise ContractError("cannot pretrain on an empty corpus")
    model = _fresh_model(corpus, encoder_config, config.seed)
    train_corpus = tokenize_corpus(corpus.subset("train"), model.vocab)
    sequences = [
        [piece for token in sentence.tokens for piece in token.subword_ids]
        for sentence in train_corpus.sentences
    ]
    if not sequences:
        raise ContractError("train split is empty; nothing to pretrain on")
    sampler = _BatchSampler(train_corpus, config.batch_size, config.seed)

    def loss_at(step: int):
        batch = [sequences[index] for index in sampler.batch(step)]
        loss = mlm_step(
            batch, model.encoder, model.config, config.mask_prob,
            seed=config.seed * 1_000_003 + step,
        )
        return loss, (step, float(loss.values))

    optimizer = OptimizerState()
    steps = range(config.steps)
    _optimize(model, optimizer, steps, config.learning_rate, config.clip_norm, loss_at, log)
    return Checkpoint(model, optimizer, config.steps, [f"pretrain:{config.seed}"])


# ---------------------------------------------------------------------------
# checkpoint I/O


def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> None:
    """Write a versioned JSON container; floats round-trip exactly via repr.

    The JSON goes to a temporary file in the same directory, which then
    replaces ``path``, so a failed write leaves an existing checkpoint intact.
    """
    model = checkpoint.model
    params = model.parameters()
    for key, value in params.items():
        T.assert_finite(value.values, f"checkpoint array {key}")
    head_extras = {}
    if model.head_kind == "span":
        head_extras["classes"] = model.head.classes
    if model.relation is not None:
        head_extras["relation_labels"] = model.relation.labels
    optimizer = checkpoint.optimizer
    payload = {
        "format_version": FORMAT_VERSION,
        "encoder_config": asdict(model.config),
        "scheme_classes": model.scheme.classes,
        "vocab_entries": model.vocab.entries,
        "vocab_min_freq": model.vocab.min_freq,
        "head_kind": model.head_kind,
        "head_extras": head_extras,
        "arrays": {key: value.values.tolist() for key, value in params.items()},
        "optimizer": None
        if optimizer is None
        else {
            "step": optimizer.step,
            "m": {k: v.tolist() for k, v in optimizer.m.items()},
            "v": {k: v.tolist() for k, v in optimizer.v.items()},
        },
        "step": checkpoint.step,
        "seed_lineage": checkpoint.seed_lineage,
    }
    path = Path(path)
    partial = path.with_name(path.name + ".tmp")
    try:
        partial.write_text(json.dumps(payload, sort_keys=True, allow_nan=False), encoding="utf-8")
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


_PAYLOAD_KEYS = (
    "encoder_config", "scheme_classes", "vocab_entries", "vocab_min_freq",
    "head_kind", "head_extras", "arrays", "optimizer", "step", "seed_lineage",
)
_ENCODER_KEYS = tuple(f.name for f in fields(EncoderConfig))


def _check(ok: bool, path, message: str) -> None:
    """Raise CheckpointError naming the checkpoint file unless ``ok``."""
    if not ok:
        raise CheckpointError(f"checkpoint {path}: {message}")


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _load_array(value, shape: tuple[int, ...], path, what: str) -> np.ndarray:
    """A checkpoint array: numbers only, of the expected shape, all finite."""
    try:
        array = np.asarray(value)
    except ValueError:  # ragged nesting
        array = np.asarray(None)
    _check(array.dtype.kind in "if", path, f"{what} must be an array of numbers")
    _check(array.shape == shape, path, f"{what} has shape {array.shape}, expected {shape}")
    _check(bool(np.isfinite(array).all()), path, f"{what} has non-finite values")
    return np.asarray(array, dtype=np.float64)


def _load_encoder_config(section, path) -> EncoderConfig:
    """The checkpoint's encoder config; every field present, nothing extra."""
    _check(isinstance(section, dict), path, "encoder_config must be a JSON object")
    for key in _ENCODER_KEYS:
        _check(key in section, path, f"encoder_config is missing key {key!r}")
    for key in section:
        _check(key in _ENCODER_KEYS, path, f"unknown encoder_config key {key!r}")
    try:
        return EncoderConfig(**section)
    except (ContractError, TypeError) as exc:
        raise CheckpointError(f"checkpoint {path}: encoder_config: {exc}") from None


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Rebuild a checkpoint, checking every section against ``Model.parameters()``.

    A malformed section raises CheckpointError naming the file and the key.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from None
    kind = type(payload).__name__
    _check(isinstance(payload, dict), path, f"expected a JSON object, got {kind}")
    version = payload.get("format_version")
    _check(version == FORMAT_VERSION, path, f"unsupported checkpoint version {version!r}")
    for key in _PAYLOAD_KEYS:
        _check(key in payload, path, f"missing key {key!r}")
    config = _load_encoder_config(payload["encoder_config"], path)
    for key in ("scheme_classes", "vocab_entries", "seed_lineage"):
        _check(_is_strings(payload[key]), path, f"{key} must be a JSON list of strings")
    _check(_is_count(payload["step"]), path, "step must be an integer >= 0")
    min_freq = payload["vocab_min_freq"]
    _check(_is_count(min_freq) and min_freq >= 1, path, "vocab_min_freq must be an integer >= 1")
    extras, arrays, head_kind = payload["head_extras"], payload["arrays"], payload["head_kind"]
    _check(isinstance(extras, dict), path, "head_extras must be a JSON object")
    for key in ("classes", "relation_labels"):
        _check(_is_strings(extras.get(key, [])), path, f"head_extras key {key!r} must be a list")
    classes = sorted(payload["scheme_classes"])  # the span head's w_cls scores these
    ok = sorted(extras.get("classes", classes)) == classes
    _check(ok, path, f"head_extras key 'classes' must hold the scheme's classes {classes}")
    _check(isinstance(arrays, dict), path, "arrays must be a JSON object")
    known = head_kind in (None, *HEAD_KINDS)
    _check(known, path, f"unknown head_kind {head_kind!r}; expected one of {HEAD_KINDS} or null")

    try:
        vocab = Vocab(payload["vocab_entries"], min_freq)
        scheme = TagScheme(payload["scheme_classes"])
        head = None if head_kind is None else init_head(head_kind, config, scheme, seed=0)
        if head_kind == "span":
            head.classes = extras.get("classes", scheme.classes)
        model = Model(config, init_params(config, seed=0), vocab, scheme, head)
        if any(key.startswith("relation/") for key in arrays):
            labels = extras.get("relation_labels") or RELATION_LABELS
            model.relation = init_relation(config.d_model, seed=0, labels=labels)
    except ContractError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from None
    size = f"vocab has {len(vocab)} entries but config declares {config.vocab_size}"
    _check(len(vocab) == config.vocab_size, path, size)
    params = model.parameters()
    mismatch = sorted(set(params) ^ set(arrays))
    _check(not mismatch, path, f"arrays do not match the model: {mismatch}")
    for key, tensor in params.items():
        tensor.values = _load_array(arrays[key], tensor.shape, path, f"array {key!r}")
    optimizer = _load_optimizer(payload["optimizer"], params, path)
    return Checkpoint(model, optimizer, payload["step"], payload["seed_lineage"])


def _load_optimizer(section, params: dict[str, Tensor], path) -> OptimizerState | None:
    """Adam state from the optimizer section (null for none); ``m`` and ``v``
    each hold one moment per parameter, or none before the first step."""
    if section is None:
        return None
    _check(isinstance(section, dict), path, "optimizer must be a JSON object or null")
    for key in ("step", "m", "v"):
        _check(key in section, path, f"optimizer is missing key {key!r}")
    _check(_is_count(section["step"]), path, "optimizer step must be an integer >= 0")
    optimizer = OptimizerState(step=section["step"])
    for name, store in (("m", optimizer.m), ("v", optimizer.v)):
        moments = section[name]
        _check(isinstance(moments, dict), path, f"optimizer key {name!r} must be a JSON object")
        mismatch = sorted(set(params) ^ set(moments))
        keys = f"optimizer {name!r} does not match the parameters: {mismatch}"
        _check(not moments or not mismatch, path, keys)
        for key, value in moments.items():
            store[key] = _load_array(value, params[key].shape, path, f"optimizer {name} {key!r}")
    return optimizer
