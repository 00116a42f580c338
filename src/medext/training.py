"""Optimizer, joint NER+RE training loop, MLM pretraining, and checkpoints.

Every run is a pure function of (corpus, init, config): batch order, dropout,
and subsampling all derive from the config seed and the step index, so a run
resumed from a checkpoint continues exactly where a longer run would have
been.
"""

from __future__ import annotations

import base64
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
    Corpus,
    Sentence,
    TagScheme,
    Vocab,
    build_vocab,
    parse_json,
    read_utf8,
    tokenize_corpus,  # noqa: F401  (perfbench/tracer.py wraps training.tokenize_corpus)
)
from .encoder import EncoderConfig, init_params, mlm_step
from .errors import CheckpointError, ContractError, NumericError, ParseError
from .pipeline import (
    HEAD_KINDS,
    Model,
    encode_words,  # noqa: F401  (perfbench/tracer.py wraps training.encode_words)
    encode_words_batch,
    gold_relation_pairs,
    init_heads,
    named_parameters,
    ner_loss,
    word_ids,
)
from .relation_head import (  # noqa: F401  (perfbench/tracer.py wraps training.relation_loss)
    pair_loss,
    relation_loss,
)
from .tensor import Tensor

FORMAT_VERSION = 3
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard
MAX_STEP_ROWS = 1 << 16  # packed subword rows one step may hold: batch_size x max_len


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
    if config.seed < 0:
        raise ContractError(f"seed must be >= 0, got {config.seed}")
    if config.steps < 0:
        raise ContractError(f"steps must be >= 0, got {config.steps}")
    if config.batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {config.batch_size}")
    if config.clip_norm <= 0:
        raise ContractError(f"clip_norm must be positive, got {config.clip_norm}")


def check_batch_size(batch_size: int, max_len: int) -> None:
    """Refuse, before anything is allocated, a batch whose packed step may hold
    more than MAX_STEP_ROWS rows: batch_size sequences of up to max_len subwords.
    A batch larger than the split it samples is fine (few-shot support sets)."""
    if batch_size * max_len > MAX_STEP_ROWS:
        raise ContractError(f"batch_size must be <= {MAX_STEP_ROWS // max_len} at max_len "
                            f"{max_len} ({MAX_STEP_ROWS} packed rows a step), got {batch_size}")


@dataclass
class OptimizerState:
    """Adam's step count and moments: None before the first step, then rows m
    and v laid out as the parameters' flat vector; ``m`` and ``v`` view them
    by parameter name."""

    step: int = 0
    moments: np.ndarray | None = field(default=None, repr=False)
    layout: T.Layout = ()

    m = property(lambda self: {} if self.moments is None else T.views(self.layout, self.moments[0]))
    v = property(lambda self: {} if self.moments is None else T.views(self.layout, self.moments[1]))


def adam_step(
    params: T.FlatParams,
    state: OptimizerState,
    learning_rate: float,
    clip_norm: float,
) -> None:
    """One Adam update with global gradient-norm clipping, as whole-vector
    ufuncs over the flat vector of ``params`` (a model's, or one packed by
    hand in tests).  Bitwise the per-array update: the norm sums each
    gradient's squares on its own, in ``params`` order, and each elementwise
    step keeps the per-array operand order.  The work vectors are made once
    per model and written with ``out=``: a fresh temporary of this size
    (217 KB at the default sizes) is mapped and unmapped on every step.
    """
    if state.moments is None:
        state.layout, state.moments = params.layout, np.zeros((2, params.flat.size))
    elif state.layout != params.layout:
        raise ContractError("optimizer state does not match the parameters")
    if params.buffers is None:  # a model that never trains never allocates them
        params.buffers = np.empty((3, params.flat.size))
    g, t, u = params.buffers
    m, v = state.moments
    grads = (np.zeros(p.shape) if p.grad is None else p.grad for p in params.values())
    np.concatenate([grad.reshape(-1) for grad in grads], out=g)
    at = [offset for _, _, offset in params.layout] + [g.size]
    squares = np.multiply(g, g, out=t)
    total = math.sqrt(sum(float(squares[lo:hi].sum()) for lo, hi in zip(at, at[1:])))
    factor = clip_norm / total if total > clip_norm else 1.0
    state.step += 1
    correction1 = 1.0 - BETA1**state.step
    correction2 = 1.0 - BETA2**state.step
    # per array: g *= factor; m += (1 - beta1) * (g - m); v += (1 - beta2) * (g * g - v);
    # values -= learning_rate * (m / correction1) / (sqrt(v / correction2) + eps)
    g *= factor
    m += np.multiply(np.subtract(g, m, out=t), 1.0 - BETA1, out=t)
    v += np.multiply(np.subtract(np.multiply(g, g, out=t), v, out=t), 1.0 - BETA2, out=t)
    np.add(np.sqrt(np.divide(v, correction2, out=u), out=u), EPS, out=u)
    np.divide(np.multiply(np.divide(m, correction1, out=t), learning_rate, out=t), u, out=t)
    params.flat -= t


def step_losses(
    model: Model,
    sentences: Sequence[Sentence],
    seeds: Sequence[int],
    lambda_re: float,
) -> tuple[Tensor, Tensor | None]:
    """(ner, re) losses of one batch: one packed encoder pass, one head pass
    and one relation pass over the batch's packed word rows.

    ``seeds`` (one per sentence) drive dropout and negative subsampling.
    The relation loss is None when lambda_re is 0 or no sentence has two spans.
    """
    words = encode_words_batch(model, sentences, seeds)
    ner = ner_loss(model, words, sentences, seeds)
    pairs = gold_relation_pairs(words, sentences) if lambda_re > 0.0 else None
    return ner, pair_loss(words, *pairs, model.relation) if pairs else None


def joint_loss(ner: Tensor, re: Tensor | None, lambda_re: float) -> Tensor:
    """ner + lambda_re * re; without a relation loss, or at lambda_re = 0, ner."""
    if re is None or lambda_re == 0.0:
        return ner
    return T.add(ner, T.scale(re, lambda_re))


@dataclass
class Checkpoint:
    model: Model
    optimizer: OptimizerState
    seed_lineage: list[str]

    @property
    def step(self) -> int:
        """The number of steps trained: the optimizer's step count."""
        return self.optimizer.step


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
    train_corpus = corpus.subset("train")
    if len(train_corpus) == 0:
        raise ContractError("the train split holds no sentences to build a vocabulary from")
    vocab = build_vocab(train_corpus)
    if encoder_config is None:
        encoder_config = EncoderConfig(vocab_size=len(vocab))
    encoder_config = replace(encoder_config, vocab_size=len(vocab))
    return Model(encoder_config, init_params(encoder_config, seed), vocab, corpus.scheme)


def _start(
    corpus: Corpus,
    config: TrainConfig,
    init: Checkpoint | None,
    encoder_config: EncoderConfig | None,
) -> Checkpoint:
    """The run to start from: a copy of ``init`` with a head of ``config.head``,
    else fresh heads on a copy of ``init``'s encoder or a fresh one."""
    if init is not None and init.model.head_kind == config.head:
        # resume: continue the step count from a copy of init's Adam moments
        return Checkpoint(init.model.clone(), copy.deepcopy(init.optimizer), init.seed_lineage[:])
    if init is None:
        model = _fresh_model(corpus, encoder_config, config.seed)
        lineage = [f"fresh-init:{config.seed}"]
    else:
        model = init.model
        lineage = init.seed_lineage + [f"head-init:{config.seed}"]
    head, relation = init_heads(config.head, model.config, model.scheme, config.seed)
    return Checkpoint(replace(model, head=head, relation=relation), OptimizerState(), lineage)


def _optimize(
    run: Checkpoint, config: TrainConfig | PretrainConfig, loss_at: Callable, log: list | None
) -> Checkpoint:
    """``config.steps`` Adam updates of ``run``, from its step count on.  ``loss_at(step)``
    builds the step's graph and returns its loss and the further columns of its log
    row, (step, loss, *columns), appended after the update; a non-finite loss stops the run."""
    params = run.model.parameters()
    for step in range(run.step, run.step + config.steps):
        T.reset_tape()
        for p in params.values():
            p.zero_grad()
        loss, columns = loss_at(step)
        if not np.isfinite(loss.values):
            raise NumericError(f"non-finite loss at step {step} with learning_rate="
                               f"{config.learning_rate:g} and clip_norm={config.clip_norm:g}")
        T.backward(loss)
        adam_step(params, run.optimizer, config.learning_rate, config.clip_norm)
        if log is not None:
            log.append((step, float(loss.values), *columns))
    T.reset_tape()
    return run


def train(
    corpus: Corpus,
    config: TrainConfig,
    init: Checkpoint | None = None,
    encoder_config: EncoderConfig | None = None,
    log: list | None = None,
) -> Checkpoint:
    """Fine-tune the selected head (plus encoder and, when lambda_re > 0, the
    relation head) for config.steps Adam updates.

    ``init`` may be a pretraining checkpoint (a new model with a copy of its
    encoder and a fresh head) or a previous run with the same head (training
    resumes on ``init.model.clone()`` from a copy of its optimizer moments).
    ``init`` itself is left unchanged.  ``log`` collects
    (step, loss, ner_loss, re_loss) rows.
    """
    if len(corpus) == 0:
        raise ContractError("cannot train on an empty corpus")
    encoder = init.model.config if init else encoder_config or EncoderConfig(vocab_size=5)
    check_batch_size(config.batch_size, encoder.max_len)
    run = _start(corpus, config, init, encoder_config)
    run.seed_lineage.append(f"train:{config.seed}")
    sampler = _BatchSampler(corpus, config.batch_size, config.seed, config.class_balanced)
    stride = max(64, config.batch_size)  # each step's slot seeds overlap no other step's

    def loss_at(step: int):
        sentences = [corpus.sentences[index] for index in sampler.batch(step)]
        seeds = [(config.seed * 1_000_003 + step) * stride + slot for slot in range(len(sentences))]
        ner, re = step_losses(run.model, sentences, seeds, config.lambda_re)
        loss = joint_loss(ner, re, config.lambda_re)
        re_value = 0.0 if re is None else float(re.values)
        return loss, (float(ner.values), re_value)

    return _optimize(run, config, loss_at, log)


def pretrain(
    corpus: Corpus,
    config: PretrainConfig,
    encoder_config: EncoderConfig | None = None,
    log: list | None = None,
) -> Checkpoint:
    """Masked-token pretraining of a fresh encoder on the train split."""
    check_batch_size(config.batch_size, (encoder_config or EncoderConfig(vocab_size=5)).max_len)
    model = _fresh_model(corpus, encoder_config, config.seed)
    train_corpus = corpus.subset("train")
    sequences = [word_ids(sentence, model.vocab)[0] for sentence in train_corpus.sentences]
    sampler = _BatchSampler(train_corpus, config.batch_size, config.seed)

    def loss_at(step: int):
        batch = [sequences[index] for index in sampler.batch(step)]
        loss = mlm_step(
            batch, model.encoder, model.config, config.mask_prob,
            seed=config.seed * 1_000_003 + step,
        )
        return loss, ()

    run = Checkpoint(model, OptimizerState(), [f"pretrain:{config.seed}"])
    return _optimize(run, config, loss_at, log)


# ---------------------------------------------------------------------------
# checkpoint I/O


def _encode(vector: np.ndarray) -> str:
    """base64 text of a float64 array's little-endian bytes."""
    return base64.b64encode(vector.astype("<f8", copy=False).tobytes()).decode("ascii")


def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> None:
    """Write a versioned JSON container; the parameters and Adam moments are
    base64 text of their flat vectors' little-endian float64 bytes.

    The JSON goes to a temporary file in the same directory, which then
    replaces ``path``, so a failed write leaves an existing checkpoint intact.
    """
    model = checkpoint.model
    params = model.parameters()
    moments = checkpoint.optimizer.moments
    T.assert_finite(params.flat, "checkpoint params")
    if moments is not None:
        T.assert_finite(moments, "checkpoint optimizer moments")
    payload = {
        "format_version": FORMAT_VERSION,
        "encoder_config": asdict(model.config),
        "scheme_classes": model.scheme.classes,
        "vocab_entries": model.vocab.entries,
        "head_kind": model.head_kind,
        "param_names": [name for name, _, _ in params.layout],
        "params": _encode(params.flat),
        "optimizer": {
            "step": checkpoint.step,
            "moments": None if moments is None else _encode(moments),
        },
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
    "encoder_config", "scheme_classes", "vocab_entries", "head_kind", "param_names", "params",
    "optimizer", "seed_lineage",
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


def _decode(text, layout: T.Layout, rows: int, path, what: str, decode=True) -> np.ndarray | None:
    """``rows`` vectors laid out as ``layout``, from base64 ``text`` of their
    little-endian float64 bytes; the length is checked before they are made.
    Unless ``decode``, text of the right base64 length gives None unread."""
    size = sum(math.prod(shape) for _, shape, _ in layout)
    if not decode and isinstance(text, str) and len(text) == 4 * -(-8 * rows * size // 3):
        return None
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:  # not a string, not ASCII, or binascii.Error
        raise CheckpointError(f"checkpoint {path}: {what} is not valid base64: {exc}") from None
    short = [name for name, shape, at in layout if 8 * rows * (at + math.prod(shape)) > len(raw)]
    where = f"; the data ends inside {short[0]!r}" if short else ""
    expected = f"{len(raw)} bytes, expected {8 * rows * size}{where}"
    _check(len(raw) == 8 * rows * size, path, f"{what} holds {expected}")
    # a copy: the decoded bytes are read-only, and Adam writes into the moments
    vector = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(rows, size)
    _check(bool(np.isfinite(vector).all()), path, f"{what} has non-finite values")
    return vector


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
    """Rebuild a checkpoint, checking every section against ``Model.parameters()``,
    names and byte lengths before any parameter memory is allocated; a
    malformed section raises CheckpointError naming the file and the key."""
    return _read_checkpoint(path, decode_moments=True)


def load_model(path: str | Path) -> Model:
    """The model of checkpoint ``path``, with every check of ``load_checkpoint``
    except that Adam moments of the right base64 length are not decoded."""
    return _read_checkpoint(path, decode_moments=False).model


def _read_checkpoint(path: str | Path, decode_moments: bool) -> Checkpoint:
    try:
        payload = parse_json(read_utf8(path))
    except ParseError as exc:
        raise CheckpointError(f"corrupt checkpoint {exc}") from None
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from None
    kind = type(payload).__name__
    _check(isinstance(payload, dict), path, f"expected a JSON object, got {kind}")
    version = payload.get("format_version")
    _check(version == FORMAT_VERSION, path, f"unsupported checkpoint version {version!r}")
    for key in _PAYLOAD_KEYS:
        _check(key in payload, path, f"missing key {key!r}")
    config = _load_encoder_config(payload["encoder_config"], path)
    for key in ("scheme_classes", "vocab_entries", "seed_lineage", "param_names"):
        _check(_is_strings(payload[key]), path, f"{key} must be a JSON list of strings")
    names, head_kind = payload["param_names"], payload["head_kind"]
    known = head_kind in (None, *HEAD_KINDS)
    _check(known, path, f"unknown head_kind {head_kind!r}; expected one of {HEAD_KINDS} or null")

    try:
        vocab = Vocab(payload["vocab_entries"])
        scheme = TagScheme(payload["scheme_classes"])
        size = f"encoder_config key 'vocab_size' is {config.vocab_size}"
        _check(len(vocab) == config.vocab_size, path, f"{size}, but vocab has {len(vocab)} entries")
        with T.shapes_only():  # the layout, before any parameter memory is allocated
            encoder = init_params(config, seed=0)
            heads = (None, None) if head_kind is None else init_heads(head_kind, config, scheme, 0)
    except ContractError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from None
    named = named_parameters(encoder, *heads)
    mismatch = sorted(set(names) ^ set(named)) or "the same names, reordered or repeated"
    _check(names == list(named), path, f"param_names do not match the model: {mismatch}")
    layout = T.layout_of(named)
    values = _decode(payload["params"], layout, 1, path, "params")[0]
    optimizer = _load_optimizer(payload["optimizer"], layout, path, decode_moments)
    model = Model(config, encoder, vocab, scheme, *heads)  # allocates, all checks passed
    model.parameters().flat[...] = values
    return Checkpoint(model, optimizer, payload["seed_lineage"])


def _load_optimizer(section, layout: T.Layout, path, decode: bool) -> OptimizerState:
    """Adam state from the optimizer section: the step count and the moments,
    None if null (before the first step) or, unless ``decode``, left unread."""
    _check(isinstance(section, dict), path, "optimizer must be a JSON object")
    for key in ("step", "moments"):
        _check(key in section, path, f"optimizer is missing key {key!r}")
    _check(_is_count(section["step"]), path, "optimizer step must be an integer >= 0")
    optimizer, moments = OptimizerState(step=section["step"], layout=layout), section["moments"]
    if moments is not None:
        optimizer.moments = _decode(moments, layout, 2, path, "optimizer moments", decode)
    return optimizer
