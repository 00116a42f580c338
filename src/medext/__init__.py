"""Desk-scale medical entity and relation extraction toolkit.

A from-scratch stack: a small autograd tensor engine, a mini transformer
encoder with masked-token pretraining, three extraction heads (linear-chain
CRF, span classifier, autoregressive tagger), a relation head over entity
pairs, seeded synthetic data, and a few-shot learning-curve runner.  Every
numeric result is reproducible from explicit seeds and validated against
brute-force oracles and finite-difference gradient checks.
"""

from .corpus import (
    Corpus,
    EntitySpan,
    RelationInstance,
    Sentence,
    TagScheme,
    Token,
    Vocab,
    build_vocab,
    generate_synthetic_corpus,
    load_conll,
    spans_to_tags,
    tags_to_spans,
    tokenize_subword,
)
from .encoder import EncoderConfig, encode, init_params, mlm_step
from .evaluation import EvalReport, entity_prf, f1_from_pr, relation_prf
from .fewshot import CurveConfig, Episode, run_curve, sample_k_shot
from .pipeline import Model, evaluate_split
from .tensor import Tensor, backward, finite_diff_check, reset_tape
from .training import (
    Checkpoint,
    PretrainConfig,
    TrainConfig,
    load_checkpoint,
    pretrain,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Checkpoint",
    "Corpus",
    "CurveConfig",
    "EncoderConfig",
    "EntitySpan",
    "Episode",
    "EvalReport",
    "Model",
    "PretrainConfig",
    "RelationInstance",
    "Sentence",
    "TagScheme",
    "Tensor",
    "Token",
    "TrainConfig",
    "Vocab",
    "backward",
    "build_vocab",
    "encode",
    "entity_prf",
    "evaluate_split",
    "f1_from_pr",
    "finite_diff_check",
    "generate_synthetic_corpus",
    "init_params",
    "load_checkpoint",
    "load_conll",
    "mlm_step",
    "pretrain",
    "relation_prf",
    "reset_tape",
    "run_curve",
    "sample_k_shot",
    "save_checkpoint",
    "spans_to_tags",
    "tags_to_spans",
    "tokenize_subword",
    "train",
]
