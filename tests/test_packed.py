"""The packed call form.  Every function over packed sentence rows takes the
rows and their ``lengths``; ``tensor.tiling`` (directly or through
``tensor.segments``) is the one check that the rows are non-empty and that
the lengths tile them.  Only three functions keep a one-sentence form."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import medext
from medext import tensor as T
from medext.corpus import EntitySpan
from medext.crf_head import crf_nll, log_partition_batch, sequence_score, viterbi
from medext.errors import ContractError
from medext.relation_head import init_relation, predict_relations, span_pairs
from medext.seq2seq_head import greedy_decode, init_seq2seq, teacher_forced_loss
from medext.span_head import init_span, score_all_spans
from medext.tensor import Tensor

D, K = 4, 3  # width of the rows, number of tags

# Each packed function, called on n rows of width D packed as ``lengths``.
CRF = Tensor(np.zeros((K, K))), Tensor(np.zeros(K)), Tensor(np.zeros(K))
PACKED = {
    "log_partition_batch": lambda n, lengths: log_partition_batch(
        Tensor(np.zeros((n, K))), lengths, *CRF
    ),
    "sequence_score": lambda n, lengths: sequence_score(
        Tensor(np.zeros((n, K))), *CRF, [0] * n, lengths
    ),
    "crf_nll": lambda n, lengths: crf_nll(Tensor(np.zeros((n, K))), *CRF, [0] * n, lengths),
    "viterbi": lambda n, lengths: viterbi(Tensor(np.zeros((n, K))), *CRF, lengths),
    "teacher_forced_loss": lambda n, lengths: teacher_forced_loss(
        Tensor(np.zeros((n, D))), [0] * n, init_seq2seq(D, K, seed=0), lengths
    ),
    "greedy_decode": lambda n, lengths: greedy_decode(
        Tensor(np.zeros((n, D))), init_seq2seq(D, K, seed=0), lengths
    ),
    "score_all_spans": lambda n, lengths: score_all_spans(
        Tensor(np.zeros((n, D))), init_span(D, ["A"], seed=0), lengths
    ),
    "span_pairs": lambda n, lengths: span_pairs(
        Tensor(np.zeros((n, D))), [[] for _ in lengths], lengths
    ),
    "predict_relations": lambda n, lengths: predict_relations(
        Tensor(np.zeros((n, D))), [[] for _ in lengths], init_relation(D, seed=0), lengths
    ),
    "segment_attention": lambda n, lengths: T.segment_attention(
        *(Tensor(np.zeros((n, D))) for _ in range(3)), lengths, heads=2
    ),
}

# (rows, lengths): no rows at all, then rows that the lengths do not tile.
UNTILED = [(0, []), (0, [0]), (4, [2, 1]), (4, [5]), (4, [4, 0]), (4, [3, -1, 2])]


def setup_function(_):
    T.reset_tape()


@pytest.mark.parametrize("rows, lengths", UNTILED)
@pytest.mark.parametrize("name", PACKED)
def test_rows_the_lengths_do_not_tile_are_rejected(name, rows, lengths):
    with pytest.raises(ContractError, match="do not tile"):
        PACKED[name](rows, lengths)


@pytest.mark.parametrize("name", ["viterbi", "sequence_score"])
def test_one_sentence_form_rejects_zero_rows(name):
    with pytest.raises(ContractError, match="do not tile"):
        PACKED[name](0, None)


@pytest.mark.parametrize("groups", [1, 3])
@pytest.mark.parametrize("pairs_of", [
    lambda h, spans, lengths: span_pairs(h, spans, lengths),
    lambda h, spans, lengths: predict_relations(h, spans, init_relation(D, seed=0), lengths),
], ids=["span_pairs", "predict_relations"])
def test_span_lists_must_match_the_sentences(pairs_of, groups):
    spans = [[EntitySpan(0, 0, "A"), EntitySpan(1, 1, "A")]] * groups
    with pytest.raises(ContractError, match=f"{groups} span lists for 2 sentences"):
        pairs_of(Tensor(np.zeros((4, D))), spans, [2, 2])


def one_sentence_forms() -> list[str]:
    """Every function or method of ``src/medext`` whose ``lengths`` defaults
    to None, that is, that can still be called with one unpacked sentence."""
    found = []
    for info in pkgutil.iter_modules(medext.__path__):
        module = importlib.import_module(f"medext.{info.name}")
        owners = [module] + [c for c in vars(module).values() if inspect.isclass(c)]
        for owner in owners:
            for fn in vars(owner).values():
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                lengths = inspect.signature(fn).parameters.get("lengths")
                if lengths is not None and lengths.default is None:
                    found.append(f"{info.name}.{fn.__qualname__}")
    return sorted(found)


def test_only_three_functions_keep_a_one_sentence_form():
    """perfbench/worker.py decodes and rescores one sentence at a time
    through these three; the list only shrinks."""
    assert one_sentence_forms() == [
        "crf_head.sequence_score", "crf_head.viterbi", "pipeline.decode_entities",
    ]
