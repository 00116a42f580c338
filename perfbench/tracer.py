"""Outside-in layer tracing: wrap medext's public entry points in spans.

Only the traced worker process calls ``install``; the untraced process checks
with ``leaked_wrappers`` that no wrapper reached it.  Each span records its inclusive and
self time (inclusive minus the time its traced children cover).  Counts are
recorded only while ``counting`` is set, which the workload does for its first
round, so they repeat exactly for one seed.
"""

from __future__ import annotations

import functools
import os
from collections import Counter, defaultdict
from time import perf_counter

MARK = "__perfbench_traced__"


class Tracer:
    def __init__(self):
        self.on = False
        self.counting = False
        self.in_train = False  # set by the workload around train() calls
        self.stack: list[list[float]] = []
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.top = 0.0  # inclusive seconds of spans with no traced parent
        self.prepare_s = 0.0  # clone + tokenize inside train()
        self.counts: Counter = Counter()
        self.samples: dict[str, list[int]] = defaultdict(list)
        self.originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        if self.counting:
            self.counts[key] += n

    def sample(self, key: str, value: int) -> None:
        if self.counting:
            self.samples[key].append(value)

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn``; ``name`` is a string or a function of the call's args."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            if before is not None:
                before(args)
            frame = [0.0]
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.stack.pop()
                stat = self.stats[label]
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if self.stack:
                    self.stack[-1][0] += dt
                else:
                    self.top += dt
                if self.in_train and label in ("training.clone", "corpus.tokenize"):
                    self.prepare_s += dt
            if after is not None:
                after(args, out)
            return out

        setattr(wrapper, MARK, True)
        return wrapper

    def patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        self.originals.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.originals):
            setattr(owner, attr, original)
        self.originals.clear()

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.stats[name][0]) if name in self.stats else 0

    def total_s(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_ms(self, name: str) -> float:
        """Mean self time per call in ms; 0.0 when the entry point never ran."""
        if name not in self.stats or not self.stats[name][0]:
            return 0.0
        calls, _, own = self.stats[name]
        return 1000.0 * own / calls


def install(medext) -> Tracer:
    """Wrap the layer entry points of an imported ``medext`` package."""
    import numpy as np

    tensor, encoder, pipeline = medext.tensor, medext.encoder, medext.pipeline
    training, corpus, cli = medext.training, medext.corpus, medext.cli
    span_head = medext.span_head
    tr = Tracer()
    tape = tensor.active_tape()

    def head_of(suffix):
        return lambda args: f"{args[0].head_kind}_head.{suffix}"

    def after_backward(args, out):
        n = len(tape.records)
        tr.sample("tape_nodes", n)
        tr.count("nodes_replayed", n)

    def reset_factory(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.on:
                tr.count("nodes_recorded", len(tape.records))
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    def before_encode(args):
        tr.count("encode_attempts")
        n = len(args[0])
        if n > args[2].max_len:
            tr.count("encode_rejected")
        else:
            tr.sample("subwords_per_call", n)

    def before_adam(args):
        params, clip_norm = args[0], args[3]
        total = sum(float((p.grad * p.grad).sum()) for p in params.values() if p.grad is not None)
        tr.count("adam_steps")
        if np.sqrt(total) > clip_norm:
            tr.count("clipped")

    def after_scores(args, out):
        tr.count("span_candidates", len(out))

    def negatives_factory(fn):
        @functools.wraps(fn)
        def wrapper(labels, *args, **kwargs):
            out = fn(labels, *args, **kwargs)
            if tr.on:
                tr.count("span_loss_candidates", len(labels))
                tr.count("span_loss_used", len(out))
            return out

        setattr(wrapper, MARK, True)
        return wrapper

    def after_relation_loss(args, out):
        tr.count("relation_pairs", len(args[0]))

    def after_tokenize(args, out):
        words = sum(len(s.tokens) for s in out.sentences)
        pieces = sum(len(t.subword_ids) for s in out.sentences for t in s.tokens)
        tr.count("tokenized_words", words)
        tr.count("tokenized_subwords", pieces)

    def after_save(args, out):
        tr.sample("checkpoint_bytes", os.path.getsize(args[1]))

    def after_load(args, out):
        tr.sample("checkpoint_bytes", os.path.getsize(args[0]))

    def spanned(name, before=None, after=None):
        return lambda fn: tr.span(name, fn, before, after)

    table = [
        (tensor, "backward", spanned("tensor.backward", after=after_backward)),
        (tensor, "reset_tape", reset_factory),
        (encoder, "encode", spanned("encoder.forward", before=before_encode)),
        (pipeline, "encode", spanned("encoder.forward", before=before_encode)),
        (training, "mlm_step", spanned("encoder.mlm")),
        (pipeline, "encode_words", spanned("pipeline.encode_words")),
        (training, "encode_words", spanned("pipeline.encode_words")),
        (training, "gold_relation_pairs", spanned("pipeline.gold_pairs")),
        (training, "ner_loss", spanned(head_of("loss"))),
        (pipeline, "decode_entities", spanned(head_of("decode"))),
        (cli, "decode_entities", spanned(head_of("decode"))),
        (pipeline, "score_all_spans", spanned("span_head.score", after=after_scores)),
        (span_head, "subsample_negatives", negatives_factory),
        (training, "relation_loss", spanned("relation_head.loss", after=after_relation_loss)),
        (pipeline, "predict_relations", spanned("relation_head.predict")),
        (training, "adam_step", spanned("training.adam", before=before_adam)),
        (pipeline.Model, "clone", spanned("training.clone")),
        (training, "tokenize_corpus", spanned("corpus.tokenize", after=after_tokenize)),
        (corpus, "tokenize_corpus", spanned("corpus.tokenize", after=after_tokenize)),
        (training, "save_checkpoint", spanned("training.checkpoint_save", after=after_save)),
        (training, "load_checkpoint", spanned("training.checkpoint_load", after=after_load)),
        (cli, "load_checkpoint", spanned("training.checkpoint_load", after=after_load)),
        (corpus, "load_conll", spanned("corpus.load_conll")),
        (cli, "load_conll", spanned("corpus.load_conll")),
        (corpus, "load_annotations", spanned("corpus.load_annotations")),
        (cli, "load_annotations", spanned("corpus.load_annotations")),
        (pipeline, "evaluate_split", spanned("pipeline.evaluate_split")),
        (cli, "evaluate_split", spanned("pipeline.evaluate_split")),
        (pipeline, "entity_prf", spanned("evaluation.score")),
        (pipeline, "relation_prf", spanned("evaluation.score")),
        (pipeline, "token_accuracy", spanned("evaluation.score")),
        (pipeline, "resolve_relations", spanned("evaluation.score")),
        (cli, "main", spanned("cli.main")),
    ]
    for owner, attr, factory in table:
        tr.patch(owner, attr, factory)
    return tr


def leaked_wrappers(medext) -> list[str]:
    """Names of medext module or class attributes that are tracing wrappers."""
    import inspect

    found = []
    for mod_name, module in sorted(vars(medext).items()):
        if not inspect.ismodule(module) or not mod_name.isidentifier():
            continue
        for attr, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"medext.{mod_name}.{attr}")
            if inspect.isclass(value) and value.__module__ == module.__name__:
                found.extend(
                    f"medext.{mod_name}.{attr}.{name}"
                    for name, member in vars(value).items()
                    if getattr(member, MARK, False)
                )
    return found
