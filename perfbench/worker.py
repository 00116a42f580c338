"""One stage of one workload, run in its own process by ``run.py``.

    python3 perfbench/worker.py --stage prepare --workload NAME --seed N --work DIR
    python3 perfbench/worker.py --stage measure --workload NAME --seed N \
        --seconds S --traced 0|1 --work DIR --out RESULT.json [--write-reference]

``prepare`` builds the inputs from the seed, writes them to ``--work`` and is
not timed; it runs in a process of its own, so the measured process's peak
memory never includes it.  ``measure`` then runs ``setup``, what a user pays
before the first operation (corpus load, vocab, tokenization, model init or
checkpoint load), SETUP_FIRST times before the first round and once more after
every round, so its samples spread over the run like the operations' samples
do; ``setup_s`` is their median.  ``run_round`` is a fixed piece of work that
repeats, identically, until ``--seconds`` have passed; at least one round
always runs.  Every timed interval has a host-speed probe before and after
it (``speed.py``), so each time comes as wall time and as time scaled to the
reference speed.  Output checks run in the untraced pass only, so they cost
the traced pass nothing and are never timed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0
HEADS = ("crf", "span", "seq2seq")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

CORPUS_SIZE = 1000  # sentences in the synthetic corpus (CLI gen-corpus example size)
PRE_STEPS = 40  # untimed encoder pretraining that compare-heads and predict-eval start from
HEAD_PREP_STEPS = 60  # untimed fine-tuning of the predict-eval checkpoints
COMPARE_STEPS = 50  # train() steps per head per compare-heads round
PRETRAIN_STEPS = 40  # pretrain() steps per pretrain-b16 round
PRETRAIN_BATCH = 16
PREDICT_LINES = 120  # raw lines in the predict input file that each head reads once a round
OVERLONG_LINES = 3  # of which this many exceed max_len (see README, "Over-long lines")
PSEUDO_WORD_RATE = 0.15  # chance that a word slot gets a pseudo-word
SETUP_FIRST = 3
REF_RTOL = 1e-6  # tolerance of the default-seed reference (relative, absolute 1e-9)
FLOAT_RTOL = 1e-9  # tolerance of internal float identities (Viterbi score, F1)

sys.path.insert(0, str(ROOT / "src"))
import numpy as np  # noqa: E402

import medext  # noqa: E402
import medext.cli  # noqa: E402
from medext import corpus as C  # noqa: E402
from medext import crf_head, pipeline, tensor, training  # noqa: E402

from speed import LINE_PROBE, STEP_PROBE, Clock  # noqa: E402
from tracer import install, leaked_wrappers  # noqa: E402


def pct(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def p95_of_medians(rounds: list[list[float]]) -> float:
    """p95 over the operations of one window of their medians over the rounds.

    Rounds are identical, so the i-th operation of every round does the same
    work.  Its median over the rounds drops the moments when the host was
    slower than the probe around it showed, and pauses that fall on another
    operation in each round; a p95 taken straight from single samples picks
    those out, and on this benchmark's steps they make up most of it.
    """
    return pct([statistics.median(op) for op in zip(*rounds)], 0.95)


def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= max(atol, rtol * max(abs(a), abs(b)))


def f1_consistent(counts: dict) -> bool:
    """The reported micro F1 equals 2tp / (2tp + fp + fn)."""
    tp, fp, fn = counts["tp"], counts["fp"], counts["fn"]
    expected = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
    return close(counts["f1"], expected, FLOAT_RTOL, 1e-12)


def digest(checkpoint) -> str:
    """SHA-256 of every parameter, optimizer moment and header, bit for bit."""
    h = hashlib.sha256(json.dumps([checkpoint.step, checkpoint.seed_lineage]).encode())
    arrays = {f"param {k}": p.values for k, p in checkpoint.model.parameters().items()}
    if checkpoint.optimizer is not None:
        arrays.update({f"m {k}": a for k, a in checkpoint.optimizer.m.items()})
        arrays.update({f"v {k}": a for k, a in checkpoint.optimizer.v.items()})
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(f"{name} {a.dtype} {a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


class StepLog(list):
    """The ``log=`` list of train()/pretrain(); times each step as its row arrives.

    Create it right before the call and call ``finish`` right after it.
    """

    def __init__(self, tracer):
        super().__init__()
        self.tracer = tracer
        self.clock = Clock(STEP_PROBE)
        self.laps: list[tuple[float, float, float]] = []  # (scaled s, wall s, traced s)
        self.traced = tracer.top if tracer else 0.0
        self.clock.start()

    def lap(self):
        wall, scaled = self.clock.lap()
        traced = self.tracer.top if self.tracer else 0.0
        self.laps.append((scaled, wall, traced - self.traced))
        self.traced = traced

    def append(self, row):
        self.lap()
        super().append(row)

    def finish(self) -> float:
        """Scaled s of the whole call: set-up, every step and the return."""
        self.lap()
        return sum(scaled for scaled, _, _ in self.laps)

    def steps(self):
        """(scaled s, wall s, traced s) of every step but the first, which includes set-up."""
        return self.laps[1:len(self)]


class Workload:
    op_name = "step"
    sentences_name = "train_sentences_per_s"

    def __init__(self, seed: int, work: Path, tracer):
        self.seed = seed
        self.work = work
        self.tr = tracer
        self.checking = tracer is None
        # (scaled s, wall s, traced s) per unit operation, grouped by head
        self.ops: dict[str, list[tuple[float, float, float]]] = {}
        # scaled s of the unit operations of each train()/pretrain() call or
        # predict file, one list per round, grouped by head
        self.windows: dict[str, list[list[float]]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.rejected = 0
        self.sentences = 0
        self.busy_s = 0.0  # scaled time that sentences_per_s divides by
        self.train_calls = 0
        self.reference: dict = {}
        self.quality: dict[str, float] = {}
        self.prepared: dict = {}  # what prepare() hands to the measuring process
        self.tags = work / "corpus.tsv"
        self.annotations = work / "annotations.jsonl"

    # -- bookkeeping ---------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def write_corpus(self) -> None:
        corpus = C.generate_synthetic_corpus(CORPUS_SIZE, self.seed)
        C.save_conll(corpus, self.tags)
        C.save_annotations(corpus, self.annotations)

    def load_corpus(self):
        return C.load_annotations(C.load_conll(self.tags, C.TagScheme()), self.annotations)

    def pretrained_encoder(self, corpus):
        return training.pretrain(corpus, training.PretrainConfig(steps=PRE_STEPS, seed=self.seed))

    def checks_after_setup(self) -> None:
        pass

    def record_steps(self, key: str, log: StepLog, sentences: int, round_no: int):
        self.attempted += len(log)
        self.ops.setdefault(key, []).extend(log.steps())
        self.windows.setdefault(key, []).append([s for s, _, _ in log.steps()])
        self.sentences += sentences
        self.busy_s += log.finish()
        if not self.checking:
            return
        losses = [row[1] for row in log]
        self.check(all(math.isfinite(x) for x in losses), f"{key}: non-finite loss")
        first = self.reference.setdefault("losses", {}).setdefault(key, losses)
        if round_no:
            self.check(first == losses, f"{key}: round {round_no} losses differ from round 0")

    def round_trip(self, checkpoint, path: Path):
        training.save_checkpoint(checkpoint, path)
        loaded = training.load_checkpoint(path)
        self.attempted += 1
        if self.checking:
            self.check(digest(checkpoint) == digest(loaded), f"{path.name}: round trip not bitwise")
        return loaded

    def score(self, key: str, result: dict) -> None:
        for part in ("entities", "relations_predicted_spans"):
            self.check(f1_consistent(result[part]["micro"]), f"{key}: {part} F1 != tp/fp/fn")
        f1 = [result["entities"]["micro"]["f1"], result["relations_predicted_spans"]["micro"]["f1"]]
        self.reference.setdefault("f1", {})[key] = f1
        self.quality[f"entity_f1.{key}"] = f1[0]
        self.quality[f"relation_f1.{key}"] = f1[1]

    def train(self, corpus, config, init, log):
        if self.tr:
            self.tr.in_train = True
        try:
            return training.train(corpus, config, init=init, log=log)
        finally:
            self.train_calls += 1
            if self.tr:
                self.tr.in_train = False


class CompareHeads(Workload):
    def prepare(self) -> None:
        self.write_corpus()
        training.save_checkpoint(
            self.pretrained_encoder(self.load_corpus()), self.work / "encoder.json"
        )

    def setup(self) -> None:
        self.corpus = self.load_corpus()
        self.init = training.load_checkpoint(self.work / "encoder.json")

    def run_round(self, round_no: int) -> None:
        for head in HEADS:
            config = training.TrainConfig(head=head, steps=COMPARE_STEPS, seed=self.seed)
            log = StepLog(self.tr)
            checkpoint = self.train(self.corpus, config, self.init, log)
            self.record_steps(head, log, config.steps * config.batch_size, round_no)
            loaded = self.round_trip(checkpoint, self.work / f"{head}.json")
            result = pipeline.evaluate_split(loaded.model, self.corpus, "test").as_dict()
            self.attempted += 1
            if self.checking and round_no == 0:
                self.score(head, result)


class PretrainB16(Workload):
    def prepare(self) -> None:
        self.write_corpus()

    def setup(self) -> None:
        self.corpus = self.load_corpus()
        train_split = self.corpus.subset("train")
        vocab = C.build_vocab(train_split)
        C.tokenize_corpus(train_split, vocab)
        medext.encoder.init_params(medext.EncoderConfig(vocab_size=len(vocab)), self.seed)

    def run_round(self, round_no: int) -> None:
        config = training.PretrainConfig(
            batch_size=PRETRAIN_BATCH, steps=PRETRAIN_STEPS, seed=self.seed
        )
        log = StepLog(self.tr)
        checkpoint = training.pretrain(self.corpus, config, log=log)
        self.record_steps("pretrain", log, config.steps * config.batch_size, round_no)
        self.round_trip(checkpoint, self.work / "encoder.json")


class PredictEval(Workload):
    op_name = "predict_line"
    sentences_name = "eval_sentences_per_s"

    def __init__(self, *args):
        super().__init__(*args)
        self.first_outputs: dict[str, list] = {}  # round-0 predictions per head

    def prepare(self) -> None:
        self.write_corpus()
        corpus = self.load_corpus()
        encoder = self.pretrained_encoder(corpus)
        digests = {}
        for head in HEADS:
            config = training.TrainConfig(head=head, steps=HEAD_PREP_STEPS, seed=self.seed)
            checkpoint = training.train(corpus, config, init=encoder)
            training.save_checkpoint(checkpoint, self.work / f"{head}.json")
            digests[head] = digest(checkpoint)
        self.prepared = {
            "digests": digests,
            "split_sizes": {s: len(corpus.split_indices(s)) for s in ("test", "val")},
            **self.write_lines(checkpoint.model),
        }

    def write_lines(self, model) -> dict:
        """Held-out sentences (another corpus seed) with seeded pseudo-words."""
        held_out = C.generate_synthetic_corpus(PREDICT_LINES, self.seed + 1_000_003)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 17]))
        letters = "abcdefghijklmnopqrstuvwxyz"

        def pseudo_word():
            return "".join(letters[i] for i in rng.integers(0, 26, size=rng.integers(5, 10)))

        overlong = set(rng.choice(PREDICT_LINES, size=OVERLONG_LINES, replace=False).tolist())
        lines, pseudo, words_total = [], 0, 0
        for i, sentence in enumerate(held_out.sentences):
            words = []
            for word in sentence.surfaces():
                if rng.random() < PSEUDO_WORD_RATE:
                    words.append(pseudo_word())
                    pseudo += 1
                words.append(word)
            if i in overlong:
                while self.subwords(words, model) <= model.config.max_len:
                    words.append(pseudo_word())
                    pseudo += 1
            words_total += len(words)
            lines.append(" ".join(words))
        (self.work / "lines.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        lengths = [self.subwords(line.split(), model) for line in lines]
        return {
            "overlong": [i for i, n in enumerate(lengths) if n > model.config.max_len],
            "inputs": {
                "lines": len(lines),
                "words": words_total,
                "pseudo_word_share": pseudo / words_total,
                "subwords_min": min(lengths),
                "subwords_p50": pct(lengths, 0.5),
                "subwords_p95": pct(lengths, 0.95),
                "subwords_max": max(lengths),
                "max_len": model.config.max_len,
                "lines_over_max_len": sum(n > model.config.max_len for n in lengths),
            },
        }

    @staticmethod
    def as_sentence(words):
        return C.Sentence([C.Token(w) for w in words], [0] * len(words))

    def subwords(self, words, model) -> int:
        return len(pipeline.word_ids(self.as_sentence(words), model.vocab)[0])

    def setup(self) -> None:
        self.models = {h: training.load_checkpoint(self.work / f"{h}.json") for h in HEADS}
        self.lines = (self.work / "lines.txt").read_text(encoding="utf-8").splitlines()

    def checks_after_setup(self) -> None:
        for head in HEADS:
            self.check(
                digest(self.models[head]) == self.prepared["digests"][head],
                f"{head}.json: loaded checkpoint differs from the one saved",
            )

    def run_round(self, round_no: int) -> None:
        for head in HEADS:
            model = self.models[head].model
            outputs = self.predict_file(head, model, round_no)
            if self.checking:
                first = self.first_outputs.setdefault(head, outputs)
                if round_no:
                    self.check(first == outputs, f"{head}: round {round_no} predictions differ")
        for head in HEADS:
            for split in ("test", "val"):
                out = self.work / "eval" / f"{head}-{split}"
                argv = [
                    "eval", "--checkpoint", str(self.work / f"{head}.json"),
                    "--tags", str(self.tags), "--annotations", str(self.annotations),
                    "--split", split, "--out", str(out),
                ]
                clock = Clock(STEP_PROBE)
                clock.start()
                code = medext.cli.main(argv)
                self.sentences += self.prepared["split_sizes"][split]
                self.busy_s += clock.lap()[1]
                self.check(code == 0, f"medext eval {head} {split} exited {code}")
                if self.checking and round_no == 0 and code == 0:
                    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
                    self.score(f"{head}-{split}", report)

    def predict_file(self, head: str, model, round_no: int) -> list:
        """The lines of one input file, as `medext predict` runs them: one tape for the file.

        Unlike `medext predict`, which aborts the whole file on the first
        over-long line, the client goes on with the next line; the refused
        line's time to refusal counts as its latency.
        """
        tr = self.tr
        tape = tensor.active_tape()
        tensor.reset_tape()
        overlong = set(self.prepared["overlong"])
        outputs = []
        ops = self.ops.setdefault(head, [])
        clock = Clock(LINE_PROBE)

        def timed():
            wall, scaled = clock.lap()
            ops.append((scaled, wall, tr.top - before_traced if tr else 0.0))

        for i, line in enumerate(self.lines):
            sentence = self.as_sentence(line.split())
            before_nodes = len(tape.records)
            before_traced = tr.top if tr else 0.0
            clock.start()
            try:
                h = pipeline.encode_words(model, sentence)
                spans, tags = pipeline.decode_entities(model, h)
            except Exception as exc:  # one bad line must not lose the others
                timed()
                self.attempted += 1
                if i in overlong and type(exc).__module__ == "medext.errors":
                    self.rejected += 1
                else:
                    self.failures.append(f"{head} line {i}: {type(exc).__name__}: {exc}")
                outputs.append(None)
                continue
            timed()
            self.attempted += 1
            if tr:
                tr.sample("nodes_per_line", len(tape.records) - before_nodes)
            outputs.append([[s.start, s.end, s.cls] for s in spans])
            if self.checking and round_no == 0:
                self.check_decode(head, model, sentence, h, spans, tags)
        tensor.reset_tape()
        self.windows.setdefault(head, []).append([s for s, _, _ in ops[-len(self.lines):]])
        return outputs

    def check_decode(self, head, model, sentence, h, spans, tags) -> None:
        n = len(sentence.tokens)
        previous_end = -1
        ok = True
        for span in spans:
            ok &= previous_end < span.start <= span.end < n and span.cls in model.scheme.classes
            previous_end = span.end
        self.check(ok, f"{head}: decoded spans out of range or overlapping")
        if head == "crf":
            p = model.head
            e = crf_head.emissions(h, p)
            path, score = crf_head.viterbi(e, p.trans, p.start, p.stop)
            rescored = crf_head.sequence_score(e, p.trans, p.start, p.stop, path).item()
            self.check(path == tags and close(score, rescored, FLOAT_RTOL, 1e-9), "crf: Viterbi score != sequence_score")


WORKLOADS = {"compare-heads": CompareHeads, "pretrain-b16": PretrainB16, "predict-eval": PredictEval}


def compare_reference(name: str, got, want, path: str, failures: list) -> int:
    """Compare nested lists/dicts of floats; returns the number of values compared."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            failures.append(f"reference {name}{path}: keys differ")
            return 1
        return sum(compare_reference(name, got[k], want[k], f"{path}.{k}", failures) for k in want)
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            failures.append(f"reference {name}{path}: length differs")
            return 1
        return sum(compare_reference(name, g, w, f"{path}[{i}]", failures) for i, (g, w) in enumerate(zip(got, want)))
    if isinstance(want, float) and isinstance(got, (int, float)):
        if not close(float(got), want, REF_RTOL, 1e-9):
            failures.append(f"reference {name}{path}: {got!r} vs {want!r}")
    elif got != want:
        failures.append(f"reference {name}{path}: {got!r} vs {want!r}")
    return 1


def layer_metrics(bench: Workload) -> dict:
    tr = bench.tr
    counts, samples = tr.counts, tr.samples

    def frac(a, b):
        return counts[a] / counts[b] if counts[b] else 0.0

    def median_count(key):
        return int(statistics.median_low(samples[key])) if samples[key] else 0

    def step_p50(head):
        steps = bench.ops.get(head) if bench.op_name == "step" else None
        return 1000.0 * statistics.median(w for _, w, _ in steps) if steps else 0.0

    ops = [op for group in bench.ops.values() for op in group]
    wall = sum(w for _, w, _ in ops)
    traced = sum(t for _, _, t in ops)
    training_ops = bench.op_name == "step" and ops
    evals = tr.calls("pipeline.evaluate_split")
    loads = tr.calls("corpus.load_conll")
    m = {
        "tensor.backward_ms": tr.self_ms("tensor.backward"),
        "tensor.tape_nodes": median_count("tape_nodes"),
        "tensor.nodes_recorded_infer": median_count("nodes_per_line"),
        "tensor.replayed_frac": frac("nodes_replayed", "nodes_recorded"),
        "encoder.forward_ms": tr.self_ms("encoder.forward"),
        "encoder.calls": counts["encode_attempts"],
        "encoder.subwords_per_call": median_count("subwords_per_call"),
        "encoder.rejected_frac": frac("encode_rejected", "encode_attempts"),
        "encoder.mlm_ms": tr.self_ms("encoder.mlm"),
        "pipeline.encode_words_ms": tr.self_ms("pipeline.encode_words"),
        "pipeline.gold_pairs_ms": tr.self_ms("pipeline.gold_pairs"),
    }
    for head in HEADS:
        m[f"{head}_head.loss_ms"] = tr.self_ms(f"{head}_head.loss")
        m[f"{head}_head.decode_ms"] = tr.self_ms(f"{head}_head.decode")
        m[f"{head}_head.train_step_ms_p50"] = step_p50(head)
    m.update({
        "span_head.score_ms": tr.self_ms("span_head.score"),
        "span_head.candidates": counts["span_candidates"],
        "span_head.loss_used_frac": frac("span_loss_used", "span_loss_candidates"),
        "relation_head.loss_ms": tr.self_ms("relation_head.loss"),
        "relation_head.pairs": counts["relation_pairs"],
        "relation_head.predict_ms": tr.self_ms("relation_head.predict"),
        "training.adam_ms": tr.self_ms("training.adam"),
        "training.step_other_ms": 1000.0 * (wall - traced) / len(ops) if training_ops else 0.0,
        "training.prepare_ms": 1000.0 * tr.prepare_s / bench.train_calls if bench.train_calls else 0.0,
        "training.clip_frac": frac("clipped", "adam_steps"),
        "training.checkpoint_save_ms": tr.self_ms("training.checkpoint_save"),
        "training.checkpoint_load_ms": tr.self_ms("training.checkpoint_load"),
        "training.checkpoint_bytes": median_count("checkpoint_bytes"),
        "corpus.tokenize_ms": tr.self_ms("corpus.tokenize"),
        "corpus.subwords_per_word": frac("tokenized_subwords", "tokenized_words"),
        "corpus.load_ms": 1000.0 * (tr.total_s("corpus.load_conll") + tr.total_s("corpus.load_annotations")) / loads
        if loads else 0.0,
        "evaluation.score_ms": 1000.0 * tr.total_s("evaluation.score") / evals if evals else 0.0,
        "cli.self_ms": tr.self_ms("cli.main"),
        "trace.coverage_frac": traced / wall if wall else 0.0,
    })
    return m


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def check_import() -> None:
    src = (ROOT / "src").resolve()
    if Path(medext.__file__).resolve().parent.parent != src:
        raise SystemExit(f"medext imported from {medext.__file__}, not from {src}")


def prepare(args) -> None:
    bench = WORKLOADS[args.workload](args.seed, Path(args.work), None)
    bench.prepare()
    (Path(args.work) / "prepared.json").write_text(json.dumps(bench.prepared), encoding="utf-8")


def measure(args) -> dict:
    tracer = install(medext) if args.traced else None
    bench = WORKLOADS[args.workload](args.seed, Path(args.work), tracer)
    bench.prepared = json.loads((Path(args.work) / "prepared.json").read_text(encoding="utf-8"))
    tensor.reset_tape()
    if tracer:
        tracer.on = True
    setup_s = []
    clock = Clock(STEP_PROBE)

    def timed_setup():
        clock.start()
        bench.setup()
        setup_s.append(clock.lap()[1])

    for _ in range(SETUP_FIRST):
        timed_setup()
    if bench.checking:
        bench.checks_after_setup()

    rounds = 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < args.seconds:
        if tracer:
            tracer.counting = rounds == 0
        bench.run_round(rounds)
        rounds += 1
        if tracer:
            tracer.counting = False
        timed_setup()
    measured_s = perf_counter() - start
    if tracer:
        tracer.on = False
        tracer.uninstall()

    failures = bench.failures
    if bench.checking:
        leaked = leaked_wrappers(medext)
        bench.check(not leaked, f"untraced process has tracing wrappers: {leaked}")
        if args.write_reference:
            stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
            stored[args.workload] = {"seed": args.seed, "rtol": REF_RTOL, **bench.reference}
            REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        elif args.seed == DEFAULT_SEED:
            stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
            want = stored.get(args.workload)
            if want is None:
                bench.check(False, f"no reference for {args.workload}")
            else:
                want = {k: v for k, v in want.items() if k not in ("seed", "rtol")}
                bench.attempted += compare_reference(args.workload, bench.reference, want, "", failures)

    ops = [s for group in bench.ops.values() for s, _, _ in group]
    walls = [w for group in bench.ops.values() for _, w, _ in group]
    tested = [k.split(".", 1)[1] for k in bench.quality if k.startswith("entity_f1.") and not k.endswith("-val")]
    mean_f1 = {
        kind: statistics.fmean(bench.quality[f"{kind}.{k}"] for k in tested) if tested else None
        for kind in ("entity_f1", "relation_f1")
    }
    return {
        "workload": args.workload,
        "traced": bool(args.traced),
        "op_name": bench.op_name,
        "sentences_name": bench.sentences_name,
        "setup_s": statistics.median(setup_s),
        "setup_n": len(setup_s),
        # times are scaled to the reference host speed (speed.py), except op_wall_ms_mean
        "op_ms_mean": 1000.0 * statistics.fmean(ops),
        "op_wall_ms_mean": 1000.0 * statistics.fmean(walls),
        # mean of per-head medians: the pooled median of a three-head mixture
        # falls between the heads' modes and jumps with small shifts
        "op_ms_p50": 1000.0 * statistics.fmean(pct([s for s, _, _ in g], 0.5) for g in bench.ops.values()),
        # per head, then averaged: a pooled p95 of three heads falls on whichever
        # head holds the slowest 5% and jumps between them
        "op_ms_p95": 1000.0 * statistics.fmean(p95_of_medians(w) for w in bench.windows.values()),
        "op_n": len(ops),
        "ops_per_s": len(ops) / sum(ops),
        "sentences_per_s": bench.sentences / bench.busy_s,
        "sentences": bench.sentences,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": rounds,
        "measured_s": measured_s,
        "attempted": bench.attempted,
        "failed": len(failures),
        "rejected": bench.rejected,
        "failures": failures[:20],
        "quality": bench.quality,
        **mean_f1,
        "inputs": bench.prepared.get("inputs", {}),
        "env": environment(args.seed),
        "layers": layer_metrics(bench) if tracer else None,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stage", required=True, choices=("prepare", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    check_import()
    if args.stage == "prepare":
        prepare(args)
    else:
        if args.seconds is None or args.out is None:
            parser.error("--stage measure needs --seconds and --out")
        Path(args.out).write_text(json.dumps(measure(args)), encoding="utf-8")


if __name__ == "__main__":
    main()
