"""What the benchmark measures: workloads, metrics, units and bounds.

This is the one place that names them.  ``run.py`` prints the metrics listed
here and ``python3 perfbench/run.py --write-contract`` writes them to
``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS = {
    "compare-heads": "batch-4 fine-tuning of the crf, span and seq2seq heads in turn: fixed cost"
    " per step (tape, Adam, heads, relation pairs) is a large share of the step",
    "pretrain-b16": "batch-16 masked-token pretraining: encoder forward and backward dominate;"
    " no head or relation code runs, so a head-only change must not move it",
    "predict-eval": "forward only: raw lines through encode_words/decode_entities and repeated"
    " medext eval calls; no backward, no Adam; reads the checkpoints",
}

# End-to-end metrics, one value per run on every workload.  The unit
# operation ("op") is one optimizer step on compare-heads and pretrain-b16 and
# one predicted line on predict-eval (refused lines at their time to refusal);
# "sentences" are training sentences consumed per second of train()/pretrain()
# time, or test/val sentences scored per second of `medext eval` time on
# predict-eval.  Every time is wall time scaled to a reference host speed by
# the probe in speed.py.
END_TO_END = [
    # name, unit, better, bound (share of the parent's median)
    ("setup_s", "s", "lower", 0.25),
    ("op_ms_mean", "ms", "lower", 0.25),
    ("op_ms_p95", "ms", "lower", 0.25),
    ("sentences_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

# Per-layer metrics from the traced run.  "_ms" values are mean self time per
# call of the traced entry point (0 where a workload never calls it); counts
# are exact integers taken over the first round of the workload.
PER_LAYER = [
    ("tensor.backward_ms", "ms", "lower"),
    ("tensor.tape_nodes", "count", "lower"),
    ("tensor.nodes_recorded_infer", "count", "lower"),
    ("tensor.replayed_frac", "frac", "higher"),
    ("encoder.forward_ms", "ms", "lower"),
    ("encoder.calls", "count", "lower"),
    ("encoder.subwords_per_call", "count", "higher"),
    ("encoder.rejected_frac", "frac", "lower"),
    ("encoder.mlm_ms", "ms", "lower"),
    ("pipeline.encode_words_ms", "ms", "lower"),
    ("pipeline.gold_pairs_ms", "ms", "lower"),
    ("crf_head.loss_ms", "ms", "lower"),
    ("crf_head.decode_ms", "ms", "lower"),
    ("crf_head.train_step_ms_p50", "ms", "lower"),
    ("span_head.score_ms", "ms", "lower"),
    ("span_head.loss_ms", "ms", "lower"),
    ("span_head.decode_ms", "ms", "lower"),
    ("span_head.candidates", "count", "lower"),
    ("span_head.loss_used_frac", "frac", "higher"),
    ("span_head.train_step_ms_p50", "ms", "lower"),
    ("seq2seq_head.loss_ms", "ms", "lower"),
    ("seq2seq_head.decode_ms", "ms", "lower"),
    ("seq2seq_head.train_step_ms_p50", "ms", "lower"),
    ("relation_head.loss_ms", "ms", "lower"),
    ("relation_head.pairs", "count", "lower"),
    ("relation_head.predict_ms", "ms", "lower"),
    ("training.adam_ms", "ms", "lower"),
    ("training.step_other_ms", "ms", "lower"),
    ("training.prepare_ms", "ms", "lower"),
    ("training.clip_frac", "frac", "lower"),
    ("training.checkpoint_save_ms", "ms", "lower"),
    ("training.checkpoint_load_ms", "ms", "lower"),
    ("training.checkpoint_bytes", "B", "lower"),
    ("corpus.tokenize_ms", "ms", "lower"),
    ("corpus.subwords_per_word", "ratio", "lower"),
    ("corpus.load_ms", "ms", "lower"),
    ("evaluation.score_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.coverage_frac", "frac", "higher"),
]


def contract() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }


def write_contract(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(contract(), indent=2) + "\n", encoding="utf-8")
    return path
