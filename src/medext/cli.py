"""Experiment driver.

Subcommands: gen-corpus, pretrain, train, eval, fewshot-curve, compare-heads,
predict.  Every run resolves a single experiment config (defaults <- config
file <- command-line flags), validates it fully before any work, and echoes
the resolved config into the output directory.  All randomness flows from
config-declared seeds, so identical invocations produce byte-identical
outputs.

Exit codes: 0 success, 1 validation/config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from . import tensor as T
from .corpus import (
    Corpus,
    Sentence,
    TagScheme,
    Token,
    generate_synthetic_corpus,
    load_annotations,
    load_conll,
    save_annotations,
    save_conll,
)
from .encoder import EncoderConfig
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    ParseError,
    ValidationError,
)
from .evaluation import report_markdown
from .fewshot import CurveConfig, curve_csv, run_curve, summary_csv
from .pipeline import decode_entities, encode_words, evaluate_split
from .training import (
    Checkpoint,
    PretrainConfig,
    TrainConfig,
    load_checkpoint,
    pretrain,
    save_checkpoint,
    train,
)

DEFAULT_CONFIG: dict = {
    "corpus": {"tags": None, "annotations": None, "size": 200, "seed": 7},
    "encoder": {
        "d_model": 32,
        "heads": 2,
        "layers": 2,
        "d_ff": 64,
        "max_len": 64,
        "dropout_rate": 0.0,
    },
    "train": {
        "learning_rate": 1e-3,
        "steps": 300,
        "batch_size": 4,
        "lambda_re": 1.0,
        "seed": 0,
        "head": "crf",
        "class_balanced": False,
        "clip_norm": 1.0,
    },
    "pretrain": {
        "learning_rate": 1e-3,
        "steps": 200,
        "batch_size": 8,
        "mask_prob": 0.15,
        "seed": 0,
        "clip_norm": 1.0,
    },
    "curve": {"k_values": [1, 5, 10, 20, 50, 100], "seeds_per_k": 5},
    "output_dir": "medext-run",
}

VALIDATION_ERRORS = (
    ConfigError,
    ParseError,
    ValidationError,
    CheckpointError,
    FileNotFoundError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 (not argparse's 2) on bad flags
        self.print_usage(sys.stderr)
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# config resolution


def _merge(defaults: dict, override: dict, path: str = "") -> dict:
    out = dict(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path + key!r} must be a section")
            out[key] = _merge(defaults[key], value, f"{path}{key}.")
        else:
            out[key] = value
    return out


def _apply_set(config: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set expects section.key=value, got {assignment!r}")
    dotted, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    keys = dotted.split(".")
    node = config
    for key in keys[:-1]:
        if key not in node or not isinstance(node[key], dict):
            raise ConfigError(f"unknown config key {dotted!r}")
        node = node[key]
    if keys[-1] not in node:
        raise ConfigError(f"unknown config key {dotted!r}")
    node[keys[-1]] = value


def resolve_config(args: argparse.Namespace) -> dict:
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    config_path = getattr(args, "config", None)
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        config = _merge(config, loaded)
    for assignment in getattr(args, "set", None) or []:
        _apply_set(config, assignment)
    # direct flags win over --set and the file
    flag_paths = {
        "size": ("corpus", "size"),
        "corpus_seed": ("corpus", "seed"),
        "tags": ("corpus", "tags"),
        "annotations": ("corpus", "annotations"),
        "steps": None,  # per-command section, handled below
        "seed": None,
        "head": ("train", "head"),
        "out": ("output_dir",),
    }
    section = "pretrain" if args.command == "pretrain" else "train"
    for flag, target in flag_paths.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        if flag == "steps":
            config[section]["steps"] = value
        elif flag == "seed":
            config[section]["seed"] = value
        elif len(target) == 1:
            config[target[0]] = value
        else:
            config[target[0]][target[1]] = value
    return config


def _encoder_config(config: dict) -> EncoderConfig:
    try:
        # vocab_size is a placeholder; train/pretrain rebuild it from the vocab
        return EncoderConfig(vocab_size=5, **config["encoder"])
    except (TypeError, ContractError) as exc:
        raise ConfigError(f"encoder config: {exc}") from None


def _train_config(config: dict) -> TrainConfig:
    try:
        return TrainConfig(**config["train"])
    except (TypeError, ContractError) as exc:
        raise ConfigError(f"train config: {exc}") from None


def _pretrain_config(config: dict) -> PretrainConfig:
    try:
        return PretrainConfig(**config["pretrain"])
    except (TypeError, ContractError) as exc:
        raise ConfigError(f"pretrain config: {exc}") from None


def _curve_config(config: dict, base: TrainConfig) -> CurveConfig:
    try:
        return CurveConfig(
            k_values=tuple(config["curve"]["k_values"]),
            seeds_per_k=config["curve"]["seeds_per_k"],
            base=base,
        )
    except (TypeError, ContractError) as exc:
        raise ConfigError(f"curve config: {exc}") from None


def load_experiment_corpus(config: dict) -> Corpus:
    section = config["corpus"]
    if section["tags"]:
        tags_path = Path(section["tags"])
        if not tags_path.exists():
            raise ConfigError(f"corpus tag file not found: {tags_path}")
        corpus = load_conll(tags_path, TagScheme())
        if section["annotations"]:
            ann_path = Path(section["annotations"])
            if not ann_path.exists():
                raise ConfigError(f"annotation file not found: {ann_path}")
            corpus = load_annotations(corpus, ann_path)
        return corpus
    return generate_synthetic_corpus(section["size"], section["seed"])


def _output_dir(config: dict) -> Path:
    out = Path(config["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(config: dict, out: Path) -> None:
    # output_dir is omitted so re-runs into different directories match
    echo = {key: value for key, value in config.items() if key != "output_dir"}
    (out / "resolved_config.json").write_text(
        json.dumps(echo, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_init(args) -> Checkpoint | None:
    init_path = getattr(args, "init", None)
    if not init_path:
        return None
    path = Path(init_path)
    if not path.exists():
        raise ConfigError(f"checkpoint not found: {path}")
    return load_checkpoint(path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_corpus(config: dict, args) -> int:
    corpus = generate_synthetic_corpus(config["corpus"]["size"], config["corpus"]["seed"])
    out = _output_dir(config)
    save_conll(corpus, out / "corpus.tsv")
    save_annotations(corpus, out / "annotations.jsonl")
    _echo_config(config, out)
    print(f"wrote {len(corpus)} sentences to {out / 'corpus.tsv'}")
    return 0


def cmd_pretrain(config: dict, args) -> int:
    corpus = load_experiment_corpus(config)
    pretrain_config, encoder_config = _pretrain_config(config), _encoder_config(config)
    out = _output_dir(config)
    log: list = []
    checkpoint = pretrain(corpus, pretrain_config, encoder_config=encoder_config, log=log)
    save_checkpoint(checkpoint, out / "encoder.json")
    _write_csv(out / "pretrain_log.csv", "step,loss", log)
    _echo_config(config, out)
    print(f"pretrained encoder saved to {out / 'encoder.json'}")
    return 0


def cmd_train(config: dict, args) -> int:
    corpus = load_experiment_corpus(config)
    train_config, init = _train_config(config), _load_init(args)
    encoder_config = _encoder_config(config)
    out = _output_dir(config)
    log: list = []
    checkpoint = train(corpus, train_config, init=init, encoder_config=encoder_config, log=log)
    save_checkpoint(checkpoint, out / "model.json")
    _write_csv(out / "loss_log.csv", "step,loss,ner_loss,re_loss", log)
    _echo_config(config, out)
    print(f"model saved to {out / 'model.json'}")
    return 0


def cmd_eval(config: dict, args) -> int:
    path = Path(args.checkpoint)
    if not path.exists():
        raise ConfigError(f"checkpoint not found: {path}")
    checkpoint = load_checkpoint(path)
    corpus = load_experiment_corpus(config)
    out = _output_dir(config)
    result = evaluate_split(checkpoint.model, corpus, args.split)
    (out / "report.json").write_text(
        json.dumps(result.as_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    rows = [(f"{checkpoint.model.head_kind} entities", result.entities)]
    if result.relations_gold_spans is not None:
        rows.append(("relations (gold spans)", result.relations_gold_spans))
        rows.append(("relations (predicted spans)", result.relations_predicted_spans))
    (out / "report.md").write_text(report_markdown(rows), encoding="utf-8")
    _echo_config(config, out)
    print(f"entity F1 on {args.split}: {result.entities.micro.f1:.3f}")
    return 0


def cmd_fewshot_curve(config: dict, args) -> int:
    corpus = load_experiment_corpus(config)
    curve_config, init = _curve_config(config, _train_config(config)), _load_init(args)
    encoder_config = _encoder_config(config)
    out = _output_dir(config)
    result = run_curve(corpus, curve_config, init=init, encoder_config=encoder_config)
    (out / "curve.csv").write_text(curve_csv(result), encoding="utf-8")
    (out / "curve_summary.csv").write_text(summary_csv(result), encoding="utf-8")
    _echo_config(config, out)
    for row in result.summary:
        print(f"k={row.k}: median F1 {row.median_f1:.3f}")
    return 0


def cmd_compare_heads(config: dict, args) -> int:
    corpus = load_experiment_corpus(config)
    init = _load_init(args)
    base = _train_config(config)
    encoder_config = _encoder_config(config)
    out = _output_dir(config)
    rows = []
    details = {}
    for head in ("crf", "span", "seq2seq"):
        checkpoint = train(
            corpus, replace(base, head=head), init=init, encoder_config=encoder_config
        )
        result = evaluate_split(checkpoint.model, corpus, args.split)
        rows.append((head, result.entities))
        details[head] = result.as_dict()
    (out / "comparison.md").write_text(report_markdown(rows), encoding="utf-8")
    (out / "comparison.json").write_text(
        json.dumps(details, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _echo_config(config, out)
    print(report_markdown(rows), end="")
    return 0


def cmd_predict(config: dict, args) -> int:
    path = Path(args.checkpoint)
    if not path.exists():
        raise ConfigError(f"checkpoint not found: {path}")
    checkpoint = load_checkpoint(path)
    if checkpoint.model.head is None:
        raise ConfigError("checkpoint has no extraction head; train one first")
    input_path = Path(args.input)
    if not input_path.exists():
        raise ConfigError(f"input file not found: {input_path}")
    records = []
    with T.no_grad():
        for line in input_path.read_text(encoding="utf-8").splitlines():
            words = line.split()
            if not words:
                continue
            sentence = Sentence([Token(w) for w in words], [0] * len(words))
            h = encode_words(checkpoint.model, sentence)
            spans, _ = decode_entities(checkpoint.model, h)
            records.append(
                {
                    "tokens": words,
                    "spans": [{"start": s.start, "end": s.end, "cls": s.cls} for s in spans],
                }
            )
    payload = "\n".join(json.dumps(r, separators=(",", ":")) for r in records)
    payload = payload + "\n" if payload else ""
    if args.out_file:
        Path(args.out_file).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out_file).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> _Parser:
    parser = _Parser(prog="medext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, init_flag=False):
        p.add_argument("--config", help="experiment config JSON file")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override one config value (repeatable)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--tags", help="corpus tag file (two-column TSV)")
        p.add_argument("--annotations", help="span/relation JSON-lines sidecar")
        p.add_argument("--size", type=int, help="synthetic corpus size")
        p.add_argument("--corpus-seed", dest="corpus_seed", type=int,
                       help="synthetic corpus seed")
        if init_flag:
            p.add_argument("--init", help="checkpoint to fine-tune from")

    p = sub.add_parser("gen-corpus", help="write a synthetic corpus")
    common(p)

    p = sub.add_parser("pretrain", help="masked-token pretraining of the encoder")
    common(p)
    p.add_argument("--steps", type=int, help="optimizer steps")
    p.add_argument("--seed", type=int, help="pretraining seed")

    p = sub.add_parser("train", help="fine-tune an extraction head")
    common(p, init_flag=True)
    p.add_argument("--steps", type=int, help="optimizer steps")
    p.add_argument("--seed", type=int, help="training seed")
    p.add_argument("--head", choices=["crf", "span", "seq2seq"], help="extraction head")

    p = sub.add_parser("eval", help="score a checkpoint against a corpus split")
    common(p)
    p.add_argument("--checkpoint", required=True, help="model checkpoint to score")
    p.add_argument("--split", default="test", choices=["train", "val", "test"])

    p = sub.add_parser("fewshot-curve", help="k-shot learning-curve experiment")
    common(p, init_flag=True)
    p.add_argument("--steps", type=int, help="optimizer steps per episode")
    p.add_argument("--seed", type=int, help="base seed for the curve")

    p = sub.add_parser("compare-heads", help="train all three heads and tabulate")
    common(p, init_flag=True)
    p.add_argument("--steps", type=int, help="optimizer steps per head")
    p.add_argument("--seed", type=int, help="training seed")
    p.add_argument("--split", default="test", choices=["train", "val", "test"])

    p = sub.add_parser("predict", help="tag raw text and emit JSON-lines spans")
    p.add_argument("--checkpoint", required=True, help="model checkpoint")
    p.add_argument("--input", required=True, help="text file, one sentence per line")
    p.add_argument("--out-file", dest="out_file", help="output JSONL path (default stdout)")

    return parser


COMMANDS = {
    "gen-corpus": cmd_gen_corpus,
    "pretrain": cmd_pretrain,
    "train": cmd_train,
    "eval": cmd_eval,
    "fewshot-curve": cmd_fewshot_curve,
    "compare-heads": cmd_compare_heads,
    "predict": cmd_predict,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "predict":
            config = DEFAULT_CONFIG  # predict takes no experiment config
        else:
            config = resolve_config(args)
        return COMMANDS[args.command](config, args)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
