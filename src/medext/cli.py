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
import functools
import gc
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Sequence

from .corpus import (
    Corpus,
    Sentence,
    TagScheme,
    Token,
    build_vocab,
    generate_synthetic_corpus,
    load_annotations,
    load_conll,
    parse_json,
    read_utf8,
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
from .pipeline import HEAD_KINDS, Model, evaluate_split, length_errors, predict
from .pipeline import decode_entities  # noqa: F401  (perfbench/tracer.py wraps cli.decode_entities)
from .training import (
    Checkpoint,
    PretrainConfig,
    TrainConfig,
    load_checkpoint,
    load_model,
    pretrain,
    save_checkpoint,
    train,
)


@dataclass(frozen=True)
class CorpusConfig:
    """A tag file with an optional annotation sidecar, or, with no tag file,
    a synthetic corpus of ``size`` sentences drawn from ``seed``."""

    tags: str | None = None
    annotations: str | None = None
    size: int = 200
    seed: int = 7

    def __post_init__(self):
        if self.size < 0:
            raise ContractError(f"size must be >= 0, got {self.size}")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")


SECTIONS = {
    "corpus": CorpusConfig,
    "encoder": EncoderConfig,
    "train": TrainConfig,
    "pretrain": PretrainConfig,
    "curve": CurveConfig,
}
# Each section's field defaults as JSON values, without the two fields
# _section fills in itself.
DEFAULT_CONFIG: dict = {
    name: {
        f.name: list(f.default) if isinstance(f.default, tuple) else f.default
        for f in fields(cls)
        if f.name not in ("vocab_size", "base")
    }
    for name, cls in SECTIONS.items()
} | {"output_dir": "medext-run"}

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


def _check_type(name: str, value, default) -> None:
    """Raise ConfigError naming ``name`` unless ``value`` has the JSON type of
    its default; a number default also takes an integer, a null one a string."""
    if isinstance(default, bool):
        ok, kind = isinstance(value, bool), "a boolean"
    elif isinstance(default, int):
        ok, kind = type(value) is int, "an integer"
    elif isinstance(default, float):
        ok = type(value) is int or type(value) is float and math.isfinite(value)
        kind = "a finite number"
    elif isinstance(default, list):
        ok = isinstance(value, list) and all(type(v) is int for v in value)
        kind = "a list of integers"
    elif default is None:
        ok, kind = value is None or isinstance(value, str), "a string or null"
    else:
        ok, kind = isinstance(value, str), "a string"
    if not ok:
        raise ConfigError(f"config key {name!r} must be {kind}, got {json.dumps(value)}")


def _merge(config: dict, override: dict, defaults: dict = DEFAULT_CONFIG, path: str = "") -> dict:
    """``config`` with ``override``'s values put in key by key, each checked
    against the type of its default; neither input is changed."""
    out = dict(config)
    for key, value in override.items():
        name = path + key
        if key not in defaults:
            raise ConfigError(f"unknown config key {name!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {name!r} must be a section")
            out[key] = _merge(config[key], value, defaults[key], name + ".")
        else:
            _check_type(name, value, defaults[key])
            out[key] = value
    return out


def _nested(dotted: str, value) -> dict:
    """The override that sets ``a.b`` to ``value``: {"a": {"b": value}}."""
    for key in reversed(dotted.split(".")):
        value = {key: value}
    return value


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then each --set, then the direct flags;
    an ``output_dir`` that cannot be made fails here, before any work."""
    config = DEFAULT_CONFIG
    if args.config:
        path = _existing(args.config, "config file")
        try:
            loaded = parse_json(read_utf8(path))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        config = _merge(config, loaded)
    for assignment in args.set or []:
        if "=" not in assignment:
            raise ConfigError(f"--set expects section.key=value, got {assignment!r}")
        dotted, raw = assignment.split("=", 1)
        try:
            value = parse_json(raw)
        except json.JSONDecodeError:
            value = raw
        config = _merge(config, _nested(dotted, value))
    # direct flags, whose dest is the config key they set, win over both
    for dest, value in vars(args).items():
        if dest.split(".")[0] in DEFAULT_CONFIG and value is not None:
            config = _merge(config, _nested(dest, value))
    _output_path(config["output_dir"], "output_dir", directory=True)
    return config


def _section(config: dict, name: str):
    """Section ``name`` of a resolved config as its config class.  The
    fields DEFAULT_CONFIG leaves out are filled in here: vocab_size with a
    placeholder that train and pretrain replace from the vocabulary, and
    the curve's base with the train section.  A failed check names the key,
    as every check message opens with its field's name."""
    values = {k: tuple(v) if isinstance(v, list) else v for k, v in config[name].items()}
    if name == "encoder":
        values["vocab_size"] = 5
    elif name == "curve":
        values["base"] = _section(config, "train")
    try:
        return SECTIONS[name](**values)
    except ContractError as exc:
        raise ConfigError(f"{name}.{exc}") from None


def _existing(path: str, what: str) -> Path:
    """``path`` if it names something other than a directory that exists."""
    if not Path(path).exists() or Path(path).is_dir():  # Path("") is "."
        raise ConfigError(f"{what} not found: {path!r}")
    return Path(path)


def _output_path(path: str, what: str, directory: bool) -> Path:
    """``path`` if it can be made: its nearest existing part is a directory,
    or is ``path`` itself, an output file, and not a directory."""
    target = Path(path)
    found = next(p for p in (target, *target.parents) if p.exists())
    if found.is_dir() == (found == target and not directory):
        kind = "a directory" if found.is_dir() else "not a directory"
        raise ConfigError(f"{what} {path!r}: {str(found)!r} is {kind}")
    return target


def _open_checkpoint(path: str | None) -> Checkpoint | None:
    return None if path is None else load_checkpoint(_existing(path, "checkpoint"))


def _open_model(path: str) -> Model:
    """The model of checkpoint ``path``, which must have an extraction head."""
    model = load_model(_existing(path, "checkpoint"))
    if model.head is None:
        raise ConfigError(f"checkpoint {path} has no extraction head; train one first")
    return model


def _corpus_source(config: dict) -> str:
    tags = _section(config, "corpus").tags
    return f"corpus tag file {tags}" if tags else "synthetic corpus"


def _split_indices(corpus: Corpus, source: str, split: str | None) -> Sequence[int]:
    """The indices of the sentences of ``split``, or of all; there must be one."""
    indices = range(len(corpus)) if split is None else corpus.split_indices(split)
    if not indices:
        raise ValidationError(f"{source}: no sentences" + (f" in split {split!r}" if split else ""))
    return indices


def load_experiment_corpus(config: dict, model: Model | None, split: str | None) -> Corpus:
    """The config's corpus, once the sentences the command encodes (those of
    ``split``, or all) are known to exist and to fit the encoder's max_len under
    ``model``'s vocabulary, or with no model, under the one a fresh model builds
    from the train split, which must then hold a sentence."""
    section, source = _section(config, "corpus"), _corpus_source(config)
    if section.tags:
        corpus = load_conll(_existing(section.tags, "corpus tag file"), TagScheme())
        if section.annotations:
            corpus = load_annotations(corpus, _existing(section.annotations, "annotation file"))
    else:
        corpus = generate_synthetic_corpus(section.size, section.seed)
    if model is None:
        _split_indices(corpus, source, "train")
        vocab, max_len = build_vocab(corpus.subset("train")), _section(config, "encoder").max_len
    else:
        vocab, max_len = model.vocab, model.config.max_len
    indices = _split_indices(corpus, source, split)
    errors = length_errors([corpus.sentences[i] for i in indices], vocab, max_len)
    if errors:
        index, message = min(errors.items())
        raise ValidationError(f"{source}: sentence {indices[index] + 1}: {message}")
    return corpus


def _output_dir(config: dict) -> Path:
    """The output directory, made now: call it once the work is done and
    its first file is about to be written, so a failed run leaves none."""
    out = Path(config["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, value) -> None:
    path.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _echo_config(config: dict, out: Path) -> None:
    # output_dir is omitted so re-runs into different directories match
    echo = {key: value for key, value in config.items() if key != "output_dir"}
    _write_json(out / "resolved_config.json", echo)


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_corpus(config: dict, args) -> int:
    section = _section(config, "corpus")
    corpus = generate_synthetic_corpus(section.size, section.seed)
    out = _output_dir(config)
    save_conll(corpus, out / "corpus.tsv")
    save_annotations(corpus, out / "annotations.jsonl")
    _echo_config(config, out)
    print(f"wrote {len(corpus)} sentences to {out / 'corpus.tsv'}")
    return 0


def cmd_pretrain(config: dict, args) -> int:
    corpus = load_experiment_corpus(config, None, "train")
    pretrain_config, encoder_config = _section(config, "pretrain"), _section(config, "encoder")
    log: list = []
    checkpoint = pretrain(corpus, pretrain_config, encoder_config=encoder_config, log=log)
    out = _output_dir(config)
    save_checkpoint(checkpoint, out / "encoder.json")
    _write_csv(out / "pretrain_log.csv", "step,loss", log)
    _echo_config(config, out)
    print(f"pretrained encoder saved to {out / 'encoder.json'}")
    return 0


def cmd_train(config: dict, args) -> int:
    init = _open_checkpoint(args.init)
    corpus = load_experiment_corpus(config, init and init.model, None)
    train_config, encoder_config = _section(config, "train"), _section(config, "encoder")
    log: list = []
    checkpoint = train(corpus, train_config, init=init, encoder_config=encoder_config, log=log)
    out = _output_dir(config)
    save_checkpoint(checkpoint, out / "model.json")
    _write_csv(out / "loss_log.csv", "step,loss,ner_loss,re_loss", log)
    _echo_config(config, out)
    print(f"model saved to {out / 'model.json'}")
    return 0


def cmd_eval(config: dict, args) -> int:
    model = _open_model(args.checkpoint)
    corpus = load_experiment_corpus(config, model, args.split)
    result = evaluate_split(model, corpus, args.split)
    out = _output_dir(config)
    _write_json(out / "report.json", result.as_dict())
    rows = [
        (f"{model.head_kind} entities", result.entities),
        ("relations (gold spans)", result.relations_gold_spans),
        ("relations (predicted spans)", result.relations_predicted_spans),
    ]
    (out / "report.md").write_text(report_markdown(rows), encoding="utf-8")
    _echo_config(config, out)
    print(f"entity F1 on {args.split}: {result.entities.micro.f1:.3f}")
    return 0


def cmd_fewshot_curve(config: dict, args) -> int:
    init = _open_checkpoint(args.init)
    corpus = load_experiment_corpus(config, init and init.model, None)
    curve_config, encoder_config = _section(config, "curve"), _section(config, "encoder")
    result = run_curve(corpus, curve_config, init=init, encoder_config=encoder_config)
    out = _output_dir(config)
    (out / "curve.csv").write_text(curve_csv(result), encoding="utf-8")
    (out / "curve_summary.csv").write_text(summary_csv(result), encoding="utf-8")
    _echo_config(config, out)
    for row in result.summary:
        print(f"k={row.k}: median F1 {row.median_f1:.3f}")
    return 0


def cmd_compare_heads(config: dict, args) -> int:
    init = _open_checkpoint(args.init)
    corpus = load_experiment_corpus(config, init and init.model, None)
    _split_indices(corpus, _corpus_source(config), args.split)  # checked before any training
    base, encoder_config = _section(config, "train"), _section(config, "encoder")
    rows, details = [], {}
    for head in HEAD_KINDS:
        checkpoint = train(
            corpus, replace(base, head=head), init=init, encoder_config=encoder_config
        )
        result = evaluate_split(checkpoint.model, corpus, args.split)
        rows.append((head, result.entities))
        details[head] = result.as_dict()
    out = _output_dir(config)
    (out / "comparison.md").write_text(report_markdown(rows), encoding="utf-8")
    _write_json(out / "comparison.json", details)
    _echo_config(config, out)
    print(report_markdown(rows), end="")
    return 0


def cmd_predict(config: dict, args) -> int:
    """One JSON record per non-blank line; a line longer than max_len becomes
    {"line": n, "error": ...} and the command then exits 1."""
    out_file = args.out_file and _output_path(args.out_file, "--out-file", directory=False)
    model = _open_model(args.checkpoint)
    input_path = _existing(args.input, "input file")
    lines = read_utf8(input_path).split("\n")
    numbered = [(number, line.split()) for number, line in enumerate(lines, 1) if line.split()]
    sentences = [Sentence([Token(w) for w in words], [0] * len(words)) for _, words in numbered]
    errors = length_errors(sentences, model.vocab, model.config.max_len)
    decoded = iter(predict(model, [s for i, s in enumerate(sentences) if i not in errors]))
    records = [
        {"line": number, "error": errors[i]} if i in errors
        else {"tokens": words, "spans": [asdict(s) for s in next(decoded)[0]]}
        for i, (number, words) in enumerate(numbered)
    ]
    payload = "\n".join(json.dumps(r, separators=(",", ":")) for r in records)
    payload = payload + "\n" if payload else ""
    if out_file:
        out_file.parent.mkdir(parents=True, exist_ok=True)
        out_file.write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    for i, message in errors.items():
        print(f"error: {input_path} line {numbered[i][0]}: {message}", file=sys.stderr)
    return 1 if errors else 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process: ``parse_args`` does not change it."""
    parser = _Parser(prog="medext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, init_flag=False):
        p.add_argument("--config", help="experiment config JSON file")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override one config value (repeatable)")
        p.add_argument("--out", dest="output_dir", help="output directory")
        p.add_argument("--tags", dest="corpus.tags", help="corpus tag file (two-column TSV)")
        p.add_argument("--annotations", dest="corpus.annotations",
                       help="span/relation JSON-lines sidecar")
        p.add_argument("--size", dest="corpus.size", type=int, help="synthetic corpus size")
        p.add_argument("--corpus-seed", dest="corpus.seed", type=int,
                       help="synthetic corpus seed")
        if init_flag:
            p.add_argument("--init", help="checkpoint to fine-tune from")

    p = sub.add_parser("gen-corpus", help="write a synthetic corpus")
    common(p)

    p = sub.add_parser("pretrain", help="masked-token pretraining of the encoder")
    common(p)
    p.add_argument("--steps", dest="pretrain.steps", type=int, help="optimizer steps")
    p.add_argument("--seed", dest="pretrain.seed", type=int, help="pretraining seed")

    p = sub.add_parser("train", help="fine-tune an extraction head")
    common(p, init_flag=True)
    p.add_argument("--steps", dest="train.steps", type=int, help="optimizer steps")
    p.add_argument("--seed", dest="train.seed", type=int, help="training seed")
    p.add_argument("--head", dest="train.head", choices=HEAD_KINDS,
                   help="extraction head")

    p = sub.add_parser("eval", help="score a checkpoint against a corpus split")
    common(p)
    p.add_argument("--checkpoint", required=True, help="model checkpoint to score")
    p.add_argument("--split", default="test", choices=["train", "val", "test"])

    p = sub.add_parser("fewshot-curve", help="k-shot learning-curve experiment")
    common(p, init_flag=True)
    p.add_argument("--steps", dest="train.steps", type=int, help="optimizer steps per episode")
    p.add_argument("--seed", dest="train.seed", type=int, help="base seed for the curve")

    p = sub.add_parser("compare-heads", help="train all three heads and tabulate")
    common(p, init_flag=True)
    p.add_argument("--steps", dest="train.steps", type=int, help="optimizer steps per head")
    p.add_argument("--seed", dest="train.seed", type=int, help="training seed")
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
    paused = args.command in ("eval", "predict") and gc.isenabled()
    if paused:  # their cyclic garbage is bounded: see README, "Batched heads"
        gc.disable()
    try:
        # predict takes no experiment config
        config = DEFAULT_CONFIG if args.command == "predict" else resolve_config(args)
        return COMMANDS[args.command](config, args)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    finally:
        if paused:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
