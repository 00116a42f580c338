"""Output parity: run every medext subcommand on a small fixed corpus and
list the sha256 of everything it writes.

    python scripts/parity.py                          # the working tree's list
    python scripts/parity.py --out parity.txt         # ... written to a file
    python scripts/parity.py --against HEAD~1         # diff against a commit
    python scripts/parity.py --rev A --against B      # diff two commits

Each tree runs in a fresh interpreter with its own ``src/`` first on the path
(a commit is exported with ``git archive`` into a temporary directory).  The
commands run in process, in a temporary directory, with relative paths, so
the outputs do not depend on where they are written.  The list holds one
``sha256  name`` line per output file, per command (exit code, stdout and
stderr), and per checkpoint as loaded (``<file>#loaded``: its parameter and
Adam-moment bytes, step and seed lineage), so that a checkpoint whose file
format changed can still be shown to hold the same numbers.  With
``--against`` the two lists are compared and the script exits 1 when they
differ.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# A small encoder and short runs: the point is coverage, not quality.
CONFIG = {
    "encoder": {"d_model": 16, "heads": 2, "layers": 1, "d_ff": 32},
    "train": {"batch_size": 4},
    "pretrain": {"batch_size": 8},
    "curve": {"k_values": [1, 2], "seeds_per_k": 2},
}
CORPUS = ["--tags", "corpus/corpus.tsv", "--annotations", "corpus/annotations.jsonl"]
COMMON = ["--config", "config.json", *CORPUS]
# blank lines are skipped; 70 unseen words make more than max_len (64) subwords
PREDICT_INPUT = "\n".join(
    ["aspirin for fever", "", "   ", "pain of rash after ibuprofen", "qzx " * 70, "rash", ""]
)
HEADS = ("crf", "span", "seq2seq")
# A hand-written corpus in an awkward layout: CRLF line ends, separator lines
# of spaces and tabs, repeated blank lines, no final newline; the annotation
# records end in CRLF, blank lines come between them, and the last lists its
# spans out of order.
AWKWARD = ["--tags", "awkward/corpus.tsv", "--annotations", "awkward/annotations.jsonl"]
AWKWARD_TAGS = "\r\n".join([
    "the\tO", "patient\tO", "had\tO", "severe\tB-Modifier", "anemia\tI-Modifier", " \t ",
    "asthma\tB-Specific", "causes\tO", "chronic\tB-Modifier", "fatigue\tI-Modifier", "", "",
    "no\tO", "findings\tO", "\t",
    "lung\tB-Specific", "cancer\tI-Specific", "treats\tO", "metabolic\tB-Composite",
    "syndrome\tI-Composite", "   ", "",
    "idiopathic\tB-Undetermined", "condition\tI-Undetermined", "noted\tO", "",
    "follow\tO", "up\tO", "confirmed\tO", "migraine\tB-Specific", "\t \t", "", "",
    "unknown\tB-Undetermined", "syndrome\tI-Undetermined", "and\tO", "measles\tB-Specific",
])
AWKWARD_ANNOTATIONS = "\r\n".join([
    '{"spans": [{"start": 3, "end": 4, "cls": "Modifier"}]}',
    '{"spans": [{"start": 0, "end": 0, "cls": "Specific"}, '
    '{"start": 2, "end": 3, "cls": "Modifier"}], "relations": [{"head": 0, "tail": 1, '
    '"label": "causes"}]}',
    "", "{}", "  ",
    '{"spans": [{"start": 0, "end": 1, "cls": "Specific"}, '
    '{"start": 3, "end": 4, "cls": "Composite"}], "relations": [{"head": 0, "tail": 1, '
    '"label": "treats"}]}',
    '{"spans": [{"start": 0, "end": 1, "cls": "Undetermined"}], "relations": []}',
    '{"spans": [{"start": 3, "end": 3, "cls": "Specific"}]}',
    '{"spans": [{"start": 3, "end": 3, "cls": "Specific"}, '
    '{"start": 0, "end": 1, "cls": "Undetermined"}], "relations": [{"head": 1, "tail": 0, '
    '"label": "causes"}]}',
    "",
])


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of every run, in order; later runs read earlier outputs.
    A run's name is also its output directory."""

    def train(name: str, head: str, steps: int, *extra: str) -> tuple[str, list[str]]:
        return name, ["train", *COMMON, "--head", head, "--steps", str(steps), *extra,
                      "--out", name]

    runs = [
        ("corpus", ["gen-corpus", "--size", "60", "--corpus-seed", "5", "--out", "corpus"]),
        ("pre", ["pretrain", *COMMON, "--steps", "12", "--out", "pre"]),
    ]
    for head in HEADS:
        runs.append(train(f"train-{head}", head, 20))
        runs.append(train(f"train-{head}-init", head, 20, "--init", "pre/encoder.json"))
    runs += [
        train("train-span-dropout", "span", 6, "--set", "encoder.dropout_rate=0.2"),
        train("train-crf-balanced", "crf", 6, "--set", "train.class_balanced=true"),
        train("train-crf-resume", "crf", 4, "--init", "train-crf-init/model.json"),
        # one sentence per step: attention's unpadded forward and backward pass
        train("train-span-b1", "span", 6, "--set", "train.batch_size=1"),
    ]
    for head, split in (("crf", "test"), ("crf", "val"), ("span", "test"), ("seq2seq", "test")):
        name, model = f"eval-{head}-{split}", f"train-{head}-init/model.json"
        runs.append((name, ["eval", *COMMON, "--checkpoint", model, "--split", split,
                            "--out", name]))
    runs += [
        ("compare", ["compare-heads", *COMMON, "--init", "pre/encoder.json", "--steps", "4",
                     "--out", "compare"]),
        ("curve", ["fewshot-curve", *COMMON, "--steps", "3", "--out", "curve"]),
        ("curve-init", ["fewshot-curve", *COMMON, "--init", "pre/encoder.json", "--steps", "3",
                        "--out", "curve-init"]),
    ]
    for head in HEADS:
        runs.append((f"predict-{head}", ["predict", "--checkpoint",
                                         f"train-{head}-init/model.json", "--input", "input.txt"]))
    runs.append(("predicted", ["predict", "--checkpoint", "train-span/model.json",
                               "--input", "input.txt", "--out-file", "predicted/span.jsonl"]))
    runs.append(("predict-one-line", ["predict", "--checkpoint", "train-crf-init/model.json",
                                      "--input", "one-line.txt"]))
    runs += [
        ("pre-awkward", ["pretrain", "--config", "config.json", *AWKWARD, "--steps", "3",
                         "--out", "pre-awkward"]),
        ("eval-awkward", ["eval", "--config", "config.json", *AWKWARD, "--checkpoint",
                          "train-crf-init/model.json", "--split", "test", "--out",
                          "eval-awkward"]),
    ]
    return runs


def write_inputs() -> None:
    """Write, in the current directory, the files the runs read that no run
    writes: the config, the two predict inputs and the awkward corpus."""
    Path("config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    Path("input.txt").write_text(PREDICT_INPUT, encoding="utf-8")
    Path("one-line.txt").write_text("pain of rash after ibuprofen\n", encoding="utf-8")
    Path("awkward").mkdir()
    Path("awkward/corpus.tsv").write_bytes(AWKWARD_TAGS.encode())
    Path("awkward/annotations.jsonl").write_bytes(AWKWARD_ANNOTATIONS.encode())


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def checkpoint_digest(load_checkpoint, path: Path) -> str:
    """The loaded checkpoint's numbers, independent of the file format."""
    checkpoint = load_checkpoint(path)
    h = hashlib.sha256(json.dumps([checkpoint.step, checkpoint.seed_lineage]).encode())
    arrays = {f"param {k}": p.values for k, p in checkpoint.model.parameters().items()}
    h.update(f"adam step {checkpoint.optimizer.step}".encode())
    arrays.update({f"m {k}": a for k, a in checkpoint.optimizer.m.items()})
    arrays.update({f"v {k}": a for k, a in checkpoint.optimizer.v.items()})
    for name in sorted(arrays):
        h.update(f"{name} {arrays[name].shape}".encode())
        h.update(arrays[name].astype("<f8").tobytes())
    return h.hexdigest()


def collect(src: Path) -> dict[str, str]:
    """Run every command in the current directory (empty) with medext from
    ``src``, and digest what they wrote."""
    sys.path.insert(0, str(src))
    import medext
    from medext.cli import main
    from medext.training import load_checkpoint

    if Path(medext.__file__).resolve().parent != (src / "medext").resolve():
        raise SystemExit(f"medext imported from {medext.__file__}, not from {src}")
    write_inputs()
    digests = {}
    for number, (name, argv) in enumerate(commands()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        record = [" ".join(argv), f"exit {code}", "--- stdout", out.getvalue(), "--- stderr",
                  err.getvalue()]
        digests[f"command/{number:02d}-{name}"] = sha("\n".join(record).encode())
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        digests[path.as_posix()] = sha(path.read_bytes())
        if path.name in ("model.json", "encoder.json"):
            digests[f"{path.as_posix()}#loaded"] = checkpoint_digest(load_checkpoint, path)
    return digests


def listing(digests: dict[str, str]) -> str:
    return "".join(f"{digest}  {name}\n" for name, digest in sorted(digests.items()))


def run_tree(rev: str | None) -> dict[str, str]:
    """The digests of the working tree (``rev`` None) or of commit ``rev``,
    from a fresh interpreter running ``--collect`` in an empty directory."""
    with tempfile.TemporaryDirectory(prefix="medext-parity-") as tmp:
        src = ROOT / "src"
        if rev is not None:
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
            src = Path(tmp) / "src"
        work = Path(tmp) / "work"
        work.mkdir()
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        argv = [sys.executable, str(Path(__file__).resolve()), "--collect", str(src)]
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"collecting {rev or 'the working tree'} failed:\n{done.stderr}")
        return dict(line.split("  ", 1)[::-1] for line in done.stdout.splitlines())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", help="commit to list (default: the working tree)")
    parser.add_argument("--against", metavar="REV", help="commit to compare the list with")
    parser.add_argument("--out", help="write the list here (default: stdout, without --against)")
    parser.add_argument("--collect", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        sys.stdout.write(listing(collect(Path(args.collect))))
        return 0
    mine = run_tree(args.rev)
    if args.out:
        Path(args.out).write_text(listing(mine), encoding="utf-8")
    if args.against is None:
        if not args.out:
            sys.stdout.write(listing(mine))
        return 0
    theirs = run_tree(args.against)
    label = args.rev or "working tree"
    changed = sorted(n for n in mine.keys() & theirs.keys() if mine[n] != theirs[n])
    for name in changed:
        print(f"differs: {name}")
    for name in sorted(mine.keys() - theirs.keys()):
        print(f"only in {label}: {name}")
    for name in sorted(theirs.keys() - mine.keys()):
        print(f"only in {args.against}: {name}")
    same = len(mine.keys() & theirs.keys()) - len(changed)
    print(f"{label} against {args.against}: {same} identical, {len(changed)} differ, "
          f"{len(mine.keys() ^ theirs.keys())} in one list only")
    return 0 if mine == theirs else 1


if __name__ == "__main__":
    sys.exit(main())
