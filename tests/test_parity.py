"""scripts/parity.py, the output parity check: its list covers every command
and every checkpoint, and a second run of the same tree gives the same list."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "parity.py"

# Everything scripts/reach.py lists, by why it stays: a new name here is
# either wired into a command or deleted.
UNREACHED = {
    "read or patched by perfbench/": [
        "corpus.py Sentence.surfaces", "corpus.py tokenize_corpus", "encoder.py encode",
        "pipeline.py encode_words", "relation_head.py relation_loss", "tensor.py Tensor.item",
        "tensor.py active_tape",
    ],
    "the tensor test toolkit": [
        "tensor.py Tensor.mean", "tensor.py mul", "tensor.py mean_all",
        "tensor.py finite_diff_check", "tensor.py finite_diff_check.<locals>.evaluate",
    ],
    "methods only tests call": [
        "corpus.py TagScheme.__eq__", "corpus.py Vocab.__eq__", "fewshot.py CurveResult.median_f1",
        "tensor.py Tensor.__repr__",
    ],
    "error paths no run takes": ["cli.py _Parser.error", "corpus.py _reject"],
}


def test_list_is_complete_and_repeatable():
    spec = importlib.util.spec_from_file_location("parity", SCRIPT)
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    first, second = parity.run_tree(None), parity.run_tree(None)
    assert first == second
    assert sum(name.startswith("command/") for name in first) == len(parity.commands())
    checkpoints = [name for name in first if name.endswith(("/model.json", "/encoder.json"))]
    assert len(checkpoints) == 12
    assert all(f"{name}#loaded" in first for name in checkpoints)


def test_reach_lists_what_no_run_enters(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPT.parent))
    spec = importlib.util.spec_from_file_location("reach", SCRIPT.parent / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    runs = reach.parity.commands()
    trains = {line.split(" ", 1)[1] for line in reach.unreached(runs[:1])}
    assert {"train", "pretrain", "viterbi", "Model.clone"} <= trains
    after_all = {line.split(" ", 1)[1] for line in reach.unreached(runs)}
    assert not {"train", "pretrain", "viterbi", "Model.clone"} & after_all


def test_reach_list_is_pinned():
    """The whole list, from a fresh interpreter: one that has imported medext
    already misses what the import itself calls."""
    out = subprocess.run(
        [sys.executable, str(SCRIPT.parent / "reach.py")], capture_output=True, text=True, check=True
    ).stdout
    listed = sorted(re.sub(r"^medext/(\S+):\d+ ", r"\1 ", line) for line in out.splitlines())
    assert listed == sorted(name for names in UNREACHED.values() for name in names)
