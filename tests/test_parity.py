"""scripts/parity.py, the output parity check: its list covers every command
and every checkpoint, and a second run of the same tree gives the same list."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "parity.py"


def test_list_is_complete_and_repeatable():
    spec = importlib.util.spec_from_file_location("parity", SCRIPT)
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    first, second = parity.run_tree(None), parity.run_tree(None)
    assert first == second
    assert sum(name.startswith("command/") for name in first) == len(parity.commands())
    checkpoints = [name for name in first if name.endswith(("/model.json", "/encoder.json"))]
    assert len(checkpoints) == 11
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
