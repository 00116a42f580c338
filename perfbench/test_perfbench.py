"""The benchmark's own tests: python3 -m pytest perfbench -q (under a minute)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spec  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

EXACT = [name for name, unit, _ in spec.PER_LAYER if unit in ("count", "B")]


def test_benchmark_json_matches_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == spec.contract()


def test_clock_scales_wall_time_by_the_probes_around_it(monkeypatch):
    probes = iter([2.0, 4.0])
    monkeypatch.setattr(speed, "probe", lambda iters: next(probes))
    clock = speed.Clock(1)
    clock.start()
    wall, scaled = clock.lap()
    assert scaled == pytest.approx(wall / 3)


def test_p95_keeps_slow_operations_and_drops_one_off_pauses():
    rounds = [[1.0] * 18 + [3.0, 3.0] for _ in range(5)]
    for i, operations in enumerate(rounds):
        operations[i] = 50.0  # a pause on another operation in each round
    assert worker.p95_of_medians(rounds) == 3.0


def test_leak_check_sees_installed_wrappers():
    import medext
    import medext.cli

    assert tracer.leaked_wrappers(medext) == []
    tr = tracer.install(medext)
    try:
        leaked = tracer.leaked_wrappers(medext)
        assert "medext.tensor.backward" in leaked
        assert "medext.pipeline.Model.clone" in leaked
        assert len(leaked) == len(tr.originals)
    finally:
        tr.uninstall()
    assert tracer.leaked_wrappers(medext) == []


@pytest.mark.parametrize("workload", ["compare-heads", "pretrain-b16"])
def test_untraced_pass_is_clean_and_correct(workload):
    result = run.run_worker(workload, 5, 0.0, False)
    assert result["failures"] == [] and result["failed"] == 0
    assert result["layers"] is None


def test_counts_repeat_exactly_for_one_seed():
    for workload in ("compare-heads", "predict-eval"):
        first = run.run_worker(workload, 3, 0.0, True)["layers"]
        second = run.run_worker(workload, 3, 0.0, True)["layers"]
        for name in EXACT:
            assert isinstance(first[name], int), name
            assert first[name] == second[name], (workload, name)
        assert first["tensor.tape_nodes" if workload == "compare-heads" else "tensor.nodes_recorded_infer"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pretrain-b16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
