"""medext benchmark: end-to-end metrics, or the per-layer table with --trace 1.

    python3 perfbench/run.py --workload compare-heads --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --write-contract        # regenerate BENCHMARK.json

Run from the repository root.  Every pass runs two fresh worker processes
(``worker.py``), one that prepares the inputs and one that measures, with BLAS
threads pinned to 1 and ``src/`` on the path, so the program is always the one
in this checkout.  ``--trace 0`` runs one untraced pass.  ``--trace 1`` runs
an untraced pass and then a traced pass for half of ``--seconds`` each, in
separate processes, so wrappers never reach the end-to-end numbers; the traced
pass gives the per-layer table and the two together give
``trace.overhead_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
are a human-readable report: every metric with its unit and sample count, the
environment, and the inputs.  Exit code 1, with no JSON line, when a worker
fails or ``src/medext`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170  # all passes of one workload end within this
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, traced: bool, extra=(), deadline=None) -> dict:
    """Prepare the inputs in one process, then measure in a fresh one."""
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{int(traced)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "result.json"
    deadline = time.monotonic() + RUN_TIMEOUT_S if deadline is None else deadline
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(ROOT / "src"))
    common = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
              "--seed", str(seed), "--work", str(work)]
    stages = [
        [*common, "--stage", "prepare"],
        [*common, "--stage", "measure", "--seconds", str(seconds), "--traced", str(int(traced)),
         "--out", str(out), *extra],
    ]
    try:
        for command in stages:
            timeout = max(1.0, deadline - time.monotonic())
            try:
                proc = subprocess.run(
                    command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE, text=True, timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                raise WorkerError(f"{workload} worker exceeded its {timeout:.0f} s") from None
            if proc.returncode != 0:
                raise WorkerError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        if not out.exists():
            raise WorkerError(f"{workload} worker wrote no result")
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def report(res: dict) -> list[str]:
    """Every end-to-end metric under the name a user of this workload knows."""
    op = res["op_name"]
    rows = [
        ("setup_s", res["setup_s"], "s", f"median of {res['setup_n']} set-ups"),
        (f"{op}_ms_mean", res["op_ms_mean"], "ms", f"n={res['op_n']}, at reference speed"),
        (f"{op}_wall_ms_mean", res["op_wall_ms_mean"], "ms", f"n={res['op_n']}, as measured, not scaled"),
        (f"{op}_ms_p50", res["op_ms_p50"], "ms", f"mean of per-head medians, n={res['op_n']}"),
        (f"{op}_ms_p95", res["op_ms_p95"], "ms", f"p95 of per-operation medians over {res['rounds']} rounds, mean over heads"),
        (res["sentences_name"], res["sentences_per_s"], "1/s", f"{res['sentences']} sentences"),
    ]
    if op == "predict_line":
        rows.append(("predict_lines_per_s", res["ops_per_s"], "1/s", f"n={res['op_n']}"))
    for name in ("entity_f1", "relation_f1"):
        if res[name] is not None:
            rows.append((name, res[name], "1", "micro, test split, mean over heads"))
    attempted = res["attempted"]
    rows.append(("failed_frac", res["failed"] / attempted, "1", f"{res['failed']}/{attempted}"))
    if op == "predict_line":
        rows.append(("rejected_frac", res["rejected"] / res["op_n"], "1", f"{res['rejected']}/{res['op_n']} lines over max_len, refused"))
    rows.append(("peak_rss_mb", res["peak_rss_mb"], "MB", "worker process"))
    lines = [f"{res['workload']}: {res['rounds']} rounds in {res['measured_s']:.1f} s"]
    lines += [f"  {name:<24} {value:>12.4f} {unit:<4} ({note})" for name, value, unit, note in rows]
    for key, value in sorted(res["quality"].items()):
        lines.append(f"  {key:<24} {value:>12.4f}")
    if res["inputs"]:
        lines.append(f"  inputs: {json.dumps(res['inputs'], sort_keys=True)}")
    lines.append(f"  env: {json.dumps(res['env'], sort_keys=True)}")
    lines += [f"  FAILED: {msg}" for msg in res["failures"]]
    return lines


def measure(workload: str, seed: int, seconds: float, trace: bool, extra=()) -> tuple[dict, list[str]]:
    """Run the passes of one workload; returns (final JSON object, report lines)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if not trace:
        plain = run_worker(workload, seed, seconds, False, extra, deadline)
        metrics = {
            name: {"value": plain[name], "unit": unit} for name, unit, _, _ in spec.END_TO_END
        }
        lines = report(plain)
        passes = [plain]
    else:
        plain = run_worker(workload, seed, seconds / 2, False, deadline=deadline)
        traced = run_worker(workload, seed, seconds / 2, True, deadline=deadline)
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = traced["op_ms_mean"] / plain["op_ms_mean"] - 1.0
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in spec.PER_LAYER}
        lines = report(plain) + [
            f"{workload} per layer (traced pass: {traced['rounds']} rounds, {traced['op_n']} {traced['op_name']}s):"
        ]
        lines += [f"  {name:<34} {m['value']:>14.4f} {m['unit']}" for name, m in metrics.items()]
        passes = [plain, traced]
    result = {
        "correct": all(p["failed"] == 0 for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's losses and F1 as the reference (default seed only)")
    parser.add_argument("--write-contract", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args()
    if args.write_contract:
        print(f"wrote {spec.write_contract(ROOT)}")
        return 0
    if not (ROOT / "src" / "medext" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'medext'} not found; run from a medext checkout", file=sys.stderr)
        return 1
    extra = ["--write-reference"] if args.write_reference else []
    if args.write_reference and (args.trace or args.seed != 0):
        parser.error("--write-reference needs --trace 0 and --seed 0")
    workloads = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for workload in workloads:
            result, lines = measure(workload, args.seed, args.seconds, bool(args.trace), extra)
            print("\n".join(lines), flush=True)
            results[workload] = result
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[workloads[0]] if len(workloads) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
