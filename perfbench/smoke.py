"""Smoke test of the benchmark itself: every workload at its smallest run.

    python3 perfbench/smoke.py

Checks, per workload, that an untraced run emits every end-to-end metric of
BENCHMARK.json with its unit and no failed job; that two traced runs with the
same seed emit every per-layer metric with its unit, repeat every counter
exactly, and account for the traced job time with self times plus
unattributed time; and that the benchmark refuses to run, printing no
result, where the program's sources are missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTERS = ("calls", "points", "exp_evals", "bytes", "entries", "eigenvalues", "grids_per_call")
SEED = 7


def _run(workload: str, trace: int, cwd: Path = ROOT) -> dict:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_result(result: dict, declared: list[dict], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {result}"
    assert result["attempted"] >= 1, label
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{label}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (label, name)


def check_workload(workload: str, bench: dict) -> None:
    plain = _run(workload, 0)
    _check_result(plain, bench["end_to_end"], f"{workload} untraced")
    for name, m in plain["metrics"].items():
        assert m["value"] > 0, f"{workload}: end-to-end metric {name} is not positive"

    first, second = (_run(workload, 1) for _ in range(2))
    for label, result in (("traced run 1", first), ("traced run 2", second)):
        _check_result(result, bench["per_layer"], f"{workload} {label}")
    one, two = first["metrics"], second["metrics"]
    for name in one:
        if name.rsplit(".", 1)[-1] in COUNTERS:
            assert one[name]["value"] == two[name]["value"], \
                f"{workload}: counter {name} differs: {one[name]['value']} vs {two[name]['value']}"
    for metrics in (one, two):
        self_sum = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
        job = metrics["trace.job_s.mean"]["value"]
        assert math.isclose(self_sum, job, rel_tol=1e-9), \
            f"{workload}: self times sum to {self_sum}, traced job mean is {job}"
    print(f"smoke: {workload} ok ({plain['attempted']} untraced jobs, "
          f"{first['attempted']} and {second['attempted']} in the traced runs)")


def check_bare_checkout() -> None:
    """Only BENCHMARK.json and perfbench/: the run must fail without a result line."""
    bare = HERE / "_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        cmd = [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "run.py succeeded without the program's sources"
    assert '"correct"' not in proc.stdout, "run.py printed a result without the program"
    print("smoke: bare checkout refused")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_bare_checkout()
    for workload in (w["name"] for w in bench["workloads"]):
        check_workload(workload, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
