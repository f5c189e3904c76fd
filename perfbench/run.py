"""opcalc benchmark: closed-loop verification jobs, one workload per process.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, one table

With ``--workload`` the run measures that workload for ``--seconds`` seconds
with one client that sends its next job when the previous one has finished,
and prints one JSON line last: the end-to-end metrics with ``--trace 0``,
the per-layer metrics from a traced run with ``--trace 1``. Without
``--workload`` each workload runs in its own process and the metrics are
printed as one table. See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / "perfbench" / "_run"

SETUP_SAMPLES = 9
TRACED_JOBS_COUNTED = 3  # counters come from the first traced jobs, so they repeat per seed
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import opcalc, opcalc.cli\n"
    "print(repr(time.perf_counter() - start))\n"
)

END_TO_END = {
    "setup_s": "s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sup_bracket_rel_width.max": "1",
}


def _per_layer_units() -> dict[str, str]:
    from tracer import COUNTERS

    units = {}
    for name, counters in COUNTERS.items():
        units[f"{name}.calls"] = "count"
        for counter in counters:
            units[f"{name}.{counter}"] = "B" if counter == "bytes" else "count"
        units[f"{name}.self_s"] = "s"
    units["bandlimited.sup_norm.grids_per_call"] = "1"
    units["unattributed.self_s"] = "s"
    units["trace.job_s.mean"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def _import_program():
    """Import opcalc from this checkout's src/, or exit 2 if it is not there."""
    init = SRC / "opcalc" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init.relative_to(ROOT)} not found; run from an opcalc checkout")
    sys.path.insert(0, str(SRC))
    import opcalc

    if Path(opcalc.__file__).resolve().parent != (SRC / "opcalc").resolve():
        sys.exit(f"perfbench: imported opcalc from {opcalc.__file__}, not from {SRC}")
    return opcalc


def environment(seed: int) -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def setup_seconds(clock) -> tuple[list[float], list[float]]:
    """Import time of opcalc and opcalc.cli, each sample in a fresh interpreter.

    Returns the rescaled samples and the raw ones.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(clock.rescale(raw[-1]))
    return scaled, raw


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload closed-loop; return the result record."""
    from speed import REFERENCE_S, ReferenceClock
    from tracer import Tracer, observe_sup_norm
    from workloads import Workload

    workdir = RUN_DIR / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    widths: list[float] = []
    observe_sup_norm(widths)
    tracer = Tracer() if trace else None
    bench = Workload(workload, seed, workdir)
    clock = ReferenceClock()
    try:
        setup, setup_raw = ([], []) if trace else setup_seconds(clock)
        warmup = bench.run_job(0)  # also the reference for the determinism re-run
        clock.rescale(warmup.seconds)
        jobs = []  # (traced, JobResult, per-job trace or None)
        scaled = []  # rescaled seconds, one per entry of jobs
        deadline = time.perf_counter() + seconds
        index = 1
        while True:
            traced = trace and index % 2 == 0
            if traced:
                tracer.install()
                try:
                    res = bench.run_job(index)
                finally:
                    tracer.uninstall()
                jobs.append((True, res, tracer.finish_job(index, res.seconds)))
            else:
                res = bench.run_job(index)
                jobs.append((False, res, None))
            scaled.append(clock.rescale(res.seconds))
            index += 1
            n_traced = sum(1 for t, _, _ in jobs if t)
            enough = not trace or (n_traced >= TRACED_JOBS_COUNTED and len(jobs) > n_traced)
            if time.perf_counter() >= deadline and enough:
                break
        rerun = bench.run_job(0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = {}
    details = []
    for i, res in enumerate([warmup] + [r for _, r, _ in jobs]):
        if res.failure:
            failures[i] = res.failure
            details.append(res.detail)
    if rerun.failure:
        failures.setdefault(0, "Rerun" + rerun.failure)
    elif warmup.failure is None and rerun.csvs != warmup.csvs:
        failures.setdefault(0, "NondeterministicCSV")
    attempted = 1 + len(jobs)
    # metrics come from passing jobs; only when none passed, from all of them
    ok = [i for i, (_, r, _) in enumerate(jobs) if r.failure is None] or range(len(jobs))
    ok_jobs = [jobs[i] for i in ok]
    if not widths:
        raise RuntimeError("no sup_norm bracket was observed")
    untraced = [jobs[i][1].seconds for i in ok if not jobs[i][0]]
    untraced_scaled = [scaled[i] for i in ok if not jobs[i][0]]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(seed),
        "attempted": attempted,
        "failed": len(failures),
        "failed_ratio": len(failures) / attempted,
        "failures": {str(k): v for k, v in sorted(failures.items())},
        "first_traceback": next((d for d in details if d), ""),
        "jobs_measured": len(untraced),
        "reference_s": {"p50": statistics.median(clock.samples), "min": min(clock.samples),
                        "max": max(clock.samples), "n": len(clock.samples),
                        "rescaled_to": REFERENCE_S},
        "identity_residual.max": max([warmup.identity_residual] + [r.identity_residual for _, r, _ in jobs]),
    }
    if not trace:
        trials = sum(r.trials for _, r, _ in ok_jobs)
        record["setup_samples"] = setup
        record["job_seconds"] = untraced_scaled
        record["raw"] = {
            "setup_samples": setup_raw,
            "job_seconds": untraced,
            "setup_s": statistics.median(setup_raw),
            "job_s.p50": statistics.median(untraced),
            "job_s.p90": p90(untraced),
            "trials_per_s": trials / sum(untraced),
        }
        record["metrics"] = {
            "setup_s": statistics.median(setup),
            "job_s.p50": statistics.median(untraced_scaled),
            "job_s.p90": p90(untraced_scaled),
            "trials_per_s": trials / sum(untraced_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sup_bracket_rel_width.max": max(widths),
        }
    else:
        record["metrics"] = layer_metrics(ok_jobs, untraced)
        record["trace_missing_targets"] = tracer.missing
        spans_path = RUN_DIR / f"spans-{workload}-seed{seed}.json"
        spans_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    return record


def layer_metrics(ok_jobs, untraced: list[float]) -> dict:
    """Per-job means of the traced jobs; counters from the first traced jobs only."""
    traces = [jt for t, _, jt in ok_jobs if t]
    units = _per_layer_units()
    metrics = {name: 0.0 for name in units}
    for jt in traces:
        for name, value in jt["self_s"].items():
            metrics[name + ".self_s"] += value / len(traces)
        metrics["unattributed.self_s"] += jt["unattributed_s"] / len(traces)
    counted = traces[:TRACED_JOBS_COUNTED]
    grids = 0
    for jt in counted:
        for name, value in jt["counts"].items():
            if name in metrics:
                metrics[name] += value / len(counted)
        grids += jt["counts"].get("bandlimited.sup_norm.grids", 0)
    sup_calls = sum(jt["counts"].get("bandlimited.sup_norm.calls", 0) for jt in counted)
    metrics["bandlimited.sup_norm.grids_per_call"] = grids / sup_calls if sup_calls else 0.0
    traced_seconds = [jt["seconds"] for jt in traces]
    metrics["trace.job_s.mean"] = statistics.fmean(traced_seconds)
    metrics["trace.overhead_s"] = statistics.median(traced_seconds) - statistics.median(untraced)
    return metrics


def result_line(record: dict, units: dict) -> str:
    metrics = {name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()}
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def run_one(args) -> int:
    _import_program()
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    units = _per_layer_units() if args.trace else END_TO_END
    path = RUN_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"# opcalc benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} -> {path.relative_to(ROOT)}")
    print("# env " + json.dumps(record["env"]))
    print(f"# jobs: {record['jobs_measured']} measured untraced, {record['attempted']} attempted "
          f"(warm-up included), failed_ratio {record['failed']}/{record['attempted']} "
          f"{record['failures'] or ''}")
    print(f"# identity_residual.max {record['identity_residual.max']:.3e} (residual/scale)")
    ref = record["reference_s"]
    print(f"# reference kernel {ref['p50']:.5f} s median ({ref['min']:.5f}-{ref['max']:.5f}, "
          f"n={ref['n']}); timings are rescaled to a kernel time of {ref['rescaled_to']} s")
    if "raw" in record:
        raw = record["raw"]
        print("# raw " + " ".join(f"{k} {raw[k]:.6g}" for k in
                                  ("setup_s", "job_s.p50", "job_s.p90", "trials_per_s")))
    print(result_line(record, units))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; print every metric by name and unit."""
    from workloads import WORKLOADS

    records = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"perfbench: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        path = RUN_DIR / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        records[workload] = json.loads(path.read_text(encoding="utf-8"))
    units = dict(_per_layer_units() if args.trace else END_TO_END)
    units["failed_ratio"] = "1"
    units["identity_residual.max"] = "1"
    print(f"{'metric':44} {'unit':6}" + "".join(f"{w:>14}" for w in records))
    for name, unit in units.items():
        cells = []
        for rec in records.values():
            if name == "failed_ratio":
                cells.append(f"{rec['failed']}/{rec['attempted']}")
            elif name == "identity_residual.max":
                value = rec[name]
                cells.append(f"{value:.3e}" if value > 0 else "n/a")
            else:
                cells.append(f"{rec['metrics'][name]:.6g}")
        print(f"{name:44} {unit:6}" + "".join(f"{c:>14}" for c in cells))
    samples = ", ".join(f"{w} n={r['jobs_measured']}" for w, r in records.items())
    print(f"job samples per workload (untraced): {samples}")
    return 0 if all(r["failed"] == 0 for r in records.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep", "identities", "certify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        _import_program()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
