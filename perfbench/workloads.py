"""The benchmark's workloads: what one job runs, and the checks on its outputs.

A job is one seeded verification batch: every suite of the workload run once
through ``opcalc.cli.main`` with a generated config, plus, in ``certify``,
direct library calls. The program sees only the generated configs and
inputs; every seed is derived from the workload seed and the job index.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import traceback
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from opcalc import bandlimited, cli, doi, sinc

IDENTITY_TOL = 1e-9
SINC_FACTOR_SLACK = 1.01  # acceptance criterion 4: upper <= 1.01 * sqrt(3) sigma ||f||
CERTIFY_DIMS = (8, 32, 64)
CERTIFY_SIGMA = 4.0
CERTIFY_TERMS = 12

# workload -> [(experiment id, config keys other than the seed, extra CLI flags)]
SUITES = {
    "sweep": [
        ("holder-sweep", {"dims": [8, 32, 64], "sigma": 2.0, "alpha": 0.5, "trials": 10}, []),
        ("schatten-decay", {"dims": [8, 32, 64], "sigma": 2.0, "alpha": 0.5, "trials": 10},
         ["--p", "2"]),
    ],
    "identities": [
        (exp, {"dims": [2, 3, 4, 5, 6, 7, 8], "sigma": 8.0, "trials": 80}, flags)
        for exp, flags in (("doi-verify", []), ("qc-verify", []), ("lip-bound", []),
                           ("fuglede-ratio", ["--p", "1,2,inf"]))
    ],
    "certify": [
        ("sinc-check", {"trials": 20}, []),
        ("ideals-boyd", {"trials": 1000}, ["--p", "1,1.3333333333333333,2,4"]),
    ],
}
WORKLOADS = tuple(SUITES)


class JobFailure(Exception):
    """A check on a job's outputs failed; the message is the failure class."""


@dataclass
class JobResult:
    seconds: float
    trials: int
    failure: str | None = None
    detail: str = ""
    csvs: dict = field(default_factory=dict)
    identity_residual: float = 0.0


def job_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def _certify_inputs(seed: int):
    f = bandlimited.random_trig_polynomial(CERTIFY_SIGMA, CERTIFY_TERMS, seed)
    spectra = []
    for dim in CERTIFY_DIMS:
        rng = np.random.default_rng((seed, dim))
        lam = rng.uniform(-1.0, 1.0, dim) + 1j * rng.uniform(-1.0, 1.0, dim)
        mu = rng.uniform(-1.0, 1.0, dim) + 1j * rng.uniform(-1.0, 1.0, dim)
        spectra.append((lam, mu))
    return f, spectra


def _certify_library(f, spectra, seed: int):
    """Criterion 4 on one function: sup-norm bracket, factorizations, Schur brackets."""
    bracket = bandlimited.sup_norm(f)
    sigma = f.support_radius
    coord = 2.0 * sigma
    tail = sinc.expansion_tail_bound(bracket[1], sigma, coord, coord, sinc.DEFAULT_TERMS)
    factor_uppers = []
    for lam, mu in spectra:
        for axis in ("x", "y"):
            a, b, factor_upper = sinc.haagerup_factorization(f, axis, lam, mu)
            kernel = doi.divided_difference_kernel(f, axis, lam, mu)
            # raises FactorizationError itself when its bracket is inconsistent
            doi.schur_norm_bracket(kernel, (a, b), trials=10, seed=seed,
                                   factorization_tol=tail)
            factor_uppers.append(factor_upper)
    return bracket, factor_uppers


def _check_certify(f, bracket, factor_uppers) -> None:
    lower, upper = bracket
    if not 0.0 < lower <= upper:
        raise JobFailure("SupNormBracket")
    cap = SINC_FACTOR_SLACK * math.sqrt(3.0) * f.support_radius * upper
    for factor_upper in factor_uppers:
        if factor_upper > cap:
            raise JobFailure("FactorizationBound")


def _check_suite(experiment: str, prefix: str) -> tuple[bytes, float]:
    """Check one suite's files; return its CSV bytes and worst identity residual/scale."""
    csv_bytes = Path(prefix + ".csv").read_bytes()
    report = json.loads(Path(prefix + ".json").read_text(encoding="utf-8"))
    meta = report["meta"]
    if meta.get("violations", 0) > 0:
        raise JobFailure("Violations")
    header, *lines = csv_bytes.decode("utf-8").splitlines()
    if header.split(",") != meta["columns"] or len(lines) != len(report["rows"]):
        raise JobFailure("MalformedCSV")
    if meta.get("plot"):
        try:
            root = ET.fromstring(Path(prefix + ".svg").read_bytes())
        except (OSError, ET.ParseError) as exc:
            raise JobFailure("MalformedSVG") from exc
        if not root.tag.endswith("svg"):
            raise JobFailure("MalformedSVG")
    worst = 0.0
    if experiment in ("doi-verify", "qc-verify"):
        cols = meta["columns"]
        res_i = cols.index("residual")
        for line in lines:
            row = [float(tok) for tok in line.split(",")]
            if experiment == "doi-verify":
                scale = row[cols.index("scale")]
            else:
                # 1 + operator norm of the left side; never above the suite's
                # own Frobenius scale, so this check is no looser than its own
                scale = 1.0 + row[cols.index("measured")]
            ratio = row[res_i] / scale
            if not ratio <= IDENTITY_TOL:
                raise JobFailure("IdentityResidual")
            worst = max(worst, ratio)
    return csv_bytes, worst


class Workload:
    """Runs the jobs of one workload in a scratch directory, one at a time."""

    def __init__(self, name: str, seed: int, workdir: Path):
        if name not in SUITES:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.suites = SUITES[name]
        self.trials = sum(cfg["trials"] for _, cfg, _ in self.suites)
        if name == "certify":
            self.trials += 1 + 2 * len(CERTIFY_DIMS)  # sup_norm + one per axis and dim

    def _argvs(self, seed: int) -> list[tuple[str, list[str]]]:
        argvs = []
        for experiment, cfg, flags in self.suites:
            prefix = str(self.workdir / experiment)
            path = prefix + ".config.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({**cfg, "seed": seed}, fh)
            argvs.append((experiment, [experiment, "--config", path, "--out", prefix, *flags]))
        return argvs

    def run_job(self, index: int) -> JobResult:
        """Run job ``index`` and check it; a failing job is reported, never raised."""
        seed = job_seed(self.name, self.seed, index)
        argvs = self._argvs(seed)
        library_inputs = _certify_inputs(seed) if self.name == "certify" else None
        statuses = []
        library = None
        failure = None
        detail = ""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for _, argv in argvs:
                    statuses.append(cli.main(argv))
            if library_inputs is not None:
                library = _certify_library(*library_inputs, seed)
        except Exception as exc:  # the run goes on; the job counts as failed
            failure = type(exc).__name__
            detail = traceback.format_exc()
        result = JobResult(time.perf_counter() - start, self.trials, failure, detail)
        if failure is not None:
            return result
        try:
            for status in statuses:
                if status != 0:
                    raise JobFailure(f"ExitStatus{status}")
            for experiment, _ in argvs:
                csv_bytes, worst = _check_suite(experiment, str(self.workdir / experiment))
                if index == 0:  # only job 0 is re-run and compared
                    result.csvs[experiment] = csv_bytes
                result.identity_residual = max(result.identity_residual, worst)
            if library is not None:
                _check_certify(library_inputs[0], *library)
        except JobFailure as exc:
            result.failure = str(exc)
        except (OSError, ValueError, KeyError) as exc:
            result.failure = f"Unreadable{type(exc).__name__}"
        return result
