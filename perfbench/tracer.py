"""Spans around opcalc's public functions, recorded from the benchmark's side.

``Tracer.install`` replaces every binding of each target (the attribute in
every loaded ``opcalc`` module that holds the function, or the method on its
class) with a wrapper that records a span: target name, parent span, start
and end, plus the target's counters. Spans are kept in memory per job and
written out when the run ends. A span's self time is its duration minus the
time its child spans cover; job time that no top-level span covers is
reported as unattributed.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _eval_points(args, kwargs, result):
    return int(np.size(result))


def _eval_exp_evals(args, kwargs, result):
    return int(np.size(result)) * len(args[0].coeffs)


def _nbytes(args, kwargs, result):
    return int(result.nbytes)


def _rows(args, kwargs, result):
    return int(result.shape[0])


def _kernel_entries(args, kwargs, result):
    return int(result.values.size)


def _file_bytes(args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs["path"]
    return os.path.getsize(path)


# (span name, module, class or None, attribute, {counter: fn(args, kwargs, result)})
TARGETS = [
    ("bandlimited.eval", "opcalc.bandlimited", "TrigPolynomial", "eval",
     {"points": _eval_points, "exp_evals": _eval_exp_evals}),
    ("bandlimited.grid_values", "opcalc.bandlimited", "TrigPolynomial", "grid_values",
     {"bytes": _nbytes}),
    ("bandlimited.sup_norm", "opcalc.bandlimited", None, "sup_norm", {}),
    ("bandlimited.lp_pieces", "opcalc.bandlimited", None, "lp_pieces", {}),
    ("bandlimited.seminorm_estimate", "opcalc.bandlimited", None, "seminorm_estimate", {}),
    ("spectral.functional_calculus", "opcalc.spectral", None, "functional_calculus",
     {"eigenvalues": _rows}),
    ("spectral.random_normal", "opcalc.spectral", None, "random_normal", {}),
    ("doi.divided_difference_kernel", "opcalc.doi", None, "divided_difference_kernel",
     {"entries": _kernel_entries}),
    ("doi.doi_apply", "opcalc.doi", None, "doi_apply", {}),
    ("doi.schur_norm_bracket", "opcalc.doi", None, "schur_norm_bracket", {}),
    ("sinc.haagerup_factorization", "opcalc.sinc", None, "haagerup_factorization", {}),
    ("sinc.row_energy", "opcalc.sinc", None, "row_energy", {}),
    ("ideals.singular_values", "opcalc.ideals", None, "singular_values", {}),
    ("ideals.averaging_constant_check", "opcalc.ideals", None, "averaging_constant_check", {}),
    ("ideals.boyd_index_estimate", "opcalc.ideals", None, "boyd_index_estimate", {}),
    ("perturbation.certified_modulus_bound", "opcalc.perturbation", None,
     "certified_modulus_bound", {}),
    ("perturbation.certified_lipschitz_constant", "opcalc.perturbation", None,
     "certified_lipschitz_constant", {}),
    ("perturbation.coupled_normal_pair", "opcalc.perturbation", None, "coupled_normal_pair", {}),
    ("cli.run", "opcalc.cli", None, "run", {}),
    ("cli.render", "opcalc.cli", None, "render", {"bytes": _file_bytes}),
]
# every experiment_* suite in perturbation shares one span name
EXPERIMENT_SPAN = "perturbation.experiment"
EXPERIMENT_MODULE = "opcalc.perturbation"

# counters per span name, besides calls and self_s
COUNTERS = {name: list(counters) for name, _, _, _, counters in TARGETS}
COUNTERS[EXPERIMENT_SPAN] = []


def rebind(old, new) -> None:
    """Point every attribute of a loaded opcalc module that holds ``old`` at ``new``."""
    for modname, module in list(sys.modules.items()):
        if module is None or (modname != "opcalc" and not modname.startswith("opcalc.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def observe_sup_norm(widths: list) -> None:
    """Record (upper - lower) / lower of every sup_norm bracket the program computes."""
    original = sys.modules["opcalc.bandlimited"].sup_norm

    @functools.wraps(original)
    def sup_norm(*args, **kwargs):
        lower, upper = original(*args, **kwargs)
        if lower > 0.0:
            widths.append((upper - lower) / lower)
        return lower, upper

    rebind(original, sup_norm)


class Tracer:
    """Installs span-recording wrappers and aggregates spans job by job."""

    def __init__(self):
        self.names: list[str] = []
        self._spans: list = []
        self._stack: list[int] = []
        self._patches: list = []  # (owner class or None, attribute, original, wrapper)
        self.jobs: list[dict] = []  # finished jobs' spans, written by dump()
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn, counters: dict):
        spans, stack, clock = self._spans, self._stack, time.perf_counter
        name_id = self._name_id(name)
        count_fns = tuple(counters.values())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((name_id, parent, 0.0, 0.0, ()))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, parent, start, end, ())
            if count_fns:
                spans[idx] = (name_id, parent, start, end,
                              tuple(c(args, kwargs, result) for c in count_fns))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; the current bindings are restored by uninstall()."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = list(TARGETS)
        perturbation = sys.modules[EXPERIMENT_MODULE]
        for attr in sorted(vars(perturbation)):
            if attr.startswith("experiment_") and callable(getattr(perturbation, attr)):
                targets.append((EXPERIMENT_SPAN, EXPERIMENT_MODULE, None, attr, {}))
        for name, modname, clsname, attr, counters in targets:
            owner = sys.modules[modname]
            if clsname is not None:
                owner = getattr(owner, clsname)
            original = getattr(owner, attr, None)
            if original is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, counters)
            if clsname is not None:
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original, wrapper))
            else:
                rebind(original, wrapper)
                self._patches.append((None, attr, original, wrapper))

    def uninstall(self) -> None:
        for owner, attr, original, wrapper in reversed(self._patches):
            if owner is not None:
                setattr(owner, attr, original)
            else:
                rebind(wrapper, original)
        self._patches.clear()

    def finish_job(self, index: int, seconds: float) -> dict:
        """Close the current job: aggregate its spans and keep them for dump()."""
        spans = list(self._spans)
        self._spans.clear()
        self._stack.clear()
        child = [0.0] * len(spans)
        for name_id, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        covered = 0.0
        for i, (name_id, parent, start, end, values) in enumerate(spans):
            name = self.names[name_id]
            duration = end - start
            self_s[name] += duration - child[i]
            counts[name + ".calls"] += 1
            for counter, value in zip(COUNTERS[name], values):
                counts[f"{name}.{counter}"] += value
            if parent < 0:
                covered += duration
            elif (name == "bandlimited.grid_values"
                  and self.names[spans[parent][0]] == "bandlimited.sup_norm"):
                counts["bandlimited.sup_norm.grids"] += 1
        t0 = spans[0][2] if spans else 0.0
        self.jobs.append({
            "job": index,
            "seconds": seconds,
            "spans": [[n, p, round(s - t0, 7), round(e - t0, 7), *v] for n, p, s, e, v in spans],
        })
        return {"seconds": seconds, "self_s": dict(self_s), "counts": dict(counts),
                "unattributed_s": seconds - covered}

    def dump(self) -> dict:
        """Recorded spans per job: [name id, parent index, start, end, counters...].

        Start and end are seconds from the job's first span.
        """
        return {"names": self.names,
                "counters": {n: COUNTERS[n] for n in self.names},
                "jobs": self.jobs}
