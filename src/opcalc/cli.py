"""Batch front end: parse and validate a run config, run its suite, emit tables and plots.

Usage: ``opcalc <experiment-id> [--config file.json] [flags...]``; flags
mirror config keys and override the file.  Outputs ``<out>.csv``,
``<out>.json`` and, for experiments with designated plot columns and
positive data to plot, ``<out>.svg``.  Exit status: 0 on success, 1 if any
certified-bound or identity assertion failed during the run, 2 on a usage
error (bad flag, config key or value), reported without a traceback.
The suites themselves live in ``opcalc.perturbation``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields

from .perturbation import SUITES, ExperimentReport

EXPERIMENTS = tuple(SUITES)

MAX_DIM = 64
MAX_TRIALS = 10**6
# the least p whose Boyd sums stay finite: 32768^(1/p) = 2^(15/p) < 2^1024 for p > 15/1024
_P_MIN = 15.0 / 1024.0
# The identity suites' residuals are rounding in the phases h k x, which grows
# linearly with sigma: the worst residual / scale over 200 trials at dims 2-8
# (seed 0) is 8.5e-11 at sigma 1e6 and 9.8e-10 at 1e7, against the 1e-9
# tolerance, and every row fails at 1e8.
_IDENTITY_SUITES = ("doi-verify", "qc-verify")
_IDENTITY_SIGMA_MAX = 1e6


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _positive(v) -> bool:
    return _is_real(v) and 0.0 < v < math.inf


def _list_of(check):
    return lambda v: isinstance(v, list) and bool(v) and all(check(x) for x in v)


# (field, check, what a valid value is), applied in order by RunConfig.validate
_CHECKS = (
    ("seed", lambda v: _is_int(v) and v >= 0, "a nonnegative integer"),
    ("dims", _list_of(lambda d: _is_int(d) and 1 <= d <= MAX_DIM),
     f"a nonempty list of integers in [1, {MAX_DIM}]"),
    ("trials", lambda v: _is_int(v) and 0 <= v <= MAX_TRIALS,
     f"an integer in [0, {MAX_TRIALS}]"),
    ("sigma", _positive, "a positive finite number"),
    ("alpha", lambda v: _is_real(v) and 0.0 < v < 1.0, "a number in (0, 1)"),
    # finite p the suites evaluate: Boyd estimates raise sums of <= 32768 values in (0, 1]
    # (512-long spectra dilated 64-fold) to 1/p, averaging checks values below 9.3e19 to p <= 15
    ("p", _list_of(lambda v: _is_real(v) and (_P_MIN < v <= 15.0 or v == math.inf)),
     f"a nonempty list of exponents in ({_P_MIN}, 15] or inf"),
    ("delta_grid", _list_of(_positive), "a nonempty list of positive finite numbers"),
    ("out", lambda v: v is None or isinstance(v, str), "a path prefix string"),
    ("tol", _positive, "a positive finite number"),
)


@dataclass
class RunConfig:
    experiment: str
    seed: int = 0
    dims: list[int] = field(default_factory=lambda: [4])
    sigma: float = 2.0
    trials: int = 20
    alpha: float = 0.5
    p: list[float] = field(default_factory=lambda: [2.0])
    delta_grid: list[float] = field(default_factory=lambda: [2.0**-k for k in range(11)])
    out: str | None = None
    tol: float = 1e-9

    def validate(self) -> None:
        """Raise ValueError unless every field has its type and range."""
        if self.experiment not in SUITES:
            raise ValueError(f"unknown experiment id {self.experiment!r}")
        for name, ok, what in _CHECKS:
            if not ok(getattr(self, name)):
                raise ValueError(f"{name} must be {what}")
        # the head-sum envelopes of schatten-decay are defined for finite p only
        if self.experiment == "schatten-decay" and math.inf in self.p:
            raise ValueError("p must be finite for schatten-decay")
        if self.experiment in _IDENTITY_SUITES and self.sigma > _IDENTITY_SIGMA_MAX:
            raise ValueError(
                f"sigma must be at most {_IDENTITY_SIGMA_MAX:g} for {self.experiment}: above it "
                "double-precision rounding alone can exceed the identity tolerance"
            )


def run(config: RunConfig) -> ExperimentReport:
    """Dispatch a validated config to its suite; deterministic given config."""
    config.validate()
    return SUITES[config.experiment](config)


def _strict(obj):
    """Copy of obj fit for strict JSON: NaN -> null, +-inf -> "inf" / "-inf"."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        return repr(obj) if math.isinf(obj) else obj
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def report_to_json(report: ExperimentReport) -> str:
    meta = {"experiment": report.experiment, "seed": report.seed,
            "columns": list(report.columns), **report.meta}
    doc = _strict({"meta": meta, "rows": report.rows})
    return json.dumps(doc, indent=1, allow_nan=False) + "\n"


def report_from_json(text: str) -> ExperimentReport:
    """Inverse of ``report_to_json``: row nulls read back as NaN, "inf"/"-inf" as +-inf."""
    data = json.loads(text, parse_constant=_reject_constant)
    meta = dict(data["meta"])
    experiment = meta.pop("experiment")
    seed = meta.pop("seed")
    columns = meta.pop("columns")
    rep = ExperimentReport(experiment, seed, columns, meta=meta)
    for row in data["rows"]:
        rep.rows.append(tuple(math.nan if v is None else float(v) for v in row))
    return rep


def report_to_csv(report: ExperimentReport) -> str:
    lines = [",".join(report.columns)]
    for row in report.rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _log_ticks(lo: float, hi: float) -> list[float]:
    first = math.ceil(math.log10(lo))
    last = math.floor(math.log10(hi))
    return [10.0**e for e in range(first, last + 1)]


def _plot_points(report: ExperimentReport) -> list[tuple[float, float]]:
    """The (x, y) rows of the designated plot columns that a log-log plot can show."""
    plot = report.meta.get("plot")
    if not plot:
        return []
    xi = report.columns.index(plot["x"])
    yi = report.columns.index(plot["y"])
    return [(r[xi], r[yi]) for r in report.rows if r[xi] > 0 and r[yi] > 0]


def report_to_svg(report: ExperimentReport) -> str:
    """Log-log scatter of the designated plot columns with a slope guide line."""
    plot = report.meta.get("plot")
    if not plot:
        raise ValueError("report has no designated plot columns")
    pts = _plot_points(report)
    if not pts:
        raise ValueError("no positive data to plot")
    slope = plot.get("slope")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs) / 1.5, max(xs) * 1.5
    y0, y1 = min(ys) / 1.5, max(ys) * 1.5
    left, right, top, bottom = 70.0, 780.0, 30.0, 550.0

    def sx(x):
        return left + (math.log10(x) - math.log10(x0)) / (math.log10(x1) - math.log10(x0)) * (right - left)

    def sy(y):
        return bottom - (math.log10(y) - math.log10(y0)) / (math.log10(y1) - math.log10(y0)) * (bottom - top)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 600">',
        '<rect width="800" height="600" fill="white"/>',
        f'<text x="400" y="20" text-anchor="middle" font-size="14">{report.experiment}'
        f" ({plot['x']} vs {plot['y']}, log-log)</text>",
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
    ]
    for t in _log_ticks(x0, x1):
        parts.append(
            f'<line x1="{sx(t):.2f}" y1="{bottom}" x2="{sx(t):.2f}" y2="{bottom + 5}" stroke="black"/>'
            f'<text x="{sx(t):.2f}" y="{bottom + 18}" text-anchor="middle" font-size="10">{t:g}</text>'
        )
    for t in _log_ticks(y0, y1):
        parts.append(
            f'<line x1="{left - 5}" y1="{sy(t):.2f}" x2="{left}" y2="{sy(t):.2f}" stroke="black"/>'
            f'<text x="{left - 8}" y="{sy(t):.2f}" text-anchor="end" font-size="10">{t:g}</text>'
        )
    if slope is not None:
        xa, ya = max(pts, key=lambda p: p[0])
        parts.append(
            f'<line x1="{sx(x0):.2f}" y1="{sy(ya * (x0 / xa) ** slope):.2f}" '
            f'x2="{sx(x1):.2f}" y2="{sy(ya * (x1 / xa) ** slope):.2f}" '
            'stroke="gray" stroke-dasharray="6,3"/>'
            f'<text x="{right - 5}" y="{top + 15}" text-anchor="end" font-size="11" fill="gray">'
            f"slope {slope:g}</text>"
        )
    for x, y in pts:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="steelblue"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render(report: ExperimentReport, fmt: str, path: str) -> None:
    """Write the report to disk in csv, json, or svg form.

    The text goes to a temporary file beside ``path`` that then replaces it,
    so a write that fails part-way leaves ``path`` as it was and no
    temporary file behind.
    """
    if fmt == "csv":
        text = report_to_csv(report)
    elif fmt == "json":
        text = report_to_json(report)
    elif fmt == "svg":
        text = report_to_svg(report)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def build_config(argv: list[str]) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="opcalc",
        description="run a verification experiment and emit csv/json/svg tables",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="JSON file with config keys")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--dims", help="comma-separated matrix dimensions")
    parser.add_argument("--sigma", type=float)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--p", help="comma-separated exponents (inf allowed)")
    parser.add_argument("--delta-grid", help="comma-separated perturbation sizes")
    parser.add_argument("--out", help="output path prefix")
    parser.add_argument("--tol", type=float)
    args = parser.parse_args(argv)
    values: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(values) - {f.name for f in fields(RunConfig)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    values["experiment"] = args.experiment
    list_item = {"dims": int, "p": float, "delta_grid": float}  # comma-separated flags
    for key in (f.name for f in fields(RunConfig) if f.name != "experiment"):
        flag = getattr(args, key)
        if flag is not None and key in list_item:
            values[key] = [list_item[key](t) for t in flag.split(",") if t.strip()]
        elif flag is not None:
            values[key] = flag
    return RunConfig(**values)


def main(argv: list[str] | None = None) -> int:
    try:
        config = build_config(sys.argv[1:] if argv is None else argv)
        report = run(config)
        prefix = config.out or config.experiment
        render(report, "csv", prefix + ".csv")
        render(report, "json", prefix + ".json")
        if _plot_points(report):
            render(report, "svg", prefix + ".svg")
        elif report.meta.get("plot"):
            print(f"opcalc: note: no positive data to plot; {prefix}.svg not written",
                  file=sys.stderr)
    except (ValueError, OSError) as exc:
        print(f"opcalc: error: {exc}", file=sys.stderr)
        return 2
    status = 0 if report.violations == 0 else 1
    print(
        f"{config.experiment}: {len(report.rows)} rows, "
        f"{report.violations} violations -> {prefix}.csv"
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
