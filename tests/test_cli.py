import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest
import scipy.linalg

from opcalc.cli import (
    EXPERIMENTS,
    RunConfig,
    build_config,
    main,
    render,
    report_from_json,
    report_to_csv,
    report_to_json,
    report_to_svg,
    run,
)
from opcalc import ideals, perturbation
from opcalc.bandlimited import random_trig_polynomial
from opcalc.perturbation import SUITES, ExperimentReport, _coupled_draw
from opcalc.spectral import _phase_fixed_q


def _strict_loads(text):
    def reject(name):
        raise ValueError(f"non-standard constant {name}")

    return json.loads(text, parse_constant=reject)


class TestConfig:
    def test_flags(self):
        cfg = build_config(["doi-verify", "--seed", "7", "--dims", "2,4", "--trials", "3"])
        assert cfg.experiment == "doi-verify"
        assert cfg.seed == 7 and cfg.dims == [2, 4] and cfg.trials == 3

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 5, "dims": [8], "trials": 9}))
        cfg = build_config(["qc-verify", "--config", str(path), "--trials", "2"])
        assert cfg.seed == 5 and cfg.dims == [8] and cfg.trials == 2

    def test_p_list_with_inf(self):
        cfg = build_config(["fuglede-ratio", "--p", "1,2,inf"])
        assert cfg.p == [1.0, 2.0, math.inf]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_config(["not-an-experiment"])

    @pytest.mark.parametrize("bad", [
        {"dims": [0]}, {"dims": [100]}, {"trials": -1}, {"sigma": -2.0}, {"alpha": 1.5},
        {"dims": "4"}, {"dims": [2.0]}, {"dims": []}, {"seed": -1}, {"seed": 1.5},
        {"trials": True}, {"sigma": "2"}, {"sigma": math.inf}, {"alpha": math.nan},
        {"p": [0.0]}, {"p": [-math.inf]}, {"p": []}, {"delta_grid": [0.0]},
        {"tol": -1.0}, {"tol": 0.0}, {"out": 3}, {"sigma": 1.5e6}, {"sigma": 1e8},
    ])
    def test_range_validation(self, bad):
        cfg = RunConfig("doi-verify", **bad)
        with pytest.raises(ValueError):
            cfg.validate()

    @pytest.mark.parametrize("eid", EXPERIMENTS)
    def test_sigma_bound_only_for_identity_suites(self, eid):
        RunConfig(eid, sigma=1e6, p=[2.0]).validate()
        cfg = RunConfig(eid, sigma=1e300, p=[2.0])
        if eid in ("doi-verify", "qc-verify"):
            with pytest.raises(ValueError, match="sigma must be at most 1e"):
                cfg.validate()
        else:
            cfg.validate()


class TestRun:
    def test_experiment_ids_are_the_suite_table(self):
        assert EXPERIMENTS == tuple(SUITES)

    def test_table_looks_suites_up_when_called(self, monkeypatch):
        stub = ExperimentReport("sinc-check", 0, ["a"])
        monkeypatch.setattr(perturbation, "experiment_sinc_check", lambda *a, **k: stub)
        assert run(RunConfig("sinc-check", trials=1)) is stub

    @pytest.mark.parametrize("eid, values, measured, certified", [
        ("lip-bound", {"sigma": 1e-16}, "quotient_op", "certified"),
        ("qc-verify", {"sigma": 1e-16}, "measured", "certified"),
        ("holder-sweep", {"sigma": 1e-14}, "measured_max_norm", "certified_bound"),
        ("holder-sweep", {"sigma": 1e-3, "delta_grid": [1e-15]}, "measured_max_norm",
         "certified_bound"),
    ])
    def test_rounding_is_not_a_violation(self, eid, values, measured, certified):
        # f nearly constant, or delta below an ulp of the spectrum: the
        # measured norm is rounding, above a certified bound near zero
        rep = run(RunConfig(eid, dims=[2, 4, 8], trials=20, **values))
        mi, ci = rep.columns.index(measured), rep.columns.index(certified)
        assert any(r[mi] > r[ci] for r in rep.rows)
        assert rep.violations == 0

    def test_documented_example(self):
        rep = run(RunConfig("doi-verify", seed=1, dims=[4], sigma=2.0, trials=5))
        assert len(rep.rows) == 5
        ri = rep.columns.index("residual")
        si = rep.columns.index("scale")
        assert all(r[ri] <= 1e-9 * r[si] for r in rep.rows)
        assert rep.violations == 0

    def test_zero_trials_vacuous_success(self):
        rep = run(RunConfig("doi-verify", trials=0))
        assert rep.rows == [] and rep.violations == 0

    def test_deterministic_csv(self):
        cfg = RunConfig("holder-sweep", seed=3, dims=[3], trials=4,
                        delta_grid=[0.5, 0.25, 0.125])
        a = report_to_csv(run(cfg))
        b = report_to_csv(run(cfg))
        assert a == b

    @pytest.mark.parametrize("eid", [
        "doi-verify", "sinc-check", "lip-bound", "holder-sweep",
        "schatten-decay", "ideals-boyd", "qc-verify", "fuglede-ratio",
    ])
    def test_all_experiments_clean(self, eid):
        cfg = RunConfig(eid, seed=2, dims=[2, 4], trials=6,
                        delta_grid=[0.5, 0.125], p=[4.0 / 3.0, 2.0])
        rep = run(cfg)
        assert rep.violations == 0
        assert all(len(r) == len(rep.columns) for r in rep.rows)


GOLDEN_SVG = os.path.join(os.path.dirname(__file__), "data", "holder_sweep_seed3.svg")
HALF_PX = 0.005  # the renderer writes pixel coordinates to two decimals


def _oracle_sweep_maxima(cfg):
    """Holder-sweep maxima recomputed without functional_calculus or the sweep loop.

    Same draws as the sweep documents: f = random_trig_polynomial(sigma, 12,
    seed, decay=1) and one coupled pair per substream (seed, grid_idx, trial),
    drawn by ``_coupled_draw`` and factored alone.  Each matrix is
    diagonalized by its complex Schur form, which is diagonal for a normal
    matrix, and f is summed term by term.
    """
    f = random_trig_polynomial(cfg.sigma, 12, cfg.seed, decay=1.0)

    def f_of(n):
        t, z = scipy.linalg.schur(n, output="complex")
        assert np.abs(np.triu(t, 1)).max() < 1e-12
        lam = np.diag(t)
        vals = sum(c * np.exp(1j * f.h * (j * lam.real + k * lam.imag))
                   for (j, k), c in f.coeffs.items())
        return (z * vals) @ z.conj().T

    maxima = []
    for grid_idx, delta in enumerate(cfg.delta_grid):
        norms = []
        for trial in range(cfg.trials):
            rng = np.random.default_rng((cfg.seed, grid_idx, trial))
            pair = _coupled_draw(cfg.dims[trial % len(cfg.dims)], delta, rng)
            (g,) = pair.gaussians  # a coupled pair shares its eigenbasis
            u = _phase_fixed_q(g)
            n1, n2 = ((u * lam) @ u.conj().T for lam in (pair.lam1, pair.lam2))
            norms.append(np.linalg.norm(f_of(n1) - f_of(n2), 2))
        maxima.append(max(norms))
    return maxima


def _decode_sweep_svg(svg, xs):
    """Read the plotted log10 y values back from a sweep SVG through its own axes.

    The x scale comes from the outer circles at the known x values, the y
    scale from the slope guide line, and the y origin from the first y tick.
    Returns each circle's log10 y with the bound that rounding every
    coordinate to two decimals puts on it.
    """
    els = list(ET.fromstring(svg))

    def num(el, key):
        return float(el.get(key))

    circles = [(num(e, "cx"), num(e, "cy")) for e in els if e.tag.endswith("circle")]
    y_ticks = [(num(e, "y1"), float(label.text)) for e, label in zip(els, els[1:])
               if e.tag.endswith("line") and num(e, "x2") - num(e, "x1") == 5.0]
    guide = next(e for e in els if e.get("stroke-dasharray"))
    slope = float(next(e.text for e in els if (e.text or "").startswith("slope ")).split()[1])
    assert len(circles) == len(xs) and y_ticks

    (cx_first, _), (cx_last, _) = circles[0], circles[-1]
    kx = (cx_first - cx_last) / math.log10(xs[0] / xs[-1])  # px per decade of x
    for (cx, _), x in zip(circles, xs):
        assert abs(cx - (cx_first - kx * math.log10(xs[0] / x))) <= 2 * HALF_PX
    gx1, gy1, gx2, gy2 = (num(guide, key) for key in ("x1", "y1", "x2", "y2"))
    ky = (gy1 - gy2) / (gx2 - gx1) * kx / slope  # px per decade of y
    ky_rel_err = 2 * HALF_PX * (1 / (cx_first - cx_last) + 1 / (gy1 - gy2) + 1 / (gx2 - gx1))
    tick_px, tick_value = y_ticks[0]
    logs = [math.log10(tick_value) + (tick_px - cy) / ky for _, cy in circles]
    bounds = [(2 * HALF_PX + abs(tick_px - cy) * ky_rel_err) / ky for _, cy in circles]
    return logs, bounds


class TestRender:
    def test_csv_header_only_when_empty(self):
        rep = ExperimentReport("doi-verify", 0, ["a", "b"])
        assert report_to_csv(rep) == "a,b\n"

    def test_csv_floats_round_trip(self):
        rep = ExperimentReport("doi-verify", 0, ["a"])
        rep.add(0.1 + 0.2)
        text = report_to_csv(rep)
        assert float(text.splitlines()[1]) == 0.1 + 0.2

    def test_json_strict_and_round_trips_inf_and_nan(self):
        rep = ExperimentReport("fuglede-ratio", 0, ["a", "b", "c"],
                               meta={"p": math.inf, "worst": math.nan})
        rep.add(math.inf, -math.inf, math.nan)
        rep.add(1.5, 0.0, -2.0)
        text = report_to_json(rep)
        doc = _strict_loads(text)
        assert doc["rows"][0] == ["inf", "-inf", None]
        assert doc["meta"]["p"] == "inf" and doc["meta"]["worst"] is None
        back = report_from_json(text)
        assert [tuple(map(repr, r)) for r in back.rows] == [tuple(map(repr, r)) for r in rep.rows]
        assert report_to_json(back) == text

    def test_json_reader_rejects_bare_constants(self):
        text = '{"meta": {"experiment": "x", "seed": 0, "columns": ["a"]}, "rows": [[Infinity]]}'
        with pytest.raises(ValueError):
            report_from_json(text)

    def test_json_round_trip_idempotent(self):
        rep = run(RunConfig("doi-verify", seed=1, dims=[3], trials=4))
        once = report_to_json(rep)
        again = report_to_json(report_from_json(once))
        assert once == again

    def test_svg_requires_plot_columns(self):
        rep = run(RunConfig("doi-verify", seed=1, dims=[3], trials=2))
        with pytest.raises(ValueError):
            report_to_svg(rep)

    def test_svg_structure(self):
        cfg = RunConfig("holder-sweep", seed=3, dims=[3], trials=3,
                        delta_grid=[0.5, 0.125, 2.0**-5])
        svg = report_to_svg(run(cfg))
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 600">')
        assert svg.count("<circle") == 3
        assert "slope 0.5" in svg
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")

    def test_svg_golden_snapshot(self, tmp_path):
        golden = os.path.join(os.path.dirname(__file__), "data", "holder_sweep_seed3.svg")
        cfg = RunConfig("holder-sweep", seed=3, dims=[3], trials=3,
                        delta_grid=[0.5, 0.125, 2.0**-5])
        svg = report_to_svg(run(cfg))
        with open(golden, encoding="utf-8") as fh:
            assert svg == fh.read()

    def test_svg_golden_provenance(self):
        """The golden's circles are the documented sweep's maxima, recomputed independently."""
        cfg = RunConfig("holder-sweep", seed=3, dims=[3], trials=3,
                        delta_grid=[0.5, 0.125, 2.0**-5])
        with open(GOLDEN_SVG, encoding="utf-8") as fh:
            logs, bounds = _decode_sweep_svg(fh.read(), cfg.delta_grid)
        oracle = _oracle_sweep_maxima(cfg)
        for got, bound, want in zip(logs, bounds, oracle):
            assert abs(got - math.log10(want)) <= bound + 1e-12

    def test_unknown_format(self, tmp_path):
        rep = ExperimentReport("doi-verify", 0, ["a"])
        with pytest.raises(ValueError):
            render(rep, "pdf", str(tmp_path / "x.pdf"))


class TestMain:
    def test_clean_run_exit_zero(self, tmp_path, capsys):
        prefix = str(tmp_path / "out")
        code = main(["doi-verify", "--seed", "1", "--dims", "4", "--trials", "3",
                     "--out", prefix])
        assert code == 0
        assert os.path.exists(prefix + ".csv")
        assert os.path.exists(prefix + ".json")
        assert "0 violations" in capsys.readouterr().out

    def test_schatten_decay_at_small_alpha(self, tmp_path):
        # (1/alpha)-th and (p/alpha)-th powers of the seminorm estimate (4.59)
        # are far above the double range; the constants take powers of ratios
        prefix = str(tmp_path / "decay")
        argv = ["schatten-decay", "--p", "15", "--alpha", "0.005", "--dims", "4",
                "--trials", "3", "--out", prefix]
        assert main(argv) == 0
        with open(prefix + ".json", encoding="utf-8") as fh:
            meta = json.load(fh)["meta"]
        for key in ("c_decay", "c_majorization", "c_head_sum"):
            assert isinstance(meta[key], float) and math.isfinite(meta[key])

    def test_schatten_decay_power_above_double_range(self, tmp_path):
        # s_j > 1 raised to 1/alpha = 1000 is above the double range: the column reads inf
        prefix = str(tmp_path / "decay")
        argv = ["schatten-decay", "--p", "2", "--alpha", "0.001", "--dims", "8",
                "--trials", "9", "--sigma", "8", "--out", prefix]
        assert main(argv) == 0
        with open(prefix + ".csv", encoding="utf-8") as fh:
            header, *rows = [line.split(",") for line in fh.read().splitlines()]
        col = header.index("s_j_invalpha")
        assert any(math.isinf(float(row[col])) for row in rows)

    def test_ideals_boyd_without_trials(self, tmp_path):
        # an empty averaging stream scores nothing, so the empirical constant stays 0
        prefix = str(tmp_path / "boyd")
        assert main(["ideals-boyd", "--p", "2", "--trials", "0", "--out", prefix]) == 0
        with open(prefix + ".json", encoding="utf-8") as fh:
            doc = _strict_loads(fh.read())
        assert doc["rows"][0][3] == 0.0

    def test_violation_exit_one(self, tmp_path):
        prefix = str(tmp_path / "bad")
        code = main(["doi-verify", "--seed", "1", "--dims", "4", "--trials", "3",
                     "--tol", "1e-30", "--out", prefix])
        assert code == 1

    def test_bad_config_exit_two(self, tmp_path, capsys):
        code = main(["doi-verify", "--dims", "500", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("eid", ["doi-verify", "qc-verify"])
    def test_identity_sigma_beyond_double_precision_exit_two(self, tmp_path, capsys, eid):
        # at sigma 1e8 rounding in the phases alone fails every row of these suites
        prefix = str(tmp_path / "big")
        code = main([eid, "--sigma", "1e8", "--dims", "3", "--trials", "3", "--seed", "0",
                     "--out", prefix])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("opcalc: error: sigma must be at most 1e+06")
        assert "Traceback" not in err
        assert not os.path.exists(prefix + ".csv")

    def test_svg_emitted_for_plot_experiments(self, tmp_path):
        prefix = str(tmp_path / "sweep")
        code = main(["holder-sweep", "--seed", "3", "--dims", "3", "--trials", "2",
                     "--delta-grid", "0.5,0.25", "--out", prefix])
        assert code == 0
        assert os.path.exists(prefix + ".svg")

    def test_averaging_violation_exit_one(self, tmp_path, monkeypatch, capsys):
        # a certified averaging constant of 1 is below every sampled ratio
        monkeypatch.setattr(ideals, "averaging_bound", lambda spec: 1.0)
        prefix = str(tmp_path / "boyd")
        code = main(["ideals-boyd", "--p", "2", "--trials", "20", "--out", prefix])
        assert code == 1
        assert "1 violations" in capsys.readouterr().out
        with open(prefix + ".json", encoding="utf-8") as fh:
            doc = _strict_loads(fh.read())
        assert doc["meta"]["violations"] == 1
        assert doc["rows"][0][3] > doc["rows"][0][4] == 1.0


class TestAtomicRender:
    def test_failed_write_leaves_no_file(self, tmp_path):
        # a lone surrogate cannot be encoded, so the write fails after the open
        rep = ExperimentReport("doi-verify", 0, ["a", "\ud800"])
        path = tmp_path / "out.csv"
        with pytest.raises(UnicodeEncodeError):
            render(rep, "csv", str(path))
        assert os.listdir(tmp_path) == []

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(UnicodeEncodeError):
            render(ExperimentReport("doi-verify", 0, ["\ud800"]), "csv", str(path))
        assert os.listdir(tmp_path) == ["out.csv"]
        assert path.read_text(encoding="utf-8") == "old\n"

    def test_failed_replace_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            render(ExperimentReport("doi-verify", 0, ["a"]), "csv", str(tmp_path / "out.csv"))
        assert os.listdir(tmp_path) == []

    def test_write_replaces_the_old_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n", encoding="utf-8")
        render(ExperimentReport("doi-verify", 0, ["a"]), "csv", str(path))
        assert path.read_text(encoding="utf-8") == "a\n"
        assert os.listdir(tmp_path) == ["out.csv"]


class TestUsageErrors:
    """Bad input exits 2 with a one-line message, no traceback and no output."""

    @pytest.mark.parametrize("argv, config", [
        (["doi-verify"], {"seeds": 3}),
        (["doi-verify"], {"dims": "4"}),
        (["fuglede-ratio", "--p", "0"], None),
        (["schatten-decay", "--p", "0"], None),
        (["doi-verify", "--tol", "-1"], None),
        (["doi-verify", "--dims", "a"], None),
        (["schatten-decay", "--p", "inf"], None),
        (["schatten-decay"], {"p": [2.0, float("inf")]}),
    ])
    def test_exit_two(self, tmp_path, capsys, argv, config):
        prefix = str(tmp_path / "out")
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        assert main(argv + ["--trials", "2", "--out", prefix]) == 2
        err = capsys.readouterr().err
        assert err.startswith("opcalc: error: ") and "Traceback" not in err
        assert not os.path.exists(prefix + ".csv")

    @pytest.mark.parametrize("eid", ["ideals-boyd", "fuglede-ratio", "schatten-decay"])
    @pytest.mark.parametrize("p", ["1e-300", "0.0099", "0.0146", "15.5", "1e300"])
    def test_p_the_suites_cannot_evaluate(self, tmp_path, capsys, eid, p):
        prefix = str(tmp_path / "out")
        assert main([eid, "--p", p, "--trials", "2", "--out", prefix]) == 2
        err = capsys.readouterr().err
        assert err.startswith("opcalc: error: p must be") and "Traceback" not in err
        assert not os.path.exists(prefix + ".csv")

    @pytest.mark.parametrize("eid", ["ideals-boyd", "fuglede-ratio", "schatten-decay"])
    @pytest.mark.parametrize("p", ["0.01465", "15"])
    def test_p_range_ends_run(self, tmp_path, eid, p):
        prefix = str(tmp_path / "out")
        argv = [eid, "--p", p, "--dims", "2,64", "--trials", "200" if eid == "ideals-boyd" else "2"]
        assert main(argv + ["--out", prefix]) == 0
        with open(prefix + ".csv", encoding="utf-8") as fh:
            header, *lines = fh.read().splitlines()
        # avg_bound is NaN where no averaging constant is certified (p <= 1)
        keep = [i for i, name in enumerate(header.split(",")) if name != "avg_bound"]
        values = [float(line.split(",")[i]) for line in lines for i in keep]
        assert values and all(math.isfinite(v) for v in values)

    def test_empty_sweep_skips_svg(self, tmp_path, capsys):
        prefix = str(tmp_path / "sweep")
        assert main(["holder-sweep", "--trials", "0", "--out", prefix]) == 0
        assert os.path.exists(prefix + ".csv") and os.path.exists(prefix + ".json")
        assert not os.path.exists(prefix + ".svg")
        assert "not written" in capsys.readouterr().err


class TestEveryExperiment:
    @pytest.mark.parametrize("eid", EXPERIMENTS)
    def test_main_writes_consistent_strict_outputs(self, tmp_path, eid):
        prefix = str(tmp_path / eid)
        argv = [eid, "--seed", "2", "--dims", "2,3", "--trials", "3",
                "--delta-grid", "0.5,0.125", "--out", prefix]
        if eid in ("fuglede-ratio", "ideals-boyd"):
            argv += ["--p", "1,2,inf" if eid == "fuglede-ratio" else "1,2"]
        assert main(argv) == 0
        with open(prefix + ".csv", encoding="utf-8") as fh:
            header, *lines = fh.read().splitlines()
        with open(prefix + ".json", encoding="utf-8") as fh:
            doc = _strict_loads(fh.read())
        assert header.split(",") == doc["meta"]["columns"]
        assert len(lines) == len(doc["rows"]) > 0
