"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from opcalc import bandlimited
from opcalc.bandlimited import (
    ModulusOfContinuity,
    TrigSlice,
    omega_star,
    random_trig_polynomial,
)
from opcalc.cli import RunConfig, report_to_csv, run
from opcalc.doi import (
    difference_via_doi,
    divided_difference_kernel,
    quasicommutator_via_doi,
    schur_norm_bracket,
)
from opcalc.ideals import (
    IdealSpec,
    averaging_constant_check,
    boyd_index_estimate,
    dilate_spectrum,
    kyfan_holder_check,
    schatten_sum,
    singular_values,
)
from opcalc.perturbation import (
    experiment_fuglede_ratio,
    experiment_holder_sweep,
    experiment_lipschitz,
    experiment_schatten_decay,
)
from opcalc.sinc import (
    expansion_tail_bound,
    haagerup_factorization,
    row_energy,
    sinc_basis,
)
from opcalc.spectral import functional_calculus, random_normal


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_pair(dim, rng):
    return random_normal(dim, rng=rng, seed=None), random_normal(dim, rng=rng, seed=None)


def test_criterion_1_difference_identity():
    t0 = time.time()
    worst = 0.0
    for trial in range(200):
        rng = np.random.default_rng((1001, trial))
        f = random_trig_polynomial(8.0, 12, seed=None, rng=rng)
        dim = 2 + trial % 7
        d1, d2 = _random_pair(dim, rng)
        f1 = functional_calculus(f, d1)
        f2 = functional_calculus(f, d2)
        rhs = difference_via_doi(f, d1, d2)
        scale = 1.0 + np.linalg.norm(f1) + np.linalg.norm(f2)
        worst = max(worst, float(np.linalg.norm(f1 - f2 - rhs)) / scale)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(1, ok, f"difference identity: max residual {worst:.2e} (tol 1e-9), "
                   f"200 trials in {elapsed:.1f}s (target < 30s)")


def test_criterion_2_quasicommutator_identity():
    worst = 0.0
    for trial in range(200):
        rng = np.random.default_rng((1002, trial))
        f = random_trig_polynomial(8.0, 12, seed=None, rng=rng)
        dim = 2 + trial % 7
        d1, d2 = _random_pair(dim, rng)
        r = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        f1 = functional_calculus(f, d1)
        f2 = functional_calculus(f, d2)
        rhs = quasicommutator_via_doi(f, d1, d2, r)
        scale = 1.0 + np.linalg.norm(f1) + np.linalg.norm(f2)
        worst = max(worst, float(np.linalg.norm(f1 @ r - r @ f2 - rhs)) / scale)
    _report(2, worst <= 1e-9,
            f"quasicommutator identity: max residual {worst:.2e} (tol 1e-9)")


def test_criterion_3_sinc_identities():
    ns = np.arange(-1000, 1001)
    mass_defect = 0.0
    cap_excess = 0.0
    for trial in range(50):
        rng = np.random.default_rng((1003, trial))
        sigma = float(rng.uniform(0.5, 4.0))
        y = float(rng.uniform(-6.0, 6.0))
        mass_defect = max(mass_defect, abs(float(np.sum(sinc_basis(sigma, ns, y) ** 2)) - 1.0))
        coeffs = {
            int(m): complex(rng.standard_normal(), rng.standard_normal())
            for m in rng.choice(np.arange(-3, 4), size=4, replace=False)
        }
        fslice = TrigSlice(sigma / 3.0, coeffs)
        x = float(rng.uniform(-3.0, 3.0))
        cap = 3.0 * fslice.sup_bracket()[1] ** 2
        cap_excess = max(cap_excess, row_energy(fslice, sigma, x, 2000) / cap)
    exp_case = row_energy(TrigSlice(1.0, {1: 1.0}), 1.0, 0.37, 2000)
    core, _ = quad(lambda u: 1.0 if abs(u) <= 2.0 else 4.0 / (u * u), -2.0, 2.0, epsabs=1e-10)
    wing, _ = quad(lambda u: 4.0 / (u * u), 2.0, 500.0, epsabs=1e-10)
    envelope = (core + 2.0 * (wing + 4.0 / 500.0)) / math.pi
    ok = (
        mass_defect <= 1e-3
        and cap_excess <= 1.0 + 1e-6
        and abs(exp_case - 2.0) <= 1e-3
        and abs(envelope - 8.0 / math.pi) <= 1e-6
    )
    _report(3, ok, f"sinc identities: basis-mass defect {mass_defect:.1e} (tol 1e-3), "
                   f"row-energy cap ratio {cap_excess:.6f} (tol 1+1e-6), "
                   f"|exp case - 2| {abs(exp_case - 2.0):.1e} (tol 1e-3), "
                   f"envelope vs 8/pi {abs(envelope - 8.0 / math.pi):.1e} (tol 1e-6)")


def test_criterion_4_haagerup_bound():
    worst_ratio = 0.0
    sandwich_ok = True
    for trial in range(20):
        rng = np.random.default_rng((1004, trial))
        f = random_trig_polynomial(float(rng.uniform(0.5, 4.0)), 10, seed=None, rng=rng)
        lam = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        mu = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        axis = "x" if trial % 2 == 0 else "y"
        a, b, upper = haagerup_factorization(f, axis, lam, mu, 2000)
        sup_upper = bandlimited.grid_bracket(f, f.support_radius, 2048)[1]
        worst_ratio = max(
            worst_ratio, upper / (math.sqrt(3.0) * f.support_radius * sup_upper)
        )
        kern = divided_difference_kernel(f, axis, lam, mu)
        coord = 2.0 * f.support_radius
        tail = expansion_tail_bound(sup_upper, f.support_radius, coord, coord, 2000)
        lower, up = schur_norm_bracket(kern, (a, b), trials=10, seed=trial,
                                       factorization_tol=tail)
        sandwich_ok = sandwich_ok and lower <= up + 1e-8
    ok = worst_ratio <= 1.01 and sandwich_ok
    _report(4, ok, f"factorization bound: max upper / (sqrt(3) sigma ||f||) = "
                   f"{worst_ratio:.4f} (tol 1.01), bracket sandwich "
                   f"{'held' if sandwich_ok else 'violated'} in all 20 cases")


def test_criterion_5_certified_lipschitz():
    f = random_trig_polynomial(4.0, 12, seed=1005)
    rep = experiment_lipschitz(f, [2, 3, 4, 5, 6, 7, 8], 500, seed=1005)
    qi = rep.columns.index("quotient_op")
    si = rep.columns.index("quotient_s1")
    ci = rep.columns.index("certified")
    margin_op = max(r[qi] / r[ci] for r in rep.rows)
    margin_s1 = max(r[si] / r[ci] for r in rep.rows)
    ok = rep.violations == 0 and margin_op <= 1.0 and margin_s1 <= 1.0
    _report(5, ok, f"certified Lipschitz over {len(rep.rows)} trials: max quotient/L = "
                   f"{margin_op:.4f} (operator), {margin_s1:.4f} (trace class)")


def test_criterion_6_modulus_sweeps():
    f = random_trig_polynomial(2.0, 12, seed=1006, decay=1.0)
    grid = [2.0**-k for k in range(11)]
    rep = experiment_holder_sweep(f, 0.5, [3, 5], grid, 8, seed=1006)
    mi = rep.columns.index("measured_max_norm")
    ci = rep.columns.index("certified_bound")
    li = rep.columns.index("log_envelope")
    domination = all(r[mi] <= r[ci] * (1 + 1e-9) for r in rep.rows)
    diam = math.hypot(2.0, 2.0)
    log_ok = all(math.isfinite(r[li]) and r[li] >= min(r[0], diam) - 1e-12 for r in rep.rows)
    quad_err = 0.0
    for alpha in (0.3, 0.5, 0.8):
        closed = ModulusOfContinuity.power(alpha)
        custom = ModulusOfContinuity.custom(lambda t, a=alpha: np.power(t, a))
        for x in (0.05, 0.4, 2.0):
            want = omega_star(closed, x)
            quad_err = max(quad_err, abs(omega_star(custom, x) - want))
    for d in (1.0, 3.0):
        closed = ModulusOfContinuity.capped_linear(d)
        custom = ModulusOfContinuity.custom(lambda t, dd=d: np.minimum(t, dd))
        for x in (0.1, 0.9 * d):
            want = omega_star(closed, x)
            quad_err = max(quad_err, abs(omega_star(custom, x) - want))
    ok = rep.violations == 0 and domination and log_ok and quad_err <= 1e-8
    _report(6, ok, f"modulus sweeps: certified dominates measured in all {len(rep.rows)} "
                   f"rows; omega-star quadrature vs closed forms {quad_err:.1e} (tol 1e-8); "
                   f"log envelope finite and dominating: {log_ok}")


def test_criterion_7_ideals():
    rng = np.random.default_rng(1007)
    s = np.sort(rng.uniform(0, 1, 40))[::-1]
    exact = np.array_equal(dilate_spectrum(s, 3), np.repeat(s, 3))
    ratio_err = 0.0
    for p in (1.0, 4.0 / 3.0, 2.0, 4.0):
        spec = IdealSpec.schatten(p)
        got = spec.psi(dilate_spectrum(s, 5))
        ratio_err = max(ratio_err, abs(got - 5.0 ** (1.0 / p) * spec.psi(s))
                        / (5.0 ** (1.0 / p) * spec.psi(s)))
    boyd_err = 0.0
    for p in (1.0, 4.0 / 3.0, 2.0, 4.0):
        est, _ = boyd_index_estimate(IdealSpec.schatten(p), 64)
        boyd_err = max(boyd_err, abs(est - 1.0 / p))
    avg_ok = True
    avg_detail = []
    for p in (4.0 / 3.0, 2.0, 4.0):
        emp, bound = averaging_constant_check(IdealSpec.schatten(p), trials=10000, seed=1007)
        avg_ok = avg_ok and emp <= bound
        avg_detail.append(f"p={p:.3g}: {emp:.3f}<={bound:.3f}")
    kyfan_worst = 0.0
    for trial in range(100):
        trng = np.random.default_rng((1007, trial))
        t1 = trng.standard_normal((5, 5)) + 1j * trng.standard_normal((5, 5))
        t2 = trng.standard_normal((5, 5)) + 1j * trng.standard_normal((5, 5))
        resid = kyfan_holder_check(t1, t2, 2.0, 2.0, 1.0, 3)
        scale = schatten_sum(singular_values(t1), 2.0) * schatten_sum(singular_values(t2), 2.0)
        kyfan_worst = max(kyfan_worst, resid / scale)
    ok = exact and ratio_err <= 1e-12 and boyd_err <= 1e-6 and avg_ok and kyfan_worst <= 1e-10
    _report(7, ok, f"ideals: dilation exact={exact}, Sp ratio err {ratio_err:.1e} "
                   f"(tol 1e-12), Boyd err {boyd_err:.1e} (tol 1e-6), averaging "
                   f"[{'; '.join(avg_detail)}], Ky-Fan residual {kyfan_worst:.1e} (tol 1e-10)")


def test_criterion_8_fuglede_ratio():
    rep2 = experiment_fuglede_ratio([2, 4, 6], [2.0], 100, seed=1008)
    ri = rep2.columns.index("ratio")
    p2_err = max(abs(r[ri] - 1.0) for r in rep2.rows)
    search = experiment_fuglede_ratio([2, 3, 4], [1.0, math.inf], 100, seed=17)
    m1 = search.meta["max_ratio"]["1.0"]
    minf = search.meta["max_ratio"]["inf"]
    ok = p2_err <= 1e-10 and m1 > 1.001 and minf > 1.001
    _report(8, ok, f"adjoint quasicommutator ratios: p=2 error {p2_err:.1e} (tol 1e-10); "
                   f"seeded search found p=1 ratio {m1:.3f}, p=inf ratio {minf:.3f} (> 1.001)")


def test_criterion_9_schatten_decay():
    f = random_trig_polynomial(2.0, 10, seed=21, decay=1.0)
    # row-wise arithmetic identity, checked against an actual matrix power
    ident_err = 0.0
    for trial in range(5):
        rng = np.random.default_rng((1009, trial))
        d1, d2 = _random_pair(5, rng)
        diff = functional_calculus(f, d1) - functional_calculus(f, d2)
        s = np.linalg.svd(diff, compute_uv=False)
        h = diff.conj().T @ diff
        evals, vecs = np.linalg.eigh(h)
        evals = np.clip(evals, 0.0, None)
        power = (vecs * evals ** (1.0 / (2 * 0.5))) @ vecs.conj().T
        s_pow = np.sort(np.linalg.svd(power, compute_uv=False))[::-1]
        ident_err = max(ident_err, float(np.abs(s_pow - np.sort(s**2.0)[::-1]).max())
                        / max(s_pow[0], 1e-300))
    keys = ("c_decay", "c_majorization", "c_head_sum")
    agg4 = {k: 0.0 for k in keys}
    agg8 = {k: 0.0 for k in keys}
    for seed in range(50):
        m4 = experiment_schatten_decay(f, 0.5, 2.0, [4], 4, seed=seed).meta
        m8 = experiment_schatten_decay(f, 0.5, 2.0, [8], 4, seed=seed).meta
        for k in keys:
            agg4[k] = max(agg4[k], m4[k])
            agg8[k] = max(agg8[k], m8[k])
    ratios = {k: float(agg8[k] / agg4[k]) for k in keys}
    stable = all(0.5 <= r <= 2.0 for r in ratios.values())
    ok = ident_err <= 1e-10 and stable
    _report(9, ok, f"decay rows: |s_j(|D|^2) - s_j(D)^2| rel err {ident_err:.1e} "
                   f"(tol 1e-10); dim-doubling c-hat ratios "
                   f"{ {k: round(v, 3) for k, v in ratios.items()} } within [0.5, 2]")


def test_criterion_10_determinism():
    configs = [
        RunConfig("doi-verify", seed=4, dims=[3, 5], trials=6),
        RunConfig("sinc-check", seed=4, trials=5),
        RunConfig("lip-bound", seed=4, dims=[2, 4], trials=8),
        RunConfig("holder-sweep", seed=4, dims=[3], trials=3, delta_grid=[0.5, 0.125]),
        RunConfig("schatten-decay", seed=4, dims=[4], trials=4),
        RunConfig("ideals-boyd", seed=4, trials=200, p=[4.0 / 3.0, 2.0]),
        RunConfig("qc-verify", seed=4, dims=[3, 4], trials=6),
        RunConfig("fuglede-ratio", seed=4, dims=[2, 3], trials=10, p=[1.0, 2.0]),
    ]
    mismatched = [c.experiment for c in configs
                  if report_to_csv(run(c)) != report_to_csv(run(c))]
    _report(10, not mismatched,
            f"byte-identical CSV re-runs for all {len(configs)} suites"
            + (f"; mismatches: {mismatched}" if mismatched else ""))
