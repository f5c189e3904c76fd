import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from opcalc import bandlimited, ideals, perturbation
from opcalc.bandlimited import TrigPolynomial, band_uppers, lp_pieces, random_trig_polynomial
from opcalc.cli import RunConfig, report_to_csv, report_to_json
from opcalc.doi import difference_via_doi, quasicommutator_via_doi
from opcalc.perturbation import (
    ConvexBody,
    ExperimentReport,
    certified_lipschitz_constant,
    certified_modulus_bound,
    experiment_doi_identity,
    experiment_fuglede_ratio,
    experiment_holder_sweep,
    experiment_ideals_boyd,
    experiment_lipschitz,
    experiment_quasicommutator,
    experiment_schatten_decay,
    extend_by_projection,
    SUITES,
    project_convex,
    trial_draws,
)
from opcalc.spectral import SpectralDecomposition, functional_calculus, random_normal

SQUARE = ConvexBody.polygon([0.0, 1.0, 1.0 + 1.0j, 1.0j])
DISC = ConvexBody.disc(0.0, 1.0)


class TestConvexBody:
    def test_diameters(self):
        assert abs(SQUARE.diameter - math.sqrt(2.0)) <= 1e-15
        assert DISC.diameter == 2.0

    def test_non_convex_rejected(self):
        with pytest.raises(ValueError):
            ConvexBody.polygon([0.0, 1.0, 0.2 + 0.2j, 1.0j])

    def test_interior_point_fixed(self):
        z = 0.5 + 0.5j
        assert project_convex(z, SQUARE) == z
        assert project_convex(0.3 - 0.2j, DISC) == 0.3 - 0.2j

    def test_disc_radial_projection(self):
        assert abs(project_convex(2.0 + 0.0j, DISC) - 1.0) <= 1e-15

    def test_square_corner(self):
        assert abs(project_convex(2.0 + 2.0j, SQUARE) - (1.0 + 1.0j)) <= 1e-15

    def test_idempotent_and_contractive(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-3, 3, (500, 2))
        zs = pts[:, 0] + 1j * pts[:, 1]
        for body in (SQUARE, DISC):
            proj = np.array([project_convex(z, body) for z in zs])
            again = np.array([project_convex(p, body) for p in proj])
            assert np.abs(proj - again).max() <= 1e-12
            d_in = np.abs(zs[:, None] - zs[None, :])
            d_out = np.abs(proj[:, None] - proj[None, :])
            assert (d_out <= d_in + 1e-12).all()

    def test_extension_preserves_lipschitz_quotient(self):
        f = random_trig_polynomial(2.0, 8, seed=4)
        ext = extend_by_projection(f, SQUARE)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-2, 3, (400, 2))
        zs = pts[:, 0] + 1j * pts[:, 1]
        inside = rng.uniform(0, 1, (400, 2))
        ws = inside[:, 0] + 1j * inside[:, 1]
        quot_in = 0.0
        for i in range(0, 400, 2):
            a, b = ws[i], ws[i + 1]
            if abs(a - b) > 1e-9:
                quot_in = max(quot_in, abs(f(a) - f(b)) / abs(a - b))
        quot_ext = 0.0
        for i in range(0, 400, 2):
            a, b = zs[i], zs[i + 1]
            if abs(a - b) > 1e-9:
                quot_ext = max(quot_ext, abs(ext(a) - ext(b)) / abs(a - b))
        # the sampled extension quotient is bounded by the true interior
        # quotient; compare against a denser interior sample for slack
        dense = rng.uniform(0, 1, (4000, 2))
        ds = dense[:, 0] + 1j * dense[:, 1]
        for i in range(0, 4000, 2):
            a, b = ds[i], ds[i + 1]
            if abs(a - b) > 1e-9:
                quot_in = max(quot_in, abs(f(a) - f(b)) / abs(a - b))
        assert quot_ext <= quot_in * (1 + 1e-9) + 1e-9

    @pytest.mark.parametrize("body", [SQUARE, DISC], ids=["square", "disc"])
    def test_array_input_matches_pointwise(self, body):
        rng = np.random.default_rng(2)
        zs = rng.uniform(-3, 3, 300) + 1j * rng.uniform(-3, 3, 300)
        pointwise = np.array([project_convex(z, body) for z in zs])
        assert np.array_equal(project_convex(zs, body), pointwise)
        assert project_convex(zs.reshape(20, 15), body).shape == (20, 15)

    @pytest.mark.parametrize("body", [SQUARE, DISC], ids=["square", "disc"])
    def test_extension_through_functional_calculus(self, body):
        # spectrum in [-2, 2]^2, so part of it lies outside either body
        f = random_trig_polynomial(2.0, 8, seed=4)
        ext = extend_by_projection(f, body)
        dec = random_normal(12, (-2, 2, -2, 2), seed=5)
        fvals = np.array([complex(ext(z)) for z in dec.eigenvalues])
        want = (dec.unitary * fvals) @ dec.unitary.conj().T
        got = functional_calculus(ext, dec)
        assert np.abs(got - want).max() <= 1e-13 * (1.0 + np.abs(fvals).max())

    def test_extension_of_identity_on_disc(self):
        ext = extend_by_projection(lambda z: z, DISC)
        assert ext(3.0 + 0j) == 1.0
        assert ext(0.2 + 0.1j) == 0.2 + 0.1j


class TestCertifiedConstants:
    def test_constant_function(self):
        assert certified_lipschitz_constant(TrigPolynomial.constant(9.0)) == 0.0
        assert certified_modulus_bound(TrigPolynomial.constant(9.0), 0.5) == 0.0

    def test_homogeneity(self):
        f = random_trig_polynomial(2.0, 8, seed=5)
        a = certified_lipschitz_constant(3.5 * f)
        b = 3.5 * certified_lipschitz_constant(f)
        assert abs(a - b) <= 1e-12 * b

    def test_modulus_bound_saturates_at_tail_split(self):
        f = random_trig_polynomial(2.0, 8, seed=6)
        from opcalc.bandlimited import lp_pieces, sup_norm

        tail_only = 2.0 * sum(sup_norm(p)[1] for p in lp_pieces(f).values())
        assert certified_modulus_bound(f, 1e9) <= tail_only * (1 + 1e-12)
        # small delta: the Lipschitz branch wins and scales linearly
        small = certified_modulus_bound(f, 1e-9)
        lip = certified_lipschitz_constant(f)
        assert abs(small - 1e-9 * lip) <= 1e-12 * small

    def test_monotone_in_delta(self):
        f = random_trig_polynomial(3.0, 10, seed=7)
        deltas = np.geomspace(1e-4, 10, 12)
        bounds = [certified_modulus_bound(f, d) for d in deltas]
        assert all(b1 <= b2 * (1 + 1e-12) for b1, b2 in zip(bounds, bounds[1:]))

    def test_assembly_is_rounded_up(self):
        # the same formulas from the same band uppers at 50 digits
        for seed in range(40):
            f = random_trig_polynomial(8.0, 12, seed=seed)
            uppers = band_uppers(f)
            ns = list(uppers)
            with mpmath.workdps(50):
                two_sqrt3 = 2 * mpmath.sqrt(3)
                lip = two_sqrt3 * mpmath.fsum(mpmath.mpf(2) ** (n + 1) * uppers[n] for n in ns)
                modulus = min(
                    mpmath.mpf(0.01) * two_sqrt3
                    * mpmath.fsum(mpmath.mpf(2) ** (n + 1) * uppers[n] for n in ns[:split])
                    + 2 * mpmath.fsum(uppers[n] for n in ns[split:])
                    for split in range(len(ns) + 1)
                )
                assert certified_lipschitz_constant(f) >= lip, seed
                assert perturbation._modulus_bound_from_uppers(uppers, 0.01) >= modulus, seed

    @pytest.mark.parametrize("seed", range(30))
    def test_lipschitz_domination_sweep(self, seed):
        f = random_trig_polynomial(2.0, 8, seed=30)
        lip = certified_lipschitz_constant(f)
        rng = np.random.default_rng(seed)
        d1, d2 = _factored(perturbation._coupled_draw(4, 0.1, rng))
        diff = functional_calculus(f, d1) - functional_calculus(f, d2)
        assert np.linalg.norm(diff, 2) <= lip * 0.1 * (1 + 1e-9)


class TestCoupledPair:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("delta", [0.5, 0.125, 2.0**-5, 1e-6])
    def test_difference_is_delta_up_to_rounding(self, seed, delta):
        rng = np.random.default_rng((seed, 7))
        d1, d2 = _factored(perturbation._coupled_draw(3 + seed, delta, rng))
        shift = np.abs(d2.eigenvalues - d1.eigenvalues).max()
        eps = np.finfo(float).eps
        assert abs(shift - delta) <= 4.0 * eps * (1.0 + np.abs(d1.eigenvalues).max())
        n1 = np.linalg.norm(d1.matrix, 2)
        got = np.linalg.norm(d1.matrix - d2.matrix, 2)
        assert abs(got - delta) <= 64.0 * eps * (1.0 + n1)


class TestTrialDraws:
    def test_substreams_and_dim_cycle(self):
        draws = list(trial_draws(7, 5, [2, 3], (4,)))
        assert [(t, d) for t, d, _ in draws] == [(0, 2), (1, 3), (2, 2), (3, 3), (4, 2)]
        for t, _, rng in draws:
            assert rng.random() == np.random.default_rng((7, 4, t)).random()

    def test_without_dims_or_key(self):
        draws = list(trial_draws(3, 2))
        assert [d for _, d, _ in draws] == [None, None]
        assert draws[1][2].random() == np.random.default_rng((3, 1)).random()


BLOCK = perturbation._TRIAL_BLOCK


def _factored_alone(g):
    """A Gaussian matrix's phase-fixed Q from its own QR call."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _factored(pair):
    """A drawn pair's two decompositions, each unitary factored alone.

    N1 takes the Q of the first Gaussian, N2 that of the last (one when the
    pair shares its eigenbasis).
    """
    unitaries = [_factored_alone(g) for g in pair.gaussians]
    return (SpectralDecomposition(unitaries[0], pair.lam1),
            SpectralDecomposition(unitaries[-1], pair.lam2))


def _per_trial(seed, trials, dims, draw, key=()):
    """Reference driver: every trial drawn and factored alone, in trial order."""
    for trial, dim, rng in trial_draws(seed, trials, dims, key):
        pair, *extra = draw(trial, dim, rng)
        yield (trial, dim, *_factored(pair), *extra)


def _note(meta, key, name, trial, ratio):
    if meta[key] is None or ratio > meta[key][name]:
        meta[key] = {"trial": trial, name: ratio}


def _lip_per_trial(cfg):
    """The lip-bound suite scored trial by trial, each trial's matrices formed alone."""
    f = perturbation._suite_f(cfg)
    lip = certified_lipschitz_constant(f)
    rep = ExperimentReport("lip-bound", cfg.seed,
                           ["trial", "dim", "delta_op", "quotient_op", "quotient_s1", "certified"],
                           meta={"lipschitz_constant": lip, "violations": 0, "worst_margin": None})

    def draw(trial, dim, rng):
        if trial % 2 == 0:
            return (perturbation._independent_draw(dim, rng),)
        return (perturbation._coupled_draw(dim, float(2.0 ** -(trial % 11)), rng),)

    for trial, dim, d1, d2 in _per_trial(cfg.seed, cfg.trials, cfg.dims, draw):
        dn = d1.matrix - d2.matrix
        diff = functional_calculus(f, d1) - functional_calculus(f, d2)
        s_dn, s_diff = ideals.singular_values(dn), ideals.singular_values(diff)
        delta_op, delta_s1 = float(s_dn[0]), ideals.schatten_sum(s_dn, 1.0)
        if delta_op < 1e-14:
            continue
        num_op, num_s1 = float(s_diff[0]), ideals.schatten_sum(s_diff, 1.0)
        q_op, q_s1 = num_op / delta_op, num_s1 / delta_s1
        if max(q_op, q_s1) > lip * (1.0 + 1e-9):
            slack_a = perturbation._slack(diff, f, d1, d2)
            slack_b = perturbation._slack(dn, None, d1, d2)
            if any(a - slack_a > lip * (1.0 + 1e-9) * (b + slack_b)
                   for a, b in ((num_op, delta_op), (num_s1, delta_s1))):
                rep.meta["violations"] += 1
        rep.add(trial, dim, delta_op, q_op, q_s1, lip)
        _note(rep.meta, "worst_margin", "measured_over_certified", trial,
              perturbation._ratio(max(q_op, q_s1), lip))
    return rep


def _qc_per_trial(cfg):
    """The qc-verify suite scored trial by trial, each trial's matrices formed alone."""
    f = perturbation._suite_f(cfg)
    lip = certified_lipschitz_constant(f)
    rep = ExperimentReport("qc-verify", cfg.seed,
                           ["trial", "dim", "measured", "residual", "max_quasicomm", "certified"],
                           meta={"lipschitz_constant": lip, "violations": 0,
                                 "worst_margin": None, "worst_residual": None})
    for trial, dim, d1, d2, r in _per_trial(cfg.seed, cfg.trials, cfg.dims,
                                            perturbation._draw_with_factor):
        lhs = functional_calculus(f, d1) @ r - r @ functional_calculus(f, d2)
        rhs = quasicommutator_via_doi(f, d1, d2, r)
        scale = 1.0 + float(np.linalg.norm(lhs))
        residual = float(np.linalg.norm(lhs - rhs))
        n1, n2 = d1.matrix, d2.matrix
        quasi = (n1 @ r - r @ n2, n1.conj().T @ r - r @ n2.conj().T)
        qc = max(float(np.linalg.norm(x, 2)) for x in quasi)
        measured = float(np.linalg.norm(lhs, 2))
        certified = lip * qc
        violated = residual > 1e-9 * scale
        if measured > certified * (1.0 + 1e-9):
            r_fro = float(np.linalg.norm(r))
            slack = max(perturbation._slack(x, None, d1, d2, r_fro) for x in quasi)
            room = lip * (1.0 + 1e-9) * (qc + slack)
            violated |= measured - perturbation._slack(lhs, f, d1, d2, r_fro) > room
        rep.meta["violations"] += int(violated)
        rep.add(trial, dim, measured, residual, qc, certified)
        _note(rep.meta, "worst_margin", "measured_over_certified", trial,
              perturbation._ratio(measured, certified))
        _note(rep.meta, "worst_residual", "residual_over_scale", trial, residual / scale)
    return rep


def _doi_per_trial(cfg):
    """The doi-verify suite scored trial by trial, each trial's matrices formed alone."""
    rep = ExperimentReport("doi-verify", cfg.seed, ["trial", "dim", "residual", "scale"],
                           meta={"sigma": cfg.sigma, "tol": cfg.tol, "violations": 0,
                                 "worst_residual": None})

    def draw(trial, dim, rng):
        f = random_trig_polynomial(cfg.sigma, 12, seed=None, rng=rng)
        return perturbation._independent_draw(dim, rng), f

    for trial, dim, d1, d2, f in _per_trial(cfg.seed, cfg.trials, cfg.dims, draw):
        f1, f2 = functional_calculus(f, d1), functional_calculus(f, d2)
        rhs = difference_via_doi(f, d1, d2)
        scale = 1.0 + float(np.linalg.norm(f1)) + float(np.linalg.norm(f2))
        residual = float(np.linalg.norm(f1 - f2 - rhs))
        if residual > cfg.tol * scale:
            rep.meta["violations"] += 1
        rep.add(trial, dim, residual, scale)
        _note(rep.meta, "worst_residual", "residual_over_scale", trial, residual / scale)
    return rep


def _fuglede_per_p(dims, p_list, trials, seed):
    """The fuglede-ratio suite drawing and decomposing every trial once per p."""
    rep = ExperimentReport("fuglede-ratio", seed, ["p", "trial", "ratio"],
                           meta={"violations": 0, "skipped": 0, "max_ratio": {}})
    for p in p_list:
        worst = 0.0
        for trial, dim, rng in trial_draws(seed, trials, dims):
            d1, d2 = _factored(perturbation._independent_draw(dim, rng))
            r = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            x = d1.matrix @ r - r @ d2.matrix
            y = d1.matrix.conj().T @ r - r @ d2.matrix.conj().T
            denom = ideals.schatten_sum(ideals.singular_values(x), p)
            if denom < 1e-14:
                rep.meta["skipped"] += 1
                continue
            ratio = ideals.schatten_sum(ideals.singular_values(y), p) / denom
            if p == 2.0 and abs(ratio - 1.0) > 1e-10:
                rep.meta["violations"] += 1
            worst = max(worst, ratio)
            rep.add(p, trial, ratio)
        rep.meta["max_ratio"][str(p)] = worst
    return rep


def _holder_per_trial(cfg):
    """The holder-sweep suite delta by delta, each trial's matrices formed and scored alone."""
    f = perturbation._suite_f(cfg, decay=1.0)
    alpha, delta_grid, trials, seed = cfg.alpha, cfg.delta_grid, cfg.trials, cfg.seed
    om_pow = bandlimited.ModulusOfContinuity.power(alpha)
    diam = math.hypot(2.0, 2.0)
    om_cap = bandlimited.ModulusOfContinuity.capped_linear(diam)
    rep = ExperimentReport("holder-sweep", seed,
                           ["delta", "measured_max_norm", "delta_alpha", "omega_star",
                            "certified_bound", "log_envelope"],
                           meta={"alpha": alpha, "violations": 0, "worst_margin": None,
                                 "plot": {"x": "delta", "y": "measured_max_norm",
                                          "slope": alpha}})
    uppers = band_uppers(f)
    for grid_idx, delta in enumerate(delta_grid):
        certified = perturbation._modulus_bound_from_uppers(uppers, delta)
        measured = 0.0
        violated = False
        def draw(trial, dim, rng):
            return (perturbation._coupled_draw(dim, delta, rng),)

        for trial, dim, d1, d2 in _per_trial(seed, trials, cfg.dims, draw, (grid_idx,)):
            diff = functional_calculus(f, d1) - functional_calculus(f, d2)
            norm = float(np.linalg.norm(diff, 2))
            measured = max(measured, norm)
            if norm > certified * (1.0 + 1e-9) and not violated:
                shift = float(np.abs(d2.eigenvalues - d1.eigenvalues).max()) / delta
                stretch = max(1.0, shift * (1.0 + 4.0 * bandlimited._UNIT_ROUNDOFF))
                slack = perturbation._slack(diff, f, d1, d2)
                violated = norm - slack > certified * stretch * (1.0 + 1e-9)
            ratio = perturbation._ratio(norm, certified)
            worst = rep.meta["worst_margin"]
            if worst is None or ratio > worst["measured_over_certified"]:
                rep.meta["worst_margin"] = {"delta": delta, "trial": trial,
                                            "measured_over_certified": ratio}
        rep.meta["violations"] += int(violated)
        rep.add(
            delta, measured, delta**alpha, bandlimited.omega_star(om_pow, delta),
            certified, bandlimited.omega_star(om_cap, min(delta, diam)),
        )
    return rep


def _schatten_per_trial(cfg):
    """The schatten-decay suite scored trial by trial, each trial's spectra taken alone."""
    f = perturbation._suite_f(cfg, decay=1.0)
    alpha, p, seed = cfg.alpha, cfg.p[0], cfg.seed
    sem = bandlimited.seminorm_estimate(f, bandlimited.ModulusOfContinuity.power(alpha), 20000,
                                        seed)
    rep = ExperimentReport("schatten-decay", seed,
                           ["trial", "dim", "j", "s_j", "envelope", "sigma_j", "s_j_invalpha"],
                           meta={"alpha": alpha, "p": p, "seminorm_lower": sem, "violations": 0})
    c_decay = 0.0
    c_major = 0.0
    c_head = 0.0
    def draw(trial, dim, rng):
        kind = trial % 3
        if kind == 0:
            return (perturbation._coupled_draw(dim, float(2.0 ** -(trial % 7)), rng, rank=1),)
        if kind == 1:
            return (perturbation._coupled_draw(dim, float(2.0 ** -(trial % 7)), rng),)
        return (perturbation._independent_draw(dim, rng),)

    for trial, dim, d1, d2 in _per_trial(seed, cfg.trials, cfg.dims, draw):
        dn = d1.matrix - d2.matrix
        diff = functional_calculus(f, d1) - functional_calculus(f, d2)
        s_diff = ideals.singular_values(diff)
        s_dn = ideals.singular_values(dn)
        sig = ideals.sigma_averages(s_dn)
        heads = np.cumsum(s_dn**p)
        with np.errstate(over="ignore"):  # above the double range for small alpha: inf is right
            s_pows = [v ** (1.0 / alpha) for v in s_diff]
        pow_head = 0.0
        pow_diff = 0.0
        for j in range(dim):
            env = (1.0 + j) ** (-alpha / p) * heads[j] ** (alpha / p)
            rep.add(trial, dim, j, s_diff[j], env, sig[j], s_pows[j])
            if env > 0.0:
                c_decay = max(c_decay, s_diff[j] / (sem * env))
            # normalized by sem before the powers, which small alpha makes huge
            if sig[j] > 0.0:
                c_major = max(c_major, (s_diff[j] / sem) ** (1.0 / alpha) / sig[j])
            pow_head += (s_diff[j] / sem) ** (p / alpha)
            pow_diff += s_dn[j] ** p
            if pow_diff > 0.0:
                c_head = max(c_head, pow_head / pow_diff)
    rep.meta["c_decay"] = c_decay
    rep.meta["c_majorization"] = c_major
    rep.meta["c_head_sum"] = c_head
    return rep


PER_TRIAL = {
    "lip-bound": _lip_per_trial,
    "holder-sweep": _holder_per_trial,
    "schatten-decay": _schatten_per_trial,
    "qc-verify": _qc_per_trial,
    "doi-verify": _doi_per_trial,
    "fuglede-ratio": lambda c: _fuglede_per_p(c.dims, c.p, c.trials, c.seed),
}


def _config(eid, trials, dims=(2, 3, 5)):
    cfg = RunConfig(eid, seed=5, dims=list(dims), trials=trials, sigma=4.0,
                    delta_grid=[0.5, 0.125],
                    p=[1.0, 2.0, math.inf] if eid == "fuglede-ratio" else [2.0])
    cfg.validate()
    return cfg


def _outputs(rep):
    return report_to_csv(rep), report_to_json(rep)


PAIR_SUITES = ["doi-verify", "lip-bound", "holder-sweep", "schatten-decay", "qc-verify",
               "fuglede-ratio"]


class TestPairTrials:
    @pytest.mark.parametrize("trials", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    @pytest.mark.parametrize("eid", PAIR_SUITES)
    def test_blocks_equal_trials_factored_alone(self, eid, trials):
        # the reference draws, factors, computes and scores every trial alone
        cfg = _config(eid, trials)
        assert _outputs(SUITES[eid](cfg)) == _outputs(PER_TRIAL[eid](cfg))

    @pytest.mark.parametrize("eid", PAIR_SUITES)
    def test_split_groups_equal_trials_alone(self, eid):
        # dims 64 and 33 split a block's trials into groups of 8 and 30; the
        # holder sweep's blocks also span its two deltas
        cfg = _config(eid, BLOCK + 3, dims=(64, 7, 33))
        assert _outputs(SUITES[eid](cfg)) == _outputs(PER_TRIAL[eid](cfg))

    @pytest.mark.parametrize("trials", [0, 1, BLOCK + 1])
    def test_fuglede_equals_the_per_p_loop(self, trials):
        dims, p_list = [2, 3, 4], [1.0, 2.0, math.inf, 1.5]
        got = experiment_fuglede_ratio(dims, p_list, trials, seed=7)
        want = _fuglede_per_p(dims, p_list, trials, seed=7)
        assert report_to_csv(got) == report_to_csv(want)
        assert report_to_json(got) == report_to_json(want)

    def test_fuglede_draws_each_trial_once(self, monkeypatch):
        drawn = []
        original = perturbation.trial_draws

        def counted(*args, **kwargs):
            for draw in original(*args, **kwargs):
                drawn.append(draw[0])
                yield draw

        monkeypatch.setattr(perturbation, "trial_draws", counted)
        experiment_fuglede_ratio([2, 3], [1.0, 2.0, math.inf], 10, seed=1)
        assert drawn == list(range(10))

    def test_yields_every_trial_in_order(self):
        def draw(trial, dim, rng):
            return perturbation._coupled_draw(dim, 0.5, rng), trial

        dims = [1, 4, 64, 2]
        alone = {t: rest for t, *rest in _per_trial(2, 2 * BLOCK + 3, dims, draw, (9,))}
        seen, sizes = [], []
        for groups in perturbation._pair_trials(2, 2 * BLOCK + 3, dims, draw, ((9,),)):
            sizes += [(g.dim, len(g.trials)) for g in groups]
            for g in groups:
                assert g.trials == sorted(g.trials)
                assert len(g.trials) <= max(1, perturbation._STACK_ENTRIES // g.dim**2)
                assert g.d1.unitary.shape == (len(g.trials), g.dim, g.dim)
            rows = perturbation._in_trial_order(groups)
            assert [t for t, *_ in rows] == list(range(len(seen), len(seen) + len(rows)))
            for trial, dim, d1, d2, extra in rows:
                want_dim, want1, want2, want_extra = alone[trial]
                assert (dim, extra) == (want_dim, want_extra) == (dims[trial % 4], trial)
                for got, want in ((d1, want1), (d2, want2)):
                    assert np.array_equal(got.unitary, want.unitary)
                    assert np.array_equal(got.eigenvalues, want.eigenvalues)
            seen += rows
        assert len(seen) == 2 * BLOCK + 3
        # the 16 trials of a full block at dim 64 make two groups of 8
        assert sizes[:5] == [(1, 16), (4, 16), (64, 8), (64, 8), (2, 16)]

    @pytest.mark.parametrize("trials", [BLOCK - 1, BLOCK + 1])
    def test_several_keys_number_their_trials_in_turn(self, trials):
        def draw(trial, dim, rng):
            return perturbation._coupled_draw(dim, 0.5, rng), trial

        keys, dims = ((0,), (1,), (2,)), (64, 7, 33)
        alone = {i * trials + t: rest for i, key in enumerate(keys)
                 for t, *rest in _per_trial(4, trials, dims, draw, key)}
        seen = []
        for groups in perturbation._pair_trials(4, trials, dims, draw, keys):
            for trial, dim, d1, d2, extra in perturbation._in_trial_order(groups):
                want_dim, want1, want2, local = alone[trial]
                # draw sees the chained number, the key's own trial_draws the local one
                assert (dim, extra, local) == (want_dim, trial, trial % trials)
                assert dim == dims[trial % trials % 3]
                for got, want in ((d1, want1), (d2, want2)):
                    assert np.array_equal(got.unitary, want.unitary)
                    assert np.array_equal(got.eigenvalues, want.eigenvalues)
                seen.append(trial)
        # every (key, trial) pair once, trial t of key i numbered i * trials + t
        assert seen == sorted(alone) == list(range(len(keys) * trials))

    def test_peak_memory_does_not_grow_with_blocks(self):
        def peak(run, trials):
            tracemalloc.start()
            try:
                run(trials)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def drive(trials):
            for _ in perturbation._pair_trials(0, trials, [32], perturbation._draw_with_factor):
                pass

        f = random_trig_polynomial(2.0, 12, seed=0)

        def stacked(trials):
            experiment_quasicommutator(f, [64], trials, seed=0)

        # the previous block's groups stay alive while the next block is drawn, so
        # the peak is reached by the second block; the block's matrices are traced
        for run, dim, blocks in ((drive, 32, 6), (stacked, 64, 4)):
            two = peak(run, 2 * BLOCK)
            assert two > BLOCK * 3 * dim * dim * 16
            assert peak(run, blocks * BLOCK) <= 1.05 * two
        assert two < 64 * 2**20  # the bound stated at ``_TRIAL_BLOCK``


class TestExperimentReport:
    def test_row_length_checked(self):
        rep = ExperimentReport("x", 0, ["a", "b"])
        with pytest.raises(ValueError):
            rep.add(1.0)

    def test_violations_default_zero(self):
        assert ExperimentReport("x", 0, ["a"]).violations == 0


class TestExperiments:
    def test_doi_identity_suite(self):
        rep = experiment_doi_identity(4.0, [2, 5, 8], 20, seed=3)
        assert rep.violations == 0
        assert len(rep.rows) == 20
        col = rep.columns.index("residual")
        assert max(r[col] for r in rep.rows) <= 1e-9 * max(r[3] for r in rep.rows)

    def test_lipschitz_suite(self):
        f = random_trig_polynomial(2.0, 10, seed=8)
        rep = experiment_lipschitz(f, [2, 4], 30, seed=9)
        assert rep.violations == 0
        qi = rep.columns.index("quotient_op")
        ci = rep.columns.index("certified")
        assert all(r[qi] <= r[ci] for r in rep.rows)

    @pytest.mark.parametrize("trials", [0, 2 * BLOCK + 5])
    def test_worst_trials_are_read_from_the_rows(self, trials):
        # the first trial to reach the largest ratio, recomputed from the CSV columns
        def worst(rows, ratio):
            if not rows:
                return None
            best = max(ratio(r) for r in rows)
            return int(next(r[0] for r in rows if ratio(r) == best)), best

        f = random_trig_polynomial(2.0, 10, seed=8)
        lip = experiment_lipschitz(f, [2, 4, 7], trials, seed=9)
        got = lip.meta["worst_margin"]
        want = worst(lip.rows, lambda r: max(r[3], r[4]) / r[5])
        assert (None if got is None else (got["trial"], got["measured_over_certified"])) == want
        doi = experiment_doi_identity(4.0, [2, 5], trials, seed=3)
        got = doi.meta["worst_residual"]
        want = worst(doi.rows, lambda r: r[2] / r[3])
        assert (None if got is None else (got["trial"], got["residual_over_scale"])) == want
        # the sweep's rows hold each delta's largest norm, so its closest call is theirs
        f = random_trig_polynomial(2.0, 10, seed=10, decay=1.0)
        grid = [0.5, 2.0**-4, 2.0**-8]
        sweep = experiment_holder_sweep(f, 0.5, [2, 4, 7], grid, trials, seed=11)
        got = sweep.meta["worst_margin"]
        if trials == 0:  # the rows read 0 at every delta, but no pair was drawn
            assert got is None
        else:
            best = max(r[1] / r[4] for r in sweep.rows)
            delta = next(r[0] for r in sweep.rows if r[1] / r[4] == best)
            assert (got["delta"], got["measured_over_certified"]) == (delta, best)
            assert 0 <= got["trial"] < trials

    def test_holder_sweep_domination_and_schema(self):
        f = random_trig_polynomial(2.0, 10, seed=10, decay=1.0)
        grid = [2.0**-k for k in range(0, 11, 2)]
        rep = experiment_holder_sweep(f, 0.5, [3, 4], grid, 6, seed=11)
        assert rep.columns == [
            "delta", "measured_max_norm", "delta_alpha", "omega_star",
            "certified_bound", "log_envelope",
        ]
        assert rep.violations == 0
        diam = math.hypot(2.0, 2.0)
        for delta, measured, dalpha, ostar, certified, logenv in rep.rows:
            assert measured <= certified * (1 + 1e-9)
            assert abs(ostar - dalpha / (1 - 0.5)) <= 1e-12
            # the capped-modulus envelope is finite and dominates omega(delta)
            assert math.isfinite(logenv) and logenv >= min(delta, diam) - 1e-12

    @pytest.mark.parametrize("n_deltas", [1, 4])
    def test_holder_sweep_certifies_each_piece_once(self, monkeypatch, n_deltas):
        f = random_trig_polynomial(2.0, 10, seed=10, decay=1.0)
        calls = []
        original = bandlimited.sup_norm

        def counted(g):
            calls.append(g.coeffs)
            return original(g)

        monkeypatch.setattr(bandlimited, "sup_norm", counted)
        grid = [2.0**-k for k in range(n_deltas)]
        experiment_holder_sweep(f, 0.5, [2], grid, 1, seed=3)
        assert calls == [p.coeffs for p in lp_pieces(f).values()]

    def test_holder_sweep_certified_column_is_the_modulus_bound(self):
        f = random_trig_polynomial(2.0, 10, seed=12, decay=1.0)
        grid = [2.0**-k for k in range(0, 11, 2)]
        rep = experiment_holder_sweep(f, 0.5, [2], grid, 1, seed=3)
        got = [row[rep.columns.index("certified_bound")] for row in rep.rows]
        assert got == [certified_modulus_bound(f, d) for d in grid]

    def test_constant_function_rows_vanish(self):
        rep = experiment_holder_sweep(
            TrigPolynomial.constant(2.0), 0.5, [3], [0.5, 0.25], 4, seed=1
        )
        mi = rep.columns.index("measured_max_norm")
        assert all(r[mi] == 0.0 for r in rep.rows)

    def test_schatten_decay_rows_and_identity(self):
        f = random_trig_polynomial(2.0, 10, seed=21, decay=1.0)
        rep = experiment_schatten_decay(f, 0.5, 2.0, [4], 6, seed=5)
        si = rep.columns.index("s_j")
        pi = rep.columns.index("s_j_invalpha")
        for row in rep.rows:
            assert abs(row[pi] - row[si] ** 2.0) <= 1e-12 * max(1.0, row[pi])
        assert rep.meta["c_decay"] > 0.0

    def test_schatten_rank_one_sigma_template(self):
        # rank-one perturbations have sigma_j = s_0 / (1 + j)
        f = random_trig_polynomial(2.0, 10, seed=21)
        rep = experiment_schatten_decay(f, 0.5, 1.0, [5], 1, seed=6)
        rows0 = [r for r in rep.rows if r[0] == 0.0]
        s0 = max(r[rep.columns.index("sigma_j")] for r in rows0)
        for r in rows0:
            j = r[rep.columns.index("j")]
            got = r[rep.columns.index("sigma_j")]
            assert abs(got - s0 / (1.0 + j)) <= 1e-12 * s0

    def test_quasicommutator_suite(self):
        f = random_trig_polynomial(2.0, 10, seed=13)
        rep = experiment_quasicommutator(f, [2, 4, 6], 15, seed=14)
        assert rep.violations == 0
        mi = rep.columns.index("measured")
        ci = rep.columns.index("certified")
        assert all(r[mi] <= r[ci] * (1 + 1e-9) for r in rep.rows)

    def test_fuglede_p2_is_exact(self):
        rep = experiment_fuglede_ratio([2, 4], [2.0], 50, seed=15)
        assert rep.violations == 0
        ri = rep.columns.index("ratio")
        assert max(abs(r[ri] - 1.0) for r in rep.rows) <= 1e-10

    def test_fuglede_search_finds_excess(self):
        rep = experiment_fuglede_ratio([2, 3, 4], [1.0, float("inf")], 60, seed=17)
        assert rep.meta["max_ratio"]["1.0"] > 1.001
        assert rep.meta["max_ratio"]["inf"] > 1.001

    def test_ideals_boyd_draws_the_stream_once(self, monkeypatch):
        p_list = [1.0, 4.0 / 3.0, 2.0, 4.0, 15.0]
        draws = []
        original = ideals._random_spectra

        def counted(trials, seed):
            draws.append((trials, seed))
            return original(trials, seed)

        monkeypatch.setattr(ideals, "_random_spectra", counted)
        rep = experiment_ideals_boyd(p_list, 1500, seed=4)
        assert draws == [(1500, 4)]
        monkeypatch.undo()
        got = [row[rep.columns.index("avg_empirical")] for row in rep.rows]
        want = [ideals.averaging_constant_check(ideals.IdealSpec.schatten(p), 1500, 4)[0]
                for p in p_list]
        assert got == want

    def test_ideals_boyd_at_infinity(self):
        # Psi = s_0: every dilation ratio and every averaging ratio sigma_0 / s_0 is 1
        rep = experiment_ideals_boyd([math.inf], 300, seed=4)
        assert rep.rows == [(math.inf, 0.0, 0.0, 1.0, 6.0)]
        assert rep.violations == 0

    def test_hermitian_pair_ratio_one_for_all_p(self):
        # conjugation acts trivially on Hermitian quasicommutators
        rng = np.random.default_rng(1)
        from opcalc.spectral import diagonalize

        a = rng.standard_normal((4, 4))
        n = diagonalize((a + a.T) + 0j).matrix
        r = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = n @ r - r @ n
        y = n.conj().T @ r - r @ n.conj().T
        s_x, s_y = ideals.singular_values(x), ideals.singular_values(y)
        for p in (1.0, 2.0, float("inf")):
            assert abs(ideals.schatten_sum(s_y, p) / ideals.schatten_sum(s_x, p) - 1.0) <= 1e-10

    @pytest.mark.parametrize("suite", ["lip-bound", "qc-verify", "holder-sweep"])
    def test_rounding_rule_keeps_real_violations(self, monkeypatch, suite):
        # bounds 66 times too small: every row above them is a violation, whatever the rounding
        f = random_trig_polynomial(4.0, 12, seed=1005)
        lip = certified_lipschitz_constant(f) / 66.0
        monkeypatch.setattr(perturbation, "certified_lipschitz_constant", lambda g: lip)
        tight = perturbation._modulus_bound_from_uppers
        monkeypatch.setattr(perturbation, "_modulus_bound_from_uppers",
                            lambda uppers, d: tight(uppers, d) / 66.0)
        if suite == "lip-bound":
            rep = experiment_lipschitz(f, [2, 5, 8], 60, seed=1005)
            over = [max(r[3], r[4]) > r[5] * (1 + 1e-9) for r in rep.rows]
        elif suite == "qc-verify":
            rep = experiment_quasicommutator(f, [2, 5, 8], 60, seed=1005)
            over = [r[2] > r[5] * (1 + 1e-9) for r in rep.rows]
        else:
            rep = experiment_holder_sweep(f, 0.5, [2, 5, 8], [2.0**-k for k in range(11)], 6,
                                          seed=1005)
            over = [r[1] > r[4] * (1 + 1e-9) for r in rep.rows]
        assert rep.violations == sum(over) > 0
