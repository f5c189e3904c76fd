import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy import optimize

from opcalc import bandlimited
from opcalc.bandlimited import (
    DEFAULT_WINDOW,
    ModulusOfContinuity,
    TrigPolynomial,
    TrigSlice,
    band_uppers,
    besov_b1inf1_norm,
    divided_difference,
    jackson_check,
    lp_piece,
    lp_pieces,
    omega_star,
    partial_derivative,
    random_trig_polynomial,
    seminorm_estimate,
    slice_x,
    slice_y,
    sup_norm,
    vp_smooth,
)
from opcalc.errors import DivergentTailError, GridTooCoarseError

EXP_IX = TrigPolynomial(1.0, {(1, 0): 1.0})


class TestCutoffWindow:
    def test_support(self):
        xs = np.concatenate([np.linspace(0, 0.5, 20), np.linspace(2, 10, 20)])
        assert np.all(DEFAULT_WINDOW.w(xs) == 0.0)

    def test_nonnegative_and_complement(self):
        xs = np.linspace(1.0, 2.0, 64)
        w = DEFAULT_WINDOW.w(xs)
        assert np.all(w >= 0.0)
        assert np.abs(w - (1.0 - DEFAULT_WINDOW.w(xs / 2.0))).max() <= 1e-12

    def test_partition_of_unity(self):
        xs = np.geomspace(1e-3, 1e3, 257)
        total = sum(DEFAULT_WINDOW.w(xs / 2.0**n) for n in range(-15, 15))
        assert np.abs(total - 1.0).max() <= 1e-12

    def test_v_profile(self):
        assert DEFAULT_WINDOW.v(0.0) == 1.0
        assert DEFAULT_WINDOW.v(-1.0) == 1.0
        assert DEFAULT_WINDOW.v(1.5) == DEFAULT_WINDOW.w(1.5)
        assert DEFAULT_WINDOW.v(2.5) == 0.0


class TestModulus:
    @pytest.mark.parametrize("om", [
        ModulusOfContinuity.power(0.5),
        ModulusOfContinuity.capped_linear(1.5),
        ModulusOfContinuity.custom(lambda t: np.sqrt(t)),
    ])
    def test_axioms_sampled(self, om):
        assert om(0.0) == 0.0
        ts = np.linspace(0.0, 5.0, 101)
        vals = om(ts)
        assert np.all(np.diff(vals) >= -1e-15)
        rng = np.random.default_rng(0)
        x, y = rng.uniform(0, 3, (2, 200))
        assert np.all(om(x + y) <= om(x) + om(y) + 1e-12)

    def test_power_validation(self):
        with pytest.raises(ValueError):
            ModulusOfContinuity.power(1.5)


class TestEvaluate:
    def test_constant(self):
        f = TrigPolynomial.constant(1.0)
        assert f((3.7, -2.0)) == 1.0

    def test_single_exponential(self):
        assert abs(EXP_IX((math.pi, 0.0)) - (-1.0)) <= 1e-15

    def test_against_extended_precision(self):
        f = random_trig_polynomial(5.0, 20, seed=12)
        z = (0.3, 0.4)
        got = f(z)
        with mpmath.workdps(40):
            want = mpmath.mpc(0)
            for (j, k), c in f.coeffs.items():
                phase = mpmath.mpf(f.h) * (j * mpmath.mpf("0.3") + k * mpmath.mpf("0.4"))
                want += mpmath.mpc(c.real, c.imag) * mpmath.e ** (1j * phase)
            err = abs(mpmath.mpc(got.real, got.imag) - want)
        assert err <= 1e-13

    def test_periodicity(self):
        f = random_trig_polynomial(3.0, 10, seed=5)
        z = (0.7, -1.1)
        shifted = (z[0] + f.period, z[1])
        assert abs(f(np.array(z)) - f(np.array(shifted))) <= 1e-12

    def test_complex_argument(self):
        z = 0.3 + 0.4j
        assert abs(EXP_IX(z) - np.exp(1j * 0.3)) <= 1e-15


def _term_sum(g, *coords):
    """g at every broadcast point, summed term by term with cmath."""
    pts = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in coords))
    out = np.empty(pts[0].shape, dtype=complex)
    for idx in np.ndindex(out.shape):
        t = [float(p[idx]) for p in pts]
        total = 0j
        for key, c in g.coeffs.items():
            k = (key,) if isinstance(key, int) else key
            total += c * cmath.exp(1j * g.h * sum(a * b for a, b in zip(k, t)))
        out[idx] = total
    return out


def _assert_oracle(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.abs(got - want).max(initial=0.0) <= 1e-13 * (1.0 + np.abs(want).max(initial=0.0))


F12 = random_trig_polynomial(8.0, 12, seed=31)
# point counts below and above the one-shot rule for F12, and above one block
SMALL = bandlimited._ONE_SHOT_ENTRIES // 12
LARGE = bandlimited._BLOCK_POINTS + 37
WIDE = (
    TrigPolynomial(0.05, {(64, 0): 1.0 - 2.0j}),  # one term, |j| = 64
    TrigPolynomial(0.05, {(-3, 64): 0.5j}),  # one term, |k| = 64
    TrigPolynomial(0.05, {(64, 0): 1.0, (0, 0): -0.5, (-2, 1): 2.0j}),  # sparse, wide span
    TrigPolynomial(1e-6, {(10**6, -(10**6)): 1.0, (-(10**6), 3): 2.0j}),  # spans of 2e6
)


class TestEvaluationRoutine:
    """eval against a term-by-term cmath sum, on every path of the routine."""

    def test_scalar_and_zero_dim(self):
        for x, y in ((0.3, -1.2), (np.float64(2.5), 7), (np.array(0.3), np.array(-1.2))):
            got = F12.eval(x, y)
            assert isinstance(got, complex)
            _assert_oracle(np.array(got), _term_sum(F12, x, y))

    @pytest.mark.parametrize("n", [1, 8, SMALL, SMALL + 1, 4096, LARGE])
    def test_vector(self, n):
        rng = np.random.default_rng(n)
        x, y = rng.uniform(-10.0, 10.0, (2, n))
        _assert_oracle(F12.eval(x, y), _term_sum(F12, x, y))

    @pytest.mark.parametrize("n, m", [(1, 1), (3, 4), (8, 8), (12, 40), (64, 64)])
    def test_column_against_row(self, n, m):
        rng = np.random.default_rng((n, m))
        x = rng.uniform(-10.0, 10.0, (n, 1))
        y = rng.uniform(-10.0, 10.0, (1, m))
        _assert_oracle(F12.eval(x, y), _term_sum(F12, x, y))
        _assert_oracle(F12.eval(y, x), _term_sum(F12, y, x))  # a row of x against a column of y

    @pytest.mark.parametrize("n", [3, 8, 30])
    def test_square_arrays(self, n):
        rng = np.random.default_rng(n)
        x, y = rng.uniform(-10.0, 10.0, (2, n, n))
        _assert_oracle(F12.eval(x, y), _term_sum(F12, x, y))
        _assert_oracle(F12.eval(x, 0.7), _term_sum(F12, x, 0.7))

    def test_empty_polynomial(self):
        zero = TrigPolynomial(1.0, {})
        assert zero.eval(0.3, 0.4) == 0j
        assert zero.eval(np.zeros((3, 1)), np.zeros((1, 5))).shape == (3, 5)
        assert not np.any(zero.eval(np.ones(LARGE), 0.0))

    @pytest.mark.parametrize("g", WIDE)
    @pytest.mark.parametrize("n", [1, 40, LARGE])
    def test_high_frequencies(self, g, n):
        rng = np.random.default_rng(n)
        x, y = rng.uniform(-10.0, 10.0, (2, n))
        _assert_oracle(g.eval(x, y), _term_sum(g, x, y))
        _assert_oracle(g.eval(x[:, None], y[None, :8]), _term_sum(g, x[:, None], y[None, :8]))

    @pytest.mark.parametrize("coeffs", [
        {-4: 1.0, 0: 0.5j, 3: -2.0},
        {64: 1.0 + 1.0j},
        {64: 1.0, -1: 0.25, 0: 3.0},
        {},
    ])
    @pytest.mark.parametrize("n", [0, 1, 7, 200, 4001, LARGE])
    def test_slice(self, coeffs, n):
        g = TrigSlice(0.5, coeffs)
        t = np.random.default_rng(n).uniform(-20.0, 20.0, n)
        _assert_oracle(g.eval(t), _term_sum(g, t))
        _assert_oracle(g.eval(t.reshape(-1, 1)), _term_sum(g, t.reshape(-1, 1)))
        assert isinstance(g.eval(1.5), complex)

    def test_arrays_are_read_only(self):
        for arr in (F12._terms.freqs, F12._terms.amps, F12._terms.lo, F12._terms.span):
            with pytest.raises(ValueError):
                arr[...] = 0
        with pytest.raises(AttributeError):
            TrigSlice(1.0, {1: 1.0}).h = 2.0


class TestPartialDerivative:
    def test_constant(self):
        assert partial_derivative(TrigPolynomial.constant(2.0), "x").coeffs == {}

    def test_single_exponential(self):
        d = partial_derivative(EXP_IX, "x")
        assert d.coeffs == {(1, 0): 1j}
        assert partial_derivative(EXP_IX, "y").coeffs == {}

    def test_bernstein_sweep(self):
        for s in range(100):
            f = random_trig_polynomial(3.0, 8, seed=1000 + s)
            df = partial_derivative(f, "x")
            d_lower, _ = bandlimited.grid_bracket(df, df.support_radius, 512)
            _, f_upper = bandlimited.grid_bracket(f, f.support_radius, 512)
            assert d_lower <= f.support_radius * f_upper

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            partial_derivative(EXP_IX, "z")


def _dd_oracle(terms, h, a, b):
    """(g(a) - g(b))/(a - b) in 50 digits at the doubles a, b, and g'(a) at a = b.

    g(t) = sum c e^{ihkt} over the (k, c) pairs of ``terms``, c an mpmath number.
    """
    with mpmath.workdps(50):
        h, a, b = mpmath.mpf(h), mpmath.mpf(a), mpmath.mpf(b)
        if a == b:
            total = sum(c * 1j * h * k * mpmath.expj(h * k * a) for k, c in terms)
        else:
            total = sum(c * (mpmath.expj(h * k * a) - mpmath.expj(h * k * b)) for k, c in terms)
            total /= a - b
        return complex(total)


def _axis_terms(f, axis, held):
    """f along one axis with the other coordinate held: (k, c_k) with the held phase folded in."""
    with mpmath.workdps(50):
        out = []
        for (j, k), c in f.coeffs.items():
            along, other = (j, k) if axis == "x" else (k, j)
            phase = mpmath.expj(mpmath.mpf(f.h) * other * mpmath.mpf(held))
            out.append((along, mpmath.mpc(c.real, c.imag) * phase))
        return out


class TestDividedDifference:
    """``divided_difference`` against a 50-digit oracle, from wide gaps down to coincidence."""

    F = random_trig_polynomial(8.0, 12, seed=5)

    @pytest.mark.parametrize("gap", [1e-1, 1e-3, 1e-5, 5e-7, 1e-9, 0.0])
    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("held_side", ["rows", "cols"])
    def test_plane_matches_oracle(self, gap, axis, held_side):
        rng = np.random.default_rng(7)
        a = rng.uniform(-2.0, 2.0, 5)
        b = a + gap  # the diagonal has the gap under test, the rest random gaps
        held = rng.uniform(-2.0, 2.0, 5)
        held_2d = held[:, None] if held_side == "rows" else held[None, :]
        got = divided_difference(self.F, a[:, None], b[None, :], axis, held_2d)
        along = [_axis_terms(self.F, axis, v) for v in held]
        for i, j in np.ndindex(got.shape):
            want = _dd_oracle(along[i if held_side == "rows" else j], self.F.h, a[i], b[j])
            assert abs(got[i, j] - want) <= 1e-14 * max(abs(want), 1.0), (i, j)

    @pytest.mark.parametrize("gap", [1e-1, 1e-3, 1e-5, 5e-7, 1e-9, 0.0])
    def test_slice_matches_oracle(self, gap):
        g = slice_x(self.F, 0.3)
        rng = np.random.default_rng(8)
        a = rng.uniform(-2.0, 2.0, 8)
        b = a + gap
        got = divided_difference(g, a, b)
        with mpmath.workdps(50):
            terms = [(k, mpmath.mpc(c.real, c.imag)) for k, c in g.coeffs.items()]
        for i in range(a.size):
            want = _dd_oracle(terms, g.h, a[i], b[i])
            assert abs(got[i] - want) <= 1e-14 * max(abs(want), 1.0), i


class TestDyadicPieces:
    def test_exact_dyadic_frequency(self):
        # at |xi| = 2^n the window value is w(1) = 1 and neighbors vanish
        f = TrigPolynomial(2.0, {(1, 0): 3.0})  # |xi| = 2
        assert lp_piece(f, 1).coeffs == {(1, 0): 3.0}
        assert lp_piece(f, 0).coeffs == {}
        assert lp_piece(f, 2).coeffs == {}

    def test_constant_has_no_pieces(self):
        assert lp_pieces(TrigPolynomial.constant(4.0)) == {}

    def test_pieces_resum_to_f(self):
        f = random_trig_polynomial(5.0, 18, seed=3)
        total = TrigPolynomial(f.h, {})
        for piece in lp_pieces(f).values():
            total = total + piece
        for key, c in f.coeffs.items():
            if key == (0, 0):
                continue
            assert abs(total.coeffs.get(key, 0.0) - c) <= 1e-12 * abs(c)

    def test_piece_support_annulus(self):
        f = random_trig_polynomial(5.0, 18, seed=8)
        for n, piece in lp_pieces(f).items():
            mods = [f.h * math.hypot(j, k) for (j, k) in piece.coeffs]
            assert min(mods) >= 2.0 ** (n - 1)
            assert max(mods) <= 2.0 ** (n + 1)

    def test_vp_identity_below_cutoff(self):
        f = random_trig_polynomial(3.9, 10, seed=2)
        g = vp_smooth(f, 2)  # 2^2 >= sigma
        assert g.coeffs == f.coeffs

    def test_vp_kills_high_frequency(self):
        f = TrigPolynomial(1.0, {(5, 0): 1.0})
        assert vp_smooth(f, 1).coeffs == {}  # 5 > 2 * 2^1

    def test_vp_residual_support(self):
        f = random_trig_polynomial(5.0, 18, seed=9)
        n = 1
        resid = f - vp_smooth(f, n)
        for (j, k) in resid.coeffs:
            assert f.h * math.hypot(j, k) > 2.0**n


class TestSupNorm:
    def test_constant(self):
        assert sup_norm(TrigPolynomial.constant(1.0)) == (1.0, 1.0)

    def test_single_exponential_bracket(self):
        lower, upper = bandlimited.grid_bracket(EXP_IX, 1.0, 512)
        assert abs(lower - 1.0) <= 1e-12
        assert upper >= lower
        assert upper - lower <= 0.01

    def test_soundness_random_points(self):
        f = random_trig_polynomial(4.0, 12, seed=6)
        _, upper = bandlimited.grid_bracket(f, f.support_radius, 1024)
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, f.period, (100000, 2))
        assert np.abs(f.eval(pts[:, 0], pts[:, 1])).max() <= upper

    def test_width_halves_under_doubling(self):
        f = random_trig_polynomial(3.0, 12, seed=4)
        brackets = [bandlimited.grid_bracket(f, f.support_radius, m) for m in (256, 512, 1024)]
        widths = [upper - lower for lower, upper in brackets]
        assert widths[0] / widths[1] > 1.8
        assert widths[1] / widths[2] > 1.8

    def test_too_coarse_raises(self):
        f = TrigPolynomial(1.0, {(300, 0): 1.0})
        with pytest.raises(GridTooCoarseError):
            bandlimited.grid_bracket(f, f.support_radius, 64)

    def test_auto_policy_caps(self):
        lower, upper = sup_norm(EXP_IX)
        assert abs(lower - 1.0) <= 1e-12
        assert upper - lower <= 2e-3  # cap at 4096 points


def _oracle_max(g):
    """|g| at its located maximizer, to 30 digits: never above ||g||_inf.

    The maximizer is located by Nelder-Mead on a term-by-term numpy sum,
    started from the eight largest points of a 512-point-per-axis grid, and
    the value there is summed in mpmath.  A search that missed the peak
    would return less than the maximum, which can only fail the check on a
    bracket's lower end, never hide an upper end below the maximum.
    """
    keys = list(g.coeffs)
    freqs = np.array(keys, dtype=float).reshape(len(keys), g.ndim) * g.h
    amps = np.array([g.coeffs[k] for k in keys])

    def neg_mod(t):
        return -abs(np.exp(1j * (freqs @ t)) @ amps)

    grid = np.abs(g.grid_values(512))
    step = 2.0 * math.pi / g.h / 512
    best = None
    simplex = np.vstack([np.zeros(g.ndim), step * np.eye(g.ndim)])
    for flat in np.argsort(grid, axis=None)[-8:]:
        x0 = np.array(np.unravel_index(flat, grid.shape)) * step
        res = optimize.minimize(neg_mod, x0, method="Nelder-Mead",
                                options={"initial_simplex": x0 + simplex, "xatol": 1e-10,
                                         "fatol": 1e-14, "maxiter": 4000})
        if best is None or res.fun < best.fun:
            best = res
    with mpmath.workdps(30):
        total = mpmath.mpc(0)
        for key, c in g.coeffs.items():
            key = key if isinstance(key, tuple) else (key,)
            phase = sum(mpmath.mpf(float(k)) * mpmath.mpf(float(t)) for k, t in zip(key, best.x))
            total += mpmath.mpc(c.real, c.imag) * mpmath.expj(mpmath.mpf(g.h) * phase)
        return abs(total)


def _oracle_cases():
    """Seeded f of three shapes, each of their dyadic pieces, and a slice of each f."""
    cases = []
    for seed in range(3):
        for sigma, decay in ((4.0, 0.0), (2.0, 1.0), (8.0, 0.0)):
            f = random_trig_polynomial(sigma, 12, seed=seed, decay=decay)
            cases.append(f)
            cases.extend(lp_pieces(f).values())
            cases.append(slice_x(f, 0.3 + seed))
    # cos(t - t0) and cos(x - t0) cos(y - t0) peak half a cell off the 32-point
    # grid, where they fall off at (1-D) or at half (2-D) the bound's rate
    t0 = math.pi / 32
    cases.append(TrigSlice(1.0, {1: 0.5 * cmath.exp(-1j * t0), -1: 0.5 * cmath.exp(1j * t0)}))
    cases.append(TrigPolynomial(1.0, {(j, k): 0.25 * cmath.exp(-1j * (j + k) * t0)
                                      for j in (1, -1) for k in (1, -1)}))
    return cases


class TestSecondOrderBracket:
    @pytest.mark.parametrize("g", _oracle_cases(), ids=lambda g: f"{g.ndim}d-{len(g.coeffs)}terms")
    def test_brackets_contain_the_oracle_max(self, g):
        truth = _oracle_max(g)
        # on the 32-point grids the second-order loss q is 0.01 to 0.15
        if g.ndim == 2:
            sigma, grids = g.support_radius, (256, 32)
            brackets = [sup_norm(g)]
        else:
            sigma, grids = g.type_bound, (512, 32)
            brackets = [g.sup_bracket()]
        brackets += [bandlimited.grid_bracket(g, sigma, m) for m in grids]
        for lower, upper in brackets:
            assert lower <= upper
            assert truth <= upper
            assert lower <= truth

    @pytest.mark.parametrize("seed", range(6))
    def test_same_grid_ordering_against_first_order(self, seed):
        f = random_trig_polynomial(4.0, 12, seed=seed)
        cases = [(f, f.support_radius, m) for m in (256, 512, 1024)]
        cases += [(p, p.support_radius, 256) for p in lp_pieces(f).values()]
        g = slice_y(f, 0.7)
        cases += [(g, g.type_bound, m) for m in (512, 4096)]
        for g, sigma, m in cases:
            old_lower = float(np.abs(g.grid_values(m)).max())
            eps = sigma * (2.0 * math.pi / g.h / m) * math.sqrt(g.ndim) / 2.0
            old_upper = old_lower / (1.0 - eps)
            # the rounding slack of an FFT value (see ``grid_bracket``)
            amps = np.array(list(g.coeffs.values()))
            slack = (8.0 * g.ndim * math.log2(m) + 2.0 * amps.size + 8.0) * 2.0**-53 \
                * float(np.abs(amps).sum())
            lower, upper = bandlimited.grid_bracket(g, sigma, m)
            assert old_lower - slack <= lower <= old_lower
            assert old_lower <= upper <= old_upper

    @pytest.mark.parametrize("seed", range(12))
    def test_auto_width_on_certify_shape(self, seed):
        lower, upper = sup_norm(random_trig_polynomial(4.0, 12, seed=seed))
        assert upper - lower <= 1e-6 * lower

    @pytest.mark.parametrize("f", [
        EXP_IX,
        TrigPolynomial(1.0, {(1, 0): 1.0, (0, 1): 0.5j}),
        random_trig_polynomial(4.0, 12, seed=1),
    ], ids=["one-term", "two-term", "certify-shape"])
    def test_auto_policy_samples_one_grid(self, monkeypatch, f):
        calls = []
        original = TrigPolynomial.grid_values

        def counted(self, m):
            calls.append(m)
            return original(self, m)

        monkeypatch.setattr(TrigPolynomial, "grid_values", counted)
        lower, upper = sup_norm(f)
        assert calls == [256]
        assert lower <= upper

    def test_two_term_ridge_is_capped_by_the_coefficient_sum(self):
        # |e^{ix} + 0.5i e^{iy}| reaches 1.5 along x - y = pi/2, which the 256 grid meets;
        # the lower end sits the FFT rounding slack, 140 u * 1.5 = 2.3e-14, below it
        lower, upper = sup_norm(TrigPolynomial(1.0, {(1, 0): 1.0, (0, 1): 0.5j}))
        assert 1.5 - 3e-14 <= lower <= 1.5
        assert 1.5 <= upper <= 1.5 + 1e-15

    @pytest.mark.parametrize("g, exact", [
        (EXP_IX, 1.0),
        (TrigPolynomial(1.0, {(1, 0): 1.0, (0, 1): 0.5j}), 1.5),
        (TrigPolynomial(0.5, {(2, -1): 3.0 - 4.0j}), 5.0),
        (TrigSlice(1.0, {1: 1.0, -2: 0.5j}), 1.5),
        (TrigSlice(2.0, {3: 0.75}), 0.75),
    ], ids=["one-term", "two-term", "one-term-h", "slice-two-term", "slice-one-term"])
    def test_lower_end_is_a_proven_lower_bound(self, g, exact):
        # with one or two terms the phases can be aligned, so ||g||_inf = sum |c_k| exactly
        sigma = g.support_radius if g.ndim == 2 else g.type_bound
        brackets = [sup_norm(g) if g.ndim == 2 else g.sup_bracket()]
        brackets += [bandlimited.grid_bracket(g, sigma, m) for m in (64, 256, 1024)]
        for lower, upper in brackets:
            assert 0.0 <= lower <= exact <= upper


class TestBesov:
    def test_constant(self):
        assert besov_b1inf1_norm(TrigPolynomial.constant(3.0)) == 0.0

    def test_single_exponential_enumeration(self):
        # |xi| = 1 sits exactly at the n = 0 band: w(1) = 1, all others vanish
        pieces = lp_pieces(EXP_IX)
        assert set(pieces) == {0}
        total = besov_b1inf1_norm(EXP_IX)
        _, upper = sup_norm(EXP_IX)
        assert abs(total - upper) <= 1e-12

    def test_homogeneous(self):
        f = random_trig_polynomial(3.0, 10, seed=11)
        a = besov_b1inf1_norm(7.5 * f)
        b = 7.5 * besov_b1inf1_norm(f)
        assert abs(a - b) <= 1e-12 * b

    def test_band_uppers_are_the_piece_uppers_in_band_order(self):
        f = random_trig_polynomial(3.0, 10, seed=11)
        pieces = lp_pieces(f)
        uppers = band_uppers(f)
        assert list(uppers) == sorted(pieces)
        assert uppers == {n: sup_norm(p)[1] for n, p in pieces.items()}


class TestSeminorm:
    def test_constant(self):
        om = ModulusOfContinuity.power(0.5)
        assert seminorm_estimate(TrigPolynomial.constant(2.0), om, 100, 0) == 0.0

    def test_lipschitz_constant_of_exponential(self):
        om = ModulusOfContinuity.power(1.0)
        est = seminorm_estimate(EXP_IX, om, 10000, 1)
        assert 0.99 <= est <= 1.0 + 1e-12

    def test_monotone_in_samples(self):
        f = random_trig_polynomial(3.0, 10, seed=13)
        om = ModulusOfContinuity.power(0.5)
        e1 = seminorm_estimate(f, om, 100, seed=7)
        e2 = seminorm_estimate(f, om, 1000, seed=7)
        assert e1 <= e2


class TestOmegaStar:
    def test_power_closed_form(self):
        om = ModulusOfContinuity.power(0.5)
        for x in (0.01, 0.3, 2.0):
            assert abs(omega_star(om, x) - x**0.5 / 0.5) <= 1e-12

    def test_capped_interior(self):
        om = ModulusOfContinuity.capped_linear(2.0)
        d = 2.0
        for x in (0.1, 0.5, 1.9):
            assert abs(omega_star(om, x) - (x * math.log(d / x) + x)) <= 1e-12

    def test_capped_boundary(self):
        om = ModulusOfContinuity.capped_linear(2.0)
        assert omega_star(om, 2.0) == 2.0

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_custom_quadrature_matches_power(self, alpha):
        closed = ModulusOfContinuity.power(alpha)
        quadr = ModulusOfContinuity.custom(lambda t, a=alpha: np.power(t, a))
        for x in (0.1, 1.0, 3.0):
            want = omega_star(closed, x)
            assert abs(omega_star(quadr, x) - want) <= 1e-8 * want

    def test_custom_quadrature_matches_capped(self):
        closed = ModulusOfContinuity.capped_linear(1.5)
        quadr = ModulusOfContinuity.custom(lambda t: np.minimum(t, 1.5))
        for x in (0.2, 1.0):
            want = omega_star(closed, x)
            assert abs(omega_star(quadr, x) - want) <= 1e-8 * want

    def test_divergent_tail(self):
        with pytest.raises(DivergentTailError):
            omega_star(ModulusOfContinuity.power(1.0), 0.5)
        with pytest.raises(DivergentTailError):
            omega_star(ModulusOfContinuity.custom(lambda t: t), 0.5)

    @pytest.mark.parametrize("om", [
        ModulusOfContinuity.power(0.4),
        ModulusOfContinuity.capped_linear(3.0),
        ModulusOfContinuity.custom(lambda t: np.power(t, 0.6)),
    ])
    def test_dominates_half_of_omega(self, om):
        # omega_star(x) >= x * omega(x) * int_x^{2x} t^-2 dt = omega(x)/2
        for x in (0.05, 0.7, 2.5):
            assert omega_star(om, x) >= om(x) / 2.0 - 1e-12


class TestJackson:
    def test_smooth_range_is_exact_zero(self):
        om = ModulusOfContinuity.power(1.0)
        rows = jackson_check(EXP_IX, om, range(0, 4), samples=2000, seed=0)
        for _, lhs, ratio, _, _ in rows:
            assert lhs == 0.0 and ratio == 0.0

    def test_constant_rows_zero(self):
        om = ModulusOfContinuity.power(0.5)
        rows = jackson_check(TrigPolynomial.constant(5.0), om, range(-2, 3), samples=100, seed=0)
        assert all(r[1] == 0.0 and r[2] == 0.0 for r in rows)

    def test_exponential_constants_bounded(self):
        # regression pin: measured max ratio is ~0.503 (V_n) and ~1.005 (W_n)
        om = ModulusOfContinuity.power(1.0)
        rows = jackson_check(EXP_IX, om, range(-4, 5), samples=10000, seed=0)
        assert max(r[2] for r in rows) <= 40.0
        assert max(r[4] for r in rows) <= 40.0


class TestSlices:
    def test_slice_values_agree(self):
        f = random_trig_polynomial(3.0, 12, seed=17)
        xs = np.linspace(-2, 2, 9)
        gx = slice_x(f, 0.4)
        assert np.abs(gx.eval(xs) - f.eval(xs, 0.4)).max() <= 1e-12
        gy = slice_y(f, -1.2)
        assert np.abs(gy.eval(xs) - f.eval(-1.2, xs)).max() <= 1e-12

    def test_slice_type_bound(self):
        f = random_trig_polynomial(3.0, 12, seed=18)
        assert slice_x(f, 0.0).type_bound <= f.support_radius + 1e-12

    def test_slice_sup_bracket(self):
        f = random_trig_polynomial(2.0, 8, seed=19)
        g = slice_x(f, 0.3)
        lo, up = g.sup_bracket()
        ts = np.linspace(0, 2 * math.pi / g.h, 4096)
        # the bracket is tighter than a 4096-point sample, so its lower end is
        # checked against the located maximum
        assert lo <= _oracle_max(g) <= up
        assert np.abs(g.eval(ts)).max() <= up + 1e-9


class TestSerialization:
    def test_immutability(self):
        with pytest.raises(AttributeError):
            EXP_IX.h = 2.0
