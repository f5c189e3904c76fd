import math

import mpmath
import numpy as np
import pytest

from opcalc import bandlimited, sinc
from opcalc.bandlimited import TrigSlice, random_trig_polynomial, slice_x, slice_y
from opcalc.doi import divided_difference_kernel, schur_norm_bracket
from opcalc.errors import QuadratureError
from opcalc.sinc import (
    _tail_kernel,
    expansion_tail_bound,
    haagerup_factorization,
    reconstruct_dd,
    reproducing_integral,
    row_energy,
    row_energy_integral,
    sinc_basis,
    sinc_mass_integral,
)


def sin_slice(sigma):
    return TrigSlice(sigma, {1: -0.5j, -1: 0.5j})  # sin(sigma t)


UNIT_EXP = TrigSlice(1.0, {1: 1.0})  # e^{it}


def _basis_oracle(sigma, ns, y):
    """sin(sigma*y)/(sigma*y - pi*n) at 40 digits; sigma*y is exact for sigma a power of two."""
    with mpmath.workdps(40):
        sy = mpmath.mpf(sigma) * mpmath.mpf(y)
        num = mpmath.sin(sy)
        return np.array([float(num / (sy - mpmath.pi * int(n))) for n in ns])


class TestBasis:
    def test_removable_singularity(self):
        for n in (-3, 0, 2, 7):
            assert abs(sinc_basis(1.0, n, n * math.pi) - (-1.0) ** n) <= 1e-15

    def test_direct_value(self):
        assert abs(sinc_basis(1.0, 0, math.pi / 2) - 2.0 / math.pi) <= 1e-15

    @pytest.mark.parametrize("sigma", [4.0, 0.5])
    def test_matches_mpmath_oracle(self, sigma):
        # the factorizations' shape: |n| <= 2000, so |u| reaches about 6300
        ns = np.arange(-2000, 2001)
        ys = np.random.default_rng(8).uniform(-2.0, 2.0, 4)
        got = sinc_basis(sigma, ns, ys[:, None])
        for row, y in zip(got, ys):
            want = _basis_oracle(sigma, ns, y)
            assert np.max(np.abs(row - want) / np.abs(want)) <= 1e-14, y

    @pytest.mark.parametrize("offset", [0.0, 1e-13, -1e-13, 3e-14])
    def test_accurate_at_and_near_sample_points(self, offset):
        sigma, ns = 4.0, np.arange(-2000, 2001)
        for m in (-3, 1, 2):
            y = math.pi * m / sigma + offset
            want = _basis_oracle(sigma, ns, y)
            got = sinc_basis(sigma, ns, y)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14, (m, offset)
            assert sinc_basis(sigma, m, y) == got[2000 + m]

    def test_bounded_by_one(self):
        ns = np.arange(-50, 51)
        ys = np.linspace(-20, 20, 101)
        vals = sinc_basis(2.0, ns[:, None], ys[None, :])
        assert np.abs(vals).max() <= 1.0 + 1e-12

    def test_partition_of_squares(self):
        ns = np.arange(-1000, 1001)
        for y in (0.37, -2.4, 11.0):
            total = np.sum(sinc_basis(1.0, ns, y) ** 2)
            assert abs(total - 1.0) <= 1e-3

    def test_squares_increase_to_one(self):
        y = 0.9
        prev = 0.0
        for n_max in (10, 100, 1000):
            ns = np.arange(-n_max, n_max + 1)
            total = np.sum(sinc_basis(1.3, ns, y) ** 2)
            assert prev <= total <= 1.0 + 1e-12
            prev = total


class TestReconstruct:
    def test_constant_slice(self):
        f = TrigSlice(1.0, {0: 4.0})
        value, _ = reconstruct_dd(f, 1.0, 0.3, 1.7, 50)
        assert value == 0.0

    def test_sine_at_quarter_period(self):
        s = 1.0
        f = sin_slice(s)
        x, y = 0.0, math.pi / (2 * s)
        value, tail = reconstruct_dd(f, s, x, y, 1000)
        want = (0.0 - 1.0) / (x - y)  # 2 s / pi
        assert abs(want - 2 * s / math.pi) <= 1e-15
        assert abs(value - want) <= tail + 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_interior_band_exponential(self, seed):
        s = 2.0
        f = TrigSlice(s / 2, {1: 1.0})  # e^{i s t / 2}, type s/2 < s
        rng = np.random.default_rng(seed)
        for _ in range(5):
            x, y = rng.uniform(-3, 3, 2)
            value, tail = reconstruct_dd(f, s, x, y, 1500)
            direct = (f.eval(np.array(x)) - f.eval(np.array(y))) / (x - y)
            assert abs(value - direct) <= tail + 1e-10

    def test_coincident_arguments_give_derivative(self):
        s = 1.5
        f = sin_slice(s)
        value, tail = reconstruct_dd(f, s, 0.7, 0.7, 1500)
        assert abs(value - s * math.cos(s * 0.7)) <= tail + 1e-10

    def test_tail_decreases_with_terms(self):
        f = sin_slice(1.0)
        tails = [reconstruct_dd(f, 1.0, 0.1, 0.9, n)[1] for n in (100, 400, 1600)]
        assert tails[0] > tails[1] > tails[2]


class TestRowEnergy:
    def test_constant_slice(self):
        f = TrigSlice(1.0, {0: 2.5})
        assert row_energy(f, 1.0, 0.4, 100) == 0.0

    def test_unimodular_exponential_closed_form(self):
        total = row_energy(UNIT_EXP, 1.0, 0.37, 2000)
        assert abs(total - 2.0) <= 1e-3

    def test_integral_form_matches(self):
        value, err = row_energy_integral(UNIT_EXP, 1.0, 0.37)
        assert abs(value - 2.0) <= err + 1e-9
        assert err <= 1e-3

    def test_never_exceeds_cap(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            sigma = float(rng.uniform(0.5, 3.0))
            coeffs = {
                int(m): complex(rng.standard_normal(), rng.standard_normal())
                for m in rng.choice(np.arange(-3, 4), size=3, replace=False)
            }
            f = TrigSlice(sigma / 3, coeffs)
            x = float(rng.uniform(-4, 4))
            cap = 3.0 * f.sup_bracket()[1] ** 2
            assert row_energy(f, sigma, x, 2000) <= cap * (1 + 1e-6)

    def test_envelope_constant(self):
        # (1/pi) * integral of min(4, u^2)/u^2 du = 8/pi
        from scipy.integrate import quad

        core, _ = quad(lambda u: 1.0 if abs(u) <= 2.0 else 4.0 / (u * u), -2.0, 2.0, epsabs=1e-12)
        wing, _ = quad(lambda u: 4.0 / (u * u), 2.0, 500.0, epsabs=1e-12)
        total = (core + 2.0 * (wing + 4.0 / 500.0)) / math.pi
        assert abs(total - 8.0 / math.pi) <= 1e-6
        assert 8.0 / math.pi < 3.0


class TestReproducingIntegral:
    def test_constant_slice(self):
        f = TrigSlice(1.0, {0: 1.0})
        value, _ = reproducing_integral(f, 1.0, 0.2, 1.4)
        assert abs(value) <= 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_sine_matches_direct(self, seed):
        s = 1.0
        f = sin_slice(s)
        rng = np.random.default_rng(seed)
        x, y = rng.uniform(-2, 2, 2)
        value, err = reproducing_integral(f, s, float(x), float(y))
        direct = (math.sin(s * x) - math.sin(s * y)) / (x - y)
        assert abs(value - direct) <= 1e-6
        assert abs(value - direct) <= err + 1e-12

    @pytest.mark.parametrize("d", [2e-9, -2e-9, 0.0, 0.7])
    def test_tail_kernel_matches_mpmath(self, d):
        # the closed-form tails of reproducing_integral at x - y = d, sigma = 1
        x = 0.3
        y = x - d
        c, half_width = (x + y) / 2.0, 50.0 * math.pi
        lo, hi = c - half_width, c + half_width
        got = _tail_kernel(x, y, lo, hi)
        with mpmath.workdps(50):
            x, y, lo, hi = (mpmath.mpf(v) for v in (x, y, lo, hi))
            if x == y:
                want = 1 / (hi - x) + 1 / (x - lo)
            else:
                want = (mpmath.log((hi - y) / (hi - x)) + mpmath.log((x - lo) / (y - lo))) / (x - y)
            assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_integrals_reject_nonpositive_sigma(self, sigma):
        with pytest.raises(ValueError):
            row_energy_integral(UNIT_EXP, sigma, 0.3)
        with pytest.raises(ValueError):
            sinc_mass_integral(sigma, 0.3)
        with pytest.raises(ValueError):
            reproducing_integral(UNIT_EXP, sigma, 0.3, 0.5)

    def test_integrals_raise_when_quadrature_misses_tolerance(self, monkeypatch):
        monkeypatch.setattr(sinc, "quad", lambda *args, **kwargs: (1.0, 1e-3))
        with pytest.raises(QuadratureError):
            row_energy_integral(UNIT_EXP, 1.0, 0.3)
        with pytest.raises(QuadratureError):
            sinc_mass_integral(1.0, 0.3)
        with pytest.raises(QuadratureError):
            reproducing_integral(UNIT_EXP, 1.0, 0.3, 0.5)

    def test_mass_integral_is_one(self):
        for sigma, y in ((1.0, 0.0), (2.5, 1.3), (0.7, -4.0)):
            value, err = sinc_mass_integral(sigma, y)
            assert abs(value - 1.0) <= 1e-6
            assert abs(value - 1.0) <= err + 1e-12

    def test_consistency_three_ways(self):
        s = 2.0
        f = TrigSlice(s / 2, {1: 0.7, -1: 0.2j})
        x, y = 0.45, -1.2
        series, tail = reconstruct_dd(f, s, x, y, 2000)
        integral, ierr = reproducing_integral(f, s, x, y)
        direct = (f.eval(np.array(x)) - f.eval(np.array(y))) / (x - y)
        assert abs(series - direct) <= tail + 1e-10
        assert abs(integral - direct) <= ierr + 1e-10
        assert abs(series - integral) <= tail + ierr + 1e-10


class TestHaagerup:
    def test_constant_function(self):
        from opcalc.bandlimited import TrigPolynomial

        f = TrigPolynomial.constant(5.0)
        lam = np.array([0.1 + 0.2j, -0.4j])
        mu = np.array([0.3 - 0.1j])
        a, b, upper = haagerup_factorization(f, "x", lam, mu, 10)
        assert upper == 0.0
        assert np.abs(b).max() == 0.0

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_kernel_reconstruction_within_tail(self, axis):
        f = random_trig_polynomial(2.0, 8, seed=9)
        rng = np.random.default_rng(5)
        lam = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        mu = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        a, b, upper = haagerup_factorization(f, axis, lam, mu, 2000)
        kern = divided_difference_kernel(f, axis, lam, mu)
        sup_upper = bandlimited.grid_bracket(f, f.support_radius, 1024)[1]
        coord = 2.0 * f.support_radius  # spectra live inside |z| <= 2
        tail = expansion_tail_bound(sup_upper, f.support_radius, coord, coord, 2000)
        assert np.abs(a @ b.T - kern.values).max() <= tail

    @pytest.mark.parametrize("seed", range(20))
    def test_upper_respects_multiplier_bound(self, seed):
        rng = np.random.default_rng((40, seed))
        f = random_trig_polynomial(float(rng.uniform(0.5, 4.0)), 10, seed=None, rng=rng)
        lam = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        mu = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        axis = "x" if seed % 2 == 0 else "y"
        _, _, upper = haagerup_factorization(f, axis, lam, mu, 2000)
        sup_upper = bandlimited.grid_bracket(f, f.support_radius, 2048)[1]
        assert upper <= math.sqrt(3.0) * f.support_radius * sup_upper * 1.01

    def test_feeds_schur_bracket(self):
        f = random_trig_polynomial(2.0, 8, seed=9)
        rng = np.random.default_rng(5)
        lam = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        mu = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        a, b, upper = haagerup_factorization(f, "x", lam, mu, 2000)
        kern = divided_difference_kernel(f, "x", lam, mu)
        tail = expansion_tail_bound(
            bandlimited.grid_bracket(f, f.support_radius, 1024)[1], f.support_radius,
            2 * f.support_radius, 2 * f.support_radius, 2000
        )
        lower, up = schur_norm_bracket(kern, (a, b), trials=10, seed=0, factorization_tol=tail)
        assert lower <= up + 1e-8
        assert up <= upper + tail * math.sqrt(36.0) + 1e-9

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_coordinate_on_a_sample_point_gives_derivative(self, axis):
        f = random_trig_polynomial(2.0, 8, seed=9)
        n0, terms = 1, 50
        on = math.pi * n0 / f.support_radius  # the sample point of index n0
        z = on + 0.3j if axis == "x" else 0.3 + on * 1j
        a, b, _ = haagerup_factorization(f, axis, np.array([z]), np.array([z]), terms)
        row = b[0] if axis == "x" else a[0]
        g = slice_x(f, z.imag) if axis == "x" else slice_y(f, z.real)
        want = (-1.0) ** n0 * g.derivative()(on)
        assert abs(row[terms + n0] - want) <= 1e-13 * (1 + abs(want))

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("terms", [3, 2000])
    def test_rows_match_per_row_slices(self, axis, terms):
        f = random_trig_polynomial(4.0, 12, seed=7)
        sigma = f.support_radius
        rng = np.random.default_rng((3, terms))
        pts = rng.uniform(-2, 2, 6) + 1j * rng.uniform(-2, 2, 6)
        # rows whose coordinate along the axis is exactly a sample point pi n / sigma
        on = np.array([math.pi * n / sigma for n in (-2, 0, 1)])
        other = rng.uniform(-1, 1, on.size)
        pts = np.concatenate([pts, on + 1j * other if axis == "x" else other + 1j * on])
        lam, mu = (pts[:2], pts) if axis == "x" else (pts, pts[:2])
        a, b, upper = haagerup_factorization(f, axis, lam, mu, terms)
        basis, dd = (a, b) if axis == "x" else (b, a)
        ns = np.arange(-terms, terms + 1)
        t = math.pi * ns / sigma
        for row, z in zip(dd, pts):
            g = slice_x(f, z.imag) if axis == "x" else slice_y(f, z.real)
            x = z.real if axis == "x" else z.imag
            near = np.abs(x - t) <= 1e-8 * (1.0 + abs(x))
            want = (g(x) - g(t)) / np.where(near, 1.0, x - t)
            want = np.where(near, g.derivative()((x + t) / 2.0), want) * (-1.0) ** ns
            assert np.abs(row - want).max() <= 1e-12 * (1.0 + np.abs(want).max())
        for row, z in zip(basis, pts[:2]):
            assert np.array_equal(row, [sinc_basis(sigma, n, (z.real, z.imag)[axis == "y"])
                                        for n in ns])
        energies = [np.sum(np.abs(m) ** 2, axis=1).max() for m in (a, b)]
        assert upper == pytest.approx(math.sqrt(energies[0] * energies[1]), rel=1e-14)

    def test_bad_axis(self):
        f = random_trig_polynomial(1.0, 4, seed=1)
        with pytest.raises(ValueError):
            haagerup_factorization(f, "t", np.zeros(1, complex), np.zeros(1, complex))
