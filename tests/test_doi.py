import math

import numpy as np
import pytest

from opcalc.bandlimited import TrigPolynomial, partial_derivative, random_trig_polynomial
from opcalc.doi import (
    DoiKernel,
    difference_via_doi,
    divided_difference_kernel,
    doi_apply,
    quasicommutator_via_doi,
    schur_norm_bracket,
)
from opcalc.errors import FactorizationError
from opcalc.ideals import schatten_sum, singular_values
from opcalc.spectral import SpectralDecomposition, _phase_fixed_q, functional_calculus, random_normal

# f(x, y) = x and f(x, y) = y on a coarse lattice covering the spectra used below
F_X = TrigPolynomial(0.05, {(1, 0): 0.5 / (1j * 0.05), (-1, 0): -0.5 / (1j * 0.05)})


def linear_poly(h=0.5):
    # sin(h x)/h + sin(h y)/h: equals x + y to third order; exact dd tests
    # instead use genuinely band-limited functions below.
    return TrigPolynomial(
        h,
        {
            (1, 0): 0.5 / (1j * h),
            (-1, 0): -0.5 / (1j * h),
            (0, 1): 0.5 / (1j * h),
            (0, -1): -0.5 / (1j * h),
        },
    )


class TestDividedDifferenceKernel:
    def test_x_independent_function_has_zero_x_kernel(self):
        f = TrigPolynomial(1.0, {(0, 1): 2.0, (0, 2): -1.0})
        lam = np.array([0.1 + 0.2j, -0.3 + 1j])
        mu = np.array([0.5 - 0.1j, 0.2 + 0.4j, 0.0j])
        k = divided_difference_kernel(f, "x", lam, mu)
        assert np.abs(k.values).max() <= 1e-14

    def test_y_independent_function_has_zero_y_kernel(self):
        f = TrigPolynomial(1.0, {(1, 0): 1.0})
        lam = np.array([0.1 + 0.2j])
        mu = np.array([0.5 - 0.1j, 0.2 + 0.4j])
        k = divided_difference_kernel(f, "y", lam, mu)
        assert np.abs(k.values).max() <= 1e-14

    def test_single_exponential_entry(self):
        f = TrigPolynomial(1.0, {(1, 0): 1.0})  # exp(ix)
        k = divided_difference_kernel(f, "x", np.array([0.0j]), np.array([math.pi + 0.0j]))
        want = (1.0 - (-1.0)) / (0.0 - math.pi)
        assert abs(k.values[0, 0] - want) <= 1e-14

    def test_near_diagonal_uses_derivative(self):
        f = random_trig_polynomial(3.0, 10, seed=1)
        z = 0.4 + 0.3j
        lam = np.array([z])
        mu = np.array([z + 1e-12])
        k = divided_difference_kernel(f, "x", lam, mu)
        from opcalc.bandlimited import partial_derivative

        dx = partial_derivative(f, "x")
        assert abs(k.values[0, 0] - dx((z.real + z.real + 1e-12) / 2 + 1j * z.imag)) <= 1e-12

    def test_near_coincident_y_uses_derivative(self):
        f = random_trig_polynomial(3.0, 10, seed=4)
        lam = np.array([0.4 + 0.3j, -0.2 + 0.9j])
        mu = np.array([-0.5 + (0.3 + 1e-12) * 1j, 0.1 - 0.7j])
        k = divided_difference_kernel(f, "y", lam, mu)  # default tolerance >> 1e-12
        dy = partial_derivative(f, "y")
        want = dy.eval(0.4, (0.3 + mu[0].imag) / 2)
        # the quotient itself would lose ~4 of its 16 digits to cancellation
        assert abs(k.values[0, 0] - want) <= 1e-13 * (1 + abs(want))
        x1, y1, y2 = lam[1].real, lam[1].imag, mu[1].imag
        quotient = (f.eval(x1, y1) - f.eval(x1, y2)) / (y1 - y2)
        assert abs(k.values[1, 1] - quotient) <= 1e-13 * (1 + abs(quotient))

    def test_consistency_invariant_off_diagonal(self):
        f = random_trig_polynomial(2.0, 8, seed=2)
        rng = np.random.default_rng(3)
        lam = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
        mu = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
        k = divided_difference_kernel(f, "x", lam, mu)
        x1 = lam.real[:, None]
        x2, y2 = mu.real[None, :], mu.imag[None, :]
        gap = np.abs(x1 - x2)
        recon = k.values * (x1 - x2)
        direct = f.eval(x1, y2) - f.eval(x2, y2)
        scale = 1 + np.abs(direct).max()
        mask = gap > 1e-7 * (1 + np.abs(lam.real).max() + np.abs(mu.real).max())
        assert np.abs((recon - direct)[mask]).max() <= 1e-12 * scale

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            DoiKernel(np.zeros(2, complex), np.zeros(3, complex), np.zeros((2, 2), complex))


class TestDoiApply:
    def test_unit_kernel_is_identity(self):
        d1 = random_normal(4, seed=1)
        d2 = random_normal(4, seed=2)
        phi = DoiKernel(d1.eigenvalues, d2.eigenvalues, np.ones((4, 4), complex))
        t = np.arange(16.0).reshape(4, 4) + 0j
        assert np.linalg.norm(doi_apply(phi, d1, t, d2) - t) <= 1e-12 * np.linalg.norm(t)

    def test_row_kernel_is_left_multiplication(self):
        d1 = random_normal(4, seed=3)
        d2 = random_normal(4, seed=4)
        phi = DoiKernel(
            d1.eigenvalues,
            d2.eigenvalues,
            np.broadcast_to(d1.eigenvalues[:, None], (4, 4)).copy(),
        )
        rng = np.random.default_rng(0)
        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        got = doi_apply(phi, d1, t, d2)
        assert np.linalg.norm(got - d1.matrix @ t) <= 1e-10 * np.linalg.norm(t)

    @pytest.mark.parametrize("seed", range(0, 100, 2))
    def test_hilbert_schmidt_contraction(self, seed):
        rng = np.random.default_rng(seed)
        d1 = random_normal(5, rng=rng, seed=None)
        d2 = random_normal(5, rng=rng, seed=None)
        vals = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        phi = DoiKernel(d1.eigenvalues, d2.eigenvalues, vals)
        t = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        lhs = np.linalg.norm(doi_apply(phi, d1, t, d2))
        assert lhs <= np.abs(vals).max() * np.linalg.norm(t) * (1 + 1e-12)

    def test_spectra_must_match(self):
        d1 = random_normal(3, seed=5)
        d2 = random_normal(3, seed=6)
        phi = DoiKernel(d2.eigenvalues, d1.eigenvalues, np.ones((3, 3), complex))
        with pytest.raises(ValueError):
            doi_apply(phi, d1, np.eye(3, dtype=complex), d2)


class TestDifferenceIdentity:
    def test_additive_coordinates(self):
        f = linear_poly(0.3)
        d1 = random_normal(5, (-0.5, 0.5, -0.5, 0.5), seed=7)
        d2 = random_normal(5, (-0.5, 0.5, -0.5, 0.5), seed=8)
        lhs = functional_calculus(f, d1) - functional_calculus(f, d2)
        rhs = difference_via_doi(f, d1, d2)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(lhs))

    def test_constant_gives_zero(self):
        f = TrigPolynomial.constant(3.0 + 1j)
        d1 = random_normal(4, seed=9)
        d2 = random_normal(4, seed=10)
        assert np.linalg.norm(difference_via_doi(f, d1, d2)) <= 1e-13

    @pytest.mark.parametrize("seed", range(25))
    def test_oracle_residual(self, seed):
        rng = np.random.default_rng((55, seed))
        f = random_trig_polynomial(4.0, 12, seed=None, rng=rng)
        dim = int(rng.integers(2, 9))
        d1 = random_normal(dim, rng=rng, seed=None)
        d2 = random_normal(dim, rng=rng, seed=None)
        f1 = functional_calculus(f, d1)
        f2 = functional_calculus(f, d2)
        rhs = difference_via_doi(f, d1, d2)
        scale = 1 + np.linalg.norm(f1) + np.linalg.norm(f2)
        assert np.linalg.norm(f1 - f2 - rhs) <= 1e-9 * scale

    def test_telescoping_numerator_kernels_agree(self):
        f = random_trig_polynomial(2.0, 8, seed=12)
        rng = np.random.default_rng(5)
        d1 = random_normal(4, rng=rng, seed=None)
        d2 = random_normal(4, rng=rng, seed=None)
        lam, mu = d1.eigenvalues, d2.eigenvalues
        ky = divided_difference_kernel(f, "y", lam, mu)
        y1, y2 = lam.imag[:, None], mu.imag[None, :]
        scaled = DoiKernel(lam, mu, ky.values * (y1 - y2))
        direct = DoiKernel(
            lam, mu, f.eval(lam.real[:, None], y1) - f.eval(lam.real[:, None], y2)
        )
        assert np.abs(scaled.values - direct.values).max() <= 1e-10
        eye = np.eye(4, dtype=complex)
        got = doi_apply(scaled, d1, eye, d2)
        want = doi_apply(direct, d1, eye, d2)
        assert np.linalg.norm(got - want) <= 1e-10


class TestQuasicommutatorIdentity:
    def test_reduces_to_difference_at_identity(self):
        f = random_trig_polynomial(3.0, 10, seed=14)
        d1 = random_normal(4, seed=15)
        d2 = random_normal(4, seed=16)
        eye = np.eye(4, dtype=complex)
        a = quasicommutator_via_doi(f, d1, d2, eye)
        b = difference_via_doi(f, d1, d2)
        assert np.linalg.norm(a - b) <= 1e-12 * (1 + np.linalg.norm(b))

    def test_commutator_of_diagonals_vanishes(self):
        f = random_trig_polynomial(2.0, 8, seed=17)
        from opcalc.spectral import diagonalize

        n = np.diag([0.3 + 0.1j, -0.5 + 0.8j, 1.0 - 0.4j])
        d = diagonalize(n)
        r = np.diag([2.0, -1.0, 0.5]) + 0j
        lhs = functional_calculus(f, d) @ r - r @ functional_calculus(f, d)
        rhs = quasicommutator_via_doi(f, d, d, r)
        assert np.linalg.norm(lhs) <= 1e-12
        assert np.linalg.norm(rhs) <= 1e-10

    @pytest.mark.parametrize("seed", range(20))
    def test_oracle_residual(self, seed):
        rng = np.random.default_rng((66, seed))
        f = random_trig_polynomial(4.0, 10, seed=None, rng=rng)
        dim = int(rng.integers(2, 9))
        d1 = random_normal(dim, rng=rng, seed=None)
        d2 = random_normal(dim, rng=rng, seed=None)
        r = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        lhs = functional_calculus(f, d1) @ r - r @ functional_calculus(f, d2)
        rhs = quasicommutator_via_doi(f, d1, d2, r)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1 + np.linalg.norm(lhs))

    def test_shape_mismatch(self):
        f = random_trig_polynomial(2.0, 6, seed=18)
        d1 = random_normal(3, seed=19)
        d2 = random_normal(3, seed=20)
        with pytest.raises(ValueError):
            quasicommutator_via_doi(f, d1, d2, np.eye(4, dtype=complex))


def _pair_stack(n, k, seed):
    """Stacks of k decompositions for N1 and N2, and k factors R."""
    rng = np.random.default_rng(seed)

    def gaussians():
        return rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))

    def spectra():
        return rng.uniform(-1.0, 1.0, (k, n)) + 1j * rng.uniform(-1.0, 1.0, (k, n))

    d1 = SpectralDecomposition(_phase_fixed_q(gaussians()), spectra())
    d2 = SpectralDecomposition(_phase_fixed_q(gaussians()), spectra())
    return d1, d2, gaussians()


def _alone(dec, i):
    return SpectralDecomposition(dec.unitary[i].copy(), dec.eigenvalues[i].copy())


class TestStacks:
    """Stacked kernels, DOI products and identity sides equal each member's own call bitwise.

    Dims 1 to 8, and a dim-64 stack large enough for numpy to reuse its
    temporaries in place.
    """

    @pytest.mark.parametrize("n, k", [(n, 9) for n in range(1, 9)] + [(64, 64)])
    def test_routines_equal_their_own_calls(self, n, k):
        f = random_trig_polynomial(8.0, 12, seed=n)
        d1, d2, r = _pair_stack(n, k, n)
        kernels = {axis: divided_difference_kernel(f, axis, d1.eigenvalues, d2.eigenvalues)
                   for axis in "xy"}
        applied = doi_apply(kernels["x"], d1, r, d2)
        quasi = quasicommutator_via_doi(f, d1, d2, r)
        diff = difference_via_doi(f, d1, d2)
        for i in range(k):
            e1, e2, t = _alone(d1, i), _alone(d2, i), r[i].copy()
            alone = {axis: divided_difference_kernel(f, axis, e1.eigenvalues, e2.eigenvalues)
                     for axis in "xy"}
            for axis, kernel in kernels.items():
                assert np.array_equal(kernel.values[i], alone[axis].values)
            assert np.array_equal(applied[i], doi_apply(alone["x"], e1, t, e2))
            assert np.array_equal(quasi[i], quasicommutator_via_doi(f, e1, e2, t))
            assert np.array_equal(diff[i], difference_via_doi(f, e1, e2))

    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_one_function_per_pair(self, n):
        d1, d2, _ = _pair_stack(n, 4, 100 + n)
        fs = [random_trig_polynomial(4.0, 12, seed=s) for s in range(4)]
        kernel = divided_difference_kernel(fs, "y", d1.eigenvalues, d2.eigenvalues)
        diff = difference_via_doi(fs, d1, d2)
        for i, f in enumerate(fs):
            e1, e2 = _alone(d1, i), _alone(d2, i)
            want = divided_difference_kernel(f, "y", e1.eigenvalues, e2.eigenvalues)
            assert np.array_equal(kernel.values[i], want.values)
            assert np.array_equal(diff[i], difference_via_doi(f, e1, e2))
        with pytest.raises(ValueError):
            divided_difference_kernel(fs[:3], "y", d1.eigenvalues, d2.eigenvalues)

    def test_stack_shapes_checked(self):
        d1, d2, r = _pair_stack(3, 4, 7)
        with pytest.raises(ValueError):
            quasicommutator_via_doi(F_X, d1, d2, r[:3])
        with pytest.raises(ValueError):
            DoiKernel(d1.eigenvalues, d2.eigenvalues[:3], np.zeros((4, 3, 3), complex))


class TestSchurBracket:
    def test_unit_kernel_rank_one(self):
        lam = np.zeros(3, complex)
        phi = DoiKernel(lam, lam, np.ones((3, 3), complex))
        fact = (np.ones((3, 1)), np.ones((3, 1)))
        lower, upper = schur_norm_bracket(phi, fact)
        assert abs(lower - 1.0) <= 1e-12
        assert abs(upper - 1.0) <= 1e-10

    def test_rank_one_kernel(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        phi = DoiKernel(np.zeros(4, complex), np.zeros(5, complex), np.outer(a, b))
        lower, upper = schur_norm_bracket(phi, (a[:, None], b[:, None]))
        want = np.abs(a).max() * np.abs(b).max()
        assert abs(upper - want) <= 1e-10
        assert lower <= upper + 1e-8
        assert lower >= want - 1e-10  # the largest entry already attains it

    def test_invalid_factorization_rejected(self):
        phi = DoiKernel(np.zeros(2, complex), np.zeros(2, complex), np.eye(2, dtype=complex))
        with pytest.raises(FactorizationError):
            schur_norm_bracket(phi, (np.ones((2, 2)), np.ones((2, 2))))

    def test_lower_never_exceeds_upper(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
            b = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
            phi = DoiKernel(np.zeros(4, complex), np.zeros(5, complex), a @ b.T)
            lower, upper = schur_norm_bracket(phi, (a, b), trials=10, seed=3)
            assert lower <= upper + 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_trace_norm_transfer(self, seed):
        # a factorization upper bounds the transformer on the trace class too
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        b = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        vals = a @ b.T
        d1 = random_normal(5, rng=rng, seed=None)
        d2 = random_normal(5, rng=rng, seed=None)
        phi = DoiKernel(d1.eigenvalues, d2.eigenvalues, vals)
        _, upper = schur_norm_bracket(phi, (a, b), trials=5, seed=seed)
        for _ in range(10):
            t = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            lhs = schatten_sum(singular_values(doi_apply(phi, d1, t, d2)), 1.0)
            assert lhs <= upper * schatten_sum(singular_values(t), 1.0) * (1 + 1e-9)
