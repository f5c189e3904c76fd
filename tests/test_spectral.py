import math

import numpy as np
import pytest

from opcalc.bandlimited import random_trig_polynomial
from opcalc.errors import IllSeparatedSpectrumError, NotNormalError
from opcalc.spectral import (
    SpectralDecomposition,
    _gaussian,
    _phase_fixed_q,
    diagonalize,
    functional_calculus,
    normality_defect,
    parts,
    random_normal,
)


class TestNormalityDefect:
    def test_hermitian(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert normality_defect(g + g.conj().T) <= 1e-15

    def test_diagonal(self):
        assert normality_defect(np.diag([1.0 + 2j, -3.0, 0.5j])) == 0.0

    def test_jordan_block(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert abs(normality_defect(m) - math.sqrt(2.0)) <= 1e-15

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError):
            normality_defect(np.ones((2, 3)))


def _reconstruction_residual(dec):
    u = dec.unitary
    return np.linalg.norm((u * dec.eigenvalues) @ u.conj().T - dec.matrix)


class TestDiagonalize:
    def test_diagonal_input(self):
        lam = np.array([2.0 + 1j, -1.0, 0.3 - 0.7j])
        dec = diagonalize(np.diag(lam))
        assert np.abs(np.sort_complex(dec.eigenvalues) - np.sort_complex(lam)).max() <= 1e-12
        # unitary is a permutation with phases
        assert np.abs(np.abs(dec.unitary) - np.eye(3)[:, np.argmax(np.abs(dec.unitary), 0)]).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_recovery(self, seed):
        planted = random_normal(7, (-2, 2, -1, 3), seed=seed)
        dec = diagonalize(planted.matrix)
        got = np.sort_complex(dec.eigenvalues)
        want = np.sort_complex(planted.eigenvalues)
        scale = 1.0 + np.linalg.norm(planted.matrix)
        assert np.abs(got - want).max() <= 1e-10 * scale
        assert _reconstruction_residual(dec) <= 1e-9 * scale

    def test_hermitian_spectrum_real(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        dec = diagonalize(g + g.conj().T)
        assert np.abs(dec.eigenvalues.imag).max() <= 1e-12

    def test_degenerate_real_parts(self):
        # repeated Re-eigenvalues force the second-stage split on Im
        n = np.diag([1.0 + 1j, 1.0 - 1j, 1.0, 2.0])
        u = random_normal(4, seed=9).unitary
        dec = diagonalize(u @ n @ u.conj().T)
        assert np.abs(np.sort_complex(dec.eigenvalues) - np.sort_complex(np.diag(n))).max() <= 1e-10

    def test_fully_degenerate_pairs(self):
        # ties in both coordinates exercise the third-stage cleanup
        n = np.diag([1.0 + 1j, 1.0 + 1j, 1.0 - 1j])
        u = random_normal(3, seed=11).unitary
        dec = diagonalize(u @ n @ u.conj().T)
        assert _reconstruction_residual(dec) <= 1e-10 * (1 + np.linalg.norm(n))

    def test_non_normal_rejected(self):
        with pytest.raises(NotNormalError) as info:
            diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert info.value.defect > 1.0


class TestFunctionalCalculus:
    def test_identity_function(self):
        dec = random_normal(6, seed=2)
        assert np.linalg.norm(functional_calculus(lambda z: z, dec) - dec.matrix) <= 1e-12

    def test_constant_function(self):
        dec = random_normal(5, seed=4)
        assert np.linalg.norm(functional_calculus(lambda z: 1.0, dec) - np.eye(5)) <= 1e-12

    def test_conjugation_gives_adjoint(self):
        dec = random_normal(6, (-1, 1, -2, 2), seed=6)
        got = functional_calculus(np.conj, dec)
        assert np.linalg.norm(got - dec.matrix.conj().T) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_homomorphism_on_polynomials(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f = lambda z: a[0] + a[1] * z + a[2] * z**2 + a[3] * z**3
        g = lambda z: b[0] + b[1] * z + b[2] * z**2 + b[3] * z**3
        dec = random_normal(6, seed=100 + seed)
        fg = functional_calculus(lambda z: f(z) * g(z), dec)
        sep = functional_calculus(f, dec) @ functional_calculus(g, dec)
        assert np.linalg.norm(fg - sep) <= 1e-9 * (1 + np.linalg.norm(fg))

    def test_norm_equals_spectral_sup(self):
        dec = random_normal(8, seed=7)
        f = lambda z: np.exp(1j * z.real) + z
        got = np.linalg.norm(functional_calculus(f, dec), 2)
        want = max(abs(f(z)) for z in dec.eigenvalues)
        assert abs(got - want) <= 1e-9

    @pytest.mark.parametrize("dim", [1, 8, 64])
    def test_trig_polynomial_matches_pointwise_oracle(self, dim):
        f = random_trig_polynomial(4.0, 12, seed=dim, decay=1.0)
        dec = random_normal(dim, (-2, 2, -2, 2), seed=dim)
        fvals = np.array([complex(f(z)) for z in dec.eigenvalues])
        want = (dec.unitary * fvals) @ dec.unitary.conj().T
        got = functional_calculus(f, dec)
        assert np.abs(got - want).max() <= 1e-13 * (1.0 + np.abs(fvals).max())

    @pytest.mark.parametrize("dim", [1, 8, 64])
    def test_f_called_once_on_the_spectrum(self, dim):
        f = random_trig_polynomial(2.0, 8, seed=1)
        shapes = []

        def counted(z):
            shapes.append(np.shape(z))
            return f(z)

        functional_calculus(counted, random_normal(dim, seed=dim))
        assert shapes == [(dim,)]


class TestRandomNormal:
    def test_deterministic(self):
        a = random_normal(5, (-1, 2, 0, 1), seed=42)
        b = random_normal(5, (-1, 2, 0, 1), seed=42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_constructed_normal(self):
        dec = random_normal(9, seed=1)
        assert normality_defect(dec.matrix) <= 1e-12

    def test_spectrum_in_box(self):
        dec = random_normal(20, (-1.0, 2.0, 0.5, 3.0), seed=5)
        lam = dec.eigenvalues
        assert lam.real.min() >= -1.0 and lam.real.max() <= 2.0
        assert lam.imag.min() >= 0.5 and lam.imag.max() <= 3.0

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            random_normal(0, seed=0)


class TestParts:
    def test_hermitian_has_zero_imaginary_part(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((4, 4))
        _, b = parts(g + g.T + 0j)
        assert np.linalg.norm(b) <= 1e-15

    def test_i_times_identity(self):
        a, b = parts(1j * np.eye(3))
        assert np.linalg.norm(a) == 0.0
        assert np.linalg.norm(b - np.eye(3)) == 0.0

    @pytest.mark.parametrize("seed", range(0, 100, 10))
    def test_parts_dominated_by_whole(self, seed):
        dec = random_normal(6, (-2, 2, -2, 2), seed=seed)
        a, b = parts(dec)
        n_norm = np.linalg.norm(dec.matrix, 2)
        assert np.linalg.norm(a, 2) <= n_norm + 1e-12
        assert np.linalg.norm(b, 2) <= n_norm + 1e-12
        assert np.linalg.norm(a + 1j * b - dec.matrix) <= 1e-13 * (1 + n_norm)


class TestVerify:
    def test_non_unitary_basis_rejected(self):
        dec = random_normal(4, seed=3)
        bad_u = dec.unitary.copy()
        bad_u[0, 0] += 9e9
        with pytest.raises(IllSeparatedSpectrumError):
            SpectralDecomposition(bad_u, dec.eigenvalues).verify()


class TestStackedLapack:
    """A stack of matrices is factored matrix by matrix: stacked and single calls agree bitwise."""

    SHAPES = [(n, k) for n in (1, 2, 3, 7, 8, 16) for k in (1, 2, 17, 256)]
    SHAPES += [(n, k) for n in (32, 64) for k in (1, 2, 17)]

    @pytest.mark.parametrize("n, k", SHAPES)
    def test_qr_and_svd(self, n, k):
        rng = np.random.default_rng((n, k))
        stack = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
        unitaries = _phase_fixed_q(stack)
        spectra = np.linalg.svd(stack, compute_uv=False)
        for g, u, s in zip(stack, unitaries, spectra):
            q, r = np.linalg.qr(g)
            d = np.diagonal(r)
            assert np.array_equal(u, q * (d / np.abs(d)))
            assert np.array_equal(s, np.linalg.svd(g, compute_uv=False))

    def test_random_normal_draws_eigenvalues_then_gaussian(self):
        dec = random_normal(4, seed=8)
        rng = np.random.default_rng(8)
        lam = rng.uniform(-1.0, 1.0, 4) + 1j * rng.uniform(-1.0, 1.0, 4)
        assert np.array_equal(dec.eigenvalues, lam)
        assert np.array_equal(dec.unitary, _phase_fixed_q(_gaussian(4, rng)))


# (dim, stack size): dims 1 to 8, and a dim-64 stack whose spectra (4096 points)
# pass the one-shot limit and a block of points, and whose stacks are large
# enough for numpy to reuse temporaries in place
STACKS = [(n, 9) for n in range(1, 9)] + [(64, 64)]


def _decomposition_stack(n, k, seed):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-2.0, 2.0, (k, n)) + 1j * rng.uniform(-2.0, 2.0, (k, n))
    gaussians = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    return SpectralDecomposition(_phase_fixed_q(gaussians), lam)


def _alone(dec, i):
    """The i-th decomposition of a stack, from copies, as its own call would get it."""
    return SpectralDecomposition(dec.unitary[i].copy(), dec.eigenvalues[i].copy())


class TestStacks:
    """Each routine that takes a stack gives every member the bits of its own call."""

    @pytest.mark.parametrize("n, k", STACKS)
    def test_matrix_parts_and_functional_calculus(self, n, k):
        dec = _decomposition_stack(n, k, n)
        # 12 terms: one-shot per spectrum; 40 terms at dim 64: factored per spectrum
        fs = [random_trig_polynomial(4.0, 12, seed=n), random_trig_polynomial(4.0, 40, seed=n)]
        a, b = parts(dec)
        values = [functional_calculus(f, dec) for f in fs]
        for i in range(k):
            one = _alone(dec, i)
            assert np.array_equal(dec.matrix[i], one.matrix)
            assert np.array_equal(dec[i].matrix, one.matrix)
            assert np.array_equal(dec[i].unitary, one.unitary)
            a1, b1 = parts(one)
            assert np.array_equal(a[i], a1) and np.array_equal(b[i], b1)
            for f, got in zip(fs, values):
                assert np.array_equal(got[i], functional_calculus(f, one))

    def test_f_called_once_on_the_stack(self):
        dec = _decomposition_stack(3, 5, 0)
        shapes = []

        def counted(z):
            shapes.append(np.shape(z))
            return np.sin(z.real)

        functional_calculus(counted, dec)
        assert shapes == [(5, 3)]

    def test_verify_checks_every_member(self):
        dec = _decomposition_stack(4, 3, 1)
        dec.verify()
        bad_u = dec.unitary.copy()
        bad_u[2, 0, 0] += 1e-3
        with pytest.raises(IllSeparatedSpectrumError):
            SpectralDecomposition(bad_u, dec.eigenvalues).verify()
