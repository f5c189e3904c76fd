"""Double operator integrals over finite spectral measures.

In the eigenbases of two normal matrices the double operator integral with
kernel Phi acts as U1 (Phi o (U1* T U2)) U2*, an entrywise (Hadamard)
multiplication.  The kernels of interest are the coordinate divided
differences of a band-limited function, for which

    f(N1) - f(N2) = DOI(d_y f)[B1 - B2] + DOI(d_x f)[A1 - A2]

holds exactly, and more generally with a bounded factor R,

    f(N1) R - R f(N2) = DOI(d_y f)[B1 R - R B2] + DOI(d_x f)[A1 R - R A2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandlimited import TrigPolynomial, divided_difference
from .errors import FactorizationError
from .spectral import SpectralDecomposition, parts


@dataclass(frozen=True)
class DoiKernel:
    """Kernel sampled on spectral pairs: values[j, k] = Phi(rows[j], cols[k])."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.rows.size, self.cols.size):
            raise ValueError(
                f"kernel shape {self.values.shape} does not match "
                f"{self.rows.size} x {self.cols.size} spectra"
            )


def divided_difference_kernel(
    f: TrigPolynomial,
    axis: str,
    lam: np.ndarray,
    mu: np.ndarray,
) -> DoiKernel:
    """Coordinate divided difference of f sampled on eigenvalue pairs.

    Axis "x" gives (f(x1, y2) - f(x2, y2))/(x1 - x2); axis "y" gives
    (f(x1, y1) - f(x1, y2))/(y1 - y2), by ``divided_difference``'s one
    formula, which gives the partial derivative where the coordinates agree.
    """
    lam = np.asarray(lam, dtype=complex)
    mu = np.asarray(mu, dtype=complex)
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    x1, y1 = lam.real[:, None], lam.imag[:, None]
    x2, y2 = mu.real[None, :], mu.imag[None, :]
    a, b, held = (x1, x2, y2) if axis == "x" else (y1, y2, x1)
    values = divided_difference(f, a, b, axis, held)
    return DoiKernel(rows=lam, cols=mu, values=values)


def doi_apply(
    phi: DoiKernel,
    d1: SpectralDecomposition,
    t: np.ndarray,
    d2: SpectralDecomposition,
) -> np.ndarray:
    """U1 (Phi o (U1* T U2)) U2* — the finite-spectrum double operator integral."""
    if not np.array_equal(phi.rows, d1.eigenvalues) or not np.array_equal(
        phi.cols, d2.eigenvalues
    ):
        raise ValueError("kernel spectra do not match the decompositions")
    t = np.asarray(t, dtype=complex)
    if t.shape != (d1.dim, d2.dim):
        raise ValueError(f"factor shape {t.shape} incompatible with decompositions")
    u1, u2 = d1.unitary, d2.unitary
    return u1 @ (phi.values * (u1.conj().T @ t @ u2)) @ u2.conj().T


def difference_via_doi(
    f: TrigPolynomial,
    d1: SpectralDecomposition,
    d2: SpectralDecomposition,
) -> np.ndarray:
    """Right-hand side of the difference identity for f(N1) - f(N2).

    The R = I case of ``quasicommutator_via_doi`` (products with I are exact).
    """
    return quasicommutator_via_doi(f, d1, d2, np.eye(d1.dim, dtype=complex))


def quasicommutator_via_doi(
    f: TrigPolynomial,
    d1: SpectralDecomposition,
    d2: SpectralDecomposition,
    r: np.ndarray,
) -> np.ndarray:
    """Right-hand side of the quasicommutator identity for f(N1) R - R f(N2)."""
    r = np.asarray(r, dtype=complex)
    if r.shape != (d1.dim, d2.dim):
        raise ValueError(f"factor shape {r.shape} incompatible with decompositions")
    a1, b1 = parts(d1)
    a2, b2 = parts(d2)
    ky = divided_difference_kernel(f, "y", d1.eigenvalues, d2.eigenvalues)
    kx = divided_difference_kernel(f, "x", d1.eigenvalues, d2.eigenvalues)
    return doi_apply(ky, d1, b1 @ r - r @ b2, d2) + doi_apply(
        kx, d1, a1 @ r - r @ a2, d2
    )


def schur_norm_bracket(
    phi: DoiKernel,
    factorization: tuple[np.ndarray, np.ndarray] | None = None,
    trials: int = 25,
    seed: int = 0,
    factorization_tol: float | None = None,
) -> tuple[float, float | None]:
    """Bracket for the Schur multiplier norm of the kernel on operator norm.

    The lower bound maximizes ||Phi o T|| / ||T|| over structured and seeded
    random trial matrices; the upper bound, available when a factorization
    Phi[j,k] = sum_n A[j,n] B[k,n] is supplied, is the product of maximal
    row energies of the factors plus the entrywise residual contribution.
    ``factorization_tol`` relaxes the default 1e-10-of-scale validation for
    truncated expansions whose tail bound is known.
    """
    v = phi.values
    m, n = v.shape
    upper = None
    if factorization is not None:
        a, b = factorization
        resid = float(np.abs(a @ b.T - v).max())
        scale = max(float(np.abs(v).max()), 1.0)
        tol = 1e-10 * scale if factorization_tol is None else factorization_tol
        if resid > tol:
            raise FactorizationError(resid)
        row_a = math.sqrt(float(np.max(np.sum(np.abs(a) ** 2, axis=1))))
        row_b = math.sqrt(float(np.max(np.sum(np.abs(b) ** 2, axis=1))))
        # an entrywise perturbation of size r has multiplier norm <= r sqrt(mn)
        upper = row_a * row_b + resid * math.sqrt(m * n)
    lower = float(np.abs(v).max())

    def ratio(t):
        denom = np.linalg.norm(t, 2)
        return np.linalg.norm(v * t, 2) / denom if denom > 0 else 0.0

    candidates = [np.ones((m, n), dtype=complex)]
    if m == n:
        candidates.append(np.eye(m, dtype=complex))
    # rank-one probes with phases aligned to the strongest column and row
    k0 = int(np.argmax(np.sum(np.abs(v) ** 2, axis=0)))
    col = v[:, k0]
    probe = np.zeros((m, n), dtype=complex)
    probe[:, k0] = np.where(np.abs(col) > 0, col.conj() / np.maximum(np.abs(col), 1e-300), 1.0)
    candidates.append(probe)
    j0 = int(np.argmax(np.sum(np.abs(v) ** 2, axis=1)))
    row = v[j0, :]
    probe = np.zeros((m, n), dtype=complex)
    probe[j0, :] = np.where(np.abs(row) > 0, row.conj() / np.maximum(np.abs(row), 1e-300), 1.0)
    candidates.append(probe)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        candidates.append(
            rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        )
    for t in candidates:
        lower = max(lower, float(ratio(t)))
    if upper is not None and lower > upper + 1e-8:
        raise FactorizationError(lower - upper)
    return lower, upper
