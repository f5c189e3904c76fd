"""Normal matrices, certified diagonalization, and functional calculus.

The decomposition here is the brute-force oracle the rest of the package is
checked against: N = U diag(lambda) U* with re-verified unitarity,
reconstruction, and commuting Hermitian parts.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import IllSeparatedSpectrumError, NotNormalError

_NORMALITY_TOL = 1e-8
_UNITARY_TOL = 1e-10
_RECON_TOL = 1e-9
_COMMUTE_TOL = 1e-9


class SpectralDecomposition:
    """N = U diag(lambda) U* for a normal matrix N; ``verify`` re-checks it.

    ``matrix`` is N as given, or, when none is given, U diag(lambda) U*
    formed when it is first read, so a caller that needs only the
    eigenbasis never pays for the product.  A stack of k decompositions
    holds a (k, n, n) unitary and (k, n) eigenvalues; ``dec[i]`` is its
    i-th decomposition, and every routine that takes a stack gives each
    member the values of its own call.  Attributes are read-only.
    """

    def __init__(self, unitary: np.ndarray, eigenvalues: np.ndarray,
                 matrix: np.ndarray | None = None):
        object.__setattr__(self, "unitary", unitary)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        if matrix is not None:
            self.__dict__["matrix"] = matrix

    def __setattr__(self, name, value):
        raise AttributeError("SpectralDecomposition is immutable")

    def __getitem__(self, i) -> "SpectralDecomposition":
        return SpectralDecomposition(self.unitary[i], self.eigenvalues[i],
                                     None if "matrix" not in self.__dict__ else self.matrix[i])

    @cached_property
    def matrix(self) -> np.ndarray:
        return (self.unitary * self.eigenvalues[..., None, :]) @ _adjoint(self.unitary)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def verify(self) -> None:
        """Re-check the defining invariants, of each member of a stack; raise on violation."""
        if self.eigenvalues.ndim > 1:
            for i in range(len(self.eigenvalues)):
                self[i].verify()
            return
        n = self.dim
        u = self.unitary
        ortho = np.linalg.norm(u.conj().T @ u - np.eye(n))
        if ortho > _UNITARY_TOL * np.sqrt(n):
            raise IllSeparatedSpectrumError(f"unitarity defect {ortho:.3e}")
        scale = 1.0 + np.linalg.norm(self.matrix)
        recon = np.linalg.norm(
            (u * self.eigenvalues) @ u.conj().T - self.matrix
        )
        if recon > _RECON_TOL * scale:
            raise IllSeparatedSpectrumError(f"reconstruction residual {recon:.3e}")
        a, b = parts(self)
        comm = np.linalg.norm(a @ b - b @ a)
        if comm > _COMMUTE_TOL * max(np.linalg.norm(self.matrix) ** 2, 1e-300):
            raise NotNormalError(comm, _COMMUTE_TOL)


def _adjoint(m: np.ndarray) -> np.ndarray:
    """M* of a matrix, or of each matrix of a (k, n, n) stack (a transposed view of the conjugate)."""
    return m.conj().swapaxes(-1, -2)


def normality_defect(m: np.ndarray) -> float:
    """|| M M* - M* M ||_F normalized by max(||M||_F^2, tiny)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    comm = m @ m.conj().T - m.conj().T @ m
    denom = max(np.linalg.norm(m) ** 2, 1e-300)
    return float(np.linalg.norm(comm) / denom)


def parts(dec: SpectralDecomposition | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian real/imaginary parts (A, B) with N = A + iB, of a matrix or of a stack."""
    n = dec.matrix if isinstance(dec, SpectralDecomposition) else np.asarray(dec, dtype=complex)
    a = (n + _adjoint(n)) / 2.0
    b = (n - _adjoint(n)) / 2.0j
    return a, b


def _clusters(values: np.ndarray, radius: float) -> list[np.ndarray]:
    """Group sorted-value indices into chains with gaps <= radius."""
    order = np.argsort(values)
    groups: list[list[int]] = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] <= radius:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return [np.array(g) for g in groups]


def diagonalize(n: np.ndarray) -> SpectralDecomposition:
    """Simultaneously diagonalize the commuting Hermitian parts of N.

    Stage one diagonalizes A = Re N; within each eigenvalue cluster of A the
    compressed B = Im N is diagonalized, and residual near-ties in B are
    cleaned up by a third compression of A.  Eigenvalues of A within one
    cluster (radius 1e-8 * (1 + spread)) are treated as equal.  N must be
    normal to 1e-8 (``normality_defect``), else ``NotNormalError``.
    """
    n = np.asarray(n, dtype=complex)
    defect = normality_defect(n)
    if defect > _NORMALITY_TOL:
        raise NotNormalError(defect, _NORMALITY_TOL)
    a, b = parts(n)
    avals, u = np.linalg.eigh(a)
    spread = float(avals[-1] - avals[0]) if len(avals) > 1 else 0.0
    radius = 1e-8 * (1.0 + spread)
    for grp in _clusters(avals, radius):
        if len(grp) == 1:
            continue
        sub = u[:, grp]
        bc = sub.conj().T @ b @ sub
        bc = (bc + bc.conj().T) / 2.0
        bvals, q = np.linalg.eigh(bc)
        u[:, grp] = sub @ q
        # refine within b-ties so the a-part stays diagonal there
        bspread = float(bvals[-1] - bvals[0]) if len(bvals) > 1 else 0.0
        bradius = 1e-8 * (1.0 + bspread)
        for sub_grp in _clusters(bvals, bradius):
            if len(sub_grp) == 1:
                continue
            cols = grp[sub_grp]
            sub2 = u[:, cols]
            ac = sub2.conj().T @ a @ sub2
            ac = (ac + ac.conj().T) / 2.0
            _, q2 = np.linalg.eigh(ac)
            u[:, cols] = sub2 @ q2
    lam = np.einsum("ji,jk,ki->i", u.conj(), n, u)
    dec = SpectralDecomposition(matrix=n, unitary=u, eigenvalues=lam)
    try:
        dec.verify()
    except (IllSeparatedSpectrumError, NotNormalError) as exc:
        raise IllSeparatedSpectrumError(
            f"ill-separated spectrum: {exc} (cluster radius {radius:.3e})"
        ) from exc
    return dec


def functional_calculus(f, dec: SpectralDecomposition) -> np.ndarray:
    """f(N) = U diag(f(lambda_j)) U* for a function on the spectrum.

    ``f`` is called once, on the complex array of eigenvalues ((k, n) for a
    stack of decompositions, giving a (k, n, n) stack), and must accept an
    array: it returns either one value per eigenvalue or a scalar, which is
    broadcast (so ``lambda z: 1.0`` gives the identity).  A ``TrigPolynomial``
    gives each spectrum of a stack the values of its own call.
    """
    lam = dec.eigenvalues
    fvals = np.broadcast_to(np.asarray(f(lam), dtype=complex), lam.shape)
    return (dec.unitary * fvals[..., None, :]) @ _adjoint(dec.unitary)


def _gaussian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A dim x dim complex Gaussian matrix: the real part drawn first, then the imaginary part."""
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _phase_fixed_q(g: np.ndarray) -> np.ndarray:
    """Q of g = QR, columns scaled so that R's diagonal is positive; a (k, n, n) stack in one call.

    LAPACK factors a stack matrix by matrix, so each Q equals that of its
    own call bit for bit.
    """
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _normal_draw(dim: int, spectrum_box: tuple[float, float, float, float],
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``random_normal``'s draws in its order: the eigenvalues, then the Gaussian matrix.

    The unitary is the Gaussian matrix's phase-fixed Q; QR draws nothing, so
    it can be taken later, for many draws at once.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    x0, x1, y0, y1 = spectrum_box
    lam = rng.uniform(x0, x1, dim) + 1j * rng.uniform(y0, y1, dim)
    return lam, _gaussian(dim, rng)


def random_normal(
    dim: int,
    spectrum_box: tuple[float, float, float, float] = (-1.0, 1.0, -1.0, 1.0),
    seed: int | None = 0,
    rng: np.random.Generator | None = None,
) -> SpectralDecomposition:
    """Seeded normal matrix with spectrum uniform in a rectangle of C.

    ``spectrum_box`` is (re_min, re_max, im_min, im_max).  Deterministic
    given the seed; the unitary comes from a phase-fixed QR factorization,
    and the matrix U diag(lambda) U* is formed only when it is read.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    lam, g = _normal_draw(dim, spectrum_box, rng)
    return SpectralDecomposition(unitary=_phase_fixed_q(g), eigenvalues=lam)
