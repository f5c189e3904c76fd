"""Singular-value functionals for quasinormed operator ideals.

Covers the Schatten scale S_p, the weak classes S_{p,inf}, Ky-Fan head sums
S_p^l, head-truncated and power-scaled ideals, dilation of spectra, Boyd
index estimation, and the averaging inequality that holds when the index is
below one.  Spectra are float arrays, nonincreasing along the last axis;
the ones a caller passes in are checked where they enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_BLOCK = 1024  # rows of the averaging stream scored at once; bounds its memory


@dataclass(frozen=True)
class IdealSpec:
    """Descriptor of a quasinormed ideal via its singular-value functional Psi.

    Variants: ``Sp`` (ell^p sum), ``SpWeak`` (weak ell^p sup), ``TruncHead``
    (apply the base functional to the first l+1 values only), ``PowerScale``
    (Psi_base(s^p)^(1/p), the finite-dimensional reading of |T|^p membership).
    """

    variant: str
    p: float = 0.0
    l: int = 0
    base: "IdealSpec | None" = None

    @classmethod
    def schatten(cls, p: float) -> "IdealSpec":
        if p <= 0.0:
            raise ValueError("p must be positive")
        return cls("Sp", p=float(p))

    @classmethod
    def weak(cls, p: float) -> "IdealSpec":
        if p <= 0.0:
            raise ValueError("p must be positive")
        return cls("SpWeak", p=float(p))

    @classmethod
    def trunc_head(cls, l: int, base: "IdealSpec") -> "IdealSpec":
        if l < 0:
            raise ValueError("l must be >= 0")
        return cls("TruncHead", l=int(l), base=base)

    @classmethod
    def power_scale(cls, p: float, base: "IdealSpec") -> "IdealSpec":
        # Psi_base(s^p)^(1/p) has no meaning at p = inf
        if not 0.0 < p < math.inf:
            raise ValueError("p must be positive and finite")
        return cls("PowerScale", p=float(p), base=base)

    def psi(self, values: np.ndarray) -> float | np.ndarray:
        """Psi over the last axis: a float for one spectrum, an array for a stack.

        numpy's power rounds by memory layout: powers of a contiguous copy and
        roots taken one by one give a spectrum the same Psi alone or in a stack.
        """
        s = np.ascontiguousarray(values, dtype=float)
        # weak ell^inf, sup_j j^(1/inf) s_j, is s_0 as well
        if self.variant == "Sp" or (self.variant == "SpWeak" and math.isinf(self.p)):
            return schatten_sum(s, self.p)
        if self.variant == "SpWeak":
            j = np.arange(1, s.shape[-1] + 1, dtype=float)
            return _root(np.max(j * s**self.p, axis=-1), self.p)
        if self.variant == "TruncHead":
            return self.base.psi(s[..., : self.l + 1])
        if self.variant == "PowerScale":
            return _root(self.base.psi(s**self.p), self.p)
        raise ValueError(f"unknown variant {self.variant!r}")


def singular_values(t: np.ndarray) -> np.ndarray:
    """Singular values of a matrix, nonincreasing; a (k, n, n) stack gives a (k, n) stack."""
    return np.linalg.svd(np.asarray(t, dtype=complex), compute_uv=False)


def _checked(s) -> np.ndarray:
    """A caller's spectrum or (k, n) stack of spectra as floats, each row checked.

    Every row must be nonempty, nonnegative and nonincreasing (within
    1e-12 max(s_0, 1)); zeros are implied beyond its end.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim == 0 or s.size == 0:
        raise ValueError("spectra must be nonempty sequences")
    if s.min() < 0.0:
        raise ValueError("singular values must be nonnegative")
    slack = 1e-12 * np.maximum(s.max(axis=-1, keepdims=True), 1.0)
    if np.any(np.diff(s, axis=-1) > slack):
        raise ValueError("sequence must be nonincreasing")
    return s


def sigma_averages(s: np.ndarray) -> np.ndarray:
    """Cesaro averages sigma_n = (s_0 + ... + s_n) / (n + 1) along the last axis."""
    return np.cumsum(s, axis=-1) / np.arange(1, np.shape(s)[-1] + 1)


def dilate_spectrum(s: np.ndarray, d: int) -> np.ndarray:
    """Each singular value repeated d times (spectrum of a d-fold direct sum)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return np.repeat(_checked(s), d, axis=-1)


def _root(x, p: float) -> float | np.ndarray:
    """x^(1/p) elementwise by scalar powers (see ``IdealSpec.psi``); a float for 0-d x."""
    res = np.array([v ** (1.0 / p) for v in np.ravel(x)]).reshape(np.shape(x))
    return res if res.ndim else float(res)


def schatten_sum(s: np.ndarray, p: float) -> float | np.ndarray:
    """||T||_{S_p} from the singular values s of T along the last axis, 0 < p <= inf.

    Finite p gives (sum_j s_j^p)^(1/p), p = inf the largest value s[..., 0];
    a float for one spectrum, an array for a stack.  The Ky-Fan norm
    S_p^l of T is this sum over the head s[..., : l + 1].
    """
    s = np.ascontiguousarray(s, dtype=float)
    if math.isinf(p):
        top = s[..., 0].copy()
        return top if top.ndim else float(top)
    return _root(np.sum(s**p, axis=-1), p)


def default_test_family() -> np.ndarray:
    """Closed test family for dilation/Boyd estimates: a (14, 512) stack of spectra.

    Geometric tails, power-law tails, and finite-support indicators; the
    supremum of dilation ratios over this family is a certified lower bound
    on the dilation transformer quasinorm.
    """
    j = np.arange(512, dtype=float)
    return np.array(
        [r**j for r in (0.99, 0.9, 0.5)]
        + [(1.0 + j) ** (-gamma) for gamma in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)]
        + [(j < k).astype(float) for k in (1, 4, 16, 64, 256)]
    )


def _dilation_ratio(spec: IdealSpec, d: int, family: np.ndarray) -> float:
    """Supremum of Psi(dilate(s, d)) / Psi(s) over the rows s of the family."""
    best = 0.0
    for s in family:
        denom = spec.psi(s)
        if denom > 0.0:
            best = max(best, spec.psi(np.repeat(s, d)) / denom)
    return best


def beta_d_estimate(
    spec: IdealSpec,
    d: int,
    families: np.ndarray | None = None,
) -> tuple[float, float | None]:
    """Lower bound on the d-fold dilation quasinorm, with analytic value if known.

    Returns (estimate, analytic); the estimate is the supremum of
    Psi(dilate(s, d)) / Psi(s) over the test family (a (k, n) stack of
    spectra), hence a certified lower bound.  For Sp/SpWeak (and their power
    scalings) the exact value d^(1/p) is returned alongside.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    family = default_test_family() if families is None else _checked(families)
    boyd = _analytic_boyd(spec)
    return _dilation_ratio(spec, d, family), None if boyd is None else d**boyd


def _analytic_boyd(spec: IdealSpec) -> float | None:
    if spec.variant in ("Sp", "SpWeak"):
        return 1.0 / spec.p
    if spec.variant == "PowerScale":
        base = _analytic_boyd(spec.base)
        return None if base is None else base / spec.p
    return None


def boyd_index_estimate(
    spec: IdealSpec,
    d_max: int,
    families: np.ndarray | None = None,
) -> tuple[float, float | None]:
    """Upper Boyd index estimate: min over d in {2, 4, ...} of log beta_d / log d."""
    if d_max < 2:
        raise ValueError("d_max must be >= 2")
    family = default_test_family() if families is None else _checked(families)
    best = math.inf
    d = 2
    while d <= d_max:
        best = min(best, math.log(_dilation_ratio(spec, d, family)) / math.log(d))
        d *= 2
    return best, _analytic_boyd(spec)


def averaging_bound(spec: IdealSpec) -> float | None:
    """Certified constant for Psi({sigma_n}) <= C Psi({s_n}) where available.

    For S_p with p > 1 this is 3 (1 - 2^(1/p - 1))^(-1), assembled from the
    geometric sum of dyadic dilation quasinorms; head truncation inherits the
    base ideal's constant.
    """
    if spec.variant == "Sp" and spec.p > 1.0:
        return 3.0 / (1.0 - 2.0 ** (1.0 / spec.p - 1.0))
    if spec.variant == "TruncHead":
        return averaging_bound(spec.base)
    return None


def _random_spectra(trials: int, seed: int, length: int = 64):
    """Blocks of up to _BLOCK nonincreasing rows, drawn row by row from one stream."""
    rng = np.random.default_rng(seed)
    j = np.arange(length, dtype=float)
    for start in range(0, trials, _BLOCK):
        block = np.empty((min(_BLOCK, trials - start), length))
        for row in block:
            shape = rng.integers(0, 3)
            if shape == 0:
                row[:] = rng.uniform(0.0, 1.0, length)
            elif shape == 1:
                row[:] = rng.uniform(0.5, 1.5) ** (-j * rng.uniform(0.0, 1.0)) * rng.uniform(0.1, 10.0)
            else:
                row[:] = (1.0 + j) ** (-rng.uniform(0.1, 3.0))
        yield np.sort(block, axis=-1)[:, ::-1]


def _averaging_constants(
    specs: list[IdealSpec], trials: int, seed: int
) -> list[tuple[float, float | None]]:
    """``averaging_constant_check`` for each spec, all scored on one drawn stream."""
    best = [0.0] * len(specs)
    for s in _random_spectra(trials, seed):
        avg = sigma_averages(s)
        for i, spec in enumerate(specs):
            num, denom = spec.psi(avg), spec.psi(s)
            scored = denom > 0.0
            best[i] = float(np.max(num[scored] / denom[scored], initial=best[i]))
    return [(emp, averaging_bound(spec)) for emp, spec in zip(best, specs)]


def averaging_constant_check(
    spec: IdealSpec, trials: int = 1000, seed: int = 0
) -> tuple[float, float | None]:
    """Empirical vs certified constant in the Cesaro-averaging inequality.

    Returns (empirical_C, bound_C); ``bound_C`` is None when the ideal's Boyd
    index is not known to be below one.  Nothing is raised when empirical_C
    exceeds bound_C: judging that is the caller's part (``ideals-boyd``
    counts it as a violation).
    """
    return _averaging_constants([spec], trials, seed)[0]


def majorization_le(s1: np.ndarray, s2: np.ndarray) -> bool:
    """True iff the Cesaro averages of s1 dominate those of s2 at every index."""
    s1, s2 = _checked(s1), _checked(s2)
    length = max(s1.size, s2.size)
    a1 = sigma_averages(np.pad(s1, (0, length - s1.size)))
    a2 = sigma_averages(np.pad(s2, (0, length - s2.size)))
    return bool(np.all(a2 <= a1 + 1e-15 * max(a1[0], 1.0)))


def kyfan_holder_check(
    t1: np.ndarray, t2: np.ndarray, p: float, q: float, r: float, l: int
) -> float:
    """Residual of the head-sum Hoelder inequality for a product of matrices.

    Returns ||T1 T2||_{S_r^l} - ||T1||_{S_p^l} ||T2||_{S_q^l}; nonpositive up
    to rounding whenever 1/p + 1/q = 1/r.
    """
    if abs(1.0 / p + 1.0 / q - 1.0 / r) > 1e-12:
        raise ValueError("exponents must satisfy 1/p + 1/q = 1/r")
    t1 = np.asarray(t1, dtype=complex)
    t2 = np.asarray(t2, dtype=complex)
    heads = [singular_values(t)[: l + 1] for t in (t1 @ t2, t1, t2)]
    return schatten_sum(heads[0], r) - schatten_sum(heads[1], p) * schatten_sum(heads[2], q)
