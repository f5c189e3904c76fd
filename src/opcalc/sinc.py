"""Sampling-basis expansion of divided differences of band-limited functions.

A bounded function of exponential type sigma satisfies, for the basis
functions sin(sigma*y)/(sigma*y - pi*n),

    (f(x) - f(y))/(x - y)
        = sum_n (-1)^n sigma (f(x) - f(pi n / sigma))/(sigma x - pi n)
                 * sin(sigma y)/(sigma y - pi n),

with square-summable coefficient rows bounded by 3 ||f||_inf^2.  That row
bound is what turns the expansion into a Schur-multiplier factorization with
norm at most sqrt(3) * sigma * ||f||_inf.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from .bandlimited import TrigPolynomial, TrigSlice, divided_difference
from .errors import QuadratureError

DEFAULT_TERMS = 2000
# The quadratures integrate a core of 50 half-periods pi / sigma on each side
# of their centre to absolute tolerance _QUAD_TOL; the tails are closed-form.
_QUAD_TOL = 1e-8
_HALF_PERIODS = 50.0


def sinc_basis(sigma: float, n, y):
    """sin(sigma*y)/(sigma*y - pi*n) with the removable singularity filled in."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    n = np.asarray(n)
    y = np.asarray(y, dtype=float)
    u = sigma * y - math.pi * n
    res = (-1.0) ** n * np.sinc(u / math.pi)
    return res if res.ndim else float(res)


def expansion_tail_bound(
    sup_upper: float, sigma: float, a: float, b: float, n_terms: int
) -> float:
    """Bound on the discarded |n| > N part of the expansion at points a = sigma*x, b = sigma*y."""
    c = max(abs(a), abs(b))
    if math.pi * n_terms <= c + 1.0:
        return math.inf
    return 4.0 * sigma * sup_upper / (math.pi * (math.pi * n_terms - c))


def reconstruct_dd(
    fslice: TrigSlice, sigma: float, x: float, y: float, n_terms: int = DEFAULT_TERMS
) -> tuple[float | complex, float]:
    """Partial sum of the basis expansion of (f(x) - f(y))/(x - y).

    Returns (value, tail_bound); at x = y the series converges to f'(y).
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    ns = np.arange(-n_terms, n_terms + 1)
    t = math.pi * ns / sigma
    dd = divided_difference(fslice, x, t)
    value = complex(np.sum(dd * np.sinc((sigma * y - math.pi * ns) / math.pi)))
    tail = expansion_tail_bound(
        fslice.sup_bracket()[1], sigma, sigma * x, sigma * y, n_terms
    )
    if abs(value.imag) == 0.0:
        return value.real, tail
    return value, tail


def row_energy(
    fslice: TrigSlice, sigma: float, x: float, n_terms: int = DEFAULT_TERMS
) -> float:
    """Partial sum of sum_n |f(x) - f(pi n / sigma)|^2 / (sigma x - pi n)^2."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    ns = np.arange(-n_terms, n_terms + 1)
    t = math.pi * ns / sigma
    dd = divided_difference(fslice, x, t)
    return float(np.sum(np.abs(dd) ** 2)) / sigma**2


def _tail_kernel(x: float, y: float, lo: float, hi: float) -> float:
    """Integral of 1/((t - x)(t - y)) over the two tails outside [lo, hi], lo < x, y < hi.

    With d = x - y it is [log1p(d/(hi - x)) + log1p(d/(y - lo))]/d, which
    log1p keeps accurate at every d != 0; at d = 0 it is 1/(hi - x) + 1/(x - lo).
    """
    d = x - y
    if d == 0.0:
        return 1.0 / (hi - x) + 1.0 / (x - lo)
    return (math.log1p(d / (hi - x)) + math.log1p(d / (y - lo))) / d


def _quad_complex(fn, lo, hi, points, tol):
    re, re_err = quad(lambda t: fn(t).real, lo, hi, points=points, epsabs=tol, limit=400)
    im, im_err = quad(lambda t: fn(t).imag, lo, hi, points=points, epsabs=tol, limit=400)
    return complex(re, im), re_err + im_err


def row_energy_integral(
    fslice: TrigSlice,
    sigma: float,
    x: float,
) -> tuple[float, float]:
    """(1/(pi*sigma)) * integral of |f(x) - f(t)|^2 / (x - t)^2 dt over R.

    The core is integrated adaptively; outside the core the non-oscillating
    component of |f(x) - f(t)|^2 is integrated in closed form and the
    oscillating remainder is folded into the reported error bound.
    """
    half_width = _HALF_PERIODS * math.pi / sigma
    lo, hi = x - half_width, x + half_width
    fx = complex(fslice.eval(x))

    def integrand(t):
        return abs(divided_difference(fslice, x, t)) ** 2

    core, core_err = quad(integrand, lo, hi, points=[x], epsabs=_QUAD_TOL, limit=400)
    if core_err > max(10.0 * _QUAD_TOL, 1e-12 * abs(core)):
        raise QuadratureError(core_err, _QUAD_TOL)
    # |f(x) - f(t)|^2 = |f(x)|^2 - 2 Re(conj(f(x)) f(t)) + |f(t)|^2;
    # its mean value over t drives the 1/t^2 tails.
    amps = fslice.coeffs
    dc = abs(fx) ** 2 + sum(abs(c) ** 2 for c in amps.values())
    dc -= 2.0 * (fx.conjugate() * amps.get(0, 0.0)).real
    tails = _tail_kernel(x, x, lo, hi)
    # oscillating terms bounded via integration by parts: 2 * amp * g(edge) / |w|
    edge_sq = 1.0 / (hi - x) ** 2 + 1.0 / (x - lo) ** 2
    osc = 0.0
    for m, c in amps.items():
        if m != 0:
            osc += 2.0 * 2.0 * abs(fx) * abs(c) / (abs(m) * fslice.h) * edge_sq
    freqs = list(amps.items())
    for i, (m1, c1) in enumerate(freqs):
        for m2, c2 in freqs:
            if m1 != m2:
                w = abs(m1 - m2) * fslice.h
                osc += 2.0 * abs(c1) * abs(c2) / w * edge_sq
    value = (core + dc * tails) / (math.pi * sigma)
    err = (core_err + osc) / (math.pi * sigma)
    return value, err


def reproducing_integral(
    fslice: TrigSlice,
    sigma: float,
    x: float,
    y: float,
) -> tuple[float | complex, float]:
    """(1/pi) * integral of (f(x)-f(t))/(x-t) * sin(sigma(y-t))/(y-t) dt.

    Reproduces the divided difference (f(x) - f(y))/(x - y).  Returns
    (value, error_bound) where the bound covers quadrature tolerance and the
    truncated oscillatory tails; the non-oscillating tail component (present
    when f has frequencies at the band edge +-sigma) is added in closed form.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    half_width = _HALF_PERIODS * math.pi / sigma
    c = (x + y) / 2.0
    lo, hi = c - half_width, c + half_width

    def integrand(t):
        dd = divided_difference(fslice, x, t)
        u = y - t
        kern = sigma * np.sinc(sigma * u / math.pi)
        return dd * kern

    pts = sorted({min(max(x, lo), hi), min(max(y, lo), hi)})
    core, core_err = _quad_complex(integrand, lo, hi, pts, _QUAD_TOL)
    if core_err > max(10.0 * _QUAD_TOL, 1e-12 * abs(core)):
        raise QuadratureError(core_err, _QUAD_TOL)
    fx = complex(fslice.eval(x))
    # numerator (f(x) - f(t)) sin(sigma(y - t)) expanded in frequencies of t:
    # only amplitudes of f exactly at the band edge produce a mean component.
    half_i = 1.0 / 2.0j
    dc = 0.0 + 0.0j
    osc_terms: list[tuple[float, complex]] = []  # (frequency, amplitude)
    eiy = np.exp(1j * sigma * y)
    osc_terms.append((-sigma, fx * eiy * half_i))
    osc_terms.append((sigma, -fx * np.conj(eiy) * half_i))
    for m, amp in fslice.coeffs.items():
        w = m * fslice.h
        for shift, phase in ((-sigma, eiy * half_i), (sigma, -np.conj(eiy) * half_i)):
            term = -amp * phase
            if abs(w + shift) <= 1e-12 * max(sigma, 1.0):
                dc += term
            else:
                osc_terms.append((w + shift, term))
    tails = _tail_kernel(x, y, lo, hi)
    edge = max(hi - max(x, y), 1e-300)
    edge_l = max(min(x, y) - lo, 1e-300)
    edge_sq = 1.0 / edge**2 + 1.0 / edge_l**2
    osc = sum(2.0 * abs(a) / abs(w) * edge_sq for w, a in osc_terms if a != 0.0)
    value = (core + dc * tails) / math.pi
    err = (core_err + osc) / math.pi
    if abs(value.imag) == 0.0:
        return value.real, err
    return value, err


def sinc_mass_integral(sigma: float, y: float) -> tuple[float, float]:
    """(1/(pi*sigma)) * integral of sin^2(sigma(y-t))/(y-t)^2 dt (equals 1).

    The mean value 1/2 of sin^2 is integrated in closed form over the tails.
    """
    half_width = _HALF_PERIODS * math.pi / sigma
    lo, hi = y - half_width, y + half_width

    def integrand(t):
        u = y - t
        return (sigma * np.sinc(sigma * u / math.pi)) ** 2

    core, core_err = quad(integrand, lo, hi, points=[y], epsabs=_QUAD_TOL, limit=400)
    tails = 0.5 * _tail_kernel(y, y, lo, hi)
    edge_sq = 1.0 / (hi - y) ** 2 + 1.0 / (y - lo) ** 2
    osc = 2.0 * 0.5 / (2.0 * sigma) * edge_sq
    return (core + tails) / (math.pi * sigma), (core_err + osc) / (math.pi * sigma)


def haagerup_factorization(
    f: TrigPolynomial,
    axis: str,
    lam: np.ndarray,
    mu: np.ndarray,
    n_terms: int = DEFAULT_TERMS,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Factor matrices (A, B) with sum_n A[j,n] B[k,n] ~ the divided-difference kernel.

    One side holds the sampling basis (row energies <= 1), the other the
    sampled divided differences of the relevant one-variable slices (row
    energies <= 3 sigma^2 ||f||_inf^2), so the product of maximal row
    energies — returned as ``upper`` — is a Schur-multiplier norm bound of
    at most sqrt(3) * sigma * ||f||_inf plus truncation.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    lam = np.asarray(lam, dtype=complex)
    mu = np.asarray(mu, dtype=complex)
    ns = np.arange(-n_terms, n_terms + 1)
    width = 2 * n_terms + 1
    sigma = f.support_radius
    if sigma == 0.0:
        a = np.zeros((lam.size, width))
        a[:, n_terms] = 1.0
        return a, np.zeros((mu.size, width)), 0.0
    t = math.pi * ns / sigma
    coord, held = (np.real, np.imag) if axis == "x" else (np.imag, np.real)
    basis_pts, dd_pts = (lam, mu) if axis == "x" else (mu, lam)
    basis = sinc_basis(sigma, ns, coord(basis_pts)[:, None])
    # row r: divided differences at t of the slice of f through dd_pts[r]
    # along the axis; the slices' values at t are one product of phase tables
    x = coord(dd_pts)[:, None]
    dd = (-1.0) ** ns * divided_difference(f, x, t[None, :], axis, held(dd_pts)[:, None])
    a, b = (basis, dd) if axis == "x" else (dd, basis)
    row_a = math.sqrt(float(np.max(np.sum(np.abs(a) ** 2, axis=1))))
    row_b = math.sqrt(float(np.max(np.sum(np.abs(b) ** 2, axis=1))))
    return a, b, row_a * row_b
