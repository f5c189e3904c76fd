"""Band-limited functions on the plane with exact finite Fourier support.

Everything here is a trigonometric polynomial on a frequency lattice
``h * Z^2``, so sup norms admit certified (lower, upper) brackets via grid
sampling plus a second-order Bernstein bound, and dyadic decompositions are
exact coefficientwise operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
from scipy.integrate import quad

from .errors import DivergentTailError, GridTooCoarseError

# The auto policy of ``grid_bracket``: one grid of _AUTO_GRID points per
# period, or more where the second-order bound needs them, never above
# _MAX_GRID (4096^2 complex values take 256 MB).  Each round resamples the
# candidate cells on patches of _PATCH_BUDGET points in all: _PATCH^d points
# each for up to 64 cells, fewer (at least 2^d) for more.
_AUTO_GRID = 256
_MAX_GRID = 4096
_PATCH = 64
_PATCH_BUDGET = 64 * _PATCH**2
_UNIT_ROUNDOFF = 2.0**-53
_TINY = np.finfo(float).tiny


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, strictly monotone between."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    # theta(t) = e^{-1/t} / (e^{-1/t} + e^{-1/(1-t)}) = 1 / (1 + e^{1/t - 1/(1-t)})
    a = np.clip(1.0 / tm - 1.0 / (1.0 - tm), -745.0, 745.0)
    out[mid] = 1.0 / (1.0 + np.exp(a))
    return out


class CutoffWindow:
    """The dyadic cutoff pair (w, v) of the Littlewood-Paley decomposition.

    ``w`` is smooth, nonnegative, supported in [1/2, 2], and satisfies
    w(x) = 1 - w(x/2) on [1, 2], so that sum_n w(x / 2^n) = 1 for x > 0.
    ``v`` equals 1 on [-1, 1] and w(|x|) for |x| >= 1 (low-pass profile).
    """

    @staticmethod
    def _w(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        rise = (x >= 0.5) & (x <= 1.0)
        fall = (x > 1.0) & (x <= 2.0)
        out[rise] = _smooth_step(2.0 * x[rise] - 1.0)
        out[fall] = 1.0 - _smooth_step(x[fall] - 1.0)
        return out

    def w(self, x):
        x = np.asarray(x, dtype=float)
        return self._w(x) if x.ndim else float(self._w(x[None])[0])

    def v(self, x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        res = np.where(ax <= 1.0, 1.0, self._w(np.maximum(ax, 1.0)))
        return res if x.ndim else float(res)


DEFAULT_WINDOW = CutoffWindow()


@dataclass(frozen=True)
class ModulusOfContinuity:
    """Nondecreasing subadditive ``omega`` with omega(0) = 0.

    Kinds: ``power`` is omega(t) = t^alpha; ``capped_linear`` is
    omega(t) = min(t, d); ``custom`` wraps an arbitrary handle.
    """

    kind: str
    param: float = 0.0
    handle: Callable[[np.ndarray], np.ndarray] | None = None

    @classmethod
    def power(cls, alpha: float) -> "ModulusOfContinuity":
        if not 0.0 < alpha <= 1.0:
            raise ValueError("power modulus needs 0 < alpha <= 1")
        return cls("power", float(alpha))

    @classmethod
    def capped_linear(cls, d: float) -> "ModulusOfContinuity":
        if d <= 0.0:
            raise ValueError("cap must be positive")
        return cls("capped_linear", float(d))

    @classmethod
    def custom(cls, handle: Callable) -> "ModulusOfContinuity":
        return cls("custom", 0.0, handle)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "power":
            res = np.power(t, self.param)
        elif self.kind == "capped_linear":
            res = np.minimum(t, self.param)
        else:
            res = np.asarray(self.handle(t), dtype=float)
        return res if res.ndim else float(res)


def omega_star(omega: ModulusOfContinuity, x: float) -> float:
    """Transformed modulus x * integral_x^inf omega(t)/t^2 dt.

    Closed forms for the power and capped kinds; adaptive quadrature with a
    doubling cutoff for custom handles.  Raises ``DivergentTailError`` when
    the tail integral does not converge (e.g. omega(t) = t).
    """
    if x <= 0.0:
        raise ValueError("omega_star needs x > 0")
    if omega.kind == "power":
        alpha = omega.param
        if alpha >= 1.0:
            raise DivergentTailError("omega_star undefined: tail integral diverges")
        return x**alpha / (1.0 - alpha)
    if omega.kind == "capped_linear":
        d = omega.param
        if x >= d:
            return d
        return x * math.log(d / x) + x
    # custom: integrate to a doubling cutoff T, treat omega as constant
    # beyond T once omega(T)/T is negligible against the accumulated value
    core = 0.0
    lo = x
    hi = max(2.0 * x, 1.0)
    while hi < 1e150:
        part, _ = quad(lambda t: omega(t) / (t * t), lo, hi, epsabs=1e-10, limit=200)
        core += part
        tail = x * omega(hi) / hi
        value = x * core + tail
        if tail < 1e-12 * max(value, 1e-300):
            return value
        lo, hi = hi, 2.0 * hi
    raise DivergentTailError("omega_star undefined: cutoff criterion never met")


# Up to this many (point, term) pairs an evaluation takes one exponential
# per pair; above it the phases are factored (see ``_Terms.__call__``).
_ONE_SHOT_ENTRIES = 1024
# The factored form builds every power e^{ihkx} with lo <= k <= hi on each
# axis, one complex multiply per power and point, against about this many
# multiplies for one exponential; wider frequency ranges go one-shot.
_POWERS_PER_TERM = 16
# Points per block of a large evaluation, so its tables stay in cache.
_BLOCK_POINTS = 1024


def _phase_powers(h: float, t: np.ndarray, lo: float, count: int) -> np.ndarray:
    """exp(i h k t) for k = lo, ..., lo + count - 1 as a (count, t.size) table.

    Two exponentials per point; each further row is the previous one times
    e^{iht}, so row r is accurate to about r ulps.  lo need not be an integer.
    """
    t = t.ravel()
    tab = np.empty((count, t.size), dtype=complex)
    tab[0] = np.exp(1j * h * lo * t)
    step = np.exp(1j * h * t)
    for r in range(1, count):
        np.multiply(tab[r - 1], step, out=tab[r])
    return tab


class _Terms:
    """The terms of sum_k c_k exp(i h <k, t>), k in Z^d (d = 1 or 2), as read-only arrays.

    ``freqs`` (T x d) and ``amps`` (T,) list the terms of a coefficient dict
    (int keys if d = 1, (j, k) keys if d = 2); on axis a the frequencies
    span lo[a] <= k < lo[a] + span[a].  Calling it evaluates the sum;
    ``grid`` samples it by FFT.
    """

    __slots__ = ("h", "freqs", "amps", "lo", "span", "_hfreqs", "_dd_cache")

    def __init__(self, h: float, coeffs: dict, d: int):
        freqs = np.array(list(coeffs), dtype=np.int64).reshape(len(coeffs), d)
        amps = np.array(list(coeffs.values()), dtype=complex)
        lo = freqs.min(axis=0) if amps.size else np.zeros(d, dtype=np.int64)
        span = freqs.max(axis=0) - lo + 1 if amps.size else np.zeros(d, dtype=np.int64)
        hfreqs = h * freqs.T
        for arr in (freqs, amps, lo, span, hfreqs):
            arr.flags.writeable = False
        self.h, self.freqs, self.amps, self.lo, self.span = h, freqs, amps, lo, span
        self._hfreqs = hfreqs
        self._dd_cache = {}

    def __call__(self, *coords) -> np.ndarray:
        """The sum at broadcast real coordinates t = coords, as a complex array of their shape.

        Up to ``_ONE_SHOT_ENTRIES`` (point, term) pairs, every pair takes one
        exponential: exp(i t.(h k)) @ c.  Larger inputs factor the phase,
        e^{ih<k,t>} = (e^{ihx})^j (e^{ihy})^k, from tables of the powers on
        each axis: a column of x against a row of y (either way round) is
        (c * E_x[j]).T @ E_y[k], one product over the terms, a stack of such
        pairs (shapes (..., n, 1) and (..., 1, m)) one stacked product, and
        any other input is c @ (E_x[j] * E_y[k]) in blocks of points.  Both
        forms give the sum to rounding; the rule only picks the cheaper one.
        """
        coords = [np.asarray(c, dtype=float) for c in coords]
        shape = np.broadcast(*coords).shape
        size, terms = math.prod(shape), self.amps.size
        if terms == 0:
            return np.zeros(shape, dtype=complex)
        if size * terms <= _ONE_SHOT_ENTRIES:
            return self._one_shot(coords)
        factored = int(self.span.sum()) <= _POWERS_PER_TERM * terms
        if factored and len(coords) == 2 and coords[0].ndim == coords[1].ndim >= 2:
            x, y = coords
            if x.shape[:-2] == y.shape[:-2]:
                if x.shape[-1] == y.shape[-2] == 1:
                    return self._column_row(0, x, y)
                if x.shape[-2] == y.shape[-1] == 1:
                    return self._column_row(1, y, x)
        form = self._factored if factored else self._one_shot
        flat = [np.broadcast_to(c, shape).ravel() for c in coords]
        out = np.empty(size, dtype=complex)
        for start in range(0, size, _BLOCK_POINTS):
            out[start:start + _BLOCK_POINTS] = form([c[start:start + _BLOCK_POINTS] for c in flat])
        return out.reshape(shape)

    def _one_shot(self, coords: list) -> np.ndarray:
        theta = coords[0][..., None] * self._hfreqs[0]
        if len(coords) == 2:
            theta = theta + coords[1][..., None] * self._hfreqs[1]
        return np.exp(1j * theta) @ self.amps

    def _column_row(self, axis: int, col: np.ndarray, row: np.ndarray) -> np.ndarray:
        """Columns (..., n, 1) of one axis's coordinates against rows (..., 1, m) of the other's.

        One product over the terms per pair, (..., n, T) @ (..., T, m), from
        the power tables of all the coordinates of each axis.
        """
        cols = self._powers(axis, col) * self.amps[:, None]
        rows = self._powers(1 - axis, row)
        cols = cols.reshape(len(cols), *col.shape[:-1])
        rows = rows.reshape(len(rows), *row.shape[:-2], row.shape[-1])
        return np.moveaxis(cols, 0, -1) @ np.moveaxis(rows, 0, -2)

    def _powers(self, axis: int, t: np.ndarray) -> np.ndarray:
        """(T, t.size) table of each term's phase factor on one axis, e^{i h k_axis t}."""
        table = _phase_powers(self.h, t, self.lo[axis], self.span[axis])
        return table[self.freqs[:, axis] - self.lo[axis]]

    def _factored(self, coords: list) -> np.ndarray:
        phases = self._powers(0, coords[0])
        if len(coords) == 2:
            phases *= self._powers(1, coords[1])
        return self.amps @ phases

    def dd_tables(self, axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ih S, j + 1/2, ih (j + 1/2)) for ``divided_difference`` along one axis, built once.

        j runs over min(k, 0) <= j < max(k, 0) for the frequencies k on the
        axis; S[j, term] is 1 if 0 <= j < k, -1 if k <= j < 0, else 0.
        """
        tables = self._dd_cache.get(axis)
        if tables is None:
            k = self.freqs[:, axis]
            j = np.arange(min(k.min(initial=0), 0), max(k.max(initial=0), 0))[:, None]
            signs = np.where(j >= 0, k > j, -1.0 * (k <= j))
            half = j[:, 0] + 0.5
            tables = (1j * self.h * signs, half, 1j * self.h * half)
            self._dd_cache[axis] = tables
        return tables

    def grid(self, m: int) -> np.ndarray:
        """Values on the m^d uniform grid over one period (exact via FFT)."""
        d = self.freqs.shape[1]
        c = np.zeros((m,) * d, dtype=complex)
        np.add.at(c, tuple((self.freqs % m).T), self.amps)  # aliases add up in term order
        return np.fft.ifftn(c) * m**d


class TrigPolynomial:
    """f(x, y) = sum c_{jk} exp(i h (j x + k y)) with finitely many terms.

    Values are immutable after construction; zero amplitudes are dropped.
    The function is periodic with period 2*pi/h in each variable, and its
    Fourier support radius is ``support_radius`` = h * max |(j, k)|.
    """

    __slots__ = ("h", "coeffs", "support_radius", "_terms")
    ndim = 2

    def __init__(self, h: float, coeffs: dict):
        if h <= 0.0:
            raise ValueError("lattice step h must be positive")
        clean: dict[tuple[int, int], complex] = {}
        for (j, k), c in coeffs.items():
            c = complex(c)
            if c != 0.0:
                clean[(int(j), int(k))] = c
        object.__setattr__(self, "h", float(h))
        object.__setattr__(self, "coeffs", clean)
        radius = max((math.hypot(j, k) for (j, k) in clean), default=0.0)
        object.__setattr__(self, "support_radius", float(h) * radius)
        object.__setattr__(self, "_terms", _Terms(float(h), clean, 2))

    def __setattr__(self, name, value):
        raise AttributeError("TrigPolynomial is immutable")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.h

    @classmethod
    def constant(cls, c: complex) -> "TrigPolynomial":
        return cls(1.0, {(0, 0): c})

    def eval(self, x, y):
        """Evaluate on broadcastable real coordinate arrays (see ``_Terms``)."""
        out = self._terms(x, y)
        return out if out.ndim else complex(out)

    def __call__(self, z):
        """f at complex points z = x + iy, or at real pairs (z[..., 0], z[..., 1]).

        A complex array of two or more axes is a stack of spectra along its
        last axis, and each spectrum gets the values of its own call: the
        evaluation form (see ``_Terms``) is picked by the size of one spectrum.
        """
        z = np.asarray(z)
        if np.iscomplexobj(z):
            if z.ndim < 2:
                return self.eval(z.real, z.imag)
            if z.shape[-1] * self._terms.amps.size <= _ONE_SHOT_ENTRIES:
                return self._terms._one_shot([z.real, z.imag])
            return np.stack([self(spectrum) for spectrum in z])
        return self.eval(z[..., 0], z[..., 1]) if z.ndim else self.eval(z, 0.0)

    def grid_values(self, m: int) -> np.ndarray:
        """Values on the m x m uniform grid over one period (exact via FFT)."""
        return self._terms.grid(m)

    def _binary(self, other: "TrigPolynomial", sign: float) -> "TrigPolynomial":
        if not isinstance(other, TrigPolynomial):
            return NotImplemented
        if other.h != self.h:
            raise ValueError("frequency lattices differ")
        merged = dict(self.coeffs)
        for key, c in other.coeffs.items():
            merged[key] = merged.get(key, 0.0) + sign * c
        return TrigPolynomial(self.h, merged)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __mul__(self, scalar):
        scalar = complex(scalar)
        return TrigPolynomial(self.h, {k: scalar * c for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def scaled_coeffs(self, factor_of_modulus: Callable[[np.ndarray], np.ndarray]) -> "TrigPolynomial":
        """Multiply each coefficient by a function of its frequency modulus."""
        if not self.coeffs:
            return TrigPolynomial(self.h, {})
        keys = list(self.coeffs)
        mods = np.array([self.h * math.hypot(j, k) for (j, k) in keys])
        factors = np.asarray(factor_of_modulus(mods), dtype=float)
        return TrigPolynomial(
            self.h,
            {key: self.coeffs[key] * float(fac) for key, fac in zip(keys, factors)},
        )


class TrigSlice:
    """One-variable trig polynomial g(t) = sum c_m exp(i h m t).

    Used for the single-variable slices of a two-variable function; carries
    its own exponential-type bound and certified sup bracket.
    """

    __slots__ = ("h", "coeffs", "_terms")
    ndim = 1

    def __init__(self, h: float, coeffs: dict):
        if h <= 0.0:
            raise ValueError("lattice step h must be positive")
        clean = {int(m): complex(c) for m, c in coeffs.items() if complex(c) != 0.0}
        object.__setattr__(self, "h", float(h))
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "_terms", _Terms(float(h), clean, 1))

    def __setattr__(self, name, value):
        raise AttributeError("TrigSlice is immutable")

    @property
    def type_bound(self) -> float:
        return self.h * max((abs(m) for m in self.coeffs), default=0)

    def eval(self, t):
        """Evaluate on a real coordinate array (see ``_Terms``)."""
        out = self._terms(t)
        return out if out.ndim else complex(out)

    __call__ = eval

    def derivative(self) -> "TrigSlice":
        return TrigSlice(self.h, {m: 1j * self.h * m * c for m, c in self.coeffs.items()})

    def grid_values(self, m: int) -> np.ndarray:
        """Values on the m-point uniform grid over one period (exact via FFT)."""
        return self._terms.grid(m)

    def sup_bracket(self) -> tuple[float, float]:
        """Certified bracket lower <= ||g||_inf <= upper: ``grid_bracket``'s auto policy."""
        return grid_bracket(self, self.type_bound)


def grid_bracket(
    g: "TrigPolynomial | TrigSlice", sigma: float, m: int | None = None
) -> tuple[float, float]:
    """Certified bracket lower <= ||g||_inf <= upper from samples of g.

    g is a trig polynomial in d = ``g.ndim`` variables of exponential type
    sigma, with terms c_k.  The bracket rests on a second-order Bernstein
    bound (Boas, *Entire Functions*, 1954, ch. 11).  Let z* maximize |g|,
    M = |g(z*)|, theta = arg g(z*), v a unit vector and
    u(t) = Re(e^{-i theta} g(z* + t v)).  Then u <= |g| <= M = u(0), so
    u'(0) = 0, and u'' is bounded by sigma^2 M (Bernstein's inequality
    twice), so |g(z* + t v)| >= u(t) >= M (1 - sigma^2 t^2 / 2).  A sample
    within r of z* is therefore at least M (1 - q), q = sigma^2 r^2 / 2,
    and M <= (largest sample) / (1 - q) while sigma r < sqrt(2).  The
    first-order bound M <= (largest sample) / (1 - sigma r) is never
    tighter.  Independently, M <= sum_k |c_k| (triangle inequality), with
    equality when the differences k - k_0 of the frequencies are linearly
    independent (one term, two terms, or three in general position in
    2-D): some point then aligns every term's phase.  Every upper is capped
    by it.

    A constant g (no nonzero frequency) has the bracket (|c|, |c|).  With
    an integer m the samples are the m^d grid over one period
    (delta = period / m, r = delta sqrt(d) / 2, by FFT), and the lower
    bound is their maximum of |g| less its rounding slack (below).  With m None (the auto policy) the grid
    has 256 points per period, or the least power of two above that on
    which sigma r < sqrt(2), at most 4096.  The auto policy takes the
    exact case without sampling: its bracket is sum_k |c_k| rounded down
    and up by its summation error.  Otherwise the maximizer's nearest grid
    point G has |g(G)| >= M (1 - q) >= lower (1 - q), so only grid points
    that reach lower (1 - q) are candidates.  g is evaluated directly on a
    cell-centred patch of side^d points in each candidate's cell, the
    candidates sharing 64 * 64^2 points: side = floor((64 * 64^2 /
    cells)^(1/d)), at most 64 and at least 2 (spacing delta / side, so q
    shrinks side^2-fold).  z* lies in one of these cells, and the bracket
    is the largest patch value over 1 - q / side^2.  By the same argument
    the cell holding z* has a patch value of at least lower (1 - q /
    side^2), so cells below that are dropped; while that leaves few enough
    cells for a larger side, the rest are sampled again on finer patches
    (a ridge, where |g| is nearly constant along a line, takes two or
    three rounds).  In 2-D the patches are columns of x against rows of
    y, evaluated in chunks as one stacked product each.

    Rounding: each maximum of computed values gets a slack s added before
    the division and subtracted for the lower bound (floored at 0),
    s = (n + 2T + 8) u sum_k |c_k| (T terms, u = 2^-53).  An FFT
    value passes L = log2(m^d) butterfly stages whose multipliers have
    modulus one, each with relative error eta = mu + gamma_4 (sqrt 2 + mu)
    < 7u for twiddles accurate to mu ~ u (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., 2002, ch. 24), and every coefficient
    reaches every value once, so its error is at most
    ((1 + eta)^L - 1) sum_k |c_k| < 8 L u sum_k |c_k|: n = 8 L, for m a
    power of two (every grid opcalc samples), where the scaling by m^d is
    exact.  A patch value
    multiplies per axis a table row (e^{ihx})^k with |k| <= K_a, built
    from one exponential by at most span_a products (``_phase_powers``),
    at |h x| < 2 pi; each row is then accurate to 13 (K_a + span_a) u, the
    one-exponential form is no worse, and n = 24 sum_a (K_a + span_a + 1).
    The 2T term bounds the sum over the terms and the 8 the final sum and
    division (q is inflated by 8u to cover its own rounding).  The cap is
    inflated by (T + 2) u and the exact case's lower end deflated by it,
    which covers the T moduli and the sum, and upper is never below the
    largest computed value (which exceeds the cap only by rounding).
    """
    d = g.ndim
    terms = g._terms
    l1 = float(np.abs(terms.amps).sum())
    if not terms.freqs.any():
        return l1, l1
    cap = l1 * (1.0 + (terms.amps.size + 2) * _UNIT_ROUNDOFF)
    auto = m is None
    if auto and _phases_align(terms.freqs):
        return l1 * (1.0 - (terms.amps.size + 2) * _UNIT_ROUNDOFF), cap
    if auto:
        # sigma r < sqrt(2) needs m > need; the least power of two above it, within bounds
        need = math.pi * sigma * math.sqrt(d / 2.0) / g.h
        m = _AUTO_GRID
        if need >= _AUTO_GRID:
            m = min(2 ** (math.floor(math.log2(need)) + 1), _MAX_GRID)
    delta = 2.0 * math.pi / g.h / m
    q = (sigma * delta * math.sqrt(d) / 2.0) ** 2 / 2.0 * (1.0 + 8.0 * _UNIT_ROUNDOFF)
    if q >= 1.0:
        raise GridTooCoarseError(
            f"grid spacing {delta:.3e} too coarse for exponential type {sigma:.3e}"
        )
    mod = np.abs(g.grid_values(m))
    top = float(mod.max())
    slack = _rounding_slack(terms, l1, 8.0 * d * math.log2(m))
    lower = top - slack
    upper = (top + slack) / (1.0 - q)
    if auto:
        cells = np.unravel_index(np.flatnonzero(mod >= lower * (1.0 - q) - slack), mod.shape)
        reach = terms.span + np.abs(terms.freqs).max(axis=0) + 1
        slack = _rounding_slack(terms, l1, 24.0 * float(reach.sum()))
        side = _patch_side(cells[0].size, d)
        while True:
            cell_tops = _patch_tops(terms, cells, delta, side)
            patch_top = float(cell_tops.max())
            q_patch = q / side**2
            lower = max(lower, patch_top - slack)
            upper = (patch_top + slack) / (1.0 - q_patch)
            top = max(top, patch_top)
            # the cell holding z* has a patch point within r / side of it
            keep = cell_tops >= lower * (1.0 - q_patch) - slack
            finer = _patch_side(int(keep.sum()), d)
            if finer == side:
                break
            cells, side = [i[keep] for i in cells], finer
    return max(lower, 0.0), max(top, min(upper, cap))


def _patch_side(cells: int, d: int) -> int:
    """Points per axis of each of ``cells`` patches sharing ``_PATCH_BUDGET``, in [2, _PATCH]."""
    per_cell = _PATCH_BUDGET // cells
    return max(2, min(_PATCH, math.isqrt(per_cell) if d == 2 else per_cell))


def _patch_tops(terms: _Terms, cells: list, delta: float, side: int) -> np.ndarray:
    """Largest computed |g| on the cell-centred side^d patch of each grid cell (index arrays)."""
    offsets = (np.arange(side) + 0.5 - side / 2.0) * (delta / side)
    axes = [i[:, None] * delta + offsets for i in cells]
    # in 2-D a chunk of cells is one stacked column x row product in ``_Terms``, its
    # tables 64^2 coordinates per axis; a 1-D patch goes alone, as ``_Terms`` picks
    # its form by size
    chunk = _PATCH**2 // side if len(cells) == 2 else 1
    tops = []
    for start in range(0, cells[0].size, chunk):
        coords = [a[start:start + chunk] for a in axes]
        if len(cells) == 2:
            coords = [coords[0][:, :, None], coords[1][:, None, :]]
        values = np.abs(terms(*coords))
        tops.append(values.reshape(len(values), -1).max(axis=1))
    return np.concatenate(tops)


def _phases_align(freqs: np.ndarray) -> bool:
    """True if the differences k - k_0 of the (distinct) frequencies are linearly independent.

    Then some point puts every term's phase at that of its coefficient, and
    ||g||_inf = sum_k |c_k|.  The test is exact in integers.
    """
    diffs = freqs[1:] - freqs[0]
    if len(diffs) < 2:
        return True  # one term, or one difference, nonzero as the frequencies are distinct
    return len(diffs) == freqs.shape[1] == 2 and diffs[0, 0] * diffs[1, 1] != diffs[0, 1] * diffs[1, 0]


def _rounding_slack(terms: _Terms, l1: float, steps: float) -> float:
    """(steps + 2T + 8) u sum_k |c_k|: the rounding of one computed value (see ``grid_bracket``)."""
    return (steps + 2.0 * terms.amps.size + 8.0) * _UNIT_ROUNDOFF * l1


def _value_slack(f: TrigPolynomial, radius: float) -> float:
    """Bound on |computed f(z) - f(z)| for |z| <= radius, by either form of ``_Terms``.

    As for ``grid_bracket``'s patches, with phases h t up to h radius: a table
    row is accurate to 2 reach_a (h radius + 3) u, one exponential per term to
    4 u h radius sum_a K_a; doubling covers second-order terms.
    """
    terms = f._terms
    reach = terms.span + np.abs(terms.freqs).max(axis=0) + 1
    steps = 4.0 * (terms.h * radius + 3.0) * float(reach.sum())
    return _rounding_slack(terms, float(np.abs(terms.amps).sum()), steps)


def slice_x(f: TrigPolynomial, y0: float) -> TrigSlice:
    """The slice t -> f(t, y0)."""
    coeffs: dict[int, complex] = {}
    for (j, k), c in f.coeffs.items():
        coeffs[j] = coeffs.get(j, 0.0) + c * np.exp(1j * f.h * k * y0)
    return TrigSlice(f.h, coeffs)


def slice_y(f: TrigPolynomial, x0: float) -> TrigSlice:
    """The slice t -> f(x0, t)."""
    coeffs: dict[int, complex] = {}
    for (j, k), c in f.coeffs.items():
        coeffs[k] = coeffs.get(k, 0.0) + c * np.exp(1j * f.h * j * x0)
    return TrigSlice(f.h, coeffs)


def partial_derivative(f: TrigPolynomial, axis: str) -> TrigPolynomial:
    """Exact partial derivative along "x" or "y" (coefficientwise)."""
    if axis == "x":
        return TrigPolynomial(f.h, {(j, k): 1j * f.h * j * c for (j, k), c in f.coeffs.items()})
    if axis == "y":
        return TrigPolynomial(f.h, {(j, k): 1j * f.h * k * c for (j, k), c in f.coeffs.items()})
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


def divided_difference(g, a, b, axis: str | None = None, other=None) -> np.ndarray:
    """(g(a) - g(b)) / (a - b) for g along one coordinate, by one formula exact at a = b.

    g is a ``TrigSlice`` (axis None), or a ``TrigPolynomial`` whose ``axis``
    coordinate takes the values a and b while the other one is held at
    ``other``; a, b and other are broadcastable arrays.  Along the axis g is
    sum_k c_k e^{ihkt} (the held coordinate's phase folds into c_k).  With
    z = e^{ih(a - b)}, e^{ihka} - e^{ihkb} = e^{ihkb} (z - 1) sum_m s z^m
    (m = 0..k-1 and s = 1 for k > 0, m = k..-1 and s = -1 for k < 0), and
    (z - 1)/(a - b) = ih e^{ih(a - b)/2} sinc(h(a - b)/2), sinc(x) = sin(x)/x.
    Grouped by j = k - m - 1, every entry is

        ih sinc(h(a - b)/2) sum_j P_j(a) e^{-ih(j + 1/2) a} e^{ih(j + 1/2) b},

    P_j the sum of the terms c_k e^{ihka} with k > j >= 0, or minus those
    with k <= j < 0.  Nothing nearly equal is subtracted, so every entry is
    accurate to rounding at every gap, and a = b gives the derivative.  The
    formula is symmetric in a and b, so the partial sums go on the held
    coordinate's side; a column against a row is one matrix product, and a
    stack of them, shapes (..., n, 1) and (..., 1, m), one stacked product
    whose tables are laid out matrix by matrix, so that each matrix of the
    stack gets the values of its own call.
    """
    terms = g._terms
    ax = 1 if axis == "y" else 0
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    held = None if axis is None else np.asarray(other, dtype=float)
    if held is not None:
        if held.shape == b.shape != a.shape:
            a, b = b, a
        if held.shape != a.shape:
            a, held = np.broadcast_arrays(a, held)
    ndim = max(a.ndim, b.ndim)
    if a.ndim != b.ndim:
        a = a.reshape((1,) * (ndim - a.ndim) + a.shape)
        b = b.reshape((1,) * (ndim - b.ndim) + b.shape)
    stack = a.shape[:-2] if ndim >= 2 and a.shape[:-2] == b.shape[:-2] else None
    a_column = stack is not None and a.shape[-1] == b.shape[-2] == 1
    b_column = stack is not None and a.shape[-2] == b.shape[-1] == 1
    count = math.prod(stack) if a_column or b_column else 1
    # per matrix of the stack: a (count, 1, points) against its (T,) or (J,) tables
    pa, pb = a.reshape(count, 1, -1), b.reshape(count, 1, -1)
    ih_signs, half, ihalf = terms.dd_tables(ax)
    theta = terms._hfreqs[ax][:, None] * pa
    if held is not None:
        theta += terms._hfreqs[1 - ax][:, None] * held.reshape(count, 1, -1)
    rows = ih_signs @ (np.exp(1j * theta) * terms.amps[:, None])
    rows /= np.exp(ihalf[:, None] * pa)
    if pb.shape[-1] * half.size <= _ONE_SHOT_ENTRIES:
        cols = np.exp(ihalf[:, None] * pb)
    else:
        table = _phase_powers(terms.h, pb, half[0], half.size).reshape(half.size, count, -1)
        cols = np.ascontiguousarray(np.moveaxis(table, 1, 0))  # a view when count is 1
    # sinc is even: |ha/2 - hb/2| floored at the least normal double gives 1 at a = b;
    # scaling before the subtraction rounds no worse than the phases themselves
    x = np.maximum(np.abs((0.5 * terms.h) * a - (0.5 * terms.h) * b), _TINY)
    sinc = np.sin(x)
    sinc /= x
    if pa.shape[-1] == 1 or pb.shape[-1] == 1 or a_column:
        total = np.swapaxes(rows, -1, -2) @ cols
    elif b_column:
        total = np.swapaxes(cols, -1, -2) @ rows
    else:
        total = (rows.reshape(half.shape + a.shape) * cols.reshape(half.shape + b.shape)).sum(axis=0)
    total = total.reshape(x.shape)
    total *= sinc
    return total


def lp_piece(f: TrigPolynomial, n: int) -> TrigPolynomial:
    """Dyadic band piece: coefficients scaled by w(|xi| / 2^n)."""
    return f.scaled_coeffs(lambda mods: DEFAULT_WINDOW.w(mods / 2.0**n))


def vp_smooth(f: TrigPolynomial, n: int) -> TrigPolynomial:
    """Low-pass smoothing: coefficients scaled by v(|xi| / 2^n)."""
    return f.scaled_coeffs(lambda mods: DEFAULT_WINDOW.v(mods / 2.0**n))


def piece_index_range(f: TrigPolynomial) -> range:
    """Dyadic indices n whose band can intersect the support of f."""
    mods = [f.h * math.hypot(j, k) for (j, k) in f.coeffs if (j, k) != (0, 0)]
    if not mods:
        return range(0)
    lo = math.floor(math.log2(min(mods))) - 1
    hi = math.ceil(math.log2(max(mods))) + 1
    return range(lo, hi + 1)


def lp_pieces(f: TrigPolynomial) -> dict[int, TrigPolynomial]:
    """All nonzero dyadic pieces of f, keyed by the band index n."""
    pieces = {}
    for n in piece_index_range(f):
        piece = lp_piece(f, n)
        if piece.coeffs:
            pieces[n] = piece
    return pieces


def band_uppers(f: TrigPolynomial) -> dict[int, float]:
    """Certified upper ||f_n||_upper of every nonzero dyadic piece, keyed by n.

    Keys ascend, so sums over the values keep the band order of ``lp_pieces``.
    """
    return {n: sup_norm(piece)[1] for n, piece in lp_pieces(f).items()}


def sup_norm(f: TrigPolynomial) -> tuple[float, float]:
    """Certified bracket lower <= ||f||_inf <= upper.

    ``grid_bracket``'s auto policy on f's exponential type ``support_radius``:
    sum_k |c_k| without sampling when every term's phase can be aligned,
    else one FFT grid, then rounds of patches of the candidate cells sharing
    64 * 64^2 points (64 x 64 each for up to 64 cells), every upper capped
    by sum_k |c_k|.
    """
    return grid_bracket(f, f.support_radius)


def besov_b1inf1_norm(f: TrigPolynomial) -> float:
    """Surrogate B^1_{inf,1} norm: sum_n 2^n * upper bracket of the n-th piece."""
    total = 0.0
    for n, upper in band_uppers(f).items():
        total += 2.0**n * upper
    return total


def seminorm_estimate(
    f: TrigPolynomial,
    omega: ModulusOfContinuity,
    samples: int = 10000,
    seed: int = 0,
) -> float:
    """Lower estimate of sup |f(z1) - f(z2)| / omega(|z1 - z2|).

    Deterministic given the seed; the estimate is a running maximum over
    seeded random pairs plus all grid-adjacent pairs at refinement 64, so it
    is monotone in ``samples`` for a fixed seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    period = f.period
    best = 0.0
    # grid-adjacent pairs
    g = 64
    vals = f.grid_values(g)  # vals[i, k] = f(i * period/g, k * period/g)
    step = period / g
    denom = omega(step)
    if denom > 0.0:
        dx = np.abs(np.diff(vals, axis=0)).max()
        dy = np.abs(np.diff(vals, axis=1)).max()
        best = max(best, float(max(dx, dy)) / denom)
    # seeded random pairs (prefix-stable draws)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, period, size=(samples, 4))
    v1 = f.eval(pts[:, 0], pts[:, 1])
    v2 = f.eval(pts[:, 2], pts[:, 3])
    dist = np.hypot(pts[:, 0] - pts[:, 2], pts[:, 1] - pts[:, 3])
    mask = dist > 0.0
    ratios = np.abs(v1[mask] - v2[mask]) / omega(dist[mask])
    if ratios.size:
        best = max(best, float(ratios.max()))
    return best


def jackson_check(
    f: TrigPolynomial,
    omega: ModulusOfContinuity,
    n_range: Iterable[int],
    samples: int = 10000,
    seed: int = 0,
) -> list[tuple[int, float, float, float, float]]:
    """Empirical constants for the smoothing error ||f - f*V_n||_inf.

    Each row is (n, lhs, lhs_ratio, piece_norm, piece_ratio) where the
    ratios divide by omega(2^-n) times the seminorm estimate; they measure
    the constants in the Jackson-type bounds for V_n and W_n.
    """
    sem = seminorm_estimate(f, omega, samples, seed)
    rows = []
    for n in n_range:
        lhs = sup_norm(f - vp_smooth(f, n))[1]
        piece = sup_norm(lp_piece(f, n))[1]
        denom = omega(2.0**-n) * sem
        if denom <= 0.0:
            if max(lhs, piece) > 0.0:
                raise ValueError("seminorm estimate vanished; ratios undefined")
            rows.append((n, 0.0, 0.0, 0.0, 0.0))
        else:
            rows.append((n, lhs, lhs / denom, piece, piece / denom))
    return rows


# Frequencies of ``random_trig_polynomial`` in units of sigma / 4: the points
# of Z^2 in the closed disc of radius 4, and their distances from the origin.
_LATTICE_RADIUS = 4
_LATTICE = [
    (j, k)
    for j in range(-_LATTICE_RADIUS, _LATTICE_RADIUS + 1)
    for k in range(-_LATTICE_RADIUS, _LATTICE_RADIUS + 1)
    if math.hypot(j, k) <= _LATTICE_RADIUS
]
_LATTICE_MODULI = [math.hypot(j, k) for (j, k) in _LATTICE]


def random_trig_polynomial(
    sigma: float,
    n_terms: int,
    seed: int,
    decay: float = 0.0,
    rng: np.random.Generator | None = None,
) -> TrigPolynomial:
    """Seeded random polynomial with support radius exactly <= sigma.

    Frequencies live on the lattice (sigma/4) * Z^2 inside the disc of
    radius sigma; amplitudes are complex Gaussian, damped by
    (1 + |(j,k)|)^(-decay) to mimic smoother functions when decay > 0.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if rng is None:
        rng = np.random.default_rng(seed)
    h = sigma / _LATTICE_RADIUS
    n_terms = min(n_terms, len(_LATTICE))
    idx = rng.choice(len(_LATTICE), size=n_terms, replace=False)
    coeffs = {}
    for i in idx:
        amp = complex(rng.standard_normal(), rng.standard_normal())
        coeffs[_LATTICE[i]] = amp * (1.0 + _LATTICE_MODULI[i]) ** (-decay)
    return TrigPolynomial(h, coeffs)
