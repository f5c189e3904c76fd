"""Certified perturbation bounds and the eight experiment suites.

The certified constants here are assembled only from fully explicit chains:
the dyadic decomposition, the sqrt(3) * sigma * ||f||_inf multiplier bound
per band, and elementary norm inequalities.  Everything else (the universal
constants of the qualitative theorems) is measured and reported, never
asserted.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .bandlimited import (
    _UNIT_ROUNDOFF,
    ModulusOfContinuity,
    TrigPolynomial,
    TrigSlice,
    _value_slack,
    band_uppers,
    omega_star,
    random_trig_polynomial,
    seminorm_estimate,
)
from .doi import difference_via_doi, quasicommutator_via_doi
from .ideals import (
    IdealSpec,
    _averaging_constants,
    boyd_index_estimate,
    schatten_sum,
    sigma_averages,
    singular_values,
)
from .sinc import row_energy, sinc_basis
from .spectral import (
    SpectralDecomposition,
    _adjoint,
    _gaussian,
    _normal_draw,
    _phase_fixed_q,
    functional_calculus,
)

_SQRT3 = math.nextafter(math.sqrt(3.0), math.inf)  # >= sqrt(3), as sqrt rounds correctly

DEFAULT_BOX = (-1.0, 1.0, -1.0, 1.0)
# Trials that ``_pair_trials`` draws together, and the most complex entries
# (512 KB) in one stack of a group.  At dim 64 one complex matrix per trial of
# a block takes 4 MB.  A block holds three such (two Gaussians and a factor R)
# while it is drawn, and its groups then hold five (two unitaries, their
# matrices once read, and R), alive until the next block is drawn.  A suite's
# compute phase runs on one group at a time, on a few dozen stacks of at most
# _STACK_ENTRIES entries, and its results (at most four matrices per trial)
# are kept until the block is scored.  So the working set is bounded by the
# block, whatever the trial count: ``qc-verify`` at dims [64] peaks at 47 MB
# (tracemalloc), 108 MB with its groups unsplit.
_TRIAL_BLOCK = 64
_STACK_ENTRIES = 2**15


@dataclass
class ExperimentReport:
    """Tabulated trial results; deterministic given (config, seed)."""

    experiment: str
    seed: int
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def violations(self) -> int:
        return int(self.meta.get("violations", 0))

    def add(self, *row) -> None:
        if len(row) != len(self.columns):
            raise ValueError("row length does not match columns")
        self.rows.append(tuple(float(v) for v in row))


class ConvexBody:
    """Compact convex subset of the plane: a ccw polygon or a disc."""

    def __init__(self, kind: str, vertices=None, center=0.0j, radius=0.0):
        self.kind = kind
        self.vertices = None if vertices is None else np.asarray(vertices, dtype=complex)
        self.center = complex(center)
        self.radius = float(radius)
        if kind == "polygon":
            v = self.vertices
            if v is None or v.size < 3:
                raise ValueError("polygon needs at least 3 vertices")
            edges = np.roll(v, -1) - v
            cross = (edges.conjugate() * (np.roll(v, -2) - np.roll(v, -1))).imag
            if np.any(cross < -1e-12 * np.abs(edges).max() ** 2):
                raise ValueError("vertices must list a convex polygon counterclockwise")
            self.diameter = float(np.abs(v[:, None] - v[None, :]).max())
        elif kind == "disc":
            if radius <= 0.0:
                raise ValueError("radius must be positive")
            self.diameter = 2.0 * self.radius
        else:
            raise ValueError(f"unknown body kind {kind!r}")

    @classmethod
    def polygon(cls, vertices) -> "ConvexBody":
        return cls("polygon", vertices=vertices)

    @classmethod
    def disc(cls, center, radius) -> "ConvexBody":
        return cls("disc", center=center, radius=radius)

    def contains(self, z):
        """Membership of a point, or elementwise of an array of points, to 1e-12."""
        tol = 1e-12
        z = np.asarray(z, dtype=complex)
        if self.kind == "disc":
            inside = np.abs(z - self.center) <= self.radius + tol
        else:
            v = self.vertices
            edges = np.roll(v, -1) - v
            cross = (edges.conjugate() * (z[..., None] - v)).imag
            inside = np.all(cross >= -tol * max(np.abs(edges).max(), 1.0), axis=-1)
        return inside if inside.ndim else bool(inside)


def project_convex(zeta, body: ConvexBody):
    """Nearest point of the body; identity inside, 1-Lipschitz everywhere.

    Accepts a point or an array of points, projected elementwise.
    """
    z = np.asarray(zeta, dtype=complex)
    if body.kind == "disc":
        off = z - body.center
        d = np.abs(off)
        # max(d, radius) is d wherever the radial branch is taken
        radial = body.center + body.radius * off / np.maximum(d, body.radius)
        out = np.where(d <= body.radius, z, radial)
    else:
        v = body.vertices
        e = np.roll(v, -1) - v
        t = ((z[..., None] - v) * e.conjugate()).real
        p = v + np.clip(t / np.abs(e) ** 2, 0.0, 1.0) * e
        # argmin keeps the first of equally near edge points
        nearest = np.argmin(np.abs(z[..., None] - p), axis=-1)[..., None]
        out = np.where(body.contains(z), z, np.take_along_axis(p, nearest, -1)[..., 0])
    return out if out.ndim else complex(out)


def extend_by_projection(f, body: ConvexBody):
    """Extend f from the body to the plane via the nearest-point map.

    The extension has the same (sampled) Lipschitz quotient as f on the body
    because the projection is a contraction.  It accepts arrays whenever f
    does, so it fits the array contract of ``functional_calculus``.
    """
    return lambda zeta: f(project_convex(zeta, body))


def _up(x: float) -> float:
    """The next double above x: an upper bound on the exact result that rounded to x."""
    return math.nextafter(x, math.inf)


def _sum_up(values) -> float:
    """Upper bound on the exact sum of nonnegative doubles: each partial sum rounded up."""
    return functools.reduce(lambda total, v: _up(total + v), values, 0.0)


def certified_lipschitz_constant(f: TrigPolynomial) -> float:
    """Certified operator Lipschitz constant of f.

    Sums 2 sqrt(3) 2^(n+1) ||f_n||_upper over the dyadic pieces: each band
    has multiplier norm at most sqrt(3) * 2^(n+1) * ||f_n||_inf per
    coordinate kernel, and both Hermitian parts of the difference are
    dominated by the difference itself.  Sums and products are rounded up
    (scalings by powers of two are exact), so floating point never lowers it.
    """
    total = _sum_up(2.0 ** (n + 1) * upper for n, upper in band_uppers(f).items())
    return _up(2.0 * _SQRT3 * total) if total else 0.0  # no pieces: f is constant


def certified_modulus_bound(f: TrigPolynomial, delta: float) -> float:
    """Certified upper bound for ||f(N1) - f(N2)|| whenever ||N1 - N2|| <= delta.

    Optimizes the split between the Lipschitz estimate on low bands and the
    crude 2 ||f_n||_inf estimate on high bands, rounded up as
    ``certified_lipschitz_constant`` is.
    """
    return _modulus_bound_from_uppers(band_uppers(f), delta)


def _modulus_bound_from_uppers(uppers: dict[int, float], delta: float) -> float:
    """``certified_modulus_bound`` from the band uppers of ``band_uppers``."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if not uppers:
        return 0.0
    ns = list(uppers)
    slope = _up(delta * 2.0 * _SQRT3)
    best = math.inf
    for split in range(len(ns) + 1):
        head = _sum_up(2.0 ** (n + 1) * uppers[n] for n in ns[:split])
        tail = _sum_up(uppers[n] for n in ns[split:])
        best = min(best, _up(_up(slope * head) + 2.0 * tail))
    return best


def _slack(x: np.ndarray, f: TrigPolynomial | None, d1: SpectralDecomposition,
           d2: SpectralDecomposition, scale: float = 1.0) -> float:
    """Bound on |computed norm of x - exact norm|, operator or trace norm.

    x is the computed g(N1) - g(N2), or g(N1) R - R g(N2) with ||R||_F = scale (g = f, or
    the identity for f None), g(N) formed as (U * g(lambda)) @ U*.  Exact means for the normal
    Q diag(lambda) Q*, Q the unitary polar factor of U, to which the certified bounds apply.
    Proof (u = 2^-53; j u stands for gamma_j <= 1.01 j u): complex products and inner
    products of length n err by sqrt(2) 2u and sqrt(2) (n + 2) u of the sum of their moduli
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002, sec. 3.6),
    so with V = max |g| + e (e = ``_value_slack``) and k = ||U||_F^2, forming g(N) errs by
    <= 2 (n + 4) u V k in Frobenius norm, twice that covering the product by R once scaled.
    Exact g moves it by <= k e.  U = Q H gives ||U - Q||_F = ||H - I||_F <= ||U* U - I||_F
    <= eta (the computed value plus sqrt(2) (n + 2) u k), so U D U* - Q D Q* =
    (U - Q) D U* + Q D (U - Q)* is at most eta (2 + eta) V.  The subtraction adds
    u ||x||_F.  LAPACK's SVD returns the singular values of x + E, ||E||_2 <= p(n) u ||x||_2
    (LAPACK Users' Guide, 3rd ed., sec. 4.9; p(n) taken as 16 n^2, Higham 2002, ch. 19),
    each moved by <= ||E||_2 (Weyl), and the trace norm's sum adds n u.  With err the sum
    of the two Frobenius bounds, both norms are within sqrt(n) err scale +
    n (17 n^2 + 1) u ||x||_F; the factor 2 covers the 1.01 and this bound's own rounding.
    """
    n, u = x.shape[0], _UNIT_ROUNDOFF
    radius = float(max(np.abs(d1.eigenvalues).max(), np.abs(d2.eigenvalues).max()))
    e = 0.0 if f is None else _value_slack(f, radius)
    err = 0.0
    for d in (d1, d2):
        k = float(np.linalg.norm(d.unitary)) ** 2
        defect = d.unitary.conj().T @ d.unitary - np.eye(n)
        eta = float(np.linalg.norm(defect)) + math.sqrt(2.0) * (n + 2) * u * k
        top = float(np.abs(d.eigenvalues if f is None else f(d.eigenvalues)).max()) + e
        err += top * (4.0 * (n + 4) * u * k + eta * (2.0 + eta)) + k * e
    return 2.0 * (math.sqrt(n) * err * scale + n * (17 * n * n + 1) * u * float(np.linalg.norm(x)))


def _unit_sup_direction(dim: int, rng: np.random.Generator, rank: int | None = None):
    nu = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if rank is not None:
        keep = rng.choice(dim, size=min(rank, dim), replace=False)
        mask = np.zeros(dim, dtype=bool)
        mask[keep] = True
        nu = np.where(mask, nu, 0.0)
    return nu / np.abs(nu).max()


@dataclass(frozen=True)
class _PairDraw:
    """A normal pair as drawn, before its unitaries are factored.

    ``gaussians`` holds the Gaussian matrix of each unitary: one when the
    pair shares its eigenbasis, else one per matrix.  N1's unitary is the
    phase-fixed Q of the first, N2's that of the last.
    """

    lam1: np.ndarray
    lam2: np.ndarray
    gaussians: tuple


def _coupled_draw(dim: int, delta: float, rng: np.random.Generator,
                  rank: int | None = None) -> _PairDraw:
    """A normal pair sharing an eigenbasis with ||N1 - N2|| = delta.

    Draws ``_normal_draw``'s eigenvalues and Gaussian matrix, then the
    direction of the shift (supported on ``rank`` random eigenvalues when
    given).  What is exact is the eigenvalue shift: lambda2 - lambda1 has
    sup-modulus delta.  The matrices U diag(lambda) U* are formed when they
    are read, so they differ by delta in operator norm only up to rounding
    (about 1e-16 for entries of order one).
    """
    lam, g = _normal_draw(dim, DEFAULT_BOX, rng)
    return _PairDraw(lam, lam + delta * _unit_sup_direction(dim, rng, rank), (g,))


def _independent_draw(dim: int, rng: np.random.Generator) -> _PairDraw:
    """A pair of independent ``_normal_draw``s, the first drawn first."""
    lam1, g1 = _normal_draw(dim, DEFAULT_BOX, rng)
    lam2, g2 = _normal_draw(dim, DEFAULT_BOX, rng)
    return _PairDraw(lam1, lam2, (g1, g2))


def trial_draws(seed: int, trials: int, dims: list[int] | None = None, key: tuple = ()):
    """Yield (trial, dim, rng) for every trial of a suite.

    Trial t draws from its own substream ``default_rng((seed, *key, t))``, so
    its inputs do not depend on the other trials, and runs at
    ``dims[t % len(dims)]`` (dim is None when no dims are given).  ``key``
    separates the streams of a suite's outer loop, such as the holder
    sweep's grid index.
    """
    for trial in range(trials):
        dim = None if dims is None else dims[trial % len(dims)]
        yield trial, dim, np.random.default_rng((seed, *key, trial))


@dataclass(frozen=True)
class _Group:
    """Trials of one block that share a dimension, in trial order, their pairs stacked.

    ``d1`` and ``d2`` are (k, dim, dim) stacks of decompositions; ``extras``
    holds, for each extra input of the suite's ``draw``, the trials' values
    in a list.
    """

    trials: list
    dim: int
    d1: SpectralDecomposition
    d2: SpectralDecomposition
    extras: tuple


def _pair_trials(seed: int, trials: int, dims: list[int], draw, key: tuple = ()):
    """Yield every block of a suite that draws normal pairs, as a list of ``_Group``s.

    ``draw(trial, dim, rng)`` draws the trial's inputs from its
    ``trial_draws`` substream and returns (pair, *extra), pair from
    ``_independent_draw`` or ``_coupled_draw``.  Trials are drawn in blocks
    of ``_TRIAL_BLOCK`` and grouped by dimension, at most
    ``_STACK_ENTRIES // dim^2`` trials (at least one) to a group, and the
    unitaries of a group are factored with one QR call.  QR draws nothing
    and a stacked QR equals the per-matrix one bit for bit, so each trial
    gets the inputs it would get drawn and factored alone.  A suite computes
    on each group's stacks and scores the block ``_in_trial_order``.
    """
    draws = trial_draws(seed, trials, dims, key)
    while block := list(itertools.islice(draws, _TRIAL_BLOCK)):
        yield _grouped(block, draw)


def _grouped(block: list, draw) -> list[_Group]:
    """The groups of one block of ``trial_draws``; its Gaussian matrices are dropped on return."""
    by_dim: dict[int, list] = {}
    for trial, dim, rng in block:
        by_dim.setdefault(dim, []).append((trial, *draw(trial, dim, rng)))
    groups = []
    for dim, members in by_dim.items():
        size = max(1, _STACK_ENTRIES // dim**2)
        for start in range(0, len(members), size):
            chunk = members[start:start + size]
            pairs = [pair for _, pair, *_ in chunk]
            # np.array stacks a list of equal arrays as np.stack does, for less overhead
            q = _phase_fixed_q(np.array([g for pair in pairs for g in pair.gaussians]))
            if len(q) == len(pairs):  # every pair shares its eigenbasis
                u1 = u2 = q
            else:
                counts = [len(pair.gaussians) for pair in pairs]
                ends = np.cumsum(counts)
                u1, u2 = q[ends - counts], q[ends - 1]
            d1 = SpectralDecomposition(u1, np.array([pair.lam1 for pair in pairs]))
            d2 = SpectralDecomposition(u2, np.array([pair.lam2 for pair in pairs]))
            extras = tuple(map(list, zip(*(extra for _, _, *extra in chunk))))
            groups.append(_Group([t for t, *_ in chunk], dim, d1, d2, extras))
    return groups


def _in_trial_order(groups: list[_Group], compute=None) -> list[tuple]:
    """(trial, dim, d1, d2, *extras, *values) for every trial of a block, in trial order.

    ``compute(group)``, the compute phase of a suite, returns a tuple of
    stacks (or lists) indexed like the group's trials; a trial's values are
    its entries of them.
    """
    rows = []
    for group in groups:
        values = () if compute is None else compute(group)
        for i, trial in enumerate(group.trials):
            rows.append((trial, group.dim, group.d1[i], group.d2[i],
                         *(e[i] for e in group.extras), *(v[i] for v in values)))
    return sorted(rows, key=lambda row: row[0])


def _ratio(num: float, den: float) -> float:
    """num / den for num >= 0, with 0 / 0 = 0 and num / 0 = inf for num > 0."""
    if den > 0.0:
        return num / den
    return 0.0 if num == 0.0 else math.inf


def _note_worst(meta: dict, key: str, name: str, trials: list, ratios: list) -> None:
    """Keep in meta[key] the largest ratio so far and its trial, the first on a tie.

    One reduction per block: ``ratios`` are the block's, in trial order.
    """
    if ratios:
        i = int(np.argmax(ratios))
        if meta[key] is None or ratios[i] > meta[key][name]:
            meta[key] = {"trial": int(trials[i]), name: float(ratios[i])}


def _draw_with_factor(trial: int, dim: int, rng: np.random.Generator):
    """An independent pair, then a complex Gaussian factor R."""
    return _independent_draw(dim, rng), _gaussian(dim, rng)


def experiment_lipschitz(
    f: TrigPolynomial,
    dims: list[int],
    trials: int,
    seed: int,
) -> ExperimentReport:
    """Operator-norm and trace-norm Lipschitz quotients against the certified constant.

    Alternates independent and coupled normal pairs; every quotient must stay
    below the certified constant, in operator norm and in trace norm.  A
    quotient A / B above L (1 + 1e-9) is a violation only if
    A - E_A > L (1 + 1e-9) (B + E_B), with the rounding bounds E_A, E_B of
    ``_slack``, computed only after that plain test fails.  ``meta`` records
    the trial whose larger quotient came closest to L, and that quotient / L.
    """
    lip = certified_lipschitz_constant(f)
    rep = ExperimentReport(
        "lip-bound",
        seed,
        ["trial", "dim", "delta_op", "quotient_op", "quotient_s1", "certified"],
        meta={"lipschitz_constant": lip, "violations": 0, "worst_margin": None},
    )
    def draw(trial, dim, rng):
        if trial % 2 == 0:
            return (_independent_draw(dim, rng),)
        return (_coupled_draw(dim, float(2.0 ** -(trial % 11)), rng),)

    def compute(g):
        dn = g.d1.matrix - g.d2.matrix
        diff = functional_calculus(f, g.d1) - functional_calculus(f, g.d2)
        # one SVD for both; norm(., 2) is the max of the same SVD
        spectra = singular_values(np.concatenate([dn, diff]))
        s_dn, s_diff = spectra[: len(dn)], spectra[len(dn):]
        return (dn, diff, s_dn[:, 0], schatten_sum(s_dn, 1.0),
                s_diff[:, 0], schatten_sum(s_diff, 1.0))

    for groups in _pair_trials(seed, trials, dims, draw):
        scored, margins = [], []
        for (trial, dim, d1, d2, dn, diff,
             delta_op, delta_s1, num_op, num_s1) in _in_trial_order(groups, compute):
            delta_op, delta_s1 = float(delta_op), float(delta_s1)
            if delta_op < 1e-14:
                continue
            num_op, num_s1 = float(num_op), float(num_s1)
            q_op = num_op / delta_op
            q_s1 = num_s1 / delta_s1
            if max(q_op, q_s1) > lip * (1.0 + 1e-9):
                slack_a, slack_b = _slack(diff, f, d1, d2), _slack(dn, None, d1, d2)
                if any(a - slack_a > lip * (1.0 + 1e-9) * (b + slack_b)
                       for a, b in ((num_op, delta_op), (num_s1, delta_s1))):
                    rep.meta["violations"] += 1
            rep.add(trial, dim, delta_op, q_op, q_s1, lip)
            scored.append(trial)
            margins.append(_ratio(max(q_op, q_s1), lip))
        _note_worst(rep.meta, "worst_margin", "measured_over_certified", scored, margins)
    return rep


def experiment_holder_sweep(
    f: TrigPolynomial,
    alpha: float,
    dims: list[int],
    delta_grid: list[float],
    trials: int,
    seed: int,
) -> ExperimentReport:
    """Measured vs certified moduli across a grid of perturbation sizes.

    Columns: (delta, measured_max_norm, delta_alpha, omega_star,
    certified_bound, log_envelope); the measured column must never exceed
    the certified one, and the last two columns give the power-modulus and
    capped-modulus envelopes for log-log plots.

    Each trial pair comes from ``_coupled_draw`` on the RNG substream
    (seed, grid_idx, trial), drawn anew for every delta.  The maxima at
    different deltas therefore come from different matrices and need not
    follow a log-log slope <= 1 from one grid point to the next.  What is
    promised is measured_max_norm <= certified_bound at every delta.
    The band uppers of f are certified once and serve every delta.  A
    trial's norm above certified (1 + 1e-9) is a violation only if norm - E >
    certified max(1, D / delta) (1 + 1e-9), E its ``_slack``, computed only
    after that plain test fails: the exact pair lies D = max |lambda2 - lambda1|
    <= (1 + 4u) (computed D) apart, where each split a delta + b of the bound
    (a, b >= 0) grows at most D / delta-fold.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    om_pow = ModulusOfContinuity.power(alpha)
    x0, x1, y0, y1 = DEFAULT_BOX
    diam = math.hypot(x1 - x0, y1 - y0)
    om_cap = ModulusOfContinuity.capped_linear(diam)
    rep = ExperimentReport(
        "holder-sweep",
        seed,
        ["delta", "measured_max_norm", "delta_alpha", "omega_star",
         "certified_bound", "log_envelope"],
        meta={"alpha": alpha, "violations": 0,
              "plot": {"x": "delta", "y": "measured_max_norm", "slope": alpha}},
    )
    uppers = band_uppers(f)
    for grid_idx, delta in enumerate(delta_grid):
        certified = _modulus_bound_from_uppers(uppers, delta)
        measured = 0.0
        violated = False
        def draw(trial, dim, rng):
            return (_coupled_draw(dim, delta, rng),)

        rows = (row for groups in _pair_trials(seed, trials, dims, draw, (grid_idx,))
                for row in _in_trial_order(groups))
        for _, dim, d1, d2 in rows:
            diff = functional_calculus(f, d1) - functional_calculus(f, d2)
            norm = float(np.linalg.norm(diff, 2))
            measured = max(measured, norm)
            if norm > certified * (1.0 + 1e-9) and not violated:
                shift = float(np.abs(d2.eigenvalues - d1.eigenvalues).max()) / delta
                stretch = max(1.0, shift * (1.0 + 4.0 * _UNIT_ROUNDOFF))
                violated = norm - _slack(diff, f, d1, d2) > certified * stretch * (1.0 + 1e-9)
        rep.meta["violations"] += int(violated)
        rep.add(
            delta, measured, delta**alpha, omega_star(om_pow, delta),
            certified, omega_star(om_cap, min(delta, diam)),
        )
    return rep


def experiment_schatten_decay(
    f: TrigPolynomial,
    alpha: float,
    p: float,
    dims: list[int],
    trials: int,
    seed: int,
) -> ExperimentReport:
    """Singular-value decay of f(N1) - f(N2) against the head-sum envelopes.

    Per (trial, j) the rows carry s_j of the difference, the envelope
    (1+j)^(-alpha/p) ||dN||^alpha over the head of length j, the Cesaro
    average sigma_j(dN), and s_j^(1/alpha).  Empirical constants are
    reported in the metadata, normalized by the Hoelder seminorm estimate.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    sem = seminorm_estimate(f, ModulusOfContinuity.power(alpha), 20000, seed)
    rep = ExperimentReport(
        "schatten-decay",
        seed,
        ["trial", "dim", "j", "s_j", "envelope", "sigma_j", "s_j_invalpha"],
        meta={"alpha": alpha, "p": p, "seminorm_lower": sem, "violations": 0},
    )
    c_decay = 0.0
    c_major = 0.0
    c_head = 0.0
    def draw(trial, dim, rng):
        kind = trial % 3
        if kind == 0:
            return (_coupled_draw(dim, float(2.0 ** -(trial % 7)), rng, rank=1),)
        if kind == 1:
            return (_coupled_draw(dim, float(2.0 ** -(trial % 7)), rng),)
        return (_independent_draw(dim, rng),)

    rows = (row for groups in _pair_trials(seed, trials, dims, draw)
            for row in _in_trial_order(groups))
    for trial, dim, d1, d2 in rows:
        dn = d1.matrix - d2.matrix
        diff = functional_calculus(f, d1) - functional_calculus(f, d2)
        s_diff = singular_values(diff)
        s_dn = singular_values(dn)
        sig = sigma_averages(s_dn)
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


def experiment_quasicommutator(
    f: TrigPolynomial,
    dims: list[int],
    trials: int,
    seed: int,
) -> ExperimentReport:
    """Quasicommutator identity residuals and the certified domination.

    Rows: (trial, dim, measured, residual, max_quasicomm, certified) where
    certified = L(f) * max(||N1 R - R N2||, ||N1* R - R N2*||).  measured
    above certified (1 + 1e-9) is a violation only if measured - E_m >
    L (1 + 1e-9) (max_quasicomm + E_q), with the rounding bounds E_m, E_q of
    ``_slack``, computed only after that plain test fails.  ``meta`` records
    the trials with the largest measured / certified and residual / scale
    (scale = 1 + ||f(N1) R - R f(N2)||_F), and those ratios.
    """
    lip = certified_lipschitz_constant(f)
    rep = ExperimentReport(
        "qc-verify",
        seed,
        ["trial", "dim", "measured", "residual", "max_quasicomm", "certified"],
        meta={"lipschitz_constant": lip, "violations": 0, "worst_margin": None,
              "worst_residual": None},
    )
    def compute(g):
        r = np.array(g.extras[0])
        lhs = functional_calculus(f, g.d1) @ r - r @ functional_calculus(f, g.d2)
        rhs = quasicommutator_via_doi(f, g.d1, g.d2, r)
        n1, n2 = g.d1.matrix, g.d2.matrix
        quasi = (n1 @ r - r @ n2, _adjoint(n1) @ r - r @ _adjoint(n2))
        # every operator norm from one SVD: norm(., 2) is its max
        tops = singular_values(np.concatenate([lhs, *quasi]))[:, 0].reshape(3, len(r))
        return lhs, lhs - rhs, *quasi, tops[0], np.maximum(tops[1], tops[2])

    for groups in _pair_trials(seed, trials, dims, _draw_with_factor):
        scored, margins, residuals = [], [], []
        for (trial, dim, d1, d2, r, lhs, error, *quasi,
             measured, qc) in _in_trial_order(groups, compute):
            scale = 1.0 + float(np.linalg.norm(lhs))
            residual = float(np.linalg.norm(error))
            measured, qc = float(measured), float(qc)
            certified = lip * qc
            violated = residual > 1e-9 * scale
            if measured > certified * (1.0 + 1e-9):
                r_fro = float(np.linalg.norm(r))
                room = lip * (1.0 + 1e-9) * (qc + max(_slack(x, None, d1, d2, r_fro) for x in quasi))
                violated |= measured - _slack(lhs, f, d1, d2, r_fro) > room
            rep.meta["violations"] += int(violated)
            rep.add(trial, dim, measured, residual, qc, certified)
            scored.append(trial)
            margins.append(_ratio(measured, certified))
            residuals.append(residual / scale)
        _note_worst(rep.meta, "worst_margin", "measured_over_certified", scored, margins)
        _note_worst(rep.meta, "worst_residual", "residual_over_scale", scored, residuals)
    return rep


def experiment_fuglede_ratio(
    dims: list[int],
    p_list: list[float],
    trials: int,
    seed: int,
) -> ExperimentReport:
    """Ratio of adjoint to plain quasicommutator Schatten norms.

    At p = 2 the ratio is exactly 1 (entrywise conjugation in eigenbases);
    for p in {1, inf} the ratio is a recorded observable that can exceed 1.
    Degenerate denominators are skipped and counted in the metadata.
    """
    rep = ExperimentReport(
        "fuglede-ratio",
        seed,
        ["p", "trial", "ratio"],
        meta={"violations": 0, "skipped": 0, "max_ratio": {}},
    )
    scores = [[] for _ in p_list]  # per p, (trial, ratio or None) in trial order
    def compute(g):
        r = np.array(g.extras[0])
        n1, n2 = g.d1.matrix, g.d2.matrix
        x = n1 @ r - r @ n2
        y = _adjoint(n1) @ r - r @ _adjoint(n2)
        spectra = singular_values(np.concatenate([x, y]))
        s_x, s_y = spectra[: len(x)], spectra[len(x):]
        return tuple(itertools.chain.from_iterable(
            (schatten_sum(s_x, p), schatten_sum(s_y, p)) for p in p_list))

    for groups in _pair_trials(seed, trials, dims, _draw_with_factor):
        for trial, _, _, _, _, *sums in _in_trial_order(groups, compute):
            for rows, denom, num in zip(scores, sums[::2], sums[1::2]):
                denom = float(denom)
                rows.append((trial, None if denom < 1e-14 else float(num) / denom))
    for p, rows in zip(p_list, scores):
        worst = 0.0
        for trial, ratio in rows:
            if ratio is None:
                rep.meta["skipped"] += 1
                continue
            if p == 2.0 and abs(ratio - 1.0) > 1e-10:
                rep.meta["violations"] += 1
            worst = max(worst, ratio)
            rep.add(p, trial, ratio)
        rep.meta["max_ratio"][str(p)] = worst
    return rep


def experiment_doi_identity(
    sigma: float,
    dims: list[int],
    trials: int,
    seed: int,
    tol: float = 1e-9,
) -> ExperimentReport:
    """Residuals of the difference identity on random band-limited functions.

    Each trial draws its own f, so its kernels are formed trial by trial;
    the matrix products are stacked.  ``meta`` records the trial with the
    largest residual / scale, and that ratio.
    """
    rep = ExperimentReport(
        "doi-verify",
        seed,
        ["trial", "dim", "residual", "scale"],
        meta={"sigma": sigma, "tol": tol, "violations": 0, "worst_residual": None},
    )
    def draw(trial, dim, rng):
        f = random_trig_polynomial(sigma, 12, seed=None, rng=rng)
        return _independent_draw(dim, rng), f

    def compute(g):
        fs = g.extras[0]

        def each(lam):  # every trial's f on its own spectrum
            return np.array([f(spectrum) for f, spectrum in zip(fs, lam)])

        f1 = functional_calculus(each, g.d1)
        f2 = functional_calculus(each, g.d2)
        return f1, f2, f1 - f2 - difference_via_doi(fs, g.d1, g.d2)

    for groups in _pair_trials(seed, trials, dims, draw):
        scored, residuals = [], []
        for trial, dim, _, _, _, f1, f2, error in _in_trial_order(groups, compute):
            scale = 1.0 + float(np.linalg.norm(f1)) + float(np.linalg.norm(f2))
            residual = float(np.linalg.norm(error))
            if residual > tol * scale:
                rep.meta["violations"] += 1
            rep.add(trial, dim, residual, scale)
            scored.append(trial)
            residuals.append(residual / scale)
        _note_worst(rep.meta, "worst_residual", "residual_over_scale", scored, residuals)
    return rep


def experiment_sinc_check(trials: int, seed: int) -> ExperimentReport:
    """Basis-mass and row-energy checks for the sampling expansion.

    ``basis_mass`` sums its 2001 squares by ``math.fsum``, so its error is
    the basis' own, not the summation's.
    """
    rep = ExperimentReport(
        "sinc-check",
        seed,
        ["trial", "sigma", "point", "basis_mass", "energy_ratio"],
        meta={"violations": 0},
    )
    n_terms = 1000
    ns = np.arange(-n_terms, n_terms + 1)
    for trial, _, rng in trial_draws(seed, trials):
        sigma = float(rng.uniform(0.5, 4.0))
        y = float(rng.uniform(-6.0, 6.0))
        mass = math.fsum((sinc_basis(sigma, ns, y) ** 2).tolist())
        coeffs = {
            int(m): complex(rng.standard_normal(), rng.standard_normal())
            for m in rng.choice(np.arange(-3, 4), size=4, replace=False)
        }
        fslice = TrigSlice(sigma / 3.0, coeffs)
        x = float(rng.uniform(-3.0, 3.0))
        energy = row_energy(fslice, sigma, x, 2 * n_terms)
        cap = 3.0 * fslice.sup_bracket()[1] ** 2
        ratio = energy / cap if cap > 0 else 0.0
        if abs(mass - 1.0) > 1e-3 or ratio > 1.0 + 1e-6:
            rep.meta["violations"] += 1
        rep.add(trial, sigma, y, mass, ratio)
    # closed-form row energy of a unimodular exponential
    unit = TrigSlice(1.0, {1: 1.0})
    ecase = row_energy(unit, 1.0, 0.37, 2000)
    rep.meta["unimodular_energy"] = ecase
    # piecewise envelope (1/pi) * integral of min(4, u^2)/u^2 du = 8/pi
    core, _ = quad(lambda u: 1.0 if abs(u) <= 2.0 else 4.0 / (u * u), -2.0, 2.0, epsabs=1e-10)
    wing, _ = quad(lambda u: 4.0 / (u * u), 2.0, 200.0, epsabs=1e-10)
    envelope = (core + 2.0 * (wing + 4.0 / 200.0)) / math.pi
    rep.meta["envelope_const"] = envelope
    if abs(ecase - 2.0) > 1e-3 or abs(envelope - 8.0 / math.pi) > 1e-6:
        rep.meta["violations"] += 1
    return rep


def experiment_ideals_boyd(p_list: list[float], trials: int, seed: int) -> ExperimentReport:
    """Boyd index and averaging constants for the Schatten scale.

    The averaging check draws all its spectra once, from one stream seeded by
    ``seed`` (see ``averaging_constant_check``), and scores them for every p.
    A Boyd estimate more than 1e-6 off its analytic value, or an averaging
    constant above its certified bound, counts as a violation.
    """
    rep = ExperimentReport(
        "ideals-boyd",
        seed,
        ["p", "boyd_estimate", "boyd_analytic", "avg_empirical", "avg_bound"],
        meta={"violations": 0},
    )
    specs = [IdealSpec.schatten(p) for p in p_list]
    for p, spec, (emp, bound) in zip(p_list, specs, _averaging_constants(specs, trials, seed)):
        est, analytic = boyd_index_estimate(spec, 64)
        if abs(est - analytic) > 1e-6:
            rep.meta["violations"] += 1
        if bound is not None and emp > bound * (1.0 + 1e-9):
            rep.meta["violations"] += 1
        rep.add(p, est, analytic, emp, math.nan if bound is None else bound)
    return rep


def _suite_f(config, decay: float = 0.0) -> TrigPolynomial:
    """The test function of the suites that take one, drawn from the config's seed."""
    return random_trig_polynomial(config.sigma, 12, config.seed, decay=decay)


# Experiment id -> suite run on a validated config (``opcalc.cli.RunConfig``).
# The entries look each suite up by name when called, so rebinding a module
# attribute (as a profiler's wrapper does) reaches every dispatch.
SUITES = {
    "doi-verify": lambda c: experiment_doi_identity(c.sigma, c.dims, c.trials, c.seed, c.tol),
    "sinc-check": lambda c: experiment_sinc_check(c.trials, c.seed),
    "lip-bound": lambda c: experiment_lipschitz(_suite_f(c), c.dims, c.trials, c.seed),
    "holder-sweep": lambda c: experiment_holder_sweep(
        _suite_f(c, decay=1.0), c.alpha, c.dims, c.delta_grid, c.trials, c.seed
    ),
    "schatten-decay": lambda c: experiment_schatten_decay(
        _suite_f(c, decay=1.0), c.alpha, c.p[0], c.dims, c.trials, c.seed
    ),
    "ideals-boyd": lambda c: experiment_ideals_boyd(c.p, c.trials, c.seed),
    "qc-verify": lambda c: experiment_quasicommutator(_suite_f(c), c.dims, c.trials, c.seed),
    "fuglede-ratio": lambda c: experiment_fuglede_ratio(c.dims, c.p, c.trials, c.seed),
}
