import math

import numpy as np
import pytest

from opcalc.ideals import (
    IdealSpec,
    _random_spectra,
    _root,
    averaging_bound,
    averaging_constant_check,
    beta_d_estimate,
    boyd_index_estimate,
    default_test_family,
    dilate_spectrum,
    kyfan_holder_check,
    majorization_le,
    schatten_sum,
    sigma_averages,
    singular_values,
)

SP1 = IdealSpec.schatten(1.0)
SP2 = IdealSpec.schatten(2.0)


def spectrum(*vals):
    return np.array(vals, dtype=float)


class TestSingularValues:
    def test_unitary(self):
        from opcalc.spectral import random_normal

        s = singular_values(random_normal(5, seed=0).unitary)
        assert np.abs(s - 1.0).max() <= 1e-12

    def test_diagonal_sorting(self):
        s = singular_values(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(s, [3.0, 2.0, 1.0])

    def test_rank_one(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        s = singular_values(np.outer(a, b.conj()))
        want = np.linalg.norm(a) * np.linalg.norm(b)
        assert abs(s[0] - want) <= 1e-12 * want
        assert np.abs(s[1:]).max() <= 1e-12 * want

    @pytest.mark.parametrize("seed", range(5))
    def test_frobenius_consistency(self, seed):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        s = singular_values(t)
        assert abs(np.sum(s**2) - np.linalg.norm(t) ** 2) <= 1e-10 * np.linalg.norm(t) ** 2

    @pytest.mark.parametrize("n", [2, 5, 8, 32])
    def test_stack_equals_per_matrix(self, n):
        rng = np.random.default_rng(n)
        stack = rng.standard_normal((80, n, n)) + 1j * rng.standard_normal((80, n, n))
        got = singular_values(stack)
        assert got.shape == (80, n)
        assert np.array_equal(got, [singular_values(t) for t in stack])

    def test_operator_norm_is_the_first_singular_value(self):
        rng = np.random.default_rng(64)
        for dim in range(1, 65):
            x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            assert np.linalg.norm(x, 2) == singular_values(x)[0]

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            majorization_le(spectrum(1.0, 2.0), spectrum(1.0))
        with pytest.raises(ValueError, match="nonnegative"):
            dilate_spectrum(spectrum(1.0, -0.5), 2)


class TestSigmaAverages:
    def test_constant_sequence(self):
        assert np.array_equal(sigma_averages([2.0, 2.0, 2.0]), [2.0, 2.0, 2.0])

    def test_delta_sequence(self):
        got = sigma_averages([1.0, 0.0, 0.0])
        assert np.abs(got - [1.0, 0.5, 1.0 / 3.0]).max() <= 1e-15

    @pytest.mark.parametrize("seed", range(100))
    def test_dominates_tail_value(self, seed):
        rng = np.random.default_rng(seed)
        s = np.sort(rng.uniform(0, 1, 20))[::-1]
        sig = sigma_averages(s)
        assert np.all(sig >= s - 1e-15)
        assert np.all(np.diff(sig) <= 1e-15)


class TestPsiNorm:
    def test_euclidean(self):
        assert abs(SP2.psi([4.0, 3.0]) - 5.0) <= 1e-15

    def test_weak_harmonic(self):
        spec = IdealSpec.weak(1.0)
        assert abs(spec.psi([1.0, 0.5, 1.0 / 3.0, 0.25]) - 1.0) <= 1e-15

    def test_head_zero_is_operator_norm(self):
        spec = IdealSpec.trunc_head(0, SP1)
        assert spec.psi([7.0, 3.0, 1.0]) == 7.0

    def test_power_scale_rejects_infinity(self):
        # Psi_base(s^inf)^(1/inf) has no meaning
        with pytest.raises(ValueError):
            IdealSpec.power_scale(math.inf, SP2)

    def test_power_scale_composes_to_schatten(self):
        spec = IdealSpec.power_scale(2.0, SP2)  # -> S_4
        s = spectrum(2.0, 1.0, 0.5)
        want = np.sum(s**4) ** 0.25
        assert abs(spec.psi(s) - want) <= 1e-14

    @pytest.mark.parametrize("spec", [
        SP1, SP2, IdealSpec.weak(1.5),
        IdealSpec.trunc_head(3, SP2),
        IdealSpec.power_scale(0.5, SP1),
    ])
    def test_homogeneous_and_monotone(self, spec):
        rng = np.random.default_rng(11)
        for _ in range(20):
            vals = np.sort(rng.uniform(0, 2, 12))[::-1]
            c = float(rng.uniform(0, 3))
            assert abs(spec.psi(c * vals) - c * spec.psi(vals)) <= 1e-10 * (
                1 + spec.psi(vals)
            )
            assert spec.psi(vals + rng.uniform(0, 1)) >= spec.psi(vals) - 1e-12


class TestDilation:
    def test_identity(self):
        s = spectrum(2.0, 1.0)
        assert np.array_equal(dilate_spectrum(s, 1), s)

    def test_doubling(self):
        assert np.array_equal(dilate_spectrum(spectrum(2.0, 1.0), 2), [2.0, 2.0, 1.0, 1.0])

    @pytest.mark.parametrize("p,d", [(1.0, 2), (2.0, 4), (0.5, 3), (4.0, 8)])
    def test_schatten_scaling_exact(self, p, d):
        rng = np.random.default_rng(3)
        s = np.sort(rng.uniform(0, 1, 30))[::-1]
        spec = IdealSpec.schatten(p)
        got = spec.psi(dilate_spectrum(s, d))
        want = d ** (1.0 / p) * spec.psi(s)
        assert abs(got - want) <= 1e-12 * want


class TestBetaAndBoyd:
    def test_d_one_is_unity(self):
        for spec in (SP1, IdealSpec.weak(2.0)):
            est, _ = beta_d_estimate(spec, 1)
            assert abs(est - 1.0) <= 1e-15

    def test_schatten_exact(self):
        est, analytic = beta_d_estimate(SP2, 4)
        assert abs(est - 2.0) <= 1e-12
        assert analytic == 2.0

    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0, 4.0])
    def test_weak_estimate_close(self, p):
        spec = IdealSpec.weak(p)
        for d in (2, 8):
            est, analytic = beta_d_estimate(spec, d)
            assert est <= analytic * (1 + 1e-12)
            assert est >= 0.95 * analytic

    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0, 4.0])
    def test_boyd_schatten(self, p):
        est, analytic = boyd_index_estimate(IdealSpec.schatten(p), 64)
        assert analytic == 1.0 / p
        assert abs(est - 1.0 / p) <= 1e-6

    def test_boyd_power_scale(self):
        spec = IdealSpec.power_scale(2.0, SP2)
        est, analytic = boyd_index_estimate(spec, 64)
        assert abs(analytic - 0.25) <= 1e-15
        assert abs(est - 0.25) <= 1e-6

    def test_default_family_is_one_stack(self):
        fam = default_test_family()
        assert fam.shape == (14, 512)
        assert np.all(np.diff(fam, axis=-1) <= 0.0) and fam.min() >= 0.0

    @pytest.mark.parametrize("bad_row,match", [
        ([0.0, 0.5, 0.0], "nonincreasing"),
        ([1.0, -1e-3, -1e-3], "nonnegative"),
    ])
    def test_caller_family_checked_row_by_row(self, bad_row, match):
        fam = np.array([[3.0, 2.0, 1.0], [1.0, 1.0 + 1e-13, 0.0]])  # within the slack
        assert abs(beta_d_estimate(SP2, 2, fam)[0] - math.sqrt(2.0)) <= 1e-12
        bad = np.array([[1.0, 1.0, 0.0], bad_row])
        with pytest.raises(ValueError, match=match):
            beta_d_estimate(SP2, 2, bad)
        with pytest.raises(ValueError, match=match):
            boyd_index_estimate(SP2, 4, bad)

    def test_trunc_head_behaves_like_base_on_short_sequences(self):
        spec = IdealSpec.trunc_head(511, SP1)
        est, _ = beta_d_estimate(spec, 2, [spectrum(*([1.0] * 16))])
        assert abs(est - 2.0) <= 1e-12

    @pytest.mark.parametrize("spec", [
        SP2, IdealSpec.weak(1.5),
        IdealSpec.trunc_head(7, SP1),
        IdealSpec.power_scale(2.0, SP2),
    ])
    def test_submultiplicative_on_family(self, spec):
        fam = default_test_family()
        e2, _ = beta_d_estimate(spec, 2, fam)
        e3, _ = beta_d_estimate(spec, 3, fam)
        e6, _ = beta_d_estimate(spec, 6, fam)
        assert e6 <= e2 * e3 * (1 + 1e-9)


class TestAveraging:
    def test_schatten2_bound_value(self):
        want = 3.0 / (1.0 - 2.0**-0.5)
        assert abs(averaging_bound(SP2) - want) <= 1e-12
        assert abs(want - 10.242640687119284) <= 1e-12

    def test_constant_spectra_ratio_one(self):
        s = spectrum(*([1.5] * 10))
        assert abs(SP2.psi(sigma_averages(s)) / SP2.psi(s) - 1.0) <= 1e-14

    def test_p_at_most_one_has_no_bound(self):
        emp, bound = averaging_constant_check(SP1, trials=50, seed=0)
        assert bound is None
        assert emp >= 1.0

    @pytest.mark.parametrize("p", [4.0 / 3.0, 2.0, 4.0])
    def test_empirical_below_bound(self, p):
        emp, bound = averaging_constant_check(IdealSpec.schatten(p), trials=2000, seed=1)
        assert bound is not None
        assert emp <= bound

    def test_head_truncation_inherits_bound(self):
        spec = IdealSpec.trunc_head(5, SP2)
        assert averaging_bound(spec) == averaging_bound(SP2)
        emp, bound = averaging_constant_check(spec, trials=500, seed=2)
        assert emp <= bound


VARIANTS = [
    SP2,
    IdealSpec.weak(1.5),
    IdealSpec.trunc_head(5, IdealSpec.schatten(3.0)),
    IdealSpec.power_scale(2.0, IdealSpec.schatten(3.0)),
]


SP_EXPONENTS = [0.02, 0.7, 1.0, 4.0 / 3.0, 2.0, 4.0, 15.0, math.inf]
ORACLE_SPECS = VARIANTS + [IdealSpec.schatten(p) for p in SP_EXPONENTS]


def _oracle_families():
    rng = np.random.default_rng(9)
    rows = np.sort(rng.uniform(0.0, 2.0, (9, 37)), axis=-1)[:, ::-1]
    rows[4] = 0.0  # a zero row has no ratio and is passed over
    return {"default": default_test_family(), "fortran": np.asfortranarray(rows)}


def _reference_dilation_ratio(spec, d, family):
    """Supremum of Psi(dilate(s, d)) / Psi(s), one row and one d at a time."""
    best = 0.0
    for s in family:
        denom = spec.psi(s)
        if denom > 0.0:
            best = max(best, spec.psi(np.repeat(s, d)) / denom)
    return best


def _reference_boyd(spec, d_max, family):
    best = math.inf
    d = 2
    while d <= d_max:
        best = min(best, math.log(_reference_dilation_ratio(spec, d, family)) / math.log(d))
        d *= 2
    return best


def _reference_spectra(trials, seed, length=64):
    """The averaging stream drawn and formed one row at a time, in blocks of 1024."""
    rng = np.random.default_rng(seed)
    j = np.arange(length, dtype=float)
    for start in range(0, trials, 1024):
        block = np.empty((min(1024, trials - start), length))
        for row in block:
            shape = rng.integers(0, 3)
            if shape == 0:
                row[:] = rng.uniform(0.0, 1.0, length)
            elif shape == 1:
                row[:] = rng.uniform(0.5, 1.5) ** (-j * rng.uniform(0.0, 1.0)) * rng.uniform(0.1, 10.0)
            else:
                row[:] = (1.0 + j) ** (-rng.uniform(0.1, 3.0))
        yield np.sort(block, axis=-1)[:, ::-1]


def _reference_averaging(spec, trials, seed, length=64):
    """The averaging stream drawn and scored one spectrum at a time."""
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        shape = rng.integers(0, 3)
        if shape == 0:
            vals = rng.uniform(0.0, 1.0, length)
        elif shape == 1:
            vals = rng.uniform(0.5, 1.5) ** (-np.arange(length, dtype=float) * rng.uniform(0.0, 1.0))
            vals = vals * rng.uniform(0.1, 10.0)
        else:
            vals = (1.0 + np.arange(length, dtype=float)) ** (-rng.uniform(0.1, 3.0))
        s = np.sort(vals)[::-1]
        denom = spec.psi(s)
        if denom > 0.0:
            best = max(best, spec.psi(np.cumsum(s) / np.arange(1, length + 1)) / denom)
    return best


class TestStacks:
    @pytest.mark.parametrize("spec", VARIANTS, ids=lambda spec: spec.variant)
    def test_stack_equals_its_rows(self, spec):
        rng = np.random.default_rng(5)
        stack = np.sort(rng.uniform(0.0, 10.0, (300, 64)), axis=-1)[:, ::-1]
        got = spec.psi(stack)
        assert got.shape == (300,)
        assert np.array_equal(got, [spec.psi(row) for row in stack])
        avg = sigma_averages(stack)
        assert np.array_equal(avg, [sigma_averages(row) for row in stack])
        assert np.array_equal(spec.psi(avg), [spec.psi(row) for row in avg])

    @pytest.mark.parametrize("spec", VARIANTS, ids=lambda spec: spec.variant)
    def test_one_spectrum_gives_a_float(self, spec):
        assert type(spec.psi([3.0, 2.0, 1.0])) is float

    @pytest.mark.parametrize("spec", VARIANTS, ids=lambda spec: spec.variant)
    def test_averaging_check_equals_per_spectrum_loop(self, spec):
        # 2500 spectra cross two block boundaries of the stream
        for seed in (0, 3):
            emp, _ = averaging_constant_check(spec, trials=2500, seed=seed)
            assert emp == _reference_averaging(spec, 2500, seed)

    def test_stream_comes_in_bounded_blocks(self):
        blocks = list(_random_spectra(2500, 1))
        assert [len(b) for b in blocks] == [1024, 1024, 452]
        rows = np.concatenate(blocks)
        assert np.all(np.diff(rows, axis=-1) <= 0.0)
        assert np.array_equal(rows[:1500], np.concatenate(list(_random_spectra(1500, 1))))


class TestOracles:
    """The routines against one-at-a-time loops, bit for bit."""

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda spec: f"{spec.variant}-{spec.p}")
    def test_dilation_ratios_equal_the_row_and_d_loop(self, spec):
        # np.repeat(s, d) ** p and np.repeat(s ** p, d) must agree on every row
        for name, fam in _oracle_families().items():
            for d in (1, 2, 3, 6, 64):
                est, _ = beta_d_estimate(spec, d, fam)
                assert est == _reference_dilation_ratio(spec, d, fam), (name, d)
            for d_max in (5, 48, 64):
                est, _ = boyd_index_estimate(spec, d_max, fam)
                assert est == _reference_boyd(spec, d_max, fam), (name, d_max)

    @pytest.mark.parametrize("trials", [1, 1023, 1024, 1025, 2500])
    def test_stream_equals_the_row_loop(self, trials):
        for seed in range(10):
            got = list(_random_spectra(trials, seed))
            want = list(_reference_spectra(trials, seed))
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), seed


class TestMajorization:
    def test_reflexive(self):
        s = spectrum(2.0, 1.0, 0.5)
        assert majorization_le(s, s)

    def test_spread_dominates(self):
        assert majorization_le(spectrum(2.0, 0.0), spectrum(1.0, 1.0))

    def test_counterexample(self):
        assert not majorization_le(spectrum(1.0, 0.0), spectrum(0.6, 0.6))

    def test_unequal_lengths(self):
        assert majorization_le(spectrum(3.0, 1.0, 1.0), spectrum(2.0))


class TestSchattenSum:
    def test_norm_head_sum_and_psi_agree(self):
        rng = np.random.default_rng(12)
        t = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        s = singular_values(t)
        for p in (0.5, 1.0, 2.0, 3.5, math.inf):
            spec = IdealSpec.schatten(p)
            assert spec.psi(s) == schatten_sum(s, p)
            assert IdealSpec.trunc_head(1, spec).psi(s) == schatten_sum(s[:2], p)
        assert schatten_sum(s, 2.0) == pytest.approx(np.linalg.norm(t), rel=1e-14)

    @pytest.mark.parametrize("spec", [IdealSpec.schatten(math.inf), IdealSpec.weak(math.inf)],
                             ids=lambda spec: spec.variant)
    def test_infinity_is_the_top_value(self, spec):
        s = spectrum(0.5, 0.2, 0.1)
        assert spec.psi(s) == schatten_sum(s, math.inf) == 0.5
        assert type(spec.psi(s)) is float
        stack = np.sort(np.random.default_rng(2).uniform(0.0, 3.0, (7, 9)), axis=-1)[:, ::-1]
        assert np.array_equal(spec.psi(stack), stack[..., 0])
        assert np.array_equal(schatten_sum(stack, math.inf), stack[..., 0])


class TestRoot:
    @staticmethod
    def _comprehension(x, p):
        """Every x^(1/p) by its own numpy scalar power, as the stacked path takes them."""
        res = np.array([v ** (1.0 / p) for v in np.ravel(x)]).reshape(np.shape(x))
        return res if res.ndim else float(res)

    @pytest.mark.parametrize("p", [0.02, 0.7, 1.0, 4.0 / 3.0, 2.0, 4.0, 15.0])
    def test_scalar_and_stacked_roots_keep_the_bits(self, p):
        rng = np.random.default_rng(3)
        # sums as the ideals form them, with 0, tiny and huge values (inf for p < 1)
        stack = np.concatenate([np.sum(rng.uniform(0.0, 2.0, (40, 9)) ** p, axis=-1),
                                [0.0, 5e-324, 1e-300, 1.0, 3e10, 1.7e308]]).reshape(2, 23)
        with np.errstate(over="ignore"):
            want = self._comprehension(stack, p)
            assert np.array_equal(_root(stack, p), want)
            for x in stack.ravel():
                for scalar in (x, float(x), np.array(x)):
                    got = _root(scalar, p)
                    assert type(got) is float
                    assert np.array_equal(got, self._comprehension(scalar, p))
        assert math.isinf(want[-1, -1]) == (p < 1.0)


class TestKyFanHolder:
    def test_identity_factor_reduces_to_monotonicity(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        resid = kyfan_holder_check(t, np.eye(4, dtype=complex), 2.0, 2.0, 1.0, 2)
        assert resid <= 1e-10

    def test_diagonal_reduces_to_sequence_hoelder(self):
        a = np.diag([3.0, 2.0, 1.0]).astype(complex)
        b = np.diag([1.0, 2.0, 0.5]).astype(complex)
        resid = kyfan_holder_check(a, b, 2.0, 2.0, 1.0, 2)
        prod = np.sort(np.abs(np.diag(a @ b)))[::-1]
        direct = np.sum(prod[:3]) - math.sqrt(np.sum(np.abs(np.diag(a))**2)) * math.sqrt(
            np.sum(np.abs(np.diag(b))**2)
        )
        assert abs(resid - direct) <= 1e-12

    @pytest.mark.parametrize("seed", range(100))
    def test_random_sweep(self, seed):
        rng = np.random.default_rng(seed)
        t1 = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        t2 = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        scale = schatten_sum(singular_values(t1), 2.0) * schatten_sum(singular_values(t2), 2.0)
        assert kyfan_holder_check(t1, t2, 2.0, 2.0, 1.0, 3) <= 1e-10 * scale

    @pytest.mark.parametrize("p, q, r", [(math.inf, 2.0, 2.0), (1.0, math.inf, 1.0),
                                         (math.inf, math.inf, math.inf)])
    def test_infinite_exponents(self, p, q, r):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            t1 = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            t2 = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            scale = np.linalg.norm(t1) * np.linalg.norm(t2)
            assert kyfan_holder_check(t1, t2, p, q, r, 4) <= 1e-10 * scale, seed

    def test_exponent_mismatch(self):
        with pytest.raises(ValueError):
            kyfan_holder_check(np.eye(2, dtype=complex), np.eye(2, dtype=complex), 2.0, 2.0, 1.5, 1)

