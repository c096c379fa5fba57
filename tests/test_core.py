import math
from fractions import Fraction

import numpy as np
import pytest

from cvmeta.core import MetaDataset, PooledFit, _dl_pass, _pooled, _var_tau2, fit_rem
from cvmeta.errors import DataFormatError, DegenerateWeightsError
from cvmeta.measures import _i_squared, het_measures

from conftest import random_dataset


def dataset(y, v):
    return MetaDataset(np.asarray(y, float), np.asarray(v, float))


def pooled(d, tau2):
    """Pooled effect and its variance at weights 1/(v + tau2), as floats."""
    b, var = _pooled(d.effects, d.within_vars, tau2)
    return float(b), float(var)


def measures_at(d, tau2):
    """het_measures of ``d`` for a fit whose between-study variance is ``tau2``."""
    b, var = pooled(d, tau2)
    return het_measures(d, PooledFit(b, tau2, fit_rem(d).q, var, 1.0, d.k))


def normalizer(d):
    """S1 - S2/S1 in the difference form, exact enough away from extreme weights."""
    w = 1.0 / d.within_vars
    return float(w.sum() - (w * w).sum() / w.sum())


def untruncated_tau2(d):
    return (fit_rem(d).q - (d.k - 1)) / normalizer(d)


def moment_variance(d, tau2):
    """Var(Q) over the squared normalizer: the variance of the untruncated estimator."""
    return float(_var_tau2(d.within_vars, _dl_pass(d.effects, d.within_vars)[1], tau2))


def var_q(d, tau2):
    """Large-sample variance of Q, as the fit forms it."""
    denom = _dl_pass(d.effects, d.within_vars)[1]
    return float(_var_tau2(d.within_vars, denom, tau2) * denom * denom)


def exact_var_tau2(v, tau2):
    """Var(Q)/(S1 - S2/S1)^2 in exact rational arithmetic, from the power sums S_r."""
    w = [1 / Fraction(x) for x in v]
    s1, s2, s3 = (sum(x**r for x in w) for r in (1, 2, 3))
    t, denom = Fraction(tau2), s1 - s2 / s1
    vq = 2 * (len(w) - 1) + 4 * denom * t + 2 * (s2 - 2 * s3 / s1 + s2 * s2 / (s1 * s1)) * t * t
    return vq / denom**2


class TestMetaDataset:
    def test_needs_two_studies(self):
        with pytest.raises(DataFormatError, match="^a meta-analysis needs at least 2 studies, got 1$"):
            dataset([1.0], [1.0])

    @pytest.mark.parametrize("v", [0.0, -1.0, math.inf, math.nan])
    def test_bad_variance(self, v):
        with pytest.raises(DataFormatError, match="^all within-study variances must be positive and finite$"):
            MetaDataset([0.0, 0.1], [1.0, v])

    @pytest.mark.parametrize("y", [math.inf, math.nan])
    def test_bad_effect(self, y):
        with pytest.raises(DataFormatError, match="^all effects must be finite$"):
            MetaDataset([0.0, y], [1.0, 1.0])

    @pytest.mark.parametrize(
        "y, v", [([0.1, 0.2], [1.0]), ([0.1, 0.2], [[1.0, 1.0]]), ([[0.1, 0.2]], [[1.0, 1.0]])],
        ids=["lengths", "v_2d", "both_2d"],
    )
    def test_shape_mismatch(self, y, v):
        with pytest.raises(DataFormatError, match="^effects and variances must be equal-length 1-D"):
            MetaDataset(y, v)

    def test_from_arrays_round_trip(self):
        d = dataset([0.1, 0.2, 0.3], [1.0, 2.0, 3.0])
        assert d.k == 3 and len(d) == 3
        assert np.array_equal(d.effects, [0.1, 0.2, 0.3])
        assert np.array_equal(d.within_vars, [1.0, 2.0, 3.0])

    def test_arrays_write_protected(self):
        d = dataset([0.1, 0.2], [1.0, 2.0])
        with pytest.raises(ValueError):
            d.effects[0] = 9.0


class TestPooledEstimate:
    def test_identical_studies(self):
        b, var = pooled(dataset([1, 1], [1, 1]), 0.0)
        assert b == 1.0 and var == 0.5

    def test_symmetric_average(self):
        b, var = pooled(dataset([0, 2], [1, 1]), 0.0)
        assert b == 1.0 and var == 0.5

    def test_unequal_weights_with_tau2(self):
        b, var = pooled(dataset([0, 2], [1, 3]), 1.0)
        assert abs(b - 2.0 / 3.0) < 1e-15
        assert abs(var - 4.0 / 3.0) < 1e-15

    def test_large_tau2_tends_to_unweighted_mean(self):
        rng = np.random.default_rng(0)
        d = random_dataset(rng)
        b, _ = pooled(d, 1e12)
        assert abs(b - float(np.mean(d.effects))) < 1e-6 * max(1.0, abs(b))


class TestCochranQ:
    def test_no_dispersion(self):
        assert fit_rem(dataset([1, 1], [1, 1])).q == 0.0

    def test_two_point(self):
        assert abs(fit_rem(dataset([0, 2], [1, 1])).q - 2.0) < 1e-14

    def test_algebraic_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            d = random_dataset(rng)
            w = 1.0 / d.within_vars
            s1 = float(np.sum(w))
            alt = float(np.sum(w * d.effects**2) - np.sum(w * d.effects) ** 2 / s1)
            assert abs(fit_rem(d).q - alt) < 1e-10

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        assert all(fit_rem(random_dataset(rng)).q >= 0.0 for _ in range(20))


class TestDlTau2:
    def test_two_point(self):
        d = dataset([0, 2], [1, 1])
        assert abs(fit_rem(d).tau2_hat - 1.0) < 1e-14
        assert abs(untruncated_tau2(d) - 1.0) < 1e-14

    def test_truncation(self):
        d = dataset([1.0, 1.01], [1, 1])
        assert fit_rem(d).tau2_hat == 0.0 and untruncated_tau2(d) < 0.0

    def test_identical_studies_untruncated(self):
        d = dataset([1, 1], [1, 1])
        assert fit_rem(d).tau2_hat == 0.0 and abs(untruncated_tau2(d) - (-1.0)) < 1e-14


class TestNormalizerCancellation:
    # one weight 1e20 times the other: S1 - S2/S1 cancels to 0 in floating
    # point, but equals 2 w1 w2 / S1, about 2e-10
    d = dataset([0.0, 3.0], [1e-10, 1e10])

    def test_dl_tau2(self):
        assert fit_rem(self.d).tau2_hat == 0.0
        # the same weights with Q near 9 leave tau2 positive, so its value
        # is Q - 1 over the normalizer itself
        fit = fit_rem(dataset([0.0, 3e5], [1e-10, 1e10]))
        assert fit.q > 1.0
        assert fit.tau2_hat == pytest.approx((fit.q - 1.0) / 2e-10, rel=1e-12)

    def test_var_tau2_and_fits(self):
        rem = fit_rem(self.d)
        assert rem.tau2_hat == 0.0
        assert rem.var_tau2_hat == pytest.approx(2.0 / (2e-10) ** 2, rel=1e-12)


class TestVarQ:
    def test_tau2_zero(self):
        assert var_q(dataset(np.zeros(10), np.ones(10)), 0.0) == 18.0

    def test_equal_unit_weights(self):
        assert abs(var_q(dataset([0, 0], [1, 1]), 1.0) - 8.0) < 1e-12

    def test_monte_carlo(self):
        # simulate Q for normal effects at fixed variances, tau2 = 0.3
        rng = np.random.default_rng(3)
        v = np.array([0.2, 0.5, 0.8, 0.3, 1.1, 0.6])
        tau2 = 0.3
        n = 100000
        y = rng.normal(0.0, np.sqrt(v + tau2), size=(n, v.size))
        w = 1.0 / v
        beta = (y * w).sum(axis=1) / w.sum()
        q = (w * (y - beta[:, None]) ** 2).sum(axis=1)
        predicted = var_q(dataset(np.zeros(v.size), v), tau2)
        assert abs(float(np.var(q, ddof=1)) / predicted - 1.0) < 0.03


class TestVarTau2:
    def test_direct(self):
        d = dataset([0, 0], [1, 1])
        assert abs(moment_variance(d, 0.0) - 2.0) < 1e-14
        assert fit_rem(d).var_tau2_hat == moment_variance(d, 0.0)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        d = random_dataset(rng)
        scaled = dataset(2.0 * d.effects, 4.0 * d.within_vars)
        assert abs(moment_variance(scaled, 4.0 * 0.2) / moment_variance(d, 0.2) - 16.0) < 1e-9

    def test_monte_carlo_untruncated(self):
        rng = np.random.default_rng(5)
        v = np.full(10, 0.5)
        tau2 = 1.0
        n = 100000
        y = rng.normal(0.0, np.sqrt(v + tau2), size=(n, v.size))
        w = 1.0 / v
        beta = (y * w).sum(axis=1) / w.sum()
        q = (w * (y - beta[:, None]) ** 2).sum(axis=1)
        s1, s2 = float(w.sum()), float((w**2).sum())
        raw = (q - (v.size - 1)) / (s1 - s2 / s1)
        d = dataset(np.zeros(v.size), v)
        assert abs(float(np.var(raw, ddof=1)) / moment_variance(d, tau2) - 1.0) < 0.05

    def test_exact_where_power_sums_cancel(self):
        # the power-sum form of the tau2^2 coefficient gave 2.5e19 here
        fit = fit_rem(dataset([0, 3e6, 1e7], [1e-10, 1e10, 1e10]))
        exact = exact_var_tau2([1e-10, 1e10, 1e10], fit.tau2_hat)
        assert fit.var_tau2_hat == pytest.approx(float(exact), rel=1e-12)
        assert fit.var_tau2_hat == pytest.approx(9.2813500625e26, rel=1e-12)

    def test_exact_batch(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            k = int(rng.integers(2, 41))
            v = np.exp(rng.normal(0.0, rng.uniform(0.0, 8.0), k))
            y = rng.normal(0.0, np.sqrt(v + rng.uniform(0.0, 2.0)))
            fit = fit_rem(dataset(y, v))
            exact = exact_var_tau2(v, fit.tau2_hat)
            assert fit.var_tau2_hat == pytest.approx(float(exact), rel=1e-12)


class TestISquared:
    def test_zero_q(self):
        assert _i_squared(0.0, 8) == 0.0

    def test_midpoint(self):
        assert _i_squared(18.0, 10) == 0.5

    def test_truncated_below(self):
        assert _i_squared(3.0, 10) == 0.0

    def test_scalar_and_array_forms_match_reference(self):
        def reference(q, k):
            if q <= 0.0:
                return 0.0
            return max(0.0, (q - (k - 1)) / q)

        rng = np.random.default_rng(6)
        qs = np.array([0.0, -1.0, 1e-300, 8.0, 9.0, 9.5, 1e6, *rng.uniform(0.0, 40.0, 30)])
        for k in (2, 10, 35):
            batched = _i_squared(qs, k)
            for i, q in enumerate(qs):
                scalar = float(_i_squared(float(q), k))
                assert scalar == float(batched[i]) == reference(float(q), k)


class TestRb:
    def test_zero_tau2(self):
        assert measures_at(dataset([0, 1], [1, 3]), 0.0).rb == 0.0

    def test_direct(self):
        assert abs(measures_at(dataset([0, 1], [1, 3]), 1.0).rb - 0.375) < 1e-15

    def test_small_within_limit(self):
        assert abs(measures_at(dataset([0, 1], [1e-12, 1e-12]), 1.0).rb - 1.0) < 1e-9

    def test_identity_with_pooled_variance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = random_dataset(rng)
            tau2 = float(rng.uniform(0.05, 2.0))
            _, var_b = pooled(d, tau2)
            assert abs(measures_at(d, tau2).rb * d.k * var_b - tau2) < 1e-10


class TestDiamondRatio:
    def test_tau2_zero(self):
        assert measures_at(dataset([0, 1], [1, 2]), 0.0).dr == 1.0

    def test_direct(self):
        assert abs(measures_at(dataset([0, 1], [1, 1]), 1.0).dr - math.sqrt(2.0)) < 1e-14

    def test_at_least_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = random_dataset(rng)
            assert measures_at(d, float(rng.uniform(0.0, 2.0))).dr >= 1.0


class TestFits:
    def test_overflow_messages_name_the_cause(self):
        with pytest.raises(DegenerateWeightsError, match=r"^the tau2 estimate overflows \(Q = inf, S1"):
            fit_rem(MetaDataset([1e200, -1e200, 0.0], [1.0, 1.0, 1.0]))
        with pytest.raises(DegenerateWeightsError, match=r"^S1 - S2/S1 = nan is not positive"):
            fit_rem(MetaDataset([1.0, 0.0], [1e-320, 1.0]))

    def test_rem_consistency(self):
        rng = np.random.default_rng(8)
        d = random_dataset(rng)
        fit = fit_rem(d)
        w = 1.0 / d.within_vars
        q = float(np.sum(w * (d.effects - np.sum(w * d.effects) / np.sum(w)) ** 2))
        assert fit.q == pytest.approx(q, rel=1e-12)
        assert fit.tau2_hat == pytest.approx(max(0.0, untruncated_tau2(d)), rel=1e-12)
        b, var_b = pooled(d, fit.tau2_hat)
        assert fit.beta_hat == b and fit.var_beta_hat == var_b

    def test_scale_equivariance_exact(self):
        # powers of two keep every float operation exact
        rng = np.random.default_rng(10)
        d = random_dataset(rng)
        scaled = dataset(2.0 * d.effects, 4.0 * d.within_vars)
        f1, f2 = fit_rem(d), fit_rem(scaled)
        assert f2.beta_hat == 2.0 * f1.beta_hat
        assert f2.tau2_hat == 4.0 * f1.tau2_hat
        h1, h2 = het_measures(d, f1), het_measures(scaled, f2)
        assert (h2.i2, h2.rb, h2.dr) == (h1.i2, h1.rb, h1.dr)
