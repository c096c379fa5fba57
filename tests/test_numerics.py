import math

import numpy as np
import pytest
from scipy.special import gammainc
from scipy.stats import kstest

from cvmeta.errors import DomainError
from cvmeta.numerics import (
    RngState,
    chisq_quantile,
    norm_cdf,
    norm_quantile,
    optimize_1d,
    sample_noncentral_t,
)


class TestNormQuantile:
    def test_median(self):
        assert norm_quantile(0.5) == 0.0

    def test_upper_975(self):
        assert abs(norm_quantile(0.975) - 1.95996398) < 1e-8

    def test_adjusted_level_critical(self):
        # two-sided critical value at the 0.1658 level
        assert abs(norm_quantile(0.9171) - 1.386) < 1e-3

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            norm_quantile(p)

    def test_round_trip_grid(self):
        for p in np.concatenate([[1e-6], np.linspace(0.01, 0.99, 99), [1 - 1e-6]]):
            assert abs(norm_cdf(norm_quantile(p)) - p) <= 1e-9


class TestNormCdf:
    def test_zero(self):
        assert norm_cdf(0.0) == 0.5

    def test_upper(self):
        assert abs(norm_cdf(1.959964) - 0.975) < 1e-7

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.2):
            assert abs(norm_cdf(-x) - (1.0 - norm_cdf(x))) < 1e-15


class TestChisqQuantile:
    def test_exponential_median(self):
        assert abs(chisq_quantile(0.5, 2) - 2.0 * math.log(2.0)) < 1e-9

    def test_df1_95(self):
        assert abs(chisq_quantile(0.95, 1) - 3.841459) < 1e-6

    def test_cdf_round_trip(self):
        # forward CDF via the regularized incomplete gamma; one array call per df
        p = np.array([0.025, 0.5, 0.975])
        for df in (1, 5, 9, 34):
            x = chisq_quantile(p, df)
            assert x.shape == p.shape
            assert np.all(abs(gammainc(df / 2.0, x / 2.0) - p) < 1e-10)

    def test_strictly_increasing(self):
        ps = np.linspace(0.01, 0.99, 99)
        qs = [chisq_quantile(p, 7) for p in ps]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            chisq_quantile(p, 3)


class TestOptimize1d:
    def test_sin_max(self):
        arg, val = optimize_1d(np.sin, 0.0, math.pi / 2, mode="max")
        assert abs(arg - math.pi / 2) < 1e-6
        assert abs(val - 1.0) < 1e-9

    def test_cos_min(self):
        arg, val = optimize_1d(np.cos, 0.0, math.pi / 2, mode="min")
        assert abs(arg - math.pi / 2) < 1e-6
        assert abs(val) < 1e-9

    def test_multimodal(self):
        # two interior minima on [0, pi/2]; dense scan pins the global one
        f = lambda t: np.sin(7.0 * t) + 0.3 * t
        _, val = optimize_1d(f, 0.0, math.pi / 2, mode="min", tol=1e-9)
        grid = np.linspace(0.0, math.pi / 2, 100001)
        dense = min(f(t) for t in grid)
        assert val <= dense + 1e-9

    def test_max_dominates_probes(self):
        rng = np.random.default_rng(5)
        f = lambda t: np.exp(-t) * np.cos(5.0 * t)
        _, val = optimize_1d(f, 0.0, math.pi / 2, mode="max")
        for t in rng.uniform(0.0, math.pi / 2, 200):
            assert val >= f(t) - 1e-9


class TestRngState:
    def test_reproducible_streams(self):
        a = RngState(42).stream(7).standard_normal(5)
        b = RngState(42).stream(7).standard_normal(5)
        assert np.array_equal(a, b)

    def test_streams_differ_by_trial(self):
        a = RngState(42).stream(0).standard_normal(5)
        b = RngState(42).stream(1).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_seed_validation(self):
        with pytest.raises(DomainError):
            RngState(-1)
        with pytest.raises(DomainError):
            RngState(2**64)


class TestSampleNoncentralT:
    def test_deterministic(self):
        a = sample_noncentral_t(10.0, np.zeros(8), RngState(3).stream(0))
        b = sample_noncentral_t(10.0, np.zeros(8), RngState(3).stream(0))
        assert np.array_equal(a, b)

    def test_central_mean(self):
        rng = RngState(11).stream(0)
        draws = sample_noncentral_t(30.0, np.zeros(100000), rng)
        assert abs(float(np.mean(draws))) < 0.02

    def test_noncentral_mean(self):
        # E[T] = ncp * sqrt(df/2) * Gamma((df-1)/2) / Gamma(df/2)
        df, ncp = 10.0, 2.0
        expected = ncp * math.sqrt(df / 2.0) * math.gamma((df - 1) / 2.0) / math.gamma(df / 2.0)
        rng = RngState(12).stream(0)
        draws = sample_noncentral_t(df, np.full(100000, ncp), rng)
        assert abs(float(np.mean(draws)) - expected) < 0.03

    def test_central_matches_t_distribution(self):
        rng = RngState(13).stream(0)
        draws = sample_noncentral_t(8.0, np.zeros(100000), rng)
        assert kstest(draws, "t", args=(8.0,)).pvalue > 0.001

    def test_array_df_broadcast(self):
        rng = RngState(14).stream(0)
        out = sample_noncentral_t(np.array([5.0, 50.0, 500.0]), np.array([1.0, 1.0, 1.0]), rng)
        assert out.shape == (3,)

    def test_df_domain(self):
        with pytest.raises(DomainError):
            sample_noncentral_t(0.0, 1.0, RngState(1).stream(0))
