import math

import numpy as np
import pytest

from cvmeta.core import PooledFit, fit_rem
from cvmeta.errors import DomainError, UndefinedMomentsError
from cvmeta.measures import (
    _ratio_measures,
    cv_measures,
    het_measures,
    inv_logit,
    logit,
    logit_m1_moments,
    measures_from_cv,
)



def synthetic_fit(beta_hat, tau2_hat, var_beta_hat, var_tau2_hat):
    return PooledFit(
        beta_hat=beta_hat,
        tau2_hat=tau2_hat,
        q=1.0,
        var_beta_hat=var_beta_hat,
        var_tau2_hat=var_tau2_hat,
        k=2,
    )


class TestCvMeasures:
    def test_zhu_point_values(self):
        m = cv_measures(math.sqrt(0.255), 2.225)
        assert abs(m.cv_b - 0.227) < 5e-4
        assert abs(m.m1 - 0.185) < 5e-4
        assert abs(m.m2 - 0.049) < 5e-4

    def test_beta_zero_boundary(self):
        m = cv_measures(1.0, 0.0)
        assert math.isinf(m.cv_b) and m.m1 == 1.0 and m.m2 == 1.0

    def test_tau_zero_convention(self):
        m = cv_measures(0.0, 0.7)
        assert m.cv_b == 0.0 and m.m1 == 0.0 and m.m2 == 0.0
        both = cv_measures(0.0, 0.0)
        assert both.cv_b == 0.0 and both.m1 == 0.0 and both.m2 == 0.0

    def test_sign_invariance_exact(self):
        for tau in (0.0, 0.3, 2.0):
            for beta in (0.5, 1.7):
                assert cv_measures(tau, beta) == cv_measures(tau, -beta)

    def test_hssp_from_cv(self):
        m = measures_from_cv(1.384)
        assert abs(m.m1 - 1.384 / 2.384) < 1e-12
        assert abs(m.m1 - 0.581) < 5e-4
        assert abs(m.m2 - 1.384**2 / (1 + 1.384**2)) < 1e-12
        assert abs(m.m2 - 0.657) < 5e-4

    def test_internal_consistency(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            tau, beta = rng.uniform(0.01, 4.0), rng.uniform(-3.0, 3.0)
            if beta == 0.0:
                continue
            m = cv_measures(tau, beta)
            assert abs(m.m1 - m.cv_b / (1.0 + m.cv_b)) <= 1e-12
            assert abs(m.m2 - m.cv_b**2 / (1.0 + m.cv_b**2)) <= 1e-12

    def test_scalar_and_array_forms_match_reference(self):
        def reference(tau, beta):
            if tau == 0.0:
                return (0.0, 0.0, 0.0)
            b = abs(beta)
            if b == 0.0:
                return (math.inf, 1.0, 1.0)
            return (tau / b, tau / (tau + b), tau * tau / (tau * tau + b * b))

        rng = np.random.default_rng(5)
        taus = [0.0, 1e-3, 0.3, 2.0, 1e3, *rng.uniform(0.0, 3.0, 20)]
        betas = [0.0, -0.0, 1e-3, -0.7, 2.5, 1e3, *rng.uniform(-3.0, 3.0, 20)]
        pairs = [(t, b) for t in taus for b in betas]
        arrays = _ratio_measures(np.array([t for t, _ in pairs]), np.array([b for _, b in pairs]))
        for i, (tau, beta) in enumerate(pairs):
            ref = reference(tau, beta)
            m = cv_measures(tau, beta)
            assert (m.cv_b, m.m1, m.m2) == ref
            assert tuple(float(a[i]) for a in arrays) == ref

    def test_m2_when_squares_underflow(self):
        # tau^2 + beta^2 underflows to 0 although both are positive
        pairs = [(1e-300, 1e-300, 0.5), (1e-300, 3e-300, 0.1), (1e-300, -3e-300, 0.1)]
        m2_array = _ratio_measures(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))[2]
        for i, (tau, beta, want) in enumerate(pairs):
            m2 = cv_measures(tau, beta).m2
            assert float(m2_array[i]) == m2
            assert abs(m2 - want) <= 1e-15
        assert cv_measures(1e-300, 1e-300).m2 == 0.5

    def test_monotone_in_tau_and_beta(self):
        taus = np.linspace(0.1, 3.0, 30)
        m1s = [cv_measures(t, 0.8).m1 for t in taus]
        m2s = [cv_measures(t, 0.8).m2 for t in taus]
        assert all(a < b for a, b in zip(m1s, m1s[1:]))
        assert all(a < b for a, b in zip(m2s, m2s[1:]))
        betas = np.linspace(0.1, 3.0, 30)
        m1b = [cv_measures(0.8, b).m1 for b in betas]
        assert all(a > b for a, b in zip(m1b, m1b[1:]))


class TestLogit:
    def test_half(self):
        assert logit(0.5) == 0.0

    def test_link_to_log_cv(self):
        m = measures_from_cv(1.384)
        assert abs(logit(m.m1) - math.log(1.384)) < 1e-12

    def test_round_trip(self):
        for u in (0.185, 0.5, 0.93):
            assert abs(inv_logit(logit(u)) - u) < 1e-14

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.3])
    def test_domain(self, u):
        with pytest.raises(DomainError):
            logit(u)

    def test_inv_logit_extremes(self):
        assert inv_logit(-800.0) == 0.0 or inv_logit(-800.0) > 0.0
        assert 0.0 < inv_logit(-30.0) < 1e-12
        assert 1.0 - inv_logit(30.0) < 1e-12


class TestLogitM1Moments:
    def test_direct_evaluation(self):
        fit = synthetic_fit(beta_hat=0.5, tau2_hat=1.0, var_beta_hat=0.01, var_tau2_hat=0.04)
        mom = logit_m1_moments(fit)
        assert abs(mom.var_logit_m1 - 0.05) < 1e-15
        assert abs(mom.bias_logit_m1 - 0.01) < 1e-15

    def test_m2_moment_scale_factors_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            fit = synthetic_fit(
                beta_hat=float(rng.uniform(0.1, 3.0)),
                tau2_hat=float(rng.uniform(0.05, 2.0)),
                var_beta_hat=float(rng.uniform(0.001, 0.5)),
                var_tau2_hat=float(rng.uniform(0.001, 0.5)),
            )
            mom = logit_m1_moments(fit)
            assert mom.var_logit_m2 == 4.0 * mom.var_logit_m1
            assert mom.bias_logit_m2 == 2.0 * mom.bias_logit_m1

    def test_undefined_at_zero_tau2(self):
        with pytest.raises(UndefinedMomentsError):
            logit_m1_moments(synthetic_fit(0.5, 0.0, 0.01, 0.04))

    def test_undefined_at_zero_beta(self):
        with pytest.raises(UndefinedMomentsError):
            logit_m1_moments(synthetic_fit(0.0, 1.0, 0.01, 0.04))


class TestHetMeasures:
    def test_hssp_values(self, hssp):
        fit = fit_rem(hssp)
        hm = het_measures(hssp, fit)
        assert abs(100.0 * hm.i2 - 93.534) < 2e-3
        assert abs(hm.cv_b - 1.384) < 5e-4
        assert abs(hm.m1 - 0.581) < 5e-4
        assert abs(hm.m2 - 0.657) < 5e-4
        assert 0.0 <= hm.rb <= 1.0
        assert hm.dr >= 1.0
