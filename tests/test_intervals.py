import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cvmeta.core import MetaDataset, PooledFit, fit_rem
from cvmeta.errors import DomainError
from cvmeta.intervals import (
    RATIO_MEASURES,
    IntervalEstimate,
    _qprofile_roots,
    abs_beta_ci,
    alpha_adjusted_intervals,
    alpha_adjusted_level,
    beta_ci,
    combine_fixed,
    maximal_interval,
    propimp_intervals,
    tau2_ci_qprofile,
    wald_logit_intervals,
)
from cvmeta.measures import inv_logit, logit

from conftest import qgen_reference, random_dataset

Z975 = 1.9599639845400545


def synthetic_fit(beta_hat, tau2_hat, var_beta_hat=0.01, var_tau2_hat=0.04):
    return PooledFit(
        beta_hat=beta_hat,
        tau2_hat=tau2_hat,
        q=1.0,
        var_beta_hat=var_beta_hat,
        var_tau2_hat=var_tau2_hat,
        k=2,
    )


def tau2_iv(lo, hi, alpha=0.05):
    return IntervalEstimate(lo, hi, "TAU2", "QPROFILE", alpha, 0.0)


def absb_iv(lo, hi, alpha=0.05):
    return IntervalEstimate(lo, hi, "ABS_BETA", "WALD", 0.0, alpha)


class TestIntervalEstimate:
    def test_width_and_contains(self):
        iv = IntervalEstimate(0.2, 0.7, "M1", "WALD", 0.05, 0.05)
        assert abs(iv.width - 0.5) < 1e-15
        assert iv.contains(0.2) and iv.contains(0.7) and iv.contains(0.4)
        assert not iv.contains(0.71)

    def test_infinite_upper_allowed_for_cv(self):
        iv = IntervalEstimate(0.0, math.inf, "CV_B", "PROPIMP", 0.05, 0.05)
        assert math.isinf(iv.width)
        assert iv.contains(1e300)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(DomainError):
            IntervalEstimate(0.7, 0.2, "M1", "WALD", 0.05, 0.05)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            IntervalEstimate(math.nan, 0.5, "M1", "WALD", 0.05, 0.05)

    def test_rejects_unknown_tags(self):
        with pytest.raises(DomainError):
            IntervalEstimate(0.1, 0.2, "M3", "WALD", 0.05, 0.05)
        with pytest.raises(DomainError):
            IntervalEstimate(0.1, 0.2, "M1", "BOOT", 0.05, 0.05)

    def test_rejects_unit_scale_overflow(self):
        with pytest.raises(DomainError):
            IntervalEstimate(0.1, 1.2, "M2", "WALD", 0.05, 0.05)

    def test_beta_may_be_negative(self):
        iv = IntervalEstimate(-2.0, -0.5, "BETA", "WALD", 0.0, 0.05)
        assert iv.lower == -2.0

    def test_alpha_levels_validated(self):
        with pytest.raises(DomainError):
            IntervalEstimate(0.1, 0.2, "M1", "WALD", 1.0, 0.05)


class TestTau2Qprofile:
    def test_bounds_solve_pivot_equations(self, hssp):
        iv = tau2_ci_qprofile(hssp)
        k = hssp.k
        assert iv.measure == "TAU2" and iv.method == "QPROFILE"
        lo_target = stats.chi2.ppf(0.975, k - 1)
        hi_target = stats.chi2.ppf(0.025, k - 1)
        assert abs(qgen_reference(hssp.effects, hssp.within_vars, iv.lower) - lo_target) < 1e-8
        assert abs(qgen_reference(hssp.effects, hssp.within_vars, iv.upper) - hi_target) < 1e-8

    def test_hssp_values(self, hssp):
        iv = tau2_ci_qprofile(hssp)
        assert abs(iv.lower - 0.325) < 5e-4
        assert abs(iv.upper - 3.108) < 5e-4

    def test_homogeneous_collapses_to_zero(self):
        d = MetaDataset([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        iv = tau2_ci_qprofile(d)
        assert iv.lower == 0.0 and iv.upper == 0.0

    def test_lower_truncates_before_upper(self):
        rng = np.random.default_rng(4)
        y = rng.normal(0.0, 1.05, 12)
        d = MetaDataset(y, np.ones(12))
        iv = tau2_ci_qprofile(d)
        assert iv.lower == 0.0
        assert iv.upper > 0.0

    def test_nested_in_alpha(self, hssp):
        wide = tau2_ci_qprofile(hssp, alpha=0.01)
        narrow = tau2_ci_qprofile(hssp, alpha=0.2)
        assert wide.lower <= narrow.lower and narrow.upper <= wide.upper

    def test_pivot_holds_on_random_data(self):
        rng = np.random.default_rng(4)
        datasets = [random_dataset(rng) for _ in range(10)]
        # solver edge cases: K = 2, and within-study variances over eight decades
        datasets += [random_dataset(rng, k=2) for _ in range(5)]
        datasets += [
            MetaDataset(rng.normal(0.0, 1.0, k), np.logspace(-4.0, 4.0, k))
            for k in (3, 9, 20)
        ]
        for d in datasets:
            iv = tau2_ci_qprofile(d)
            for bound, p in ((iv.lower, 0.975), (iv.upper, 0.025)):
                if bound > 0.0:
                    target = stats.chi2.ppf(p, d.k - 1)
                    assert abs(qgen_reference(d.effects, d.within_vars, bound) - target) < 1e-8

    def test_target_array_matches_single_targets(self, hssp):
        # rows of one solve are independent: PROPIMP's lockstep search relies on it
        rng = np.random.default_rng(8)
        for d in [hssp, random_dataset(rng, k=2), random_dataset(rng, k=30)]:
            targets = stats.chi2.ppf(rng.uniform(0.001, 0.999, (2, 40)), d.k - 1)
            roots = _qprofile_roots(d.effects, d.within_vars, targets)
            assert roots.shape == targets.shape
            for root, target in zip(roots.ravel(), targets.ravel()):
                assert root == _qprofile_roots(d.effects, d.within_vars, target)

    def test_alpha_domain(self, hssp):
        with pytest.raises(DomainError):
            tau2_ci_qprofile(hssp, alpha=0.0)


class TestBetaIntervals:
    def test_wald_half_width(self):
        fit = synthetic_fit(1.0, 1.0, var_beta_hat=0.25)
        iv = beta_ci(fit)
        assert abs(iv.lower - (1.0 - Z975 * 0.5)) < 1e-9
        assert abs(iv.upper - (1.0 + Z975 * 0.5)) < 1e-9
        assert iv.measure == "BETA"

    def test_adjusted_level_value(self):
        a = alpha_adjusted_level()
        phi = 0.5 * (1.0 + math.erf(Z975 / math.sqrt(2.0) / math.sqrt(2.0)))
        assert abs(a - 2.0 * (1.0 - phi)) < 1e-14
        assert abs(a - 0.16577627289570396) < 1e-12
        assert round(a, 4) == 0.1658

    def test_adjusted_critical_value(self):
        # the component critical value at the adjusted level is z / sqrt 2
        a = alpha_adjusted_level()
        fit = synthetic_fit(0.0, 1.0, var_beta_hat=1.0)
        iv = beta_ci(fit, alpha=a)
        assert abs(iv.upper - Z975 / math.sqrt(2.0)) < 1e-9
        assert round(iv.upper, 3) == 1.386

    def test_abs_fold_positive(self):
        iv = abs_beta_ci(IntervalEstimate(1.0, 3.0, "BETA", "WALD", 0.0, 0.05))
        assert (iv.lower, iv.upper) == (1.0, 3.0)
        assert iv.measure == "ABS_BETA"

    def test_abs_fold_negative(self):
        iv = abs_beta_ci(IntervalEstimate(-3.0, -1.0, "BETA", "WALD", 0.0, 0.05))
        assert (iv.lower, iv.upper) == (1.0, 3.0)

    def test_abs_fold_straddling(self):
        iv = abs_beta_ci(IntervalEstimate(-0.5, 1.0, "BETA", "WALD", 0.0, 0.05))
        assert (iv.lower, iv.upper) == (0.0, 1.0)
        other = abs_beta_ci(IntervalEstimate(-2.0, 1.0, "BETA", "WALD", 0.0, 0.05))
        assert (other.lower, other.upper) == (0.0, 2.0)


class TestWaldLogit:
    def test_links_hold_bound_by_bound(self, hssp):
        fit = fit_rem(hssp)
        ivs = wald_logit_intervals(fit)
        m1 = ivs["M1"]
        assert ivs["CV_B"].lower == m1.lower / (1.0 - m1.lower)
        assert ivs["CV_B"].upper == m1.upper / (1.0 - m1.upper)
        assert ivs["M2"].lower == inv_logit(2.0 * logit(m1.lower))
        assert ivs["M2"].upper == inv_logit(2.0 * logit(m1.upper))

    def test_contains_point_estimate(self, hssp):
        fit = fit_rem(hssp)
        m1_hat = math.sqrt(fit.tau2_hat) / (math.sqrt(fit.tau2_hat) + abs(fit.beta_hat))
        iv = wald_logit_intervals(fit)["M1"]
        assert iv.contains(m1_hat)
        assert not iv.degenerate

    def test_half_width_matches_moments(self):
        fit = synthetic_fit(0.5, 1.0, var_beta_hat=0.01, var_tau2_hat=0.04)
        iv = wald_logit_intervals(fit)["M1"]
        center = math.log(1.0 / 0.5)
        half = Z975 * math.sqrt(0.05)
        assert abs(iv.lower - inv_logit(center - half)) < 1e-12
        assert abs(iv.upper - inv_logit(center + half)) < 1e-12

    def test_vanishing_variance_collapses(self):
        fit = synthetic_fit(0.5, 1.0, var_beta_hat=1e-30, var_tau2_hat=1e-30)
        iv = wald_logit_intervals(fit)["M1"]
        assert abs(iv.lower - 2.0 / 3.0) < 1e-9
        assert abs(iv.upper - 2.0 / 3.0) < 1e-9

    def test_degenerate_fit_gives_maximal(self):
        fit = synthetic_fit(0.5, 0.0)
        ivs = wald_logit_intervals(fit)
        assert ivs["M1"].degenerate
        assert (ivs["M1"].lower, ivs["M1"].upper) == (0.0, 1.0)
        assert math.isinf(ivs["CV_B"].upper)
        assert ivs["M1"].method == "WALD"


class TestCombineFixed:
    def test_fix_tau_corners(self):
        fit = synthetic_fit(1.0, 1.0)
        out = combine_fixed(fit, tau2_iv(1.0, 4.0), absb_iv(1.0, 3.0), "FIX_TAU")
        m1 = out["M1"]
        assert (m1.lower, m1.upper) == (0.25, 0.5)
        assert m1.method == "FIXED_TAU"
        assert m1.alpha_tau == 0.0 and m1.alpha_beta == 0.05

    def test_fix_beta_corners(self):
        fit = synthetic_fit(1.0, 1.0)
        out = combine_fixed(fit, tau2_iv(1.0, 4.0), absb_iv(1.0, 3.0), "FIX_BETA")
        m1 = out["M1"]
        assert (m1.lower, m1.upper) == (0.5, 2.0 / 3.0)
        assert m1.method == "FIXED_BETA"
        assert m1.alpha_tau == 0.05 and m1.alpha_beta == 0.0

    def test_both_corners_and_links(self):
        fit = synthetic_fit(1.0, 1.0)
        out = combine_fixed(fit, tau2_iv(1.0, 4.0), absb_iv(1.0, 3.0), "BOTH")
        assert (out["M1"].lower, out["M1"].upper) == (0.25, 2.0 / 3.0)
        assert abs(out["CV_B"].lower - 1.0 / 3.0) < 1e-15
        assert abs(out["CV_B"].upper - 2.0) < 1e-15
        assert abs(out["M2"].lower - 0.1) < 1e-15
        assert abs(out["M2"].upper - 0.8) < 1e-15
        assert out["M1"].method == "BOTH95"

    def test_zero_beta_bound_hits_ceiling(self):
        fit = synthetic_fit(1.0, 1.0)
        out = combine_fixed(fit, tau2_iv(1.0, 4.0), absb_iv(0.0, 3.0), "BOTH")
        assert out["M1"].upper == 1.0
        assert math.isinf(out["CV_B"].upper)
        assert out["M2"].upper == 1.0

    def test_zero_tau2_hat_gives_maximal(self):
        fit = synthetic_fit(1.0, 0.0)
        out = combine_fixed(fit, tau2_iv(0.0, 0.0), absb_iv(1.0, 3.0), "FIX_TAU")
        assert out["M1"].degenerate and out["M1"].upper == 1.0

    def test_rejects_mismatched_inputs(self):
        fit = synthetic_fit(1.0, 1.0)
        with pytest.raises(DomainError):
            combine_fixed(fit, absb_iv(1.0, 3.0), absb_iv(1.0, 3.0), "BOTH")
        with pytest.raises(DomainError):
            combine_fixed(fit, tau2_iv(1.0, 4.0), tau2_iv(1.0, 4.0), "BOTH")
        with pytest.raises(DomainError):
            combine_fixed(fit, tau2_iv(1.0, 4.0), absb_iv(1.0, 3.0), "ANY")

    def test_maximal_interval_shapes(self):
        assert maximal_interval("CV_B", "WALD").upper == math.inf
        assert maximal_interval("M1", "PROPIMP").upper == 1.0
        assert maximal_interval("M2", "ALPHA_ADJ").degenerate
        with pytest.raises(DomainError):
            maximal_interval("TAU2", "QPROFILE")


class TestAlphaAdjusted:
    def test_matches_manual_combination(self, hssp):
        fit = fit_rem(hssp)
        a = alpha_adjusted_level()
        manual = combine_fixed(
            fit, tau2_ci_qprofile(hssp, a), abs_beta_ci(beta_ci(fit, a)), "BOTH"
        )
        out = alpha_adjusted_intervals(hssp)
        for m in RATIO_MEASURES:
            assert out[m].lower == manual[m].lower
            assert out[m].upper == manual[m].upper
            assert out[m].method == "ALPHA_ADJ"
            assert abs(out[m].alpha_tau - a) < 1e-15

    def test_hssp_values(self, hssp):
        out = alpha_adjusted_intervals(hssp)
        assert abs(out["CV_B"].lower - 0.733) < 2e-3
        assert abs(out["CV_B"].upper - 8.358) < 2e-3
        assert abs(out["M1"].lower - 0.423) < 1e-3
        assert abs(out["M1"].upper - 0.893) < 1e-3

    def test_degenerate_dataset(self):
        d = MetaDataset([0.4, 0.4, 0.4, 0.4], [0.2, 0.2, 0.2, 0.2])
        out = alpha_adjusted_intervals(d)
        assert all(out[m].degenerate for m in RATIO_MEASURES)


def propimp_grid(data, fit, n=201):
    """Brute-force quarter-circle sweep built from the public components."""
    z = Z975
    tau_hat = math.sqrt(fit.tau2_hat)
    beta_abs = abs(fit.beta_hat)

    def corner(t, b):
        if t == 0.0:
            return 0.0
        if b == 0.0:
            return 1.0
        return t / (t + b)

    lows, highs = [], []
    for theta in np.linspace(0.0, math.pi / 2.0, n):
        c_tau = z * math.sin(theta)
        c_beta = z * math.cos(theta)
        if c_tau == 0.0:
            t_lo = t_hi = tau_hat
        else:
            a_tau = 2.0 * float(stats.norm.sf(c_tau))
            tiv = tau2_ci_qprofile(data, a_tau)
            t_lo, t_hi = math.sqrt(tiv.lower), math.sqrt(tiv.upper)
        if c_beta == 0.0:
            b_lo = b_hi = beta_abs
        else:
            a_beta = 2.0 * float(stats.norm.sf(c_beta))
            biv = abs_beta_ci(beta_ci(fit, a_beta))
            b_lo, b_hi = biv.lower, biv.upper
        lows.append(corner(t_lo, b_hi))
        highs.append(corner(t_hi, b_lo))
    return min(lows), max(highs)


class TestPropImp:
    def test_bounds_envelope_the_grid(self, hssp):
        fit = fit_rem(hssp)
        ivs, _ = propimp_intervals(hssp, fit=fit)
        grid_lo, grid_hi = propimp_grid(hssp, fit)
        assert ivs["M1"].lower <= grid_lo + 1e-9
        assert ivs["M1"].upper >= grid_hi - 1e-9
        assert abs(ivs["M1"].lower - grid_lo) < 2e-3
        assert abs(ivs["M1"].upper - grid_hi) < 2e-3

    def test_contains_fixed_and_adjusted(self, hssp):
        fit = fit_rem(hssp)
        ivs, _ = propimp_intervals(hssp, fit=fit)
        adj = alpha_adjusted_intervals(hssp, fit=fit)
        a = alpha_adjusted_level()
        fix_tau = combine_fixed(
            fit, tau2_ci_qprofile(hssp, a), abs_beta_ci(beta_ci(fit)), "FIX_TAU"
        )
        fix_beta = combine_fixed(
            fit, tau2_ci_qprofile(hssp), abs_beta_ci(beta_ci(fit)), "FIX_BETA"
        )
        for other in (adj, fix_tau, fix_beta):
            assert ivs["M1"].lower <= other["M1"].lower + 1e-9
            assert ivs["M1"].upper >= other["M1"].upper - 1e-9

    def test_links_and_tags(self, hssp):
        ivs, trace = propimp_intervals(hssp)
        m1 = ivs["M1"]
        assert ivs["CV_B"].lower == m1.lower / (1.0 - m1.lower)
        assert ivs["M2"].upper == inv_logit(2.0 * logit(m1.upper))
        assert m1.method == "PROPIMP"
        assert m1.alpha_tau == 0.05 and m1.alpha_beta == 0.05
        assert 0.0 <= trace.theta_lower <= math.pi / 2.0 + 1e-12
        assert 0.0 <= trace.theta_upper <= math.pi / 2.0 + 1e-12
        assert trace.evaluations > 100

    def test_hssp_frozen_values(self, hssp):
        # regression pin against the first verified run of this code
        ivs, _ = propimp_intervals(hssp)
        assert abs(ivs["CV_B"].lower - 0.707215) < 1e-4
        assert abs(ivs["CV_B"].upper - 41.4472) < 1e-2

    def test_hssp_trace(self, hssp):
        # the lower bound sits at theta = 0, so its bracket is one grid step
        # and its search ends a step before the upper one: 313 = 2 (129 + 2)
        # + 25 + 26 counts no argument repeated for the finished search
        _, trace = propimp_intervals(hssp)
        assert trace.theta_lower == 0.0
        assert trace.evaluations == 313

    def test_widens_as_alpha_shrinks(self, hssp):
        at05, _ = propimp_intervals(hssp, alpha=0.05)
        at01, _ = propimp_intervals(hssp, alpha=0.01)
        assert at01["M1"].lower <= at05["M1"].lower + 1e-6
        assert at01["M1"].upper >= at05["M1"].upper - 1e-6

    def test_envelope_on_random_data(self):
        rng = np.random.default_rng(5)
        seen = 0
        while seen < 2:
            d = random_dataset(rng, k=8)
            fit = fit_rem(d)
            if fit.tau2_hat == 0.0:
                continue
            seen += 1
            ivs, _ = propimp_intervals(d, fit=fit)
            grid_lo, grid_hi = propimp_grid(d, fit, n=101)
            assert ivs["M1"].lower <= grid_lo + 1e-9
            assert ivs["M1"].upper >= grid_hi - 1e-9

    def test_degenerate_dataset(self):
        d = MetaDataset([0.4, 0.4, 0.4, 0.4], [0.2, 0.2, 0.2, 0.2])
        ivs, trace = propimp_intervals(d)
        assert all(ivs[m].degenerate for m in RATIO_MEASURES)
        assert trace.evaluations == 0


def assert_scale_free(data, c):
    """y -> c y, v -> c^2 v scales the tau2 bounds by c^2 and var(tau2_hat) by
    c^4, and fixes the M1 bounds."""
    scaled = MetaDataset(data.effects * c, data.within_vars * c * c)
    q, q_c = tau2_ci_qprofile(data), tau2_ci_qprofile(scaled)
    assert q_c.lower / c**2 == pytest.approx(q.lower, rel=1e-10, abs=0.0)
    assert q_c.upper / c**2 == pytest.approx(q.upper, rel=1e-10, abs=0.0)
    assert fit_rem(scaled).var_tau2_hat / c**2 / c**2 == pytest.approx(
        fit_rem(data).var_tau2_hat, rel=1e-10, abs=0.0
    )
    for method in (
        alpha_adjusted_intervals,
        lambda d: propimp_intervals(d)[0],
        lambda d: wald_logit_intervals(fit_rem(d)),
    ):
        m1, m1_c = method(data)["M1"], method(scaled)["M1"]
        assert m1_c.lower == pytest.approx(m1.lower, rel=1e-10, abs=0.0)
        assert m1_c.upper == pytest.approx(m1.upper, rel=1e-10, abs=0.0)


class TestScaleInvariance:
    @pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3])
    def test_hssp_and_random_data(self, hssp, c):
        rng = np.random.default_rng(11)
        for d in [hssp] + [random_dataset(rng) for _ in range(4)]:
            assert_scale_free(d, c)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), log10_c=st.floats(-70.0, 70.0))
    def test_property(self, seed, log10_c):
        assert_scale_free(random_dataset(np.random.default_rng(seed)), 10.0**log10_c)


def all_bounds(data):
    """Lower and upper bounds of WALD, ALPHA_ADJ and PROPIMP for CV_B, M1 and M2."""
    fit = fit_rem(data)
    per_method = (
        wald_logit_intervals(fit),
        alpha_adjusted_intervals(data, fit=fit),
        propimp_intervals(data, fit=fit)[0],
    )
    return [b for ivs in per_method for m in RATIO_MEASURES for b in (ivs[m].lower, ivs[m].upper)]


def near_null_dataset(rng, k):
    """Effects scaled so that Q = (K - 1)(1 + 1e-4): tau2_hat small but positive."""
    v = rng.uniform(0.05, 0.8, k)
    y = rng.normal(0.0, np.sqrt(v))
    q = fit_rem(MetaDataset(y, v)).q
    return MetaDataset(0.3 + y * np.sqrt((k - 1) * (1.0 + 1e-4) / q), v)


class TestSymmetryInvariance:
    """The measures depend on |beta| and on the studies as a set, so their bounds do too."""

    @staticmethod
    def datasets(seed, k):
        rng = np.random.default_rng(seed)
        return [random_dataset(rng, k=k), near_null_dataset(rng, k)]

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([2, 2, 3, 5, 12]))
    def test_sign_flip(self, seed, k):
        for d in self.datasets(seed, k):
            flipped = MetaDataset(-d.effects, d.within_vars)
            assert all_bounds(flipped) == pytest.approx(all_bounds(d), rel=1e-9, abs=0.0)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([2, 2, 3, 5, 12]))
    def test_permutation(self, seed, k):
        for d in self.datasets(seed, k):
            order = np.random.default_rng(seed + 1).permutation(k)
            shuffled = MetaDataset(d.effects[order], d.within_vars[order])
            assert all_bounds(shuffled) == pytest.approx(all_bounds(d), rel=1e-9, abs=0.0)

    def test_near_null_data_is_near_null(self):
        fits = [fit_rem(near_null_dataset(np.random.default_rng(s), k)) for s in range(5)
                for k in (2, 12)]
        assert all(0.0 < f.tau2_hat < 1e-3 for f in fits)
