import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, stats

from cvmeta import numerics
from cvmeta.cli import analyze_dataset
from cvmeta.core import MetaDataset, PooledFit, fit_rem
from cvmeta.errors import CvMetaError, DomainError
from cvmeta.intervals import (
    RATIO_MEASURES,
    _S_TOL,
    IntervalEstimate,
    _box_m1,
    _linked_intervals,
    _propimp_path,
    _qprofile_roots,
    alpha_adjusted_intervals,
    alpha_adjusted_level,
    fixed_intervals,
    propimp_intervals,
    tau2_ci_qprofile,
    wald_logit_intervals,
)
from cvmeta.measures import inv_logit, logit
from cvmeta.numerics import RngState, chisq_quantile, norm_cdf, norm_quantile
from cvmeta.simulator import Scenario, generate_smd_dataset

from conftest import _corners_m1, angle_search, qgen_reference, random_dataset, scalar_search

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


def reference_fold(lo, hi):
    """|beta| bounds from signed ones: keep, swap, or (0, max) across zero."""
    if lo >= 0.0:
        return lo, hi
    if hi <= 0.0:
        return -hi, -lo
    return 0.0, max(-lo, hi)


def qgen_exact(y, v, t) -> Fraction:
    """Q_gen(t) in exact rational arithmetic on the float inputs."""
    w = [1 / (Fraction(vi) + Fraction(t)) for vi in v]
    ys = [Fraction(yi) for yi in y]
    b = sum(wi * yi for wi, yi in zip(w, ys)) / sum(w)
    return sum(wi * (yi - b) ** 2 for wi, yi in zip(w, ys))


def assert_roots_solve(y, v, probs):
    """Q_gen at each positive root for chi-square probabilities ``probs`` is its pivot to 1e-12."""
    pivots = chisq_quantile(np.asarray(probs), len(y) - 1)
    for root, pivot in zip(_qprofile_roots(np.asarray(y), np.asarray(v), pivots), pivots):
        if root > 0.0:
            assert abs(qgen_exact(y, v, root) / Fraction(pivot) - 1) <= 1e-12, (root, pivot)


def secular_q(y, v, t):
    """Q_gen(t) as sum_j z_j^2 / (lambda_j + t), lambda_j the eigenvalues of L'VL."""
    basis = linalg.null_space(np.ones((1, len(y))))  # orthonormal, orthogonal to 1
    lam, vecs = np.linalg.eigh(basis.T @ (np.asarray(v)[:, None] * basis))
    z = vecs.T @ (basis.T @ y)
    return float(np.sum(z * z / (lam + t)))


def abs_beta_corners(data, lo, hi):
    """(lower, upper) |beta| of ``_corners_m1`` over the signed interval [lo, hi].

    tau is pinned at 1, so the corners are 1 / (1 + |beta|); the
    interval is beta_hat -/+ half at c_beta = 1 and se = half.
    """
    fit = synthetic_fit((lo + hi) / 2.0, 1.0, var_beta_hat=((hi - lo) / 2.0) ** 2)
    m1_lo, m1_hi = _corners_m1(data, fit, 0.0, 0.5, 0.5, 1.0).ravel().tolist()
    return 1.0 / m1_hi - 1.0, 1.0 / m1_lo - 1.0


def reference_m1(data, fit, a_tau, a_beta):
    """M1 bounds of the (tau, |beta|) box composed by hand, one step at a time.

    Profile roots at (1 - a/2, a/2), then beta_hat -/+ c se, then the
    three-case fold, then t / (t + b) at opposite corners.  A level of
    0 pins that component at its estimate.
    """
    if a_tau:
        iv = tau2_ci_qprofile(data, a_tau)
        t_lo, t_hi = math.sqrt(iv.lower), math.sqrt(iv.upper)
    else:
        t_lo = t_hi = math.sqrt(fit.tau2_hat)
    if a_beta:
        half = norm_quantile(1.0 - a_beta / 2.0) * math.sqrt(fit.var_beta_hat)
        b_lo, b_hi = reference_fold(fit.beta_hat - half, fit.beta_hat + half)
    else:
        b_lo = b_hi = abs(fit.beta_hat)

    def corner(t, b):
        return 0.0 if t == 0.0 else t / (t + b)

    return corner(t_lo, b_hi), corner(t_hi, b_lo)


WHOLE_RANGE = {"CV_B": (0.0, math.inf), "M1": (0.0, 1.0), "M2": (0.0, 1.0)}

FIXED_LEVELS = {  # method -> (a_tau, a_beta) at overall alpha
    "FIXED_TAU": lambda a: (0.0, a),
    "FIXED_BETA": lambda a: (a, 0.0),
    "BOTH95": lambda a: (a, a),
}


def reference_datasets():
    """Seeded datasets: K from 4 to 15, K = 2, and within-study variances over eight decades."""
    rng = np.random.default_rng(11)
    out = [random_dataset(rng) for _ in range(30)]
    out += [random_dataset(rng, k=2) for _ in range(15)]
    out += [
        MetaDataset(rng.normal(0.5, 1.0, k), np.logspace(-4.0, 4.0, k)) for k in (2, 3, 9, 20)
    ]
    return out


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

    def test_rejects_negative_lower(self):
        for measure in ("CV_B", "M1", "TAU2"):
            with pytest.raises(DomainError):
                IntervalEstimate(-0.5, 0.5, measure, "WALD", 0.05, 0.05)
        for measure in ("BETA", "ABS_BETA"):
            with pytest.raises(DomainError):
                IntervalEstimate(0.5, 1.0, measure, "WALD", 0.0, 0.05)

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

    @pytest.mark.parametrize("k", [2, 35, 60])
    def test_grid_and_zero_roots_match_single_targets(self, k):
        # converged targets hold their value while the others go on: a root
        # must not move once found, whatever converges after it
        rng = np.random.default_rng(k)
        d = random_dataset(rng, k=k)
        p = norm_cdf(Z975 * np.sin(np.linspace(0.0, math.pi / 2, 129)))
        grid = chisq_quantile(np.stack([p, 1.0 - p]), k - 1)  # a 129-angle grid of both corners
        # PROPIMP's range ends: the median and the pivots at Phi(z) and 1 - Phi(z)
        ends = chisq_quantile(np.array([0.5, norm_cdf(Z975), 1.0 - norm_cdf(Z975)]), k - 1)
        q0 = qgen_reference(d.effects, d.within_vars, 0.0)
        # targets above Q_gen(0) have root 0; the others are positive
        mixed = np.stack([q0 * rng.uniform(1.01, 3.0, 20), q0 * rng.uniform(0.05, 0.99, 20)])
        for targets in (grid, ends, mixed.T):
            roots = _qprofile_roots(d.effects, d.within_vars, targets)
            assert roots.shape == targets.shape
            for root, target in zip(roots.ravel(), targets.ravel()):
                assert root == _qprofile_roots(d.effects, d.within_vars, target)
        roots = _qprofile_roots(d.effects, d.within_vars, mixed)
        assert (roots[0] == 0.0).all() and (roots[1] > 0.0).all()

    def test_heavy_study_residual_keeps_its_slope(self):
        # the heavier study's residual y_i - b once rounded to 0, taking half the
        # slope with it: Newton overshot, the stop rule took the step back, Q_gen
        # at both roots sat 11% below its pivot, and ALPHA_ADJ's M1 lower read 0.1884
        y = [1.6182184259529171e-63, 1.4594528793535342e-54]
        v = [9.672906754594076e-135, 5.472755353351439e-109]
        probs = [0.9, 1.0 - alpha_adjusted_level() / 2.0]
        pivots = chisq_quantile(np.array(probs), 1)
        assert (_qprofile_roots(np.array(y), np.array(v), pivots) > 0).all()
        assert_roots_solve(y, v, probs)
        m1 = alpha_adjusted_intervals(MetaDataset(y, v))["M1"]
        assert m1.lower == pytest.approx(0.1573302188465, rel=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(
        st.tuples(st.floats(-10.0, 10.0), st.integers(-300, 300), st.floats(1.0, 10.0),
                  st.integers(-300, 300)),
        min_size=2, max_size=12,
    ))
    def test_roots_solve_across_the_float_range(self, studies):
        # effects and variances spread over 10^-300..10^301: a positive root
        # solves its pivot, or the input is a typed error
        y = [m * 10.0**e for m, e, _, _ in studies]
        v = [m * 10.0**e for _, _, m, e in studies]
        a = alpha_adjusted_level()
        try:
            d = MetaDataset(y, v)
            probs = [0.025, a / 2.0, 0.9, 1.0 - a / 2.0, 0.975]
            assert_roots_solve(d.effects, d.within_vars, probs)
        except CvMetaError:
            pass

    def test_alpha_domain(self, hssp):
        # an integer beyond the float range once escaped as a bare OverflowError
        for alpha in (0.0, 10**400):
            with pytest.raises(DomainError, match="^alpha must be inside"):
                tau2_ci_qprofile(hssp, alpha=alpha)

    @pytest.mark.parametrize("alpha", [1 - 2**-48, 1 - 2**-50, 1 - 2**-51, 1 - 2**-52])
    def test_bounds_meet_for_alpha_near_one(self, alpha):
        # both pivots and critical values sit near the median there, and the
        # profile roots once crossed by an ulp, raising "lower ... exceeds upper"
        rng = np.random.default_rng(2026)
        for _ in range(100):
            k = int(rng.integers(2, 40))
            v = rng.uniform(0.01, 0.5, k)
            d = MetaDataset(rng.normal(rng.normal(), np.sqrt(v + rng.uniform(0.0, 0.5, k))), v)
            q = tau2_ci_qprofile(d, alpha)
            assert q.lower <= q.upper
            for method in FIXED_LEVELS:
                fixed_intervals(d, method, alpha)
            alpha_adjusted_intervals(d, alpha)


class TestProfilePremise:
    """Q_gen is a secular function, so 1/Q_gen is concave: the premise of the solver's step."""

    @staticmethod
    def datasets():
        rng = np.random.default_rng(60)
        for _ in range(40):
            k = int(rng.integers(2, 61))
            v = 10.0 ** rng.uniform(-4.0, 4.0, k)  # variance ratios up to 1e8
            yield rng.normal(rng.normal(), np.sqrt(v + rng.uniform(0.0, 2.0)), k), v

    def test_pole_form(self):
        # eigh returns each lambda_j to about eps * max v, which near t = 0 moves
        # the pole form itself by up to 1e-8 at a ratio of 1e8; t starts above that
        for y, v in self.datasets():
            for t in v.max() * np.array([1e-3, 1e-2, 0.1, 1.0, 10.0]):
                q = qgen_reference(y, v, t)
                assert abs(secular_q(y, v, t) - q) <= 1e-10 * q

    def test_reciprocal_is_concave(self):
        for y, v in self.datasets():
            for scale in (v.min(), np.median(v), v.max()):
                ts = np.linspace(0.0, 4.0 * scale, 41)
                g = np.array([1.0 / qgen_reference(y, v, t) for t in ts])
                assert (g[2:] - 2.0 * g[1:-1] + g[:-2] <= 1e-12 * g[2:]).all()


class TestBetaIntervals:
    def test_wald_half_width(self, hssp):
        # tau pinned at 1: the M1 corners are 1 / (1 + beta_hat +/- z se)
        fit = synthetic_fit(1.0, 1.0, var_beta_hat=0.25)
        m1_lo, m1_hi = _corners_m1(hssp, fit, 0.0, 0.5, 0.5, Z975).ravel()
        assert abs((1.0 / m1_lo - 1.0) - (1.0 + Z975 * 0.5)) < 1e-9
        assert abs((1.0 / m1_hi - 1.0) - (1.0 - Z975 * 0.5)) < 1e-9

    def test_adjusted_level_value(self):
        a = alpha_adjusted_level()
        phi = 0.5 * (1.0 + math.erf(Z975 / math.sqrt(2.0) / math.sqrt(2.0)))
        assert abs(a - 2.0 * (1.0 - phi)) < 1e-14
        assert abs(a - 0.16577627289570396) < 1e-12
        assert round(a, 4) == 0.1658

    @pytest.mark.parametrize("alpha", [1.5, 1.0, 0.0])
    def test_adjusted_level_alpha_domain(self, alpha):
        # 1.5 once gave a component level of 1.37, and 1.0 a level of 1.0
        with pytest.raises(DomainError, match="alpha must be inside"):
            alpha_adjusted_level(alpha)

    def test_adjusted_critical_value(self, hssp):
        # the component critical value at the adjusted level is z / sqrt 2:
        # at beta_hat = 0 with unit se the upper |beta| bound is that value
        a = alpha_adjusted_level()
        c = norm_quantile(1.0 - a / 2.0)
        assert abs(c - Z975 / math.sqrt(2.0)) < 1e-9
        fit = synthetic_fit(0.0, 1.0, var_beta_hat=1.0)
        m1_lo = _corners_m1(hssp, fit, 0.0, 0.5, 0.5, c)[0, 0]
        assert round(1.0 / m1_lo - 1.0, 3) == 1.386

    def test_abs_fold_positive(self, hssp):
        assert abs_beta_corners(hssp, 1.0, 3.0) == (1.0, 3.0)

    def test_abs_fold_negative(self, hssp):
        assert abs_beta_corners(hssp, -3.0, -1.0) == (1.0, 3.0)

    def test_abs_fold_straddling(self, hssp):
        assert abs_beta_corners(hssp, -0.5, 1.0) == (0.0, 1.0)
        assert abs_beta_corners(hssp, -2.0, 1.0) == (0.0, 2.0)
        # a zero endpoint
        assert abs_beta_corners(hssp, 0.0, 2.0) == (0.0, 2.0)
        assert abs_beta_corners(hssp, -2.0, 0.0) == (0.0, 2.0)

    def test_abs_fold_equals_the_three_case_fold(self, hssp):
        # the closed form [max(|b| - h, 0), |b| + h] is the keep, swap or
        # [0, max] fold of [b - h, b + h] bit for bit: negation is exact
        rng = np.random.default_rng(30)
        betas = np.concatenate(
            [rng.normal(0.0, 1.0, 400), -rng.uniform(0.0, 1e-3, 50), np.zeros(50)])
        var_betas = 10.0 ** rng.uniform(-8.0, 2.0, betas.size)
        crits = np.concatenate([[0.0] * 20, rng.uniform(0.0, 3.0, betas.size - 20)])
        for beta_hat, var_beta, c in zip(betas, var_betas, crits):
            half = c * math.sqrt(var_beta)
            for b in (beta_hat, half, -half):  # the last two put an endpoint at exactly 0
                b_lo, b_up = reference_fold(b - half, b + half)
                fit = synthetic_fit(b, 1.0, var_beta_hat=var_beta)
                m1 = _corners_m1(hssp, fit, 0.0, 0.5, 0.5, c).ravel().tolist()
                assert m1 == [1.0 / (1.0 + b_up), 1.0 / (1.0 + b_lo)]


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

    @pytest.mark.parametrize("c", [1.0, 1e-70, 1e-75])
    def test_square_underflow_gives_whole_range(self, c):
        # tau2_hat is about 1e-15 c^2, so at c = 1e-75 its square underflows to 0;
        # the bounds are those of c = 1, where the variance is finite but huge
        data = MetaDataset(np.array([0.0, math.sqrt(2.0) * (1.0 + 4e-16)]) * c, [c * c, c * c])
        fit = fit_rem(data)
        assert 0.0 < fit.tau2_hat < 1e-14 * c * c
        m1 = wald_logit_intervals(fit)["M1"]
        assert (m1.lower, m1.upper, m1.degenerate) == (0.0, 1.0, False)

    @pytest.mark.parametrize("beta", [1e-160, 1e-200, 5e-324])
    def test_tiny_pooled_effect_gives_whole_range(self, beta):
        # the whole range of an infinite half-width, not the degenerate fallback
        ivs = wald_logit_intervals(synthetic_fit(beta, 1.0))
        for m, iv in ivs.items():
            assert (iv.lower, iv.upper, iv.degenerate) == (*WHOLE_RANGE[m], False)

    def test_degenerate_fit_gives_maximal(self):
        fit = synthetic_fit(0.5, 0.0)
        ivs = wald_logit_intervals(fit)
        assert ivs["M1"].degenerate
        assert (ivs["M1"].lower, ivs["M1"].upper) == (0.0, 1.0)
        assert math.isinf(ivs["CV_B"].upper)
        assert ivs["M1"].method == "WALD"


class TestCombineFixed:
    """The fixed-parameter and both-varying combinations of ``fixed_intervals``."""

    def test_fix_tau_corners(self, hssp, monkeypatch):
        # a pinned tau solves no profile root: once it solved two at a dummy
        # pivot and threw them away
        def no_roots(*args):
            raise AssertionError("FIXED_TAU solved a profile root")

        fit = fit_rem(hssp)
        before = fixed_intervals(hssp, "FIXED_TAU", fit=fit)
        monkeypatch.setattr("cvmeta.intervals._qprofile_roots", no_roots)
        assert fixed_intervals(hssp, "FIXED_TAU", fit=fit) == before
        m1 = before["M1"]
        t, b = math.sqrt(fit.tau2_hat), abs(fit.beta_hat)
        half = norm_quantile(0.975) * math.sqrt(fit.var_beta_hat)
        assert fit.beta_hat + half < 0.0  # the negative case of the fold
        assert (m1.lower, m1.upper) == (t / (t + b + half), t / (t + b - half))
        assert m1.method == "FIXED_TAU"
        assert m1.alpha_tau == 0.0 and m1.alpha_beta == 0.05

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 2.3e-16, 0.9999999999999998])
    def test_fix_beta_corners(self, hssp, alpha):
        # FIXED_BETA's M1 interval is the m1 image of tau2_ci_qprofile's interval
        # at |beta_hat|.  Near alpha = 1 the two profile roots cross on about one
        # dataset in nine and the interval's bounds meet; t / (t + b) is not
        # monotone in the last bit, so the image's lower end is the smaller one
        rng = np.random.default_rng(0)
        for d in [hssp] + [random_dataset(rng, k=int(rng.integers(2, 61))) for _ in range(150)]:
            fit = fit_rem(d)
            if fit.tau2_hat == 0.0:
                continue
            m1 = fixed_intervals(d, "FIXED_BETA", alpha, fit)["M1"]
            iv = tau2_ci_qprofile(d, alpha)
            b = abs(fit.beta_hat)
            lo, hi = (0.0 if t == 0.0 else math.sqrt(t) / (math.sqrt(t) + b)
                      for t in (iv.lower, iv.upper))
            assert (m1.lower, m1.upper) == (min(lo, hi), hi)
            assert m1.method == "FIXED_BETA"
            assert m1.alpha_tau == alpha and m1.alpha_beta == 0.0

    def test_both_corners_and_links(self, hssp):
        fit = fit_rem(hssp)
        out = fixed_intervals(hssp, "BOTH95", fit=fit)
        fix_tau = fixed_intervals(hssp, "FIXED_TAU", fit=fit)["M1"]
        fix_beta = fixed_intervals(hssp, "FIXED_BETA", fit=fit)["M1"]
        m1 = out["M1"]
        # both varying is wider than either single-component interval
        assert m1.lower < min(fix_tau.lower, fix_beta.lower)
        assert m1.upper > max(fix_tau.upper, fix_beta.upper)
        assert (m1.lower, m1.upper) == reference_m1(hssp, fit, 0.05, 0.05)
        for bound in ("lower", "upper"):
            u = getattr(m1, bound)
            assert getattr(out["CV_B"], bound) == u / (1.0 - u)
            assert getattr(out["M2"], bound) == inv_logit(2.0 * logit(u))
        assert m1.method == "BOTH95"
        assert m1.alpha_tau == 0.05 and m1.alpha_beta == 0.05

    def test_m2_bounds_meet_where_the_link_reverses(self):
        # m2's link is monotone only to the last bit: near alpha = 1 FIXED_BETA,
        # BOTH95 and ALPHA_ADJ once raised "lower ... exceeds upper" on a K = 57
        # dataset whose M1 interval was one ulp wide
        m1_lo, m1_hi = 0.3739428886479294, 0.3739428886479295
        assert inv_logit(2.0 * logit(m1_lo)) > inv_logit(2.0 * logit(m1_hi))
        out = _linked_intervals(m1_lo, m1_hi, "FIXED_BETA", 0.9999999999999998, 0.0)
        assert (out["M1"].lower, out["M1"].upper) == (m1_lo, m1_hi)
        assert out["M2"].lower == out["M2"].upper == inv_logit(2.0 * logit(m1_hi))
        assert out["CV_B"].lower == m1_lo / (1.0 - m1_lo)

    def test_zero_beta_bound_hits_ceiling(self, hssp):
        # beta_hat -/+ z se straddles 0, so the lower |beta| bound is 0
        for method in ("FIXED_TAU", "BOTH95"):
            out = fixed_intervals(hssp, method, fit=synthetic_fit(0.1, 1.0, var_beta_hat=1.0))
            assert out["M1"].upper == 1.0
            assert math.isinf(out["CV_B"].upper)
            assert out["M2"].upper == 1.0

    def test_zero_tau2_hat_gives_maximal(self):
        d = MetaDataset([0.4, 0.4, 0.4, 0.4], [0.2, 0.2, 0.2, 0.2])
        for method in FIXED_LEVELS:
            out = fixed_intervals(d, method, alpha=0.1)
            assert all(out[m].degenerate for m in RATIO_MEASURES)
            assert (out["M1"].lower, out["M1"].upper) == (0.0, 1.0)
            assert math.isinf(out["CV_B"].upper)
            m1 = out["M1"]
            assert (m1.alpha_tau, m1.alpha_beta) == FIXED_LEVELS[method](0.1)

    def test_rejects_unknown_method(self, hssp):
        for method in ("ANY", "FIX_TAU", "BOTH", "ALPHA_ADJ", "fixed_tau"):
            with pytest.raises(DomainError):
                fixed_intervals(hssp, method)
        for alpha in (0.0, 1.0, -0.1):
            with pytest.raises(DomainError):
                fixed_intervals(hssp, "BOTH95", alpha=alpha)

    def test_matches_reference(self, hssp):
        for d in [hssp] + reference_datasets():
            fit = fit_rem(d)
            if fit.tau2_hat == 0.0:
                continue
            for alpha in (0.05, 0.01, 0.2):
                for method, levels in FIXED_LEVELS.items():
                    m1 = fixed_intervals(d, method, alpha, fit)["M1"]
                    assert (m1.lower, m1.upper) == reference_m1(d, fit, *levels(alpha))


class TestWholeRange:
    def test_zero_tau2_is_the_whole_range_link(self):
        d = MetaDataset([0.4, 0.4, 0.4, 0.4], [0.2, 0.2, 0.2, 0.2])
        fit = fit_rem(d)
        assert fit.tau2_hat == 0.0
        for alpha in (0.05, 0.01):
            a_eff = alpha_adjusted_level(alpha)
            cases = {
                "WALD": (wald_logit_intervals(fit, alpha), (alpha, alpha)),
                "PROPIMP": (propimp_intervals(d, alpha, fit)[0], (alpha, alpha)),
                "ALPHA_ADJ": (alpha_adjusted_intervals(d, alpha, fit), (a_eff, a_eff)),
            }
            for method, levels in FIXED_LEVELS.items():
                cases[method] = (fixed_intervals(d, method, alpha, fit), levels(alpha))
            assert len(cases) == 6
            for method, (ivs, levels) in cases.items():
                assert set(ivs) == set(RATIO_MEASURES)
                for m, iv in ivs.items():
                    assert (iv.lower, iv.upper) == WHOLE_RANGE[m], (method, m)
                    assert (iv.measure, iv.method, iv.degenerate) == (m, method, True)
                    assert (iv.alpha_tau, iv.alpha_beta) == levels, (method, m)


class TestAlphaAdjusted:
    def test_matches_manual_combination(self, hssp):
        for d in [hssp] + reference_datasets():
            fit = fit_rem(d)
            if fit.tau2_hat == 0.0:
                continue
            for alpha in (0.05, 0.01, 0.2):
                a = alpha_adjusted_level(alpha)
                out = alpha_adjusted_intervals(d, alpha, fit)
                assert (out["M1"].lower, out["M1"].upper) == reference_m1(d, fit, a, a)
                for m in RATIO_MEASURES:
                    assert out[m].method == "ALPHA_ADJ"
                    assert out[m].alpha_tau == a and out[m].alpha_beta == a

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
    """Brute-force quarter-circle sweep: profile intervals and a folded Wald interval per angle."""
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
            half = c_beta * math.sqrt(fit.var_beta_hat)
            b_lo, b_hi = reference_fold(fit.beta_hat - half, fit.beta_hat + half)
        lows.append(corner(t_lo, b_hi))
        highs.append(corner(t_hi, b_lo))
    return min(lows), max(highs)


def figure3_beta02_draws():
    """Seeded SMD datasets in figure3_beta02's setting: beta = 0.2, K = 10, 30 per arm.

    At tau = 0.2 the upper bound's optimum often sits at theta = 0; at
    tau = 0.8 the lower bound's sometimes does.
    """
    scenarios = [Scenario(beta=0.2, tau=tau, arm_sizes=((30, 30),) * 10) for tau in (0.2, 0.8)]
    for trial in range(100):
        for scenario in scenarios:
            yield generate_smd_dataset(scenario, RngState(20260815).stream(trial))


def propimp_datasets(hssp, k):
    """HSSP, endless random datasets of K studies, or the figure3_beta02 draws."""
    if k == "hssp":
        return iter([hssp])
    if k == "figure3_beta02":
        return figure3_beta02_draws()
    rng = np.random.default_rng(k)
    return iter(lambda: random_dataset(rng, k=k), None)


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
        fix_tau = fixed_intervals(hssp, "FIXED_TAU", fit=fit)
        fix_beta = fixed_intervals(hssp, "FIXED_BETA", fit=fit)
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
        # 644 = 2 x (129 grid points + 6 zooms of 32) + theta = 0 once per
        # bound.  Each search's bracket spans two grid steps of s, 2/128 =
        # 0.0156, and narrows 16.5-fold a zoom, so 6 zooms bring it below
        # 1e-9 (0.0156 / 16.5**5 = 1.3e-8 still zooms, / 16.5**6 = 7.7e-10
        # stops).  The lower search's best point loses to theta = 0, whose
        # tau jumps to its estimate
        _, trace = propimp_intervals(hssp)
        assert trace.theta_lower == 0.0
        assert trace.evaluations == 644

    def test_same_across_repeated_calls_and_alpha_order(self, hssp):
        at05, again05, at01, third05, again01 = (
            propimp_intervals(hssp, alpha) for alpha in (0.05, 0.05, 0.01, 0.05, 0.01))
        assert at05 == again05 == third05
        assert at01 == again01

    @pytest.mark.parametrize("k", ["hssp", 2, 9, 35, 60, "figure3_beta02"])
    def test_matches_a_search_of_each_corner_alone(self, hssp, k):
        # each bound is bit for bit a one-objective search over s of its own
        # corner with one point per call, or theta = 0 where that is as good,
        # so batching the points and the corners changes nothing
        z = norm_quantile(0.975)
        seen = set()  # (bound, whether its angle sits at 0 or pi/2)
        for data in propimp_datasets(hssp, k):
            fit = fit_rem(data)
            if fit.tau2_hat == 0.0:
                continue
            path = _propimp_path(data, fit, z)

            def corner(row):
                def f(s):  # the point in both rows; the other row's value is dropped
                    tau, _, c_beta = path(np.repeat(s, 2, axis=0))
                    return _box_m1(fit, tau, c_beta)[row : row + 1]

                return f

            ivs, trace = propimp_intervals(data, fit=fit)
            _, m1_lo, n_lo = scalar_search(corner(0), 0.0, 1.0, "min", _S_TOL)
            _, m1_hi, n_hi = scalar_search(corner(1), 0.0, 1.0, "max", _S_TOL)
            zero_lo, zero_hi = _box_m1(fit, np.full((2, 1), math.sqrt(fit.tau2_hat)), z).ravel()
            assert ivs["M1"].lower == (zero_lo if zero_lo <= m1_lo else m1_lo)
            assert ivs["M1"].upper == (zero_hi if zero_hi >= m1_hi else m1_hi)
            assert trace.theta_lower == 0.0 or zero_lo > m1_lo
            assert trace.theta_upper == 0.0 or zero_hi < m1_hi
            assert trace.evaluations == n_lo + n_hi + 2
            for bound, theta in enumerate((trace.theta_lower, trace.theta_upper)):
                seen.add((bound, theta in (0.0, math.pi / 2)))
            # the figure3_beta02 draws go on until each bound has had an
            # optimum at an endpoint and one inside
            if k != "figure3_beta02" or len(seen) == 4:
                break
        else:
            pytest.fail(f"the draws showed only {sorted(seen)}")

    @pytest.mark.parametrize("k", ["hssp", 2, 9, 35, 60, "figure3_beta02"])
    def test_converged_whatever_the_zoom_width(self, hssp, k, monkeypatch):
        # the search has converged: narrowing 5.5- or 10.5-fold a zoom rather
        # than the shipped width's 16.5-fold finds the same M1 bounds, to
        # 1e-12 of the distance min(u, 1 - u) to the ends of the range
        for data in itertools.islice(propimp_datasets(hssp, k), 12):
            fit = fit_rem(data)
            shipped = propimp_intervals(data, fit=fit)[0]["M1"]
            for points in (10, 20):
                monkeypatch.setattr(numerics, "_ZOOM_POINTS", points)
                m1 = propimp_intervals(data, fit=fit)[0]["M1"]
                for got, want in ((m1.lower, shipped.lower), (m1.upper, shipped.upper)):
                    assert abs(got - want) <= 1e-12 * min(want, 1.0 - want), (points, got, want)
            monkeypatch.undo()

    @pytest.mark.parametrize("k", ["hssp", 2, 9, 35, 60, "figure3_beta02"])
    def test_agrees_with_a_search_over_the_angle(self, hssp, k):
        # searching tau^2 finds the optima that a search over theta, with a
        # profile root per angle, finds; the figure3_beta02 draws go on until
        # each bound has had an optimum at an endpoint and one inside
        seen, checked = set(), 0
        for data in propimp_datasets(hssp, k):
            fit = fit_rem(data)
            if fit.tau2_hat == 0.0:
                continue
            m1 = propimp_intervals(data, fit=fit)[0]["M1"]
            for bound, got, (theta, want) in zip((0, 1), (m1.lower, m1.upper), angle_search(data, fit)):
                assert abs(got - want) <= 1e-12 * abs(want), (bound, got, want)
                seen.add((bound, theta in (0.0, math.pi / 2)))
            checked += 1
            if len(seen) == 4 if k == "figure3_beta02" else checked == (1 if k == "hssp" else 3):
                break
        else:
            pytest.fail(f"the draws showed only {sorted(seen)}")

    @pytest.mark.parametrize("k", ["hssp", 2, 9, 35, 60, "figure3_beta02"])
    def test_trace_angle_reproduces_each_bound(self, hssp, k):
        # the reported angle, put back into the angle's own corner (a profile
        # root at its chi-square probability), gives the bound
        z = norm_quantile(0.975)
        for data in itertools.islice(propimp_datasets(hssp, k), 12):
            fit = fit_rem(data)
            if fit.tau2_hat == 0.0:
                continue
            ivs, trace = propimp_intervals(data, fit=fit)
            for row, theta, bound in ((0, trace.theta_lower, ivs["M1"].lower),
                                      (1, trace.theta_upper, ivs["M1"].upper)):
                c_tau = z * math.sin(theta)
                p = norm_cdf(c_tau)
                m1 = _corners_m1(data, fit, c_tau, p, 1.0 - p, z * math.cos(theta))[row, 0]
                assert abs(m1 - bound) <= 1e-12 * bound, (row, theta, m1, bound)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 60),
        e=st.integers(-200, 200),
        log10_ratio=st.floats(0.0, 12.0),
        beta=st.sampled_from([0.0, 1e-8, 0.2]),
        alpha=st.sampled_from([2.3e-16, 0.05, 0.5, 0.9999999999999998]),
    )
    def test_corner_pass_arguments_are_in_range(self, seed, k, e, log10_ratio, beta, alpha):
        # the corner pass calls scipy's chdtr, chdtrc and ndtri without checks:
        # every chi-square argument q is finite and >= 0, and every tail that
        # reaches ndtri lies in [1 - Phi(z), 1/2].  Effects at 2^+-200 around a
        # pooled effect near 0, variances at 2^+-400 with ratios up to 1e12;
        # a dataset gets bounds, or propimp_intervals raises the fit's typed error
        rng = np.random.default_rng(seed)
        v = np.ldexp(10.0 ** rng.uniform(0.0, log10_ratio, k), 2 * e)
        spread = 10.0 ** rng.uniform(-2.0, log10_ratio / 2.0 + 4.0)
        y = np.ldexp(beta + spread * rng.standard_normal(k), e)
        seen = {"chdtr": [], "chdtrc": [], "ndtri": []}

        def recorder(name):
            func = getattr(scipy.special, name)

            def record(*args, **kwargs):
                # the pass's calls; norm_quantile checks its own scalar ndtri argument
                if np.ndim(args[-1]):
                    seen[name].append(np.array(args[-1], dtype=float).ravel())
                return func(*args, **kwargs)

            return record

        data = MetaDataset(y, v)
        with pytest.MonkeyPatch.context() as mp:
            for name in seen:
                mp.setattr(scipy.special, name, recorder(name))
            try:
                ivs, _ = propimp_intervals(data, alpha)
            except CvMetaError as exc:
                with pytest.raises(type(exc)):
                    fit_rem(data)
                return
        if ivs["M1"].degenerate:
            return
        q = np.concatenate(seen["chdtr"] + seen["chdtrc"])
        assert np.all(np.isfinite(q) & (q >= 0.0)), q.min()
        tail = np.concatenate(seen["ndtri"])
        floor = 1.0 - norm_cdf(norm_quantile(1.0 - alpha / 2.0))
        assert np.all((floor <= tail) & (tail <= 0.5)), (tail.min(), tail.max(), floor)

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


class TestPowerOfTwoScaling:
    @pytest.mark.parametrize("k", [-40, -13, 1, 27, 40])
    def test_propimp_is_exact(self, hssp, k):
        # y -> 2^k y and v -> 2^(2k) v scale every sum and root exactly, and s
        # and theta have no units, so PROPIMP returns the same bits
        rng = np.random.default_rng(17)
        for d in [hssp] + [random_dataset(rng, k=n) for n in (2, 9, 35)]:
            scaled = MetaDataset(d.effects * 2.0**k, d.within_vars * 2.0 ** (2 * k))
            assert propimp_intervals(scaled) == propimp_intervals(d)


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
            # negation is exact in the fold, the fit and the profile
            flipped = MetaDataset(-d.effects, d.within_vars)
            assert all_bounds(flipped) == all_bounds(d)

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


def every_method(data, alpha):
    """Method tag -> the three measure intervals, for all six constructions."""
    fit = fit_rem(data)
    out = {
        "WALD": wald_logit_intervals(fit, alpha),
        "ALPHA_ADJ": alpha_adjusted_intervals(data, alpha, fit),
        "PROPIMP": propimp_intervals(data, alpha, fit)[0],
    }
    out.update((m, fixed_intervals(data, m, alpha, fit)) for m in FIXED_LEVELS)
    return out


def linked(u):
    """(CV_B, M2) at M1 value u through the exact links."""
    if u <= 0.0:
        return 0.0, 0.0
    if u >= 1.0:
        return math.inf, 1.0
    return u / (1.0 - u), inv_logit(2.0 * logit(u))


class TestMethodProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([2, 2, 3, 5, 12, 40]),
        alpha=st.sampled_from([0.05, 0.01, 0.2]),
        near_null=st.booleans(),
    )
    def test_propimp_contains_the_box_methods(self, seed, k, alpha, near_null):
        # FIXED_TAU and FIXED_BETA are the propagating search's corners at
        # theta = 0 and pi/2, whose probabilities it takes from theta, so a
        # bound may differ from theirs in the last bits; ALPHA_ADJ, at pi/4,
        # is a point inside its search and is reached to the search's
        # tolerance: containment is checked to 1e-9 on the M1 scale
        rng = np.random.default_rng(seed)
        d = near_null_dataset(rng, k) if near_null else random_dataset(rng, k=k)
        ivs = every_method(d, alpha)
        outer = ivs["PROPIMP"]["M1"]
        for method in ("ALPHA_ADJ", "FIXED_TAU", "FIXED_BETA"):
            inner = ivs[method]["M1"]
            assert outer.lower <= inner.lower + 1e-9, method
            assert outer.upper >= inner.upper - 1e-9, method

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([2, 2, 3, 5, 12, 40]),
        alpha=st.sampled_from([0.05, 0.01, 0.2]),
        near_null=st.booleans(),
    )
    def test_links_exact_for_every_method(self, seed, k, alpha, near_null):
        rng = np.random.default_rng(seed)
        d = near_null_dataset(rng, k) if near_null else random_dataset(rng, k=k)
        for method, ivs in every_method(d, alpha).items():
            m1 = ivs["M1"]
            for bound in ("lower", "upper"):
                cv, m2 = linked(getattr(m1, bound))
                assert getattr(ivs["CV_B"], bound) == cv, method
                assert getattr(ivs["M2"], bound) == m2, method

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([2, 2, 3, 5, 12, 40]),
        near_null=st.booleans(),
    )
    def test_nested_in_alpha(self, seed, k, near_null):
        # a smaller alpha widens every component interval, so each M1
        # interval lies inside the one at the next smaller alpha, exactly
        rng = np.random.default_rng(seed)
        d = near_null_dataset(rng, k) if near_null else random_dataset(rng, k=k)
        by_alpha = [every_method(d, alpha) for alpha in (0.2, 0.05, 0.01)]
        for method in ("WALD", "ALPHA_ADJ", "BOTH95", "PROPIMP"):
            for narrow, wide in zip(by_alpha, by_alpha[1:]):
                inner, outer = narrow[method]["M1"], wide[method]["M1"]
                assert outer.lower <= inner.lower, method
                assert inner.upper <= outer.upper, method

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([2, 2, 3, 5, 12, 40]))
    def test_pooled_effect_near_zero(self, seed, k):
        # shifting every effect leaves the residuals and moves beta_hat to
        # delta up to rounding: exactly 0 on some datasets, near 1e-17 on
        # most, and 1e-6 at the largest delta
        d = random_dataset(np.random.default_rng(seed), k=k)
        beta_hat = fit_rem(d).beta_hat
        for delta in (0.0, 1e-300, 1e-160, 1e-30, 1e-6):
            shifted = MetaDataset(d.effects - beta_hat + delta, d.within_vars)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                report = analyze_dataset(shifted, ("WALD", "ALPHA_ADJ", "PROPIMP"), 0.05)
            for iv in report.intervals:
                assert 0.0 <= iv.lower <= iv.upper, (delta, iv)
