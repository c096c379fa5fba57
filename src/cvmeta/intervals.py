"""Confidence intervals for the heterogeneity-to-effect ratio measures.

Every construction except the logit-Wald one is the measure at the
corners of a box of two component intervals: a profile interval for
the between-study variance (inverting the generalized dispersion
statistic against chi-square quantiles) and a Wald interval for the
pooled effect, folded onto the |beta| scale.  The measure rises in tau
and falls in |beta|, so the lower bound sits at (lower tau, upper
|beta|) and the upper bound at the opposite corner.  The constructions
differ only in how the overall critical value z is split between the
two components, c_tau = z sin(theta) and c_beta = z cos(theta), and one
private kernel computes the corners for all of them:

* ``wald_logit_intervals``: symmetric on the logit scale via the
  delta-method variance, back-transformed (no box);
* ``fixed_intervals``: FIXED_TAU (theta = 0, tau pinned at its
  estimate), FIXED_BETA (theta = pi/2, |beta| pinned) and BOTH95 (both
  components at their own level-alpha intervals);
* ``alpha_adjusted_intervals``: the equal split, theta = pi/4, which
  reduces both component levels to about 83.42% for a 95% target;
* ``propimp_intervals``: propagating imprecision, which optimizes the
  measure over every split along the quarter circle.

All measure intervals are computed on the m1 = tau/(tau+|beta|) scale
first and mapped to the other two scales through the exact links
cv = u/(1-u) and logit-doubling, so the three reported intervals are
consistent bound-by-bound by construction.

When the between-study variance estimate is truncated to zero the data
carry no usable signal about the ratio measures, and every construction
returns the whole m1 range (0, 1) with a degenerate flag; the links
carry it to (0, 1) for m2 and (0, inf) for the coefficient of variation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import MetaDataset, PooledFit, fit_rem
from .errors import DomainError, NumericFailureError, UndefinedMomentsError
from .measures import inv_logit, logit, logit_m1_moments
from .numerics import _GRID_POINTS, chisq_quantile, norm_cdf, norm_quantile, optimize_1d

__all__ = [
    "MEASURE_TAGS",
    "METHOD_TAGS",
    "RATIO_MEASURES",
    "IntervalEstimate",
    "PropImpTrace",
    "tau2_ci_qprofile",
    "wald_logit_intervals",
    "fixed_intervals",
    "alpha_adjusted_intervals",
    "alpha_adjusted_level",
    "propimp_intervals",
]

RATIO_MEASURES = ("CV_B", "M1", "M2")
MEASURE_TAGS = RATIO_MEASURES + ("TAU2",)
METHOD_TAGS = (
    "WALD",
    "FIXED_TAU",
    "FIXED_BETA",
    "BOTH95",
    "ALPHA_ADJ",
    "PROPIMP",
    "QPROFILE",
)

_HALF_PI = math.pi / 2.0


def _check_alpha(alpha: float, error=DomainError) -> None:
    # exactly the alpha whose critical value z = Phi^-1(1 - alpha/2) is positive
    # and finite: 0 < alpha < 1 can round 1 - alpha/2 to 0.5 or 1
    try:
        inside = 0.5 < 1.0 - alpha / 2.0 < 1.0
    except (TypeError, OverflowError):  # not a number, or an integer beyond the float range
        inside = False
    if not inside:
        raise error(f"alpha must be inside (0, 1), got {alpha!r}")


@dataclass(frozen=True)
class IntervalEstimate:
    """A confidence interval for one quantity under one construction.

    Attributes
    ----------
    lower, upper : float
        upper may be math.inf.  Bounds are nonnegative.
    measure : str
        One of MEASURE_TAGS.
    method : str
        One of METHOD_TAGS.
    alpha_tau, alpha_beta : float
        Component miscoverage configuration.  0 records a component
        fixed at its point estimate; for the propagating construction
        both fields record the overall target level.
    degenerate : bool
        True when the interval is the whole-range fallback produced by a
        zero heterogeneity estimate (or a zero pooled effect for the
        logit construction); such intervals carry no data information.
    """

    lower: float
    upper: float
    measure: str
    method: str
    alpha_tau: float
    alpha_beta: float
    degenerate: bool = False

    def __post_init__(self):
        if self.measure not in MEASURE_TAGS:
            raise DomainError(f"unknown measure tag {self.measure!r}")
        if self.method not in METHOD_TAGS:
            raise DomainError(f"unknown method tag {self.method!r}")
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise DomainError("interval bounds cannot be NaN")
        if self.lower > self.upper:
            raise DomainError(f"lower {self.lower!r} exceeds upper {self.upper!r}")
        if self.lower < 0:
            raise DomainError(f"{self.measure} lower bound must be nonnegative")
        if self.measure in ("M1", "M2") and self.upper > 1:
            raise DomainError(f"{self.measure} upper bound must be at most 1")
        for a in (self.alpha_tau, self.alpha_beta):
            if not 0.0 <= a < 1.0:
                raise DomainError(f"alpha levels must lie in [0, 1), got {a!r}")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class PropImpTrace:
    """Optimizer diagnostics from a propagating-imprecision run.

    theta_lower and theta_upper are the quarter-circle angles at which
    the lower and upper bounds were attained (smallest such angle on
    ties); evaluations counts the angles the two searches evaluated, the
    ``evaluations`` of :func:`cvmeta.numerics.optimize_1d` summed over
    both bounds.  The angles a finished search still receives while the
    other goes on are not counted.
    """

    theta_lower: float
    theta_upper: float
    evaluations: int

    def __post_init__(self):
        for name in ("theta_lower", "theta_upper"):
            if not 0.0 <= getattr(self, name) <= _HALF_PI + 1e-12:
                raise DomainError(f"{name} outside [0, pi/2]: {getattr(self, name)!r}")


# ---------------------------------------------------------------------------
# generalized dispersion profile

def _qprofile_roots(y: np.ndarray, v: np.ndarray, targets) -> np.ndarray:
    """Solve Q_gen(t) = target for t >= 0, elementwise over ``targets``.

    Q_gen(t) = sum_i (y_i - b(t))^2 / (v_i + t) with b(t) the weighted
    mean at weights 1/(v_i + t).  Because b(t) is the weight-stationary
    point, the slope reduces to -sum_i w_i^2 (y_i - b)^2, and as a
    partial minimum over b of a jointly convex function the profile is
    convex.  With S = sum_i (y_i - mean y)^2 it lies between
    S / (max v + t) and S / (min v + t), so every root is at least
    S / target - max v.  Newton's method started there (or at 0) climbs
    a convex decreasing profile monotonically without overshooting, and
    each root is taken at the first step no longer than 1e-13 t.  The
    rule is relative, so roots scale exactly with the data; a profile
    that starts at or below its target never leaves 0.

    A target leaves the iteration at its own convergence, and only the
    targets still live are stepped.  Each target's sums run along its
    own contiguous row of K values, so every root is the one its target
    reaches when solved alone, whatever else shares the call.
    """
    targets = np.asarray(targets, dtype=float)
    tg = targets.reshape(-1)
    d = y - np.add.reduce(y) / y.size  # y.mean(), without its Python wrapper
    s = float(np.add.reduce(d * d))
    if s == 0.0:
        return np.zeros(targets.shape)
    roots = np.maximum(s / tg - np.maximum.reduce(v), 0.0)
    live, t = np.arange(tg.size), roots
    for _ in range(100):
        w = v + t[:, None]
        np.divide(1.0, w, out=w)
        b = np.add.reduce(w * y, axis=1) / np.add.reduce(w, axis=1)
        wr2 = y - b[:, None]
        wr2 *= wr2
        wr2 *= w
        q = np.add.reduce(wr2, axis=1)
        wr2 *= w
        step = (q - tg) / np.add.reduce(wr2, axis=1)
        done = step <= 1e-13 * t
        n_done = np.count_nonzero(done)
        if n_done:
            roots[live[done]] = t[done]
            if n_done == done.size:
                return roots.reshape(targets.shape)
            keep = ~done
            live, t, tg, step = live[keep], t[keep], tg[keep], step[keep]
        t = t + step
    raise NumericFailureError("profile root iteration did not converge")


def tau2_ci_qprofile(data: MetaDataset, alpha: float = 0.05) -> IntervalEstimate:
    """Profile confidence interval for the between-study variance.

    The bounds solve Q_gen(t) = chi-square quantile at 1 - alpha/2
    (lower bound) and alpha/2 (upper bound) on K - 1 degrees of
    freedom.  The profile is strictly decreasing, so each pivot has at
    most one root; bounds truncate at 0, and data too homogeneous to
    reach the upper pivot give the empty-at-zero interval [0, 0].

    Parameters
    ----------
    data : MetaDataset
    alpha : float
        Two-sided miscoverage, in (0, 1).

    Returns
    -------
    IntervalEstimate
        measure "TAU2", method "QPROFILE".
    """
    _check_alpha(alpha)
    pivots = chisq_quantile(np.array([1.0 - alpha / 2.0, alpha / 2.0]), data.k - 1)
    lower, upper = _qprofile_roots(data.effects, data.within_vars, pivots).tolist()
    # alpha near 1 puts both pivots near the median, where the roots can cross by an ulp
    return IntervalEstimate(min(lower, upper), upper, "TAU2", "QPROFILE", alpha, 0.0)


# ---------------------------------------------------------------------------
# the (tau, |beta|) box corners

def _fold_abs(lo, hi):
    """Elementwise |beta| bounds from signed bounds.

    Three cases: both bounds positive keep their order under | . |;
    both negative swap; an interval straddling zero becomes
    [0, max of the folded endpoints], the conservative choice.  A zero
    endpoint is grouped with the sign of the other endpoint.
    """
    a = np.where(lo >= 0.0, lo, np.where(hi <= 0.0, -hi, 0.0))
    b = np.where(lo >= 0.0, hi, np.where(hi <= 0.0, -lo, np.maximum(-lo, hi)))
    return a, b


_UPPER = np.array([[False], [True]])  # row 0: lower corner, row 1: upper corner


def _corners_m1(
    data: MetaDataset, fit: PooledFit, c_tau, p_lo, p_up, c_beta, pivots=None
) -> np.ndarray:
    """m1 at the corners of the (tau, |beta|) box, the lower in row 0 and the upper in row 1.

    tau spans the profile roots at chi-square probabilities ``p_lo``
    (lower corner) and ``p_up`` (upper corner); |beta| spans the fold of
    beta_hat -/+ c_beta se(beta_hat), its upper end in the lower corner.
    A critical value of exactly 0 pins its component at the point
    estimate.  Arguments broadcast, so an array of n splits gives (2, n).
    ``pivots``, when given, are the chi-square quantiles at those
    probabilities, already computed, and ``p_lo`` and ``p_up`` are not read.
    """
    if pivots is None:
        pivots = chisq_quantile(np.where(_UPPER, p_up, p_lo), data.k - 1)
    roots = _qprofile_roots(data.effects, data.within_vars, pivots)
    tau = np.where(c_tau == 0.0, math.sqrt(fit.tau2_hat), np.sqrt(roots))
    half = c_beta * math.sqrt(fit.var_beta_hat)
    b_lo, b_up = _fold_abs(fit.beta_hat - half, fit.beta_hat + half)
    b = np.where(c_beta == 0.0, abs(fit.beta_hat), np.where(_UPPER, b_lo, b_up))
    # 0 where tau is 0, else tau / (tau + |beta|): exactly 1 where |beta| is 0
    return np.divide(tau, tau + b, out=np.zeros(np.shape(tau)), where=tau > 0.0)


# ---------------------------------------------------------------------------
# measure-scale helpers

def _cv_from_m1(u: float) -> float:
    return math.inf if u >= 1.0 else u / (1.0 - u)


def _m2_from_m1(u: float) -> float:
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    return inv_logit(2.0 * logit(u))


def _linked_intervals(
    m1_lo: float,
    m1_hi: float,
    method: str,
    alpha_tau: float,
    alpha_beta: float,
    degenerate: bool = False,
) -> dict[str, IntervalEstimate]:
    """All three measure intervals from the m1-scale bounds.

    The cv and squared-scale bounds are exact transforms of the m1
    bounds, so link consistency across the three reported intervals
    holds to the last bit.  The degenerate fallback is the whole m1
    range (0, 1), which the links carry to (0, inf) and (0, 1).
    """
    out = {}
    for measure, lo, hi in (
        ("CV_B", _cv_from_m1(m1_lo), _cv_from_m1(m1_hi)),
        ("M1", m1_lo, m1_hi),
        ("M2", _m2_from_m1(m1_lo), _m2_from_m1(m1_hi)),
    ):
        out[measure] = IntervalEstimate(lo, hi, measure, method, alpha_tau, alpha_beta, degenerate)
    return out


# ---------------------------------------------------------------------------
# Wald on the logit scale

def wald_logit_intervals(fit: PooledFit, alpha: float = 0.05) -> dict[str, IntervalEstimate]:
    """Symmetric logit-scale intervals for all three measures.

    One interval is built on the logit(m1) scale from the delta-method
    variance; the other two scales follow through the exact links, so a
    single construction serves cv, m1, and m2 with bound-by-bound
    consistency.  A zero heterogeneity estimate (or zero pooled effect)
    has no usable logit moments and yields the degenerate whole-range
    intervals instead; an infinite delta-method variance gives the
    whole range (0, 1) for M1, not marked degenerate.
    """
    _check_alpha(alpha)
    try:
        moments = logit_m1_moments(fit)
    except UndefinedMomentsError:
        return _linked_intervals(0.0, 1.0, "WALD", alpha, alpha, degenerate=True)
    half = norm_quantile(1.0 - alpha / 2.0) * math.sqrt(moments.var_logit_m1)
    if math.isinf(half):
        # the center can be infinite too where |beta_hat| is near the float minimum
        return _linked_intervals(0.0, 1.0, "WALD", alpha, alpha)
    center = math.log(math.sqrt(fit.tau2_hat) / abs(fit.beta_hat))
    return _linked_intervals(
        inv_logit(center - half), inv_logit(center + half), "WALD", alpha, alpha
    )


# ---------------------------------------------------------------------------
# fixed-parameter and simultaneous combinations

def _box_intervals(
    data: MetaDataset, fit: PooledFit | None, method: str, a_tau: float, a_beta: float
) -> dict[str, IntervalEstimate]:
    """Measure intervals from the box of component intervals at miscoverage a_tau, a_beta.

    A level of 0 pins that component at its point estimate.
    """
    if fit is None:
        fit = fit_rem(data)
    if fit.tau2_hat == 0.0:
        return _linked_intervals(0.0, 1.0, method, a_tau, a_beta, degenerate=True)
    c_tau = norm_quantile(1.0 - a_tau / 2.0) if a_tau else 0.0
    c_beta = norm_quantile(1.0 - a_beta / 2.0) if a_beta else 0.0
    # a pinned tau ignores its roots, so any valid pivot probability serves
    p_lo, p_up = (1.0 - a_tau / 2.0, a_tau / 2.0) if a_tau else (0.5, 0.5)
    m1_lo, m1_hi = _corners_m1(data, fit, c_tau, p_lo, p_up, c_beta).ravel().tolist()
    # near-zero critical values can cross the corners by an ulp, as in tau2_ci_qprofile
    return _linked_intervals(min(m1_lo, m1_hi), m1_hi, method, a_tau, a_beta)


def fixed_intervals(
    data: MetaDataset, method: str, alpha: float = 0.05, fit: PooledFit | None = None
) -> dict[str, IntervalEstimate]:
    """Combine component intervals into measure intervals by monotonicity.

    The measure rises in tau and falls in |beta|, so each bound is the
    measure at a corner of the (tau, |beta|) box:

    * FIXED_TAU: tau pinned at its estimate, |beta| spans the folded
      Wald interval;
    * FIXED_BETA: |beta| pinned, tau spans the profile interval;
    * BOTH95: both parameters at opposite corners of their intervals.

    Each spanning component takes its own level-alpha interval.  An
    infinite cv upper bound is a legal value (zero lower |beta| bound).
    """
    methods = ("FIXED_TAU", "FIXED_BETA", "BOTH95")
    if method not in methods:
        raise DomainError(f"method must be one of {methods}, got {method!r}")
    _check_alpha(alpha)
    a_tau = 0.0 if method == "FIXED_TAU" else alpha
    a_beta = 0.0 if method == "FIXED_BETA" else alpha
    return _box_intervals(data, fit, method, a_tau, a_beta)


def alpha_adjusted_level(alpha: float = 0.05) -> float:
    """Component miscoverage for the equal-split adjusted combination.

    2 (1 - Phi(z / sqrt 2)) with z the two-sided critical value of the
    overall level: the component level at which both parameters sit on
    the diagonal of the propagating construction's quarter circle.
    About 0.16578 for a 95% target, i.e. 83.42% component intervals.
    """
    _check_alpha(alpha)
    z = norm_quantile(1.0 - alpha / 2.0)
    return 2.0 * (1.0 - norm_cdf(z / math.sqrt(2.0)))


def alpha_adjusted_intervals(
    data: MetaDataset, alpha: float = 0.05, fit: PooledFit | None = None
) -> dict[str, IntervalEstimate]:
    """Both-varying combination at the reduced component level."""
    a_eff = alpha_adjusted_level(alpha)
    return _box_intervals(data, fit, "ALPHA_ADJ", a_eff, a_eff)


# ---------------------------------------------------------------------------
# propagating imprecision

@functools.lru_cache(maxsize=64)  # every K from 2 to 60 at one alpha, about 2 KB each
def _grid_pivots(df: int, z: float) -> np.ndarray:
    """Read-only chi-square pivots of PROPIMP's grid angles, the lower corner in row 0.

    The angles are :func:`cvmeta.numerics.optimize_1d`'s 129-point grid
    over [0, pi/2], so the pivots depend only on the degrees of freedom
    K - 1 and the critical value z, and are computed as the objective
    computes them.
    """
    p_tail = norm_cdf(z * np.sin(np.linspace(0.0, _HALF_PI, _GRID_POINTS)))
    pivots = chisq_quantile(np.where(_UPPER, 1.0 - p_tail, p_tail), df)
    pivots.flags.writeable = False
    return pivots


def propimp_intervals(
    data: MetaDataset, alpha: float = 0.05, fit: PooledFit | None = None
) -> tuple[dict[str, IntervalEstimate], PropImpTrace]:
    """Propagating-imprecision intervals for all three measures.

    The overall critical value z is split between the two components
    along a quarter circle: at angle theta the tau component uses
    critical value z sin(theta) and the effect component z cos(theta),
    each mapped to a component interval at level 2 (1 - Phi(c)).  A
    critical value of 0 pins the parameter at its point estimate.  The
    lower bound minimizes the measure over theta with tau at its lower
    and |beta| at its upper component bound; the upper bound maximizes
    with the roles flipped.  The equal-split angle reproduces the
    adjusted combination, and the two endpoints reproduce the
    fixed-parameter intervals, so the result contains all three.

    Both bounds are found on the m1 scale, where the objective is
    bounded, by one lockstep run of :func:`cvmeta.numerics.optimize_1d`:
    the minimum of the lower corner and the maximum of the upper corner
    share every profile solve, so the two 129-point grids are one
    258-target solve and each zoom call solves 20 targets, 10 angles
    of each bound.  The grid's 258 chi-square pivots depend only on K
    and alpha, so they come from a small cache, computed once per
    (K - 1, z); the zoom calls compute their own.  Every profile root
    is solved independently of the others in its call, so each bound
    reaches the same bits as a search of its own with one angle per
    call.  cv and m2 bounds follow through the links.

    Returns
    -------
    (intervals, trace)
        intervals maps "CV_B", "M1", "M2" to IntervalEstimate; trace
        records the optimizing angles and the number of angles searched.
    """
    _check_alpha(alpha)
    if fit is None:
        fit = fit_rem(data)
    if fit.tau2_hat == 0.0:
        whole = _linked_intervals(0.0, 1.0, "PROPIMP", alpha, alpha, degenerate=True)
        return whole, PropImpTrace(0.0, 0.0, 0)

    z = norm_quantile(1.0 - alpha / 2.0)
    grid = [_grid_pivots(data.k - 1, z)]  # optimize_1d's first call is its grid

    def corners_m1(theta: np.ndarray) -> np.ndarray:
        c_tau, c_beta = z * np.sin(theta), z * np.cos(theta)
        if grid:
            return _corners_m1(data, fit, c_tau, None, None, c_beta, pivots=grid.pop())
        p_tail = norm_cdf(c_tau)  # the lower corner's pivot probability, 1 - alpha_c / 2
        return _corners_m1(data, fit, c_tau, p_tail, 1.0 - p_tail, c_beta)

    (theta_lo, m1_lo, n_lo), (theta_hi, m1_hi, n_hi) = optimize_1d(
        corners_m1, 0.0, _HALF_PI, modes=("min", "max"))
    trace = PropImpTrace(theta_lo, theta_hi, n_lo + n_hi)
    return _linked_intervals(m1_lo, m1_hi, "PROPIMP", alpha, alpha), trace

