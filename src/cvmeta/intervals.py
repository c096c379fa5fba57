"""Confidence intervals for the heterogeneity-to-effect ratio measures.

Every construction except the logit-Wald one is the measure at the
corners of a box of two component intervals: a profile interval for
the between-study variance (inverting the generalized dispersion
statistic against chi-square quantiles) and a Wald interval for the
pooled effect, folded onto the |beta| scale.  The measure rises in tau
and falls in |beta|, so the lower bound sits at (lower tau, upper
|beta|) and the upper bound at the opposite corner.  The constructions
differ only in how the overall critical value z is split between the
two components, c_tau = z sin(theta) and c_beta = z cos(theta).  The
boxes take tau from :func:`tau2_ci_qprofile` and the corners from the
private ``_box_m1``; PROPIMP takes tau along its tau^2 search path and
the corners from ``_box_m1`` too:

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

import math
from dataclasses import dataclass

import numpy as np

from .core import MetaDataset, PooledFit, fit_rem
from .errors import DomainError, NumericFailureError, UndefinedMomentsError
from .measures import inv_logit, logit, logit_m1_moments
from .numerics import chisq_quantile, norm_cdf, norm_quantile, optimize_1d

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
    the lower and upper bounds were attained: 0 where theta = 0 (tau
    pinned at its estimate) is as good as the search's best point, and
    otherwise atan2(c_tau, c_beta) at that point, the smallest such
    point on ties.  evaluations counts the corners evaluated: the
    ``evaluations`` of :func:`cvmeta.numerics.optimize_1d` summed over
    both bounds, plus theta = 0 once for each.  The points a finished
    search still receives while the other goes on are not counted.
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

    Q_gen(t) = sum_i w_i (y_i - b)^2 with weights w_i = 1/(v_i + t) and
    b(t) the mean of y at those weights.  b is the weight-stationary
    point, so the slope is -D with D = sum_i w_i^2 (y_i - b)^2.  Q_gen is a secular
    function: with L an orthonormal basis of the contrasts (vectors
    orthogonal to 1), lambda_j the eigenvalues of L'VL and z the
    coordinates of L'y in their eigenvectors, Q_gen(t) =
    sum_j z_j^2 / (lambda_j + t).  Its reciprocal is the parallel sum of
    the increasing lines (lambda_j + t) / z_j^2, so it is concave and
    increasing, and as every lambda_j lies in [min v, max v], Q_gen lies
    between S / (max v + t) and S / (min v + t), S = sum_i (y_i -
    mean y)^2.  Every root is thus at least S / target - max v.

    Newton's method runs on 1/Q_gen - 1/target (the secular-equation
    step of More and Sorensen), started there (or at 0).  A tangent of
    a concave function lies above it, so each step lands at or before
    the root: the iteration climbs monotonically and cannot overshoot,
    in fewer passes than Newton on the convex Q_gen itself.  The step
    is that plain step (q - target) / D stretched by q / target >= 1;
    written in that order it cannot overflow where the plain step and
    the root are finite.  Each root is taken at the first step no
    longer than 1e-13 t.  The rule is relative, so roots scale exactly
    with the data; a profile that starts at or below its target never
    leaves 0.

    No overshoot needs a D that keeps the heaviest study's share, which
    can be most of it: a short D lengthens the step past the root, and
    the stop rule takes the step back.  So the residuals come from
    effects anchored at the lowest-variance study, y - y[argmin v],
    which makes that study's residual -b, where y_i - b could round to
    0; and D squares w_i r_i, not r_i, whose square can fall below the
    float range while w_i r_i is an ordinary number.

    All targets step in lockstep, and a target holds its value from its
    own convergence on.  Each target's sums run along its own contiguous
    row of K values, so every root is the one its target reaches when
    solved alone, whatever else shares the call.

    Raises
    ------
    NumericFailureError
        If a root has not converged in 100 passes, as where the data
        leave the float range; numpy's warnings are silenced on the way.
    """
    targets = np.asarray(targets, dtype=float)
    tg = targets.reshape(-1)
    with np.errstate(all="ignore"):
        d = y - np.add.reduce(y) / y.size  # y.mean(), without its Python wrapper
        s = float(np.add.reduce(d * d))
        if s == 0.0:
            return np.zeros(targets.shape)
        y = y - y[np.argmin(v)]
        t = np.maximum(s / tg - np.maximum.reduce(v), 0.0)
        for _ in range(100):
            q, wr = _qgen(y, v, t)
            wr *= wr
            step = ((q - tg) / np.add.reduce(wr, axis=1)) * (q / tg)
            done = step <= 1e-13 * t
            if done.all():
                return t.reshape(targets.shape)
            t = np.where(done, t, t + step)
    raise NumericFailureError("profile root iteration did not converge")


def _residuals(y: np.ndarray, v: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weights w_i = 1/(v_i + t) and residuals y_i - b, a row for each entry of the 1-D ``t``.

    b is the mean of y at those weights.  ``y`` holds the effects
    anchored at the lowest-variance study, as :func:`_qprofile_roots`
    anchors them.  The solver (through :func:`_qgen`) and PROPIMP's
    search both run this pass, so they share its arithmetic bit for
    bit.  Row j's sums run over its own K values.  Both arrays are new.
    """
    w = v + t[:, None]
    np.divide(1.0, w, out=w)
    b = np.add.reduce(w * y, axis=1) / np.add.reduce(w, axis=1)
    return w, y - b[:, None]


def _qgen(y: np.ndarray, v: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q_gen = sum_i w_i (y_i - b)^2 at each entry of the 1-D ``t``, and the rows w_i (y_i - b)."""
    w, r = _residuals(y, v, t)
    wr = w * r
    r *= r
    r *= w
    return np.add.reduce(r, axis=1), wr


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

_SIGN = np.array([[1.0], [-1.0]])  # the sign of half in each corner's |beta| end


def _box_m1(fit: PooledFit, tau, c_beta) -> np.ndarray:
    """m1 = tau / (tau + |beta|) at given tau, the lower corner in row 0 and the upper in row 1.

    |beta| spans the fold of beta_hat -/+ c_beta se(beta_hat) onto
    |beta|, which is [max(|beta_hat| - half, 0), |beta_hat| + half] with
    half = c_beta se(beta_hat).  Each row computes only the end it uses,
    as max(|beta_hat| + half, 0) in the lower corner and
    max(|beta_hat| - half, 0) in the upper.  (Negation is exact, so this
    is the three-case fold bit for bit: keep a positive interval, swap a
    negative one, take [0, max] of one across 0.)  A c_beta of 0 makes
    half 0, since se(beta_hat) is finite, and so pins |beta| at its
    estimate.  ``tau`` has the shape of the result.
    """
    b = c_beta * (_SIGN * math.sqrt(fit.var_beta_hat))
    b += abs(fit.beta_hat)
    np.maximum(b, 0.0, out=b)
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
    holds to the last bit.  The one exception is the m2 link, which is
    monotone only to the last bit: where it maps an m1 interval a few
    ulps wide in reverse, the m2 bounds meet at the upper one.  The
    degenerate fallback is the whole m1 range (0, 1), which the links
    carry to (0, inf) and (0, 1).
    """
    out = {}
    for measure, lo, hi in (
        ("CV_B", _cv_from_m1(m1_lo), _cv_from_m1(m1_hi)),
        ("M1", m1_lo, m1_hi),
        ("M2", _m2_from_m1(m1_lo), _m2_from_m1(m1_hi)),
    ):
        out[measure] = IntervalEstimate(
            min(lo, hi), hi, measure, method, alpha_tau, alpha_beta, degenerate)
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

    tau spans the square roots of :func:`tau2_ci_qprofile`'s interval
    and |beta| the folded Wald interval of :func:`_box_m1`.  A level of
    0 pins that component at its point estimate.
    """
    if fit is None:
        fit = fit_rem(data)
    if fit.tau2_hat == 0.0:
        return _linked_intervals(0.0, 1.0, method, a_tau, a_beta, degenerate=True)
    if a_tau:
        iv = tau2_ci_qprofile(data, a_tau)
        tau = np.sqrt([[iv.lower], [iv.upper]])
    else:
        tau = np.full((2, 1), math.sqrt(fit.tau2_hat))
    c_beta = norm_quantile(1.0 - a_beta / 2.0) if a_beta else 0.0
    m1_lo, m1_hi = _box_m1(fit, tau, c_beta).ravel().tolist()
    # tau / (tau + |beta|) is monotone only to the last bit: near alpha = 1 a
    # tau bound one ulp larger can give a smaller m1
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

# The search's final bracket on s.  theta moves up to a few hundred times
# faster than s near theta = 0 when the upper corner's range is long (228x
# at an optimum of a K = 2 dataset), so s needs a finer bracket than the
# 1e-7 that an angle search takes
_S_TOL = 1e-9


def _propimp_path(data: MetaDataset, fit: PooledFit, z: float):
    """PROPIMP's corners as functions of its search variable s in [0, 1].

    Along the quarter circle the lower corner's tau^2 falls from the
    median root t_med (theta -> 0+) to the root t_end at chi-square
    probability Phi(z) (theta = pi/2), and the upper corner's rises from
    t_med to the root at 1 - Phi(z).  The search runs over t in that
    range, t = t_end + (1 - s)^2 (t_med - t_end), and takes the angle
    back in closed form: c_tau = Phi^-1(F(Q_gen(t))) at the lower
    corner and Phi^-1(1 - F(Q_gen(t))) at the upper, F the chi-square
    CDF on K - 1 degrees of freedom, and c_beta = sqrt(z^2 - c_tau^2).
    Near theta = pi/2, c_beta grows like sqrt(t - t_end), so t is
    quadratic in s there to keep the objective smooth in s.  A larger s
    is a larger angle.  s = 1 is the corner at theta = pi/2 from the
    range-end roots, with the split c_tau = z sin(pi/2) and c_beta =
    z cos(pi/2): the latter is not 0 but z 6.1e-17 (about 1.2e-16 at a
    95% level), and is kept for its bits.

    There c_beta comes from the small difference z - c_tau, so c_tau is
    computed to keep it: Q_gen(t) is Q_gen(t_end) plus (t_end - t) times
    the dot product of the weighted residuals w_i (y_i - b) at t and at
    t_end (the difference of the two profiles, P_t - P_u = (u - t) P_t P_u
    for the projections P_t y = W_t (y - b_t)), which has no
    cancellation, and c_tau is -Phi^-1 of the chi-square tail that lies
    below 1/2.  What remains is c_tau's rounding in the last bit, which
    reaches c_beta multiplied by (c_tau / c_beta)^2: m1 near an optimum
    at cos(theta) = 0.027 carried noise of up to 4e-13 relative.

    Returns a function mapping s, one row per corner, to
    (tau, c_tau, c_beta) of the same shape, each a new array.  It runs
    one residual pass, :func:`_residuals`, and forms no Q_gen sum, and
    it leaves numpy's warnings to its caller.  It calls scipy's
    chi-square and normal ufuncs without the checks of
    :mod:`cvmeta.numerics`, on arguments in range by construction:
    q >= the smaller pivot > 0; tail clamped into [1 - Phi(z), 1/2].
    """
    # here, not at module level: cvmeta table2 never loads scipy.special
    from scipy.special import chdtr, chdtrc, ndtri

    y, v, df = data.effects, data.within_vars, data.k - 1
    p_end = norm_cdf(z)  # the lower corner's chi-square probability at theta = pi/2
    t_med, t_lo, t_up = _qprofile_roots(
        y, v, chisq_quantile(np.array([0.5, p_end, 1.0 - p_end]), df)).tolist()
    t_end = np.array([[t_lo], [t_up]])
    span = t_med - t_end
    y = y - y[np.argmin(v)]  # anchored as the solver anchors it
    q_end, wr_end = _qgen(y, v, t_end.reshape(-1))
    q_end, wr_end = q_end[:, None], wr_end[:, None, :]
    c_end = z * math.sin(_HALF_PI), z * math.cos(_HALF_PI)  # theta = pi/2, cos(pi/2) not 0

    def path(s: np.ndarray):
        d = np.subtract(1.0, s)
        d *= d
        d *= span
        t = t_end + d
        w, wr = _residuals(y, v, t.reshape(-1))
        wr *= w
        wr = wr.reshape(t.shape + (-1,))
        # Q_gen(t) - Q_gen(t_end) = (t_end - t) sum_i w_i r_i (t) w_i r_i (t_end)
        wr *= wr_end
        q = np.add.reduce(wr, axis=2)
        q *= d
        np.subtract(q_end, q, out=q)
        c_tau = np.empty(t.shape)
        chdtrc(df, q[0], out=c_tau[0])
        chdtr(df, q[1], out=c_tau[1])
        # rounding can carry the tail a little outside the range's ends
        np.maximum(c_tau, 1.0 - p_end, out=c_tau)
        np.minimum(c_tau, 0.5, out=c_tau)
        ndtri(c_tau, out=c_tau)
        np.negative(c_tau, out=c_tau)
        np.minimum(c_tau, z, out=c_tau)
        c_beta = z - c_tau
        c_beta *= z + c_tau
        np.sqrt(c_beta, out=c_beta)
        end = s == 1.0
        np.copyto(c_tau, c_end[0], where=end)
        np.copyto(c_beta, c_end[1], where=end)
        return np.sqrt(t, out=t), c_tau, c_beta

    return path


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
    with the roles flipped.  The endpoints theta = 0 and pi/2 are the
    fixed-parameter intervals' corners, so the result contains FIXED_TAU
    exactly and FIXED_BETA to the last bits (its probabilities come from
    Phi(z) rather than alpha); the equal-split angle reproduces the
    adjusted combination, which it contains to the search tolerance.

    The search runs over tau^2 rather than theta (see
    :func:`_propimp_path`): each evaluation is one residual pass and a
    closed-form angle, with no root to solve.  Both bounds are found on
    the m1 scale, where the objective is bounded, by one lockstep run of
    :func:`cvmeta.numerics.optimize_1d` over the search variable, the
    minimum of the lower corner and the maximum of the upper corner,
    down to a bracket of 1e-9, with numpy's warnings silenced once for
    the whole search.
    theta = 0, where tau jumps to its estimate, is one more candidate of
    each bound, and it wins ties.  cv and m2 bounds follow through the
    links.

    Returns
    -------
    (intervals, trace)
        intervals maps "CV_B", "M1", "M2" to IntervalEstimate; trace
        records the optimizing angles and the number of corners evaluated.
    """
    _check_alpha(alpha)
    if fit is None:
        fit = fit_rem(data)
    if fit.tau2_hat == 0.0:
        whole = _linked_intervals(0.0, 1.0, "PROPIMP", alpha, alpha, degenerate=True)
        return whole, PropImpTrace(0.0, 0.0, 0)

    z = norm_quantile(1.0 - alpha / 2.0)
    path = _propimp_path(data, fit, z)

    def corners_m1(s: np.ndarray) -> np.ndarray:
        tau, _, c_beta = path(s)
        return _box_m1(fit, tau, c_beta)

    with np.errstate(all="ignore"):
        (s_lo, m1_lo, n_lo), (s_hi, m1_hi, n_hi) = optimize_1d(
            corners_m1, 0.0, 1.0, modes=("min", "max"), tol=_S_TOL)
        _, c_tau, c_beta = path(np.array([[s_lo], [s_hi]]))
    theta_lo, theta_hi = np.arctan2(c_tau, c_beta).ravel().tolist()
    # theta = 0: tau at its estimate, |beta| over its whole level-alpha interval
    at_zero_lo, at_zero_hi = _box_m1(fit, np.full((2, 1), math.sqrt(fit.tau2_hat)), z).ravel().tolist()
    if at_zero_lo <= m1_lo:
        theta_lo, m1_lo = 0.0, at_zero_lo
    if at_zero_hi >= m1_hi:
        theta_hi, m1_hi = 0.0, at_zero_hi
    trace = PropImpTrace(theta_lo, theta_hi, n_lo + n_hi + 2)
    return _linked_intervals(m1_lo, m1_hi, "PROPIMP", alpha, alpha), trace
