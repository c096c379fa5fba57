"""Heterogeneity measures of a fit: the ratio family and its moments, I^2, R_b, DR.

The between-study coefficient of variation cv_b = tau/|beta| compares the
spread of true effects to their typical size.  Two rescalings map it onto
[0, 1]: m1 = tau/(tau + |beta|) on the linear scale and
m2 = tau^2/(tau^2 + beta^2) on the squared scale.  On the logit scale the
three are the same object up to a factor, which is what makes a single
delta-method variance serve all of them:

    logit(m1) = log(cv_b)        logit(m2) = 2 log(cv_b)

Delta-method variance and bias for logit(m1) are provided.  The
comparison measures, which depend on the study sizes, come from the same
fit: I^2 = (Q - (K-1))/Q, the diamond ratio DR (random-effects over
fixed-effect pooled standard error) and R_b, the mean share tau^2/(v_i +
tau^2) of each study's variance due to heterogeneity.  All six are
reported together by :func:`het_measures`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MetaDataset, PooledFit
from .errors import DomainError, UndefinedMomentsError

__all__ = [
    "HetMeasures",
    "CvMeasure",
    "LogitMoments",
    "cv_measures",
    "measures_from_cv",
    "logit",
    "inv_logit",
    "logit_m1_moments",
    "het_measures",
]


@dataclass(frozen=True)
class HetMeasures:
    """Point values of the heterogeneity measures for one fit.

    i2, rb, m1, m2 lie in [0, 1]; dr is at least 1; cv_b is nonnegative
    and may be infinite when the pooled effect is zero.
    """

    i2: float
    dr: float
    rb: float
    cv_b: float
    m1: float
    m2: float


@dataclass(frozen=True)
class CvMeasure:
    """Point values of the three ratio measures for one (tau, beta).

    cv_b is nonnegative and may be math.inf (zero pooled effect with
    positive heterogeneity); m1 and m2 always lie in [0, 1], and both
    equal 1 exactly when cv_b is infinite.
    """

    cv_b: float
    m1: float
    m2: float


@dataclass(frozen=True)
class LogitMoments:
    """Delta-method variance and bias of the logit-scale measures.

    The squared-scale entries are fixed multiples of the linear-scale
    ones (factor 4 for the variance, 2 for the bias) because the two
    logits differ by a constant factor.
    """

    var_logit_m1: float
    bias_logit_m1: float
    var_logit_m2: float
    bias_logit_m2: float


def cv_measures(tau: float, beta: float) -> CvMeasure:
    """Ratio measures of heterogeneity relative to effect size.

    Parameters
    ----------
    tau : float
        Between-study standard deviation, nonnegative and finite.
    beta : float
        Pooled effect, not nan; only |beta| matters.

    Returns
    -------
    CvMeasure
        tau = 0 gives the all-zero measure (whatever beta, including 0).
        beta = 0 with tau > 0 gives cv_b = inf and m1 = m2 = 1, and an
        infinite beta gives the all-zero measure.  Other inputs raise
        DomainError.
    """
    if not 0 <= tau < math.inf or math.isnan(beta):
        raise DomainError(f"tau must be nonnegative and finite, beta not nan; got {(tau, beta)!r}")
    return CvMeasure(*(float(x) for x in _ratio_measures(tau, beta)))


def _ratio_measures(tau, beta) -> tuple:
    """(cv_b, m1, m2) elementwise for arrays of tau >= 0 and beta.

    The cases of :func:`cv_measures` hold per element: tau = 0 gives
    zeros, and beta = 0 with tau > 0 gives (inf, 1, 1).
    """
    tau = np.asarray(tau, dtype=float)
    b = np.abs(beta)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t2 = tau * tau
        sq_sum = t2 + b * b
        cv, m1, m2 = tau / b, tau / (tau + b), t2 / sq_sum
        # tau + |beta| overflows near the float maximum; there m1 = 1 / (1 + |beta|/tau)
        m1 = np.where(np.isinf(tau + b), 1.0 / (1.0 + b / tau), m1)
        # m2 is 0/0 where tau^2 + beta^2 underflows and inf/inf where tau^2 overflows;
        # there m2 = cv^2 / (1 + cv^2), in a form that cannot overflow
        m2 = np.where(np.isnan(m2), 1.0 / (1.0 + (b / tau) ** 2), m2)
    zero, inf = tau == 0.0, b == 0.0
    return (
        np.where(zero, 0.0, np.where(inf, np.inf, cv)),
        np.where(zero, 0.0, np.where(inf, 1.0, m1)),
        np.where(zero, 0.0, np.where(inf, 1.0, m2)),
    )


def measures_from_cv(cv_b: float) -> CvMeasure:
    """The measure triple of tau = cv_b at beta = 1; cv_b = inf gives (inf, 1, 1)."""
    if not cv_b >= 0:
        raise DomainError(f"cv_b must be nonnegative, got {cv_b!r}")
    return CvMeasure(*(float(x) for x in _ratio_measures(cv_b, 1.0)))


def logit(u: float) -> float:
    """log(u/(1-u)) for u strictly inside (0, 1)."""
    if not 0.0 < u < 1.0:
        raise DomainError(f"logit requires 0 < u < 1, got {u!r}")
    return math.log(u / (1.0 - u))


def inv_logit(x: float) -> float:
    """Inverse of :func:`logit`; maps the real line onto (0, 1).

    Evaluated in the numerically stable split form so large |x| cannot
    overflow.
    """
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _over_square(var: float, x: float) -> float:
    """var / x^2, infinite where x * x underflows to 0."""
    xx = x * x
    return var / xx if xx > 0.0 else math.inf


def logit_m1_moments(fit: PooledFit) -> LogitMoments:
    """Delta-method variance and bias of logit(m1) at plug-in estimates.

    var  = Var(T2)/(4 T2^2) + Var(B)/B^2
    bias = (Var(B)/B^2 - Var(T2)/(2 T2^2)) / 2

    with T2 the between-study variance estimate and B the pooled effect,
    both taken from the fit together with their estimated variances.
    The squared-scale measure gets 4x the variance and 2x the bias.
    Where T2^2 or B^2 underflows to 0 (T2 or |B| below about 1e-154),
    its ratio and the variance are infinite; the bias is then infinite
    too.  If both ratios are infinite, the bias takes the sign of
    2 T2^2 bias = Var(B) (T2/B)^2 - Var(T2)/2, which cannot be nan.

    Raises
    ------
    UndefinedMomentsError
        If tau2_hat is 0 or beta_hat is exactly 0: the formulas divide
        by both, and callers should switch to degenerate intervals.
    """
    t2 = fit.tau2_hat
    b = fit.beta_hat
    if t2 <= 0.0 or b == 0.0:
        raise UndefinedMomentsError(
            f"moments need tau2_hat > 0 and beta_hat != 0, got ({t2!r}, {b!r})"
        )
    var_ratio_t = _over_square(fit.var_tau2_hat, t2)
    var_ratio_b = _over_square(fit.var_beta_hat, b)
    var1 = var_ratio_t / 4.0 + var_ratio_b
    if math.isinf(var_ratio_t) and math.isinf(var_ratio_b):
        r = t2 / b
        bias1 = math.copysign(math.inf, fit.var_beta_hat * r * r - fit.var_tau2_hat / 2.0)
    else:
        bias1 = 0.5 * (var_ratio_b - var_ratio_t / 2.0)
    return LogitMoments(var1, bias1, 4.0 * var1, 2.0 * bias1)


def _i_squared(q, k: int) -> np.ndarray:
    """Share of total dispersion attributed to between-study variation, elementwise.

    max(0, (Q - (K-1))/Q) over an array of Q values, with the 0/0 case
    at Q = 0 mapped to 0.
    """
    q = np.asarray(q, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        share = (q - (k - 1)) / q
    return np.where((q > 0.0) & (share > 0.0), share, 0.0)


def het_measures(data: MetaDataset, fit: PooledFit) -> HetMeasures:
    """All heterogeneity measures for a fitted dataset.

    DR is sqrt(var_beta_hat / var_fe) with var_fe = 1/sum(1/v_i), the
    fixed-effect pooled variance; it is at least 1 because tau2 can only
    inflate each study's variance.  R_b is (1/K) sum_i tau2/(v_i + tau2),
    exactly 0 at tau2 = 0.
    """
    t2 = fit.tau2_hat
    v = data.within_vars
    var_fe = 1.0 / (1.0 / v).sum()
    cm = cv_measures(math.sqrt(t2), fit.beta_hat)
    return HetMeasures(
        i2=float(_i_squared(fit.q, fit.k)),
        dr=math.sqrt(fit.var_beta_hat / var_fe),
        rb=float(np.mean(t2 / (v + t2))),
        cv_b=cm.cv_b,
        m1=cm.m1,
        m2=cm.m2,
    )
