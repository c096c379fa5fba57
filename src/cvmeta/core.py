"""Study-level data model and inverse-variance pooling.

One random-effects fit, :func:`fit_rem`, gives the pooled effect, the
weighted dispersion statistic Q, the moment estimator of the
between-study variance with truncation at zero and its large-sample
variance; the comparison measures I-squared, diamond ratio, and R_b
are computed from it.  No weight sum can cancel, so the fit stays
scale-free (y -> c y, v -> c^2 v) across most of the float range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataFormatError, DegenerateWeightsError, NumericFailureError

__all__ = [
    "MetaDataset",
    "PooledFit",
    "HetMeasures",
    "pooled_estimate",
    "i_squared",
    "r_b",
    "diamond_ratio",
    "fit_rem",
]


class MetaDataset:
    """Ordered collection of at least two studies.

    ``effects`` must be finite and ``within_vars`` (their sampling
    variances, one per effect) positive and finite; ``labels`` are
    optional study identifiers for reports.  The arrays are copied and
    write-protected, so a dataset can be shared freely across threads.
    """

    __slots__ = ("_effects", "_within_vars", "_labels")

    def __init__(self, effects, within_vars, labels: Sequence[str] | None = None):
        y = np.asarray(effects, dtype=float)
        v = np.asarray(within_vars, dtype=float)
        if y.ndim != 1 or v.shape != y.shape:
            raise DataFormatError(
                f"effects and variances must be equal-length 1-D arrays, "
                f"got shapes {y.shape} and {v.shape}"
            )
        _check_studies(y, v)
        self._effects = y.copy()
        self._within_vars = v.copy()
        self._effects.setflags(write=False)
        self._within_vars.setflags(write=False)
        self._labels = tuple(labels) if labels is not None else ("",) * y.size
        if len(self._labels) != y.size:
            raise DataFormatError("labels length must match the number of studies")

    @property
    def effects(self) -> np.ndarray:
        return self._effects

    @property
    def within_vars(self) -> np.ndarray:
        return self._within_vars

    @property
    def labels(self) -> tuple:
        return self._labels

    @property
    def k(self) -> int:
        """Number of studies."""
        return self._effects.size

    def __len__(self) -> int:
        return self.k

    def __repr__(self) -> str:
        return f"MetaDataset(k={self.k})"


@dataclass(frozen=True)
class PooledFit:
    """Pooled estimate and heterogeneity machinery for one dataset.

    Attributes
    ----------
    beta_hat : float
        Inverse-variance weighted pooled effect.
    tau2_hat : float
        Between-study variance estimate (moment estimator), truncated at 0.
    q : float
        Weighted dispersion statistic of effects around the fixed-effect fit.
    var_beta_hat : float
        1 / sum of the model weights 1/(v_i + tau2_hat).
    var_tau2_hat : float
        Large-sample variance of the untruncated between-study variance
        estimator, evaluated at the plug-in tau2_hat.
    k : int
    """

    beta_hat: float
    tau2_hat: float
    q: float
    var_beta_hat: float
    var_tau2_hat: float
    k: int


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


def _check_studies(y: np.ndarray, v: np.ndarray) -> None:
    """The study checks of :class:`MetaDataset`, for K along the last axis."""
    if y.shape[-1] < 2:
        raise DataFormatError(f"a meta-analysis needs at least 2 studies, got {y.shape[-1]}")
    if not np.isfinite(y).all():
        raise DataFormatError("all effects must be finite")
    if not (np.isfinite(v).all() and (v > 0).all()):
        raise DataFormatError("all within-study variances must be positive and finite")


def _dl_pass(y: np.ndarray, v: np.ndarray) -> tuple:
    """DerSimonian-Laird fit along the last axis of (..., K) arrays.

    One pass from the fixed-effect weights w = 1/v to the random-effects
    pooled estimate: returns (Q, S1 - S2/S1, tau2, beta, var_beta), each
    shaped like the leading axes, so (R, K) arrays give R fits at once
    and each row is bit-identical to the 1-D call on that row.  S_r is
    sum w^r, tau2 the moment estimate truncated at 0, and beta and
    var_beta the pooled effect and the inverse total weight at weights
    1/(v_i + tau2).

    S1^2 - S2 = 2 sum_{i<j} w_i w_j, so the normalization is computed as
    2 sum_j w_j (w_1 + ... + w_{j-1}) / S1, a sum of positive terms: the
    difference form cancels to 0 when one weight dwarfs the others.

    Raises
    ------
    DegenerateWeightsError
        If any normalization S1 - S2/S1 or estimate is not a positive,
        finite float (weights out of the float range at extreme scales).
    """
    with np.errstate(all="ignore"):
        w = 1.0 / v
        s1 = w.sum(axis=-1)
        beta_fem = (w * y).sum(axis=-1) / s1
        q = (w * (y - beta_fem[..., None]) ** 2).sum(axis=-1)
        denom = 2.0 * (w[..., 1:] * np.cumsum(w[..., :-1], axis=-1)).sum(axis=-1) / s1
        untrunc = (q - (y.shape[-1] - 1)) / denom
    if not ((denom > 0) & (denom < np.inf) & np.isfinite(untrunc)).all():
        raise DegenerateWeightsError(
            f"S1 - S2/S1 = {float(np.min(denom))!r} is not positive and finite, or the"
            " estimate overflows; moment estimator undefined"
        )
    tau2 = np.where(untrunc > 0.0, untrunc, 0.0)
    beta, var_beta = _pooled(y, v, tau2[..., None])
    return q, denom, tau2, beta, var_beta


def _var_tau2(v: np.ndarray, denom, tau2) -> np.ndarray:
    """Variance of the untruncated tau2 estimate, Var(Q) / denom^2, along the last axis.

    ``denom`` (S1 - S2/S1) and ``tau2`` come from :func:`_dl_pass`.  With
    the scale-free shares p = w/S1 and u = S1 tau2, Var(Q) = 2(K-1) +
    4 denom tau2 + 2 u^2 [sum p_i^2 (1-p_i)^2 + 2 sum_{i<j} p_i^2 p_j^2],
    where 1 - p_i is the sum of the other shares: all positive terms, so
    nothing cancels as in 2 (S2 - 2 S3/S1 + S2^2/S1^2) tau2^2.
    """
    w = 1.0 / v
    s1 = w.sum(axis=-1)
    p = w / s1[..., None]
    p2 = p * p
    zero = np.zeros_like(p[..., :1])
    rest = np.concatenate([zero, np.cumsum(p[..., :-1], axis=-1)], axis=-1) + np.concatenate(
        [np.cumsum(p[..., :0:-1], axis=-1)[..., ::-1], zero], axis=-1
    )
    spread = (p2 * rest * rest).sum(axis=-1) + 2.0 * (
        p2[..., 1:] * np.cumsum(p2[..., :-1], axis=-1)
    ).sum(axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        u = s1 * tau2
        q_var = 2.0 * (v.shape[-1] - 1) + 4.0 * denom * tau2 + 2.0 * u * u * spread
        return q_var / (denom * denom)


def _pooled(y: np.ndarray, v: np.ndarray, tau2) -> tuple:
    """Pooled effect and its variance along the last axis at weights 1/(v + tau2)."""
    w = 1.0 / (v + tau2)
    total = w.sum(axis=-1)
    return (w * y).sum(axis=-1) / total, 1.0 / total


def pooled_estimate(data: MetaDataset, tau2: float) -> tuple[float, float]:
    """Inverse-variance pooled effect at a given between-study variance.

    Weights are 1/(v_i + tau2); tau2 = 0 gives the fixed-effect fit.

    Returns
    -------
    (beta_hat, var_beta_hat) : tuple of float
        The weighted mean and the inverse of the total weight.
    """
    if tau2 < 0:
        raise DataFormatError(f"tau2 must be nonnegative, got {tau2!r}")
    beta, var_beta = _pooled(data.effects, data.within_vars, tau2)
    return float(beta), float(var_beta)


def i_squared(q: float, k: int) -> float:
    """Share of total dispersion attributed to between-study variation.

    max(0, (Q - (K-1))/Q), with the 0/0 case at Q = 0 mapped to 0.
    """
    if k < 2:
        raise DataFormatError(f"i_squared needs k >= 2, got {k}")
    return float(_i_squared(q, k))


def _i_squared(q, k: int) -> np.ndarray:
    """:func:`i_squared` elementwise over an array of Q values."""
    q = np.asarray(q, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        share = (q - (k - 1)) / q
    return np.where((q > 0.0) & (share > 0.0), share, 0.0)


def r_b(data: MetaDataset, tau2: float) -> float:
    """Average share of each study's total variance due to heterogeneity.

    (1/K) sum_i tau2/(v_i + tau2), bounded in [0, 1].
    """
    if tau2 < 0:
        raise DataFormatError(f"tau2 must be nonnegative, got {tau2!r}")
    if tau2 == 0.0:
        return 0.0
    return float(np.mean(tau2 / (data.within_vars + tau2)))


def diamond_ratio(data: MetaDataset, tau2: float) -> float:
    """Ratio of random-effects to fixed-effect pooled-estimate widths.

    sqrt of the ratio of the two pooled variances; at least 1 because
    adding tau2 can only inflate each study's variance.
    """
    _, var_re = pooled_estimate(data, tau2)
    _, var_fe = pooled_estimate(data, 0.0)
    return float(np.sqrt(var_re / var_fe))


def fit_rem(data: MetaDataset) -> PooledFit:
    """Random-effects fit with the moment estimator of tau2.

    The fit is :func:`_dl_pass` on the dataset's 1-D arrays, the same
    pass that fits a whole batch of replications at once, so a batched
    row and this fit agree exactly.  The variance of the estimator,
    :func:`_var_tau2`, is evaluated at the truncated plug-in value; it
    scales as c^4, and is a :class:`NumericFailureError` where that
    leaves the float range.
    """
    q, denom, tau2, beta, var_beta = _dl_pass(data.effects, data.within_vars)
    vt2 = float(_var_tau2(data.within_vars, denom, tau2))
    if not 0.0 < vt2 < np.inf:
        raise NumericFailureError(f"var(tau2_hat) = {vt2!r} is out of the float range")
    return PooledFit(float(beta), float(tau2), float(q), float(var_beta), vt2, data.k)
