"""Study-level data model and the random-effects fit.

One random-effects fit, :func:`fit_rem`, gives the pooled effect, the
weighted dispersion statistic Q, the moment estimator of the
between-study variance with truncation at zero and its large-sample
variance; every heterogeneity measure is computed from it in
:mod:`cvmeta.measures`.  No weight sum can cancel, so the fit stays
scale-free (y -> c y, v -> c^2 v) across most of the float range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, DegenerateWeightsError, NumericFailureError

__all__ = [
    "MetaDataset",
    "PooledFit",
    "fit_rem",
]


@dataclass(frozen=True, eq=False, repr=False)
class MetaDataset:
    """Ordered collection of at least two studies.

    ``effects`` must be finite and ``within_vars`` (their sampling
    variances, one per effect) positive and finite, both 1-D arrays of
    real numbers in the float range: this is the one check of outside
    data, a DataFormatError.  The arrays are copied and
    write-protected, so a dataset can be shared freely across threads.
    Datasets compare and hash by identity.
    """

    effects: np.ndarray
    within_vars: np.ndarray

    def __post_init__(self):
        try:
            y = np.array(self.effects, dtype=float)
            v = np.array(self.within_vars, dtype=float)
        except (TypeError, ValueError, OverflowError):  # a non-number, a huge integer, ragged rows
            raise DataFormatError(
                "effects and variances must be arrays of real numbers in the float range"
            ) from None
        if y.ndim != 1 or v.shape != y.shape:
            raise DataFormatError(
                f"effects and variances must be equal-length 1-D arrays, "
                f"got shapes {y.shape} and {v.shape}"
            )
        if y.size < 2:
            raise DataFormatError(f"a meta-analysis needs at least 2 studies, got {y.size}")
        if not np.isfinite(y).all():
            raise DataFormatError("all effects must be finite")
        if not (np.isfinite(v).all() and (v > 0).all()):
            raise DataFormatError("all within-study variances must be positive and finite")
        y.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "effects", y)
        object.__setattr__(self, "within_vars", v)

    @property
    def k(self) -> int:
        """Number of studies."""
        return self.effects.size

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
        If any normalization S1 - S2/S1 is not a positive, finite float
        (weights out of the float range at extreme scales), Q or the
        estimate overflows, or the pooled effect of unequal effects does.
    """
    with np.errstate(all="ignore"):
        w = 1.0 / v
        s1 = w.sum(axis=-1)
        beta_fem = (w * y).sum(axis=-1) / s1
        q = (w * (y - beta_fem[..., None]) ** 2).sum(axis=-1)
        # identical effects: the rounded fixed-effect mean can miss their
        # common value by ulps, which 1/v scales into a huge Q, and w * y can
        # overflow where their common value, the pooled effect, does not
        identical = (y == y[..., :1]).all(axis=-1)
        q = np.where(identical, 0.0, q)
        denom = 2.0 * (w[..., 1:] * np.cumsum(w[..., :-1], axis=-1)).sum(axis=-1) / s1
        untrunc = (q - (y.shape[-1] - 1)) / denom
        tau2 = np.where(untrunc > 0.0, untrunc, 0.0)
        beta, var_beta = _pooled(y, v, tau2[..., None])
    if not ((denom > 0) & (denom < np.inf)).all():
        raise DegenerateWeightsError(
            f"S1 - S2/S1 = {float(np.min(denom))!r} is not positive and finite, or the"
            " estimate overflows; moment estimator undefined"
        )
    if not np.isfinite(untrunc).all():
        bad = np.argmin(np.isfinite(untrunc))  # the first row that overflows
        raise DegenerateWeightsError(
            f"the tau2 estimate overflows (Q = {float(q.flat[bad])!r}, S1 - S2/S1 ="
            f" {float(denom.flat[bad])!r}); moment estimator undefined"
        )
    beta = np.where(identical, y[..., 0], beta)
    if not np.isfinite(beta).all():
        raise DegenerateWeightsError("the pooled effect overflows; weights out of the float range")
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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = s1 * tau2
        q_var = 2.0 * (v.shape[-1] - 1) + 4.0 * denom * tau2 + 2.0 * u * u * spread
        return q_var / (denom * denom)


def _pooled(y: np.ndarray, v: np.ndarray, tau2) -> tuple:
    """Pooled effect and its variance along the last axis at weights 1/(v + tau2)."""
    w = 1.0 / (v + tau2)
    total = w.sum(axis=-1)
    return (w * y).sum(axis=-1) / total, 1.0 / total


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
