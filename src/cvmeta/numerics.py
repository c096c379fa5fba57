"""Special functions, bounded 1-D optimization, and RNG streams.

Everything downstream (pooling, interval construction, simulation) funnels
its numeric needs through this module so precision and determinism are
controlled in one place.  Quantile and CDF evaluations are backed by the
scipy special-function library and accept arrays; the 1-D optimizer is a
coarse grid, evaluated in one array call, followed by golden-section
refinement so short multi-modal objectives are handled without assuming
unimodality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _sp

from .errors import DomainError

__all__ = [
    "RngState",
    "norm_quantile",
    "norm_cdf",
    "chisq_quantile",
    "optimize_1d",
    "sample_noncentral_t",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN2 = (3.0 - math.sqrt(5.0)) / 2.0


def norm_quantile(p: float) -> float:
    """Standard normal quantile Phi^{-1}(p).

    Parameters
    ----------
    p : float
        Probability strictly inside (0, 1).

    Returns
    -------
    float
        The value x with Phi(x) = p.  Absolute error is well below 1e-9
        across (1e-12, 1 - 1e-12).

    Raises
    ------
    DomainError
        If ``p`` is not strictly between 0 and 1.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"norm_quantile requires 0 < p < 1, got {p!r}")
    return float(_sp.ndtri(p))


def norm_cdf(x):
    """Standard normal CDF Phi(x), elementwise for an array ``x``."""
    out = _sp.ndtr(x)
    return out if np.ndim(out) else float(out)


def chisq_quantile(p, df: float):
    """Chi-square quantile via regularized incomplete-gamma inversion.

    Parameters
    ----------
    p : float or ndarray
        Probability strictly inside (0, 1); an array is inverted
        elementwise in one call.
    df : float
        Degrees of freedom, positive.  Integer in all internal uses but
        real values are accepted.

    Returns
    -------
    float or ndarray
        The value x with ChiSq_df CDF(x) = p, shaped like ``p``.
    """
    p_arr = np.asarray(p, dtype=float)
    if not np.all((0.0 < p_arr) & (p_arr < 1.0)):
        raise DomainError(f"chisq_quantile requires 0 < p < 1, got {p!r}")
    if df <= 0:
        raise DomainError(f"chisq_quantile requires df > 0, got {df!r}")
    out = 2.0 * _sp.gammaincinv(df / 2.0, p_arr)
    return out if out.ndim else float(out)


def optimize_1d(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    mode: str = "min",
    tol: float = 1e-7,
    grid_points: int = 129,
) -> tuple[float, float]:
    """Bounded scalar optimization: coarse grid, then golden-section.

    The objective is first evaluated on a uniform grid (including both
    endpoints) in a single call, then a golden-section search refines
    inside the bracket around the best grid point, calling ``f`` on one
    point at a time.  The best value ever evaluated is returned, so a
    jump discontinuity at an endpoint cannot be lost to the refinement
    stage.

    Parameters
    ----------
    f : callable
        Maps an array of arguments to the array of objective values,
        elementwise like ``np.sin``; it also receives single float
        arguments during refinement.  Continuous on [lo, hi] except
        possibly at isolated points.  Non-finite values are legal and
        simply win (max) or lose (min) ties the usual way; NaN never
        wins.  They are not treated as failures.
    lo, hi : float
        Domain endpoints, lo < hi.
    mode : {"min", "max"}
    tol : float
        Width of the final bracket on the argument scale.
    grid_points : int
        Number of coarse grid points, at least 64.

    Returns
    -------
    (argopt, value) : tuple of float
        Ties are resolved toward the smallest argument.
    """
    if mode not in ("min", "max"):
        raise DomainError(f"mode must be 'min' or 'max', got {mode!r}")
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    if grid_points < 64:
        raise DomainError(f"grid_points must be >= 64, got {grid_points}")
    sign = 1.0 if mode == "min" else -1.0

    xs = np.linspace(lo, hi, grid_points)
    vals = sign * np.asarray(f(xs), dtype=float)
    seen = ~np.isnan(vals)
    best_i = int(np.flatnonzero(vals == vals[seen].min())[0]) if seen.any() else 0
    best_x, best_v = float(xs[best_i]), float(vals[best_i])

    # refine in the bracket spanning the best point's neighbors
    a = float(xs[max(0, best_i - 1)])
    b = float(xs[min(grid_points - 1, best_i + 1)])
    h = b - a
    c = a + _GOLDEN2 * h
    d = a + _GOLDEN * h
    fc = sign * float(f(c))
    fd = sign * float(f(d))
    while h > tol:
        if _better(fc, fd) or (fc == fd):
            b, d, fd = d, c, fc
            h = b - a
            c = a + _GOLDEN2 * h
            fc = sign * float(f(c))
            if _better(fc, best_v) or (fc == best_v and c < best_x):
                best_x, best_v = c, fc
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _GOLDEN * h
            fd = sign * float(f(d))
            if _better(fd, best_v) or (fd == best_v and d < best_x):
                best_x, best_v = d, fd
    return best_x, sign * best_v


def _better(v: float, ref: float) -> bool:
    # NaN never improves; -inf does (minimization after sign fold)
    if math.isnan(v):
        return False
    if math.isnan(ref):
        return True
    return v < ref


@dataclass(frozen=True)
class RngState:
    """Keyed source of independent, reproducible random streams.

    One master seed plus a trial index identify a stream.  Streams are
    derived through seed-sequence spawning over a counter-based
    generator, so any subset of trials can be drawn in any order, on any
    worker, with identical results.

    Attributes
    ----------
    seed : int
        Master seed, interpreted as a 64-bit unsigned value.
    """

    seed: int

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise DomainError(f"seed must fit in 64 unsigned bits, got {self.seed!r}")

    def stream(self, trial: int = 0) -> np.random.Generator:
        """Independent generator for one trial index."""
        if trial < 0:
            raise DomainError(f"trial index must be nonnegative, got {trial!r}")
        seq = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(trial),))
        return np.random.Generator(np.random.Philox(seq))


def sample_noncentral_t(df, ncp, rng: np.random.Generator):
    """Noncentral-t draws built from their defining composition.

    Each draw is (Z + ncp) / sqrt(V / df) with Z standard normal and V
    an independent chi-square on ``df`` degrees of freedom.  The
    construction, not a library sampler, is used so the distributional
    form is explicit and the stream layout is stable: the normal draw
    is consumed first, then the chi-square draw.

    Parameters
    ----------
    df : float or ndarray
        Degrees of freedom, positive; broadcasts against ``ncp``.
    ncp : float or ndarray
        Noncentrality; an array yields one draw per element.
    rng : numpy.random.Generator

    Returns
    -------
    float or ndarray
    """
    df_arr = np.asarray(df, dtype=float)
    if np.any(df_arr <= 0):
        raise DomainError(f"df must be positive, got {df!r}")
    ncp_arr = np.asarray(ncp, dtype=float)
    shape = np.broadcast_shapes(df_arr.shape, ncp_arr.shape)
    z = rng.standard_normal(shape if shape else None)
    chi2 = rng.chisquare(np.broadcast_to(df_arr, shape) if shape else float(df_arr),
                         shape if shape else None)
    t = (z + ncp_arr) / np.sqrt(chi2 / df_arr)
    if shape:
        return t
    return float(t)
