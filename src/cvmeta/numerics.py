"""Special functions, bounded 1-D optimization, and RNG streams.

The quantile and CDF functions are backed by the scipy special-function
library; the quantiles check the values they are given, which come from
outside.  PROPIMP's corner pass in :mod:`cvmeta.intervals` calls scipy's
chi-square and normal ufuncs itself: its arguments are in range by
construction.  scipy.special is loaded on first use: the first time one
of them runs, not with this module, so a program that never needs a
quantile (such as ``cvmeta table2``) does not pay for it.  The 1-D optimizer searches
several objectives in lockstep, each on a coarse grid evaluated in one
array call, so short multi-modal objectives are handled without
assuming unimodality.  It then zooms in on each objective's best point,
evaluating 32 evenly spaced points of every bracket in one array call,
so a bracket narrows 16.5-fold a call and a search to 1e-9 takes 6
zooms, and it steps the brackets in place in numpy: at a few dozen
points a call, a call's fixed numpy overhead costs more than its
points.  Random streams are derived
here, keyed by numpy's SeedSequence spawn keys computed in Python
integers; a range of trials re-keys one generator.  What is drawn from
them, and in which order, belongs to the generators in
:mod:`cvmeta.simulator`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError

__all__ = [
    "RngState",
    "norm_quantile",
    "norm_cdf",
    "chisq_quantile",
    "optimize_1d",
]

_GRID_POINTS = 129  # coarse grid of optimize_1d, endpoints included
_ZOOM_POINTS = 32  # points of optimize_1d per zoom call, inside the bracket


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
    from scipy.special import ndtri

    return float(ndtri(p))


def norm_cdf(x):
    """Standard normal CDF Phi(x), elementwise for an array ``x``."""
    from scipy.special import ndtr

    out = ndtr(x)
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
    from scipy.special import gammaincinv

    out = 2.0 * gammaincinv(df / 2.0, p_arr)
    return out if out.ndim else float(out)


def optimize_1d(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    modes: tuple[str, ...] = ("min",),
    tol: float = 1e-7,
) -> list[tuple[float, float, int]]:
    """Bounded 1-D optimization of one or more objectives in lockstep.

    Objective i is minimized or maximized as ``modes[i]`` says, and
    every call of ``f`` serves all objectives at once.  Each objective
    is first evaluated on a uniform grid of 129 points (including both
    endpoints), all in a single call.  The search then zooms: each later
    call evaluates 32 evenly spaced points strictly inside the bracket
    [best - s, best + s] cut to [lo, hi], where best is the objective's
    best point so far and s the spacing of the previous call's points,
    so the bracket narrows at least 16.5-fold a call: at tol 1e-9 an
    interior optimum on [0, 1] takes the grid call and 6 zooms.  Each
    objective's points depend only on its own values, so its result does
    not depend on the others.  The best value ever evaluated is
    returned, so a jump discontinuity at an endpoint cannot be lost.

    Parameters
    ----------
    f : callable
        Maps an (objectives x points) array of arguments to the array
        of values of the same shape; row i belongs to objective i, so an
        elementwise function such as ``np.sin`` serves directly.  Once an
        objective's search has finished while others go on, its row
        still receives arguments in [lo, hi], whose values are discarded
        and not counted.  Continuous on [lo, hi] except possibly at
        isolated points.  Non-finite values are legal and simply win
        (max) or lose (min) ties the usual way; NaN never wins.  They are
        not treated as failures.
    lo, hi : float
        Domain endpoints, finite, with lo < hi and hi - lo finite.
    modes : tuple of {"min", "max"}
        One entry per objective.
    tol : float
        Width of the final bracket on the argument scale, nonnegative.
        An objective's search also ends once its bracket stops
        narrowing, so a tol below the float spacing still returns.

    Returns
    -------
    list of (argopt, value, evaluations), one per objective
        Python floats and an int.  Ties are resolved toward the smallest
        argument, and an objective that is NaN everywhere returns lo.
        evaluations counts the grid and the 32 points of each call while
        the objective's search is active.

    Raises
    ------
    DomainError
        If a mode is not "min" or "max", lo < hi fails, lo, hi or
        hi - lo is not finite, or tol is negative or NaN.
    """
    if not modes or any(mode not in ("min", "max") for mode in modes):
        raise DomainError(f"modes must be a non-empty tuple of 'min' or 'max', got {modes!r}")
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    if not math.isfinite(float(hi) - float(lo)):
        raise DomainError(f"need finite lo, hi and hi - lo, got [{lo!r}, {hi!r}]")
    if not tol >= 0.0:
        raise DomainError(f"tol must be nonnegative, got {tol!r}")
    lo, hi, m = float(lo), float(hi), len(modes)
    signs = np.array([[1.0] if mode == "min" else [-1.0] for mode in modes])
    rows = np.arange(m)

    def best_of(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # each row's first point at its lowest non-NaN value, its first point when all are NaN
        vals = signs * np.asarray(f(x), dtype=float)
        i = np.argmax(vals == np.fmin.reduce(vals, axis=1, keepdims=True), axis=1)
        return x[rows, i], vals[rows, i]

    best_x, best_v = best_of(np.broadcast_to(np.linspace(lo, hi, _GRID_POINTS), (m, _GRID_POINTS)))
    zooms = np.zeros(m, dtype=int)
    s = np.full(m, (hi - lo) / (_GRID_POINTS - 1))
    width, active = np.full(m, hi - lo), np.ones(m, dtype=bool)
    fractions = np.arange(1, _ZOOM_POINTS + 1) / (_ZOOM_POINTS + 1)
    while True:
        # each bracket [a, a + w] around its best point, cut to [lo, hi]
        a = np.maximum(best_x - s, lo)
        w = np.minimum(best_x + s, hi)
        w -= a
        # a bracket at float spacing stops narrowing before it reaches a tiny tol
        active &= (w > tol) & (w < width)
        if not active.any():
            break
        width = w
        s = width / (_ZOOM_POINTS + 1)
        # a + width j/(Z + 1) can round past hi, never below lo
        x = np.multiply(width[:, None], fractions)
        x += a[:, None]
        x, v = best_of(np.minimum(x, hi, out=x))
        # v wins unless v >= best_v or v is NaN: NaN never improves, a NaN best
        # loses to any number, -inf wins (after the sign fold); a tie goes to the smaller x
        won = ~(v >= best_v) & (v == v) | (v == best_v) & (x < best_x)
        won &= active
        np.copyto(best_x, x, where=won)
        np.copyto(best_v, v, where=won)
        zooms += active
    n = _GRID_POINTS + _ZOOM_POINTS * zooms
    return list(zip(best_x.tolist(), (signs[:, 0] * best_v).tolist(), n.tolist()))


# numpy's SeedSequence constants (32-bit words, a pool of 4 words)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hash of the entropy words
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hash of the output words
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


@dataclass(frozen=True)
class RngState:
    """Keyed source of independent, reproducible random streams.

    One master seed plus a trial index identify a stream: a Philox
    generator keyed by ``np.random.SeedSequence(entropy=seed,
    spawn_key=(trial,)).generate_state(2, np.uint64)``.  The key is
    derived here in Python integers, bit for bit as numpy derives it,
    with the seed mixed into the pool once per master seed, so a trial
    costs a few integer steps rather than a SeedSequence.  Any subset
    of trials can be drawn in any order, on any worker, with identical
    results.

    Attributes
    ----------
    seed : int
        Master seed, an integer read as a 64-bit unsigned value.
    """

    seed: int
    _seeded: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_seeded", _seed_pool(_seed(self.seed)))

    def stream(self, trial: int = 0) -> np.random.Generator:
        """The one-trial case of :meth:`streams` (1.5 is a DomainError); nothing re-keys it."""
        return next(self.streams(trial, _trial(trial) + 1))

    def streams(self, start: int, stop: int) -> Iterator[np.random.Generator]:
        """The generators of trials start, ..., stop - 1, in order.

        One generator is re-keyed for each trial, so a trial costs a key,
        not a new generator.  Every item is that same object: an item is
        valid only until the next one is taken, which re-keys it.
        """
        bitgen = np.random.Philox(key=0)
        rng, state = np.random.Generator(bitgen), bitgen.state
        for trial in range(_trial(start), _index(stop, "trial index")):
            state["state"]["key"] = self._key(trial)
            bitgen.state = state
            yield rng

    def _key(self, trial: int) -> tuple[int, int]:
        """Philox key of a nonnegative trial: SeedSequence's spawn-key mixing and output hash."""
        pool, h = self._seeded
        pool = list(pool)
        while True:  # the trial's 32-bit words, low first; 0 is one word
            word = trial & _M32
            for i in range(4):
                h = _hash_into(pool, i, word, h)
            trial >>= 32
            if not trial:
                break
        words, h = [], _INIT_B
        for w in pool:
            w ^= h
            h = h * _MULT_B & _M32
            w = w * h & _M32
            words.append(w ^ w >> 16)
        return words[0] | words[1] << 32, words[2] | words[3] << 32


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """SeedSequence's pool after the seed's entropy, and the hash constant reached.

    With a spawn key the seed's words are zero-padded to the pool size,
    so each trial word that follows is mixed into all four pool words.
    """
    pool, h = [], _INIT_A
    for w in (seed & _M32, seed >> 32, 0, 0):
        w ^= h
        h = h * _MULT_A & _M32
        w = w * h & _M32
        pool.append(w ^ w >> 16)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h = _hash_into(pool, dst, pool[src], h)
    return pool, h


def _hash_into(pool: list[int], dst: int, word: int, h: int) -> int:
    """Mix the hash of ``word`` into ``pool[dst]``; returns the next hash constant."""
    word ^= h
    h = h * _MULT_A & _M32
    word = word * h & _M32
    x = (_MIX_L * pool[dst] - _MIX_R * (word ^ word >> 16)) & _M32
    pool[dst] = x ^ x >> 16
    return h


def _trial(value) -> int:
    trial = _index(value, "trial index")
    if trial < 0:
        raise DomainError(f"trial index must be nonnegative, got {value!r}")
    return trial


def _seed(value, error=DomainError) -> int:
    seed = _index(value, "seed", error)
    if not 0 <= seed < 2**64:
        raise error(f"seed must fit in 64 unsigned bits, got {value!r}")
    return seed


def _index(value, name: str, error=DomainError) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
