"""Special functions, bounded 1-D optimization, and RNG streams.

Everything downstream (pooling, interval construction, simulation) funnels
its numeric needs through this module so precision and determinism are
controlled in one place.  Quantile and CDF evaluations are backed by the
scipy special-function library and accept arrays.  scipy.special is
loaded on first use: the first time one of them runs, not with this
module, so a program that never needs a quantile (such as
``cvmeta table2``) does not pay for it.  The 1-D optimizer searches
several objectives in lockstep, each on a coarse grid evaluated in one
array call followed by golden-section refinement, so short multi-modal
objectives are handled without assuming unimodality.  The refinement
evaluates the candidate points of its next three steps in one call, so
the objective is called once per three steps, and steps each bracket in
Python floats, which give float64's bits at less cost than tiny arrays.
Random streams are derived here, keyed by numpy's SeedSequence spawn
keys computed in Python integers; a range of trials re-keys one
generator.  What is drawn from them, and in which order, belongs to the
generators in :mod:`cvmeta.simulator`.
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

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN2 = (3.0 - math.sqrt(5.0)) / 2.0
_GRID_POINTS = 129  # coarse grid of optimize_1d, endpoints included
_LOOKAHEAD = 3  # golden-section steps of optimize_1d per call of the objective


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
    endpoints), all in a single call.  A golden-section search then
    refines inside the bracket around each objective's best grid point.
    A step's point depends only on the keep-left decisions of the steps
    before it, so each call evaluates the 7 candidate points of the next
    three steps, one per path of decisions, and the search then takes
    those steps, reading each one's value from the call.  Each bracket
    is stepped in Python floats, whose IEEE arithmetic gives the bits of
    float64 arrays.  Each objective takes exactly the steps it would take
    if searched alone, one point per call, so its result does not depend
    on the others or on the lookahead.  The best value ever evaluated is
    returned, so a jump discontinuity at an endpoint cannot be lost.

    Parameters
    ----------
    f : callable
        Maps an (objectives x points) array of arguments to the array
        of values of the same shape; row i belongs to objective i, so an
        elementwise function such as ``np.sin`` serves directly.  ``f``
        also receives speculative arguments, inside the objective's
        current bracket, whose paths the search does not take; their
        values are discarded and not counted, as are the values in an
        objective's row once its search has finished while others go
        on.  Continuous on [lo, hi] except possibly at isolated points.
        Non-finite values are legal and simply win (max) or lose (min)
        ties the usual way; NaN never wins.  They are not treated as
        failures.
    lo, hi : float
        Domain endpoints, finite, with lo < hi and hi - lo finite.
    modes : tuple of {"min", "max"}
        One entry per objective.
    tol : float
        Width of the final bracket on the argument scale, nonnegative.
        An objective's search also ends once a step no longer shrinks
        its bracket, so a tol below the float spacing still returns.

    Returns
    -------
    list of (argopt, value, evaluations), one per objective
        Python floats and an int.  Ties are resolved toward the smallest
        argument.  evaluations counts the arguments the search used: the
        grid, the first two interior points and one point per step.

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
    m = len(modes)
    signs = [1.0 if mode == "min" else -1.0 for mode in modes]
    sign = np.array(signs)[:, None]

    def g(x: np.ndarray) -> np.ndarray:
        return sign * np.asarray(f(x), dtype=float)

    xs = np.linspace(lo, hi, _GRID_POINTS)
    vals = g(np.broadcast_to(xs, (m, _GRID_POINTS)))
    # first grid point at the lowest non-NaN value; 0 when all are NaN
    best_i = np.argmax(vals == np.fmin.reduce(vals, axis=1)[:, None], axis=1)

    # refine in the bracket spanning the best point's neighbors; each search
    # is [a, b, c, d, fc, fd, best_x, best_v, evaluations] in Python floats
    grid, searches = xs.tolist(), []
    for i, v in zip(best_i.tolist(), vals[np.arange(m), best_i].tolist()):
        a, b = grid[max(i - 1, 0)], grid[min(i + 1, _GRID_POINTS - 1)]
        h = b - a
        searches.append([a, b, a + _GOLDEN2 * h, a + _GOLDEN * h, grid[i], v, _GRID_POINTS + 2])
    for s, f_cd in zip(searches, g(np.array([s[2:4] for s in searches])).tolist()):
        s[4:4] = f_cd
    active = [b - a > tol for a, b, *_ in searches]
    while any(active):
        # the next _LOOKAHEAD steps' points for every keep-left path in one call;
        # _walk takes the real path and reads each step's value from it
        trees = [_tree(a, b, c, d, _better(fc, fd, True)) for a, b, c, d, fc, fd, *_ in searches]
        for i, row in enumerate(g(np.array(trees)).tolist()):
            active[i] = active[i] and _walk(searches[i], row, tol)
    return [(x, s * v, n) for (*_, x, v, n), s in zip(searches, signs)]


def _walk(search: list, vals: list[float], tol: float) -> bool:
    """Take one search's next _LOOKAHEAD steps, reading their values from ``vals``.

    ``search`` is updated in place.  Returns False, taking and counting no
    later step, once the bracket is no wider than ``tol`` or stops shrinking.
    """
    a, b, c, d, fc, fd, best_x, best_v, n = search
    for level in range(_LOOKAHEAD):
        # keep [a, d] where c is at least as good as d, else [c, b]; the kept
        # interior point becomes the new d or c, and x fills the other slot
        left = _better(fc, fd, True)
        node = 2 * node + 1 + (not left) if level else 0  # in _tree's heap order
        h = b - a
        a, b, c, d, x = _step(a, b, c, d, left)
        fx = vals[node]
        fc, fd = (fx, fc) if left else (fd, fx)
        if _better(fx, best_v, x < best_x):
            best_x, best_v = x, fx
        n += 1
        # a bracket at float spacing stops shrinking before it reaches a tiny tol
        going = tol < b - a < h
        if not going:
            break
    search[:] = a, b, c, d, fc, fd, best_x, best_v, n
    return going


def _step(a: float, b: float, c: float, d: float, left: bool) -> tuple[float, ...]:
    """One golden-section step's bracket, interior points and new point x.

    Only the keep-left decision ``left`` is needed, not the values, so
    the same arithmetic serves the search and its lookahead.
    """
    if left:
        b, d = d, c
        x = c = a + _GOLDEN2 * (b - a)
    else:
        a, c = c, d
        x = d = a + _GOLDEN * (b - a)
    return a, b, c, d, x


def _tree(a: float, b: float, c: float, d: float, left: bool) -> list[float]:
    """The points of the next _LOOKAHEAD steps on every keep-left path.

    The first step's decision ``left`` is known.  The points come in heap
    order: point n's successors are 2n + 1 (its step kept left) and 2n + 2.
    """
    brackets, points, choices = [(a, b, c, d)], [], (left,)
    for _ in range(_LOOKAHEAD):
        steps = [_step(*bracket, k) for bracket in brackets for k in choices]
        points += [x for *_, x in steps]
        brackets, choices = [s[:4] for s in steps], (True, False)
    return points


def _better(v: float, ref: float, tie: bool) -> bool:
    # NaN never improves, -inf does (after the sign fold); a tie goes to v if tie
    return not math.isnan(v) and (math.isnan(ref) or v < ref) or (tie and v == ref)


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
        seed = _index(self.seed, "seed")
        if not 0 <= seed < 2**64:
            raise DomainError(f"seed must fit in 64 unsigned bits, got {self.seed!r}")
        object.__setattr__(self, "_seeded", _seed_pool(seed))

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


def _index(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
