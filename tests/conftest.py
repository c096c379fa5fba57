import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvmeta
from cvmeta import MetaDataset, load_hssp, numerics
from cvmeta.core import PooledFit
from cvmeta.intervals import _corners_m1
from cvmeta.numerics import norm_cdf, norm_quantile


@pytest.fixture(scope="session")
def hssp() -> MetaDataset:
    return load_hssp()


def random_dataset(rng: np.random.Generator, k=None) -> MetaDataset:
    """A random but valid dataset with a mix of heterogeneity levels."""
    if k is None:
        k = int(rng.integers(4, 16))
    mu = rng.uniform(-1.0, 2.0)
    tau = rng.uniform(0.0, 1.0)
    v = rng.uniform(0.05, 0.8, k)
    y = rng.normal(mu, np.sqrt(v + tau * tau))
    return MetaDataset(y, v)


def run_python(*args):
    """A fresh interpreter that imports this checkout's cvmeta, with output captured."""
    src = str(Path(cvmeta.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def qgen_reference(y, v, t: float) -> float:
    """Independent generalized-Q evaluation for pivot checks."""
    y = np.asarray(y, dtype=float)
    w = 1.0 / (np.asarray(v, dtype=float) + t)
    beta = float(np.sum(w * y) / np.sum(w))
    return float(np.sum(w * (y - beta) ** 2))


def scalar_search(f, lo, hi, mode, tol, used=None, grid_points=None, zoom_points=None):
    """Reference: the one-objective grid and zoom in Python floats, one point a call.

    ``f`` maps a (1 x points) array to values, as optimize_1d's objective
    does for one objective.  Each zoom takes zoom_points evenly spaced
    points strictly inside [best - s, best + s] cut to [lo, hi], s being
    the previous zoom's spacing (the grid's at first), and it ends where
    optimize_1d's does: at a bracket no wider than tol, or at one that
    no longer narrows.  grid_points and zoom_points default to the
    program's own, read when the search runs.  ``used`` collects every
    argument the search uses.
    """
    grid_points = numerics._GRID_POINTS if grid_points is None else grid_points
    zoom_points = numerics._ZOOM_POINTS if zoom_points is None else zoom_points
    sign = 1.0 if mode == "min" else -1.0
    used = [] if used is None else used

    def g(t):
        used.append(t)
        return sign * float(f(np.array([[t]]))[0, 0])

    def better(v, x, ref, ref_x):
        return not math.isnan(v) and (math.isnan(ref) or v < ref) or (v == ref and x < ref_x)

    xs = np.linspace(lo, hi, grid_points)
    used.extend(xs.tolist())
    vals = sign * f(xs[None, :])[0]
    seen = ~np.isnan(vals)
    best_i = int(np.flatnonzero(vals == vals[seen].min())[0]) if seen.any() else 0
    best_x, best_v = float(xs[best_i]), float(vals[best_i])
    n, s, width = grid_points, (hi - lo) / (grid_points - 1), hi - lo
    while True:
        a, b = max(best_x - s, lo), min(best_x + s, hi)
        if not tol < b - a < width:
            return best_x, sign * best_v, n
        width = b - a
        s = width / (zoom_points + 1)
        for j in range(1, zoom_points + 1):
            x = min(max(a + width * (j / (zoom_points + 1)), lo), hi)
            v = g(x)
            if better(v, x, best_v, best_x):
                best_x, best_v = x, v
            n += 1


def angle_search(data: MetaDataset, fit: PooledFit, alpha: float = 0.05):
    """PROPIMP's M1 bounds by a search over the split angle theta in [0, pi/2].

    Each corner is a one-objective :func:`scalar_search` of
    ``_corners_m1`` at c_tau = z sin(theta), c_beta = z cos(theta), one
    profile root per angle at chi-square probability Phi(c_tau) (lower
    corner) or 1 - Phi(c_tau) (upper corner), with tol 1e-7.  theta = 0
    pins tau at its estimate.  Returns [(theta_lower, m1_lower),
    (theta_upper, m1_upper)].
    """
    z = norm_quantile(1.0 - alpha / 2.0)

    def corner(row):
        def f(theta):
            c_tau = z * np.sin(theta)
            p = norm_cdf(c_tau)
            return _corners_m1(data, fit, c_tau, p, 1.0 - p, z * np.cos(theta))[row : row + 1]

        return f

    return [scalar_search(corner(row), 0.0, math.pi / 2, mode, 1e-7)[:2]
            for row, mode in ((0, "min"), (1, "max"))]
