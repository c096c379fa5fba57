import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvmeta
from cvmeta import MetaDataset, load_hssp
from cvmeta.numerics import _GOLDEN, _GOLDEN2


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


def scalar_search(f, lo, hi, mode, tol, used=None, grid_points=129):
    """Reference: the one-objective grid and golden-section loop, one point a call.

    ``f`` maps a (1 x points) array to values, as optimize_1d's objective
    does for one objective.  The search ends where optimize_1d's does:
    at a bracket no wider than tol, or at a step that no longer shrinks
    it.  ``used`` collects every argument the search uses.
    """
    sign = 1.0 if mode == "min" else -1.0
    used = [] if used is None else used

    def g(t):
        used.append(t)
        return sign * float(f(np.array([[t]]))[0, 0])

    def better(v, ref):
        return not math.isnan(v) and (math.isnan(ref) or v < ref)

    xs = np.linspace(lo, hi, grid_points)
    used.extend(xs.tolist())
    vals = sign * f(xs[None, :])[0]
    seen = ~np.isnan(vals)
    best_i = int(np.flatnonzero(vals == vals[seen].min())[0]) if seen.any() else 0
    best_x, best_v = float(xs[best_i]), float(vals[best_i])
    a = float(xs[max(0, best_i - 1)])
    b = float(xs[min(grid_points - 1, best_i + 1)])
    h = b - a
    c, d = a + _GOLDEN2 * h, a + _GOLDEN * h
    fc, fd = g(c), g(d)
    n = grid_points + 2
    shrunk = True
    while h > tol and shrunk:
        h_before = h
        if better(fc, fd) or fc == fd:
            b, d, fd = d, c, fc
            h = b - a
            x = c = a + _GOLDEN2 * h
            fx = fc = g(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            x = d = a + _GOLDEN * h
            fx = fd = g(d)
        n += 1
        shrunk = h < h_before
        if better(fx, best_v) or (fx == best_v and x < best_x):
            best_x, best_v = x, fx
    return best_x, sign * best_v, n
