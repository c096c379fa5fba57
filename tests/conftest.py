import numpy as np
import pytest

from cvmeta import MetaDataset, load_hssp


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


def qgen_reference(y, v, t: float) -> float:
    """Independent generalized-Q evaluation for pivot checks."""
    y = np.asarray(y, dtype=float)
    w = 1.0 / (np.asarray(v, dtype=float) + t)
    beta = float(np.sum(w * y) / np.sum(w))
    return float(np.sum(w * (y - beta) ** 2))
