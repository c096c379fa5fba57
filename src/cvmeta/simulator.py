"""Monte Carlo coverage and summary studies for the ratio measures.

Two generators: standardized mean differences sampled through the exact
noncentral-t construction with per-study arm sizes, and normal effects
with fixed within-study variances taken from published settings.  The
driver scores, for each requested interval construction, how often the
interval covers the true measure value implied by the scenario's
(beta, tau), together with interval widths and the rate at which the
between-study variance estimate truncates to zero.

Replications are keyed by (seed, replication index) through independent
counter-based streams, and results are reduced in replication order, so
a scenario's output is bit-identical across runs and across worker
counts.  One draw routine serves the generators, the coverage runner
and the summaries: it takes one stream per replication (the runners
re-key one generator through a range of replications) and returns the
(reps, K) effects and variances, with the scenario's constants built
once, and is the one check of simulated data.  The coverage runner fits
each row as a dataset and writes one table row per replication, whose
columns :func:`run_scenario` reduces to the scenario's statistics; the
summaries fit all rows in one batched pass.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import MetaDataset, _dl_pass, fit_rem
from .errors import ConfigError, NumericFailureError
from .intervals import (
    RATIO_MEASURES,
    _check_alpha,
    alpha_adjusted_intervals,
    propimp_intervals,
    wald_logit_intervals,
)
from .measures import _i_squared, _ratio_measures, cv_measures
from .measures import het_measures  # unused here; bench/tracing.py wraps simulator.het_measures
from .numerics import RngState, _index, _seed

__all__ = [
    "METHODS",
    "METHOD_ALIASES",
    "normalize_method",
    "normalize_methods",
    "Scenario",
    "WidthSummary",
    "MethodCoverage",
    "CoverageResult",
    "FiveNumber",
    "generate_smd_dataset",
    "generate_normal_dataset",
    "run_scenario",
    "measure_summary",
]

# The interval methods of `analyze` and `simulate`, in default order: tag ->
# entry(data, fit, alpha) -> {measure: IntervalEstimate}.  Entries look the
# functions up at call time: bench/tracing.py wraps these module globals, and
# a stored function object would bypass its wrapper.
METHODS = {
    "PROPIMP": lambda data, fit, alpha: propimp_intervals(data, alpha, fit)[0],
    "ALPHA_ADJ": lambda data, fit, alpha: alpha_adjusted_intervals(data, alpha, fit),
    "WALD": lambda data, fit, alpha: wald_logit_intervals(fit, alpha),
}
SUMMARY_MEASURES = ("I2", *RATIO_MEASURES)

METHOD_ALIASES = {tag.lower(): tag for tag in METHODS} | {
    "wt": "WALD", "alpha-adj": "ALPHA_ADJ", "alphaadj": "ALPHA_ADJ"}


def normalize_method(token: str) -> str:
    """Map a user-facing method token to its canonical tag."""
    tag = METHOD_ALIASES.get(str(token).strip().lower())
    if tag is None:
        raise ConfigError(
            f"unknown method {token!r}; choose from "
            + ", ".join(sorted(METHOD_ALIASES))
        )
    return tag


def normalize_methods(tokens: Iterable | str) -> tuple:
    """Canonical tags of a method list, each named once, first occurrence kept.

    A string is read as the CLI's comma-separated list, such as
    ``"propimp,wald"``; blank items are skipped.  Raises ConfigError for
    an unknown method or an empty list.
    """
    if isinstance(tokens, str):
        tokens = [t for t in tokens.split(",") if t.strip()]
    try:
        names = iter(tokens)
    except TypeError:
        raise ConfigError(f"methods must be a list of method names, got {tokens!r}") from None
    methods = tuple(dict.fromkeys(map(normalize_method, names)))
    if not methods:
        raise ConfigError("at least one method is required")
    return methods


@dataclass(frozen=True)
class Scenario:
    """One simulation setting.

    Exactly one of ``arm_sizes`` (standardized-mean-difference mode) and
    ``within_vars`` (normal mode) must be present; its length is the
    study count :attr:`k`.  This is the one place that checks the range
    of every field below; a value out of range or of the wrong type
    raises ConfigError, naming the field, when the scenario is built.

    Attributes
    ----------
    beta : float
        True pooled effect, finite.
    tau : float
        True between-study standard deviation, nonnegative and finite;
        -0.0 is refused.
    arm_sizes : tuple of (int, int) or None
        Per-study two-arm sample sizes, each arm at least 1 and
        n1 + n2 > 2.
    within_vars : tuple of float or None
        Per-study within-study variances.
    reps : int
    methods : tuple of str
        Tags of :data:`METHODS`; any names :func:`normalize_methods` accepts.
        Stored as it returns them.  The default is every method, in the
        table's order.
    alpha : float
    seed : int
        Master seed in [0, 2**64).
    """

    beta: float
    tau: float
    arm_sizes: tuple | None = None
    within_vars: tuple | None = None
    reps: int = 2000
    methods: tuple = tuple(METHODS)
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if (self.arm_sizes is None) == (self.within_vars is None):
            raise ConfigError("exactly one of arm_sizes/within_vars must be given")
        if self.arm_sizes is not None:
            try:
                sizes = tuple((operator.index(a), operator.index(b)) for a, b in self.arm_sizes)
            except (TypeError, ValueError):  # a non-integer, or not a pair
                raise ConfigError(
                    f"arm sizes must be integer (n1, n2) pairs, got {self.arm_sizes!r}") from None
            for n1, n2 in sizes:
                if min(n1, n2) < 1 or n1 + n2 <= 2:
                    raise ConfigError(
                        f"arm sizes must be at least 1 with n1 + n2 > 2, got {(n1, n2)}")
            object.__setattr__(self, "arm_sizes", sizes)
        else:
            try:
                vs = tuple(float(x) for x in self.within_vars)
            except (TypeError, ValueError, OverflowError):  # not numbers, or beyond float range
                raise ConfigError(f"within_vars must be a sequence of numbers, "
                                  f"got {self.within_vars!r}") from None
            if any(not (math.isfinite(x) and x > 0) for x in vs):
                raise ConfigError("within_vars must all be positive and finite")
            object.__setattr__(self, "within_vars", vs)
        if self.k < 2:
            raise ConfigError(f"a scenario needs at least 2 studies, got {self.k}")
        for field in ("beta", "tau"):
            try:
                math.isfinite(getattr(self, field))
            except (TypeError, OverflowError):  # not a number, or beyond the float range
                raise ConfigError(
                    f"{field} must be a real number, got {getattr(self, field)!r}") from None
        if not math.isfinite(self.beta):
            raise ConfigError(f"beta must be finite, got {self.beta!r}")
        # copysign refuses -0.0, which numpy's normal rejects as a scale
        if not (math.isfinite(self.tau) and math.copysign(1.0, self.tau) > 0):
            raise ConfigError(f"tau must be nonnegative and finite, got {self.tau!r}")
        object.__setattr__(self, "reps", _index(self.reps, "reps", ConfigError))
        if self.reps < 1:
            raise ConfigError(f"reps must be at least 1, got {self.reps!r}")
        object.__setattr__(self, "seed", _seed(self.seed, ConfigError))
        _check_alpha(self.alpha, ConfigError)
        object.__setattr__(self, "methods", normalize_methods(self.methods))

    @property
    def k(self) -> int:
        """Number of studies: the length of the per-study list."""
        return len(self.arm_sizes if self.arm_sizes is not None else self.within_vars)


@dataclass(frozen=True)
class WidthSummary:
    """Mean and median interval width over replications.

    any_infinite marks that at least one replication produced an
    infinite width (the mean is then infinite and the median is the
    usable statistic).
    """

    mean: float
    median: float
    any_infinite: bool


@dataclass(frozen=True)
class MethodCoverage:
    method: str
    coverage: float
    widths: dict  # measure tag -> WidthSummary


@dataclass(frozen=True)
class CoverageResult:
    """Empirical coverage and widths for one scenario."""

    scenario: Scenario
    per_method: tuple
    truncation_rate: float

    def method(self, name: str) -> MethodCoverage:
        try:
            tag = normalize_method(name)
        except ConfigError:
            raise KeyError(name) from None
        for mc in self.per_method:
            if mc.method == tag:
                return mc
        raise KeyError(name)


@dataclass(frozen=True)
class FiveNumber:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


def generate_smd_dataset(scenario: Scenario, rng: np.random.Generator) -> MetaDataset:
    """Standardized-mean-difference dataset via noncentral-t sampling.

    For each study the true effect is theta = beta + u with u drawn as
    N(0, tau^2); the observed effect is y = m t, where
    m = sqrt(1/n1 + 1/n2) and t = (z + theta/m) / sqrt(V/df) is the
    noncentral-t composition on df = n1 + n2 - 2 degrees of freedom,
    z standard normal and V chi-square on df.  The within-study variance
    is the usual large-sample form 1/n1 + 1/n2 + y^2 / (2 (n1 + n2)).
    ``rng`` supplies, in this order, the K deviations u, the K normals z
    and the K chi-squares V.
    """
    if scenario.arm_sizes is None:
        raise ConfigError("generate_smd_dataset requires arm_sizes mode")
    y, v = _draws(scenario, [rng])
    return MetaDataset(y[0], v[0])


def generate_normal_dataset(scenario: Scenario, rng: np.random.Generator) -> MetaDataset:
    """Normal-effects dataset at fixed within-study variances."""
    if scenario.within_vars is None:
        raise ConfigError("generate_normal_dataset requires within_vars mode")
    y, v = _draws(scenario, [rng])
    return MetaDataset(y[0], v[0])


def _draws(scenario: Scenario, rngs: Iterable[np.random.Generator]) -> tuple:
    """Effects and within-study variances of N replications, checked.

    The draw code of both generators and of the scenario runners.  Row i
    of the (N, K) arrays comes from the i-th generator of ``rngs``: the
    between-study deviations first, then the within-study draws, from
    the same stream.  A row's draws are complete before the next
    generator is taken, so ``RngState.streams`` can serve.  The scenario
    constants are built once per call and the arithmetic runs once over
    all rows; elementwise operations do not depend on the array shape,
    so each row equals the draw of its replication alone.  A draw beyond
    the float range (SMD at a beta or tau near 1e154, normal at a tau
    near 1.8e308) is a NumericFailureError.
    """
    k, beta, tau = scenario.k, scenario.beta, scenario.tau
    with np.errstate(all="ignore"):
        if scenario.arm_sizes is None:
            v = np.asarray(scenario.within_vars, dtype=float)
            sd = np.sqrt(v)
            y = np.array([rng.normal(beta + rng.normal(0.0, tau, k), sd) for rng in rngs])
            v = np.broadcast_to(v, y.shape)
        else:
            n1, n2 = np.array(scenario.arm_sizes, dtype=float).T
            m = np.sqrt(1.0 / n1 + 1.0 / n2)
            df = n1 + n2 - 2.0
            # one df for every study draws the same values as its array, at less cost
            chi_df = float(df[0]) if (df == df[0]).all() else df
            rows = [(rng.normal(0.0, tau, k), rng.standard_normal(k), rng.chisquare(chi_df, k))
                    for rng in rngs]
            dev, z, chi2 = np.array(rows).transpose(1, 0, 2)
            y = (z + (beta + dev) / m) / np.sqrt(chi2 / df) * m
            v = _smd_variance(y, n1, n2)
    if not (np.isfinite(y).all() and np.isfinite(v).all()):
        raise NumericFailureError(f"draws overflow the float range at beta {beta!r}, tau {tau!r}")
    return y, v


def _smd_variance(y, n1, n2):
    """Large-sample variance 1/n1 + 1/n2 + y^2 / (2 (n1 + n2)) of an SMD y, elementwise."""
    return 1.0 / n1 + 1.0 / n2 + y * y / (2.0 * (n1 + n2))


def _run_range(scenario: Scenario, start: int, stop: int) -> np.ndarray:
    """Score replications [start, stop): one table row per replication, in index order.

    A row is the truncation flag, then for each method of the scenario
    its coverage flag on the m1 scale and its CV_B, M1 and M2 widths, as
    floats.  The three measures share the containment event because
    their intervals and true values are monotone transforms of the same bounds.
    A numeric failure is that of the lowest failing replication, as if
    the rows were drawn and scored one at a time.
    """
    try:
        y, v = _draws(scenario, RngState(scenario.seed).streams(start, stop))
    except NumericFailureError:
        if stop - start == 1:
            raise
        # score the halves in order, so that the lowest failing replication
        # reports its own error however the replications are chunked
        mid = (start + stop) // 2
        return np.concatenate([_run_range(scenario, start, mid), _run_range(scenario, mid, stop)])
    true_m1 = cv_measures(scenario.tau, scenario.beta).m1
    rows = []
    for yj, vj in zip(y, v):
        data = MetaDataset(yj, vj)
        fit = fit_rem(data)
        row = [fit.tau2_hat == 0.0]
        for method in scenario.methods:
            ivs = METHODS[method](data, fit, scenario.alpha)
            row += [ivs["M1"].contains(true_m1), *(ivs[m].width for m in RATIO_MEASURES)]
        rows.append(row)
    return np.array(rows, dtype=float)


def run_scenario(scenario: Scenario, threads: int = 1) -> CoverageResult:
    """Run all replications of a scenario and summarize.

    Parameters
    ----------
    scenario : Scenario
    threads : int
        Contiguous chunks of replications, at least 1 (else ConfigError),
        run in at most ``os.cpu_count()`` worker processes and stacked in
        index order, so the output is identical for any thread count.

    Returns
    -------
    CoverageResult
    """
    threads = _index(threads, "threads", ConfigError)
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads!r}")
    reps = scenario.reps
    chunk = -(-reps // threads)
    starts = range(0, reps, chunk)
    stops = [min(s + chunk, reps) for s in starts]
    if len(starts) == 1:
        parts = [_run_range(scenario, 0, reps)]
    else:
        from concurrent.futures import ProcessPoolExecutor
        # loaded before the fork, so workers inherit it; else every pool's workers import it again
        import scipy.special  # noqa: F401

        workers = min(len(starts), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_range, [scenario] * len(starts), starts, stops))
    table = np.concatenate(parts)

    # (methods, 1 + measures, reps): each method's coverage column, then its width columns
    by_method = table[:, 1:].reshape(reps, len(scenario.methods), -1).transpose(1, 2, 0)
    per_method = []
    for method, (covered, *widths) in zip(scenario.methods, by_method):
        width_stats = {
            m: WidthSummary(float(np.mean(col)), float(np.median(col)), bool(np.isinf(col).any()))
            for m, col in zip(RATIO_MEASURES, widths)
        }
        per_method.append(MethodCoverage(method, float(covered.sum() / reps), width_stats))
    return CoverageResult(scenario, tuple(per_method), float(table[:, 0].sum() / reps))


def measure_summary(scenario: Scenario) -> dict:
    """Five-number summaries of the fitted measures over replications.

    The measures of every replication come from :func:`_replication_measures`,
    one batched fit over the whole scenario.

    Returns a dict mapping "I2", "CV_B", "M1", "M2" to FiveNumber with
    quartiles computed by linear interpolation.
    """
    _, _, _, *values = _replication_measures(scenario)
    qs = np.percentile(np.stack(values), [0, 25, 50, 75, 100], axis=1, method="linear")
    return {m: FiveNumber(*map(float, qs[:, i])) for i, m in enumerate(SUMMARY_MEASURES)}


def _replication_measures(scenario: Scenario) -> tuple:
    """(tau2, beta, Q, I2, CV_B, M1, M2) per replication, each of shape (reps,).

    Each replication draws from its own stream exactly as the generators
    do.  The draws, which :func:`_draws` has checked, are stacked into
    (reps, K) arrays and fitted in one DerSimonian-Laird pass, so row r
    equals ``fit_rem`` and ``het_measures`` on the dataset of replication r.
    """
    y, v = _draws(scenario, RngState(scenario.seed).streams(0, scenario.reps))
    q, _, tau2, beta, _ = _dl_pass(y, v)
    return (tau2, beta, q, _i_squared(q, scenario.k), *_ratio_measures(np.sqrt(tau2), beta))
