import dataclasses
import math
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import kstest

from cvmeta import simulator
from cvmeta.cli import analyze_dataset
from cvmeta.core import MetaDataset, fit_rem
from cvmeta.datasets import load_hssp
from cvmeta.errors import ConfigError, DomainError, NumericFailureError
from cvmeta.intervals import (
    RATIO_MEASURES,
    alpha_adjusted_intervals,
    propimp_intervals,
    wald_logit_intervals,
)
from cvmeta.measures import cv_measures, het_measures
from cvmeta.numerics import RngState
from cvmeta.simulator import (
    METHODS,
    Scenario,
    _draws,
    _replication_measures,
    _run_range,
    generate_normal_dataset,
    generate_smd_dataset,
    measure_summary,
    normalize_methods,
    run_scenario,
)

SMALL = dict(arm_sizes=((20, 20),) * 5, reps=40, seed=7)


class TestScenario:
    def test_mode_detection(self):
        smd = Scenario(beta=0.5, tau=0.3, **SMALL)
        assert smd.within_vars is None and smd.k == 5
        norm = Scenario(beta=0.5, tau=0.3, within_vars=(0.1, 0.2, 0.3))
        assert norm.arm_sizes is None and norm.k == 3

    def test_exactly_one_data_spec(self):
        with pytest.raises(ConfigError):
            Scenario(beta=0.5, tau=0.3)
        with pytest.raises(ConfigError):
            Scenario(
                beta=0.5, tau=0.3, arm_sizes=((10, 10),) * 3, within_vars=(0.1, 0.2)
            )

    def test_validation(self):
        with pytest.raises(ConfigError):
            Scenario(beta=0.5, tau=-0.1, **SMALL)
        # numpy's normal refuses a scale of -0.0
        with pytest.raises(ConfigError, match="got -0.0"):
            Scenario(beta=0.5, tau=-0.0, **SMALL)
        assert Scenario(beta=0.5, tau=0.0, **SMALL).tau == 0.0
        with pytest.raises(ConfigError):
            Scenario(beta=0.5, tau=0.3, arm_sizes=((1, 1),) * 3)
        with pytest.raises(ConfigError):
            Scenario(beta=0.5, tau=0.3, within_vars=(0.1, -0.2))
        with pytest.raises(ConfigError):
            Scenario(beta=0.5, tau=0.3, within_vars=(0.1,))
        with pytest.raises(ConfigError):
            Scenario(beta=0.5, tau=0.3, reps=0, **dict(arm_sizes=((10, 10),) * 3))
        with pytest.raises(ConfigError):
            Scenario(beta=0.5, tau=0.3, alpha=1.0, arm_sizes=((10, 10),) * 3)

    @pytest.mark.parametrize(
        "arms", [(0, 5), (-1, 5), (5, 0), (4, -1), (2.5, 10), ("3", 10), (10, 10, 10), (10,)])
    def test_arm_sizes_at_least_one(self, arms):
        with pytest.raises(ConfigError):
            Scenario(beta=0.5, tau=0.3, arm_sizes=((10, 10), arms))
        # the smallest split of a total that split_arms accepts
        assert Scenario(beta=0.5, tau=0.3, arm_sizes=((10, 10), (2, 1))).k == 2

    def test_arm_sizes_in_the_float_range(self):
        # the draws read arm sizes as floats; 10**400 once raised a bare OverflowError there
        with pytest.raises(ConfigError, match="^arm sizes must be in the float range"):
            Scenario(beta=0.5, tau=0.3, arm_sizes=((10, 10), (5, 10**400)))

    @pytest.mark.parametrize(
        "beta, tau", [(math.nan, 0.3), (math.inf, 0.3), (-math.inf, 0.3), (0.5, math.nan),
                      (0.5, math.inf)],
    )
    def test_beta_and_tau_finite(self, beta, tau):
        with pytest.raises(ConfigError):
            Scenario(beta=beta, tau=tau, **SMALL)
        with pytest.raises(ConfigError):
            Scenario(beta=beta, tau=tau, within_vars=(0.1, 0.2))

    def test_method_normalization(self):
        sc = Scenario(beta=0.5, tau=0.3, methods=("wald", "propimp"), **SMALL)
        assert sc.methods == ("WALD", "PROPIMP")
        with pytest.raises(ConfigError):
            Scenario(beta=0.5, tau=0.3, methods=("BOOT",), **SMALL)
        with pytest.raises(ConfigError):
            Scenario(beta=0.5, tau=0.3, methods=(), **SMALL)

    def test_method_aliases_as_in_the_cli(self):
        sc = Scenario(beta=0.5, tau=0.3, methods=("alpha-adj", "wt", "alpha_adj"), **SMALL)
        assert sc.methods == ("ALPHA_ADJ", "WALD")

    def test_duplicate_methods_scored_once(self):
        sc = Scenario(beta=0.5, tau=0.3, methods=("wald", "PROPIMP", "WALD", "wt"), **SMALL)
        assert sc.methods == ("WALD", "PROPIMP")
        result = run_scenario(dataclasses.replace(sc, methods=("wald", "WALD"), reps=5))
        assert [m.method for m in result.per_method] == ["WALD"]

    @pytest.mark.parametrize(
        "field, value", [("reps", 2.5), ("reps", "40"), ("seed", 1.5), ("seed", -1),
                         ("seed", 2**64)],
    )
    def test_reps_and_seed_checked_at_construction(self, field, value):
        with pytest.raises(ConfigError) as exc:
            Scenario(beta=0.5, tau=0.3, **{**SMALL, field: value})
        if field == "seed":  # RngState's rule and message, raised as a ConfigError
            with pytest.raises(DomainError) as domain:
                RngState(value)
            assert str(exc.value) == str(domain.value)
        else:
            assert str(exc.value) == f"reps must be an integer, got {value!r}"

    @pytest.mark.parametrize("field, value", [
        ("beta", "0.5"), ("tau", "0.3"), ("beta", None), ("alpha", "0.05"), ("alpha", None),
        ("within_vars", ("a", 0.2)), ("within_vars", 0.1), ("methods", None),
        # integers beyond the float range once raised a bare OverflowError
        ("beta", 10**400), ("tau", 10**400), ("alpha", 10**400), ("within_vars", (10**400, 0.2)),
    ], ids=lambda v: "10**400" if v == 10**400 else None)
    def test_wrong_types_are_config_errors(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            Scenario(**{"beta": 0.5, "tau": 0.3, "within_vars": (0.1, 0.2), field: value})

    def test_accepted_values_stored_as_given(self):
        sc = Scenario(beta=1, tau=Fraction(3, 10), within_vars=["0.1", 0.2],
                      alpha=Fraction(1, 20), methods="wald")
        assert (sc.beta, sc.tau, sc.alpha, sc.methods) == (1, Fraction(3, 10), Fraction(1, 20),
                                                           ("WALD",))
        assert type(sc.beta) is int and sc.within_vars == (0.1, 0.2)

    @pytest.mark.parametrize("threads, message", [
        (0, "at least 1, got 0"), (-3, "at least 1, got -3"),
        (2.5, "an integer, got 2.5"), ("2", "an integer, got '2'"),
    ])
    def test_run_scenario_checks_threads(self, threads, message, monkeypatch):
        monkeypatch.setattr(simulator, "_run_range", None)  # refused before any replication
        with pytest.raises(ConfigError, match=f"^threads must be {message}$"):
            run_scenario(Scenario(beta=0.5, tau=0.3, **SMALL), threads=threads)

    def test_integer_reps_and_seed_stored_as_int(self):
        sc = Scenario(beta=0.5, tau=0.3, arm_sizes=((10, 10),) * 3,
                      reps=np.int64(3), seed=np.uint64(2**64 - 1))
        assert (sc.reps, sc.seed) == (3, 2**64 - 1)
        assert type(sc.reps) is int and type(sc.seed) is int


class TestMethodTable:
    FUNCTIONS = ("wald_logit_intervals", "alpha_adjusted_intervals", "propimp_intervals")

    def count_calls(self, monkeypatch):
        """Wrap the method functions where the table looks them up."""
        calls = dict.fromkeys(self.FUNCTIONS, 0)
        for name in self.FUNCTIONS:
            def counted(*args, _name=name, _orig=getattr(simulator, name)):
                calls[_name] += 1
                return _orig(*args)

            monkeypatch.setattr(simulator, name, counted)
        return calls

    def test_order_is_the_default(self):
        assert tuple(METHODS) == ("PROPIMP", "ALPHA_ADJ", "WALD")
        assert Scenario(beta=0.5, tau=0.3, **SMALL).methods == tuple(METHODS)

    def test_analyze_looks_functions_up_at_call_time(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        analyze_dataset(load_hssp(), tuple(METHODS), 0.05)
        assert calls == dict.fromkeys(self.FUNCTIONS, 1)

    def test_simulate_looks_functions_up_at_call_time(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        run_scenario(Scenario(beta=0.5, tau=0.3, **{**SMALL, "reps": 3}), threads=1)
        assert calls == dict.fromkeys(self.FUNCTIONS, 3)

    def test_analyze_normalizes_and_dedupes(self):
        report = analyze_dataset(load_hssp(), ["wald", "WALD", "alpha-adj"], 0.05)
        tags = [iv.method for iv in report.intervals]
        assert tags == ["WALD"] * len(RATIO_MEASURES) + ["ALPHA_ADJ"] * len(RATIO_MEASURES)
        assert report.provenance["methods"] == ["WALD", "ALPHA_ADJ"]

    def test_a_string_is_the_cli_comma_separated_list(self):
        # one comma-separated list, not a sequence of one-letter method names
        assert normalize_methods(" propimp,, WT ") == ("PROPIMP", "WALD")
        sc = Scenario(beta=0.5, tau=0.3, within_vars=(0.1, 0.2), methods="propimp")
        assert sc.methods == ("PROPIMP",)
        report = analyze_dataset(load_hssp(), "wald", 0.05)
        assert report.provenance["methods"] == ["WALD"]
        with pytest.raises(ConfigError, match="^at least one method is required$"):
            normalize_methods(" , ")

    @pytest.mark.parametrize("methods", [["boot"], []])
    def test_analyze_rejects_unknown_or_no_method(self, methods):
        with pytest.raises(ConfigError):
            analyze_dataset(load_hssp(), methods, 0.05)


class TestGenerators:
    def test_smd_deterministic(self):
        sc = Scenario(beta=0.5, tau=0.3, **SMALL)
        d1 = generate_smd_dataset(sc, RngState(3).stream(0))
        d2 = generate_smd_dataset(sc, RngState(3).stream(0))
        assert np.array_equal(d1.effects, d2.effects)
        assert np.array_equal(d1.within_vars, d2.within_vars)
        d3 = generate_smd_dataset(sc, RngState(3).stream(1))
        assert not np.array_equal(d1.effects, d3.effects)

    def test_smd_centering_at_null(self):
        sc = Scenario(beta=0.0, tau=0.0, arm_sizes=((10, 10),) * 100_000, seed=0)
        d = generate_smd_dataset(sc, RngState(11).stream(0))
        assert abs(float(np.mean(d.effects))) < 0.005

    def test_smd_mean_matches_noncentral_t(self):
        # E[y] = beta * sqrt(df/2) * Gamma((df-1)/2) / Gamma(df/2)
        sc = Scenario(beta=0.5, tau=0.0, arm_sizes=((30, 30),) * 100_000, seed=0)
        d = generate_smd_dataset(sc, RngState(12).stream(0))
        df = 58.0
        factor = math.sqrt(df / 2.0) * math.exp(
            math.lgamma((df - 1.0) / 2.0) - math.lgamma(df / 2.0)
        )
        assert abs(float(np.mean(d.effects)) - 0.5 * factor) < 0.004

    def test_smd_central_t_mean(self):
        t = _smd_t_draws((16, 16), 0.0, 11)  # df = 30
        assert abs(float(np.mean(t))) < 0.02

    def test_smd_noncentral_t_mean(self):
        # E[T] = ncp * sqrt(df/2) * Gamma((df-1)/2) / Gamma(df/2)
        df, ncp = 10.0, 2.0
        expected = ncp * math.sqrt(df / 2.0) * math.gamma((df - 1) / 2.0) / math.gamma(df / 2.0)
        t = _smd_t_draws((6, 6), ncp * math.sqrt(1.0 / 6.0 + 1.0 / 6.0), 12)
        assert abs(float(np.mean(t)) - expected) < 0.03

    def test_smd_null_matches_t_distribution(self):
        t = _smd_t_draws((5, 5), 0.0, 13)  # df = 8
        assert kstest(t, "t", args=(8.0,)).pvalue > 0.001

    def test_smd_variance_formula(self):
        sc = Scenario(beta=0.5, tau=0.3, arm_sizes=((12, 8),) * 4, seed=0)
        d = generate_smd_dataset(sc, RngState(13).stream(0))
        expect = 1.0 / 12.0 + 1.0 / 8.0 + d.effects**2 / 40.0
        assert np.allclose(d.within_vars, expect, rtol=0, atol=1e-15)

    def test_normal_mode_moments(self):
        sc = Scenario(beta=2.225, tau=0.3, within_vars=(0.04,) * 100_000, seed=0)
        d = generate_normal_dataset(sc, RngState(14).stream(0))
        assert abs(float(np.mean(d.effects)) - 2.225) < 0.006
        assert abs(float(np.var(d.effects)) - 0.13) < 0.13 * 0.03

    def test_normal_mode_tiny_variance(self):
        sc = Scenario(beta=0.7, tau=0.0, within_vars=(1e-12,) * 6, seed=0)
        d = generate_normal_dataset(sc, RngState(15).stream(0))
        assert np.all(np.abs(d.effects - 0.7) < 1e-5)

    def test_mode_mismatch_rejected(self):
        smd = Scenario(beta=0.5, tau=0.3, **SMALL)
        with pytest.raises(ConfigError):
            generate_normal_dataset(smd, RngState(0).stream(0))
        norm = Scenario(beta=0.5, tau=0.3, within_vars=(0.1, 0.2))
        with pytest.raises(ConfigError):
            generate_smd_dataset(norm, RngState(0).stream(0))


def _smd_t_draws(arms, beta, stream, k=100_000):
    """Generated SMD effects divided by m: noncentral-t draws at ncp = beta/m."""
    sc = Scenario(beta=beta, tau=0.0, arm_sizes=(arms,) * k, seed=0)
    d = generate_smd_dataset(sc, RngState(stream).stream(0))
    return d.effects / math.sqrt(1.0 / arms[0] + 1.0 / arms[1])


class TestRunScenario:
    def test_single_rep_is_binary(self):
        sc = Scenario(beta=0.5, tau=0.3, reps=1, arm_sizes=((20, 20),) * 5, seed=3)
        res = run_scenario(sc)
        for mc in res.per_method:
            assert mc.coverage in (0.0, 1.0)
        assert res.truncation_rate in (0.0, 1.0)

    def test_thread_counts_agree(self):
        sc = Scenario(beta=0.5, tau=0.3, **SMALL)
        serial = run_scenario(sc, threads=1)
        parallel = run_scenario(sc, threads=3)
        assert serial == parallel

    def test_pool_size_capped_by_chunks_and_cpus(self, monkeypatch):
        # a stand-in pool that records its size and maps in this process
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        sc = Scenario(beta=0.5, tau=0.3, methods=("WALD",), **{**SMALL, "reps": 5})
        assert run_scenario(sc, threads=10_000) == run_scenario(sc, threads=1)
        assert len(asked) == 1 and 1 <= asked[0] <= min(5, os.cpu_count() or 1)

    def test_repeat_runs_agree(self):
        sc = Scenario(beta=0.5, tau=0.3, methods=("WALD",), **SMALL)
        assert run_scenario(sc) == run_scenario(sc)

    def test_method_lookup_and_tags(self):
        sc = Scenario(beta=0.5, tau=0.3, **SMALL)
        res = run_scenario(sc)
        assert tuple(mc.method for mc in res.per_method) == tuple(METHODS)
        assert res.method("propimp").method == "PROPIMP"
        assert res.method("alpha-adj").method == "ALPHA_ADJ"
        assert res.method("wt").method == "WALD"
        with pytest.raises(KeyError):
            res.method("BOOT")
        wald_only = run_scenario(dataclasses.replace(sc, methods=("WALD",), reps=2))
        with pytest.raises(KeyError):
            wald_only.method("alpha-adj")
        for mc in res.per_method:
            assert set(mc.widths) == set(RATIO_MEASURES)
            assert 0.0 <= mc.coverage <= 1.0

    def test_coverage_event_shared_across_measures(self):
        # containment of the true value is one event on any of the three
        # scales, because bounds and true values map through the same links
        true = cv_measures(0.4, 0.5)
        sc = Scenario(beta=0.5, tau=0.4, arm_sizes=((10, 10),) * 8, reps=1, seed=0)
        master = RngState(21)
        checked = 0
        for r in range(40):
            d = generate_smd_dataset(sc, master.stream(r))
            fit = fit_rem(d)
            if fit.tau2_hat == 0.0:
                continue
            checked += 1
            for ivs in (
                wald_logit_intervals(fit),
                alpha_adjusted_intervals(d, fit=fit),
                propimp_intervals(d, fit=fit)[0],
            ):
                hits = {
                    ivs["CV_B"].contains(true.cv_b),
                    ivs["M1"].contains(true.m1),
                    ivs["M2"].contains(true.m2),
                }
                assert len(hits) == 1
        assert checked > 20

    # 200 reps pass numpy's 128-value pairwise-summation block, where summing
    # a column in any other order than alone would show in the last bits
    @pytest.mark.parametrize("mode, reps", [
        pytest.param("smd", 30, id="smd"), pytest.param("normal", 30, id="normal"),
        pytest.param("normal", 200, id="normal-200")])
    def test_reduction_equals_per_replication_recomputation(self, mode, reps):
        sc = _batch_scenario(mode, 8, reps)
        generate = generate_smd_dataset if mode == "smd" else generate_normal_dataset
        true_m1 = cv_measures(sc.tau, sc.beta).m1
        master = RngState(sc.seed)
        truncated = []
        covered = {m: [] for m in sc.methods}
        widths = {m: {q: [] for q in RATIO_MEASURES} for m in sc.methods}
        for r in range(sc.reps):
            data = generate(sc, master.stream(r))
            fit = fit_rem(data)
            truncated.append(fit.tau2_hat == 0.0)
            for method in sc.methods:
                ivs = METHODS[method](data, fit, sc.alpha)
                covered[method].append(ivs["M1"].contains(true_m1))
                for q in RATIO_MEASURES:
                    widths[method][q].append(ivs[q].width)
        assert 0 < sum(truncated) < sc.reps
        for threads in (1, 2):
            res = run_scenario(sc, threads=threads)
            assert res.truncation_rate == sum(truncated) / sc.reps
            assert tuple(mc.method for mc in res.per_method) == tuple(METHODS)
            for mc in res.per_method:
                assert mc.coverage == sum(covered[mc.method]) / sc.reps
                for q in RATIO_MEASURES:
                    w = np.array(widths[mc.method][q])
                    assert mc.widths[q].mean == float(np.mean(w))
                    assert mc.widths[q].median == float(np.median(w))
                    assert mc.widths[q].any_infinite == any(map(math.isinf, w))
            assert res.method("WALD").widths["CV_B"].any_infinite

    def test_truncation_falls_with_tau(self):
        base = dict(arm_sizes=((10, 10),) * 10, reps=300, seed=5, methods=("WALD",))
        none = run_scenario(Scenario(beta=0.5, tau=0.0, **base))
        strong = run_scenario(Scenario(beta=0.5, tau=0.8, **base))
        assert none.truncation_rate > 0.3
        assert strong.truncation_rate < 0.1

    def test_infinite_widths_flagged(self):
        sc = Scenario(beta=0.5, tau=0.0, arm_sizes=((10, 10),) * 4, reps=30, seed=2)
        res = run_scenario(sc)
        wald_cv = res.method("WALD").widths["CV_B"]
        assert wald_cv.any_infinite
        assert math.isinf(wald_cv.mean)
        assert math.isfinite(res.method("WALD").widths["M1"].median)


class TestMeasureSummary:
    def test_ordering_and_determinism(self):
        sc = Scenario(beta=0.5, tau=0.4, arm_sizes=((10, 10),) * 10, reps=80, seed=4)
        s1 = measure_summary(sc)
        s2 = measure_summary(sc)
        assert s1 == s2
        for fn in s1.values():
            assert fn.minimum <= fn.q1 <= fn.median <= fn.q3 <= fn.maximum

    def test_zero_tau_medians(self):
        sc = Scenario(beta=0.5, tau=0.0, arm_sizes=((10, 10),) * 10, reps=200, seed=4)
        s = measure_summary(sc)
        for name in ("I2", "CV_B", "M1", "M2"):
            assert s[name].median == 0.0
            assert s[name].minimum == 0.0

    def test_measures_respect_links(self):
        # odd rep count: the median is a single order statistic, so the
        # nonlinear links carry over exactly
        sc = Scenario(beta=0.5, tau=0.4, arm_sizes=((10, 10),) * 10, reps=51, seed=4)
        s = measure_summary(sc)
        cv = s["CV_B"].median
        assert abs(s["M1"].median - cv / (1.0 + cv)) < 1e-12
        assert abs(s["M2"].median - cv * cv / (1.0 + cv * cv)) < 1e-12


def _batch_scenario(mode, k, reps):
    rng = np.random.default_rng(1000 * k + reps)
    if mode == "smd_constant":  # table2's shape: one chi-square df for every study
        return Scenario(beta=0.3, tau=0.25, arm_sizes=((10, 10),) * k, reps=reps, seed=k + reps)
    if mode == "smd":
        sizes = tuple((int(a), int(b)) for a, b in rng.integers(2, 80, (k, 2)))
        return Scenario(beta=0.3, tau=0.25, arm_sizes=sizes, reps=reps, seed=k + reps)
    variances = tuple(float(x) for x in np.exp(rng.uniform(-6.0, 0.5, k)))
    return Scenario(beta=-0.4, tau=0.2, within_vars=variances, reps=reps, seed=k + reps)


class TestBatchedPass:
    @pytest.mark.parametrize("mode", ["smd", "normal"])
    @pytest.mark.parametrize("k", [2, 10, 35, 60])
    @pytest.mark.parametrize("reps", [1, 7, 200])
    def test_rows_equal_per_replication_fit(self, mode, k, reps):
        sc = _batch_scenario(mode, k, reps)
        generate = generate_smd_dataset if mode == "smd" else generate_normal_dataset
        tau2, beta, q, i2, cv_b, m1, m2 = _replication_measures(sc)
        assert tau2.shape == (reps,)
        master = RngState(sc.seed)
        for r in range(reps):
            data = generate(sc, master.stream(r))
            fit = fit_rem(data)
            hm = het_measures(data, fit)
            assert (tau2[r], beta[r], q[r]) == (fit.tau2_hat, fit.beta_hat, fit.q)
            assert (i2[r], cv_b[r], m1[r], m2[r]) == (hm.i2, hm.cv_b, hm.m1, hm.m2)

    def test_truncated_and_untruncated_rows_both_occur(self):
        tau2 = _replication_measures(_batch_scenario("smd", 10, 200))[0]
        assert 0 < np.count_nonzero(tau2 == 0.0) < tau2.size


def _reference_draw(scenario, rng):
    """One replication drawn as the generators drew it before batching.

    The per-replication draw with its noncentral-t sampler inline: the
    deviations, then z, then the chi-square, each one call on ``rng``.
    """
    theta = scenario.beta + rng.normal(0.0, scenario.tau, scenario.k)
    if scenario.arm_sizes is None:
        v = np.asarray(scenario.within_vars, dtype=float)
        return rng.normal(theta, np.sqrt(v)), v
    n1 = np.array([a for a, _ in scenario.arm_sizes], dtype=float)
    n2 = np.array([b for _, b in scenario.arm_sizes], dtype=float)
    m = np.sqrt(1.0 / n1 + 1.0 / n2)
    df_arr = np.asarray(n1 + n2 - 2.0, dtype=float)
    ncp_arr = np.asarray(theta / m, dtype=float)
    shape = np.broadcast_shapes(df_arr.shape, ncp_arr.shape)
    z = rng.standard_normal(shape)
    chi2 = rng.chisquare(np.broadcast_to(df_arr, shape), shape)
    t = (z + ncp_arr) / np.sqrt(chi2 / df_arr)
    y = t * m
    return y, 1.0 / n1 + 1.0 / n2 + y * y / (2.0 * (n1 + n2))


class TestBatchedDraws:
    # smd_constant takes _draws' scalar-df chi-square; _reference_draw keeps the array df
    @pytest.mark.parametrize("mode", ["smd", "normal", "smd_constant"])
    @pytest.mark.parametrize("k", [2, 10, 35, 60])
    @pytest.mark.parametrize("reps", [1, 7, 200])
    def test_rows_equal_per_replication_draw(self, mode, k, reps):
        sc = _batch_scenario(mode, k, reps)
        master = RngState(sc.seed)
        y, v = _draws(sc, master.streams(0, reps))
        assert y.shape == v.shape == (reps, k)
        for r in range(reps):
            ref_y, ref_v = _reference_draw(sc, master.stream(r))
            assert (y[r] == ref_y).all() and (v[r] == ref_v).all()

    def test_deterministic(self):
        # central t draws (beta = tau = 0, df = 10 per study) repeat on the same streams
        sc = Scenario(beta=0.0, tau=0.0, arm_sizes=((6, 6),) * 8, reps=5, seed=3)
        y1, v1 = _draws(sc, map(RngState(3).stream, range(5)))
        y2, v2 = _draws(sc, map(RngState(3).stream, range(5)))
        assert np.array_equal(y1, y2) and np.array_equal(v1, v2)
        y3, _ = _draws(sc, map(RngState(4).stream, range(5)))
        assert not np.array_equal(y1, y3)

    @pytest.mark.parametrize("mode", ["smd", "normal"])
    @pytest.mark.parametrize("threads", [2, 3, 7])
    def test_offset_ranges_equal_rows_of_full_range(self, mode, threads):
        # the contiguous chunks run_scenario hands to its workers
        sc = _batch_scenario(mode, 10, 200)
        master = RngState(sc.seed)
        y, v = _draws(sc, map(master.stream, range(sc.reps)))
        chunk = -(-sc.reps // threads)
        for s in range(0, sc.reps, chunk):
            e = min(s + chunk, sc.reps)
            part_y, part_v = _draws(sc, master.streams(s, e))
            assert (part_y == y[s:e]).all() and (part_v == v[s:e]).all()

    @pytest.mark.parametrize("mode", ["smd", "normal"])
    def test_run_range_rows_use_their_streams(self, mode):
        sc = dataclasses.replace(_batch_scenario(mode, 10, 30), methods=("WALD",))
        true_m1 = cv_measures(sc.tau, sc.beta).m1
        master = RngState(sc.seed)
        for s, e in [(0, 30), (11, 23)]:
            table = _run_range(sc, s, e)
            assert table.shape == (e - s, 2 + len(RATIO_MEASURES))
            for j, (truncated, covered, *widths) in enumerate(table):
                fit = fit_rem(MetaDataset(*_reference_draw(sc, master.stream(s + j))))
                ivs = wald_logit_intervals(fit, sc.alpha)
                assert truncated == (fit.tau2_hat == 0.0)
                assert covered == ivs["M1"].contains(true_m1)
                assert widths == [ivs[m].width for m in RATIO_MEASURES]


# draws beyond the float range: at beta = 1e200, y * y overflows in every SMD
# variance; at tau = 1.7e308, about 3 normal deviations in 10 overflow, so
# each replication of 35 studies has one
OVERFLOWING = {
    "smd_beta": Scenario(beta=1e200, tau=0.5, arm_sizes=((10, 10),) * 3, reps=4, seed=5),
    "normal_tau": Scenario(beta=0.5, tau=1.7e308, within_vars=(0.1,) * 35, reps=4, seed=5),
}


@pytest.mark.parametrize("name", OVERFLOWING)
@pytest.mark.parametrize("path", [
    lambda sc: (generate_smd_dataset if sc.arm_sizes else generate_normal_dataset)(
        sc, RngState(sc.seed).stream(0)),
    measure_summary,
    lambda sc: run_scenario(dataclasses.replace(sc, methods=("WALD",)), threads=1),
    lambda sc: run_scenario(dataclasses.replace(sc, methods=("WALD",)), threads=2),
], ids=["generator", "measure_summary", "run_scenario_1", "run_scenario_2"])
def test_overflowing_draws_are_a_numeric_failure(name, path):
    sc = OVERFLOWING[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericFailureError, match="^draws overflow the float range at"):
            path(sc)
