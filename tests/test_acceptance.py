"""End-to-end acceptance checks.

One test per advertised guarantee, in order, each printing a PASS line
with the measured numbers.  The Monte Carlo checks pin their seeds, so
every run evaluates the same replications and the outcomes are exact
reruns, not statistical retries.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from cvmeta.cli import main
from cvmeta.core import fit_rem
from cvmeta.datasets import data_path, expand_config, load_config
from cvmeta.intervals import (
    RATIO_MEASURES,
    alpha_adjusted_intervals,
    fixed_intervals,
    propimp_intervals,
    tau2_ci_qprofile,
    wald_logit_intervals,
)
from cvmeta.measures import (
    cv_measures,
    logit,
    logit_m1_moments,
    measures_from_cv,
)
from cvmeta.numerics import RngState
from cvmeta.simulator import (
    Scenario,
    generate_normal_dataset,
    generate_smd_dataset,
    run_scenario,
)

from conftest import qgen_reference, random_dataset

MC_SEED = 20260815
THREADS = max(1, min(8, os.cpu_count() or 1))
Z975 = 1.9599639845400545


def test_criterion_01_measure_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    taus = rng.uniform(1e-3, 5.0, 10_000)
    # keep |beta| off zero: the logit link identity is only representable
    # in doubles while cv stays within a few decades of 1 (error ~ cv*eps)
    betas = rng.uniform(0.05, 3.0, 10_000) * rng.choice([-1.0, 1.0], 10_000)
    worst = 0.0
    for tau, beta in zip(taus, betas):
        m = cv_measures(float(tau), float(beta))
        worst = max(
            worst,
            abs(m.m1 - m.cv_b / (1.0 + m.cv_b)),
            abs(m.m2 - m.cv_b**2 / (1.0 + m.cv_b**2)),
            abs(logit(m.m1) - math.log(m.cv_b)),
        )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(f"PASS criterion 1: identity error {worst:.2e} over 10,000 pairs, {elapsed:.2f}s")


def test_criterion_02_published_table_self_consistency():
    cases = {
        "stroke": (1.384, 0.581, 0.657),
        "writing": (0.970, 0.492, 0.485),
        "incidence": (0.227, 0.185, 0.049),
    }
    for name, (cv, want_m1, want_m2) in cases.items():
        m = measures_from_cv(cv)
        assert abs(m.m1 - want_m1) <= 1e-3, name
        assert abs(m.m2 - want_m2) <= 1e-3, name
    print("PASS criterion 2: M1/M2 recomputed from published (tau2, CV) pairs within 0.001")


def test_criterion_03_fixture_reproduction(capsys):
    start = time.perf_counter()
    code = main(["analyze", "--input", str(data_path("hssp.csv"))])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    tau2 = doc["fit"]["tau2_hat"]
    i2 = 100.0 * doc["measures"]["i2"]["value"]
    cv = doc["measures"]["cv_b"]["value"]
    adj = next(
        iv for iv in doc["intervals"]
        if iv["method"] == "ALPHA_ADJ" and iv["measure"] == "CV_B"
    )
    assert abs(tau2 - 0.540) <= 2e-3
    assert abs(i2 - 93.534) <= 2e-3
    assert abs(cv - 1.384) <= 2e-3
    assert abs(adj["lower"] - 0.733) <= 2e-3
    assert abs(adj["upper"] - 8.358) <= 2e-3
    assert elapsed < 1.0
    with capsys.disabled():
        print(
            f"\nPASS criterion 3: tau2 {tau2:.4f}, I2 {i2:.3f}%, CV {cv:.4f}, "
            f"adjusted CV interval ({adj['lower']:.4f}, {adj['upper']:.4f}), {elapsed:.2f}s"
        )


def _qgen_rows(y, v, ts):
    w = 1.0 / (v[None, :] + ts[:, None])
    sw = w.sum(axis=1)
    beta = (w * y[None, :]).sum(axis=1) / sw
    resid = y[None, :] - beta[:, None]
    return (w * resid * resid).sum(axis=1)


def _solve_profile(y, v, targets):
    """Vectorized profile inversion: t >= 0 with Q_gen(t) = target.

    Illinois regula falsi on f(t) = Q_gen(t) - target, which decreases in
    t.  With S the sum of squares of y about its unweighted mean,
    S/(max v + t) <= Q_gen(t) <= S/(min v + t), so each root lies in
    [max(0, S/target - max v), S/target - min v].  The bracket keeps
    f(lo) >= 0 >= f(hi) and shrinks until it is 1e-14 of its upper end.
    """
    q0 = float(_qgen_rows(y, v, np.zeros(1))[0])
    out = np.zeros(targets.shape)
    need = targets < q0
    if need.any():
        tg = targets[need]
        s = float(np.sum((y - y.mean()) ** 2))
        lo = np.maximum(0.0, s / tg - v.max())
        hi = s / tg - v.min()
        f_lo = _qgen_rows(y, v, lo) - tg
        f_hi = _qgen_rows(y, v, hi) - tg
        last = np.zeros(tg.shape, dtype=np.int8)  # +1: lo moved last, -1: hi did
        for _ in range(100):
            if np.all(hi - lo <= 1e-14 * hi):
                break
            with np.errstate(divide="ignore", invalid="ignore"):
                t = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            t = np.clip(np.where(np.isfinite(t), t, 0.5 * (lo + hi)), lo, hi)
            f = _qgen_rows(y, v, t) - tg
            right = f > 0.0
            # Illinois step: halve the value kept at an end that stays put twice
            f_hi = np.where(right & (last == 1), 0.5 * f_hi, f_hi)
            f_lo = np.where(~right & (last == -1), 0.5 * f_lo, f_lo)
            lo, f_lo = np.where(f >= 0.0, t, lo), np.where(right, f, f_lo)
            hi, f_hi = np.where(right, hi, t), np.where(right, f_hi, f)
            last = np.where(right, 1, -1).astype(np.int8)
        else:
            raise AssertionError("profile oracle did not converge in 100 steps")
        out[need] = 0.5 * (lo + hi)
    return out


def _grid_oracle(data, fit, n_grid=10_001):
    """Quarter-circle sweep of the corner construction on a dense grid."""
    y, v, k = data.effects, data.within_vars, data.k
    tau_hat = math.sqrt(fit.tau2_hat)
    beta_hat = fit.beta_hat
    se = math.sqrt(fit.var_beta_hat)
    thetas = np.linspace(0.0, math.pi / 2.0, n_grid)
    c_tau = Z975 * np.sin(thetas)
    c_beta = Z975 * np.cos(thetas)

    p_tail = stats.norm.cdf(c_tau)
    tau_pin = c_tau == 0.0
    t_lo = np.sqrt(_solve_profile(y, v, stats.chi2.ppf(p_tail, k - 1)))
    t_hi = np.sqrt(_solve_profile(y, v, stats.chi2.ppf(1.0 - p_tail, k - 1)))
    t_lo[tau_pin] = tau_hat
    t_hi[tau_pin] = tau_hat

    lo = beta_hat - c_beta * se
    hi = beta_hat + c_beta * se
    b_lo = np.where(lo >= 0.0, lo, np.where(hi <= 0.0, -hi, 0.0))
    b_up = np.where(lo >= 0.0, hi, np.where(hi <= 0.0, -lo, np.maximum(-lo, hi)))
    beta_pin = c_beta == 0.0
    b_lo[beta_pin] = abs(beta_hat)
    b_up[beta_pin] = abs(beta_hat)

    def corner(t, b):
        return np.where(t == 0.0, 0.0, np.where(b == 0.0, 1.0, t / (t + b)))

    return float(corner(t_lo, b_up).min()), float(corner(t_hi, b_lo).max())


def test_criterion_04_propimp_against_grid_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    checked = 0
    worst = 0.0
    while checked < 200:
        data = random_dataset(rng)
        fit = fit_rem(data)
        if fit.tau2_hat == 0.0:
            continue
        checked += 1
        ivs, _ = propimp_intervals(data, fit=fit)
        oracle_lo, oracle_hi = _grid_oracle(data, fit)
        worst = max(
            worst, abs(ivs["M1"].lower - oracle_lo), abs(ivs["M1"].upper - oracle_hi)
        )
        assert abs(ivs["M1"].lower - oracle_lo) <= 1e-6
        assert abs(ivs["M1"].upper - oracle_hi) <= 1e-6

        adj = alpha_adjusted_intervals(data, fit=fit)
        fix_beta = fixed_intervals(data, "FIXED_BETA", 0.05, fit)
        fix_tau = fixed_intervals(data, "FIXED_TAU", 0.05, fit)
        for other in (adj, fix_beta, fix_tau):
            for m in RATIO_MEASURES:
                assert ivs[m].lower <= other[m].lower + 1e-9
                assert ivs[m].upper >= other[m].upper - 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"PASS criterion 4: max deviation {worst:.2e} from the 10,001-point grid "
        f"over 200 datasets; containment held, {elapsed:.1f}s"
    )


@pytest.mark.slow
def test_criterion_05_coverage_reproduction_incidence_settings():
    start = time.perf_counter()
    by_tau = {sc.tau: sc for sc in expand_config(load_config("table4_zhu"), reps=5000)}
    low_tau = run_scenario(by_tau[0.2], threads=THREADS)
    high_tau = run_scenario(replace(by_tau[0.8], methods=("PROPIMP",)), threads=THREADS)
    elapsed = time.perf_counter() - start

    windows = {
        "ALPHA_ADJ": (0.868, 0.015),
        "PROPIMP": (0.950, 0.012),
        "WALD": (0.970, 0.012),
    }
    got = {}
    for method, (center, tol) in windows.items():
        cov = low_tau.method(method).coverage
        got[method] = cov
        assert abs(cov - center) <= tol, (method, cov)
    cov8 = high_tau.method("PROPIMP").coverage
    assert abs(cov8 - 0.966) <= 0.012
    assert elapsed < 600.0
    print(
        "PASS criterion 5: tau=0.2 coverages "
        + ", ".join(f"{m} {c:.4f}" for m, c in got.items())
        + f"; tau=0.8 PROPIMP {cov8:.4f}; {elapsed:.0f}s"
    )


@pytest.mark.slow
def test_criterion_06_small_effect_coverage_band():
    start = time.perf_counter()
    results = {}
    for scenario in expand_config(load_config("figure3_beta02")):
        k, tau = scenario.k, scenario.tau
        if k not in (10, 30, 50) or tau not in (0.4, 0.8):
            continue
        cov = run_scenario(scenario, threads=THREADS).method("PROPIMP").coverage
        results[(k, tau)] = cov
        assert 0.94 <= cov <= 0.99, ((k, tau), cov)
    assert len(results) == 6
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    summary = ", ".join(f"K={k} tau={t}: {c:.4f}" for (k, t), c in results.items())
    print(f"PASS criterion 6: PROPIMP coverage {summary}; {elapsed:.0f}s")


def test_criterion_07_summary_table_reproduction(capsys):
    printed = {
        (0.2, 0.4): (0.63, 0.75), (0.2, 0.8): (0.75, 0.90),
        (0.5, 0.4): (0.43, 0.37), (0.5, 0.8): (0.58, 0.66),
        (0.8, 0.4): (0.31, 0.17), (0.8, 0.8): (0.48, 0.45),
    }
    code = main(["table2"])
    out = capsys.readouterr().out
    assert code == 0
    medians = {}
    for line in out.strip().splitlines()[1:]:
        beta, tau, measure, _, _, median, _, _ = line.split(",")
        medians[(float(beta), float(tau), measure)] = float(median)

    worst = 0.0
    for (beta, tau), (want_m1, want_m2) in printed.items():
        d1 = abs(medians[(beta, tau, "M1")] - want_m1)
        d2 = abs(medians[(beta, tau, "M2")] - want_m2)
        worst = max(worst, d1, d2)
        assert d1 <= 0.03, ((beta, tau), "M1", medians[(beta, tau, "M1")])
        assert d2 <= 0.03, ((beta, tau), "M2", medians[(beta, tau, "M2")])
    for beta in (0.2, 0.5, 0.8):
        for measure in ("I2", "CV_B", "M1", "M2"):
            assert medians[(beta, 0.0, measure)] == 0.0
    with capsys.disabled():
        print(
            f"\nPASS criterion 7: all 12 nonzero medians within 0.03 "
            f"(worst {worst:.4f}); zero-heterogeneity medians exactly 0"
        )


def test_criterion_08_delta_method_variance_validation():
    scenario = Scenario(
        beta=0.8, tau=0.8, arm_sizes=((30, 30),) * 50, reps=10_000, seed=MC_SEED
    )
    master = RngState(scenario.seed)
    plug, logits = [], []
    factor_exact = True
    for r in range(scenario.reps):
        data = generate_smd_dataset(scenario, master.stream(r))
        fit = fit_rem(data)
        if fit.tau2_hat <= 0.0 or fit.beta_hat == 0.0:
            continue
        mom = logit_m1_moments(fit)
        plug.append(mom.var_logit_m1)
        tau_hat = math.sqrt(fit.tau2_hat)
        logits.append(logit(tau_hat / (tau_hat + abs(fit.beta_hat))))
        if (
            mom.var_logit_m2 != 4.0 * mom.var_logit_m1
            or mom.bias_logit_m2 != 2.0 * mom.bias_logit_m1
        ):
            factor_exact = False
    mc_var = float(np.var(logits, ddof=1))
    mean_plug = float(np.mean(plug))
    ratio = mean_plug / mc_var
    assert factor_exact
    assert 0.8 <= ratio <= 1.2
    print(
        f"PASS criterion 8: plug-in variance {mean_plug:.4f} vs Monte Carlo "
        f"{mc_var:.4f} (ratio {ratio:.3f}, n={len(plug)}); scale factors exact"
    )


def test_criterion_09_profile_pivots_and_coverage():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(500):
        data = random_dataset(rng)
        iv = tau2_ci_qprofile(data)
        lo_target = stats.chi2.ppf(0.975, data.k - 1)
        hi_target = stats.chi2.ppf(0.025, data.k - 1)
        for bound, target in ((iv.lower, lo_target), (iv.upper, hi_target)):
            q = qgen_reference(data.effects, data.within_vars, bound)
            if bound > 0.0:
                worst = max(worst, abs(q - target))
                assert abs(q - target) <= 1e-8
            else:
                assert q <= target + 1e-8

    scenario = Scenario(
        beta=0.5, tau=0.4,
        within_vars=tuple(0.05 + 0.03 * i for i in range(10)),
        reps=10_000, seed=MC_SEED,
    )
    master = RngState(scenario.seed)
    hits = 0
    for r in range(scenario.reps):
        data = generate_normal_dataset(scenario, master.stream(r))
        iv = tau2_ci_qprofile(data)
        if iv.lower <= 0.16 <= iv.upper:
            hits += 1
    coverage = hits / scenario.reps
    assert 0.93 <= coverage <= 0.97
    print(
        f"PASS criterion 9: pivot residual {worst:.2e} over 500 datasets; "
        f"tau2 coverage {coverage:.4f} over 10,000 datasets"
    )


def test_criterion_10_degenerate_handling(capsys, tmp_path):
    from cvmeta.core import MetaDataset

    data = MetaDataset([0.4] * 5, [0.2] * 5)
    fit = fit_rem(data)
    assert fit.tau2_hat == 0.0
    all_ivs = {
        "WALD": wald_logit_intervals(fit),
        "ALPHA_ADJ": alpha_adjusted_intervals(data, fit=fit),
        "PROPIMP": propimp_intervals(data, fit=fit)[0],
    }
    for method, ivs in all_ivs.items():
        assert (ivs["M1"].lower, ivs["M1"].upper) == (0.0, 1.0), method
        assert (ivs["M2"].lower, ivs["M2"].upper) == (0.0, 1.0), method
        assert ivs["CV_B"].lower == 0.0 and math.isinf(ivs["CV_B"].upper), method
        assert all(ivs[m].degenerate for m in RATIO_MEASURES), method

    csv_path = tmp_path / "flat.csv"
    csv_path.write_text("yi,vi\n" + "0.4,0.2\n" * 5)
    code = main(["analyze", "--input", str(csv_path)])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["warnings"]
    assert "warning:" in captured.err
    with capsys.disabled():
        print(
            "\nPASS criterion 10: zero-heterogeneity datasets give maximal "
            "flagged intervals for every method and a warning"
        )


def test_criterion_11_simulation_determinism(capsys):
    outputs = []
    for argv in (
        ["simulate", "--config", "smoke", "--reps", "50"],
        ["simulate", "--config", "smoke", "--reps", "50"],
        ["simulate", "--config", "smoke", "--reps", "50", "--threads", "2"],
        ["simulate", "--config", "smoke", "--reps", "50", "--threads", "3"],
    ):
        code = main(argv)
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
    with capsys.disabled():
        print(
            "\nPASS criterion 11: simulate output byte-identical across repeat "
            "runs and thread counts 1, 2, 3"
        )
