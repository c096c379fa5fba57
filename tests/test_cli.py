import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cvmeta.cli import _RENDERERS, build_parser, main
from cvmeta.datasets import cohen_smd, data_path
from cvmeta.errors import NumericFailureError
from cvmeta.simulator import METHOD_ALIASES

from conftest import run_python

HSSP_CSV = str(data_path("hssp.csv"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def strict_json(text):
    """Parse JSON, refusing the NaN and Infinity tokens that json.dumps can print."""
    def refuse(token):
        raise AssertionError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def fuzz_number(rng):
    """+-10^U(-300, 300), 0, -0.0 or an ordinary value in [0, 3); negative one time in ten."""
    kind = rng.integers(8)
    if kind == 0:
        return [0.0, -0.0][rng.integers(2)]
    x = float(rng.uniform(0.0, 3.0) if kind < 3 else 10.0 ** rng.uniform(-300.0, 300.0))
    return -x if rng.random() < 0.1 else x


class TestAnalyze:
    def test_hssp_json_values(self, capsys):
        code, out, err = run(capsys, "analyze", "--input", HSSP_CSV)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["fit"]["k"] == 9 and doc["fit"]["model"] == "REM"
        assert abs(doc["fit"]["tau2_hat"] - 0.540) < 5e-4
        assert abs(100.0 * doc["measures"]["i2"]["value"] - 93.534) < 2e-3
        assert abs(doc["measures"]["cv_b"]["value"] - 1.384) < 5e-4
        methods = {iv["method"] for iv in doc["intervals"]}
        assert methods == {"PROPIMP", "ALPHA_ADJ", "WALD"}
        assert len(doc["intervals"]) == 9
        adj_cv = next(
            iv for iv in doc["intervals"]
            if iv["method"] == "ALPHA_ADJ" and iv["measure"] == "CV_B"
        )
        assert abs(adj_cv["lower"] - 0.733) < 2e-3
        assert abs(adj_cv["upper"] - 8.358) < 2e-3

    def test_byte_order_mark_is_ignored(self, capsys, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a UTF-8 byte-order mark
        bom_csv = tmp_path / "hssp_bom.csv"
        bom_csv.write_bytes(b"\xef\xbb\xbf" + Path(HSSP_CSV).read_bytes())
        code, plain, _ = run(capsys, "analyze", "--input", HSSP_CSV)
        assert code == 0
        code, with_bom, err = run(capsys, "analyze", "--input", str(bom_csv))
        assert code == 0 and err == ""
        plain, with_bom = json.loads(plain), json.loads(with_bom)
        assert with_bom["provenance"].pop("input") == str(bom_csv)
        del plain["provenance"]["input"]
        assert with_bom == plain

    def test_two_arm_matches_precomputed(self, capsys, tmp_path):
        arms = [
            (12, 1.2, 0.9, 14, 0.4, 1.1),
            (30, 0.8, 1.0, 28, 0.3, 0.8),
            (22, 1.5, 1.3, 20, 0.9, 1.2),
            (18, 0.2, 0.7, 18, -0.1, 0.9),
        ]
        two = "n1,m1,sd1,n2,m2,sd2\n" + "\n".join(
            f"{n1},{m1},{s1},{n2},{m2},{s2}" for n1, m1, s1, n2, m2, s2 in arms
        )
        pre_rows = [cohen_smd(n1, m1, s1, n2, m2, s2) for n1, m1, s1, n2, m2, s2 in arms]
        pre = "yi,vi\n" + "\n".join(f"{y!r},{v!r}" for y, v in pre_rows)
        p_two = write_csv(tmp_path, "two.csv", two)
        p_pre = write_csv(tmp_path, "pre.csv", pre)
        _, out_two, _ = run(capsys, "analyze", "--input", p_two)
        _, out_pre, _ = run(capsys, "analyze", "--input", p_pre)
        fit_two = json.loads(out_two)["fit"]
        fit_pre = json.loads(out_pre)["fit"]
        for key in ("beta_hat", "tau2_hat", "q", "var_beta_hat"):
            assert abs(fit_two[key] - fit_pre[key]) <= 1e-12

    def test_method_subset_and_alias(self, capsys):
        code, out, _ = run(capsys, "analyze", "--input", HSSP_CSV, "--method", "wt")
        assert code == 0
        doc = json.loads(out)
        assert {iv["method"] for iv in doc["intervals"]} == {"WALD"}
        assert len(doc["intervals"]) == 3

    def test_unknown_method_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "--input", HSSP_CSV, "--method", "boot")
        assert code == 2
        assert "error:" in err

    def test_bad_alpha_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "--input", HSSP_CSV, "--alpha", "1.5")
        assert code == 2

    def test_alpha_near_zero_computes(self, capsys):
        # 1 - 2**-53 rounds to itself, below 1, so z is finite
        code, out, _ = run(capsys, "analyze", "--input", HSSP_CSV, "--alpha", repr(2.0**-52))
        assert code == 0
        intervals = strict_json(out)["intervals"]
        assert len(intervals) == 9 and not any(iv["degenerate"] for iv in intervals)

    def test_alpha_near_one_computes(self, capsys, tmp_path):
        # ALPHA_ADJ's corners here once crossed by an ulp: "lower 0.6070470434807668
        # exceeds upper 0.6070470434807667", exit 2
        path = write_csv(tmp_path, "near_one.csv", "yi,vi\n0.466,0.181\n0.846,0.432\n"
                         "2.855,0.3\n1.775,0.196\n1.284,0.129\n")
        code, out, _ = run(capsys, "analyze", "--input", path, "--alpha", "0.9999999999999998")
        assert code == 0
        adj = [iv for iv in strict_json(out)["intervals"] if iv["method"] == "ALPHA_ADJ"]
        assert len(adj) == 3 and all(iv["lower"] == iv["upper"] for iv in adj)

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "--input", str(tmp_path / "nope.csv"))
        assert code == 2
        assert "error:" in err

    def test_malformed_rows_exit_2(self, capsys, tmp_path):
        bad = write_csv(tmp_path, "bad.csv", "yi,vi\n0.5,0.2\noops,0.3\n")
        code, _, err = run(capsys, "analyze", "--input", bad)
        assert code == 2
        assert "row" in err and "yi" in err

    def test_repeated_column_exits_2(self, capsys, tmp_path):
        bad = write_csv(tmp_path, "bad.csv", "yi,vi,yi\n0.5,0.2,0.1\n0.7,0.3,0.2\n")
        code, out, err = run(capsys, "analyze", "--input", bad)
        assert code == 2 and out == ""
        assert "repeated column names ['yi']" in err

    def test_nonpositive_variance_exits_2(self, capsys, tmp_path):
        bad = write_csv(tmp_path, "bad.csv", "yi,vi\n0.5,0.2\n0.7,0\n")
        code, _, err = run(capsys, "analyze", "--input", bad)
        assert code == 2

    def test_single_study_exits_2(self, capsys, tmp_path):
        one = write_csv(tmp_path, "one.csv", "yi,vi\n0.5,0.2\n")
        code, _, err = run(capsys, "analyze", "--input", one)
        assert code == 2

    def test_degenerate_dataset_warns(self, capsys, tmp_path):
        same = write_csv(
            tmp_path, "same.csv", "yi,vi\n0.4,0.2\n0.4,0.2\n0.4,0.2\n0.4,0.2\n"
        )
        code, out, err = run(capsys, "analyze", "--input", same)
        assert code == 0
        assert "warning:" in err
        doc = json.loads(out)
        assert doc["warnings"]
        assert all(iv["degenerate"] for iv in doc["intervals"])
        cv_ivs = [iv for iv in doc["intervals"] if iv["measure"] == "CV_B"]
        assert all(iv["upper_infinite"] and iv["upper"] is None for iv in cv_ivs)

    def test_extreme_variance_ratio_is_degenerate(self, capsys, tmp_path):
        # the weight normalization is 2e-10 here; it must not cancel to 0
        csv = write_csv(tmp_path, "ratio.csv", "yi,vi\n0,1e-10\n3,1e10\n")
        code, out, _ = run(capsys, "analyze", "--input", csv)
        assert code == 0
        doc = json.loads(out)
        assert doc["fit"]["tau2_hat"] == 0.0
        assert all(iv["degenerate"] for iv in doc["intervals"])

    @pytest.mark.parametrize("tiny", ["3e-200", "1.5e-323"])
    def test_pooled_effect_near_zero(self, capsys, tmp_path, tiny):
        # beta_hat = tiny / 3, whose square underflows to 0
        csv = write_csv(tmp_path, "tiny.csv", f"yi,vi\n2,1\n-2,1\n{tiny},1\n")
        code, out, _ = run(capsys, "analyze", "--input", csv, "--method", "wald")
        assert code == 0
        m1 = next(iv for iv in json.loads(out)["intervals"] if iv["measure"] == "M1")
        assert (m1["lower"], m1["upper"], m1["degenerate"]) == (0.0, 1.0, False)

    def test_hssp_rescaled_across_the_float_range(self, capsys, tmp_path, hssp):
        # y -> c y, v -> c^2 v leaves every measure bound unchanged; where the
        # weights leave the float range the run must end in a typed numeric
        # failure (exit 3), never an uncaught error or a numpy warning
        def bounds(e):
            c = 10.0**e
            rows = "".join(
                f"{y * c!r},{v * c * c!r}\n" for y, v in zip(hssp.effects.tolist(), hssp.within_vars.tolist())
            )
            path = write_csv(tmp_path, f"hssp_{e}.csv", "yi,vi\n" + rows)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, out, _ = run(capsys, "analyze", "--input", path)
            assert code in (0, 3)
            if code == 3:
                return None
            return [iv[key] for iv in json.loads(out)["intervals"] for key in ("lower", "upper")]

        base = bounds(0)
        assert len(base) == 18
        for e in range(-150, 151, 10):
            got = bounds(e)
            if abs(e) <= 70 or got is not None:
                assert got == pytest.approx(base, rel=1e-12, abs=0.0), e

    def test_subnormal_q_gives_zero_i2_without_a_warning(self, capsys, tmp_path):
        # Q is about 5e-321 here, so (Q - (K-1))/Q overflows
        csv = write_csv(tmp_path, "tiny_q.csv", "yi,vi\n0,1\n1e-160,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "analyze", "--input", csv)
        assert code == 0
        assert json.loads(out)["measures"]["i2"]["value"] == 0.0

    def test_identical_effects_give_zero_q(self, capsys, tmp_path):
        # |y|/sqrt(v) is far above 1/eps, so the fixed-effect mean can miss the
        # common value by ulps and the residuals alone would give a huge Q;
        # at -1e233 with v near 1e-120, w * y overflows as well
        v = np.logspace(np.log10(6e-72), np.log10(8e-60), 7).tolist()
        for y, vs in ((8.082e37, v), (-1e233, [1e-120, 1e-119, 1e-118])):
            rows = "".join(f"{y!r},{x!r}\n" for x in vs)
            csv = write_csv(tmp_path, "same.csv", "yi,vi\n" + rows)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, _ = run(capsys, "analyze", "--input", csv)
            assert code == 0
            doc = strict_json(out)
            assert doc["fit"]["q"] == 0.0 and doc["fit"]["tau2_hat"] == 0.0
            assert doc["fit"]["beta_hat"] == y
            assert doc["measures"]["i2"]["value"] == 0.0
            assert all(iv["degenerate"] for iv in doc["intervals"])

    # the same file is rewritten and the capture read for every example
    @settings(max_examples=1000, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 39),
        two_arm=st.booleans(),
        identical=st.integers(0, 6).map(lambda i: i == 0),
        log10_y=st.floats(-300.0, 300.0),
        log10_v=st.floats(-300.0, 300.0),
        spread=st.floats(0.0, 6.0),
    )
    def test_any_input_gives_json_or_a_typed_error(
        self, capsys, tmp_path, seed, k, two_arm, identical, log10_y, log10_v, spread
    ):
        # effects at 10^log10_y and variances (two-arm: standard deviations) at
        # an independent 10^log10_v, spread by e^N(0, spread); one input in
        # seven repeats its first effect
        rng = np.random.default_rng(seed)
        y = (10.0**log10_y * rng.standard_normal(k)).tolist()
        scale = (10.0**log10_v * np.exp(spread * rng.standard_normal(k))).tolist()
        if two_arm:
            n = rng.integers(2, 60, size=(k, 2)).tolist()
            header = "m1,sd1,n1,m2,sd2,n2"
            rows = [f"{m!r},{s!r},{n1},0.0,{s!r},{n2}" for m, s, (n1, n2) in zip(y, scale, n)]
        else:
            header = "yi,vi"
            rows = [f"{m!r},{s!r}" for m, s in zip(y, scale)]
        if identical:
            rows = [rows[0]] * k if two_arm else [f"{y[0]!r},{s!r}" for s in scale]
        csv = write_csv(tmp_path, "fuzz.csv", "\n".join([header, *rows]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run(capsys, "analyze", "--input", csv)
        assert code in (0, 2, 3)
        if code == 0:
            fit = strict_json(out)["fit"]
            if identical:
                common = y[0]
                if two_arm:
                    (n1, n2), s = n[0], scale[0]
                    common = cohen_smd(n1, y[0], s, n2, 0.0, s)[0]
                assert fit["tau2_hat"] == 0.0 and fit["beta_hat"] == common

    def test_var_tau2_out_of_range_exits_3_without_a_warning(self, capsys, tmp_path):
        # S1 - S2/S1 is 2e-163 here, so its square underflows to 0
        csv = write_csv(tmp_path, "wide.csv", "yi,vi\n0,1e100\n1e82,1e163\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "analyze", "--input", csv)
        assert code == 3 and out == ""
        assert "var(tau2_hat) = inf is out of the float range" in err

    def test_csv_format(self, capsys, tmp_path):
        same = write_csv(
            tmp_path, "same.csv", "yi,vi\n0.4,0.2\n0.4,0.2\n0.4,0.2\n0.4,0.2\n"
        )
        code, out, _ = run(capsys, "analyze", "--input", same, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "measure,method,lower,upper,alpha_tau,alpha_beta,degenerate"
        assert len(lines) == 10
        assert any(",inf," in ln for ln in lines[1:])

    def test_text_format_ends_with_the_warning(self, capsys, tmp_path):
        same = write_csv(tmp_path, "same.csv", "yi,vi\n0.4,0.2\n0.4,0.2\n0.4,0.2\n")
        code, out, err = run(capsys, "analyze", "--input", same, "--format", "text")
        assert code == 0
        warning = ("warning: between-study variance estimate is zero; reported intervals"
                   " are the maximal degenerate intervals")
        assert out.endswith("\n\n" + warning + "\n") and err == warning + "\n"

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "analyze", "--input", HSSP_CSV, "--format", "text")
        assert code == 0
        assert "Random-effects fit" in out
        assert "93.534" in out and "%" in out
        assert "PROPIMP" in out

    def test_numeric_failure_exits_3(self, capsys, monkeypatch):
        def boom(data):
            raise NumericFailureError("forced for the exit-code contract")

        monkeypatch.setattr("cvmeta.cli.fit_rem", boom)
        code, _, err = run(capsys, "analyze", "--input", HSSP_CSV)
        assert code == 3
        assert "numeric failure:" in err


class TestSimulate:
    def test_smoke_schema(self, capsys):
        code, out, err = run(capsys, "simulate", "--config", "smoke")
        assert code == 0
        doc = json.loads(out)
        assert doc["name"] == "smoke"
        assert doc["config"]["reps"] == 10
        assert len(doc["results"]) == 1
        entry = doc["results"][0]
        assert set(entry["setting"]) == {"k", "beta", "tau"}
        assert 0.0 <= entry["truncation_rate"] <= 1.0
        methods = {m["method"] for m in entry["methods"]}
        assert methods == {"ALPHA_ADJ", "PROPIMP", "WALD"}
        for m in entry["methods"]:
            assert 0.0 <= m["coverage"] <= 1.0
            assert set(m["widths"]) == {"CV_B", "M1", "M2"}

    def test_byte_identical_across_runs_and_threads(self, capsys):
        _, out1, _ = run(capsys, "simulate", "--config", "smoke", "--reps", "24")
        _, out2, _ = run(capsys, "simulate", "--config", "smoke", "--reps", "24")
        _, out3, _ = run(
            capsys, "simulate", "--config", "smoke", "--reps", "24", "--threads", "3"
        )
        assert out1 == out2 == out3

    def test_normal_mode_scenarios_byte_identical_across_threads(self, capsys):
        # four scenarios, so four pools in one call at --threads 2
        argv = ("simulate", "--config", "table4_zhu", "--reps", "3")
        code, serial, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--threads", "2") == (0, serial, "")

    def test_overrides_echoed(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--config", "smoke", "--reps", "5", "--seed", "123"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["reps"] == 5
        assert doc["config"]["seed"] == 123

    def test_default_alpha_echoed(self, capsys):
        # table2 sets no alpha, so its scenarios run at Scenario's default
        code, out, _ = run(capsys, "simulate", "--config", "table2", "--reps", "1")
        assert code == 0
        assert json.loads(out)["config"]["alpha"] == 0.05

    def test_out_writes_files(self, capsys, tmp_path):
        out_dir = tmp_path / "results"
        code, out, err = run(
            capsys, "simulate", "--config", "smoke", "--out", str(out_dir)
        )
        assert code == 0
        assert out == ""
        assert (out_dir / "smoke.json").is_file()
        assert (out_dir / "smoke.csv").is_file()
        doc = json.loads((out_dir / "smoke.json").read_text())
        assert doc["name"] == "smoke"
        csv_lines = (out_dir / "smoke.csv").read_text().strip().splitlines()
        assert csv_lines[0].startswith("k,beta,tau,method,coverage,truncation_rate")
        assert len(csv_lines) == 1 + 3

    def test_out_write_error_exits_2(self, capsys, tmp_path):
        (tmp_path / "smoke.json").mkdir()
        code, out, err = run(
            capsys, "simulate", "--config", "smoke", "--reps", "1", "--out", str(tmp_path)
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "smoke.json" in err

    def test_overflowing_tau_exits_3_without_a_warning(self, tmp_path):
        cfg = tmp_path / "big_tau.json"
        cfg.write_text(json.dumps({"mode": "normal", "beta": 0.5, "tau": 1e160,
                                   "within_vars": [0.1, 0.2, 0.3], "reps": 3}))
        proc = run_python("-c", "import sys; from cvmeta.cli import main; sys.exit(main())",
                          "simulate", "--config", str(cfg))
        assert proc.returncode == 3 and proc.stdout == ""
        assert "Warning" not in proc.stderr
        assert proc.stderr.startswith("numeric failure: the tau2 estimate overflows (Q = inf,")

    @pytest.mark.parametrize("setting", [
        {"mode": "smd", "beta": 1e200, "tau": 0.5, "k": 3, "n_per_arm": 10},
        {"mode": "smd", "beta": 0.5, "tau": 1e200, "k": 3, "n_per_arm": 10},
        {"mode": "normal", "beta": 0.5, "tau": 1.7e308, "within_vars": [0.1] * 35},
    ], ids=["smd_beta", "smd_tau", "normal_tau"])
    def test_overflowing_draws_exit_3_without_a_warning(self, capsys, tmp_path, setting):
        # the SMD settings once printed a bare RuntimeWarning and exited 2,
        # blaming the input; every replication overflows here (at tau = 1.7e308
        # about 3 normal deviations in 10 do), so each chunk fails its draws
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({**setting, "reps": 2}))
        for threads in ("1", "2"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, out, err = run(capsys, "simulate", "--config", str(cfg), "--threads", threads)
            assert code == 3 and out == ""
            assert err.startswith("numeric failure: draws overflow the float range at beta ")

    def test_numeric_failure_names_the_lowest_failing_replication(self, capsys, tmp_path):
        # replication 0 draws finite effects whose fit overflows, and replication
        # 1's draws overflow; every thread count must report replication 0's error
        cfg = tmp_path / "mixed.json"
        cfg.write_text(json.dumps({"mode": "normal", "beta": 0.5, "tau": 1.7e308,
                                   "within_vars": [0.1, 0.2, 0.3], "reps": 2}))
        errors = []
        for threads in ("1", "2"):
            code, out, err = run(capsys, "simulate", "--config", str(cfg), "--seed", "0",
                                 "--threads", threads)
            assert code == 3 and out == ""
            errors.append(err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("numeric failure: the tau2 estimate overflows")

    @pytest.mark.parametrize(
        "within_vars", [[1e-12, 1e12, 1, 1e-6], [1e-300, 1e-150, 1, 1e150, 1e300]]
    )
    def test_extreme_within_vars_give_numbers_or_a_typed_error(
        self, capsys, tmp_path, within_vars
    ):
        cfg = tmp_path / "extreme.json"
        cfg.write_text(json.dumps({"mode": "normal", "beta": 0.5, "tau": [0.0, 0.3, 1e3],
                                   "within_vars": within_vars, "reps": 20}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            # at --threads 2 an error is raised in a pool worker
            runs = [run(capsys, "simulate", "--config", str(cfg), "--threads", threads)
                    for threads in ("1", "2")]
        code, out, err = runs[0]
        assert runs[1] == runs[0]
        assert code in (0, 3)
        assert "NaN" not in out
        if code == 3:
            assert "numeric failure" in err

    # the same file is rewritten and the capture read for every example
    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 7),
        smd=st.booleans(),
        reps=st.integers(1, 2),
        methods=st.lists(st.sampled_from(["PROPIMP", "ALPHA_ADJ", "WALD"]),
                         min_size=1, max_size=3, unique=True),
    )
    def test_any_config_gives_json_or_a_typed_error(
        self, capsys, tmp_path, seed, k, smd, reps, methods
    ):
        # beta and tau are fuzz_numbers, arm sizes integers from 1 to 59 and
        # within-study variances absolute fuzz_numbers; one config in four
        # has a fuzz_number as its first arm size or variance
        rng = np.random.default_rng(seed)
        cfg = {"beta": fuzz_number(rng), "tau": fuzz_number(rng), "reps": reps,
               "methods": methods}
        if smd:
            cfg.update(mode="smd", arm_sizes=rng.integers(1, 60, (k, 2)).tolist())
            first = cfg["arm_sizes"][0]
        else:
            cfg.update(mode="normal", within_vars=[abs(fuzz_number(rng)) for _ in range(k)])
            first = cfg["within_vars"]
        if rng.random() < 0.25:
            first[0] = fuzz_number(rng)
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, "simulate", "--config", str(path))
        assert code in (0, 2, 3)
        if code == 0:
            strict_json(out)
        else:
            assert out == ""
        if code == 3:
            assert err.startswith("numeric failure: ")

    def test_directory_named_like_a_config_is_passed_over(self, capsys, tmp_path, monkeypatch):
        expected = run(capsys, "simulate", "--config", "smoke", "--reps", "2")
        (tmp_path / "smoke").mkdir()
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "simulate", "--config", "smoke", "--reps", "2") == expected

    def test_unknown_config_exits_2(self, capsys):
        code, _, err = run(capsys, "simulate", "--config", "no_such_config")
        assert code == 2
        assert "error:" in err

    def test_invalid_config_field_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "name": "bad",
                    "mode": "smd",
                    "beta": 0.5,
                    "k": 5,
                    "n_per_arm": 20,
                    "tau": 0.3,
                    "bogus_field": 1,
                }
            )
        )
        code, _, err = run(capsys, "simulate", "--config", str(bad))
        assert code == 2
        assert "bogus_field" in err

    def test_bad_threads_exits_2(self, capsys):
        code, _, _ = run(capsys, "simulate", "--config", "smoke", "--threads", "0")
        assert code == 2


def no_run(*args, **kwargs):
    raise AssertionError("bad input must stop the run before any scenario or analysis")


def _non_utf8(tmp_path, name, head):
    p = tmp_path / name
    p.write_bytes(head + b"\xff\xfe\n")
    return str(p)


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["analyze", "--input", _non_utf8(tmp, "d.csv", b"yi,vi\n0.1,0.2\n")],
        lambda tmp: ["simulate", "--config", str(tmp)],
        lambda tmp: ["simulate", "--config", _non_utf8(tmp, "c.json", b"{")],
        lambda tmp: [
            "simulate", "--config", "smoke", "--out", write_csv(tmp, "taken", "a file"),
        ],
    ],
    ids=["non_utf8_csv", "config_is_directory", "non_utf8_config", "out_is_a_file"],
)
def test_unreadable_or_unwritable_files_exit_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setattr("cvmeta.cli.run_scenario", no_run)
    code, out, err = run(capsys, *argv(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


SMD_CONFIG = {"name": "bad", "mode": "smd", "beta": 0.5, "tau": 0.3, "k": 3, "n_per_arm": 5,
              "reps": 2, "seed": 3, "methods": ["wald"]}


ABSENT = object()


def simulate_with(**changes):
    """argv of a simulate run on a small smd config with some fields replaced.

    An ``arm_totals`` or ``arm_sizes`` change replaces ``k`` and ``n_per_arm``;
    a field changed to ``ABSENT`` is left out.
    """
    def argv(tmp_path):
        cfg = dict(SMD_CONFIG)
        if changes.keys() & {"arm_totals", "arm_sizes"}:
            del cfg["k"], cfg["n_per_arm"]
        cfg.update(changes)
        cfg = {f: v for f, v in cfg.items() if v is not ABSENT}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))  # inf and nan are written as Infinity and NaN
        return ["simulate", "--config", str(path)]

    return argv


@pytest.mark.parametrize(
    "name",
    [lambda tmp: "../escaped", lambda tmp: "", lambda tmp: "..", lambda tmp: "a/b",
     lambda tmp: str(tmp / "escaped")],
    ids=["parent", "empty", "dot_dot", "subdirectory", "absolute"],
)
def test_out_refuses_a_name_that_is_not_a_file_name(capsys, tmp_path, monkeypatch, name):
    # the name is the stem of both --out files, so it must not leave the directory
    monkeypatch.setattr("cvmeta.cli.run_scenario", no_run)
    argv = simulate_with(name=name(tmp_path))(tmp_path)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out" / "res"))
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert [p.name for p in tmp_path.rglob("*")] == ["bad.json"]


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("field", ["reps", "seed", "k", "n_per_arm", "arm_totals"])
def test_non_finite_integer_field_exits_2(capsys, tmp_path, monkeypatch, field, value):
    monkeypatch.setattr("cvmeta.cli.run_scenario", no_run)
    listed = field in ("k", "arm_totals")
    argv = simulate_with(**{field: [value] if listed else value})(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    where = f"{field}[0]" if listed else field
    assert err.startswith(f"error: {where}: expected an integer, got ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (simulate_with(reps=0), "reps must be at least 1, got 0"),
        (simulate_with(seed=-1), "seed must fit in 64 unsigned bits, got -1"),
        (simulate_with(tau=-0.1), "tau must be nonnegative and finite, got -0.1"),
        (simulate_with(tau=-0.0), "tau must be nonnegative and finite, got -0.0"),
        (simulate_with(tau=[0.2, -0.0]), "tau must be nonnegative and finite, got -0.0"),
        (simulate_with(k=1), "a scenario needs at least 2 studies, got 1"),
        (simulate_with(n_per_arm=1), "got (1, 1)"),
        (simulate_with(arm_totals=[2]), "total sample size must exceed 2, got 2"),
        (simulate_with(arm_sizes=[[1, 1], [10, 10]]), "got (1, 1)"),
        (simulate_with(methods=[]), "at least one method is required"),
        (simulate_with(methods=["boot"]), "unknown method 'boot'"),
        (lambda tmp: ["simulate", "--config", "smoke", "--reps", "0"],
         "reps must be at least 1, got 0"),
        (lambda tmp: ["table2", "--reps", "0"], "reps must be at least 1, got 0"),
        (lambda tmp: ["analyze", "--input", HSSP_CSV, "--method", ","],
         "at least one method is required"),
        # one alpha rule and one message, from the flag and from a config
        (lambda tmp: ["analyze", "--input", HSSP_CSV, "--alpha", "1.5"],
         "error: alpha must be inside (0, 1), got 1.5"),
        (simulate_with(alpha=1.5), "error: alpha must be inside (0, 1), got 1.5"),
        # 0 < alpha < 1, but 1 - alpha/2 rounds to 1 or to 0.5: z would be inf or 0
        (lambda tmp: ["analyze", "--input", HSSP_CSV, "--alpha", "1.1102230246251565e-16"],
         "error: alpha must be inside (0, 1), got 1.1102230246251565e-16"),
        (lambda tmp: ["analyze", "--input", HSSP_CSV, "--alpha", "0.9999999999999999"],
         "error: alpha must be inside (0, 1), got 0.9999999999999999"),
        (simulate_with(alpha=2.0**-53),
         "error: alpha must be inside (0, 1), got 1.1102230246251565e-16"),
        # JSON integers beyond the float range once escaped as a bare OverflowError
        (simulate_with(beta=10**400), "error: beta[0]: expected a number in the float range"),
        (simulate_with(tau=[0.2, 10**400]),
         "error: tau[1]: expected a number in the float range"),
        (simulate_with(alpha=10**400), "error: alpha: expected a number in the float range"),
        (simulate_with(n_per_arm=10**400),
         "error: n_per_arm: expected a number in the float range"),
        (simulate_with(k=[3, 10**400]), "error: k[1]: expected a number in the float range"),
        (simulate_with(k=[3, 2**64]), f"error: k[1]: expected at most {sys.maxsize} studies"),
        (simulate_with(arm_sizes=[[5, 5], [5, 10**400]]),
         "error: arm_sizes[1][1]: expected a number in the float range"),
        (simulate_with(beta=ABSENT), "beta: is required"),
        (simulate_with(tau=[]), "tau: must not be empty"),
        (simulate_with(mode="bayes"), "mode: expected 'smd' or 'normal', got 'bayes'"),
        (simulate_with(methods="wald"), "methods: expected a list, got 'wald'"),
        (simulate_with(arm_sizes=[]), "arm_sizes: expected a non-empty list of [n1, n2] pairs"),
        (lambda tmp: ["simulate", "--config", write_csv(tmp, "list.json", "[1, 2]")],
         "list.json: top level must be an object"),
    ],
    ids=["reps", "seed", "tau", "tau_negative_zero", "tau_list_negative_zero", "k", "n_per_arm", "arm_totals", "arm_sizes", "no_methods",
         "unknown_method", "simulate_reps_flag", "table2_reps_flag", "analyze_no_method",
         "analyze_alpha_flag", "alpha", "analyze_alpha_tiny", "analyze_alpha_near_one",
         "alpha_tiny", "beta_huge_integer", "tau_huge_integer", "alpha_huge_integer",
         "n_per_arm_huge_integer", "k_huge_integer", "k_beyond_index", "arm_sizes_huge_integer",
         "beta_absent", "tau_empty", "mode", "methods_not_list",
         "arm_sizes_empty", "top_level_not_object"],
)
def test_out_of_range_setting_exits_2(capsys, tmp_path, monkeypatch, argv, message):
    # each setting is checked once: its JSON shape by load_config or expand_config,
    # its range by Scenario, intervals._check_alpha, split_arms or normalize_methods
    for runner in ("run_scenario", "measure_summary", "analyze_dataset"):
        monkeypatch.setattr(f"cvmeta.cli.{runner}", no_run)
    code, out, err = run(capsys, *argv(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


class TestTable2:
    def test_row_count_and_schema(self, capsys):
        code, out, _ = run(capsys, "table2", "--reps", "5", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "beta,tau,measure,min,q1,median,q3,max"
        assert len(lines) == 1 + 9 * 4
        measures = {ln.split(",")[2] for ln in lines[1:]}
        assert measures == {"I2", "CV_B", "M1", "M2"}

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "table2", "--reps", "5", "--seed", "1")
        _, out2, _ = run(capsys, "table2", "--reps", "5", "--seed", "1")
        assert out1 == out2

    def test_bad_reps_exits_2(self, capsys):
        code, _, _ = run(capsys, "table2", "--reps", "0")
        assert code == 2

    def test_defaults_come_from_the_shipped_config(self, capsys):
        code, out, _ = run(capsys, "table2")
        assert code == 0
        assert run(capsys, "table2", "--reps", "1000", "--seed", "9")[1] == out

    def test_reads_the_shipped_config_whatever_the_working_directory(
            self, capsys, tmp_path, monkeypatch):
        (tmp_path / "table2").mkdir()
        (tmp_path / "table2.json").write_text("{}")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "table2", "--reps", "2", "--seed", "4")
        assert code == 0 and len(out.splitlines()) == 1 + 9 * 4


def test_simulate_accepts_arm_pairs_that_arm_totals_give(capsys, tmp_path):
    # arm_totals [3] splits into (2, 1); the same pair given directly runs too
    code, _, err = run(capsys, *simulate_with(arm_sizes=[[2, 1], [10, 10]])(tmp_path))
    assert code == 0, err


def test_analyze_help_names_every_method_alias(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one help line, so no alias is wrapped
    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    words = set(re.split(r"[\s,]+", capsys.readouterr().out))
    assert set(METHOD_ALIASES) <= words


def test_format_choices_are_the_renderer_keys():
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    fmt = next(a for a in subparsers.choices["analyze"]._actions if a.dest == "format")
    assert tuple(fmt.choices) == tuple(_RENDERERS) == ("json", "csv", "text")
    assert fmt.default in _RENDERERS


def test_parser_built_once_keeps_its_defaults(capsys):
    assert build_parser() is build_parser()
    assert run(capsys, "table2", "--reps", "2", "--seed", "4")[0] == 0
    args = build_parser().parse_args(["table2"])
    assert (args.reps, args.seed) == (None, None)


IMPORT_COST_SCRIPT = """
import contextlib, io, sys
import cvmeta.cli
loaded = [m for m in ("scipy.special", "concurrent.futures.process") if m in sys.modules]
assert not loaded, f"import cvmeta.cli loaded {loaded}"
with contextlib.redirect_stdout(io.StringIO()):
    assert cvmeta.cli.main(["table2", "--reps", "2"]) == 0
assert "scipy.special" not in sys.modules, "table2 loaded scipy.special"
from cvmeta.numerics import norm_quantile
print(repr(norm_quantile(0.975)))
"""


def test_cli_import_and_table2_leave_scipy_special_unloaded():
    proc = run_python("-c", IMPORT_COST_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert abs(float(proc.stdout) - 1.959963984540054) < 1e-12


POOL_IMPORT_SCRIPT = """
import concurrent.futures, contextlib, io, sys
from concurrent.futures.process import ProcessPoolExecutor
from cvmeta.cli import main

loaded = []

class Recording(ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        loaded.append("scipy.special" in sys.modules)
        super().__init__(*args, **kwargs)

concurrent.futures.ProcessPoolExecutor = Recording
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["simulate", "--config", "table4_zhu", "--reps", "2", "--threads", "2"]) == 0
print(loaded)
"""


def test_pool_workers_fork_after_scipy_special_is_loaded():
    # a worker forked without it imports scipy.special itself, in every pool
    proc = run_python("-c", POOL_IMPORT_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([True] * 4)
