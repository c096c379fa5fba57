import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import cvmeta
from cvmeta.cli import build_parser, main
from cvmeta.datasets import cohen_smd, data_path
from cvmeta.errors import NumericFailureError

HSSP_CSV = str(data_path("hssp.csv"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


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

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "--input", str(tmp_path / "nope.csv"))
        assert code == 2
        assert "error:" in err

    def test_malformed_rows_exit_2(self, capsys, tmp_path):
        bad = write_csv(tmp_path, "bad.csv", "yi,vi\n0.5,0.2\noops,0.3\n")
        code, _, err = run(capsys, "analyze", "--input", bad)
        assert code == 2
        assert "row" in err and "yi" in err

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

    def test_overrides_echoed(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--config", "smoke", "--reps", "5", "--seed", "123"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["reps"] == 5
        assert doc["config"]["seed"] == 123

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


def simulate_with(**changes):
    """argv of a simulate run on a small smd config with some fields replaced.

    An ``arm_totals`` change replaces ``k`` and ``n_per_arm``.
    """
    def argv(tmp_path):
        cfg = dict(SMD_CONFIG)
        if "arm_totals" in changes:
            del cfg["k"], cfg["n_per_arm"]
        cfg.update(changes)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))  # inf and nan are written as Infinity and NaN
        return ["simulate", "--config", str(path)]

    return argv


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
        (simulate_with(methods=[]), "at least one method is required"),
        (simulate_with(methods=["boot"]), "unknown method 'boot'"),
        (lambda tmp: ["simulate", "--config", "smoke", "--reps", "0"],
         "reps must be at least 1, got 0"),
        (lambda tmp: ["table2", "--reps", "0"], "reps must be at least 1, got 0"),
        (lambda tmp: ["analyze", "--input", HSSP_CSV, "--method", ","],
         "at least one method is required"),
    ],
    ids=["reps", "seed", "tau", "tau_negative_zero", "tau_list_negative_zero", "k", "n_per_arm", "arm_totals", "no_methods",
         "unknown_method", "simulate_reps_flag", "table2_reps_flag", "analyze_no_method"],
)
def test_out_of_range_setting_exits_2(capsys, tmp_path, monkeypatch, argv, message):
    # each range is checked once, by Scenario, split_arms or normalize_methods
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


def test_parser_built_once_keeps_its_defaults(capsys):
    assert build_parser() is build_parser()
    assert run(capsys, "table2", "--reps", "2", "--seed", "4")[0] == 0
    args = build_parser().parse_args(["table2"])
    assert (args.reps, args.seed) == (1000, 9)


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
    src = str(Path(cvmeta.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_COST_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert abs(float(proc.stdout) - 1.959963984540054) < 1e-12
