import json
import math

import numpy as np
import pytest

from cvmeta.datasets import (
    cohen_smd,
    config_path,
    data_path,
    expand_config,
    list_configs,
    load_config,
    load_hssp,
    read_effects_csv,
    split_arms,
)
from cvmeta.errors import ConfigError, DataFormatError
from cvmeta.simulator import Scenario, normalize_method


class TestCohenSmd:
    def test_unit_pooled_sd(self):
        y, v = cohen_smd(10, 1.0, 1.0, 10, 0.0, 1.0)
        assert abs(y - 1.0) < 1e-15
        assert abs(v - (0.1 + 0.1 + 1.0 / 40.0)) < 1e-15

    def test_pooled_sd_weights_by_df(self):
        y, _ = cohen_smd(3, 1.0, 2.0, 11, 0.0, 1.0)
        sp2 = (2 * 4.0 + 10 * 1.0) / 12.0
        assert abs(y - 1.0 / math.sqrt(sp2)) < 1e-15

    def test_validation(self):
        with pytest.raises(DataFormatError):
            cohen_smd(1, 1.0, 1.0, 10, 0.0, 1.0)
        with pytest.raises(DataFormatError):
            cohen_smd(10, 1.0, -1.0, 10, 0.0, 1.0)
        with pytest.raises(DataFormatError):
            cohen_smd(10, 1.0, 0.0, 10, 0.0, 0.0)


class TestSplitArms:
    def test_even_and_odd(self):
        assert split_arms(48) == (24, 24)
        assert split_arms(21) == (11, 10)

    def test_too_small(self):
        with pytest.raises(ConfigError):
            split_arms(2)

    @pytest.mark.parametrize("total", [5.7, 2.5, 7.0, "7"])
    def test_non_integer_refused(self, total):
        with pytest.raises(ConfigError, match="^total sample size must be an integer, got "):
            split_arms(total)


class TestNormalizeMethod:
    def test_aliases(self):
        assert normalize_method("wt") == "WALD"
        assert normalize_method("Alpha-Adj") == "ALPHA_ADJ"
        assert normalize_method("PROPIMP") == "PROPIMP"

    def test_unknown(self):
        with pytest.raises(ConfigError):
            normalize_method("boot")


class TestReadEffectsCsv:
    def test_effect_columns_with_labels(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("# comment\nStudy,YI,VI\na,0.5,0.2\n\nb,0.7,0.3\n")
        d = read_effects_csv(p)
        assert d.k == 2
        assert np.allclose(d.effects, [0.5, 0.7])

    def test_two_arm_columns(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("n1,m1,sd1,n2,m2,sd2\n10,1.0,1.0,10,0.0,1.0\n10,0.5,1.0,10,0.0,1.0\n")
        d = read_effects_csv(p)
        y, v = cohen_smd(10, 1.0, 1.0, 10, 0.0, 1.0)
        assert abs(d.effects[0] - y) < 1e-15
        assert abs(d.within_vars[0] - v) < 1e-15

    def test_unknown_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("effect,var\n0.5,0.2\n0.7,0.3\n")
        with pytest.raises(DataFormatError):
            read_effects_csv(p)

    def test_row_diagnostics_carry_position(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("yi,vi\n0.5,0.2\n0.7,oops\n")
        with pytest.raises(DataFormatError, match="row 3.*'vi'"):
            read_effects_csv(p)

    @pytest.mark.parametrize(
        "text", ["# c\n# c\nyi,vi\n0.1,0.2\n0.3,abc\n", "yi,vi\n\n0.1,0.2\n\n0.3,abc\n"],
        ids=["comments", "blank_lines"],
    )
    def test_row_number_is_the_file_line(self, tmp_path, text):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(DataFormatError, match="^row 5, column 'vi'"):
            read_effects_csv(p)

    def test_short_row_names_its_file_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("# c\nyi,vi\n0.1,0.2\n0.3\n")
        with pytest.raises(DataFormatError, match="^row 4: wrong number of fields"):
            read_effects_csv(p)

    @pytest.mark.parametrize("header", ["yi,vi,yi", "yi,vi, YI ", "n1,m1,sd1,n2,m2,sd2,N1"])
    def test_repeated_column_rejected(self, tmp_path, header):
        p = tmp_path / "d.csv"
        width = header.count(",") + 1
        p.write_text(header + "\n" + ",".join(["10"] * width) + "\n")
        with pytest.raises(DataFormatError, match="repeated column names"):
            read_effects_csv(p)

    def test_unnamed_columns_may_repeat(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("yi,vi,,\n0.5,0.2,,\n0.7,0.3,,\n")
        assert read_effects_csv(p).effects.tolist() == [0.5, 0.7]

    def test_surplus_field_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("yi,vi\n0.5,0.2\n0.7,0.2,9\n0.1,0.3\n")
        with pytest.raises(DataFormatError, match="row 3: wrong number of fields"):
            read_effects_csv(p)

    def test_non_integer_arm_size(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("n1,m1,sd1,n2,m2,sd2\n10.5,1.0,1.0,10,0.0,1.0\n10,0.5,1.0,10,0.0,1.0\n")
        with pytest.raises(DataFormatError, match="'n1'"):
            read_effects_csv(p)

    @pytest.mark.parametrize("raw", ["inf", "-Infinity", "nan", "1e999"])
    def test_non_finite_value_rejected(self, tmp_path, raw):
        p = tmp_path / "d.csv"
        p.write_text(f"yi,vi\n0.5,0.2\n{raw},0.3\n")
        with pytest.raises(DataFormatError, match=f"^row 3, column 'yi': non-finite value '{raw}'$"):
            read_effects_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("# only a comment\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            read_effects_csv(p)


class TestBundledData:
    def test_hssp_fixture(self):
        d = load_hssp()
        assert d.k == 9
        assert all(v > 0 for v in d.within_vars)
        assert abs(d.effects[0] - (-0.3551696409400892)) < 1e-15

    def test_source_constants(self):
        hssp, wli, zhu = (load_config(f"table4_{n}") for n in ("hssp", "wli", "zhu"))
        assert (hssp["beta"], wli["beta"], zhu["beta"]) == (0.537, 0.222, 2.225)
        assert len(hssp["arm_totals"]) == 9
        assert len(wli["arm_totals"]) == 48
        assert len(zhu["within_vars"]) == 35

    def test_paths_exist(self):
        assert data_path("hssp.csv").is_file()
        assert config_path("smoke").is_file()
        names = list_configs()
        for expected in (
            "figure3_beta02.json",
            "smoke.json",
            "table4_hssp.json",
            "table4_wli.json",
            "table4_zhu.json",
        ):
            assert expected in names


class TestConfigs:
    def test_load_by_name_and_path(self):
        by_name = load_config("smoke")
        by_path = load_config(config_path("smoke"))
        assert by_name == by_path
        assert by_name["name"] == "smoke"

    def test_unknown_name_lists_shipped(self):
        with pytest.raises(ConfigError, match="smoke.json"):
            load_config("missing_config")

    def test_byte_order_mark_is_ignored(self, tmp_path):
        p = tmp_path / "smoke_bom.json"
        p.write_bytes(b"\xef\xbb\xbf" + config_path("smoke").read_bytes())
        assert load_config(p) == load_config("smoke")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(p)

    def test_expand_zhu_grid(self):
        cfg = load_config("table4_zhu")
        scenarios = expand_config(cfg)
        assert len(scenarios) == 4
        taus = [sc.tau for sc in scenarios]
        assert taus == [0.2, 0.4, 0.6, 0.8]
        for sc in scenarios:
            assert sc.k == 35 and sc.arm_sizes is None
            assert sc.within_vars == tuple(cfg["within_vars"])

    def test_expand_figure3_grid(self):
        scenarios = expand_config(load_config("figure3_beta02"))
        assert len(scenarios) == 5 * 4
        sc = scenarios[0]
        assert sc.within_vars is None
        assert sc.arm_sizes == ((30, 30),) * sc.k
        assert sc.methods == ("PROPIMP",)

    def test_expand_table2_grid(self):
        scenarios = expand_config(load_config("table2"))
        assert [(sc.beta, sc.tau) for sc in scenarios] == [
            (b, t) for b in (0.2, 0.5, 0.8) for t in (0.0, 0.4, 0.8)]
        for sc in scenarios:
            assert sc.k == 10 and sc.arm_sizes == ((10, 10),) * 10
            assert (sc.reps, sc.seed) == (1000, 9)

    def test_beta_list_crosses_outermost(self):
        cfg = {"mode": "smd", "beta": [0.1, 0.9], "k": [3, 4], "n_per_arm": 5, "tau": [0.0, 0.5]}
        scenarios = expand_config(cfg)
        assert [(sc.beta, sc.k, sc.tau) for sc in scenarios] == [
            (b, k, t) for b in (0.1, 0.9) for k in (3, 4) for t in (0.0, 0.5)]
        assert [sc.beta for sc in scenarios] == [0.1] * 4 + [0.9] * 4

    def test_expand_arm_totals(self):
        cfg = load_config("table4_hssp")
        sc = expand_config(cfg)[0]
        assert sc.arm_sizes == tuple(split_arms(t) for t in cfg["arm_totals"])

    def test_overrides(self):
        sc = expand_config(load_config("smoke"), reps=33, seed=77)[0]
        assert sc.reps == 33 and sc.seed == 77

    def test_override_skips_the_field_it_replaces(self):
        cfg = dict(load_config("smoke"), reps="x", seed="x")
        sc = expand_config(cfg, reps=5, seed=3)[0]
        assert (sc.reps, sc.seed) == (5, 3)
        with pytest.raises(ConfigError, match="reps: expected a number"):
            expand_config(cfg, seed=3)

    def test_absent_fields_take_the_scenario_defaults(self):
        cfg = {"mode": "normal", "beta": 0.5, "tau": 0.3, "within_vars": [0.1, 0.2]}
        sc = expand_config(cfg)[0]
        assert sc == Scenario(beta=0.5, tau=0.3, within_vars=(0.1, 0.2))
        assert (sc.reps, sc.alpha, sc.seed) == (2000, 0.05, 0)
        assert sc.methods == ("PROPIMP", "ALPHA_ADJ", "WALD")

    def test_unknown_field_rejected(self):
        cfg = load_config("smoke")
        cfg["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            expand_config(cfg)

    def test_mode_specific_fields_enforced(self):
        cfg = load_config("table4_zhu")
        cfg["n_per_arm"] = 10
        with pytest.raises(ConfigError, match="n_per_arm"):
            expand_config(cfg)
        smd = load_config("smoke")
        del smd["n_per_arm"]
        with pytest.raises(ConfigError, match="n_per_arm, arm_totals, arm_sizes"):
            expand_config(smd)

    def test_k_requires_n_per_arm(self):
        cfg = {
            "name": "x", "mode": "smd", "beta": 0.5, "tau": 0.3,
            "k": 4, "arm_totals": [20, 20, 20, 20],
        }
        with pytest.raises(ConfigError, match="k: only allowed"):
            expand_config(cfg)

    def test_arm_sizes_pairs_validated(self):
        cfg = {
            "name": "x", "mode": "smd", "beta": 0.5, "tau": 0.3,
            "arm_sizes": [[10, 10], [10]],
        }
        with pytest.raises(ConfigError, match=r"arm_sizes\[1\]"):
            expand_config(cfg)

    def test_methods_deduped_and_normalized(self):
        cfg = load_config("smoke")
        cfg["methods"] = ["wald", "WT", "propimp"]
        assert expand_config(cfg)[0].methods == ("WALD", "PROPIMP")
