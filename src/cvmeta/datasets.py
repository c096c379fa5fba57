"""Bundled example data, CSV ingestion, and simulation configs.

Three published meta-analyses drive the worked examples and the
simulation studies: the Hospital Stay of Stroke Patients data (Normand,
Stat Med 1999; nine two-arm studies, shipped as a study-level fixture),
the Writing to Learn Interventions data (Bangert-Drowns et al., Rev
Educ Res 2004; 48 studies, used through its sample sizes), and a
transformed-incidence-rate analysis (Zhu et al. 2020) used through its
35 within-study variances.  The stroke and writing datasets are
distributed with the R metafor package as dat.normand1999 and
dat.bangertdrowns2004.

The pooled effects, sample sizes and within-study variances of those
analyses are published settings, and the shipped configs
``table4_hssp``, ``table4_wli`` and ``table4_zhu`` under
``data/configs`` are their one source: load them with
:func:`load_config` and turn them into scenarios with
:func:`expand_config`.

CSV ingestion accepts either precomputed effects (columns yi, vi) or
two-arm summaries (m1, sd1, n1, m2, sd2, n2), from which pooled-SD
standardized mean differences are computed with the same variance
formula the simulator uses.
"""

from __future__ import annotations

import csv
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

from .core import MetaDataset
from .errors import ConfigError, DataFormatError
from .simulator import Scenario, normalize_method

__all__ = [
    "cohen_smd",
    "split_arms",
    "read_effects_csv",
    "load_hssp",
    "data_path",
    "config_path",
    "list_configs",
    "load_config",
    "expand_config",
]

_EFFECT_COLS = ("yi", "vi")
_TWO_ARM_COLS = ("m1", "sd1", "n1", "m2", "sd2", "n2")


def cohen_smd(n1, m1, sd1, n2, m2, sd2):
    """Pooled-SD standardized mean difference and its variance.

    Returns (y, v) with y = (m1 - m2) / sp, sp the pooled standard
    deviation on n1 + n2 - 2 degrees of freedom, and
    v = 1/n1 + 1/n2 + y^2 / (2 (n1 + n2)).
    """
    if n1 < 2 or n2 < 2:
        raise DataFormatError(f"arm sizes must be at least 2, got {(n1, n2)}")
    if sd1 < 0 or sd2 < 0:
        raise DataFormatError(f"standard deviations must be nonnegative, got {(sd1, sd2)}")
    sp2 = ((n1 - 1) * sd1 * sd1 + (n2 - 1) * sd2 * sd2) / (n1 + n2 - 2)
    if sp2 <= 0:
        raise DataFormatError("pooled standard deviation is zero")
    y = (m1 - m2) / math.sqrt(sp2)
    v = 1.0 / n1 + 1.0 / n2 + y * y / (2.0 * (n1 + n2))
    return y, v


def split_arms(total: int) -> tuple:
    """Split a total sample size into two arms, larger arm first."""
    total = int(total)
    if total <= 2:
        raise ConfigError(f"total sample size must exceed 2, got {total}")
    half = total // 2
    return total - half, half


def _parse_float(raw, row_num, col):
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise DataFormatError(
            f"row {row_num}, column {col!r}: could not parse {raw!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise DataFormatError(f"row {row_num}, column {col!r}: non-finite value {raw!r}")
    return value


def read_effects_csv(path) -> MetaDataset:
    """Read study-level data from CSV.

    The header decides the schema: columns (yi, vi) are taken as
    precomputed effects and within-study variances; columns
    (m1, sd1, n1, m2, sd2, n2) are two-arm summaries converted through
    cohen_smd.  Other columns, such as a study label, are ignored; lines
    starting with '#' are comments.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise DataFormatError(f"{path}: no data rows")
    reader = csv.DictReader(lines)
    fields = [f.strip().lower() for f in reader.fieldnames or []]
    rename = dict(zip(reader.fieldnames or [], fields))

    if all(c in fields for c in _EFFECT_COLS):
        schema = _EFFECT_COLS
    elif all(c in fields for c in _TWO_ARM_COLS):
        schema = _TWO_ARM_COLS
    else:
        raise DataFormatError(
            f"{path}: header must contain either columns {_EFFECT_COLS} or "
            f"{_TWO_ARM_COLS}; found {tuple(fields)}"
        )

    effects, variances = [], []
    for row_num, raw_row in enumerate(reader, start=2):
        # DictReader files surplus fields under the key None and pads a short row with None
        if None in raw_row or None in raw_row.values():
            raise DataFormatError(f"row {row_num}: wrong number of fields")
        row = {rename[k]: v for k, v in raw_row.items()}
        vals = {c: _parse_float(row.get(c), row_num, c) for c in schema}
        if schema is _EFFECT_COLS:
            y, v = vals["yi"], vals["vi"]
            if v <= 0:
                raise DataFormatError(f"row {row_num}, column 'vi': must be positive, got {v}")
        else:
            for c in ("n1", "n2"):
                if vals[c] != int(vals[c]):
                    raise DataFormatError(
                        f"row {row_num}, column {c!r}: expected an integer, got {vals[c]}"
                    )
            try:
                y, v = cohen_smd(
                    int(vals["n1"]), vals["m1"], vals["sd1"],
                    int(vals["n2"]), vals["m2"], vals["sd2"],
                )
            except DataFormatError as exc:
                raise DataFormatError(f"row {row_num}: {exc}") from None
        effects.append(y)
        variances.append(v)

    return MetaDataset(np.array(effects), np.array(variances))


def data_path(name: str) -> Path:
    """Path of a bundled data file."""
    return Path(str(resources.files("cvmeta") / "data" / name))


def config_path(name: str) -> Path:
    """Path of a shipped simulation config; accepts bare names."""
    if not name.endswith(".json"):
        name = name + ".json"
    return Path(str(resources.files("cvmeta") / "data" / "configs" / name))


def list_configs() -> tuple:
    root = resources.files("cvmeta") / "data" / "configs"
    return tuple(sorted(p.name for p in Path(str(root)).glob("*.json")))


def load_hssp() -> MetaDataset:
    """The nine-study Hospital Stay of Stroke Patients fixture."""
    return read_effects_csv(data_path("hssp.csv"))


def _cfg_err(field: str, message: str):
    raise ConfigError(f"{field}: {message}")


def _as_number(cfg, field, default=None, minimum=None, integer=False):
    if field not in cfg:
        if default is None:
            _cfg_err(field, "is required")
        return default
    value = cfg[field]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _cfg_err(field, f"expected a number, got {value!r}")
    if integer and int(value) != value:
        _cfg_err(field, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _cfg_err(field, f"must be at least {minimum}, got {value!r}")
    return int(value) if integer else float(value)


def _as_number_list(cfg, field, minimum=None, integer=False):
    value = cfg[field]
    if not isinstance(value, list):
        value = [value]
    if not value:
        _cfg_err(field, "must not be empty")
    out = []
    for i, x in enumerate(value):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            _cfg_err(f"{field}[{i}]", f"expected a number, got {x!r}")
        if integer and int(x) != x:
            _cfg_err(f"{field}[{i}]", f"expected an integer, got {x!r}")
        if minimum is not None and x < minimum:
            _cfg_err(f"{field}[{i}]", f"must be at least {minimum}, got {x!r}")
        out.append(int(x) if integer else float(x))
    return out


def load_config(source) -> dict:
    """Load a simulation config from a path or shipped-config name."""
    path = Path(source)
    if not path.exists():
        shipped = config_path(str(source))
        if shipped.exists():
            path = shipped
        else:
            raise ConfigError(
                f"config {source!r} not found; shipped configs: "
                + ", ".join(list_configs())
            )
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    cfg.setdefault("name", path.stem)
    return cfg


def expand_config(cfg: dict, reps=None, seed=None) -> tuple:
    """Expand a config dict into concrete scenarios.

    ``tau`` (and, with ``n_per_arm``, ``k``) may be lists; the cross
    product defines one scenario per setting.  ``reps``/``seed``
    override the config when given.  Returns (name, rows) with rows a
    list of (setting_label_dict, Scenario).
    """
    known = {
        "name", "mode", "beta", "tau", "k", "n_per_arm", "arm_totals",
        "arm_sizes", "within_vars", "reps", "alpha", "methods", "seed",
    }
    for key in cfg:
        if key not in known:
            _cfg_err(key, "unknown field")

    name = str(cfg.get("name", "scenario"))
    mode = cfg.get("mode")
    if mode not in ("smd", "normal"):
        _cfg_err("mode", f"expected 'smd' or 'normal', got {mode!r}")
    beta = _as_number(cfg, "beta")
    if "tau" not in cfg:
        _cfg_err("tau", "is required")
    taus = _as_number_list(cfg, "tau", minimum=0.0)
    reps_val = int(reps) if reps is not None else _as_number(cfg, "reps", 2000, 1, integer=True)
    if reps_val < 1:
        _cfg_err("reps", f"must be at least 1, got {reps_val}")
    alpha = _as_number(cfg, "alpha", 0.05)
    seed_val = int(seed) if seed is not None else _as_number(cfg, "seed", 0, 0, integer=True)
    methods = cfg.get("methods", ["propimp", "alpha-adj", "wald"])
    if not isinstance(methods, list) or not methods:
        _cfg_err("methods", "expected a non-empty list")
    try:
        method_tags = tuple(dict.fromkeys(normalize_method(m) for m in methods))
    except ConfigError as exc:
        raise ConfigError(f"methods: {exc}") from None

    common = dict(beta=beta, reps=reps_val, methods=method_tags, alpha=alpha, seed=seed_val)
    rows = []
    if mode == "normal":
        for field in ("k", "n_per_arm", "arm_totals", "arm_sizes"):
            if field in cfg:
                _cfg_err(field, "not allowed in normal mode")
        if "within_vars" not in cfg:
            _cfg_err("within_vars", "is required in normal mode")
        vs = tuple(_as_number_list(cfg, "within_vars"))
        for tau in taus:
            label = {"k": len(vs), "beta": beta, "tau": tau}
            rows.append((label, Scenario(within_vars=vs, tau=tau, **common)))
        return name, rows

    if "within_vars" in cfg:
        _cfg_err("within_vars", "not allowed in smd mode")
    size_fields = [f for f in ("n_per_arm", "arm_totals", "arm_sizes") if f in cfg]
    if len(size_fields) != 1:
        _cfg_err("mode", "smd mode needs exactly one of n_per_arm, arm_totals, arm_sizes")
    if size_fields[0] == "n_per_arm":
        n = _as_number(cfg, "n_per_arm", minimum=2, integer=True)
        if "k" not in cfg:
            _cfg_err("k", "is required with n_per_arm")
        ks = _as_number_list(cfg, "k", minimum=2, integer=True)
        for k in ks:
            sizes = tuple((n, n) for _ in range(k))
            for tau in taus:
                label = {"k": k, "beta": beta, "tau": tau}
                rows.append((label, Scenario(arm_sizes=sizes, tau=tau, **common)))
        return name, rows

    if "k" in cfg:
        _cfg_err("k", "only allowed with n_per_arm")
    if size_fields[0] == "arm_totals":
        totals = _as_number_list(cfg, "arm_totals", minimum=3, integer=True)
        sizes = tuple(split_arms(t) for t in totals)
    else:
        raw = cfg["arm_sizes"]
        if not isinstance(raw, list) or not raw:
            _cfg_err("arm_sizes", "expected a non-empty list of [n1, n2] pairs")
        sizes = []
        for i, pair in enumerate(raw):
            if (not isinstance(pair, list)) or len(pair) != 2:
                _cfg_err(f"arm_sizes[{i}]", f"expected an [n1, n2] pair, got {pair!r}")
            for j, x in enumerate(pair):
                if isinstance(x, bool) or not isinstance(x, int) or x < 2:
                    _cfg_err(f"arm_sizes[{i}][{j}]", f"expected an integer arm size >= 2, got {x!r}")
            sizes.append((pair[0], pair[1]))
        sizes = tuple(sizes)
    for tau in taus:
        label = {"k": len(sizes), "beta": beta, "tau": tau}
        rows.append((label, Scenario(arm_sizes=sizes, tau=tau, **common)))
    return name, rows
