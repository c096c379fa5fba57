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
from .simulator import SIM_METHODS, Scenario

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
        text = path.read_text(encoding="utf-8-sig")
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


def _number(x, field, integer):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{field}: expected a number, got {x!r}")
    # a float's is_integer() is False for inf and nan
    if integer and not (isinstance(x, int) or x.is_integer()):
        raise ConfigError(f"{field}: expected an integer, got {x!r}")
    return int(x) if integer else float(x)


def _as_number(cfg, field, default=None, integer=False):
    if field not in cfg:
        if default is None:
            raise ConfigError(f"{field}: is required")
        return default
    return _number(cfg[field], field, integer)


def _as_number_list(cfg, field, integer=False):
    if field not in cfg:
        raise ConfigError(f"{field}: is required")
    value = cfg[field]
    if not isinstance(value, list):
        value = [value]
    if not value:
        raise ConfigError(f"{field}: must not be empty")
    return [_number(x, f"{field}[{i}]", integer) for i, x in enumerate(value)]


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
        text = path.read_text(encoding="utf-8-sig")
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

    Only the config's JSON shapes and types are checked here: unknown
    fields, the mode and the size fields it requires or forbids, numbers,
    integers, lists and ``arm_sizes`` pairs (each arm at least 2).  The
    range of every setting (reps, seed, tau, beta, alpha, the study count,
    arm sizes, within-study variances and the method list) is checked by
    :class:`Scenario` as each row is built, and each entry of
    ``arm_totals`` by :func:`split_arms`.

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
            raise ConfigError(f"{key}: unknown field")

    name = str(cfg.get("name", "scenario"))
    mode = cfg.get("mode")
    if mode not in ("smd", "normal"):
        raise ConfigError(f"mode: expected 'smd' or 'normal', got {mode!r}")
    beta = _as_number(cfg, "beta")
    taus = _as_number_list(cfg, "tau")
    methods = cfg.get("methods", list(SIM_METHODS))
    if not isinstance(methods, list):
        raise ConfigError(f"methods: expected a list, got {methods!r}")
    common = dict(
        beta=beta,
        reps=_as_number(cfg, "reps", 2000, integer=True) if reps is None else reps,
        methods=methods,
        alpha=_as_number(cfg, "alpha", 0.05),
        seed=_as_number(cfg, "seed", 0, integer=True) if seed is None else seed,
    )

    smd_fields = ("k", "n_per_arm", "arm_totals", "arm_sizes")
    for field in ("within_vars",) if mode == "smd" else smd_fields:
        if field in cfg:
            raise ConfigError(f"{field}: not allowed in {mode} mode")
    # specs: the per-study data of each setting, crossed with every tau below
    if mode == "normal":
        specs = [{"within_vars": tuple(_as_number_list(cfg, "within_vars"))}]
    else:
        size_fields = [f for f in ("n_per_arm", "arm_totals", "arm_sizes") if f in cfg]
        if len(size_fields) != 1:
            raise ConfigError(
                "mode: smd mode needs exactly one of n_per_arm, arm_totals, arm_sizes")
        if size_fields[0] == "n_per_arm":
            n = _as_number(cfg, "n_per_arm", integer=True)
            specs = [{"arm_sizes": ((n, n),) * k} for k in _as_number_list(cfg, "k", integer=True)]
        elif "k" in cfg:
            raise ConfigError("k: only allowed with n_per_arm")
        elif size_fields[0] == "arm_totals":
            totals = _as_number_list(cfg, "arm_totals", integer=True)
            specs = [{"arm_sizes": tuple(split_arms(t) for t in totals)}]
        else:
            raw = cfg["arm_sizes"]
            if not isinstance(raw, list) or not raw:
                raise ConfigError("arm_sizes: expected a non-empty list of [n1, n2] pairs")
            for i, pair in enumerate(raw):
                if (not isinstance(pair, list)) or len(pair) != 2:
                    raise ConfigError(f"arm_sizes[{i}]: expected an [n1, n2] pair, got {pair!r}")
                for j, x in enumerate(pair):
                    if isinstance(x, bool) or not isinstance(x, int) or x < 2:
                        raise ConfigError(
                            f"arm_sizes[{i}][{j}]: expected an integer arm size >= 2, got {x!r}")
            specs = [{"arm_sizes": tuple((n1, n2) for n1, n2 in raw)}]

    rows = []
    for spec in specs:
        for tau in taus:
            scenario = Scenario(tau=tau, **spec, **common)
            rows.append(({"k": scenario.k, "beta": beta, "tau": tau}, scenario))
    return name, rows
