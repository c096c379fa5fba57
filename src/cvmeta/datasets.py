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
``data/configs`` are their one source, as ``table2`` is of the summary
table's grid: load them with :func:`load_config` and turn them into
scenarios with :func:`expand_config`.

CSV ingestion accepts either precomputed effects (columns yi, vi) or
two-arm summaries (m1, sd1, n1, m2, sd2, n2), from which pooled-SD
standardized mean differences are computed, their variances by the
simulator's own SMD variance function.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

from .core import MetaDataset
from .errors import ConfigError, DataFormatError
from .numerics import _index
from .simulator import Scenario, _smd_variance

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
    return y, _smd_variance(y, n1, n2)


def split_arms(total: int) -> tuple:
    """Split an integer total sample size into two arms, larger arm first."""
    total = _index(total, "total sample size", ConfigError)
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
    starting with '#' are comments.  Column names must not repeat, and
    errors name the row by its line in the file.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    # blank and comment lines read as empty rows, so line_num stays the file line
    reader = csv.reader("" if ln.strip()[:1] in ("", "#") else ln for ln in text.splitlines())
    header = next((row for row in reader if row), None)
    if header is None:
        raise DataFormatError(f"{path}: no data rows")
    fields = [f.strip().lower() for f in header]
    repeated = sorted({f for f in fields if f and fields.count(f) > 1})
    if repeated:
        raise DataFormatError(f"{path}: repeated column names {repeated}")

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
    for row in filter(None, reader):
        row_num = reader.line_num
        if len(row) != len(fields):
            raise DataFormatError(f"row {row_num}: wrong number of fields")
        vals = {c: _parse_float(row[fields.index(c)], row_num, c) for c in schema}
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
    return data_path("configs") / name


def list_configs() -> tuple:
    return tuple(sorted(p.name for p in data_path("configs").glob("*.json")))


def load_hssp() -> MetaDataset:
    """The nine-study Hospital Stay of Stroke Patients fixture."""
    return read_effects_csv(data_path("hssp.csv"))


def _number(x, field, integer):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{field}: expected a number, got {x!r}")
    # a float's is_integer() is False for inf and nan
    if integer and not (isinstance(x, int) or x.is_integer()):
        raise ConfigError(f"{field}: expected an integer, got {x!r}")
    try:
        return int(x) if integer else float(x)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{field}: expected a number in the float range, got {x!r}") from None


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
    """Load a simulation config from a file path or shipped-config name."""
    path = Path(source)
    if not path.is_file():
        shipped = config_path(str(source))
        if shipped.is_file():
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


def expand_config(cfg: dict, reps=None, seed=None) -> list:
    """Expand a config dict into a list of :class:`Scenario`.

    Only the config's JSON shapes and types are checked here: unknown
    fields, the mode and the size fields it requires or forbids, numbers,
    integers, lists and ``arm_sizes`` pairs.  The range of every setting
    (reps, seed, tau, beta, alpha, the study count, arm sizes,
    within-study variances and the method list) is checked by
    :class:`Scenario` as each one is built, and each entry of
    ``arm_totals`` by :func:`split_arms`.

    ``beta``, ``tau`` and, with ``n_per_arm``, ``k`` may be lists; their
    cross product, beta outermost and tau innermost, defines one
    scenario per setting.  ``reps``/``seed`` override the config when
    given, and the config field an override replaces is not read.  A
    field that neither the config nor an override gives takes the
    :class:`Scenario` default.
    """
    known = {
        "name", "mode", "beta", "tau", "k", "n_per_arm", "arm_totals",
        "arm_sizes", "within_vars", "reps", "alpha", "methods", "seed",
    }
    for key in cfg:
        if key not in known:
            raise ConfigError(f"{key}: unknown field")

    mode = cfg.get("mode")
    if mode not in ("smd", "normal"):
        raise ConfigError(f"mode: expected 'smd' or 'normal', got {mode!r}")
    betas = _as_number_list(cfg, "beta")
    taus = _as_number_list(cfg, "tau")
    common = {f: v for f, v in (("reps", reps), ("seed", seed)) if v is not None}
    if "methods" in cfg:
        if not isinstance(cfg["methods"], list):
            raise ConfigError(f"methods: expected a list, got {cfg['methods']!r}")
        common["methods"] = cfg["methods"]
    for field, integer in (("reps", True), ("alpha", False), ("seed", True)):
        if field in cfg and field not in common:
            common[field] = _number(cfg[field], field, integer)

    smd_fields = ("k", "n_per_arm", "arm_totals", "arm_sizes")
    for field in ("within_vars",) if mode == "smd" else smd_fields:
        if field in cfg:
            raise ConfigError(f"{field}: not allowed in {mode} mode")
    # specs: the per-study data of each setting, crossed with every beta and tau below
    if mode == "normal":
        specs = [{"within_vars": tuple(_as_number_list(cfg, "within_vars"))}]
    else:
        size_fields = [f for f in ("n_per_arm", "arm_totals", "arm_sizes") if f in cfg]
        if len(size_fields) != 1:
            raise ConfigError(
                "mode: smd mode needs exactly one of n_per_arm, arm_totals, arm_sizes")
        if size_fields[0] == "n_per_arm":
            n = _number(cfg["n_per_arm"], "n_per_arm", True)
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
            pairs = []
            for i, pair in enumerate(raw):
                if (not isinstance(pair, list)) or len(pair) != 2:
                    raise ConfigError(f"arm_sizes[{i}]: expected an [n1, n2] pair, got {pair!r}")
                pairs.append(tuple(
                    _number(x, f"arm_sizes[{i}][{j}]", True) for j, x in enumerate(pair)))
            specs = [{"arm_sizes": tuple(pairs)}]

    return [Scenario(beta=beta, tau=tau, **spec, **common)
            for beta, spec, tau in itertools.product(betas, specs, taus)]
