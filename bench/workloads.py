"""The benchmark workloads: inputs, operations and output checks.

Every operation is one call of ``cvmeta.cli.main`` with a list of
arguments; the benchmark captures what it prints and checks it here.
Inputs come only from the workload seed, through the generator in this
file, so the program sees nothing but generated data.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Containment tolerance of the acceptance tests, and the criterion-4
# tolerance on M1 bounds used for the recorded references.
CONTAIN_TOL = 1e-9
M1_REF_TOL = 1e-6
TABLE2_REF_RTOL = 1e-9

ZHU_SETTINGS = 4  # table4_zhu has four tau settings
TABLE2_CELLS = 9  # table2 runs a 3 x 3 grid of (beta, tau)

ANALYZE_INPUTS = 128  # generated inputs per pass, plus the HSSP fixture
ANALYZE_DEGENERATE_EVERY = 8  # every 8th input is made to truncate to tau2 = 0
REFERENCE_SEED = 0
REFERENCE_ANALYZE_INPUTS = 12


# ---------------------------------------------------------------------------
# analyze inputs

def _dl_truncates(y, v) -> bool:
    """True when the DerSimonian-Laird estimate is zero, i.e. Q <= K - 1."""
    w = 1.0 / v
    b = (w * y).sum() / w.sum()
    return float((w * (y - b) ** 2).sum()) <= len(y) - 1


def _two_arm_study(rng, theta):
    """Arm summaries of one two-arm trial with standardized effect theta."""
    n1, n2 = rng.integers(4, 60, size=2).tolist()
    sigma = float(rng.uniform(2.0, 20.0))
    m2 = float(rng.normal(50.0, 10.0))
    m1 = float(rng.normal(m2 + theta * sigma, sigma * math.sqrt(1.0 / n1 + 1.0 / n2)))
    sd1 = sigma * math.sqrt(rng.chisquare(n1 - 1) / (n1 - 1))
    sd2 = sigma * math.sqrt(rng.chisquare(n2 - 1) / (n2 - 1))
    sp2 = ((n1 - 1) * sd1 * sd1 + (n2 - 1) * sd2 * sd2) / (n1 + n2 - 2)
    d = (m1 - m2) / math.sqrt(sp2)
    v = 1.0 / n1 + 1.0 / n2 + d * d / (2.0 * (n1 + n2))
    return (m1, sd1, n1, m2, sd2, n2), d, v


def _draw_input(rng, kind, k, beta, tau):
    """One dataset of the given kind: (csv text, y, v)."""
    theta = beta + tau * rng.standard_normal(k)
    if kind == "normal":
        v = rng.uniform(0.005, 0.2, size=k)
        y = theta + np.sqrt(v) * rng.standard_normal(k)
        rows = [f"s{i + 1},{yi!r},{vi!r}" for i, (yi, vi) in enumerate(zip(y.tolist(), v.tolist()))]
        return "study,yi,vi\n" + "\n".join(rows) + "\n", y, v
    studies = [_two_arm_study(rng, t) for t in theta]
    y = np.array([d for _, d, _ in studies])
    v = np.array([vi for _, _, vi in studies])
    if kind == "smd":
        rows = [f"{yi!r},{vi!r}" for yi, vi in zip(y.tolist(), v.tolist())]
        return "yi,vi\n" + "\n".join(rows) + "\n", y, v
    rows = [
        f"{i + 1},{m1!r},{sd1!r},{n1},{m2!r},{sd2!r},{n2}"
        for i, ((m1, sd1, n1, m2, sd2, n2), _, _) in enumerate(studies)
    ]
    return "study,m1,sd1,n1,m2,sd2,n2\n" + "\n".join(rows) + "\n", y, v


def generate_analyze_inputs(seed: int, n: int, out_dir: Path) -> list[dict]:
    """Write n seeded CSVs to out_dir; return one record per input.

    The inputs step K along a geometric ladder from 2 to 60 and cycle
    through three kinds: normal effects as (yi, vi), standardized mean
    differences as (yi, vi), and the two-arm schema the parser converts
    itself.  Every ANALYZE_DEGENERATE_EVERY-th input is redrawn until
    its heterogeneity estimate truncates to zero and every other input
    until it does not, so the share of the fast degenerate path is the
    same for every seed.
    """
    rng = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    ks = np.rint(np.geomspace(2, 60, n)).astype(int)
    taus = (0.0, 0.1, 0.25, 0.5, 1.0)
    records = []
    for i, k in enumerate(ks):
        kind = ("normal", "smd", "two_arm")[i % 3]
        degenerate = i % ANALYZE_DEGENERATE_EVERY == 0
        tau = 0.0 if degenerate else taus[i % len(taus)]
        beta = rng.uniform(0.1, 1.2) * rng.choice((-1.0, 1.0))
        for _ in range(10_000):
            text, y, v = _draw_input(rng, kind, int(k), beta, tau)
            if _dl_truncates(y, v) == degenerate:
                break
        else:
            raise RuntimeError(f"input {i}: no draw with degenerate={degenerate}")
        path = out_dir / f"in{i:03d}_{kind}_k{k}.csv"
        path.write_text(text, encoding="utf-8")
        records.append({"path": str(path), "degenerate": degenerate})
    return records


def analyze_argv(path) -> list[str]:
    return ["analyze", "--input", str(path), "--format", "json"]


# ---------------------------------------------------------------------------
# argument lists of the other workloads

def simulate_argv(reps: int, seed: int, threads: int) -> list[str]:
    return [
        "simulate", "--config", "table4_zhu", "--reps", str(reps),
        "--seed", str(seed), "--threads", str(threads),
    ]


def table2_argv(reps: int, seed: int) -> list[str]:
    return ["table2", "--reps", str(reps), "--seed", str(seed)]


# ---------------------------------------------------------------------------
# output checks; each returns (extract, problems)

def _m2_link(u: float) -> float:
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    return u * u / (u * u + (1.0 - u) * (1.0 - u))


def _cv_link(u: float) -> float:
    return math.inf if u >= 1.0 else u / (1.0 - u)


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def check_analyze(text: str, degenerate: bool | None = None):
    """Exact links, PROPIMP containing ALPHA_ADJ, degenerate flags.

    Returns ({method: (m1_lower, m1_upper)}, problems).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return {}, [f"analyze output is not JSON: {exc}"]
    problems = []
    bounds = {}
    for iv in doc["intervals"]:
        lo = math.inf if iv["lower_infinite"] else iv["lower"]
        hi = math.inf if iv["upper_infinite"] else iv["upper"]
        bounds[(iv["method"], iv["measure"])] = (lo, hi)
        if degenerate is not None and iv["degenerate"] != degenerate:
            problems.append(f"{iv['method']} {iv['measure']}: degenerate flag {iv['degenerate']}")
    methods = sorted({m for m, _ in bounds})
    if methods != ["ALPHA_ADJ", "PROPIMP", "WALD"]:
        return {}, problems + [f"unexpected methods {methods}"]
    for method in methods:
        for side in (0, 1):
            u = bounds[(method, "M1")][side]
            if not _close(bounds[(method, "CV_B")][side], _cv_link(u), 1e-12):
                problems.append(f"{method}: CV_B bound {side} breaks the link to M1")
            if not _close(bounds[(method, "M2")][side], _m2_link(u), 1e-12, 1e-300):
                problems.append(f"{method}: M2 bound {side} breaks the link to M1")
    (p_lo, p_hi), (a_lo, a_hi) = bounds[("PROPIMP", "M1")], bounds[("ALPHA_ADJ", "M1")]
    if p_lo > a_lo + CONTAIN_TOL or p_hi < a_hi - CONTAIN_TOL:
        problems.append("PROPIMP M1 interval does not contain ALPHA_ADJ")
    return {m: bounds[(m, "M1")] for m in methods}, problems


def check_simulate(text: str, reps: int):
    """Integral counts and PROPIMP widths at least ALPHA_ADJ widths.

    Returns ({"tau=<t> <method>": [covered, truncated, M1 width mean,
    M1 width median]}, problems).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return {}, [f"simulate output is not JSON: {exc}"]
    problems = []
    counts = {}
    if len(doc["results"]) != ZHU_SETTINGS:
        problems.append(f"expected {ZHU_SETTINGS} settings, got {len(doc['results'])}")
    for res in doc["results"]:
        tau = res["setting"]["tau"]
        truncated = res["truncation_rate"] * reps
        widths = {}
        for mc in res["methods"]:
            covered = mc["coverage"] * reps
            for name, x in (("coverage", covered), ("truncation", truncated)):
                if abs(x - round(x)) > 1e-6 or not 0 <= round(x) <= reps:
                    problems.append(f"tau={tau} {mc['method']}: {name} count {x} not integral")
            widths[mc["method"]] = w = mc["widths"]["M1"]
            counts[f"tau={tau} {mc['method']}"] = [
                round(covered), round(truncated), w["mean"], w["median"]]
        for stat in ("mean", "median"):
            if widths["PROPIMP"][stat] < widths["ALPHA_ADJ"][stat] - CONTAIN_TOL:
                problems.append(f"tau={tau}: PROPIMP M1 width {stat} below ALPHA_ADJ")
    return counts, problems


def check_table2(text: str):
    """Ordered five-number summaries and links between the extremes.

    table2 prints six significant digits, so links are checked to 1e-5
    on the unit scale, where rounding errors stay below that.
    Returns ({"beta,tau,measure": [min, q1, median, q3, max]}, problems).
    """
    lines = text.strip().splitlines()
    problems = []
    if not lines or lines[0] != "beta,tau,measure,min,q1,median,q3,max":
        return {}, ["table2 output has an unexpected header"]
    rows = {}
    for line in lines[1:]:
        beta, tau, measure, *nums = line.split(",")
        rows[f"{beta},{tau},{measure}"] = [float(x) for x in nums]
    if len(rows) != 4 * TABLE2_CELLS:
        problems.append(f"expected {4 * TABLE2_CELLS} rows, got {len(rows)}")
    for key, five in rows.items():
        if five != sorted(five):
            problems.append(f"{key}: five-number summary out of order")
        if key.endswith(",I2") and not 0.0 <= five[0] <= five[-1] <= 1.0:
            problems.append(f"{key}: I2 outside [0, 1]")
        if key.endswith(",M1"):
            cell = key[: -len("M1")]
            for i in (0, 4):
                u, cv = five[i], rows[cell + "CV_B"][i]
                if abs((1.0 if math.isinf(cv) else cv / (1.0 + cv)) - u) > 1e-5:
                    problems.append(f"{cell}: CV_B extreme breaks the link to M1")
                if abs(rows[cell + "M2"][i] - _m2_link(u)) > 1e-5:
                    problems.append(f"{cell}: M2 extreme breaks the link to M1")
    return rows, problems


# ---------------------------------------------------------------------------
# comparisons against the references recorded in reference.json

def compare_analyze_reference(got: dict, want: dict) -> list[str]:
    """M1 bounds of every reference input, to the criterion-4 tolerance."""
    problems = []
    if sorted(got) != sorted(want):
        return [f"analyze reference inputs {sorted(got)} differ from {sorted(want)}"]
    for name, methods in want.items():
        for method, (lo, hi) in methods.items():
            g = got[name].get(method, (math.nan, math.nan))
            for side, a, b in (("lower", g[0], lo), ("upper", g[1], hi)):
                if not abs(a - b) <= M1_REF_TOL:
                    problems.append(f"{name} {method} M1 {side}: {a!r} vs reference {b!r}")
    return problems


def compare_simulate_reference(got: dict, want: dict) -> list[str]:
    """Coverage and truncation counts exactly, M1 width mean and median to 1e-6."""
    if sorted(got) != sorted(want):
        return [f"simulate reference rows {sorted(got)} differ from {sorted(want)}"]
    problems = []
    for key, (covered, truncated, mean, median) in want.items():
        g = got[key]
        if g[:2] != [covered, truncated]:
            problems.append(f"{key}: coverage/truncation counts {g[:2]} "
                            f"vs reference {[covered, truncated]}")
        if not (abs(g[2] - mean) <= M1_REF_TOL and abs(g[3] - median) <= M1_REF_TOL):
            problems.append(f"{key}: M1 width mean/median {g[2:]} vs reference {[mean, median]}")
    return problems


def compare_table2_reference(got: dict, want: dict) -> list[str]:
    problems = []
    if sorted(got) != sorted(want):
        return [f"table2 rows {sorted(got)} differ from reference rows"]
    for key, five in want.items():
        for a, b in zip(got[key], five):
            if not _close(a, math.inf if b is None else b, TABLE2_REF_RTOL, 1e-12):
                problems.append(f"{key}: {got[key]} vs reference {five}")
                break
    return problems


def json_safe(x):
    """Reference values with infinities stored as null."""
    if isinstance(x, float) and math.isinf(x):
        return None
    if isinstance(x, (list, tuple)):
        return [json_safe(e) for e in x]
    if isinstance(x, dict):
        return {k: json_safe(v) for k, v in x.items()}
    return x
