"""Command-line interface.

Three subcommands: ``analyze`` fits a random-effects model to a CSV of
study effects and reports the heterogeneity measures with the requested
interval constructions; ``simulate`` runs a coverage study from a JSON
config (shipped configs can be named without a path); ``table2`` prints
five-number summaries of the fitted measures over the (effect,
heterogeneity) grid of the shipped ``table2`` config.  Both expand their
config into scenarios with :func:`expand_config`.

Exit codes: 0 success, 2 input or config error, 3 numeric failure.
All output is deterministic for fixed inputs and seed: no timestamps,
no machine-dependent fields, and results never depend on --threads.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .core import fit_rem
from .datasets import config_path, expand_config, load_config, read_effects_csv
from .errors import ConfigError, CvMetaError, DataFormatError, DomainError
# the three method functions are unused here; bench/tracing.py wraps them at cli
from .intervals import (
    RATIO_MEASURES,
    _check_alpha,
    alpha_adjusted_intervals,
    propimp_intervals,
    wald_logit_intervals,
)
from .measures import het_measures
from .simulator import METHOD_ALIASES, METHODS, measure_summary, normalize_methods, run_scenario

__all__ = ["AnalysisReport", "analyze_dataset", "main"]

DEGENERATE_WARNING = (
    "between-study variance estimate is zero; reported intervals are the "
    "maximal degenerate intervals"
)


def _fmt(x) -> str:
    """Six-significant-digit text for report tables (inf, -inf and nan as such)."""
    return f"{x:.6g}"


def _num(x):
    """JSON-safe number: infinities map to None (callers add a flag)."""
    if isinstance(x, float) and math.isinf(x):
        return None
    return x


@dataclass(frozen=True)
class AnalysisReport:
    """Serializable result of one ``analyze`` run."""

    fit: dict
    measures: dict
    intervals: tuple
    warnings: tuple
    provenance: dict

    def to_json(self) -> str:
        """The report as one line of compact JSON.

        ``--format text`` is the layout for reading.  Without indentation
        json encodes in C, about 2.5x faster, and the text is 29% shorter.
        """
        return json.dumps({
            "fit": dict(self.fit),
            "measures": {
                k: {"value": _num(v), "infinite": math.isinf(v)}
                for k, v in self.measures.items()
            },
            "intervals": [
                {
                    "measure": iv.measure,
                    "method": iv.method,
                    "lower": _num(iv.lower),
                    "lower_infinite": math.isinf(iv.lower),
                    "upper": _num(iv.upper),
                    "upper_infinite": math.isinf(iv.upper),
                    "alpha_tau": iv.alpha_tau,
                    "alpha_beta": iv.alpha_beta,
                    "degenerate": iv.degenerate,
                }
                for iv in self.intervals
            ],
            "warnings": list(self.warnings),
            "provenance": dict(self.provenance),
        }, separators=(",", ":"))


def analyze_dataset(data, methods, alpha, source="<memory>") -> AnalysisReport:
    """Fit, measure, and compute intervals for one dataset.

    ``methods`` is any method list :func:`normalize_methods` accepts.
    """
    methods = normalize_methods(methods)
    fit = fit_rem(data)
    hm = het_measures(data, fit)
    intervals = []
    for tag in methods:
        per = METHODS[tag](data, fit, alpha)
        intervals.extend(per[m] for m in RATIO_MEASURES)

    warnings = (DEGENERATE_WARNING,) if fit.tau2_hat == 0.0 else ()
    return AnalysisReport(
        fit={
            "k": fit.k,
            "model": "REM",
            "beta_hat": fit.beta_hat,
            "se_beta_hat": math.sqrt(fit.var_beta_hat),
            "var_beta_hat": fit.var_beta_hat,
            "tau2_hat": fit.tau2_hat,
            "tau_hat": math.sqrt(fit.tau2_hat),
            "var_tau2_hat": fit.var_tau2_hat,
            "q": fit.q,
        },
        measures=asdict(hm),
        intervals=tuple(intervals),
        warnings=warnings,
        provenance={
            "input": str(source),
            "methods": list(methods),
            "alpha": alpha,
            "version": __version__,
            "seed": None,
        },
    )


def _report_csv(report: AnalysisReport) -> str:
    lines = ["measure,method,lower,upper,alpha_tau,alpha_beta,degenerate"]
    for iv in report.intervals:
        lines.append(
            f"{iv.measure},{iv.method},{_fmt(iv.lower)},{_fmt(iv.upper)},"
            f"{_fmt(iv.alpha_tau)},{_fmt(iv.alpha_beta)},{int(iv.degenerate)}"
        )
    return "\n".join(lines)


def _report_text(report: AnalysisReport) -> str:
    f = report.fit
    m = report.measures
    out = [
        f"Random-effects fit (DerSimonian-Laird), K = {f['k']} studies",
        f"  pooled effect        {_fmt(f['beta_hat'])}  (SE {_fmt(f['se_beta_hat'])})",
        f"  between-study var    {_fmt(f['tau2_hat'])}  (SD {_fmt(f['tau_hat'])})",
        f"  Cochran Q            {_fmt(f['q'])}",
        "",
        "Heterogeneity measures",
        f"  I2            {_fmt(100.0 * m['i2'])}%",
        f"  R_b           {_fmt(m['rb'])}",
        f"  diamond ratio {_fmt(m['dr'])}",
        f"  CV_B          {_fmt(m['cv_b'])}",
        f"  M1            {_fmt(m['m1'])}",
        f"  M2            {_fmt(m['m2'])}",
        "",
        f"Interval estimates (alpha = {_fmt(report.provenance['alpha'])})",
        f"  {'method':<10} {'measure':<8} {'lower':>12} {'upper':>12}",
    ]
    for iv in report.intervals:
        out.append(
            f"  {iv.method:<10} {iv.measure:<8} {_fmt(iv.lower):>12} {_fmt(iv.upper):>12}"
        )
    for w in report.warnings:
        out += ["", f"warning: {w}"]
    return "\n".join(out)


# analyze's --format choices; to_json is looked up per call, as bench/tracing.py wraps it
_RENDERERS = {"json": lambda report: report.to_json(), "csv": _report_csv, "text": _report_text}


def cmd_analyze(args) -> int:
    _check_alpha(args.alpha)
    methods = normalize_methods(args.method)
    data = read_effects_csv(args.input)
    report = analyze_dataset(data, methods, args.alpha, source=args.input)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(_RENDERERS[args.format](report))
    return 0


def _simulate_doc(name, echo, results) -> dict:
    return {
        "name": name,
        "config": echo,
        "results": [
            {
                "setting": {f: getattr(res.scenario, f) for f in ("k", "beta", "tau")},
                "truncation_rate": res.truncation_rate,
                "methods": [
                    {
                        "method": mc.method,
                        "coverage": mc.coverage,
                        "widths": {
                            m: {"mean": _num(ws.mean), "median": _num(ws.median),
                                "any_infinite": ws.any_infinite}
                            for m, ws in mc.widths.items()
                        },
                    }
                    for mc in res.per_method
                ],
            }
            for res in results
        ],
    }


def _simulate_csv(results) -> str:
    cols = ["k", "beta", "tau", "method", "coverage", "truncation_rate"]
    for measure in RATIO_MEASURES:
        tag = measure.lower()
        cols += [f"{tag}_width_mean", f"{tag}_width_median", f"{tag}_width_inf"]
    lines = [",".join(cols)]
    for res in results:
        sc = res.scenario
        for mc in res.per_method:
            cells = [
                str(sc.k), _fmt(sc.beta), _fmt(sc.tau),
                mc.method, _fmt(mc.coverage), _fmt(res.truncation_rate),
            ]
            for measure in RATIO_MEASURES:
                ws = mc.widths[measure]
                cells += [_fmt(ws.mean), _fmt(ws.median), str(int(ws.any_infinite))]
            lines.append(",".join(cells))
    return "\n".join(lines)


def cmd_simulate(args) -> int:
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    cfg = load_config(args.config)
    scenarios = expand_config(cfg, reps=args.reps, seed=args.seed)
    first = scenarios[0]
    name = str(cfg["name"])
    echo = dict(cfg, reps=first.reps, seed=first.seed, alpha=first.alpha,
                methods=list(first.methods))
    if args.out:
        # the name is the file stem, so it must not leave the --out directory
        if name in ("", ".", "..") or Path(name).name != name:
            raise ConfigError(f"name {name!r} cannot be a file name under --out")
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {args.out}: cannot create directory ({exc})") from exc

    results = [run_scenario(scenario, threads=args.threads) for scenario in scenarios]
    doc = _simulate_doc(name, echo, results)
    # compact JSON encodes in C; stdout and the --out file carry the same text
    text_json = json.dumps(doc, separators=(",", ":"))
    if args.out:
        try:
            (out_dir / f"{name}.json").write_text(text_json + "\n", encoding="utf-8")
            (out_dir / f"{name}.csv").write_text(_simulate_csv(results) + "\n", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"--out {args.out}: cannot write results ({exc})") from exc
        print(f"wrote {out_dir / f'{name}.json'} and {out_dir / f'{name}.csv'}", file=sys.stderr)
    else:
        print(text_json)
    return 0


def cmd_table2(args) -> int:
    # config_path, not the bare name: load_config looks in the working directory first
    scenarios = expand_config(load_config(config_path("table2")), reps=args.reps, seed=args.seed)
    lines = ["beta,tau,measure,min,q1,median,q3,max"]
    for scenario in scenarios:
        beta, tau = _fmt(scenario.beta), _fmt(scenario.tau)
        for measure, fn in measure_summary(scenario).items():
            stats = map(_fmt, (fn.minimum, fn.q1, fn.median, fn.q3, fn.maximum))
            lines.append(",".join((beta, tau, measure, *stats)))
    print("\n".join(lines))
    return 0


# built once per process: in-process callers run main many times, and
# parse_args leaves the parser unchanged
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvmeta",
        description="Coefficient-of-variation heterogeneity measures for meta-analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="fit a CSV of studies and report intervals")
    p_an.add_argument("--input", required=True, help="CSV with (yi, vi) or two-arm columns")
    p_an.add_argument(
        "--method",
        default=",".join(METHODS),
        help="comma-separated subset of " + ", ".join(sorted(METHOD_ALIASES)),
    )
    p_an.add_argument("--alpha", type=float, default=0.05)
    p_an.add_argument("--format", choices=tuple(_RENDERERS), default="json")
    p_an.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="run a coverage study from a JSON config")
    p_sim.add_argument("--config", required=True, help="config path or shipped config name")
    p_sim.add_argument("--reps", type=int, default=None, help="override config reps")
    p_sim.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sim.add_argument("--threads", type=int, default=1)
    p_sim.add_argument("--out", default=None, help="directory for CSV/JSON results")
    p_sim.set_defaults(func=cmd_simulate)

    p_t2 = sub.add_parser("table2", help="measure summaries over the table2 config's grid")
    p_t2.add_argument("--reps", type=int, default=None, help="override config reps")
    p_t2.add_argument("--seed", type=int, default=None, help="override config seed")
    p_t2.set_defaults(func=cmd_table2)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataFormatError, ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CvMetaError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
