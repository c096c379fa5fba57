"""Spans around the program's public functions, recorded from outside.

The traced run wraps the public functions of each cvmeta module where
the program looks them up (the module attribute its callers import), so
the program runs unchanged while every call into a layer records a span.
Spans are aggregated in memory by name: calls, total time and self time
(total minus the time of the spans nested inside it).  Counters come
only from public return values: ``PropImpTrace.evaluations``, the
``degenerate`` flags and infinite CV_B upper bounds.

Every figure is per operation of the workload (one analysis or one
replication), so a layer the workload never calls reads 0 and a later
change that batches calls stays comparable.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import defaultdict

MODULES = ("cli", "datasets", "core", "measures", "intervals", "simulator", "numerics")

# (module, attribute, span name): the import sites the program calls through.
WRAPPED = (
    ("cli", "read_effects_csv", "datasets.read_csv"),
    ("cli", "load_config", "datasets.load_config"),
    ("cli", "expand_config", "datasets.expand_config"),
    ("cli", "analyze_dataset", "cli.analyze_dataset"),
    ("cli", "fit_rem", "core.fit_rem"),
    ("cli", "het_measures", "measures.het_measures"),
    ("cli", "wald_logit_intervals", "intervals.wald"),
    ("cli", "alpha_adjusted_intervals", "intervals.alpha_adj"),
    ("cli", "propimp_intervals", "intervals.propimp"),
    ("cli", "run_scenario", "simulator.run_scenario"),
    ("cli", "measure_summary", "simulator.measure_summary"),
    ("simulator", "fit_rem", "core.fit_rem"),
    ("simulator", "het_measures", "measures.het_measures"),
    ("simulator", "wald_logit_intervals", "intervals.wald"),
    ("simulator", "alpha_adjusted_intervals", "intervals.alpha_adj"),
    ("simulator", "propimp_intervals", "intervals.propimp"),
    ("simulator", "generate_smd_dataset", "simulator.generate_smd"),
    ("simulator", "generate_normal_dataset", "simulator.generate_normal"),
    ("intervals", "tau2_ci_qprofile", "intervals.qprofile"),
    ("intervals", "fit_rem", "core.fit_rem"),
)

# Spans whose self time is the simulator's own bookkeeping: scenario
# objects, per-replication arrays and the final reduction.
LOOP_SPANS = ("simulator.run_scenario", "simulator.measure_summary")

# The two methods whose M1 intervals on the same dataset must nest.
CONTAINMENT = ("intervals.propimp", "intervals.alpha_adj")


class Recorder:
    """Aggregated spans and counters of one traced pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.problems = []
        self._stack = []  # child time accumulated under each open span

    def span(self, name, fn, *args, **kwargs):
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._stack.pop()
            self.calls[name] += 1
            self.total[name] += dt
            self.self_time[name] += dt - child
            if self._stack:
                self._stack[-1] += dt


class Tracer:
    """Installs the wrappers and records every call into a wrapped function."""

    def __init__(self, cvmeta_modules):
        self.mods = cvmeta_modules
        self.recorder = Recorder()
        self._last_m1 = {}  # span name -> (data, M1 interval) of its last call

    def observe(self, name, args, result):
        rec = self.recorder
        if name == "intervals.propimp":
            ivs, trace = result
            rec.counts["propimp_degenerate"] += ivs["M1"].degenerate
            rec.counts["propimp_cvb_inf"] += math.isinf(ivs["CV_B"].upper)
            rec.counts["propimp_evals"] += trace.evaluations
        elif name == "intervals.alpha_adj":
            ivs = result
        else:
            return
        # Once both methods have run on the same dataset, in either order, check the pair.
        self._last_m1[name] = (args[0], ivs["M1"])
        (p_data, pi), (a_data, aa) = (self._last_m1.get(n, (None, None)) for n in CONTAINMENT)
        if p_data is args[0] and a_data is args[0]:
            self._last_m1.clear()
            rec.counts["containment_checks"] += 1
            if pi.lower > aa.lower + 1e-9 or pi.upper < aa.upper - 1e-9:
                rec.problems.append("PROPIMP M1 interval does not contain ALPHA_ADJ")

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.recorder.span(name, fn, *args, **kwargs)
            self.observe(name, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target; a target the program no longer has is a problem."""
        saved = []
        targets = [(getattr(self.mods, m), attr, name) for m, attr, name in WRAPPED]
        targets.append((self.mods.numerics.RngState, "stream", "numerics.stream"))
        targets.append((self.mods.cli.AnalysisReport, "to_json", "cli.report_json"))
        try:
            for owner, attr, name in targets:
                if not hasattr(owner, attr):
                    self.recorder.problems.append(
                        f"cannot trace {name}: {owner.__name__}.{attr} no longer exists")
                    continue
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def call_main(self, main, argv):
        return self.recorder.span("cli.main", main, argv)


def layer_metrics(rec, speed, operations):
    """Per-layer figures per operation of the traced pass.

    Times are the span time of a layer per operation, scaled to reference
    speed by ``speed``; on analyze and simulate_zhu, where an operation
    calls each interval method once, that is the time of one call.  A
    layer the workload never calls reads 0.
    """

    def per_op(name, unit):
        return rec.total[name] * speed / operations * unit

    wall = rec.total["cli.main"]
    out = {
        "intervals.propimp_ms": per_op("intervals.propimp", 1e3),
        "intervals.propimp_evals": rec.counts["propimp_evals"] / operations,
        "intervals.alpha_adj_ms": per_op("intervals.alpha_adj", 1e3),
        "intervals.qprofile_ms": per_op("intervals.qprofile", 1e3),
        "intervals.wald_us": per_op("intervals.wald", 1e6),
        "intervals.degenerate_frac": rec.counts["propimp_degenerate"] / operations,
        "intervals.cvb_inf_frac": rec.counts["propimp_cvb_inf"] / operations,
        "core.fit_rem_us": per_op("core.fit_rem", 1e6),
        "measures.het_measures_us": per_op("measures.het_measures", 1e6),
        "simulator.generate_smd_us": per_op("simulator.generate_smd", 1e6),
        "simulator.generate_normal_us": per_op("simulator.generate_normal", 1e6),
        "numerics.stream_us": per_op("numerics.stream", 1e6),
        "simulator.untraced_frac": sum(rec.self_time[n] for n in LOOP_SPANS) / wall,
        "datasets.read_csv_ms": per_op("datasets.read_csv", 1e3),
        "cli.analyze_dataset_ms": per_op("cli.analyze_dataset", 1e3),
        "cli.report_json_ms": per_op("cli.report_json", 1e3),
    }
    for module in MODULES:
        own = sum(t for name, t in rec.self_time.items() if name.split(".")[0] == module)
        out[f"{module}.self_frac"] = own / wall
    return out
