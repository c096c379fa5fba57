"""Benchmark of the cvmeta command-line program.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 bench/run.py --workload analyze --seed 1 --seconds 10 --trace 0
    python3 bench/run.py                 # every workload, timed and traced
    python3 bench/run.py --agree 10      # two sets of runs; do they agree?
    python3 bench/run.py --record-reference

One ``--workload`` run measures one workload in this fresh process and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The metric
names, units and bounds live in BENCHMARK.json at the checkout root.
See bench/README.md for the workloads and why each was chosen.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing
import workloads as wl

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"
WORKLOADS = ("analyze", "simulate_zhu", "table2")

SETUP_PROBES = 5  # fresh interpreters timed for setup_s, after one untimed
SIM_REPS = 1  # --reps per timed simulate call: 4 replications
SIM_TRACE_REPS = 5  # --reps per traced simulate call: a pool worker gets 2 or 3 a setting
TABLE2_REPS = 10  # --reps per timed table2 call: 90 replications
SIM_SETUP_ARGS = (2, 20260815)  # (--reps, --seed) of simulate's set-up call
REF_SIM_ARGS = (25, 20260815)  # (--reps, --seed) of the simulate reference
REF_TABLE2_ARGS = (20, 9)  # (--reps, --seed) of the table2 reference
SUBPROCESS_TIMEOUT = 170

# Machine-speed calibration.  On a shared host the speed of this machine
# drifts by tens of percent within minutes, so every timing is scaled to
# a reference speed: a fixed kernel, independent of cvmeta, runs before
# each operation, and an operation's time is multiplied by CAL_REF_S
# over the mean kernel time of the CAL_NEIGHBOURS samples on each side.
# The host switches between fast and slow states within a second, so
# only the samples next to an operation tell its speed.
CAL_ITERATIONS = 300
CAL_REF_S = 0.0025
CAL_NEIGHBOURS = 2

PROBE_CODE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from cvmeta.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = main(sys.argv[2:])
print(rc, flush=True)
"""


@dataclass(frozen=True)
class Op:
    """One call of cvmeta.cli.main; ``reps`` operations it completes."""

    argv: tuple
    reps: int
    check: object  # text -> list of problems


@dataclass
class Done:
    op: Op
    seconds: float
    rc: object
    text: str
    start: float = 0.0
    norm: float = 0.0  # seconds scaled to reference speed


def calibrate() -> float:
    """Seconds of a fixed kernel of small numpy reductions and Python calls."""
    y = np.linspace(-1.0, 1.0, 35)
    v = np.linspace(0.01, 0.1, 35)
    t0 = time.perf_counter()
    for i in range(CAL_ITERATIONS):
        w = 1.0 / (v + i * 1e-6)
        b = (w * y).sum() / w.sum()
        float((w * (y - b) ** 2).sum())
    return time.perf_counter() - t0


class Clock:
    """Calibration samples taken between the operations of one pass."""

    def __init__(self):
        self.samples = []  # (time taken, kernel seconds)

    def tick(self) -> float:
        self.samples.append((time.perf_counter(), calibrate()))
        return time.perf_counter()

    def scale(self, at=None) -> float:
        """Reference-speed factor around time ``at``; over the whole pass if None."""
        if at is None:
            return CAL_REF_S / statistics.median(k for _, k in self.samples)
        i = bisect.bisect_left([t for t, _ in self.samples], at)
        near = self.samples[max(0, i - CAL_NEIGHBOURS): i + CAL_NEIGHBOURS]
        return CAL_REF_S / statistics.fmean(k for _, k in near)

    def run(self, main, ops, tracer=None) -> list:
        """Execute ops, each after a calibration sample."""
        done = []
        for op in ops:
            start = self.tick()
            done.append(execute(main, op, tracer))
            done[-1].start = start
        return done

    def finish(self, done) -> list:
        """Take the closing sample and scale every operation of the pass."""
        self.tick()
        for d in done:
            d.norm = d.seconds * self.scale(d.start)
        return done


def execute(main, op: Op, tracer=None) -> Done:
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = tracer.call_main(main, list(op.argv)) if tracer else main(list(op.argv))
    except Exception:  # a crash is a failed operation; keep measuring the rest
        rc = traceback.format_exc()
    return Done(op, time.perf_counter() - t0, rc, out.getvalue())


def problems_of(done: Done) -> list:
    if done.rc != 0:
        return [f"{' '.join(done.op.argv)}: exit {done.rc}"]
    return done.op.check(done.text)


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """Inputs, reference operations and timed units of one workload."""

    warm_passes = 0

    def __init__(self, seed, out_dir):
        self.out_dir = out_dir
        self.rng = np.random.default_rng(seed % 2**63)


class Analyze(Workload):
    warm_passes = 1

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.hssp = SRC / "cvmeta" / "data" / "hssp.csv"
        self.setup_argv = wl.analyze_argv(self.hssp)
        records = wl.generate_analyze_inputs(seed, wl.ANALYZE_INPUTS, out_dir / "inputs")
        records.append({"path": str(self.hssp), "degenerate": False})
        self.pass_ops = [self._op(r) for r in records]

    @staticmethod
    def _op(record):
        deg = record["degenerate"]
        return Op(tuple(wl.analyze_argv(record["path"])), 1,
                  lambda text: wl.check_analyze(text, deg)[1])

    def reference(self, run):
        records = [{"path": str(self.hssp), "degenerate": False}]
        records += wl.generate_analyze_inputs(
            wl.REFERENCE_SEED, wl.REFERENCE_ANALYZE_INPUTS, self.out_dir / "reference")
        extract, problems = {}, []
        for r in records:
            text = run(wl.analyze_argv(r["path"]))
            bounds, probs = wl.check_analyze(text, r["degenerate"])
            extract[Path(r["path"]).stem] = bounds
            problems += probs
        return extract, problems

    compare = staticmethod(wl.compare_analyze_reference)

    def units(self, trace):
        while True:
            order = self.rng.permutation(len(self.pass_ops))
            yield [self.pass_ops[i] for i in order]


class Simulate(Workload):
    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.setup_argv = wl.simulate_argv(*SIM_SETUP_ARGS, 1)

    def reference(self, run):
        counts, problems = wl.check_simulate(
            run(wl.simulate_argv(*REF_SIM_ARGS, 1)), REF_SIM_ARGS[0])
        if run(self.setup_argv) != run(wl.simulate_argv(*SIM_SETUP_ARGS, 2)):
            problems.append("simulate output differs between --threads 1 and 2")
        return counts, problems

    compare = staticmethod(wl.compare_simulate_reference)

    @staticmethod
    def _op(reps, seed, threads):
        return Op(tuple(wl.simulate_argv(reps, seed, threads)), wl.ZHU_SETTINGS * reps,
                  lambda text: wl.check_simulate(text, reps)[1])

    @staticmethod
    def with_threads(op, threads):
        """The same call at another --threads, the last argument of simulate_argv."""
        return Op(op.argv[:-1] + (str(threads),), op.reps, op.check)

    def units(self, trace):
        reps = SIM_TRACE_REPS if trace else SIM_REPS
        while True:
            yield [self._op(reps, int(self.rng.integers(2**31)), 1)]


class Table2(Workload):
    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.setup_argv = wl.table2_argv(*REF_TABLE2_ARGS)

    def reference(self, run):
        return wl.check_table2(run(self.setup_argv))

    compare = staticmethod(wl.compare_table2_reference)

    def units(self, trace):
        while True:
            seed = int(self.rng.integers(2**31))
            yield [Op(tuple(wl.table2_argv(TABLE2_REPS, seed)), wl.TABLE2_CELLS * TABLE2_REPS,
                      lambda text: wl.check_table2(text)[1])]


KINDS = {"analyze": Analyze, "simulate_zhu": Simulate, "table2": Table2}


# ---------------------------------------------------------------------------
# one workload run

def run_units(main, units, budget):
    """Run whole units until ``budget`` seconds have passed; (a list per unit, clock)."""
    clock = Clock()
    per_unit = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < budget:
        per_unit.append(clock.run(main, next(units)))
    clock.finish([d for unit in per_unit for d in unit])
    return per_unit, clock


def setup_times(argv):
    """Seconds from starting a fresh interpreter to the end of its first operation.

    Returns (raw, scaled to reference speed) for SETUP_PROBES interpreters;
    one factor, from every calibration sample of the phase, scales them all.
    """
    clock = Clock()
    times = []
    for i in range(SETUP_PROBES + 1):
        clock.tick()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", PROBE_CODE, str(SRC), *argv],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=SUBPROCESS_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "0":
            raise RuntimeError(f"setup probe failed: {' '.join(argv)} printed {line!r}")
        if i:  # the first interpreter compiles bytecode and fills the file cache
            times.append(elapsed)
    clock.tick()
    return times, [t * clock.scale() for t in times]


def latency_percentiles(per_unit, attr):
    """op_p50_ms and op_p90_ms.

    Every analyze pass runs the same inputs, so each input's latency is
    its median over the passes, and the percentiles are taken over the
    inputs.  For the other workloads an operation's latency is its call's
    time over the replications in it.
    """
    def ms(d):
        return getattr(d, attr) / d.op.reps * 1e3

    if len(per_unit[0]) > 1:
        by_input = {}
        for unit in per_unit:
            for d in unit:
                by_input.setdefault(d.op.argv, []).append(ms(d))
        lat = [statistics.median(v) for v in by_input.values()]
    else:
        lat = [ms(unit[0]) for unit in per_unit]
    return statistics.median(lat), statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]


def timing_metrics(per_unit, setup, attr):
    """setup_s, ops_per_s, op_p50_ms and op_p90_ms from raw or scaled times.

    ops_per_s is the median over units (an analyze pass, or one call).
    """
    rates = [sum(d.op.reps for d in unit if not problems_of(d))
             / sum(getattr(d, attr) for d in unit) for unit in per_unit]
    p50, p90 = latency_percentiles(per_unit, attr)
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
    }


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, done_list):
        for d in done_list:
            probs = problems_of(d)
            self.attempted += d.op.reps
            if probs:
                self.failed += d.op.reps
                self.problems += probs

    def note(self, reps, probs):
        self.attempted += reps
        if probs:
            self.failed += reps
            self.problems += probs

    def fail(self, probs):
        """One failure per problem found outside an operation's own check."""
        self.failed += len(probs)
        self.problems += probs

    def same_output(self, done, again, message):
        """Count as failed every repeated call whose output differs."""
        bad = [a for d, a in zip(done, again) if a.text != d.text]
        self.failed += sum(a.op.reps for a in bad)
        if bad:
            self.problems.append(message)


def run_workload(name, seed, seconds, trace):
    out_dir = OUT / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run_workload(name, seed, seconds, trace, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _run_workload(name, seed, seconds, trace, out_dir):
    tally = Tally()
    work = KINDS[name](seed, out_dir)
    setup_raw, setup = setup_times(work.setup_argv) if not trace else (None, None)

    mods = import_cvmeta()
    main = mods.cli.main
    want = json.loads(REFERENCE.read_text())[name]

    ref_ops = []

    def run_ref(argv):
        ref_ops.append(execute(main, Op(tuple(argv), 1, lambda text: [])))
        return ref_ops[-1].text

    got, probs = work.reference(run_ref)
    probs += work.compare(got, want)
    tally.note(len(ref_ops), [p for d in ref_ops for p in problems_of(d)] + probs)
    units = work.units(trace)
    for _ in range(work.warm_passes):
        tally.add(execute(main, op) for op in next(units))

    if not trace:
        per_unit, clock = run_units(main, units, seconds)
        done = [d for unit in per_unit for d in unit]
        tally.add(done)
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = timing_metrics(per_unit, setup, "norm")
        metrics["peak_rss_mb"] = rss_kb / 1024.0
        detail = {"timed_calls": len(done), "operations": sum(d.op.reps for d in done),
                  "raw": timing_metrics(per_unit, setup_raw, "seconds"),
                  "setup_raw_s": setup_raw,
                  "ops": [[i, d.start, d.seconds, d.op.reps] for i, unit in enumerate(per_unit)
                          for d in unit],
                  "calibration": clock.samples}
    else:
        metrics, detail = traced_run(main, mods, work, units, seconds, tally)
    return metrics, tally, detail


def traced_run(main, mods, work, units, seconds, tally):
    """An untraced pass, for simulate the same calls at --threads 2, then traced."""
    sim = isinstance(work, Simulate)
    done = [d for unit in run_units(main, units, seconds / (3 if sim else 2))[0] for d in unit]
    tally.add(done)
    untraced = sum(d.norm for d in done)
    speedup = 1.0
    if sim:
        clock = Clock()
        pooled = clock.finish(clock.run(main, [work.with_threads(d.op, 2) for d in done]))
        tally.add(pooled)
        tally.same_output(done, pooled, "simulate output differs between --threads 1 and 2")
        speedup = untraced / sum(d.norm for d in pooled)

    tracer = tracing.Tracer(mods)
    clock = Clock()
    with tracer.installed():
        traced = clock.finish(clock.run(main, [d.op for d in done], tracer))
    tally.add(traced)
    tally.same_output(done, traced, "traced run printed different output than the untraced run")
    rec = tracer.recorder
    tally.fail(rec.problems)
    operations = sum(d.op.reps for d in traced)
    metrics = tracing.layer_metrics(rec, clock.scale(), operations)
    metrics["simulator.pool_speedup"] = speedup
    metrics["trace.overhead_frac"] = sum(d.norm for d in traced) / untraced - 1.0
    detail = {
        "traced_calls": len(traced),
        "operations": operations,
        "spans": {n: [rec.calls[n], rec.total[n], rec.self_time[n]] for n in sorted(rec.calls)},
        "counts": dict(rec.counts),
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# environment

class Mods:
    pass


def import_cvmeta():
    """Import cvmeta from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    mods = Mods()
    for name in tracing.MODULES:
        setattr(mods, name, importlib.import_module(f"cvmeta.{name}"))
    origin = Path(mods.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"cvmeta was imported from {origin}, not from {SRC}")
    return mods


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "cvmeta").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def loadavg():
    return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]


def machine_record(load_start):
    import scipy

    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "source_digest": source_digest(),
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
        "loaded_at_start": load_start[0] > nproc,
    }


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(spec, metrics, tally, trace):
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": not tally.failed and not tally.problems,
        "attempted": max(tally.attempted, 1),
        "failed": min(tally.failed, max(tally.attempted, 1)),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in group},
    }


def one_workload(args):
    load_start = loadavg()
    spec = load_spec()
    metrics, tally, detail = run_workload(args.workload, args.seed, args.seconds, args.trace)
    result = result_line(spec, metrics, tally, args.trace)
    machine = machine_record(load_start)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "detail": detail,
              "problems": tally.problems[:50], **result}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for p in tally.problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(f"machine: {json.dumps(machine)}")
    n = detail.get("timed_calls", detail.get("traced_calls"))
    print(f"{args.workload}: {detail['operations']} operations in {n} calls; record {path}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# every workload, repeat agreement, references

def spawn(workload, seed, seconds, trace):
    """One workload in a fresh process; its parsed last line, or None."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT + 60)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def all_workloads(args, spec):
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            res = spawn(name, args.seed, args.seconds, trace)
            if res is None:
                merged["correct"] = False
                print(f"{name} trace={trace}: run failed")
                continue
            merged["correct"] &= res["correct"]
            merged["attempted"] += res["attempted"]
            merged["failed"] += res["failed"]
            for metric, m in res["metrics"].items():
                merged["metrics"][f"{name}/{metric}"] = m
                print(f"{name:16s} {metric:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def agree(args, spec):
    """Two sets of runs of the same code: spreads and median shifts against bounds."""
    sets = []
    for s in range(2):
        runs = {}
        for name in WORKLOADS:
            results = [spawn(name, args.seed + 1000 * s + r, args.seconds, 0)
                       for r in range(args.agree)]
            runs[name] = [r for r in results if r is not None]
        sets.append(runs)
    ok = True
    print(f"{'workload':16s} {'metric':12s} {'median1':>10s} {'median2':>10s} "
          f"{'spread1':>8s} {'spread2':>8s} {'shift':>7s} {'bound':>6s} agree")
    summary = {}
    for name in WORKLOADS:
        for m in spec["end_to_end"]:
            vals = [[r["metrics"][m["name"]]["value"] for r in st[name]] for st in sets]
            if min(len(v) for v in vals) < 4:
                ok = False
                print(f"{name:16s} {m['name']:12s} too few successful runs")
                continue
            med = [statistics.median(v) for v in vals]
            spr = [spread(v) for v in vals]
            worse = (med[1] - med[0]) / med[0] * (1 if m["better"] == "lower" else -1)
            good = worse <= m["bound"] and (
                m["name"] == "setup_s" or max(spr) <= m["bound"])
            ok &= good
            summary[f"{name}/{m['name']}"] = {"medians": med, "spreads": spr, "shift": worse,
                                              "bound": m["bound"], "agree": good}
            print(f"{name:16s} {m['name']:12s} {med[0]:10.4g} {med[1]:10.4g} "
                  f"{spr[0]:8.3f} {spr[1]:8.3f} {worse:7.3f} {m['bound']:6.2f} {good}")
    OUT.mkdir(exist_ok=True)
    (OUT / "agree.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({"agree": ok}))
    return 0 if ok else 1


def record_reference():
    """Write reference.json from this checkout; run only when the benchmark changes."""
    mods = import_cvmeta()
    out = OUT / "record"
    refs = {}
    for name in WORKLOADS:
        work = KINDS[name](0, out)
        got, problems = work.reference(
            lambda argv: execute(mods.cli.main, Op(tuple(argv), 1, None)).text)
        if problems:
            raise SystemExit(f"{name}: reference outputs fail their own checks: {problems}")
        refs[name] = wl.json_safe(got)
    shutil.rmtree(out, ignore_errors=True)
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run; default run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--agree", type=int, default=0, metavar="RUNS",
                        help="run each workload RUNS times in each of two sets and compare")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "cvmeta" / "__init__.py").is_file():
        print(f"error: no cvmeta sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload:
        return one_workload(args)
    if args.agree:
        return agree(args, spec)
    return all_workloads(args, spec)


if __name__ == "__main__":
    sys.exit(main())
