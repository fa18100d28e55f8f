"""vmplace benchmark: run one workload in this process, timed or traced.

Usage (from the repository root):

    python3 bench/run.py --workload lab-cli --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from ``--seed``. The workload's fixed unit
of work then runs repeatedly for about ``--seconds`` seconds (at least twice),
with timed set-ups before each unit. Timings are reported in reference
seconds: wall time scaled by the machine's speed, which a fixed reference
kernel gauges while the workload runs (see README.md). Every solver result is
rechecked against the reference path, and every repeat must reproduce the
first one's results exactly. With ``--trace 1`` a third of the time runs untraced, the rest with
span tracing on every vmplace module; the difference in unit time is the
tracing overhead. End-to-end metrics come only from untraced units.

Human-readable tables go to standard output first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and the metrics named in
``BENCHMARK.json`` (end-to-end ones when timed, per-layer ones when traced).
Each run also writes ``.bench_out/BENCH_<n>.json`` (and the spans of a traced
run as ``SPANS_<n>.csv``) with the machine, the code and every metric.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Timed set-up regions before each untraced unit (and one before the first).
SETUP_REGIONS_PER_UNIT = 5
#: A timed set-up region repeats the set-up back to back until it lasts about
#: this long, so that a millisecond set-up is not timed on its own.
SETUP_REGION_S = 0.02
#: Traced set-ups that give the set-up layers' metrics.
TRACED_SETUPS = 5
MIN_UNITS = 2
#: A run starts no new unit once this much wall time has passed.
HARD_LIMIT_S = 150.0
#: Rounds of the reference kernel's loop; one kernel takes about 1 ms.
REFERENCE_ROUNDS = 500
#: Wall time between two reference kernels while untraced units run.
SAMPLE_INTERVAL_S = 0.05
#: Kernels within this many seconds of a timed span give its speed scale.
SCALE_WINDOW_S = 0.5
#: Fewest kernels a scale is taken over; below it, every kernel of the run.
MIN_KERNELS = 10
#: The reference kernel's nominal time. Timings are reported in seconds of a
#: machine that runs the kernel in exactly this long (see README.md).
REFERENCE_S = 0.0007

#: Every end-to-end metric the harness computes: name -> (unit, better).
#: BENCHMARK.json picks those that go into the result line.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "workload_s": ("s", "lower"),
    "ga_run_s": ("s", "lower"),
    "bfd_run_s": ("s", "lower"),
    "exact_run_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ga_kwh_mean": ("kWh", "lower"),
    "ga_vs_bfd_ratio": ("ratio", "higher"),
    "ga_optimum_hit_rate": ("share", "higher"),
    "failed_share": ("share", "lower"),
}

#: Every per-layer metric the traced run computes: name -> unit.
PER_LAYER = {
    "workload.parse_s": "s",
    "workload.expand_s": "s",
    "workload.fleet_s": "s",
    "model.instance_s": "s",
    "model.segments": "count",
    "model.check_feasibility_s": "s",
    "power.evaluator_init_s": "s",
    "power.try_energy_calls": "count",
    "power.evaluations": "count",
    "power.cache_hit_ratio": "share",
    "power.compute_s": "s",
    "power.first_violation_calls": "count",
    "power.first_violation_s": "s",
    "power.fits_calls": "count",
    "power.fits_s": "s",
    "power.integrate_energy_calls": "count",
    "power.integrate_energy_s": "s",
    "schedulers.ga_init_s": "s",
    "schedulers.repair_calls": "count",
    "schedulers.repair_s": "s",
    "schedulers.repair_moves": "count",
    "schedulers.child_infeasible_share": "share",
    "schedulers.select_parents_s": "s",
    "schedulers.crossover_s": "s",
    "schedulers.mutate_s": "s",
    "schedulers.fitness_s": "s",
    "schedulers.bfd_s": "s",
    "schedulers.exact_s": "s",
    "schedulers.exact_assignments_per_s": "1/s",
    "cli.build_instance_s": "s",
    "cli.run_experiment_s": "s",
    "cli.emit_report_s": "s",
    "cli.report_bytes": "bytes",
}

#: Per-layer metrics measured on traced set-ups; the rest on traced units.
SETUP_LAYER = ("workload.parse_s", "workload.expand_s", "workload.fleet_s", "model.instance_s", "model.segments")


#: The reference kernel's fixed inputs: a genome of 200 genes over 100 hosts.
_GENOME = [(7 * i) % 100 for i in range(200)]
_CAPACITY = [4 + (h % 3) * 4 for h in range(100)]


def reference_kernel() -> float:
    """Wall time of a fixed pure-Python loop of the kinds of work vmplace's
    solvers do: ``random.Random`` draws, list indexing, dict accumulation and
    float arithmetic. It runs no vmplace code, so a change to vmplace cannot
    change its time; only the machine's speed can. It allocates no lists, so
    it does not set off the collector inside the code it interrupts."""
    start = time.perf_counter()
    rng = random.Random(7)
    load = {}
    total = 0.0
    for _ in range(REFERENCE_ROUNDS):
        host = _GENOME[rng.randrange(200)]
        load[host] = load.get(host, 0) + 2
        total += 100.0 + 150.0 * min(1.0, load[host] / _CAPACITY[host])
    return time.perf_counter() - start


class SpeedSampler:
    """Gauges the machine's speed while the workload runs.

    Inside ``with sampler:``, a ``SIGALRM`` handler runs the reference kernel
    every :data:`SAMPLE_INTERVAL_S` of wall time, between two bytecodes of
    whatever code is running, so the kernel meets the same machine state as
    the workload around it. ``spent`` is the total time spent in the
    handler; timed regions subtract its growth, so the workload's times do
    not include the kernel's.
    """

    def __init__(self):
        #: Each kernel's start (``time.perf_counter``) and duration, in order.
        self.started: List[float] = []
        self.kernels: List[float] = []
        self.spent = 0.0

    def tick(self, *_signal):
        start = time.perf_counter()
        self.kernels.append(reference_kernel())
        self.started.append(start)
        self.spent += time.perf_counter() - start

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second between ``start`` and ``end``:
        the nominal kernel time times the mean kernel rate over the kernels
        that began within :data:`SCALE_WINDOW_S` of that span, or over all
        kernels when fewer than :data:`MIN_KERNELS` did."""
        lo = bisect.bisect_left(self.started, start - SCALE_WINDOW_S)
        hi = bisect.bisect_right(self.started, end + SCALE_WINDOW_S)
        kernels = self.kernels[lo:hi] if hi - lo >= MIN_KERNELS else self.kernels
        return REFERENCE_S * statistics.fmean(1.0 / k for k in kernels)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def setup_layer_metrics(tracer, state) -> dict:
    total = tracer.total.get
    return {
        "workload.parse_s": total("workload.parse_timetable", 0.0),
        "workload.expand_s": total("workload.expand", 0.0),
        "workload.fleet_s": tracer.fleet_s,
        "model.instance_s": total("model.ProblemInstance.__init__", 0.0)
        + total("model.ProblemInstance.segments", 0.0),
        "model.segments": sum(len(inst.segments) for inst in state["instances"]),
    }


def unit_layer_metrics(tracer, check) -> dict:
    def total(name):
        return tracer.total.get(name, 0.0)

    def calls(name):
        return tracer.calls.get(name, 0)

    evaluations = sum(tracer.evaluations.values())
    try_energy = calls("power.EnergyEvaluator.try_energy")
    repairs = calls("schedulers.repair")
    exact_s = total("schedulers.exact_schedule")
    return {
        "model.check_feasibility_s": total("model.check_feasibility"),
        "power.evaluator_init_s": total("power.EnergyEvaluator.__init__"),
        "power.try_energy_calls": try_energy,
        "power.evaluations": evaluations,
        "power.cache_hit_ratio": 1.0 - evaluations / try_energy if try_energy else 0.0,
        "power.compute_s": total("power.EnergyEvaluator._compute"),
        "power.first_violation_calls": calls("power.EnergyEvaluator.first_violation"),
        "power.first_violation_s": total("power.EnergyEvaluator.first_violation"),
        "power.fits_calls": calls("power.EnergyEvaluator.fits"),
        "power.fits_s": total("power.EnergyEvaluator.fits"),
        "power.integrate_energy_calls": calls("power.integrate_energy"),
        "power.integrate_energy_s": total("power.integrate_energy"),
        "schedulers.ga_init_s": tracer.ga_init_s,
        "schedulers.repair_calls": repairs,
        "schedulers.repair_s": total("schedulers.repair"),
        "schedulers.repair_moves": tracer.repair_moves,
        "schedulers.child_infeasible_share": tracer.repairs_moved / repairs if repairs else 0.0,
        "schedulers.select_parents_s": total("schedulers.select_parents"),
        "schedulers.crossover_s": total("schedulers.crossover"),
        "schedulers.mutate_s": total("schedulers.mutate"),
        "schedulers.fitness_s": total("schedulers.fitness"),
        "schedulers.bfd_s": total("schedulers.bfd_schedule"),
        "schedulers.exact_s": exact_s,
        "schedulers.exact_assignments_per_s": (
            tracer.evaluations.get("schedulers.exact_schedule", 0) / exact_s if exact_s else 0.0
        ),
        "cli.build_instance_s": total("cli.build_instance"),
        "cli.run_experiment_s": total("cli.run_experiment"),
        "cli.emit_report_s": total("cli.emit_report"),
        "cli.report_bytes": len(check.report_bytes) if check.report_bytes is not None else 0,
    }


def tail(samples):
    """The highest percentile with at least ten samples above it, as
    (label, value); the maximum when there are fewer than 20 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return "max", ordered[-1]
    p = 100 * (n - 10) // n
    return f"p{p}", ordered[max(0, -(-p * n // 100) - 1)]


@dataclass
class Unit:
    """One unit's wall time, its solver-call timings and its check; the solver
    results themselves are dropped once checked, so memory does not grow with
    the number of units. ``calls`` holds (kind, seconds, CPU seconds,
    start) per solver call; ``span`` the unit's start and end."""

    seconds: float
    cpu_seconds: float
    span: Tuple[float, float]
    calls: List[Tuple[str, float, float, float]]
    check: object
    layers: Optional[dict] = None
    spans: Optional[dict] = None


class Runner:
    """Runs units of one workload and collects their timings and checks.

    Each untraced unit is preceded by a few timed set-up regions, so
    ``setup_s`` samples the whole run rather than its first moments. The
    speed sampler runs during the set-ups and the unit. The collector runs
    before every timed region, so each starts from the same heap state. Wall
    time and process CPU time are recorded side by side, both without the
    sampler's time.
    """

    def __init__(self, workload, inputs, process_start: float):
        self.workload = workload
        self.inputs = inputs
        self.process_start = process_start
        self.sampler = SpeedSampler()
        #: Timed set-up regions: (seconds per set-up, CPU seconds, start, end).
        self.setups: List[Tuple[float, float, float, float]] = []
        self.batch = 1
        self.state = self.setup()
        self.batch = max(1, math.ceil(SETUP_REGION_S / self.setups.pop()[0]))
        self.units: List[Unit] = []

    def timed(self, fn):
        """Run ``fn()``; return its result, wall and CPU seconds without the
        time the speed sampler took meanwhile, and its start and end."""
        paused = self.sampler.spent
        start, cpu = time.perf_counter(), time.process_time()
        result = fn()
        end, cpu_seconds = time.perf_counter(), time.process_time() - cpu
        paused = self.sampler.spent - paused
        return result, end - start - paused, cpu_seconds - paused, (start, end)

    def setup(self):
        """Time one region of ``self.batch`` back-to-back set-ups, and keep the
        last one's state. Each region gives one per-set-up sample."""
        gc.collect()
        states, seconds, cpu, span = self.timed(lambda: [self.workload.setup(self.inputs) for _ in range(self.batch)])
        self.setups.append((seconds / self.batch, cpu / self.batch, *span))
        return states[-1]

    def run_units(self, budget_s: float, tracer=None) -> List[Unit]:
        """Run units for about ``budget_s`` seconds: at least one, and at least
        :data:`MIN_UNITS` when untraced."""
        from workloads import Calls

        done: List[Unit] = []
        t0 = time.perf_counter()
        while True:
            with self.sampler if tracer is None else contextlib.nullcontext():
                if tracer is None:
                    for _ in range(SETUP_REGIONS_PER_UNIT):
                        self.setup()
                calls = Calls(lambda: self.sampler.spent)
                if tracer is not None:
                    tracer.reset()
                    tracer.active = True
                gc.collect()
                _, seconds, cpu_seconds, span = self.timed(lambda: self.workload.unit(self.state, calls))
                if tracer is not None:
                    tracer.active = False
            if tracer is None:
                # One kernel after each unit, so that even units shorter than
                # the sampling interval have kernels near them.
                self.sampler.tick()
            check = self.workload.check(self.state, calls)
            unit = Unit(seconds, cpu_seconds, span,
                        [(c.kind, c.seconds, c.cpu_seconds, c.started) for c in calls.calls], check)
            if tracer is not None:
                unit.layers = unit_layer_metrics(tracer, check)
                unit.spans = tracer.span_table()
            done.append(unit)
            elapsed = time.perf_counter() - t0
            typical = statistics.median(u.seconds for u in done)
            if len(done) >= (1 if tracer is not None else MIN_UNITS):
                if elapsed + typical > budget_s:
                    break
                if time.perf_counter() - self.process_start + typical > HARD_LIMIT_S:
                    break
        self.units.extend(done)
        return done


def failures_of(units: List[Unit]) -> Tuple[int, List[str]]:
    """Solver calls attempted, and every failure: failed checks, and units
    whose results or report differ from the first unit's."""
    first = units[0].check
    failures = []
    attempted = 0
    for i, unit in enumerate(units):
        check = unit.check
        attempted += len(unit.calls)
        failures += [f"unit {i}: {f}" for f in check.failures]
        if check.digest != first.digest:
            failures.append(f"unit {i}: results differ from unit 0 ({check.digest[:12]} != {first.digest[:12]})")
        if check.report_bytes != first.report_bytes:
            failures.append(f"unit {i}: report bytes differ from unit 0")
    return attempted, failures


def unit_means(runner: Runner, units: List[Unit], kind: str) -> List[float]:
    """Each unit's mean time per ``kind`` call in reference seconds; units
    repeat the same calls (the digest check verifies it), so these are
    repeats of one mean."""
    scale = runner.sampler.scale
    means = []
    for unit in units:
        times = [t * scale(start, start + t) for k, t, _, start in unit.calls if k == kind]
        if times:
            means.append(statistics.fmean(times))
    return means


def end_to_end_metrics(runner: Runner, untraced: List[Unit], attempted: int, failed: int, rss_mb: float) -> dict:
    """A timing's value is the median over its repeats, each in reference
    seconds: set-up regions, units, or each unit's mean time per call of one
    solver. Each also gets the median, tail and count of its wall-time
    samples and the median process CPU time; see README.md for why."""
    setups = runner.setups
    timings = {
        "setup_s": ([s for s, *_ in setups], [c for _, c, *_ in setups],
                    [s * runner.sampler.scale(a, b) for s, _, a, b in setups]),
        "workload_s": ([u.seconds for u in untraced], [u.cpu_seconds for u in untraced],
                       [u.seconds * runner.sampler.scale(*u.span) for u in untraced]),
    }
    for name, kind in (("ga_run_s", "gapa"), ("bfd_run_s", "bfd"), ("exact_run_s", "exact")):
        means = unit_means(runner, untraced, kind)
        if means:
            calls = [c for u in untraced for c in u.calls if c[0] == kind]
            timings[name] = ([c[1] for c in calls], [c[2] for c in calls], means)
    e2e = {}
    for name, (samples, cpu_samples, scaled) in timings.items():
        label, tail_value = tail(samples)
        e2e[name] = {
            "value": statistics.median(scaled),
            "median": statistics.median(samples),
            "tail": label,
            "tail_value": tail_value,
            "n": len(samples),
            "cpu_median": statistics.median(cpu_samples),
            "samples": samples,
        }
    first = untraced[0].check
    e2e["peak_rss_mb"] = {"value": rss_mb}
    if first.ga_kwh:
        e2e["ga_kwh_mean"] = {"value": statistics.fmean(first.ga_kwh), "n": len(first.ga_kwh)}
    if first.ratios:
        e2e["ga_vs_bfd_ratio"] = {"value": statistics.fmean(first.ratios), "n": len(first.ratios)}
    if first.targeted:
        e2e["ga_optimum_hit_rate"] = {"value": first.hits / first.targeted, "n": first.targeted}
    e2e["failed_share"] = {"value": failed / attempted if attempted else 1.0, "n": attempted}
    for entry_name, entry in e2e.items():
        entry["unit"], entry["better"] = END_TO_END[entry_name]
    return e2e


def per_layer_metrics(setup_layers: List[dict], traced: List[Unit]) -> dict:
    layers = {}
    for name, unit in PER_LAYER.items():
        source = setup_layers if name in SETUP_LAYER else [u.layers for u in traced]
        median = statistics.median_low if unit == "count" else statistics.median
        layers[name] = {"value": median(m[name] for m in source), "unit": unit}
    return layers


def spans_per_unit(traced: List[Unit]) -> Dict[str, dict]:
    """Per span name: mean calls, inclusive and self seconds per traced unit."""
    table: Dict[str, dict] = {}
    for unit in traced:
        for name, row in unit.spans.items():
            acc = table.setdefault(name, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key] / len(traced)
    return table


def tracing_overhead(untraced: List[Unit], traced: List[Unit]) -> dict:
    base = statistics.median(u.seconds for u in untraced)
    with_trace = statistics.median(u.seconds for u in traced)
    return {
        "untraced_workload_s": base,
        "traced_workload_s": with_trace,
        "overhead_s": with_trace - base,
        "overhead_ratio": with_trace / base - 1.0,
    }


def print_tables(e2e: dict, layers: dict, spans: dict, overhead: Optional[dict]) -> None:
    print(f"{'end-to-end metric':22} {'value':>12} {'wall median':>12} {'wall tail':>18} {'n':>5} {'cpu median':>12}  "
          "unit   better")
    for name, entry in e2e.items():
        median = f"{entry['median']:.6g}" if "median" in entry else ""
        tail_text = f"{entry['tail']}={entry['tail_value']:.6g}" if "tail" in entry else ""
        cpu = f"{entry['cpu_median']:.6g}" if "cpu_median" in entry else ""
        print(f"{name:22} {entry['value']:12.6g} {median:>12} {tail_text:>18} {entry.get('n', ''):>5} {cpu:>12}  "
              f"{entry['unit']:6} {entry['better']}")
    if overhead is None:
        return
    print(f"{'per-layer metric':38} {'median':>14}  unit")
    for name, entry in layers.items():
        print(f"{name:38} {entry['value']:14.6g}  {entry['unit']}")
    print(f"{'span (per traced unit)':40} {'calls':>10} {'total_s':>10} {'self_s':>10}")
    for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:40} {row['calls']:10.0f} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    print(f"tracing overhead: {overhead['overhead_s']:.4f} s per unit "
          f"({overhead['overhead_ratio']:+.1%} on {overhead['untraced_workload_s']:.4f} s untraced)")


def git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "vmplace").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def next_bench_number() -> int:
    taken = [p.stem.split("_", 1)[1] for p in OUT.glob("BENCH_*.json")]
    return max((int(t) for t in taken if t.isdigit()), default=0) + 1


def parse_args(argv):
    from workloads import SIZES, WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measurement time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full", help="tiny is for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    process_start = time.perf_counter()
    if not (SRC / "vmplace" / "__init__.py").is_file():
        print(f"error: no vmplace sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vmplace

    if Path(vmplace.__file__).resolve().parent != SRC / "vmplace":
        print(f"error: imported vmplace from {vmplace.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    args = parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = None
    traced: List[Unit] = []
    setup_layers: List[dict] = []
    try:
        workload = WORKLOADS[args.workload](args.size, workdir)
        inputs = workload.inputs(args.seed)
        runner = Runner(workload, inputs, process_start)
        built = runner.state["instances"]
        inputs["record"]["built"] = {
            "instances": len(built),
            "vms": sum(len(inst.vms) for inst in built),
            "hosts": sum(len(inst.hosts) for inst in built),
            "segments": sum(len(inst.segments) for inst in built),
        }
        if args.trace:
            untraced = runner.run_units(args.seconds / 3)
            tracer = Tracer()
            tracer.install()
            for _ in range(TRACED_SETUPS):
                tracer.reset()
                setup_layers.append(setup_layer_metrics(tracer, workload.setup(inputs)))
            tracer.active = False
            traced = runner.run_units(args.seconds * 2 / 3, tracer)
            tracer.uninstall()
        else:
            untraced = runner.run_units(args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failures = failures_of(runner.units)
    failed = len(failures)
    correct = not failures
    e2e = end_to_end_metrics(runner, untraced, attempted, failed, rss_mb)
    layers = per_layer_metrics(setup_layers, traced) if traced else {}
    spans = spans_per_unit(traced) if traced else {}
    overhead = tracing_overhead(untraced, traced) if traced else None

    mode = "traced" if args.trace else "timed"
    print(f"vmplace benchmark  workload={args.workload} seed={args.seed} mode={mode} "
          f"seconds={args.seconds:g} size={args.size}")
    print(f"inputs: {json.dumps(inputs['record'])}")
    kernels = runner.sampler.kernels
    probe = {"reference_s": REFERENCE_S, "kernels": len(kernels), "median": statistics.median(kernels),
             "fastest": min(kernels), "started": runner.sampler.started, "durations": kernels,
             "setups": runner.setups, "units": [(u.span, u.seconds, u.calls) for u in untraced]}
    print(f"units: {len(untraced)} untraced, {len(traced)} traced")
    print(f"speed sampler: {probe['kernels']} reference kernels, median {probe['median']:.6g} s, "
          f"fastest {probe['fastest']:.6g} s (nominal {REFERENCE_S:g} s)")
    print_tables(e2e, layers, spans, overhead)
    print(f"correct={correct} attempted={attempted} failed={failed}")
    for line in failures[:20]:
        print(f"  failure: {line}")
    print(f"result digest: {untraced[0].check.digest}")

    n = next_bench_number()
    record = {
        "benchmark": "vmplace",
        "workload": args.workload,
        "seed": args.seed,
        "mode": mode,
        "seconds": args.seconds,
        "size": args.size,
        "machine": dict(machine(), speed_sampler=probe),
        "code": {"git_commit": git_commit(), "src_sha256": source_digest()},
        "inputs": inputs["record"],
        "units": {"untraced": len(untraced), "traced": len(traced)},
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "result_digest": untraced[0].check.digest,
        "end_to_end": e2e,
        "per_layer": layers,
        "spans_per_unit": spans,
        "trace_overhead": overhead,
    }
    if tracer is not None:
        spans_path = OUT / f"SPANS_{n}.csv"
        record["spans_file"] = spans_path.name
        record["spans_stored"] = tracer.write_spans(spans_path)
        record["spans_dropped"] = tracer.spans_dropped
    bench_path = OUT / f"BENCH_{n}.json"
    with open(bench_path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {bench_path.relative_to(ROOT)}")

    table = layers if args.trace else e2e
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] not in table:
            print(f"error: metric {m['name']} was not measured on {args.workload}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": table[m["name"]]["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
