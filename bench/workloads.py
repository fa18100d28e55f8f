"""The benchmark's workloads: generated inputs, set-up, one fixed unit of work,
and the correctness checks of that unit's solver results.

Every workload reaches vmplace through module attributes looked up at call
time (``vmplace.schedulers.gapa_schedule``), so tracing wrappers installed on
those modules see every call.

- ``lab-cli``: the bundled 211-VM lab timetable on the default 100-host fleet,
  run through ``vmplace experiment`` in-process. The paper's own workload and
  the only one that covers report emission; two segments, so cost is per-gene
  loops and repair, not segment spans.
- ``small-oracle``: acceptance-4 style instances (<= 6 VMs, <= 3 hosts) plus
  the acceptance-2 worked example, each solved exactly, greedily and by the GA.
  Per-call interpreter overhead dominates; segment spans cost almost nothing.
- ``many-seg``: a 2,000-VM x 300-host synthetic timetable with tens of
  segments, where load accounting (violation scans, fit checks, energy
  evaluation, the evaluator's demand table) dominates.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import vmplace
import vmplace.cli
import vmplace.model
import vmplace.power
import vmplace.schedulers
import vmplace.workload

import generators

#: Workload sizes: the benchmark's own, and a tiny one for the smoke test.
SIZES = {
    "full": {
        "lab_seeds": 4,
        "lab_generations": 500,
        "oracle_per_stratum": 3,
        "oracle_seeds": 2,
        "oracle_generations": 500,
        "many_vms": 2000,
        "many_hosts_per_class": 150,
        "many_mask_len": 64,
        "many_generations": 10,
    },
    "tiny": {
        "lab_seeds": 1,
        "lab_generations": 3,
        "oracle_per_stratum": 1,
        "oracle_seeds": 1,
        "oracle_generations": 10,
        "many_vms": 60,
        "many_hosts_per_class": 6,
        "many_mask_len": 16,
        "many_generations": 2,
    },
}

BFD, GAPA, EXACT = "bfd", "gapa", "exact"


@dataclass
class SolverCall:
    kind: str
    seconds: float
    cpu_seconds: float
    started: float
    instance: object
    idle: bool
    result: object = None
    error: Optional[str] = None


class Calls:
    """Times and keeps every solver call of one unit for later checking.

    ``paused`` returns the seconds spent so far outside the workload (in the
    harness's speed sampler); a call's times leave out what it grew by."""

    def __init__(self, paused: Callable[[], float] = lambda: 0.0):
        self.calls: List[SolverCall] = []
        self.paused = paused

    def wrap(self, kind: str, fn):
        signature = inspect.signature(fn)

        def timed(*args, **kwargs):
            p0 = self.paused()
            t0, c0 = time.perf_counter(), time.process_time()

            def times():
                t1, c1 = time.perf_counter(), time.process_time()
                paused = self.paused() - p0
                return t1 - t0 - paused, c1 - c0 - paused, t0

            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._keep(kind, times(), signature, args, kwargs, None, f"{type(exc).__name__}: {exc}")
                raise
            self._keep(kind, times(), signature, args, kwargs, result, None)
            return result

        return timed

    def _keep(self, kind, times, signature, args, kwargs, result, error):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        self.calls.append(
            SolverCall(
                kind,
                *times,
                bound.arguments["instance"],
                bool(bound.arguments["idle_hosts_powered"]),
                result,
                error,
            )
        )

    def call(self, kind: str, fn, *args, **kwargs):
        """Call a solver; an exception is recorded as a failed call, not raised."""
        try:
            return self.wrap(kind, fn)(*args, **kwargs)
        except Exception:
            return None


@dataclass
class Target:
    """What a GA run on an instance should reach: the exact optimum's joules,
    or (for the worked example) every VM on one host."""

    joules: Optional[float] = None
    host: Optional[int] = None


@dataclass
class UnitCheck:
    failures: List[str] = field(default_factory=list)
    digest: str = ""
    ga_kwh: List[float] = field(default_factory=list)
    ratios: List[float] = field(default_factory=list)
    hits: int = 0
    targeted: int = 0
    report_bytes: Optional[bytes] = None


def check_unit(calls: Calls, targets: Dict[int, Target]) -> UnitCheck:
    """Recheck each call against the reference path and summarise quality.

    A call fails when it raised, when ``check_feasibility`` rejects its
    placement, when ``integrate_energy`` does not reproduce its kWh, or when
    it beats a known exact optimum.
    """
    out = UnitCheck()
    digest = hashlib.sha256()
    bfd_kwh: Dict[int, float] = {}
    for c in calls.calls:
        if c.kind == BFD and c.result is not None:
            bfd_kwh[id(c.instance)] = c.result.energy.total_kwh
    for n, c in enumerate(calls.calls):
        digest.update(f"{n}:{c.kind}:".encode())
        if c.error is not None:
            out.failures.append(f"call {n} ({c.kind}) raised {c.error}")
            digest.update(b"error;")
            continue
        res = c.result
        inst = c.instance
        try:
            violations = vmplace.model.check_feasibility(res.placement, inst)
            if violations:
                out.failures.append(f"call {n} ({c.kind}): {len(violations)} capacity violation(s)")
                continue
            kwh = vmplace.power.integrate_energy(res.placement, inst, c.idle).total_kwh
        except (ValueError, KeyError, vmplace.VmPlaceError) as exc:
            out.failures.append(f"call {n} ({c.kind}): placement rejected: {exc}")
            continue
        if not math.isclose(kwh, res.energy.total_kwh, rel_tol=1e-12, abs_tol=0.0):
            out.failures.append(f"call {n} ({c.kind}): reported {res.energy.total_kwh} kWh, reference {kwh}")
            continue
        hosts = [res.placement[v.id] for v in inst.vms]
        digest.update(",".join(map(str, hosts)).encode())
        digest.update(f";{res.energy.total_joules!r};".encode())
        target = targets.get(id(inst))
        if target is not None and target.joules is not None and c.kind != EXACT:
            if res.energy.total_joules < target.joules - 1e-6:
                out.failures.append(f"call {n} ({c.kind}) beat the exact optimum")
        if c.kind == GAPA:
            digest.update(";".join(repr(f) for f in res.stats["trajectory"]).encode())
            out.ga_kwh.append(res.energy.total_kwh)
            if id(inst) in bfd_kwh:
                out.ratios.append(bfd_kwh[id(inst)] / res.energy.total_kwh)
            if target is not None:
                out.targeted += 1
                if target.joules is not None:
                    out.hits += res.energy.total_joules <= target.joules * (1 + 1e-9)
                else:
                    out.hits += set(hosts) == {target.host}
    out.digest = digest.hexdigest()
    return out


class Workload:
    """Inputs from a seed, a repeatable set-up, and one fixed unit of work."""

    name = ""

    def __init__(self, size: str, workdir: str):
        self.size = SIZES[size]
        self.workdir = workdir

    def inputs(self, seed: int) -> Dict:
        raise NotImplementedError

    def setup(self, inputs: Dict) -> Dict:
        raise NotImplementedError

    def unit(self, state: Dict, calls: Calls) -> None:
        """The fixed unit of work whose wall time is ``workload_s``."""
        raise NotImplementedError

    def check(self, state: Dict, calls: Calls) -> UnitCheck:
        """Correctness and quality summary of one unit's solver calls."""
        return check_unit(calls, state.get("targets", {}))


def _instance(vms, hosts, cap_demand_to_core=False):
    inst = vmplace.model.ProblemInstance(tuple(vms), tuple(hosts), cap_demand_to_core=cap_demand_to_core)
    inst.segments  # built lazily; set-up includes it
    return inst


def _fleet(document):
    spec, models = vmplace.workload.fleet_spec_from_json(document)
    return vmplace.workload.build_fleet(spec, models)


class LabCli(Workload):
    name = "lab-cli"

    def inputs(self, seed):
        timetable = os.path.join(self.workdir, "timetable.csv")
        fleet = os.path.join(self.workdir, "fleet.json")
        code = vmplace.cli.main(["gen-workload", "--out", timetable, "--fleet-out", fleet])
        if code != 0:
            raise RuntimeError(f"gen-workload exited with {code}")
        ga_seeds = generators.derived_seeds(self.name, seed, self.size["lab_seeds"])
        return {
            "timetable": timetable,
            "fleet": fleet,
            "ga_seeds": ga_seeds,
            "record": {"seed": seed, "ga_seeds": ga_seeds, "vm_template": [2, 2933.0]},
        }

    def setup(self, inputs):
        config = vmplace.cli.ExperimentConfig(
            workload_path=inputs["timetable"],
            fleet_path=inputs["fleet"],
            vm_pe_count=2,
            vm_mips_per_pe=2933.0,
        )
        inst = vmplace.cli.build_instance(config)
        inst.segments
        report = os.path.join(self.workdir, "report.csv")
        argv = [
            "experiment",
            "--workload", inputs["timetable"],
            "--fleet", inputs["fleet"],
            "--vm-pes", "2",
            "--vm-mips", "2933",
            "--solvers", "bfd,gapa",
            "--generations", str(self.size["lab_generations"]),
            "--crossover", "0.5",
            "--out", report,
        ]
        for s in inputs["ga_seeds"]:
            argv += ["--seed", str(s)]
        return {"instances": [inst], "argv": argv, "report": report}

    def unit(self, state, calls):
        cli = vmplace.cli
        saved = {name: getattr(cli, name) for name in ("bfd_schedule", "gapa_schedule")}
        cli.bfd_schedule = calls.wrap(BFD, saved["bfd_schedule"])
        cli.gapa_schedule = calls.wrap(GAPA, saved["gapa_schedule"])
        try:
            state["exit_code"] = cli.main(state["argv"])
        except Exception as exc:  # an error main() does not map to an exit code
            state["exit_code"] = f"{type(exc).__name__}: {exc}"
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)

    def check(self, state, calls):
        out = check_unit(calls, {})
        if state["exit_code"] != 0:
            out.failures.append(f"vmplace experiment ended with {state['exit_code']}")
        try:
            with open(state["report"], "rb") as fh:
                out.report_bytes = fh.read()
        except OSError as exc:
            out.failures.append(f"no report: {exc}")
        return out


class SmallOracle(Workload):
    name = "small-oracle"

    def inputs(self, seed):
        corpus = generators.oracle_corpus(seed, self.size["oracle_per_stratum"])
        worked = generators.worked_example_inputs()
        ga_seeds = generators.derived_seeds(self.name, seed, self.size["oracle_seeds"])
        record = dict(corpus["record"], ga_seeds=ga_seeds, worked_example=worked["record"])
        return {"corpus": corpus["instances"], "worked": worked, "ga_seeds": ga_seeds, "record": record}

    def setup(self, inputs):
        VmRequest = vmplace.model.VmRequest
        corpus = [_instance((VmRequest(*f) for f in vms), _fleet(fleet)) for fleet, vms in inputs["corpus"]]
        worked = inputs["worked"]
        rows = vmplace.workload.parse_timetable(worked["timetable"])
        vms = vmplace.workload.expand(rows, vmplace.workload.SlotConfig(), vm_template=worked["vm_template"])
        example = _instance(vms, _fleet(worked["fleet"]), cap_demand_to_core=True)
        return {
            "corpus": corpus,
            "example": example,
            "big_host": worked["big_host"],
            "instances": corpus + [example],
            "ga_seeds": inputs["ga_seeds"],
            "targets": {},
        }

    def unit(self, state, calls):
        S = vmplace.schedulers
        gens = self.size["oracle_generations"]
        targets = state["targets"]
        targets.clear()
        for inst in state["corpus"]:
            exact = calls.call(EXACT, S.exact_schedule, inst, idle_hosts_powered=True)
            if exact is not None:
                targets[id(inst)] = Target(joules=exact.energy.total_joules)
            calls.call(BFD, S.bfd_schedule, inst, idle_hosts_powered=True)
            for s in state["ga_seeds"]:
                calls.call(GAPA, S.gapa_schedule, inst, S.GaConfig(generations=gens, seed=s), idle_hosts_powered=True)
        example = state["example"]
        targets[id(example)] = Target(host=state["big_host"])
        calls.call(BFD, S.bfd_schedule, example)
        for s in state["ga_seeds"]:
            calls.call(GAPA, S.gapa_schedule, example, S.GaConfig(generations=gens, seed=s))


class ManySeg(Workload):
    name = "many-seg"

    def inputs(self, seed):
        data = generators.many_seg_inputs(
            seed,
            vm_count=self.size["many_vms"],
            hosts_per_class=self.size["many_hosts_per_class"],
            mask_len=self.size["many_mask_len"],
        )
        (data["ga_seed"],) = generators.derived_seeds(self.name, seed, 1)
        data["record"]["ga_seed"] = data["ga_seed"]
        return data

    def setup(self, inputs):
        rows = vmplace.workload.parse_timetable(inputs["timetable"])
        slots = vmplace.workload.SlotConfig(slot_length=inputs["slot_length"])
        vms = vmplace.workload.expand(rows, slots, vm_template=inputs["vm_template"])
        return {"instances": [_instance(vms, _fleet(inputs["fleet"]))], "ga_seed": inputs["ga_seed"]}

    def unit(self, state, calls):
        S = vmplace.schedulers
        (inst,) = state["instances"]
        calls.call(BFD, S.bfd_schedule, inst)
        config = S.GaConfig(generations=self.size["many_generations"], seed=state["ga_seed"])
        calls.call(GAPA, S.gapa_schedule, inst, config)


WORKLOADS = {cls.name: cls for cls in (LabCli, SmallOracle, ManySeg)}
