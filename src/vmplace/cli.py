"""Experiment runner: load a workload and fleet, run solvers, emit reports.

Subcommands
-----------
solve         run one solver on one instance and report its energy
experiment    run BFD/GAPA/EXACT over a GA parameter grid with fixed seeds
gen-workload  write the bundled sample timetable (and optionally a fleet file)
validate      feasibility-check a placement file against an instance

Reports are CSV (stable column order, 6-decimal kWh) or JSON. They hold no
wall-clock times, so identical inputs produce byte-identical report files.

Exit codes: 0 success, 2 configuration error, 3 infeasible or unrepairable
instance, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    BudgetExceededError,
    ConfigError,
    InfeasiblePlacementError,
    NoFeasibleAssignmentError,
    NoFeasibleHostError,
    ParseError,
    UnrepairableError,
)
from .model import Placement, ProblemInstance
from .power import KWH_PER_JOULE, integrate_energy, ordered_sum
from .schedulers import (
    FITNESS_ENERGY,
    FITNESS_SNAPSHOT_POWER,
    GaConfig,
    SolveResult,
    bfd_schedule,
    exact_schedule,
    gapa_schedule,
)
from .workload import (
    DEFAULT_FLEET,
    SAMPLE_TIMETABLE,
    SlotConfig,
    build_fleet,
    expand,
    fleet_to_json,
    load_fleet,
    parse_timetable,
)

SOLVER_BFD = "bfd"
SOLVER_GAPA = "gapa"
SOLVER_EXACT = "exact"

DEFAULT_SEEDS = tuple(range(1, 21))

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

#: Stable CSV schema; changing the order is a report-format break.
CSV_COLUMNS = (
    "solver",
    "aggregate",
    "population",
    "generations",
    "crossover",
    "mutation",
    "fitness",
    "seed",
    "status",
    "total_kwh",
    "hosts_used",
    "ratio_vs_bfd",
    "per_host_kwh",
    "trajectory",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: which solvers run on which instance, and how."""

    workload_path: Optional[str]  # None -> bundled sample timetable
    fleet_path: Optional[str]  # None -> default 100-host fleet
    solvers: Tuple[str, ...] = (SOLVER_BFD, SOLVER_GAPA)
    ga_grid: Tuple[GaConfig, ...] = (GaConfig(),)
    seeds: Tuple[int, ...] = DEFAULT_SEEDS
    idle_hosts_powered: bool = False
    vm_pe_count: int = 1
    vm_mips_per_pe: float = 2200.0
    cap_demand_to_core: bool = False
    exact_budget: int = 10_000_000

    def __post_init__(self):
        if not self.solvers:
            raise ConfigError("at least one solver is required")
        unknown = set(self.solvers) - {SOLVER_BFD, SOLVER_GAPA, SOLVER_EXACT}
        if unknown:
            raise ConfigError(f"unknown solvers: {sorted(unknown)}")
        if SOLVER_GAPA in self.solvers and (not self.ga_grid or not self.seeds):
            raise ConfigError("gapa requires a non-empty parameter grid and seed list")


@dataclass
class RunRecord:
    """One solver run, or a grid point's mean or min over its seeds. ``config``
    is a GA run's own settings, or an aggregate's grid point (its report row
    leaves the seed empty); BFD and EXACT rows have none."""

    solver: str
    aggregate: str = ""  # "", "mean" or "min"
    config: Optional[GaConfig] = None
    status: str = "ok"
    total_kwh: Optional[float] = None
    hosts_used: Optional[int] = None
    ratio_vs_bfd: Optional[float] = None
    per_host_kwh: Dict[int, float] = field(default_factory=dict)
    trajectory: Tuple[float, ...] = ()
    # Not in the report: ``--dump-placements`` writes it to a file of its own.
    placement: Optional[Placement] = None


def _record_from_result(solver: str, result: SolveResult, cfg: Optional[GaConfig]) -> RunRecord:
    per_host = result.energy.per_host
    return RunRecord(
        solver=solver,
        config=cfg,
        total_kwh=result.energy.total_kwh,
        hosts_used=sum(1 for kwh in per_host.values() if kwh > 0.0),
        per_host_kwh={h: j * KWH_PER_JOULE for h, j in per_host.items() if j > 0.0},
        trajectory=tuple(result.stats.get("trajectory", ())),
        placement=result.placement,
    )


def build_instance(config: ExperimentConfig) -> ProblemInstance:
    """Load (or default) the workload and fleet into a problem instance."""
    if config.workload_path is None:
        rows = parse_timetable(SAMPLE_TIMETABLE)
    else:
        with open(config.workload_path) as fh:
            rows = parse_timetable(fh)
    if not rows:
        raise ConfigError("workload contains no rows")
    vms = expand(rows, SlotConfig(), vm_template=(config.vm_pe_count, config.vm_mips_per_pe))
    if config.fleet_path is None:
        hosts = build_fleet(DEFAULT_FLEET)
    else:
        hosts = load_fleet(config.fleet_path)
    return ProblemInstance(tuple(vms), tuple(hosts), cap_demand_to_core=config.cap_demand_to_core)


def run_experiment(config: ExperimentConfig) -> List[RunRecord]:
    """Run the configured solvers; records come back in config order.

    BFD runs once (it is deterministic); GAPA runs per (grid point x seed)
    followed by that grid point's mean and min aggregates; EXACT runs once if
    its enumeration budget allows, else yields a budget_exceeded record.
    When BFD ran, every row with a kWh then gets its ratio to BFD's.
    """
    instance = build_instance(config)
    idle = config.idle_hosts_powered
    records: List[RunRecord] = []
    if SOLVER_BFD in config.solvers:
        records.append(_record_from_result(SOLVER_BFD, bfd_schedule(instance, idle), None))
    if SOLVER_GAPA in config.solvers:
        for point in config.ga_grid:
            cfgs = [replace(point, seed=seed) for seed in config.seeds]
            runs = [_record_from_result(SOLVER_GAPA, gapa_schedule(instance, c, idle), c) for c in cfgs]
            kwh = [r.total_kwh for r in runs]
            records += runs
            records.append(RunRecord(SOLVER_GAPA, "mean", point, total_kwh=ordered_sum(kwh) / len(kwh)))
            records.append(RunRecord(SOLVER_GAPA, "min", point, total_kwh=min(kwh)))
    if SOLVER_EXACT in config.solvers:
        try:
            result = exact_schedule(instance, config.exact_budget, idle)
        except BudgetExceededError:
            records.append(RunRecord(SOLVER_EXACT, status="budget_exceeded"))
        else:
            records.append(_record_from_result(SOLVER_EXACT, result, None))
    if SOLVER_BFD in config.solvers:
        # BFD's row comes first; its own ratio is exactly 1.0.
        bfd_kwh = records[0].total_kwh
        for rec in records:
            if rec.total_kwh is not None:
                rec.ratio_vs_bfd = bfd_kwh / rec.total_kwh
    return records


# ---------------------------------------------------------------------------
# Report serialization


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.6f}"


def _record_to_row(rec: RunRecord) -> List[str]:
    cfg = rec.config
    ga = [""] * 6
    if cfg is not None:
        ga = [str(cfg.population_size), str(cfg.generations), f"{cfg.crossover_prob:g}"]
        ga += [f"{cfg.mutation_prob:g}", cfg.fitness_mode, "" if rec.aggregate else str(cfg.seed)]
    return [
        rec.solver,
        rec.aggregate,
        *ga,
        rec.status,
        _fmt(rec.total_kwh),
        "" if rec.hosts_used is None else str(rec.hosts_used),
        _fmt(rec.ratio_vs_bfd),
        ";".join(f"{h}:{kwh:.6f}" for h, kwh in sorted(rec.per_host_kwh.items())),
        ";".join(f"{f:.12g}" for f in rec.trajectory),
    ]


def _record_to_json(rec: RunRecord) -> dict:
    return dict(zip(CSV_COLUMNS, _record_to_row(rec)))


def emit_report(records: Sequence[RunRecord], output_format: str, sink) -> None:
    """Write records as CSV (stable columns) or a JSON array to a text sink."""
    if not records:
        raise ValueError("no records to emit")
    if output_format == "csv":
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(_record_to_row(rec))
    elif output_format == "json":
        json.dump([_record_to_json(r) for r in records], sink, indent=2)
        sink.write("\n")
    else:
        raise ConfigError(f"unknown output format {output_format!r}")


def _run_id(rec: RunRecord) -> str:
    cfg = rec.config
    if cfg is None:
        return rec.solver
    return f"{rec.solver}-g{cfg.generations}-c{cfg.crossover_prob:g}-s{cfg.seed}"


def write_placement(placement: Placement, sink) -> None:
    """One ``vm_id,host_id`` pair per line, in VM id order."""
    for vm_id in sorted(placement):
        sink.write(f"{vm_id},{placement[vm_id]}\n")


def read_placement(source) -> Placement:
    """Parse ``vm_id,host_id`` lines. A malformed line, or a VM placed a
    second time, raises ParseError with its line number."""
    text = source.read() if hasattr(source, "read") else source
    placement: Placement = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            vm_id, host_id = line.rsplit(",", 1)
            host = int(host_id)
        except ValueError as exc:
            raise ParseError(lineno, f"expected 'vm_id,host_id', got {line!r}") from exc
        if vm_id in placement:
            raise ParseError(lineno, f"VM {vm_id!r} is placed a second time")
        placement[vm_id] = host
    return placement


def _dump_placements(records: Sequence[RunRecord], out_path: str) -> None:
    stem = os.path.splitext(out_path)[0]
    for rec in records:
        if rec.placement is None:
            continue
        with open(f"{stem}.{_run_id(rec)}.placement", "w") as fh:
            write_placement(rec.placement, fh)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workload", metavar="PATH", help="timetable file (default: bundled sample)")
    p.add_argument("--fleet", metavar="PATH", help="fleet JSON file (default: built-in 100-host fleet)")
    p.add_argument("--vm-pes", type=int, default=1, help="PEs per expanded VM (default 1)")
    p.add_argument("--vm-mips", type=float, default=2200.0, help="MIPS per PE per expanded VM (default 2200)")
    p.add_argument(
        "--cap-to-core",
        action="store_true",
        help="cap each VM's per-core demand at the hosting core's MIPS",
    )
    p.add_argument(
        "--idle-powered",
        choices=("on", "off"),
        default="off",
        help="empty hosts draw idle power instead of 0 W (default off)",
    )


def _add_run_args(p: argparse.ArgumentParser, grid: bool) -> None:
    """Arguments of ``experiment`` (``grid``) or of ``solve``, which takes one
    solver, one grid point and one seed."""
    _add_instance_args(p)
    if grid:
        p.add_argument(
            "--solvers",
            default="bfd,gapa",
            help="comma-separated subset of bfd,gapa,exact (default bfd,gapa)",
        )
    else:
        p.add_argument(
            "--solver", dest="solvers", choices=(SOLVER_BFD, SOLVER_GAPA, SOLVER_EXACT), default=SOLVER_BFD
        )

    def grid_arg(flag: str, kind: type, default, help_grid: str) -> None:
        if grid:
            p.add_argument(flag, type=kind, action="append", help=help_grid)
        else:
            p.add_argument(flag, type=kind, default=default)

    p.add_argument("--population", type=int, default=10)
    grid_arg("--generations", int, 500, "repeatable (default 500 1000)")
    grid_arg("--crossover", float, 0.5, "repeatable (default 0.25 0.5 0.75)")
    p.add_argument("--mutation", type=float, default=0.01)
    grid_arg("--seed", int, 1, "repeatable (default 1..20)")
    p.add_argument("--fitness", choices=("energy", "snapshot"), default="energy")
    p.add_argument("--exact-budget", type=int, default=10_000_000)
    p.add_argument("--out", metavar="PATH", help="report file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="report format")
    p.add_argument("--dump-placements", action="store_true", help="write a placement file per run next to --out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vmplace", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_args(sub.add_parser("solve", help="run one solver on one instance"), grid=False)
    _add_run_args(sub.add_parser("experiment", help="run a solver grid and emit a report"), grid=True)

    p = sub.add_parser("gen-workload", help="write the bundled sample timetable")
    p.add_argument("--out", metavar="PATH", help="timetable destination (default: stdout)")
    p.add_argument("--fleet-out", metavar="PATH", help="also write the default fleet as JSON")

    p = sub.add_parser("validate", help="feasibility-check a placement file")
    _add_instance_args(p)
    p.add_argument("--placement", metavar="PATH", required=True, help="file of vm_id,host_id lines")
    return parser


def _instance_fields(args) -> dict:
    """The :class:`ExperimentConfig` fields set by :func:`_add_instance_args`."""
    return dict(
        workload_path=args.workload,
        fleet_path=args.fleet,
        idle_hosts_powered=args.idle_powered == "on",
        vm_pe_count=args.vm_pes,
        vm_mips_per_pe=args.vm_mips,
        cap_demand_to_core=args.cap_to_core,
    )


def _values(arg, default: tuple) -> tuple:
    """A grid flag's values: repeated (``experiment``), unset, or single (``solve``)."""
    if arg is None:
        return default
    return tuple(arg) if isinstance(arg, list) else (arg,)


def cmd_run(args) -> int:
    """``experiment``, and ``solve`` as an experiment of one grid point and one seed."""
    if args.dump_placements and args.out is None:
        raise ConfigError("--dump-placements needs --out: placement files are named after the report")
    fitness = FITNESS_ENERGY if args.fitness == "energy" else FITNESS_SNAPSHOT_POWER
    grid = tuple(
        GaConfig(
            population_size=args.population,
            generations=g,
            crossover_prob=c,
            mutation_prob=args.mutation,
            fitness_mode=fitness,
        )
        for g in _values(args.generations, (500, 1000))
        for c in _values(args.crossover, (0.25, 0.5, 0.75))
    )
    config = ExperimentConfig(
        **_instance_fields(args),
        solvers=tuple(s.strip() for s in args.solvers.split(",") if s.strip()),
        ga_grid=grid,
        seeds=_values(args.seed, DEFAULT_SEEDS),
        exact_budget=args.exact_budget,
    )
    records = run_experiment(config)
    if args.out is None:
        emit_report(records, args.format, sys.stdout)
    else:
        with open(args.out, "w") as fh:
            emit_report(records, args.format, fh)
        if args.dump_placements:
            _dump_placements(records, args.out)
    return EXIT_OK


def cmd_gen_workload(args) -> int:
    if args.out is None:
        sys.stdout.write(SAMPLE_TIMETABLE)
    else:
        with open(args.out, "w") as fh:
            fh.write(SAMPLE_TIMETABLE)
    if args.fleet_out:
        with open(args.fleet_out, "w") as fh:
            json.dump(fleet_to_json(DEFAULT_FLEET), fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def cmd_validate(args) -> int:
    config = ExperimentConfig(**_instance_fields(args))
    instance = build_instance(config)
    with open(args.placement) as fh:
        placement = read_placement(fh)
    report = integrate_energy(placement, instance, config.idle_hosts_powered)
    print(f"feasible; total {report.total_kwh:.6f} kWh over {instance.horizon} s")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "solve": cmd_run,
        "experiment": cmd_run,
        "gen-workload": cmd_gen_workload,
        "validate": cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        InfeasiblePlacementError,
        NoFeasibleHostError,
        NoFeasibleAssignmentError,
        UnrepairableError,
        BudgetExceededError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
