"""Domain types for timed VM-to-host allocation.

A problem instance is a fixed set of timed, non-preemptible VM requests plus a
fleet of hosts. A placement maps every VM to exactly one host for its whole
active interval [start_time, start_time + duration) -- half-open, so a VM
ending at t and one starting at t never overlap. Host load is piecewise
constant between VM starts/ends, so feasibility only needs to be checked at
event boundaries.

All types are immutable values; the operations here are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

PE_OVERFLOW = "PE_OVERFLOW"
MIPS_OVERFLOW = "MIPS_OVERFLOW"

# Absolute slack when comparing summed MIPS demand against capacity, so that
# e.g. sixteen VMs of 2200 MIPS exactly fill a 35200 MIPS host despite float
# rounding in the summation.
MIPS_EPS = 1e-9

#: A total assignment: VM id -> host id.
Placement = Dict[str, int]


@dataclass(frozen=True)
class VmRequest:
    """A timed, non-preemptible demand for ``pe_count`` cores.

    Active over [start_time, start_time + duration); it runs on exactly one
    host for the whole interval (no preemption, no migration).
    """

    id: str
    pe_count: int
    mips_per_pe: float
    start_time: int
    duration: int

    def __post_init__(self):
        if self.pe_count < 1:
            raise ValueError(f"vm {self.id!r}: pe_count must be >= 1")
        # NaN fails both comparisons.
        if not 0 < self.mips_per_pe < math.inf:
            raise ValueError(f"vm {self.id!r}: mips_per_pe must be finite and > 0, got {self.mips_per_pe}")
        if self.start_time < 0:
            raise ValueError(f"vm {self.id!r}: start_time must be >= 0")
        if self.duration <= 0:
            raise ValueError(f"vm {self.id!r}: duration must be > 0")

    @property
    def end_time(self) -> int:
        return self.start_time + self.duration

    @property
    def total_mips(self) -> float:
        return self.pe_count * self.mips_per_pe

    def active_at(self, t: int) -> bool:
        return self.start_time <= t < self.end_time

    def demand_mips_on(self, host: "HostSpec", cap_to_core: bool = False) -> float:
        """Total MIPS this VM draws on ``host``.

        With ``cap_to_core`` the per-core demand is clamped to the host's core
        speed: a "one full core" VM then saturates one core of whatever host
        it lands on, which makes the same request placeable on host classes
        with different core speeds.
        """
        per_pe = self.mips_per_pe
        if cap_to_core and per_pe > host.mips_per_pe:
            per_pe = host.mips_per_pe
        return self.pe_count * per_pe


@dataclass(frozen=True)
class HostSpec:
    """A physical machine: core count, per-core MIPS and a power curve."""

    id: int
    pe_count: int
    mips_per_pe: float
    power_model: object  # PowerModel; kept untyped here to avoid an import cycle

    def __post_init__(self):
        if self.pe_count < 1:
            raise ValueError(f"host {self.id}: pe_count must be >= 1")
        if not 0 < self.mips_per_pe < math.inf:
            raise ValueError(f"host {self.id}: mips_per_pe must be finite and > 0, got {self.mips_per_pe}")

    @property
    def total_mips(self) -> float:
        return self.pe_count * self.mips_per_pe


@dataclass(frozen=True)
class Violation:
    """One capacity overflow on a host during one event-bounded interval."""

    host_id: int
    time: int  # start of the violating interval
    kind: str  # PE_OVERFLOW or MIPS_OVERFLOW
    demand: float
    capacity: float


@dataclass(frozen=True)
class ProblemInstance:
    """The full allocation problem: VMs, hosts and the demand convention."""

    vms: Tuple[VmRequest, ...]
    hosts: Tuple[HostSpec, ...]
    cap_demand_to_core: bool = False

    def __post_init__(self):
        if len({v.id for v in self.vms}) != len(self.vms):
            raise ValueError("duplicate vm ids in instance")
        if len({h.id for h in self.hosts}) != len(self.hosts):
            raise ValueError("duplicate host ids in instance")
        if not self.hosts:
            raise ValueError("instance needs at least one host")

    @cached_property
    def host_by_id(self) -> Dict[int, HostSpec]:
        return {h.id: h for h in self.hosts}

    @cached_property
    def vm_index(self) -> Dict[str, int]:
        return {v.id: i for i, v in enumerate(self.vms)}

    @cached_property
    def event_times(self) -> Tuple[int, ...]:
        """Sorted VM start/end times (plus 0), bounding the constant-load segments."""
        ts = {0}
        for v in self.vms:
            ts.add(v.start_time)
            ts.add(v.end_time)
        return tuple(sorted(ts))

    @cached_property
    def segments(self) -> Tuple[Tuple[int, int], ...]:
        ev = self.event_times
        return tuple((ev[k], ev[k + 1]) for k in range(len(ev) - 1))

    @property
    def horizon(self) -> int:
        """Latest VM finish time; the energy integration bound."""
        return self.event_times[-1]


def _require_total(placement: Placement, instance: ProblemInstance) -> None:
    missing = [v.id for v in instance.vms if v.id not in placement]
    if missing:
        raise ValueError(f"placement is not total, missing vms: {missing[:5]}")
    extra = [vid for vid in placement if vid not in instance.vm_index]
    if extra:
        raise ValueError(f"placement mentions unknown vms: {extra[:5]}")
    unknown_hosts = sorted({h for h in placement.values() if h not in instance.host_by_id})
    if unknown_hosts:
        raise ValueError(f"placement mentions unknown hosts: {unknown_hosts[:5]}")


def check_feasibility(placement: Placement, instance: ProblemInstance) -> List[Violation]:
    """All capacity violations of ``placement``, empty list if feasible.

    Scans only event boundaries (load is constant in between). Violations are
    ordered by interval start time, then host id; PE before MIPS for the same
    host and interval.
    """
    _require_total(placement, instance)
    cap = instance.cap_demand_to_core
    violations: List[Violation] = []
    for t0, _t1 in instance.segments:
        loads: Dict[int, List[float]] = {}
        for v in instance.vms:
            if v.active_at(t0):
                host = instance.host_by_id[placement[v.id]]
                ld = loads.setdefault(host.id, [0, 0.0])
                ld[0] += v.pe_count
                ld[1] += v.demand_mips_on(host, cap)
        for hid in sorted(loads):
            host = instance.host_by_id[hid]
            pe_d, mips_d = loads[hid]
            if pe_d > host.pe_count:
                violations.append(Violation(hid, t0, PE_OVERFLOW, float(pe_d), float(host.pe_count)))
            if mips_d > host.total_mips + MIPS_EPS:
                violations.append(Violation(hid, t0, MIPS_OVERFLOW, mips_d, host.total_mips))
    return violations
