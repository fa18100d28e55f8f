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
from bisect import insort
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
    # Two set comparisons pass a total placement; the scans below name what is wrong.
    if placement.keys() == instance.vm_index.keys() and set(placement.values()) <= instance.host_by_id.keys():
        return
    missing = [v.id for v in instance.vms if v.id not in placement]
    if missing:
        raise ValueError(f"placement is not total, missing vms: {missing[:5]}")
    extra = [vid for vid in placement if vid not in instance.vm_index]
    if extra:
        raise ValueError(f"placement mentions unknown vms: {extra[:5]}")
    unknown_hosts = sorted({h for h in placement.values() if h not in instance.host_by_id})
    raise ValueError(f"placement mentions unknown hosts: {unknown_hosts[:5]}")


def _sweep(placement: Placement, instance: ProblemInstance):
    """Host loads of ``placement``, one segment of ``instance.segments`` at a time.

    Yields (t0, t1, changed, over) per segment. ``changed`` holds (host, PE
    load, MIPS load) of each host whose VM set changed at t0; the others keep
    their last loads, and all start empty. Loads are summed left to right over
    the host's active VMs in ascending index order, so they equal a count from
    scratch bit for bit. ``over`` maps each host id over a capacity to its
    (kind, demand, capacity) overflows, PE before MIPS, and carries them across
    segments. The event lists are built on each call, in O(VMs); a segment then
    costs only the active VMs of the hosts whose set changed.
    """
    _require_total(placement, instance)
    host_by_id = instance.host_by_id
    cap = instance.cap_demand_to_core
    starts: Dict[int, List[Tuple[int, int]]] = {}  # time -> (host id, VM index) of the VMs starting then
    ends: Dict[int, List[Tuple[int, int]]] = {}
    load: List[Tuple[int, float]] = []  # per VM index: (PEs, MIPS) on its host
    for i, v in enumerate(instance.vms):
        hid = placement[v.id]
        load.append((v.pe_count, v.demand_mips_on(host_by_id[hid], cap)))
        event = (hid, i)
        starts.setdefault(v.start_time, []).append(event)
        ends.setdefault(v.end_time, []).append(event)
    active: Dict[int, List[int]] = {}  # host id -> its active VM indices, ascending
    over: Dict[int, List[Tuple[str, float, float]]] = {}
    for t0, t1 in instance.segments:
        touched = set()
        for hid, i in ends.get(t0, ()):
            active[hid].remove(i)
            touched.add(hid)
        for hid, i in starts.get(t0, ()):
            insort(active.setdefault(hid, []), i)
            touched.add(hid)
        changed = []
        for hid in touched:
            pe_d, mips_d = 0, 0.0
            for i in active[hid]:
                p, x = load[i]
                pe_d += p
                mips_d += x
            host = host_by_id[hid]
            changed.append((host, pe_d, mips_d))
            bad = []
            if pe_d > host.pe_count:
                bad.append((PE_OVERFLOW, float(pe_d), float(host.pe_count)))
            if mips_d > host.total_mips + MIPS_EPS:
                bad.append((MIPS_OVERFLOW, mips_d, host.total_mips))
            if bad:
                over[hid] = bad
            else:
                over.pop(hid, None)
        yield t0, t1, changed, over


def check_feasibility(placement: Placement, instance: ProblemInstance) -> List[Violation]:
    """All capacity violations of ``placement``, empty list if feasible.

    Reads one event sweep: load is constant between VM starts and ends, and
    only hosts whose VM set changed are recounted, in O(VMs + segments) plus
    those hosts' active VMs. Violations are ordered by interval start time,
    then host id (not host index), PE before MIPS; one that lasts several
    segments is reported at the start of each.
    """
    violations: List[Violation] = []
    for t0, _t1, _changed, over in _sweep(placement, instance):
        for hid in sorted(over):
            violations.extend(Violation(hid, t0, *o) for o in over[hid])
    return violations
