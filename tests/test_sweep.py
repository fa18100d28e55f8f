"""Differential property: the reference path's event sweep against a
per-segment scan.

``check_feasibility`` and ``integrate_energy`` read one event sweep that
recounts a host only when its VM set changes. The functions below are the
per-segment scans they replaced, kept as the oracle: they test every VM
against every segment, so they share no loop with the sweep. Their bodies are
the replaced code, with ``integrate_energy``'s feasibility call pointed at the
scan.
"""

from typing import Dict, List

from hypothesis import example, given, settings
from hypothesis import strategies as st

from vmplace import (
    DELL_R620,
    IBM_X3250,
    KWH_PER_JOULE,
    MIPS_OVERFLOW,
    PE_OVERFLOW,
    EnergyReport,
    HostSpec,
    InfeasiblePlacementError,
    PowerModel,
    ProblemInstance,
    Violation,
    VmRequest,
    check_feasibility,
    integrate_energy,
    interpolate_power,
    utilization,
)
from vmplace.model import MIPS_EPS
from vmplace.power import ordered_sum

PROPERTY = settings(derandomize=True, database=None, max_examples=400, deadline=None)

DAY = 86_400

#: A curve that draws 0 W when idle, so an idle powered host adds nothing.
ZERO_IDLE = PowerModel("zero_idle", (0.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 95.0, 100.0))

#: (cores, MIPS per core, curve). VMs of 1-4 cores at these speeds fill each
#: exactly.
HOST_SHAPES = [(4, 2933.0, IBM_X3250), (16, 2200.0, DELL_R620), (2, 1000.0, ZERO_IDLE)]

#: Per-core VM speeds: the host speeds, plus fractional ones whose sums
#: depend on summation order.
VM_MIPS = [2933.0, 2200.0, 1000.0, 733.3, 333.3, 977.7, 500.0]


def scan_require_total(placement, instance) -> None:
    missing = [v.id for v in instance.vms if v.id not in placement]
    if missing:
        raise ValueError(f"placement is not total, missing vms: {missing[:5]}")
    extra = [vid for vid in placement if vid not in instance.vm_index]
    if extra:
        raise ValueError(f"placement mentions unknown vms: {extra[:5]}")
    unknown_hosts = sorted({h for h in placement.values() if h not in instance.host_by_id})
    if unknown_hosts:
        raise ValueError(f"placement mentions unknown hosts: {unknown_hosts[:5]}")


def scan_feasibility(placement, instance) -> List[Violation]:
    scan_require_total(placement, instance)
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


def scan_energy(placement, instance, idle_hosts_powered=False) -> EnergyReport:
    violations = scan_feasibility(placement, instance)
    if violations:
        raise InfeasiblePlacementError(violations)
    cap = instance.cap_demand_to_core
    per_host = {h.id: 0.0 for h in instance.hosts}
    segments = []
    for t0, t1 in instance.segments:
        by_host: Dict[int, List[VmRequest]] = {}
        for v in instance.vms:
            if v.active_at(t0):
                by_host.setdefault(placement[v.id], []).append(v)
        for host in instance.hosts:
            act = by_host.get(host.id, ())
            if act:
                u = utilization(host, act, cap)
                watts = interpolate_power(host.power_model, u)
            elif idle_hosts_powered:
                u, watts = 0.0, host.power_model.idle_watts
            else:
                u, watts = 0.0, 0.0
            per_host[host.id] += watts * (t1 - t0)
            segments.append((t0, t1, host.id, u, watts))
    total = ordered_sum(per_host.values())
    return EnergyReport(per_host, total, total * KWH_PER_JOULE, tuple(segments))


@st.composite
def cases(draw):
    """An instance and a placement that is feasible, infeasible or not total.

    Host ids are distinct but drawn in any order, so they need not ascend with
    the host index. A VM starts at 0, right where the previous VM ends, a
    whole number of days after it ends, or at a small offset; in a quarter of
    the instances every VM runs at the same time.
    """
    ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4, unique=True))
    hosts = tuple(HostSpec(hid, *draw(st.sampled_from(HOST_SHAPES))) for hid in ids)
    # Stacked instances run every VM over [0, 1800), so hosts fill up.
    stacked = draw(st.integers(0, 3)) == 0
    vms = []
    end = 0
    for i in range(draw(st.integers(0, 10))):
        if stacked:
            start, duration = 0, 1800
        else:
            start = draw(
                st.sampled_from([0, end])
                | st.integers(1, 3).map(lambda days: end + days * DAY)
                | st.integers(0, 3).map(lambda k: k * 900)
            )
            duration = draw(st.sampled_from([900, 1800, 2700, DAY]) | st.integers(1, 4000))
        vms.append(VmRequest(f"v{i}", draw(st.integers(1, 4)), draw(st.sampled_from(VM_MIPS)), start, duration))
        end = start + duration
    instance = ProblemInstance(tuple(vms), hosts, cap_demand_to_core=draw(st.booleans()))
    # Placing on a prefix of the hosts makes stacking, and so overflows, common.
    placement = {v.id: draw(st.sampled_from(ids[: draw(st.integers(1, len(ids)))])) for v in vms}
    broken = draw(st.sampled_from(["none"] * 6 + ["missing", "extra", "host"]))
    if broken == "missing" and vms:
        del placement[draw(st.sampled_from(vms)).id]
    elif broken == "extra":
        placement["ghost"] = ids[0]
    elif broken == "host" and vms:
        placement[draw(st.sampled_from(vms)).id] = max(ids) + 1
    return instance, placement, draw(st.booleans())


def outcome(fn, *args):
    """``fn``'s result as exact text: every float by ``repr``, or the raised
    error's type, message and violations."""
    try:
        result = fn(*args)
    except InfeasiblePlacementError as exc:
        return ("infeasible", str(exc), repr(exc.violations))
    except ValueError as exc:
        return ("ValueError", str(exc))
    if isinstance(result, EnergyReport):
        return (
            repr(sorted(result.per_host.items())),
            list(result.per_host),
            repr(result.total_joules),
            repr(result.total_kwh),
            repr(result.segments),
        )
    return repr(result)


#: Six 733.3-MIPS VM cores on the 733.3-MIPS host: their sum is a hair over
#: its capacity, and only the MIPS_EPS slack lets them fit.
EPS_FILL = ProblemInstance(
    tuple(VmRequest(f"v{i}", pe, 733.3, 0, 900) for i, pe in enumerate((4, 1, 1))),
    (HostSpec(7, 1, 2933.0, IBM_X3250), HostSpec(3, 6, 733.3, ZERO_IDLE)),
)


@PROPERTY
@given(cases())
@example((EPS_FILL, {"v0": 3, "v1": 3, "v2": 3}, True))
def test_sweep_matches_the_per_segment_scan(case):
    instance, placement, idle = case
    assert outcome(check_feasibility, placement, instance) == outcome(scan_feasibility, placement, instance)
    assert outcome(integrate_energy, placement, instance, idle) == outcome(scan_energy, placement, instance, idle)


def test_generated_cases_cover_every_outcome():
    """The property above sees feasible, infeasible and non-total placements,
    a violation that lasts more than one segment, a host filled exactly, a
    powered 0 W idle host, host ids out of index order and a host load whose
    bits depend on the order its VMs are summed in."""
    seen = set()

    @PROPERTY
    @given(cases())
    def collect(case):
        instance, placement, idle = case
        try:
            violations = scan_feasibility(placement, instance)
        except ValueError:
            seen.add("not total")
            return
        seen.add("infeasible" if violations else "feasible")
        if not violations and any(u == 1.0 for *_, u, _w in scan_energy(placement, instance).segments):
            seen.add("exact fill")
        if idle and any(h.power_model is ZERO_IDLE for h in instance.hosts):
            seen.add("0 W idle")
        if [h.id for h in instance.hosts] != sorted(h.id for h in instance.hosts):
            seen.add("unordered ids")
        for t0, _t1 in instance.segments:
            for host in instance.hosts:
                demands = [
                    v.demand_mips_on(host, instance.cap_demand_to_core)
                    for v in instance.vms
                    if v.active_at(t0) and placement[v.id] == host.id
                ]
                if ordered_sum(demands) != ordered_sum(reversed(demands)):
                    seen.add("sum order matters")

        seg = {t0: k for k, (t0, _t1) in enumerate(instance.segments)}
        marks = {(v.host_id, v.kind, seg[v.time]) for v in violations}
        if any((hid, kind, k + 1) in marks for hid, kind, k in marks):
            seen.add("lasting")

    collect()
    assert seen == {"feasible", "infeasible", "not total", "lasting", "exact fill", "0 W idle", "unordered ids", "sum order matters"}
