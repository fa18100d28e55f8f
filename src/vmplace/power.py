"""Host power curves and exact energy accounting.

A power model is 11 sampled watt values at utilizations 0.0, 0.1, ..., 1.0;
draw between samples is linear interpolation. Energy of a placement is the
integral of power over time, which reduces to a finite sum because host
utilization only changes when a VM starts or ends.

By default a host with no active VMs draws 0 W (it is switched off); set
``idle_hosts_powered`` to keep every host on at its idle draw instead.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from operator import ne
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .errors import InfeasiblePlacementError
from .model import (
    MIPS_EPS,
    HostSpec,
    Placement,
    ProblemInstance,
    VmRequest,
    check_feasibility,
)

KWH_PER_JOULE = 1.0 / 3.6e6


@dataclass(frozen=True)
class PowerModel:
    """A named utilization->watts curve sampled at 0.0, 0.1, ..., 1.0."""

    name: str
    samples: Tuple[float, ...]

    def __post_init__(self):
        if len(self.samples) != 11:
            raise ValueError(f"power model {self.name!r}: need 11 samples, got {len(self.samples)}")
        # One pass in C: a NaN or infinite sample makes the sum non-finite.
        if not math.isfinite(sum(self.samples)):
            raise ValueError(f"power model {self.name!r}: samples must be finite")
        if min(self.samples) < 0:
            raise ValueError(f"power model {self.name!r}: samples must be >= 0")
        # A busy host must draw power: fitness and the BFD ratio divide by it.
        if 0 in self.samples[1:]:
            raise ValueError(f"power model {self.name!r}: samples at utilization 0.1-1.0 must be > 0")

    @property
    def idle_watts(self) -> float:
        return self.samples[0]

    @property
    def max_watts(self) -> float:
        return self.samples[10]


# SPECpower-style measurements for the two built-in server classes.
IBM_X3250 = PowerModel(
    "ibm_x3250",
    (41.6, 46.7, 52.3, 57.9, 65.4, 73.0, 80.7, 89.5, 99.6, 105.0, 113.0),
)
DELL_R620 = PowerModel(
    "dell_r620",
    (56.1, 79.3, 89.6, 102.0, 121.0, 132.0, 149.0, 171.0, 195.0, 225.0, 263.0),
)

BUILTIN_MODELS: Dict[str, PowerModel] = {m.name: m for m in (IBM_X3250, DELL_R620)}


def _interp(samples: Sequence[float], u: float) -> float:
    # Snap to the nearest sample when u is (up to float noise) a multiple of
    # 0.1, so sample points are reproduced exactly.
    pos = u * 10.0
    k = round(pos)
    if abs(pos - k) < 1e-9:
        return samples[int(k)]
    i = int(pos)
    frac = pos - i
    return samples[i] + frac * (samples[i + 1] - samples[i])


def ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum. Unlike ``sum()``, which compensates rounding
    from Python 3.12 on, it gives the same bits on every Python version."""
    total = 0.0
    for x in values:
        total += x
    return total


def interpolate_power(model: PowerModel, u: float) -> float:
    """Watts drawn at utilization ``u``; exact at the 11 sample points."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"utilization {u} outside [0, 1]")
    return _interp(model.samples, u)


def utilization(host: HostSpec, active: Iterable[VmRequest], cap_demand_to_core: bool = False) -> float:
    """Fraction of the host's total MIPS consumed by ``active``; 0 when empty.

    The same demand is used for busy-ness and for capacity checking: the
    requested MIPS, per-core-capped when ``cap_demand_to_core`` is set (a VM
    asking for more than a core provides keeps that core fully busy). The
    active set must fit the host (PE and MIPS); an infeasible set is a
    contract violation and raises ValueError.
    """
    active = tuple(active)
    pe_demand = sum(v.pe_count for v in active)
    demand = ordered_sum(v.demand_mips_on(host, cap_demand_to_core) for v in active)
    if pe_demand > host.pe_count:
        raise ValueError(f"host {host.id}: PE demand {pe_demand} exceeds capacity {host.pe_count}")
    if demand > host.total_mips + MIPS_EPS:
        raise ValueError(f"host {host.id}: MIPS demand {demand} exceeds capacity {host.total_mips}")
    return min(demand / host.total_mips, 1.0)


@dataclass(frozen=True)
class EnergyReport:
    """Energy of one placement, per host and total, with its power timeline.

    ``segments`` lists (t_start, t_end, host_id, utilization, watts) and, per
    host, partitions [0, horizon) with no gaps or overlaps.
    """

    per_host: Dict[int, float]  # joules
    total_joules: float
    total_kwh: float
    segments: Tuple[Tuple[int, int, int, float, float], ...]


def integrate_energy(
    placement: Placement,
    instance: ProblemInstance,
    idle_hosts_powered: bool = False,
) -> EnergyReport:
    """Exact energy of a feasible placement over [0, horizon).

    Raises InfeasiblePlacementError (carrying the violations) otherwise.
    """
    violations = check_feasibility(placement, instance)
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


#: What the evaluator's memo holds for a vector not scored yet, and for one
#: :meth:`EnergyEvaluator.feasible` scored (it fits; its joules are not summed
#: yet). Module globals, because an instance reads a class attribute slower.
_MISS = object()
_FEASIBLE = object()


class _Record(NamedTuple):
    """The load record of one gene vector, as :class:`EnergyEvaluator` keeps it."""

    genes: Tuple[int, ...]
    vms_at: List[Tuple[int, ...]]
    pe_load: List[int]
    mips_load: List[float]
    bad: Set[int]
    term: List[float]
    stale: Set[int]
    lead: Dict[int, int]


class EnergyEvaluator:
    """Precomputed fast scorer for many candidate placements of one instance.

    Works on gene vectors (host index per VM, in ``instance.vms`` order); this
    is the hot path of the search algorithms and is safe to share between runs
    on the same instance.

    A load record holds, for one gene vector, each (host, segment) cell's VMs
    in ascending index order, its PE and MIPS load, the set of violating cells
    and a cached energy term per cell. :meth:`_compute` makes the record of
    the requested genes by moving a record it already has and recounting only
    the cells whose VM set changed, from their VMs in index order, so every
    load equals a count from scratch bit for bit; the first pass is a move
    from the empty record. A pass starts from the record of :attr:`parent`
    when that is set and kept (and clears it), otherwise from the record of
    the previous pass. :meth:`first_violation`, :meth:`fits`,
    :meth:`fits_all`, :meth:`host_vms`, :meth:`try_energy` and
    :meth:`snapshot_power` read the current record, making it first when
    asked about other genes. Only :meth:`try_energy` and
    :meth:`snapshot_power` turn loads into watts.

    Results are memoized by gene tuple, but only for the vectors
    :meth:`try_energy` or :meth:`feasible` is asked about; a vector memoized
    as feasible needs no pass in :meth:`first_violation` either. Those calls
    also keep the vector's record, copy-on-write, so a later pass never
    changes a kept record. :meth:`keep_records` drops the ones a caller no
    longer names as parents; at most ``_RECORD_LIMIT`` are kept in any case.
    """

    # Slots keep attribute reads fast however many attributes there are: past
    # 30, an instance dict stops sharing its keys and every read slows down.
    # A "__dict__" slot would slow method calls again, so there is none.
    __slots__ = (
        "instance", "idle", "nseg", "seg_len", "host_count", "spans", "cell_runs",
        "pe", "eff", "host_pe", "host_mips", "mips_cap", "tables", "host_class",
        "_watts", "idle_base", "evaluations", "_cache", "_last_genes",
        "_last_violation", "_records", "_shared", "parent", "_vms_at", "_pe_load",
        "_mips_load", "_bad", "_term", "_stale", "_lead",
    )

    _CACHE_LIMIT = 150_000
    _RECORD_LIMIT = 64

    def __init__(self, instance: ProblemInstance, idle_hosts_powered: bool = False):
        self.instance = instance
        self.idle = idle_hosts_powered
        segs = instance.segments
        self.nseg = len(segs)
        self.seg_len = [t1 - t0 for t0, t1 in segs]
        m = len(instance.hosts)
        self.host_count = m
        start_index = {t: i for i, t in enumerate(instance.event_times)}
        # Each VM occupies a contiguous run of segments [a, b).
        self.spans: List[Tuple[int, int]] = []
        for v in instance.vms:
            self.spans.append((start_index[v.start_time], start_index[v.end_time]))
        # Cell k = segment * host_count + host, so cells sort by (segment,
        # host). Each VM's segment run as cell offsets: VM i on host h
        # occupies cells off + h for off in cell_runs[i].
        self.cell_runs = [tuple(range(a * m, b * m, m)) for a, b in self.spans]
        self.pe = [v.pe_count for v in instance.vms]
        cap = instance.cap_demand_to_core
        # Effective MIPS demand per VM per host (per-core-capped when the
        # instance says so); used for capacity checks and utilization alike.
        # VMs of one shape share one row, which nothing writes to.
        rows: Dict[Tuple[int, float], List[float]] = {}
        self.eff: List[List[float]] = []
        for v in instance.vms:
            shape = (v.pe_count, v.mips_per_pe)
            row = rows.get(shape)
            if row is None:
                row = rows[shape] = [v.demand_mips_on(h, cap) for h in instance.hosts]
            self.eff.append(row)
        self.host_pe = [h.pe_count for h in instance.hosts]
        self.host_mips = [h.total_mips for h in instance.hosts]
        self.mips_cap = [c + MIPS_EPS for c in self.host_mips]
        self.tables = [h.power_model.samples for h in instance.hosts]
        # A host class is the hosts with equal cores, core MIPS and power
        # samples; they draw the same watts at the same load.
        classes: Dict[tuple, int] = {}
        self.host_class = [
            classes.setdefault((h.pe_count, h.mips_per_pe, h.power_model.samples), len(classes))
            for h in instance.hosts
        ]
        self.idle_base = (
            ordered_sum(t[0] for t in self.tables) * instance.horizon if idle_hosts_powered else 0.0
        )
        self.evaluations = 0
        self._cache: Dict[Tuple[int, ...], Optional[float]] = {}
        # The record of the last pass, None until a pass succeeds; the first
        # pass builds it empty, and the watts memo, so an evaluator used only
        # for its tables (as BFD uses it) never pays for them.
        self._last_genes: Optional[Tuple[int, ...]] = None
        self._last_violation: Optional[Tuple[int, int]] = None
        # Kept records by genes, and the kept record the current one is, if
        # any (then the next pass copies it before changing it).
        self._records: Dict[Tuple[int, ...], _Record] = {}
        self._shared: Optional[_Record] = None
        #: Genes of a kept record that the next load pass should start from;
        #: a search sets it to a child's parent. Only a pass reads it.
        self.parent: Optional[Tuple[int, ...]] = None

    def _empty_record(self) -> None:
        """Start the record with no VM placed, and an empty watts memo."""
        # Watts (less the idle draw when idle hosts are powered) by MIPS load,
        # one memo per host class, reached by host.
        memos: Dict[int, Dict[float, float]] = {}
        self._watts = [memos.setdefault(c, {}) for c in self.host_class]
        cells = self.host_count * self.nseg
        # Each cell's VMs are a tuple, replaced when they change, so copies
        # of the record share the cells they have in common.
        self._vms_at: List[Tuple[int, ...]] = [()] * cells
        self._pe_load = [0] * cells
        self._mips_load = [0.0] * cells
        self._bad: Set[int] = set()
        # _term[k] is cell k's joules at its current load, unless k is in
        # _stale (its load changed since the last energy). _lead maps each
        # occupied cell to its sort key, lowest VM * cells + cell: a pass over
        # the genes in index order first touches the cells in that order,
        # which is (lowest VM, segment).
        self._term = [0.0] * cells
        self._stale: Set[int] = set()
        self._lead: Dict[int, int] = {}
        self._shared = None

    def try_energy(self, genes: Tuple[int, ...], cache: bool = True) -> Optional[float]:
        """Total joules of the placement, or None if it violates capacity."""
        if cache:
            val = self._cache.get(genes, _MISS)
            if val is not _MISS:
                if val is _FEASIBLE:
                    # Counted when feasible() scored it; only the joules are new.
                    self._violation(genes)
                    val = self._cache[genes] = self._energy()
                return val
        self.evaluations += 1
        val = None if self._violation(genes) else self._energy()
        if cache:
            self._remember(genes, val)
        return val

    def feasible(self, genes: Tuple[int, ...]) -> bool:
        """Whether the placement fits every host. Memoized and counted as an
        evaluation like :meth:`try_energy`, but sums no joules."""
        val = self._cache.get(genes, _MISS)
        if val is _MISS:
            self.evaluations += 1
            val = None if self._violation(genes) else _FEASIBLE
            self._remember(genes, val)
        return val is not None

    def _remember(self, genes: Tuple[int, ...], val) -> None:
        """Memoize ``val`` and keep the record of ``genes``, the current one."""
        if len(self._cache) > self._CACHE_LIMIT:
            self._cache.clear()
        self._cache[genes] = val
        records = self._records
        if len(records) >= self._RECORD_LIMIT:
            records.clear()
        # A compact copy: inserts may have grown the table well past its use.
        self._lead = dict(self._lead)
        records[genes] = self._shared = _Record(
            genes,
            self._vms_at,
            self._pe_load,
            self._mips_load,
            self._bad,
            self._term,
            self._stale,
            self._lead,
        )

    def keep_records(self, keep: Sequence[Tuple[int, ...]]) -> None:
        """Drop the kept records of the vectors not in ``keep``. Nothing is
        dropped while there are no more records than vectors in ``keep``, so
        a call after a generation that kept few new records costs nothing."""
        old = self._records
        if len(old) <= len(keep):
            return
        self._records = records = {}
        for genes in keep:
            rec = old.get(genes)
            if rec is not None:
                records[genes] = rec

    def _violation(self, genes) -> Optional[Tuple[int, int]]:
        """Earliest violation of ``genes``; afterwards the record holds their loads."""
        key = genes if type(genes) is tuple else tuple(genes)
        if key != self._last_genes:
            self._compute(key)
        return self._last_violation

    def _compute(self, genes: Tuple[int, ...]) -> Optional[Tuple[int, int]]:
        """Make the record of ``genes`` current and return the earliest
        (segment_index, host_index) whose capacity is exceeded.

        The pass starts from the kept record of :attr:`parent` if there is
        one, else from the current record. Only the cells whose VM set changes
        are recounted, each from its VMs in ascending index order with
        left-to-right addition, never by adding and subtracting the moved VMs:
        the loads stay exactly those of a count from scratch, including at an
        exact capacity fill. A gene that is not a host index raises ValueError
        and leaves the current and every kept record as they were.
        """
        base = None
        if self.parent is not None:
            base = self._records.get(self.parent)
            self.parent = None
        n = len(self.spans)
        if len(genes) != n:
            raise ValueError(f"{len(genes)} genes for {n} VMs")
        old = self._last_genes if base is None else base.genes
        if old is None:
            # The first pass moves every VM from the empty record (host -1).
            old = (-1,) * n
            changed: Sequence[int] = range(n)
        else:
            changed = list(compress(range(n), map(ne, old, genes)))
        m = self.host_count
        for i in changed:
            if not 0 <= genes[i] < m:
                raise ValueError(f"gene {i}: host index {genes[i]!r} outside 0..{m - 1}")
        if base is None:
            if self._last_genes is None:
                self._empty_record()
            base = self._shared
        if base is not None:
            # Copy on write: a kept record is never changed.
            self._vms_at = base.vms_at[:]
            self._pe_load = base.pe_load[:]
            self._mips_load = base.mips_load[:]
            self._bad = set(base.bad)
            self._term = base.term[:]
            self._stale = set(base.stale)
            self._lead = dict(base.lead)
            self._shared = None
        vms_at = self._vms_at
        cell_runs = self.cell_runs
        dirty: Set[int] = set()
        for i in changed:
            was = old[i]
            now = genes[i]
            for off in cell_runs[i]:
                if was >= 0:
                    k = off + was
                    at = vms_at[k]
                    j = at.index(i)
                    vms_at[k] = at[:j] + at[j + 1 :]
                    dirty.add(k)
                k = off + now
                at = vms_at[k]
                j = bisect_left(at, i)
                vms_at[k] = at[:j] + (i,) + at[j:]
                dirty.add(k)
        pe = self.pe
        eff = self.eff
        host_pe = self.host_pe
        mips_cap = self.mips_cap
        pe_l = self._pe_load
        mips_l = self._mips_load
        bad = self._bad
        lead = self._lead
        stale = self._stale
        cells = len(pe_l)
        for k in dirty:
            h = k % m
            vms = vms_at[k]
            p = 0
            x = 0.0
            for v in vms:
                p += pe[v]
                x += eff[v][h]
            pe_l[k] = p
            if x != mips_l[k]:
                mips_l[k] = x
                stale.add(k)
            if p > host_pe[h] or x > mips_cap[h]:
                bad.add(k)
            else:
                bad.discard(k)
            if vms:
                key = vms[0] * cells + k
                # Store only a new key: an equal one stays shared with the
                # record this pass started from.
                if lead.get(k) != key:
                    lead[k] = key
            else:
                del lead[k]
        self._last_genes = genes
        self._last_violation = divmod(min(bad), m) if bad else None
        return self._last_violation

    def _energy(self) -> float:
        """Total joules of the current record, which must be feasible. Only
        the cells whose load changed since their terms were set get new ones,
        from the watts memo or the power curve; the terms are summed in
        first-touch order. Refreshing terms in place is safe on a kept record,
        because they stay those of its own genes."""
        m = self.host_count
        pe_l = self._pe_load
        mips_l = self._mips_load
        seg_len = self.seg_len
        term = self._term
        watts = self._watts
        for k in self._stale:
            if pe_l[k]:
                s, h = divmod(k, m)
                x = mips_l[k]
                memo = watts[h]
                w = memo.get(x)
                if w is None:
                    if len(memo) > self._CACHE_LIMIT:
                        memo.clear()
                    u = x / self.host_mips[h]
                    if u > 1.0:
                        u = 1.0
                    table = self.tables[h]
                    w = _interp(table, u)
                    if self.idle:
                        w -= table[0]
                    memo[x] = w
                term[k] = w * seg_len[s]
        self._stale.clear()
        total = self.idle_base
        lead = self._lead
        for k in sorted(lead, key=lead.__getitem__):
            total += term[k]
        return total

    def first_violation(self, genes) -> Optional[Tuple[int, int]]:
        """Earliest (segment_index, host_index) where capacity is exceeded."""
        key = genes if type(genes) is tuple else tuple(genes)
        if self._cache.get(key) is not None:
            return None
        return self._violation(key)

    def host_vms(self, host_idx: int, genes, seg: Optional[int] = None) -> List[int]:
        """Ascending indices of the VMs that ``genes`` place on ``host_idx``,
        read from the record; only those active in segment ``seg`` when it is
        given."""
        self._violation(genes)  # the record now holds the loads of ``genes``
        vms_at = self._vms_at
        m = self.host_count
        if seg is not None:
            return list(vms_at[seg * m + host_idx])
        on: Set[int] = set()
        for off in range(0, self.nseg * m, m):
            on.update(vms_at[off + host_idx])
        return sorted(on)

    def fits(self, vm_idx: int, host_idx: int, genes) -> bool:
        """Would assigning VM ``vm_idx`` to ``host_idx`` keep that host feasible,
        given every other VM's current gene?"""
        return self.fits_all((vm_idx,), host_idx, genes)

    def fits_all(self, vms: Sequence[int], host_idx: int, genes) -> bool:
        """Would assigning every VM in ``vms`` to ``host_idx`` keep that host
        feasible, given every other VM's current gene?

        Only the segments the moved VMs span are checked.
        """
        self._violation(genes)  # the record now holds the loads of ``genes``
        extra_pe: Dict[int, int] = {}
        extra_mips: Dict[int, float] = {}
        for i in vms:
            if genes[i] == host_idx:
                p, e = 0, 0.0
            else:
                p, e = self.pe[i], self.eff[i][host_idx]
            for off in self.cell_runs[i]:
                k = off + host_idx
                extra_pe[k] = extra_pe.get(k, 0) + p
                extra_mips[k] = extra_mips.get(k, 0.0) + e
        pe_cap = self.host_pe[host_idx]
        mips_cap = self.mips_cap[host_idx]
        pe_l = self._pe_load
        mips_l = self._mips_load
        for k, p in extra_pe.items():
            if pe_l[k] + p > pe_cap or mips_l[k] + extra_mips[k] > mips_cap:
                return False
        return True

    def snapshot_power(self, genes) -> float:
        """Aggregate host watts at the instant of peak total MIPS demand.

        The peak instant is the earliest segment with maximal total demand.
        Assumes a feasible gene vector.
        """
        nseg = self.nseg
        if not nseg:
            return 0.0
        self._violation(genes)  # the record now holds the loads of ``genes``
        m = self.host_count
        mips_l = self._mips_load
        seg_total = [0.0] * nseg
        lead = self._lead
        for k in sorted(lead, key=lead.__getitem__):
            seg_total[k // m] += mips_l[k]
        peak = max(range(nseg), key=lambda s: (seg_total[s], -s))
        total = 0.0
        base = peak * m
        for h in range(m):
            md = mips_l[base + h]
            if md > 0.0:
                u = min(md / self.host_mips[h], 1.0)
                total += _interp(self.tables[h], u)
            elif self.idle:
                total += self.tables[h][0]
        return total
