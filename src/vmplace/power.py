"""Host power curves and exact energy accounting.

A power model is 11 sampled watt values at utilizations 0.0, 0.1, ..., 1.0;
draw between samples is linear interpolation. Energy of a placement is the
integral of power over time, which reduces to a finite sum because host
utilization only changes when a VM starts or ends.

:func:`integrate_energy` is the reference: one pass over the event sweep that
:func:`check_feasibility` also reads, sharing no tables with the search's
:class:`EnergyEvaluator`.

By default a host with no active VMs draws 0 W (it is switched off); set
``idle_hosts_powered`` to keep every host on at its idle draw instead.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from operator import truediv
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import InfeasiblePlacementError
from .model import (
    MIPS_EPS,
    HostSpec,
    Placement,
    ProblemInstance,
    VmRequest,
    _sweep,
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
    # 0.1, so sample points are reproduced exactly. Only u == 0 reads sample
    # 0, which may be 0 W: a busy host is never snapped down to it.
    pos = u * 10.0
    k = round(pos)
    if abs(pos - k) < 1e-9 and (k or not pos):
        return samples[k]
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
    """Exact energy of a feasible placement over [0, horizon), in one pass.

    Reads the event sweep of :func:`check_feasibility`, so a host's watts are
    recomputed only when its VM set changes. A placement that is not total,
    or that leaves a busy host at utilization 0.0 because its demand is too
    small to register, raises ValueError; one over a capacity raises
    InfeasiblePlacementError carrying the violations
    :func:`check_feasibility` lists.
    """
    empty = {h.id: (0.0, h.power_model.idle_watts if idle_hosts_powered else 0.0) for h in instance.hosts}
    rows = dict(empty)  # host id -> (utilization, watts) in the current segment
    per_host = dict.fromkeys(empty, 0.0)
    segments = []
    for t0, t1, changed, over in _sweep(placement, instance):
        if over:
            raise InfeasiblePlacementError(check_feasibility(placement, instance))
        for host, pe_d, mips_d in changed:
            if pe_d:
                u = min(mips_d / host.total_mips, 1.0)
                if not u:
                    raise ValueError(f"host {host.id}: {mips_d} MIPS of demand is too small to register")
                rows[host.id] = (u, interpolate_power(host.power_model, u))
            else:
                rows[host.id] = empty[host.id]
        span = t1 - t0
        for hid, (u, watts) in rows.items():
            per_host[hid] += watts * span
            segments.append((t0, t1, hid, u, watts))
    total = ordered_sum(per_host.values())
    return EnergyReport(per_host, total, total * KWH_PER_JOULE, tuple(segments))


#: What the evaluator's memo holds for a vector not scored yet. A module
#: global, because an instance reads a class attribute slower.
_MISS = object()

#: The :mod:`struct` and :class:`memoryview` format of a memo key's genes,
#: by bytes per gene.
_LANES = {1: "B", 2: "H", 4: "I"}


@dataclass(slots=True)
class _Record:
    """The load record of one gene vector, as :class:`EnergyEvaluator` keeps it.

    Cell k is (segment k // host_count, host k % host_count). ``vms_at[k]``
    is the tuple of the cell's VMs, replaced when they change, so copies of
    a record share the cells they have in common; a cell's PE load is
    counted from them. ``mips_load`` is each cell's MIPS load and ``bad``
    the cells over capacity. ``term[k]`` is cell k's joules at its load,
    0.0 when it is empty; the pass that changes a cell's MIPS load sets its
    term, so a record is complete when its pass ends. ``key`` is the memo
    key of ``genes`` read as a little-endian int; it takes part in equality
    like every other field. The empty record's ``genes`` and ``key`` are
    None.
    """

    genes: Optional[Tuple[int, ...]]
    key: Optional[int]
    vms_at: List[Tuple[int, ...]]
    mips_load: List[float]
    bad: Set[int]
    term: List[float]

    def copy(self) -> _Record:
        """A record equal to this one that shares no mutable container with it."""
        return _Record(self.genes, self.key, self.vms_at[:], self.mips_load[:], set(self.bad), self.term[:])


def _changed_genes(rec: _Record, genes: Tuple[int, ...], key: int, width: int) -> Sequence[int]:
    """Ascending indices of the genes in which ``genes``, packed as ``key`` at
    ``width`` bytes per gene and read as an int, differ from record ``rec``'s.

    They are the non-zero lanes of the XOR of ``key`` and ``rec.key``, found
    in C between its lowest and highest set bits; the empty record places no
    VM, so from it every gene moves.
    """
    if rec.key is None:
        return range(len(genes))
    diff = key ^ rec.key
    if not diff:
        return []
    bits = 8 * width
    lo = ((diff & -diff).bit_length() - 1) // bits
    hi = (diff.bit_length() - 1) // bits + 1
    lanes = (diff >> lo * bits).to_bytes((hi - lo) * width, "little")
    if width > 1:
        lanes = memoryview(lanes).cast(_LANES[width])
    return list(compress(range(lo, hi), lanes))


class _Tables:
    """The tables of one instance that BFD and :class:`EnergyEvaluator` read,
    and :meth:`watts_at`. Cell k is (segment k // host_count, host k %
    host_count): VM i on host h occupies cells off + h for off in
    ``cell_runs[i]``, one per segment of its run ``spans[i]``."""

    # Slots keep attribute reads fast however many attributes there are: past
    # 30, an instance dict stops sharing its keys and every read slows down.
    # A "__dict__" slot would slow method calls again, so there is none.
    __slots__ = (
        "nseg", "seg_len", "host_count", "spans", "cell_runs", "pe", "eff",
        "host_pe", "host_mips", "mips_cap", "tables", "host_class", "_watts",
    )

    _CACHE_LIMIT = 150_000

    def __init__(self, instance: ProblemInstance):
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
        self.cell_runs = [tuple(range(a * m, b * m, m)) for a, b in self.spans]
        self.pe = [v.pe_count for v in instance.vms]
        cap = instance.cap_demand_to_core
        self.host_pe = [h.pe_count for h in instance.hosts]
        self.host_mips = [h.total_mips for h in instance.hosts]
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
                # A busy host must draw power: fitness and the BFD ratio divide by it.
                if 0.0 in map(truediv, row, self.host_mips):
                    raise ValueError(f"vm {v.id!r}: {v.mips_per_pe} MIPS per PE is too small to register on a host")
            self.eff.append(row)
        self.mips_cap = [c + MIPS_EPS for c in self.host_mips]
        self.tables = [h.power_model.samples for h in instance.hosts]
        # A host class is the hosts with equal cores, core MIPS and power
        # samples; they draw the same watts at the same load.
        classes: Dict[tuple, int] = {}
        self.host_class = [
            classes.setdefault((h.pe_count, h.mips_per_pe, h.power_model.samples), len(classes))
            for h in instance.hosts
        ]
        # Watts by MIPS load, one memo per host class, reached by host.
        memos: Dict[int, Dict[float, float]] = {}
        self._watts = [memos.setdefault(c, {}) for c in self.host_class]

    def watts_at(self, h: int, x: float) -> float:
        """Watts host ``h`` draws at MIPS load ``x``, its utilization capped at 1;
        memoized per host class, up to ``_CACHE_LIMIT`` loads."""
        memo = self._watts[h]
        w = memo.get(x)
        if w is None:
            if len(memo) > self._CACHE_LIMIT:
                memo.clear()
            u = x / self.host_mips[h]
            w = memo[x] = _interp(self.tables[h], u if u < 1.0 else 1.0)
        return w


class EnergyEvaluator(_Tables):
    """Precomputed fast scorer for many candidate placements of one instance.

    Works on gene vectors (host index per VM, in ``instance.vms`` order); this
    is the hot path of the search algorithms. Each search builds its own
    evaluator, so its memo, kept records and evaluation count belong to that
    search alone.

    A load record (:class:`_Record`) holds, for one gene vector, each (host,
    segment) cell's VMs in ascending index order, its MIPS load, the
    violating cells and an energy term per cell. The energy is the idle base
    plus the exactly rounded :func:`math.fsum` of the terms, whatever order
    the cells are visited in. :meth:`_compute` makes the record of the
    requested genes current by moving a record it already has and
    recounting only the cells whose VM set changed, from their VMs in index
    order, so every load equals a count from scratch bit for bit, and it
    sets the term of every cell whose MIPS load changed; the first pass is a
    move from the empty record. So every record, kept or current, equals the
    one a fresh evaluator makes of the same genes. A search may name a
    vector's two parents in :attr:`parent` and :attr:`other_parent`; the pass
    of that vector then starts from the kept record of the one whose memo
    key differs from the vector's in fewer bits, :attr:`parent`'s on a tie,
    and clears both hints. Without a kept hinted record it starts from the
    current record. Each record keeps its vector's memo key as an int, so a
    pass finds the genes that differ from the record it starts from as the
    non-zero lanes of the two keys' XOR, in C, rather than comparing gene by
    gene; a pass from the empty record moves every gene. So a pass that
    follows a one-VM or one-host edit visits only the VMs that moved.
    :meth:`first_violation`, :meth:`fits`, :meth:`host_vms`,
    :meth:`try_energy` and :meth:`snapshot_power` read the current record,
    making it first when asked about other genes. The instance tables and
    :meth:`watts_at`, the only place where load becomes watts, come from
    :class:`_Tables`, which the BFD baseline builds alone.

    Results are memoized, but only for the vectors :meth:`try_energy` is
    asked about; a vector memoized as feasible needs no pass in
    :meth:`first_violation` either. The memo's key is the vector
    packed with :mod:`struct` at one byte per gene up to 256 hosts, two up to
    65,536 and four beyond, so equal vectors share one entry whether they
    come as distinct tuples or as a list. A key takes 33 bytes plus the
    packed genes: 244 B at the lab day's 211 genes where the tuple took
    1,728 B, and 4,033 B where it took 16,040 B at 2,000 genes on 300 hosts.
    A tuple is packed once: its key is reused while the same tuple comes
    back, as it does from :meth:`first_violation` to :meth:`try_energy`.
    Packing also rejects a gene that is not an int, before a pass starts.
    Those calls also keep the vector's record, by gene tuple: the current
    record is kept by reference, and the next pass copies it before changing
    it, so a later pass never changes a kept record. :meth:`keep_records`
    drops the ones a caller no longer names as parents; at most
    ``_RECORD_LIMIT`` are kept in any case. The memo clears when it holds
    more than ``_CACHE_LIMIT`` vectors or more than ``_CACHE_GENES`` genes,
    so its packed genes take at most 15 MB at one byte per gene and 30 MB
    at two, whatever the VM count.
    """

    __slots__ = (
        "idle", "idle_base", "evaluations", "_cache", "_rec", "_kept",
        "_records", "parent", "other_parent", "_width", "_pack", "_packed", "_packed_key",
    )

    _CACHE_GENES = 15_000_000
    _RECORD_LIMIT = 64

    def __init__(self, instance: ProblemInstance, idle_hosts_powered: bool = False):
        super().__init__(instance)
        self.idle = idle_hosts_powered
        self.idle_base = (
            ordered_sum(t[0] for t in self.tables) * instance.horizon if idle_hosts_powered else 0.0
        )
        self.evaluations = 0
        # Memo keys: every gene in as few bytes as the largest host index needs.
        m = self.host_count
        self._width = 1 if m <= 1 << 8 else 2 if m <= 1 << 16 else 4
        self._pack = struct.Struct(f"<{len(instance.vms)}{_LANES[self._width]}").pack
        # The last tuple packed and its key; callers check for it before
        # they call _key.
        self._packed: Optional[Tuple[int, ...]] = None
        self._packed_key = b""
        self._cache: Dict[bytes, Optional[float]] = {}
        cells = m * self.nseg
        # The current record, at first the empty one. While _kept is set it is
        # also a kept one, which the next pass copies before changing it.
        self._rec = _Record(None, None, [()] * cells, [0.0] * cells, set(), [0.0] * cells)
        self._kept = False
        # Kept records by genes.
        self._records: Dict[Tuple[int, ...], _Record] = {}
        #: Genes of kept records that the next load pass may start from; a
        #: search sets them to a child's two parents. Only a pass reads them.
        self.parent: Optional[Tuple[int, ...]] = None
        self.other_parent: Optional[Tuple[int, ...]] = None

    def try_energy(self, genes: Sequence[int]) -> Optional[float]:
        """Total joules of the placement, or None if it violates capacity."""
        key = self._packed_key if genes is self._packed else self._key(genes)
        val = self._cache.get(key, _MISS)
        if val is not _MISS:
            return val
        if type(genes) is not tuple:
            genes = tuple(genes)
        self.evaluations += 1
        val = None if self._violation(genes) else self._energy()
        self._remember(genes, key, val)
        return val

    def _key(self, genes: Sequence[int]) -> bytes:
        """The memo key of ``genes``, kept until another tuple is packed when
        ``genes`` is a tuple. A vector of the wrong length or with a gene that
        is not an int the key can hold raises ValueError naming it, and drops
        the pass hints as a failed pass does."""
        try:
            key = self._pack(*genes)
        except struct.error:
            self.parent = self.other_parent = None
            n, m = len(self.spans), self.host_count
            if len(genes) != n:
                raise ValueError(f"{len(genes)} genes for {n} VMs") from None
            # The key holds every int in 0..m-1, so some gene is not one.
            i, g = next((i, g) for i, g in enumerate(genes) if not (isinstance(g, int) and 0 <= g < m))
            raise ValueError(f"gene {i}: host index {g!r} is not an int in 0..{m - 1}") from None
        if type(genes) is tuple:
            self._packed = genes
            self._packed_key = key
        return key

    def _remember(self, genes: Tuple[int, ...], key: bytes, val) -> None:
        """Memoize ``val`` under ``key``, the key of ``genes``, and keep the
        record of ``genes``, the current one."""
        cache = self._cache
        if len(cache) > self._CACHE_LIMIT or len(cache) * len(genes) > self._CACHE_GENES:
            cache.clear()
        cache[key] = val
        records = self._records
        if len(records) >= self._RECORD_LIMIT:
            records.clear()
        records[genes] = self._rec
        self._kept = True

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
        """Earliest (segment_index, host_index) whose capacity ``genes``
        exceed, None if there is none; afterwards the record is theirs.
        Genes other than the record's are checked by :meth:`_key` first."""
        key = genes if type(genes) is tuple else tuple(genes)
        if not (key is self._rec.genes or key == self._rec.genes):
            if key is not self._packed:
                self._key(key)
            self._compute(key)
        bad = self._rec.bad
        return divmod(min(bad), self.host_count) if bad else None

    def _compute(self, genes: Tuple[int, ...]) -> None:
        """Make the record of ``genes``, the tuple :meth:`_key` packed last,
        current.

        The pass starts from the nearer kept record of :attr:`parent` and
        :attr:`other_parent` (:meth:`_nearer_parent`) if either is kept, else
        from the current record. :func:`_changed_genes` finds the genes that
        differ from the memo keys. Only the cells whose VM set changes are
        recounted, each from its VMs in ascending index order with
        left-to-right addition, never by adding and subtracting the moved
        VMs: the loads stay exactly those of a count from scratch, including
        at an exact capacity fill. A recounted cell whose MIPS load changed
        gets its term from :meth:`watts_at`, less the idle draw when idle
        hosts are powered, or 0.0 when it empties. ``genes`` are one int per
        VM; one that is no host index raises ValueError and leaves every
        record as it was.
        """
        rec, kept = self._rec, self._kept
        key = int.from_bytes(self._packed_key, "little")
        if self.parent is not None or self.other_parent is not None:
            base = self._nearer_parent(key)
            if base is not None:
                rec, kept = base, True
        changed = _changed_genes(rec, genes, key, self._width)
        m = self.host_count
        for i in changed:
            if not 0 <= genes[i] < m:
                raise ValueError(f"gene {i}: host index {genes[i]!r} outside 0..{m - 1}")
        # The empty record places every VM on host -1.
        old = rec.genes or (-1,) * len(genes)
        if kept:
            # Copy on write: a kept record is never changed.
            rec = rec.copy()
        self._rec = rec
        self._kept = False
        vms_at = rec.vms_at
        cell_runs = self.cell_runs
        # The cells whose VM set this pass changes.
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
        mips_l = rec.mips_load
        bad = rec.bad
        term = rec.term
        watts_at = self.watts_at
        tables = self.tables
        idle = self.idle
        seg_len = self.seg_len
        for k in dirty:
            h = k % m
            vms = vms_at[k]
            p = 0
            x = 0.0
            for v in vms:
                p += pe[v]
                x += eff[v][h]
            if x != mips_l[k]:
                mips_l[k] = x
                if vms:
                    w = watts_at(h, x)
                    if idle:
                        w -= tables[h][0]
                    term[k] = w * seg_len[k // m]
                else:
                    term[k] = 0.0
            if p > host_pe[h] or x > mips_cap[h]:
                bad.add(k)
            else:
                bad.discard(k)
        rec.genes = genes
        rec.key = key

    def _nearer_parent(self, key: int) -> Optional[_Record]:
        """Clear both parent hints and return the kept record of the hinted
        parent whose memo key differs from ``key`` in fewer bits, that of
        :attr:`parent` on a tie; None when neither is kept."""
        records = self._records
        first = records.get(self.parent)
        second = records.get(self.other_parent)
        self.parent = self.other_parent = None
        if first is None:
            return second
        if second is None:
            return first
        return second if (key ^ second.key).bit_count() < (key ^ first.key).bit_count() else first

    def _energy(self) -> float:
        """Total joules of the current record, which must be feasible: the
        idle base plus the exactly rounded sum of its terms, so the cells'
        order does not matter and nothing is written."""
        return self.idle_base + math.fsum(self._rec.term)

    def first_violation(self, genes) -> Optional[Tuple[int, int]]:
        """Earliest (segment_index, host_index) where capacity is exceeded."""
        key = self._packed_key if genes is self._packed else self._key(genes)
        if self._cache.get(key) is not None:
            return None
        return self._violation(genes)

    def host_vms(self, host_idx: int, genes, seg: Optional[int] = None) -> List[int]:
        """Ascending indices of the VMs that ``genes`` place on ``host_idx``,
        read from the record; only those active in segment ``seg`` when it is
        given. A host or segment index out of range raises ValueError before
        the record moves."""
        m = self.host_count
        if not 0 <= host_idx < m:
            raise ValueError(f"host index {host_idx!r} outside 0..{m - 1}")
        if seg is not None and not 0 <= seg < self.nseg:
            raise ValueError(f"segment index {seg!r} outside 0..{self.nseg - 1}")
        self._violation(genes)  # the record now holds the loads of ``genes``
        vms_at = self._rec.vms_at
        if seg is not None:
            return list(vms_at[seg * m + host_idx])
        return sorted(set().union(*vms_at[host_idx::m]))

    def fits(self, vms: Sequence[int], host_idx: int, genes) -> bool:
        """Would assigning every VM in ``vms`` (indices; one VM is ``(i,)``) to
        ``host_idx`` keep that host feasible, given every other VM's gene?

        Each cell of ``host_idx`` a moved VM spans is counted as the load pass
        counts it: its VMs after the move, each once, in ascending index
        order. An index out of range raises ValueError before the record moves.
        """
        if not 0 <= host_idx < self.host_count:
            raise ValueError(f"host index {host_idx!r} outside 0..{self.host_count - 1}")
        n = len(self.spans)
        for i in vms:
            if not 0 <= i < n:
                raise ValueError(f"VM index {i!r} outside 0..{n - 1}")
        self._violation(genes)  # the record now holds the loads of ``genes``
        vms_at = self._rec.vms_at
        # Each cell a moved VM spans on ``host_idx``, with its VMs after the move.
        cells: Dict[int, Tuple[int, ...]] = {}
        for i in vms:
            for off in self.cell_runs[i]:
                k = off + host_idx
                at = cells.get(k, vms_at[k])
                j = bisect_left(at, i)
                cells[k] = at if j < len(at) and at[j] == i else at[:j] + (i,) + at[j:]
        pe = self.pe
        eff = self.eff
        pe_cap = self.host_pe[host_idx]
        mips_cap = self.mips_cap[host_idx]
        for at in cells.values():
            p, x = 0, 0.0
            for v in at:
                p += pe[v]
                x += eff[v][host_idx]
            if p > pe_cap or x > mips_cap:
                return False
        return True

    def snapshot_power(self, genes) -> float:
        """Aggregate host watts at the instant of peak total MIPS demand.

        The peak instant is the earliest segment with maximal total demand,
        each segment's demand the exactly rounded sum of its cells' MIPS
        loads. Assumes a feasible gene vector.
        """
        nseg = self.nseg
        if not nseg:
            return 0.0
        self._violation(genes)  # the record now holds the loads of ``genes``
        m = self.host_count
        mips_l = self._rec.mips_load
        seg_total = [math.fsum(mips_l[s * m : s * m + m]) for s in range(nseg)]
        peak = max(range(nseg), key=lambda s: (seg_total[s], -s))
        total = 0.0
        base = peak * m
        for h in range(m):
            md = mips_l[base + h]
            if md > 0.0:
                total += self.watts_at(h, md)
            elif self.idle:
                total += self.tables[h][0]
        return total
