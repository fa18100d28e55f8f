"""Differential tests of the evaluator's load pass against the reference path.

``check_feasibility`` and ``integrate_energy`` never share code with
``EnergyEvaluator``; every answer the evaluator gives (earliest violation,
energy, fit checks) is compared with them or with a brute-force recount from
the VM and host records, including the answers read from its record of the
last pass. Seeded walks move one evaluator's record step by step and compare
every answer with ``==`` against an evaluator built fresh for each step.
"""

import itertools
import math
import random
import struct

import pytest

from vmplace import (
    EnergyEvaluator,
    HostSpec,
    IBM_X3250,
    ProblemInstance,
    VmRequest,
    check_feasibility,
    integrate_energy,
    interpolate_power,
    placement_from_genes,
    UnrepairableError,
    repair,
)
from vmplace import power
from vmplace.model import MIPS_EPS
from vmplace.power import ordered_sum
from vmplace.schedulers import _moved_to, move_host

from conftest import dell_host, ibm_host, mips_edge_instance, mixed_class_instance, random_small_instance


def _expected_violation(inst, genes):
    seg_of = {t0: s for s, (t0, _t1) in enumerate(inst.segments)}
    host_of = {h.id: idx for idx, h in enumerate(inst.hosts)}
    viols = check_feasibility(placement_from_genes(genes, inst), inst)
    return min(((seg_of[v.time], host_of[v.host_id]) for v in viols), default=None)


def _recount_fits(inst, vms, host_idx, genes):
    """Would moving ``vms`` onto ``host_idx`` keep it feasible? Counted from scratch."""
    host = inst.hosts[host_idx]
    cap = inst.cap_demand_to_core
    trial = [host_idx if i in vms else g for i, g in enumerate(genes)]
    for t0, _t1 in inst.segments:
        if not any(inst.vms[i].active_at(t0) for i in vms):
            continue
        on = [v for v, g in zip(inst.vms, trial) if g == host_idx and v.active_at(t0)]
        if sum(v.pe_count for v in on) > host.pe_count:
            return False
        if sum(v.demand_mips_on(host, cap) for v in on) > host.total_mips + MIPS_EPS:
            return False
    return True


def _check_all(ev, inst, genes):
    """Every evaluator answer on ``genes`` against the reference path."""
    expected = _expected_violation(inst, genes)
    assert ev.first_violation(genes) == expected
    energy = ev.try_energy(tuple(genes))
    if expected is None:
        report = integrate_energy(placement_from_genes(genes, inst), inst, ev.idle)
        assert energy == pytest.approx(report.total_joules, rel=1e-12)
    else:
        assert energy is None
    for i in range(len(inst.vms)):
        for h in range(len(inst.hosts)):
            assert ev.fits((i,), h, genes) == _recount_fits(inst, {i}, h, genes), (i, h)
    for src in range(len(inst.hosts)):
        moved = [i for i, g in enumerate(genes) if g == src]
        for h in range(len(inst.hosts)):
            if h != src:
                assert ev.fits(moved, h, genes) == _recount_fits(inst, set(moved), h, genes)


def _exact_fill_instance():
    # 8 one-PE VMs at 4400 MIPS fill a Dell host's 16 x 2200 = 35200 MIPS
    # exactly with half its cores; a ninth VM overflows MIPS but not PEs.
    vms = tuple(VmRequest(f"f{i}", 1, 4400.0, 0, 100) for i in range(8))
    vms += (VmRequest("extra", 1, 0.1, 50, 100),)
    return ProblemInstance(vms, (dell_host(0), dell_host(1)))


def _fractional_instance(seed):
    # MIPS in multiples of 0.1 on 1-MIPS cores, so sums land on or next to
    # the capacity with float rounding in either direction.
    rng = random.Random(seed)
    hosts = tuple(HostSpec(h, rng.randint(2, 4), 1.0, IBM_X3250) for h in range(3))
    vms = tuple(
        VmRequest(
            f"q{i}", 1, rng.randint(1, 10) / 10.0, rng.randrange(3) * 10, rng.randrange(4, 7) * 10
        )
        for i in range(7)
    )
    return ProblemInstance(vms, hosts)


def _spanning_instance():
    # Staggered VMs, each covering several segments.
    vms = tuple(
        VmRequest(f"s{i}", 1 + i % 2, 1000.0 + 100 * i, 10 * i, 10 * i + 35) for i in range(6)
    )
    return ProblemInstance(vms, (ibm_host(0), ibm_host(1), dell_host(2)))


def _hand_made_cases():
    fill = _exact_fill_instance()
    cases = [(fill, g) for g in [(0,) * 8 + (1,), (0,) * 9, (0,) * 7 + (1, 0), (1,) * 9]]
    spanning = _spanning_instance()
    cases += [(spanning, g) for g in [(0,) * 6, (0, 1, 0, 1, 0, 1), (2,) * 6, (0, 0, 1, 1, 2, 2)]]
    rng = random.Random(11)
    for seed in range(6):
        inst = _fractional_instance(seed)
        cases += [
            (inst, tuple(rng.randrange(len(inst.hosts)) for _ in inst.vms)) for _ in range(6)
        ]
    return cases


class TestAgainstReference:
    def test_random_small_instances(self):
        rng = random.Random(5)
        feasible = infeasible = 0
        for seed in range(40):
            # Twelve VMs on at most three hosts are often infeasible.
            inst = random_small_instance(
                seed, max_vms=12 if seed % 2 else 7, max_hosts=3 + seed % 2
            )
            for idle in (False, True):
                ev = EnergyEvaluator(inst, idle_hosts_powered=idle)
                for _ in range(6):
                    genes = tuple(rng.randrange(len(inst.hosts)) for _ in inst.vms)
                    _check_all(ev, inst, genes)
                    if _expected_violation(inst, genes) is None:
                        feasible += 1
                    else:
                        infeasible += 1
        assert feasible > 100 and infeasible > 30

    def test_hand_made_cases(self):
        for inst, genes in _hand_made_cases():
            _check_all(EnergyEvaluator(inst), inst, genes)

    def test_exact_fill_is_feasible_and_one_more_is_not(self):
        inst = _exact_fill_instance()
        ev = EnergyEvaluator(inst)
        assert ev.first_violation((0,) * 8 + (1,)) is None
        assert ev.fits((8,), 1, (0,) * 9)
        assert not ev.fits((8,), 0, (0,) * 8 + (1,))
        # The overflow is in [50, 100), the second segment, on host 0.
        assert ev.first_violation((0,) * 9) == (1, 0)

    @pytest.mark.parametrize("idle", [False, True])
    def test_fits_at_exact_pe_and_mips_fills(self, idle):
        # From a feasible vector, a move only adds load to its target host,
        # so it fits exactly when the moved vector is feasible. A VM listed
        # twice moves once. On the edge instance the fit is decided by the
        # order in which the target's MIPS are summed.
        for inst in (_mixed_fill_instance(), mips_edge_instance()):
            n, m = len(inst.vms), len(inst.hosts)
            ev = EnergyEvaluator(inst, idle)
            rng = random.Random(71)
            feasible = [
                g for g in itertools.product(range(m), repeat=n) if _expected_violation(inst, g) is None
            ]
            outcomes = set()
            for genes in feasible:
                ev.try_energy(genes)
                moves = [(i,) for i in range(n)] + [(i, i) for i in range(n)]
                moves += [ev.host_vms(h, genes) for h in range(m)]
                moves += [tuple(rng.sample(range(n), 3)) for _ in range(4)]
                for vms in moves:
                    for h in range(m):
                        fit = ev.fits(vms, h, genes)
                        assert fit == (_expected_violation(inst, _moved_to(genes, vms, h)) is None), (genes, vms, h)
                        outcomes.add(fit)
            assert outcomes == {False, True}
        # Seven edge VMs summed one at a time are over host 0; three there
        # plus four moved, summed apart, would not be.
        assert not EnergyEvaluator(mips_edge_instance(), idle).fits((3, 4, 5, 6), 0, (0, 0, 0, 1, 1, 1, 1))
        # Exactly full fits; one PE or one MIPS more does not.
        ev = EnergyEvaluator(_mixed_fill_instance(), idle)
        full, spare = (0, 0, 0, 2, 1, 1, 2, 1), (0, 2, 0, 2, 1, 1, 1, 1)
        assert ev.fits((1, 1), 0, spare)  # VM 1 listed twice moves once
        assert ev.fits((6,), 1, full)  # Dell MIPS
        assert ev.fits((1, 2), 1, full)  # Dell PEs
        assert not ev.fits((1, 2, 3), 1, full)
        assert not ev.fits((3,), 1, spare)  # PEs over, MIPS under
        assert ev.fits((1,), 0, spare)  # IBM PEs and MIPS
        assert not ev.fits((6,), 2, spare)  # IBM MIPS, one over

    def test_host_segment_and_vm_indices_out_of_range_raise(self):
        # Negative or too large indices must not wrap round to another host,
        # cell or VM; the record stays that of the last vector scored.
        inst = _spanning_instance()
        n, m, nseg = len(inst.vms), len(inst.hosts), len(inst.segments)
        ev = EnergyEvaluator(inst)
        genes = (0, 1, 0, 1, 2, 2)
        other = (2,) * n
        ev.try_energy(genes)
        calls = [lambda h=h: ev.host_vms(h, other) for h in (-1, m)]
        calls += [lambda s=s: ev.host_vms(0, other, s) for s in (-1, nseg)]
        calls += [lambda: ev.host_vms(m, other, 0)]
        calls += [lambda h=h: ev.fits((0,), h, other) for h in (-1, m)]
        calls += [lambda vms=vms: ev.fits(vms, 0, other) for vms in ((-1,), (n,), (0, n), (1, -1))]
        for call in calls:
            with pytest.raises(ValueError):
                call()
            assert ev._rec == _own_record(inst, genes, False)
        last = inst.segments[-1][0]
        assert ev.host_vms(m - 1, other, nseg - 1) == [i for i, v in enumerate(inst.vms) if v.active_at(last)]

    def test_fractional_sums_within_epsilon_fit(self):
        # 0.1 + 0.2 exceeds 0.3 by float rounding; MIPS_EPS absorbs it.
        vms = (VmRequest("a", 1, 0.1, 0, 10), VmRequest("b", 1, 0.2, 0, 10))
        inst = ProblemInstance(vms, (HostSpec(0, 2, 0.15, IBM_X3250),))
        ev = EnergyEvaluator(inst)
        assert ev.first_violation((0, 0)) is None
        assert ev.fits((1,), 0, (0, 0))
        _check_all(ev, inst, (0, 0))


def _mixed_fill_instance():
    """VMs of 1 to 8 PEs with integer MIPS, so every sum is exact. On an IBM
    host (4 PEs, 11,732 MIPS) VMs 0-2 fill the PEs and the MIPS, and VMs 1
    and 6 are one MIPS over. On the Dell host (16 PEs, 35,200 MIPS) VMs 4-6
    fill the MIPS with 7 PEs in segment 0, and VMs 1, 2, 4, 5 and 7 the PEs
    in segment 1. VM 3 runs in segment 1 only, VM 6 in segment 0 and VM 7 in
    segment 1."""
    shapes = [(2, 2933.0), (1, 2933.0), (1, 2933.0), (3, 1000.0), (4, 4400.0), (2, 4400.0), (1, 8800.0), (8, 100.0)]
    runs = {3: (50, 50), 6: (0, 50), 7: (50, 50)}
    vms = tuple(
        VmRequest(f"m{i}", pe, mips, *runs.get(i, (0, 100))) for i, (pe, mips) in enumerate(shapes)
    )
    return ProblemInstance(vms, (ibm_host(0), dell_host(1), ibm_host(2)))


class TestLastPassRecord:
    def _vectors(self, inst, rng, count):
        return [tuple(rng.randrange(len(inst.hosts)) for _ in inst.vms) for _ in range(count)]

    def _answers(self, ev, inst, genes):
        return (
            ev.first_violation(genes),
            [ev.fits((i,), h, genes) for i in range(len(inst.vms)) for h in range(len(inst.hosts))],
            ev.try_energy(tuple(genes)),
        )

    def test_interleaved_vectors_match_fresh_evaluators(self):
        rng = random.Random(17)
        for seed in range(30):
            inst = random_small_instance(seed, max_vms=7, max_hosts=4)
            a, b = self._vectors(inst, rng, 2)
            shared = EnergyEvaluator(inst)
            for genes in (a, b, a, b, b, a):
                assert self._answers(shared, inst, genes) == self._answers(
                    EnergyEvaluator(inst), inst, genes
                )

    def test_list_changed_in_place_is_not_read_from_the_record(self):
        rng = random.Random(23)
        for seed in range(30):
            inst = random_small_instance(seed, max_vms=7, max_hosts=4)
            ev = EnergyEvaluator(inst)
            genes = list(self._vectors(inst, rng, 1)[0])
            for _ in range(6):
                assert ev.first_violation(genes) == _expected_violation(inst, genes)
                i = rng.randrange(len(genes))
                genes[i] = rng.randrange(len(inst.hosts))
                h = rng.randrange(len(inst.hosts))
                assert ev.fits((i,), h, genes) == _recount_fits(inst, {i}, h, genes)

    def test_repair_result_matches_a_fresh_evaluator(self):
        rng = random.Random(29)
        for seed in range(20):
            inst = random_small_instance(seed, max_vms=7, max_hosts=4)
            shared = EnergyEvaluator(inst)
            for raw in self._vectors(inst, rng, 3):
                try:
                    genes = repair(raw, shared, random.Random(seed))
                except UnrepairableError:
                    continue
                assert genes == repair(raw, EnergyEvaluator(inst), random.Random(seed))
                assert shared.try_energy(genes) == EnergyEvaluator(inst).try_energy(genes)

    def test_cached_feasible_vector_needs_no_pass(self, monkeypatch):
        inst = random_small_instance(3)
        ev = EnergyEvaluator(inst)
        genes = (0,) * len(inst.vms)
        if _expected_violation(inst, genes) is not None:
            genes = repair(genes, ev, random.Random(0))
        ev.try_energy(genes)
        ev.try_energy(tuple((g + 1) % len(inst.hosts) for g in genes))
        passes = []
        kernel = EnergyEvaluator._compute
        monkeypatch.setattr(EnergyEvaluator, "_compute", lambda self, g: passes.append(g) or kernel(self, g))
        assert ev.first_violation(genes) is None
        assert ev.first_violation(list(genes)) is None
        assert passes == []


def _exact_sum_energy(inst, genes, idle):
    """Joules summed as the evaluator must sum them: each (host, segment)
    cell's MIPS added in VM order, then the idle base plus the exactly
    rounded sum of the cells' terms."""
    segs = inst.segments
    cells = {}
    for i, v in enumerate(inst.vms):
        for s, (t0, _t1) in enumerate(segs):
            if v.active_at(t0):
                cells.setdefault((genes[i], s), []).append(v)
    terms = []
    for (h, s), vms in cells.items():
        host = inst.hosts[h]
        mips = 0.0
        for v in vms:
            mips += v.demand_mips_on(host, inst.cap_demand_to_core)
        watts = interpolate_power(host.power_model, min(mips / host.total_mips, 1.0))
        if idle:
            watts -= host.power_model.idle_watts
        terms.append(watts * (segs[s][1] - segs[s][0]))
    idle_watts = ordered_sum(h.power_model.idle_watts for h in inst.hosts)
    return (idle_watts * inst.horizon if idle else 0.0) + math.fsum(terms)


def _walk(inst, rng, steps):
    """A seeded walk over gene vectors, cycling through single-gene moves,
    crossover-suffix swaps, whole-host evacuations and returns to an earlier
    vector. It yields one list, changed in place between steps except after
    a return."""
    n, m = len(inst.vms), len(inst.hosts)
    genes = [rng.randrange(m) for _ in range(n)]
    history = [tuple(genes)]
    yield genes
    for step in range(steps):
        kind = step % 4
        if kind == 0:
            genes[rng.randrange(n)] = rng.randrange(m)
        elif kind == 1:
            other = rng.choice(history) if rng.random() < 0.5 else [rng.randrange(m) for _ in range(n)]
            cut = rng.randrange(n)
            genes[cut:] = other[cut:]
        elif kind == 2:
            src, dst = rng.sample(range(m), 2)
            for i, g in enumerate(genes):
                if g == src:
                    genes[i] = dst
        else:
            genes = list(rng.choice(history))
        history.append(tuple(genes))
        yield genes


def _walk_instances():
    yield _exact_fill_instance()
    yield _spanning_instance()
    for seed in range(8):
        yield _fractional_instance(seed)


def _pass_energy(ev, genes):
    """Joules of ``genes`` from a load pass, None if they violate capacity;
    unlike ``try_energy``, the memo cannot answer in place of the record."""
    return None if ev._violation(genes) else ev._energy()


class TestMovingRecord:
    def _check_step(self, walker, inst, genes):
        fresh = EnergyEvaluator(inst, walker.idle)
        expected = _expected_violation(inst, genes)
        assert walker.first_violation(genes) == fresh.first_violation(genes) == expected
        energy = _pass_energy(walker, tuple(genes))
        assert energy == _pass_energy(fresh, tuple(genes))
        if expected is None:
            assert energy == _exact_sum_energy(inst, genes, walker.idle)
            report = integrate_energy(placement_from_genes(genes, inst), inst, walker.idle)
            assert energy == pytest.approx(report.total_joules, rel=1e-12)
        else:
            assert energy is None
        assert walker.snapshot_power(genes) == fresh.snapshot_power(genes)
        for src in range(len(inst.hosts)):
            moved = walker.host_vms(src, genes)
            assert moved == [i for i, g in enumerate(genes) if g == src]
            for dst in range(len(inst.hosts)):
                if dst != src:
                    fit = walker.fits(moved, dst, genes)
                    assert fit == fresh.fits(moved, dst, genes)
                    assert fit == _recount_fits(inst, set(moved), dst, genes)
        return expected is None

    def test_walks_match_fresh_evaluators_and_the_reference(self):
        rng = random.Random(31)
        feasible = steps = 0
        for inst in _walk_instances():
            for idle in (False, True):
                walker = EnergyEvaluator(inst, idle_hosts_powered=idle)
                for genes in _walk(inst, rng, 24):
                    feasible += self._check_step(walker, inst, genes)
                    steps += 1
        assert feasible > steps // 4 and feasible < steps

    def test_genes_that_are_not_host_indices_leave_the_record_as_it_was(self):
        inst = _spanning_instance()
        walker = EnergyEvaluator(inst)
        genes = [0, 1, 0, 1, 0, 1]
        entry_points = (
            lambda ev, bad: ev.first_violation(bad),
            lambda ev, bad: ev.try_energy(tuple(bad)),
            lambda ev, bad: ev.try_energy(bad),
        )
        # The record readers answer from the record a vector equal to its
        # genes, even one holding 1.0, so they must refuse only vectors that
        # are no host indices at all.
        readers = (
            lambda ev, bad: ev.host_vms(0, bad),
            lambda ev, bad: ev.fits((0,), 1, bad),
            lambda ev, bad: ev.snapshot_power(bad),
        )
        not_indices = ([0, 1, 0, 3, 0, 1], [2, 1, 0, 1, 0, -1], [0, 1, 0], [-1] * 6)
        # Genes that are not ints fail before the pass moves any VM, also
        # where they equal the current gene (1.0 == 1).
        not_ints = ([1.0, 1, 0, 1, 0, 1], [0, 1, "3", 1, 0, 1], [0, 1, 0, 1, None, 1], [0, 1.0, 0, 1, 0, 1])
        self._check_step(walker, inst, genes)
        cases = [(bad, entry_points + readers) for bad in not_indices]
        cases += [(bad, entry_points) for bad in not_ints]
        for bad, entries in cases:
            for entry in entries:
                with pytest.raises(ValueError):
                    entry(walker, bad)
                self._check_step(walker, inst, genes)
        self._check_step(walker, inst, [2, 2, 2, 2, 2, 2])
        # A fresh evaluator has no VM placed; its first pass must still check
        # every gene, and a failed first pass leaves it fresh.
        for bad in ([0, 1, -1, 1, 0, 1],) + not_indices + not_ints:
            fresh = EnergyEvaluator(inst)
            for _ in range(2):
                for entry in entry_points + readers:
                    with pytest.raises(ValueError):
                        entry(fresh, bad)
            self._check_step(fresh, inst, genes)

    def test_exact_fill_walk_keeps_the_boundary(self):
        # Filling host 0 exactly, one VM at a time and out of index order,
        # then emptying it: every step's verdict must match the reference.
        inst = _exact_fill_instance()
        walker = EnergyEvaluator(inst)
        genes = [1] * 9
        for i in (7, 0, 5, 2, 6, 1, 4, 3, 8, 3, 8, 0, 7):
            genes[i] = 1 - genes[i]
            self._check_step(walker, inst, genes)
        assert walker.first_violation((0,) * 8 + (1,)) is None


def _spy_on_starts(monkeypatch):
    """The genes of the record that each load pass from now on starts from,
    in pass order, all -1 for the empty record."""
    starts = []
    finder = power._changed_genes

    def spied(rec, genes, *args):
        starts.append(rec.genes or (-1,) * len(genes))
        return finder(rec, genes, *args)

    monkeypatch.setattr(power, "_changed_genes", spied)
    return starts


def _own_record(inst, genes, idle):
    """A fresh evaluator's record of ``genes``."""
    ev = EnergyEvaluator(inst, idle)
    ev.try_energy(genes)
    return ev._records[genes]


class TestKeptRecords:
    """Passes that start from a kept parent record, named or not."""

    def _score(self, ev, genes, mode):
        if mode == "energy":
            return ev.try_energy(genes)
        return ev.snapshot_power(genes) if ev.try_energy(genes) is not None else None

    def _child(self, rng, parent, pool, m):
        genes = list(parent)
        if rng.random() < 0.5:
            cut = rng.randrange(len(genes))
            genes[cut:] = rng.choice(pool)[cut:]
        for _ in range(rng.randrange(3)):
            genes[rng.randrange(len(genes))] = rng.randrange(m)
        return tuple(genes)

    def test_children_of_kept_parents_match_fresh_evaluators_and_the_reference(self):
        rng = random.Random(37)
        instances = [_exact_fill_instance()] + [_fractional_instance(seed) for seed in range(6)]
        # Hosts of one shape with two power curves must not share watts.
        instances += [mixed_class_instance(seed, 8, 5, 3) for seed in range(4)]
        feasible = steps = hinted = 0
        for inst in instances:
            m = len(inst.hosts)
            for idle in (False, True):
                for mode in ("energy", "snapshot"):
                    ev = EnergyEvaluator(inst, idle_hosts_powered=idle)
                    pool = [tuple(rng.randrange(m) for _ in inst.vms) for _ in range(4)]
                    for genes in pool:
                        self._score(ev, genes, mode)
                    for _ in range(30):
                        parent = rng.choice(pool)
                        child = self._child(rng, parent, pool, m)
                        if rng.random() < 0.7:
                            ev.parent = parent
                            hinted += parent in ev._records
                        expected = _expected_violation(inst, child)
                        got = self._score(ev, child, mode)
                        assert got == self._score(EnergyEvaluator(inst, idle), child, mode)
                        assert ev.first_violation(child) == expected
                        if expected is None:
                            feasible += 1
                            report = integrate_energy(placement_from_genes(child, inst), inst, idle)
                            if mode == "energy":
                                assert got == _exact_sum_energy(inst, child, idle)
                                assert got == pytest.approx(report.total_joules, rel=1e-12)
                        else:
                            assert got is None
                        steps += 1
                        pool.append(child)
                        if rng.random() < 0.1:
                            ev.keep_records(rng.sample(pool, 4))
                    for genes, rec in ev._records.items():
                        assert rec == _own_record(inst, genes, idle)
        assert feasible > steps // 4 and feasible < steps
        assert hinted > steps // 3

    def test_children_hinted_with_both_parents_match_fresh_evaluators(self, monkeypatch):
        # Each hint names a kept parent, a vector whose record is not kept,
        # or nothing; the pass starts from the nearer kept parent, if any.
        starts = _spy_on_starts(monkeypatch)
        rng = random.Random(53)
        instances = [_exact_fill_instance(), _spanning_instance()]
        instances += [mixed_class_instance(seed, 10, 5, 3) for seed in range(4)]
        steps = from_other = 0
        for inst in instances:
            n, m = len(inst.vms), len(inst.hosts)
            for idle in (False, True):
                ev = EnergyEvaluator(inst, idle_hosts_powered=idle)
                pool = [tuple(rng.randrange(m) for _ in range(n)) for _ in range(4)]
                for genes in pool:
                    ev.try_energy(genes)
                for _ in range(30):
                    p1, p2 = rng.choice(pool), rng.choice(pool)
                    cut = rng.randrange(1, n)
                    child = list(p1[:cut] + p2[cut:])
                    for _ in range(rng.randrange(3)):
                        child[rng.randrange(n)] = rng.randrange(m)
                    child = tuple(child)
                    if child in pool:
                        continue  # the memo answers without a pass
                    unkept = tuple(rng.randrange(m) for _ in range(n))
                    ev.parent = rng.choice((p1, p1, unkept, None))
                    ev.other_parent = rng.choice((p2, p2, unkept, None))
                    hinted = [g for g in (ev.parent, ev.other_parent) if g in ev._records]
                    del starts[:]
                    got = ev.try_energy(child)
                    assert ev.parent is None and ev.other_parent is None
                    assert got == EnergyEvaluator(inst, idle).try_energy(child)
                    assert ev._rec == _own_record(inst, child, idle)
                    if starts and hinted:
                        assert starts[0] in hinted
                        from_other += starts[0] == p2 != p1 and len(hinted) == 2
                    steps += 1
                    pool.append(child)
                    if rng.random() < 0.1:
                        ev.keep_records(rng.sample(pool, 4))
                for genes, rec in ev._records.items():
                    assert rec == _own_record(inst, genes, idle)
        assert from_other > 10

    @pytest.mark.parametrize("hints", list(itertools.product(("near", "far", "unkept", None), repeat=2)))
    def test_pass_starts_from_the_nearer_kept_parent(self, hints, monkeypatch):
        inst = mixed_class_instance(5, 12, 5, 3)
        n, m = len(inst.vms), len(inst.hosts)
        far = tuple(random.Random(43).randrange(m) for _ in range(n))
        named = {"far": far, None: None}
        # Each differs from ``far`` in every gene.
        for shift, name in enumerate(("near", "unkept", "last"), 1):
            named[name] = tuple((g + shift) % m for g in far)
        # The child's head comes from ``near``: it differs from ``near`` in
        # its last two genes and from ``far`` in all the others.
        child = named["near"][:-2] + far[-2:]
        ev = EnergyEvaluator(inst)
        for name in ("far", "near", "last"):
            ev.try_energy(named[name])
        starts = _spy_on_starts(monkeypatch)
        ev.parent, ev.other_parent = (named[h] for h in hints)
        ev.try_energy(child)
        expected = "near" if "near" in hints else "far" if "far" in hints else "last"
        assert starts == [named[expected]]
        assert ev.parent is None and ev.other_parent is None
        assert ev._rec == _own_record(inst, child, False)
        for name in ("far", "near", "last"):
            assert ev._records[named[name]] == _own_record(inst, named[name], False)

    def test_an_equally_near_parent_wins_over_the_other(self, monkeypatch):
        inst = _spanning_instance()
        child = (0, 0, 1, 1, 2, 2)
        # Each parent's key differs from the child's in one bit.
        a, b = (1, 0, 1, 1, 2, 2), (0, 1, 1, 1, 2, 2)
        starts = _spy_on_starts(monkeypatch)
        for parent, other in ((a, b), (b, a)):
            ev = EnergyEvaluator(inst)
            ev.try_energy(a)
            ev.try_energy(b)
            ev.parent, ev.other_parent = parent, other
            assert ev.first_violation(child) == _expected_violation(inst, child)
            assert starts.pop() == parent
            assert ev._rec == _own_record(inst, child, False)

    def test_rejected_vector_leaves_kept_records_unchanged(self):
        inst = _spanning_instance()
        ev = EnergyEvaluator(inst)
        kept = [(0, 1, 0, 1, 0, 1), (2, 2, 2, 2, 2, 2), (0, 0, 1, 1, 2, 2)]
        for genes in kept:
            ev.try_energy(genes)
        before = {g: _own_record(inst, g, False) for g in kept}
        for bad in ([0, 1, 0, 3, 0, 1], [2, 1, 0, 1, 0, -1], [0, 1, 0], (0,) * 7):
            for parent, other in itertools.product((None, kept[0], kept[2]), (None, kept[1], kept[2])):
                ev.parent = parent
                ev.other_parent = other
                with pytest.raises(ValueError):
                    ev.first_violation(bad)
                assert ev.parent is None and ev.other_parent is None
                assert ev._records == before
        ev.parent = kept[1]
        child = (2, 2, 2, 2, 2, 0)
        assert ev.try_energy(child) == EnergyEvaluator(inst).try_energy(child)
        assert ev._records[kept[1]] == before[kept[1]]

    @pytest.mark.parametrize("idle", [False, True])
    def test_energy_of_a_kept_vector_leaves_its_record_as_it_was(self, idle):
        # try_energy() keeps the current record; summing its terms again
        # writes nothing into it.
        inst = _spanning_instance()
        ev = EnergyEvaluator(inst, idle)
        for genes in [(0, 1, 2, 0, 1, 2), (2, 2, 2, 2, 2, 0), (0, 0, 1, 1, 2, 2)]:
            assert ev.try_energy(genes) is not None
            before = ev._records[genes].copy()
            assert before == _own_record(inst, genes, idle)
            assert ev._energy() == EnergyEvaluator(inst, idle).try_energy(genes)
            assert ev._records[genes] == before

    def test_record_count_is_bounded(self):
        inst = _spanning_instance()
        ev = EnergyEvaluator(inst)
        for code in range(3**6):
            genes = tuple(code // 3**i % 3 for i in range(6))
            ev.try_energy(genes)
            assert len(ev._records) <= ev._RECORD_LIMIT


def _record_of(genes, key):
    """A record of ``genes`` with memo key ``key`` and no cells, which is all
    that ``power._changed_genes`` reads of its start record."""
    return power._Record(genes, key, [], [], set(), [])


class TestChangedGenes:
    """``power._changed_genes`` against a gene-by-gene comparison: the
    non-zero lanes of two packed keys' XOR at every key width, and the
    empty record."""

    @staticmethod
    def _scan(old, genes):
        return [i for i, (a, b) in enumerate(zip(old, genes)) if a != b]

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_xor_lanes_match_a_gene_by_gene_scan(self, width):
        fmt = {1: "B", 2: "H", 4: "I"}[width]
        top = (1 << 8 * width) - 1
        # Genes that differ in one byte of their lane only, low or high.
        values = [v for v in (0, 1, 2, 255, 256, 257, 1 << 16, 1 << 24, top - 1, top) if v <= top]

        def key(genes):
            return int.from_bytes(struct.pack(f"<{len(genes)}{fmt}", *genes), "little")

        rng = random.Random(59)
        changed = 0
        for n in (0, 1, 2, 3, 7, 64, 211):
            for _ in range(40):
                old = tuple(rng.choice(values) for _ in range(n))
                genes = list(old)
                # Mostly a few genes redrawn, sometimes all of them.
                count = rng.randrange(min(n, 3) + 1) if rng.random() < 0.8 else n
                for i in rng.sample(range(n), count):
                    genes[i] = rng.choice(values)
                genes = tuple(genes)
                expected = self._scan(old, genes)
                assert power._changed_genes(_record_of(old, key(old)), genes, key(genes), width) == expected
                changed += len(expected)
        assert changed > 1000

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_changes_in_the_end_lanes_are_found(self, width):
        # Only the lanes between the XOR's lowest and highest set bits are
        # read, so a change in lane 0 or lane n-1, in its low byte or only
        # in its high byte, in the lowest or the highest bit of either, must
        # still be found.
        fmt = {1: "B", 2: "H", 4: "I"}[width]
        high = 1 << 8 * (width - 1)
        flips = (1, 0x80, high, high << 7, high | 1)

        def key(genes):
            return int.from_bytes(struct.pack(f"<{len(genes)}{fmt}", *genes), "little")

        for n in (1, 2, 3, 211):
            for background in (0, high | 1):
                old = (background,) * n
                for lanes in ([0], [n - 1], sorted({0, n - 1}), sorted({0, n // 2, n - 1})):
                    for flip in flips:
                        genes = tuple(g ^ flip if i in lanes else g for i, g in enumerate(old))
                        assert power._changed_genes(_record_of(old, key(old)), genes, key(genes), width) == lanes

    def test_empty_record_changes_every_gene(self, monkeypatch):
        # The empty record has no key: a fresh evaluator's first pass moves
        # every gene from host -1.
        inst = _spanning_instance()
        passes = _spy_on_passes(monkeypatch)
        genes = (0, 1, 0, 1, 2, 2)
        ev = EnergyEvaluator(inst)
        empty = ev._rec.copy()
        ev.first_violation(genes)
        assert passes == [((-1,) * 6, genes, None, list(range(6)))]
        assert empty.genes is None and empty.key is None
        assert ev._rec == _own_record(inst, genes, False)


class TestMemoKeys:
    """The memo is keyed by the packed genes: one entry per vector, however
    it is passed, at two bytes per gene past 256 hosts."""

    def _wide_instance(self):
        # 300 hosts, so host indices need two bytes; 3-PE VMs overload a
        # 4-core IBM host when two of them overlap there.
        hosts = tuple(ibm_host(h) if h % 2 else dell_host(h) for h in range(300))
        vms = tuple(VmRequest(f"w{i}", 3, 2000.0, 10 * i, 10 * i + 25) for i in range(6))
        return ProblemInstance(vms, hosts)

    def _vectors(self, inst, count):
        rng = random.Random(41)
        hosts = (0, 1, 254, 255, 256, 257, 298, 299)
        return [tuple(rng.choice(hosts) for _ in inst.vms) for _ in range(count)]

    @staticmethod
    def _assert_keys(ev, inst, width):
        for key in ev._cache:
            assert type(key) is bytes and len(key) == len(inst.vms) * width

    def test_equal_vectors_share_one_entry_and_one_evaluation(self):
        inst = self._wide_instance()
        for genes in self._vectors(inst, 12):
            ev = EnergyEvaluator(inst)
            energy = ev.try_energy(genes)
            assert ev.try_energy(tuple(list(genes))) == energy
            assert ev.try_energy(list(genes)) == energy
            assert ev.try_energy(genes) == energy
            assert ev.first_violation(list(genes)) == _expected_violation(inst, genes)
            assert len(ev._cache) == 1 and ev.evaluations == 1
            self._assert_keys(ev, inst, 2)

    def test_wide_genes_round_trip_and_match_fresh_evaluators(self):
        inst = self._wide_instance()
        vectors = self._vectors(inst, 40)
        assert any(g >= 256 for genes in vectors for g in genes)
        for idle in (False, True):
            ev = EnergyEvaluator(inst, idle)
            feasible = 0
            for genes in vectors + vectors[::-1]:
                expected = _expected_violation(inst, genes)
                energy = ev.try_energy(genes)
                assert energy == EnergyEvaluator(inst, idle).try_energy(genes)
                assert ev.first_violation(genes) == expected
                assert (energy is None) == (expected is not None)
                feasible += energy is not None
            assert 0 < feasible < 2 * len(vectors)
            assert len(ev._cache) == len(set(vectors)) == ev.evaluations
            self._assert_keys(ev, inst, 2)
            assert {struct.unpack(f"<{len(inst.vms)}H", key) for key in ev._cache} == set(vectors)

    def test_one_byte_per_gene_up_to_256_hosts(self):
        inst = _spanning_instance()
        ev = EnergyEvaluator(inst)
        for code in range(3**6):
            ev.try_energy(tuple(code // 3**i % 3 for i in range(6)))
        assert len(ev._cache) == 3**6
        self._assert_keys(ev, inst, 1)


def _spy_on_passes(monkeypatch):
    """(start genes, genes, key XOR, changed genes) of each load pass from now
    on, in pass order; a pass from the empty record starts from all -1 and
    has no XOR (None). Each pass's key must be its genes packed."""
    passes = []
    finder = power._changed_genes

    def spied(rec, genes, key, width):
        assert key == int.from_bytes(struct.pack(f"<{len(genes)}{power._LANES[width]}", *genes), "little")
        changed = list(finder(rec, genes, key, width))
        old = rec.genes or (-1,) * len(genes)
        passes.append((old, genes, None if rec.key is None else key ^ rec.key, changed))
        return changed

    monkeypatch.setattr(power, "_changed_genes", spied)
    return passes


class TestMoves:
    """Vectors built the way ``repair`` and ``move_host`` build them, with
    ``schedulers._moved_to``: one VM or one host's VMs moved, in a tuple the
    evaluator is not told about. Each pass finds the moved VMs from the memo
    keys; its answers, record and joules are checked against fresh
    evaluators and the reference path."""

    def _score(self, ev, genes, mode):
        if mode == "energy":
            return ev.try_energy(genes)
        return ev.snapshot_power(genes) if ev.try_energy(genes) is not None else None

    def _next(self, ev, rng, genes, pool, m):
        """The next vector of a walk: mostly edits, chained or not, sometimes
        another vector, with or without a parent hint."""
        n = len(genes)
        kind = rng.randrange(6)
        if kind == 0:
            return _moved_to(genes, (rng.randrange(n),), rng.randrange(m))
        if kind == 1:
            src, dst = rng.sample(range(m), 2)
            return _moved_to(genes, ev.host_vms(src, genes), dst)
        if kind == 2:
            # Repeats and VMs already on the target move nothing.
            vms = [rng.randrange(n) for _ in range(rng.randrange(4))]
            return _moved_to(genes, vms, rng.randrange(m))
        if kind == 3:
            # Two edits before any pass: the second starts from a vector
            # whose record was never made.
            first = _moved_to(genes, (rng.randrange(n),), rng.randrange(m))
            return _moved_to(first, (rng.randrange(n),), rng.randrange(m))
        if kind == 4:
            ev.parent = rng.choice(pool)
            return _moved_to(ev.parent, (rng.randrange(n),), rng.randrange(m))
        # An edit checked with fits() and not taken, as repair skips one.
        vm, host = rng.randrange(n), rng.randrange(m)
        ev.fits((vm,), host, genes)
        _moved_to(genes, (vm,), host)
        return rng.choice(pool)

    def test_chained_moves_match_fresh_evaluators_and_the_reference(self, monkeypatch):
        rng = random.Random(41)
        instances = [_exact_fill_instance(), _spanning_instance()]
        instances += [_fractional_instance(seed) for seed in range(4)]
        instances += [mixed_class_instance(seed, 8, 5, 3) for seed in range(3)]
        passes = _spy_on_passes(monkeypatch)
        feasible = steps = 0
        for inst in instances:
            m = len(inst.hosts)
            for idle in (False, True):
                for mode in ("energy", "snapshot"):
                    ev = EnergyEvaluator(inst, idle_hosts_powered=idle)
                    pool = [tuple(rng.randrange(m) for _ in inst.vms) for _ in range(3)]
                    for genes in pool:
                        self._score(ev, genes, mode)
                    genes = pool[0]
                    del passes[:]
                    for _ in range(40):
                        genes = self._next(ev, rng, genes, pool, m)
                        expected = _expected_violation(inst, genes)
                        got = self._score(EnergyEvaluator(inst, idle), genes, mode)
                        walked = len(passes)
                        assert self._score(ev, genes, mode) == got
                        # Every pass of the walk is of a packed vector from a
                        # packed record: it reads the key XOR, never scans.
                        for old, new, diff, changed in passes[walked:]:
                            assert diff is not None
                            assert changed == [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
                        assert ev.first_violation(genes) == expected
                        # A vector the memo holds needs no pass; host_vms reads
                        # the record, so it makes the record of ``genes``.
                        ev.host_vms(0, genes)
                        assert ev._rec == _own_record(inst, genes, idle)
                        if expected is None:
                            feasible += 1
                            if mode == "energy":
                                assert got == _exact_sum_energy(inst, genes, idle)
                                report = integrate_energy(placement_from_genes(genes, inst), inst, idle)
                                assert got == pytest.approx(report.total_joules, rel=1e-12)
                        else:
                            assert got is None
                        steps += 1
                        pool.append(genes)
                    for kept, rec in ev._records.items():
                        assert rec == _own_record(inst, kept, idle)
        assert feasible > steps // 4 and feasible < steps

    @pytest.mark.parametrize("src, dst", [(0, 2), (2, 0), (1, 2), (2, 1)])
    def test_lowest_vm_moving_within_its_segment(self, src, dst):
        # VM 0 is the lowest VM of its cell in every segment it spans. Moving
        # it to another host makes it the lowest there too; moving it there
        # and back recounts the source and target cells in both orders.
        inst = _spanning_instance()
        for rest in (src, dst, 3 - src - dst):
            genes = (src,) + (rest,) * 5
            for idle in (False, True):
                ev = EnergyEvaluator(inst, idle)
                ev.try_energy(genes)
                moved = _moved_to(genes, (0,), dst)
                energy = ev.try_energy(moved)
                assert energy == EnergyEvaluator(inst, idle).try_energy(moved)
                if _expected_violation(inst, moved) is None:
                    assert energy == _exact_sum_energy(inst, moved, idle)
                assert ev._rec == _own_record(inst, moved, idle)
                back = _moved_to(moved, (0,), src)
                assert back == genes
                assert ev.snapshot_power(back) == EnergyEvaluator(inst, idle).snapshot_power(back)
                assert ev._rec == _own_record(inst, genes, idle)

    def test_pass_after_a_repair_move_finds_the_moved_vm_from_the_keys(self, monkeypatch):
        # All nine VMs on host 0 overflow it; repair moves the highest one,
        # VM 8, to host 1, and the pass of that vector is told only by the
        # two memo keys that VM 8 is what changed.
        inst = _exact_fill_instance()
        ev = EnergyEvaluator(inst)
        passes = _spy_on_passes(monkeypatch)
        fixed = repair((0,) * 9, ev, random.Random(1))
        assert fixed == (0,) * 8 + (1,)
        (_, _, first, _), (old, genes, diff, changed) = passes
        assert first is None  # the first pass is from the empty record
        assert (old, genes) == ((0,) * 9, fixed)
        assert diff is not None and changed == [8]
        assert ev._rec == _own_record(inst, fixed, False)

    def test_host_move_passes_find_the_moved_vms_from_the_keys(self, monkeypatch):
        rng = random.Random(67)
        passes = _spy_on_passes(monkeypatch)
        moves = 0
        for seed in range(6):
            inst = mixed_class_instance(seed, 10, 5, 3)
            n, m = len(inst.vms), len(inst.hosts)
            ev = EnergyEvaluator(inst)
            genes = repair(tuple(rng.randrange(m) for _ in range(n)), ev, rng)
            for _ in range(20):
                del passes[:]
                genes = move_host(genes, 0.3, ev, rng)
                assert ev.first_violation(genes) is None
                for old, new, diff, changed in passes:
                    assert diff is not None
                    assert changed == [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
                    # Every VM a host move changes lands on one host.
                    assert len({new[i] for i in changed}) == 1
                    moves += 1
                assert ev._rec == _own_record(inst, genes, False)
        assert moves > 20

    def test_a_pass_rejects_a_moved_host_outside_the_fleet(self):
        inst = _spanning_instance()
        ev = EnergyEvaluator(inst)
        genes = (0, 1, 0, 1, 2, 2)
        ev.try_energy(genes)
        for host in (-1, 3):
            with pytest.raises(ValueError):
                ev.first_violation(_moved_to(genes, (1,), host))
            assert ev._rec == _own_record(inst, genes, False)


class TestLowestVmChanges:
    """One segment, two hosts, three VMs: passes that change which VM is the
    lowest of a cell, from the current record and from a kept one."""

    # VMs of different sizes, so the two cells' energy terms differ.
    INSTANCE = ProblemInstance(
        tuple(VmRequest(f"o{i}", 1, mips, 0, 100) for i, mips in enumerate((1000.0, 1700.0, 2300.0))),
        (ibm_host(0), ibm_host(1)),
    )

    @pytest.mark.parametrize("idle", [False, True])
    @pytest.mark.parametrize("from_parent", [False, True])
    @pytest.mark.parametrize(
        "start, target",
        [
            # Both cells swap their lowest VMs.
            ((0, 1, 1), (1, 0, 1)),
            # A lower VM arrives while the old lowest VM stays.
            ((1, 0, 0), (0, 0, 0)),
        ],
    )
    def test_pass_makes_the_record_a_fresh_evaluator_makes(self, start, target, from_parent, idle):
        inst = self.INSTANCE
        ev = EnergyEvaluator(inst, idle)
        ev.try_energy(start)
        if from_parent:
            # The current record is another vector's; the pass must start
            # from the kept record of ``start``.
            ev.try_energy(tuple(1 - g for g in target))
            ev.parent = start
        energy = ev.try_energy(target)
        assert ev._rec == _own_record(inst, target, idle)
        assert ev._records[start] == _own_record(inst, start, idle)
        assert energy == ev._energy() == _exact_sum_energy(inst, target, idle)


class TestVmOrder:
    """With integer per-PE MIPS every cell's load sums exactly in any VM
    order, so one placement listed in another VM order has the same cell
    terms, and its joules must not depend on which VM comes first."""

    @pytest.mark.parametrize("idle", [False, True])
    def test_permuting_the_vms_leaves_the_energy_bit_identical(self, idle):
        rng = random.Random(47)
        scored = 0
        for seed in range(300):
            inst = mixed_class_instance(seed, 12, 5, 4)
            n, m = len(inst.vms), len(inst.hosts)
            try:
                genes = repair(tuple(rng.randrange(m) for _ in range(n)), EnergyEvaluator(inst), rng)
            except UnrepairableError:
                continue
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = ProblemInstance(
                tuple(inst.vms[p] for p in perm), inst.hosts, cap_demand_to_core=inst.cap_demand_to_core
            )
            energy = EnergyEvaluator(inst, idle).try_energy(genes)
            assert energy is not None
            assert EnergyEvaluator(shuffled, idle).try_energy(tuple(genes[p] for p in perm)) == energy
            scored += 1
        assert scored > 250
