"""Differential tests of the evaluator's load pass against the reference path.

``check_feasibility`` and ``integrate_energy`` never share code with
``EnergyEvaluator``; every answer the evaluator gives (earliest violation,
energy, fit checks) is compared with them or with a brute-force recount from
the VM and host records, including the answers read from its record of the
last pass. Seeded walks move one evaluator's record step by step and compare
every answer with ``==`` against an evaluator built fresh for each step.
"""

import random

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
from vmplace.model import MIPS_EPS
from vmplace.power import ordered_sum

from conftest import dell_host, ibm_host, mixed_class_instance, random_small_instance


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
            assert ev.fits(i, h, genes) == _recount_fits(inst, {i}, h, genes), (i, h)
    for src in range(len(inst.hosts)):
        moved = [i for i, g in enumerate(genes) if g == src]
        for h in range(len(inst.hosts)):
            if h != src:
                assert ev.fits_all(moved, h, genes) == _recount_fits(inst, set(moved), h, genes)


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
        assert ev.fits(8, 1, (0,) * 9)
        assert not ev.fits(8, 0, (0,) * 8 + (1,))
        # The overflow is in [50, 100), the second segment, on host 0.
        assert ev.first_violation((0,) * 9) == (1, 0)

    def test_fractional_sums_within_epsilon_fit(self):
        # 0.1 + 0.2 exceeds 0.3 by float rounding; MIPS_EPS absorbs it.
        vms = (VmRequest("a", 1, 0.1, 0, 10), VmRequest("b", 1, 0.2, 0, 10))
        inst = ProblemInstance(vms, (HostSpec(0, 2, 0.15, IBM_X3250),))
        ev = EnergyEvaluator(inst)
        assert ev.first_violation((0, 0)) is None
        assert ev.fits(1, 0, (0, 0))
        _check_all(ev, inst, (0, 0))


class TestLastPassRecord:
    def _vectors(self, inst, rng, count):
        return [tuple(rng.randrange(len(inst.hosts)) for _ in inst.vms) for _ in range(count)]

    def _answers(self, ev, inst, genes):
        return (
            ev.first_violation(genes),
            [ev.fits(i, h, genes) for i in range(len(inst.vms)) for h in range(len(inst.hosts))],
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
                assert ev.fits(i, h, genes) == _recount_fits(inst, {i}, h, genes)

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


def _first_touch_energy(inst, genes, idle):
    """Joules summed as the evaluator must sum them: each (host, segment)
    cell's MIPS added in VM order, then the cells' terms after the idle base
    in the order a pass over the genes first touches the cells."""
    segs = inst.segments
    cells = {}
    for i, v in enumerate(inst.vms):
        for s, (t0, _t1) in enumerate(segs):
            if v.active_at(t0):
                cells.setdefault((genes[i], s), []).append(v)
    idle_watts = ordered_sum(h.power_model.idle_watts for h in inst.hosts)
    total = idle_watts * inst.horizon if idle else 0.0
    for (h, s), vms in cells.items():
        host = inst.hosts[h]
        mips = 0.0
        for v in vms:
            mips += v.demand_mips_on(host, inst.cap_demand_to_core)
        watts = interpolate_power(host.power_model, min(mips / host.total_mips, 1.0))
        if idle:
            watts -= host.power_model.idle_watts
        total += watts * (segs[s][1] - segs[s][0])
    return total


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


class TestMovingRecord:
    def _check_step(self, walker, inst, genes):
        fresh = EnergyEvaluator(inst, walker.idle)
        expected = _expected_violation(inst, genes)
        assert walker.first_violation(genes) == fresh.first_violation(genes) == expected
        energy = walker.try_energy(tuple(genes), cache=False)
        assert energy == fresh.try_energy(tuple(genes), cache=False)
        if expected is None:
            assert energy == _first_touch_energy(inst, genes, walker.idle)
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
                    fit = walker.fits_all(moved, dst, genes)
                    assert fit == fresh.fits_all(moved, dst, genes)
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
        self._check_step(walker, inst, genes)
        for bad in ([0, 1, 0, 3, 0, 1], [2, 1, 0, 1, 0, -1], [0, 1, 0]):
            with pytest.raises(ValueError):
                walker.first_violation(bad)
            self._check_step(walker, inst, genes)
        self._check_step(walker, inst, [2, 2, 2, 2, 2, 2])
        # A fresh evaluator has no VM placed; its first pass must still check
        # every gene, and a failed first pass leaves it fresh.
        for bad in ([0, 1, -1, 1, 0, 1], [-1] * 6, [0, 1, 0, 3, 0, 1]):
            fresh = EnergyEvaluator(inst)
            for _ in range(2):
                with pytest.raises(ValueError):
                    fresh.first_violation(bad)
                with pytest.raises(ValueError):
                    fresh.try_energy(tuple(bad))
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


def _own_record(inst, genes, idle):
    """The load fields of a fresh evaluator's record of ``genes``: everything
    but the energy terms, which ``_energy`` may refresh in place."""
    ev = EnergyEvaluator(inst, idle)
    ev.feasible(genes)
    return ev._records[genes]._replace(term=None, stale=None)


class TestKeptRecords:
    """Passes that start from a kept parent record, named or not."""

    def _score(self, ev, genes, mode):
        if mode == "energy":
            return ev.try_energy(genes)
        return ev.snapshot_power(genes) if ev.feasible(genes) else None

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
                                assert got == _first_touch_energy(inst, child, idle)
                                assert got == pytest.approx(report.total_joules, rel=1e-12)
                        else:
                            assert got is None
                        steps += 1
                        pool.append(child)
                        if rng.random() < 0.1:
                            ev.keep_records(rng.sample(pool, 4))
                    for genes, rec in ev._records.items():
                        assert rec._replace(term=None, stale=None) == _own_record(inst, genes, idle)
        assert feasible > steps // 4 and feasible < steps
        assert hinted > steps // 3

    def test_rejected_vector_leaves_kept_records_unchanged(self):
        inst = _spanning_instance()
        ev = EnergyEvaluator(inst)
        kept = [(0, 1, 0, 1, 0, 1), (2, 2, 2, 2, 2, 2), (0, 0, 1, 1, 2, 2)]
        for genes in kept:
            ev.try_energy(genes)
        before = {g: _own_record(inst, g, False) for g in kept}
        for bad in ([0, 1, 0, 3, 0, 1], [2, 1, 0, 1, 0, -1], [0, 1, 0], (0,) * 7):
            for parent in (None, kept[0], kept[2]):
                ev.parent = parent
                with pytest.raises(ValueError):
                    ev.first_violation(bad)
                assert ev.parent is None
                assert {
                    g: rec._replace(term=None, stale=None) for g, rec in ev._records.items()
                } == before
        ev.parent = kept[1]
        child = (2, 2, 2, 2, 2, 0)
        assert ev.try_energy(child) == EnergyEvaluator(inst).try_energy(child)
        assert ev._records[kept[1]]._replace(term=None, stale=None) == before[kept[1]]

    def test_record_count_is_bounded(self):
        inst = _spanning_instance()
        ev = EnergyEvaluator(inst)
        for code in range(3**6):
            genes = tuple(code // 3**i % 3 for i in range(6))
            ev.feasible(genes)
            assert len(ev._records) <= ev._RECORD_LIMIT
