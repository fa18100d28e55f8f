"""Power curves, utilization, and exact energy integration."""

import itertools
import random

import pytest

from vmplace import (
    BUILTIN_MODELS,
    DELL_R620,
    IBM_X3250,
    KWH_PER_JOULE,
    EnergyEvaluator,
    HostSpec,
    InfeasiblePlacementError,
    PowerModel,
    ProblemInstance,
    VmRequest,
    integrate_energy,
    interpolate_power,
    utilization,
)

from conftest import dell_host, ibm_host, random_small_instance

IBM_SAMPLES = (41.6, 46.7, 52.3, 57.9, 65.4, 73.0, 80.7, 89.5, 99.6, 105.0, 113.0)
DELL_SAMPLES = (56.1, 79.3, 89.6, 102.0, 121.0, 132.0, 149.0, 171.0, 195.0, 225.0, 263.0)


class TestPowerModel:
    def test_builtin_sample_tables(self):
        assert IBM_X3250.samples == IBM_SAMPLES
        assert DELL_R620.samples == DELL_SAMPLES
        assert BUILTIN_MODELS == {"ibm_x3250": IBM_X3250, "dell_r620": DELL_R620}

    def test_idle_and_max(self):
        assert IBM_X3250.idle_watts == 41.6
        assert IBM_X3250.max_watts == 113.0
        assert DELL_R620.idle_watts == 56.1
        assert DELL_R620.max_watts == 263.0

    def test_needs_exactly_11_nonnegative_samples(self):
        with pytest.raises(ValueError):
            PowerModel("x", (1.0,) * 10)
        with pytest.raises(ValueError):
            PowerModel("x", (1.0,) * 12)
        with pytest.raises(ValueError):
            PowerModel("x", (-0.1,) + (1.0,) * 10)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_samples_must_be_finite(self, bad):
        for k in (0, 5, 10):
            samples = list(IBM_SAMPLES)
            samples[k] = bad
            with pytest.raises(ValueError, match="finite"):
                PowerModel("x", tuple(samples))

    def test_busy_samples_must_be_positive(self):
        assert PowerModel("x", (0.0,) + (1.0,) * 10).idle_watts == 0.0
        with pytest.raises(ValueError):
            PowerModel("x", (0.0,) * 11)
        with pytest.raises(ValueError):
            PowerModel("x", (0.0,) * 10 + (100.0,))
        with pytest.raises(ValueError):
            PowerModel("x", (1.0,) * 5 + (0.0,) + (1.0,) * 5)


class TestInterpolatePower:
    @pytest.mark.parametrize("k", range(11))
    def test_exact_at_samples_ibm(self, k):
        assert interpolate_power(IBM_X3250, k / 10.0) == IBM_SAMPLES[k]

    @pytest.mark.parametrize("k", range(11))
    def test_exact_at_samples_dell(self, k):
        assert interpolate_power(DELL_R620, k / 10.0) == DELL_SAMPLES[k]

    def test_linear_between_samples(self):
        assert interpolate_power(IBM_X3250, 0.25) == pytest.approx(55.1, rel=1e-12)
        for k in range(10):
            mid = (k + 0.5) / 10.0
            for model, samples in ((IBM_X3250, IBM_SAMPLES), (DELL_R620, DELL_SAMPLES)):
                expected = (samples[k] + samples[k + 1]) / 2.0
                assert interpolate_power(model, mid) == pytest.approx(expected, rel=1e-12)

    def test_snaps_float_noise_to_samples(self):
        # 0.1 + 0.2 != 0.3 in floats, but should still hit the sample exactly.
        assert interpolate_power(IBM_X3250, 0.1 + 0.2) == IBM_SAMPLES[3]
        assert interpolate_power(IBM_X3250, 3 * 0.1) == IBM_SAMPLES[3]

    def test_busy_host_on_a_zero_watt_idle_curve_draws_power(self):
        # A utilization within float noise of 0 is still a busy host: it must
        # not snap down to a 0 W idle sample. Only 0 itself reads sample 0.
        curve = PowerModel("zero-idle", tuple(float(k) for k in range(11)))
        assert interpolate_power(curve, 1e-12) > 0.0
        assert interpolate_power(curve, 0.0) == curve.samples[0]

    @pytest.mark.parametrize("u", [-0.01, 1.01, 2.0])
    def test_rejects_out_of_range(self, u):
        with pytest.raises(ValueError):
            interpolate_power(IBM_X3250, u)


class TestUtilization:
    def test_empty_host_is_zero(self):
        assert utilization(ibm_host(0), ()) == 0.0

    def test_fractional(self):
        host = ibm_host(0)
        vms = [VmRequest("a", 1, 2933.0, 0, 10)]
        assert utilization(host, vms) == pytest.approx(0.25, rel=1e-12)

    def test_full(self):
        host = dell_host(0)
        vms = [VmRequest(f"v{i}", 1, 2200.0, 0, 10) for i in range(16)]
        assert utilization(host, vms) == 1.0

    def test_capped_demand_on_slower_core(self):
        # A 2933-MIPS request counts as 2200 on a Dell core when capping.
        host = dell_host(0)
        vms = [VmRequest("a", 1, 2933.0, 0, 10)]
        assert utilization(host, vms, cap_demand_to_core=True) == pytest.approx(
            2200.0 / 35200.0, rel=1e-12
        )
        assert utilization(host, vms, cap_demand_to_core=False) == pytest.approx(
            2933.0 / 35200.0, rel=1e-12
        )

    def test_overload_raises(self):
        host = ibm_host(0)
        too_many = [VmRequest(f"v{i}", 1, 100.0, 0, 10) for i in range(5)]
        with pytest.raises(ValueError):
            utilization(host, too_many)
        too_hot = [VmRequest("a", 4, 3000.0, 0, 10)]
        with pytest.raises(ValueError):
            utilization(host, too_hot)


class TestIntegrateEnergy:
    def test_single_vm_constant_power(self):
        inst = ProblemInstance(
            (VmRequest("a", 2, 2933.0, 0, 3600),), (ibm_host(0),)
        )
        report = integrate_energy({"a": 0}, inst)
        assert report.total_joules == pytest.approx(73.0 * 3600, rel=1e-12)
        assert report.total_kwh == pytest.approx(73.0 * 3600 * KWH_PER_JOULE, rel=1e-12)
        assert report.per_host == {0: pytest.approx(73.0 * 3600, rel=1e-12)}

    def test_empty_host_contributes_zero_by_default(self):
        inst = ProblemInstance(
            (VmRequest("a", 2, 2933.0, 0, 3600),), (ibm_host(0), ibm_host(1))
        )
        report = integrate_energy({"a": 0}, inst)
        assert report.per_host[1] == 0.0

    def test_idle_hosts_powered_adds_idle_draw(self):
        inst = ProblemInstance(
            (VmRequest("a", 2, 2933.0, 0, 3600),), (ibm_host(0), dell_host(1))
        )
        off = integrate_energy({"a": 0}, inst)
        on = integrate_energy({"a": 0}, inst, idle_hosts_powered=True)
        assert on.total_joules - off.total_joules == pytest.approx(
            56.1 * 3600, rel=1e-12
        )

    def test_piecewise_segments(self):
        # Host load steps 0.25 -> 0.5 -> 0.25 over three 100 s windows.
        vms = (
            VmRequest("a", 1, 2933.0, 0, 300),
            VmRequest("b", 1, 2933.0, 100, 100),
        )
        inst = ProblemInstance(vms, (ibm_host(0),))
        report = integrate_energy({"a": 0, "b": 0}, inst)
        expected = 55.1 * 100 + 73.0 * 100 + 55.1 * 100
        assert report.total_joules == pytest.approx(expected, rel=1e-12)

    def test_segments_partition_horizon_per_host(self):
        inst = random_small_instance(3)
        placement = {v.id: inst.hosts[0].id for v in inst.vms}
        report = integrate_energy(placement, inst)
        for host in inst.hosts:
            spans = sorted(
                (t0, t1) for t0, t1, hid, _u, _w in report.segments if hid == host.id
            )
            assert spans[0][0] == 0
            assert spans[-1][1] == inst.horizon
            for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
                assert a1 == b0

    def test_energy_additivity_across_hosts(self):
        vms = (
            VmRequest("a", 1, 2933.0, 0, 200),
            VmRequest("b", 1, 2933.0, 0, 200),
        )
        together = ProblemInstance(vms, (ibm_host(0), ibm_host(1)))
        split = integrate_energy({"a": 0, "b": 1}, together)
        # Each host runs one VM at u=0.25; totals are the sum of the per-host energies.
        assert split.total_joules == pytest.approx(sum(split.per_host.values()), rel=1e-12)
        assert split.total_joules == pytest.approx(2 * 55.1 * 200, rel=1e-12)

    def test_infeasible_placement_raises_with_violations(self):
        vms = tuple(VmRequest(f"v{i}", 1, 100.0, 0, 10) for i in range(5))
        inst = ProblemInstance(vms, (ibm_host(0), ibm_host(1)))
        with pytest.raises(InfeasiblePlacementError) as exc:
            integrate_energy({v.id: 0 for v in vms}, inst)
        assert exc.value.violations

    def test_riemann_sum_agreement(self):
        # Independent 1-second Riemann sum over the horizon must agree with the
        # event-driven integral (power is piecewise constant at 1 s resolution
        # because all times are integers), with idle hosts off and on.
        from vmplace import check_feasibility

        for seed, idle in itertools.product((0, 6, 11, 16, 24), (False, True)):
            inst = random_small_instance(seed)
            placement = {v.id: inst.hosts[i % len(inst.hosts)].id for i, v in enumerate(inst.vms)}
            if check_feasibility(placement, inst):
                placement = {v.id: inst.hosts[0].id for v in inst.vms}
            report = integrate_energy(placement, inst, idle_hosts_powered=idle)
            brute = 0.0
            for t in range(inst.horizon):
                for host in inst.hosts:
                    act = [v for v in inst.vms if v.active_at(t) and placement[v.id] == host.id]
                    if act:
                        u = utilization(host, act, inst.cap_demand_to_core)
                        brute += interpolate_power(host.power_model, u)
                    elif idle:
                        brute += host.power_model.idle_watts
            assert report.total_joules == pytest.approx(brute, rel=1e-9)

    def test_sixteen_vms_fill_a_dell_exactly(self):
        vms = tuple(VmRequest(f"v{i}", 1, 2200.0, 0, 3600) for i in range(16))
        inst = ProblemInstance(vms, (dell_host(0),))
        report = integrate_energy({v.id: 0 for v in vms}, inst)
        assert report.segments == ((0, 3600, 0, 1.0, 263.0),)
        assert report.total_joules == 263.0 * 3600

    def test_zero_watt_idle_curve_with_idle_hosts_powered(self):
        zero_idle = PowerModel("zero_idle", (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0))
        hosts = (HostSpec(5, 4, 1000.0, zero_idle), ibm_host(2))
        vms = (VmRequest("a", 2, 1000.0, 0, 100), VmRequest("b", 2, 2933.0, 100, 50))
        report = integrate_energy({"a": 5, "b": 2}, ProblemInstance(vms, hosts), idle_hosts_powered=True)
        assert report.segments == (
            (0, 100, 5, 0.5, 50.0),
            (0, 100, 2, 0.0, 41.6),
            (100, 150, 5, 0.0, 0.0),
            (100, 150, 2, 0.5, 73.0),
        )
        assert report.per_host == {5: 50.0 * 100, 2: 41.6 * 100 + 73.0 * 50}

    @pytest.mark.parametrize("idle", [False, True])
    def test_busy_host_whose_load_divides_to_zero_is_refused(self, idle):
        # A busy host must draw power; a demand that underflows to
        # utilization 0.0 would read the 0 W idle sample instead.
        zero_idle = PowerModel("zero_idle", tuple(float(k) for k in range(11)))
        hosts = (HostSpec(5, 4, 2933.0, zero_idle), HostSpec(6, 4, 2933.0, zero_idle))
        vms = (VmRequest("a", 1, 2933.0, 0, 100), VmRequest("b", 1, 1e-320, 50, 50))
        with pytest.raises(ValueError, match="host 6"):
            integrate_energy({"a": 5, "b": 6}, ProblemInstance(vms, hosts), idle)
        # Next to a VM that registers, the same tiny one is counted.
        report = integrate_energy({"a": 5, "b": 5}, ProblemInstance(vms, hosts), idle)
        assert report.total_joules > 0.0

    def test_segments_partition_horizon_across_a_multi_day_gap(self):
        day = 86_400
        vms = (VmRequest("a", 2, 2933.0, 0, 900), VmRequest("b", 2, 2933.0, 3 * day, 900))
        inst = ProblemInstance(vms, (ibm_host(4), ibm_host(1)))
        report = integrate_energy({"a": 4, "b": 1}, inst)
        for host in inst.hosts:
            spans = [(t0, t1) for t0, t1, hid, _u, _w in report.segments if hid == host.id]
            assert spans == [(0, 900), (900, 3 * day), (3 * day, 3 * day + 900)]
        assert [w for *_, hid, _u, w in report.segments if hid == 4] == [73.0, 0.0, 0.0]
        assert [w for *_, hid, _u, w in report.segments if hid == 1] == [0.0, 0.0, 73.0]


class TestEnergyEvaluator:
    def _genes(self, inst, rng):
        return tuple(rng.randrange(len(inst.hosts)) for _ in inst.vms)

    def test_matches_integrate_energy_on_random_placements(self):
        rng = random.Random(7)
        checked = 0
        for seed in range(40):
            inst = random_small_instance(seed)
            ev = EnergyEvaluator(inst)
            for _ in range(5):
                genes = self._genes(inst, rng)
                placement = {
                    v.id: inst.hosts[h].id for v, h in zip(inst.vms, genes)
                }
                energy = ev.try_energy(genes)
                from vmplace import check_feasibility

                viols = check_feasibility(placement, inst)
                if viols:
                    assert energy is None
                else:
                    report = integrate_energy(placement, inst)
                    assert energy == pytest.approx(report.total_joules, rel=1e-12)
                    checked += 1
        assert checked > 20

    def test_idle_mode_matches_integrate_energy(self):
        inst = random_small_instance(5)
        ev = EnergyEvaluator(inst, idle_hosts_powered=True)
        genes = (0,) * len(inst.vms)
        placement = {v.id: inst.hosts[0].id for v in inst.vms}
        from vmplace import check_feasibility

        if not check_feasibility(placement, inst):
            report = integrate_energy(placement, inst, idle_hosts_powered=True)
            assert ev.try_energy(genes) == pytest.approx(report.total_joules, rel=1e-12)

    def test_memoization_counts_one_evaluation(self):
        inst = random_small_instance(1)
        ev = EnergyEvaluator(inst)
        genes = (0,) * len(inst.vms)
        first = ev.try_energy(genes)
        count = ev.evaluations
        second = ev.try_energy(genes)
        assert first == second
        assert ev.evaluations == count

    def test_fits_agrees_with_feasibility(self):
        inst = random_small_instance(9)
        ev = EnergyEvaluator(inst)
        genes = [0] * len(inst.vms)
        for i in range(len(inst.vms)):
            for h in range(len(inst.hosts)):
                trial = list(genes)
                trial[i] = h
                others_ok = ev.try_energy(tuple(g if j != i else h for j, g in enumerate(genes)))
                # fits() only checks the target host; verify one direction:
                # if the whole assignment is feasible, fits must agree.
                if others_ok is not None:
                    assert ev.fits((i,), h, genes)

    def test_first_violation_none_when_feasible(self):
        inst = ProblemInstance(
            (VmRequest("a", 1, 2200.0, 0, 10),), (dell_host(0),)
        )
        ev = EnergyEvaluator(inst)
        assert ev.first_violation((0,)) is None

    def test_first_violation_earliest_segment(self):
        vms = (
            VmRequest("a", 1, 100.0, 0, 30),
            VmRequest("b", 1, 100.0, 10, 20),  # overlaps a from t=10
        )
        inst = ProblemInstance(vms, (HostSpec(0, 1, 100.0, IBM_X3250), ibm_host(1)))
        ev = EnergyEvaluator(inst)
        seg, host = ev.first_violation((0, 0))
        assert host == 0
        # Violation starts in the second segment [10, 30).
        assert inst.segments[seg] == (10, 30)

    def test_snapshot_power_at_peak_demand(self):
        # Peak total demand is in the overlap window; both hosts busy there.
        vms = (
            VmRequest("a", 2, 2933.0, 0, 30),
            VmRequest("b", 2, 2933.0, 10, 10),
        )
        inst = ProblemInstance(vms, (ibm_host(0), ibm_host(1)))
        ev = EnergyEvaluator(inst)
        # Both on host 0 during overlap: u=1.0 -> 113 W, host 1 off -> 0 W.
        assert ev.snapshot_power((0, 0)) == pytest.approx(113.0)
        # Split: each at u=0.5 -> 73 W apiece.
        assert ev.snapshot_power((0, 1)) == pytest.approx(146.0)
