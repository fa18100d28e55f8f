"""Domain types: validation, timing semantics, feasibility checking."""

import pytest

from vmplace import (
    MIPS_OVERFLOW,
    PE_OVERFLOW,
    HostSpec,
    ProblemInstance,
    VmRequest,
    check_feasibility,
)

from conftest import dell_host, ibm_host


class TestVmRequest:
    def test_end_time_and_total_mips(self):
        v = VmRequest("v", 2, 2200.0, 100, 900)
        assert v.end_time == 1000
        assert v.total_mips == 4400.0

    def test_half_open_activity(self):
        v = VmRequest("v", 1, 100.0, 10, 5)
        assert not v.active_at(9)
        assert v.active_at(10)
        assert v.active_at(14)
        assert not v.active_at(15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(pe_count=0),
            dict(mips_per_pe=0.0),
            dict(mips_per_pe=-1.0),
            dict(start_time=-1),
            dict(duration=0),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        base = dict(id="v", pe_count=1, mips_per_pe=100.0, start_time=0, duration=1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            VmRequest(**base)

    def test_demand_capping(self):
        v = VmRequest("v", 2, 2933.0, 0, 100)
        dell = dell_host(0)
        assert v.demand_mips_on(dell) == 5866.0
        assert v.demand_mips_on(dell, cap_to_core=True) == 4400.0
        # Capping never raises demand on a faster core.
        ibm = ibm_host(1)
        assert v.demand_mips_on(ibm, cap_to_core=True) == 5866.0


class TestHostSpec:
    def test_total_mips(self):
        assert ibm_host(0).total_mips == 11732.0
        assert dell_host(0).total_mips == 35200.0

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            HostSpec(0, 0, 2200.0, None)
        with pytest.raises(ValueError):
            HostSpec(0, 4, 0.0, None)


class TestProblemInstance:
    def test_rejects_duplicates_and_empty_fleet(self):
        h = ibm_host(0)
        v = VmRequest("v", 1, 100.0, 0, 10)
        with pytest.raises(ValueError):
            ProblemInstance((v, v), (h,))
        with pytest.raises(ValueError):
            ProblemInstance((v,), (h, ibm_host(0)))
        with pytest.raises(ValueError):
            ProblemInstance((v,), ())

    def test_event_times_and_segments(self):
        vms = (
            VmRequest("a", 1, 100.0, 100, 200),
            VmRequest("b", 1, 100.0, 200, 200),
        )
        inst = ProblemInstance(vms, (ibm_host(0),))
        assert inst.event_times == (0, 100, 200, 300, 400)
        assert inst.segments == ((0, 100), (100, 200), (200, 300), (300, 400))
        assert inst.horizon == 400

    def test_segments_partition_horizon(self):
        vms = tuple(VmRequest(f"v{i}", 1, 100.0, i * 7, 5 + i) for i in range(6))
        inst = ProblemInstance(vms, (dell_host(0),))
        segs = inst.segments
        assert segs[0][0] == 0
        assert segs[-1][1] == inst.horizon
        for (a0, a1), (b0, b1) in zip(segs, segs[1:]):
            assert a1 == b0
            assert a0 < a1


class TestCheckFeasibility:
    def test_feasible_empty_violations(self):
        inst = ProblemInstance(
            (VmRequest("a", 2, 2000.0, 0, 10), VmRequest("b", 2, 2000.0, 0, 10)),
            (ibm_host(0),),
        )
        assert check_feasibility({"a": 0, "b": 0}, inst) == []

    def test_pe_overflow(self):
        vms = tuple(VmRequest(f"v{i}", 1, 100.0, 0, 10) for i in range(5))
        inst = ProblemInstance(vms, (ibm_host(0), ibm_host(1)))
        viols = check_feasibility({v.id: 0 for v in vms}, inst)
        assert len(viols) == 1
        v = viols[0]
        assert (v.host_id, v.time, v.kind) == (0, 0, PE_OVERFLOW)
        assert (v.demand, v.capacity) == (5.0, 4.0)

    def test_mips_overflow(self):
        vms = (VmRequest("a", 2, 2933.0, 0, 10), VmRequest("b", 2, 2933.0, 0, 10))
        inst = ProblemInstance(vms, (HostSpec(0, 4, 2200.0, None),))
        viols = check_feasibility({"a": 0, "b": 0}, inst)
        assert [v.kind for v in viols] == [MIPS_OVERFLOW]
        assert viols[0].demand == pytest.approx(4 * 2933.0)

    def test_pe_reported_before_mips_same_interval(self):
        vms = tuple(VmRequest(f"v{i}", 1, 2933.0, 0, 10) for i in range(5))
        inst = ProblemInstance(vms, (HostSpec(0, 4, 2200.0, None),))
        viols = check_feasibility({v.id: 0 for v in vms}, inst)
        assert [v.kind for v in viols] == [PE_OVERFLOW, MIPS_OVERFLOW]

    def test_exact_fill_is_feasible(self):
        # Sixteen 2200-MIPS VMs exactly fill the 35200-MIPS host.
        vms = tuple(VmRequest(f"v{i}", 1, 2200.0, 0, 10) for i in range(16))
        inst = ProblemInstance(vms, (dell_host(0),))
        assert check_feasibility({v.id: 0 for v in vms}, inst) == []

    def test_back_to_back_vms_do_not_overlap(self):
        # One ends at t=10, the next starts at t=10: no conflict on a 1-PE host.
        vms = (VmRequest("a", 1, 100.0, 0, 10), VmRequest("b", 1, 100.0, 10, 10))
        inst = ProblemInstance(vms, (HostSpec(0, 1, 100.0, None),))
        assert check_feasibility({"a": 0, "b": 0}, inst) == []

    def test_capped_demand_fits_slower_host(self):
        # A full-IBM-core request placed on a Dell core: capped it fits, raw it
        # still fits MIPS-wise only while total capacity allows.
        vms = tuple(VmRequest(f"v{i}", 1, 2933.0, 0, 10) for i in range(16))
        capped = ProblemInstance(vms, (dell_host(0),), cap_demand_to_core=True)
        assert check_feasibility({v.id: 0 for v in vms}, capped) == []
        raw = ProblemInstance(vms, (dell_host(0),), cap_demand_to_core=False)
        viols = check_feasibility({v.id: 0 for v in vms}, raw)
        assert [v.kind for v in viols] == [MIPS_OVERFLOW]

    def test_lasting_violation_reported_at_each_segment_start(self):
        # Host 0 is one PE over from 0 to 300; c on host 1 splits that into
        # three segments.
        vms = (
            VmRequest("long", 4, 100.0, 0, 300),
            VmRequest("x", 1, 100.0, 0, 300),
            VmRequest("c", 1, 100.0, 100, 100),
        )
        inst = ProblemInstance(vms, (ibm_host(0), ibm_host(1)))
        viols = check_feasibility({"long": 0, "x": 0, "c": 1}, inst)
        assert [(v.host_id, v.time, v.kind) for v in viols] == [
            (0, 0, PE_OVERFLOW),
            (0, 100, PE_OVERFLOW),
            (0, 200, PE_OVERFLOW),
        ]

    def test_violations_ordered_by_host_id_not_index(self):
        vms = tuple(VmRequest(f"v{i}", 1, 100.0, 0, 10) for i in range(10))
        inst = ProblemInstance(vms, (ibm_host(9), ibm_host(2)))
        placement = {v.id: (9, 2)[i % 2] for i, v in enumerate(vms)}
        assert [v.host_id for v in check_feasibility(placement, inst)] == [2, 9]

    def test_partial_placement_rejected(self):
        inst = ProblemInstance((VmRequest("a", 1, 100.0, 0, 10),), (ibm_host(0),))
        with pytest.raises(ValueError):
            check_feasibility({}, inst)
        with pytest.raises(ValueError):
            check_feasibility({"a": 0, "ghost": 0}, inst)
        with pytest.raises(ValueError):
            check_feasibility({"a": 99}, inst)
