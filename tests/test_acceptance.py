"""Release gate: six end-to-end criteria, one pass/fail line each.

Each test prints ``ACCEPTANCE <n>: PASS`` or ``... FAIL`` (run pytest with
``-s`` or read captured output) and then asserts the criterion, so the gate is
visible both in the printed summary and in the pytest exit status.
"""

import io
import random
import time

import pytest

from vmplace import (
    DEFAULT_FLEET,
    DELL_R620,
    IBM_X3250,
    SAMPLE_TIMETABLE,
    EnergyEvaluator,
    GaConfig,
    HostSpec,
    PowerModel,
    ProblemInstance,
    SlotConfig,
    VmRequest,
    bfd_schedule,
    build_fleet,
    check_feasibility,
    crossover,
    exact_schedule,
    expand,
    gapa_schedule,
    integrate_energy,
    interpolate_power,
    mutate,
    parse_timetable,
    placement_from_genes,
    repair,
    to_allocation_tree,
    from_allocation_tree,
    utilization,
)
from vmplace.cli import emit_report, run_experiment, ExperimentConfig

IBM_SAMPLES = (41.6, 46.7, 52.3, 57.9, 65.4, 73.0, 80.7, 89.5, 99.6, 105.0, 113.0)
DELL_SAMPLES = (56.1, 79.3, 89.6, 102.0, 121.0, 132.0, 149.0, 171.0, 195.0, 225.0, 263.0)


def _verdict(n: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {n}: {status}{suffix}")


def test_acceptance_1_power_curve_fidelity():
    """All 22 published watt samples exact; linear midpoints to 1e-12 relative."""
    ok = True
    for model, samples in ((IBM_X3250, IBM_SAMPLES), (DELL_R620, DELL_SAMPLES)):
        for k in range(11):
            ok = ok and interpolate_power(model, k / 10.0) == samples[k]
        for k in range(10):
            expected = (samples[k] + samples[k + 1]) / 2.0
            got = interpolate_power(model, (k + 0.5) / 10.0)
            ok = ok and got == pytest.approx(expected, rel=1e-12)
    hand = interpolate_power(IBM_X3250, 0.25)
    ok = ok and hand == pytest.approx(55.1, rel=1e-12)
    _verdict(1, ok)
    assert ok


def _worked_example():
    hosts = tuple(HostSpec(i, 4, 2933.0, IBM_X3250) for i in range(4)) + (
        HostSpec(4, 16, 2200.0, DELL_R620),
    )
    vms = tuple(VmRequest(f"vm{i:02d}", 1, 2933.0, 0, 8100) for i in range(16))
    return ProblemInstance(vms, hosts, cap_demand_to_core=True)


def test_acceptance_2_sixteen_vm_worked_example():
    """Greedy fills the 4 small hosts; the GA should find the single big host.

    Clauses: (a) BFD occupies exactly the four 4-core hosts; (b) GA (pop 10,
    crossover 0.5, mutation 0.01, 500 generations) puts all 16 VMs on the
    16-core host in >= 18 of 20 seeded runs; (c) GA energy < BFD energy in all
    runs; (d) both closed-form energies match to 1e-6 relative.

    Single-VM moves cannot reach the optimum from two traps: the 14-on-big
    arrangement (every one-VM step crosses a +3.85 W barrier) and BFD's four
    full small hosts (every one-VM move out of them costs energy). The GA
    crosses both with ``move_host``, the host-level mutation that moves a
    whole host's VMs onto one other host in one step.
    """
    t0 = time.time()
    inst = _worked_example()

    bfd = bfd_schedule(inst)
    bfd_ok = sorted(set(bfd.placement.values())) == [0, 1, 2, 3]
    # Four saturated 4-core hosts at 113 W for 8100 s.
    bfd_energy_ok = bfd.energy.total_kwh == pytest.approx(
        4 * 113.0 * 8100 / 3.6e6, rel=1e-6
    )

    all_big = integrate_energy({v.id: 4 for v in inst.vms}, inst)
    dell_energy_ok = all_big.total_kwh == pytest.approx(263.0 * 8100 / 3.6e6, rel=1e-6)
    dell_energy_ok = dell_energy_ok and all_big.total_kwh == pytest.approx(
        0.5918, abs=5e-5
    )

    wins = 0
    beats_bfd = 0
    for seed in range(1, 21):
        cfg = GaConfig(
            population_size=10,
            generations=500,
            crossover_prob=0.5,
            mutation_prob=0.01,
            seed=seed,
        )
        res = gapa_schedule(inst, cfg)
        if set(res.placement.values()) == {4}:
            wins += 1
        if res.energy.total_joules < bfd.energy.total_joules:
            beats_bfd += 1
    elapsed = time.time() - t0

    ok = (
        bfd_ok
        and bfd_energy_ok
        and dell_energy_ok
        and wins >= 18
        and beats_bfd == 20
        and elapsed < 30.0
    )
    _verdict(
        2,
        ok,
        f"bfd_hosts={'ok' if bfd_ok else 'bad'} all-big wins={wins}/20 "
        f"beats_bfd={beats_bfd}/20 {elapsed:.1f}s",
    )
    assert bfd_ok
    assert bfd_energy_ok
    assert dell_energy_ok
    assert elapsed < 30.0
    assert wins >= 18, f"GA found the all-on-one-host optimum in only {wins}/20 runs"
    assert beats_bfd == 20, f"GA beat the greedy baseline in only {beats_bfd}/20 runs"


def _lab_instance():
    rows = parse_timetable(SAMPLE_TIMETABLE)
    # Two-core VMs at the fast host class's core speed: half of a small host.
    vms = expand(rows, SlotConfig(), vm_template=(2, 2933.0))
    hosts = build_fleet(DEFAULT_FLEET)
    return ProblemInstance(tuple(vms), tuple(hosts), cap_demand_to_core=False)


def test_acceptance_3_full_workload_grid():
    """On the 211-VM lab workload, every GA grid point beats the greedy
    baseline, with a mean improvement ratio above 1.1; a reduced profile
    (100 generations) still wins in under a minute."""
    inst = _lab_instance()
    bfd = bfd_schedule(inst)
    seeds = (1, 2, 3)

    ok = True
    details = []
    for gens in (500, 1000):
        for cx in (0.25, 0.5, 0.75):
            kwhs = []
            for seed in seeds:
                cfg = GaConfig(
                    population_size=10,
                    generations=gens,
                    crossover_prob=cx,
                    mutation_prob=0.01,
                    seed=seed,
                )
                res = gapa_schedule(inst, cfg)
                kwhs.append(res.energy.total_kwh)
                ok = ok and res.energy.total_kwh < bfd.energy.total_kwh
            mean_ratio = bfd.energy.total_kwh / (sum(kwhs) / len(kwhs))
            details.append(f"g{gens}/c{cx}:{mean_ratio:.3f}")
            ok = ok and mean_ratio > 1.1

    t0 = time.time()
    reduced = gapa_schedule(
        inst,
        GaConfig(population_size=10, generations=100, crossover_prob=0.5, seed=1),
    )
    reduced_time = time.time() - t0
    reduced_ok = reduced.energy.total_kwh < bfd.energy.total_kwh and reduced_time < 60.0
    ok = ok and reduced_ok

    _verdict(3, ok, " ".join(details) + f" reduced={reduced_ok}")
    assert ok, f"grid ratios vs baseline: {details}"


ORACLE_SCALES = (1.0, 1.3, 1.7, 2.2, 2.8)


def _oracle_corpus_instance(seed: int) -> ProblemInstance:
    """Small instances with same-capacity hosts whose power curves are affine
    and proportionally scaled, so energy is separable per VM and the optimum
    is a pure gradient descent target -- a fair convergence benchmark."""
    rng = random.Random(seed)
    m = rng.randint(2, 3)
    scales = rng.sample(ORACLE_SCALES, m)
    hosts = tuple(
        HostSpec(
            h,
            16,
            2200.0,
            PowerModel(
                f"scaled-{h}",
                tuple(round(c * (40.0 + 8.0 * i), 1) for i in range(11)),
            ),
        )
        for h, c in enumerate(scales)
    )
    n = rng.randint(2, 6)
    vms = tuple(
        VmRequest(
            f"v{i}",
            rng.randint(1, 4),
            float(rng.randint(4, 22)) * 100.0,
            rng.randrange(0, 3) * 1800,
            rng.randrange(1, 4) * 1800,
        )
        for i in range(n)
    )
    return ProblemInstance(vms, hosts)


def test_acceptance_4_oracle_equivalence():
    """On 50 random small instances the brute-force optimum lower-bounds both
    heuristics, and the GA attains it in >= 90% of 20 seeded runs each."""
    t0 = time.time()
    dominated = True
    all_converged = True
    worst = 20
    for k in range(50):
        inst = _oracle_corpus_instance(100 + k)
        oracle = exact_schedule(inst, idle_hosts_powered=True)
        opt = oracle.energy.total_joules
        bfd = bfd_schedule(inst, idle_hosts_powered=True)
        dominated = dominated and bfd.energy.total_joules >= opt - 1e-6
        hits = 0
        for seed in range(1, 21):
            res = gapa_schedule(
                inst, GaConfig(generations=500, seed=seed), idle_hosts_powered=True
            )
            dominated = dominated and res.energy.total_joules >= opt - 1e-6
            if res.energy.total_joules <= opt * (1 + 1e-9):
                hits += 1
        worst = min(worst, hits)
        all_converged = all_converged and hits >= 18
    elapsed = time.time() - t0
    ok = dominated and all_converged and elapsed < 120.0
    _verdict(4, ok, f"worst_instance_hits={worst}/20 {elapsed:.1f}s")
    assert dominated
    assert all_converged, f"worst instance converged in only {worst}/20 runs"
    assert elapsed < 120.0


def _random_feasible_case(seed: int):
    rng = random.Random(seed)
    m = rng.randint(2, 4)
    hosts = tuple(
        HostSpec(h, 4, 2933.0, IBM_X3250)
        if rng.random() < 0.5
        else HostSpec(h, 16, 2200.0, DELL_R620)
        for h in range(m)
    )
    n = rng.randint(2, 8)
    vms = tuple(
        VmRequest(
            f"v{i}",
            rng.randint(1, 2),
            float(rng.randint(3, 20)) * 100.0,
            rng.randrange(0, 5) * 700,
            rng.randrange(1, 5) * 700,
        )
        for i in range(n)
    )
    inst = ProblemInstance(vms, hosts)
    # Round-robin, then repair to guarantee feasibility.
    genes = repair(
        tuple(i % m for i in range(n)), EnergyEvaluator(inst), random.Random(seed + 1)
    )
    return inst, placement_from_genes(genes, inst)


def test_acceptance_5_energy_integration_oracle():
    """Event-boundary integration equals an independent 1-second Riemann sum
    on 100 random feasible instances, to 1e-9 relative."""
    t0 = time.time()
    ok = True
    for seed in range(100):
        inst, placement = _random_feasible_case(seed)
        report = integrate_energy(placement, inst)
        brute = 0.0
        for t in range(inst.horizon):
            for host in inst.hosts:
                act = [
                    v
                    for v in inst.vms
                    if v.active_at(t) and placement[v.id] == host.id
                ]
                if act:
                    u = utilization(host, act, inst.cap_demand_to_core)
                    brute += interpolate_power(host.power_model, u)
        ok = ok and report.total_joules == pytest.approx(brute, rel=1e-9)
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    _verdict(5, ok, f"{elapsed:.1f}s")
    assert ok


def test_acceptance_6_property_suites():
    """Headless property checks: repair soundness, elitism monotonicity,
    operator closure, encoding round-trip, CSV determinism."""
    rng = random.Random(0)
    ok = True

    # Repair soundness on random junk chromosomes.
    for seed in range(20):
        inst = _oracle_corpus_instance(300 + seed)
        m = len(inst.hosts)
        genes = repair(
            tuple(rng.randrange(m) for _ in inst.vms), EnergyEvaluator(inst), random.Random(seed)
        )
        ok = ok and not check_feasibility(placement_from_genes(genes, inst), inst)

    # Elitism: best fitness per generation is non-decreasing.
    inst = _oracle_corpus_instance(42)
    res = gapa_schedule(inst, GaConfig(generations=40, seed=1))
    traj = res.stats["trajectory"]
    ok = ok and all(b >= a for a, b in zip(traj, traj[1:]))

    # Crossover/mutation closure: length preserved, genes stay in range.
    for _ in range(200):
        n = rng.randint(1, 12)
        m = rng.randint(1, 5)
        a = tuple(rng.randrange(m) for _ in range(n))
        b = tuple(rng.randrange(m) for _ in range(n))
        c1, c2 = crossover(a, b, 0.9, rng)
        c1 = mutate(c1, 0.2, m, rng)
        c2 = mutate(c2, 0.2, m, rng)
        for c in (c1, c2):
            ok = ok and len(c) == n and all(0 <= g < m for g in c)

    # Encoding round-trip identity.
    for _ in range(100):
        m = rng.randint(1, 5)
        genes = tuple(rng.randrange(m) for _ in range(rng.randint(0, 10)))
        ok = ok and from_allocation_tree(to_allocation_tree(genes, m)) == genes

    # End-to-end CSV determinism under fixed seeds.
    config = ExperimentConfig(
        workload_path=None,
        fleet_path=None,
        solvers=("bfd", "gapa"),
        ga_grid=(GaConfig(generations=5),),
        seeds=(1, 2),
    )
    out1, out2 = io.StringIO(), io.StringIO()
    emit_report(run_experiment(config), "csv", out1)
    emit_report(run_experiment(config), "csv", out2)
    ok = ok and out1.getvalue() == out2.getvalue()

    _verdict(6, ok)
    assert ok
