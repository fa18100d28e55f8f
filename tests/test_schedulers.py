"""Solver behavior: greedy baseline, genetic search, exhaustive oracle."""

import itertools

import pytest

from vmplace import (
    BudgetExceededError,
    EnergyEvaluator,
    GaConfig,
    HostSpec,
    NoFeasibleHostError,
    PowerModel,
    ProblemInstance,
    VmRequest,
    bfd_schedule,
    check_feasibility,
    exact_schedule,
    gapa_schedule,
    interpolate_power,
    placement_from_genes,
)
from vmplace.model import MIPS_EPS

from conftest import (
    dell_host,
    ibm_host,
    mixed_class_instance,
    random_small_instance,
    worked_example_instance,
)


def _plain_bfd(instance, idle):
    """BFD as specified, scoring every host for every VM: the reference that
    :func:`bfd_schedule` must match placement for placement."""
    segs = instance.segments
    hosts = instance.hosts
    cap = instance.cap_demand_to_core
    pe_load = [[0] * len(segs) for _ in hosts]
    mips_load = [[0.0] * len(segs) for _ in hosts]

    def watts(host, pe_d, mips_d):
        if pe_d == 0 and not idle:
            return 0.0
        return interpolate_power(host.power_model, min(mips_d / host.total_mips, 1.0))

    placement = {}
    for v in sorted(instance.vms, key=lambda v: (v.start_time, -v.total_mips, v.id)):
        span = [s for s, (t0, _t1) in enumerate(segs) if v.active_at(t0)]
        best = None
        for h, host in enumerate(hosts):
            e = v.demand_mips_on(host, cap)
            if any(
                pe_load[h][s] + v.pe_count > host.pe_count
                or mips_load[h][s] + e > host.total_mips + MIPS_EPS
                for s in span
            ):
                continue
            delta = 0.0
            for s in span:
                before = watts(host, pe_load[h][s], mips_load[h][s])
                after = watts(host, pe_load[h][s] + v.pe_count, mips_load[h][s] + e)
                delta += (after - before) * (segs[s][1] - segs[s][0])
            if best is None or delta < best[0]:
                best = (delta, h)
        if best is None:
            raise NoFeasibleHostError(v.id)
        h = best[1]
        for s in span:
            pe_load[h][s] += v.pe_count
            mips_load[h][s] += v.demand_mips_on(hosts[h], cap)
        placement[v.id] = hosts[h].id
    return placement


class TestBfd:
    def test_deterministic(self):
        inst = random_small_instance(6)
        r1 = bfd_schedule(inst)
        r2 = bfd_schedule(inst)
        assert r1.placement == r2.placement
        assert r1.energy.total_joules == r2.energy.total_joules

    def test_result_feasible(self):
        for seed in range(10):
            inst = random_small_instance(seed)
            try:
                result = bfd_schedule(inst)
            except NoFeasibleHostError:
                continue
            assert not check_feasibility(result.placement, inst)

    def test_single_vm_picks_cheapest_host(self):
        # One small VM: switching on the IBM box costs fewer joules than the Dell.
        inst = ProblemInstance(
            (VmRequest("a", 1, 2200.0, 0, 100),), (dell_host(0), ibm_host(1))
        )
        result = bfd_schedule(inst)
        assert result.placement == {"a": 1}

    def test_tie_breaks_to_lowest_host_index(self):
        inst = ProblemInstance(
            (VmRequest("a", 1, 2200.0, 0, 100),), (ibm_host(0), ibm_host(1))
        )
        assert bfd_schedule(inst).placement == {"a": 0}

    def test_fills_identical_hosts_in_order(self):
        # Sixteen full-core VMs on 4 IBM + 1 Dell with per-core capping: the
        # greedy baseline consolidates pairwise onto the IBM boxes and never
        # opens the Dell box (its switch-on increment is always larger).
        hosts = tuple(ibm_host(i) for i in range(4)) + (dell_host(4),)
        vms = tuple(VmRequest(f"vm{i:02d}", 1, 2933.0, 0, 8100) for i in range(16))
        inst = ProblemInstance(vms, hosts, cap_demand_to_core=True)
        result = bfd_schedule(inst)
        used = sorted({h for h in result.placement.values()})
        assert used == [0, 1, 2, 3]
        # All four IBM boxes end fully loaded: 4 x 113 W for 8100 s.
        assert result.energy.total_joules == pytest.approx(4 * 113.0 * 8100, rel=1e-12)

    def test_raises_when_no_host_fits(self):
        inst = ProblemInstance(
            (VmRequest("a", 8, 100.0, 0, 10),), (ibm_host(0),)
        )
        with pytest.raises(NoFeasibleHostError):
            bfd_schedule(inst)

    def test_empty_instance_rejected(self):
        inst = ProblemInstance((), (ibm_host(0),))
        with pytest.raises(ValueError):
            bfd_schedule(inst)

    def test_orders_by_start_time_then_size(self):
        # The later-but-bigger VM must not displace the earlier one.
        vms = (
            VmRequest("late-big", 4, 2933.0, 100, 100),
            VmRequest("early-small", 1, 2933.0, 0, 300),
        )
        inst = ProblemInstance(vms, (ibm_host(0), ibm_host(1)))
        result = bfd_schedule(inst)
        assert not check_feasibility(result.placement, inst)
        # early-small went first and claimed host 0; late-big no longer fits
        # beside it (4 + 1 PEs) and lands on host 1.
        assert result.placement == {"early-small": 0, "late-big": 1}

    @pytest.mark.parametrize("idle", [False, True])
    @pytest.mark.parametrize("cap", [False, True])
    def test_matches_score_every_host_reference(self, idle, cap):
        # Mixed classes, including two with the same cores and MIPS but
        # different curves; with few hosts some draws run out of room.
        checked = 0
        for seed in range(25):
            inst = mixed_class_instance(seed, 60, 12, 12, cap_demand_to_core=cap)
            try:
                expected = _plain_bfd(inst, idle)
            except NoFeasibleHostError:
                with pytest.raises(NoFeasibleHostError):
                    bfd_schedule(inst, idle)
                continue
            assert bfd_schedule(inst, idle).placement == expected, seed
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("idle", [False, True])
    def test_builds_no_evaluator(self, idle, monkeypatch):
        # BFD reads the instance tables alone: no memo, no load records.
        def refuse(ev, *args, **kwargs):
            raise AssertionError("bfd_schedule built an EnergyEvaluator")

        monkeypatch.setattr(EnergyEvaluator, "__init__", refuse)
        for seed in range(3):
            inst = mixed_class_instance(seed, 40, 10, 8)
            assert bfd_schedule(inst, idle).placement == _plain_bfd(inst, idle), seed


class TestGapa:
    def test_deterministic_per_seed(self):
        inst = random_small_instance(8)
        cfg = GaConfig(generations=30, seed=7)
        r1 = gapa_schedule(inst, cfg)
        r2 = gapa_schedule(inst, cfg)
        assert r1.placement == r2.placement
        assert r1.stats["trajectory"] == r2.stats["trajectory"]

    def test_result_feasible(self):
        inst = random_small_instance(14)
        result = gapa_schedule(inst, GaConfig(generations=20, seed=3))
        assert not check_feasibility(result.placement, inst)

    def test_trajectory_monotone_with_elitism(self):
        inst = random_small_instance(10)
        result = gapa_schedule(inst, GaConfig(generations=50, seed=1))
        traj = result.stats["trajectory"]
        assert len(traj) == 51  # initial population plus one entry per generation
        assert all(b >= a for a, b in zip(traj, traj[1:]))

    def test_best_ever_not_worse_than_trajectory_peak(self):
        inst = random_small_instance(10)
        result = gapa_schedule(inst, GaConfig(generations=40, seed=2))
        assert result.stats["best_fitness"] == pytest.approx(
            max(result.stats["trajectory"]), rel=1e-12
        )
        assert result.stats["best_fitness"] == pytest.approx(
            1.0 / result.energy.total_joules, rel=1e-12
        )

    def test_frozen_operators_return_initial_best(self):
        # With crossover and mutation off, evolution cannot invent anything:
        # the answer is the best individual of the (repaired) seed population.
        inst = random_small_instance(8)
        cfg = GaConfig(generations=10, crossover_prob=0.0, mutation_prob=0.0, seed=5)
        result = gapa_schedule(inst, cfg)
        traj = result.stats["trajectory"]
        assert all(f == pytest.approx(traj[0], rel=1e-12) for f in traj)

    def test_matches_oracle_on_small_instances(self):
        matched = 0
        total = 0
        for seed in range(8):
            inst = random_small_instance(seed, max_vms=4, max_hosts=3)
            try:
                oracle = exact_schedule(inst)
            except Exception:
                continue
            ga = gapa_schedule(inst, GaConfig(generations=60, seed=1))
            total += 1
            assert ga.energy.total_joules >= oracle.energy.total_joules - 1e-6
            if ga.energy.total_joules == pytest.approx(
                oracle.energy.total_joules, rel=1e-9
            ):
                matched += 1
        assert total >= 4
        assert matched >= total - 1  # tiny search spaces: GA should almost always hit the optimum

    def test_snapshot_fitness_mode_runs(self):
        inst = random_small_instance(4)
        cfg = GaConfig(generations=15, seed=1, fitness_mode="snapshot_power")
        r1 = gapa_schedule(inst, cfg)
        r2 = gapa_schedule(inst, cfg)
        assert r1.placement == r2.placement
        assert not check_feasibility(r1.placement, inst)

    @pytest.mark.parametrize("mode", ["energy", "snapshot_power"])
    def test_joule_sums_only_in_energy_mode(self, mode, monkeypatch):
        # Each new vector counts as one evaluation and sums its joules once
        # in both modes: snapshot fitness learns feasibility from try_energy.
        sums = []
        energy = EnergyEvaluator._energy

        def counted(ev):
            sums.append(1)
            return energy(ev)

        monkeypatch.setattr(EnergyEvaluator, "_energy", counted)
        inst = mixed_class_instance(3, 40, 10, 8)
        result = gapa_schedule(inst, GaConfig(generations=30, seed=1, fitness_mode=mode))
        assert result.stats["evaluations"] > 0
        assert len(sums) == result.stats["evaluations"]

    def test_kept_records_stay_within_two_populations(self, monkeypatch):
        alive = []
        remember = EnergyEvaluator._remember

        def counted(ev, *args):
            remember(ev, *args)
            alive.append(len(ev._records))

        monkeypatch.setattr(EnergyEvaluator, "_remember", counted)
        inst = mixed_class_instance(7, 40, 10, 8)
        config = GaConfig(population_size=6, generations=60, seed=3)
        gapa_schedule(inst, config)
        assert config.population_size < max(alive) <= 2 * config.population_size + 1

    def test_each_child_names_both_parents(self, monkeypatch):
        # The first pass of every child may start from either parent's record.
        hints = []
        nearer = EnergyEvaluator._nearer_parent

        def spied(ev, key):
            hints.append((ev.parent, ev.other_parent))
            return nearer(ev, key)

        monkeypatch.setattr(EnergyEvaluator, "_nearer_parent", spied)
        inst = mixed_class_instance(7, 40, 10, 8)
        config = GaConfig(population_size=6, generations=30, seed=3)
        gapa_schedule(inst, config)
        assert len(hints) >= config.generations
        assert all(p is not None and q is not None for p, q in hints)
        assert sum(p != q for p, q in hints) > len(hints) // 2

    @pytest.mark.parametrize("mode, passes", [("energy", 335), ("snapshot_power", 837)])
    def test_load_passes_on_the_worked_example(self, mode, passes, monkeypatch):
        # Recorded before repair and move_host built their edited vectors
        # without telling the evaluator: building a vector adds no pass.
        # Every pass is of the vector the evaluator packed last.
        counted = []
        kernel = EnergyEvaluator._compute
        monkeypatch.setattr(
            EnergyEvaluator, "_compute", lambda ev, genes: counted.append(genes is ev._packed) or kernel(ev, genes)
        )
        config = GaConfig(generations=100, seed=3, fitness_mode=mode)
        gapa_schedule(worked_example_instance(), config)
        assert len(counted) == passes and all(counted)

    def test_stats_record_run_parameters(self):
        inst = random_small_instance(4)
        result = gapa_schedule(inst, GaConfig(generations=5, seed=42))
        stats = result.stats
        assert stats["solver"] == "gapa"
        assert stats["generations_run"] == 5
        assert stats["seed"] == 42
        assert stats["rng"] == "python-random-mt19937"
        assert stats["evaluations"] > 0


class TestGaConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(population_size=0),
            dict(generations=0),
            dict(crossover_prob=1.5),
            dict(mutation_prob=-0.1),
            dict(population_size=1),  # no room for a child next to the elite
            dict(fitness_mode="nope"),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GaConfig(**kwargs)


def _corpus_style_instance() -> ProblemInstance:
    """Like the acceptance oracle corpus: three 16-core hosts on scaled affine
    curves, and six staggered VMs that do not all fit on one host."""
    hosts = tuple(
        HostSpec(h, 16, 2200.0, PowerModel(f"scaled-{h}", tuple(round(c * (40.0 + 8.0 * i), 1) for i in range(11))))
        for h, c in enumerate((1.0, 2.2, 1.3))
    )
    vms = (
        VmRequest("v0", 4, 2000.0, 0, 3600),
        VmRequest("v1", 3, 1500.0, 0, 5400),
        VmRequest("v2", 4, 2200.0, 1800, 3600),
        VmRequest("v3", 2, 900.0, 1800, 1800),
        VmRequest("v4", 4, 1800.0, 0, 5400),
        VmRequest("v5", 1, 400.0, 3600, 1800),
    )
    return ProblemInstance(vms, hosts)


class TestExact:
    def test_enumeration_leaves_the_records_a_fresh_evaluator_makes(self, monkeypatch):
        # Every vector of the enumeration is scored by a checked pass, so each
        # record it makes equals a fresh evaluator's, key included, and it
        # finds the first optimum that the public path finds.
        inst = _corpus_style_instance()
        vectors = list(itertools.product(range(3), repeat=6))
        ev = EnergyEvaluator(inst)
        scored = [(ev.try_energy(g), g) for g in vectors]
        feasible = [(e, g) for e, g in scored if e is not None]
        assert 0 < len(feasible) < len(scored)
        joules, genes = min(feasible)
        made = []
        kernel = EnergyEvaluator._compute

        def spied(ev, genes):
            kernel(ev, genes)
            made.append((genes, ev._rec.copy()))

        monkeypatch.setattr(EnergyEvaluator, "_compute", spied)
        result = exact_schedule(inst)
        monkeypatch.undo()
        assert [g for g, _ in made] == vectors
        for g, rec in made:
            fresh = EnergyEvaluator(inst)
            fresh.try_energy(g)
            assert rec == fresh._records[g]
        assert result.placement == placement_from_genes(genes, inst)
        assert result.energy.total_joules == pytest.approx(joules, rel=1e-12)

    def test_finds_optimum(self):
        # Two medium VMs. Both on the Dell box sit at u = 11732/35200, about
        # 108.3 W -- cheaper than the saturated IBM box (113 W) or any split.
        vms = (
            VmRequest("a", 2, 2933.0, 0, 100),
            VmRequest("b", 2, 2933.0, 0, 100),
        )
        inst = ProblemInstance(vms, (ibm_host(0), dell_host(1)))
        result = exact_schedule(inst)
        assert result.placement == {"a": 1, "b": 1}
        u = 11732.0 / 35200.0
        watts = 102.0 + (u * 10.0 - 3.0) * (121.0 - 102.0)
        assert result.energy.total_joules == pytest.approx(watts * 100, rel=1e-12)

    def test_not_beaten_by_heuristics(self):
        for seed in (1, 3, 5, 7):
            inst = random_small_instance(seed, max_vms=4, max_hosts=3)
            try:
                oracle = exact_schedule(inst)
            except Exception:
                continue
            bfd = bfd_schedule(inst)
            assert bfd.energy.total_joules >= oracle.energy.total_joules - 1e-6

    def test_lexicographic_tie_break(self):
        # Two identical hosts, one VM: both assignments cost the same; the
        # smallest gene vector (host 0) must win.
        inst = ProblemInstance(
            (VmRequest("a", 1, 2200.0, 0, 100),), (ibm_host(0), ibm_host(1))
        )
        assert exact_schedule(inst).placement == {"a": 0}

    def test_budget_guard(self):
        vms = tuple(VmRequest(f"v{i}", 1, 100.0, 0, 10) for i in range(10))
        inst = ProblemInstance(vms, tuple(dell_host(i) for i in range(4)))
        with pytest.raises(BudgetExceededError):
            exact_schedule(inst, budget=1000)

    def test_counts_evaluations(self):
        inst = ProblemInstance(
            (VmRequest("a", 1, 100.0, 0, 10), VmRequest("b", 1, 100.0, 0, 10)),
            (ibm_host(0), ibm_host(1)),
        )
        result = exact_schedule(inst)
        assert result.stats["evaluations"] == 4
