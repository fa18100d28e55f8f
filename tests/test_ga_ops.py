"""Genetic operators: selection, crossover, mutation, host moves, repair, encodings."""

import collections
import math
import random
import types
from itertools import accumulate

import pytest

import vmplace.schedulers
from vmplace import (
    EnergyEvaluator,
    GaConfig,
    ProblemInstance,
    UnrepairableError,
    VmRequest,
    check_feasibility,
    crossover,
    fitness,
    from_allocation_tree,
    gapa_schedule,
    integrate_energy,
    move_host,
    mutate,
    placement_from_genes,
    repair,
    select_parents,
    to_allocation_tree,
)

from conftest import dell_host, ibm_host, random_small_instance


class TestEncodings:
    def test_tree_round_trip(self):
        genes = (0, 2, 1, 0, 2, 2)
        tree = to_allocation_tree(genes, 3)
        assert tree == ((0, 3), (2,), (1, 4, 5))
        assert from_allocation_tree(tree) == genes

    def test_tree_round_trip_random(self):
        rng = random.Random(4)
        for _ in range(50):
            m = rng.randint(1, 6)
            n = rng.randint(0, 12)
            genes = tuple(rng.randrange(m) for _ in range(n))
            assert from_allocation_tree(to_allocation_tree(genes, m)) == genes

    @pytest.mark.parametrize(
        "tree",
        [
            ((1,), (1,)),  # VM 1 twice, VM 0 on no host
            ((-1,), (0,)),
            ((0, 2), ()),
            ((0,), (0, 1)),
        ],
    )
    def test_tree_that_is_no_partition_is_refused(self, tree):
        with pytest.raises(ValueError):
            from_allocation_tree(tree)

    def test_placement_round_trip(self):
        inst = ProblemInstance(
            (VmRequest("a", 1, 100.0, 0, 10), VmRequest("b", 1, 100.0, 0, 10)),
            (ibm_host(5), dell_host(9)),
        )
        genes = (1, 0)
        placement = placement_from_genes(genes, inst)
        assert placement == {"a": 9, "b": 5}


class TestSelectParents:
    def test_roulette_is_fitness_proportional(self):
        rng = random.Random(1)
        population = [(0,), (1,)]
        wheel = list(accumulate([9.0, 1.0]))
        draws = 20000
        hits = sum(
            1
            for _ in range(draws)
            for p in select_parents(population, wheel, rng)
            if p == (0,)
        )
        assert hits / (2 * draws) == pytest.approx(0.9, abs=0.02)

    def test_uniform_when_fitness_equal(self):
        from scipy.stats import chisquare

        rng = random.Random(2)
        population = [(i,) for i in range(5)]
        wheel = list(accumulate([3.0] * 5))
        counts = [0] * 5
        for _ in range(10000):
            a, b = select_parents(population, wheel, rng)
            counts[a[0]] += 1
            counts[b[0]] += 1
        _stat, p_value = chisquare(counts)
        assert p_value > 0.001

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            select_parents([], [], random.Random(0))

    def test_can_return_same_individual_twice(self):
        rng = random.Random(3)
        population = [(0,), (1,)]
        seen_same = any(
            a == b
            for a, b in (select_parents(population, [1.0, 2.0], rng) for _ in range(50))
        )
        assert seen_same


class TestCrossover:
    def test_prob_zero_copies_parents(self):
        rng = random.Random(1)
        a, b = (0, 0, 0, 0), (1, 1, 1, 1)
        assert crossover(a, b, 0.0, rng) == (a, b)

    def test_single_point_exchange(self):
        a, b = (0, 0, 0, 0), (1, 1, 1, 1)
        rng = random.Random(0)
        for _ in range(50):
            c1, c2 = crossover(a, b, 1.0, rng)
            # Children complement each other gene-wise and each has one switch point.
            assert tuple(x + y for x, y in zip(c1, c2)) == (1, 1, 1, 1)
            flips = sum(1 for x, y in zip(c1, c1[1:]) if x != y)
            assert flips == 1

    def test_cut_interior_preserves_multiset(self):
        rng = random.Random(9)
        a = (0, 1, 2, 3, 4, 5)
        b = (5, 4, 3, 2, 1, 0)
        for _ in range(30):
            c1, c2 = crossover(a, b, 1.0, rng)
            assert sorted(c1 + c2) == sorted(a + b)
            assert len(c1) == len(a) and len(c2) == len(b)

    def test_length_one_never_cut(self):
        rng = random.Random(1)
        assert crossover((0,), (1,), 1.0, rng) == ((0,), (1,))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            crossover((0, 0), (1,), 0.5, random.Random(0))


class TestMutate:
    def test_prob_zero_is_identity(self):
        c = (0, 1, 2)
        assert mutate(c, 0.0, 3, random.Random(0)) is c

    def test_prob_one_single_host_forces_zero(self):
        c = (3, 1, 4, 1)
        assert mutate(c, 1.0, 1, random.Random(0)) == (0, 0, 0, 0)

    def test_per_gene_rate(self):
        rng = random.Random(5)
        n = 211
        prob = 0.01
        c = (0,) * n
        trials = 10000
        changed = 0
        for _ in range(trials):
            mutated = mutate(c, prob, 50, rng)
            changed += sum(1 for g in mutated if g != 0)
        # Each gene independently rerolls with prob 0.01 and lands on a
        # non-zero host 49/50 of the time: mean 211 * 0.01 * 0.98.
        expected = n * prob * (49 / 50)
        mean = changed / trials
        assert mean == pytest.approx(expected, rel=0.05)

    def test_bad_host_count_rejected(self):
        with pytest.raises(ValueError):
            mutate((0,), 0.5, 0, random.Random(0))


class _ScriptedRng:
    """Replays fixed ``random()`` and ``randrange()`` results, in call order."""

    def __init__(self, randoms, randranges=()):
        self._randoms = iter(randoms)
        self._randranges = iter(randranges)

    def random(self):
        return next(self._randoms)

    def randrange(self, stop):
        k = next(self._randranges)
        assert 0 <= k < stop
        return k


class TestMoveHost:
    def test_prob_zero_is_identity(self, worked_example):
        c = (0,) * 4 + (4,) * 12
        assert move_host(c, 0.0, EnergyEvaluator(worked_example), random.Random(0)) is c

    def test_moves_one_whole_host_and_nothing_else(self):
        vms = tuple(VmRequest(f"v{i}", 1, 1000.0, 0, 10) for i in range(6))
        inst = ProblemInstance(vms, tuple(dell_host(h) for h in range(4)))
        c = (0, 1, 1, 2, 1, 3)
        # Only host 1 fires; randrange(3) = 2 skips host 1 itself: target 3.
        rng = _ScriptedRng([0.5, 0.0, 0.5, 0.5], [2])
        assert move_host(c, 0.1, EnergyEvaluator(inst), rng) == (0, 3, 3, 2, 3, 3)

    def test_target_that_cannot_hold_all_takes_none(self):
        # Host 0 holds three 1-PE VMs, host 1 holds two: the first two would
        # fit on host 1, the third would not, so nothing may move.
        vms = tuple(VmRequest(f"v{i}", 1, 100.0, 0, 10) for i in range(5))
        inst = ProblemInstance(vms, (ibm_host(0), ibm_host(1)))
        c = (0, 0, 0, 1, 1)
        rng = _ScriptedRng([0.0, 0.5], [0])
        assert move_host(c, 0.1, EnergyEvaluator(inst), rng) == c

    def test_feasible_input_gives_feasible_output(self):
        rng = random.Random(3)
        moved = 0
        for seed in range(40):
            inst = random_small_instance(seed, max_vms=6, max_hosts=4)
            ev = EnergyEvaluator(inst)
            try:
                genes = repair(
                    tuple(rng.randrange(len(inst.hosts)) for _ in inst.vms), ev, rng
                )
            except UnrepairableError:
                continue
            for _ in range(10):
                out = move_host(genes, 0.5, ev, rng)
                assert not check_feasibility(placement_from_genes(out, inst), inst)
                moved += out != genes
        assert moved > 0

    def test_crosses_the_worked_example_barrier(self, worked_example):
        # 14 VMs on the big host and 2 on small host 0: any one-VM move costs
        # energy, but moving host 0's subtree lands all 16 on the big host.
        c = (0, 0) + (4,) * 14
        outcomes = set()
        for seed in range(20):
            out = move_host(c, 0.5, EnergyEvaluator(worked_example), random.Random(seed))
            tree = to_allocation_tree(out, 5)
            # The big host's 14 VMs cannot fit on a 4-core host.
            assert tree[4] == tuple(range(16)) or (
                tree[4] == tuple(range(2, 16))
                and sorted(len(t) for t in tree[:4]) == [0, 0, 0, 2]
            )
            outcomes.add(out)
        assert (4,) * 16 in outcomes


class TestRepair:
    def test_feasible_input_unchanged(self):
        inst = random_small_instance(2)
        ev = EnergyEvaluator(inst)
        genes = tuple(0 for _ in inst.vms)
        if ev.try_energy(genes) is not None:
            assert repair(genes, EnergyEvaluator(inst), random.Random(0)) == genes

    def test_single_eviction(self):
        # Five 1-PE VMs on one 4-PE host, an empty host next door: exactly one
        # VM must move, everything else stays.
        vms = tuple(VmRequest(f"v{i}", 1, 100.0, 0, 10) for i in range(5))
        inst = ProblemInstance(vms, (ibm_host(0), ibm_host(1)))
        genes = repair((0,) * 5, EnergyEvaluator(inst), random.Random(0))
        assert sorted(genes) == [0, 0, 0, 0, 1]
        assert not check_feasibility(placement_from_genes(genes, inst), inst)

    def test_result_always_feasible_from_random_junk(self):
        rng = random.Random(12)
        for seed in range(30):
            inst = random_small_instance(seed, max_vms=5, max_hosts=3)
            m = len(inst.hosts)
            # Skip draws whose total demand cannot fit the fleet at all.
            total_pe = sum(v.pe_count for v in inst.vms if v.active_at(v.start_time))
            try:
                genes = repair(
                    tuple(rng.randrange(m) for _ in inst.vms), EnergyEvaluator(inst), rng
                )
            except UnrepairableError:
                continue
            assert not check_feasibility(placement_from_genes(genes, inst), inst)

    def test_hard_instance_requires_moving_low_index_vms(self):
        # Two 4-PE hosts; PE sizes (2,1,2,1,2). Feasible splits need the two
        # 1-PE VMs together with one 2-PE VM. Greedy highest-index eviction
        # alone cannot always reach one; the randomized fallback must.
        vms = tuple(
            VmRequest(f"v{i}", p, 100.0, 0, 10)
            for i, p in enumerate((2, 1, 2, 1, 2))
        )
        inst = ProblemInstance(vms, (ibm_host(0), ibm_host(1)))
        for seed in range(20):
            genes = repair((0,) * 5, EnergyEvaluator(inst), random.Random(seed))
            assert not check_feasibility(placement_from_genes(genes, inst), inst)

    def test_unrepairable_when_demand_exceeds_fleet(self):
        vms = tuple(VmRequest(f"v{i}", 1, 100.0, 0, 10) for i in range(9))
        inst = ProblemInstance(vms, (ibm_host(0), ibm_host(1)))  # 8 PEs total
        with pytest.raises(UnrepairableError):
            repair((0,) * 9, EnergyEvaluator(inst), random.Random(0))


class TestFitness:
    def test_reciprocal_of_energy(self):
        inst = ProblemInstance(
            (VmRequest("a", 2, 2933.0, 0, 100),), (ibm_host(0),)
        )
        cfg = GaConfig()
        f = fitness((0,), EnergyEvaluator(inst), cfg)
        report = integrate_energy({"a": 0}, inst)
        assert f == pytest.approx(1.0 / report.total_joules, rel=1e-12)

    def test_lower_energy_means_higher_fitness(self):
        vms = (VmRequest("a", 1, 2200.0, 0, 100),)
        inst = ProblemInstance(vms, (ibm_host(0), dell_host(1)))
        cfg = GaConfig()
        # One small VM: the IBM box draws fewer watts than the Dell box.
        ev = EnergyEvaluator(inst)
        assert fitness((0,), ev, cfg) > fitness((1,), ev, cfg)

    def test_infeasible_chromosome_rejected(self):
        vms = tuple(VmRequest(f"v{i}", 1, 100.0, 0, 10) for i in range(5))
        inst = ProblemInstance(vms, (ibm_host(0), ibm_host(1)))
        with pytest.raises(ValueError):
            fitness((0,) * 5, EnergyEvaluator(inst), GaConfig())

    def test_snapshot_mode_uses_peak_watts(self):
        vms = (
            VmRequest("a", 2, 2933.0, 0, 30),
            VmRequest("b", 2, 2933.0, 10, 10),
        )
        inst = ProblemInstance(vms, (ibm_host(0), ibm_host(1)))
        cfg = GaConfig(fitness_mode="snapshot_power")
        ev = EnergyEvaluator(inst)
        assert fitness((0, 0), ev, cfg) == pytest.approx(1.0 / 113.0)
        assert fitness((0, 1), ev, cfg) == pytest.approx(1.0 / 146.0)


class _CountingRandom(random.Random):
    """A ``random.Random`` that counts its ``random()`` and ``randrange()``
    calls. Overriding ``getrandbits`` too keeps ``randrange`` drawing from it,
    as the plain generator does, so the stream is unchanged."""

    def __init__(self, seed):
        self.counts = collections.Counter()
        super().__init__(seed)

    def random(self):
        self.counts["random"] += 1
        return super().random()

    def getrandbits(self, k):
        return super().getrandbits(k)

    def randrange(self, *args):
        self.counts["randrange"] += 1
        return super().randrange(*args)


class TestRngDraws:
    def test_mutate_draws_one_random_per_gene_and_one_randrange_per_hit(self):
        c = tuple(i % 7 for i in range(40))
        for seed in range(20):
            rng = _CountingRandom(seed)
            out = mutate(c, 0.2, 7, rng)
            ref = random.Random(seed)
            expected = list(c)
            hits = 0
            for i in range(len(c)):
                if ref.random() < 0.2:
                    hits += 1
                    expected[i] = ref.randrange(7)
            assert out == tuple(expected)
            assert (rng.counts["random"], rng.counts["randrange"]) == (len(c), hits)
            assert rng.random() == ref.random()

    def test_move_host_draws_one_random_per_host_and_one_randrange_per_fired_host(self):
        vms = tuple(VmRequest(f"v{i}", 1, 500.0, 0, 10) for i in range(12))
        inst = ProblemInstance(vms, tuple(dell_host(h) for h in range(5)))
        ev = EnergyEvaluator(inst)
        c = tuple(i % 5 for i in range(12))
        for seed in range(20):
            rng = _CountingRandom(seed)
            move_host(c, 0.3, ev, rng)
            ref = random.Random(seed)
            fired = 0
            for _h in range(5):
                if ref.random() < 0.3:
                    fired += 1
                    ref.randrange(4)
            assert (rng.counts["random"], rng.counts["randrange"]) == (5, fired)
            assert rng.random() == ref.random()

    def test_parent_draws_are_two_per_crossover_call(self, monkeypatch, worked_example):
        config = GaConfig(population_size=7, generations=1, seed=4)
        plain = gapa_schedule(worked_example, config)
        draws, crossovers = [], []
        select, cross = vmplace.schedulers.select_parents, vmplace.schedulers.crossover

        def counted_select(population, cumulative, rng):
            before = rng.counts["random"]
            pair = select(population, cumulative, rng)
            draws.append(rng.counts["random"] - before)
            return pair

        def counted_crossover(*args):
            crossovers.append(args)
            return cross(*args)

        monkeypatch.setattr(vmplace.schedulers, "random", types.SimpleNamespace(Random=_CountingRandom))
        monkeypatch.setattr(vmplace.schedulers, "select_parents", counted_select)
        monkeypatch.setattr(vmplace.schedulers, "crossover", counted_crossover)
        counted = gapa_schedule(worked_example, config)
        # Six children after one elite: three parent pairs, one per crossover call.
        assert draws == [2, 2, 2] and len(crossovers) == 3
        assert counted.placement == plain.placement
        assert counted.stats["trajectory"] == plain.stats["trajectory"]
