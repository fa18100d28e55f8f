"""The three placement solvers: BFD baseline, genetic search, exhaustive oracle.

All solvers produce a :class:`SolveResult` whose energy report comes from
:func:`vmplace.power.integrate_energy` on the returned placement, so reported
numbers are always reproducible from the placement alone.

A candidate solution ("chromosome") is a gene vector: one host index per VM,
in ``instance.vms`` order. This vector is the flattened form of a three-level
allocation tree (root -> hosts -> VMs); see :func:`to_allocation_tree` /
:func:`from_allocation_tree` for the bijection.
"""

from __future__ import annotations

import itertools
import random
import time
from bisect import bisect_right, insort
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    BudgetExceededError,
    NoFeasibleAssignmentError,
    NoFeasibleHostError,
    UnrepairableError,
)
from .model import Placement, ProblemInstance
from .power import EnergyEvaluator, EnergyReport, _interp, integrate_energy

#: One candidate allocation: gene[i] is the host index of VM i.
Genes = Tuple[int, ...]

FITNESS_ENERGY = "energy"
FITNESS_SNAPSHOT_POWER = "snapshot_power"

RNG_ALGORITHM = "python-random-mt19937"

#: Individuals carried unchanged into the next generation.
ELITE_COUNT = 1


@dataclass(frozen=True)
class GaConfig:
    """Knobs of the genetic search."""

    population_size: int = 10
    generations: int = 500
    crossover_prob: float = 0.5
    mutation_prob: float = 0.01  # per gene, and per host node for move_host
    seed: int = 1
    fitness_mode: str = FITNESS_ENERGY

    def __post_init__(self):
        if self.population_size <= ELITE_COUNT:
            raise ValueError(f"population_size must be > {ELITE_COUNT} (the elite count)")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must be in [0, 1]")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError("mutation_prob must be in [0, 1]")
        if self.fitness_mode not in (FITNESS_ENERGY, FITNESS_SNAPSHOT_POWER):
            raise ValueError(f"unknown fitness_mode {self.fitness_mode!r}")


@dataclass(frozen=True)
class SolveResult:
    placement: Placement
    energy: EnergyReport
    stats: dict


def to_allocation_tree(genes: Sequence[int], host_count: int) -> Tuple[Tuple[int, ...], ...]:
    """Gene vector -> allocation tree: per host, the ascending VM indices on it."""
    children: List[List[int]] = [[] for _ in range(host_count)]
    for i, h in enumerate(genes):
        children[h].append(i)
    return tuple(tuple(c) for c in children)


def from_allocation_tree(tree: Sequence[Sequence[int]]) -> Genes:
    """Inverse of :func:`to_allocation_tree`."""
    n = sum(len(c) for c in tree)
    genes = [0] * n
    for h, child in enumerate(tree):
        for i in child:
            genes[i] = h
    return tuple(genes)


def placement_from_genes(genes: Sequence[int], instance: ProblemInstance) -> Placement:
    return {v.id: instance.hosts[h].id for v, h in zip(instance.vms, genes)}


# ---------------------------------------------------------------------------
# Genetic operators


def fitness(chromosome: Sequence[int], ev: EnergyEvaluator, config: GaConfig) -> float:
    """Reciprocal of total energy (joules), or of aggregate watts at the peak
    instant in snapshot mode, as ``ev`` scores them. Higher is better. The
    chromosome must already be feasible (repair first)."""
    genes = tuple(chromosome)
    if config.fitness_mode == FITNESS_SNAPSHOT_POWER:
        score = ev.snapshot_power(genes) if ev.feasible(genes) else None
    else:
        score = ev.try_energy(genes)
    if score is None:
        raise ValueError("fitness of an infeasible chromosome; repair it first")
    return 1.0 / score


def select_parents(
    population: Sequence[Genes],
    fitnesses: Sequence[float],
    rng: random.Random,
) -> Tuple[Genes, Genes]:
    """Two independent roulette-wheel draws (may return the same individual twice)."""
    if not population:
        raise ValueError("empty population")
    cumulative = list(accumulate(fitnesses))
    total = cumulative[-1]
    last = len(population) - 1
    first = population[min(bisect_right(cumulative, rng.random() * total), last)]
    return first, population[min(bisect_right(cumulative, rng.random() * total), last)]


def crossover(
    a: Genes,
    b: Genes,
    prob: float,
    rng: random.Random,
) -> Tuple[Genes, Genes]:
    """Single-point crossover with probability ``prob``, else parent copies."""
    if len(a) != len(b):
        raise ValueError(f"gene length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2 or rng.random() >= prob:
        return a, b
    cut = rng.randint(1, n - 1)
    return a[:cut] + b[cut:], b[:cut] + a[cut:]


def mutate(c: Genes, prob: float, host_count: int, rng: random.Random) -> Genes:
    """Each gene independently rerolled to a uniform host index with probability ``prob``."""
    if host_count < 1:
        raise ValueError("host_count must be >= 1")
    if prob <= 0.0:
        return c
    rand = rng.random
    genes = None
    for i in range(len(c)):
        if rand() < prob:
            if genes is None:
                genes = list(c)
            genes[i] = rng.randrange(host_count)
    return tuple(c) if genes is None else tuple(genes)


def move_host(c: Genes, prob: float, ev: EnergyEvaluator, rng: random.Random) -> Genes:
    """Host-level mutation on the allocation tree.

    Each host node, with probability ``prob``, hands all of its VMs to one
    other host drawn uniformly. The move is made only if the target can hold
    every moved VM next to its own; otherwise nothing moves. Only the target's
    load grows, so a feasible input gives a feasible output.
    """
    m = ev.host_count
    if prob <= 0.0 or m < 2:
        return c
    rand = rng.random
    genes = c
    for h in range(m):
        if rand() >= prob:
            continue
        target = rng.randrange(m - 1)
        if target >= h:
            target += 1
        moved = ev.host_vms(h, genes)
        if moved and ev.fits_all(moved, target, genes):
            trial = list(genes)
            for i in moved:
                trial[i] = target
            genes = tuple(trial)
    return genes


def repair(c: Sequence[int], ev: EnergyEvaluator, rng: random.Random) -> Genes:
    """Return a feasible chromosome; feasible inputs pass through unchanged.

    While violations remain: at the earliest violating (host, interval), evict
    the most recently assigned contributor (highest VM index) and re-place it
    first-fit by ascending host; if no host can take it, or first-fit revisits
    an already-seen state (evict/re-place cycles are possible because evicting
    frees the source host again), send it to a random host and keep going.

    The highest-index victim rule can strand: low-index VMs are never eligible
    to move, so some feasible arrangements are unreachable from some starts.
    After a stall threshold the victim is therefore drawn uniformly from the
    violation's contributors, which makes the walk ergodic over assignments.
    Raises UnrepairableError once the move budget is spent, which in practice
    only happens when demand genuinely exceeds fleet capacity.
    """
    viol = ev.first_violation(c)
    if viol is None:
        return tuple(c)
    genes = list(c)
    n = len(genes)
    m = len(ev.instance.hosts)
    stall = max(50, 5 * n)
    limit = max(400, 40 * n)
    moves = 0
    seen = {tuple(genes)}
    while viol is not None:
        seg, host = viol
        contributors = ev.host_vms(host, genes, seg)
        vm = contributors[-1] if moves < stall else rng.choice(contributors)
        placed = False
        for h2 in range(m):
            if h2 != host and ev.fits(vm, h2, genes):
                candidate = genes[:]
                candidate[vm] = h2
                if tuple(candidate) not in seen:
                    genes[vm] = h2
                    placed = True
                    break
        if not placed:
            genes[vm] = rng.randrange(m)
        seen.add(tuple(genes))
        moves += 1
        if moves > limit:
            raise UnrepairableError(
                f"could not repair chromosome within {limit} moves; "
                "instance demand likely exceeds fleet capacity"
            )
        viol = ev.first_violation(genes)
    return tuple(genes)


# ---------------------------------------------------------------------------
# Solvers


def bfd_schedule(instance: ProblemInstance, idle_hosts_powered: bool = False) -> SolveResult:
    """Earliest-start-first ordering with least-incremental-energy host choice.

    VMs are processed by ascending start time (ties: descending total MIPS,
    then ascending id). Each VM goes to the feasible host whose energy over
    the VM's interval grows the least, counting the switch-on cost of a host
    that was empty; ties go to the lowest host index. Deterministic.

    Only the hosts that can win are scored: every host already in use, plus
    each host class's lowest-index unused host. A class
    (``EnergyEvaluator.host_class``) is the hosts with equal cores, core MIPS
    and power samples. Its unused hosts all have the
    same fit and the same delta, so none of them can beat the lowest-index
    one, and the result is exactly that of scoring every host. Each
    (segment, host) cell keeps its current watts, so scoring a host
    interpolates the power curve once per segment.
    """
    if not instance.vms:
        raise ValueError("bfd_schedule: empty instance")
    t_begin = time.perf_counter()
    ev = EnergyEvaluator(instance, idle_hosts_powered)
    vms = instance.vms
    n = len(vms)
    m = ev.host_count
    order = sorted(range(n), key=lambda i: (vms[i].start_time, -vms[i].total_mips, vms[i].id))
    tables = ev.tables
    host_pe = ev.host_pe
    host_mips = ev.host_mips
    mips_cap = ev.mips_cap
    # Cell k = segment * m + host, as in the evaluator's record.
    pe_load = [0] * (ev.nseg * m)
    mips_load = [0.0] * (ev.nseg * m)
    # An empty cell draws 0 W, or its idle watts when idle hosts are powered.
    watts = [t[0] if idle_hosts_powered else 0.0 for t in tables] * ev.nseg

    # Candidates, ascending: the used hosts and each class's lowest unused
    # host. successor[h] is the next host of h's class, not yet a candidate.
    candidates: List[int] = []
    successor: Dict[int, int] = {}
    last: Dict[int, int] = {}
    for h, c in enumerate(ev.host_class):
        if c in last:
            successor[last[c]] = h
        else:
            candidates.append(h)
        last[c] = h

    genes: List[int] = [0] * n
    for i in order:
        p = ev.pe[i]
        row = ev.eff[i]
        run = ev.cell_runs[i]
        a, b = ev.spans[i]
        lens = ev.seg_len[a:b]
        best_delta = None
        best_h = -1
        for h in candidates:
            e = row[h]
            table = tables[h]
            delta = 0.0
            for off, seg_len in zip(run, lens):
                k = off + h
                x = mips_load[k] + e
                if pe_load[k] + p > host_pe[h] or x > mips_cap[h]:
                    break
                u = x / host_mips[h]
                delta += (_interp(table, u if u < 1.0 else 1.0) - watts[k]) * seg_len
            else:
                if best_delta is None or delta < best_delta:
                    best_delta = delta
                    best_h = h
        if best_h < 0:
            raise NoFeasibleHostError(vms[i].id)
        genes[i] = best_h
        e = row[best_h]
        for off in run:
            k = off + best_h
            pe_load[k] += p
            mips_load[k] += e
            u = mips_load[k] / host_mips[best_h]
            watts[k] = _interp(tables[best_h], u if u < 1.0 else 1.0)
        nxt = successor.pop(best_h, None)
        if nxt is not None:
            insort(candidates, nxt)

    placement = placement_from_genes(genes, instance)
    report = integrate_energy(placement, instance, idle_hosts_powered)
    stats = {
        "solver": "bfd",
        "wall_time_s": time.perf_counter() - t_begin,
    }
    return SolveResult(placement, report, stats)


def gapa_schedule(
    instance: ProblemInstance,
    config: GaConfig,
    idle_hosts_powered: bool = False,
    _evaluator: Optional[EnergyEvaluator] = None,
) -> SolveResult:
    """Generational genetic search, deterministic for a given (instance, config).

    Random initial population (repaired to feasibility), then per generation:
    keep the elites, fill up with roulette selection -> single-point crossover
    -> per-gene mutation -> repair -> host move (:func:`move_host`, at the
    same rate as per-gene mutation). Returns the best individual ever seen.

    Each individual is scored as soon as it is built, so a child that the host
    move leaves unchanged is scored from the load pass repair just made;
    elites keep the fitness they had.

    The evaluator keeps the load record of every individual it scores. A
    child's first load pass starts from its parent's record (``p1``'s for
    the first crossover child, ``p2``'s for the second), which differs from
    it in the crossover tail and the mutated genes, not from the record of
    the child built before it. After each generation the records of
    individuals that left the population are dropped, so at most two
    populations' records are alive, and none when the run returns. Runs that
    share one ``_evaluator`` share its memo of scores: their results are
    those of fresh evaluators, but ``stats["evaluations"]`` counts only the
    vectors no earlier run scored.

    The host move lets the search empty a whole host in one step. Moving VMs
    one at a time often raises energy first, because a host draws its idle
    watts until its last VM leaves, so single-gene mutation alone stalls in
    arrangements that only a multi-VM move improves.
    """
    if not instance.vms:
        raise ValueError("gapa_schedule: empty instance")
    t_begin = time.perf_counter()
    rng = random.Random(config.seed)
    ev = _evaluator or EnergyEvaluator(instance, idle_hosts_powered)
    eval_start = ev.evaluations
    n = len(instance.vms)
    m = len(instance.hosts)

    population: List[Genes] = []
    fitnesses: List[float] = []
    for _ in range(config.population_size):
        raw = tuple(rng.randrange(m) for _ in range(n))
        population.append(repair(raw, ev, rng))
        fitnesses.append(fitness(population[-1], ev, config))

    best_genes = population[0]
    best_fit = fitnesses[0]
    for g, f in zip(population, fitnesses):
        if f > best_fit:
            best_genes, best_fit = g, f
    trajectory = [max(fitnesses)]

    size = config.population_size
    p_cross = config.crossover_prob
    p_mut = config.mutation_prob
    for _generation in range(config.generations):
        ranked = sorted(range(len(population)), key=lambda i: -fitnesses[i])
        elites = ranked[:ELITE_COUNT]
        new_pop = [population[i] for i in elites]
        new_fit = [fitnesses[i] for i in elites]
        while len(new_pop) < size:
            p1, p2 = select_parents(population, fitnesses, rng)
            c1, c2 = crossover(p1, p2, p_cross, rng)
            for child, parent in ((c1, p1), (c2, p2)):
                if len(new_pop) >= size:
                    break
                child = mutate(child, p_mut, m, rng)
                ev.parent = parent
                child = repair(child, ev, rng)
                child = move_host(child, p_mut, ev, rng)
                new_pop.append(child)
                new_fit.append(fitness(child, ev, config))
        population = new_pop
        fitnesses = new_fit
        ev.keep_records(population)
        gen_best = max(fitnesses)
        trajectory.append(gen_best)
        for g, f in zip(population, fitnesses):
            if f > best_fit:
                best_genes, best_fit = g, f

    ev.parent = None
    ev.keep_records(())
    placement = placement_from_genes(best_genes, instance)
    report = integrate_energy(placement, instance, idle_hosts_powered)
    stats = {
        "solver": "gapa",
        "generations_run": config.generations,
        "best_fitness": best_fit,
        "trajectory": trajectory,
        "evaluations": ev.evaluations - eval_start,
        "seed": config.seed,
        "rng": RNG_ALGORITHM,
        "wall_time_s": time.perf_counter() - t_begin,
    }
    return SolveResult(placement, report, stats)


def exact_schedule(
    instance: ProblemInstance,
    budget: int = 10_000_000,
    idle_hosts_powered: bool = False,
) -> SolveResult:
    """Brute-force optimum by full enumeration (oracle for the heuristics).

    Enumerates all host^vm assignments in lexicographic order and keeps the
    first minimum-energy feasible one, i.e. ties resolve to the smallest gene
    vector.
    """
    if not instance.vms:
        raise ValueError("exact_schedule: empty instance")
    t_begin = time.perf_counter()
    n = len(instance.vms)
    m = len(instance.hosts)
    count = m**n
    if count > budget:
        raise BudgetExceededError(
            f"{m}^{n} = {count} assignments exceeds the enumeration budget {budget}"
        )
    ev = EnergyEvaluator(instance, idle_hosts_powered)
    best_energy = None
    best_genes: Optional[Genes] = None
    for genes in itertools.product(range(m), repeat=n):
        energy = ev.try_energy(genes, cache=False)
        if energy is not None and (best_energy is None or energy < best_energy):
            best_energy = energy
            best_genes = genes
    if best_genes is None:
        raise NoFeasibleAssignmentError(f"none of the {count} assignments is feasible")
    placement = placement_from_genes(best_genes, instance)
    report = integrate_energy(placement, instance, idle_hosts_powered)
    stats = {
        "solver": "exact",
        "evaluations": count,
        "wall_time_s": time.perf_counter() - t_begin,
    }
    return SolveResult(placement, report, stats)
