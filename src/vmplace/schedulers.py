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
from .power import EnergyEvaluator, EnergyReport, _Tables, integrate_energy

#: One candidate allocation: gene[i] is the host index of VM i.
Genes = Tuple[int, ...]

FITNESS_ENERGY = "energy"
FITNESS_SNAPSHOT_POWER = "snapshot_power"

RNG_ALGORITHM = "python-random-mt19937"


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
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2 (the elite and a child)")
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
    """Inverse of :func:`to_allocation_tree`. A tree whose hosts do not list
    each of the VMs 0..n-1 exactly once raises ValueError."""
    n = sum(len(c) for c in tree)
    genes: List[Optional[int]] = [None] * n
    for h, child in enumerate(tree):
        for i in child:
            if not 0 <= i < n or genes[i] is not None:
                raise ValueError(f"allocation tree: VM {i!r} is not one of 0..{n - 1} listed once")
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
    if config.fitness_mode == FITNESS_SNAPSHOT_POWER:
        score = ev.snapshot_power(chromosome) if ev.try_energy(chromosome) is not None else None
    else:
        score = ev.try_energy(chromosome)
    if score is None:
        raise ValueError("fitness of an infeasible chromosome; repair it first")
    return 1.0 / score


def select_parents(
    population: Sequence[Genes],
    cumulative: Sequence[float],
    rng: random.Random,
) -> Tuple[Genes, Genes]:
    """Two independent roulette-wheel draws (may return the same individual
    twice) on ``cumulative``, the running sums of the fitnesses."""
    if not population:
        raise ValueError("empty population")
    total = cumulative[-1]
    # Searching below the last index picks the last individual when rounding
    # puts a draw at or past the total.
    last = len(population) - 1
    first = population[bisect_right(cumulative, rng.random() * total, 0, last)]
    return first, population[bisect_right(cumulative, rng.random() * total, 0, last)]


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


def _moved_to(genes: Genes, vms: Sequence[int], host: int) -> Genes:
    """``genes`` with every VM in ``vms`` (indices) on ``host``."""
    trial = list(genes)
    for i in vms:
        trial[i] = host
    return tuple(trial)


def move_host(c: Genes, prob: float, ev: EnergyEvaluator, rng: random.Random) -> Genes:
    """Host-level mutation on the allocation tree.

    Each host node, with probability ``prob``, hands all of its VMs to one
    other host drawn uniformly. The move is made only if
    :meth:`EnergyEvaluator.fits` finds that the target holds every moved VM
    next to its own, counted as the load pass counts it; otherwise nothing
    moves. A host that loses VMs never gains load, so a feasible input gives
    a feasible output. The next load pass finds the moved VMs from the memo
    keys.
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
        if moved and ev.fits(moved, target, genes):
            genes = _moved_to(genes, moved, target)
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
    only happens when demand genuinely exceeds fleet capacity. Each move
    changes one gene, and the next load pass finds it from the memo keys.
    """
    genes = tuple(c)
    viol = ev.first_violation(genes)
    if viol is None:
        return genes
    n = len(genes)
    m = ev.host_count
    stall = max(50, 5 * n)
    limit = max(400, 40 * n)
    moves = 0
    seen = {genes}
    while viol is not None:
        seg, host = viol
        contributors = ev.host_vms(host, genes, seg)
        vm = contributors[-1] if moves < stall else rng.choice(contributors)
        placed = False
        for h2 in range(m):
            if h2 != host and ev.fits((vm,), h2, genes):
                candidate = _moved_to(genes, (vm,), h2)
                if candidate not in seen:
                    genes = candidate
                    placed = True
                    break
        if not placed:
            genes = _moved_to(genes, (vm,), rng.randrange(m))
        seen.add(genes)
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


def _load_with(vms: Tuple[int, ...], i: int, eff: List[List[float]], h: int) -> float:
    """MIPS load on host ``h`` of VMs ``vms`` and VM ``i``, summed left to right
    in ascending index order."""
    x = 0.0
    for v in sorted(vms + (i,)):
        x += eff[v][h]
    return x


def bfd_schedule(instance: ProblemInstance, idle_hosts_powered: bool = False) -> SolveResult:
    """Earliest-start-first ordering with least-incremental-energy host choice.

    VMs are processed by ascending start time (ties: descending total MIPS,
    then ascending id). Each VM goes to the feasible host whose energy over
    the VM's interval grows the least, counting the switch-on cost of a host
    that was empty; ties go to the lowest host index. Deterministic.

    BFD reads the evaluator's instance tables (``power._Tables``) but keeps
    its own loads. A cell's MIPS load is the left-to-right sum of its VMs in
    ascending index order, as the load pass and the reference count it: a
    VM above every VM in the cell adds its demand to the load, and one below
    some is counted with the cell's VMs from scratch.

    Only the hosts that can win are scored: every host in use, plus each
    host class's lowest-index unused host. A class (``_Tables.host_class``)
    is the hosts with equal cores, core MIPS and power samples; its unused
    hosts have the same fit and delta, so none beats the lowest-index one,
    and the result is exactly that of scoring every host. Each (segment,
    host) cell keeps its current watts, so scoring a host reads
    :meth:`_Tables.watts_at` once per segment.
    """
    if not instance.vms:
        raise ValueError("bfd_schedule: empty instance")
    tab = _Tables(instance)
    vms = instance.vms
    n = len(vms)
    m = tab.host_count
    order = sorted(range(n), key=lambda i: (vms[i].start_time, -vms[i].total_mips, vms[i].id))
    watts_at = tab.watts_at
    host_pe = tab.host_pe
    mips_cap = tab.mips_cap
    # Cell k = segment * m + host, as in the evaluator's record.
    pe_load = [0] * (tab.nseg * m)
    mips_load = [0.0] * (tab.nseg * m)
    # Each cell's VMs, in the order BFD placed them, and its highest VM index.
    vms_in: List[Tuple[int, ...]] = [()] * (tab.nseg * m)
    top = [-1] * (tab.nseg * m)
    eff = tab.eff
    # An empty cell draws 0 W, or its idle watts when idle hosts are powered.
    watts = [t[0] if idle_hosts_powered else 0.0 for t in tab.tables] * tab.nseg

    # Candidates, ascending: the used hosts and each class's lowest unused
    # host. successor[h] is the next host of h's class, not yet a candidate.
    candidates: List[int] = []
    successor: Dict[int, int] = {}
    last: Dict[int, int] = {}
    for h, c in enumerate(tab.host_class):
        if c in last:
            successor[last[c]] = h
        else:
            candidates.append(h)
        last[c] = h

    genes: List[int] = [0] * n
    for i in order:
        p = tab.pe[i]
        row = eff[i]
        run = tab.cell_runs[i]
        a, b = tab.spans[i]
        # Each cell's segment offset and length, paired once per VM rather
        # than once per host scored.
        cells = list(zip(run, tab.seg_len[a:b]))
        best_delta = None
        best_h = -1
        for h in candidates:
            e = row[h]
            delta = 0.0
            for off, seg_len in cells:
                k = off + h
                x = mips_load[k] + e if top[k] < i else _load_with(vms_in[k], i, eff, h)
                if pe_load[k] + p > host_pe[h] or x > mips_cap[h]:
                    break
                delta += (watts_at(h, x) - watts[k]) * seg_len
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
            if top[k] < i:
                mips_load[k] += e
                top[k] = i
            else:
                mips_load[k] = _load_with(vms_in[k], i, eff, best_h)
            vms_in[k] += (i,)
            watts[k] = watts_at(best_h, mips_load[k])
        nxt = successor.pop(best_h, None)
        if nxt is not None:
            insort(candidates, nxt)

    placement = placement_from_genes(genes, instance)
    report = integrate_energy(placement, instance, idle_hosts_powered)
    stats = {"solver": "bfd"}
    return SolveResult(placement, report, stats)


def gapa_schedule(
    instance: ProblemInstance,
    config: GaConfig,
    idle_hosts_powered: bool = False,
) -> SolveResult:
    """Generational genetic search, deterministic for a given (instance, config).

    Random initial population (repaired to feasibility), then per generation:
    keep one elite, the first individual of highest fitness, and fill up with
    roulette selection -> single-point crossover -> per-gene mutation ->
    repair -> host move (:func:`move_host`, at the same rate as per-gene
    mutation). Returns the best individual ever seen.

    Each individual is scored as soon as it is built, so a child that the host
    move leaves unchanged is scored from the load pass repair just made; the
    elite keeps the fitness it had.

    Each run builds its own :class:`EnergyEvaluator`, which keeps the load
    record of every individual it scores. Each child names both of its
    parents (:attr:`EnergyEvaluator.parent` is the one that gave its head,
    ``other_parent`` the one that gave its tail), and its first load pass
    starts from the record of the parent nearer to it, the one whose memo key
    differs from the child's in fewer bits. So the pass visits the genes the
    child took from the other parent, mostly the shorter side of the cut,
    and its mutated genes, not the genes in which it differs from the child
    built before it. Repair and the host move change one VM, or one host's
    VMs, per step, and the pass after a step finds those genes from the
    memo keys rather than by comparing every gene.
    After each generation the records of individuals that left the
    population are dropped, so at most two populations' records are alive.

    The host move lets the search empty a whole host in one step. Moving VMs
    one at a time often raises energy first, because a host draws its idle
    watts until its last VM leaves, so single-gene mutation alone stalls in
    arrangements that only a multi-VM move improves.
    """
    if not instance.vms:
        raise ValueError("gapa_schedule: empty instance")
    rng = random.Random(config.seed)
    ev = EnergyEvaluator(instance, idle_hosts_powered)
    n = len(instance.vms)
    m = len(instance.hosts)

    size = config.population_size
    population: List[Genes] = []
    fitnesses: List[float] = []
    for _ in range(size):
        raw = tuple(rng.randrange(m) for _ in range(n))
        population.append(repair(raw, ev, rng))
        fitnesses.append(fitness(population[-1], ev, config))

    # The first individual of highest fitness: the next elite, the
    # trajectory entry and the best-so-far candidate.
    top = max(range(size), key=fitnesses.__getitem__)
    best_genes, best_fit = population[top], fitnesses[top]
    trajectory = [best_fit]

    p_cross = config.crossover_prob
    p_mut = config.mutation_prob
    for _generation in range(config.generations):
        new_pop = [population[top]]
        new_fit = [fitnesses[top]]
        wheel = list(accumulate(fitnesses))
        while len(new_pop) < size:
            p1, p2 = select_parents(population, wheel, rng)
            c1, c2 = crossover(p1, p2, p_cross, rng)
            for child, parent, other in ((c1, p1, p2), (c2, p2, p1)):
                if len(new_pop) >= size:
                    break
                child = mutate(child, p_mut, m, rng)
                ev.parent = parent
                ev.other_parent = other
                child = repair(child, ev, rng)
                child = move_host(child, p_mut, ev, rng)
                new_pop.append(child)
                new_fit.append(fitness(child, ev, config))
        population = new_pop
        fitnesses = new_fit
        ev.keep_records(population)
        top = max(range(size), key=fitnesses.__getitem__)
        trajectory.append(fitnesses[top])
        if fitnesses[top] > best_fit:
            best_genes, best_fit = population[top], fitnesses[top]

    placement = placement_from_genes(best_genes, instance)
    report = integrate_energy(placement, instance, idle_hosts_powered)
    stats = {
        "solver": "gapa",
        "generations_run": config.generations,
        "best_fitness": best_fit,
        "trajectory": trajectory,
        "evaluations": ev.evaluations,
        "seed": config.seed,
        "rng": RNG_ALGORITHM,
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
    vector. Each vector is scored by one checked load pass, with no memo.
    """
    if not instance.vms:
        raise ValueError("exact_schedule: empty instance")
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
        energy = None if ev._violation(genes) else ev._energy()
        if energy is not None and (best_energy is None or energy < best_energy):
            best_energy = energy
            best_genes = genes
    if best_genes is None:
        raise NoFeasibleAssignmentError(f"none of the {count} assignments is feasible")
    placement = placement_from_genes(best_genes, instance)
    report = integrate_energy(placement, instance, idle_hosts_powered)
    stats = {"solver": "exact", "evaluations": count}
    return SolveResult(placement, report, stats)
