"""Golden results: fixed seeds must keep giving bit-identical solver output.

Each digest is a SHA-256 over the GA placement, the ``repr`` of every
trajectory value, the GA evaluation count, the exact GA energy and the BFD
placement. The energy-mode literals were recorded before the evaluator's load
accounting was rewritten, the snapshot-mode ones before ``snapshot_power``
came to read the evaluator's last load pass; a change meant to keep behaviour
must leave them as they are. The BFD-only digests (placement and the ``repr``
of the exact energy) were recorded while BFD still scored every host for
every VM.

One literal was re-recorded since: ``test_lab_instance_golden``, when the
evaluator came to sum its per-cell energy terms with ``math.fsum`` instead
of in the order a pass first touches the cells. Its placement, evaluation
count (869) and exact GA energy (84982086.10227272 J) stayed the same; only
the last bits of some trajectory fitness values moved.
"""

import hashlib
import random

import pytest

from vmplace import (
    DEFAULT_FLEET,
    SAMPLE_TIMETABLE,
    GaConfig,
    ProblemInstance,
    SlotConfig,
    VmRequest,
    bfd_schedule,
    build_fleet,
    expand,
    gapa_schedule,
    parse_timetable,
)

from conftest import dell_host, ibm_host, mixed_class_instance, worked_example_instance


def _lab_instance() -> ProblemInstance:
    rows = parse_timetable(SAMPLE_TIMETABLE)
    vms = expand(rows, SlotConfig(), vm_template=(2, 2933.0))
    hosts = build_fleet(DEFAULT_FLEET)
    return ProblemInstance(tuple(vms), tuple(hosts), cap_demand_to_core=False)


def _fractional_instance(seed: int, cap_demand_to_core: bool) -> ProblemInstance:
    """Twelve VMs with 0.1-multiple per-core MIPS, most spanning several segments."""
    rng = random.Random(seed)
    hosts = (ibm_host(0), dell_host(1), ibm_host(2), ibm_host(3))
    vms = tuple(
        VmRequest(
            f"v{i}",
            rng.randint(1, 2),
            rng.randint(5000, 30000) / 10.0,
            rng.randrange(0, 6) * 600,
            rng.randrange(1, 5) * 600,
        )
        for i in range(12)
    )
    return ProblemInstance(vms, hosts, cap_demand_to_core=cap_demand_to_core)


def _digest(instance: ProblemInstance, config: GaConfig, idle: bool = False) -> str:
    ga = gapa_schedule(instance, config, idle)
    bfd = bfd_schedule(instance, idle)
    parts = [
        repr(sorted(ga.placement.items())),
        repr([repr(f) for f in ga.stats["trajectory"]]),
        repr(ga.stats["evaluations"]),
        repr(ga.energy.total_joules),
        repr(sorted(bfd.placement.items())),
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@pytest.mark.parametrize(
    "seed, expected",
    [
        (1, "1dffa47e4a0f6b76207871843cc932ad97a20f56d06ec52f98226bee85671671"),
        (2, "19a781a68b222fb12c5b3a8f512e346c4d4a817c34b331e8f107729c8b8efec1"),
        (3, "c24150263b6ec8363d416f06d623509d8279103a770de9d05a09716dafcd59ba"),
    ],
)
def test_worked_example_golden(seed, expected):
    config = GaConfig(population_size=10, generations=500, crossover_prob=0.5, seed=seed)
    assert _digest(worked_example_instance(), config) == expected


def test_lab_instance_golden():
    config = GaConfig(population_size=10, generations=100, crossover_prob=0.5, seed=1)
    assert _digest(_lab_instance(), config) == (
        "669ac970fac290f05d36e47040c28e7524610b6a26469ec4d10d9b38d321274f"
    )


SNAPSHOT_INSTANCES = {
    "worked": worked_example_instance,
    "lab": _lab_instance,
    "fractional": lambda: _fractional_instance(7, cap_demand_to_core=False),
    "fractional-capped": lambda: _fractional_instance(8, cap_demand_to_core=True),
}


@pytest.mark.parametrize(
    "name, idle, expected",
    [
        ("worked", False, "17acf32832a5550e6315a3f08446c72893b5a61fe5acf83901921566b8d3a52b"),
        ("worked", True, "b97ca3cfb7382434d2136699357ae92fb34a6e2a4dc171e86d407ac5920ca79d"),
        ("lab", False, "c60459267a50e8c87fe328c82ebf381238475364283f046eb85bc975c207c3a1"),
        ("lab", True, "ad9919d32f778262609eb2d52e66f8bce719f1a60c2b96628da4ae632beb2bc2"),
        ("fractional", False, "fcadea4d0cecb973c914f88b672905f5256cddf67fd50c962b3e731b25972330"),
        ("fractional", True, "4eda144281e23fdb9cb8bed0e47135f00e4cf348687cd5366a5b65b43a96d498"),
        ("fractional-capped", False, "2821760f4f10c6d1ea3b42be750c4bab41c9aa66f29e585d1b46ee090a296fd6"),
        ("fractional-capped", True, "dff2d2aeb2ad83d70474bb6b2825b2245ab9fe9a4287d57b8f77fce21b480d02"),
    ],
)
def test_snapshot_mode_golden(name, idle, expected):
    generations = 30 if name == "lab" else 200
    config = GaConfig(generations=generations, seed=1, fitness_mode="snapshot_power")
    assert _digest(SNAPSHOT_INSTANCES[name](), config, idle) == expected


@pytest.mark.parametrize(
    "idle, expected",
    [
        (False, "87c765666f62808388cfe43e7713eab425650c0ab5b77e473c31e70d0206c95d"),
        (True, "4a4fd725485e3954417e0ffcadb086e987929d6cbcff143343c9ffb027614c3e"),
    ],
)
def test_bfd_mixed_class_golden(idle, expected):
    # 300 VMs on 40 hosts of three classes, two of them with the same cores
    # and MIPS but different curves; 35 segments, demand capped to the core.
    bfd = bfd_schedule(mixed_class_instance(11, 300, 40, 30, cap_demand_to_core=True), idle)
    parts = [repr(sorted(bfd.placement.items())), repr(bfd.energy.total_joules)]
    assert hashlib.sha256("\n".join(parts).encode()).hexdigest() == expected
