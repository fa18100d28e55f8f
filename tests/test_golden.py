"""Golden results: fixed seeds must keep giving bit-identical solver output.

Each digest is a SHA-256 over the GA placement, the ``repr`` of every
trajectory value, the GA evaluation count, the exact GA energy and the BFD
placement. The literals were recorded before the evaluator's load accounting
was rewritten; a change meant to keep behaviour must leave them as they are.
"""

import hashlib

import pytest

from vmplace import (
    DEFAULT_FLEET,
    SAMPLE_TIMETABLE,
    GaConfig,
    ProblemInstance,
    SlotConfig,
    bfd_schedule,
    build_fleet,
    expand,
    gapa_schedule,
    parse_timetable,
)

from conftest import worked_example_instance


def _lab_instance() -> ProblemInstance:
    rows = parse_timetable(SAMPLE_TIMETABLE)
    vms = expand(rows, SlotConfig(), vm_template=(2, 2933.0))
    hosts = build_fleet(DEFAULT_FLEET)
    return ProblemInstance(tuple(vms), tuple(hosts), cap_demand_to_core=False)


def _digest(instance: ProblemInstance, config: GaConfig) -> str:
    ga = gapa_schedule(instance, config)
    bfd = bfd_schedule(instance)
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
        "30a38b729c8a2177eb63899a83e54a70a02da7c7f8df3c13c530e5bf6cebd067"
    )
