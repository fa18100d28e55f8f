"""Seeded input generators for the benchmark workloads.

Each generator returns plain data in the program's own input formats
(timetable text, fleet JSON documents, VM field tuples) plus a record of what
it produced, so the program only ever sees generated inputs and a run can be
reproduced from its seed. The benchmark must not import ``tests/``, so the
acceptance-suite instances used here are copies kept in step with
``tests/test_acceptance.py``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

TIMETABLE_HEADER = "day,subject,class_id,group_id,students,slot_mask,duration_s"

#: (id, pe_count, mips_per_pe, start_time, duration) of one VM request.
VmFields = Tuple[str, int, float, int, int]


def segment_count(intervals) -> int:
    """Constant-load segments of [start, end) intervals, counted as the
    program does: between consecutive distinct start/end times and 0."""
    return len({0}.union(*((a, b) for a, b in intervals))) - 1


#: Slot length, session length range (slots) and session size range (VMs).
SLOT_LENGTH = 900
RUN_SLOTS = (2, 8)
STUDENTS = (5, 40)


def many_seg_inputs(seed: int, vm_count: int, hosts_per_class: int, mask_len: int) -> Dict:
    """A synthetic one-day timetable on a fine slot grid, and a mixed fleet.

    Sessions of :data:`STUDENTS` one-core VMs last :data:`RUN_SLOTS` slots of
    a ``mask_len``-slot day, until exactly ``vm_count`` VMs are enrolled.
    The list of session sizes and lengths is the same for every seed, so every
    seed asks for the same VM-hours; the seed shuffles the sessions and picks
    their start slots. Starts and ends spread over the whole grid, so the
    instance has tens of constant-load segments where the bundled lab
    timetable has two. The fleet is half 16-core, half 4-core hosts.
    """
    shape = random.Random(f"many-seg-sessions:{vm_count}:{mask_len}")
    sessions = []
    total = 0
    while total < vm_count:
        k = min(shape.randint(*STUDENTS), vm_count - total)
        sessions.append((k, min(shape.randint(*RUN_SLOTS), mask_len)))
        total += k
    rng = random.Random(seed)
    rng.shuffle(sessions)
    lines = [TIMETABLE_HEADER]
    intervals = []
    for row, (k, length) in enumerate(sessions):
        first = rng.randrange(0, mask_len - length + 1)
        mask = "-" * first + "1" * length + "-" * (mask_len - first - length)
        lines.append(f"1,S{row % 17:02d},C{row:04d},G{row % 7},{k},{mask},{length * SLOT_LENGTH}")
        intervals.append((first * SLOT_LENGTH, (first + length) * SLOT_LENGTH))
    fleet = {
        "entries": [
            {"model": "dell_r620", "count": hosts_per_class, "pe_count": 16, "mips_per_pe": 2200.0},
            {"model": "ibm_x3250", "count": hosts_per_class, "pe_count": 4, "mips_per_pe": 2933.0},
        ]
    }
    return {
        "timetable": "\n".join(lines) + "\n",
        "fleet": fleet,
        "slot_length": SLOT_LENGTH,
        "vm_template": (1, 2200.0),
        "record": {
            "seed": seed,
            "rows": len(sessions),
            "vms": total,
            "hosts": 2 * hosts_per_class,
            "segments": segment_count(intervals),
        },
    }


ORACLE_SCALES = (1.0, 1.3, 1.7, 2.2, 2.8)


def oracle_corpus_instance(seed: int) -> Tuple[Dict, List[VmFields]]:
    """One acceptance-4 oracle instance: 2-3 same-capacity hosts with affine,
    proportionally scaled power curves and 2-6 timed VMs.

    Draws from the RNG in the same order as the acceptance suite's generator,
    so a given seed yields the same instance there and here.
    """
    rng = random.Random(seed)
    m = rng.randint(2, 3)
    scales = rng.sample(ORACLE_SCALES, m)
    models = [
        {"name": f"scaled-{h}", "samples": [round(c * (40.0 + 8.0 * i), 1) for i in range(11)]}
        for h, c in enumerate(scales)
    ]
    fleet = {
        "power_models": models,
        "entries": [
            {"model": mdl["name"], "count": 1, "pe_count": 16, "mips_per_pe": 2200.0}
            for mdl in models
        ],
    }
    n = rng.randint(2, 6)
    vms = [
        (
            f"v{i}",
            rng.randint(1, 4),
            float(rng.randint(4, 22)) * 100.0,
            rng.randrange(0, 3) * 1800,
            rng.randrange(1, 4) * 1800,
        )
        for i in range(n)
    ]
    return fleet, vms


def oracle_corpus(seed: int, per_stratum: int) -> Dict:
    """Oracle instances from generator seeds ``1000 * seed`` onwards, taking
    ``per_stratum`` instances of each (host count, VM count) pair the
    generator can draw.

    Every corpus then has the same mix of sizes, so the amount of work does
    not depend on the seed; the seed picks each instance's contents.
    """
    quota = {(m, n): per_stratum for m in (2, 3) for n in range(2, 7)}
    instances = []
    used = []
    gen_seed = 1000 * seed
    while any(quota.values()):
        fleet, vms = oracle_corpus_instance(gen_seed)
        size = (len(fleet["entries"]), len(vms))
        if quota[size]:
            quota[size] -= 1
            instances.append((fleet, vms))
            used.append(gen_seed)
        gen_seed += 1
    return {
        "instances": instances,
        "record": {
            "seed": seed,
            "instance_seeds": used,
            "instances": len(instances),
            "vms": sum(len(vms) for _, vms in instances),
            "hosts": sum(len(fleet["entries"]) for fleet, _ in instances),
            "segments": sum(segment_count((v[3], v[3] + v[4]) for v in vms) for _, vms in instances),
        },
    }


def worked_example_inputs() -> Dict:
    """The acceptance-2 worked example: 16 concurrent one-core VMs that exactly
    saturate either the four 4-core hosts or the single 16-core host.

    Written as a one-row timetable and a fleet document; expanded with VM
    template (1, 2933) and per-core demand capping it is the acceptance
    instance, with the big host last.
    """
    return {
        "timetable": f"{TIMETABLE_HEADER}\n1,worked,WORKED,G1,16,123------------,8100\n",
        "fleet": {
            "entries": [
                {"model": "ibm_x3250", "count": 4, "pe_count": 4, "mips_per_pe": 2933.0},
                {"model": "dell_r620", "count": 1, "pe_count": 16, "mips_per_pe": 2200.0},
            ]
        },
        "vm_template": (1, 2933.0),
        "big_host": 4,
        "record": {"vms": 16, "hosts": 5, "segments": 1},
    }


def derived_seeds(tag: str, seed: int, count: int) -> List[int]:
    """``count`` GA seeds derived from the workload seed, distinct per workload."""
    rng = random.Random(f"{tag}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]
