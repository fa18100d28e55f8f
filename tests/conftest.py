"""Shared builders for the test suite."""

import random

import pytest

from vmplace import (
    DELL_R620,
    IBM_X3250,
    HostSpec,
    PowerModel,
    ProblemInstance,
    VmRequest,
)


def ibm_host(host_id: int) -> HostSpec:
    return HostSpec(host_id, 4, 2933.0, IBM_X3250)


def dell_host(host_id: int) -> HostSpec:
    return HostSpec(host_id, 16, 2200.0, DELL_R620)


def worked_example_instance() -> ProblemInstance:
    """4 IBM + 1 Dell hosts, 16 concurrent single-PE full-core VMs.

    With per-core demand capping, the 16 VMs exactly saturate either four IBM
    hosts (4 x 2933 each) or the one Dell host (16 x 2200).
    """
    hosts = tuple(ibm_host(i) for i in range(4)) + (dell_host(4),)
    vms = tuple(VmRequest(f"vm{i:02d}", 1, 2933.0, 0, 8100) for i in range(16))
    return ProblemInstance(vms, hosts, cap_demand_to_core=True)


def random_small_instance(seed: int, max_vms: int = 6, max_hosts: int = 3) -> ProblemInstance:
    """A small mixed-fleet instance; may be infeasible for some draws."""
    rng = random.Random(seed)
    n = rng.randint(2, max_vms)
    m = rng.randint(2, max_hosts)
    hosts = tuple(
        ibm_host(h) if rng.random() < 0.5 else dell_host(h) for h in range(m)
    )
    vms = tuple(
        VmRequest(
            f"v{i}",
            rng.randint(1, 2),
            float(rng.randint(5, 22)) * 100.0,
            rng.randrange(0, 4) * 900,
            rng.randrange(1, 4) * 900,
        )
        for i in range(n)
    )
    return ProblemInstance(vms, hosts)


#: The IBM class's cores and MIPS with a different curve: cheaper at low load,
#: dearer at full load. A host class is its shape and its curve, so this one
#: must never be merged with the IBM class.
IBM_ALT_CURVE = PowerModel(
    "ibm_x3250_alt",
    (38.0, 41.0, 45.0, 50.0, 58.0, 68.0, 80.0, 92.0, 104.0, 114.0, 125.0),
)


def mips_edge_instance() -> ProblemInstance:
    """Seven 1-PE VMs of 1026.2283791778043 MIPS over one window, on a Dell
    shape of 16 x 448.97491589022684 MIPS (host 0) and one of 16 x 5000.0
    MIPS (host 1). Summed one VM at a time, the seven exceed host 0's
    capacity plus ``MIPS_EPS``; three plus four summed apart do not."""
    vms = tuple(VmRequest(f"e{i}", 1, 1026.2283791778043, 0, 100) for i in range(7))
    hosts = (HostSpec(0, 16, 448.97491589022684, DELL_R620), HostSpec(1, 16, 5000.0, DELL_R620))
    return ProblemInstance(vms, hosts)


def mixed_class_instance(
    seed: int, n_vms: int, n_hosts: int, n_starts: int, cap_demand_to_core: bool = True
) -> ProblemInstance:
    """Hosts drawn from three classes (IBM, Dell, and IBM's shape with
    :data:`IBM_ALT_CURVE`); VMs of mixed shapes starting at ``n_starts``
    distinct times, so the instance has at most ``n_starts + 5`` segments."""
    rng = random.Random(seed)
    makers = (ibm_host, dell_host, lambda h: HostSpec(h, 4, 2933.0, IBM_ALT_CURVE))
    hosts = tuple(rng.choice(makers)(h) for h in range(n_hosts))
    vms = tuple(
        VmRequest(
            f"v{i}",
            rng.randint(1, 4),
            float(rng.randint(5, 35)) * 100.0,
            rng.randrange(n_starts) * 300,
            rng.randrange(1, 7) * 300,
        )
        for i in range(n_vms)
    )
    return ProblemInstance(vms, hosts, cap_demand_to_core=cap_demand_to_core)


@pytest.fixture
def worked_example() -> ProblemInstance:
    return worked_example_instance()
