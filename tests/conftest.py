"""Shared fixtures: substrates at each scale and request builders, and
the hypothesis profiles."""

import numpy as np
import pytest
from hypothesis import settings

from slicesim import (
    NodeKind,
    SliceRequest,
    SubstrateNetwork,
    build_reference_topology,
)


# "tier1", the default, draws the same examples on every run, so a tier-1
# result depends on the source alone. "deep" draws fresh ones, ten times
# as many; CI runs it as
#   pytest -m hypothesis --hypothesis-profile=deep --hypothesis-seed=<n>
# and prints the seed, so a failure can be rerun.
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.register_profile("deep", derandomize=False, database=None,
                          deadline=None)
settings.load_profile("tier1")
_EXAMPLE_SCALE = {"tier1": 1, "deep": 10}


def examples(n):
    """A hypothesis test's example count: n under "tier1", 10 n under
    "deep"."""
    return n * _EXAMPLE_SCALE.get(settings.get_current_profile_name(), 1)


@pytest.fixture(scope="session")
def full_net_template():
    # session-scoped template; tests that mutate must build their own
    return build_reference_topology("full")


@pytest.fixture
def full_net():
    return build_reference_topology("full")


@pytest.fixture
def small_net():
    return build_reference_topology("small")


@pytest.fixture
def tiny_net():
    return build_reference_topology("tiny")


def uniform_request(n_vnfs, cpu, ram, bw, uid=0, class_id=0, time=0.0):
    """Chain of n identical VNFs joined by identical virtual links."""
    return SliceRequest(uid, class_id, time, n_vnfs, cpu, ram, bw)


def line_net(caps, bw, server_cpu=50.0, server_ram=300.0):
    """Servers on a line: s0 - s1 - ... with the given per-link bandwidth.

    caps overrides (cpu, ram) per server when given as a list of pairs.
    """
    net = SubstrateNetwork()
    n = caps if isinstance(caps, int) else len(caps)
    for i in range(n):
        if isinstance(caps, int):
            cpu, ram = server_cpu, server_ram
        else:
            cpu, ram = caps[i]
        net.add_node(NodeKind.SERVER, dc_id=0, max_cpu=cpu, max_ram=ram)
    bws = [bw] * (n - 1) if np.isscalar(bw) else list(bw)
    for i in range(n - 1):
        net.add_link(i, i + 1, bws[i])
    return net


def random_substrate(rng, max_servers=4, extra_switch=True):
    """Small random connected substrate with integer link bandwidths."""
    n = int(rng.integers(2, max_servers + 1))
    net = SubstrateNetwork()
    for _ in range(n):
        net.add_node(NodeKind.SERVER, dc_id=0,
                     max_cpu=float(rng.integers(2, 8)),
                     max_ram=float(rng.integers(2, 8)))
    nodes = list(range(n))
    if extra_switch and rng.random() < 0.5:
        nodes.append(net.add_node(NodeKind.SWITCH, dc_id=0))
    # random spanning tree keeps it connected, extra edges add path choice
    order = list(rng.permutation(nodes))
    for i in range(1, len(order)):
        j = int(rng.integers(0, i))
        net.add_link(order[i], order[j], float(rng.integers(1, 5)))
    for _ in range(int(rng.integers(0, 3))):
        a, b = rng.choice(nodes, size=2, replace=False)
        key = (min(int(a), int(b)), max(int(a), int(b)))
        if key not in net.links:
            net.add_link(int(a), int(b), float(rng.integers(1, 5)))
    return net
