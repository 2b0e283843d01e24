"""Substrate graph: topology builder, resource accounting, fingerprints."""

import numpy as np
import pytest

from slicesim import (
    AccountingError,
    CapacityError,
    ConfigurationError,
    NodeKind,
    ResourceDelta,
    SubstrateNetwork,
    TopologyCounts,
    build_reference_topology,
    route_all,
)

from conftest import line_net
from oracles import data_centers, outgoing_bw


# -- reference topology -----------------------------------------------------

def test_full_profile_counts(full_net_template):
    net = full_net_template
    assert len(net.nodes) == 147
    assert len(net.servers) == 126
    assert len(net.links) == 151
    assert net.total_capacity("cpu") == 6300.0
    assert net.total_capacity("ram") == 37800.0
    assert net.total_capacity("bw") == 8350.0


def test_full_profile_tiers(full_net_template):
    # dc ids number the 15 EDCs, then the 5 CDCs, then the CCP
    sizes = [len(servers)
             for _, servers in data_centers(full_net_template).values()]
    assert sizes == [4] * 15 + [10] * 5 + [16]


def test_every_server_is_a_star_leaf(full_net_template):
    net = full_net_template
    for switch, servers in data_centers(net).values():
        for s in servers:
            assert list(net.link_index[s]) == [switch]


def test_server_capacities(full_net_template):
    for sid in full_net_template.servers:
        node = full_net_template.nodes[sid]
        assert node.max_cpu == 50.0
        assert node.max_ram == 300.0
        assert node.cap_cpu == node.max_cpu
        assert node.cap_ram == node.max_ram


def test_small_and_tiny_profiles():
    small = build_reference_topology("small")
    assert len(small.servers) == 8
    assert len(small.nodes) == 11
    assert small.total_capacity("bw") == 460.0
    tiny = build_reference_topology("tiny")
    assert len(tiny.servers) == 3
    assert len(tiny.nodes) == 4
    assert tiny.total_capacity("bw") == 30.0


def test_explicit_counts_match_profile():
    counts = TopologyCounts(edc_count=2, servers_per_edc=2,
                            cdc_count=1, servers_per_cdc=4)
    assert (build_reference_topology(counts).fingerprint()
            == build_reference_topology("small").fingerprint())


def test_connectivity(full_net_template):
    assert full_net_template.is_connected()
    two = SubstrateNetwork()
    two.add_node(NodeKind.SERVER, max_cpu=1.0, max_ram=1.0)
    two.add_node(NodeKind.SERVER, max_cpu=1.0, max_ram=1.0)
    assert not two.is_connected()


def test_cdc_ring_is_closed(full_net_template):
    net = full_net_template
    ring = [switch for switch, _ in list(data_centers(net).values())[15:20]]
    assert len(ring) == 5
    for i, sw in enumerate(ring):
        nxt = ring[(i + 1) % len(ring)]
        assert net.max_bw[net.link_index[sw][nxt]] == 100.0


def test_unknown_profile_rejected():
    with pytest.raises(ConfigurationError):
        build_reference_topology("galactic")
    with pytest.raises(ConfigurationError):
        build_reference_topology(TopologyCounts(edc_count=0, servers_per_edc=0))


def test_builder_validation():
    net = SubstrateNetwork()
    with pytest.raises(ConfigurationError):
        net.add_node(NodeKind.SWITCH, max_cpu=5.0)
    a = net.add_node(NodeKind.SERVER, max_cpu=1.0, max_ram=1.0)
    b = net.add_node(NodeKind.SERVER, max_cpu=1.0, max_ram=1.0)
    with pytest.raises(ConfigurationError):
        net.add_link(a, a, 1.0)
    net.add_link(a, b, 1.0)
    with pytest.raises(ConfigurationError):
        net.add_link(b, a, 2.0)


# -- resource accounting ----------------------------------------------------

def test_outgoing_bw_after_commit(full_net):
    switch, servers = data_centers(full_net)[20]     # the CCP
    server = servers[0]
    assert full_net.max_outgoing_bw(server) == 100.0
    full_net.commit(ResourceDelta(), server, 0.0, 0.0, (server, switch), 2.0)
    assert outgoing_bw(full_net, server) == 98.0
    assert full_net.max_outgoing_bw(server) == 100.0


def test_commit_release_round_trip(small_net):
    before = small_net.residuals()
    delta = ResourceDelta()
    s = small_net.servers[0]
    small_net.commit(delta, s, 10.0, 20.0,
                     (s, list(small_net.link_index[s])[0]), 3.0)
    assert small_net.nodes[s].cap_cpu == small_net.nodes[s].max_cpu - 10.0
    assert small_net.residuals() != before
    small_net.release(delta)
    assert small_net.residuals() == before


def test_overcommit_rejected_atomically(small_net):
    """A step whose node fits but whose path link is short takes nothing."""
    s = small_net.servers[0]
    switch = list(small_net.link_index[s])[0]
    held = ResourceDelta()
    small_net.commit(held, s, 1.0, 2.0)
    before, held_before = small_net.residuals(), held.to_dict()
    short = small_net.bw[small_net.link_index[s][switch]] + 1.0
    with pytest.raises(CapacityError, match="bw commit"):
        small_net.commit(held, s, 1.0, 2.0, (s, switch), short)
    # the node's cpu and ram, which fit, must not have leaked through
    assert small_net.residuals() == before
    assert held.to_dict() == held_before


def test_a_path_pair_without_a_link_is_rejected_atomically():
    net = line_net(3, bw=5.0)
    held = ResourceDelta()
    before = net.residuals()
    with pytest.raises(CapacityError, match=r"no link \(0, 2\)"):
        net.commit(held, 2, 1.0, 1.0, (1, 0, 2), 1.0)
    assert net.residuals() == before
    assert held.is_empty()


def test_over_release_rejected_atomically(small_net):
    s0 = small_net.servers[0]
    small_net.commit(ResourceDelta(), s0, 5.0, 0.0)
    after_commit = small_net.residuals()
    bad = ResourceDelta()
    bad.node_cpu[s0] = 6.0
    with pytest.raises(AccountingError):
        small_net.release(bad)
    assert small_net.residuals() == after_commit


def test_bandwidth_overcommit_rejected():
    net = line_net(2, bw=5.0)
    with pytest.raises(CapacityError):
        net.commit(ResourceDelta(), 1, 0.0, 0.0, (0, 1), 6.0)


def test_random_commit_release_walk_is_lossless(small_net):
    """Residuals stay inside [0, max] and return exactly to the start."""
    rng = np.random.default_rng(7)
    initial = small_net.residuals()
    committed = []
    for _ in range(200):
        if committed and rng.random() < 0.4:
            small_net.release(committed.pop(int(rng.integers(len(committed)))))
        else:
            s = int(rng.choice(small_net.servers))
            node = small_net.nodes[s]
            switch = list(small_net.link_index[s])[0]
            cap_bw = small_net.bw[small_net.link_index[s][switch]]
            # integer demands, like real traffic: release order then
            # cannot lose precision
            delta = ResourceDelta()
            small_net.commit(
                delta, s, float(rng.integers(0, int(node.cap_cpu) + 1)),
                float(rng.integers(0, int(node.cap_ram) + 1)), (s, switch),
                float(rng.integers(0, int(cap_bw) + 1)))
            if delta.is_empty():
                continue
            committed.append(delta)
        for n in small_net.nodes:
            assert -1e-9 <= n.cap_cpu <= n.max_cpu + 1e-9
            assert -1e-9 <= n.cap_ram <= n.max_ram + 1e-9
        for link in small_net.links.values():
            assert -1e-9 <= link.cap_bw <= link.max_bw + 1e-9
    while committed:
        small_net.release(committed.pop())
    assert small_net.residuals() == initial


def test_commits_add_up_in_one_holding_and_round_trip():
    net = line_net(3, bw=10.0)
    a = ResourceDelta()
    assert a.is_empty()
    net.commit(a, 0, 1.0, 2.0, (2, 1, 0), 3.0)
    net.commit(a, 0, 0.5, 0.0, (0, 1), 1.0)  # same link, other orientation
    assert a.node_cpu == {0: 1.5}
    assert a.node_ram == {0: 2.0}           # a zero amount adds no entry
    assert a.link_bw == {(1, 2): 3.0, (0, 1): 4.0}
    restored = ResourceDelta.from_dict(a.to_dict())
    assert restored.node_cpu == a.node_cpu
    assert restored.node_ram == a.node_ram
    assert restored.link_bw == a.link_bw
    assert ResourceDelta().is_empty()
    assert not a.is_empty()


# -- graph views ------------------------------------------------------------

def test_adjacency_matrix(small_net):
    m = small_net.adjacency_matrix()
    assert m.shape == (len(small_net.nodes),) * 2
    assert np.array_equal(m, m.T)
    assert not m.diagonal().any()
    for i, links in enumerate(small_net.link_index):
        assert m[i].sum() == len(links)
        # neighbours ascend, whatever order add_link was called in
        assert list(links) == sorted(links)


def test_fingerprint_identifies_topology_not_load():
    """Same wiring gives the same hash; residual load does not affect it."""
    a = build_reference_topology("tiny")
    b = build_reference_topology("tiny")
    assert a.fingerprint() == b.fingerprint()
    a.commit(ResourceDelta(), a.servers[0], 1.0, 0.0)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != build_reference_topology("small").fingerprint()
    different = TopologyCounts(edc_count=1, servers_per_edc=3,
                               server_cpu=60.0)
    assert build_reference_topology(different).fingerprint() != b.fingerprint()


def test_capacities_are_views_onto_one_record(small_net):
    """cap_* read and write the network's flat lists; there is no second
    copy, and every read is a Python float."""
    s = small_net.servers[1]
    node = small_net.nodes[s]
    node.cap_cpu -= 1.0
    assert small_net.cpu[s] == node.max_cpu - 1.0
    small_net.ram[s] = 12.5
    assert node.cap_ram == 12.5
    key, link = next(iter(small_net.links.items()))
    link.cap_bw = 3
    assert small_net.bw[link.index] == 3.0
    assert small_net.residuals()["bw"][key] == 3.0
    for value in (node.cap_cpu, node.cap_ram, node.max_cpu, link.cap_bw,
                  link.max_bw):
        assert type(value) is float
    # residuals() hands out a copy
    copy = small_net.residuals()
    copy["cpu"][s] = -1.0
    assert node.cap_cpu == node.max_cpu - 1.0


def test_wiring_clears_the_route_table():
    net = line_net(3, bw=1.0)
    assert route_all(net, 0, 1.0)[2] == (0, 1, 2)
    assert 0 in net.route_table
    net.add_link(0, 2, 1.0)
    assert not net.route_table
    assert route_all(net, 0, 1.0)[2] == (0, 2)


@pytest.mark.parametrize("field, value", [
    ("edc_count", float("nan")), ("edc_count", 1.5), ("edc_count", -1),
    ("servers_per_edc", True), ("ccp_servers", "2"),
    ("server_cpu", float("inf")), ("server_ram", 0.0), ("server_cpu", None),
])
def test_topology_counts_check_their_fields(field, value):
    kwargs = {"edc_count": 1, "servers_per_edc": 2, field: value}
    with pytest.raises(ConfigurationError, match=f"TopologyCounts.{field}"):
        TopologyCounts(**kwargs)
