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
    tiers = {}
    for dc in full_net_template.data_centers.values():
        tiers.setdefault(dc.tier, []).append(dc)
    assert len(tiers["edc"]) == 15
    assert len(tiers["cdc"]) == 5
    assert len(tiers["ccp"]) == 1
    assert all(len(dc.servers) == 4 for dc in tiers["edc"])
    assert all(len(dc.servers) == 10 for dc in tiers["cdc"])
    assert len(tiers["ccp"][0].servers) == 16


def test_every_server_is_a_star_leaf(full_net_template):
    net = full_net_template
    for dc in net.data_centers.values():
        for s in dc.servers:
            assert list(net.link_index[s]) == [dc.switch]


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
    ring = [dc.switch for dc in net.data_centers.values() if dc.tier == "cdc"]
    assert len(ring) == 5
    for i, sw in enumerate(ring):
        nxt = ring[(i + 1) % len(ring)]
        assert net.link(sw, nxt).max_bw == 100.0


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
    ccp = next(dc for dc in full_net.data_centers.values()
               if dc.tier == "ccp")
    server = ccp.servers[0]
    assert full_net.max_outgoing_bw(server) == 100.0
    delta = ResourceDelta()
    delta.add_link(server, ccp.switch, 2.0)
    full_net.commit(delta)
    assert full_net.outgoing_bw(server) == 98.0
    assert full_net.max_outgoing_bw(server) == 100.0


def test_commit_release_round_trip(small_net):
    before = small_net.residuals()
    delta = ResourceDelta()
    s = small_net.servers[0]
    delta.add_node(s, cpu=10.0, ram=20.0)
    delta.add_link(s, list(small_net.link_index[s])[0], 3.0)
    small_net.commit(delta)
    assert small_net.nodes[s].cap_cpu == small_net.nodes[s].max_cpu - 10.0
    assert small_net.residuals() != before
    small_net.release(delta)
    assert small_net.residuals() == before


def test_overcommit_rejected_atomically(small_net):
    s0, s1 = small_net.servers[:2]
    before = small_net.residuals()
    delta = ResourceDelta()
    delta.add_node(s0, cpu=1.0)
    delta.add_node(s1, cpu=small_net.nodes[s1].max_cpu + 1.0)
    with pytest.raises(CapacityError):
        small_net.commit(delta)
    # the feasible part of the delta must not have leaked through
    assert small_net.residuals() == before


def test_over_release_rejected_atomically(small_net):
    s0 = small_net.servers[0]
    commit = ResourceDelta()
    commit.add_node(s0, cpu=5.0)
    small_net.commit(commit)
    after_commit = small_net.residuals()
    bad = ResourceDelta()
    bad.add_node(s0, cpu=6.0)
    with pytest.raises(AccountingError):
        small_net.release(bad)
    assert small_net.residuals() == after_commit


def test_bandwidth_overcommit_rejected():
    net = line_net(2, bw=5.0)
    delta = ResourceDelta()
    delta.add_link(0, 1, 6.0)
    with pytest.raises(CapacityError):
        net.commit(delta)


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
            link = small_net.link(s, switch)
            # integer demands, like real traffic: release order then
            # cannot lose precision
            delta = ResourceDelta()
            delta.add_node(s, cpu=float(rng.integers(0, int(node.cap_cpu) + 1)),
                           ram=float(rng.integers(0, int(node.cap_ram) + 1)))
            delta.add_link(s, switch,
                           float(rng.integers(0, int(link.cap_bw) + 1)))
            if delta.is_empty():
                continue
            small_net.commit(delta)
            committed.append(delta)
        for n in small_net.nodes:
            assert -1e-9 <= n.cap_cpu <= n.max_cpu + 1e-9
            assert -1e-9 <= n.cap_ram <= n.max_ram + 1e-9
        for link in small_net.links.values():
            assert -1e-9 <= link.cap_bw <= link.max_bw + 1e-9
    while committed:
        small_net.release(committed.pop())
    assert small_net.residuals() == initial


def test_resource_delta_merge_and_dict_round_trip():
    a = ResourceDelta()
    a.add_node(0, cpu=1.0, ram=2.0)
    a.add_link(0, 1, 3.0)
    b = ResourceDelta()
    b.add_node(0, cpu=0.5)
    b.add_node(2, ram=1.0)
    b.add_link(1, 0, 1.0)  # same link, opposite orientation
    a.merge(b)
    assert a.node_cpu[0] == 1.5
    assert a.node_ram[0] == 2.0
    assert a.node_ram[2] == 1.0
    assert a.link_bw[(0, 1)] == 4.0
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
    delta = ResourceDelta()
    delta.add_node(a.servers[0], cpu=1.0)
    a.commit(delta)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != build_reference_topology("small").fingerprint()
    different = TopologyCounts(edc_count=1, servers_per_edc=3,
                               server_cpu=60.0)
    assert build_reference_topology(different).fingerprint() != b.fingerprint()


def test_residuals_set_residuals_round_trip(small_net):
    delta = ResourceDelta()
    delta.add_node(small_net.servers[0], cpu=7.0)
    small_net.commit(delta)
    saved = small_net.residuals()
    small_net.release(delta)
    small_net.set_residuals(saved)
    assert small_net.nodes[small_net.servers[0]].cap_cpu == \
        small_net.nodes[small_net.servers[0]].max_cpu - 7.0


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


def test_set_residuals_checks_lengths(small_net):
    state = small_net.residuals()
    state["cpu"] = state["cpu"][:-1]
    before = small_net.residuals()
    with pytest.raises(ConfigurationError, match="residuals hold"):
        small_net.set_residuals(state)
    assert small_net.residuals() == before


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
