"""Placement engine: routing, step scoring, rollback, episode rewards."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slicesim import (
    CapacityError,
    ConfigurationError,
    HeuristicPolicy,
    NodeKind,
    PlacementEpisodeState,
    ResourceDelta,
    Simulation,
    SubstrateNetwork,
    apply_action,
    episode_reward,
    fail_step,
    load_scenario,
    route,
    route_all,
)
from slicesim import placement

from conftest import examples, line_net, random_substrate, uniform_request
from oracles import is_feasible
from oracles import brute_route, sweep_closeness, sweep_paths


# -- routing -----------------------------------------------------------------

def test_route_same_node_is_empty(tiny_net):
    s = tiny_net.servers[0]
    assert route(tiny_net, s, s, 5.0) == ()


def test_route_through_switch(tiny_net):
    s0, s1 = tiny_net.servers[:2]
    switch = list(tiny_net.link_index[s0])[0]
    assert route(tiny_net, s0, s1, 1.0) == (s0, switch, s1)


def test_route_respects_residual_bandwidth():
    net = line_net(3, bw=[5.0, 2.0])
    assert route(net, 0, 2, 2.0) == (0, 1, 2)
    assert route(net, 0, 2, 2.5) is None
    assert route(net, 0, 1, 5.0) == (0, 1)


def test_route_prefers_fewest_hops():
    # triangle plus a detour: direct edge must win over the two-hop path
    net = SubstrateNetwork()
    for _ in range(3):
        net.add_node(NodeKind.SERVER, max_cpu=1.0, max_ram=1.0)
    net.add_link(0, 1, 10.0)
    net.add_link(1, 2, 10.0)
    net.add_link(0, 2, 10.0)
    assert route(net, 0, 2, 1.0) == (0, 2)


def test_route_tie_breaks_to_smallest_sequence():
    # diamond: 0-1-3 and 0-2-3 are both two hops; the smaller sequence wins
    net = SubstrateNetwork()
    for _ in range(4):
        net.add_node(NodeKind.SERVER, max_cpu=1.0, max_ram=1.0)
    net.add_link(0, 2, 10.0)
    net.add_link(0, 1, 10.0)
    net.add_link(1, 3, 10.0)
    net.add_link(2, 3, 10.0)
    assert route(net, 0, 3, 1.0) == (0, 1, 3)
    # saturating the preferred branch flips the choice
    assert route(net, 0, 3, 10.0) == (0, 1, 3)
    net.commit(ResourceDelta(), 1, 0.0, 0.0, (0, 1), 5.0)
    assert route(net, 0, 3, 10.0) == (0, 2, 3)


@pytest.mark.parametrize("call, name", [
    (lambda net: route_all(net, -1, 1.0), "src"),
    (lambda net: route_all(net, len(net.nodes), 1.0), "src"),
    (lambda net: route_all(net, 0, math.nan), "bw"),
    (lambda net: route(net, -1, 2, 1.0), "src"),
    (lambda net: route(net, len(net.nodes), 2, 1.0), "src"),
    (lambda net: route(net, 0, -1, 1.0), "dst"),
    (lambda net: route(net, 0, len(net.nodes), 1.0), "dst"),
    (lambda net: route(net, 0, 2, math.nan), "bw"),
])
def test_bad_routing_input_is_refused(tiny_net, call, name):
    """A src or dst outside the node ids and a NaN bw raise
    ConfigurationError naming the argument, and cache nothing."""
    with pytest.raises(ConfigurationError, match=f"^{name}: "):
        call(tiny_net)
    assert not tiny_net.route_table


def test_routes_read_as_the_dict_sweep():
    """Routes answers get, [], in, len and iteration as the old sweep's
    dict did, whatever order its paths are first read in; each path is
    built once and kept."""
    rng = np.random.default_rng(7)
    nets = [random_substrate(rng, max_servers=5) for _ in range(10)]
    nets += [ring_with_chords(rng, int(rng.integers(4, 8)))
             for _ in range(5)]
    for net in nets:
        n = len(net.nodes)
        for bw in (1.0, 3.0, 5.0):
            for src in range(n):
                want = sweep_paths(net, src, bw)
                paths = placement._sweep(net, src, bw)
                for node in rng.permutation(n + 2) - 1:   # -1 .. n
                    assert paths.get(node) == want.get(node)
                    assert paths.get(node, "x") == want.get(node, "x")
                    assert (node in paths) == (node in want)
                    if node in want:
                        assert paths[node] is paths[node] == want[node]
                        assert {type(x) for x in paths[node]} <= {int}
                    else:
                        with pytest.raises(KeyError):
                            paths[node]
                assert len(paths) == len(want)
                assert list(paths) == list(want)
                assert list(paths.items()) == list(want.items())
                assert paths == want
                assert paths.closeness == sweep_closeness(net, want)
                with pytest.raises(TypeError):
                    paths[src] = ()


def ring_with_chords(rng, n):
    """n-cycle plus random chords: many equal-hop routes between nodes."""
    net = SubstrateNetwork()
    for _ in range(n):
        net.add_node(NodeKind.SERVER, max_cpu=1.0, max_ram=1.0)
    for i in range(n):
        net.add_link(i, (i + 1) % n, float(rng.integers(1, 5)))
    for _ in range(int(rng.integers(1, n))):
        a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        if (a, b) not in net.links:
            net.add_link(a, b, float(rng.integers(1, 5)))
    return net


def bipartite_partly_saturated(rng, left, right):
    """Complete bipartite graph, all 4 Gbps, some links drawn down."""
    net = SubstrateNetwork()
    for _ in range(left + right):
        net.add_node(NodeKind.SERVER, max_cpu=1.0, max_ram=1.0)
    # node ids interleave the sides so ties do not follow the side split
    sides = rng.permutation(left + right)
    a_side, b_side = sides[:left], sides[left:]
    for a in a_side:
        for b in b_side:
            net.add_link(int(a), int(b), 4.0)
    held = ResourceDelta()
    for a, b in net.links:
        if rng.random() < 0.4:
            net.commit(held, a, 0.0, 0.0, (a, b), float(rng.integers(1, 4)))
    return net


def test_route_matches_bruteforce_on_random_graphs():
    rng = np.random.default_rng(13)
    nets = [random_substrate(rng, max_servers=4) for _ in range(40)]
    # tie-rich shapes: many equal-hop paths, so tie-breaking decides
    nets += [ring_with_chords(rng, int(rng.integers(4, 8)))
             for _ in range(15)]
    nets += [bipartite_partly_saturated(rng, int(rng.integers(2, 4)),
                                        int(rng.integers(2, 5)))
             for _ in range(15)]
    for net in nets:
        n = len(net.nodes)
        for bw in (1.0, 2.0, 4.0):
            for src in range(n):
                for dst in range(n):
                    assert route(net, src, dst, bw) == \
                        brute_route(net, src, dst, bw), (src, dst, bw)


def test_route_all_agrees_with_route():
    rng = np.random.default_rng(29)
    for _ in range(10):
        net = random_substrate(rng, max_servers=4)
        for src in range(len(net.nodes)):
            paths = route_all(net, src, 1.0)
            assert paths[src] == ()
            for dst in range(len(net.nodes)):
                expect = route(net, src, dst, 1.0)
                assert paths.get(dst) == expect


def test_cached_route_all_equals_the_sweep_and_brute_force():
    """On random graphs and random residual states, route_all equals an
    uncached sweep (same paths, same order) and the brute-force router.
    When every link holds bw, its answer is the route table's entry."""
    rng = np.random.default_rng(41)
    nets = [random_substrate(rng, max_servers=5) for _ in range(15)]
    nets += [ring_with_chords(rng, int(rng.integers(4, 8)))
             for _ in range(10)]
    nets += [bipartite_partly_saturated(rng, int(rng.integers(2, 4)),
                                        int(rng.integers(2, 5)))
             for _ in range(10)]
    for net in nets:
        for _ in range(3):
            held = ResourceDelta()
            for a, b in net.links:
                if rng.random() < 0.3:
                    net.commit(held, a, 0.0, 0.0, (a, b),
                               float(rng.uniform(0.0, 1.0))
                               * net.bw[net.link_index[a][b]])
            low = min(net.bw)
            for bw in (low - 0.5, low, low + 1e-9, low + 1e-8, 1.0, 3.0):
                for src in range(len(net.nodes)):
                    paths = route_all(net, src, bw)
                    swept = sweep_paths(net, src, bw)
                    assert list(paths.items()) == list(swept.items())
                    entry = net.route_table.get(src)
                    assert (entry is not None and paths is entry) == \
                        (low + 1e-9 >= bw)
                    for dst in range(len(net.nodes)):
                        assert paths.get(dst) == \
                            brute_route(net, src, dst, bw), (src, dst, bw)
                    hops = [len(paths[s]) - 1 if s in paths else None
                            for s in net.servers]
                    assert paths.closeness == [
                        None if h is None else 1.0 / h if h > 0 else 1.0
                        for h in hops]
                    assert paths.closeness == sweep_closeness(net, swept)


# one step of a walk over a substrate: what it does, two picks (taken
# modulo the servers, nodes, holdings or links there are) and an amount
WALK = st.lists(st.tuples(
    st.sampled_from(("commit", "release", "rollback", "link")),
    st.integers(0, 63), st.integers(0, 63),
    st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0, 4.0))), max_size=12)


@settings(max_examples=examples(150), deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), walk=WALK)
def test_the_kept_floor_routes_as_a_scan_of_the_links(seed, walk):
    """Through random commits, releases, rollbacks and one-link commits on
    a random substrate, bw_floor stays min(bw), and route_all at
    bandwidths around it equals the uncached sweep and the brute-force
    router."""
    net = random_substrate(np.random.default_rng(seed), max_servers=5)
    nodes, servers, keys = range(len(net.nodes)), net.servers, \
        list(net.links)
    holdings = []
    for kind, i, j, amount in walk:
        before = list(net.bw)
        if kind == "commit":
            src = servers[i % len(servers)]
            path = placement._sweep(net, src, -math.inf)[j % len(nodes)]
            held = ResourceDelta()
            try:
                net.commit(held, src, 0.0, 0.0, path, amount)
                holdings.append(held)
            except CapacityError:       # a link short of amount
                assert net.bw == before
        elif kind == "release" and holdings:
            net.release(holdings.pop(i % len(holdings)))
        elif kind == "rollback":
            state = PlacementEpisodeState(uniform_request(3, 0.0, 0.0, amount))
            for k in (i, j, i + j):
                if not apply_action(state, net, servers[k % len(servers)]
                                    ).success:
                    break               # apply_action rolled it back
            placement.rollback(state, net)
            assert net.bw == before
        elif kind == "link":
            # a bw-only commit that takes one link down to amount, so
            # links reach any level between 0 and their maximum
            a, b = keys[i % len(keys)]
            take = net.bw[net.link_index[a][b]] - amount
            if take > 0:
                held = ResourceDelta()
                net.commit(held, a, 0.0, 0.0, (a, b), take)
                holdings.append(held)
        assert net.bw_floor == min(net.bw)
        low = net.bw_floor
        for bw in (low - 0.5, low, low + 1e-9, low + 1e-8, low + 1.0):
            for src in nodes:
                paths = route_all(net, src, bw)
                swept = sweep_paths(net, src, bw)
                assert list(paths.items()) == list(swept.items())
                for dst in nodes:
                    assert paths.get(dst) == \
                        brute_route(net, src, dst, bw), (src, dst, bw)


def test_no_caller_mutates_a_cached_sweep():
    """After 2,000 heuristic arrivals on reference, every route-table
    entry still equals the one a fresh substrate builds."""
    scenario = load_scenario("reference")
    net = scenario.build_network()
    Simulation(net, scenario.generate_events(seed=1),
               HeuristicPolicy()).run(max_arrivals=2000)
    assert len(net.route_table) > 50
    fresh = scenario.build_network()
    for src, paths in net.route_table.items():
        want = route_all(fresh, src, 0.0)
        assert want is fresh.route_table[src]
        assert list(paths.items()) == list(want.items())
        assert paths.closeness == want.closeness


# -- step application ----------------------------------------------------------

def two_server_net():
    """Two 50/300 servers joined through a switch, 10 Gbps per link."""
    net = SubstrateNetwork()
    net.add_node(NodeKind.SERVER, dc_id=0, max_cpu=50.0, max_ram=300.0)
    net.add_node(NodeKind.SERVER, dc_id=0, max_cpu=50.0, max_ram=300.0)
    sw = net.add_node(NodeKind.SWITCH, dc_id=0)
    net.add_link(0, sw, 10.0)
    net.add_link(1, sw, 10.0)
    return net


def test_first_step_scores():
    net = two_server_net()
    state = PlacementEpisodeState(uniform_request(2, 25.0, 150.0, 2.0))
    out = apply_action(state, net, 0)
    assert out.success and not out.terminal
    assert out.delta_a == 100.0
    assert out.delta_b == 2.0       # judged on the empty server
    assert out.delta_c == 1.0       # first VNF has no incoming VL
    assert out.step_product() == 200.0
    assert net.nodes[0].cap_cpu == 25.0
    assert net.nodes[0].cap_ram == 150.0


def test_second_step_across_two_hops():
    net = two_server_net()
    state = PlacementEpisodeState(uniform_request(2, 25.0, 150.0, 2.0))
    apply_action(state, net, 0)
    out = apply_action(state, net, 1)
    assert out.success and out.terminal
    assert out.delta_b == 2.0       # target judged before its own commit
    assert out.delta_c == 0.5       # two hops through the switch
    assert out.step_product() == 100.0
    assert net.bw[net.link_index[0][2]] == 8.0
    assert net.bw[net.link_index[1][2]] == 8.0


def test_colocation_scores_full_closeness():
    net = two_server_net()
    state = PlacementEpisodeState(uniform_request(2, 10.0, 60.0, 2.0))
    apply_action(state, net, 0)
    out = apply_action(state, net, 0)
    assert out.delta_c == 1.0
    # capacity factor reflects the first VNF already sitting there
    assert out.delta_b == pytest.approx(40.0 / 50.0 + 240.0 / 300.0)
    assert state.hosts.count(0) == 2
    # co-location consumed no bandwidth
    assert net.bw[net.link_index[0][2]] == 10.0


def test_infeasible_step_fails_and_rolls_back():
    net = two_server_net()
    state = PlacementEpisodeState(uniform_request(2, 30.0, 100.0, 2.0))
    before = net.residuals()
    out1 = apply_action(state, net, 0)
    assert out1.success
    out2 = apply_action(state, net, 0)  # 60 cpu will not fit on one server
    assert not out2.success and out2.terminal
    assert out2.delta_a == -100.0
    assert out2.delta_b == 0.0 and out2.delta_c == 0.0
    assert net.residuals() == before
    assert state.committed.is_empty()


def test_bandwidth_shortage_fails():
    net = line_net(2, bw=1.0, server_cpu=50.0, server_ram=300.0)
    state = PlacementEpisodeState(uniform_request(2, 10.0, 10.0, 2.0))
    apply_action(state, net, 0)
    before = net.residuals()
    out = apply_action(state, net, 1)
    assert not out.success
    assert is_feasible(state, net, 1) is False
    # rollback of the whole episode, not only the failed step
    assert net.nodes[0].cap_cpu == 50.0
    assert before != net.residuals()


def test_non_server_target():
    net = two_server_net()
    state = PlacementEpisodeState(uniform_request(2, 1.0, 1.0, 1.0))
    with pytest.raises(ConfigurationError):
        apply_action(state, net, 2)  # the switch
    with pytest.raises(ConfigurationError):
        apply_action(state, net, 99)
    assert state.next_vnf == 1 and state.committed.is_empty()


def test_completed_episode_rejects_more_actions():
    net = two_server_net()
    state = PlacementEpisodeState(uniform_request(1, 1.0, 1.0, 1.0))
    out = apply_action(state, net, 0)
    assert out.terminal and state.done
    with pytest.raises(ConfigurationError):
        apply_action(state, net, 1)


def test_fail_step_explicit():
    net = two_server_net()
    state = PlacementEpisodeState(uniform_request(3, 10.0, 10.0, 1.0))
    apply_action(state, net, 0)
    out = fail_step(state, net)
    assert not out.success and out.terminal
    assert out.delta_a == -100.0
    assert net.nodes[0].cap_cpu == 50.0


def test_chain_state_tracking():
    net = two_server_net()
    state = PlacementEpisodeState(uniform_request(3, 5.0, 5.0, 1.0))
    assert state.remaining == 3
    apply_action(state, net, 0)
    assert state.remaining == 2 and state.hosts == [0]
    apply_action(state, net, 1)
    apply_action(state, net, 1)
    assert state.done and state.hosts == [0, 1, 1]


def test_outcome_record_fields():
    net = two_server_net()
    state = PlacementEpisodeState(uniform_request(1, 1.0, 1.0, 1.0))
    out = apply_action(state, net, 0)
    rec = out.to_record(uid=7, step=1, target=0)
    assert rec == {"uid": 7, "step": 1, "target": 0, "path": [],
                   "delta_a": 100.0, "delta_b": 2.0, "delta_c": 1.0,
                   "success": True, "terminal": True}


# -- episode reward --------------------------------------------------------------

def test_reward_single_server_chain_is_maximal():
    """A whole chain on one empty zero-impact server scores the ceiling."""
    net = two_server_net()
    req = uniform_request(5, 0.0, 0.0, 0.0)
    state = PlacementEpisodeState(req)
    outcomes = [apply_action(state, net, 0) for _ in range(5)]
    assert [o.step_product() for o in outcomes] == [200.0] * 5
    total = sum(o.step_product() for o in outcomes)
    assert total == 1000.0
    rewards = episode_reward(outcomes, T=5)
    assert rewards[:-1] == [0.0] * 4
    assert rewards[-1] == 10.0  # exact ceiling of the scaled range


def test_reward_failure_is_flat_penalty():
    net = two_server_net()
    state = PlacementEpisodeState(uniform_request(2, 30.0, 100.0, 2.0))
    outcomes = [apply_action(state, net, 0), apply_action(state, net, 0)]
    rewards = episode_reward(outcomes, T=2)
    assert rewards == [0.0, -100.0]


def test_reward_scaling_and_bounds():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n_vnfs = int(rng.integers(1, 4))
        net = two_server_net()
        state = PlacementEpisodeState(
            uniform_request(n_vnfs, 5.0, 5.0, 1.0))
        outcomes = []
        ok = True
        for _ in range(n_vnfs):
            out = apply_action(state, net, int(rng.integers(0, 2)))
            outcomes.append(out)
            if not out.success:
                ok = False
                break
        rewards = episode_reward(outcomes, T=n_vnfs)
        if ok:
            total = sum(o.step_product() for o in outcomes)
            assert rewards[-1] == pytest.approx(total / (20.0 * n_vnfs))
            assert 0.0 < rewards[-1] <= 10.0
        else:
            assert rewards[-1] == -100.0
        assert all(r == 0.0 for r in rewards[:-1])


def test_reward_empty_outcomes_rejected():
    with pytest.raises(ConfigurationError):
        episode_reward([], T=1)
