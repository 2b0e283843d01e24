"""Greedy placement rule: scoring order, ties, saturation, oracle parity."""

import numpy as np
import pytest

from slicesim import (
    NodeKind,
    PlacementEpisodeState,
    ResourceDelta,
    SubstrateNetwork,
    apply_action,
    heu_place_full,
    heu_select,
)

from conftest import line_net, random_substrate, uniform_request
from oracles import brute_heu_choice, is_feasible


def test_empty_substrate_picks_first_server(tiny_net):
    state = PlacementEpisodeState(uniform_request(2, 5.0, 5.0, 1.0))
    advice = heu_select(state, tiny_net)
    assert advice.exists
    assert advice.server == tiny_net.servers[0]


def test_residual_capacity_outranks_closeness():
    # prev host is server 0; server 2 is farther but emptier
    net = line_net([(50.0, 300.0), (50.0, 300.0), (50.0, 300.0)], bw=10.0)
    net.commit(ResourceDelta(), 1, 20.0, 100.0)
    state = PlacementEpisodeState(uniform_request(2, 5.0, 5.0, 1.0))
    apply_action(state, net, 0)
    advice = heu_select(state, net)
    assert advice.server == 2


def test_closeness_breaks_capacity_ties():
    # star: every other server is two hops away; a zero-demand chain keeps
    # capacity scores equal, so co-location must win on closeness alone
    net = SubstrateNetwork()
    for _ in range(3):
        net.add_node(NodeKind.SERVER, max_cpu=50.0, max_ram=300.0)
    sw = net.add_node(NodeKind.SWITCH)
    for s in range(3):
        net.add_link(s, sw, 10.0)
    state = PlacementEpisodeState(uniform_request(2, 0.0, 0.0, 0.0))
    apply_action(state, net, 1)
    advice = heu_select(state, net)
    assert advice.server == 1
    # every link holds the demand: the sweep came from the route table,
    # where the previous host's empty path is hop 0, not unreachable
    assert advice.paths is net.route_table[1][0]


def test_equal_scores_fall_to_smallest_id():
    net = line_net(3, bw=10.0)
    state = PlacementEpisodeState(uniform_request(1, 5.0, 5.0, 1.0))
    assert heu_select(state, net).server == 0


def test_unreachable_servers_are_skipped():
    # plenty of capacity on server 2 but the second hop is too narrow
    net = line_net(3, bw=[10.0, 1.0])
    net.commit(ResourceDelta(), 0, 40.0, 200.0)
    state = PlacementEpisodeState(uniform_request(2, 5.0, 5.0, 2.0))
    apply_action(state, net, 0)
    advice = heu_select(state, net)
    assert advice.server == 1


def test_saturated_substrate_yields_no_advice():
    net = line_net(2, bw=10.0)
    fill = ResourceDelta()
    net.commit(fill, 0, 50.0, 0.0)
    net.commit(fill, 1, 50.0, 0.0)
    state = PlacementEpisodeState(uniform_request(1, 5.0, 5.0, 1.0))
    advice = heu_select(state, net)
    assert not advice.exists
    assert advice.server is None


def test_advice_is_always_feasible():
    rng = np.random.default_rng(17)
    for _ in range(60):
        net = random_substrate(rng, max_servers=4)
        n_vnfs = int(rng.integers(1, 4))
        req = uniform_request(n_vnfs,
                              float(rng.integers(1, 5)),
                              float(rng.integers(1, 5)),
                              float(rng.integers(1, 4)))
        state = PlacementEpisodeState(req)
        while not state.done:
            advice = heu_select(state, net)
            if not advice.exists:
                break
            assert is_feasible(state, net, advice.server)
            out = apply_action(state, net, advice.server)
            assert out.success


def test_matches_bruteforce_choice_on_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(80):
        net = random_substrate(rng, max_servers=4)
        n_vnfs = int(rng.integers(1, 4))
        req = uniform_request(n_vnfs,
                              float(rng.integers(1, 4)),
                              float(rng.integers(1, 4)),
                              float(rng.integers(1, 4)))
        state = PlacementEpisodeState(req)
        while not state.done:
            advice = heu_select(state, net)
            expected = brute_heu_choice(state, net)
            assert advice.server == expected
            if not advice.exists:
                break
            apply_action(state, net, advice.server)


def test_determinism(small_net):
    state = PlacementEpisodeState(uniform_request(3, 10.0, 50.0, 2.0))
    first = heu_select(state, small_net).server
    for _ in range(5):
        assert heu_select(state, small_net).server == first


# -- whole-request runner ------------------------------------------------------

def test_place_full_accepts_and_commits(tiny_net):
    req = uniform_request(3, 10.0, 50.0, 2.0, uid=1)
    accepted, state, outcomes = heu_place_full(req, tiny_net)
    assert accepted
    assert len(outcomes) == 3
    assert all(o.success for o in outcomes)
    assert not state.committed.is_empty()
    assert tiny_net.nodes[state.hosts[0]].cap_cpu < 50.0


def test_place_full_sweeps_once_per_step_after_the_first(tiny_net,
                                                         monkeypatch):
    """Each step's heu_select sweep also routes its apply_action."""
    from slicesim import heuristic, placement
    sweeps = []
    original = placement.route_all

    def counted(*args):
        sweeps.append(args[1])
        return original(*args)

    monkeypatch.setattr(placement, "route_all", counted)
    monkeypatch.setattr(heuristic, "route_all", counted)
    accepted, state, _ = heu_place_full(
        uniform_request(3, 10.0, 50.0, 2.0), tiny_net)
    assert accepted
    assert sweeps == state.hosts[:2]        # one sweep from each previous host


def test_place_full_rejects_and_restores(tiny_net):
    before = tiny_net.residuals()
    req = uniform_request(2, 60.0, 50.0, 2.0)  # cpu demand over capacity
    accepted, state, outcomes = heu_place_full(req, tiny_net)
    assert not accepted
    assert not outcomes[-1].success
    assert tiny_net.residuals() == before
    assert state.committed.is_empty()


def test_place_full_rolls_back_when_a_step_raises(tiny_net):
    """A trace sink that fails at step 2 leaves the substrate as it was."""
    before = tiny_net.residuals()
    seen = []

    def sink(record):
        if record["step"] == 2:
            seen.append(tiny_net.residuals())
            raise OSError("trace file not writable")

    with pytest.raises(OSError, match="not writable"):
        heu_place_full(uniform_request(3, 5.0, 5.0, 1.0), tiny_net,
                       trace_sink=sink)
    assert seen[0] != before                # steps 1 and 2 had committed
    assert tiny_net.residuals() == before


def test_place_full_traces_each_step(tiny_net):
    rows = []
    req = uniform_request(2, 5.0, 5.0, 1.0, uid=42)
    heu_place_full(req, tiny_net, trace_sink=rows.append)
    assert [r["step"] for r in rows] == [1, 2]
    assert all(r["uid"] == 42 for r in rows)
    assert all(r["success"] for r in rows)


def test_place_full_reject_trace_marks_failure():
    net = line_net(1, bw=10.0)
    net.commit(ResourceDelta(), 0, 50.0, 0.0)
    rows = []
    accepted, _, _ = heu_place_full(uniform_request(1, 5.0, 5.0, 1.0),
                                    net, trace_sink=rows.append)
    assert not accepted
    assert rows[-1]["success"] is False
    assert rows[-1]["target"] == -1
