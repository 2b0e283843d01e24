"""Event loop: conservation, ordering guards, snapshots, the golden run."""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from slicesim import (
    Agent,
    AgentConfig,
    AgentPolicy,
    Arrival,
    CheckpointError,
    Departure,
    HeuristicPolicy,
    InvariantError,
    LoadModel,
    Simulation,
    build_reference_topology,
    gar,
    generate_events,
    load_scenario,
    request_from_class,
)

from slicesim.networks import load_checkpoint, save_checkpoint
from test_agent import tiny_classes

DATA = pathlib.Path(__file__).parent / "data"


def tiny_stream(horizon=400.0, seed=0):
    net = build_reference_topology("tiny")
    model = LoadModel.from_network(tiny_classes(), net)
    return net, generate_events(model, horizon=horizon, seed=seed)


# -- stepping and accounting -----------------------------------------------------

def test_resources_conserved_at_every_event():
    net, events = tiny_stream()
    sim = Simulation(net, events, HeuristicPolicy())
    cpu_total = net.total_capacity("cpu")
    ram_total = net.total_capacity("ram")
    bw_total = net.total_capacity("bw")
    while sim.step():
        held = sim.held_resources()
        free_cpu = sum(n.cap_cpu for n in net.nodes)
        free_ram = sum(n.cap_ram for n in net.nodes)
        free_bw = sum(l.cap_bw for l in net.links.values())
        assert free_cpu + sum(held.node_cpu.values()) == pytest.approx(
            cpu_total, abs=1e-9)
        assert free_ram + sum(held.node_ram.values()) == pytest.approx(
            ram_total, abs=1e-9)
        assert free_bw + sum(held.link_bw.values()) == pytest.approx(
            bw_total, abs=1e-9)


def test_substrate_returns_to_empty_after_all_departures():
    net, events = tiny_stream()
    fresh = net.residuals()
    sim = Simulation(net, events, HeuristicPolicy())
    sim.run()
    assert not sim.ledger
    assert net.residuals() == fresh


def test_run_respects_arrival_budget_and_horizon():
    net, events = tiny_stream()
    sim = Simulation(net, events, HeuristicPolicy())
    records = sim.run(max_arrivals=5)
    assert len(records) == 5
    net2, events2 = tiny_stream()
    sim2 = Simulation(net2, events2, HeuristicPolicy())
    records2 = sim2.run(horizon=100.0)
    assert all(r.time < 100.0 for r in records2)
    assert sim2.clock < 100.0


def test_records_are_indexed_in_arrival_order():
    net, events = tiny_stream()
    sim = Simulation(net, events, HeuristicPolicy())
    records = sim.run()
    assert [r.index for r in records] == list(range(1, len(records) + 1))
    arrival_uids = [e.uid for e in events if isinstance(e, Arrival)]
    assert [r.uid for r in records] == arrival_uids


def test_on_arrival_hook_fires_per_arrival():
    net, events = tiny_stream(horizon=150.0)
    seen = []
    sim = Simulation(net, events, HeuristicPolicy())
    sim.run(on_arrival=lambda n, s: seen.append(n))
    assert seen == list(range(1, sim.arrivals_seen + 1))


def test_out_of_order_stream_is_fatal():
    net, _ = tiny_stream()
    cls = tiny_classes()[1]
    r1 = request_from_class(cls, uid=0, arrival_time=10.0, lifetime=5.0)
    r2 = request_from_class(cls, uid=1, arrival_time=2.0, lifetime=5.0)
    sim = Simulation(net, [Arrival(10.0, r1), Arrival(2.0, r2)],
                     HeuristicPolicy())
    sim.step()
    with pytest.raises(InvariantError):
        sim.step()


def test_duplicate_uid_is_fatal():
    net, _ = tiny_stream()
    cls = tiny_classes()[1]
    r1 = request_from_class(cls, uid=7, arrival_time=1.0, lifetime=50.0)
    r2 = request_from_class(cls, uid=7, arrival_time=2.0, lifetime=50.0)
    sim = Simulation(net, [Arrival(1.0, r1), Arrival(2.0, r2)],
                     HeuristicPolicy())
    sim.step()
    with pytest.raises(InvariantError):
        sim.step()


def test_unknown_departure_is_ignored():
    net, _ = tiny_stream()
    sim = Simulation(net, [Departure(1.0, uid=99, class_id=0)],
                     HeuristicPolicy())
    assert sim.step() is True
    assert sim.step() is False


def test_rejected_requests_hold_nothing():
    # request larger than the whole substrate: always rejected
    net, _ = tiny_stream()
    from conftest import uniform_request
    big = uniform_request(1, 60.0, 10.0, 1.0, uid=0)
    sim = Simulation(net, [Arrival(1.0, big), Departure(2.0, 0, 0)],
                     HeuristicPolicy())
    sim.run()
    assert sim.records[0].accepted is False
    assert not sim.ledger


# -- policies ----------------------------------------------------------------------

def test_agent_policy_names():
    net, _ = tiny_stream()
    agent = Agent(AgentConfig.for_variant("drl"), net)
    assert AgentPolicy(agent, train=True).name == "drl"
    assert AgentPolicy(agent, train=False).name == "drl-frozen"
    assert HeuristicPolicy().name == "heuristic"


def test_training_policy_updates_weights():
    net, events = tiny_stream(horizon=200.0)
    agent = Agent(AgentConfig.for_variant("drl", seed=0), net)
    before = {k: v.copy() for k, v in agent.actor.params.arrays().items()}
    Simulation(net, events, AgentPolicy(agent, train=True)).run()
    after = agent.actor.params.arrays()
    assert agent.episodes_trained > 0
    assert any(not np.array_equal(before[k], after[k]) for k in before)


def test_frozen_policy_keeps_weights():
    net, events = tiny_stream(horizon=200.0)
    agent = Agent(AgentConfig.for_variant("drl", seed=0), net)
    before = {k: v.copy() for k, v in agent.actor.params.arrays().items()}
    Simulation(net, events, AgentPolicy(agent, train=False)).run()
    after = agent.actor.params.arrays()
    assert agent.episodes_trained == 0
    for k in before:
        np.testing.assert_array_equal(before[k], after[k])


def test_same_seed_same_records_for_training_agent():
    def run():
        net, events = tiny_stream(horizon=300.0, seed=2)
        agent = Agent(AgentConfig.for_variant("ha-drl", seed=5), net)
        sim = Simulation(net, events, AgentPolicy(agent, train=True))
        return [(r.uid, r.accepted) for r in sim.run()]

    assert run() == run()


# -- snapshots ----------------------------------------------------------------------

def test_snapshot_restore_resumes_identically(tmp_path):
    net, events = tiny_stream(horizon=400.0)
    sim = Simulation(net, events, HeuristicPolicy())
    sim.run(max_arrivals=10)
    snap = tmp_path / "mid.snap"
    sim.snapshot(snap)
    tail_records = sim.run(max_arrivals=25)
    tail = [(r.index, r.uid, r.accepted) for r in tail_records]
    end_residuals = net.residuals()

    net2, events2 = tiny_stream(horizon=400.0)
    sim2 = Simulation(net2, events2, HeuristicPolicy())
    sim2.restore(snap)
    assert sim2.arrivals_seen == 10
    redone = sim2.run(max_arrivals=25)
    assert [(r.index, r.uid, r.accepted) for r in redone] == tail
    assert net2.residuals() == end_residuals


def test_snapshot_restores_training_agent(tmp_path):
    def fresh():
        net, events = tiny_stream(horizon=500.0, seed=3)
        agent = Agent(AgentConfig.for_variant("ha-drl", seed=1), net)
        return Simulation(net, events, AgentPolicy(agent, train=True))

    sim = fresh()
    sim.run(max_arrivals=8)
    snap = tmp_path / "train.snap"
    sim.snapshot(snap)
    done = sim.run(max_arrivals=20)
    finished = [(r.uid, r.accepted) for r in done]

    sim2 = fresh()
    sim2.restore(snap)
    redone = sim2.run(max_arrivals=20)
    assert [(r.uid, r.accepted) for r in redone] == finished
    a1 = sim.policy.agent.actor.params.arrays()
    a2 = sim2.policy.agent.actor.params.arrays()
    for k in a1:
        np.testing.assert_array_equal(a1[k], a2[k])


def test_snapshot_guards(tmp_path):
    net, events = tiny_stream()
    sim = Simulation(net, events, HeuristicPolicy())
    sim.run(max_arrivals=3)
    snap = tmp_path / "sim.snap"
    sim.snapshot(snap)

    other_topo = Simulation(build_reference_topology("small"), events,
                            HeuristicPolicy())
    with pytest.raises(CheckpointError):
        other_topo.restore(snap)

    net3, other_events = tiny_stream(seed=9)
    with pytest.raises(CheckpointError):
        Simulation(net3, other_events, HeuristicPolicy()).restore(snap)

    net4, events4 = tiny_stream()
    agent = Agent(AgentConfig.for_variant("drl"), net4)
    with pytest.raises(CheckpointError):
        Simulation(net4, events4, AgentPolicy(agent)).restore(snap)


def test_snapshot_rejects_agent_checkpoint(tmp_path):
    net, events = tiny_stream()
    agent = Agent(AgentConfig.for_variant("drl"), net)
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    sim = Simulation(net, events, HeuristicPolicy())
    with pytest.raises(CheckpointError):
        sim.restore(path)


@pytest.mark.parametrize("field", ["clock", "cursor", "ledger",
                                   "episodes_trained", "rng_state"])
def test_snapshot_restore_names_a_missing_field(tmp_path, field):
    def fresh():
        net, events = tiny_stream()
        agent = Agent(AgentConfig.for_variant("drl"), net)
        return Simulation(net, events, AgentPolicy(agent, train=False))

    sim = fresh()
    sim.run(max_arrivals=5)
    snap = tmp_path / "sim.snap"
    sim.snapshot(snap)
    outer, arrays = load_checkpoint(snap)
    manifest = json.loads(outer["manifest_json"])
    section = manifest["policy"] if field in manifest["policy"] else manifest
    del section[field]
    save_checkpoint(snap, {"manifest_json": json.dumps(manifest)}, arrays)
    with pytest.raises(CheckpointError, match=repr(field)):
        fresh().restore(snap)


def test_frozen_agent_snapshot_bytes_keep_their_format(tmp_path):
    """A frozen ha-edrl run on `tiny` snapshots to the same bytes as
    before the closed-form update: same actions, same container."""
    scenario = load_scenario("tiny")
    net = scenario.build_network()
    events = scenario.generate_events(seed=scenario.seed)
    agent = Agent(AgentConfig.for_variant("ha-edrl", seed=5), net,
                  scenario.build_load_model(net))
    sim = Simulation(net, events, AgentPolicy(agent, train=False))
    sim.run(max_arrivals=40)
    snap = tmp_path / "frozen.snap"
    sim.snapshot(snap)
    assert hashlib.sha256(snap.read_bytes()).hexdigest() == \
        "c1f5dec0ea718043721c2514851efddfc2b1419c94fec74a2e92e427f00a10de"


# -- the frozen reference trajectory ----------------------------------------------

def test_golden_heuristic_run_reproduces():
    golden = json.loads((DATA / "golden_heuristic.json").read_text())
    scenario = load_scenario(golden["scenario"])
    net = scenario.build_network()
    events = scenario.generate_events(seed=golden["traffic_seed"])
    sim = Simulation(net, events, HeuristicPolicy())
    records = sim.run(max_arrivals=golden["arrivals"])
    assert len(records) == golden["arrivals"]
    assert [int(r.accepted) for r in records[:100]] == golden["first_flags"]
    for upto, expect in golden["gar_checkpoints"].items():
        assert gar(records, int(upto)) == pytest.approx(expect, abs=1e-12)
    assert sum(r.accepted for r in records) == golden["accepted_total"]
    assert records[-1].time == golden["final_time"]
