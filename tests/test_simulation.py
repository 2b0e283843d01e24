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
    CheckpointError,
    Departure,
    HeuristicPolicy,
    InvariantError,
    LoadModel,
    Simulation,
    SliceRequest,
    build_reference_topology,
    gar,
    generate_events,
    load_scenario,
    request_from_class,
)

from slicesim.networks import load_checkpoint, save_checkpoint
from oracles import audit_ledger
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
    while sim.step():
        assert audit_ledger(sim, eps=1e-9) == []


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


def test_a_spent_arrival_budget_takes_no_arrival():
    net, events = tiny_stream()
    sim = Simulation(net, events, HeuristicPolicy())
    assert sim.run(max_arrivals=0) == []
    assert sim.cursor == 0


def test_records_are_indexed_in_arrival_order():
    net, events = tiny_stream()
    sim = Simulation(net, events, HeuristicPolicy())
    records = sim.run()
    assert [r.index for r in records] == list(range(1, len(records) + 1))
    arrival_uids = [e.uid for e in events if isinstance(e, SliceRequest)]
    assert [r.uid for r in records] == arrival_uids


def test_on_arrival_hook_fires_per_arrival():
    net, events = tiny_stream(horizon=150.0)
    seen = []
    sim = Simulation(net, events, HeuristicPolicy())
    sim.run(on_arrival=lambda n, s: seen.append(n))
    assert seen == list(range(1, len(sim.records) + 1))


def test_out_of_order_stream_is_fatal():
    net, _ = tiny_stream()
    cls = tiny_classes()[1]
    r1 = request_from_class(cls, uid=0, time=10.0)
    r2 = request_from_class(cls, uid=1, time=2.0)
    sim = Simulation(net, [r1, r2], HeuristicPolicy())
    sim.step()
    with pytest.raises(InvariantError):
        sim.step()


def test_duplicate_uid_is_fatal():
    net, _ = tiny_stream()
    cls = tiny_classes()[1]
    r1 = request_from_class(cls, uid=7, time=1.0)
    r2 = request_from_class(cls, uid=7, time=2.0)
    sim = Simulation(net, [r1, r2], HeuristicPolicy())
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
    big = uniform_request(1, 60.0, 10.0, 1.0, uid=0, time=1.0)
    sim = Simulation(net, [big, Departure(2.0, 0, 0)], HeuristicPolicy())
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
    assert len(sim2.records) == 10
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


def test_snapshot_restore_checks_the_arrival_count(tmp_path):
    net, events = tiny_stream()
    sim = Simulation(net, events, HeuristicPolicy())
    sim.run(max_arrivals=5)
    snap = tmp_path / "sim.snap"
    sim.snapshot(snap)
    outer, arrays = load_checkpoint(snap)
    manifest = json.loads(outer["manifest_json"])
    assert manifest["arrivals_seen"] == 5
    manifest["arrivals_seen"] = 6
    save_checkpoint(snap, {"manifest_json": json.dumps(manifest)}, arrays)
    net2, events2 = tiny_stream()
    with pytest.raises(CheckpointError, match="'arrivals_seen'"):
        Simulation(net2, events2, HeuristicPolicy()).restore(snap)


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


def drop_rng_state(manifest, arrays):
    del manifest["policy"]["rng_state"]


def widen_actor_output(manifest, arrays):
    w = arrays["policy.actor.out.w"]
    arrays["policy.actor.out.w"] = np.zeros((w.shape[0], w.shape[1] + 1))


def fractional_episodes_trained(manifest, arrays):
    manifest["policy"]["episodes_trained"] = 2.7


def string_heu_queries(manifest, arrays):
    manifest["policy"]["heu_queries"] = "4"


def fractional_cursor(manifest, arrays):
    manifest["cursor"] = 35.7


def cursor_beyond_the_stream(manifest, arrays):
    manifest["cursor"] = 1000000


def cursor_behind_its_records(manifest, arrays):
    manifest["cursor"] = 0


def truncated_link_residuals(manifest, arrays):
    arrays["net.bw"] = arrays["net.bw"][:-1]


def string_clock(manifest, arrays):
    manifest["clock"] = str(manifest["clock"])


def garbled_manifest_json(manifest, arrays):
    return "{not json"


def first_ledger_entry(manifest):
    assert manifest["ledger"]
    return next(iter(manifest["ledger"].values()))


def ledger_amount_not_a_number(manifest, arrays):
    cpu = first_ledger_entry(manifest)["node_cpu"]
    cpu[next(iter(cpu))] = "x"


def ledger_node_not_in_the_network(manifest, arrays):
    cpu = first_ledger_entry(manifest)["node_cpu"]
    cpu["999"] = cpu.pop(next(iter(cpu)))


def ledger_amount_nan(manifest, arrays):
    ram = first_ledger_entry(manifest)["node_ram"]
    ram[next(iter(ram))] = float("nan")


def record_uid_not_a_number(manifest, arrays):
    manifest["records"][0][1] = "a"


# each corruption, and the field its CheckpointError names
CORRUPTIONS = [
    (drop_rng_state, "rng_state"), (widen_actor_output, "out.w"),
    (fractional_episodes_trained, "episodes_trained"),
    (string_heu_queries, "heu_queries"), (fractional_cursor, "cursor"),
    (cursor_beyond_the_stream, "cursor"), (cursor_behind_its_records, "cursor"),
    (truncated_link_residuals, "net.bw"),
    (string_clock, "clock"), (garbled_manifest_json, "manifest_json"),
    (ledger_amount_not_a_number, "ledger"),
    (ledger_node_not_in_the_network, "ledger"),
    (ledger_amount_nan, "ledger"), (record_uid_not_a_number, "records")]


@pytest.mark.parametrize("corrupt,field", [
    pytest.param(corrupt, field, id=corrupt.__name__)
    for corrupt, field in CORRUPTIONS])
def test_failed_restore_leaves_the_run_unchanged(tmp_path, corrupt, field):
    def fresh():
        net, events = tiny_stream()
        agent = Agent(AgentConfig.for_variant("drl"), net)
        return Simulation(net, events, AgentPolicy(agent, train=True))

    sim = fresh()
    sim.run(max_arrivals=35)
    snap = tmp_path / "sim.snap"
    sim.snapshot(snap)
    outer, arrays = load_checkpoint(snap)
    manifest = json.loads(outer["manifest_json"])
    text = corrupt(manifest, arrays) or json.dumps(manifest)
    save_checkpoint(snap, {"manifest_json": text}, arrays)

    target = fresh()
    target.run(max_arrivals=3)
    clock, cursor = target.clock, target.cursor
    ledger = {uid: d.to_dict() for uid, d in target.ledger.items()}
    records = list(target.records)
    residuals = target.net.residuals()
    actor = {k: v.copy()
             for k, v in target.policy.agent.actor.params.arrays().items()}
    with pytest.raises(CheckpointError, match=f"'{field}'"):
        target.restore(snap)
    assert (target.clock, target.cursor) == (clock, cursor)
    assert {uid: d.to_dict() for uid, d in target.ledger.items()} == ledger
    assert target.records == records
    assert target.net.residuals() == residuals
    after = target.policy.agent.actor.params.arrays()
    for k in actor:
        np.testing.assert_array_equal(after[k], actor[k])


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


@pytest.mark.parametrize("variant, arrivals", [("heuristic", 2000),
                                               ("ha-edrl", 25)])
def test_ledger_audit_holds_after_every_event(variant, arrivals):
    """On reference, after every event each residual is its maximum minus
    the ledger's holdings and none is negative, for the heuristic and
    for a training hybrid that rolls back partial placements."""
    scenario = load_scenario("reference")
    net = scenario.build_network()
    events = scenario.generate_events(seed=1)
    steps = []
    if variant == "heuristic":
        policy = HeuristicPolicy(trace_sink=steps.append)
    else:
        agent = Agent(AgentConfig.for_variant(variant), net,
                      scenario.build_load_model(net))
        policy = AgentPolicy(agent, train=True, trace_sink=steps.append)
    sim = Simulation(net, events, policy)
    departures = 0
    while len(sim.records) < arrivals:
        departures += isinstance(events[sim.cursor], Departure)
        assert sim.step()
        problems = audit_ledger(sim)
        assert not problems, (sim.cursor, problems[:5])
    assert any(r.accepted for r in sim.records)
    if variant == "heuristic":
        assert departures > 0
    else:       # failures after a commit, each rolled back
        assert any(not s["success"] and s["step"] >= 2 for s in steps)


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
