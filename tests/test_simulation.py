"""Event loop: conservation, ordering guards, pinned runs, the golden run."""

import contextlib
import hashlib
import itertools
import json
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slicesim.agent
import slicesim.heuristic
from slicesim import (
    VARIANTS,
    Agent,
    AgentConfig,
    AgentPolicy,
    Departure,
    HeuristicPolicy,
    InvariantError,
    LoadModel,
    Simulation,
    SliceClass,
    SliceRequest,
    StaticArrival,
    TopologyCounts,
    build_reference_topology,
    gar,
    generate_events,
    load_scenario,
    request_from_class,
    write_records_csv,
)

from conftest import examples
from oracles import audit_ledger, order_problems
from test_agent import tiny_classes

DATA = pathlib.Path(__file__).parent / "data"


def tiny_stream(horizon=400.0, seed=0):
    net = build_reference_topology("tiny")
    return net, generate_events(tiny_classes(), horizon=horizon, seed=seed)


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
    """A held uid that arrives again is refused before it is placed, so
    the raise leaves the ledger and the residuals as they were."""
    net, _ = tiny_stream()
    cls = tiny_classes()[0]
    r1 = request_from_class(cls, uid=7, time=1.0)
    r2 = request_from_class(cls, uid=7, time=2.0)
    sim = Simulation(net, [r1, r2], HeuristicPolicy())
    sim.step()
    assert 7 in sim.ledger
    before = (net.residuals(), dict(sim.ledger))
    with pytest.raises(InvariantError, match="duplicate arrival uid 7"):
        sim.step()
    assert (net.residuals(), sim.ledger) == before
    assert audit_ledger(sim, eps=1e-9) == []


def test_a_raise_in_a_departures_release_keeps_its_ledger_entry():
    """The departing request's holding stays in the ledger until the
    substrate has taken it back."""
    net, _ = tiny_stream()
    request = request_from_class(tiny_classes()[0], uid=3, time=1.0)
    sim = Simulation(net, [request, Departure(2.0, 3, 0)], HeuristicPolicy())
    sim.step()
    assert 3 in sim.ledger
    before = (net.residuals(), dict(sim.ledger))
    with mock.patch.object(net, "release", side_effect=Injected("release")):
        with pytest.raises(Injected):
            sim.step()
    assert (net.residuals(), sim.ledger) == before
    assert audit_ledger(sim, eps=1e-9) == []


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


def test_a_raise_in_the_update_releases_the_request(monkeypatch):
    """The episode has committed when the update runs: an update that
    raised used to leave the request's resources held, out of the
    ledger."""
    scenario = load_scenario("tiny")
    net = scenario.build_network()
    events = scenario.generate_events(seed=0)
    agent = Agent(AgentConfig.for_variant("ha-drl", seed=0), net)
    sim = Simulation(net, events, AgentPolicy(agent, train=True))
    sim.run(max_arrivals=5)
    while isinstance(events[sim.cursor], Departure):
        sim.step()
    before = (net.residuals(), dict(sim.ledger))
    held = []

    def update(steps):
        held.append(net.residuals())
        raise RuntimeError("update failed")

    monkeypatch.setattr(agent, "update", update)
    with pytest.raises(RuntimeError, match="update failed"):
        sim.step()
    assert held[0] != before[0]         # the episode had committed
    assert (net.residuals(), sim.ledger) == before
    assert audit_ledger(sim, eps=1e-9) == []


# -- whole runs against the ledger audit ----------------------------------------

class Injected(Exception):
    """The one raise a fuzzed run injects."""


@st.composite
def whole_runs(draw):
    """A small substrate, 1-2 static classes and a policy, and optionally
    one raise at the n-th call of a placement step or of a training
    agent's update, in place of the call or after it."""
    counts = TopologyCounts(
        edc_count=draw(st.integers(1, 3)),
        servers_per_edc=draw(st.integers(1, 3)),
        cdc_count=draw(st.integers(0, 1)),
        servers_per_cdc=draw(st.integers(0, 2)),
        ccp_servers=draw(st.integers(0, 2)),
        server_cpu=draw(st.sampled_from([20.0, 50.0])),
        server_ram=draw(st.sampled_from([120.0, 300.0])))
    classes = [SliceClass(
        id=i, vnf_count=draw(st.integers(1, 4)),
        req_cpu=draw(st.sampled_from([5.0, 10.0, 20.0])),
        req_ram=draw(st.sampled_from([30.0, 60.0])),
        req_bw=draw(st.sampled_from([1.0, 4.0, 12.0])),
        mean_lifetime=draw(st.sampled_from([2.0, 10.0, 40.0])),
        arrival=StaticArrival(draw(st.sampled_from([0.2, 0.5, 1.0]))))
        for i in range(draw(st.integers(1, 2)))]
    variant = draw(st.sampled_from(("heuristic",) + VARIANTS))
    train = variant != "heuristic" and draw(st.booleans())
    sites = ["step", "update"] if train else ["step"]
    fault = draw(st.none() | st.tuples(st.sampled_from(sites),
                                       st.integers(1, 8), st.booleans()))
    return counts, classes, variant, train, fault, draw(st.integers(0, 3))


def raising_at(n, call, after):
    """call, except that its n-th call raises Injected: after running
    when after is set, else in its place."""
    calls = itertools.count(1)

    def stand_in(*args, **kwargs):
        if next(calls) != n:
            return call(*args, **kwargs)
        if after:
            call(*args, **kwargs)
        raise Injected(f"call {n}")
    return stand_in


@settings(max_examples=examples(40), deadline=None, database=None)
@given(run=whole_runs())
def test_whole_runs_keep_the_ledger_audit_clean(run):
    """After every event each residual is its maximum minus the ledger's
    holdings and the servers' kept order is a fresh sort; a raise in a
    step or an update leaves the substrate and the ledger as they were
    before the arrival."""
    counts, classes, variant, train, fault, seed = run
    net = build_reference_topology(counts)
    model = LoadModel.from_network(classes, net)
    events = generate_events(classes, horizon=20.0, seed=seed)
    if variant == "heuristic":
        policy, module = HeuristicPolicy(), slicesim.heuristic
    else:
        agent = Agent(AgentConfig.for_variant(variant, seed=seed), net, model)
        policy, module = AgentPolicy(agent, train=train), slicesim.agent
    patched = contextlib.nullcontext()
    if fault is not None:
        site, n, after = fault
        owner, name = ((agent, "update") if site == "update"
                       else (module, "apply_action"))
        patched = mock.patch.object(
            owner, name, raising_at(n, getattr(owner, name), after))
    sim = Simulation(net, events, policy)
    with patched:
        while True:
            before = (net.residuals(), dict(sim.ledger))
            try:
                if not sim.step():
                    break
            except Injected:
                assert (net.residuals(), sim.ledger) == before
                assert audit_ledger(sim, eps=1e-9) == []
                assert order_problems(net) == []
                break
            assert audit_ledger(sim, eps=1e-9) == []
            assert order_problems(net) == []


# -- pinned trajectories ------------------------------------------------------------

def test_frozen_agent_run_keeps_its_actions_and_residuals(tmp_path):
    """A frozen ha-edrl run on `tiny` keeps the same acceptance records,
    residuals and ledger bits across code changes: the one pin on a
    learner's actions."""
    scenario = load_scenario("tiny")
    net = scenario.build_network()
    events = scenario.generate_events(seed=scenario.seed)
    agent = Agent(AgentConfig.for_variant("ha-edrl", seed=5), net,
                  scenario.build_load_model(net))
    sim = Simulation(net, events, AgentPolicy(agent, train=False))
    sim.run(max_arrivals=40)
    csv = tmp_path / "records.csv"
    write_records_csv(sim.records, csv)
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == \
        "c8c508a98c2f1b54a4b534a079390b7bb04b9bf1702ec2dcb8d1e2b409360a22"
    assert repr((net.cpu, net.ram, net.bw)) == \
        "([20.0, 30.0, 40.0, 0.0], [120.0, 180.0, 240.0, 0.0], [9.0, 8.0, 9.0])"
    assert repr([(uid, d.node_cpu, d.node_ram, d.link_bw)
                 for uid, d in sim.ledger.items()]) == (
        "[(33, {0: 10.0, 1: 10.0}, {0: 60.0, 1: 60.0}, {(0, 3): 1.0, (1, 3): 1.0}), "
        "(38, {1: 10.0, 2: 10.0}, {1: 60.0, 2: 60.0}, {(1, 3): 1.0, (2, 3): 1.0}), "
        "(39, {0: 20.0}, {0: 120.0}, {})]")


@pytest.mark.parametrize("variant, records_sha256, checkpoint_sha256", [
    ("ha-drl",
     "22a21716223d939c7b1778572e30df411e609605efba253234caabe7039b32dc",
     "39d00e884e45c891add1f8fff85a70c39efef4cea5062d44df6024dc89b32a83"),
    ("ha-edrl",
     "c8c508a98c2f1b54a4b534a079390b7bb04b9bf1702ec2dcb8d1e2b409360a22",
     "f97fd73137135c0eb16f45e6e2075db1c710ffb0f830ac1007c9b192f4baddc7"),
])
def test_training_run_keeps_its_records_and_checkpoint(
        tmp_path, variant, records_sha256, checkpoint_sha256):
    """A training run on `tiny` keeps the same acceptance records and
    trained parameters across code changes: the pin on a learner's
    sampling and updates together."""
    scenario = load_scenario("tiny")
    net = scenario.build_network()
    events = scenario.generate_events(seed=scenario.seed)
    agent = Agent(AgentConfig.for_variant(variant, seed=5), net,
                  scenario.build_load_model(net))
    sim = Simulation(net, events, AgentPolicy(agent, train=True))
    sim.run(max_arrivals=40)
    assert agent.episodes_trained == 40
    csv, ckpt = tmp_path / "records.csv", tmp_path / "agent.ckpt"
    write_records_csv(sim.records, csv)
    agent.save(ckpt)
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == records_sha256
    assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == checkpoint_sha256


@pytest.mark.parametrize("variant, arrivals", [("heuristic", 2000),
                                               ("ha-edrl", 25)])
def test_ledger_audit_holds_after_every_event(variant, arrivals):
    """On reference, after every event each residual is its maximum minus
    the ledger's holdings and none is negative, and the servers' kept
    order is a fresh sort, for the heuristic and for a training hybrid
    that rolls back partial placements."""
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
        problems = audit_ledger(sim) + order_problems(net)
        assert not problems, (sim.cursor, problems[:5])
    assert any(r.accepted for r in sim.records)
    if variant == "heuristic":
        assert departures > 0
    else:       # failures after a commit, each rolled back
        assert any(not s["success"] and s["step"] >= 2 for s in steps)


# -- the frozen reference trajectory ----------------------------------------------

# SHA-256 of the golden run's per-step records in the --export-trace line
# form (one json.dumps line each): pins which servers and links every step
# took, not only which requests were accepted
GOLDEN_TRACE_SHA256 = (
    "276dd1796275ec5f182df714e1d3f4d0bd6c3d5672c6f9f50ec88e0879ed4d0d")


def test_golden_heuristic_run_reproduces():
    golden = json.loads((DATA / "golden_heuristic.json").read_text())
    scenario = load_scenario(golden["scenario"])
    net = scenario.build_network()
    events = scenario.generate_events(seed=golden["traffic_seed"])
    trace = hashlib.sha256()
    policy = HeuristicPolicy(
        trace_sink=lambda rec: trace.update((json.dumps(rec) + "\n").encode()))
    sim = Simulation(net, events, policy)
    records = sim.run(max_arrivals=golden["arrivals"])
    assert len(records) == golden["arrivals"]
    assert [int(r.accepted) for r in records[:100]] == golden["first_flags"]
    for upto, expect in golden["gar_checkpoints"].items():
        assert gar(records, int(upto)) == pytest.approx(expect, abs=1e-12)
    assert sum(r.accepted for r in records) == golden["accepted_total"]
    assert records[-1].time == golden["final_time"]
    assert trace.hexdigest() == GOLDEN_TRACE_SHA256


# SHA-256 of the per-step records of ha-edrl training on reference, traffic
# seed 1, 25 arrivals, in the same line form: the learner places most steps
# off the heuristic's pick, so this pins paths read from the advice's sweep
# for servers the heuristic passed over, unreachable ones included
HA_EDRL_TRACE_SHA256 = (
    "4a6919fa717e84ac06407e0938105eed4faf05bf5d39a390203e7df3660e5040")


def test_ha_edrl_training_trace_reproduces():
    scenario = load_scenario("reference")
    net = scenario.build_network()
    agent = Agent(scenario.agent_config("ha-edrl"), net,
                  scenario.build_load_model(net))
    trace = hashlib.sha256()
    policy = AgentPolicy(
        agent, train=True,
        trace_sink=lambda rec: trace.update((json.dumps(rec) + "\n").encode()))
    records = Simulation(net, scenario.generate_events(seed=1),
                         policy).run(max_arrivals=25)
    assert len(records) == 25
    assert trace.hexdigest() == HA_EDRL_TRACE_SHA256
