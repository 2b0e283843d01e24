"""Learning agent: shaping algebra, feature scaling, A2C updates, variants."""

import dataclasses
import hashlib
import json
import struct
import time

import numpy as np
import pytest
import scipy.stats

from slicesim import (
    Agent,
    AgentConfig,
    CheckpointError,
    ConfigurationError,
    HeuristicAdvice,
    LoadModel,
    PlacementEpisodeState,
    TopologyCounts,
    build_reference_topology,
    heu_select,
    load_scenario,
    route,
    uses_heuristic,
    uses_load,
)
from slicesim.agent import FeatureScaler, TraceStep
from slicesim.networks import (MAX_PARAMETERS, load_checkpoint,
                               save_checkpoint, softmax)

from conftest import uniform_request
from oracles import outgoing_bw, tape_update


def tiny_classes():
    """Request classes light enough for the tiny substrate's load bound."""
    from slicesim import DynamicArrival, SliceClass, StaticArrival
    return [
        SliceClass(id=0, name="bursty", vnf_count=2, req_cpu=1.0,
                   req_ram=2.0, req_bw=1.0, mean_lifetime=10.0,
                   arrival=DynamicArrival(amplitude=0.2, period=50.0)),
        SliceClass(id=1, name="steady", vnf_count=2, req_cpu=1.0,
                   req_ram=2.0, req_bw=1.0, mean_lifetime=30.0,
                   arrival=StaticArrival(rate=0.01)),
    ]


def tiny_agent(variant="drl", dtype=np.float32, **overrides):
    net = build_reference_topology("tiny")
    model = None
    if uses_load(variant):
        model = LoadModel.from_network(tiny_classes(), net)
    cfg = AgentConfig.for_variant(variant, **overrides)
    return Agent(cfg, net, model, dtype=dtype), net


# -- configuration ---------------------------------------------------------------

def test_variant_predicates():
    assert not uses_load("drl") and not uses_heuristic("drl")
    assert uses_load("edrl") and not uses_heuristic("edrl")
    assert not uses_load("ha-drl") and uses_heuristic("ha-drl")
    assert uses_load("ha-edrl") and uses_heuristic("ha-edrl")


def test_default_learning_rates():
    drl = AgentConfig.for_variant("drl")
    assert (drl.actor_lr, drl.critic_lr) == (5e-5, 1.25e-3)
    assert AgentConfig.for_variant("ha-drl").actor_lr == 5e-5
    edrl = AgentConfig.for_variant("edrl")
    assert (edrl.actor_lr, edrl.critic_lr) == (5.7e-5, 1.4e-3)
    assert AgentConfig.for_variant("ha-edrl").critic_lr == 1.4e-3
    assert drl.gamma == 0.99


def test_config_validation():
    with pytest.raises(ConfigurationError):
        AgentConfig.for_variant("sarsa")
    with pytest.raises(ConfigurationError):
        AgentConfig.for_variant("drl", actor_lr=0.0)
    with pytest.raises(ConfigurationError):
        AgentConfig.for_variant("drl", gamma=1.5)
    with pytest.raises(ConfigurationError):
        AgentConfig.for_variant("ha-drl", beta=0.0)
    with pytest.raises(ConfigurationError,
                       match="AgentConfig.eta: must be >= 0"):
        AgentConfig.for_variant("ha-edrl", eta=-1e-9)
    # eta shifts nothing without advice
    assert AgentConfig.for_variant("drl", eta=-5.0).eta == -5.0


def test_load_variant_needs_model():
    net = build_reference_topology("tiny")
    with pytest.raises(ConfigurationError):
        Agent(AgentConfig.for_variant("edrl"), net, None)
    # and a plain variant quietly ignores a supplied model
    model = LoadModel.from_network(tiny_classes(), net)
    agent = Agent(AgentConfig.for_variant("drl"), net, model)
    assert agent.load_model is None


# -- feature scaling ---------------------------------------------------------------

def test_psn_features_normalized(tiny_net):
    scaler = FeatureScaler(tiny_net)
    state = PlacementEpisodeState(uniform_request(4, 10.0, 30.0, 2.0))
    feats = scaler.psn_features(tiny_net, state)
    assert feats.shape == (len(tiny_net.nodes), 4)
    servers = tiny_net.servers
    np.testing.assert_allclose(feats[servers, 0], 1.0)   # empty substrate
    np.testing.assert_allclose(feats[servers, 1], 1.0)
    assert feats[:, 3].sum() == 0.0                       # nothing placed yet
    state.hosts.append(servers[0])
    state.hosts.append(servers[0])
    feats = scaler.psn_features(tiny_net, state)
    assert feats[servers[0], 3] == pytest.approx(0.5)     # 2 of 4 VNFs


def test_psn_features_match_per_node_sums_on_reference():
    """Bit for bit the per-node features, incident bw summed link by link
    in neighbour order, after commits that leave uneven link residuals."""
    from slicesim import ResourceDelta
    net = build_reference_topology("full")
    scaler = FeatureScaler(net)
    rng = np.random.default_rng(5)
    for _ in range(300):
        src, dst = (int(s) for s in rng.choice(net.servers, 2, replace=False))
        path = route(net, src, dst, 0.0)
        held = ResourceDelta()
        net.commit(held, src, rng.uniform(0.0, 1.0), rng.uniform(0.0, 6.0))
        for a, b in zip(path, path[1:]):
            net.commit(held, a, 0.0, 0.0, (a, b), rng.uniform(0.0, 0.2))
    state = PlacementEpisodeState(uniform_request(3, 5.0, 5.0, 1.0))
    state.hosts.extend([net.servers[7], net.servers[7]])
    visits = {net.servers[7]: 2}
    oracle = np.array([(node.cap_cpu / scaler.cpu, node.cap_ram / scaler.ram,
                        outgoing_bw(net, node.id) / scaler.bw,
                        visits.get(node.id, 0) / 3)
                       for node in net.nodes])
    assert max(len(links) for links in net.link_index) >= 8
    assert np.array_equal(scaler.psn_features(net, state), oracle)


def test_nspr_features_track_progress(tiny_net):
    scaler = FeatureScaler(tiny_net)
    state = PlacementEpisodeState(uniform_request(4, 10.0, 30.0, 2.0))
    first = scaler.nspr_features(state)
    assert first.shape == (4,)
    assert first[0] == pytest.approx(10.0 / 50.0)
    assert first[1] == pytest.approx(30.0 / 300.0)
    assert first[3] == 1.0                                # all 4 remaining
    state.hosts.extend(tiny_net.servers[:2])
    later = scaler.nspr_features(state)
    assert later[3] == pytest.approx(2.0 / 4.0)


# -- shaping -----------------------------------------------------------------------

def test_shaping_example_from_two_actions():
    agent, _ = tiny_agent("ha-drl", beta=1.0, eta=0.1)
    # tiny topology has 3 servers; craft scores with a clear leader
    z = np.array([1.0, 0.5, -2.0])
    shift = agent.shaping_vector(z, HeuristicAdvice(agent.actions[1]))
    np.testing.assert_allclose(shift, [0.0, 0.6, 0.0])
    shaped = z + shift
    assert shaped.argmax() == 1
    np.testing.assert_allclose(shaped[:2], [1.0, 1.1])


def test_shaping_no_op_when_advice_is_argmax_and_eta_zero():
    agent, _ = tiny_agent("ha-drl", beta=1.0, eta=0.0)
    z = np.array([2.0, 1.0, 0.0])
    shift = agent.shaping_vector(z, HeuristicAdvice(agent.actions[0]))
    np.testing.assert_allclose(shift, np.zeros(3))


def test_shaping_beta_squares_the_gap():
    agent, _ = tiny_agent("ha-drl", beta=2.0, xi=1.0, eta=0.0)
    z = np.array([3.0, 0.0, 0.0])
    shift = agent.shaping_vector(z, HeuristicAdvice(agent.actions[1]))
    np.testing.assert_allclose(shift, [0.0, 9.0, 0.0])


def test_shaping_respects_xi():
    agent, _ = tiny_agent("ha-drl", beta=1.0, xi=0.25, eta=0.0)
    z = np.array([4.0, 0.0, 0.0])
    shift = agent.shaping_vector(z, HeuristicAdvice(agent.actions[2]))
    np.testing.assert_allclose(shift, [0.0, 0.0, 1.0])


def test_shaping_wiring_per_variant():
    drl, _ = tiny_agent("drl")
    assert drl.shaping_vector(np.zeros(3), None) is None
    ha, _ = tiny_agent("ha-drl")
    with pytest.raises(ConfigurationError):
        ha.shaping_vector(np.zeros(3), None)  # advice is mandatory
    assert ha.shaping_vector(np.zeros(3), HeuristicAdvice(None)) is None


def test_shaped_argmax_is_advised_action():
    """With a linear gap and positive eta the advised action always wins."""
    agent, _ = tiny_agent("ha-drl", beta=1.0, xi=1.0, eta=0.05)
    rng = np.random.default_rng(0)
    for _ in range(500):
        z = rng.normal(scale=3.0, size=3)
        a_star = int(rng.integers(0, 3))
        shift = agent.shaping_vector(z, HeuristicAdvice(agent.actions[a_star]))
        shaped = z + shift
        assert int(shaped.argmax()) == a_star
        off = np.delete(shaped, a_star)
        assert (shaped[a_star] > off).all()


# -- action sampling -----------------------------------------------------------------

def observation_for(agent, net):
    state = PlacementEpisodeState(uniform_request(2, 5.0, 5.0, 1.0))
    return agent.observe(state, net, agent.forecast(0.0))


def test_zeroed_actor_samples_uniformly():
    agent, net = tiny_agent("drl", seed=123)
    for arr in agent.actor.params.arrays().values():
        arr[:] = 0.0
    psn, nspr, load = observation_for(agent, net)
    counts = np.zeros(len(agent.actions))
    for _ in range(3000):
        target, step = agent.select_action(psn, nspr, load)
        counts[step.action] += 1
        assert target in agent.actions
        assert step.probability == pytest.approx(1.0 / 3.0)
    stat = scipy.stats.chisquare(counts)
    assert stat.pvalue > 0.001, counts


def test_sampling_follows_shaped_distribution():
    agent, net = tiny_agent("ha-drl", seed=7, beta=1.0, xi=1.0, eta=2.0)
    for arr in agent.actor.params.arrays().values():
        arr[:] = 0.0
    psn, nspr, load = observation_for(agent, net)
    advice = HeuristicAdvice(agent.actions[2])
    counts = np.zeros(3)
    probs = None
    for _ in range(3000):
        _, step = agent.select_action(psn, nspr, load, advice)
        counts[step.action] += 1
    # zeroed scores slide to (0, 0, 2): softmax gives the advised action
    # e^2 / (2 + e^2) of the mass
    e2 = np.exp(2.0)
    expected = np.array([1.0, 1.0, e2]) / (2.0 + e2) * counts.sum()
    stat = scipy.stats.chisquare(counts, expected)
    assert stat.pvalue > 0.001, (counts, expected)


def test_same_seed_same_actions():
    a1, net1 = tiny_agent("drl", seed=5)
    a2, net2 = tiny_agent("drl", seed=5)
    obs = observation_for(a1, net1)
    picks1 = [a1.select_action(*obs)[0] for _ in range(20)]
    picks2 = [a2.select_action(*obs)[0] for _ in range(20)]
    assert picks1 == picks2
    a3, _ = tiny_agent("drl", seed=6)
    picks3 = [a3.select_action(*obs)[0] for _ in range(20)]
    assert picks1 != picks3


# -- episodes and updates ---------------------------------------------------------------

def test_run_episode_accepts_and_traces():
    agent, net = tiny_agent("drl", seed=1)
    req = uniform_request(2, 5.0, 5.0, 1.0, uid=3)
    accepted, trace, state = agent.run_episode(req, net)
    assert len(trace) <= 2
    if accepted:
        assert len(trace) == 2
        assert trace[-1].reward > 0.0
        assert not state.committed.is_empty()
    else:
        assert trace[-1].reward == -100.0
        assert state.committed.is_empty()
    assert all(s.reward == 0.0 for s in trace[:-1])


def test_ha_variant_queries_heuristic_once_per_step(monkeypatch):
    calls = []

    def counted(state, net):
        calls.append(state)
        return heu_select(state, net)

    monkeypatch.setattr("slicesim.agent.heu_select", counted)
    agent, net = tiny_agent("ha-drl", seed=2)
    accepted, trace, _ = agent.run_episode(uniform_request(3, 5.0, 5.0, 1.0),
                                           net)
    assert len(calls) == len(trace) > 0
    calls.clear()
    plain, net2 = tiny_agent("drl", seed=2)
    plain.run_episode(uniform_request(3, 5.0, 5.0, 1.0), net2)
    assert calls == []


def test_edrl_episode_carries_load_features():
    agent, net = tiny_agent("edrl", seed=3)
    req = uniform_request(2, 5.0, 5.0, 1.0, time=10.0)
    _, trace, _ = agent.run_episode(req, net)
    assert all(s.load is not None and s.load.shape == (300,)
               for s in trace)
    drl_agent, net2 = tiny_agent("drl", seed=3)
    _, trace2, _ = drl_agent.run_episode(
        uniform_request(2, 5.0, 5.0, 1.0, time=10.0), net2)
    assert all(s.load is None for s in trace2)


@pytest.mark.parametrize("variant", ["drl", "ha-drl", "ha-edrl"])
def test_episode_runs_the_actor_only(variant):
    agent, net = tiny_agent(variant, seed=6)
    calls = {"actor": 0, "critic": 0}

    def counted(name, forward):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return forward(*args, **kwargs)
        return wrapper

    agent.actor.forward = counted("actor", agent.actor.forward)
    agent.critic.forward = counted("critic", agent.critic.forward)
    _, trace, _ = agent.run_episode(uniform_request(3, 5.0, 5.0, 1.0), net)
    assert len(trace) == 3
    assert calls == {"actor": 3, "critic": 0}


def counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("variant", ["drl", "edrl", "ha-drl", "ha-edrl"])
def test_update_reuses_the_actors_selection_gcn(variant):
    """The update runs the critic forward once and the actor not at all,
    graph convolutions included: each step kept its selection pass."""
    agent, net = tiny_agent(variant, seed=6)
    _, trace, _ = agent.run_episode(uniform_request(3, 5.0, 5.0, 1.0), net)
    assert len(trace) == 3
    calls = dict.fromkeys(["actor", "actor gcn", "critic", "critic gcn"], 0)
    for name, model in (("actor", agent.actor), ("critic", agent.critic)):
        model.forward_batch = counting(calls, name, model.forward_batch)
        model._gcn = counting(calls, f"{name} gcn", model._gcn)
    agent.update(trace)
    assert calls == {"actor": 0, "actor gcn": 0, "critic": 1, "critic gcn": 1}


def test_update_needs_each_steps_saved_activations():
    agent, net = tiny_agent("drl", seed=6)
    trace = synthetic_trace(agent, net, [0.0, 1.0])
    trace[1].acts = None
    before = {k: v.copy() for k, v in agent.state_arrays().items()}
    with pytest.raises(ConfigurationError, match="saved actor activations"):
        agent.update(trace)
    for k, v in agent.state_arrays().items():
        assert np.array_equal(v, before[k]), k


def test_update_refuses_a_stale_trace():
    """A trace is differentiated through the actor that took it: once an
    update or a load has moved the actor, the trace is refused, and the
    refusal moves neither network."""
    agent, net = tiny_agent("ha-drl", seed=6)
    _, trace, _ = agent.run_episode(uniform_request(3, 5.0, 5.0, 1.0), net)
    agent.update(trace)
    _, fresh, _ = agent.run_episode(
        uniform_request(2, 5.0, 5.0, 1.0, uid=1), net)
    agent.load_arrays(agent.state_arrays())
    for stale in (trace, fresh):
        before = {k: v.copy() for k, v in agent.state_arrays().items()}
        with pytest.raises(ConfigurationError, match="stale"):
            agent.update(stale)
        for k, v in agent.state_arrays().items():
            assert np.array_equal(v, before[k]), k
    assert agent.episodes_trained == 1


def test_episode_takes_one_forecast():
    agent, net = tiny_agent("ha-edrl", seed=6)
    calls = {"forecast": 0}
    model = agent.load_model
    model.forecast_features = counting(calls, "forecast",
                                       model.forecast_features)
    _, trace, _ = agent.run_episode(
        uniform_request(3, 5.0, 5.0, 1.0, time=10.0), net)
    assert len(trace) == 3
    assert calls == {"forecast": 1}
    np.testing.assert_array_equal(trace[2].load,
                                  model.forecast_features(10.0))


def test_ha_episode_sweeps_once_per_step_after_the_first(monkeypatch):
    """apply_action reuses the advice's route sweep instead of routing the
    agent's target again."""
    from slicesim import heuristic, placement
    calls = {"route_all": 0}
    counted = counting(calls, "route_all", placement.route_all)
    monkeypatch.setattr(placement, "route_all", counted)
    monkeypatch.setattr(heuristic, "route_all", counted)
    agent, net = tiny_agent("ha-drl", seed=6)
    accepted, trace, _ = agent.run_episode(
        uniform_request(3, 5.0, 5.0, 1.0), net)
    assert accepted and len(trace) == 3
    assert calls == {"route_all": 2}


def synthetic_trace(agent, net, rewards):
    """A hand-built finished trace with the given per-step rewards."""
    state = PlacementEpisodeState(
        uniform_request(len(rewards), 5.0, 5.0, 1.0))
    psn, nspr, load = agent.observe(state, net, agent.forecast(0.0))
    steps = []
    for i, r in enumerate(rewards):
        saved = []
        agent.actor.forward(psn, nspr, load, saved=saved)
        steps.append(TraceStep(psn=psn, nspr=nspr, load=load, action=i % 3,
                               probability=1.0, shaping=None, acts=saved[0],
                               version=agent.actor.params.version, reward=r))
    return steps


def test_update_returns_are_discounted_sums():
    agent, net = tiny_agent("drl", seed=4, gamma=0.5)
    trace = synthetic_trace(agent, net, [0.0, 0.0, 8.0])
    stats = agent.update(trace)
    assert stats["return"] == pytest.approx(2.0)  # 8 * 0.5^2


def test_zero_advantage_means_no_actor_motion():
    agent, net = tiny_agent("drl", seed=8)
    # zero critic + zero rewards -> returns 0, values 0, advantage 0
    for arr in agent.critic.params.arrays().values():
        arr[:] = 0.0
    before = {k: v.copy() for k, v in agent.actor.params.arrays().items()}
    trace = synthetic_trace(agent, net, [0.0, 0.0])
    agent.update(trace)
    after = agent.actor.params.arrays()
    for k in before:
        np.testing.assert_array_equal(before[k], after[k])


def test_positive_advantage_raises_chosen_probability():
    agent, net = tiny_agent("drl", seed=9, actor_lr=0.05)
    state = PlacementEpisodeState(uniform_request(1, 5.0, 5.0, 1.0))
    psn, nspr, load = agent.observe(state, net, agent.forecast(0.0))
    _, step = agent.select_action(psn, nspr, load)
    chosen = step.action
    p_before = step.probability
    step.reward = 5.0
    trace = [step]
    agent.update(trace)
    z = agent.actor.forward(psn, nspr, load)
    assert softmax(z)[chosen] > p_before


def test_critic_moves_toward_return():
    agent, net = tiny_agent("drl", seed=10, critic_lr=0.01)
    trace = synthetic_trace(agent, net, [0.0, 6.0])
    step = trace[0]
    v_before = float(agent.critic.forward(step.psn, step.nspr,
                                          step.load)[0])
    returns = 6.0 * agent.config.gamma
    agent.update(trace)
    v_after = float(agent.critic.forward(step.psn, step.nspr,
                                         step.load)[0])
    assert abs(v_after - returns) < abs(v_before - returns)


@pytest.mark.parametrize("critic", ["live", "dead"])
@pytest.mark.parametrize("variant", ["drl", "edrl", "ha-drl", "ha-edrl"])
def test_update_matches_tape_update(variant, critic):
    """The batched closed-form update moves every parameter as the
    per-step autodiff-tape update does, within 1e-10 relative."""
    agent, net = tiny_agent(variant, seed=21, actor_lr=0.01, critic_lr=0.01,
                            dtype=np.float64)
    oracle, _ = tiny_agent(variant, seed=21, actor_lr=0.01, critic_lr=0.01,
                           dtype=np.float64)
    if critic == "dead":
        for arr in agent.critic.params.arrays().values():
            arr[:] = 0.0
    shift_rng = np.random.default_rng(5)
    for uid in range(6):
        req = uniform_request(1 + uid % 3, 5.0, 5.0, 1.0, uid=uid,
                              time=float(uid))
        accepted, trace, state = agent.run_episode(req, net)
        if accepted:
            net.release(state.committed)
        for step in trace[::2]:       # shaping on, also for non-HA runs
            if step.shaping is None:
                step.shaping = shift_rng.uniform(0.0, 2.0, len(agent.actions))
        oracle.load_arrays(agent.state_arrays())
        before = {k: v.copy() for k, v in agent.state_arrays().items()}
        stats = agent.update(trace)
        actor_loss, critic_loss = tape_update(oracle, trace)
        assert stats["actor_loss"] == pytest.approx(actor_loss, rel=1e-10)
        assert stats["critic_loss"] == pytest.approx(critic_loss, rel=1e-10)
        got, want = agent.state_arrays(), oracle.state_arrays()
        for k, start in before.items():
            step_got, step_want = got[k] - start, want[k] - start
            scale = np.abs(step_want).max()
            if critic == "dead" and k.startswith("critic."):
                assert scale == 0.0
            assert np.abs(step_got - step_want).max() <= 1e-10 * scale, k


@pytest.mark.parametrize("lrs", [(0.01, 0.01), (5e-5, 1.25e-3)],
                         ids=["hot", "default"])
@pytest.mark.parametrize("variant", ["drl", "edrl", "ha-drl", "ha-edrl"])
def test_float32_update_step_tracks_the_float64_step(variant, lrs):
    """From the same float32 weights and trace, the float32 update moves
    every parameter as the float64 update does, up to 1e-4 of the
    array's largest step plus one float32 spacing of the stored weight,
    the rounding a float32 parameter must take."""
    actor_lr, critic_lr = lrs
    agent, net = tiny_agent(variant, seed=21, actor_lr=actor_lr,
                            critic_lr=critic_lr)
    wide, _ = tiny_agent(variant, seed=21, actor_lr=actor_lr,
                         critic_lr=critic_lr, dtype=np.float64)
    assert agent.actor.dtype == np.float32
    for uid in range(6):
        req = uniform_request(1 + uid % 3, 5.0, 5.0, 1.0, uid=uid,
                              time=float(uid))
        accepted, trace, state = agent.run_episode(req, net)
        if accepted:
            net.release(state.committed)
        before = {k: v.astype(np.float64)
                  for k, v in agent.state_arrays().items()}
        wide.load_arrays(before)
        wide_trace = []
        for step in trace:          # the float64 actor's own activations
            saved = []
            wide.actor.forward(step.psn, step.nspr, step.load, saved=saved)
            wide_trace.append(dataclasses.replace(
                step, acts=saved[0], version=wide.actor.params.version))
        stats = agent.update(trace)
        wide_stats = wide.update(wide_trace)
        assert stats["critic_loss"] == pytest.approx(
            wide_stats["critic_loss"], rel=1e-5)
        got, want = agent.state_arrays(), wide.state_arrays()
        for k, start in before.items():
            assert got[k].dtype == np.float32
            step_got = got[k].astype(np.float64) - start
            step_want = want[k] - start
            slack = (1e-4 * np.abs(step_want).max()
                     + np.spacing(np.abs(got[k])).astype(np.float64))
            assert (np.abs(step_got - step_want) <= slack).all(), k


def test_nan_actor_weights_refuse_to_sample():
    agent, net = tiny_agent("ha-drl", seed=2)
    agent.actor.params["out.w"][:] = np.nan
    state = PlacementEpisodeState(uniform_request(2, 5.0, 5.0, 1.0))
    psn, nspr, load = agent.observe(state, net, agent.forecast(0.0))
    rng_before = agent.rng.bit_generator.state
    with pytest.raises(ConfigurationError, match="ha-drl"):
        agent.select_action(psn, nspr, load, heu_select(state, net))
    assert agent.rng.bit_generator.state == rng_before


def test_run_episode_rolls_back_when_a_step_raises():
    """NaN probabilities at step 2 release what step 1 committed."""
    agent, net = tiny_agent("ha-drl", seed=2)
    before = net.residuals()
    select = agent.select_action
    seen = []

    def poisoned(psn, nspr, load, advice=None):
        seen.append(net.residuals())
        if len(seen) == 2:
            agent.actor.params["out.w"][:] = np.nan
        return select(psn, nspr, load, advice)

    agent.select_action = poisoned
    with pytest.raises(ConfigurationError, match="not a finite distribution"):
        agent.run_episode(uniform_request(3, 5.0, 5.0, 1.0), net)
    assert seen[1] != before                # step 1 had committed
    assert net.residuals() == before


def test_update_requires_complete_trace():
    agent, _ = tiny_agent("drl")
    with pytest.raises(ConfigurationError):
        agent.update([])


def test_training_is_deterministic():
    def run(seed):
        agent, net = tiny_agent("ha-drl", seed=seed)
        rng = np.random.default_rng(0)
        for uid in range(10):
            req = uniform_request(int(rng.integers(1, 4)), 5.0, 5.0, 1.0,
                                  uid=uid, time=float(uid))
            accepted, trace, state = agent.run_episode(req, net)
            agent.update(trace)
            if accepted:
                net.release(state.committed)
        return {k: v.copy() for k, v in agent.actor.params.arrays().items()}

    a, b = run(3), run(3)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])
    c = run(4)
    assert any(not np.array_equal(a[k], c[k]) for k in a)


# -- persistence ------------------------------------------------------------------

def test_agent_checkpoint_round_trip(tmp_path):
    agent, net = tiny_agent("ha-drl", seed=11, beta=2.0)
    req = uniform_request(2, 5.0, 5.0, 1.0)
    accepted, trace, state = agent.run_episode(req, net)
    agent.update(trace)
    if accepted:
        net.release(state.committed)
    path = tmp_path / "agent.ckpt"
    agent.save(path)

    fresh_net = build_reference_topology("tiny")
    restored = Agent.load(path, fresh_net)
    assert restored.config.variant == "ha-drl"
    assert restored.config.beta == 2.0
    assert restored.episodes_trained == 1
    for k, arr in agent.actor.params.arrays().items():
        np.testing.assert_array_equal(restored.actor.params.arrays()[k], arr)
    for k, arr in agent.critic.params.arrays().items():
        np.testing.assert_array_equal(restored.critic.params.arrays()[k], arr)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_agent_load_rebuilds_the_checkpoints_dtype(tmp_path, dtype):
    agent, net = tiny_agent("ha-edrl", seed=11, dtype=dtype)
    accepted, trace, state = agent.run_episode(
        uniform_request(2, 5.0, 5.0, 1.0), net)
    agent.update(trace)
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    manifest, _ = load_checkpoint(path)
    assert {e["dtype"] for e in manifest["tensors"]} == \
        {np.dtype(dtype).newbyteorder("<").str}
    fresh = build_reference_topology("tiny")
    restored = Agent.load(path, fresh,
                          LoadModel.from_network(tiny_classes(), fresh))
    assert restored.actor.dtype == restored.critic.dtype == dtype
    for k, arr in agent.state_arrays().items():
        assert restored.state_arrays()[k].dtype == dtype
        np.testing.assert_array_equal(restored.state_arrays()[k], arr)


def test_agent_load_refuses_tensors_of_two_dtypes(tmp_path):
    agent, _ = tiny_agent("drl")
    path = tmp_path / "agent.ckpt"
    arrays = agent.state_arrays()
    arrays["critic.out.b"] = arrays["critic.out.b"].astype(np.float64)
    manifest = agent.manifest()
    save_checkpoint(path, manifest, arrays)
    with pytest.raises(CheckpointError, match="share one dtype"):
        Agent.load(path, build_reference_topology("tiny"))


def test_a_learner_past_the_parameter_bound_is_refused_at_once():
    """2,000 nodes and 1,500 servers would need 180M float32 parameters
    (720 MB); the count is refused before anything is allocated."""
    net = build_reference_topology(TopologyCounts(edc_count=500,
                                                  servers_per_edc=3))
    start = time.perf_counter()
    with pytest.raises(ConfigurationError,
                       match="2000 nodes and 1500 servers would hold "
                             "180,[0-9,]+ actor and critic parameters, "
                             f"above the bound of {MAX_PARAMETERS:,}"):
        Agent(AgentConfig.for_variant("drl"), net)
    assert time.perf_counter() - start < 1.0
    scenario = load_scenario("reference")
    reference = scenario.build_network()
    agent = Agent(AgentConfig.for_variant("ha-edrl"), reference,
                  scenario.build_load_model(reference))
    assert sum(v.size for v in agent.state_arrays().values()) \
        <= MAX_PARAMETERS


def test_agent_checkpoint_topology_guard(tmp_path):
    agent, _ = tiny_agent("drl")
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    other = build_reference_topology("small")
    with pytest.raises(CheckpointError):
        Agent.load(path, other)


def test_heuristic_advice_matches_heu_for_ha_runs():
    """The advice the agent consumes is the placement rule's own choice."""
    agent, net = tiny_agent("ha-drl", seed=12)
    state = PlacementEpisodeState(uniform_request(2, 5.0, 5.0, 1.0))
    expected = heu_select(state, net).server
    psn, nspr, load = agent.observe(state, net, agent.forecast(0.0))
    z = agent.actor.forward(psn, nspr, load)
    shift = agent.shaping_vector(z, HeuristicAdvice(expected))
    assert shift[agent.action_index[expected]] >= 0.0
    assert np.count_nonzero(shift) <= 1


# Fresh ha-drl agent (tiny topology, seed 3, beta 2): format version 2,
# float32 arrays rounded once from the float64 Glorot draws.
FRESH_CHECKPOINT_SHA256 = \
    "463f4384b01669cba3ca2a58fefe11cf943802a7a58b14e70aee0fc181becd78"


def test_agent_checkpoint_bytes_keep_their_format(tmp_path):
    agent, _ = tiny_agent("ha-drl", seed=3, beta=2.0)
    path = tmp_path / "fresh.ckpt"
    agent.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        FRESH_CHECKPOINT_SHA256

    # after training, the bytes are still the documented layout: magic,
    # version and manifest length, sorted-key JSON manifest, then the
    # float32 arrays in sorted-name order, each tensor entry naming "<f4"
    agent, net = tiny_agent("ha-drl", seed=3, beta=2.0)
    accepted, trace, state = agent.run_episode(
        uniform_request(3, 5.0, 5.0, 1.0), net)
    agent.update(trace)
    path = tmp_path / "trained.ckpt"
    agent.save(path)
    arrays = agent.state_arrays()
    names = sorted(arrays)
    manifest = {
        "kind": "agent", "variant": "ha-drl", "gamma": 0.99, "xi": 1.0,
        "eta": 0.0, "beta": 2.0, "allow_any_node": False,
        "episodes_trained": 1, "net_fingerprint": net.fingerprint(),
        "actor": agent.actor.manifest(), "critic": agent.critic.manifest(),
        "tensors": [{"name": n, "shape": list(arrays[n].shape),
                     "dtype": "<f4"} for n in names],
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    expected = (b"SLNC" + struct.pack("<II", 2, len(blob)) + blob
                + b"".join(arrays[n].astype("<f4").tobytes() for n in names))
    assert path.read_bytes() == expected


def _without(path, field):
    """Rewrite an agent checkpoint with one manifest field removed."""
    manifest, arrays = load_checkpoint(path)
    del manifest["tensors"], manifest[field]
    save_checkpoint(path, manifest, arrays)


@pytest.mark.parametrize("field", ["net_fingerprint", "variant", "gamma",
                                   "xi", "eta", "beta", "allow_any_node",
                                   "actor", "episodes_trained"])
def test_agent_load_names_a_missing_field(tmp_path, field):
    agent, net = tiny_agent("drl")
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    _without(path, field)
    with pytest.raises(CheckpointError, match=repr(field)):
        Agent.load(path, build_reference_topology("tiny"))


@pytest.mark.parametrize("field,value", [("gamma", "x"),
                                         ("variant", "sarsa"),
                                         ("allow_any_node", True),
                                         ("episodes_trained", None),
                                         ("episodes_trained", "x"),
                                         ("variant", []),
                                         ("xi", float("nan")),
                                         pytest.param("eta", 10 ** 400,
                                                      id="eta-beyond-float")])
def test_agent_load_names_a_bad_field(tmp_path, field, value):
    agent, net = tiny_agent("drl")
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    manifest, arrays = load_checkpoint(path)
    del manifest["tensors"]
    manifest[field] = value
    save_checkpoint(path, manifest, arrays)
    with pytest.raises(CheckpointError, match=field):
        Agent.load(path, build_reference_topology("tiny"))


def test_agent_load_refuses_a_negative_eta_for_an_ha_variant(tmp_path):
    agent, net = tiny_agent("ha-drl")
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    manifest, arrays = load_checkpoint(path)
    del manifest["tensors"]
    manifest["eta"], manifest["beta"] = -5.0, 0.5
    save_checkpoint(path, manifest, arrays)
    with pytest.raises(CheckpointError,
                       match="agent checkpoint field 'eta': must be >= 0"):
        Agent.load(path, build_reference_topology("tiny"))


def test_agent_load_names_a_missing_load_model(tmp_path):
    """A checkpoint of an e-variant loaded without a load model: a
    CheckpointError, as for any checkpoint that cannot be loaded here."""
    agent, net = tiny_agent("edrl")
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    with pytest.raises(CheckpointError,
                       match="agent checkpoint: variant 'edrl' needs a load "
                             "model"):
        Agent.load(path, build_reference_topology("tiny"))
