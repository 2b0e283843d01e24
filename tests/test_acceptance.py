"""Acceptance suite: one test per shipping criterion.

Each test prints a single summary line on success, so `pytest -v`
doubles as the acceptance report. Criterion 8 trains six small agents
and dominates the runtime (around fifteen seconds).
"""

import dataclasses
import json
import statistics

import numpy as np
import pytest

from slicesim import (
    Agent,
    AgentConfig,
    AgentPolicy,
    HeuristicAdvice,
    PlacementEpisodeState,
    Simulation,
    apply_action,
    episode_reward,
    gar,
    heu_select,
    load_scenario,
    phase_reaching,
    phase_table,
    sample_arrivals,
)
from slicesim.cli import main as cli_main
from slicesim.networks import (SliceNet, log_softmax, normalized_propagation,
                               softmax)
from slicesim.traffic import LoadModel
from slicesim.substrate import build_reference_topology

from conftest import line_net, random_substrate, uniform_request
from oracles import (brute_feasible, brute_heu_choice, finite_diff_grad,
                     gcn_forward, is_feasible)

TOTAL_CPU = 6300.0  # 126 servers x 50


# -- 1: offered load ----------------------------------------------------------

def test_criterion_1_offered_load_values():
    model = LoadModel.from_network(load_scenario("reference").classes,
                                   build_reference_topology("full"))
    volatile, longterm = model.classes

    for t in (0.0, 17.3, 48.0, 96.0, 1234.5):
        assert abs(model.class_load(longterm, "cpu", t) - 2500 / TOTAL_CPU) \
            <= 1e-12
    assert abs(model.class_load(volatile, "cpu", 48.0)
               - 1.5 * 2500 / TOTAL_CPU) <= 1e-12

    grid = np.linspace(0.0, 192.0, 1921)
    total = model.global_load("cpu", grid)
    assert abs(total.min() - 0.3968) <= 1e-4
    assert abs(total.max() - 0.9921) <= 1e-4
    assert np.all(np.abs(model.global_load("cpu", grid)
                         - model.global_load("cpu", grid + 96.0)) <= 1e-12)
    print("criterion 1: PASS - static 2500/6300, dynamic peak 1.5x at t=48, "
          "oscillation 0.3968..0.9921 with period 96")


# -- 2: arrival process statistics -------------------------------------------

def test_criterion_2_arrival_counts_over_seeds():
    n_seeds = 100

    period = 96.0
    rate = lambda t: 1.5 * np.sin(np.pi * t / period) ** 2
    dyn_counts = [
        len(sample_arrivals(rate, 1.5, period, np.random.default_rng(seed)))
        for seed in range(n_seeds)]
    dyn_mean = statistics.fmean(dyn_counts)
    dyn_tol = 3.0 * np.sqrt(72.0) / np.sqrt(n_seeds)
    assert abs(dyn_mean - 72.0) <= dyn_tol

    horizon = 1e5
    static_counts = [
        len(sample_arrivals(lambda t: 0.02, 0.02, horizon,
                            np.random.default_rng(seed)))
        for seed in range(n_seeds)]
    static_mean = statistics.fmean(static_counts)
    static_tol = 3.0 * np.sqrt(2000.0) / np.sqrt(n_seeds)
    assert abs(static_mean - 2000.0) <= static_tol
    print(f"criterion 2: PASS - mean {dyn_mean:.2f} arrivals/period "
          f"(72 +- {dyn_tol:.2f}), mean {static_mean:.1f} static arrivals "
          f"(2000 +- {static_tol:.1f}) over {n_seeds} seeds")


# -- 3: reward anatomy --------------------------------------------------------

def test_criterion_3_reward_scaling_and_failure_penalty():
    net = build_reference_topology("tiny")
    server = net.servers[0]

    request = uniform_request(5, 0.0, 0.0, 0.0)
    state = PlacementEpisodeState(request)
    outcomes = [apply_action(state, net, server) for _ in range(5)]
    assert all(o.success for o in outcomes)
    unscaled = sum(o.step_product() for o in outcomes)
    assert unscaled == 1000.0
    rewards = episode_reward(outcomes, request.vnf_count)
    assert rewards == [0.0, 0.0, 0.0, 0.0, 10.0]

    greedy = uniform_request(1, 1000.0, 1000.0, 0.0)
    failed_state = PlacementEpisodeState(greedy)
    outcome = apply_action(failed_state, net, server)
    assert not outcome.success
    assert episode_reward([outcome], 1) == [-100.0]
    print("criterion 3: PASS - co-located 5-chain scores 1000 unscaled, "
          "exactly 10.0 scaled; failed step pays exactly -100")


# -- 4: advice shaping --------------------------------------------------------

def shaping_agents():
    agents = {}
    for k in range(2, 7):
        config = AgentConfig.for_variant("ha-drl", seed=k)
        agents[k] = Agent(config, line_net(k, 10.0))
    return agents


def test_criterion_4_shaped_argmax_and_support():
    agents = shaping_agents()
    rng = np.random.default_rng(4)

    for _ in range(10_000):
        k = int(rng.integers(2, 7))
        agent = agents[k]
        z = rng.normal(0.0, 3.0, size=k)
        a_star = int(rng.integers(k))
        eta = float(rng.uniform(0.001, 2.0))
        agent.config = dataclasses.replace(agent.config, beta=1.0, xi=1.0,
                                           eta=eta)
        advice = HeuristicAdvice(server=agent.actions[a_star])
        shaped = z + agent.shaping_vector(z, advice)
        others = np.delete(shaped, a_star)
        assert shaped[a_star] > others.max()

    checked = 0
    for beta in (0.5, 1.0, 2.0, 3.0):
        for xi in (0.25, 1.0):
            for _ in range(50):
                k = int(rng.integers(2, 7))
                agent = agents[k]
                z = rng.normal(0.0, 3.0, size=k)
                a_star = int(rng.integers(k))
                eta = float(rng.uniform(0.0, 2.0))
                agent.config = dataclasses.replace(
                    agent.config, beta=beta, xi=xi, eta=eta)
                advice = HeuristicAdvice(server=agent.actions[a_star])
                shift = agent.shaping_vector(z, advice)
                gap = float(np.max(z) - z[a_star]) + eta
                assert gap >= eta
                assert shift[a_star] == xi * gap ** beta
                off = np.delete(shift, a_star)
                assert np.all(off == 0.0)
                checked += 1
    print(f"criterion 4: PASS - advised action is the strict argmax for "
          f"10000 draws (beta=1, eta>0, xi=1); single-point support exact "
          f"for {checked} draws across beta in {{0.5, 1, 2, 3}}")


# -- 5: gradient correctness --------------------------------------------------

def flat_params(net):
    arrays = net.params.arrays()
    return np.concatenate([arrays[k].ravel() for k in sorted(arrays)])


def set_flat_params(net, x):
    arrays = net.params.arrays()
    out, pos = {}, 0
    for k in sorted(arrays):
        size = arrays[k].size
        out[k] = x[pos:pos + size].reshape(arrays[k].shape)
        pos += size
    net.params.load_arrays(out)


def flat_grads(net):
    arrays = net.params.arrays()
    parts = []
    for k in sorted(arrays):
        g = net.params.grads.get(k)
        if isinstance(g, tuple):        # stored as factors (C, G): C^T G
            c, g_out = g
            g = c.T @ g_out
        parts.append(np.zeros(arrays[k].size) if g is None else g.ravel())
    return np.concatenate(parts)


def test_criterion_5_gradients_match_finite_differences():
    net_sub = build_reference_topology("tiny")
    prop = normalized_propagation(net_sub.adjacency_matrix())
    n_nodes = len(net_sub.nodes)
    n_actions = len(net_sub.servers)
    worst = 0.0
    instances = 0

    for seed in range(10):
        rng = np.random.default_rng(seed)
        feat_rng = np.random.default_rng(1000 + seed)
        psn = feat_rng.uniform(0.0, 1.0, size=(n_nodes, 4))
        nspr = feat_rng.uniform(0.0, 1.0, size=4)

        actor = SliceNet(prop, n_actions, False, "tanh", rng, gcn_width=2)
        assert sum(v.size for v in actor.params.arrays().values()) <= 200
        action = int(feat_rng.integers(n_actions))

        def actor_loss():
            return log_softmax(actor.forward(psn, nspr))[action]

        def actor_backward():
            # d log_softmax(z)[a] / dz = onehot(a) - softmax(z)
            z, acts = actor.forward_batch(psn[None], nspr[None])
            grad = -softmax(z)
            grad[0, action] += 1.0
            actor.backward(acts, grad)

        critic = SliceNet(prop, 1, False, "relu", rng, gcn_width=2)
        assert sum(v.size for v in critic.params.arrays().values()) <= 200

        def critic_loss():
            return critic.forward(psn, nspr)[0]

        def critic_backward():
            v, acts = critic.forward_batch(psn[None], nspr[None])
            critic.backward(acts, np.ones_like(v))

        for net, loss, backward in ((actor, actor_loss, actor_backward),
                                    (critic, critic_loss, critic_backward)):
            x0 = flat_params(net)
            net.params.grads.clear()
            backward()
            analytic = flat_grads(net)

            def f(x, _net=net, _loss=loss, _x0=x0):
                set_flat_params(_net, x)
                value = float(_loss())
                set_flat_params(_net, _x0)
                return value

            numeric = finite_diff_grad(f, x0, h=1e-5)
            err = np.abs(analytic - numeric) / np.maximum(
                1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
            worst = max(worst, float(err.max()))
            instances += 1

    assert instances >= 20
    assert worst <= 1e-4
    print(f"criterion 5: PASS - {instances} networks gradchecked, worst "
          f"relative error {worst:.2e} (tolerance 1e-4)")


# -- 6: encoder permutation equivariance --------------------------------------

def test_criterion_6_gcn_permutation_equivariance():
    rng = np.random.default_rng(6)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 21))
        adj = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    adj[i, j] = adj[j, i] = 1.0
        x = rng.normal(size=(n, 4))
        perm = rng.permutation(n)
        pmat = np.eye(n)[perm]

        base = SliceNet(normalized_propagation(adj), 1, False, "tanh",
                        np.random.default_rng(trial), gcn_width=8)
        permuted = SliceNet(normalized_propagation(pmat @ adj @ pmat.T), 1,
                            False, "tanh", np.random.default_rng(trial),
                            gcn_width=8)
        permuted.params.load_arrays(base.params.arrays())

        out_base = gcn_forward(base, x)
        out_perm = gcn_forward(permuted, x[perm])
        worst = max(worst, float(np.abs(out_perm - out_base[perm]).max()))
    assert worst <= 1e-12
    print(f"criterion 6: PASS - 50 graphs up to 20 nodes, max equivariance "
          f"defect {worst:.2e} (tolerance 1e-12)")


# -- 7: brute-force equivalence -----------------------------------------------

def test_criterion_7_feasibility_and_heuristic_match_brute_force():
    steps_checked = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        net = random_substrate(rng, max_servers=4)
        n_vnfs = int(rng.integers(1, 4))
        request = uniform_request(n_vnfs, float(rng.integers(1, 4)),
                                  float(rng.integers(1, 4)),
                                  float(rng.integers(0, 3)), uid=seed)
        state = PlacementEpisodeState(request)
        while not state.done:
            for server in net.servers:
                assert is_feasible(state, net, server) == \
                    brute_feasible(state, net, server)
            advice = heu_select(state, net)
            brute = brute_heu_choice(state, net)
            assert advice.server == brute
            steps_checked += 1
            if not advice.exists:
                break
            outcome = apply_action(state, net, advice.server)
            assert outcome.success
    print(f"criterion 7: PASS - feasibility and heuristic argmax equal "
          f"brute force at {steps_checked} decision points "
          f"(200 substrates, <=4 servers, <=3 VNFs)")


# -- 8: learning dynamics -----------------------------------------------------

def desk_agent_run(variant: str, index: int, arrivals: int, xi=1.0,
                   dtype=np.float32):
    """Criterion 8's training run, with desk's agent: section:
    (records, trained agent)."""
    scenario = load_scenario("desk")
    config = scenario.agent_config(variant, seed=index, xi=xi)
    net = scenario.build_network()
    events = scenario.generate_events(seed=scenario.seed + index)
    agent = Agent(config, net, dtype=dtype)
    sim = Simulation(net, events, AgentPolicy(agent, train=True))
    return sim.run(max_arrivals=arrivals), agent


def desk_training_run(variant: str, index: int):
    records, _ = desk_agent_run(variant, index, 2000)
    tars = [acceptance for acceptance, _ in phase_table(records, 500)]
    return gar(records), tars


# the per-phase acceptance a learner must reach; the phase that first
# reaches it is criterion 8's measure of how fast the learner learns
REACH_LEVEL = 0.55


def test_criterion_8_heuristic_assist_speeds_up_learning():
    results = {}
    for variant in ("ha-drl", "drl"):
        gars, tar_rows = [], []
        for i in range(3):
            g, tars = desk_training_run(variant, i)
            gars.append(g)
            tar_rows.append(tars)
        median_tars = [statistics.median(row[p] for row in tar_rows)
                       for p in range(4)]
        results[variant] = (statistics.median(gars), median_tars)

    ha_gar, ha_tars = results["ha-drl"]
    drl_gar, drl_tars = results["drl"]
    assert ha_gar - drl_gar >= 0.10
    ha_reach = phase_reaching(ha_tars, REACH_LEVEL)
    drl_reach = phase_reaching(drl_tars, REACH_LEVEL)
    assert ha_reach is not None and ha_reach <= 3
    assert drl_reach is None
    print(f"criterion 8: PASS - median acceptance {ha_gar:.3f} (assisted) vs "
          f"{drl_gar:.3f} (plain), gap {ha_gar - drl_gar:.3f} >= 0.10; "
          f"median phase acceptance reaches {REACH_LEVEL} in phase "
          f"{ha_reach} of 4 (assisted), never (plain)")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_criterion_8_negative_control_unshifted_advice_trains_like_drl(dtype):
    """With xi = 0 the advice shifts no score, so ha-drl trains bit for
    bit like drl: the same records and every parameter equal. Criterion
    8's gap must come from the shift, not from the advice's bookkeeping."""
    ha_records, ha_agent = desk_agent_run("ha-drl", 0, 300, xi=0.0,
                                          dtype=dtype)
    records, agent = desk_agent_run("drl", 0, 300, dtype=dtype)
    assert len(records) == 300 and 0 < gar(records) < 1
    assert ha_records == records
    assert ha_agent.episodes_trained == agent.episodes_trained == 300
    arrays = agent.state_arrays()
    for k, v in ha_agent.state_arrays().items():
        assert np.array_equal(v, arrays[k]), k
    print(f"criterion 8 control: PASS - {np.dtype(dtype)} ha-drl with "
          f"xi = 0 equals drl bit for bit over 300 desk arrivals "
          f"(acceptance {gar(records):.3f})")


# -- 9: reproducibility -------------------------------------------------------

def traffic_columns(csv_path):
    rows = csv_path.read_text().splitlines()[1:]
    return [tuple(line.split(",")[:3]) for line in rows]


def test_criterion_9_bit_identical_reruns_and_replay(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    args = ["train", "--scenario", "tiny", "--variant", "drl",
            "--episodes", "50"]
    assert cli_main(args + ["--out-dir", str(first)]) == 0
    assert cli_main(args + ["--out-dir", str(second)]) == 0
    name = "tiny-drl-seed0.csv"
    assert (first / name).read_bytes() == (second / name).read_bytes()
    assert (first / "tiny-drl-seed0.phases.csv").read_bytes() == \
        (second / "tiny-drl-seed0.phases.csv").read_bytes()

    events = tmp_path / "events.jsonl"
    assert cli_main(["export-events", "--scenario", "tiny",
                     "--out", str(events)]) == 0
    replay = tmp_path / "replay"
    for variant in ("drl", "ha-drl"):
        rv = cli_main(["train", "--scenario", "tiny", "--variant", variant,
                       "--episodes", "50", "--events", str(events),
                       "--out-dir", str(replay)])
        assert rv == 0
    drl_traffic = traffic_columns(replay / "tiny-drl-seed0.csv")
    ha_traffic = traffic_columns(replay / "tiny-ha-drl-seed0.csv")
    assert drl_traffic == ha_traffic
    print("criterion 9: PASS - reruns are byte-identical and replayed "
          "traffic is column-identical across variants")
