"""Learning policies: DRL, eDRL, and their heuristically assisted twins.

All four variants share one actor-critic core. The actor maps the
observation to one score per server and samples the placement target
from the softmax over those scores; the critic estimates the state
value. Selection runs the actor only: the critic's values are needed
only for the advantages, so it runs once per episode, inside the
update. The e-variants additionally feed the 300-point load forecast
through the load branch; the HA variants shift the advised action's
score by xi * (max-gap + eta)^beta before sampling, a bias that guides
exploration but is held constant when differentiating.

Updates are single-trace advantage actor-critic with Monte-Carlo
returns: the actor descends -sum_t A_t * log pi(a_t), the advantage held
constant; the critic descends sum_t (R_t - v_t)^2. Plain SGD, separate
learning rates. An update stacks the episode's T observations, runs each
network forward once over the stack, and hands the closed-form loss
gradients with respect to the outputs to the network's batched backward:
-A_t (onehot(a_t) - pi_t) for the actor's scores, -2 (R_t - v_t) for the
critic's value. The actor's batched pass reuses the graph-convolution
activations each step saved at selection, since the parameters do not
move within an episode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CheckpointError, ConfigurationError
from .heuristic import HeuristicAdvice, heu_select
from .networks import (SliceNet, finite_number, load_checkpoint, log_softmax,
                       manifest_field, normalized_propagation, save_checkpoint,
                       softmax, whole_number)
from .placement import (PlacementEpisodeState, apply_action, episode_reward,
                        run_steps)
from .substrate import SubstrateNetwork
from .traffic import LoadModel, SliceRequest

VARIANTS = ("drl", "edrl", "ha-drl", "ha-edrl")

# (actor lr, critic lr); the e-variants train with slightly hotter rates
_DEFAULT_RATES = {
    "drl": (5e-5, 1.25e-3),
    "ha-drl": (5e-5, 1.25e-3),
    "edrl": (5.7e-5, 1.4e-3),
    "ha-edrl": (5.7e-5, 1.4e-3),
}


def uses_load(variant: str) -> bool:
    return variant in ("edrl", "ha-edrl")


def uses_heuristic(variant: str) -> bool:
    return variant in ("ha-drl", "ha-edrl")


@dataclass(frozen=True)
class AgentConfig:
    variant: str
    actor_lr: float
    critic_lr: float
    gamma: float = 0.99
    xi: float = 1.0
    eta: float = 0.0
    beta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for name in ("actor_lr", "critic_lr"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be > 0")
        if not 0 < self.gamma <= 1:
            raise ConfigurationError("gamma must be in (0, 1]")
        if uses_heuristic(self.variant) and self.beta <= 0:
            raise ConfigurationError("beta must be > 0 for ha variants")
        if self.seed < 0:
            raise ConfigurationError(
                f"seed must be a whole number >= 0, got {self.seed!r}")

    @classmethod
    def for_variant(cls, variant: str, **overrides) -> "AgentConfig":
        # the tuple, not the dict: an unhashable variant is just unknown
        if variant not in VARIANTS:
            raise ConfigurationError(
                f"variant must be one of {VARIANTS}, got {variant!r}")
        actor_lr, critic_lr = _DEFAULT_RATES[variant]
        base = cls(variant=variant, actor_lr=actor_lr, critic_lr=critic_lr)
        return replace(base, **overrides) if overrides else base


@dataclass
class TraceStep:
    psn: np.ndarray
    nspr: np.ndarray
    load: np.ndarray | None
    action: int                      # index into the agent's action list
    probability: float
    shaping: np.ndarray | None       # additive score shift, constant in grads
    gcn: list[tuple[np.ndarray, np.ndarray]]  # the actor's GCN at selection
    reward: float = 0.0


class FeatureScaler:
    """Fixed normalizers: every resource feature is divided by the
    substrate-wide maximum of the matching per-node capacity."""

    def __init__(self, net: SubstrateNetwork):
        servers = [net.nodes[s] for s in net.servers]
        self.cpu = max(n.max_cpu for n in servers)
        self.ram = max(n.max_ram for n in servers)
        self.bw = max(net.max_outgoing_bw(n.id) for n in net.nodes)
        # incident[k, n]: index of the link to node n's k-th neighbour in
        # ascending order, or len(net.bw) (a 0.0 pad) past its degree
        degree = max(len(links) for links in net.link_index)
        self.incident = np.full((degree, len(net.nodes)), len(net.bw))
        for n, links in enumerate(net.link_index):
            self.incident[:len(links), n] = list(links.values())

    def psn_features(self, net: SubstrateNetwork,
                     state: PlacementEpisodeState) -> np.ndarray:
        """(|N|, 4) rows of residual cpu, ram, incident bw, and the share
        of the request's VNFs already placed on the node.

        The incident bw of a node sums its links in neighbour order, as
        the tests' `oracles.outgoing_bw` does: reducing over axis 0 adds
        the gathered rows one after another, so every sum rounds the
        same way.
        """
        bw = np.array(net.bw + [0.0])
        feats = np.empty((len(net.nodes), 4))
        feats[:, 0] = net.cpu
        feats[:, 1] = net.ram
        feats[:, 2] = np.add.reduce(bw[self.incident], axis=0)
        feats[:, 3] = 0.0
        for host in state.hosts:
            feats[host, 3] += 1.0
        feats /= (self.cpu, self.ram, self.bw, state.request.vnf_count)
        return feats

    def nspr_features(self, state: PlacementEpisodeState) -> np.ndarray:
        req = state.request
        req_cpu, req_ram = req.vnfs[state.next_vnf - 1]
        v = state.next_vnf
        req_bw = req.vls[v - 2] if v >= 2 else (req.vls[0] if req.vls else 0.0)
        return np.array([
            req_cpu / self.cpu,
            req_ram / self.ram,
            req_bw / self.bw,
            state.remaining / req.vnf_count,
        ], dtype=np.float64)


class Agent:
    """One learning policy instance bound to a substrate topology."""

    def __init__(self, config: AgentConfig, net: SubstrateNetwork,
                 load_model: LoadModel | None = None):
        if uses_load(config.variant) and load_model is None:
            raise ConfigurationError(
                f"variant {config.variant!r} needs a load model")
        self.config = config
        self.load_model = load_model if uses_load(config.variant) else None
        self.scaler = FeatureScaler(net)
        self.actions = list(net.servers)
        self.action_index = {a: i for i, a in enumerate(self.actions)}
        self.net_fingerprint = net.fingerprint()

        prop = normalized_propagation(net.adjacency_matrix())
        ss = np.random.SeedSequence(config.seed)
        actor_ss, critic_ss, sample_ss = ss.spawn(3)
        self.actor = SliceNet(prop, len(self.actions), self.load_model is not None,
                              "tanh", np.random.default_rng(actor_ss))
        self.critic = SliceNet(prop, 1, self.load_model is not None,
                               "relu", np.random.default_rng(critic_ss))
        self.rng = np.random.default_rng(sample_ss)
        self.episodes_trained = 0
        self.heu_queries = 0

    # -- observation and action selection ---------------------------------

    def forecast(self, t: float) -> np.ndarray | None:
        """The load branch's input at time t, or None without one."""
        return (self.load_model.forecast_features(t)
                if self.load_model is not None else None)

    def observe(self, state: PlacementEpisodeState, net: SubstrateNetwork,
                load: np.ndarray | None):
        """(psn, nspr, load) for the pending step; load is the episode's
        `forecast`, passed through."""
        psn = self.scaler.psn_features(net, state)
        nspr = self.scaler.nspr_features(state)
        return psn, nspr, load

    def shaping_vector(self, z: np.ndarray,
                       advice: HeuristicAdvice | None) -> np.ndarray | None:
        """Score shift for the advised action: xi * (gap to max + eta)^beta."""
        cfg = self.config
        if not uses_heuristic(cfg.variant):
            return None
        if advice is None:
            raise ConfigurationError(
                f"variant {cfg.variant!r} requires heuristic advice")
        if not advice.exists:
            return None
        a_star = self.action_index[advice.server]
        gap = float(np.max(z) - z[a_star]) + cfg.eta
        shift = np.zeros_like(z)
        shift[a_star] = cfg.xi * gap ** cfg.beta
        return shift

    def select_action(self, psn, nspr, load,
                      advice: HeuristicAdvice | None = None):
        """Sample a target from the (possibly shaped) softmax policy.

        Returns (substrate node id, TraceStep without reward).
        """
        gcn = []
        z = self.actor.forward(psn, nspr, load, saved=gcn)
        shaping = self.shaping_vector(z, advice)
        if shaping is not None:
            z = z + shaping
        probs = softmax(z)
        probs = probs / probs.sum()
        if not (np.isfinite(probs).all() and abs(probs.sum() - 1.0) <= 1e-9):
            raise ConfigurationError(
                f"variant {self.config.variant!r}: the actor's action "
                f"probabilities are not a finite distribution")
        idx = int(self.rng.choice(len(probs), p=probs))
        step = TraceStep(psn=psn, nspr=nspr, load=load, action=idx,
                         probability=float(probs[idx]), shaping=shaping,
                         gcn=gcn)
        return self.actions[idx], step

    # -- episode rollout -----------------------------------------------------

    def run_episode(self, request: SliceRequest, net: SubstrateNetwork,
                    trace_sink=None):
        """Place one request by `run_steps`. Returns (accepted, steps,
        episode state), steps holding one TraceStep per step, rewarded."""
        steps: list[TraceStep] = []
        forecast = self.forecast(request.time)   # fixed within an episode

        def step(state):
            advice = None
            if uses_heuristic(self.config.variant):
                advice = heu_select(state, net)
                self.heu_queries += 1
            psn, nspr, load = self.observe(state, net, forecast)
            target, trace_step = self.select_action(psn, nspr, load, advice)
            steps.append(trace_step)
            # the advice's route sweep holds the path to any target
            return target, apply_action(
                state, net, target, None if advice is None else advice.paths)

        accepted, state, outcomes = run_steps(request, net, step, trace_sink)
        for s, r in zip(steps, episode_reward(outcomes, request.vnf_count)):
            s.reward = r
        return accepted, steps, state

    # -- learning ------------------------------------------------------------

    def update(self, steps: list[TraceStep]) -> dict:
        """One actor step and one critic step from `run_episode`'s steps."""
        if not steps:
            raise ConfigurationError("update requires a complete episode")
        cfg = self.config
        returns = np.zeros(len(steps))
        acc = 0.0
        for i in range(len(steps) - 1, -1, -1):
            acc = steps[i].reward + cfg.gamma * acc
            returns[i] = acc
        psn = np.stack([s.psn for s in steps])
        nspr = np.stack([s.nspr for s in steps])
        load = (np.stack([s.load for s in steps]) if self.actor.use_load
                else None)

        # critic first; advantages for the actor use the pre-update values
        values, acts = self.critic.forward_batch(psn, nspr, load)
        advantages = returns - values[:, 0]
        critic_loss = float(np.sum(advantages * advantages))
        self.critic.backward(acts, (-2.0 * advantages)[:, None])
        self.critic.params.sgd_step(cfg.critic_lr)

        # d(-A_t log pi(a_t))/dz_t = A_t (pi_t - onehot(a_t)); the shaping
        # shifts the scores but is a constant. The actor's parameters have
        # not moved since selection, so its GCN activations still hold.
        gcn = [tuple(np.concatenate(parts) for parts in zip(*layer))
               for layer in zip(*(s.gcn for s in steps))]
        z, acts = self.actor.forward_batch(psn, nspr, load, gcn)
        z = z.copy()
        for i, s in enumerate(steps):
            if s.shaping is not None:
                z[i] += s.shaping
        rows = np.arange(len(steps))
        actions = np.array([s.action for s in steps])
        actor_loss = float(np.sum(
            log_softmax(z)[rows, actions] * -advantages))
        grad = softmax(z) * advantages[:, None]
        grad[rows, actions] -= advantages
        self.actor.backward(acts, grad)
        self.actor.params.sgd_step(cfg.actor_lr)

        self.episodes_trained += 1
        return {
            "actor_loss": actor_loss,
            "critic_loss": critic_loss,
            "mean_advantage": float(advantages.mean()),
            "return": float(returns[0]),
        }

    # -- persistence -----------------------------------------------------------

    def manifest(self) -> dict:
        return {
            "kind": "agent",
            "variant": self.config.variant,
            "gamma": self.config.gamma,
            "xi": self.config.xi,
            "eta": self.config.eta,
            "beta": self.config.beta,
            # a field of the format; actions always target servers
            "allow_any_node": False,
            "episodes_trained": self.episodes_trained,
            "net_fingerprint": self.net_fingerprint,
            "actor": self.actor.manifest(),
            "critic": self.critic.manifest(),
        }

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Every parameter, named "actor.<name>" or "critic.<name>"."""
        arrays = {f"actor.{k}": v for k, v in self.actor.params.arrays().items()}
        arrays.update({f"critic.{k}": v
                       for k, v in self.critic.params.arrays().items()})
        return arrays

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Replace every parameter from a `state_arrays()` mapping; a
        failed check replaces none."""
        nets = {"actor": {}, "critic": {}}
        for key, value in arrays.items():
            net, _, name = key.partition(".")
            if net not in nets:
                raise CheckpointError(f"unexpected agent array {key!r}")
            nets[net][name] = value
        self.actor.params.check_arrays(nets["actor"])
        self.critic.params.check_arrays(nets["critic"])
        self.actor.params.load_arrays(nets["actor"])
        self.critic.params.load_arrays(nets["critic"])

    def save(self, path) -> None:
        save_checkpoint(path, self.manifest(), self.state_arrays())

    @classmethod
    def load(cls, path, net: SubstrateNetwork,
             load_model: LoadModel | None = None) -> "Agent":
        manifest, arrays = load_checkpoint(path)

        def field(name, convert=None):
            return manifest_field(manifest, name, "agent checkpoint", convert)

        if manifest.get("kind") != "agent":
            raise CheckpointError("checkpoint does not hold an agent")
        if field("net_fingerprint") != net.fingerprint():
            raise CheckpointError(
                "checkpoint was trained on a different substrate topology")
        variant = field("variant")
        if field("allow_any_node") is not False:
            raise CheckpointError(
                "agent checkpoint field 'allow_any_node' must be false: "
                "actions target servers only")
        try:
            config = AgentConfig.for_variant(
                variant, gamma=field("gamma", finite_number),
                xi=field("xi", finite_number), eta=field("eta", finite_number),
                beta=field("beta", finite_number))
        except ConfigurationError as exc:
            raise CheckpointError(f"agent checkpoint: {exc}") from exc
        agent = cls(config, net, load_model)
        n_actions = manifest_field(field("actor"), "n_actions",
                                   "agent checkpoint actor")
        if n_actions != len(agent.actions):
            raise CheckpointError(
                "checkpoint action space does not match this substrate")
        agent.load_arrays(arrays)
        agent.episodes_trained = field("episodes_trained", whole_number)
        return agent
