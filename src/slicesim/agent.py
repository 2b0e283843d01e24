"""Learning policies: DRL, eDRL, and their heuristically assisted twins.

All four variants share one actor-critic core. The actor maps the
observation to one score per server and samples the placement target
from the softmax over those scores; the critic estimates the state
value. The e-variants additionally feed the 300-point load forecast
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
critic's value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CheckpointError, ConfigurationError
from .heuristic import HeuristicAdvice, heu_select
from .networks import (SliceNet, load_checkpoint, log_softmax, manifest_field,
                       normalized_propagation, save_checkpoint, softmax)
from .placement import PlacementEpisodeState, apply_action, episode_reward
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
        if self.actor_lr <= 0 or self.critic_lr <= 0:
            raise ConfigurationError("learning rates must be > 0")
        if not 0 < self.gamma <= 1:
            raise ConfigurationError("gamma must be in (0, 1]")
        if uses_heuristic(self.variant) and self.beta <= 0:
            raise ConfigurationError("beta must be > 0 for ha variants")

    @classmethod
    def for_variant(cls, variant: str, **overrides) -> "AgentConfig":
        if variant not in _DEFAULT_RATES:
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
    value: float                     # critic estimate at selection time
    reward: float = 0.0


@dataclass
class EpisodeTrace:
    steps: list[TraceStep] = field(default_factory=list)
    terminal: bool = False
    accepted: bool = False


class FeatureScaler:
    """Fixed normalizers: every resource feature is divided by the
    substrate-wide maximum of the matching per-node capacity."""

    def __init__(self, net: SubstrateNetwork):
        servers = [net.nodes[s] for s in net.servers]
        self.cpu = max(n.max_cpu for n in servers)
        self.ram = max(n.max_ram for n in servers)
        self.bw = max(net.max_outgoing_bw(n.id) for n in net.nodes)

    def psn_features(self, net: SubstrateNetwork,
                     state: PlacementEpisodeState) -> np.ndarray:
        n = len(net.nodes)
        size = state.request.vnf_count
        out = np.zeros((n, 4), dtype=np.float64)
        for node in net.nodes:
            out[node.id, 0] = node.cap_cpu / self.cpu
            out[node.id, 1] = node.cap_ram / self.ram
            out[node.id, 2] = net.outgoing_bw(node.id) / self.bw
            out[node.id, 3] = state.chi_of(node.id) / size
        return out

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

    def observe(self, state: PlacementEpisodeState, net: SubstrateNetwork,
                t: float):
        psn = self.scaler.psn_features(net, state)
        nspr = self.scaler.nspr_features(state)
        load = (self.load_model.forecast_features(t)
                if self.load_model is not None else None)
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
        z = self.actor.forward(psn, nspr, load)
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
        value = float(self.critic.forward(psn, nspr, load)[0])
        step = TraceStep(psn=psn, nspr=nspr, load=load, action=idx,
                         probability=float(probs[idx]), shaping=shaping,
                         value=value)
        return self.actions[idx], step

    # -- episode rollout -----------------------------------------------------

    def run_episode(self, request: SliceRequest, net: SubstrateNetwork,
                    t: float, trace_sink=None):
        """Place one request. Returns (accepted, trace, episode state).

        On acceptance the commits stay on the substrate and
        state.committed is the ledger the departure releases; a failed
        step has already rolled everything back. trace_sink, when given,
        receives one record dict per step.
        """
        state = PlacementEpisodeState(request)
        trace = EpisodeTrace()
        outcomes = []
        while not state.done:
            vnf_index = state.next_vnf
            advice = None
            if uses_heuristic(self.config.variant):
                advice = heu_select(state, net)
                self.heu_queries += 1
            psn, nspr, load = self.observe(state, net, t)
            target, step = self.select_action(psn, nspr, load, advice)
            trace.steps.append(step)
            outcome = apply_action(state, net, target)
            outcomes.append(outcome)
            if trace_sink is not None:
                trace_sink(outcome.to_record(request.uid, vnf_index, target))
            if not outcome.success:
                break
        rewards = episode_reward(outcomes, request.vnf_count)
        for step, r in zip(trace.steps, rewards):
            step.reward = r
        trace.terminal = True
        trace.accepted = outcomes[-1].success
        return trace.accepted, trace, state

    # -- learning ------------------------------------------------------------

    def update(self, trace: EpisodeTrace) -> dict:
        """One actor step and one critic step from a finished trace."""
        if not trace.terminal or not trace.steps:
            raise ConfigurationError("update requires a complete trace")
        cfg = self.config
        steps = trace.steps
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
        # shifts the scores but is a constant
        z, acts = self.actor.forward_batch(psn, nspr, load)
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
        """Replace every parameter from a `state_arrays()` mapping."""
        nets = {"actor": {}, "critic": {}}
        for key, value in arrays.items():
            net, _, name = key.partition(".")
            if net not in nets:
                raise CheckpointError(f"unexpected agent array {key!r}")
            nets[net][name] = value
        self.actor.params.load_arrays(nets["actor"])
        self.critic.params.load_arrays(nets["critic"])

    def save(self, path) -> None:
        save_checkpoint(path, self.manifest(), self.state_arrays())

    @classmethod
    def load(cls, path, net: SubstrateNetwork,
             load_model: LoadModel | None = None,
             config: AgentConfig | None = None) -> "Agent":
        manifest, arrays = load_checkpoint(path)

        def field(name):
            return manifest_field(manifest, name, "agent checkpoint")

        def number(name):
            value = field(name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise CheckpointError(
                    f"agent checkpoint field {name!r} must be a number, "
                    f"got {value!r}")
            return value

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
        if config is None:
            try:
                config = AgentConfig.for_variant(
                    variant, gamma=number("gamma"), xi=number("xi"),
                    eta=number("eta"), beta=number("beta"))
            except ConfigurationError as exc:
                raise CheckpointError(f"agent checkpoint: {exc}") from exc
        elif config.variant != variant:
            raise CheckpointError(
                f"checkpoint holds variant {variant!r}, "
                f"config asks for {config.variant!r}")
        agent = cls(config, net, load_model)
        n_actions = manifest_field(field("actor"), "n_actions",
                                   "agent checkpoint actor")
        if n_actions != len(agent.actions):
            raise CheckpointError(
                "checkpoint action space does not match this substrate")
        agent.load_arrays(arrays)
        agent.episodes_trained = int(manifest.get("episodes_trained", 0))
        return agent
