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
learning rates. An update stacks the episode's T observations, runs the
critic forward once over the stack, and hands the closed-form loss
gradients with respect to the outputs to the network's batched backward:
-A_t (onehot(a_t) - pi_t) for the actor's scores, -2 (R_t - v_t) for the
critic's value. The actor is not run again: its scores and activations
are the ones each step saved at selection, since the parameters do not
move within an episode. Each step records the actor's parameter
version, and a trace taken before the last step or load is refused.
A critic whose relu output is 0 over the whole episode has a zero
gradient, so its backward pass and step are skipped.

The learner trains in float32: both networks hold their arrays in the
agent's dtype, while observations, returns, advantages, the shaped
scores and the sampling distribution stay float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (CheckpointError, ConfigurationError, FieldError,
                     check_fields, whole_number)
from .heuristic import HeuristicAdvice, heu_select
from .networks import (MAX_PARAMETERS, Activations, SliceNet,
                       load_checkpoint, log_softmax, manifest_field,
                       normalized_propagation, parameter_count,
                       save_checkpoint, softmax, stack_activations)
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
        _check_variant(self.variant)
        check_fields(self)
        for name in ("actor_lr", "critic_lr"):
            if getattr(self, name) <= 0:
                raise FieldError(self, name, "must be > 0")
        if not 0 < self.gamma <= 1:
            raise FieldError(self, "gamma", "must be in (0, 1]")
        if uses_heuristic(self.variant) and self.beta <= 0:
            raise FieldError(self, "beta", "must be > 0 for ha variants")
        # the advice's gap plus eta is the base of a fractional power
        if uses_heuristic(self.variant) and self.eta < 0:
            raise FieldError(self, "eta", "must be >= 0 for ha variants")

    @classmethod
    def for_variant(cls, variant: str, **overrides) -> "AgentConfig":
        _check_variant(variant)
        actor_lr, critic_lr = _DEFAULT_RATES[variant]
        base = cls(variant=variant, actor_lr=actor_lr, critic_lr=critic_lr)
        return replace(base, **overrides) if overrides else base


def _check_variant(variant) -> None:
    # the tuple, not the dict: an unhashable variant is just unknown
    if variant not in VARIANTS:
        raise FieldError(AgentConfig, "variant",
                         f"must be one of {VARIANTS}, got {variant!r}")


def inverse_cdf_draw(probs: np.ndarray, rng: np.random.Generator) -> int:
    """One index drawn from the float64 distribution probs, by one
    `rng.random()`: the cumulative sums, divided by their last entry, are
    searched from the right, so the index is the first whose cumulative
    share exceeds the uniform and a zero-probability index is never
    drawn."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


@dataclass
class TraceStep:
    psn: np.ndarray
    nspr: np.ndarray
    load: np.ndarray | None
    action: int                      # index into the agent's action list
    probability: float
    shaping: np.ndarray | None       # additive score shift, constant in grads
    acts: Activations | None         # the actor's selection pass, one row
    version: int                     # the actor's parameter version then
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
        # the links' residual bw, then the pad; refilled on every call
        self._bw = np.zeros(len(net.bw) + 1)
        # each column's divisor; the last is set per request
        self._divisor = np.array([self.cpu, self.ram, self.bw, 1.0])

    def psn_features(self, net: SubstrateNetwork,
                     state: PlacementEpisodeState) -> np.ndarray:
        """(|N|, 4) rows of residual cpu, ram, incident bw, and the share
        of the request's VNFs already placed on the node.

        The incident bw of a node sums its links in neighbour order, as
        the tests' `oracles.outgoing_bw` does: reducing over axis 0 adds
        the gathered rows one after another, so every sum rounds the
        same way.
        """
        bw = self._bw
        bw[:-1] = net.bw
        feats = np.empty((len(net.nodes), 4))
        feats[:, 0] = net.cpu
        feats[:, 1] = net.ram
        np.add.reduce(bw[self.incident], axis=0, out=feats[:, 2])
        feats[:, 3] = 0.0
        for host in state.hosts:
            feats[host, 3] += 1.0
        self._divisor[3] = state.request.vnf_count
        feats /= self._divisor
        return feats

    def nspr_features(self, state: PlacementEpisodeState) -> np.ndarray:
        req = state.request
        return np.array([
            req.cpu / self.cpu,
            req.ram / self.ram,
            (req.bw if req.vnf_count > 1 else 0.0) / self.bw,
            state.remaining / req.vnf_count,
        ], dtype=np.float64)


class Agent:
    """One learning policy instance bound to a substrate topology; its
    networks hold their arrays in dtype."""

    def __init__(self, config: AgentConfig, net: SubstrateNetwork,
                 load_model: LoadModel | None = None, dtype=np.float32):
        use_load = uses_load(config.variant)
        if use_load and load_model is None:
            raise ConfigurationError(
                f"variant {config.variant!r} needs a load model")
        size = sum(parameter_count(len(net.nodes), n_outputs, use_load)
                   for n_outputs in (len(net.servers), 1))
        if size > MAX_PARAMETERS:
            raise ConfigurationError(
                f"a learner for {len(net.nodes)} nodes and "
                f"{len(net.servers)} servers would hold {size:,} actor and "
                f"critic parameters, above the bound of {MAX_PARAMETERS:,}")
        self.config = config
        self.load_model = load_model if use_load else None
        self.scaler = FeatureScaler(net)
        self.actions = list(net.servers)
        self.action_index = {a: i for i, a in enumerate(self.actions)}
        self.net_fingerprint = net.fingerprint()

        prop = normalized_propagation(net.adjacency_matrix())
        ss = np.random.SeedSequence(config.seed)
        actor_ss, critic_ss, sample_ss = ss.spawn(3)
        self.actor = SliceNet(prop, len(self.actions), use_load, "tanh",
                              np.random.default_rng(actor_ss), dtype=dtype)
        self.critic = SliceNet(prop, 1, use_load, "relu",
                               np.random.default_rng(critic_ss), dtype=dtype)
        self.rng = np.random.default_rng(sample_ss)
        self.episodes_trained = 0

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
        """Score shift for the advised action: xi * (gap to max + eta)^beta,
        in float64 whatever z's dtype."""
        cfg = self.config
        if not uses_heuristic(cfg.variant):
            return None
        if advice is None:
            raise ConfigurationError(
                f"variant {cfg.variant!r} requires heuristic advice")
        if not advice.exists:
            return None
        a_star = self.action_index[advice.server]
        gap = float(z.max()) - float(z[a_star]) + cfg.eta
        shift = np.zeros(len(z))
        try:
            shift[a_star] = cfg.xi * gap ** cfg.beta
        except OverflowError as exc:
            raise ConfigurationError(
                f"variant {cfg.variant!r}: the advice's score shift "
                f"xi * (gap + eta) ** beta overflows (xi={cfg.xi}, "
                f"eta={cfg.eta}, beta={cfg.beta})") from exc
        return shift

    def select_action(self, psn, nspr, load,
                      advice: HeuristicAdvice | None = None):
        """Sample a target from the (possibly shaped) softmax policy.

        The target is one `inverse_cdf_draw` from the float64
        distribution. One that is not finite or does not sum to 1 within
        1e-9 raises ConfigurationError before anything is drawn.

        Returns (substrate node id, TraceStep without reward).
        """
        saved = []
        z = self.actor.forward(psn, nspr, load, saved=saved)
        shaping = self.shaping_vector(z, advice)
        if shaping is not None:
            z = z + shaping
        probs = softmax(z)
        probs = probs / probs.sum()
        # the entries are >= 0, so a NaN or inf one makes the sum one too
        total = float(probs.sum())
        if not (math.isfinite(total) and abs(total - 1.0) <= 1e-9):
            raise ConfigurationError(
                f"variant {self.config.variant!r}: the actor's action "
                f"probabilities are not a finite distribution")
        idx = inverse_cdf_draw(probs, self.rng)
        step = TraceStep(psn=psn, nspr=nspr, load=load, action=idx,
                         probability=float(probs[idx]), shaping=shaping,
                         acts=saved[0], version=self.actor.params.version)
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
        """One actor step and one critic step from `run_episode`'s steps.

        The critic's step is skipped when its relu output is 0 for every
        step of the episode: the relu gates every critic gradient to
        +-0, so the step would subtract lr * (+-0) from each weight and
        leave its bits as they are. Two cases would have moved a bit: a
        weight of -0.0, which becomes +0.0 when +0 is subtracted from it
        (Glorot draws and `np.zeros` give +0.0 and `x - x` rounds to
        +0.0, so only a hand-made checkpoint holds one), and an inf
        among the critic's weights or activations, where 0 * inf would
        have written NaN. A NaN output is truthy, so it steps. The
        critic's parameter version stays where it is; only the actor's
        is checked against a trace. The returned `critic_stepped` says
        which path was taken.
        """
        if not steps:
            raise ConfigurationError("update requires a complete episode")
        if any(s.acts is None for s in steps):
            raise ConfigurationError(
                "update needs each step's saved actor activations")
        if any(s.version != self.actor.params.version for s in steps):
            raise ConfigurationError(
                "update needs a trace taken with the actor's current "
                "parameters; this one is stale")
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
        critic_loss = float((advantages * advantages).sum())
        # an all-zero relu output has an all-zero gradient: no step
        critic_stepped = bool(values.any())
        if critic_stepped:
            self.critic.backward(acts, (-2.0 * advantages)[:, None])
            self.critic.params.sgd_step(cfg.critic_lr)

        # d(-A_t log pi(a_t))/dz_t = A_t (pi_t - onehot(a_t)); the shaping
        # shifts the scores but is a constant. The actor's parameters have
        # not moved since selection, so its selection passes still hold.
        acts = stack_activations([s.acts for s in steps])
        z = acts.out.astype(np.float64)
        for i, s in enumerate(steps):
            if s.shaping is not None:
                z[i] += s.shaping
        rows = np.arange(len(steps))
        actions = np.array([s.action for s in steps])
        actor_loss = float(
            (log_softmax(z)[rows, actions] * -advantages).sum())
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
            "critic_stepped": critic_stepped,
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

        def field(name):
            return manifest_field(manifest, name, "agent checkpoint")

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
        dtypes = {a.dtype for a in arrays.values()}
        if len(dtypes) != 1:
            raise CheckpointError(
                f"agent checkpoint tensors must share one dtype, got "
                f"{sorted(map(str, dtypes))}")
        # an e-variant's checkpoint also needs the caller's load model
        try:
            config = AgentConfig.for_variant(
                variant, gamma=field("gamma"), xi=field("xi"),
                eta=field("eta"), beta=field("beta"))
            agent = cls(config, net, load_model, dtype=dtypes.pop())
        except FieldError as exc:
            raise CheckpointError(
                f"agent checkpoint field {exc.field!r}: {exc.what}") from exc
        except ConfigurationError as exc:
            raise CheckpointError(f"agent checkpoint: {exc}") from exc
        n_actions = manifest_field(field("actor"), "n_actions",
                                   "agent checkpoint actor")
        if n_actions != len(agent.actions):
            raise CheckpointError(
                "checkpoint action space does not match this substrate")
        agent.load_arrays(arrays)
        episodes = field("episodes_trained")
        if not whole_number(episodes):
            raise CheckpointError(
                "agent checkpoint field 'episodes_trained': must be a whole "
                f"number >= 0, got {episodes!r}")
        agent.episodes_trained = episodes
        return agent
