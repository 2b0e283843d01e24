"""Workloads, timed passes and output checks of the slicesim benchmark.

A pass drives the public API in the order of the ``simulate`` and
``train`` commands: load_scenario, build_network, generate_events,
Agent(...), Simulation.run, then the metrics writers. It runs in one
process as a closed loop: the event loop takes the next event only after
the previous one has finished. Every pass of a run uses the same seed, so
every pass must write the same bytes; a traced pass records spans around
each layer and must write the same bytes as the untraced ones.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from slicesim import metrics
from slicesim import scenario as scenario_mod
from slicesim.agent import Agent, AgentConfig, uses_load
from slicesim.metrics import gar
from slicesim.simulation import AgentPolicy, HeuristicPolicy, Simulation

from spans import Target, Tracer

SEED_STRIDE = 1000      # a run's traffic seeds lie this far apart
CAL_REF_S = 0.04        # calibrate()'s time at the reference host speed
TAIL_BEYOND = 10        # samples that must lie beyond the reported tail
AUDIT_EPS = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    variant: str | None      # agent variant trained online; None: heuristic
    arrivals: int            # arrivals simulated per pass
    seeds: int               # traffic seeds a run cycles through, one a pass


# Why each exists is in README.md. A run cycles through `seeds` traffic
# seeds, one pass each. Passes are sized to take 1 to 5 s, set-up
# included, on a 2-CPU host, and cycles 10 to 18 s, so that a 40 s run
# repeats each seed two or more times. The learner's acceptance varies
# so much from one traffic seed to the next that the training workloads
# pool several seeds (README.md has the figures).
WORKLOADS = {w.name: w for w in (
    Workload("heuristic-reference", "reference", None, 1200, seeds=2),
    Workload("ha-drl-desk", "desk", "ha-drl", 150, seeds=8),
    Workload("ha-edrl-reference", "reference", "ha-edrl", 25, seeds=4),
)}

E2E_UNITS = {
    "setup_s": "s",
    "ms_per_arrival": "ms",
    "arrival_ms_p50": "ms",
    "arrival_ms_tail": "ms",
    "acceptance_ratio": "ratio",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "placement.route_all_ms": "ms",
    "placement.route_ms": "ms",
    "placement.route_calls": "count",
    "placement.route_fail_ratio": "ratio",
    "placement.step_success_ratio": "ratio",
    "placement.apply_action_ms": "ms",
    "heuristic.heu_select_ms": "ms",
    "heuristic.advice_exists_ratio": "ratio",
    "substrate.commit_ms": "ms",
    "substrate.release_ms": "ms",
    "substrate.commit_calls": "count",
    "substrate.rolled_back_ratio": "ratio",
    "substrate.cpu_util_mean": "ratio",
    "agent.observe_ms": "ms",
    "agent.select_action_ms": "ms",
    "agent.update_ms": "ms",
    "agent.steps": "count",
    "networks.forward_ms": "ms",
    "networks.forward_calls": "count",
    "networks.sgd_step_ms": "ms",
    "autodiff.backward_ms": "ms",
    "autodiff.tensors_created": "count",
    "traffic.generate_events_s": "s",
    "traffic.events": "count",
    "traffic.forecast_ms": "ms",
    "simulation.loop_ms": "ms",
    "simulation.ledger_peak": "count",
    "scenario.load_s": "s",
    "metrics.write_s": "s",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ms": "ms",
}


def _pending_uid(args) -> int:
    sim = args[0]
    return sim.events[sim.cursor].uid if sim.cursor < len(sim.events) else -1


TARGETS = (
    Target("scenario.load", "slicesim.scenario", "load_scenario"),
    Target("substrate.build_network", "slicesim.scenario",
           "Scenario.build_network"),
    Target("traffic.generate_events", "slicesim.traffic", "generate_events"),
    Target("traffic.forecast", "slicesim.traffic",
           "LoadModel.forecast_features"),
    Target("agent.init", "slicesim.agent", "Agent.__init__"),
    Target("simulation.run", "slicesim.simulation", "Simulation.run"),
    Target("simulation.step", "slicesim.simulation", "Simulation.step",
           request_of=_pending_uid),
    Target("policy.place", "slicesim.simulation", "HeuristicPolicy.place"),
    Target("policy.place", "slicesim.simulation", "AgentPolicy.place"),
    Target("heuristic.place_full", "slicesim.heuristic", "heu_place_full"),
    Target("heuristic.heu_select", "slicesim.heuristic", "heu_select",
           outcome=lambda advice: "exists" if advice.exists else None),
    Target("placement.route_all", "slicesim.placement", "route_all"),
    Target("placement.route", "slicesim.placement", "route",
           outcome=lambda path: "none" if path is None else None),
    Target("placement.apply_action", "slicesim.placement", "apply_action",
           outcome=lambda out: "success" if out.success else None),
    Target("placement.fail_step", "slicesim.placement", "fail_step"),
    Target("placement.rollback", "slicesim.placement", "rollback"),
    Target("substrate.commit", "slicesim.substrate", "SubstrateNetwork.commit"),
    Target("substrate.release", "slicesim.substrate",
           "SubstrateNetwork.release"),
    Target("agent.run_episode", "slicesim.agent", "Agent.run_episode"),
    Target("agent.observe", "slicesim.agent", "Agent.observe"),
    Target("agent.select_action", "slicesim.agent", "Agent.select_action"),
    Target("agent.update", "slicesim.agent", "Agent.update"),
    Target("networks.forward", "slicesim.networks", "SliceNet.forward"),
    Target("networks.sgd_step", "slicesim.networks", "ParameterSet.sgd_step"),
    Target("autodiff.backward", "slicesim.autodiff", "Tensor.backward"),
    Target("metrics.write", "slicesim.metrics", "write_records_csv"),
    Target("metrics.write", "slicesim.metrics", "write_phase_csv"),
    Target("autodiff.tensors", "slicesim.autodiff", "Tensor.__init__",
           count_only=True),
)


# -- statistics -----------------------------------------------------------------

def tail(samples) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile): the (TAIL_BEYOND + 1)-th largest sample
    and the share of samples at or below it, in percent.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {n}")
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# -- host speed --------------------------------------------------------------------

def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work that
    runs no slicesim code.

    A shared host's speed drifts by tens of percent over seconds to
    minutes, and this loop slows with it. A pass's times are scaled by
    CAL_REF_S over the mean of the calibrations just before and just
    after it, which puts runs made at different host speeds on one scale.
    """
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    total = 0
    for i in range(40_000):
        total += i * i
        table[i & 1023] = table.get(i & 1023, 0.0) + 1.5
    a = np.linspace(0.0, 1.0, 2000 * 126).reshape(2000, 126)
    b = np.full((126, 126), 1.0 / 126)
    for _ in range(8):
        a = np.tanh(a @ b) + a
    return time.perf_counter() - t0


# -- set-up ------------------------------------------------------------------------

def default_seed(w: Workload) -> int:
    return scenario_mod.load_scenario(w.scenario).seed


def agent_config(scenario, variant: str) -> AgentConfig:
    """The config ``slicesim train --variant <variant>`` builds by default."""
    defaults = scenario.agent_defaults
    overrides = {k: float(defaults[k])
                 for k in ("beta", "xi", "eta", "gamma", "actor_lr", "critic_lr")
                 if k in defaults}
    if defaults.get("allow_any_node"):
        overrides["allow_any_node"] = True
    return AgentConfig.for_variant(variant, seed=int(defaults.get("seed", 0)),
                                   **overrides)


@dataclass
class Setup:
    scenario: object
    net: object
    events: list
    policy: object
    agent: Agent | None


def set_up(w: Workload, seed: int, trace_sink=None) -> Setup:
    scenario = scenario_mod.load_scenario(w.scenario)
    net = scenario.build_network()
    events = scenario.generate_events(seed=seed)
    if w.variant is None:
        return Setup(scenario, net, events,
                     HeuristicPolicy(trace_sink=trace_sink), None)
    load_model = scenario.build_load_model(net)
    agent = Agent(agent_config(scenario, w.variant), net,
                  load_model if uses_load(w.variant) else None)
    return Setup(scenario, net, events,
                 AgentPolicy(agent, train=True, trace_sink=trace_sink), agent)


class StepRecords:
    """trace_sink that counts the per-step records a policy emits."""

    def __init__(self):
        self.targeted = 0       # records with a target server (>= 0)
        self.failed_late = 0    # failures after a committed step

    def __call__(self, record: dict) -> None:
        if record["target"] >= 0:
            self.targeted += 1
        if not record["success"] and record["step"] >= 2:
            self.failed_late += 1


# -- output checks ------------------------------------------------------------------

def audit_ledger(sim: Simulation) -> list[str]:
    """Every residual equals its maximum minus the ledger's holdings."""
    held = {"cpu": defaultdict(float), "ram": defaultdict(float),
            "bw": defaultdict(float)}
    for delta in sim.ledger.values():
        for key, part in (("cpu", delta.node_cpu), ("ram", delta.node_ram),
                          ("bw", delta.link_bw)):
            for where, amount in part.items():
                held[key][where] += amount
    residuals = sim.net.residuals()
    expected = [(f"node {n.id} cpu", residuals["cpu"][n.id],
                 n.max_cpu - held["cpu"][n.id]) for n in sim.net.nodes]
    expected += [(f"node {n.id} ram", residuals["ram"][n.id],
                  n.max_ram - held["ram"][n.id]) for n in sim.net.nodes]
    expected += [(f"link {k} bw", residuals["bw"][k], link.max_bw - held["bw"][k])
                 for k, link in sim.net.links.items()]
    problems = []
    for where, residual, want in expected:
        if residual < -AUDIT_EPS:
            problems.append(f"ledger audit: {where} residual {residual!r} < 0")
        if abs(residual - want) > AUDIT_EPS:
            problems.append(f"ledger audit: {where} residual {residual!r} "
                            f"!= max - held {want!r}")
    return problems


def finite_parameters(agent: Agent) -> list[str]:
    return [f"parameter {name}.{key} is not finite"
            for name, net in (("actor", agent.actor), ("critic", agent.critic))
            for key, values in net.params.arrays().items()
            if not np.isfinite(values).all()]


def golden_applies(w: Workload, seed: int, golden: dict | None) -> bool:
    return (golden is not None and w.variant is None
            and w.scenario == golden["scenario"]
            and seed == golden["traffic_seed"])


def check_golden(records, golden: dict) -> list[str]:
    """Compare a heuristic run with the frozen trajectory, up to its length."""
    problems = []
    flags = [int(r.accepted) for r in records[:len(golden["first_flags"])]]
    if flags != golden["first_flags"][:len(flags)]:
        problems.append("golden: first acceptance flags differ")
    for upto, want in golden["gar_checkpoints"].items():
        k = int(upto)
        if k <= len(records) and abs(gar(records, k) - want) > 1e-12:
            problems.append(f"golden: gar after {k} arrivals is "
                            f"{gar(records, k)!r}, expected {want!r}")
    return problems


def span_problems(tracer: Tracer, sink: StepRecords, sim: Simulation,
                  accepted: int) -> list[str]:
    """Spans nest, carry their step's request id, add up, and reconcile
    with what the simulation itself counted."""
    problems = []
    step_id = tracer.name_id("simulation.step")
    owner = [-1] * len(tracer.start)
    for i, (nid, s, e, p, r) in enumerate(zip(
            tracer.name, tracer.start, tracer.end, tracer.parent,
            tracer.request)):
        if not e >= s:
            problems.append(f"span {i} ({tracer.names[nid]}) not closed")
        if p >= 0 and not (tracer.start[p] <= s and e <= tracer.end[p]):
            problems.append(f"span {i} lies outside its parent {p}")
        if p < 0 and i != 0:
            problems.append(f"span {i} ({tracer.names[nid]}) has no parent")
        owner[i] = r if nid == step_id else (owner[p] if p >= 0 else -1)
        if owner[i] != r or (nid == step_id and r < 0):
            problems.append(f"span {i} ({tracer.names[nid]}) carries request "
                            f"{r}, expected {owner[i]}")
        if len(problems) > 20:
            return problems
    wall = tracer.end[0] - tracer.start[0]
    if abs(sum(tracer.self_times()) - wall) > 1e-6:
        problems.append("span self times do not add up to the pass wall time")

    spans = tracer.by_name()
    calls = {name: n for name, (n, _) in spans.items()}
    if calls.get("placement.apply_action", 0) != sink.targeted:
        problems.append(f"apply_action spans {calls.get('placement.apply_action', 0)}"
                        f" != step records with a target {sink.targeted}")
    departed = accepted - len(sim.ledger)
    if calls.get("substrate.release", 0) != departed + sink.failed_late:
        problems.append(f"release spans {calls.get('substrate.release', 0)} != "
                        f"accepted departures {departed} + non-empty "
                        f"rollbacks {sink.failed_late}")
    if nonempty_rollbacks(tracer) != sink.failed_late:
        problems.append("rollback spans with a release differ from failed "
                        "steps after a commit")
    return problems


def nonempty_rollbacks(tracer: Tracer) -> int:
    rollback = tracer.name_id("placement.rollback")
    release = tracer.name_id("substrate.release")
    return len({p for nid, p in zip(tracer.name, tracer.parent)
                if nid == release and p >= 0 and tracer.name[p] == rollback})


# -- passes --------------------------------------------------------------------------

@dataclass
class Pass:
    seed: int
    setup_s: float
    run_s: float
    arrival_s: list[float]
    accepted: int
    outputs: dict[str, bytes]
    rng_state: object
    problems: list[str]
    scale: float = 1.0      # CAL_REF_S over the host calibration around it
    layers: dict[str, float] = field(default_factory=dict)


def run_pass(w: Workload, seed: int, prefix: str, golden: dict | None,
             tracer: Tracer | None = None) -> Pass:
    """Set up, simulate w.arrivals arrivals, write outputs, check them."""
    sink = StepRecords() if tracer is not None else None
    cal_before = calibrate()
    root = tracer.open("bench.pass") if tracer is not None else None
    t0 = time.perf_counter()
    ctx = set_up(w, seed, sink)
    setup_s = time.perf_counter() - t0

    stamps: list[float] = []
    samples: list[tuple[int, float]] = []   # (ledger size, cpu in use)
    cpu_total = ctx.net.total_capacity("cpu")
    if tracer is None:
        def on_arrival(index, sim):
            stamps.append(time.perf_counter())
    else:
        def on_arrival(index, sim):
            stamps.append(time.perf_counter())
            free = sum(node.cap_cpu for node in sim.net.nodes)
            samples.append((len(sim.ledger), 1.0 - free / cpu_total))

    sim = Simulation(ctx.net, ctx.events, ctx.policy)
    tensors = tracer.counts["autodiff.tensors"] if tracer is not None else 0
    r0 = time.perf_counter()
    records = sim.run(max_arrivals=w.arrivals, on_arrival=on_arrival)
    run_s = time.perf_counter() - r0
    if tracer is not None:
        tensors = tracer.counts["autodiff.tensors"] - tensors
    metrics.write_records_csv(records, prefix + ".csv")
    metrics.write_phase_csv(records, prefix + ".phases.csv",
                            ctx.scenario.phase_size,
                            [c.id for c in ctx.scenario.classes])
    if tracer is not None:
        tracer.close(root)
    cal_after = calibrate()

    outputs = {}
    for ext in (".csv", ".phases.csv"):
        with open(prefix + ext, "rb") as fh:
            outputs[ext] = fh.read()
    accepted = sum(r.accepted for r in records)
    problems = []
    if len(records) != w.arrivals:
        problems.append(f"stream ended after {len(records)} of "
                        f"{w.arrivals} arrivals")
    problems += audit_ledger(sim)
    if ctx.agent is not None:
        problems += finite_parameters(ctx.agent)
    if golden_applies(w, seed, golden):
        problems += check_golden(records, golden)
    arrival_s = [b - a for a, b in zip([r0] + stamps, stamps)]
    result = Pass(seed, setup_s, run_s, arrival_s, accepted, outputs,
                  ctx.agent.rng.bit_generator.state if ctx.agent else None,
                  problems, 2.0 * CAL_REF_S / (cal_before + cal_after))
    if tracer is not None:
        result.problems += span_problems(tracer, sink, sim, accepted)
        result.layers = layer_metrics(tracer, len(records), len(ctx.events),
                                      samples, tensors)
    return result


# Per-layer times: metric -> the span whose self time it reports, per
# arrival in ms or per pass in s. Every other span's self time (the glue:
# simulation.run, policy.place, heuristic.place_full, agent.run_episode,
# agent.init, substrate.build_network, placement.fail_step,
# placement.rollback, the pass itself) goes to trace.unattributed_ms, so
# the reported times add up to the pass's wall time.
SELF_MS = {
    "placement.route_all_ms": "placement.route_all",
    "placement.route_ms": "placement.route",
    "placement.apply_action_ms": "placement.apply_action",
    "heuristic.heu_select_ms": "heuristic.heu_select",
    "substrate.commit_ms": "substrate.commit",
    "substrate.release_ms": "substrate.release",
    "agent.observe_ms": "agent.observe",
    "agent.select_action_ms": "agent.select_action",
    "agent.update_ms": "agent.update",
    "networks.forward_ms": "networks.forward",
    "networks.sgd_step_ms": "networks.sgd_step",
    "autodiff.backward_ms": "autodiff.backward",
    "traffic.forecast_ms": "traffic.forecast",
    "simulation.loop_ms": "simulation.step",
}
SELF_S = {
    "traffic.generate_events_s": "traffic.generate_events",
    "scenario.load_s": "scenario.load",
    "metrics.write_s": "metrics.write",
}


def layer_metrics(tracer: Tracer, n: int, events: int, samples, tensors: int):
    """Per-layer metrics of one traced pass; times are self times."""
    spans = tracer.by_name()

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    def seconds(name):
        return spans.get(name, (0, 0.0))[1]

    def share(part, whole):
        return part / whole if whole else 0.0

    wall = tracer.end[0] - tracer.start[0]
    reported = sum(seconds(span) for span in (*SELF_MS.values(),
                                              *SELF_S.values()))
    c = tracer.counts
    return {
        **{metric: 1000.0 * seconds(span) / n
           for metric, span in SELF_MS.items()},
        **{metric: seconds(span) for metric, span in SELF_S.items()},
        "placement.route_calls": calls("placement.route") / n,
        "placement.route_fail_ratio": share(c["placement.route.none"],
                                            calls("placement.route")),
        "placement.step_success_ratio": share(
            c["placement.apply_action.success"], calls("placement.apply_action")),
        "heuristic.advice_exists_ratio": share(
            c["heuristic.heu_select.exists"], calls("heuristic.heu_select")),
        "substrate.commit_calls": calls("substrate.commit") / n,
        "substrate.rolled_back_ratio": share(nonempty_rollbacks(tracer),
                                             calls("substrate.commit")),
        "substrate.cpu_util_mean": statistics.fmean(s[1] for s in samples),
        "agent.steps": calls("agent.select_action") / n,
        "networks.forward_calls": calls("networks.forward") / n,
        "autodiff.tensors_created": tensors / n,
        "traffic.events": events,
        "simulation.ledger_peak": max(s[0] for s in samples),
        "trace.unattributed_ms": 1000.0 * (wall - reported) / n,
    }


# -- a whole run ------------------------------------------------------------------------

def steal_seconds() -> float | None:
    """CPU time the hypervisor took from this host's CPUs, summed over
    them, from /proc/stat; None where that is not available."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


@dataclass
class RunResult:
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.attempted > 0

    @property
    def failed(self) -> int:
        return 0 if self.correct else max(self.attempted, 1)


def pass_seeds(w: Workload, seed: int) -> list[int]:
    """The traffic seeds a run cycles through, the run's own seed first."""
    return [seed + SEED_STRIDE * k for k in range(w.seeds)]


def seed_medians(passes: list[Pass], seeds: list[int], value) -> list:
    """For each seed, in order, the median of value(pass) over its passes."""
    return [statistics.median(value(p) for p in passes if p.seed == s)
            for s in seeds]


def arrival_medians(passes: list[Pass], seeds: list[int]) -> list[float]:
    """Each arrival's scaled time, the median over its seed's passes.

    Every pass of a seed processes the same arrivals, so this keeps each
    arrival's own cost and drops interruptions that hit one pass only."""
    out = []
    for s in seeds:
        runs = [[x * p.scale for x in p.arrival_s]
                for p in passes if p.seed == s]
        out += [statistics.median(times) for times in zip(*runs)]
    return out


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 out_dir: str, golden: dict | None = None) -> RunResult:
    """Cycle through pass_seeds(w, seed), one pass per seed, until the next
    pass would overrun `seconds`; the first cycle always completes. With
    tracing, each untraced pass is followed by a traced one on its seed.

    End-to-end times are scaled to the reference host speed (calibrate).
    Every pass of a seed does the same work, so each time is first the
    median over a seed's passes, then pooled over the seeds. Unscaled
    figures go to details."""
    os.makedirs(out_dir, exist_ok=True)
    seeds = pass_seeds(w, seed)
    result = RunResult()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    kept = None         # the first traced pass's spans, written at the end
    steal0, cpu0, wall0 = steal_seconds(), time.process_time(), time.perf_counter()
    try:
        deadline = time.perf_counter() + seconds
        while True:
            started = time.perf_counter()
            s = seeds[len(untraced) % len(seeds)]
            base = os.path.join(out_dir, f"{w.name}-seed{s}")
            gc.collect()    # leave no garbage of the last pass to this one
            result.attempted += w.arrivals
            untraced.append(run_pass(w, s, base + "-untraced", golden))
            if trace:
                gc.collect()
                result.attempted += w.arrivals
                with Tracer().installed(TARGETS) as tracer:
                    traced.append(run_pass(w, s, base + "-traced", golden,
                                           tracer))
                if kept is None:
                    kept, kept_path = tracer, base + ".spans.csv"
            now = time.perf_counter()
            if len(untraced) >= len(seeds) and now + (now - started) > deadline:
                break
    except Exception as exc:    # report the failure as a failed run
        traceback.print_exc(file=sys.stderr)
        result.problems.append(f"{type(exc).__name__}: {exc}")
        result.attempted = max(result.attempted, w.arrivals)
        return result

    first = {}          # seed -> its first pass
    for p in untraced + traced:
        result.problems += p.problems
        ref = first.setdefault(p.seed, p)
        if p.outputs != ref.outputs:
            result.problems.append(f"a pass of seed {p.seed} wrote different "
                                   "outputs from its first pass")
        if p.rng_state != ref.rng_state:
            result.problems.append(f"a pass of seed {p.seed} ended in a "
                                   "different RNG state")

    arrivals = w.arrivals * len(seeds)
    samples = arrival_medians(untraced, seeds)
    tail_s, tail_percentile = tail(samples)
    result.e2e = {
        "setup_s": statistics.median(p.setup_s * p.scale for p in untraced),
        "ms_per_arrival": 1000.0 * sum(seed_medians(
            untraced, seeds, lambda p: p.run_s * p.scale)) / arrivals,
        "arrival_ms_p50": 1000.0 * statistics.median(samples),
        "arrival_ms_tail": 1000.0 * tail_s,
        "acceptance_ratio": sum(first[s].accepted for s in seeds) / arrivals,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result.details = {
        "arrivals_per_pass": w.arrivals,
        "pass_seeds": seeds,
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "unscaled_setup_s": statistics.median(p.setup_s for p in untraced),
        "unscaled_ms_per_arrival": 1000.0 * sum(seed_medians(
            untraced, seeds, lambda p: p.run_s)) / arrivals,
        "per_pass_scale": [p.scale for p in untraced],
        "per_pass_ms_per_arrival": [1000.0 * p.run_s / w.arrivals
                                    for p in untraced],
        "cpu_over_wall": ((time.process_time() - cpu0)
                          / (time.perf_counter() - wall0)),
        "host_steal_s": (None if steal0 is None
                         else steal_seconds() - steal0),
        "tail_percentile": tail_percentile,
        "tail_samples": len(samples),
    }
    if traced:
        # Per-layer figures are as measured, unscaled, and means rather
        # than medians, so that they add up to the traced passes' mean
        # wall time.
        result.layers = {name: statistics.fmean(
                             statistics.fmean(p.layers[name] for p in traced
                                              if p.seed == s)
                             for s in seeds)
                         for name in traced[0].layers}
        result.layers["trace.overhead_ms"] = statistics.median(
            1000.0 * (t.run_s - u.run_s) / w.arrivals
            for u, t in zip(untraced, traced))
        kept.write_csv(kept_path)
        result.details["spans"] = len(kept.start)
        result.details["span_self_ms_per_arrival"] = {
            name: 1000.0 * s / w.arrivals
            for name, (_, s) in sorted(kept.by_name().items())}
        result.details["wrapped_bindings"] = kept.bindings
    return result
