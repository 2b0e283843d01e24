"""Per-VNF placement against the substrate: routing, commits, rewards.

A request is placed one VNF at a time. Each step targets a server; the
step succeeds when the server covers the VNF's cpu and ram demand and,
from the second VNF on, a bandwidth-feasible path to the previous host
exists. Successful steps commit immediately; the first failure rolls the
whole request back and ends the episode.

Step reward components:

    delta_a = 100 on success, -100 on failure
    delta_b = cap_cpu(n)/max_cpu(n) + cap_ram(n)/max_ram(n),
              read before the commit, so an empty server scores 2.0
    delta_c = 1/|P| over the routed path's hop count, 1.0 when the
              consecutive VNFs share a server

The episode reward is the sum of per-step products delta_a*delta_b*delta_c,
paid at the terminal step and scaled by 1/(20*T) into (0, 10]; a failed
step pays -100 unscaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .substrate import _EPS, NodeKind, ResourceDelta, SubstrateNetwork
from .traffic import SliceRequest

SUCCESS_REWARD = 100.0
FAILURE_REWARD = -100.0

# max per-step product: 100 * 2.0 * 1.0
_MAX_STEP_PRODUCT = 200.0


def route(net: SubstrateNetwork, src: int, dst: int, bw: float):
    """Minimum-hop path from src to dst over links with residual >= bw.

    Returns the node sequence as a tuple (src == dst gives the empty
    tuple), or None when no feasible path exists. Ties between equal-hop
    paths break toward the lexicographically smallest node-id sequence.
    """
    return route_all(net, src, bw).get(dst)


def route_all(net: SubstrateNetwork, src: int, bw: float) -> dict[int, tuple]:
    """Feasible min-hop paths from src to every reachable node.

    src itself maps to the empty tuple. When every link holds bw, the
    answer is the unconstrained sweep from src, which `net.route_table`
    caches: the returned dict is then shared by every caller, so callers
    must treat it as read-only. Otherwise one sweep runs over the links
    that hold bw. "Every link holds bw" is read from `net.bw_floor`, the
    least residual the substrate keeps, not from a scan of the links: a
    direct write to `net.bw` leaves it stale.
    """
    if net.bw_floor + _EPS >= bw:
        entry = net.route_table.get(src)
        if entry is None:
            paths = _sweep(net, src, -math.inf)
            entry = net.route_table[src] = (paths, _closeness(net, paths))
        return entry[0]
    return _sweep(net, src, bw)


def _sweep(net: SubstrateNetwork, src: int, bw: float) -> dict[int, tuple]:
    """Breadth-first over the neighbours in ascending order and the links
    that hold bw, so nodes leave the queue ordered by (hops, path), and
    the first node to reach a neighbour lies on that neighbour's
    lexicographically smallest min-hop path."""
    residual, link_index = net.bw, net.link_index
    paths = {src: (src,)}
    queue = [src]
    for node in queue:              # the loop also visits appended nodes
        head = paths[node]
        for nbr, link in link_index[node].items():
            if nbr not in paths and residual[link] + _EPS >= bw:
                paths[nbr] = head + (nbr,)
                queue.append(nbr)
    paths[src] = ()
    return paths


def path_closeness(path: tuple) -> float:
    """delta_c of a step over path: 1/hops, 1.0 when co-located."""
    hops = len(path) - 1
    return 1.0 / hops if hops > 0 else 1.0


def server_closeness(net: SubstrateNetwork, src: int,
                     paths: dict[int, tuple]) -> list:
    """delta_c onto each of net.servers over `route_all(net, src, ...)`'s
    paths, None where unreachable; read from the route table when paths
    is its cached sweep."""
    entry = net.route_table.get(src)
    if entry is not None and entry[0] is paths:
        return entry[1]
    return _closeness(net, paths)


def _closeness(net: SubstrateNetwork, paths: dict[int, tuple]) -> list:
    return [None if path is None else path_closeness(path)
            for path in map(paths.get, net.servers)]


def fits(net: SubstrateNetwork, node: int, cpu: float, ram: float) -> bool:
    """Does the node's residual cpu and ram cover this demand?"""
    return net.cpu[node] + _EPS >= cpu and net.ram[node] + _EPS >= ram


def step_scores(net: SubstrateNetwork, node: int,
                path: tuple) -> tuple[float, float]:
    """(delta_b, delta_c) of a step onto node over path, before its commit;
    delta_b is `net.balance(node)`, which `net.by_balance` keys by."""
    return net.balance(node), path_closeness(path)


@dataclass
class PlacementEpisodeState:
    """Progress of one request's placement, with the rollback ledger.

    hosts lists the server of every placed VNF in chain order; the
    pending VNF and the per-node visit counts are read from it.
    """
    request: SliceRequest
    hosts: list[int] = field(default_factory=list)
    committed: ResourceDelta = field(default_factory=ResourceDelta)

    @property
    def next_vnf(self) -> int:
        """1-based index of the pending VNF."""
        return len(self.hosts) + 1

    @property
    def done(self) -> bool:
        return self.next_vnf > self.request.vnf_count

    @property
    def remaining(self) -> int:
        """VNFs still to place, the pending one included (m_v)."""
        return self.request.vnf_count - self.next_vnf + 1


@dataclass(frozen=True)
class PlacementOutcome:
    success: bool
    delta_a: float
    delta_b: float
    delta_c: float
    path: tuple
    terminal: bool

    def step_product(self) -> float:
        return self.delta_a * self.delta_b * self.delta_c

    def to_record(self, uid: int, step: int, target: int) -> dict:
        return {
            "uid": uid, "step": step, "target": target,
            "path": list(self.path), "delta_a": self.delta_a,
            "delta_b": self.delta_b, "delta_c": self.delta_c,
            "success": self.success, "terminal": self.terminal,
        }


def _evaluate(state: PlacementEpisodeState, net: SubstrateNetwork, target: int,
              paths: dict[int, tuple] | None = None):
    """Return the feasible path for this step (possibly empty), else None.

    paths, when given, is this step's `route_all` sweep; without it the
    step is routed here.
    """
    req = state.request
    if not fits(net, target, req.cpu, req.ram):
        return None
    if not state.hosts:
        return ()
    if paths is not None:
        return paths.get(target)
    return route(net, state.hosts[-1], target, req.bw)


def apply_action(state: PlacementEpisodeState, net: SubstrateNetwork,
                 target: int, paths: dict[int, tuple] | None = None
                 ) -> PlacementOutcome:
    """Place the pending VNF on the target server; commit or roll back.

    Actions target servers: any other node id is a caller bug. paths,
    when given, is `route_all` from the previous host at this step's
    bandwidth, swept on the substrate as it stands (as `heu_select`
    returns it), so the step is not routed a second time.
    """
    if state.done:
        raise ConfigurationError("request already fully placed")
    if target < 0 or target >= len(net.nodes):
        raise ConfigurationError(f"unknown node id {target}")
    if net.nodes[target].kind is not NodeKind.SERVER:
        raise ConfigurationError(
            f"node {target} is not a server; actions target servers")

    path = _evaluate(state, net, target, paths)
    if path is None:
        return fail_step(state, net)

    # delta_b reads the residuals the agent saw, before this commit
    delta_b, delta_c = step_scores(net, target, path)
    req = state.request
    net.commit(state.committed, target, req.cpu, req.ram, path,
               req.bw if state.hosts else 0.0)
    state.hosts.append(target)
    return PlacementOutcome(True, SUCCESS_REWARD, delta_b, delta_c, path,
                            terminal=state.done)


def fail_step(state: PlacementEpisodeState, net: SubstrateNetwork) -> PlacementOutcome:
    """Reject the request at the pending step: roll back, terminal -100.

    Also the path taken when no action exists at all (empty feasible set).
    """
    rollback(state, net)
    return PlacementOutcome(False, FAILURE_REWARD, 0.0, 0.0, (), terminal=True)


def run_steps(request: SliceRequest, net: SubstrateNetwork, step,
              trace_sink=None):
    """Place request VNF by VNF; returns (accepted, state, outcomes).

    step(state) places the pending VNF and returns (target, outcome),
    target -1 when there is none. The first failed step ends the episode.
    trace_sink, when given, receives one record dict per step. An
    exception raised mid-request rolls the request back first.
    """
    state = PlacementEpisodeState(request)
    outcomes: list[PlacementOutcome] = []
    try:
        while not state.done:
            vnf = state.next_vnf
            target, outcome = step(state)
            outcomes.append(outcome)
            if trace_sink is not None:
                trace_sink(outcome.to_record(request.uid, vnf, target))
            if not outcome.success:
                break
    except BaseException:
        rollback(state, net)
        raise
    return state.done, state, outcomes


def rollback(state: PlacementEpisodeState, net: SubstrateNetwork) -> None:
    """Release everything this request committed; no-op on an empty ledger."""
    if not state.committed.is_empty():
        net.release(state.committed)
    state.committed = ResourceDelta()


def episode_reward(outcomes: list[PlacementOutcome], T: int) -> list[float]:
    """Per-step rewards: zeros until the terminal step, which pays either
    the scaled sum of step products (full placement) or -100 (failure)."""
    if not outcomes:
        raise ConfigurationError("empty outcome sequence")
    if T < 1:
        raise ConfigurationError("episode length must be >= 1")
    rewards = [0.0] * len(outcomes)
    last = outcomes[-1]
    if last.success:
        total = sum(o.step_product() for o in outcomes)
        rewards[-1] = total / (_MAX_STEP_PRODUCT / 10.0 * T)
    else:
        rewards[-1] = FAILURE_REWARD
    return rewards
