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

from dataclasses import dataclass, field

from .errors import ConfigurationError
from .substrate import NodeKind, ResourceDelta, SubstrateNetwork, SubstrateNode
from .traffic import SliceRequest

_EPS = 1e-9

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
    """Feasible min-hop paths from src to every reachable node, one sweep.

    src itself maps to the empty tuple. The sweep is breadth-first over
    the sorted adjacency, so nodes leave the queue ordered by (hops,
    path), and the first node to reach a neighbour lies on that
    neighbour's lexicographically smallest min-hop path.
    """
    paths = {src: (src,)}
    queue = [src]
    for node in queue:              # the loop also visits appended nodes
        head = paths[node]
        for nbr in net.adjacency[node]:
            if nbr in paths:
                continue
            key = (node, nbr) if node < nbr else (nbr, node)
            if net.links[key].cap_bw + _EPS >= bw:
                paths[nbr] = head + (nbr,)
                queue.append(nbr)
    paths[src] = ()
    return paths


def fits(node: SubstrateNode, cpu: float, ram: float) -> bool:
    """Does the node's residual cpu and ram cover this demand?"""
    return node.cap_cpu + _EPS >= cpu and node.cap_ram + _EPS >= ram


def step_scores(node: SubstrateNode, path: tuple) -> tuple[float, float]:
    """(delta_b, delta_c) of a step onto node over path, before its commit."""
    hops = len(path) - 1
    return (node.cap_cpu / node.max_cpu + node.cap_ram / node.max_ram,
            1.0 / hops if hops > 0 else 1.0)


@dataclass
class PlacementEpisodeState:
    """Progress of one request's placement, with the rollback ledger."""
    request: SliceRequest
    next_vnf: int = 1                       # 1-based index of the pending VNF
    hosts: list[int] = field(default_factory=list)
    chi: dict[int, int] = field(default_factory=dict)
    committed: ResourceDelta = field(default_factory=ResourceDelta)

    @property
    def done(self) -> bool:
        return self.next_vnf > self.request.vnf_count

    @property
    def remaining(self) -> int:
        """VNFs still to place, the pending one included (m_v)."""
        return self.request.vnf_count - self.next_vnf + 1

    def chi_of(self, node: int) -> int:
        return self.chi.get(node, 0)


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


def is_feasible(state: PlacementEpisodeState, net: SubstrateNetwork,
                target: int) -> bool:
    """The acceptance predicate of apply_action, without side effects."""
    return _evaluate(state, net, target) is not None


def _evaluate(state: PlacementEpisodeState, net: SubstrateNetwork, target: int):
    """Return the feasible path for this step (possibly empty), else None."""
    v = state.next_vnf
    if not fits(net.nodes[target], *state.request.vnfs[v - 1]):
        return None
    if v == 1:
        return ()
    return route(net, state.hosts[-1], target, state.request.vls[v - 2])


def apply_action(state: PlacementEpisodeState, net: SubstrateNetwork,
                 target: int) -> PlacementOutcome:
    """Place the pending VNF on the target server; commit or roll back.

    Actions target servers: any other node id is a caller bug.
    """
    if state.done:
        raise ConfigurationError("request already fully placed")
    if target < 0 or target >= len(net.nodes):
        raise ConfigurationError(f"unknown node id {target}")
    if net.nodes[target].kind is not NodeKind.SERVER:
        raise ConfigurationError(
            f"node {target} is not a server; actions target servers")

    path = _evaluate(state, net, target)
    if path is None:
        return fail_step(state, net)

    # delta_b reads the residuals the agent saw, before this commit
    delta_b, delta_c = step_scores(net.nodes[target], path)
    v = state.next_vnf
    delta = ResourceDelta()
    req_cpu, req_ram = state.request.vnfs[v - 1]
    delta.add_node(target, cpu=req_cpu, ram=req_ram)
    if path:
        bw = state.request.vls[v - 2]
        for a, b in zip(path, path[1:]):
            delta.add_link(a, b, bw)
    net.commit(delta)
    state.committed.merge(delta)
    state.hosts.append(target)
    state.chi[target] = state.chi.get(target, 0) + 1
    state.next_vnf += 1
    return PlacementOutcome(True, SUCCESS_REWARD, delta_b, delta_c, path,
                            terminal=state.done)


def fail_step(state: PlacementEpisodeState, net: SubstrateNetwork) -> PlacementOutcome:
    """Reject the request at the pending step: roll back, terminal -100.

    Also the path taken when no action exists at all (empty feasible set).
    """
    rollback(state, net)
    return PlacementOutcome(False, FAILURE_REWARD, 0.0, 0.0, (), terminal=True)


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
