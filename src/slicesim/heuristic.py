"""Greedy placement rule, usable standalone and as advice for HA agents.

For the pending VNF it picks, among the feasible servers, the one with
the largest pair (delta_b, delta_c) the placement engine would pay
there, compared lexicographically, and breaks remaining ties toward the
smallest server id. It walks the servers emptiest-first, in the order
`SubstrateNetwork.by_balance`, which the substrate's `commit`, `release`
and node setters re-key, since residuals change through them alone. So
the walk stops at the first server whose delta_b falls below the best
feasible one's. One `route_all` from the previous host covers all
candidates, usually a route-table lookup; the advice carries its paths,
so placing the step on any server needs no second sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .placement import (PlacementEpisodeState, apply_action, fail_step,
                        route_all, run_steps, server_closeness)
from .substrate import _EPS, SubstrateNetwork
from .traffic import SliceRequest


@dataclass(frozen=True)
class HeuristicAdvice:
    server: int | None
    # the step's route_all sweep from the previous host; None at the first VNF
    paths: dict[int, tuple] | None = field(default=None, compare=False,
                                           repr=False)

    @property
    def exists(self) -> bool:
        return self.server is not None


def heu_select(state: PlacementEpisodeState,
               net: SubstrateNetwork) -> HeuristicAdvice:
    """Best feasible server for the pending VNF, or none.

    Walks `net.by_balance`, which the substrate's `commit`, `release`
    and node setters keep sorted emptiest-first. Its keys negate
    `SubstrateNetwork.balance`, the delta_b that `step_scores` pays, so
    the order and the score agree to the bit. At the first VNF every
    server is as close, so the first that fits wins. Later, the first
    that fits and is reachable sets the best delta_b; servers with the
    same delta_b follow it in id order, and one replaces it only with a
    strictly larger delta_c. The walk ends at the first smaller delta_b.
    """
    req = state.request
    req_cpu, req_ram = req.cpu, req.ram
    cpu, ram = net.cpu, net.ram
    if not state.hosts:
        for _, sid, _ in net.by_balance:
            if cpu[sid] + _EPS >= req_cpu and ram[sid] + _EPS >= req_ram:
                return HeuristicAdvice(sid)
        return HeuristicAdvice(None)
    src = state.hosts[-1]
    paths = route_all(net, src, req.bw)
    closeness = server_closeness(net, src, paths)
    best = best_key = None
    best_c = -1.0
    for key, sid, i in net.by_balance:
        if key != best_key and best is not None:
            break
        delta_c = closeness[i]
        if (delta_c is not None and delta_c > best_c
                and cpu[sid] + _EPS >= req_cpu and ram[sid] + _EPS >= req_ram):
            best, best_key, best_c = sid, key, delta_c
    return HeuristicAdvice(best, paths)


def heu_place_full(request: SliceRequest, net: SubstrateNetwork,
                   trace_sink=None):
    """Place a whole request greedily; returns `run_steps`' (accepted,
    state, outcomes). Each step takes `heu_select`'s server, and a step
    without one rejects the request through the engine's failure path."""
    def step(state):
        advice = heu_select(state, net)
        if not advice.exists:
            return -1, fail_step(state, net)
        return advice.server, apply_action(state, net, advice.server,
                                           advice.paths)

    return run_steps(request, net, step, trace_sink)
