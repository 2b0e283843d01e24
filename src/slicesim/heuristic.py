"""Greedy placement rule, usable standalone and as advice for HA agents.

For the pending VNF it scores every feasible server by the pair
(delta_b, delta_c) the placement engine would pay there, compares the
pairs lexicographically, and breaks remaining ties toward the smallest
server id. One `route_all` from the previous host covers all
candidates, usually a route-table lookup; the advice carries its paths,
so placing the step on any server needs no second sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

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

    One pass over the substrate's residual lists applies the `fits`
    test and scores (delta_b, delta_c) as `step_scores` does, with the
    same float expressions.
    """
    req = state.request
    req_cpu, req_ram = req.cpu, req.ram
    if not state.hosts:
        paths = None
        closeness = repeat(1.0)
    else:
        src = state.hosts[-1]
        paths = route_all(net, src, req.bw)
        closeness = server_closeness(net, src, paths)
    cpu, ram, max_cpu, max_ram = net.cpu, net.ram, net.max_cpu, net.max_ram
    best = None
    best_b = best_c = -math.inf
    for sid, delta_c in zip(net.servers, closeness):
        c = cpu[sid]
        r = ram[sid]
        if delta_c is None or not (c + _EPS >= req_cpu and r + _EPS >= req_ram):
            continue
        delta_b = c / max_cpu[sid] + r / max_ram[sid]
        if delta_b > best_b or (delta_b == best_b and delta_c > best_c):
            best, best_b, best_c = sid, delta_b, delta_c
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
