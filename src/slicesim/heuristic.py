"""Greedy placement rule, usable standalone and as advice for HA agents.

For the pending VNF it scores every feasible server by the pair
(delta_b, delta_c) the placement engine would pay there, compares the
pairs lexicographically, and breaks remaining ties toward the smallest
server id. One routing sweep from the previous host covers all
candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .placement import (PlacementEpisodeState, PlacementOutcome, apply_action,
                        fail_step, fits, route_all, step_scores)
from .substrate import SubstrateNetwork
from .traffic import SliceRequest


@dataclass(frozen=True)
class HeuristicAdvice:
    server: int | None

    @property
    def exists(self) -> bool:
        return self.server is not None


def heu_select(state: PlacementEpisodeState,
               net: SubstrateNetwork) -> HeuristicAdvice:
    """Best feasible server for the pending VNF, or none."""
    v = state.next_vnf
    req_cpu, req_ram = state.request.vnfs[v - 1]
    paths = (None if v == 1 else
             route_all(net, state.hosts[-1], state.request.vls[v - 2]))
    best = None
    best_score = None
    for sid in net.servers:
        node = net.nodes[sid]
        if not fits(node, req_cpu, req_ram):
            continue
        path = () if paths is None else paths.get(sid)
        if path is None:
            continue
        score = step_scores(node, path)
        if best_score is None or score > best_score:
            best, best_score = sid, score
    return HeuristicAdvice(best)


def heu_place_full(request: SliceRequest, net: SubstrateNetwork,
                   trace_sink=None):
    """Place a whole request greedily. Returns (accepted, state, outcomes).

    The first step without a feasible server rejects the request; the
    engine's failure path rolls back anything already committed. On
    acceptance the commits stay and state.committed is the ledger a later
    departure releases. trace_sink, when given, receives one record dict
    per step.
    """
    state = PlacementEpisodeState(request)
    outcomes: list[PlacementOutcome] = []
    while not state.done:
        step = state.next_vnf
        advice = heu_select(state, net)
        if not advice.exists:
            outcome = fail_step(state, net)
            outcomes.append(outcome)
            if trace_sink is not None:
                trace_sink(outcome.to_record(request.uid, step, -1))
            return False, state, outcomes
        outcome = apply_action(state, net, advice.server)
        outcomes.append(outcome)
        if trace_sink is not None:
            trace_sink(outcome.to_record(request.uid, step, advice.server))
        if not outcome.success:
            return False, state, outcomes
    return True, state, outcomes
