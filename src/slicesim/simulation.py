"""Discrete-event loop: arrivals place slices, departures free them.

The loop owns the experiment clock, the accepted-slice ledger (uid to
committed resources and departure time), and the acceptance records the
metrics module aggregates. Policies are pluggable: the greedy heuristic,
a frozen agent, or a training agent (which updates after every arrival).

Placement episodes are atomic in simulated time; the clock only moves
between events. At equal timestamps departures run before arrivals so
the departing capacity is available to the incoming request.
"""

from __future__ import annotations

from collections.abc import Sequence

from .agent import Agent
from .errors import InvariantError
from .heuristic import heu_place_full
from .metrics import AcceptanceRecord
from .placement import rollback
from .substrate import ResourceDelta, SubstrateNetwork
from .traffic import Departure, Event, SliceRequest


class HeuristicPolicy:
    """Stateless greedy placement."""

    name = "heuristic"

    def __init__(self, trace_sink=None):
        self.trace_sink = trace_sink

    def place(self, request, net):
        accepted, state, _ = heu_place_full(request, net,
                                            trace_sink=self.trace_sink)
        return accepted, state.committed


class AgentPolicy:
    """A learning agent as a policy; set train=False to freeze it."""

    trains: bool

    def __init__(self, agent: Agent, train: bool = True, trace_sink=None):
        self.agent = agent
        self.trains = train
        self.trace_sink = trace_sink
        self.name = agent.config.variant + ("" if train else "-frozen")

    def place(self, request, net):
        accepted, steps, state = self.agent.run_episode(
            request, net, trace_sink=self.trace_sink)
        if self.trains:
            # the episode has committed: a failed update releases it
            try:
                self.agent.update(steps)
            except BaseException:
                rollback(state, net)
                raise
        return accepted, state.committed


class Simulation:
    """One single-threaded run over a fixed event stream: an EventStream,
    or any sequence of events in stream order."""

    def __init__(self, net: SubstrateNetwork, events: Sequence[Event], policy):
        self.net = net
        self.events = events
        self.policy = policy
        self.clock = 0.0
        self.cursor = 0
        self.ledger: dict[int, ResourceDelta] = {}
        self.records: list[AcceptanceRecord] = []

    def step(self, horizon: float | None = None) -> bool:
        """Process the next event; False, and nothing done, when the stream
        is exhausted or the next event lies at or past horizon."""
        if self.cursor >= len(self.events):
            return False
        ev = self.events[self.cursor]
        if horizon is not None and ev.time >= horizon:
            return False
        if ev.time < self.clock - 1e-12:
            raise InvariantError(
                f"event time {ev.time} precedes clock {self.clock}")
        self.clock = max(self.clock, ev.time)
        self.cursor += 1
        if isinstance(ev, Departure):
            delta = self.ledger.get(ev.uid)
            if delta is not None:       # rejected slices hold nothing
                self.net.release(delta)     # a raise keeps the entry
                del self.ledger[ev.uid]
            return True
        if not isinstance(ev, SliceRequest):
            raise InvariantError(f"unknown event type {type(ev).__name__}")
        if ev.uid in self.ledger:       # refused before it holds anything
            raise InvariantError(f"duplicate arrival uid {ev.uid}")
        accepted, delta = self.policy.place(ev, self.net)
        if accepted:
            self.ledger[ev.uid] = delta
        self.records.append(AcceptanceRecord(
            index=len(self.records) + 1, uid=ev.uid, class_id=ev.class_id,
            accepted=accepted, time=ev.time))
        return True

    def run(self, max_arrivals: int | None = None,
            horizon: float | None = None, on_arrival=None) -> list[AcceptanceRecord]:
        """Drive the loop until the stream, arrival budget, or horizon ends.

        max_arrivals counts every arrival this simulation has seen: the
        loop stops right after the budget's last one, or takes none.
        on_arrival(index, simulation), when given, fires after each
        arrival (checkpoint hooks, progress display). Each event is read
        once, by step: an EventStream builds it on that read.
        """
        while max_arrivals is None or len(self.records) < max_arrivals:
            seen = len(self.records)
            if not self.step(horizon):
                break
            if on_arrival is not None and len(self.records) > seen:
                on_arrival(len(self.records), self)
        return self.records
