"""Discrete-event loop: arrivals place slices, departures free them.

The loop owns the experiment clock, the accepted-slice ledger (uid to
committed resources and departure time), and the acceptance records the
metrics module aggregates. Policies are pluggable: the greedy heuristic,
a frozen agent, or a training agent (which updates after every arrival).

Placement episodes are atomic in simulated time; the clock only moves
between events. At equal timestamps departures run before arrivals so
the departing capacity is available to the incoming request.

Snapshots capture clock, cursor, residuals, ledger, records, and the
policy's own state (parameters and RNG position for agents), so a
restored run continues bit-identically.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .agent import Agent
from .errors import CheckpointError, InvariantError
from .heuristic import heu_place_full
from .metrics import AcceptanceRecord
from .networks import (finite_number, load_checkpoint, manifest_field,
                       save_checkpoint, whole_number)
from .substrate import ResourceDelta, SubstrateNetwork
from .traffic import Departure, Event, SliceRequest

_SNAPSHOT_VERSION = 1


class HeuristicPolicy:
    """Stateless greedy placement."""

    name = "heuristic"

    def __init__(self, trace_sink=None):
        self.trace_sink = trace_sink

    def place(self, request, net):
        accepted, state, _ = heu_place_full(request, net,
                                            trace_sink=self.trace_sink)
        return accepted, state.committed

    def state_manifest(self) -> dict:
        return {}

    def state_arrays(self) -> dict:
        return {}

    def load_state(self, manifest: dict, arrays: dict) -> None:
        pass


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
            self.agent.update(steps)
        return accepted, state.committed

    def state_manifest(self) -> dict:
        a = self.agent
        return {
            "episodes_trained": a.episodes_trained,
            "heu_queries": a.heu_queries,
            "rng_state": a.rng.bit_generator.state,
        }

    def state_arrays(self) -> dict:
        return self.agent.state_arrays()

    def load_state(self, manifest: dict, arrays: dict) -> None:
        """Restore counters, sampling RNG and parameters; a snapshot that
        fails any check changes none of them."""
        a = self.agent

        def checked_rng_state(state):
            type(a.rng.bit_generator)().state = state  # a scratch generator
            return state

        def field(name, convert):
            return manifest_field(manifest, name, "snapshot policy", convert)

        episodes_trained = field("episodes_trained", whole_number)
        heu_queries = field("heu_queries", whole_number)
        rng_state = field("rng_state", checked_rng_state)
        a.load_arrays(arrays)
        a.episodes_trained = episodes_trained
        a.heu_queries = heu_queries
        a.rng.bit_generator.state = rng_state


def snapshot_manifest(outer: dict) -> dict:
    """The run manifest a snapshot's outer manifest holds as JSON; a
    CheckpointError when it is missing, not JSON or not a mapping."""
    manifest = manifest_field(outer, "manifest_json", "simulation snapshot",
                              json.loads)
    if not isinstance(manifest, dict):
        raise CheckpointError("simulation snapshot field 'manifest_json' "
                              "does not hold a mapping")
    return manifest


def _ledger_entry(raw, net: SubstrateNetwork) -> ResourceDelta:
    """A ledger entry read back by `ResourceDelta.from_dict`; a
    ValueError unless it holds finite amounts >= 0 on this network's
    nodes and links."""
    delta = ResourceDelta.from_dict(raw)
    for node in (*delta.node_cpu, *delta.node_ram):
        if not 0 <= node < len(net.nodes):
            raise ValueError(f"node {node} is not a node of this network")
    for key in delta.link_bw:
        if key not in net.links:
            raise ValueError(f"link {key} is not a link of this network")
    for amount in (*delta.node_cpu.values(), *delta.node_ram.values(),
                   *delta.link_bw.values()):
        if finite_number(amount) < 0:
            raise ValueError(f"amount {amount!r} is negative")
    return delta


def _record(raw) -> AcceptanceRecord:
    """An [index, uid, class_id, accepted, time] row of a snapshot."""
    index, uid, class_id, accepted, time = raw
    if whole_number(accepted) > 1:
        raise ValueError(f"accepted flag must be 0 or 1, got {accepted!r}")
    return AcceptanceRecord(index=whole_number(index), uid=whole_number(uid),
                            class_id=whole_number(class_id),
                            accepted=bool(accepted),
                            time=float(finite_number(time)))


class Simulation:
    """One single-threaded run over a fixed event stream."""

    def __init__(self, net: SubstrateNetwork, events: list[Event], policy):
        self.net = net
        self.events = events
        self.policy = policy
        self.clock = 0.0
        self.cursor = 0
        self.ledger: dict[int, ResourceDelta] = {}
        self.records: list[AcceptanceRecord] = []

    def step(self) -> bool:
        """Process the next event; False when the stream is exhausted."""
        if self.cursor >= len(self.events):
            return False
        ev = self.events[self.cursor]
        if ev.time < self.clock - 1e-12:
            raise InvariantError(
                f"event time {ev.time} precedes clock {self.clock}")
        self.clock = max(self.clock, ev.time)
        self.cursor += 1
        if isinstance(ev, Departure):
            delta = self.ledger.pop(ev.uid, None)
            if delta is not None:       # rejected slices hold nothing
                self.net.release(delta)
            return True
        if not isinstance(ev, SliceRequest):
            raise InvariantError(f"unknown event type {type(ev).__name__}")
        accepted, delta = self.policy.place(ev, self.net)
        if accepted:
            if ev.uid in self.ledger:
                raise InvariantError(f"duplicate arrival uid {ev.uid}")
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
        arrival (checkpoint hooks, progress display).
        """
        while self.cursor < len(self.events) and (
                max_arrivals is None or len(self.records) < max_arrivals):
            ev = self.events[self.cursor]
            if horizon is not None and ev.time >= horizon:
                break
            self.step()
            if on_arrival is not None and isinstance(ev, SliceRequest):
                on_arrival(len(self.records), self)
        return self.records

    # -- snapshots ------------------------------------------------------------

    def _events_digest(self) -> str:
        h = hashlib.sha256()
        for ev in self.events:
            kind = "d" if isinstance(ev, Departure) else "a"
            h.update(f"{ev.time!r},{kind},{ev.uid},{ev.class_id};".encode())
        return h.hexdigest()

    def snapshot(self, path) -> None:
        manifest = {
            "kind": "simulation",
            "snapshot_version": _SNAPSHOT_VERSION,
            "net_fingerprint": self.net.fingerprint(),
            "events_digest": self._events_digest(),
            "policy_name": self.policy.name,
            "clock": self.clock,
            "cursor": self.cursor,
            "arrivals_seen": len(self.records),
            "ledger": {str(uid): d.to_dict() for uid, d in self.ledger.items()},
            "records": [[r.index, r.uid, r.class_id, int(r.accepted), r.time]
                        for r in self.records],
            "policy": self.policy.state_manifest(),
        }
        net = self.net
        arrays = {
            "net.cpu": np.asarray(net.cpu, dtype=np.float64),
            "net.ram": np.asarray(net.ram, dtype=np.float64),
            # by sorted link key, as the snapshot format has it
            "net.bw": np.asarray([net.bw[net.links[k].index]
                                  for k in sorted(net.links)],
                                 dtype=np.float64),
        }
        arrays.update({f"policy.{k}": v
                       for k, v in self.policy.state_arrays().items()})
        save_checkpoint(path, {"manifest_json": json.dumps(manifest, sort_keys=True)},
                        arrays)

    def restore(self, path) -> None:
        """Load a snapshot taken from an identically constructed run.

        Every field and array is decoded and checked before anything is
        assigned, so a snapshot that fails leaves this run as it was.
        """
        outer, arrays = load_checkpoint(path)
        if "manifest_json" not in outer:
            raise CheckpointError("not a simulation snapshot")
        manifest = snapshot_manifest(outer)

        def field(name, convert=None):
            return manifest_field(manifest, name, "simulation snapshot",
                                  convert)

        if manifest.get("kind") != "simulation":
            raise CheckpointError("not a simulation snapshot")
        if field("snapshot_version") != _SNAPSHOT_VERSION:
            raise CheckpointError(
                f"unsupported snapshot version {manifest['snapshot_version']}")
        if field("net_fingerprint") != self.net.fingerprint():
            raise CheckpointError("snapshot topology does not match this run")
        if field("events_digest") != self._events_digest():
            raise CheckpointError("snapshot event stream does not match this run")
        if field("policy_name") != self.policy.name:
            raise CheckpointError(
                f"snapshot holds policy {manifest['policy_name']!r}, "
                f"running {self.policy.name!r}")
        clock = field("clock", lambda raw: float(finite_number(raw)))
        cursor = field("cursor", whole_number)
        ledger = field("ledger", lambda raw: {
            whole_number(int(uid)): _ledger_entry(d, self.net)
            for uid, d in raw.items()})
        records = field("records", lambda raw: [_record(r) for r in raw])
        if field("arrivals_seen") != len(records):
            raise CheckpointError("simulation snapshot field 'arrivals_seen' "
                                  f"does not count its {len(records)} records")
        if cursor > len(self.events):
            raise CheckpointError(
                f"simulation snapshot field 'cursor' is {cursor}, beyond "
                f"the {len(self.events)} events of this run")
        arrived = sum(isinstance(ev, SliceRequest)
                      for ev in self.events[:cursor])
        if arrived != len(records):
            raise CheckpointError(
                f"simulation snapshot field 'cursor' is {cursor}, past "
                f"{arrived} arrivals, not its {len(records)} records")
        net = self.net
        link_keys = sorted(net.links)
        residuals = {}
        for name, size in (("cpu", len(net.nodes)), ("ram", len(net.nodes)),
                           ("bw", len(link_keys))):
            array = arrays.get(f"net.{name}")
            if array is None or array.shape != (size,):
                raise CheckpointError(
                    f"simulation snapshot array 'net.{name}' is missing or "
                    f"not of length {size}")
            residuals[name] = array.tolist()
        # the policy checks its own state before it assigns any of it
        self.policy.load_state(field("policy"),
                               {k[len("policy."):]: v for k, v in arrays.items()
                                if k.startswith("policy.")})
        self.clock, self.cursor = clock, cursor
        self.ledger, self.records = ledger, records
        net.cpu[:], net.ram[:] = residuals["cpu"], residuals["ram"]
        for key, value in zip(link_keys, residuals["bw"]):
            net.bw[net.links[key].index] = value
