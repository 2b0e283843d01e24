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
from .networks import load_checkpoint, manifest_field, save_checkpoint
from .substrate import ResourceDelta, SubstrateNetwork
from .traffic import Arrival, Departure, Event

_SNAPSHOT_VERSION = 1


class HeuristicPolicy:
    """Stateless greedy placement."""

    name = "heuristic"
    trains = False

    def __init__(self, trace_sink=None):
        self.trace_sink = trace_sink

    def place(self, request, net, t):
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

    def place(self, request, net, t):
        accepted, trace, state = self.agent.run_episode(
            request, net, t, trace_sink=self.trace_sink)
        if self.trains:
            self.agent.update(trace)
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
        def field(name):
            return manifest_field(manifest, name, "snapshot policy")

        a = self.agent
        a.episodes_trained = int(field("episodes_trained"))
        a.heu_queries = int(field("heu_queries"))
        a.rng.bit_generator.state = field("rng_state")
        a.load_arrays(arrays)


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
        self.arrivals_seen = 0

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
        if not isinstance(ev, Arrival):
            raise InvariantError(f"unknown event type {type(ev).__name__}")
        self.arrivals_seen += 1
        accepted, delta = self.policy.place(ev.request, self.net, ev.time)
        if accepted:
            if ev.uid in self.ledger:
                raise InvariantError(f"duplicate arrival uid {ev.uid}")
            self.ledger[ev.uid] = delta
        self.records.append(AcceptanceRecord(
            index=self.arrivals_seen, uid=ev.uid, class_id=ev.class_id,
            accepted=accepted, time=ev.time))
        return True

    def run(self, max_arrivals: int | None = None,
            horizon: float | None = None, on_arrival=None) -> list[AcceptanceRecord]:
        """Drive the loop until the stream, arrival budget, or horizon ends.

        on_arrival(index, simulation), when given, fires after each
        arrival (checkpoint hooks, progress display).
        """
        while self.cursor < len(self.events):
            ev = self.events[self.cursor]
            if horizon is not None and ev.time >= horizon:
                break
            was_arrival = isinstance(ev, Arrival)
            self.step()
            if was_arrival:
                if on_arrival is not None:
                    on_arrival(self.arrivals_seen, self)
                if max_arrivals is not None and self.arrivals_seen >= max_arrivals:
                    break
        return self.records

    def held_resources(self) -> ResourceDelta:
        """Union of all in-system ledger entries (conservation checks)."""
        total = ResourceDelta()
        for delta in self.ledger.values():
            total.merge(delta)
        return total

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
            "arrivals_seen": self.arrivals_seen,
            "ledger": {str(uid): d.to_dict() for uid, d in self.ledger.items()},
            "records": [[r.index, r.uid, r.class_id, int(r.accepted), r.time]
                        for r in self.records],
            "policy": self.policy.state_manifest(),
        }
        residuals = self.net.residuals()
        link_keys = sorted(self.net.links)
        arrays = {
            "net.cpu": np.asarray(residuals["cpu"], dtype=np.float64),
            "net.ram": np.asarray(residuals["ram"], dtype=np.float64),
            "net.bw": np.asarray([residuals["bw"][k] for k in link_keys],
                                 dtype=np.float64),
        }
        arrays.update({f"policy.{k}": v
                       for k, v in self.policy.state_arrays().items()})
        save_checkpoint(path, {"manifest_json": json.dumps(manifest, sort_keys=True)},
                        arrays)

    def restore(self, path) -> None:
        """Load a snapshot taken from an identically constructed run."""
        outer, arrays = load_checkpoint(path)
        if "manifest_json" not in outer:
            raise CheckpointError("not a simulation snapshot")
        manifest = json.loads(outer["manifest_json"])

        def field(name):
            return manifest_field(manifest, name, "simulation snapshot")

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
        self.clock = float(field("clock"))
        self.cursor = int(field("cursor"))
        self.arrivals_seen = int(field("arrivals_seen"))
        self.ledger = {int(uid): ResourceDelta.from_dict(d)
                       for uid, d in field("ledger").items()}
        self.records = [AcceptanceRecord(index=i, uid=u, class_id=c,
                                         accepted=bool(acc), time=t)
                        for i, u, c, acc, t in field("records")]
        link_keys = sorted(self.net.links)
        self.net.set_residuals({
            "cpu": arrays["net.cpu"].tolist(),
            "ram": arrays["net.ram"].tolist(),
            "bw": {k: float(v) for k, v in zip(link_keys, arrays["net.bw"])},
        })
        self.policy.load_state(field("policy"),
                               {k[len("policy."):]: v for k, v in arrays.items()
                                if k.startswith("policy.")})
