"""Scenario files: one YAML document describing a whole experiment.

A scenario pins the topology (a named profile or explicit counts), the
request classes, the traffic horizon, seeds, the phase size, and agent
defaults. Validation reports the dotted path of the offending field.
The scenario hash covers exactly the fields that affect results, so two
runs with equal hashes and equal seeds produce identical outputs.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
import os
from dataclasses import dataclass, field, fields

import yaml

from .agent import AgentConfig
from .errors import ConfigurationError, ScenarioError
from .substrate import (PROFILES, SubstrateNetwork, TopologyCounts,
                        build_reference_topology)
from .traffic import (DynamicArrival, Event, LoadModel, SliceClass,
                      StaticArrival, generate_events)

TOOL_VERSION = "0.1.0"


@dataclass
class Scenario:
    name: str
    topology: TopologyCounts
    classes: list[SliceClass]
    horizon: float
    seed: int = 0
    phase_size: int = 10_000
    lifetime_dist: str = "exponential"
    agent_defaults: dict = field(default_factory=dict)

    def build_network(self) -> SubstrateNetwork:
        return build_reference_topology(self.topology)

    def build_load_model(self, net: SubstrateNetwork | None = None) -> LoadModel:
        return LoadModel.from_network(self.classes, net or self.build_network())

    def generate_events(self, seed: int | None = None,
                        horizon: float | None = None) -> list[Event]:
        model = self.build_load_model()
        return generate_events(model, horizon or self.horizon,
                               self.seed if seed is None else seed,
                               lifetime_dist=self.lifetime_dist)

    def result_fields(self) -> dict:
        """Everything that affects simulation output, in canonical form."""
        t = self.topology
        return {
            "topology": [t.edc_count, t.servers_per_edc, t.cdc_count,
                         t.servers_per_cdc, t.ccp_servers,
                         t.server_cpu, t.server_ram],
            "classes": [{
                "id": c.id, "vnf_count": c.vnf_count, "req_cpu": c.req_cpu,
                "req_ram": c.req_ram, "req_bw": c.req_bw,
                "mean_lifetime": c.mean_lifetime,
                "arrival": ({"kind": "dynamic", "amplitude": c.arrival.amplitude,
                             "period": c.arrival.period} if c.is_dynamic
                            else {"kind": "static", "rate": c.arrival.rate}),
            } for c in sorted(self.classes, key=lambda c: c.id)],
            "horizon": self.horizon,
            "seed": self.seed,
            "phase_size": self.phase_size,
            "lifetime_dist": self.lifetime_dist,
            "agent_defaults": dict(sorted(self.agent_defaults.items())),
        }

    def hash(self) -> str:
        blob = json.dumps(self.result_fields(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_TOPOLOGY_KEYS = {"profile"} | {f.name for f in fields(TopologyCounts)}
_AGENT_KEYS = {f.name for f in fields(AgentConfig)}


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ScenarioError(f"{path}.{key}: missing required field")
    return mapping[key]


def _reject_unknown(mapping: dict, known: set, path: str) -> None:
    unknown = sorted(str(k) for k in mapping if k not in known)
    if unknown:
        raise ScenarioError(f"{path}.{unknown[0]}: unknown field "
                            f"(known: {', '.join(sorted(known))})")


def _parse_topology(raw, path: str) -> TopologyCounts:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: must be a mapping")
    _reject_unknown(raw, _TOPOLOGY_KEYS, path)
    if "profile" in raw:
        profile = raw["profile"]
        if profile not in PROFILES:
            raise ScenarioError(
                f"{path}.profile: unknown profile {profile!r} "
                f"(choices: {sorted(PROFILES)})")
        return PROFILES[profile]
    try:
        return TopologyCounts(
            edc_count=int(_require(raw, "edc_count", path)),
            servers_per_edc=int(_require(raw, "servers_per_edc", path)),
            cdc_count=int(raw.get("cdc_count", 0)),
            servers_per_cdc=int(raw.get("servers_per_cdc", 0)),
            ccp_servers=int(raw.get("ccp_servers", 0)),
            server_cpu=float(raw.get("server_cpu", 50.0)),
            server_ram=float(raw.get("server_ram", 300.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _parse_class(raw, idx: int) -> SliceClass:
    path = f"classes[{idx}]"
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: must be a mapping")
    arrival_raw = _require(raw, "arrival", path)
    if not isinstance(arrival_raw, dict) or "kind" not in arrival_raw:
        raise ScenarioError(f"{path}.arrival: must be a mapping with a kind")
    kind = arrival_raw["kind"]
    if kind == "dynamic":
        arrival = DynamicArrival(
            amplitude=float(_require(arrival_raw, "amplitude", f"{path}.arrival")),
            period=float(_require(arrival_raw, "period", f"{path}.arrival")))
    elif kind == "static":
        arrival = StaticArrival(
            rate=float(_require(arrival_raw, "rate", f"{path}.arrival")))
    else:
        raise ScenarioError(
            f"{path}.arrival.kind: must be 'static' or 'dynamic', got {kind!r}")
    try:
        return SliceClass(
            id=int(_require(raw, "id", path)),
            name=str(raw.get("name", f"class-{idx}")),
            vnf_count=int(_require(raw, "vnf_count", path)),
            req_cpu=float(_require(raw, "req_cpu", path)),
            req_ram=float(_require(raw, "req_ram", path)),
            req_bw=float(_require(raw, "req_bw", path)),
            mean_lifetime=float(_require(raw, "mean_lifetime", path)),
            arrival=arrival,
        )
    except ConfigurationError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def parse_scenario(raw: dict, name: str = "scenario") -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a mapping")
    if "topology" not in raw:
        raise ScenarioError("topology: missing section")
    topology = _parse_topology(raw["topology"], "topology")
    classes_raw = raw.get("classes")
    if not isinstance(classes_raw, list) or not classes_raw:
        raise ScenarioError("classes: must be a non-empty list")
    classes = [_parse_class(c, i) for i, c in enumerate(classes_raw)]
    try:
        horizon = float(_require(raw, "horizon", "scenario"))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"horizon: {exc}") from exc
    if horizon <= 0:
        raise ScenarioError("horizon: must be > 0")
    agent_defaults = raw.get("agent", {})
    if agent_defaults is None:
        agent_defaults = {}
    if not isinstance(agent_defaults, dict):
        raise ScenarioError("agent: must be a mapping")
    _reject_unknown(agent_defaults, _AGENT_KEYS, "agent")
    scenario = Scenario(
        name=str(raw.get("name", name)),
        topology=topology,
        classes=classes,
        horizon=horizon,
        seed=int(raw.get("seed", 0)),
        phase_size=int(raw.get("phase_size", 10_000)),
        lifetime_dist=str(raw.get("lifetime_dist", "exponential")),
        agent_defaults=dict(agent_defaults),
    )
    if scenario.phase_size < 1:
        raise ScenarioError("phase_size: must be >= 1")
    if scenario.lifetime_dist not in ("exponential", "fixed"):
        raise ScenarioError(
            f"lifetime_dist: must be 'exponential' or 'fixed', "
            f"got {scenario.lifetime_dist!r}")
    # the load bound needs the built topology's capacities
    net = scenario.build_network()
    for i, cls in enumerate(classes):
        try:
            LoadModel([cls], {j: net.total_capacity(j)
                              for j in ("cpu", "ram", "bw")})
        except ConfigurationError as exc:
            raise ScenarioError(
                f"classes[{i}].arrival.amplitude: {exc}") from exc
    ids = [c.id for c in classes]
    if len(set(ids)) != len(ids):
        raise ScenarioError("classes: ids must be unique")
    return scenario


def bundled_scenario_path(name: str):
    return importlib.resources.files("slicesim") / "scenarios" / f"{name}.scenario"


def load_scenario(ref: str) -> Scenario:
    """Load a scenario from a file path or a bundled name."""
    if os.path.exists(ref):
        with open(ref) as fh:
            raw = yaml.safe_load(fh)
        name = os.path.splitext(os.path.basename(ref))[0]
        return parse_scenario(raw, name)
    bundled = bundled_scenario_path(ref)
    if bundled.is_file():
        raw = yaml.safe_load(bundled.read_text())
        return parse_scenario(raw, ref)
    raise ScenarioError(
        f"scenario {ref!r} is neither a file nor a bundled name")


@dataclass
class RunManifest:
    """Reproducibility sidecar written next to every result CSV."""
    scenario_hash: str
    tool_version: str
    policy: str
    seed: int
    arrivals: int
    start_arrival: int = 0
    checkpoint: str | None = None
    extra: dict = field(default_factory=dict)

    def write(self, path) -> None:
        doc = {
            "scenario_hash": self.scenario_hash,
            "tool_version": self.tool_version,
            "policy": self.policy,
            "seed": self.seed,
            "arrivals": self.arrivals,
            "start_arrival": self.start_arrival,
            "checkpoint": self.checkpoint,
        }
        doc.update(self.extra)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
