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
import math
import os
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields

import yaml

from .agent import AgentConfig
from .errors import ConfigurationError, ScenarioError
from .metrics import DEFAULT_PHASE_SIZE
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
    phase_size: int = DEFAULT_PHASE_SIZE
    agent_defaults: dict = field(default_factory=dict)

    def build_network(self) -> SubstrateNetwork:
        return build_reference_topology(self.topology)

    def build_load_model(self, net: SubstrateNetwork | None = None) -> LoadModel:
        return LoadModel.from_network(self.classes, net or self.build_network())

    def generate_events(self, seed: int | None = None,
                        horizon: float | None = None) -> list[Event]:
        model = self.build_load_model()
        return generate_events(model,
                               self.horizon if horizon is None else horizon,
                               self.seed if seed is None else seed)

    def result_fields(self) -> dict:
        """Everything that affects simulation output, in canonical form:
        a class's fields without its display name, its arrival law tagged
        with its kind."""
        classes = []
        for c in sorted(self.classes, key=lambda c: c.id):
            doc = asdict(c)
            del doc["name"]
            doc["arrival"]["kind"] = "dynamic" if c.is_dynamic else "static"
            classes.append(doc)
        return {
            "topology": list(astuple(self.topology)),
            "classes": classes,
            "horizon": self.horizon,
            "seed": self.seed,
            "phase_size": self.phase_size,
            # a field of the hash format; lifetimes are always exponential
            "lifetime_dist": "exponential",
            "agent_defaults": dict(sorted(self.agent_defaults.items())),
        }

    def hash(self) -> str:
        blob = json.dumps(self.result_fields(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_TOP_KEYS = {"name", "seed", "horizon", "phase_size", "topology", "classes",
             "agent"}
_TOPOLOGY_KEYS = {"profile"} | {f.name for f in fields(TopologyCounts)}
_AGENT_KEYS = {f.name for f in fields(AgentConfig)}
_CLASS_KEYS = {f.name for f in fields(SliceClass)}


def _number(mapping: dict, key: str, path: str, convert=float):
    """mapping[key] through convert and finite, else a ScenarioError
    naming the dotted field, also when the key is absent."""
    where = f"{path}.{key}" if path else key
    if key not in mapping:
        raise ScenarioError(f"{where}: missing required field")
    raw = mapping[key]
    try:
        value = convert(raw)
        finite = math.isfinite(value)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    if not finite:
        raise ScenarioError(f"{where}: must be finite, got {raw!r}")
    return value


def _whole(raw) -> int:
    """int(raw), refusing a number with a fractional part."""
    if isinstance(raw, float) and not raw.is_integer():
        raise ValueError(f"must be a whole number, got {raw!r}")
    return int(raw)


_CONVERTERS = {"int": _whole, "float": float}


def _numbers(mapping: dict, record, path: str, required: bool = True) -> dict:
    """The int and float fields of dataclass record that mapping holds,
    each read by _number (an int through _whole). With required, a field
    without a default must be present; an absent field is left out, so
    the dataclass default applies."""
    found = {}
    for f in fields(record):
        convert = _CONVERTERS.get(f.type)
        if convert is not None and (
                f.name in mapping or (required and f.default is MISSING)):
            found[f.name] = _number(mapping, f.name, path, convert)
    return found


def _reject_unknown(mapping: dict, known: set, path: str) -> None:
    unknown = sorted(str(k) for k in mapping if k not in known)
    if unknown:
        where = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ScenarioError(f"{where}: unknown field "
                            f"(known: {', '.join(sorted(known))})")


def _parse_topology(raw, path: str) -> TopologyCounts:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: must be a mapping")
    _reject_unknown(raw, _TOPOLOGY_KEYS, path)
    if "profile" in raw:
        profile = raw["profile"]
        if not isinstance(profile, str) or profile not in PROFILES:
            raise ScenarioError(
                f"{path}.profile: unknown profile {profile!r} "
                f"(choices: {sorted(PROFILES)})")
        counts = sorted(str(k) for k in raw if k != "profile")
        if counts:
            raise ScenarioError(f"{path}.{counts[0]}: a count beside "
                                "profile; give a profile or counts, not both")
        return PROFILES[profile]
    counts = _numbers(raw, TopologyCounts, path)
    try:
        return TopologyCounts(**counts)
    except ConfigurationError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _parse_class(raw, idx: int) -> SliceClass:
    path = f"classes[{idx}]"
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: must be a mapping")
    _reject_unknown(raw, _CLASS_KEYS, path)
    arrival_raw = raw.get("arrival")
    if not isinstance(arrival_raw, dict) or "kind" not in arrival_raw:
        raise ScenarioError(f"{path}.arrival: must be a mapping with a kind")
    kind = arrival_raw["kind"]
    if kind == "dynamic":
        law = DynamicArrival
    elif kind == "static":
        law = StaticArrival
    else:
        raise ScenarioError(
            f"{path}.arrival.kind: must be 'static' or 'dynamic', got {kind!r}")
    _reject_unknown(arrival_raw, {"kind"} | {f.name for f in fields(law)},
                    f"{path}.arrival")
    arrival = law(**_numbers(arrival_raw, law, f"{path}.arrival"))
    numbers = _numbers(raw, SliceClass, path)
    try:
        return SliceClass(name=str(raw.get("name", f"class-{idx}")),
                          arrival=arrival, **numbers)
    except ConfigurationError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def parse_scenario(raw: dict, name: str = "scenario") -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a mapping")
    _reject_unknown(raw, _TOP_KEYS, "")
    if "topology" not in raw:
        raise ScenarioError("topology: missing section")
    topology = _parse_topology(raw["topology"], "topology")
    classes_raw = raw.get("classes")
    if not isinstance(classes_raw, list) or not classes_raw:
        raise ScenarioError("classes: must be a non-empty list")
    classes = [_parse_class(c, i) for i, c in enumerate(classes_raw)]
    numbers = _numbers(raw, Scenario, "")
    if numbers["horizon"] <= 0:
        raise ScenarioError("horizon: must be > 0")
    if numbers.get("seed", 0) < 0:
        raise ScenarioError(
            f"seed: must be a whole number >= 0, got {raw['seed']!r}")
    agent_defaults = raw.get("agent", {})
    if agent_defaults is None:
        agent_defaults = {}
    if not isinstance(agent_defaults, dict):
        raise ScenarioError("agent: must be a mapping")
    _reject_unknown(agent_defaults, _AGENT_KEYS, "agent")
    try:
        AgentConfig.for_variant(
            agent_defaults.get("variant", "drl"),
            **_numbers(agent_defaults, AgentConfig, "agent", required=False))
    except ConfigurationError as exc:
        raise ScenarioError(f"agent: {exc}") from exc
    scenario = Scenario(
        name=str(raw.get("name", name)),
        topology=topology,
        classes=classes,
        agent_defaults=dict(agent_defaults),
        **numbers,
    )
    if scenario.phase_size < 1:
        raise ScenarioError("phase_size: must be >= 1")
    # the built topology must hold some of every resource, and each
    # dynamic class must stay within the load bound its capacities set
    try:
        net = scenario.build_network()
        LoadModel.from_network([], net)
    except ConfigurationError as exc:
        raise ScenarioError(f"topology: {exc}") from exc
    for i, cls in enumerate(classes):
        try:
            LoadModel.from_network([cls], net)
        except ConfigurationError as exc:
            raise ScenarioError(
                f"classes[{i}].arrival.amplitude: {exc}") from exc
    ids = [c.id for c in classes]
    if len(set(ids)) != len(ids):
        raise ScenarioError("classes: ids must be unique")
    return scenario


def bundled_scenario_path(name: str):
    return importlib.resources.files("slicesim") / "scenarios" / f"{name}.scenario"


def _line_column(mark) -> str:
    return f"line {mark.line + 1}, column {mark.column + 1}"


def _read_yaml(text: str, source: str):
    """The YAML document in text; a syntax error becomes a ScenarioError
    naming source and the 1-based line and column."""
    try:
        return yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        where = (f" at {_line_column(exc.problem_mark)}"
                 if exc.problem_mark is not None else "")
        context = (f" ({exc.context} at {_line_column(exc.context_mark)})"
                   if exc.context and exc.context_mark is not None else "")
        raise ScenarioError(f"{source}: YAML syntax error{where}: "
                            f"{exc.problem}{context}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{source}: YAML error: {exc}") from exc


def load_scenario(ref: str) -> Scenario:
    """Load a scenario from a file path or a bundled name."""
    if os.path.exists(ref):
        try:
            with open(ref, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{ref}: not UTF-8 text ({exc})") from exc
        raw = _read_yaml(text, ref)
        name = os.path.splitext(os.path.basename(ref))[0]
        return parse_scenario(raw, name)
    bundled = bundled_scenario_path(ref)
    if bundled.is_file():
        return parse_scenario(_read_yaml(bundled.read_text(), str(bundled)),
                              ref)
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
    checkpoint: str | None = None
    extra: dict = field(default_factory=dict)

    def write(self, path) -> None:
        doc = asdict(self)
        extra = doc.pop("extra")
        # a field of the format; a run starts at its first arrival
        doc["start_arrival"] = 0
        doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
