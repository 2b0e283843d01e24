"""Scenario files: one YAML document describing a whole experiment.

A scenario pins the topology (a named profile or explicit counts), the
request classes, the traffic horizon, seeds, the phase size, and agent
defaults. The reader only parses: it refuses unknown keys and missing
fields, types what YAML left untyped (PyYAML reads 2e-4 and 6e4 as
strings), and builds each record, which checks its own fields. A
refusal names the field once by its dotted path, as
``classes[1].arrival.amplitude: <what>``.
The scenario hash covers exactly the fields that affect results, so two
runs with equal hashes and equal seeds produce identical outputs.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
import os
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields

import yaml

from .agent import AgentConfig
from .errors import (ConfigurationError, FieldError, ScenarioError,
                     check_fields)
from .metrics import DEFAULT_PHASE_SIZE
from .substrate import (PROFILES, SubstrateNetwork, TopologyCounts,
                        build_reference_topology)
from .traffic import (DynamicArrival, EventStream, LoadModel, SliceClass,
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

    def __post_init__(self):
        check_fields(self)
        if self.horizon <= 0:
            raise FieldError(self, "horizon", "must be > 0")
        if self.phase_size < 1:
            raise FieldError(self, "phase_size", "must be >= 1")

    def agent_config(self, variant: str | None = None,
                     **overrides) -> AgentConfig:
        """The config of this scenario's agent: section: the variant given,
        else the section's (drl if none). Each override beats the section,
        and the section beats the variant's defaults."""
        values = dict(self.agent_defaults, **overrides)
        section_variant = values.pop("variant", "drl")
        return AgentConfig.for_variant(
            section_variant if variant is None else variant, **values)

    def build_network(self) -> SubstrateNetwork:
        return build_reference_topology(self.topology)

    def build_load_model(self, net: SubstrateNetwork) -> LoadModel:
        return LoadModel.from_network(self.classes, net)

    def generate_events(self, seed: int | None = None,
                        horizon: float | None = None) -> EventStream:
        return generate_events(self.classes,
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


def _coerce(raw, kind: str):
    """raw as a field of kind ("int" or "float") wants it, where YAML
    typed it otherwise: a number string (PyYAML reads 2e-4 and 6e4 as
    strings) or an int as a float, a whole float as an int. Anything
    else is left for the record to refuse."""
    if isinstance(raw, str) or (kind == "float" and type(raw) is int):
        try:
            raw = float(raw)
        except (OverflowError, ValueError):
            return raw
    if kind == "int" and isinstance(raw, float) and raw.is_integer():
        return int(raw)
    return raw


def _numbers(mapping: dict, record, path: str, required: bool = True) -> dict:
    """The int and float fields of dataclass record that mapping holds,
    each through _coerce. With required, a field without a default must
    be present; an absent field is left out, so the default applies."""
    found = {}
    for f in fields(record):
        if f.type not in ("int", "float"):
            continue
        if f.name in mapping:
            found[f.name] = _coerce(mapping[f.name], f.type)
        elif required and f.default is MISSING:
            raise ScenarioError(
                f"{_dotted(path, f.name)}: missing required field")
    return found


def _dotted(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _build(path: str, record, /, *args, **kwargs):
    """record(*args, **kwargs); a field it refuses is a ScenarioError
    that names the field under path."""
    try:
        return record(*args, **kwargs)
    except FieldError as exc:
        raise ScenarioError(
            f"{_dotted(path, exc.field)}: {exc.what}") from exc


def _reject_unknown(mapping: dict, known: set, path: str) -> None:
    unknown = sorted(str(k) for k in mapping if k not in known)
    if unknown:
        raise ScenarioError(f"{_dotted(path, unknown[0])}: unknown field "
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
    return _build(path, TopologyCounts, **_numbers(raw, TopologyCounts, path))


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
    arrival = _build(f"{path}.arrival", law,
                     **_numbers(arrival_raw, law, f"{path}.arrival"))
    return _build(path, SliceClass, name=str(raw.get("name", f"class-{idx}")),
                  arrival=arrival, **_numbers(raw, SliceClass, path))


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
    agent = {} if raw.get("agent") is None else raw["agent"]
    if not isinstance(agent, dict):
        raise ScenarioError("agent: must be a mapping")
    _reject_unknown(agent, _AGENT_KEYS, "agent")
    # typed, so that one config has one hash however YAML spelt it
    agent_defaults = {**agent, **_numbers(agent, AgentConfig, "agent",
                                          required=False)}
    scenario = _build("", Scenario, name=str(raw.get("name", name)),
                      topology=topology, classes=classes,
                      agent_defaults=agent_defaults,
                      **_numbers(raw, Scenario, ""))
    _build("agent", scenario.agent_config)
    # the built topology must hold some of every resource, and each
    # dynamic class must stay within the load bound its capacities set
    try:
        net = scenario.build_network()
        LoadModel.from_network([], net)
    except ConfigurationError as exc:
        raise ScenarioError(f"topology: {exc}") from exc
    for i, cls in enumerate(classes):
        _build(f"classes[{i}].arrival", LoadModel.from_network, [cls], net)
    ids = [c.id for c in classes]
    if len(set(ids)) != len(ids):
        raise ScenarioError("classes: ids must be unique")
    return scenario


def bundled_scenario_path(name: str):
    return importlib.resources.files("slicesim") / "scenarios" / f"{name}.scenario"


def _line_column(mark) -> str:
    return f"line {mark.line + 1}, column {mark.column + 1}"


# libyaml's safe loader where PyYAML was built with it: it reads the same
# documents and names the same marks, several times faster
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _read_yaml(text: str, source: str):
    """The YAML document in text; a syntax error becomes a ScenarioError
    naming source and the 1-based line and column."""
    try:
        return yaml.load(text, Loader=YAML_LOADER)
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
