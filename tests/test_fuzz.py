"""Property tests: arbitrary input fails with a named ScenarioError or
CheckpointError."""

import copy
import functools
import json
import re
import struct
from dataclasses import fields

import yaml
from hypothesis import given, settings, strategies as st

from slicesim import (Agent, AgentConfig, CheckpointError, DynamicArrival,
                      ScenarioError, SliceClass, StaticArrival,
                      TopologyCounts, build_reference_topology, load_events,
                      parse_scenario)
from slicesim.scenario import bundled_scenario_path

CLASSES = [
    SliceClass(id=0, vnf_count=5, req_cpu=25.0, req_ram=150.0, req_bw=2.0,
               mean_lifetime=20.0, arrival=DynamicArrival(1.5, 96.0)),
    SliceClass(id=1, vnf_count=10, req_cpu=25.0, req_ram=150.0, req_bw=2.0,
               mean_lifetime=500.0, arrival=StaticArrival(0.02)),
]

# Any JSON value, with integers beyond the float range among them.
ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-(2 ** 1100), 2 ** 1100),
    st.floats(), st.text(max_size=6), st.lists(st.integers(0, 2), max_size=2))

TYPICAL = {"time": st.floats(0.0, 50.0),
           "kind": st.sampled_from(["arrival", "departure"]),
           "uid": st.integers(0, 1),
           "class": st.integers(0, 2)}

# A record with every field of its usual type, so that streams reach the
# class and departure checks.
WELL_TYPED = st.fixed_dictionaries(TYPICAL)

# A record with any field missing, or of any value, or one more field.
ANY_RECORD = st.fixed_dictionaries(
    {k: st.one_of(v, ANY_VALUE) for k, v in TYPICAL.items()},
    optional={"extra": ANY_VALUE},
).flatmap(lambda r: st.sets(st.sampled_from(sorted(r)), max_size=1).map(
    lambda drop: {k: v for k, v in r.items() if k not in drop}))

# A file: well-typed records only, or lines of any text and records.
LINES = st.one_of(
    st.lists(WELL_TYPED.map(json.dumps), max_size=6),
    st.lists(st.one_of(st.text(st.characters(exclude_categories=("Cs",),
                                             exclude_characters="\r\n"),
                               max_size=30),
                       WELL_TYPED.map(json.dumps), ANY_RECORD.map(json.dumps)),
             max_size=6))


@settings(max_examples=300, deadline=None, database=None)
@given(lines=LINES)
def test_load_events_loads_or_names_the_file_and_line(tmp_path_factory,
                                                      lines):
    path = tmp_path_factory.getbasetemp() / "fuzz-events.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    try:
        events = load_events(path, CLASSES)
    except ScenarioError as exc:
        found = re.match(re.escape(str(path)) + r", line (\d+): ", str(exc))
        assert found, str(exc)
        number = int(found.group(1))
        assert 1 <= number <= len(lines) and lines[number - 1].strip()
    else:
        assert all(ev.class_id in (0, 1) for ev in events)


# -- checkpoints ------------------------------------------------------------------

NET = build_reference_topology("tiny")

# Any JSON document, NaN and the infinities among its numbers.
ANY_JSON = st.recursive(
    ANY_VALUE, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)

# Where one value of an agent checkpoint's manifest is replaced.
MANIFEST_PATH = st.one_of(
    st.sampled_from(["kind", "variant", "gamma", "xi", "eta", "beta",
                     "allow_any_node", "episodes_trained", "net_fingerprint",
                     "actor", "critic", "tensors"]).map(lambda k: (k,)),
    st.tuples(st.just("actor"), st.just("n_actions")),
    st.tuples(st.just("tensors"), st.integers(0, 63),
              st.sampled_from(["name", "shape"])))


@functools.cache
def fresh_checkpoint(directory) -> bytes:
    path = directory / "fuzz-agent.ckpt"
    Agent(AgentConfig.for_variant("drl"), NET).save(path)
    return path.read_bytes()


def replaced(raw: bytes, path: tuple, value) -> bytes:
    """raw with the manifest value at path replaced by value."""
    (length,) = struct.unpack("<I", raw[8:12])
    manifest = json.loads(raw[12:12 + length])
    target = manifest
    if path[0] == "tensors" and len(path) == 3:
        target = manifest["tensors"][path[1] % len(manifest["tensors"])]
    elif len(path) == 2:
        target = manifest[path[0]]
    target[path[-1]] = value
    blob = json.dumps(manifest).encode()
    return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + length:]


@settings(max_examples=300, deadline=None, database=None)
@given(change=st.one_of(
    st.tuples(st.just("manifest"), MANIFEST_PATH, ANY_JSON),
    st.tuples(st.just("payload"), st.integers(-24, 24).filter(bool))))
def test_agent_load_loads_or_names_a_checkpoint_error(tmp_path_factory,
                                                      change):
    directory = tmp_path_factory.getbasetemp()
    raw = fresh_checkpoint(directory)
    if change[0] == "manifest":
        raw = replaced(raw, change[1], change[2])
    elif change[1] < 0:
        raw = raw[:change[1]]
    else:
        raw = raw + bytes(change[1])
    path = directory / "fuzz-agent-changed.ckpt"
    path.write_bytes(raw)
    try:
        Agent.load(path, NET)
    except CheckpointError:
        pass


# -- scenario documents -----------------------------------------------------------

TINY = yaml.safe_load(bundled_scenario_path("tiny").read_text())
COUNT_KEYS = [f.name for f in fields(TopologyCounts)]

# Where one value of tiny's document is replaced, or one key added.
SCENARIO_PATH = st.one_of(
    st.sampled_from(["name", "seed", "horizon", "phase_size", "topology",
                     "classes", "agent", "extra"]).map(lambda k: (k,)),
    st.tuples(st.just("topology"), st.sampled_from(["profile", "extra"])),
    st.tuples(st.just("classes"), st.integers(0, 1)),
    st.tuples(st.just("classes"), st.integers(0, 1),
              st.sampled_from(sorted(TINY["classes"][0]) + ["extra"])),
    st.tuples(st.just("classes"), st.integers(0, 1), st.just("arrival"),
              st.sampled_from(["kind", "amplitude", "period", "rate"])),
    st.tuples(st.just("agent"),
              st.sampled_from(["variant", "actor_lr", "critic_lr", "gamma",
                               "xi", "eta", "beta", "seed", "extra"])))

# The builder makes as many data centres and servers as a count says, so
# a count that reads as a number is drawn from 0-4.
SMALL_OR_NOT_A_NUMBER = st.one_of(st.integers(0, 4), ANY_VALUE.filter(
    lambda v: isinstance(v, bool) or not isinstance(v, (int, float))
    or not v > 4))

CHANGE = st.one_of(
    st.tuples(SCENARIO_PATH, ANY_JSON),
    st.tuples(st.sampled_from(COUNT_KEYS).map(lambda k: ("topology", k)),
              SMALL_OR_NOT_A_NUMBER))

# A dotted field path from a top-level key, then a colon.
FIELD_PATH = re.compile(r"(seed|horizon|phase_size|topology|classes|agent|"
                        r"extra)(\[\d+\])?(\..*?)?: ", re.S)


@settings(max_examples=300, deadline=None, database=None)
@given(change=CHANGE)
def test_parse_scenario_loads_or_names_the_field(change):
    path, value = change
    doc = copy.deepcopy(TINY)
    if path[-1] in COUNT_KEYS:      # tiny's topology as explicit counts
        doc["topology"] = {"edc_count": 1, "servers_per_edc": 3}
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    try:
        parse_scenario(doc, "fuzz")
    except ScenarioError as exc:
        assert FIELD_PATH.match(str(exc)), str(exc)
