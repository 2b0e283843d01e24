"""Property tests: arbitrary input fails with a named ScenarioError."""

import json
import re

from hypothesis import given, settings, strategies as st

from slicesim import (DynamicArrival, ScenarioError, SliceClass,
                      StaticArrival, load_events)

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
