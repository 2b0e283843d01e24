"""Acceptance-ratio bookkeeping and its CSV/JSON export formats."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicesim import (
    AcceptanceRecord,
    ConfigurationError,
    gar,
    gar_series,
    phase_reaching,
    phase_table,
    plot_data,
    write_phase_csv,
    write_plot_json,
    write_records_csv,
)
from slicesim.metrics import DEFAULT_PHASE_SIZE

from conftest import examples
from oracles import per_class_tar, tar


def rec(index, accepted, class_id=0, time=None):
    return AcceptanceRecord(index=index, uid=index - 1, class_id=class_id,
                            accepted=accepted,
                            time=float(index) if time is None else time)


def mixed_records():
    # class 0 accepts 3/4, class 1 accepts 1/2
    flags = [(1, True, 0), (2, True, 1), (3, False, 0),
             (4, True, 0), (5, False, 1), (6, True, 0)]
    return [rec(i, a, c) for i, a, c in flags]


def test_gar_prefix_and_full():
    records = mixed_records()
    assert gar(records) == 4 / 6
    assert gar(records, upto=1) == 1.0
    assert gar(records, upto=3) == 2 / 3
    with pytest.raises(ConfigurationError):
        gar(records, upto=0)
    with pytest.raises(ConfigurationError):
        gar(records, upto=7)
    with pytest.raises(ConfigurationError):
        gar([])


def test_gar_series_matches_prefix_gar():
    records = mixed_records()
    series = gar_series(records)
    assert series == [gar(records, upto=i) for i in range(1, 7)]
    assert gar_series([]) == []


@settings(max_examples=examples(200), deadline=None, database=None)
@given(flags=st.lists(st.tuples(st.booleans(), st.sampled_from([0, 1, 2])),
                      max_size=60),
       phase_size=st.integers(1, 12),
       class_ids=st.lists(st.sampled_from([0, 1, 2]), unique=True))
def test_phase_table_matches_the_per_phase_oracles(flags, phase_size,
                                                   class_ids):
    """One row per phase the oracle calls complete, and none for the
    partial phase after them; each row holds the oracles' phase and class
    acceptance, None for a class with no arrival in the phase (class 9
    never arrives). A phase size below 1 is refused by name."""
    records = [rec(i, a, c) for i, (a, c) in enumerate(flags, start=1)]
    class_ids = class_ids + [9]
    want = []
    while (acceptance := tar(records, len(want), phase_size)) is not None:
        per_class = [per_class_tar(records, c, len(want), phase_size)
                     for c in class_ids]
        want.append((acceptance, per_class))
    assert phase_table(records, phase_size, class_ids) == want
    assert phase_table(records, phase_size) == [(t, []) for t, _ in want]
    for bad in (0, -3):
        with pytest.raises(ConfigurationError, match="phase_size"):
            phase_table(records, bad, class_ids)


def test_tar_partial_phase_is_none():
    records = mixed_records()
    assert [t for t, _ in phase_table(records, 3)] == [2 / 3, 2 / 3]
    # a partial phase has no row
    assert [t for t, _ in phase_table(records[:5], 3)] == [2 / 3]
    # default phase size is far larger than six records
    assert phase_table(records, DEFAULT_PHASE_SIZE) == []
    with pytest.raises(ConfigurationError):
        phase_table(records, 0)


def test_complete_phases_counts_full_windows():
    records = mixed_records()
    assert len(phase_table(records, 3)) == 2
    assert len(phase_table(records, 4)) == 1
    assert len(phase_table(records, 7)) == 0
    assert phase_table([], 1) == []


def test_per_class_tar_none_markers():
    records = mixed_records()
    # phase 0 of size 3 holds classes {0, 1, 0}: class 1 accepted once;
    # phase 1 holds {0, 1, 0}: class 1 rejected; class 9 never arrives
    assert phase_table(records, 3, [1, 9, 0]) == [
        (2 / 3, [1.0, None, 0.5]),
        (2 / 3, [0.0, None, 1.0]),
    ]
    # partial phase trumps everything: no row for it
    assert phase_table(records[:5], 3, [0]) == [(2 / 3, [0.5])]


@pytest.mark.parametrize("call", [
    lambda r: phase_table(r, 0),
    lambda r: phase_table(r, -3),
    lambda r: phase_table(r, -1, [0]),
    lambda r: phase_table(r, 0, [0, 1]),
])
def test_phase_arguments_are_checked_as_tar_checks_them(call):
    """A phase size below 1 is refused by name, not met with a
    ZeroDivisionError or an empty table."""
    with pytest.raises(ConfigurationError,
                       match="phase_size must be >= 1"):
        call(mixed_records())


def test_phase_reaching_is_the_first_phase_at_or_above_the_level():
    assert phase_reaching([0.7, 0.2, 0.1], 0.5) == 1
    assert phase_reaching([0.1, 0.4, 0.6, 0.3], 0.5) == 3
    assert phase_reaching([0.2, 0.5], 0.5) == 2             # at the level
    assert phase_reaching([0.1, 0.2, 0.49], 0.5) is None    # never
    assert phase_reaching([0.4, 0.0, 0.0, 0.0], 0.5) is None  # a collapse
    assert phase_reaching([], 0.5) is None                  # no phase


def test_records_csv_format(tmp_path):
    records = mixed_records()[:3]
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "arrival_index,time,class,accepted,gar_running"
    assert lines[1] == "1,1.0,0,1,1.0"
    assert lines[2] == "2,2.0,1,1,1.0"
    assert lines[3] == "3,3.0,0,0,0.6666666666666666"
    assert len(lines) == 4


def test_phase_csv_format(tmp_path):
    records = mixed_records()
    path = tmp_path / "phases.csv"
    write_phase_csv(records, path, phase_size=3, class_ids=[0, 1, 9])
    lines = path.read_text().splitlines()
    assert lines[0] == "phase,tar,tar_class_0,tar_class_1,tar_class_9"
    assert lines[1] == "0,0.6666666666666666,0.5,1.0,"
    assert lines[2] == "1,0.6666666666666666,1.0,0.0,"
    assert len(lines) == 3


def test_phase_csv_without_classes(tmp_path):
    records = mixed_records()
    path = tmp_path / "phases.csv"
    write_phase_csv(records, path, phase_size=6)
    assert path.read_text() == "phase,tar\n0,0.6666666666666666\n"


def test_csv_rewrite_is_byte_stable(tmp_path):
    # irrational-ish times exercise repr round-tripping
    records = [rec(i, i % 3 != 0, class_id=i % 2, time=i / 7.0)
               for i in range(1, 30)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records_csv(records, a)
    write_records_csv(records, b)
    assert a.read_bytes() == b.read_bytes()
    pa, pb = tmp_path / "pa.csv", tmp_path / "pb.csv"
    write_phase_csv(records, pa, phase_size=5, class_ids=[0, 1])
    write_phase_csv(records, pb, phase_size=5, class_ids=[0, 1])
    assert pa.read_bytes() == pb.read_bytes()


def test_plot_data_structure():
    records = mixed_records()
    data = plot_data(records, phase_size=3, class_ids=[1, 9])
    assert set(data) == {"gar", "tar", "tar_class_1", "tar_class_9"}
    assert data["gar"][0] == [1, 1.0]
    assert data["gar"][-1] == [6, 4 / 6]
    assert data["tar"] == [[0, 2 / 3], [1, 2 / 3]]
    assert data["tar_class_1"] == [[0, 1.0], [1, 0.0]]
    # class with no arrivals contributes an empty series, not None points
    assert data["tar_class_9"] == []


def test_write_plot_json_round_trip(tmp_path):
    records = mixed_records()
    path = tmp_path / "plot.json"
    write_plot_json(records, path, phase_size=3, class_ids=[0])
    loaded = json.loads(path.read_text())
    assert loaded == plot_data(records, phase_size=3, class_ids=[0])
    assert path.read_text().endswith("\n")
