"""Tests of the benchmark's own helpers, on the bundled tiny scenario.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import slicesim  # noqa: E402
from slicesim import AcceptanceRecord, heuristic, placement  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

TINY = [
    harness.Workload("heuristic-tiny", "tiny", None, 40, seeds=3),
    harness.Workload("ha-drl-tiny", "tiny", "ha-drl", 25, seeds=2),
    harness.Workload("ha-edrl-tiny", "tiny", "ha-edrl", 25, seeds=2),
]


def test_self_times_subtract_direct_children_only():
    #   0 [0, 10]
    #   +- 1 [1, 4]
    #   |  +- 2 [2, 3]
    #   +- 3 [5, 9]
    start, end, parent = [0, 1, 2, 5], [10, 4, 3, 9], [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [3, 2, 1, 4]


def test_tracer_self_times_add_up_to_the_root():
    tracer = Tracer()
    root = tracer.open("root")
    for _ in range(3):
        outer = tracer.open("outer")
        tracer.close(tracer.open("inner"))
        tracer.close(outer)
    tracer.close(root)
    assert list(tracer.parent) == [-1, 0, 1, 0, 3, 0, 5]
    assert sum(tracer.self_times()) == pytest.approx(
        tracer.end[0] - tracer.start[0], abs=1e-12)
    assert {k: n for k, (n, _) in tracer.by_name().items()} == {
        "root": 1, "outer": 3, "inner": 3}


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    assert harness.tail(samples) == (90, 90.0)
    value, percentile = harness.tail(list(range(11)))
    assert value == 0 and percentile == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        harness.tail(list(range(10)))


def test_functions_are_wrapped_at_every_binding():
    originals = (placement.route_all, placement.apply_action,
                 heuristic.heu_select)
    tracer = Tracer()
    with tracer.installed(harness.TARGETS):
        assert heuristic.route_all is placement.route_all
        assert heuristic.apply_action is placement.apply_action
        assert slicesim.agent.apply_action is placement.apply_action
        assert slicesim.agent.heu_select is heuristic.heu_select
        assert placement.route_all.__wrapped__ is originals[0]
    assert (placement.route_all, placement.apply_action,
            heuristic.heu_select) == originals
    assert slicesim.agent.heu_select is originals[2]


@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
def test_each_workload_shape_runs_and_checks(w, tmp_path):
    result = harness.run_workload(w, 0, 0.0, True, str(tmp_path))
    assert result.problems == []
    assert result.correct and result.failed == 0
    assert result.attempted == 2 * w.seeds * w.arrivals
    assert set(result.e2e) == set(harness.E2E_UNITS)
    assert set(result.layers) == set(harness.LAYER_UNITS)
    assert all(v > 0 for v in result.e2e.values())
    assert (result.layers["networks.forward_calls"] > 0) == (w.variant is not None)
    assert (result.layers["traffic.forecast_ms"] > 0) == (w.variant == "ha-edrl")
    assert result.details["tail_samples"] == w.seeds * w.arrivals
    spans = (tmp_path / f"{w.name}-seed0.spans.csv").read_text().splitlines()
    assert spans[0] == "span,name,start_s,end_s,parent,request"
    assert len(spans) == result.details["spans"] + 1
    untraced = tmp_path / f"{w.name}-seed0-untraced.csv"
    traced = tmp_path / f"{w.name}-seed0-traced.csv"
    assert untraced.read_bytes() == traced.read_bytes()


@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
def test_layer_times_add_up_to_the_traced_wall_time(w, tmp_path):
    with Tracer().installed(harness.TARGETS) as tracer:
        result = harness.run_pass(w, 0, str(tmp_path / "p"), None, tracer)
    assert result.problems == []
    wall = tracer.end[0] - tracer.start[0]
    per_arrival = [*harness.SELF_MS, "trace.unattributed_ms"]
    total = (sum(result.layers[m] for m in per_arrival) * w.arrivals / 1000.0
             + sum(result.layers[m] for m in harness.SELF_S))
    assert total == pytest.approx(wall, rel=1e-9)
    assert result.layers["trace.unattributed_ms"] > 0


def test_a_failed_check_fails_every_arrival(tmp_path):
    w = harness.Workload("too-long", "tiny", None, 10_000, seeds=2)
    result = harness.run_workload(w, 0, 0.0, False, str(tmp_path))
    assert any("stream ended" in p for p in result.problems)
    assert not result.correct
    assert result.failed == result.attempted == w.seeds * w.arrivals


def test_times_are_medians_over_a_seeds_passes_in_seed_order():
    def pass_(seed, arrival_s, scale=1.0):
        return harness.Pass(seed, 0.0, sum(arrival_s), arrival_s, 0, {},
                            None, [], scale)
    passes = [pass_(7, [3.0, 1.0]), pass_(5, [2.0, 2.0]),
              pass_(7, [1.0, 9.0]), pass_(7, [1.0, 2.0], scale=2.0)]
    assert harness.seed_medians(passes, [5, 7],
                                lambda p: p.run_s * p.scale) == [
        4.0, 6.0]
    assert harness.arrival_medians(passes, [5, 7]) == [2.0, 2.0, 2.0, 4.0]


def test_an_untraced_run_pools_acceptance_over_one_cycle_of_seeds(tmp_path):
    w = TINY[0]
    result = harness.run_workload(w, 5, 0.0, False, str(tmp_path))
    assert result.correct
    assert result.details["pass_seeds"] == harness.pass_seeds(w, 5) == [
        5, 1005, 2005]
    accepted = 0
    for s in harness.pass_seeds(w, 5):
        rows = (tmp_path / f"{w.name}-seed{s}-untraced.csv").read_text()
        accepted += sum(line.split(",")[3] == "1"
                        for line in rows.splitlines()[1:])
    assert result.e2e["acceptance_ratio"] == (
        accepted / (w.arrivals * w.seeds))


def test_ledger_audit_catches_a_leak():
    ctx = harness.set_up(TINY[0], 0)
    sim = slicesim.Simulation(ctx.net, ctx.events, ctx.policy)
    sim.run(max_arrivals=20)
    assert harness.audit_ledger(sim) == []
    ctx.net.nodes[0].cap_cpu -= 1.0
    assert len(harness.audit_ledger(sim)) == 1


def test_golden_check_compares_up_to_the_run_length():
    records = [AcceptanceRecord(index=i + 1, uid=i, class_id=0,
                                accepted=bool(f), time=float(i))
               for i, f in enumerate([1, 0, 1, 1])]
    golden = {"first_flags": [1, 0, 1, 1, 0],
              "gar_checkpoints": {"2": 0.5, "4": 0.75, "8": 0.1}}
    assert harness.check_golden(records, golden) == []
    golden["gar_checkpoints"]["4"] = 0.5
    golden["first_flags"][1] = 1
    assert len(harness.check_golden(records, golden)) == 2


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.LAYER_UNITS
