"""Scenario parsing, result-field hashing, and the CLI end to end.

CLI commands run in-process through `slicesim.cli.main` with --out-dir
pointed at tmp_path, so these tests exercise the real argument parsing
and file layout without spawning subprocesses.
"""

import copy
import json

import pytest
import yaml

from slicesim import PROFILES, ScenarioError, load_events, load_scenario
from slicesim.cli import main
from slicesim.scenario import RunManifest, parse_scenario


def scenario_doc():
    """A small valid document on the 3-server tiny profile."""
    return {
        "name": "unit",
        "seed": 3,
        "horizon": 400.0,
        "phase_size": 25,
        "topology": {"profile": "tiny"},
        "classes": [
            {"id": 0, "vnf_count": 2, "req_cpu": 10.0, "req_ram": 60.0,
             "req_bw": 1.0, "mean_lifetime": 10.0,
             "arrival": {"kind": "dynamic", "amplitude": 0.5, "period": 50.0}},
            {"id": 1, "vnf_count": 3, "req_cpu": 10.0, "req_ram": 60.0,
             "req_bw": 1.0, "mean_lifetime": 30.0,
             "arrival": {"kind": "static", "rate": 0.01}},
        ],
    }


# -- parsing ----------------------------------------------------------------

def test_bundled_scenarios_load():
    reference = load_scenario("reference")
    assert reference.topology == PROFILES["full"]
    assert len(reference.classes) == 2
    desk = load_scenario("desk")
    assert desk.topology.edc_count == 2
    assert desk.topology.servers_per_edc == 2
    assert desk.topology.cdc_count == 1
    assert desk.topology.servers_per_cdc == 4
    assert desk.phase_size == 500
    assert desk.agent_defaults["variant"] == "ha-drl"
    tiny = load_scenario("tiny")
    assert tiny.topology == PROFILES["tiny"]
    assert tiny.agent_defaults["variant"] == "drl"


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "myrun.yaml"
    path.write_text(yaml.safe_dump(scenario_doc()))
    sc = load_scenario(str(path))
    assert sc.name == "unit"
    assert sc.seed == 3
    assert sc.classes[0].is_dynamic
    assert not sc.classes[1].is_dynamic


def test_load_scenario_unknown_ref():
    with pytest.raises(ScenarioError, match="neither a file nor a bundled"):
        load_scenario("no-such-scenario")


def test_parse_uses_filename_when_unnamed(tmp_path):
    doc = scenario_doc()
    del doc["name"]
    path = tmp_path / "fallback.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert load_scenario(str(path)).name == "fallback"


@pytest.mark.parametrize("mutate,path_fragment", [
    (lambda d: d.pop("topology"), "topology: missing section"),
    (lambda d: d.__setitem__("topology", {"profile": "huge"}),
     "topology.profile"),
    (lambda d: d.__setitem__("classes", []), "classes: must be a non-empty"),
    (lambda d: d["classes"][0].pop("req_cpu"),
     "classes\\[0\\].req_cpu: missing"),
    (lambda d: d["classes"][1]["arrival"].__setitem__("kind", "burst"),
     "classes\\[1\\].arrival.kind"),
    (lambda d: d["classes"][0]["arrival"].pop("period"),
     "classes\\[0\\].arrival.period: missing"),
    (lambda d: d["classes"][1].__setitem__("id", 0), "ids must be unique"),
    (lambda d: d.__setitem__("horizon", -5.0), "horizon: must be > 0"),
    (lambda d: d.pop("horizon"), "horizon: missing"),
    (lambda d: d.__setitem__("phase_size", 0), "phase_size: must be >= 1"),
    (lambda d: d.__setitem__("lifetime_dist", "weibull"), "lifetime_dist"),
    # removed knobs fail fast instead of being ignored
    (lambda d: d.__setitem__("topology", {"edc_count": 1, "servers_per_edc": 3,
                                          "uaps_per_edc": 2}),
     "topology.uaps_per_edc: unknown field"),
    (lambda d: d.__setitem__("agent", {"variant": "drl",
                                       "allow_any_node": True}),
     "agent.allow_any_node: unknown field"),
])
def test_parse_errors_name_the_field(mutate, path_fragment):
    doc = scenario_doc()
    mutate(doc)
    with pytest.raises(ScenarioError, match=path_fragment):
        parse_scenario(doc)


def test_amplitude_bound_checked_against_topology():
    # 3 servers x 50 cpu = 150; class 0 uses 20 cpu per request with
    # mean lifetime 10, so amplitudes above 0.75 cannot be stable
    doc = scenario_doc()
    doc["classes"][0]["arrival"]["amplitude"] = 5.0
    with pytest.raises(ScenarioError,
                       match="classes\\[0\\].arrival.amplitude"):
        parse_scenario(doc)


def test_hash_tracks_result_fields_only():
    base = parse_scenario(scenario_doc())

    reseeded_doc = scenario_doc()
    reseeded_doc["seed"] = 4
    assert parse_scenario(reseeded_doc).hash() != base.hash()

    rephased_doc = scenario_doc()
    rephased_doc["phase_size"] = 50
    assert parse_scenario(rephased_doc).hash() != base.hash()

    # the display name does not affect results, so not the hash either
    renamed_doc = scenario_doc()
    renamed_doc["name"] = "renamed"
    assert parse_scenario(renamed_doc).hash() == base.hash()

    assert parse_scenario(scenario_doc()).hash() == base.hash()


def test_class_order_does_not_change_hash():
    doc = scenario_doc()
    swapped = copy.deepcopy(doc)
    swapped["classes"].reverse()
    assert parse_scenario(doc).hash() == parse_scenario(swapped).hash()


def test_run_manifest_write(tmp_path):
    manifest = RunManifest(scenario_hash="abc", tool_version="0.1.0",
                           policy="heuristic", seed=7, arrivals=12,
                           extra={"note": "x"})
    path = tmp_path / "run.manifest.json"
    manifest.write(path)
    doc = json.loads(path.read_text())
    assert doc["scenario_hash"] == "abc"
    assert doc["policy"] == "heuristic"
    assert doc["seed"] == 7
    assert doc["arrivals"] == 12
    assert doc["checkpoint"] is None
    assert doc["note"] == "x"


# -- CLI ----------------------------------------------------------------------

def run_cli(*argv):
    return main(list(argv))


def test_cli_export_events(tmp_path, capsys):
    out = tmp_path / "events.jsonl"
    rv = run_cli("export-events", "--scenario", "tiny", "--horizon", "200",
                 "--out", str(out))
    assert rv == 0
    assert "arrivals" in capsys.readouterr().out
    events = load_events(str(out), load_scenario("tiny").classes)
    assert events
    assert all(e.time < 200.0 or not hasattr(e, "request") for e in events)


def test_cli_simulate_heuristic_outputs(tmp_path):
    rv = run_cli("simulate", "--scenario", "tiny", "--arrivals", "60",
                 "--out-dir", str(tmp_path), "--emit-plot-data")
    assert rv == 0
    base = tmp_path / "tiny-heuristic-seed0"
    csv = base.with_suffix(".csv")
    assert csv.exists()
    rows = csv.read_text().splitlines()
    assert rows[0] == "arrival_index,time,class,accepted,gar_running"
    assert len(rows) == 61
    phases = base.with_suffix(".phases.csv").read_text().splitlines()
    assert phases[0] == "phase,tar,tar_class_0,tar_class_1"
    assert len(phases) == 1 + 60 // 50
    manifest = json.loads(base.with_suffix(".manifest.json").read_text())
    assert manifest["policy"] == "heuristic"
    assert manifest["arrivals"] == 60
    assert manifest["scenario_hash"] == load_scenario("tiny").hash()
    plot = json.loads(base.with_suffix(".plot.json").read_text())
    assert set(plot) == {"gar", "tar", "tar_class_0", "tar_class_1"}


def test_cli_simulate_seed_flag_changes_base_name(tmp_path):
    run_cli("simulate", "--scenario", "tiny", "--arrivals", "5",
            "--seed", "9", "--out-dir", str(tmp_path))
    assert (tmp_path / "tiny-heuristic-seed9.csv").exists()


def test_cli_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        run_cli("simulate", "--scenario", "tiny", "--arrivals", "60",
                "--out-dir", str(d))
    for suffix in (".csv", ".phases.csv", ".manifest.json"):
        name = "tiny-heuristic-seed0" + suffix
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cli_replay_matches_generated_traffic(tmp_path):
    live = tmp_path / "live"
    replay = tmp_path / "replay"
    events = tmp_path / "events.jsonl"
    run_cli("simulate", "--scenario", "tiny", "--arrivals", "60",
            "--out-dir", str(live))
    run_cli("export-events", "--scenario", "tiny", "--out", str(events))
    run_cli("simulate", "--scenario", "tiny", "--arrivals", "60",
            "--events", str(events), "--out-dir", str(replay))
    name = "tiny-heuristic-seed0.csv"
    assert (live / name).read_bytes() == (replay / name).read_bytes()


def test_cli_train_writes_checkpoint_and_manifest(tmp_path):
    rv = run_cli("train", "--scenario", "tiny", "--episodes", "40",
                 "--variant", "drl", "--out-dir", str(tmp_path))
    assert rv == 0
    base = tmp_path / "tiny-drl-seed0"
    assert base.with_suffix(".ckpt").exists()
    assert base.with_suffix(".csv").exists()
    manifest = json.loads(base.with_suffix(".manifest.json").read_text())
    assert manifest["policy"] == "drl"
    assert manifest["variant"] == "drl"
    assert manifest["episodes"] == 40
    assert manifest["checkpoint"].endswith("tiny-drl-seed0.ckpt")


def test_cli_train_multi_seed_fanout(tmp_path):
    rv = run_cli("train", "--scenario", "tiny", "--episodes", "10",
                 "--variant", "drl", "--seeds", "2",
                 "--out-dir", str(tmp_path))
    assert rv == 0
    assert (tmp_path / "tiny-drl-seed0.ckpt").exists()
    assert (tmp_path / "tiny-drl-seed1.ckpt").exists()
    a = (tmp_path / "tiny-drl-seed0.csv").read_bytes()
    b = (tmp_path / "tiny-drl-seed1.csv").read_bytes()
    assert a != b


def test_cli_evaluate_requires_checkpoint(tmp_path):
    with pytest.raises(SystemExit):
        run_cli("evaluate", "--scenario", "tiny", "--out-dir", str(tmp_path))


def test_cli_evaluate_frozen_checkpoint(tmp_path):
    run_cli("train", "--scenario", "tiny", "--episodes", "20",
            "--variant", "drl", "--out-dir", str(tmp_path))
    ckpt = tmp_path / "tiny-drl-seed0.ckpt"
    rv = run_cli("evaluate", "--scenario", "tiny", "--arrivals", "30",
                 "--checkpoint", str(ckpt), "--out-dir", str(tmp_path))
    assert rv == 0
    base = tmp_path / "tiny-drl-frozen-eval-seed0"
    assert base.with_suffix(".csv").exists()
    manifest = json.loads(base.with_suffix(".manifest.json").read_text())
    assert manifest["policy"] == "drl-frozen"
    assert manifest["checkpoint"] == str(ckpt)
    # frozen evaluation must not advance the stored training counter
    first = ckpt.read_bytes()
    rerun = run_cli("evaluate", "--scenario", "tiny", "--arrivals", "30",
                    "--checkpoint", str(ckpt), "--out-dir", str(tmp_path))
    assert rerun == 0
    assert ckpt.read_bytes() == first


def test_cli_export_trace_jsonl(tmp_path):
    trace = tmp_path / "trace.jsonl"
    run_cli("simulate", "--scenario", "tiny", "--arrivals", "10",
            "--out-dir", str(tmp_path), "--export-trace", str(trace))
    lines = trace.read_text().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert "uid" in first


def test_cli_inspect_checkpoint(tmp_path, capsys):
    run_cli("train", "--scenario", "tiny", "--episodes", "10",
            "--variant", "drl", "--out-dir", str(tmp_path))
    capsys.readouterr()
    rv = run_cli("inspect-checkpoint",
                 str(tmp_path / "tiny-drl-seed0.ckpt"))
    assert rv == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "agent"
    assert doc["variant"] == "drl"
    assert doc["episodes_trained"] == 10
    assert doc["total_parameters"] > 0


def test_cli_missing_scenario_exits_2(tmp_path, capsys):
    rv = run_cli("simulate", "--scenario", "no-such",
                 "--out-dir", str(tmp_path))
    assert rv == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_checkpoint_path_exits_2(tmp_path, capsys):
    rv = run_cli("evaluate", "--scenario", "tiny",
                 "--checkpoint", str(tmp_path / "missing.ckpt"),
                 "--out-dir", str(tmp_path))
    assert rv == 2
    assert "error:" in capsys.readouterr().err
