"""Scenario parsing, result-field hashing, and the CLI end to end.

CLI commands run in-process through `slicesim.cli.main` with --out-dir
pointed at tmp_path, so these tests exercise the real argument parsing
and file layout without spawning subprocesses.
"""

import copy
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from slicesim import (PROFILES, Agent, AgentConfig, ScenarioError,
                      SliceRequest, load_events, load_scenario)
from slicesim.cli import main
from slicesim.scenario import (YAML_LOADER, RunManifest,
                               bundled_scenario_path, parse_scenario)

SRC = str(Path(__file__).resolve().parents[1] / "src")


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


@pytest.mark.parametrize("name", ["reference", "desk", "tiny"])
def test_both_yaml_loaders_read_the_same_bundled_document(name):
    """The C loader, where PyYAML has it, reads each bundled scenario as
    the pure-Python safe loader does."""
    text = bundled_scenario_path(name).read_text()
    assert yaml.load(text, Loader=YAML_LOADER) == \
        yaml.load(text, Loader=yaml.SafeLoader)


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


# One bad value for each number field of each record: a range rule's
# where it has one, else a value the shared field check refuses.
BAD_FIELDS = [
    (("topology", "edc_count"), 10 ** 6), (("topology", "servers_per_edc"), -1),
    (("topology", "cdc_count"), 0.5), (("topology", "servers_per_cdc"), True),
    (("topology", "ccp_servers"), "x"), (("topology", "server_cpu"), 0),
    (("topology", "server_ram"), float("inf")),
    (("classes", 0, "id"), 2 ** 63), (("classes", 0, "vnf_count"), 0),
    (("classes", 0, "req_cpu"), 0), (("classes", 0, "req_ram"), -1.0),
    (("classes", 0, "req_bw"), "lots"), (("classes", 0, "mean_lifetime"), 0),
    (("classes", 0, "arrival", "amplitude"), 5.0),
    (("classes", 0, "arrival", "period"), 0),
    (("classes", 1, "arrival", "rate"), -0.5),
    (("agent", "actor_lr"), 0), (("agent", "critic_lr"), float("nan")),
    (("agent", "gamma"), 0), (("agent", "xi"), float("inf")),
    (("agent", "eta"), -1), (("agent", "beta"), 0), (("agent", "seed"), 1.5),
    (("horizon",), 0), (("seed",), -1), (("phase_size",), 0),
]


def set_field(keys, value):
    """A mutation of scenario_doc that sets the field at keys, under
    explicit topology counts and an ha-drl agent: section."""
    def mutate(doc):
        doc["topology"] = {"edc_count": 1, "servers_per_edc": 3}
        doc["agent"] = {"variant": "ha-drl"}
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    return mutate


def named_once(keys):
    """A pattern for a message that starts with the field's dotted path
    and a colon, and names the field nowhere after."""
    path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
    return f"^{re.escape(path.lstrip('.'))}: (?!.*\\b{keys[-1]}\\b)"


@pytest.mark.parametrize("mutate,path_fragment", [
    *[(set_field(keys, value), named_once(keys))
      for keys, value in BAD_FIELDS],
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
    # non-finite and non-numeric values fail fast, naming the field
    (lambda d: d["classes"][1]["arrival"].__setitem__("rate", float("nan")),
     "classes\\[1\\].arrival.rate: must be finite"),
    (lambda d: d["classes"][0]["arrival"].__setitem__("amplitude",
                                                      float("nan")),
     "classes\\[0\\].arrival.amplitude: must be finite"),
    (lambda d: d["classes"][0]["arrival"].__setitem__("period", float("inf")),
     "classes\\[0\\].arrival.period: must be finite"),
    (lambda d: d["classes"][0].__setitem__("req_bw", float("-inf")),
     "classes\\[0\\].req_bw: must be finite"),
    (lambda d: d["classes"][1].__setitem__("mean_lifetime", float("inf")),
     "classes\\[1\\].mean_lifetime: must be finite"),
    (lambda d: d["classes"][0].__setitem__("vnf_count", float("inf")),
     "classes\\[0\\].vnf_count:"),
    (lambda d: d["classes"][1].__setitem__("req_ram", "lots"),
     "classes\\[1\\].req_ram:"),
    (lambda d: d.__setitem__("horizon", float("inf")),
     "horizon: must be finite"),
    (lambda d: d.__setitem__("seed", "abc"), "seed:"),
    (lambda d: d.__setitem__("phase_size", "many"), "phase_size:"),
    (lambda d: d.__setitem__("topology", {"edc_count": 1, "servers_per_edc": 3,
                                          "server_cpu": float("nan")}),
     "topology.server_cpu: must be finite"),
    (lambda d: d.__setitem__("topology", {"edc_count": float("inf"),
                                          "servers_per_edc": 3}),
     "topology.edc_count:"),
    (lambda d: d.__setitem__("agent", {"beta": float("nan")}),
     "agent.beta: must be finite"),
    # integer fields refuse a fractional part instead of truncating it
    (lambda d: d.__setitem__("topology", {"edc_count": 1.5,
                                          "servers_per_edc": 3}),
     "topology.edc_count: must be a whole number, got 1.5"),
    (lambda d: d.__setitem__("topology", {"edc_count": 1,
                                          "servers_per_edc": 2.5}),
     "topology.servers_per_edc: must be a whole number"),
    (lambda d: d.__setitem__("topology", {"edc_count": 1, "servers_per_edc": 3,
                                          "cdc_count": 0.5}),
     "topology.cdc_count: must be a whole number"),
    (lambda d: d.__setitem__("topology", {"edc_count": 1, "servers_per_edc": 3,
                                          "cdc_count": 1,
                                          "servers_per_cdc": 3.5}),
     "topology.servers_per_cdc: must be a whole number"),
    (lambda d: d.__setitem__("topology", {"edc_count": 1, "servers_per_edc": 3,
                                          "ccp_servers": 1.2}),
     "topology.ccp_servers: must be a whole number"),
    (lambda d: d["classes"][1].__setitem__("id", 1.5),
     "classes\\[1\\].id: must be a whole number"),
    (lambda d: d["classes"][1].__setitem__("vnf_count", 2.7),
     "classes\\[1\\].vnf_count: must be a whole number, got 2.7"),
    (lambda d: d.__setitem__("seed", 3.9), "seed: must be a whole number"),
    (lambda d: d.__setitem__("phase_size", 12.5),
     "phase_size: must be a whole number"),
    (lambda d: d.__setitem__("agent", {"seed": 0.25}),
     "agent.seed: must be a whole number"),
    # unknown class and arrival keys, also those of the other arrival law
    (lambda d: d["classes"][0].__setitem__("nmae", "volatile"),
     "classes\\[0\\].nmae: unknown field \\(known: arrival, id, "
     "mean_lifetime, name, req_bw, req_cpu, req_ram, vnf_count\\)"),
    (lambda d: d["classes"][0]["arrival"].__setitem__("rate", 9.0),
     "classes\\[0\\].arrival.rate: unknown field \\(known: amplitude, "
     "kind, period\\)"),
    (lambda d: d["classes"][1]["arrival"].__setitem__("period", 96.0),
     "classes\\[1\\].arrival.period: unknown field \\(known: kind, rate\\)"),
    (lambda d: d["classes"][1]["arrival"].__setitem__("amplitude", 1.0),
     "classes\\[1\\].arrival.amplitude: unknown field"),
    # seeds, a profile that is not a name, a number beyond the float
    # range, and an agent: section that AgentConfig refuses
    (lambda d: d.__setitem__("seed", -5),
     "seed: must be a whole number >= 0, got -5"),
    (lambda d: d.__setitem__("agent", {"seed": -1}),
     "agent\\.seed: must be a whole number >= 0, got -1"),
    (lambda d: d.__setitem__("topology", {"profile": []}),
     "topology.profile: unknown profile \\[\\]"),
    # a profile takes no counts beside it
    (lambda d: d.__setitem__("topology", {"profile": "tiny", "edc_count": 5,
                                          "servers_per_edc": 9}),
     "topology.edc_count: a count beside profile"),
    (lambda d: d["classes"][0].__setitem__("id", 10 ** 400),
     "classes\\[0\\].id: int too large"),
    (lambda d: d.__setitem__("agent", {"variant": "zzz"}),
     "agent.variant: must be one of"),
    (lambda d: d.__setitem__("agent", {"gamma": 5}),
     "agent.gamma: must be in"),
    (lambda d: d.__setitem__("agent", {"actor_lr": -1}),
     "agent.actor_lr: must be > 0"),
    (lambda d: d.__setitem__("topology", {"edc_count": 1,
                                          "servers_per_edc": 0}),
     "topology: total capacity of 'cpu' must be > 0"),
    # YAML's booleans are not numbers
    (lambda d: d.__setitem__("topology", {"edc_count": True,
                                          "servers_per_edc": 3}),
     "topology.edc_count: must be a number, got True"),
    (lambda d: d.__setitem__("horizon", True),
     "horizon: must be a number, got True"),
    (lambda d: d["classes"][0].__setitem__("req_cpu", True),
     "classes\\[0\\].req_cpu: must be a number, got True"),
    # a class id keys a random substream, and a negative key has none
    (lambda d: d["classes"][0].__setitem__("id", -1),
     "classes\\[0\\].id: must be a whole number >= 0, got -1"),
    # a negative eta would make the advice's shift a complex number
    (lambda d: d.__setitem__("agent", {"variant": "ha-drl", "eta": -5,
                                       "beta": 0.5}),
     "agent.eta: must be >= 0 for ha variants"),
])
def test_parse_errors_name_the_field(mutate, path_fragment):
    doc = scenario_doc()
    mutate(doc)
    with pytest.raises(ScenarioError, match=path_fragment):
        parse_scenario(doc)


def test_unknown_top_level_key_is_an_error():
    """A misspelt key fails instead of leaving the default in force."""
    doc = scenario_doc()
    doc["phase_sise"] = 3
    with pytest.raises(ScenarioError) as info:
        parse_scenario(doc)
    assert str(info.value) == (
        "phase_sise: unknown field (known: agent, classes, horizon, name, "
        "phase_size, seed, topology)")


def test_whole_floats_are_accepted_as_integers():
    doc = scenario_doc()
    doc["seed"] = 3.0
    doc["classes"][1]["vnf_count"] = 3.0
    scenario = parse_scenario(doc)
    assert scenario.seed == 3 and isinstance(scenario.seed, int)
    assert scenario.classes[1].vnf_count == 3


def test_amplitude_bound_checked_against_topology():
    # 3 servers x 50 cpu = 150; class 0 uses 20 cpu per request with
    # mean lifetime 10, so amplitudes above 0.75 cannot be stable
    doc = scenario_doc()
    doc["classes"][0]["arrival"]["amplitude"] = 5.0
    with pytest.raises(ScenarioError,
                       match="classes\\[0\\].arrival.amplitude"):
        parse_scenario(doc)


def one_vnf_dynamic_doc(amplitude):
    """scenario_doc with a dynamic one-VNF class: it holds no bandwidth.
    The cpu bound is 150 cpu / (10 cpu x lifetime 10) = 1.5."""
    doc = scenario_doc()
    doc["classes"][0]["vnf_count"] = 1
    doc["classes"][0]["arrival"]["amplitude"] = amplitude
    return doc


def test_a_one_vnf_dynamic_class_sets_no_bandwidth_bound(tmp_path):
    """Its bw units are 0, and the bound used to divide by them."""
    path = tmp_path / "one.yaml"
    path.write_text(yaml.safe_dump(one_vnf_dynamic_doc(0.5)))
    assert load_scenario(str(path)).classes[0].vnf_count == 1
    assert run_cli("simulate", "--scenario", str(path),
                   "--out-dir", str(tmp_path)) == 0
    assert (tmp_path / "unit-heuristic-seed3.csv").exists()


def test_cli_refuses_a_stream_past_the_candidate_bound(tmp_path, capsys):
    """rate 1e9 over a horizon of 1e12 parses, then asks the generator
    for about 1e21 candidates."""
    doc = scenario_doc()
    doc["horizon"] = 1e12
    doc["classes"][1]["arrival"]["rate"] = 1e9
    path = tmp_path / "flood.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert run_cli("simulate", "--scenario", str(path),
                   "--out-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: horizon: ") and "1e+21 candidate" in err
    assert err.count("\n") == 1, err


def test_a_one_vnf_dynamic_class_keeps_its_cpu_bound():
    with pytest.raises(ScenarioError, match="classes\\[0\\].arrival.amplitude: "
                       ".*load bound 1.5 for resource 'cpu'"):
        parse_scenario(one_vnf_dynamic_doc(1.6))


# Scenario.hash() of each bundled scenario, pinned: a change to the
# result fields or their canonical form changes every hash.
BUNDLED_HASHES = {
    "reference":
        "6716938b7a53b4e86c91ad6548c03930341ada3f90c89f05cf86bdac529ec9c7",
    "desk": "1ac2c1ed840f6861d55ce301f5d94fecb2fe7d3aafc52f535d33ba1f630d7332",
    "tiny": "049886cbe6e2297bfba3d73eba32946736c452f80e8d685b46f0b67fe383a902",
}


@pytest.mark.parametrize("name", sorted(BUNDLED_HASHES))
def test_bundled_scenario_hashes_are_pinned(name):
    assert load_scenario(name).hash() == BUNDLED_HASHES[name]


def test_exponent_spellings_read_as_the_numbers_they_spell(tmp_path):
    """PyYAML reads 6e4 and 2e-4 (no dot) as strings. The reader types
    them, and the agent: section keeps the typed values, so the file is
    desk in every field and in its hash."""
    text = bundled_scenario_path("desk").read_text()
    for plain, spelt in [("horizon: 60000.0", "horizon: 6e4"),
                         ("rate: 0.00125", "rate: 1.25e-3"),
                         ("actor_lr: 2.0e-4", "actor_lr: 2e-4")]:
        assert text.count(plain) == 1
        text = text.replace(plain, spelt)
    raw = yaml.load(text, Loader=YAML_LOADER)
    assert (raw["horizon"], raw["agent"]["actor_lr"]) == ("6e4", "2e-4")
    path = tmp_path / "desk.scenario"
    path.write_text(text)
    spelt, desk = load_scenario(str(path)), load_scenario("desk")
    assert spelt.classes == desk.classes
    assert spelt.horizon == desk.horizon == 60000.0
    assert spelt.agent_config() == desk.agent_config()
    assert spelt.hash() == desk.hash() == BUNDLED_HASHES["desk"]


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
    assert doc["start_arrival"] == 0
    assert doc["note"] == "x"


# -- CLI ----------------------------------------------------------------------

def run_cli(*argv):
    return main(list(argv))


def test_cli_names_a_yaml_syntax_error(tmp_path):
    """A scenario file with broken YAML fails with a one-line error naming
    the file, line and column, not a parser traceback."""
    text = bundled_scenario_path("tiny").read_text()
    broken = text.replace("arrival: {kind: static, rate: 0.01}",
                          "arrival: {kind: static, rate: 0.01")
    assert broken != text
    path = tmp_path / "broken.scenario"
    path.write_text(broken)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "slicesim.cli", "simulate", "--scenario",
         str(path), "--arrivals", "3", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert f"error: {path}: YAML syntax error at line 26, column 6" \
        in proc.stderr
    assert "while parsing a flow mapping at line 25, column 14" in proc.stderr


def test_cli_names_a_scenario_that_is_not_utf8(tmp_path):
    """A scenario file that is not UTF-8 fails with a one-line error
    naming the file, not a decoding traceback."""
    path = tmp_path / "utf16.scenario"
    path.write_bytes(b"\xff\xfe" + "name: x\n".encode("utf-16-le"))
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "slicesim.cli", "simulate", "--scenario",
         str(path), "--arrivals", "3", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert f"error: {path}: not UTF-8 text" in proc.stderr


def test_a_topology_of_a_billion_data_centres_is_refused_at_once():
    doc = scenario_doc()
    doc["topology"] = {"edc_count": 10 ** 9, "servers_per_edc": 3}
    start = time.perf_counter()
    with pytest.raises(ScenarioError, match="topology.edc_count: the counts "
                                            "make 4000000000 nodes"):
        parse_scenario(doc)
    assert time.perf_counter() - start < 1.0


def test_cli_train_refuses_a_learner_past_the_parameter_bound(tmp_path,
                                                              capsys):
    """A 2,000-node topology parses, but its learner would hold 180M
    parameters: one error line, exit 2, before any traffic is drawn."""
    doc = scenario_doc()
    doc["topology"] = {"edc_count": 500, "servers_per_edc": 3}
    path = tmp_path / "wide.scenario"
    path.write_text(yaml.safe_dump(doc))
    start = time.perf_counter()
    assert run_cli("train", "--scenario", str(path),
                   "--out-dir", str(tmp_path / "out")) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: a learner for 2000 nodes and 1500 "
                          "servers would hold ")
    assert err.count("\n") == 1, err


def test_negative_topology_count_names_the_field():
    doc = scenario_doc()
    doc["topology"] = {"edc_count": 1, "servers_per_edc": -2}
    with pytest.raises(ScenarioError,
                       match="topology.servers_per_edc: "
                             "must be a whole number >= 0"):
        parse_scenario(doc)


def test_cli_export_events(tmp_path, capsys):
    out = tmp_path / "events.jsonl"
    rv = run_cli("export-events", "--scenario", "tiny", "--horizon", "200",
                 "--out", str(out))
    assert rv == 0
    assert "arrivals" in capsys.readouterr().out
    events = load_events(str(out), load_scenario("tiny").classes)
    assert events
    assert all(e.time < 200.0 for e in events if isinstance(e, SliceRequest))


@pytest.mark.parametrize("horizon", ["0", "-5", "inf", "nan"])
def test_cli_rejects_a_horizon_that_is_not_finite_and_positive(tmp_path,
                                                                horizon,
                                                                capsys):
    """0 used to export the full horizon, inf and nan to loop for ever.
    A replay used to skip the check: 0 ran no arrivals, inf and nan all."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = tmp_path / "events.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "slicesim.cli", "export-events", "--scenario",
         "tiny", f"--horizon={horizon}", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "error: horizon must be a finite number > 0\n"
    assert not out.exists()

    events = tmp_path / "tiny.jsonl"
    assert run_cli("export-events", "--scenario", "tiny",
                   "--out", str(events)) == 0
    for command in ("simulate", "train"):
        runs = tmp_path / command
        trace = tmp_path / f"{command}.trace.jsonl"
        capsys.readouterr()
        rv = run_cli(command, "--scenario", "tiny", "--events", str(events),
                     f"--horizon={horizon}", "--out-dir", str(runs),
                     "--export-trace", str(trace))
        assert rv == 2
        assert capsys.readouterr().err == \
            "error: horizon must be a finite number > 0\n"
        assert not trace.exists()
        assert not runs.exists() or not any(runs.iterdir())


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


def test_cli_heuristic_output_bytes_are_pinned(tmp_path):
    """`simulate` on reference, seed 1, 3,000 arrivals writes the same
    CSVs and per-step trace as before; any change to the heuristic, the
    routing or the accounting that moves a result moves these digests."""
    trace = tmp_path / "trace.jsonl"
    assert run_cli("simulate", "--scenario", "reference", "--seed", "1",
                   "--arrivals", "3000", "--out-dir", str(tmp_path),
                   "--export-trace", str(trace)) == 0
    base = tmp_path / "reference-heuristic-seed1"
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (base.with_suffix(".csv"),
                            base.with_suffix(".phases.csv"), trace)}
    assert digests == {
        "reference-heuristic-seed1.csv":
            "49ce73c20199f0d149a7981baa3cdaf81725168c7846695e12ad27974bdeb96d",
        "reference-heuristic-seed1.phases.csv":
            "f1876f4564a07750a80945ca3d75fd5603c4bbbf53082ad78cc404d6357d4811",
        "trace.jsonl":
            "4c4e5ee581d4a89a294206fcce38e87fc4e878954f0809714fb94f912916c3f4",
    }


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


def test_cli_train_stops_after_arrivals(tmp_path):
    rv = run_cli("train", "--scenario", "tiny", "--variant", "drl",
                 "--arrivals", "7", "--out-dir", str(tmp_path))
    assert rv == 0
    base = tmp_path / "tiny-drl-seed0"
    rows = base.with_suffix(".csv").read_text().splitlines()
    assert len(rows) == 1 + 7                      # header + one per arrival
    manifest = json.loads(base.with_suffix(".manifest.json").read_text())
    assert manifest["episodes"] == 7


def test_cli_train_checkpoint_every(tmp_path):
    rv = run_cli("train", "--scenario", "tiny", "--arrivals", "20",
                 "--checkpoint-every", "10", "--out-dir", str(tmp_path))
    assert rv == 0
    scenario = load_scenario("tiny")
    net = scenario.build_network()
    base = tmp_path / "tiny-drl-seed0"
    for n in (10, 20):
        agent = Agent.load(tmp_path / f"tiny-drl-seed0.ep{n}.ckpt", net,
                           scenario.build_load_model(net))
        assert agent.episodes_trained == n
    assert sorted(p.name for p in tmp_path.glob("*.ckpt")) == [
        "tiny-drl-seed0.ckpt", "tiny-drl-seed0.ep10.ckpt",
        "tiny-drl-seed0.ep20.ckpt"]
    assert (tmp_path / "tiny-drl-seed0.ep20.ckpt").read_bytes() == \
        base.with_suffix(".ckpt").read_bytes()


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


@pytest.mark.parametrize("command,flag,value", [
    ("simulate", "--arrivals", "0"), ("simulate", "--arrivals", "-3"),
    ("simulate", "--arrivals", "2.5"), ("train", "--episodes", "0"),
    ("train", "--seeds", "0"), ("train", "--checkpoint-every", "0"),
    ("train", "--checkpoint-every", "-1"),
    # seeds are whole numbers >= 0
    ("simulate", "--seed", "-2"), ("train", "--agent-seed", "-4"),
    ("export-events", "--seed", "-2")])
def test_cli_refuses_a_count_below_one(tmp_path, capsys, command, flag,
                                       value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--scenario", "tiny", flag, value,
                "--out-dir", str(out))
    assert exc.value.code == 2
    assert f"argument {flag}: must be " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["events-is-a-directory",
                                  "out-dir-is-a-file"])
def test_cli_reports_an_os_error_in_one_line(tmp_path, case):
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    where = (["--events", str(tmp_path), "--out-dir", str(tmp_path / "out")]
             if case == "events-is-a-directory" else ["--out-dir", str(a_file)])
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "slicesim.cli", "simulate", "--scenario",
         "tiny", "--arrivals", "3", *where],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


AGENT_FLAGS = {"beta": 1.5, "xi": 0.5, "eta": 0.25, "gamma": 0.9,
               "actor_lr": 1e-3, "critic_lr": 2e-3, "agent_seed": 7}


def test_cli_train_agent_flags_reach_the_manifest(tmp_path):
    flags = [arg for key, value in AGENT_FLAGS.items()
             for arg in ("--" + key.replace("_", "-"), str(value))]
    for name, argv in (("set", flags), ("unset", [])):
        assert run_cli("train", "--scenario", "desk", "--arrivals", "3",
                       "--out-dir", str(tmp_path / name), *argv) == 0
    written = {name: json.loads((tmp_path / name / "desk-ha-drl-seed0"
                                 ".manifest.json").read_text())
               for name in ("set", "unset")}
    assert {key: written["set"][key] for key in AGENT_FLAGS} == AGENT_FLAGS
    assert {key: written["unset"][key] for key in AGENT_FLAGS} == {
        "beta": 2.0, "xi": 1.0, "eta": 0.0, "gamma": 0.99,
        "actor_lr": 2.0e-4, "critic_lr": 5.0e-3, "agent_seed": 0}


# -- the agent config a scenario builds ------------------------------------------

def test_desk_agent_config_is_criterion_8s():
    """Criterion 8's config is desk's agent: section; this is the one
    place of its literals."""
    desk = load_scenario("desk")
    for variant in ("ha-drl", "drl"):
        for seed in (0, 2):
            assert desk.agent_config(variant, seed=seed) == \
                AgentConfig.for_variant(variant, beta=2.0, xi=1.0, eta=0.0,
                                        seed=seed, actor_lr=2e-4,
                                        critic_lr=5e-3)


def test_agent_config_overrides_beat_the_section_beats_the_defaults():
    doc = scenario_doc()
    doc["agent"] = {"variant": "ha-drl", "beta": 1.5, "actor_lr": 1e-3,
                    "seed": 4}
    scenario = parse_scenario(doc)
    config = scenario.agent_config()
    assert (config.variant, config.beta, config.actor_lr, config.seed) == \
        ("ha-drl", 1.5, 1e-3, 4)
    assert config.critic_lr == AgentConfig.for_variant("ha-drl").critic_lr
    assert scenario.agent_config(beta=3.0, seed=0) == replace(
        config, beta=3.0, seed=0)
    edrl = scenario.agent_config("edrl")
    assert (edrl.variant, edrl.beta, edrl.actor_lr) == ("edrl", 1.5, 1e-3)
    assert edrl.critic_lr == AgentConfig.for_variant("edrl").critic_lr


def test_agent_config_reads_a_missing_variant_from_the_section():
    assert load_scenario("desk").agent_config().variant == "ha-drl"
    assert load_scenario("tiny").agent_config().variant == "drl"
    assert parse_scenario(scenario_doc()).agent_config() == \
        AgentConfig.for_variant("drl")


def test_cli_train_manifest_extra_is_pinned(tmp_path):
    """A flag beats the agent: section, the section beats the variant's
    defaults, and --seeds shifts the agent seed."""
    doc = scenario_doc()
    doc["agent"] = {"variant": "ha-drl", "beta": 1.5, "actor_lr": 1e-3,
                    "gamma": 0.5}
    path = tmp_path / "unit.scenario"
    path.write_text(yaml.safe_dump(doc))
    assert run_cli("train", "--scenario", str(path), "--variant", "edrl",
                   "--gamma", "0.9", "--agent-seed", "3", "--seeds", "2",
                   "--arrivals", "3", "--out-dir", str(tmp_path)) == 0
    manifest = json.loads(
        (tmp_path / "unit-edrl-seed4.manifest.json").read_text())
    del manifest["scenario_hash"], manifest["checkpoint"]
    assert manifest == {
        "actor_lr": 1e-3, "agent_seed": 4, "arrivals": 3, "beta": 1.5,
        "critic_lr": 1.4e-3, "episodes": 3, "eta": 0.0, "gamma": 0.9,
        "policy": "edrl", "seed": 4, "start_arrival": 0,
        "tool_version": "0.1.0", "variant": "edrl", "xi": 1.0}


def run_cli_process(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "slicesim.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def assert_one_error_line(proc):
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("command", ["simulate", "train", "export-events"])
def test_cli_refuses_a_negative_class_id(tmp_path, command):
    doc = scenario_doc()
    doc["classes"][0]["id"] = -1
    path = tmp_path / "negative.scenario"
    path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    where = (["--out", str(out / "events.jsonl")]
             if command == "export-events" else ["--out-dir", str(out)])
    proc = run_cli_process(command, "--scenario", str(path), *where)
    assert_one_error_line(proc)
    assert "classes[0].id: must be a whole number >= 0" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv,field", [
    (["--actor-lr", "nan"], "actor_lr"), (["--critic-lr", "inf"], "critic_lr"),
    (["--variant", "ha-drl", "--xi", "nan"], "xi")])
def test_cli_train_refuses_a_non_finite_agent_flag(tmp_path, argv, field):
    """Refused before any training, naming the field: no numpy warning,
    no output file."""
    out = tmp_path / "out"
    proc = run_cli_process("train", "--scenario", "tiny", "--arrivals", "30",
                           "--out-dir", str(out), *argv)
    assert_one_error_line(proc)
    assert f"AgentConfig.{field}: must be finite" in proc.stderr
    assert not any(out.iterdir())


@pytest.mark.parametrize("eta,beta,message", [
    ("-5", "0.5", "eta: must be >= 0 for ha variants"),
    ("1e200", "2", "overflows (xi=1.0, eta=1e+200, beta=2.0)")])
@pytest.mark.parametrize("source", ["flags", "scenario"])
def test_cli_refuses_a_shaping_term_without_a_real_value(tmp_path, eta, beta,
                                                         message, source):
    """A negative base to a fractional power is complex, and a huge one
    overflows: one error line, no output file."""
    if source == "flags":
        scenario = ["tiny", "--eta", eta, "--beta", beta]
    else:
        doc = scenario_doc()
        doc["agent"] = {"eta": float(eta), "beta": float(beta)}
        path = tmp_path / "shaped.scenario"
        path.write_text(yaml.safe_dump(doc))
        scenario = [str(path)]
    out = tmp_path / "out"
    proc = run_cli_process("train", "--variant", "ha-drl", "--arrivals", "5",
                           "--out-dir", str(out), "--scenario", *scenario)
    assert_one_error_line(proc)
    assert message in proc.stderr
    assert not any(out.iterdir())
