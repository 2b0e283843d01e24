"""Every script in demos/ runs to completion against the source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STUDY = ROOT / "demos" / "criterion8_study.py"
# a smoke run's arguments, for a demo whose defaults make a long run; the
# study's 500 arrivals make one complete desk phase per run
SMOKE_ARGS = {STUDY.name: ["--seeds", "2", "--subset", "2", "--arrivals",
                           "500", "--out-dir", "study"]}


def run_demo(demo, args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)] + args, cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = run_demo(demo, SMOKE_ARGS.get(demo.name, []), tmp_path)
    assert proc.returncode == 0, proc.stderr
    if demo == STUDY:   # one line per arm and seed, each with a phase value
        runs = re.findall(r"^(\S+) +seed +(\d+) .* phases \d\.\d{3}",
                          proc.stdout, re.M)
        assert sorted(runs) == [("drl", "0"), ("drl", "1"),
                                ("ha-drl", "0"), ("ha-drl", "1")], proc.stdout
        # the one phase's ha-drl median (0.498) is below 0.55: never
        # reached, which neither passes the reach rule nor breaks the sort
        assert "reach rule in 0;" in proc.stdout
        assert proc.stdout.endswith("ha-drl reaches it in phase never: 1\n")


@pytest.mark.parametrize("args", ["--seeds 1 --subset 3",
                                  "--seeds 0 --arrivals 8 --subset 0"])
def test_study_refuses_a_subset_outside_its_seeds(args, tmp_path):
    proc = run_demo(STUDY, args.split(), tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr + proc.stdout
    assert "--subset must be between 1 and --seeds" in proc.stderr
    assert not (tmp_path / "runs").exists()     # refused before training
