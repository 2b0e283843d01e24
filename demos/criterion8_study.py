"""Rerun acceptance criterion 8's training runs over more seeds.

Runs `slicesim train` on `desk` for ha-drl and drl, runs 0..--seeds - 1,
reads back each run's .phases.csv and records CSV, and counts the
subsets of --subset runs that pass criterion 8's gap and reach rule.

    PYTHONPATH=src python demos/criterion8_study.py --seeds 13
"""

import argparse
import contextlib
import csv
import math
import statistics
import sys
from collections import Counter
from itertools import combinations

from slicesim import load_scenario, phase_reaching
from slicesim.cli import main as cli_main

LEVEL = 0.55


def read_run(prefix):
    """(overall acceptance, per-phase acceptance) of one run's CSVs."""
    with open(prefix + ".csv") as fh, open(prefix + ".phases.csv") as ph:
        *_, last = csv.DictReader(fh)
        return (float(last["gar_running"]),
                [float(row["tar"]) for row in csv.DictReader(ph)])


def within_3(phase):
    return phase is not None and phase <= 3


def medians(runs, seeds):
    phases = zip(*(runs[s][1] for s in seeds))
    return (statistics.median(runs[s][0] for s in seeds),
            [statistics.median(column) for column in phases])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--arrivals", type=int, default=2000)
    parser.add_argument("--subset", type=int, default=3)
    parser.add_argument("--out-dir", default="runs")
    args = parser.parse_args()
    desk = load_scenario("desk")
    if not 1 <= args.subset <= args.seeds:
        parser.error(f"--subset must be between 1 and --seeds ({args.seeds})")
    if args.arrivals < desk.phase_size:
        parser.error(f"--arrivals must cover one phase ({desk.phase_size})")

    runs = {}
    for arm in ("ha-drl", "drl"):
        with contextlib.redirect_stdout(sys.stderr):    # the CLI's progress
            code = cli_main(["train", "--scenario", "desk", "--variant", arm,
                             "--arrivals", str(args.arrivals), "--seeds",
                             str(args.seeds), "--out-dir", args.out_dir])
        if code:
            return code
        runs[arm] = [read_run(f"{args.out_dir}/desk-{arm}-seed{desk.seed + i}")
                     for i in range(args.seeds)]
        for seed, (g, tars) in enumerate(runs[arm]):
            print(f"{arm:8s} seed {seed:3d}  acceptance {g:.3f}  phases "
                  + " ".join(f"{t:.3f}" for t in tars))

    subsets = list(combinations(range(args.seeds), args.subset))
    passed, ha_reach = Counter(), Counter()
    for seeds in subsets:
        (ha_gar, ha), (drl_gar, drl) = (medians(runs[arm], seeds)
                                        for arm in runs)
        ha_phase = phase_reaching(ha, LEVEL)
        drl_phase = phase_reaching(drl, LEVEL)
        passed["gap"] += ha_gar - drl_gar >= 0.10
        passed["reach"] += within_3(ha_phase) and drl_phase is None
        passed["drl"] += within_3(drl_phase)
        ha_reach[ha_phase] += 1
    print(f"{len(subsets)} subsets of {args.subset} seeds: gap >= 0.10 in "
          f"{passed['gap']}, reach rule in {passed['reach']}; drl reaches "
          f"{LEVEL} within 3 phases in {passed['drl']}")
    # None, never reached, is listed last as "never"
    print("ha-drl reaches it in phase " + ", ".join(
        f"{p or 'never'}: {n}" for p, n in
        sorted(ha_reach.items(), key=lambda item: item[0] or math.inf)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
