"""Rerun acceptance criterion 8's training runs over a list of seeds.

Criterion 8 trains ha-drl and drl on `desk` with its scenario's agent:
section for 2,000 arrivals on seeds 0-2, and judges the median
per-phase acceptance over four phases. This script runs the same config
on every seed given, plus a control arm, ha-drl with xi = 0, whose
advice shifts no score. It prints each run's per-phase acceptance and,
over every subset of --subset seeds, how often criterion 8's rule holds:
ha-drl's median reaches acceptance 0.55 within 3 phases, drl's never
does.

A learner change that moves float bits can be judged by rerunning it:

    PYTHONPATH=src python demos/criterion8_study.py --seeds 0 1 2 3 4 5 6 7 8 9 10 11 12
"""

import argparse
import statistics
from collections import Counter
from itertools import combinations

from slicesim import Agent, AgentPolicy, Simulation, gar, load_scenario, tar

PHASES = 4
LEVEL = 0.55
ARMS = {"ha-drl": ("ha-drl", 1.0), "drl": ("drl", 1.0),
        "control": ("ha-drl", 0.0)}


def reach_phase(tars, level=LEVEL):
    """The first phase whose acceptance reaches level; PHASES + 1 if none."""
    return next((p + 1 for p, t in enumerate(tars) if t >= level),
                PHASES + 1)


def train(arm, seed, arrivals):
    """(overall acceptance, per-phase acceptance) of criterion 8's run."""
    variant, xi = ARMS[arm]
    scenario = load_scenario("desk")
    config = scenario.agent_config(variant, seed=seed, xi=xi)
    net = scenario.build_network()
    events = scenario.generate_events(seed=scenario.seed + seed)
    sim = Simulation(net, events, AgentPolicy(Agent(config, net), train=True))
    records = sim.run(max_arrivals=arrivals)
    return gar(records), [tar(records, p, arrivals // PHASES)
                          for p in range(PHASES)]


def medians(runs, seeds):
    gars = [runs[s][0] for s in seeds]
    return statistics.median(gars), [
        statistics.median(runs[s][1][p] for s in seeds)
        for p in range(PHASES)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--arrivals", type=int, default=2000)
    parser.add_argument("--subset", type=int, default=3)
    args = parser.parse_args()

    runs = {}
    for arm in ARMS:
        runs[arm] = {}
        for seed in args.seeds:
            runs[arm][seed] = train(arm, seed, args.arrivals)
            g, tars = runs[arm][seed]
            print(f"{arm:8s} seed {seed:3d}  acceptance {g:.3f}  phases "
                  + " ".join(f"{t:.3f}" for t in tars))

    subsets = list(combinations(args.seeds, args.subset))
    passed = Counter()
    ha_reach = Counter()
    for seeds in subsets:
        (ha_gar, ha), (drl_gar, drl), (_, ctl) = (
            medians(runs[arm], seeds) for arm in ARMS)
        passed["gap"] += ha_gar - drl_gar >= 0.10
        passed["reach"] += reach_phase(ha) <= 3 and reach_phase(drl) > PHASES
        passed["control reach"] += reach_phase(ctl) <= 3
        ha_reach[reach_phase(ha)] += 1
    n = len(subsets)
    print(f"{n} subsets of {args.subset} seeds: gap >= 0.10 in "
          f"{passed['gap']}, reach rule in {passed['reach']}; the control "
          f"arm reaches {LEVEL} within 3 phases in {passed['control reach']}")
    print("ha-drl reaches it in phase "
          + ", ".join(f"{p}: {ha_reach[p]}" for p in sorted(ha_reach)))


if __name__ == "__main__":
    main()
