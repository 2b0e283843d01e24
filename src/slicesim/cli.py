"""Command-line entry points.

Subcommands:

    simulate            heuristic placement
    train               agent training, optionally fanned over seeds
    evaluate            frozen checkpoint against fresh or replayed traffic
    export-events       write an arrival/departure stream to a file
    inspect-checkpoint  print a checkpoint's manifest

Results land under --out-dir (default: $SLICESIM_OUTPUT_ROOT or ./runs):
a per-arrival CSV, a per-phase CSV, a JSON run manifest, optionally
plot-ready JSON, and checkpoints for training runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .agent import VARIANTS, Agent, AgentConfig
from .errors import SliceSimError
from .metrics import write_phase_csv, write_plot_json, write_records_csv
from .networks import load_checkpoint
from .scenario import RunManifest, Scenario, TOOL_VERSION, load_scenario
from .simulation import (AgentPolicy, HeuristicPolicy, Simulation,
                         snapshot_manifest)
from .traffic import SliceRequest, check_horizon, export_events, load_events


# the AgentConfig floats a scenario's agent: section or a train flag sets
_AGENT_FLOATS = ("beta", "xi", "eta", "gamma", "actor_lr", "critic_lr")


def _count(text: str, minimum: int = 1) -> int:
    """argparse type of a count: a whole number >= minimum."""
    if not text.isdecimal() or int(text) < minimum:
        raise argparse.ArgumentTypeError(
            f"must be a whole number >= {minimum}, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    """argparse type of a seed: a whole number >= 0."""
    return _count(text, minimum=0)


def _out_dir(args) -> str:
    root = args.out_dir or os.environ.get("SLICESIM_OUTPUT_ROOT", "runs")
    os.makedirs(root, exist_ok=True)
    return root


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True,
                   help="scenario file path or bundled name "
                        "(reference, desk, tiny)")
    p.add_argument("--seed", type=_seed, default=None,
                   help="traffic seed (default: the scenario's)")
    p.add_argument("--horizon", type=float, default=None,
                   help="traffic horizon override, time units")
    p.add_argument("--arrivals", type=_count, default=None,
                   help="stop after this many arrivals")
    p.add_argument("--out-dir", default=None,
                   help="output root (default: $SLICESIM_OUTPUT_ROOT or ./runs)")
    p.add_argument("--emit-plot-data", action="store_true",
                   help="also write plot-ready JSON series")
    p.add_argument("--export-trace", default=None, metavar="FILE",
                   help="write per-step placement records as JSON lines")
    p.add_argument("--events", default=None, metavar="FILE",
                   help="replay this exported event stream instead of "
                        "generating traffic")


def _events_for(scenario: Scenario, args, seed_shift: int = 0):
    seed = (scenario.seed if args.seed is None else args.seed) + seed_shift
    if args.horizon is not None:    # also cuts a replay short
        check_horizon(args.horizon)
    if args.events:
        return load_events(args.events, scenario.classes), seed
    return scenario.generate_events(seed=seed, horizon=args.horizon), seed


def _agent_config(scenario: Scenario, args, seed_shift: int = 0) -> AgentConfig:
    defaults = dict(scenario.agent_defaults)
    variant = getattr(args, "variant", None) or defaults.pop("variant", "drl")
    overrides = {}
    for key in _AGENT_FLOATS:
        flag = getattr(args, key, None)
        if flag is not None:
            overrides[key] = flag
        elif key in defaults:
            overrides[key] = float(defaults[key])
    base_seed = getattr(args, "agent_seed", None)
    if base_seed is None:
        base_seed = int(defaults.get("seed", 0))
    overrides["seed"] = base_seed + seed_shift
    return AgentConfig.for_variant(variant, **overrides)


def _write_outputs(scenario: Scenario, args, records, base: str,
                   policy_name: str, seed: int, checkpoint=None,
                   extra: dict | None = None) -> None:
    out = _out_dir(args)
    class_ids = [c.id for c in scenario.classes]
    prefix = os.path.join(out, base)
    write_records_csv(records, prefix + ".csv")
    write_phase_csv(records, prefix + ".phases.csv", scenario.phase_size,
                    class_ids)
    if args.emit_plot_data:
        write_plot_json(records, prefix + ".plot.json", scenario.phase_size,
                        class_ids)
    manifest = RunManifest(
        scenario_hash=scenario.hash(), tool_version=TOOL_VERSION,
        policy=policy_name, seed=seed, arrivals=len(records),
        checkpoint=checkpoint, extra=extra or {})
    manifest.write(prefix + ".manifest.json")
    print(f"{base}: {len(records)} arrivals, "
          f"gar={sum(r.accepted for r in records) / max(len(records), 1):.4f}")


def _run(args, net, events, policy, on_arrival=None, trace=True):
    """Run policy over events within --arrivals and --horizon; with
    trace and --export-trace, its per-step records go to that file."""
    fh = open(args.export_trace, "w") if trace and args.export_trace else None
    if fh is not None:
        policy.trace_sink = lambda rec: fh.write(json.dumps(rec) + "\n")
    try:
        return Simulation(net, events, policy).run(
            max_arrivals=args.arrivals, horizon=args.horizon,
            on_arrival=on_arrival)
    finally:
        if fh is not None:
            fh.close()


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    events, seed = _events_for(scenario, args)
    policy = HeuristicPolicy()
    records = _run(args, scenario.build_network(), events, policy)
    base = f"{scenario.name}-{policy.name}-seed{seed}"
    _write_outputs(scenario, args, records, base, policy.name, seed)
    return 0


def cmd_train(args) -> int:
    scenario = load_scenario(args.scenario)
    out = _out_dir(args)
    for i in range(args.seeds):
        config = _agent_config(scenario, args, seed_shift=i)
        events, seed = _events_for(scenario, args, seed_shift=i)
        net = scenario.build_network()
        # an agent of a variant without the load branch drops the model
        agent = Agent(config, net, scenario.build_load_model(net))
        base = f"{scenario.name}-{config.variant}-seed{seed}"
        ckpt_path = os.path.join(out, base + ".ckpt")

        hooks = None
        if args.checkpoint_every is not None:
            def hooks(n, sim, _agent=agent, _base=base):
                if n % args.checkpoint_every == 0:
                    _agent.save(os.path.join(out, f"{_base}.ep{n}.ckpt"))
        records = _run(args, net, events, AgentPolicy(agent, train=True),
                       on_arrival=hooks, trace=i == 0)
        agent.save(ckpt_path)
        extra = asdict(config)
        extra["agent_seed"] = extra.pop("seed")
        extra["episodes"] = agent.episodes_trained
        _write_outputs(scenario, args, records, base, config.variant, seed,
                       checkpoint=ckpt_path, extra=extra)
    return 0


def cmd_evaluate(args) -> int:
    scenario = load_scenario(args.scenario)
    events, seed = _events_for(scenario, args)
    net = scenario.build_network()
    load_model = scenario.build_load_model(net)
    agent = Agent.load(args.checkpoint, net, load_model)
    policy = AgentPolicy(agent, train=False)
    records = _run(args, net, events, policy)
    base = f"{scenario.name}-{policy.name}-eval-seed{seed}"
    _write_outputs(scenario, args, records, base, policy.name, seed,
                   checkpoint=args.checkpoint,
                   extra={"events_file": args.events})
    return 0


def cmd_export_events(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = scenario.seed if args.seed is None else args.seed
    events = scenario.generate_events(seed=seed, horizon=args.horizon)
    export_events(events, args.out)
    arrivals = sum(1 for e in events if isinstance(e, SliceRequest))
    print(f"{args.out}: {len(events)} events ({arrivals} arrivals), "
          f"seed {seed}")
    return 0


def cmd_inspect_checkpoint(args) -> int:
    manifest, arrays = load_checkpoint(args.path)
    if "manifest_json" in manifest:
        inner = snapshot_manifest(manifest)
        inner["tensors"] = manifest.get("tensors", [])
        manifest = inner
    manifest["total_parameters"] = int(sum(
        int(v.size) for v in arrays.values()))
    print(json.dumps(manifest, indent=2, sort_keys=True, default=str))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicesim",
        description="Network-slice placement simulator and trainer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the greedy heuristic")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train an agent")
    _add_common(p)
    p.add_argument("--variant", choices=VARIANTS, default=None,
                   help="agent variant (default: scenario)")
    for key in _AGENT_FLOATS:
        p.add_argument("--" + key.replace("_", "-"), type=float,
                       default=None, dest=key,
                       help=f"agent {key} (default: scenario)")
    p.add_argument("--agent-seed", type=_seed, default=None, dest="agent_seed")
    p.add_argument("--seeds", type=_count, default=1,
                   help="number of independent runs (seed, seed+1, ...)")
    p.add_argument("--episodes", type=_count, default=None, dest="arrivals",
                   help="same as --arrivals: stop each run after this "
                        "many arrivals")
    p.add_argument("--checkpoint-every", type=_count, default=None,
                   help="also checkpoint every N arrivals")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate",
                       help="run a frozen checkpoint on fresh or replayed "
                            "traffic")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export-events", help="write a traffic file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_events)

    p = sub.add_parser("inspect-checkpoint", help="print checkpoint manifest")
    p.add_argument("path")
    p.set_defaults(func=cmd_inspect_checkpoint)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SliceSimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
