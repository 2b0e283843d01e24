"""Run one slicesim benchmark workload and print its metrics.

    python3 bench/run.py --workload heuristic-reference --seed 1 \\
        --seconds 40 --trace 0

Run it from anywhere; it imports slicesim from ``src/`` next to this
directory. Lines before the last list every metric with its unit and the
run's context (versions, BLAS threads, seeds, arrivals per pass). The last
line is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
a traced pass with --trace 1. The full result, the per-pass output CSVs
and the spans of a traced pass are written under --out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "golden_heuristic.json"
# One BLAS thread: the learner's matrices are small enough that a second
# thread adds more noise than speed, and it never exceeds nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(root: Path) -> str | None:
    """HEAD's commit, read from the files under .git (no git process)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(package: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(package.rglob("*")):
        if path.suffix in (".py", ".scenario"):
            h.update(str(path.relative_to(package)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def blas_version(np) -> str | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return None


def main(argv=None) -> int:
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in BLAS_ENV:     # before numpy loads
        os.environ[var] = str(threads)
    if not (SRC / "slicesim" / "__init__.py").is_file():
        print(f"error: slicesim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="the run's traffic seed (default: the "
                             "scenario's); its passes cycle through it and "
                             "seeds 1000, 2000, ... above it")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long the run keeps starting passes; the "
                             "first pass of every seed always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add traced passes, print per-layer metrics")
    parser.add_argument("--out", default=str(ROOT / ".bench_out"),
                        help="directory for result files and spans")
    args = parser.parse_args(argv)

    w = harness.WORKLOADS[args.workload]
    seed = harness.default_seed(w) if args.seed is None else args.seed
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else None
    result = harness.run_workload(w, seed, args.seconds, bool(args.trace),
                                  args.out, golden)
    if w.variant is None and golden is None:
        result.problems.append(f"golden trajectory missing: {GOLDEN}")

    context = {
        "workload": w.name, "seed": seed, "trace": args.trace,
        "seconds": args.seconds, "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(SRC / "slicesim"),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_version(np), "blas_threads": threads, "nproc": nproc,
        "golden_checked": any(harness.golden_applies(w, s, golden)
                              for s in harness.pass_seeds(w, seed)),
        **result.details,
    }
    chosen = (harness.LAYER_UNITS if args.trace else harness.E2E_UNITS)
    values = result.layers if args.trace else result.e2e
    shown = {name: {"value": values[name], "unit": unit}
             for name, unit in chosen.items() if name in values}
    report = {"correct": result.correct, "attempted": result.attempted,
              "failed": result.failed, "metrics": shown}

    with open(os.path.join(args.out, f"{w.name}-seed{seed}-trace{args.trace}"
                                     ".json"), "w") as fh:
        json.dump({**report, "context": context, "problems": result.problems,
                   "end_to_end": result.e2e, "per_layer": result.layers},
                  fh, indent=2)
        fh.write("\n")
    measured = {**result.e2e, **result.layers}
    for name, unit in {**harness.E2E_UNITS, **harness.LAYER_UNITS}.items():
        if name in measured:
            print(f"{name:32s} {measured[name]!r} {unit}")
    for problem in result.problems:
        print(f"FAILED CHECK: {problem}")
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps(report))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
