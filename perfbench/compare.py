"""Compare a parent and a changed source tree on every end-to-end metric.

    python3 perfbench/compare.py --parent ../parent-checkout --change . \
        [--pairs 10] [--save runs.json]

Both trees run this copy of perfbench/run.py (identical benchmark code and
settings: every workload in BENCHMARK.json, each run lasting its
run_seconds), each from its own root so each imports its own ./src.  Pair i
uses seed FIRST_SEED + i on both sides; the side that runs first
alternates.  One row per workload x metric: medians and quartiles of both
sides, the change's win count, and a verdict:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range, in the metric's better direction
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  fewer than 10 pairs, or the parent's own spread is wider than
              the bound and not every change run beats every parent run
  unchanged   otherwise
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
FIRST_SEED = 1000
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree} {workload} seed {seed}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{tree} {workload} seed {seed}: {result['failed']} failed ops")
    return {name: m["value"] for name, m in result["metrics"].items()}


def verdict(parent, change, lower_is_better, bound):
    """Verdict for paired samples parent[i], change[i] of one metric."""
    sign = 1 if lower_is_better else -1
    pairs = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    if pairs < MIN_PAIRS:
        return "unresolved", wins
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gap = sign * (p_med - c_med)  # positive when the change is better
    if wins >= WIN_SHARE * pairs and gap > q3 - q1:
        return "improved", wins
    if lower_is_better:
        every_run_better = max(change) < min(parent)
    else:
        every_run_better = min(change) > max(parent)
    if (q3 - q1) / abs(p_med) > bound and not every_run_better:
        return "unresolved", wins
    if -gap > bound * abs(p_med):
        return "worse", wins
    return "unchanged", wins


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    spec, metrics = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--change", required=True, help="root of the changed checkout")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--save", help="write every run's metrics to this JSON file")
    args = parser.parse_args(argv)

    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        sides = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                tree = getattr(args, side)
                sides[side].append(run_once(tree, workload, FIRST_SEED + i, spec["run_seconds"]))
                print(f"# {workload} pair {i + 1}/{args.pairs} {side} done", file=sys.stderr)
        runs[workload] = sides

    if args.save:
        with open(args.save, "w") as handle:
            json.dump(runs, handle, indent=1)

    print(f"{'workload':9s} {'metric':17s} {'unit':6s} {'parent median [q1, q3]':36s} "
          f"{'change median [q1, q3]':36s} {'wins':>6s}  verdict")
    for workload, sides in runs.items():
        for name, metric in metrics.items():
            parent = [r[name] for r in sides["parent"]]
            change = [r[name] for r in sides["change"]]
            if len(parent) < 2:
                print(f"{workload:9s} {name:17s} {metric['unit']:6s} too few runs")
                continue
            result, wins = verdict(parent, change, metric["better"] == "lower", metric["bound"])
            print(f"{workload:9s} {name:17s} {metric['unit']:6s} {_quartiles(parent):36s} "
                  f"{_quartiles(change):36s} {wins:>3d}/{len(parent):<2d}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
