"""Paired benchmark runs of two source trees, and a check of their record.

    python3 scripts/bench_pair.py PARENT CHANGE --k 6 --seeds 11 --pairs 5
    python3 scripts/bench_pair.py --check BENCH_6.json

PARENT and CHANGE are checkouts that each hold ``src/``, ``perfbench/``
and ``BENCHMARK.json``.  For every workload, seed and pair, each tree's
own ``perfbench/run.py --trace 0`` runs once in a fresh process, the two
sides in alternating order (parent first on even pairs, change first on
odd ones), so that a drift of the machine's speed falls on both.  The
record, ``BENCH_<k>.json`` in the current directory, holds every run's
result line, environment block and digests, and per workload and
end-to-end metric the medians, the parent's quartiles and how many pairs
the change won.

``--check`` reads records and exits 1 when, for some workload and seed,
the two sides' canonical digests differ, or when a run of either side
failed an op or exited non-zero.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="*", metavar="TREE",
                        help="the parent tree, then the change tree")
    parser.add_argument("--k", type=int, help="writes BENCH_<k>.json")
    parser.add_argument("--workloads", nargs="+",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11])
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--check", nargs="+", metavar="FILE",
                        help="check records instead of running")
    args = parser.parse_args(argv)
    if args.check is None and (len(args.trees) != 2 or args.k is None):
        parser.error("give PARENT and CHANGE trees and --k, or --check")
    return args


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its exit code, result line,
    environment block and digests, read from its standard output."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, env=env, cwd=tree,
        timeout=600 + 10 * seconds,
    )
    lines = done.stdout.splitlines()
    out = {"exit": done.returncode, "result": None, "environment": None,
           "digests": []}
    for line in lines:
        if line.startswith("environment: "):
            out["environment"] = json.loads(line[len("environment: "):])
        elif line.startswith(f"digest {workload}: "):
            out["digests"].append(line.split(": ", 1)[1])
    if lines and lines[-1].startswith("{"):
        out["result"] = json.loads(lines[-1])
    if done.returncode != 0:
        out["stderr"] = done.stderr[-2000:]
    return out


def metric(run: dict, name: str):
    result = run["result"]
    if result is None or name not in result["metrics"]:
        return None
    return result["metrics"][name]["value"]


def summarize(runs: list, spec: dict) -> dict:
    """Per workload and end-to-end metric: both medians, the parent's
    quartiles, the relative change of the median and the pairs won."""
    summary: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        table = {}
        for entry in spec["end_to_end"]:
            name = entry["name"]
            pairs = [
                (metric(run["parent"], name), metric(run["change"], name))
                for run in mine
            ]
            pairs = [(a, b) for a, b in pairs
                     if a is not None and b is not None]
            if not pairs:
                continue
            parent = [a for a, _ in pairs]
            change = [b for _, b in pairs]
            lower = entry["better"] == "lower"
            quartiles = (
                statistics.quantiles(parent, n=4) if len(parent) > 1
                else [parent[0]] * 3
            )
            mid = statistics.median(parent)
            table[name] = {
                "parent_median": mid,
                "change_median": statistics.median(change),
                "relative": (
                    statistics.median(change) / mid - 1.0 if mid else None
                ),
                "parent_quartiles": [quartiles[0], quartiles[2]],
                "change_better_pairs": sum(
                    (b < a) if lower else (b > a) for a, b in pairs
                ),
                "pairs": len(pairs),
            }
        summary[workload] = table
    return summary


def record(args) -> int:
    trees = [Path(t).resolve() for t in args.trees]
    for tree in trees:
        if not (tree / "perfbench" / "run.py").is_file():
            print(f"error: no perfbench/run.py in {tree}", file=sys.stderr)
            return 2
    spec = json.loads((trees[1] / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    runs = []
    for workload in workloads:
        for seed in args.seeds:
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                run = {"workload": workload, "seed": seed, "pair": pair,
                       "order": list(order)}
                for side in order:
                    tree = trees[SIDES.index(side)]
                    run[side] = run_side(tree, workload, seed, args.seconds)
                runs.append(run)
                print(f"{workload} seed {seed} pair {pair}: " + ", ".join(
                    f"{side} wall_s {metric(run[side], 'wall_s')}"
                    for side in SIDES
                ), flush=True)
    out = {
        "command": {"workloads": workloads, "seeds": args.seeds,
                    "pairs": args.pairs, "seconds": args.seconds,
                    "trace": 0},
        "summary": summarize(runs, spec),
        "runs": runs,
    }
    path = Path(f"BENCH_{args.k}.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    problems = check(out)
    for line in problems:
        print(f"problem: {line}")
    return 1 if problems else 0


def check(data: dict) -> list:
    """Every reason the record does not show two sides that agree."""
    problems = []
    if not data.get("runs"):
        problems.append("no runs")
    digests: dict = {}
    for run in data.get("runs", ()):
        label = f"{run['workload']} seed {run['seed']} pair {run['pair']}"
        for side in SIDES:
            got = run.get(side)
            if got is None:
                problems.append(f"{label}: no {side} run")
                continue
            result = got.get("result")
            if got.get("exit") != 0 or result is None:
                problems.append(f"{label}: {side} exited {got.get('exit')}")
            elif result.get("failed") or not result.get("correct"):
                problems.append(
                    f"{label}: {side} failed {result.get('failed')} of "
                    f"{result.get('attempted')} ops"
                )
            if not got.get("digests"):
                problems.append(f"{label}: {side} has no digest")
            key = (run["workload"], run["seed"])
            digests.setdefault(key, {}).setdefault(side, set()).update(
                got.get("digests", ())
            )
    for (workload, seed), sides in digests.items():
        if sides.get("parent") != sides.get("change"):
            problems.append(
                f"{workload} seed {seed}: digests differ, parent "
                f"{sorted(sides.get('parent', ()))} change "
                f"{sorted(sides.get('change', ()))}"
            )
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.check is None:
        return record(args)
    status = 0
    for name in args.check:
        problems = check(json.loads(Path(name).read_text()))
        for line in problems:
            print(f"{name}: {line}")
        print(f"{name}: {'FAILED' if problems else 'ok'}")
        status |= bool(problems)
    return status


if __name__ == "__main__":
    sys.exit(main())
