"""Alternating pairs of benchmark runs on two checkouts.

Run from anywhere:

    python3 tools/bench_pairs.py PARENT_TREE TREE --workload verify-points \
        --seeds 61,62,63 --pairs 10

Pair i runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in each tree, each in a fresh interpreter with the tree as working
directory, with seed S = seeds[i % len(seeds)].  The parent runs first in
even pairs and second in odd ones, so host drift does not favour one side.

Prints one line per pair, with failed/attempted per pass as well as summed
over passes: ``run.py`` sums its counts over every pass of the fixed op
list, and a faster tree fits more passes, so the summed share weights the
seeds it runs more often.  Then, per end-to-end metric of the parent's
``BENCHMARK.json``, q1, median and q3 on each side, the number of pairs the
change wins, the median gap and the parent's interquartile range.  Exit
status 0, or 2 when a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_run(stdout: str) -> dict:
    """The result of one run.py run: its end-to-end metric values, failed,
    attempted, passes and correct, from the last two lines of stdout."""
    lines = stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "failed": result["failed"], "attempted": result["attempted"],
            "passes": detail["passes"], "correct": result["correct"]}


def run_tree(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {proc.stderr.strip()}")
    return parse_run(proc.stdout)


def per_pass(run: dict) -> str:
    """failed/attempted of one pass of the op list."""
    passes = run["passes"]
    return f"{run['failed'] / passes:g}/{run['attempted'] // passes}"


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def pair_line(i: int, seed: int, parent_first: bool, parent: dict,
              change: dict) -> str:
    def side(run):
        return (f"{per_pass(run)} per pass ({run['passes']} passes, "
                f"{run['failed']}/{run['attempted']} summed"
                + ("" if run["correct"] else ", NOT correct") + ")")
    order = "parent first" if parent_first else "change first"
    return (f"pair {i + 1} seed {seed} ({order}): wall_s "
            f"{parent['metrics']['wall_s']:.4g} -> "
            f"{change['metrics']['wall_s']:.4g}; failed/attempted parent "
            f"{side(parent)}, change {side(change)}")


def summary(pairs, end_to_end) -> list:
    """Lines for [(seed, parent_run, change_run), ...]; ``end_to_end`` is
    BENCHMARK.json's list of {"name", "unit", "better"}."""
    out = []
    for m in end_to_end:
        name, lower = m["name"], m["better"] == "lower"
        a = [run["metrics"][name] for _, run, _ in pairs]
        b = [run["metrics"][name] for _, _, run in pairs]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        out.append(
            f"{name} ({m['unit']}, {m['better']} is better): parent "
            f"{qa[0]:.4g}/{qa[1]:.4g}/{qa[2]:.4g}, change "
            f"{qb[0]:.4g}/{qb[1]:.4g}/{qb[2]:.4g} (q1/median/q3); change wins "
            f"{wins}/{len(pairs)}, ties {ties}; median gap "
            f"{qb[1] - qa[1]:+.4g}, parent IQR {qa[2] - qa[0]:.4g}")
    for label, k in (("parent", 1), ("change", 2)):
        runs = [p[k] for p in pairs]
        failed = sum(r["failed"] / r["passes"] for r in runs)
        attempted = sum(r["attempted"] // r["passes"] for r in runs)
        pooled_f = sum(r["failed"] for r in runs)
        pooled_a = sum(r["attempted"] for r in runs)
        out.append(f"{label}: failed/attempted per pass, summed over pairs "
                   f"{failed:g}/{attempted}; pooled over every pass "
                   f"{pooled_f}/{pooled_a}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("tree", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True,
                    type=lambda s: [int(x) for x in s.split(",")])
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    parent, tree = args.parent.resolve(), args.tree.resolve()
    bench = json.loads((parent / "BENCHMARK.json").read_text())
    pairs = []
    try:
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            parent_first = i % 2 == 0
            order = (parent, tree) if parent_first else (tree, parent)
            first, second = [run_tree(t, args.workload, seed, args.seconds)
                             for t in order]
            runs = (first, second) if parent_first else (second, first)
            pairs.append((seed, *runs))
            print(pair_line(i, seed, parent_first, *runs), flush=True)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in summary(pairs, bench["end_to_end"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
