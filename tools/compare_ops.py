"""Per-op comparison of two checkouts on the benchmark workloads.

Run from anywhere:

    python3 tools/compare_ops.py TREE_A TREE_B --workload verify-rank --seeds 1,2,3

Without ``--workload`` it runs every workload, and without ``--seeds`` at
each workload's rule seeds (``RULE_SEEDS``).  For each tree, a fresh
interpreter imports that tree's ``src`` and ``perfbench``, caps BLAS
threads with that tree's ``run.cap_blas_threads``, builds each seed's op
list with ``workloads.build_ops`` and runs every op once with
``workloads.run_op``.  An op's key is its ``Result.key()``: the
outcome, the repr of every residual and tolerance, and the detail.

Prints, per seed and tree, failed/attempted and err_digits_p50 (the median
margin in digits below tolerance over every check, as the benchmark
reports it); then every op whose outcome flips and every op whose detail or
residuals differ, each with the largest |delta log10| of a residual; then
how many flips go to pass and to fail, and for each check the median signed
delta log10 of its residuals (negative: B's residuals are smaller).  Exit
status 0 when every key of every workload is identical, 1 when any differs,
2 when a tree cannot be run.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

# The seeds every change of floating-point order is compared at.
RULE_SEEDS = {"verify-rank": [1, 2, 3, 7, 9], "verify-points": [1, 2, 3],
              "formulas": [1, 2]}

# Runs inside the tree: argv is TREE WORKLOAD SEEDS; the last stdout line is
# {seed: [[label, outcome, [[check, residual, tol], ...], detail], ...]}.
CHILD = r"""
import json, sys
tree, workload, seeds = sys.argv[1:4]
sys.path[:0] = [tree + "/perfbench", tree + "/src"]
import run
run.cap_blas_threads()
from workloads import build_ops, run_op
out = {}
for seed in seeds.split(","):
    rows = out[seed] = []
    for op in build_ops(workload, int(seed)):
        outcome, checks, detail = run_op(op)[1].key()
        rows.append([op.label, outcome, [list(c) for c in checks], detail])
print(json.dumps(out))
"""


def run_tree(tree: Path, workload: str, seeds) -> dict:
    """{seed: [(label, outcome, checks, detail), ...]} from a fresh
    interpreter running the tree's own benchmark code."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tree), workload,
         ",".join(str(s) for s in seeds)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {proc.stderr.strip()}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    return {int(seed): [(label, outcome, [tuple(c) for c in checks], detail)
                        for label, outcome, checks, detail in rows]
            for seed, rows in data.items()}


def key(outcome, checks, detail) -> tuple:
    return (outcome, tuple((name, repr(res), repr(tol))
                           for name, res, tol in checks), detail)


def _log10(x: float) -> float:
    return math.log10(x) if x > 0 and math.isfinite(x) else -math.inf


def margin_digits(residual: float, tol: float) -> float:
    """-log10(residual / tol) clamped to [-16, 16], as
    perfbench/workloads.py's margin_digits."""
    if not math.isfinite(residual):
        return -16.0
    ratio = max(residual, tol * 1e-16) / tol
    return max(-16.0, min(16.0, -math.log10(ratio)))


def err_digits_p50(rows) -> float:
    """Median margin_digits over every check of every op; nan when no op
    has a check."""
    digits = [margin_digits(res, tol) for row in rows for _, res, tol in row[2]]
    return statistics.median(digits) if digits else math.nan


def check_shifts(keys_a: dict, keys_b: dict) -> dict:
    """{check: [signed delta log10 residual, ...]} over the ops and checks
    both sides have, skipping residuals that are zero or not finite."""
    out = {}
    for seed in set(keys_a) & set(keys_b):
        res_a = {(row[0], name): res
                 for row in keys_a[seed] for name, res, _ in row[2]}
        for row in keys_b[seed]:
            for name, res_b, _ in row[2]:
                res = res_a.get((row[0], name))
                if res is None:
                    continue
                la, lb = _log10(res), _log10(res_b)
                if math.isfinite(la) and math.isfinite(lb):
                    out.setdefault(name, []).append(lb - la)
    return out


def largest_shift(checks_a, checks_b):
    """(|delta log10 residual|, check name) of the check whose residual moved
    most, over the checks both sides have; (0.0, None) when none moved."""
    res_a = {name: res for name, res, _ in checks_a}
    best = (0.0, None)
    for name, res_b, _ in checks_b:
        if name not in res_a or repr(res_a[name]) == repr(res_b):
            continue
        la, lb = _log10(res_a[name]), _log10(res_b)
        shift = abs(lb - la) if la != lb else 0.0
        if best[1] is None or shift > best[0]:
            best = (shift, name)
    return best


def compare(keys_a: dict, keys_b: dict):
    """Flips and changes between two {seed: [(label, outcome, checks,
    detail), ...]} maps.  A flip is (seed, label, outcome_a, outcome_b,
    shift, check), with None for an op one side lacks; a change is (seed,
    label, outcome, shift, check, detail_a, detail_b) for an op whose
    outcome agrees but whose residuals or detail do not."""
    flips, changes = [], []
    for seed in sorted(set(keys_a) | set(keys_b)):
        a = {row[0]: row[1:] for row in keys_a.get(seed, [])}
        b = {row[0]: row[1:] for row in keys_b.get(seed, [])}
        for label in list(a) + [lbl for lbl in b if lbl not in a]:
            if label not in a or label not in b:
                flips.append((seed, label, a.get(label, (None,))[0],
                              b.get(label, (None,))[0], 0.0, None))
                continue
            if key(*a[label]) == key(*b[label]):
                continue
            shift, check = largest_shift(a[label][1], b[label][1])
            if a[label][0] != b[label][0]:
                flips.append((seed, label, a[label][0], b[label][0],
                              shift, check))
            else:
                changes.append((seed, label, a[label][0], shift, check,
                                a[label][2], b[label][2]))
    return flips, changes


def failed_attempted(rows) -> str:
    return f"{sum(row[1] != 'pass' for row in rows)}/{len(rows)}"


def report(keys_a: dict, keys_b: dict) -> int:
    for seed in sorted(set(keys_a) | set(keys_b)):
        rows_a, rows_b = keys_a.get(seed, []), keys_b.get(seed, [])
        print(f"seed {seed}: failed/attempted "
              f"A {failed_attempted(rows_a)}, B {failed_attempted(rows_b)}; "
              f"err_digits_p50 A {err_digits_p50(rows_a):.3f}, "
              f"B {err_digits_p50(rows_b):.3f}")
    flips, changes = compare(keys_a, keys_b)
    for seed, label, oa, ob, shift, check in flips:
        print(f"FLIP seed {seed} {label}: {oa} -> {ob}"
              + (f" (|dlog10| {shift:.3g} at {check})" if check else ""))
    for seed, label, outcome, shift, check, da, db in changes:
        print(f"DIFF seed {seed} {label} ({outcome}):"
              + (f" |dlog10| {shift:.3g} at {check}" if check else "")
              + (f" detail {da!r} -> {db!r}" if da != db else ""))
    to_pass = sum(ob == "pass" for _, _, _, ob, _, _ in flips)
    to_fail = sum(oa == "pass" and ob is not None
                  for _, _, oa, ob, _, _ in flips)
    print(f"flips: {to_pass} to pass, {to_fail} to fail, "
          f"{len(flips) - to_pass - to_fail} other")
    for name, shifts in sorted(check_shifts(keys_a, keys_b).items()):
        print(f"CHECK {name}: median signed dlog10 "
              f"{statistics.median(shifts):+.3f} over {len(shifts)} residuals "
              f"({sum(d < 0 for d in shifts)} lower, "
              f"{sum(d > 0 for d in shifts)} higher)")
    total = sum(len(rows) for rows in keys_a.values())
    if flips or changes:
        print(f"{len(flips)} flips, {len(changes)} changed keys of {total} ops")
        return 1
    print(f"all {total} keys identical")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("tree_a", type=Path)
    ap.add_argument("tree_b", type=Path)
    ap.add_argument("--workload", choices=sorted(RULE_SEEDS),
                    help="default: every workload")
    ap.add_argument("--seeds", type=lambda s: [int(x) for x in s.split(",")],
                    help="default: the workload's RULE_SEEDS")
    args = ap.parse_args(argv)
    status = 0
    for workload in [args.workload] if args.workload else list(RULE_SEEDS):
        seeds = args.seeds or RULE_SEEDS[workload]
        print(f"== {workload}, seeds {','.join(map(str, seeds))}")
        try:
            keys_a, keys_b = [run_tree(tree.resolve(), workload, seeds)
                              for tree in (args.tree_a, args.tree_b)]
        except (RuntimeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        status = max(status, report(keys_a, keys_b))
    return status


if __name__ == "__main__":
    sys.exit(main())
