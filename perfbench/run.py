"""okubo benchmark: time to verified verdicts, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-rank --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``verify-rank``,
``verify-points`` and ``formulas``.  Ops run in this one process through
``okubo.cli.main`` and the public library calls, one at a time (a closed
loop with one caller), with at most ``nproc`` BLAS threads.  Importing the
package costs more than a small ``verify``, so a subprocess per op would
time the interpreter; import plus one warm-up op is reported as
``setup_s`` instead, as the median of this process and three fresh ones.

Times are seconds at the reference machine speed of ``calibrate.py``: a
fixed kernel is timed between ops, and raw seconds are scaled by
``REFERENCE_S / mean kernel time`` of the same pass.  The detail line keeps
the raw seconds and the factors.

``--trace 0`` repeats the op list while a further pass fits in
``--seconds`` (at least once) and reports the end-to-end metrics.
``--trace 1`` runs one untraced and one traced pass over the same list,
requires identical verdicts and residuals from both, reports the per-layer
metrics and the tracing overhead, prints the stage table for the ROADMAP
baseline systems, and writes the spans to ``.perfbench/``.

The last line of stdout is the result object; the line before it holds the
details (inputs, outcome counts, environment).  Exit status 2 means the
benchmark could not run, and then no result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "pass_frac": "ratio",
    "err_digits_p50": "digits",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 3
STAGE_ROWS = (("II", 2), ("I*", 6), ("II", 6), ("III", 6))
STAGE_SEED = 1          # the ROADMAP baseline table's seed


def cap_blas_threads() -> int:
    """At most nproc BLAS threads; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# passes and setup

class Pass:
    """One pass over the op list: per-op results, raw latencies, latencies
    at the reference speed, and the pass's mean speed factor."""

    def __init__(self, ops, tracer=None):
        from calibrate import SpeedProbe
        from workloads import run_op
        probe = SpeedProbe()
        probe.sample()
        self.raw, self.results = [], []
        for i, op in enumerate(ops):
            latency, result = run_op(op, tracer=tracer, op_id=i)
            self.raw.append(latency)
            self.results.append(result)
            probe.tick(latency)
        probe.sample()
        self.factor = probe.factor()
        self.latencies = [t * self.factor for t in self.raw]
        self.wall = sum(self.latencies)


def setup_times(args, own_setup: float):
    """Setup of this process and of fresh interpreters (each importing and
    warming up), and the speed factor sampled around the fresh ones."""
    from calibrate import SpeedProbe
    probe = SpeedProbe()
    out = [own_setup]
    for _ in range(SETUP_PROBES):
        probe.sample()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "1", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    probe.sample()
    return out, probe.factor()


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest value, at nearest-rank percentile 100 (n - 10) / n.
    Returns (percentile, value); with fewer than 20 samples, the median."""
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return 50.0, statistics.median(xs)
    return 100.0 * (n - 10) / n, xs[n - 11]


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# metrics

def outcome_counts(passes) -> dict:
    from workloads import OUTCOMES
    counts = dict.fromkeys(OUTCOMES, 0)
    for p in passes:
        for r in p.results:
            counts[r.outcome] += 1
    return counts


def end_to_end(passes, counts, setup, setup_factor) -> tuple:
    from workloads import margin_digits
    per_op = [statistics.median(ls) for ls in zip(*(p.latencies for p in passes))]
    tail_p, tail_v = tail_percentile(per_op)
    digits = [margin_digits(res, tol)
              for r in passes[0].results for _, res, tol in r.checks]
    metrics = {
        "setup_s": statistics.median(setup) * setup_factor,
        "wall_s": statistics.median(p.wall for p in passes),
        "op_s_p50": statistics.median(per_op),
        "op_s_tail": tail_v,
        "pass_frac": counts["pass"] / sum(counts.values()),
        "err_digits_p50": statistics.median(digits),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "op_s_tail_percentile": tail_p,
        "op_s_samples": len(per_op),
        "fail_frac": 1.0 - metrics["pass_frac"],
        "err_margin_log10_max": -min(digits),
        "err_margin_log10_p50": -metrics["err_digits_p50"],
        "checks": len(digits),
        "raw_setup_s": setup,
        "setup_speed_factor": setup_factor,
        "raw_wall_s": [sum(p.raw) for p in passes],
        "speed_factors": [p.factor for p in passes],
        "op_latency_s": per_op,
    }
    return metrics, extra


def stage_table() -> list:
    """The ROADMAP baseline rows, in raw seconds: closed form,
    recurrence+symmetry, series over all points (from one traced run),
    numeric_monodromy (medians of 3 untraced runs) and |closed - numeric|."""
    import numpy as np
    from okubo.connection import (assemble_monodromy, closed_form_connection,
                                  recurrence_connection)
    from okubo.core import default_config
    from okubo.verify import numeric_monodromy
    from okubo.yokoyama import canonical_system, sample_spec
    from tracing import Tracer

    def timed(fn, reps=3):
        times, value = [], None
        for _ in range(reps):
            t0 = time.perf_counter()
            value = fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times), value

    rows = []
    for kind, n in STAGE_ROWS:
        spec = sample_spec(kind, n, np.random.default_rng(STAGE_SEED))
        cfg = default_config(spec.points)
        sysm = canonical_system(spec)
        t_cf, conn = timed(lambda: closed_form_connection(spec, cfg))
        t_rec = (None if kind == "I*" else
                 timed(lambda: recurrence_connection(spec, cfg))[0])
        t_num, mon = timed(lambda: numeric_monodromy(sysm, cfg))
        tracer = Tracer()
        with tracer:
            tracer.begin_op("stage")
            numeric_monodromy(sysm, cfg)
            tracer.end_op()
        mon_cf = assemble_monodromy(conn, spec)
        err = max(float(np.max(np.abs(a - b)))
                  for a, b in zip(mon_cf.matrices, mon.matrices))
        rows.append({"system": f"{kind} n={n}", "rank": spec.rank,
                     "closed_form_s": t_cf, "recurrence_symmetry_s": t_rec,
                     "series_all_points_s": tracer.metric_s["verify.series_s"],
                     "numeric_monodromy_s": t_num, "abs_err": err})
    return rows


def _ms(x):
    return "n/a" if x is None else f"{1e3 * x:.1f} ms"


def print_stage_table(rows):
    print(f"stage table (seed {STAGE_SEED}, raw seconds)")
    print("| system (rank) | closed form | recurrence+symmetry | series (all pts)"
          " | numeric_monodromy | abs err (closed vs numeric) |")
    print("|---|---|---|---|---|---|")
    for r in rows:
        print(f"| {r['system']} ({r['rank']}) | {_ms(r['closed_form_s'])} | "
              f"{_ms(r['recurrence_symmetry_s'])} | {_ms(r['series_all_points_s'])}"
              f" | {_ms(r['numeric_monodromy_s'])} | {r['abs_err']:.1e} |")


# ---------------------------------------------------------------------------
# the two kinds of run

def traced_run(args, ops, notes):
    """One untraced and one traced pass; returns (passes, metrics, extra)."""
    from tracing import PER_LAYER_UNITS, Tracer
    plain = Pass(ops)
    tracer = Tracer()
    with tracer:
        traced = Pass(ops, tracer=tracer)
    differ = [ops[i].label for i, (a, b) in
              enumerate(zip(plain.results, traced.results)) if a.key() != b.key()]
    if differ:
        notes.append("traced verdicts differ at " + ",".join(differ))
    overhead = traced.wall / plain.wall - 1.0
    layer = tracer.per_layer(
        verify_ops=sum(op.route == "verify" for op in ops),
        report_bytes=sum(r.report_bytes for r in traced.results),
        overhead_frac=overhead)
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        value = layer[name] * traced.factor if unit == "s" else layer[name]
        metrics[name] = {"value": value, "unit": unit}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write_spans(spans_path)
    rows = stage_table()
    print_stage_table(rows)
    extra = {"overhead_frac": overhead,
             "untraced_wall_s": plain.wall, "traced_wall_s": traced.wall,
             "speed_factors": [plain.factor, traced.factor],
             "spans": len(tracer.spans),
             "spans_file": str(spans_path.relative_to(ROOT)),
             "stage_table": rows}
    return [plain, traced], metrics, extra


def timed_run(args, ops, notes, setup, setup_factor):
    """Passes while a further one fits in --seconds; returns
    (passes, metrics, extra)."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(Pass(ops))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    first = [r.key() for r in passes[0].results]
    if any([r.key() for r in p.results] != first for p in passes[1:]):
        notes.append("results differ between passes")
    e2e, extra = end_to_end(passes, outcome_counts(passes), setup, setup_factor)
    metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    for k, m in metrics.items():
        print(f"{k:>20} {m['value']:.6g} {m['unit']}")
    for k, unit in (("fail_frac", "ratio"), ("err_margin_log10_max", "log10"),
                    ("err_margin_log10_p50", "log10")):
        print(f"{k:>20} {extra[k]:.6g} {unit}")
    return passes, metrics, extra


def main(argv=None) -> int:
    t_start = time.perf_counter()
    if not (SRC / "okubo" / "__init__.py").is_file():
        print(f"error: no okubo sources under {SRC}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, build_ops, run_op

    args = parse_args(argv, tuple(WORKLOADS))
    ops = build_ops(args.workload, args.seed)
    run_op(ops[0])                      # warm-up
    own_setup = time.perf_counter() - t_start
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    notes = []
    if args.trace:
        passes, metrics, extra = traced_run(args, ops, notes)
    else:
        setup, setup_factor = setup_times(args, own_setup)
        passes, metrics, extra = timed_run(args, ops, notes, setup, setup_factor)
    counts = outcome_counts(passes)
    attempted = sum(counts.values())
    # an unreadable output, or a result that tracing or a rerun changed
    correct = counts["bench_check_fail"] == 0 and not notes
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes),
        "inputs": [[op.route, op.kind, op.n, op.seed] for op in ops],
        "outcomes": counts,
        "failures": sorted({f"{ops[i].label} {r.outcome} {r.detail}"
                            for i, r in enumerate(passes[0].results)
                            if r.outcome != "pass"}),
        "notes": notes,
        "env": environment(blas_threads),
        **extra,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": attempted - counts["pass"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
