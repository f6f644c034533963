"""Workloads of the okubo benchmark: inputs made from the benchmark seed,
the ops run on them, and the checks on every op's output.

Each workload is a fixed list of ops, built once per run from ``--seed``.
Specs come from ``sample_spec(kind, n, default_rng(s))`` with spec seed
``s = seed + 1000 * draw``, so draw 0 of ``--seed 1`` is the spec that
``okubo verify --seed 1`` samples.  The program receives only the sampled
exponents (as ``--alpha/--beta/--rho``); the spec seed still goes to
``verify`` because it also draws the determinant's evaluation points.

Every op ends in exactly one outcome:

- ``pass``: exit 0 and every check holds;
- ``check_fail``: a correctness check failed: ``okubo verify`` exited 1, or
  a formulas residual misses the library's own tolerance;
- ``precondition``: exit 3, or a typed ``OkuboError`` raised by a library
  call (for example ``SingularBlock`` from ``mc_add_monodromy``);
- ``exception``: any other exception;
- ``bench_check_fail``: the output is malformed or contradicts itself (a
  missing check, a ``passed`` flag that disagrees with the exit code).

Only ``pass`` counts as passing; no spec is resampled or dropped.  Every
other outcome goes into the failure count; ``bench_check_fail`` also means
an output could not be trusted, and the run then reports ``correct: false``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

import okubo.cli
import okubo.connection
import okubo.katz
import okubo.verify
import okubo.yokoyama
from okubo.core import OkuboError, default_config, e_of, okubo_from_json

# Each workload lists (type, n, draws): ``draws`` specs of that size go into
# every run, and one pass lasts 20-30 s.  Draw counts are uneven on purpose:
# the median op and the tail op (the eleventh slowest) then sit inside a
# group of similar ops rather than at a gap between sizes, so the latency
# figures move with the program and not with which specs a seed drew.  At
# rank 16-17 one verify takes 1-5 s, or 0.01 s when a chain step raises, so
# verify-rank takes one spec of each there.
WORKLOADS = {
    "verify-rank": {
        "sizes": (("I", 4, 10), ("I", 8, 10), ("I", 12, 6),
                  ("II", 2, 10), ("II", 4, 10), ("II", 6, 6), ("II", 8, 1),
                  ("III", 2, 10), ("III", 4, 10), ("III", 6, 6), ("III", 8, 1)),
        "routes": ("verify",)},
    "verify-points": {
        "sizes": (("I*", 4, 10), ("I*", 6, 12), ("I*", 8, 12), ("I*", 10, 4),
                  ("I*", 12, 6)),
        "routes": ("verify",)},
    "formulas": {
        "sizes": tuple((kind, n, 24) for kind, n in (
            ("I", 4), ("I", 8), ("I", 12), ("II", 2), ("II", 4), ("II", 6),
            ("II", 8), ("III", 2), ("III", 4), ("III", 6), ("III", 8))),
        "routes": ("connection", "generate", "mcchain")},
}

# Tolerances: the CLI's verify default, and the bounds the library's own
# acceptance tests hold these routes to.
VERIFY_TOL = 1e-6
ROUTE_TOL = 1e-10          # recurrence + symmetry vs closed form
CHAIN_TOL = 1e-8           # katz_chain vs canonical_system
INTERTWINER_TOL = 1e-9     # multiplicative chain vs closed-form monodromy

VERIFY_CHECKS = ("chain_equals_canonical", "closed_form_vs_numeric_monodromy",
                 "product_spectrum_e_rho", "okubo_determinant")
OUTCOMES = ("pass", "check_fail", "precondition", "exception",
            "bench_check_fail")


def spec_seed(seed: int, draw: int) -> int:
    return seed + 1000 * draw


def _cx(z: complex) -> str:
    """The CLI's 're+imi' form, exact to the last bit."""
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def _spec_flags(spec) -> list:
    # "--flag=value": a value such as -0.3+0.1i would otherwise read as a flag
    flags = ["--type", spec.kind, "--n", str(spec.n),
             "--alpha=" + ",".join(_cx(a) for a in spec.alpha),
             "--rho=" + ",".join(_cx(r) for r in spec.rho)]
    if spec.beta:
        flags.append("--beta=" + ",".join(_cx(b) for b in spec.beta))
    return flags


@dataclass
class Op:
    route: str
    kind: str
    n: int
    seed: int                      # spec seed
    spec: object
    argv: list | None = None       # CLI routes
    cfg: object = None             # mcchain
    expected: object = None        # generate: canonical A

    @property
    def label(self) -> str:
        return f"{self.route}:{self.kind}:{self.n}:{self.seed}"


@dataclass
class Result:
    outcome: str
    checks: list = field(default_factory=list)   # (name, residual, tol)
    report_bytes: int = 0
    detail: str = ""

    def key(self):
        """What must agree between a traced and an untraced pass."""
        return (self.outcome, tuple(self.checks), self.detail)


def make_op(route: str, spec, seed: int) -> Op:
    op = Op(route, spec.kind, spec.n, seed, spec)
    if route == "verify":
        op.argv = (["verify"] + _spec_flags(spec)
                   + ["--seed", str(seed), "--tol", repr(VERIFY_TOL), "-o", "-"])
    elif route == "connection":
        op.argv = (["connection"] + _spec_flags(spec)
                   + ["--method", "recurrence", "-o", "-"])
    elif route == "generate":
        op.argv = ["generate"] + _spec_flags(spec) + ["--via-chain", "-o", "-"]
        op.expected = okubo.yokoyama.canonical_system(spec).A
    elif route == "mcchain":
        op.cfg = default_config(spec.points)
    else:
        raise ValueError(f"unknown route {route!r}")
    return op


def build_ops(workload: str, seed: int) -> list:
    """The workload's fixed op list for this seed (draw-major order)."""
    w = WORKLOADS[workload]
    ops = []
    for draw in range(max(d for _, _, d in w["sizes"])):
        s = spec_seed(seed, draw)
        for kind, n, draws in w["sizes"]:
            if draw < draws:
                spec = okubo.yokoyama.sample_spec(kind, n, np.random.default_rng(s))
                ops.extend(make_op(route, spec, s) for route in w["routes"])
    return ops


# ---------------------------------------------------------------------------
# running one op

def run_op(op: Op, tracer=None, op_id=None):
    """Run one op; returns (latency in s, Result).  Only the program's work
    is timed (and traced); the checks run afterwards."""
    if tracer is not None:
        tracer.begin_op(op_id)
    try:
        if op.argv is not None:
            latency, rc, out, exc = _run_cli(op.argv)
        else:
            latency, value, exc = _run_mcchain(op)
    finally:
        if tracer is not None:
            tracer.end_op()
    if exc is not None:
        kind = "precondition" if isinstance(exc, OkuboError) else "exception"
        return latency, Result(kind, detail=f"{type(exc).__name__}: {exc}")
    if op.argv is None:
        _, residual = value
        return latency, _graded([("intertwiner_residual", float(residual),
                                  INTERTWINER_TOL)])
    result = _check_cli(op, rc, out)
    result.report_bytes = len(out.encode())
    return latency, result


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    rc = exc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = okubo.cli.main(argv)
    except Exception as e:   # an op's crash is an outcome, not a halt
        exc = e
    return time.perf_counter() - t0, rc, out.getvalue(), exc


def _run_mcchain(op: Op):
    """Carry the rank-2 base's closed-form monodromy along the Katz chain
    with mc_add_monodromy, then intertwine it with the target's closed form."""
    conn, katz, verify = okubo.connection, okubo.katz, okubo.verify
    value = exc = None
    t0 = time.perf_counter()
    try:
        steps = okubo.yokoyama._descend(op.spec)
        base = steps[0]["spec"]
        mon = conn.assemble_monodromy(
            conn.closed_form_connection(base, op.cfg), base)
        for step in steps[1:]:
            mon, _ = katz.mc_add_monodromy(mon, mon.blocks, step["k"],
                                           e_of(step["c"]), e_of(-step["rho"]))
        target = conn.assemble_monodromy(
            conn.closed_form_connection(op.spec, op.cfg), op.spec)
        value = verify.intertwiner(mon, target)
    except Exception as e:   # an op's crash is an outcome, not a halt
        exc = e
    return time.perf_counter() - t0, value, exc


# ---------------------------------------------------------------------------
# checks

def _parse(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def _graded(checks) -> Result:
    bad = [name for name, res, tol in checks if not res <= tol]
    if bad:
        return Result("check_fail", checks, detail="over tol: " + ",".join(bad))
    return Result("pass", checks)


def _check_cli(op: Op, rc, out: str) -> Result:
    payload = _parse(out)
    if rc == 3:
        if isinstance(payload, dict) and "error" in payload:
            return Result("precondition", detail=str(payload["error"]))
        return Result("bench_check_fail", detail="exit 3 without error report")
    if rc not in (0, 1) or not isinstance(payload, dict):
        return Result("bench_check_fail", detail=f"exit {rc}, output unreadable")
    return CHECKERS[op.route](op, rc, payload)


def _check_verify(op: Op, rc, report: dict) -> Result:
    try:
        checks = [(c["name"], float(c["residual"]), float(c["tol"]), c["passed"])
                  for c in report["checks"]]
        passed = report["passed"]
    except (KeyError, TypeError, ValueError):
        return Result("bench_check_fail", detail="report lacks checks")
    want = set(VERIFY_CHECKS) | ({"xieta_closed_form"} if op.kind != "I*" else set())
    names = {c[0] for c in checks}
    graded = [c[:3] for c in checks]
    if names != want:
        return Result("bench_check_fail", graded,
                      detail=f"checks {sorted(names)} != {sorted(want)}")
    if any(bool(res <= tol) != flag for _, res, tol, flag in checks):
        return Result("bench_check_fail", graded, detail="check flag disagrees")
    if passed != all(c[3] for c in checks) or passed != (rc == 0):
        return Result("bench_check_fail", graded,
                      detail=f"passed={passed} disagrees with exit {rc}")
    if rc == 1:
        return Result("check_fail", graded,
                      detail=",".join(c[0] for c in checks if not c[3]))
    return Result("pass", graded)


def _check_connection(op: Op, rc, payload: dict) -> Result:
    residuals = payload.get("residuals") or {}
    want = {"route_cross_check_0_1", "route_cross_check_1_0"}
    if rc != 0 or set(residuals) != want or payload.get("C") is None \
            or payload.get("D") is None:
        return Result("bench_check_fail",
                      detail=f"exit {rc}, residuals {sorted(residuals)}")
    return _graded([(k, float(v), ROUTE_TOL) for k, v in sorted(residuals.items())])


def _check_generate(op: Op, rc, payload: dict) -> Result:
    if rc != 0 or "chain_log" not in payload:
        return Result("bench_check_fail", detail=f"exit {rc}, no chain log")
    try:
        a = okubo_from_json(payload).A
    except (KeyError, TypeError, ValueError, OkuboError) as exc:
        return Result("bench_check_fail", detail=f"system unreadable: {exc}")
    if a.shape != op.expected.shape:
        return Result("bench_check_fail", detail=f"shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(op.expected))))
    err = float(np.max(np.abs(a - op.expected))) / scale
    return _graded([("chain_vs_canonical", err, CHAIN_TOL)])


CHECKERS = {"verify": _check_verify, "connection": _check_connection,
            "generate": _check_generate}


def margin_digits(residual: float, tol: float) -> float:
    """-log10(residual / tol): decimal digits of margin below the
    tolerance (negative when the check fails), clamped to [-16, 16]."""
    if not math.isfinite(residual):
        return -16.0
    ratio = max(residual, tol * 1e-16) / tol
    return max(-16.0, min(16.0, -math.log10(ratio)))
