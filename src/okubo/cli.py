"""Command-line interface: generate canonical systems, apply Katz
operations, evaluate closed-form connection/monodromy data, and run the
verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
precondition failure.  Reports are written even when a check fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import core
from .core import (
    OkuboError,
    ShapeError,
    default_config,
    e_of,
    matrix_to_json,
    okubo_from_json,
    okubo_to_json,
)
from .katz import mc_add_system, middle_convolution_system
from .connection import (
    assemble_monodromy,
    closed_form_connection,
    okubo_determinant,
    recurrence_connection,
)
from .verify import (
    Check,
    local_series,
    numeric_canonical_solution,
    numeric_determinant,
    numeric_monodromy,
    report_json,
    spectrum_matches,
)
from .yokoyama import (
    KINDS,
    YokoyamaSpec,
    canonical_system,
    katz_chain,
    sample_spec,
    xieta_closed_form,
    xieta_matrix_expression,
)

USAGE_ERROR, VERIFY_ERROR, PRECOND_ERROR = 2, 1, 3


def parse_complex(text: str) -> complex:
    """Accept 're+imi' strings, e.g. '0.3+0.45i', '-1.2i', '0.7'."""
    try:
        return complex(text.strip().replace("i", "j").replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex literal {text!r}") from exc


def parse_complex_list(text: str):
    return tuple(parse_complex(p) for p in text.split(",") if p.strip())


def parse_tol(text: str) -> float:
    """A tolerance: a positive finite float."""
    try:
        tol = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tolerance {text!r}") from exc
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be positive and finite, got {text!r}")
    return tol


def _spec_from_args(args) -> YokoyamaSpec:
    if args.alpha is not None:
        return YokoyamaSpec(
            kind=args.type, n=args.n,
            alpha=args.alpha, beta=args.beta or (),
            rho=args.rho or (), points=args.points or (),
        )
    rng = np.random.default_rng(args.seed)
    return sample_spec(args.type, args.n, rng, points=args.points)


def _add_spec_flags(p):
    p.add_argument("--type", required=True, help="one of I, I*, II, III")
    p.add_argument("--n", type=int, required=True,
                   help="size parameter (rank n, n, 2n, 2n+1 per type)")
    p.add_argument("--alpha", type=parse_complex_list,
                   help="comma-separated 're+imi' exponents at t_1 (and t_2 for I)")
    p.add_argument("--beta", type=parse_complex_list,
                   help="exponents at t_2 (types II, III)")
    p.add_argument("--rho", type=parse_complex_list,
                   help="exponents at infinity")
    p.add_argument("--points", type=parse_complex_list,
                   help="singular points (default 0,1,... per type)")
    p.add_argument("--seed", type=int, default=0,
                   help="rng seed when exponents are omitted")


def _read_input(path, parse):
    """parse(JSON of ``path``); an unreadable file or a missing or ill-typed
    schema key is a usage error, while an OkuboError raised by system
    validation passes through (exit 3)."""
    try:
        return parse(core.load_json(path))
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except KeyError as exc:
        reason = f"missing key {exc}"
    except (ValueError, TypeError, IndexError) as exc:
        reason = str(exc)
    raise argparse.ArgumentTypeError(f"cannot read {path}: {reason}")


def _input_system(path, spec):
    """The Okubo system read from ``path``; with a spec, its block sizes
    must be the spec's (a mismatch is a precondition error, exit 3)."""
    sysm = _read_input(path, okubo_from_json)
    if spec is not None and sysm.blocks.sizes != spec.blocks.sizes:
        raise ShapeError(f"input system has blocks {sysm.blocks.sizes}, but "
                         f"type {spec.kind} n={spec.n} has blocks "
                         f"{spec.blocks.sizes}")
    return sysm


def _okubo_or_schlesinger(data):
    # the Okubo schema has "A", the Schlesinger one "residues"
    if "A" in data:
        return okubo_from_json(data)
    return core.schlesinger_from_json(data)


def _write(path, payload):
    if path in (None, "-"):
        sys.stdout.write(json.dumps(payload, indent=1) + "\n")
    else:
        core.dump_json(payload, path)


def cmd_generate(args) -> int:
    spec = _spec_from_args(args)
    if args.via_chain:
        sysm, log = katz_chain(spec)
        chain_log = []
        for entry in log:
            rec = {"step": entry["step"]}
            for key in ("mu", "k", "c", "rho"):
                if key in entry:
                    v = entry[key]
                    rec[key] = [complex(v).real, complex(v).imag] \
                        if key != "k" else v
            if "system" in entry:
                rec["system"] = okubo_to_json(entry["system"])
            if "witness" in entry:
                rec["witness"] = entry["witness"].to_json()
            chain_log.append(rec)
    else:
        sysm = canonical_system(spec)
        chain_log = None
    payload = okubo_to_json(sysm)
    payload["spec"] = spec.to_json()
    if chain_log is not None:
        payload["chain_log"] = chain_log
    _write(args.output, payload)
    return 0


def cmd_mc(args) -> int:
    data = _read_input(args.input, _okubo_or_schlesinger)
    if isinstance(data, core.OkuboSystem):
        sysm = data
        sch = core.okubo_to_schlesinger(sysm)
    else:
        sysm = None
        sch = data
    if args.mu is not None:
        out, witness = middle_convolution_system(sch, args.mu)
        payload = core.schlesinger_to_json(out)
        payload["witness"] = witness.to_json()
    else:
        if args.c is None or args.rho is None or args.k is None:
            raise argparse.ArgumentTypeError("mc needs --mu or --k/--c/--rho")
        if sysm is None:
            raise argparse.ArgumentTypeError(
                "mc with additions needs an Okubo-schema input")
        out, witness = mc_add_system(sysm, args.k, args.c, args.rho)
        payload = okubo_to_json(out)
        payload["witness"] = witness.to_json()
    _write(args.output, payload)
    return 0


def _entrywise_errors(mon_a, mon_b) -> list:
    """max |M_k - M'_k| for each pair of matrices of two tuples."""
    return [float(np.max(np.abs(a - b)))
            for a, b in zip(mon_a.matrices, mon_b.matrices)]


def _det_residuals(spec, sysm, cfg, rng, xs, series) -> list:
    """(x, |det_numeric - det_closed| / |det_closed|) at each x of ``xs``,
    padded to three points drawn from ``rng`` around the base point, with
    Psi0 built from ``series`` (one per t_k, as from local_series)."""
    psi0 = numeric_canonical_solution(sysm, cfg, series=series)
    xs = list(xs)
    while len(xs) < 3:
        xs.append(cfg.base_point
                  + complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.1)))
    out = []
    for x in xs:
        dn = numeric_determinant(sysm, cfg, x, psi0=psi0)
        dc = okubo_determinant(spec, x, cfg)
        out.append((x, abs(dn - dc) / max(abs(dc), 1e-300)))
    return out


def _conn_payload(spec, conn, mon):
    return {
        "type": spec.kind,
        "n": spec.n,
        "C": matrix_to_json(conn[(0, 1)]) if (0, 1) in conn else None,
        "D": matrix_to_json(conn[(1, 0)]) if (1, 0) in conn else None,
        "blocks": list(spec.blocks.sizes),
        "all": {f"{k}->{j}": matrix_to_json(m)
                for (k, j), m in sorted(conn.items())},
        "monodromy": [matrix_to_json(m) for m in mon.matrices],
    }


def cmd_connection(args) -> int:
    spec = _spec_from_args(args)
    cfg = default_config(spec.points)
    if args.method == "recurrence":
        conn = recurrence_connection(spec, cfg)
    else:
        conn = closed_form_connection(spec, cfg)
    mon = assemble_monodromy(conn, spec)
    payload = _conn_payload(spec, conn, mon)
    residuals = {}
    if spec.kind != "I*":
        # cross-residual between the two evaluation routes
        other = (closed_form_connection(spec, cfg)
                 if args.method == "recurrence"
                 else recurrence_connection(spec, cfg))
        for key in conn:
            rel = np.max(np.abs(conn[key] - other[key])
                         / np.maximum(np.abs(conn[key]), 1e-300))
            residuals[f"route_cross_check_{key[0]}_{key[1]}"] = float(rel)
    payload["residuals"] = residuals
    _write(args.output, payload)
    return 0


def cmd_monodromy(args) -> int:
    residuals = {}
    payload = {}
    tol = args.tol
    if args.input:
        spec = _spec_from_args(args) if args.type else None
        if spec is None and args.closed_form:
            raise argparse.ArgumentTypeError(
                "--closed-form needs spec flags, not a file")
        sysm = _input_system(args.input, spec)
    elif args.type:
        spec = _spec_from_args(args)
        sysm = canonical_system(spec)
    else:
        raise argparse.ArgumentTypeError("monodromy needs --input or --type")
    cfg = default_config(sysm.points)
    mon_num = mon_cf = None
    if args.numeric or not args.closed_form:
        mon_num = numeric_monodromy(sysm, cfg)
        payload["numeric"] = [matrix_to_json(m) for m in mon_num.matrices]
    if args.closed_form:
        conn = closed_form_connection(spec, cfg)
        mon_cf = assemble_monodromy(conn, spec)
        payload["closed_form"] = [matrix_to_json(m) for m in mon_cf.matrices]
    if mon_num is not None and mon_cf is not None:
        errs = _entrywise_errors(mon_cf, mon_num)
        residuals["entrywise"] = errs
        payload["residuals"] = residuals
        _write(args.output, payload)
        return 0 if max(errs) <= tol else VERIFY_ERROR
    payload["residuals"] = residuals
    _write(args.output, payload)
    return 0


def cmd_det_check(args) -> int:
    spec = _spec_from_args(args)
    sysm = canonical_system(spec)
    cfg = default_config(spec.points)
    rng = np.random.default_rng(args.seed)
    checks = [Check(f"det at x={x}", rel, args.tol)
              for x, rel in _det_residuals(spec, sysm, cfg, rng, args.x or (),
                                           local_series(sysm, cfg))]
    payload = report_json(checks)
    _write(args.output, payload)
    return 0 if payload["passed"] else VERIFY_ERROR


def cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    cfg = default_config(spec.points)
    tol = args.tol
    checks = []
    canon = canonical_system(spec)
    sysm = _input_system(args.input, spec) if args.input else canon

    chain_sys, _ = katz_chain(spec)
    scale = max(1.0, float(np.max(np.abs(canon.A))))
    checks.append(Check("chain_equals_canonical",
                        float(np.max(np.abs(chain_sys.A - canon.A))) / scale,
                        max(tol, 1e-8)))
    conn = closed_form_connection(spec, cfg)
    mon_cf = assemble_monodromy(conn, spec)
    # one series per t_k serves the monodromy and the determinant's Psi0
    series = local_series(sysm, cfg)
    mon_num = numeric_monodromy(sysm, cfg, series=series)
    checks.append(Check("closed_form_vs_numeric_monodromy",
                        max(_entrywise_errors(mon_cf, mon_num)), tol))
    want = [e_of(r) for r in spec.rho_list()]
    checks.append(Check("product_spectrum_e_rho",
                        spectrum_matches(mon_num.product(), want),
                        max(tol, 1e-7)))
    rng = np.random.default_rng(args.seed)
    # np.max, unlike max(), carries a NaN residual through to a failed check
    worst = float(np.max([rel for _, rel in
                          _det_residuals(spec, sysm, cfg, rng, (),
                                         series)]))
    checks.append(Check("okubo_determinant", worst, max(tol, 1e-7)))
    if spec.kind != "I*":
        step_rho = None
        if spec.kind == "I":
            step_rho = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.3, 0.9))
        xi, eta = xieta_closed_form(spec, rho=step_rho)
        schur = xieta_matrix_expression(spec, rho=step_rho)
        checks.append(Check("xieta_closed_form",
                            float(np.max(np.abs(xi @ eta - schur))),
                            max(tol, 1e-9)))
    payload = report_json(checks)
    _write(args.output, payload)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: "
              f"residual {c.residual:.3e} (tol {c.tol:g})", file=sys.stderr)
    return 0 if payload["passed"] else VERIFY_ERROR


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The okubo argument parser, built on first use and shared by every
    later call in the process."""
    ap = argparse.ArgumentParser(
        prog="okubo",
        description="Katz operations and verified monodromy for Okubo systems. "
                    "Complex values are written 're+imi', e.g. 0.3+0.45i.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a canonical system as JSON")
    _add_spec_flags(p)
    p.add_argument("--via-chain", action="store_true",
                   help="construct by the Katz chain and record the log")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("mc", help="middle convolution (with additions)")
    p.add_argument("input", help="input system JSON")
    p.add_argument("--mu", type=parse_complex, help="plain mc parameter")
    p.add_argument("--k", type=int, help="block index for mc-with-additions")
    p.add_argument("--c", type=parse_complex)
    p.add_argument("--rho", type=parse_complex)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("connection", help="closed-form connection coefficients")
    _add_spec_flags(p)
    p.add_argument("--method", choices=("closed-form", "recurrence"),
                   default="closed-form")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_connection)

    p = sub.add_parser("monodromy", help="closed-form and/or numeric monodromy")
    p.add_argument("--type", help="one of I, I*, II, III")
    p.add_argument("--n", type=int)
    p.add_argument("--alpha", type=parse_complex_list)
    p.add_argument("--beta", type=parse_complex_list)
    p.add_argument("--rho", type=parse_complex_list)
    p.add_argument("--points", type=parse_complex_list)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input", help="system JSON (numeric route only)")
    p.add_argument("--closed-form", action="store_true")
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--tol", type=parse_tol, default=1e-8)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_monodromy)

    p = sub.add_parser("det-check", help="determinant formula vs numeric det")
    _add_spec_flags(p)
    p.add_argument("--x", type=parse_complex, action="append",
                   help="evaluation point (repeatable; default 3 random)")
    p.add_argument("--tol", type=parse_tol, default=1e-7)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_det_check)

    p = sub.add_parser("verify", help="run the verification suite for a spec")
    _add_spec_flags(p)
    p.add_argument("--input", help="verify this system JSON against the spec")
    p.add_argument("--tol", type=parse_tol, default=1e-6)
    p.add_argument("-o", "--output", default="verify-report.json")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    # monodromy needs either spec flags or an input file
    try:
        if getattr(args, "type", None) is not None and args.type not in KINDS:
            print(f"error: unsupported type {args.type!r}", file=sys.stderr)
            return USAGE_ERROR
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OkuboError as exc:
        print(f"error: {exc}", file=sys.stderr)
        try:
            _write(getattr(args, "output", "-"), {"error": str(exc)})
        except Exception:
            pass
        return PRECOND_ERROR


if __name__ == "__main__":
    sys.exit(main())
