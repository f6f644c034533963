"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them all).
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from okubo.core import default_config, e_of
from okubo.connection import (
    assemble_monodromy,
    closed_form_connection,
    okubo_determinant,
    recurrence_connection,
)
from okubo.verify import (
    adaptive_series,
    frobenius_series,
    numeric_canonical_solution,
    numeric_determinant,
    numeric_monodromy,
    spectrum_matches,
)
from okubo.yokoyama import (
    canonical_system,
    katz_chain,
    sample_spec,
    xieta_closed_form,
    xieta_matrix_expression,
)

MAIN_CASES = (("I", 4), ("I*", 4), ("II", 2), ("III", 2))   # ranks 4,4,4,5
DRAWS = 5


def report(num, name, passed, detail=""):
    print(f"ACCEPTANCE {num} [{'PASS' if passed else 'FAIL'}] {name}"
          + (f": {detail}" if detail else ""))
    assert passed, f"criterion {num} failed: {detail}"


def rejected_istar_convention(conn, spec):
    """The I* half-period assignment the theorem rejects, e(rho_1/2) on
    i < j: entry (i, j) times e(rho_1) for i < j and e(-rho_1) for i > j."""
    r1 = spec.rho[0]
    return {(i, j): m * e_of(r1 if i < j else -r1)
            for (i, j), m in conn.items()}


def tuple_err(mon_a, mon_b):
    return max(float(np.max(np.abs(a - b)))
               for a, b in zip(mon_a.matrices, mon_b.matrices))


@pytest.fixture(scope="module")
def main_theorem_runs():
    """Five random generic draws per type: closed-form and numeric tuples,
    plus the I* sign adjudication record."""
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    runs = []
    for kind, n in MAIN_CASES:
        for draw in range(DRAWS):
            spec = sample_spec(kind, n, rng)
            cfg = default_config(spec.points)
            sysm = canonical_system(spec)
            mon_num = numeric_monodromy(sysm, cfg)
            conn = closed_form_connection(spec, cfg)
            mon_cf = assemble_monodromy(conn, spec)
            record = {"spec": spec, "cfg": cfg, "numeric": mon_num,
                      "closed": mon_cf, "err": tuple_err(mon_cf, mon_num)}
            if kind == "I*":
                alt = assemble_monodromy(rejected_istar_convention(conn, spec),
                                         spec)
                record["istar"] = {"theorem": record["err"],
                                   "derivation": tuple_err(alt, mon_num)}
            runs.append(record)
    return {"runs": runs, "elapsed": time.monotonic() - t0}


def test_criterion_1_hypergeometric_base_case():
    t0 = time.monotonic()
    spec = sample_spec("II", 1, np.random.default_rng(7))
    cfg = default_config(spec.points)
    mon_cf = assemble_monodromy(closed_form_connection(spec, cfg), spec)
    mon_num = numeric_monodromy(canonical_system(spec), cfg)
    err = tuple_err(mon_cf, mon_num)
    elapsed = time.monotonic() - t0
    report(1, "hypergeometric (II)_2 closed form vs numeric",
           err <= 1e-8 and elapsed < 5.0,
           f"entrywise err {err:.2e}, {elapsed:.2f}s")


def test_criterion_2_main_theorems(main_theorem_runs):
    runs = main_theorem_runs["runs"]
    elapsed = main_theorem_runs["elapsed"]
    worst = max(r["err"] for r in runs)
    sign_ok = True
    sign_lines = []
    for r in runs:
        if "istar" in r:
            th, dv = r["istar"]["theorem"], r["istar"]["derivation"]
            matches = [name for name, e in r["istar"].items() if e <= 1e-6]
            sign_ok = sign_ok and matches == ["theorem"]
            sign_lines.append(f"theorem {th:.1e} / derivation {dv:.1e}")
    detail = (f"worst entrywise err {worst:.2e} over {len(runs)} draws, "
              f"{elapsed:.1f}s; I* sign: {sign_lines[0]} (theorem matches "
              f"on all {len(sign_lines)} draws)")
    report(2, "main theorems (I)_4 (I*)_4 (II)_4 (III)_5",
           worst <= 1e-6 and elapsed < 120.0 and sign_ok, detail)


def test_criterion_3_determinant_formula(main_theorem_runs):
    rng = np.random.default_rng(99)
    worst = 0.0
    for kind, n in MAIN_CASES + (("II", 1),):
        spec = sample_spec(kind, n, rng)
        cfg = default_config(spec.points)
        sysm = canonical_system(spec)
        psi0 = numeric_canonical_solution(sysm, cfg)
        for _ in range(3):
            x = cfg.base_point + complex(rng.uniform(-0.2, 0.2),
                                         rng.uniform(-0.15, 0.1))
            dn = numeric_determinant(sysm, cfg, x, psi0=psi0)
            dc = okubo_determinant(spec, x, cfg)
            worst = max(worst, abs(dn - dc) / abs(dc))
    report(3, "Okubo determinant formula at 3 regular points per system",
           worst <= 1e-7, f"worst rel err {worst:.2e}")


def test_criterion_4_chain_equals_canonical():
    rng = np.random.default_rng(555)
    worst = 0.0
    for kind, n in MAIN_CASES:
        for _ in range(DRAWS):
            spec = sample_spec(kind, n, rng)
            canon = canonical_system(spec)
            chain, _ = katz_chain(spec)
            scale = max(1.0, float(np.max(np.abs(canon.A))))
            worst = max(worst,
                        float(np.max(np.abs(chain.A - canon.A))) / scale)
    report(4, "katz_chain equals canonical_system (20 draws)",
           worst <= 1e-8, f"worst entrywise err {worst:.2e}")


def test_criterion_5_recurrence_equals_closed_form():
    t0 = time.monotonic()
    rng = np.random.default_rng(31)
    worst = 0.0
    for kind, n in (("I", 4), ("II", 2), ("III", 2)):
        for _ in range(2):
            spec = sample_spec(kind, n, rng)
            cfg = default_config(spec.points)
            cf = closed_form_connection(spec, cfg)
            rec = recurrence_connection(spec, cfg)
            for key in ((0, 1), (1, 0)):
                rel = np.max(np.abs(rec[key] - cf[key])
                             / np.maximum(np.abs(cf[key]), 1e-300))
                worst = max(worst, float(rel))
    elapsed = time.monotonic() - t0
    report(5, "recurrences + symmetry reproduce every theorem coefficient",
           worst <= 1e-10 and elapsed < 5.0,
           f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_6_product_spectrum(main_theorem_runs):
    worst = 0.0
    for r in main_theorem_runs["runs"]:
        spec = r["spec"]
        want = [e_of(x) for x in spec.rho_list()]
        # M_inf^{-1} = M_1 ... M_r carries the e(rho)-profile
        worst = max(worst, spectrum_matches(r["numeric"].product(), want),
                    spectrum_matches(r["closed"].product(), want))
    report(6, "spectrum of M_1...M_r (= M_inf^-1) equals e(rho)-profile",
           worst <= 1e-7, f"worst eigenvalue err {worst:.2e}")


def test_criterion_7_rank_complement_lemma():
    rng = np.random.default_rng(808)
    worst = 0.0
    for kind, n in (("I", 4), ("II", 2), ("III", 2)):
        for _ in range(10):
            spec = sample_spec(kind, n, rng)
            rho = None
            if kind == "I":
                rho = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.3, 0.9))
            xi, eta = xieta_closed_form(spec, rho=rho)
            schur = xieta_matrix_expression(spec, rho=rho)
            worst = max(worst, float(np.max(np.abs(xi @ eta - schur))))
    report(7, "Lemma xi.eta equals the block Schur complement (30 draws)",
           worst <= 1e-9, f"worst err {worst:.2e}")


def test_criterion_8_numerical_robustness():
    rng = np.random.default_rng(4242)
    worst = 0.0
    for kind, n in (("II", 1), ("II", 2), ("I*", 3)):
        spec = sample_spec(kind, n, rng)
        cfg = default_config(spec.points)
        sysm = canonical_system(spec)
        base_order = max(
            adaptive_series(sysm, k, cfg.radii[k], tol=cfg.series_tol,
                            cap=cfg.max_order).order
            for k in range(sysm.r))
        mon1 = numeric_monodromy(sysm, cfg)
        rtol = cfg.rtol / 2
        cfg2 = replace(cfg, rtol=rtol, max_order=2 * base_order + 8)
        mon2 = numeric_monodromy(
            sysm, cfg2, series=[frobenius_series(sysm, k, 2 * base_order)
                                for k in range(sysm.r)])
        worst = max(worst, tuple_err(mon1, mon2))
    report(8, "doubled series order + halved integrator tolerance",
           worst <= 1e-8, f"worst monodromy perturbation {worst:.2e}")
