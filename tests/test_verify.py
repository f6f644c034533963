import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from okubo.core import (
    BlockStructure,
    OkuboSystem,
    SchlesingerSystem,
    StepFailure,
    default_config,
    e_of,
    okubo_to_schlesinger,
)
from okubo.verify import (
    Arc,
    Segment,
    adaptive_series,
    continue_along,
    eval_local_block,
    frobenius_series,
    loop_path,
    numeric_canonical_solution,
    numeric_connection,
    numeric_determinant,
    numeric_monodromy,
    ode_residual,
)
from okubo.yokoyama import canonical_system, sample_spec
from okubo.connection import initial_connection, okubo_determinant


def diagonal_system(entries=(0.21 + 0.33j, -0.12 + 0.41j)):
    return OkuboSystem(blocks=BlockStructure((1, 1)), points=(0.0, 1.0),
                       A=np.diag(np.array(entries, dtype=complex)))


def hge_canonical(rng_seed=0):
    return canonical_system(sample_spec("II", 1, np.random.default_rng(rng_seed)))


# ---------------------------------------------------------------------------
# Frobenius series

def test_series_diagonal_system_block_is_pure_power():
    # decoupled system: the canonical block-k columns have no series tail
    # (the remaining columns are the holomorphic powers ((x-t_j)/(t_k-t_j))^a
    # and do carry Taylor coefficients)
    sysm = diagonal_system()
    for k in range(2):
        series = frobenius_series(sysm, k, 6)
        for c in series.coeffs[1:]:
            assert np.max(np.abs(c[:, k])) < 1e-14
        cols = eval_local_block(sysm, series, 0.1, math.log(0.1))
        want = np.zeros((2, 1), dtype=complex)
        want[k, 0] = 0.1 ** sysm.A[k, k]
        assert np.max(np.abs(cols - want)) < 1e-12


def test_series_structural_identity():
    # D_k A_k = 0 exactly for every Okubo system
    spec = sample_spec("III", 2, np.random.default_rng(1))
    sysm = canonical_system(spec)
    for k in range(sysm.r):
        d = np.diag(sysm.t_diag() - sysm.points[k])
        assert np.max(np.abs(d @ sysm.residue(k))) == 0.0


def gauged(sysm, rng):
    """G^-1 A G for a random block-diagonal G: still Okubo form, with
    non-diagonal diagonal blocks."""
    g = np.zeros_like(sysm.A)
    for k in range(sysm.r):
        sl = sysm.blocks.block_slice(k)
        nk = sysm.blocks.sizes[k]
        g[sl, sl] = rng.normal(size=(nk, nk)) + 1j * rng.normal(size=(nk, nk))
    return OkuboSystem(blocks=sysm.blocks, points=sysm.points,
                       A=np.linalg.solve(g, sysm.A @ g))


def recurrence_residual(sysm, series):
    """Largest relative residual over the orders of the defining relations
    D F_{m+1}((m+1) + A_k) = F_m(m + A_k) - A F_m outside block k and
    F_{m+1}[k]((m+1) + A_k) = A[k,:] F_{m+1} in block k, each relative to
    the size of its terms (max|X| max|Y| for a product XY)."""
    k = series.k
    eye = np.eye(sysm.n)
    sl = sysm.blocks.block_slice(k)
    a = sysm.A
    d = np.diag(sysm.t_diag() - sysm.points[k])
    a_k = sysm.residue(k)
    size = lambda x: np.max(np.abs(x))
    worst = 0.0
    for m, (f_m, f_s) in enumerate(zip(series.coeffs, series.coeffs[1:])):
        b, c = (m + 1) * eye + a_k, m * eye + a_k
        outside = d @ f_s @ b - (f_m @ c - a @ f_m)
        inside = f_s[sl] @ b - a[sl] @ f_s
        worst = max(worst,
                    size(outside) / max(size(d) * size(f_s) * size(b),
                                        size(f_m) * max(size(c), size(a))),
                    size(inside) / (size(f_s) * max(size(b), size(a))))
    return worst


def test_series_ode_residual_hypergeometric():
    # ranks 2, 6 and 5, and the same systems with non-diagonal A_kk; the
    # adaptive series grows in place to the coefficients of a fresh one
    systems = [hge_canonical()]
    for kind, n in (("II", 3), ("III", 2)):
        systems.append(canonical_system(
            sample_spec(kind, n, np.random.default_rng(11))))
    gauge_rng = np.random.default_rng(12)
    systems += [gauged(sysm, gauge_rng) for sysm in systems]
    for sysm in systems:
        cfg = default_config(sysm.points)
        for k in range(sysm.r):
            series = adaptive_series(sysm, k, cfg.radii[k], tol=1e-15)
            fresh = frobenius_series(sysm, k, series.order)
            assert all(np.array_equal(a, b)
                       for a, b in zip(series.coeffs, fresh.coeffs))
            rng = np.random.default_rng(2)
            for _ in range(10):
                r = cfg.radii[k] * rng.uniform(0.2, 1.0)
                th = cfg.thetas[k] + rng.uniform(-0.5, 0.5)
                z = r * cmath.exp(1j * th)
                cols, dcols = eval_local_block(
                    sysm, series, z, math.log(r) + 1j * th, deriv=True)
                assert ode_residual(sysm, sysm.points[k] + z, cols,
                                    dcols) < 1e-10


def test_series_far_from_resonance_computes():
    # eigenvalue margins 0.22 and 0.26: no resonance, though a singular
    # value guard on the Kronecker operator used to raise at m=1
    for kind, seed, k in (("II", 7, 1), ("III", 9, 0)):
        sysm = canonical_system(
            sample_spec(kind, 8, np.random.default_rng(seed)))
        series = frobenius_series(sysm, k, 12)
        assert series.order == 12
        assert recurrence_residual(sysm, series) < 1e-12


def test_series_resonance_detected():
    # one case per kind: eigenvalues of A_kk differing by an integer (the
    # Sylvester solve), an eigenvalue at +s (the triangular solve) and at -s
    # (the inverse of s + A_k)
    from okubo.core import ResonanceError
    cases = (((2, 1), [[0.25, 0.0, 1.0], [0.0, 1.25, 1.0], [0.3, 0.4, 0.5]], 1),
             ((1, 1), [[2.0, 1.0], [0.3, 0.5]], 2),
             ((1, 1), [[-3.0, 1.0], [0.3, 0.5]], 3))
    for sizes, a, order in cases:
        sysm = OkuboSystem(blocks=BlockStructure(sizes), points=(0.0, 1.0),
                           A=np.array(a, dtype=complex))
        with pytest.raises(ResonanceError, match=rf"order m={order} .*margin"):
            frobenius_series(sysm, 0, 5)


def test_adaptive_series_cap_raises():
    sysm = hge_canonical()
    cfg = default_config(sysm.points)
    with pytest.raises(StepFailure, match="within 5 terms"):
        adaptive_series(sysm, 0, cfg.radii[0], tol=1e-300, cap=5)


# ---------------------------------------------------------------------------
# continuation

def test_continuation_zero_field():
    sch = SchlesingerSystem(points=(0.0, 1.0),
                            residues=(np.zeros((2, 2)), np.zeros((2, 2))))
    y0 = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    out = continue_along(sch, y0, [Segment(-1j, 2.0 - 1j)])
    assert np.max(np.abs(out - y0)) < 1e-12


def test_continuation_scalar_closed_form():
    a1, b1 = 0.21 + 0.33j, -0.12 + 0.41j
    sch = SchlesingerSystem(points=(0.0, 1.0),
                            residues=(np.array([[a1]]), np.array([[b1]])))
    z0, z1 = 0.5 - 1.0j, 0.9 - 0.4j
    y0 = np.array([[(z0 - 0) ** a1 * (z0 - 1) ** b1]])
    out = continue_along(sch, y0, [Segment(z0, z1)], rtol=1e-12, atol=1e-14)
    # the straight segment stays in the cut plane of both principal branches
    want = (z1 - 0) ** a1 * (z1 - 1) ** b1
    assert abs(out[0, 0] - want) < 1e-10 * abs(want)


def test_contractible_loop_is_identity():
    sysm = hge_canonical()
    y0 = np.eye(2, dtype=complex)
    p0 = 0.5 - 1.0j
    loop = [Arc(center=p0, radius=0.2, arg0=0.0, arg1=2 * math.pi)]
    start = p0 + 0.2
    out = continue_along(sysm, y0, [Segment(p0, start)] + loop
                         + [Segment(start, p0)])
    assert np.max(np.abs(out - y0)) < 1e-9


def test_loop_path_winding_and_clearance():
    spec = sample_spec("I*", 3, np.random.default_rng(3))
    cfg = default_config(spec.points)
    for k in range(3):
        path = loop_path(cfg, k)
        w = path.winding_numbers(cfg.points)
        for j, wj in enumerate(w):
            assert abs(wj - (1.0 if j == k else 0.0)) < 0.05
        assert path.clearance(cfg.points) >= cfg.radii[k] / 2


# ---------------------------------------------------------------------------
# canonical solution and monodromy

def test_canonical_solution_diagonal_system():
    sysm = diagonal_system()
    cfg = default_config(sysm.points)
    psi = numeric_canonical_solution(sysm, cfg)
    for k, a in enumerate(np.diag(sysm.A)):
        t = sysm.points[k]
        want = cmath.exp(a * (math.log(abs(cfg.base_point - t))
                              + 1j * cfg.thetas[k]))
        assert abs(psi[k, k] - want) < 1e-10 * abs(want)
    off = psi - np.diag(np.diag(psi))
    assert np.max(np.abs(off)) < 1e-10


def test_canonical_solution_columns_solve_ode():
    sysm = hge_canonical()
    cfg = default_config(sysm.points)
    psi = numeric_canonical_solution(sysm, cfg)
    # independent derivative via central differences of the continuation
    h = 1e-5
    plus = continue_along(sysm, psi, [Segment(cfg.base_point,
                                              cfg.base_point + h)])
    minus = continue_along(sysm, psi, [Segment(cfg.base_point,
                                               cfg.base_point - h)])
    dpsi = (plus - minus) / (2 * h)
    assert ode_residual(sysm, cfg.base_point, psi, dpsi) < 1e-9


def test_determinant_matches_formula_hge():
    spec = sample_spec("II", 1, np.random.default_rng(4))
    sysm = canonical_system(spec)
    cfg = default_config(spec.points)
    dn = numeric_determinant(sysm, cfg, cfg.base_point)
    dc = okubo_determinant(spec, cfg.base_point, cfg)
    assert abs(dn - dc) < 1e-8 * abs(dc)


def test_monodromy_diagonal_system():
    sysm = diagonal_system()
    cfg = default_config(sysm.points)
    mon = numeric_monodromy(sysm, cfg)
    for k in range(2):
        want = np.eye(2, dtype=complex)
        want[k, k] = e_of(sysm.A[k, k])
        assert np.max(np.abs(mon.matrices[k] - want)) < 1e-9


def test_monodromy_hge_matches_closed_form():
    spec = sample_spec("II", 1, np.random.default_rng(5))
    sysm = canonical_system(spec)
    cfg = default_config(spec.points)
    mon = numeric_monodromy(sysm, cfg)
    a1, b1, r1 = spec.alpha[0], spec.beta[0], spec.rho[0]
    seed = initial_connection(a1, b1, r1, cfg)
    want1 = np.array([[e_of(a1), (e_of(a1) - 1) * seed["C11"]], [0, 1]])
    want2 = np.array([[1, 0], [(e_of(b1) - 1) * seed["D11"], e_of(b1)]])
    assert np.max(np.abs(mon.matrices[0] - want1)) < 1e-8
    assert np.max(np.abs(mon.matrices[1] - want2)) < 1e-8


def test_local_monodromy_block_identity():
    # continuation of the block-k columns along gamma_k right-multiplies by
    # e(A_kk)
    spec = sample_spec("II", 2, np.random.default_rng(6))
    sysm = canonical_system(spec)
    cfg = default_config(spec.points)
    psi = numeric_canonical_solution(sysm, cfg)
    import scipy.linalg as sla
    for k in range(2):
        sl = sysm.blocks.block_slice(k)
        cols = psi[:, sl]
        out = continue_along(sysm, cols, loop_path(cfg, k).pieces,
                             rtol=cfg.rtol, atol=cfg.atol)
        want = cols @ sla.expm(2j * math.pi * sysm.block(k, k))
        assert np.max(np.abs(out - want)) < 1e-8


def test_composite_loop_consistency():
    # continuation along [gamma_r first, ..., gamma_1 last] equals M_1...M_r
    spec = sample_spec("I*", 3, np.random.default_rng(7))
    sysm = canonical_system(spec)
    cfg = default_config(spec.points)
    psi = numeric_canonical_solution(sysm, cfg)
    mon = numeric_monodromy(sysm, cfg)
    pieces = []
    for k in reversed(range(sysm.r)):
        pieces.extend(loop_path(cfg, k).pieces)
    out = continue_along(sysm, psi, pieces, rtol=cfg.rtol, atol=cfg.atol)
    assert np.max(np.abs(out - psi @ mon.product())) < 1e-8


def test_ode_residual_along_path_points():
    # the continued solution satisfies the ODE at sampled path points;
    # derivative from a 4th-order central stencil
    sysm = hge_canonical()
    cfg = default_config(sysm.points)
    psi = numeric_canonical_solution(sysm, cfg)
    path = loop_path(cfg, 0)
    rng = np.random.default_rng(10)
    h = 1e-3
    for _ in range(10):
        piece = path.pieces[int(rng.integers(0, 3))]
        x = piece.at(float(rng.uniform(0.1, 0.9)))
        y = continue_along(sysm, psi, [Segment(cfg.base_point, x)],
                           rtol=cfg.rtol, atol=cfg.atol)
        samples = {s: continue_along(sysm, y, [Segment(x, x + s * h)],
                                     rtol=cfg.rtol, atol=cfg.atol)
                   for s in (-2, -1, 1, 2)}
        dy = (8 * (samples[1] - samples[-1])
              - (samples[2] - samples[-2])) / (12 * h)
        assert ode_residual(sysm, x, y, dy) < 1e-9


def test_numeric_connection_diagonal_is_zero():
    sysm = diagonal_system()
    cfg = default_config(sysm.points)
    conn = numeric_connection(sysm, cfg)
    for mat in conn.values():
        assert np.max(np.abs(mat)) < 1e-10


def test_numeric_connection_hge_matches_seeds():
    spec = sample_spec("II", 1, np.random.default_rng(8))
    sysm = canonical_system(spec)
    cfg = default_config(spec.points)
    conn = numeric_connection(sysm, cfg)
    seed = initial_connection(spec.alpha[0], spec.beta[0], spec.rho[0], cfg)
    assert abs(conn[(0, 1)][0, 0] - seed["C11"]) < 1e-8
    assert abs(conn[(1, 0)][0, 0] - seed["D11"]) < 1e-8


def test_monodromy_convergence_under_refinement():
    # doubling the series order and halving the integrator tolerance moves
    # no monodromy entry by more than 1e-8
    spec = sample_spec("II", 2, np.random.default_rng(9))
    sysm = canonical_system(spec)
    cfg = default_config(spec.points)
    base_order = max(
        adaptive_series(sysm, k, cfg.radii[k], tol=cfg.series_tol,
                        cap=cfg.max_order).order
        for k in range(sysm.r))
    mon1 = numeric_monodromy(sysm, cfg)
    rtol = cfg.rtol / 2
    cfg2 = replace(cfg, rtol=rtol, atol=rtol * 1e-2,
                   max_order=2 * base_order + 8)
    mon2 = numeric_monodromy(sysm, cfg2, order=2 * base_order)
    for a, b in zip(mon1.matrices, mon2.matrices):
        assert np.max(np.abs(a - b)) < 1e-8
