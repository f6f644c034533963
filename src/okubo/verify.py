"""Independent numerical oracle: Frobenius series at each finite singular
point, analytic continuation of the ODE from each t_k to the base point,
each loop closed by the formal monodromy of the series at its entry point,
and the resulting numeric monodromy/connection data.

Nothing here consults a closed form; agreement with the formula modules is
what the acceptance suite checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.integrate import solve_ivp
from scipy.linalg.lapack import ztrsyl, ztrtrs

from .core import (
    MonodromyTuple,
    OkuboSystem,
    PathConfig,
    ResonanceError,
    SingularBlock,
    SingularPsi,
    StepFailure,
    check_segment,
    matrix_scale,
    okubo_to_schlesinger,
)


# ---------------------------------------------------------------------------
# Frobenius series at a finite singular point

@dataclass
class LocalSeries:
    """Coefficients F_0..F_N of the local factor F(x) in
    Psi^(k) = F(x)(x - t_k)^{A_k}, with F_0 = I."""

    k: int
    coeffs: list

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def frobenius_series(sys: OkuboSystem, k: int, order: int,
                     series: LocalSeries | None = None) -> LocalSeries:
    """Append ``order`` coefficients to ``series`` (a new series with
    F_0 = I when None) and return it.

    Rows outside block k solve D F_{m+1}((m+1) + A_k) = F_m(m + A_k) - A F_m
    (D = T - t_k).  A_k is zero outside block row k, so s + A_k (s = m+1) is
    block triangular, with inverse [[(s + A_kk)^-1, -(s + A_kk)^-1 A_ko/s],
    [0, I/s]]; and block k splits into a Sylvester equation for its own
    columns and a solve with s - A_kk for the others.  All three are
    triangular in one Schur basis A_kk = Q T Q^H (Bartels-Stewart).
    ResonanceError names the eigenvalues of A_kk that make an order singular
    at tolerance.
    """
    n = sys.n
    a = sys.A
    sl_k = sys.blocks.block_slice(k)
    d = sys.t_diag() - sys.points[k]          # diagonal of T - t_k
    outside = np.abs(d) > 0
    a_k = sys.residue(k)
    a_krows = a[sl_k, :]
    a_ko = a_krows[:, outside]
    t, q = sla.schur(sys.block(k, k).astype(complex), output="complex")
    qh = q.conj().T
    lam = np.diag(t)
    eye_k = np.eye(len(lam), dtype=complex)
    # the three solves of order s are singular when s + shift = 0
    pairs = [(li, lj) for li in lam for lj in lam]
    shifts = np.array([lj - li for li, lj in pairs] + list(-lam) + list(lam))
    culprits = pairs + [(li,) for li in lam] * 2
    scale = max(1.0, matrix_scale(a))

    eye_n = np.eye(n, dtype=complex)
    if series is None:
        series = LocalSeries(k=k, coeffs=[eye_n.copy()])
    coeffs = series.coeffs
    for m in range(series.order, series.order + order):
        s = m + 1
        margins = np.abs(s + shifts)
        j = int(np.argmin(margins))
        if margins[j] <= 1e-10 * scale * s:
            eigs = ", ".join(f"{x:.6g}" for x in culprits[j])
            raise ResonanceError(
                f"resonance at order m={s} for k={k}: eigenvalue(s) {eigs} "
                f"of A_kk, margin {margins[j]:.3g}")
        f_m = coeffs[-1]
        rhs = (f_m @ (m * eye_n + a_k) - a @ f_m)[outside]
        # X (s + A_k) = rhs: X_k = rhs_k Q (s + T)^-1 Q^H, X_o = (rhs_o -
        # X_k A_ko)/s
        x = np.empty_like(rhs)
        x[:, sl_k] = ztrtrs(s * eye_k + t, (rhs[:, sl_k] @ q).T,
                            trans=1)[0].T @ qh
        x[:, outside] = (rhs[:, outside] - x[:, sl_k] @ a_ko) / s
        f_next = np.zeros_like(f_m)
        f_next[outside] = x / d[outside, None]
        # block-k rows Z = Q^H X in the Schur basis: Y = Z_k Q solves
        # Y(s + T) - T Y = W_k Q, then (s - T) Z_o = W_o - Z_k A_ko
        w = qh @ (a_krows @ f_next)
        y, sc, _ = ztrsyl(-t, s * eye_k + t, w[:, sl_k] @ q)
        z = np.empty_like(w)
        z[:, sl_k] = (y / sc) @ qh
        z[:, outside] = ztrtrs(s * eye_k - t,
                               w[:, outside] - z[:, sl_k] @ a_ko)[0]
        f_next[sl_k, :] = q @ z
        coeffs.append(f_next)
    return series


def adaptive_series(sys: OkuboSystem, k: int, r_eval: float, *,
                    tol: float, cap: int) -> LocalSeries:
    """Grow the series in place, ``step`` orders at a time, until its last
    three terms at radius r_eval are at most tol; StepFailure if that does
    not happen within ``cap`` orders."""
    step = 12
    series = frobenius_series(sys, k, min(step, cap))
    while True:
        tails = [matrix_scale(c) * r_eval ** (series.order - i)
                 for i, c in enumerate(series.coeffs[-3:][::-1])]
        if all(t <= tol for t in tails):
            return series
        if series.order >= cap:
            raise StepFailure(
                f"series at t_{k} did not reach tol {tol} within {cap} "
                f"terms: last three terms up to {max(tails):.3g}")
        frobenius_series(sys, k, min(step, cap - series.order), series)


def eval_factor(series: LocalSeries, z: complex) -> np.ndarray:
    """The full n x n local factor F(t_k + z) = sum_m F_m z^m."""
    f = np.zeros_like(series.coeffs[0])
    zp = 1.0 + 0.0j
    for c in series.coeffs:
        f += c * zp
        zp *= z
    return f


def eval_local_block(sys: OkuboSystem, series: LocalSeries, z: complex,
                     log_z: complex) -> np.ndarray:
    """Psi^(k)_k(t_k + z) = F(z) e_k z^{A_kk}, using the supplied branch of
    log z."""
    sl_k = sys.blocks.block_slice(series.k)
    zakk = sla.expm(log_z * sys.block(series.k, series.k))
    return eval_factor(series, z)[:, sl_k] @ zakk


# ---------------------------------------------------------------------------
# analytic continuation

@dataclass(frozen=True)
class Segment:
    a: complex
    b: complex

    def at(self, s: float) -> complex:
        return self.a + s * (self.b - self.a)

    def velocity(self, s: float) -> complex:
        return self.b - self.a


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    arg0: float
    arg1: float

    def at(self, s: float) -> complex:
        th = self.arg0 + s * (self.arg1 - self.arg0)
        return self.center + self.radius * cmath.exp(1j * th)

    def velocity(self, s: float) -> complex:
        th = self.arg0 + s * (self.arg1 - self.arg0)
        return 1j * (self.arg1 - self.arg0) * self.radius * cmath.exp(1j * th)


@dataclass
class LoopPath:
    """gamma_k realized as segments and one full positive circle."""

    k: int
    pieces: list

    def winding_numbers(self, points) -> list:
        """Total winding around each singular point (400 samples a piece)."""
        zs = []
        for piece in self.pieces:
            for s in np.linspace(0.0, 1.0, 400, endpoint=False):
                zs.append(piece.at(float(s)))
        zs.append(self.pieces[0].at(0.0))
        out = []
        for t in points:
            total = 0.0
            for z0, z1 in zip(zs, zs[1:]):
                total += cmath.phase((z1 - t) / (z0 - t))
            out.append(total / (2 * math.pi))
        return out

    def clearance(self, points) -> float:
        dmin = math.inf
        for piece in self.pieces:
            for s in np.linspace(0.0, 1.0, 200):
                z = piece.at(float(s))
                dmin = min(dmin, min(abs(z - t) for t in points))
        return dmin


def loop_entry(cfg: PathConfig, k: int) -> complex:
    """q_k - t_k: where gamma_k meets its circle, seen from t_k."""
    return cfg.radii[k] * cmath.exp(1j * cfg.thetas[k])


def loop_path(cfg: PathConfig, k: int) -> LoopPath:
    """p0 -> circle entry along the straight p0-t_k line, full positive
    circle, straight return.  numeric_monodromy closes the circle in closed
    form; the transported path serves as a cross-check."""
    tk = cfg.points[k]
    qk = tk + loop_entry(cfg, k)
    circle = Arc(center=tk, radius=cfg.radii[k],
                 arg0=cfg.thetas[k], arg1=cfg.thetas[k] + 2 * math.pi)
    return LoopPath(k=k, pieces=[Segment(cfg.base_point, qk), circle,
                                 Segment(qk, cfg.base_point)])


def loop_log_entry(cfg: PathConfig, k: int) -> complex:
    """log(q_k - t_k) on the branch arg = theta_k, the one Psi0 uses."""
    return math.log(cfg.radii[k]) + 1j * cfg.thetas[k]


def continue_along(sys, y0, pieces, rtol: float, atol: float) -> np.ndarray:
    """Transport a solution matrix along a path of Segments/Arcs, for an
    Okubo or a Schlesinger system; the reference for the oracle's
    ``transport``.

    The right-hand side sums the residues, stacked as an (r, n*n) array,
    with one BLAS product: sum_j R_j/(x - t_j) is a (1, r) by (r, n*n) dot.
    """
    sch = okubo_to_schlesinger(sys) if isinstance(sys, OkuboSystem) else sys
    n, r = sch.n, sch.r
    pts = np.array(sch.points)
    res = np.stack(sch.residues).reshape(r, n * n)
    y = np.asarray(y0, dtype=complex)
    shape = y.shape

    for piece in pieces:
        def rhs(s, vec):
            x = piece.at(s)
            v = piece.velocity(s)
            m = np.dot((1.0 / (x - pts)).reshape(1, r), res).reshape(n, n)
            return (v * (m @ vec.reshape(shape))).reshape(-1)

        sol = solve_ivp(rhs, (0.0, 1.0), y.reshape(-1), method="DOP853",
                        rtol=rtol, atol=atol, dense_output=False)
        if not sol.success:
            raise StepFailure(f"continuation failed: {sol.message}")
        y = sol.y[:, -1].reshape(shape)
    return y


# scipy's solve_ivp raises any smaller rtol to this, with only a warning
RTOL_FLOOR = 100 * np.finfo(float).eps


def transport(sys: OkuboSystem, groups, rtol: float,
              atol: float) -> list:
    """Carry each group (Segment, n x N_c columns) to the end of its own
    segment, all in one DOP853 solve; returns the columns per group.

    Every segment is parametrised over s in [0, 1], so the groups stack into
    one n x N state, and the right-hand side is the Okubo form
    d_c diag(1/(x_c(s) - T)) (A @ Y), one product per evaluation.  DOP853
    bounds the RMS error over the whole state, which lets a group of N_c
    columns carry sqrt(N / N_c) times its solo error; rtol and atol are
    divided by sqrt(N / min N_c), so that no group's own error norm exceeds
    what its solo solve would accept.  StepFailure when that puts rtol below
    DOP853's floor 100 eps, which scipy would silently raise it to.
    """
    widths = [cols.shape[1] for _, cols in groups]
    y0 = np.hstack([cols for _, cols in groups]).astype(complex)
    n, total = y0.shape
    if total == 0:                      # r = 1: no column leaves block k
        return [cols for _, cols in groups]
    shrink = math.sqrt(total / min(w for w in widths if w))
    if rtol / shrink < RTOL_FLOOR:
        raise StepFailure(
            f"rtol {rtol:g} over the group shrink {shrink:.4g} is "
            f"{rtol / shrink:.3g}, below DOP853's floor 100*eps = "
            f"{RTOL_FLOOR:.3g}")
    start = np.array([seg.a for seg, _ in groups])
    vel = np.array([seg.b - seg.a for seg, _ in groups])
    owner = np.repeat(np.arange(len(groups)), widths)
    t_col = sys.t_diag()[:, None]
    a = sys.A

    def rhs(s, vec):
        w = vel / (start + s * vel - t_col)
        return (w[:, owner] * (a @ vec.reshape(n, total))).reshape(-1)

    sol = solve_ivp(rhs, (0.0, 1.0), y0.reshape(-1), method="DOP853",
                    rtol=rtol / shrink, atol=atol / shrink)
    if not sol.success:
        raise StepFailure(f"continuation failed: {sol.message}")
    y = sol.y[:, -1].reshape(n, total)
    return np.split(y, np.cumsum(widths)[:-1], axis=1)


# ---------------------------------------------------------------------------
# canonical solution matrix and monodromy

def local_series(sys: OkuboSystem, cfg: PathConfig) -> list:
    """The Frobenius series at every t_k, grown to converge at radius r_k."""
    return [adaptive_series(sys, k, cfg.radii[k], tol=cfg.series_tol,
                            cap=cfg.max_order) for k in range(sys.r)]


def numeric_canonical_solution(sys: OkuboSystem, cfg: PathConfig,
                               series: list | None = None) -> np.ndarray:
    """Psi(p0): block-k columns are the local singular solutions at t_k
    normalized by F(t_k) = I, continued to the base point.  ``series``
    (one per t_k, as from local_series) is computed when not given."""
    if series is None:
        series = local_series(sys, cfg)
    groups = []
    for k in range(sys.r):
        z = loop_entry(cfg, k)
        cols = eval_local_block(sys, series[k], z, loop_log_entry(cfg, k))
        groups.append((Segment(sys.points[k] + z, cfg.base_point), cols))
    psi = np.hstack(transport(sys, groups, cfg.rtol, cfg.atol))
    sv = np.linalg.svd(psi, compute_uv=False)
    if sv[-1] <= 1e-10 * max(1.0, sv[0]):
        raise SingularPsi(
            f"canonical solution matrix is numerically singular: "
            f"sigma_min = {sv[-1]:.3g}, sigma_max = {sv[0]:.3g}, "
            f"sigma_min <= 1e-10 * max(1, sigma_max)")
    return psi


def numeric_monodromy(sys: OkuboSystem, cfg: PathConfig,
                      series: list | None = None) -> MonodromyTuple:
    """M_k = Psi(p0)^{-1} (Psi continued along gamma_k).  ``series`` (one
    per t_k, as from local_series) is computed when not given.

    Only the segment p0 -> q_k is transported.  Near t_k, Psi = F(x)(x -
    t_k)^{A_k} C for a constant C, and one positive turn multiplies
    (x - t_k)^{A_k} on the right by e(A_k) = exp(2 pi i A_k), which
    commutes with it.  With P = F(q_k)^{-1} Psi(q_k) = (q_k - t_k)^{A_k} C
    the circle takes Psi(q_k) to Psi(q_k) P^{-1} e(A_k) P, and the return
    segment maps Psi(q_k) M_k to Psi(p0) M_k.

    P's block-k columns are known exactly, e_k (q_k - t_k)^{A_kk}, since
    Psi0's block k was built from the same series at q_k; only the other
    n - n_k columns of Psi0 travel, every loop's in one solve.  P and M_k
    are taken by solves: forming F e(A_k) F^{-1} with an explicit inverse
    can lose a decade more where F(q_k) is ill-conditioned.
    """
    if series is None:
        series = local_series(sys, cfg)
    psi0 = numeric_canonical_solution(sys, cfg, series=series)
    n = sys.n
    groups, masks = [], []
    for k in range(sys.r):
        outside = np.ones(n, dtype=bool)
        outside[sys.blocks.block_slice(k)] = False
        q_k = sys.points[k] + loop_entry(cfg, k)
        groups.append((Segment(cfg.base_point, q_k), psi0[:, outside]))
        masks.append(outside)
    carried = transport(sys, groups, cfg.rtol, cfg.atol)
    mats = []
    for k, (outside, cols) in enumerate(zip(masks, carried)):
        sl_k = sys.blocks.block_slice(k)
        p = np.zeros((n, n), dtype=complex)
        p[sl_k, sl_k] = sla.expm(loop_log_entry(cfg, k) * sys.block(k, k))
        p[:, outside] = np.linalg.solve(
            eval_factor(series[k], loop_entry(cfg, k)), cols)
        e_k = sla.expm(2j * math.pi * sys.residue(k))
        mats.append(np.linalg.solve(p, e_k @ p))
    return MonodromyTuple(matrices=tuple(mats), blocks=sys.blocks)


def numeric_connection(sys: OkuboSystem, cfg: PathConfig,
                       mon: MonodromyTuple | None = None) -> dict:
    """C^(kj) = (e(A_kk) - 1)^{-1} (block (k,j) of M_k), j != k."""
    if mon is None:
        mon = numeric_monodromy(sys, cfg)
    out = {}
    for k in range(sys.r):
        akk = sys.block(k, k)
        factor = sla.expm(2j * math.pi * akk) - np.eye(sys.blocks.sizes[k])
        sv = np.linalg.svd(factor, compute_uv=False)
        if sv[-1] <= 1e-10 * max(1.0, sv[0]):
            raise SingularBlock(f"e(A_kk) - 1 singular for k={k}")
        mk = mon.matrices[k]
        for j in range(sys.r):
            if j == k:
                continue
            blk = mk[sys.blocks.block_slice(k), sys.blocks.block_slice(j)]
            out[(k, j)] = np.linalg.solve(factor, blk)
    return out


def numeric_determinant(sys: OkuboSystem, cfg: PathConfig, x: complex,
                        psi0: np.ndarray) -> complex:
    """det Psi(x) by Liouville's formula, det Psi0 prod_k ((x - t_k)/(p0 -
    t_k))^{tr A_kk}, with the principal power: the branch continued along
    the segment p0 -> x, on which check_segment rejects any t_k."""
    x, p0 = complex(x), cfg.base_point
    check_segment(sys.points, p0, x)
    det = complex(np.linalg.det(psi0))
    for k, t in enumerate(sys.points):
        det *= ((x - t) / (p0 - t)) ** complex(np.trace(sys.block(k, k)))
    return det


# ---------------------------------------------------------------------------
# verification report

def spectrum_matches(mat: np.ndarray, values) -> float:
    """Distance between the eigenvalue multiset of mat and the expected one.

    Expected values are grouped by multiplicity and each group is compared
    through its cluster mean: for semisimple multiple eigenvalues the mean is
    first-order accurate while the individual eigenvalues scatter like
    eps^(1/m), so naive one-by-one matching would reject exact data.
    Distances are scaled by max(1, |expected|), keeping absolute semantics
    for eigenvalues of unit size and relative ones for extreme moduli.
    """
    eig = list(np.linalg.eigvals(mat))
    groups = []
    for v in values:
        for g in groups:
            if abs(g[0] - v) < 1e-9:
                g[1] += 1
                break
        else:
            groups.append([v, 1])
    groups.sort(key=lambda g: -g[1])
    worst = 0.0
    for v, m in groups:
        picked = sorted(range(len(eig)), key=lambda i: abs(eig[i] - v))[:m]
        mean = sum(eig[i] for i in picked) / m
        worst = max(worst, abs(mean - v) / max(1.0, abs(v)))
        for i in sorted(picked, reverse=True):
            eig.pop(i)
    return worst


def intertwiner(mon_a: MonodromyTuple, mon_b: MonodromyTuple):
    """R with A_k R = R B_k for all k (least-singular-vector solution).

    Returns (R, residual); for irreducible tuples R is unique up to scale.
    """
    n = mon_a.n
    if mon_b.n != n or mon_b.r != mon_a.r:
        raise SingularBlock("tuples must have matching shapes")
    rows = [np.kron(a, np.eye(n)) - np.kron(np.eye(n), b.T)
            for a, b in zip(mon_a.matrices, mon_b.matrices)]
    m = np.vstack(rows)
    _, _, vh = np.linalg.svd(m)
    r = vh[-1].conj().reshape(n, n)
    r = r / np.max(np.abs(r))
    res = max(matrix_scale(a @ r - r @ b)
              for a, b in zip(mon_a.matrices, mon_b.matrices))
    return r, res


@dataclass
class Check:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tol)

    def to_json(self) -> dict:
        return {"name": self.name, "residual": self.residual,
                "tol": self.tol, "passed": self.passed}


def report_json(checks) -> dict:
    return {
        "checks": [c.to_json() for c in checks],
        "passed": all(c.passed for c in checks),
    }
