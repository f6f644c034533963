"""Independent numerical oracle: Frobenius series at each finite singular
point, analytic continuation of the ODE along loops, and the resulting
numeric monodromy/connection data.

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
from scipy.linalg.lapack import ztrsyl

from .core import (
    MonodromyTuple,
    OkuboSystem,
    PathConfig,
    ResonanceError,
    SingularBlock,
    SingularPsi,
    StepFailure,
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
    (D = T - t_k).  A_k is zero outside block row k, so block k splits into
    a Sylvester equation for its own columns and a solve with (m+1) - A_kk
    for the others, both triangular in one Schur basis A_kk = Q T Q^H
    (Bartels-Stewart).  ResonanceError names the eigenvalues of A_kk that
    make an order singular at tolerance.
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
        rhs = f_m @ (m * eye_n + a_k) - a @ f_m
        b_inv = np.linalg.inv(s * eye_n + a_k)
        f_next = np.zeros_like(f_m)
        f_next[outside] = (rhs[outside] @ b_inv) / d[outside, None]
        # block-k rows Z = Q^H X in the Schur basis: Y = Z_k Q solves
        # Y(s + T) - T Y = W_k Q, then (s - T) Z_o = W_o - Z_k A_ko
        w = qh @ (a_krows @ f_next)
        y, sc, _ = ztrsyl(-t, s * eye_k + t, w[:, sl_k] @ q)
        z = np.empty_like(w)
        z[:, sl_k] = (y / sc) @ qh
        z[:, outside] = sla.solve_triangular(
            s * eye_k - t, w[:, outside] - z[:, sl_k] @ a_ko)
        f_next[sl_k, :] = q @ z
        coeffs.append(f_next)
    return series


def adaptive_series(sys: OkuboSystem, k: int, r_eval: float,
                    tol: float = 1e-13, cap: int = 200) -> LocalSeries:
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


def eval_local_block(sys: OkuboSystem, series: LocalSeries, z: complex,
                     log_z: complex, deriv: bool = False):
    """Psi^(k)_k(t_k + z) = F(z) e_k z^{A_kk}, using the supplied branch of
    log z.  Optionally also the x-derivative."""
    k = series.k
    sl_k = sys.blocks.block_slice(k)
    akk = sys.block(k, k)
    f = np.zeros_like(series.coeffs[0])
    zp = 1.0 + 0.0j
    for c in series.coeffs:
        f += c * zp
        zp *= z
    zakk = sla.expm(log_z * akk)
    cols = f[:, sl_k] @ zakk
    if not deriv:
        return cols
    fp = np.zeros_like(f)
    zp = 1.0 + 0.0j
    for m, c in enumerate(series.coeffs[1:], start=1):
        fp += m * c * zp
        zp *= z
    dcols = fp[:, sl_k] @ zakk + (f[:, sl_k] @ akk @ zakk) / z
    return cols, dcols


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

    def winding_numbers(self, points, samples: int = 400) -> list:
        """Total winding around each singular point (sampled)."""
        zs = []
        for piece in self.pieces:
            for s in np.linspace(0.0, 1.0, samples, endpoint=False):
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


def loop_path(cfg: PathConfig, k: int) -> LoopPath:
    """p0 -> circle entry along the straight p0-t_k line, full positive
    circle, straight return."""
    tk = cfg.points[k]
    qk = tk + cfg.radii[k] * cmath.exp(1j * cfg.thetas[k])
    circle = Arc(center=tk, radius=cfg.radii[k],
                 arg0=cfg.thetas[k], arg1=cfg.thetas[k] + 2 * math.pi)
    return LoopPath(k=k, pieces=[Segment(cfg.base_point, qk), circle,
                                 Segment(qk, cfg.base_point)])


def continue_along(sys, y0, pieces, rtol: float = 1e-11,
                   atol: float = 1e-13) -> np.ndarray:
    """Transport a solution matrix along a path of Segments/Arcs."""
    sch = okubo_to_schlesinger(sys) if isinstance(sys, OkuboSystem) else sys
    pts = np.array(sch.points)
    res = np.stack(sch.residues)
    y = np.asarray(y0, dtype=complex)
    shape = y.shape

    for piece in pieces:
        def rhs(s, vec):
            x = piece.at(s)
            v = piece.velocity(s)
            m = np.tensordot(1.0 / (x - pts), res, axes=(0, 0))
            return (v * (m @ vec.reshape(shape))).reshape(-1)

        sol = solve_ivp(rhs, (0.0, 1.0), y.reshape(-1), method="DOP853",
                        rtol=rtol, atol=atol, dense_output=False)
        if not sol.success:
            raise StepFailure(f"continuation failed: {sol.message}")
        y = sol.y[:, -1].reshape(shape)
    return y


# ---------------------------------------------------------------------------
# canonical solution matrix and monodromy

def numeric_canonical_solution(sys: OkuboSystem, cfg: PathConfig,
                               order: int | None = None) -> np.ndarray:
    """Psi(p0): block-k columns are the local singular solutions at t_k
    normalized by F(t_k) = I, continued to the base point."""
    n = sys.n
    psi = np.zeros((n, n), dtype=complex)
    for k in range(sys.r):
        rk = cfg.radii[k]
        if order is None:
            series = adaptive_series(sys, k, rk, tol=cfg.series_tol,
                                     cap=cfg.max_order)
        else:
            series = frobenius_series(sys, k, order)
        z = rk * cmath.exp(1j * cfg.thetas[k])
        log_z = math.log(rk) + 1j * cfg.thetas[k]
        cols = eval_local_block(sys, series, z, log_z)
        qk = sys.points[k] + z
        cols = continue_along(sys, cols, [Segment(qk, cfg.base_point)],
                              rtol=cfg.rtol, atol=cfg.atol)
        psi[:, sys.blocks.block_slice(k)] = cols
    sv = np.linalg.svd(psi, compute_uv=False)
    if sv[-1] <= 1e-10 * max(1.0, sv[0]):
        raise SingularPsi("canonical solution matrix is numerically singular")
    return psi


def numeric_monodromy(sys: OkuboSystem, cfg: PathConfig,
                      order: int | None = None) -> MonodromyTuple:
    """M_k = Psi(p0)^{-1} (Psi continued along gamma_k)."""
    psi0 = numeric_canonical_solution(sys, cfg, order=order)
    mats = []
    for k in range(sys.r):
        path = loop_path(cfg, k)
        psi_k = continue_along(sys, psi0, path.pieces,
                               rtol=cfg.rtol, atol=cfg.atol)
        mats.append(np.linalg.solve(psi0, psi_k))
    return MonodromyTuple(matrices=tuple(mats), config=cfg,
                          blocks=sys.blocks)


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
                        psi0: np.ndarray | None = None) -> complex:
    """det Psi(x), continued from p0 along the straight segment."""
    if psi0 is None:
        psi0 = numeric_canonical_solution(sys, cfg)
    x = complex(x)
    if x == cfg.base_point:
        return complex(np.linalg.det(psi0))
    psi_x = continue_along(sys, psi0, [Segment(cfg.base_point, x)],
                           rtol=cfg.rtol, atol=cfg.atol)
    return complex(np.linalg.det(psi_x))


def ode_residual(sys: OkuboSystem, x: complex, y: np.ndarray,
                 dy: np.ndarray) -> float:
    """Relative residual of (x - T) Y' = A Y for given column values."""
    lhs = (x - sys.t_diag())[:, None] * dy
    rhs = sys.A @ y
    denom = max(matrix_scale(rhs), matrix_scale(lhs), 1e-30)
    return matrix_scale(lhs - rhs) / denom


# ---------------------------------------------------------------------------
# verification report

def spectrum_matches(mat: np.ndarray, values, tol: float) -> float:
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
