"""Closed-form connection coefficients and monodromy matrices for the four
canonical types, the gamma-product recurrence engine, Okubo's determinant
formula, and the regularized beta factors.

Sign conventions.  The overall signs and a few index patterns of these
gamma-product formulas admit more than one plausible normalization; every
default here was adjudicated entrywise against the numerical monodromy of
the canonical systems (module ``verify``) at several sizes and random
generic exponents.  The type I* half-period ambiguity stays selectable via
``istar_sign``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MonodromyTuple,
    NonDiagonalizable,
    PathConfig,
    PoleError,
    ShapeError,
    branch_power,
    default_config,
    e_of,
    gamma_c,
    gamma_ratio,
    lgamma_c,
)
from .yokoyama import YokoyamaSpec, swap_spec


# ---------------------------------------------------------------------------
# connection data

@dataclass
class ConnectionData:
    """Connection matrices C^(kj) for ordered block pairs (k, j), k != j,
    under the branch conventions of ``config``."""

    matrices: dict
    config: PathConfig
    blocks: tuple = ()

    def __getitem__(self, kj):
        return self.matrices[kj]

    @property
    def c(self):
        return self.matrices.get((0, 1))

    @property
    def d(self):
        return self.matrices.get((1, 0))


# ---------------------------------------------------------------------------
# closed forms (verifier-adjudicated normalization)

def closed_form_connection(spec: YokoyamaSpec, cfg: PathConfig | None = None,
                           istar_sign: str = "theorem") -> ConnectionData:
    """Evaluate every connection matrix from the gamma-product formulas.

    ``istar_sign`` selects the type I* half-period convention: "theorem"
    places e(-rho_1/2) on i<j, "derivation" the opposite assignment; the
    numeric verifier confirms "theorem".
    """
    if cfg is None:
        cfg = default_config(spec.points)
    spec.check_genericity()
    kind = spec.kind
    if kind == "I":
        return _connection_type_I(spec, cfg)
    if kind == "I*":
        return _connection_type_Istar(spec, cfg, istar_sign)
    return _connection_type_II_III(spec, cfg)


def _connection_type_I(spec, cfg):
    n, al, rho = spec.n, spec.alpha, spec.rho
    bp = lambda i, j, x: branch_power(i, j, x, cfg)
    r2 = rho[1]
    c = np.empty((n - 1, 1), dtype=complex)
    d = np.empty((1, n - 1), dtype=complex)
    an = al[n - 1]
    # verifier-pinned prefactors: -1 on C, +1 on D
    for i in range(n - 1):
        ai = al[i]
        c[i, 0] = (-e_of((r2 - ai - an) / 2)
                   * bp(0, 1, r2 - ai) / bp(1, 0, r2 - an)
                   * gamma_ratio([-ai, an + 1]
                                 + [1 + al[k] - ai for k in range(n - 1) if k != i],
                                 [1 + r - ai for r in rho]))
    for j in range(n - 1):
        aj = al[j]
        d[0, j] = (e_of((-r2 + aj + an) / 2)
                   * bp(1, 0, r2 - an) / bp(0, 1, r2 - aj)
                   * gamma_ratio([1 + aj, -an]
                                 + [aj - al[k] for k in range(n - 1) if k != j],
                                 [aj - r for r in rho]))
    return ConnectionData({(0, 1): c, (1, 0): d}, cfg, spec.blocks.sizes)


def _connection_type_Istar(spec, cfg, istar_sign):
    if istar_sign not in ("theorem", "derivation"):
        raise ShapeError("istar_sign must be 'theorem' or 'derivation'")
    n, al = spec.n, spec.alpha
    r1 = spec.rho[0]
    bp = lambda i, j, x: branch_power(i, j, x, cfg)
    mats = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if istar_sign == "theorem":
                half = e_of(-r1 / 2) if i < j else e_of(r1 / 2)
            else:
                half = e_of(r1 / 2) if i < j else e_of(-r1 / 2)
            val = (-half
                   * math.prod(bp(i, k, al[k] - r1) for k in range(n) if k != i)
                   / math.prod(bp(j, k, al[k] - r1) for k in range(n) if k != j)
                   * gamma_ratio([-al[i], al[j] + 1],
                                 [al[j] - r1, 1 + r1 - al[i]]))
            mats[(i, j)] = np.array([[val]], dtype=complex)
    return ConnectionData(mats, cfg, spec.blocks.sizes)


def _connection_type_II_III(spec, cfg):
    kind, n = spec.kind, spec.n
    al, be = spec.alpha, spec.beta
    m = len(al)
    rho = spec.rho
    r1 = rho[0]
    r2 = rho[1] if len(rho) == 3 else 0.0   # absent slot of (II)_2
    r3 = rho[-1]
    bp = lambda i, j, x: branch_power(i, j, x, cfg)
    c = np.empty((m, n), dtype=complex)
    d = np.empty((n, m), dtype=complex)
    for i in range(m):
        for j in range(n):
            ai, bj = al[i], be[j]
            if kind == "II":
                head_den = [1 + r1 - ai, bj - r1]
            else:
                head_den = [1 + r1 - ai, 1 + r2 - ai]
            c[i, j] = (-e_of((r3 - ai - bj) / 2)
                       * bp(0, 1, r3 - ai) / bp(1, 0, r3 - bj)
                       * gamma_ratio(
                           [bj + 1, -ai]
                           + [1 + al[k] - ai for k in range(m) if k != i]
                           + [bj - be[k] for k in range(n) if k != j],
                           head_den
                           + [1 + r1 + r2 - ai - be[k]
                              for k in range(n) if k != j]
                           + [bj + al[k] - r1 - r2 for k in range(m) if k != i]))
    for i in range(n):
        for j in range(m):
            bi, aj = be[i], al[j]
            if kind == "II":
                head_den = [aj - r1, 1 + r1 - bi]
            else:
                head_den = [aj - r1, aj - r2]
            d[i, j] = (-e_of((aj + bi - r3) / 2)
                       * bp(1, 0, r3 - bi) / bp(0, 1, r3 - aj)
                       * gamma_ratio(
                           [-bi, aj + 1]
                           + [aj - al[k] for k in range(m) if k != j]
                           + [1 + be[k] - bi for k in range(n) if k != i],
                           head_den
                           + [aj + be[k] - r1 - r2 for k in range(n) if k != i]
                           + [1 + r1 + r2 - al[k] - bi
                              for k in range(m) if k != j]))
    return ConnectionData({(0, 1): c, (1, 0): d}, cfg, spec.blocks.sizes)


# ---------------------------------------------------------------------------
# monodromy from connection data

def assemble_monodromy(conn: ConnectionData, spec: YokoyamaSpec) -> MonodromyTuple:
    """M_k = identity outside block row k, e(A_kk) on the diagonal block and
    (e(A_kk) - 1) C^(kj) elsewhere in the row."""
    blocks = spec.blocks
    n = blocks.n
    exps = spec.local_exponents()
    mats = []
    for k in range(blocks.r):
        mk = np.eye(n, dtype=complex)
        ek = np.diag([e_of(a) for a in exps[k]])
        sl_k = blocks.block_slice(k)
        mk[sl_k, sl_k] = ek
        fac = ek - np.eye(blocks.sizes[k])
        for j in range(blocks.r):
            if j == k:
                continue
            ckj = conn.matrices.get((k, j))
            if ckj is None:
                raise ShapeError(f"connection block ({k},{j}) missing")
            if ckj.shape != (blocks.sizes[k], blocks.sizes[j]):
                raise ShapeError(f"connection block ({k},{j}) has wrong shape")
            mk[sl_k, blocks.block_slice(j)] = fac @ ckj
        mats.append(mk)
    return MonodromyTuple(matrices=tuple(mats), config=conn.config,
                          blocks=blocks)


# ---------------------------------------------------------------------------
# regularized beta

def regularized_beta(a, beta, tol: float = 1e-10) -> np.ndarray:
    """(e(A) - 1)(e(beta) - 1) B(A, beta) for a diagonal(izable) matrix A,
    computed entrywise on the eigenvalues."""
    a = np.asarray(a, dtype=complex)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    beta = complex(beta)

    def scalar(x):
        return ((e_of(x) - 1.0) * (e_of(beta) - 1.0)
                * gamma_c(x) * gamma_c(beta) / gamma_c(x + beta))

    off = a - np.diag(np.diag(a))
    if np.max(np.abs(off), initial=0.0) <= tol * max(1.0, np.max(np.abs(a))):
        return np.diag([scalar(x) for x in np.diag(a)])
    w, v = np.linalg.eig(a)
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond > 1e10:
        raise NonDiagonalizable("matrix argument is (nearly) defective")
    return v @ np.diag([scalar(x) for x in w]) @ np.linalg.inv(v)


# ---------------------------------------------------------------------------
# determinant formula

def okubo_determinant(spec: YokoyamaSpec, x, cfg: PathConfig | None = None) -> complex:
    """Closed-form det Psi(x): gamma prefactor times the branch-tracked
    powers prod_k (x - t_k)^(sum_j alpha^(k)_j).

    The branch of arg(x - t_k) continues theta_k along the straight segment
    from the base point, matching the numeric determinant's continuation.
    """
    if cfg is None:
        cfg = default_config(spec.points)
    x = complex(x)
    exps = spec.local_exponents()
    rhos = spec.rho_list()
    for r in rhos:
        if abs(r.imag) < 1e-12 and r.real <= 0 and abs(r.real - round(r.real)) < 1e-12:
            raise PoleError("rho_i in Z_<=0: canonical matrix is singular")
    num = sum(lgamma_c(1 + a) for row in exps for a in row)
    den = sum(lgamma_c(1 + r) for r in rhos)
    out = cmath.exp(num - den)
    for k, t in enumerate(spec.points):
        if x == t:
            raise ShapeError("x must avoid the singular points")
        arg = cfg.thetas[k] + cmath.phase((x - t) / (cfg.base_point - t))
        logp = math.log(abs(x - t)) + 1j * arg
        out *= cmath.exp(sum(exps[k]) * logp)
    return out


# ---------------------------------------------------------------------------
# recurrence engine (gamma-product transport of connection data)

@dataclass
class RecurrenceState:
    """Connection matrices plus the diagonal local exponents carried along a
    construction chain.  Exponents are per block, in block order."""

    exponents: list            # list of complex 1-d arrays
    conn: dict                 # (i, j) -> matrix (may contain NaN marks)
    cfg: PathConfig

    def copy(self):
        return RecurrenceState(
            exponents=[np.array(e) for e in self.exponents],
            conn={k: np.array(v) for k, v in self.conn.items()},
            cfg=self.cfg,
        )


def recurrence_step(state: RecurrenceState, k: int, c, rho) -> RecurrenceState:
    """One mc-with-additions step at block k with parameters (c, rho).

    Transports every C_(ij) with i, j != k and the (k1)-indexed families by
    the gamma-product recurrences; the new (k2) row and column cannot be
    written as gamma products and are returned as NaN (symmetry fills them).
    """
    c, rho = complex(c), complex(rho)
    cfg = state.cfg
    s = rho + c
    r = len(state.exponents)
    exps = state.exponents
    bp = lambda i, j, x: branch_power(i, j, x, cfg)

    def left(i, vec):
        return np.array([gamma_ratio([s - a], [-a]) for a in vec])

    def right_j(vec):
        return np.array([gamma_ratio([a - s + 1], [a + 1]) for a in vec])

    new_conn = {}
    for (i, j), mat in state.conn.items():
        if i == k or j == k:
            continue
        half = e_of(-s / 2) if j < i else e_of(s / 2)
        fac = bp(i, k, s) / bp(j, k, s) * half
        new_conn[(i, j)] = (fac * left(i, exps[i])[:, None] * mat
                            * right_j(exps[j])[None, :])
    for (i, j), mat in state.conn.items():
        if j == k and i != k:
            half = e_of(s / 2) if i < k else e_of(-s / 2)
            fac = bp(i, k, s) * half
            col = np.array([gamma_ratio([a - rho], [a + c]) for a in exps[k]])
            old = fac * left(i, exps[i])[:, None] * mat * col[None, :]
            new = np.full((len(exps[i]), len(exps[k]) + 1), np.nan,
                          dtype=complex)
            new[:, :len(exps[k])] = old
            new_conn[(i, k)] = new
        elif i == k and j != k:
            # sign pinned against the numeric monodromy: a leading minus in
            # this transport would make the chains alternate against the
            # verified closed forms
            half = e_of(-s / 2) if j < k else e_of(s / 2)
            fac = bp(j, k, -s) * half
            row = np.array([gamma_ratio([1 + rho - a], [1 - a - c])
                            for a in exps[k]])
            old = fac * row[:, None] * mat * right_j(exps[j])[None, :]
            new = np.full((len(exps[k]) + 1, len(exps[j])), np.nan,
                          dtype=complex)
            new[:len(exps[k]), :] = old
            new_conn[(k, j)] = new

    new_exps = []
    for i in range(r):
        if i == k:
            new_exps.append(np.concatenate([exps[k], [rho]]))
        else:
            new_exps.append(exps[i] - s)
    return RecurrenceState(exponents=new_exps, conn=new_conn, cfg=cfg)


# ---------------------------------------------------------------------------
# initial data and chains

def initial_connection(alpha1, alpha2, rho1, cfg: PathConfig) -> dict:
    """The four rank-2 seeds: C1/D1 for the canonical (I)_2 gauge and
    C11/D11 for the (II)_2 (hypergeometric) gauge.
    """
    a1, b1, r1 = complex(alpha1), complex(alpha2), complex(rho1)
    r2 = a1 + b1 - r1
    bp = lambda i, j, x: branch_power(i, j, x, cfg)
    c1 = (-e_of(-r1 / 2) * bp(0, 1, r2 - a1) / bp(1, 0, a1 - r1)
          * gamma_ratio([-a1, b1 + 1], [1 + r2 - a1, 1 + r1 - a1]))
    d1 = (e_of(r1 / 2) * bp(1, 0, a1 - r1) / bp(0, 1, b1 - r1)
          * gamma_ratio([-b1, a1 + 1], [a1 - r1, a1 - r2]))
    c11 = (-e_of(-r1 / 2) * bp(0, 1, b1 - r1) / bp(1, 0, a1 - r1)
           * gamma_ratio([-a1, b1 + 1], [b1 - r1, 1 + r1 - a1]))
    d11 = (-e_of(r1 / 2) * bp(1, 0, a1 - r1) / bp(0, 1, b1 - r1)
           * gamma_ratio([-b1, a1 + 1], [a1 - r1, 1 + r1 - b1]))
    return {"C1": c1, "D1": d1, "C11": c11, "D11": d11}


def chain_connection(spec: YokoyamaSpec, cfg: PathConfig | None = None) -> RecurrenceState:
    """Transport the rank-2 initial data along the construction chain of the
    spec; entries the recurrences cannot reach stay NaN."""
    from .yokoyama import _descend

    if cfg is None:
        cfg = default_config(spec.points)
    if spec.kind == "I*":
        raise ShapeError("type I* has no recurrence chain")
    chain = _descend(spec)
    base = chain[0]["spec"]
    if base.kind == "I":
        seed = initial_connection(base.alpha[0], base.alpha[1], base.rho[0], cfg)
        c0 = np.array([[seed["C1"]]])
        d0 = np.array([[seed["D1"]]])
        exps = [np.array([base.alpha[0]]), np.array([base.alpha[1]])]
    else:
        seed = initial_connection(base.alpha[0], base.beta[0], base.rho[0], cfg)
        c0 = np.array([[seed["C11"]]])
        d0 = np.array([[seed["D11"]]])
        exps = [np.array([base.alpha[0]]), np.array([base.beta[0]])]
    state = RecurrenceState(exponents=exps, conn={(0, 1): c0, (1, 0): d0},
                            cfg=cfg)
    for entry in chain[1:]:
        state = recurrence_step(state, entry["k"], entry["c"], entry["rho"])
    return state


def recurrence_connection(spec: YokoyamaSpec,
                          cfg: PathConfig | None = None) -> ConnectionData:
    """All connection matrices from the recurrences plus symmetry: the
    (i, j) entry is the leading entry of the chain run on the spec with
    exponent 1 <-> i (and 1 <-> j) exchanged."""
    if cfg is None:
        cfg = default_config(spec.points)
    state = chain_connection(spec, cfg)
    conn = ConnectionData(state.conn, cfg, spec.blocks.sizes)
    return symmetry_extend(conn, spec, cfg)


def symmetry_extend(conn: ConnectionData, spec: YokoyamaSpec,
                    cfg: PathConfig | None = None) -> ConnectionData:
    """Fill every entry by re-evaluating the index-1 recurrence chain with
    exponents swapped (the permutation-matrix symmetry of the canonical
    forms); entries the chain reached directly are kept verbatim."""
    if cfg is None:
        cfg = conn.config
    kind = spec.kind
    if kind == "I*":
        raise ShapeError("type I* connection comes from its closed form")
    blocks = spec.blocks.sizes
    c_shape = (blocks[0], blocks[1])
    d_shape = (blocks[1], blocks[0])
    c = np.full(c_shape, np.nan, dtype=complex)
    d = np.full(d_shape, np.nan, dtype=complex)
    if kind == "I":
        for i in range(c_shape[0]):
            sw = swap_spec(spec, "alpha", 0, i)
            st = chain_connection(sw, cfg)
            c[i, 0] = st.conn[(0, 1)][0, 0]
            d[0, i] = st.conn[(1, 0)][0, 0]
    else:
        for i in range(c_shape[0]):
            for j in range(c_shape[1]):
                sw = swap_spec(swap_spec(spec, "alpha", 0, i), "beta", 0, j)
                st = chain_connection(sw, cfg)
                c[i, j] = st.conn[(0, 1)][0, 0]
                d[j, i] = st.conn[(1, 0)][0, 0]
    existing = conn.matrices
    for key, new in (((0, 1), c), ((1, 0), d)):
        old = existing.get(key)
        if old is not None and old.shape == new.shape:
            mask = ~np.isnan(old)
            new[mask] = old[mask]
    return ConnectionData({(0, 1): c, (1, 0): d}, cfg, blocks)
