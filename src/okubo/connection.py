"""Closed-form connection coefficients and monodromy matrices for the four
canonical types, the gamma-product recurrence engine, Okubo's determinant
formula, and the regularized beta factors.

Sign conventions.  The overall signs and a few index patterns of these
gamma-product formulas admit more than one plausible normalization; every
choice here was adjudicated entrywise against the numerical monodromy of
the canonical systems (module ``verify``) at several sizes and random
generic exponents, the type I* half-period convention included.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    POLE_TOL,
    MonodromyTuple,
    NonDiagonalizable,
    PathConfig,
    PoleError,
    ShapeError,
    _is_nonpositive_integer,
    branch_power,
    check_segment,
    e_of,
    gamma_c,
    gamma_ratio,
    lgamma_c,
)
from .yokoyama import YokoyamaSpec, swap_spec


# ---------------------------------------------------------------------------
# closed forms (verifier-adjudicated normalization)

def closed_form_connection(spec: YokoyamaSpec, cfg: PathConfig) -> dict:
    """Every connection matrix C^(kj), k != j, as {(k, j): matrix}, from
    the gamma-product formulas."""
    spec.check_genericity()
    kind = spec.kind
    if kind == "I":
        return _connection_type_I(spec, cfg)
    if kind == "I*":
        return _connection_type_Istar(spec, cfg)
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
    return {(0, 1): c, (1, 0): d}


def _connection_type_Istar(spec, cfg):
    # half-period e(-rho_1/2) on i < j: the numeric monodromy rejects the
    # opposite assignment by more than 1e-2
    n, al = spec.n, spec.alpha
    r1 = spec.rho[0]
    bp = lambda i, j, x: branch_power(i, j, x, cfg)
    mats = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            half = e_of(-r1 / 2) if i < j else e_of(r1 / 2)
            val = (-half
                   * math.prod(bp(i, k, al[k] - r1) for k in range(n) if k != i)
                   / math.prod(bp(j, k, al[k] - r1) for k in range(n) if k != j)
                   * gamma_ratio([-al[i], al[j] + 1],
                                 [al[j] - r1, 1 + r1 - al[i]]))
            mats[(i, j)] = np.array([[val]], dtype=complex)
    return mats


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
    return {(0, 1): c, (1, 0): d}


# ---------------------------------------------------------------------------
# monodromy from connection data

def assemble_monodromy(conn: dict, spec: YokoyamaSpec) -> MonodromyTuple:
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
            ckj = conn.get((k, j))
            if ckj is None:
                raise ShapeError(f"connection block ({k},{j}) missing")
            if ckj.shape != (blocks.sizes[k], blocks.sizes[j]):
                raise ShapeError(f"connection block ({k},{j}) has wrong shape")
            mk[sl_k, blocks.block_slice(j)] = fac @ ckj
        mats.append(mk)
    return MonodromyTuple(matrices=tuple(mats), blocks=blocks)


# ---------------------------------------------------------------------------
# regularized beta

def regularized_beta(a, beta) -> np.ndarray:
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
    if np.max(np.abs(off), initial=0.0) <= 1e-10 * max(1.0, np.max(np.abs(a))):
        return np.diag([scalar(x) for x in np.diag(a)])
    w, v = np.linalg.eig(a)
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond > 1e10:
        raise NonDiagonalizable("matrix argument is (nearly) defective")
    return v @ np.diag([scalar(x) for x in w]) @ np.linalg.inv(v)


# ---------------------------------------------------------------------------
# determinant formula

def okubo_determinant(spec: YokoyamaSpec, x, cfg: PathConfig) -> complex:
    """Closed-form det Psi(x): gamma prefactor times the branch-tracked
    powers prod_k (x - t_k)^(sum_j alpha^(k)_j), arg(x - t_k) continued from
    theta_k along the segment p0 -> x (check_segment rejects a t_k on it),
    the branch numeric_determinant takes."""
    x = complex(x)
    check_segment(spec.points, cfg.base_point, x)
    exps = spec.local_exponents()
    rhos = spec.rho_list()
    for r in rhos:
        if _is_nonpositive_integer(r, POLE_TOL):
            raise PoleError("rho_i in Z_<=0: canonical matrix is singular")
    num = sum(lgamma_c(1 + a) for row in exps for a in row)
    den = sum(lgamma_c(1 + r) for r in rhos)
    out = cmath.exp(num - den)
    for k, t in enumerate(spec.points):
        arg = cfg.thetas[k] + cmath.phase((x - t) / (cfg.base_point - t))
        logp = math.log(abs(x - t)) + 1j * arg
        out *= cmath.exp(sum(exps[k]) * logp)
    return out


# ---------------------------------------------------------------------------
# recurrence engine (gamma-product transport of connection data)

@dataclass
class RecurrenceState:
    """The leading entries C = C^(01)_11 and D = C^(10)_11 plus the leading
    local exponent of each of the two blocks, carried along a construction
    chain; no step moves either entry off position (1, 1)."""

    exponents: tuple           # (leading exponent of block 0, of block 1)
    c: complex
    d: complex
    cfg: PathConfig


def recurrence_step(state: RecurrenceState, k: int, c, rho) -> RecurrenceState:
    """One mc-with-additions step at block k with parameters (c, rho).

    Transports C and D by the gamma-product recurrences: C^(ok) along its
    column and C^(ko) along its row, o being the other block.  Block k keeps
    its leading exponent; those of block o shift by -(rho + c).
    """
    c, rho = complex(c), complex(rho)
    cfg = state.cfg
    s = rho + c
    o = 1 - k
    ao, ak = state.exponents[o], state.exponents[k]
    x_ok, x_ko = (state.c, state.d) if k == 1 else (state.d, state.c)
    half = e_of(s / 2) if o < k else e_of(-s / 2)
    fac = branch_power(o, k, s, cfg) * half
    col = (fac * gamma_ratio([s - ao], [-ao]) * x_ok
           * gamma_ratio([ak - rho], [ak + c]))
    # sign pinned against the numeric monodromy: a leading minus in this
    # transport would make the chains alternate against the verified closed
    # forms
    half = e_of(-s / 2) if o < k else e_of(s / 2)
    fac = branch_power(o, k, -s, cfg) * half
    row = (fac * gamma_ratio([1 + rho - ak], [1 - ak - c]) * x_ko
           * gamma_ratio([ao - s + 1], [ao + 1]))
    if k == 1:
        return RecurrenceState((ao - s, ak), col, row, cfg)
    return RecurrenceState((ak, ao - s), row, col, cfg)


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


def chain_connection(spec: YokoyamaSpec, cfg: PathConfig) -> RecurrenceState:
    """Transport the rank-2 initial data along the construction chain of the
    spec to its leading entries C and D."""
    from .yokoyama import _descend

    chain = _descend(spec)
    base = chain[0]["spec"]
    if base.kind == "I":
        a1, a2, keys = base.alpha[0], base.alpha[1], ("C1", "D1")
    else:
        a1, a2, keys = base.alpha[0], base.beta[0], ("C11", "D11")
    seed = initial_connection(a1, a2, base.rho[0], cfg)
    state = RecurrenceState((a1, a2), seed[keys[0]], seed[keys[1]], cfg)
    for entry in chain[1:]:
        state = recurrence_step(state, entry["k"], entry["c"], entry["rho"])
    return state


def recurrence_connection(spec: YokoyamaSpec, cfg: PathConfig) -> dict:
    """All connection matrices from the recurrences plus symmetry."""
    if spec.kind == "I*":
        raise ShapeError("type I* has no recurrence chain")
    return symmetry_extend(spec, cfg)


def symmetry_extend(spec: YokoyamaSpec, cfg: PathConfig) -> dict:
    """Fill entry (i, j) of C (and (j, i) of D) with the leading entries of
    the chain run on the spec with exponents 1 <-> i (and 1 <-> j)
    exchanged: the permutation-matrix symmetry of the canonical forms."""
    rows, cols = spec.blocks.sizes[0], spec.blocks.sizes[1]
    c = np.empty((rows, cols), dtype=complex)
    d = np.empty((cols, rows), dtype=complex)
    for i in range(rows):
        for j in range(cols):
            sw = swap_spec(spec, "alpha", 0, i)
            if spec.beta:      # types II and III
                sw = swap_spec(sw, "beta", 0, j)
            st = chain_connection(sw, cfg)
            c[i, j], d[j, i] = st.c, st.d
    return {(0, 1): c, (1, 0): d}
