"""Katz operations: addition, convolution, K-/L-reduction, middle
convolution, and the combined "middle convolution with additions at one
singular point" for Okubo systems and their monodromy tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    BlockStructure,
    KernelError,
    MonodromyTuple,
    OkuboSystem,
    RankError,
    SchlesingerSystem,
    ShapeError,
    SingularBlock,
    StructureError,
    ZeroScalar,
    as_cmatrix,
    matrix_scale,
    matrix_to_json,
    numerical_rank,
    rank_factorization,
    right_inverse,
)

KERNEL_TOL = 1e-8
FACTOR_TOL = 1e-9


# ---------------------------------------------------------------------------
# witnesses

@dataclass
class ReductionWitness:
    """Factors recorded while performing a middle convolution."""

    parameter: complex                 # mu (additive) or lambda (multiplicative)
    factors_p: list = field(default_factory=list)   # per-point P_k
    factors_q: list = field(default_factory=list)   # per-point Q_k
    ranks: list = field(default_factory=list)       # n_k = rank of A_k / M_k - 1
    p0: np.ndarray | None = None
    q0: np.ndarray | None = None
    m: int = 0                          # rank of the L-reduction

    def to_json(self) -> dict:
        return {
            "parameter": [complex(self.parameter).real, complex(self.parameter).imag],
            "ranks": list(self.ranks),
            "m": self.m,
            "tol": FACTOR_TOL,
            "P": [matrix_to_json(p) for p in self.factors_p],
            "Q": [matrix_to_json(q) for q in self.factors_q],
            "P0": matrix_to_json(self.p0) if self.p0 is not None else None,
            "Q0": matrix_to_json(self.q0) if self.q0 is not None else None,
        }


@dataclass
class McAddWitness:
    """Rank-complement factors for a mc-with-additions step."""

    k: int
    c: complex | None = None           # additive parameters ...
    rho: complex | None = None
    s: complex | None = None           # ... or multiplicative ones
    lam: complex | None = None
    xi: np.ndarray | None = None       # stacked (n - n_k) x l
    eta: np.ndarray | None = None      # stacked l x (n - n_k)

    def to_json(self) -> dict:
        def c2(v):
            return None if v is None else [complex(v).real, complex(v).imag]

        def m2(v):
            return None if v is None else matrix_to_json(v)

        return {
            "k": self.k,
            "c": c2(self.c), "rho": c2(self.rho),
            "s": c2(self.s), "lambda": c2(self.lam),
            "xi": m2(self.xi), "eta": m2(self.eta),
        }


# ---------------------------------------------------------------------------
# additions

def add_system(sys: SchlesingerSystem, a) -> SchlesingerSystem:
    """add_a: shift each residue A_k by the scalar a_k."""
    if len(a) != sys.r:
        raise ShapeError("need one shift per singular point")
    eye = np.eye(sys.n, dtype=complex)
    return SchlesingerSystem(
        points=sys.points,
        residues=tuple(ak + complex(sk) * eye for ak, sk in zip(sys.residues, a)),
    )


def add_monodromy(mon: MonodromyTuple, lams) -> MonodromyTuple:
    """Add_lambda: scale each monodromy matrix by the nonzero scalar lambda_k."""
    if len(lams) != mon.r:
        raise ShapeError("need one scalar per matrix")
    if any(complex(l) == 0 for l in lams):
        raise ZeroScalar("addition scalars must be nonzero")
    return MonodromyTuple(
        matrices=tuple(complex(l) * m for l, m in zip(lams, mon.matrices)),
        blocks=mon.blocks,
    )


# ---------------------------------------------------------------------------
# middle convolution of a Schlesinger system (three steps)

def convolve_system(sys: SchlesingerSystem, mu) -> OkuboSystem:
    """c_mu: the dimension-nr Okubo system with B_k zero outside block row k.

    The reference for c_mu: ``middle_convolution_system`` never forms it,
    since its K-reduction needs only the residues' rank factors."""
    n, r = sys.n, sys.r
    mu = complex(mu)
    b = np.zeros((n * r, n * r), dtype=complex)
    for i in range(r):
        for j in range(r):
            blk = sys.residues[j].copy()
            if i == j:
                blk += mu * np.eye(n)
            b[i * n:(i + 1) * n, j * n:(j + 1) * n] = blk
    return OkuboSystem(
        blocks=BlockStructure((n,) * r), points=sys.points, A=b
    )


def _rank_factors(mats):
    """Rank factors (P_k, Q_k, n_k) of each matrix, as three lists."""
    ps, qs, ranks = [], [], []
    for a in mats:
        p, q, rk = rank_factorization(a, FACTOR_TOL)
        ps.append(p)
        qs.append(q)
        ranks.append(rk)
    return ps, qs, ranks


def k_reduce_system(sys: SchlesingerSystem,
                    w: ReductionWitness) -> SchlesingerSystem:
    """K-reduction of c_mu(sys): blocks Q_i P_j + mu delta_ij on the
    nonzero ranks, from the rank factors A_i = P_i Q_i in ``w``."""
    r = sys.r
    if len(w.factors_p) != r or len(w.factors_q) != r:
        raise ShapeError("witness factor count does not match the system")
    n = sys.n
    for p, q, rk in zip(w.factors_p, w.factors_q, w.ranks):
        if p.shape != (n, rk) or q.shape != (rk, n):
            raise ShapeError("witness factor shapes inconsistent with ranks")
    mu = complex(w.parameter)
    keep = [i for i in range(r) if w.ranks[i] > 0]
    nt = sum(w.ranks)
    bt = np.zeros((nt, nt), dtype=complex)
    offs = np.concatenate([[0], np.cumsum([w.ranks[i] for i in keep])])
    for a, i in enumerate(keep):
        for b_, j in enumerate(keep):
            blk = w.factors_q[i] @ w.factors_p[j]
            if i == j:
                blk += mu * np.eye(w.ranks[i])
            bt[offs[a]:offs[a + 1], offs[b_]:offs[b_ + 1]] = blk
    # residues of the K-reduced Schlesinger system (block rows of bt),
    # reported for every original point; dropped blocks give zero residues
    residues = []
    for i in range(r):
        res = np.zeros((nt, nt), dtype=complex)
        if w.ranks[i] > 0:
            a = keep.index(i)
            res[offs[a]:offs[a + 1], :] = bt[offs[a]:offs[a + 1], :]
        residues.append(res)
    return SchlesingerSystem(points=sys.points, residues=tuple(residues))


def l_reduce_system(ksys: SchlesingerSystem):
    """L-reduction: B-hat_k = Q_0 E_k P_0 from B-tilde = P_0 Q_0.

    Returns (SchlesingerSystem, (P0, Q0, m)); RankError when Q0 has no
    right inverse.
    """
    bt = sum(ksys.residues)
    p0, q0, m = rank_factorization(bt, FACTOR_TOL)
    res = matrix_scale(bt - p0 @ q0)
    if res > 1e-8 * max(1.0, matrix_scale(bt)):
        raise RankError(f"L-reduction factor residual too large: {res}")
    right_inverse(q0)             # raises RankError if Q0 has none
    residues = []
    for a in ksys.residues:
        # E_k selects the rows where residue k lives (its nonzero block row)
        rows = np.any(a != 0, axis=1)
        ek_p0 = np.where(rows[:, None], p0, 0.0)
        residues.append(q0 @ ek_p0)
    return (
        SchlesingerSystem(points=ksys.points, residues=tuple(residues)),
        (p0, q0, m),
    )


def middle_convolution_system(sys: SchlesingerSystem, mu):
    """mc_mu: K-reduction of the convolution c_mu, straight from the
    residues' rank factors, then L-reduction; returns (system, witness)."""
    mu = complex(mu)
    ps, qs, ranks = _rank_factors(sys.residues)
    w = ReductionWitness(parameter=mu, factors_p=ps, factors_q=qs,
                         ranks=ranks)
    lsys, (w.p0, w.q0, w.m) = l_reduce_system(k_reduce_system(sys, w))
    return lsys, w


# ---------------------------------------------------------------------------
# middle convolution of a monodromy tuple

def convolve_monodromy(mon: MonodromyTuple, lam) -> MonodromyTuple:
    """C_lambda: the dimension-nr convolution of a monodromy tuple."""
    lam = complex(lam)
    if lam == 0:
        raise ZeroScalar("convolution parameter must be nonzero")
    n, r = mon.n, mon.r
    eye = np.eye(n, dtype=complex)
    mats = []
    for k in range(r):
        nk = np.eye(n * r, dtype=complex)
        for j in range(r):
            if j < k:
                blk = lam * (mon.matrices[j] - eye)
            elif j == k:
                blk = lam * mon.matrices[k]
            else:
                blk = mon.matrices[j] - eye
            nk[k * n:(k + 1) * n, j * n:(j + 1) * n] = blk
        mats.append(nk)
    return MonodromyTuple(matrices=tuple(mats),
                          blocks=BlockStructure((n,) * r))


def middle_convolution_monodromy(mon: MonodromyTuple, lam):
    """MC_lambda: K-reduction by M_k - 1 = P_k Q_k, then L-reduction by
    N0-tilde = N1-tilde ... Nr-tilde.  Returns (tuple, witness)."""
    lam = complex(lam)
    if lam == 0:
        raise ZeroScalar("convolution parameter must be nonzero")
    n, r = mon.n, mon.r
    eye = np.eye(n, dtype=complex)
    ps, qs, ranks = _rank_factors([m - eye for m in mon.matrices])
    w = ReductionWitness(parameter=lam, factors_p=ps, factors_q=qs,
                         ranks=ranks)
    keep = [i for i in range(r) if ranks[i] > 0]
    nt = sum(ranks)
    offs = np.concatenate([[0], np.cumsum([ranks[i] for i in keep])])
    n_tildes = []
    for pos, k in enumerate(keep):
        nk = np.eye(nt, dtype=complex)
        for pos_j, j in enumerate(keep):
            blk = qs[k] @ ps[j]
            if j < k:
                blk = lam * blk
            elif j == k:
                blk = lam * (blk + np.eye(ranks[k]))
            sl_i = slice(offs[pos], offs[pos + 1])
            sl_j = slice(offs[pos_j], offs[pos_j + 1])
            if j == k:
                nk[sl_i, sl_j] = blk
            else:
                nk[sl_i, sl_j] += blk
        n_tildes.append(nk)
    n0 = np.eye(nt, dtype=complex)
    for nk in n_tildes:
        n0 = n0 @ nk
    p0, q0, m = rank_factorization(n0 - np.eye(nt), FACTOR_TOL)
    s0 = right_inverse(q0) if m > 0 else np.zeros((nt, 0), complex)
    w.p0, w.q0, w.m = p0, q0, m
    reduced = [q0 @ nk @ s0 for nk in n_tildes]
    out = []
    pos = 0
    for i in range(r):
        if ranks[i] > 0:
            out.append(reduced[pos])
            pos += 1
        else:
            out.append(np.eye(m, dtype=complex))
    return MonodromyTuple(matrices=tuple(out)), w


# ---------------------------------------------------------------------------
# rank-one (rank-l) complements: X_ij = X_ik X_kk^{-1} X_kj + xi_i eta_j

def schur_complement(x: np.ndarray, blocks: BlockStructure, k: int):
    """X_oo - X_ok X_kk^{-1} X_ko, with o running over the blocks other
    than k in order (at least one)."""
    idx = np.arange(blocks.n)
    sl_k = blocks.block_slice(k)
    others = np.concatenate([idx[blocks.block_slice(i)]
                             for i in range(blocks.r) if i != k])
    return (x[np.ix_(others, others)]
            - x[np.ix_(others, idx[sl_k])]
            @ np.linalg.solve(x[sl_k, sl_k], x[np.ix_(idx[sl_k], others)]))


def complement_factorization(x, blocks: BlockStructure, k: int):
    """Factor the Schur complement of block k of X as xi eta.

    Returns (xi, eta, l) with xi of shape (n - n_k, l) and eta (l, n - n_k),
    both of maximal rank, l the rank of the complement at FACTOR_TOL.
    Raises SingularBlock if X_kk is singular at tolerance, RankError if
    rank X < n_k.
    """
    x = as_cmatrix(x)
    if x.shape != (blocks.n, blocks.n):
        raise ShapeError("X must match the block structure")
    xkk = x[blocks.block_slice(k), blocks.block_slice(k)]
    scale = max(1.0, matrix_scale(x))
    if numerical_rank(xkk, FACTOR_TOL) < blocks.sizes[k] or \
            np.linalg.svd(xkk, compute_uv=False)[-1] <= FACTOR_TOL * scale:
        raise SingularBlock(f"X_kk singular at tolerance for k={k}")
    if numerical_rank(x, FACTOR_TOL) < blocks.sizes[k]:
        raise RankError("rank X < n_k")
    if blocks.r == 1:
        return (np.zeros((0, 0), complex), np.zeros((0, 0), complex), 0)
    schur = schur_complement(x, blocks, k)
    xi, eta, l = rank_factorization(schur, FACTOR_TOL)
    res = matrix_scale(schur - xi @ eta)
    if res > FACTOR_TOL * scale:
        raise RankError(f"complement factorization residual {res}")
    return xi, eta, l


def _grown_layout(blocks: BlockStructure, k: int, l: int):
    """Layout of a mc-with-additions step at block k with complement rank l.

    Returns (new blocks, with block k grown to n_k + l; the slice of the old
    n_k and of the new l rows of block k in them; and {i: slice of block i
    in the rows of xi and the columns of eta}, which skip block k).
    """
    nk = blocks.sizes[k]
    sizes = list(blocks.sizes)
    sizes[k] = nk + l
    new_blocks = BlockStructure(tuple(sizes))
    ko = new_blocks.offset(k)
    others, pos = {}, 0
    for i in range(blocks.r):
        if i != k:
            others[i] = slice(pos, pos + blocks.sizes[i])
            pos += blocks.sizes[i]
    return new_blocks, slice(ko, ko + nk), slice(ko + nk, ko + nk + l), others


# ---------------------------------------------------------------------------
# middle convolution with additions at a singular point (system version)

def mc_add_system(sys: OkuboSystem, k: int, c, rho, xi_eta=None):
    """add_(0..rho..0) o mc_(-rho-c) o add_(0..c..0) at point k, assembled
    directly in Okubo form.  Returns (OkuboSystem, McAddWitness).

    ``xi_eta`` optionally supplies the rank-complement factors (used to pin
    the gauge when reproducing canonical forms); by default they come from
    :func:`complement_factorization`.
    """
    c, rho = complex(c), complex(rho)
    blocks, a = sys.blocks, sys.A
    n, r = blocks.n, blocks.r
    if not 0 <= k < r:
        raise ShapeError(f"block index k={k} out of range")
    scale = max(1.0, matrix_scale(a))
    akk = sys.block(k, k)
    # A_k is zero outside block row k, so det(A_k + c) = c^(n - n_k)
    # det(A_kk + c): the kernel is trivial iff c != 0 and -c is no
    # eigenvalue of A_kk
    bound = KERNEL_TOL * max(1.0, matrix_scale(akk))
    eig_gap = float(np.min(np.abs(np.linalg.eigvals(akk) + c)))
    for name, gap in (("|c|", abs(c)), ("min|eig(A_kk) + c|", eig_gap)):
        if gap <= bound:
            raise KernelError(f"Ker(A_k + c) != 0: {name} = {gap:.3e} "
                              f"<= {bound:.3e}")
    if np.linalg.svd(akk - rho * np.eye(blocks.sizes[k]),
                     compute_uv=False)[-1] <= KERNEL_TOL * scale:
        raise KernelError("Ker(A_kk - rho) != 0")

    if xi_eta is None:
        xi, eta, l = complement_factorization(a - rho * np.eye(n), blocks, k)
    else:
        xi, eta = (as_cmatrix(xi_eta[0]), as_cmatrix(xi_eta[1]))
        l = xi.shape[1]
        if eta.shape[0] != l or xi.shape[0] != n - blocks.sizes[k] \
                or eta.shape[1] != n - blocks.sizes[k]:
            raise ShapeError("supplied xi/eta have inconsistent shapes")

    nk = blocks.sizes[k]
    new_blocks, sl_ko, sl_kn, others = _grown_layout(blocks, k, l)
    amc = np.zeros((n + l, n + l), dtype=complex)
    akk_rho_inv = np.linalg.inv(akk - rho * np.eye(nk))

    def ns(i):   # new slice of block i
        return new_blocks.block_slice(i)

    for i in range(r):
        for j in range(r):
            if i == k or j == k:
                continue
            blk = sys.block(i, j).astype(complex)
            if i == j:
                blk = blk - (rho + c) * np.eye(blocks.sizes[i])
            amc[ns(i), ns(j)] = blk
    for i in range(r):
        if i == k:
            continue
        amc[ns(i), sl_ko] = sys.block(i, k) @ (akk + c * np.eye(nk)) @ akk_rho_inv
        if l:
            amc[ns(i), sl_kn] = (rho + c) * xi[others[i]]
    for j in range(r):
        if j == k:
            continue
        amc[sl_ko, ns(j)] = sys.block(k, j)
        if l:
            amc[sl_kn, ns(j)] = eta[:, others[j]]
    amc[sl_ko, sl_ko] = akk
    if l:
        amc[sl_kn, sl_kn] = rho * np.eye(l)

    witness = McAddWitness(k=k, c=c, rho=rho, xi=xi, eta=eta)
    return OkuboSystem(blocks=new_blocks, points=sys.points, A=amc), witness


# ---------------------------------------------------------------------------
# middle convolution with additions (monodromy version)

def is_okubo_type(mon: MonodromyTuple, blocks: BlockStructure,
                  tol: float = 1e-9) -> bool:
    """Each M_i equals the identity outside its block row i."""
    if blocks.n != mon.n or blocks.r != mon.r:
        return False
    eye = np.eye(mon.n, dtype=complex)
    for i, m in enumerate(mon.matrices):
        mask = np.ones((mon.n, mon.n), dtype=bool)
        mask[blocks.block_slice(i), :] = False
        if matrix_scale(np.where(mask, m - eye, 0.0)) > tol:
            return False
    return True


def mc_add_monodromy(mon: MonodromyTuple, blocks: BlockStructure, k: int,
                     s, lam):
    """Add_(1..1/lam..1) o MC_(lam/s) o Add_(1..s..1) on an Okubo-type tuple,
    assembled directly in Okubo-type form.  Returns (tuple, witness).

    The (k2) blocks for r > 2 are validated numerically only (r = 2 covers
    all canonical chains).
    """
    s, lam = complex(s), complex(lam)
    if s == 0 or lam == 0:
        raise ZeroScalar("s and lambda must be nonzero")
    if not is_okubo_type(mon, blocks):
        raise StructureError("input tuple is not of Okubo type")
    n, r = mon.n, mon.r
    if not 0 <= k < r:
        raise ShapeError(f"block index k={k} out of range")
    nk = blocks.sizes[k]

    m0k = lam * np.eye(n, dtype=complex)
    for j in range(k + 1, r):
        m0k = m0k @ mon.matrices[j]
    for j in range(0, k + 1):
        m0k = m0k @ mon.matrices[j]

    x = m0k - np.eye(n)
    sl_k = blocks.block_slice(k)
    xkk = x[sl_k, sl_k]
    scale = max(1.0, matrix_scale(x))
    if np.linalg.svd(xkk, compute_uv=False)[-1] <= KERNEL_TOL * scale:
        raise SingularBlock("M^(k)_kk - 1 singular at tolerance")
    xi, eta, l = complement_factorization(x, blocks, k)

    new_blocks, sl_ko, sl_kn, others = _grown_layout(blocks, k, l)
    nm = n + l
    xkk_inv = np.linalg.inv(xkk)
    m0k_inv = np.linalg.inv(m0k)

    def mij(i, j):
        return mon.matrices[i][blocks.block_slice(i), blocks.block_slice(j)]

    def m0k_blk(i, j):
        return m0k[blocks.block_slice(i), blocks.block_slice(j)]

    def m0k_inv_blk(i, j):
        return m0k_inv[blocks.block_slice(i), blocks.block_slice(j)]

    mats = []
    for i in range(r):
        mi = np.eye(nm, dtype=complex)
        sl_new_i = new_blocks.block_slice(i)
        if i == k:
            # two block rows: (k-old) and (k-new)
            for j in range(r):
                if j == k:
                    continue
                fac = lam / s if j < k else 1.0
                mi[sl_ko, new_blocks.block_slice(j)] = fac * mij(k, j)
                fac2 = 1.0 / s if j < k else 1.0 / lam
                if l:
                    mi[sl_kn, new_blocks.block_slice(j)] = \
                        fac2 * eta[:, others[j]]
            mi[sl_ko, sl_ko] = mij(k, k)
            mi[sl_ko, sl_kn] = 0.0
            if l:
                mi[sl_kn, sl_ko] = 0.0
                mi[sl_kn, sl_kn] = (1.0 / lam) * np.eye(l)
        else:
            for j in range(r):
                if j == k:
                    continue
                fac = lam / s if j <= i else 1.0
                mi[sl_new_i, new_blocks.block_slice(j)] = fac * mij(i, j)
            corr = (m0k_blk(k, k) - (lam / s) * np.eye(nk)) @ xkk_inv
            if i < k:
                mi[sl_new_i, sl_ko] = (s / lam) * mij(i, k) @ corr
                if l:
                    acc = -xi[others[i]]
                    for j in range(i + 1, k):
                        acc = acc + mij(i, j) @ xi[others[j]]
                    mi[sl_new_i, sl_kn] = (1.0 - s / lam) * acc
            else:
                mi[sl_new_i, sl_ko] = mij(i, k) @ corr
                if l:
                    acc = np.zeros((blocks.sizes[i], l), dtype=complex)
                    for j in range(k + 1, i + 1):
                        inner = np.zeros((blocks.sizes[j], l), dtype=complex)
                        for p in range(r):
                            if p != k:
                                inner = inner + (m0k_inv_blk(j, p)
                                                 @ xi[others[p]])
                        acc = acc + mij(i, j) @ inner
                    mi[sl_new_i, sl_kn] = lam * (1.0 - lam / s) * acc
        mats.append(mi)

    witness = McAddWitness(k=k, s=s, lam=lam, xi=xi, eta=eta)
    out = MonodromyTuple(matrices=tuple(mats), blocks=new_blocks)
    return out, witness
