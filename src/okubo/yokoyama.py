"""Canonical Okubo systems of Yokoyama types I, I*, II, III and their
inductive construction by Katz chains from rank-one seeds.

Type sizes follow the classification labels: (I)_n and (I*)_n have rank n,
(II)_2n rank 2n, (III)_2n+1 rank 2n+1.  A spec carries the nontrivial
local exponents (alpha, beta) and the exponents rho at infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    BlockStructure,
    GenericityError,
    OkuboSystem,
    SchlesingerSystem,
    ShapeError,
    complex_to_json,
    schlesinger_to_okubo,
)
from .katz import mc_add_system, middle_convolution_system, schur_complement

KINDS = ("I", "I*", "II", "III")
GENERIC_TOL = 1e-8


def _near_integer(z: complex, tol: float) -> bool:
    z = complex(z)
    return abs(z.imag) <= tol and abs(z.real - round(z.real)) <= tol


@dataclass(frozen=True)
class YokoyamaSpec:
    """Exponent data for one canonical system of type I, I*, II or III."""

    kind: str
    n: int
    alpha: tuple
    beta: tuple = ()
    rho: tuple = ()
    points: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ShapeError(f"unsupported type {self.kind!r}")
        object.__setattr__(self, "alpha", tuple(complex(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(complex(b) for b in self.beta))
        object.__setattr__(self, "rho", tuple(complex(x) for x in self.rho))
        pts = self.points or self._default_points()
        object.__setattr__(self, "points", tuple(complex(t) for t in pts))
        self._check_shapes()

    def _default_points(self):
        if self.kind == "I*":
            return tuple(float(k) for k in range(self.n))
        return (0.0, 1.0)

    def _check_shapes(self):
        k, n = self.kind, self.n
        want = {
            "I": (n, 0, n, 2),
            "I*": (n, 0, 2, n),
            "II": (n, n, 2 if n == 1 else 3, 2),
            "III": (n + 1, n, 3, 2),
        }[k]
        got = (len(self.alpha), len(self.beta), len(self.rho), len(self.points))
        if got != want:
            raise ShapeError(
                f"type ({k})_{self.rank}: expected (alpha,beta,rho,points) "
                f"lengths {want}, got {got}")
        if k in ("I", "I*") and n < 2:
            raise ShapeError(f"type {k} needs n >= 2")
        if n < 1:
            raise ShapeError("size parameter must be positive")

    # -- derived layout ----------------------------------------------------

    @property
    def rank(self) -> int:
        return {"I": self.n, "I*": self.n,
                "II": 2 * self.n, "III": 2 * self.n + 1}[self.kind]

    @property
    def blocks(self) -> BlockStructure:
        if self.kind == "I":
            return BlockStructure((self.n - 1, 1))
        if self.kind == "I*":
            return BlockStructure((1,) * self.n)
        if self.kind == "II":
            return BlockStructure((self.n, self.n))
        return BlockStructure((self.n + 1, self.n))

    def local_exponents(self) -> tuple:
        """Per-block diagonal exponents, in block order."""
        if self.kind == "I":
            return (self.alpha[:-1], (self.alpha[-1],))
        if self.kind == "I*":
            return tuple((a,) for a in self.alpha)
        return (self.alpha, self.beta)

    def rho_profile(self) -> tuple:
        """(rho_i, multiplicity) pairs."""
        n = self.n
        if self.kind == "I":
            return tuple((x, 1) for x in self.rho)
        if self.kind == "I*":
            return ((self.rho[0], n - 1), (self.rho[1], 1))
        if self.kind == "II":
            if n == 1:
                return ((self.rho[0], 1), (self.rho[1], 1))
            return ((self.rho[0], n), (self.rho[1], n - 1), (self.rho[2], 1))
        return ((self.rho[0], n), (self.rho[1], n), (self.rho[2], 1))

    def rho_list(self) -> tuple:
        out = []
        for x, m in self.rho_profile():
            out.extend([x] * m)
        return tuple(out)

    def fuchs_residual(self) -> float:
        lhs = sum(self.alpha) + sum(self.beta)
        rhs = sum(self.rho_list())
        return abs(lhs - rhs)

    # -- genericity --------------------------------------------------------

    def check_genericity(self, tol: float = GENERIC_TOL):
        """Raise GenericityError on any integer exponent or integer
        difference this type assumes away."""
        def chk_not_int(vals, label):
            for v in vals:
                if _near_integer(v, tol):
                    raise GenericityError(f"{label} = {v} is (near) an integer")

        def chk_diffs(vals, label):
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    if _near_integer(vals[i] - vals[j], tol):
                        raise GenericityError(
                            f"{label}_{i + 1} - {label}_{j + 1} is (near) an integer")

        chk_not_int(self.alpha, "alpha")
        chk_not_int(self.beta, "beta")
        chk_not_int(self.rho, "rho")
        if self.kind == "I":
            chk_diffs(self.alpha[:-1], "alpha")
            chk_diffs(self.rho, "rho")
        elif self.kind == "I*":
            chk_diffs(self.rho, "rho")
        else:
            chk_diffs(self.alpha, "alpha")
            chk_diffs(self.beta, "beta")
            chk_diffs(self.rho, "rho")
        if self.fuchs_residual() > 1e-10 * max(1.0, abs(sum(self.rho_list()))):
            raise GenericityError(
                f"Fuchs relation violated by {self.fuchs_residual():.3e}")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "alpha": [complex_to_json(a) for a in self.alpha],
            "beta": [complex_to_json(b) for b in self.beta],
            "rho": [complex_to_json(x) for x in self.rho],
            "points": [complex_to_json(t) for t in self.points],
        }


# ---------------------------------------------------------------------------
# random generic specs

def sample_spec(kind: str, n: int, rng: np.random.Generator,
                points=None) -> YokoyamaSpec:
    """Random generic exponents; imaginary parts kept in [0.1, 0.9] so the
    non-integrality walls stay far away.  The last rho solves Fuchs."""

    def draw(count):
        re = rng.uniform(-0.45, 0.45, count)
        im = rng.uniform(0.1, 0.9, count)
        return [complex(a, b) for a, b in zip(re, im)]

    for _ in range(200):
        if kind == "I":
            alpha = draw(n)
            rho = draw(n - 1)
            rho.append(sum(alpha) - sum(rho))
            spec = YokoyamaSpec("I", n, alpha, (), rho, points or ())
        elif kind == "I*":
            alpha = draw(n)
            rho1 = draw(1)[0]
            rho2 = sum(alpha) - (n - 1) * rho1
            spec = YokoyamaSpec("I*", n, alpha, (), (rho1, rho2), points or ())
        elif kind == "II":
            alpha, beta = draw(n), draw(n)
            if n == 1:
                rho1 = draw(1)[0]
                rho3 = sum(alpha) + sum(beta) - rho1
                spec = YokoyamaSpec("II", n, alpha, beta, (rho1, rho3),
                                    points or ())
            else:
                rho1, rho2 = draw(2)
                rho3 = sum(alpha) + sum(beta) - n * rho1 - (n - 1) * rho2
                spec = YokoyamaSpec("II", n, alpha, beta, (rho1, rho2, rho3),
                                    points or ())
        elif kind == "III":
            alpha, beta = draw(n + 1), draw(n)
            rho1, rho2 = draw(2)
            rho3 = sum(alpha) + sum(beta) - n * rho1 - n * rho2
            spec = YokoyamaSpec("III", n, alpha, beta, (rho1, rho2, rho3),
                                points or ())
        else:
            raise ShapeError(f"unsupported type {kind!r}")
        try:
            spec.check_genericity(tol=0.02)
            return spec
        except GenericityError:
            continue
    raise GenericityError("could not sample a generic spec")


# ---------------------------------------------------------------------------
# canonical forms

def _check_denominator(value, what):
    if abs(value) < 1e-12:
        raise GenericityError(f"vanishing denominator in {what}")
    return value


def canonical_system(spec: YokoyamaSpec) -> OkuboSystem:
    """Assemble the canonical coefficient matrix A entrywise."""
    kind, n = spec.kind, spec.n
    al, be, rho = spec.alpha, spec.beta, spec.rho
    if kind == "I":
        a = np.zeros((n, n), dtype=complex)
        a[:n - 1, :n - 1] = np.diag(al[:n - 1])
        a[n - 1, n - 1] = al[n - 1]
        a[:n - 1, n - 1] = 1.0
        for j in range(n - 1):
            num = math.prod(al[j] - r for r in rho)
            den = _check_denominator(
                math.prod(al[j] - al[k] for k in range(n - 1) if k != j),
                "type I L")
            a[n - 1, j] = -num / den
    elif kind == "I*":
        a = np.empty((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                a[i, j] = al[i] if i == j else al[j] - rho[0]
    elif kind == "II":
        rho1 = rho[0]
        rho2 = rho[1] if n > 1 else 0.0   # unused when n == 1
        a = np.zeros((2 * n, 2 * n), dtype=complex)
        a[:n, :n] = np.diag(al)
        a[n:, n:] = np.diag(be)
        for i in range(n):
            for j in range(n):
                num = (be[j] - rho1) * math.prod(
                    al[k] + be[j] - rho1 - rho2 for k in range(n) if k != i)
                den = _check_denominator(
                    math.prod(be[j] - be[k] for k in range(n) if k != j),
                    "type II K")
                a[i, n + j] = num / den
                num = (al[j] - rho1) * math.prod(
                    al[j] + be[k] - rho1 - rho2 for k in range(n) if k != i)
                den = _check_denominator(
                    math.prod(al[j] - al[k] for k in range(n) if k != j),
                    "type II L")
                a[n + i, j] = num / den
    else:  # III
        m = n + 1
        rho1, rho2 = rho[0], rho[1]
        a = np.zeros((m + n, m + n), dtype=complex)
        a[:m, :m] = np.diag(al)
        a[m:, m:] = np.diag(be)
        for i in range(m):
            for j in range(n):
                num = math.prod(al[k] + be[j] - rho1 - rho2
                                for k in range(m) if k != i)
                den = _check_denominator(
                    math.prod(be[j] - be[k] for k in range(n) if k != j),
                    "type III K")
                a[i, m + j] = num / den
        for i in range(n):
            for j in range(m):
                num = (al[j] - rho1) * (al[j] - rho2) * math.prod(
                    al[j] + be[k] - rho1 - rho2 for k in range(n) if k != i)
                den = _check_denominator(
                    math.prod(al[j] - al[k] for k in range(m) if k != j),
                    "type III L")
                a[m + i, j] = num / den
    return OkuboSystem(blocks=spec.blocks, points=spec.points, A=a)


# ---------------------------------------------------------------------------
# closed-form rank complements (Lemmas for the chain steps)

def xieta_closed_form(spec: YokoyamaSpec, rho=None):
    """The rank-one factors (xi, eta) of the block-k Schur complement of
    A - rho used by the chain step out of this spec.

    Type I uses any generic rho (required argument there); types II and III
    use rho = rho_2 of the spec by default.  Shapes: xi is a column over the
    complementary block, eta a row.
    """
    kind, n = spec.kind, spec.n
    al, be = spec.alpha, spec.beta
    if kind == "I":
        if rho is None:
            raise ShapeError("type I needs the step parameter rho")
        rho = complex(rho)
        num = math.prod(rho - r for r in spec.rho)
        den = _check_denominator(
            math.prod(rho - a for a in al[:n - 1]), "type I xi")
        xi = np.array([[-num / den]], dtype=complex)
        eta = np.array([[1.0]], dtype=complex)
        return xi, eta
    if kind == "II":
        rho1 = spec.rho[0]
        rho2 = complex(rho) if rho is not None else spec.rho[1]
        xi = np.empty((n, 1), dtype=complex)
        eta = np.empty((1, n), dtype=complex)
        for i in range(n):
            num = (rho2 - rho1) * math.prod(be[k] - rho1 for k in range(n) if k != i)
            den = _check_denominator(
                math.prod(rho2 - a for a in al), "type II xi")
            xi[i, 0] = num / den
            num = math.prod(be[i] + a - rho1 - rho2 for a in al)
            den = _check_denominator(
                math.prod(be[i] - be[k] for k in range(n) if k != i), "type II eta")
            eta[0, i] = num / den
        return xi, eta
    if kind == "III":
        m = n + 1
        rho1 = spec.rho[0]
        rho2 = complex(rho) if rho is not None else spec.rho[1]
        xi = np.empty((m, 1), dtype=complex)
        eta = np.empty((1, m), dtype=complex)
        for i in range(m):
            num = math.prod(al[k] - rho1 for k in range(m) if k != i)
            den = _check_denominator(
                math.prod(rho2 - b for b in be), "type III xi")
            xi[i, 0] = num / den
            num = (al[i] - rho2) * math.prod(b + al[i] - rho1 - rho2 for b in be)
            den = _check_denominator(
                math.prod(al[i] - al[k] for k in range(m) if k != i), "type III eta")
            eta[0, i] = num / den
        return xi, eta
    raise ShapeError("no rank-complement lemma for type I*")


def xieta_matrix_expression(spec: YokoyamaSpec, rho=None) -> np.ndarray:
    """The Schur complement the lemma factors: for the chain's k this is
    A_cc - rho - A_ck (A_kk - rho)^{-1} A_kc over the complementary block."""
    sysm = canonical_system(spec)
    k = chain_block_index(spec)
    rho = complex(rho) if rho is not None else spec.rho[1]
    return schur_complement(sysm.A - rho * np.eye(spec.rank), spec.blocks, k)


def chain_block_index(spec: YokoyamaSpec) -> int:
    """Block at which the chain applies its additions when LEAVING this spec:
    t_1 for types I and II, t_2 for type III."""
    if spec.kind == "I*":
        raise ShapeError("type I* is built by a single middle convolution")
    return 0 if spec.kind in ("I", "II") else 1


# ---------------------------------------------------------------------------
# symmetry conjugation

def symmetry_conjugate(sys: OkuboSystem, i: int, j: int) -> OkuboSystem:
    """Conjugate by the permutation matrix swapping diagonal positions i, j
    (0-based; both must sit in the same block)."""
    n = sys.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError("exponent index out of range")
    bi = bj = None
    for b in range(sys.blocks.r):
        sl = sys.blocks.block_slice(b)
        if sl.start <= i < sl.stop:
            bi = b
        if sl.start <= j < sl.stop:
            bj = b
    if bi != bj:
        raise IndexError("indices must lie within one block")
    if i == j:
        return sys
    perm = np.arange(n)
    perm[[i, j]] = perm[[j, i]]
    s = np.eye(n, dtype=complex)[perm]
    return OkuboSystem(blocks=sys.blocks, points=sys.points,
                       A=s @ sys.A @ s)


def swap_spec(spec: YokoyamaSpec, which: str, i: int, j: int) -> YokoyamaSpec:
    """Spec with exponents i and j of family 'alpha'/'beta' exchanged."""
    if which == "alpha":
        ex = list(spec.alpha)
        ex[i], ex[j] = ex[j], ex[i]
        return replace(spec, alpha=tuple(ex))
    if which == "beta":
        ex = list(spec.beta)
        ex[i], ex[j] = ex[j], ex[i]
        return replace(spec, beta=tuple(ex))
    raise ShapeError("which must be 'alpha' or 'beta'")


# ---------------------------------------------------------------------------
# Katz chains from rank-one seeds

def _hge_system(spec: YokoyamaSpec):
    """(II)_2 (= (I)_2 before its diagonal gauge) from the rank-one seed by
    a single middle convolution."""
    if spec.kind == "I":
        a_target, b_target = spec.alpha
        rho1 = spec.rho[0]
    else:
        a_target, b_target = spec.alpha[0], spec.beta[0]
        rho1 = spec.rho[0]
    seed = SchlesingerSystem(
        points=spec.points,
        residues=(np.array([[a_target - rho1]]),
                  np.array([[b_target - rho1]])),
    )
    mc, witness = middle_convolution_system(seed, rho1)
    sysm = schlesinger_to_okubo(mc, BlockStructure((1, 1)))
    return sysm, witness


def katz_chain(spec: YokoyamaSpec):
    """Build the canonical system by the inductive Katz operations.

    Returns (OkuboSystem, log) where the log records every intermediate
    system and the step parameters.
    """
    spec.check_genericity()
    log = []
    if spec.kind == "I*":
        seed = SchlesingerSystem(
            points=spec.points,
            residues=tuple(np.array([[a - spec.rho[0]]]) for a in spec.alpha),
        )
        mc, witness = middle_convolution_system(seed, spec.rho[0])
        sysm = schlesinger_to_okubo(mc, spec.blocks)
        log.append({"step": "mc", "mu": spec.rho[0], "witness": witness})
        return sysm, log

    chain = _descend(spec)
    base_spec = chain[0]["spec"]
    sysm, witness = _hge_system(base_spec)
    log.append({"step": "seed-mc", "mu": base_spec.rho[0],
                "witness": witness})
    if base_spec.kind == "I":
        # the (I)_2 canonical form is a diagonal conjugation of the bare
        # middle-convolution output
        g = np.diag(np.array([1.0, base_spec.alpha[1] - base_spec.rho[0]],
                             dtype=complex))
        sysm = OkuboSystem(blocks=sysm.blocks, points=sysm.points,
                           A=g @ sysm.A @ np.linalg.inv(g))
        log.append({"step": "gauge", "G": g})
    for entry in chain[1:]:
        src_spec, k, c, rho = (entry["source"], entry["k"],
                               entry["c"], entry["rho"])
        xi, eta = xieta_closed_form(src_spec, rho=rho)
        sysm, witness = mc_add_system(sysm, k, c, rho, xi_eta=(xi, eta))
        log.append({"step": "mc-add", "k": k, "c": c, "rho": rho,
                    "witness": witness, "system": sysm})
    return sysm, log


def _descend(spec: YokoyamaSpec):
    """Walk a type I/II/III spec down to its (II)_2 (= (I)_2) base, recording
    at each stage the source spec and step parameters that rebuild it."""
    steps = []
    cur = spec
    while True:
        kind, n = cur.kind, cur.n
        if kind == "I":
            if n == 2:
                steps.append({"spec": cur})
                break
            al, rho = cur.alpha, cur.rho
            step_rho, c = al[n - 2], -rho[n - 1]
            src = YokoyamaSpec(
                "I", n - 1,
                alpha=al[:n - 2] + (al[n - 1] + al[n - 2] - rho[n - 1],),
                rho=rho[:n - 1],
                points=cur.points,
            )
            steps.append({"source": src, "k": 0, "c": c, "rho": step_rho})
            cur = src
        elif kind == "II":
            if n == 1:
                steps.append({"spec": cur})
                break
            al, be, rho = cur.alpha, cur.beta, cur.rho
            step_rho, c = be[n - 1], -rho[0]
            src_rho = (rho[1], be[n - 1], rho[2])
            src = YokoyamaSpec(
                "III", n - 1,
                alpha=tuple(a + be[n - 1] - rho[0] for a in al),
                beta=be[:n - 1],
                rho=src_rho,
                points=cur.points,
            )
            steps.append({"source": src, "k": 1, "c": c, "rho": step_rho})
            cur = src
        elif kind == "III":
            al, be, rho = cur.alpha, cur.beta, cur.rho
            step_rho, c = al[n], -rho[0]
            src_rho = (rho[1], al[n], rho[2]) if n > 1 else (rho[1], rho[2])
            src = YokoyamaSpec(
                "II", n,
                alpha=al[:n],
                beta=tuple(b + al[n] - rho[0] for b in be),
                rho=src_rho,
                points=cur.points,
            )
            steps.append({"source": src, "k": 0, "c": c, "rho": step_rho})
            cur = src
        else:
            raise ShapeError("descend only handles types I, II, III")
    steps.reverse()
    return steps
