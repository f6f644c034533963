"""Numerical substrate: branch-consistent powers, complex gamma, rank
factorizations, and the basic containers for Okubo/Schlesinger systems.

Matrices are dense complex ``numpy.ndarray``s throughout; desk scale is
n <= 16, so no structured storage is attempted.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import loggamma as _loggamma

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# errors

class OkuboError(Exception):
    """Base class for all library errors."""


class PoleError(OkuboError):
    """Gamma evaluated at (or too close to) a non-positive integer."""


class BranchError(OkuboError):
    """No argument representative falls in the mandated interval."""


class RankError(OkuboError):
    """A factorization does not have the rank the operation requires."""


class ShapeError(OkuboError):
    """Dimension mismatch between operands."""


class ZeroScalar(OkuboError):
    """A scalar that must be invertible is zero."""


class KernelError(OkuboError):
    """A kernel-triviality precondition fails."""


class StructureError(OkuboError):
    """Input lacks the block structure the operation assumes."""


class SingularBlock(OkuboError):
    """A diagonal block that must be invertible is singular at tolerance."""


class GenericityError(OkuboError):
    """Exponents violate a non-integrality / distinctness assumption."""


class ResonanceError(OkuboError):
    """A local series recursion hit an integer-resonant exponent."""


class StepFailure(OkuboError):
    """The continuation integrator failed to advance."""


class SingularPoint(OkuboError):
    """An evaluation point coincides with a singular point t_k."""


class SingularPsi(OkuboError):
    """The canonical solution matrix is (numerically) singular."""


class NonDiagonalizable(OkuboError):
    """A matrix argument required to be diagonalizable is defective."""


# ---------------------------------------------------------------------------
# scalar special functions

def e_of(mu) -> complex:
    """exp(2*pi*i*mu)."""
    return cmath.exp(2j * math.pi * complex(mu))


POLE_TOL = 1e-12


def _is_nonpositive_integer(z: complex, tol: float) -> bool:
    if abs(z.imag) > tol:
        return False
    m = round(z.real)
    return m <= 0 and abs(z.real - m) <= tol


def gamma_c(z) -> complex:
    """Complex gamma function (scipy's).

    Raises :class:`PoleError` when ``z`` is within ``POLE_TOL`` of a
    non-positive integer.
    """
    z = complex(z)
    if _is_nonpositive_integer(z, POLE_TOL):
        raise PoleError(f"gamma pole at z = {z}")
    return complex(_gamma(z))


def lgamma_c(z) -> complex:
    """A logarithm of Gamma(z) (branch unspecified; exact up to 2*pi*i*k).

    Only safe for forming gamma *ratios* exp(lgamma(a) - lgamma(b)), where
    the branch cancels.  Backed by scipy's loggamma.
    """
    z = complex(z)
    if _is_nonpositive_integer(z, POLE_TOL):
        raise PoleError(f"gamma pole at z = {z}")
    return complex(_loggamma(z))


def gamma_ratio(num, den) -> complex:
    """prod Gamma(a) over ``num`` / prod Gamma(b) over ``den``, computed as
    exp(sum logGamma(a) - sum logGamma(b)).

    Each sum runs left to right from 0, as the builtin ``sum`` does.  The
    explicit loop avoids a generator per call, which costs as much as a
    log-gamma evaluation in the single-term ratios of the recurrences.
    """
    top = bottom = 0
    for a in num:
        top += lgamma_c(a)
    for b in den:
        bottom += lgamma_c(b)
    return cmath.exp(top - bottom)


# ---------------------------------------------------------------------------
# block structure and systems

@dataclass(frozen=True)
class BlockStructure:
    """Partition (n_1, ..., n_r) of the total dimension n."""

    sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if any(s < 1 for s in sizes):
            raise ShapeError(f"block sizes must be positive, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def r(self) -> int:
        return len(self.sizes)

    def offset(self, k: int) -> int:
        return sum(self.sizes[:k])

    def block_slice(self, k: int) -> slice:
        o = self.offset(k)
        return slice(o, o + self.sizes[k])


def as_cmatrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ShapeError("matrix has non-finite entries")
    return m


@dataclass(frozen=True)
class OkuboSystem:
    """(x - T) Y' = A Y with T = diag(t_1 I_{n_1}, ..., t_r I_{n_r})."""

    blocks: BlockStructure
    points: tuple
    A: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(complex(t) for t in self.points))
        object.__setattr__(self, "A", as_cmatrix(self.A))
        n = self.blocks.n
        if self.A.shape != (n, n):
            raise ShapeError(f"A must be {n}x{n}, got {self.A.shape}")
        if len(self.points) != self.blocks.r:
            raise ShapeError("one singular point per block required")
        pts = self.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if pts[i] == pts[j]:
                    raise ShapeError("singular points must be pairwise distinct")

    @property
    def n(self) -> int:
        return self.blocks.n

    @property
    def r(self) -> int:
        return self.blocks.r

    def t_diag(self) -> np.ndarray:
        return np.concatenate(
            [np.full(nk, t) for nk, t in zip(self.blocks.sizes, self.points)]
        )

    def block(self, i: int, j: int) -> np.ndarray:
        return self.A[self.blocks.block_slice(i), self.blocks.block_slice(j)]

    def residue(self, k: int) -> np.ndarray:
        """A_k: the k-th block row of A embedded in a zero matrix."""
        out = np.zeros_like(self.A)
        sl = self.blocks.block_slice(k)
        out[sl, :] = self.A[sl, :]
        return out


@dataclass(frozen=True)
class SchlesingerSystem:
    """Y' = sum_k A_k/(x - t_k) Y given by its residue matrices."""

    points: tuple
    residues: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(complex(t) for t in self.points))
        res = tuple(as_cmatrix(a) for a in self.residues)
        object.__setattr__(self, "residues", res)
        if len(res) != len(self.points):
            raise ShapeError("one residue per singular point required")
        n = res[0].shape[0] if res else 0
        for a in res:
            if a.shape != (n, n):
                raise ShapeError("all residues must be square of a common size")

    @property
    def n(self) -> int:
        return self.residues[0].shape[0] if self.residues else 0

    @property
    def r(self) -> int:
        return len(self.points)

    def a_infinity(self) -> np.ndarray:
        return -sum(self.residues)


def okubo_to_schlesinger(sys: OkuboSystem) -> SchlesingerSystem:
    """Rewrite an Okubo system in Schlesinger form (residues = block rows)."""
    return SchlesingerSystem(
        points=sys.points,
        residues=tuple(sys.residue(k) for k in range(sys.r)),
    )


def schlesinger_to_okubo(sch: SchlesingerSystem,
                         blocks: BlockStructure) -> OkuboSystem:
    """Assemble an Okubo system from residues that are block rows of a
    common matrix (the structure every K-reduction produces)."""
    if blocks.n != sch.n or blocks.r != sch.r:
        raise ShapeError("block structure does not match the residues")
    a = sum(sch.residues)
    scale = max(1.0, matrix_scale(a))
    for k, res in enumerate(sch.residues):
        mask = np.ones((sch.n, sch.n), dtype=bool)
        mask[blocks.block_slice(k), :] = False
        if matrix_scale(np.where(mask, res, 0.0)) > 1e-10 * scale:
            raise StructureError(
                f"residue {k} is not supported on block row {k}")
    return OkuboSystem(blocks=blocks, points=sch.points, A=a)


# ---------------------------------------------------------------------------
# path configuration / branch conventions

@dataclass(frozen=True)
class PathConfig:
    """Base point, argument assignments theta_k = arg(p0 - t_k), loop radii,
    and integration controls.  Every branch of log/power used anywhere in the
    library is fixed by this object.  default_config takes the integration
    controls from the field defaults below; the oracle's transports run
    DOP853 at rtol, with atol = rtol * 1e-2."""

    points: tuple
    base_point: complex
    thetas: tuple
    radii: tuple
    rtol: float = 1e-12
    series_tol: float = 1e-13
    max_order: int = 200

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(complex(t) for t in self.points))
        object.__setattr__(self, "base_point", complex(self.base_point))
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        self._validate()

    @property
    def atol(self) -> float:
        """The transports' absolute tolerance, derived from rtol."""
        return self.rtol * 1e-2

    def _validate(self):
        p0, pts = self.base_point, self.points
        r = len(pts)
        if len(self.thetas) != r or len(self.radii) != r:
            raise ShapeError("one theta and one radius per singular point")
        for k, t in enumerate(pts):
            # theta_k must be a genuine argument of p0 - t_k
            if abs(cmath.exp(1j * self.thetas[k]) - (p0 - t) / abs(p0 - t)) > 1e-9:
                raise BranchError(f"theta_{k} is not an argument of p0 - t_{k}")
        th = self.thetas
        for k in range(r - 1):
            if not th[k] > th[k + 1]:
                raise BranchError(
                    f"theta_{k} > theta_{k + 1} violated: theta_{k} = "
                    f"{th[k]:.6g} at t_{k} = {pts[k]}, theta_{k + 1} = "
                    f"{th[k + 1]:.6g} at t_{k + 1} = {pts[k + 1]} "
                    f"(theta_j = arg(p0 - t_j), p0 = {p0})")
        if r > 1 and not th[-1] > th[0] - math.pi:
            raise BranchError(
                f"theta_{r - 1} > theta_0 - pi violated: theta_{r - 1} = "
                f"{th[-1]:.6g} at t_{r - 1} = {pts[-1]}, theta_0 = "
                f"{th[0]:.6g} at t_0 = {pts[0]} "
                f"(theta_j = arg(p0 - t_j), p0 = {p0})")
        for i in range(1, r):
            if not ((pts[i] - p0) / (pts[0] - p0)).imag < 0:
                raise BranchError(
                    f"Im (t_{i} - p0)/(t_0 - p0) < 0 violated: t_{i} = "
                    f"{pts[i]}, t_0 = {pts[0]}, p0 = {p0}")
        for k, t in enumerate(pts):
            dmin = min(
                [abs(t - s) for s in pts if s != t] + [abs(t - p0)]
            )
            if not self.radii[k] < 0.5 * dmin:
                raise BranchError(f"loop radius r_{k} too large")


def default_config(points) -> PathConfig:
    """Standard configuration: p0 = mean(t_k) - i, radii = min-gap/4.

    Satisfies all PathConfig invariants whenever the t_k are real and
    increasing (the default layout for every generated system).
    """
    pts = [complex(t) for t in points]
    p0 = sum(pts) / len(pts) - 1j
    thetas = [cmath.phase(p0 - t) for t in pts]
    gaps = []
    for k, t in enumerate(pts):
        others = [abs(t - s) for s in pts if s != t] + [abs(t - p0)]
        gaps.append(min(others))
    radii = [g / 4.0 for g in gaps]
    return PathConfig(points=tuple(pts), base_point=p0, thetas=tuple(thetas),
                      radii=tuple(radii))


def check_segment(points, base_point: complex, x: complex) -> None:
    """SingularPoint naming k when t_k lies on the segment [p0, x], that is
    when (x - t_k)/(p0 - t_k) is real and <= 0 (it is 0 when x = t_k)."""
    for k, t in enumerate(points):
        ratio = (x - t) / (base_point - t)
        if ratio.imag == 0 and ratio.real <= 0:
            where = (f"x={x} coincides with" if x == t else f"the segment "
                     f"from p0={base_point} to x={x} passes through")
            raise SingularPoint(f"{where} the singular point t_{k}, where "
                                f"det Psi is not defined")


def _arg_in_interval(z: complex, lo: float, hi: float) -> float:
    """Representative of arg(z) in the open interval (lo, hi), or BranchError."""
    base = cmath.phase(z)
    for k in range(-3, 4):
        a = base + TWO_PI * k
        if lo < a < hi:
            return a
    raise BranchError(
        f"no representative of arg({z}) in ({lo}, {hi})"
    )


def branch_log(i: int, j: int, cfg: PathConfig) -> complex:
    """log(t_i - t_j) with arg in (theta_j - pi, theta_j) for i < j and
    (theta_j, theta_j + pi) for i > j."""
    if i == j:
        raise ShapeError("branch_log requires i != j")
    ti, tj = cfg.points[i], cfg.points[j]
    th = cfg.thetas[j]
    if i < j:
        a = _arg_in_interval(ti - tj, th - math.pi, th)
    else:
        a = _arg_in_interval(ti - tj, th, th + math.pi)
    return math.log(abs(ti - tj)) + 1j * a


def branch_power(i: int, j: int, alpha, cfg: PathConfig) -> complex:
    """(t_i - t_j)^alpha on the branch mandated by the argument convention.

    ``i`` and ``j`` index singular points of ``cfg``; the i<j / i>j branch
    rule is read off the indices.
    """
    return cmath.exp(complex(alpha) * branch_log(i, j, cfg))


# ---------------------------------------------------------------------------
# monodromy tuples

@dataclass(frozen=True)
class MonodromyTuple:
    """Matrices (M_1, ..., M_r) for loops gamma_k under a fixed PathConfig
    ordering (gamma_inf gamma_1 ... gamma_r = 1)."""

    matrices: tuple
    blocks: BlockStructure | None = None

    def __post_init__(self):
        mats = tuple(as_cmatrix(m) for m in self.matrices)
        object.__setattr__(self, "matrices", mats)
        n = mats[0].shape[0] if mats else 0
        for m in mats:
            if m.shape != (n, n):
                raise ShapeError("monodromy matrices must be square, same size")

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0] if self.matrices else 0

    @property
    def r(self) -> int:
        return len(self.matrices)

    def product(self) -> np.ndarray:
        out = np.eye(self.n, dtype=complex)
        for m in self.matrices:
            out = out @ m
        return out


# ---------------------------------------------------------------------------
# rank-revealing factorization

DEFAULT_RANK_TOL = 1e-10


def matrix_scale(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m)))


def numerical_rank(m: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank at a relative singular-value threshold."""
    m = as_cmatrix(m)
    if m.size == 0:
        return 0
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def rank_factorization(m, tol: float = DEFAULT_RANK_TOL):
    """Factor M = P Q with P (n x rank) and Q (rank x m) of full rank.

    Q is the reduced-row-echelon basis of the row space (pivot entries 1,
    zeros above pivots) and P the corresponding pivot columns of M, so the
    factors are deterministic.  For a full-column-rank M this yields
    (P, Q) = (M, I).  Contract: ||M - PQ|| <= tol * ||M||.

    Returns (P, Q, rank); the zero matrix returns empty factors.
    """
    m = as_cmatrix(m)
    nrows, ncols = m.shape
    scale = matrix_scale(m)
    if scale == 0.0:
        return (np.zeros((nrows, 0), dtype=complex),
                np.zeros((0, ncols), dtype=complex), 0)
    r = m.copy()
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        k = row + int(np.argmax(np.abs(r[row:, col])))
        if abs(r[k, col]) <= tol * scale:
            r[row:, col] = 0.0
            continue
        r[[row, k]] = r[[k, row]]
        r[row] = r[row] / r[row, col]
        for other in range(nrows):
            if other != row and r[other, col] != 0.0:
                r[other] -= r[other, col] * r[row]
        pivots.append(col)
        row += 1
    rank = len(pivots)
    q = r[:rank]
    p = m[:, pivots]
    return p, q, rank


def right_inverse(q, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """S with QS = I for a full-row-rank Q (minimum-norm right inverse)."""
    q = as_cmatrix(q)
    k = q.shape[0]
    if k == 0:
        return np.zeros((q.shape[1], 0), dtype=complex)
    if numerical_rank(q, tol) < k:
        raise RankError("right_inverse requires full row rank")
    s = np.linalg.pinv(q)
    res = matrix_scale(q @ s - np.eye(k))
    if res > 1e-12 * max(1.0, matrix_scale(q)):
        raise RankError(f"right inverse residual too large: {res}")
    return s


# ---------------------------------------------------------------------------
# JSON serialization (bit-exact for finite doubles)

def complex_to_json(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(v) -> complex:
    return complex(v[0], v[1])


def matrix_to_json(m) -> dict:
    m = as_cmatrix(m)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [complex_to_json(z) for z in m.reshape(-1)],
    }


def matrix_from_json(d) -> np.ndarray:
    data = np.array([complex_from_json(v) for v in d["data"]], dtype=complex)
    return data.reshape(d["rows"], d["cols"])


def okubo_to_json(sys: OkuboSystem) -> dict:
    return {
        "blocks": list(sys.blocks.sizes),
        "points": [complex_to_json(t) for t in sys.points],
        "A": matrix_to_json(sys.A),
    }


def okubo_from_json(d) -> OkuboSystem:
    return OkuboSystem(
        blocks=BlockStructure(tuple(d["blocks"])),
        points=tuple(complex_from_json(t) for t in d["points"]),
        A=matrix_from_json(d["A"]),
    )


def schlesinger_to_json(sys: SchlesingerSystem) -> dict:
    return {
        "points": [complex_to_json(t) for t in sys.points],
        "residues": [matrix_to_json(a) for a in sys.residues],
    }


def schlesinger_from_json(d) -> SchlesingerSystem:
    return SchlesingerSystem(
        points=tuple(complex_from_json(t) for t in d["points"]),
        residues=tuple(matrix_from_json(a) for a in d["residues"]),
    )


def dump_json(obj: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=1) + "\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
