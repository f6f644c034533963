import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from okubo.core import (
    BlockStructure,
    BranchError,
    OkuboSystem,
    PathConfig,
    PoleError,
    RankError,
    ShapeError,
    branch_power,
    branch_log,
    default_config,
    e_of,
    gamma_c,
    gamma_ratio,
    matrix_from_json,
    matrix_to_json,
    numerical_rank,
    okubo_from_json,
    okubo_to_json,
    okubo_to_schlesinger,
    rank_factorization,
    right_inverse,
    schlesinger_from_json,
    schlesinger_to_json,
)

RNG = np.random.default_rng(1234)


def random_complex(n, scale=1.0):
    return scale * (RNG.standard_normal(n) + 1j * RNG.standard_normal(n))


# ---------------------------------------------------------------------------
# e_of and gamma

@pytest.mark.parametrize("mu,want", [(0, 1), (0.5, -1), (0.25, 1j)])
def test_e_of_periods(mu, want):
    assert abs(e_of(mu) - want) < 1e-15


def test_gamma_small_integers():
    assert abs(gamma_c(1) - 1) < 1e-14
    assert abs(gamma_c(4) - 6) < 1e-13


def test_gamma_reflection_oracle():
    # expected value computed from the reflection identity, not from gamma_c
    z = 0.5 + 0.5j
    lhs = gamma_c(z) * gamma_c(1 - z)
    rhs = math.pi / cmath.sin(math.pi * z)
    assert abs(lhs - rhs) / abs(rhs) < 1e-14


def test_gamma_pole_rejected():
    for z in (0, -3, -1 + 1e-14j):
        with pytest.raises(PoleError):
            gamma_c(z)


@settings(max_examples=100, deadline=None)
@given(st.complex_numbers(max_magnitude=20, allow_nan=False, allow_infinity=False))
def test_gamma_recurrence(z):
    # Gamma(z+1) = z Gamma(z) away from the poles
    if abs(z) < 0.05 or (abs(z.imag) < 0.05 and z.real < 0.5
                         and abs(z.real - round(z.real)) < 0.05):
        return
    assert abs(gamma_c(z + 1) - z * gamma_c(z)) / abs(gamma_c(z + 1)) < 1e-12


def test_gamma_accuracy_contract():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(500):
        z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        if abs(z) > 50:
            continue
        if abs(z.imag) < 0.1 and abs(z.real - round(z.real)) < 0.1:
            continue
        ref = complex(mpmath.gamma(z))
        if not np.isfinite(ref) or ref == 0:
            continue
        assert abs(gamma_c(z) - ref) / abs(ref) < 1e-13
        checked += 1
    assert checked > 300


def test_gamma_ratio_matches_direct():
    a, b = 0.3 + 0.7j, -0.4 + 0.2j
    assert abs(gamma_ratio([a], [b]) - gamma_c(a) / gamma_c(b)) < 1e-13
    num, den = [a, 1.7 - 0.2j, -2.5 + 0.1j], [b, 0.6 + 1.1j]
    want = (gamma_c(num[0]) * gamma_c(num[1]) * gamma_c(num[2])
            / (gamma_c(den[0]) * gamma_c(den[1])))
    assert abs(gamma_ratio(num, den) - want) < 1e-13 * abs(want)
    with pytest.raises(PoleError):
        gamma_ratio([a], [b, -2.0])


# ---------------------------------------------------------------------------
# branch conventions

@pytest.fixture
def cfg01():
    return default_config((0.0, 1.0))


def test_default_config_invariants(cfg01):
    # theta ordering and base-point half-plane conditions hold by construction
    assert cfg01.thetas[0] > cfg01.thetas[1] > cfg01.thetas[0] - math.pi
    assert ((cfg01.points[1] - cfg01.base_point)
            / (cfg01.points[0] - cfg01.base_point)).imag < 0


def test_branch_power_integer_is_branch_free(cfg01):
    assert abs(branch_power(0, 1, 1.0, cfg01) - (-1.0)) < 1e-14
    assert abs(branch_power(0, 1, 0.0, cfg01) - 1.0) < 1e-14


def test_branch_power_half(cfg01):
    v = branch_power(0, 1, 0.5, cfg01)
    assert abs(v * v - (-1.0)) < 1e-14
    # the argument must sit in (theta_2 - pi, theta_2)
    arg = branch_log(0, 1, cfg01).imag
    assert cfg01.thetas[1] - math.pi < arg < cfg01.thetas[1]
    assert abs(cmath.phase(v) - 0.5 * arg) < 1e-12


def test_branch_power_order_convention(cfg01):
    arg = branch_log(1, 0, cfg01).imag
    assert cfg01.thetas[0] < arg < cfg01.thetas[0] + math.pi


@settings(max_examples=60, deadline=None)
@given(st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
       st.integers(min_value=-2, max_value=2))
def test_branch_power_shift_recurrence(alpha, shift):
    cfg = default_config((0.0, 1.0, 2.5))
    # same-branch recurrence: (t_i - t_j)^(a+1) = (t_i - t_j) (t_i - t_j)^a
    a = alpha + shift
    lhs = branch_power(0, 2, a + 1, cfg)
    rhs = (cfg.points[0] - cfg.points[2]) * branch_power(0, 2, a, cfg)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_path_config_rejects_bad_theta():
    pts = (0.0, 1.0)
    p0 = 0.5 - 1j
    thetas = [cmath.phase(p0 - t) for t in pts]
    with pytest.raises(BranchError):
        PathConfig(points=pts, base_point=p0, thetas=(thetas[1], thetas[0]),
                   radii=(0.1, 0.1))


def test_path_config_rejects_fat_radii():
    pts = (0.0, 1.0)
    p0 = 0.5 - 1j
    thetas = tuple(cmath.phase(p0 - t) for t in pts)
    with pytest.raises(BranchError):
        PathConfig(points=pts, base_point=p0, thetas=thetas, radii=(0.6, 0.1))


# ---------------------------------------------------------------------------
# rank factorization and right inverses

def test_rank_factorization_zero():
    p, q, r = rank_factorization(np.zeros((3, 4)))
    assert r == 0 and p.shape == (3, 0) and q.shape == (0, 4)


def test_rank_factorization_identity():
    p, q, r = rank_factorization(np.eye(4, dtype=complex))
    assert r == 4
    assert np.allclose(p, np.eye(4)) and np.allclose(q, np.eye(4))


def test_rank_factorization_hypergeometric_monodromy():
    # M_1 - I for the 2x2 hypergeometric monodromy is rank one
    a2, r1 = 0.31 + 0.22j, 0.12 + 0.4j
    m1 = np.array([[e_of(0.2 + 0.3j), e_of(a2 - r1) - 1], [0, 1]])
    p, q, r = rank_factorization(m1 - np.eye(2))
    assert r == 1
    assert np.max(np.abs(p @ q - (m1 - np.eye(2)))) < 1e-12


def test_rank_factorization_planted_ranks():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n, m = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        r = int(rng.integers(0, min(n, m) + 1))
        if r:
            mat = ((rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))
                   @ (rng.standard_normal((r, m)) + 1j * rng.standard_normal((r, m))))
        else:
            mat = np.zeros((n, m), dtype=complex)
        p, q, rank = rank_factorization(mat)
        assert rank == r
        scale = max(np.max(np.abs(mat)), 1e-300)
        assert np.max(np.abs(mat - p @ q)) <= 1e-10 * scale
        if r:
            assert numerical_rank(p) == r and numerical_rank(q) == r


def test_right_inverse_identity():
    s = right_inverse(np.eye(3, dtype=complex))
    assert np.allclose(s, np.eye(3))


def test_right_inverse_underdetermined():
    q = np.array([[1.0, 0.0]], dtype=complex)
    s = right_inverse(q)
    assert np.max(np.abs(q @ s - np.eye(1))) < 1e-12


def test_right_inverse_random_wide():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    s = right_inverse(q)
    assert np.max(np.abs(q @ s - np.eye(2))) < 1e-12


def test_right_inverse_rank_deficient():
    q = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(RankError):
        right_inverse(q)


# ---------------------------------------------------------------------------
# Okubo <-> Schlesinger

def hge_system():
    a1, b1, r1 = 0.21 + 0.33j, -0.12 + 0.41j, 0.07 + 0.19j
    a = np.array([[a1, b1 - r1], [a1 - r1, b1]], dtype=complex)
    return OkuboSystem(blocks=BlockStructure((1, 1)), points=(0.0, 1.0), A=a)


def test_okubo_to_schlesinger_block_rows():
    sysm = hge_system()
    sch = okubo_to_schlesinger(sysm)
    a = sysm.A
    want0 = np.array([[a[0, 0], a[0, 1]], [0, 0]])
    want1 = np.array([[0, 0], [a[1, 0], a[1, 1]]])
    assert np.array_equal(sch.residues[0], want0)
    assert np.array_equal(sch.residues[1], want1)


def test_okubo_to_schlesinger_zero():
    sysm = OkuboSystem(blocks=BlockStructure((1, 1)), points=(0.0, 1.0),
                       A=np.zeros((2, 2)))
    sch = okubo_to_schlesinger(sysm)
    assert all(np.array_equal(r, np.zeros((2, 2))) for r in sch.residues)


def test_residue_sum_is_exact():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    sysm = OkuboSystem(blocks=BlockStructure((2, 3)), points=(0.0, 1.0), A=a)
    sch = okubo_to_schlesinger(sysm)
    assert np.array_equal(sum(sch.residues), a)   # bit-for-bit


def test_system_validation():
    with pytest.raises(ShapeError):
        OkuboSystem(blocks=BlockStructure((1, 1)), points=(0.0, 0.0),
                    A=np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        OkuboSystem(blocks=BlockStructure((2, 1)), points=(0.0, 1.0),
                    A=np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# JSON round trips (bit-exact)

def test_matrix_json_roundtrip_bit_exact():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    m[0, 0] = 1e-308 + 1e300j      # extreme but finite doubles
    back = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(m, back)


def test_okubo_json_roundtrip():
    sysm = hge_system()
    back = okubo_from_json(okubo_to_json(sysm))
    assert np.array_equal(back.A, sysm.A)
    assert back.points == sysm.points
    assert back.blocks.sizes == sysm.blocks.sizes


def test_schlesinger_json_roundtrip():
    sch = okubo_to_schlesinger(hge_system())
    back = schlesinger_from_json(schlesinger_to_json(sch))
    assert all(np.array_equal(a, b) for a, b in zip(back.residues, sch.residues))


def test_transport_defaults_come_from_path_config(cfg01):
    # default_config takes the PathConfig field defaults, written in one
    # place; atol is no field but rtol * 1e-2
    from dataclasses import fields
    defaults = {f.name: f.default for f in fields(PathConfig)
                if f.name in ("rtol", "series_tol", "max_order")}
    assert len(defaults) == 3
    assert "atol" not in {f.name for f in fields(PathConfig)}
    for cfg in (cfg01, default_config((0.0, 1.0, 2.5))):
        for key, want in defaults.items():
            assert getattr(cfg, key) == want
        assert cfg.atol == cfg.rtol * 1e-2 == 1e-14


def test_json_file_roundtrip(tmp_path):
    from okubo.core import dump_json, load_json
    sysm = hge_system()
    path = tmp_path / "sys.json"
    dump_json(okubo_to_json(sysm), path)
    back = okubo_from_json(load_json(path))
    assert np.array_equal(back.A, sysm.A)
