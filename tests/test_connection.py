import math

import numpy as np
import pytest

from okubo.core import (
    PoleError,
    SingularPoint,
    branch_power,
    default_config,
    e_of,
    gamma_c,
    gamma_ratio,
)
from okubo.connection import (
    RecurrenceState,
    assemble_monodromy,
    chain_connection,
    closed_form_connection,
    initial_connection,
    okubo_determinant,
    recurrence_connection,
    recurrence_step,
    regularized_beta,
    symmetry_extend,
)
from okubo.verify import intertwiner, numeric_connection
from okubo.yokoyama import YokoyamaSpec, canonical_system, sample_spec


def rel_err(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


# ---------------------------------------------------------------------------
# closed forms against the rank-2 initial data

def test_type_I_closed_form_matches_initial_data():
    # Theorem value at n=2 equals the transported C_1^(2), D_1^(2) seeds
    spec = sample_spec("I", 2, np.random.default_rng(0))
    cfg = default_config(spec.points)
    conn = closed_form_connection(spec, cfg)
    seed = initial_connection(spec.alpha[0], spec.alpha[1], spec.rho[0], cfg)
    assert abs(conn[(0, 1)][0, 0] - seed["C1"]) < 1e-12 * abs(seed["C1"])
    assert abs(conn[(1, 0)][0, 0] - seed["D1"]) < 1e-12 * abs(seed["D1"])


def test_type_II_closed_form_matches_initial_data():
    spec = sample_spec("II", 1, np.random.default_rng(1))
    cfg = default_config(spec.points)
    conn = closed_form_connection(spec, cfg)
    seed = initial_connection(spec.alpha[0], spec.beta[0], spec.rho[0], cfg)
    assert abs(conn[(0, 1)][0, 0] - seed["C11"]) < 1e-12 * abs(seed["C11"])
    assert abs(conn[(1, 0)][0, 0] - seed["D11"]) < 1e-12 * abs(seed["D11"])


def test_initial_data_normalizations():
    """C11 and D1 match the classical normalization verbatim; C1 and D11
    carry the verifier-pinned corrections (sign / gamma argument)."""
    a1, b1, r1 = 0.23 + 0.31j, -0.11 + 0.47j, 0.05 + 0.17j
    r2 = a1 + b1 - r1
    cfg = default_config((0.0, 1.0))
    bp = lambda i, j, x: branch_power(i, j, x, cfg)
    seed = initial_connection(a1, b1, r1, cfg)
    disp_c11 = (-e_of(-r1 / 2) * bp(0, 1, b1 - r1) / bp(1, 0, a1 - r1)
                * gamma_c(-a1) * gamma_c(b1 + 1)
                / (gamma_c(b1 - r1) * gamma_c(1 - a1 + r1)))
    assert abs(seed["C11"] - disp_c11) < 1e-13 * abs(disp_c11)
    disp_d1 = (e_of(r1 / 2) * bp(1, 0, a1 - r1) / bp(0, 1, b1 - r1)
               * gamma_c(-b1) * gamma_c(a1 + 1)
               / (gamma_c(a1 - r1) * gamma_c(a1 - r2)))
    assert abs(seed["D1"] - disp_d1) < 1e-13 * abs(disp_d1)


def test_seed_product_invariant_under_point_rescaling():
    # C1 D1 is independent of the singular points (Moebius covariance);
    # checked through the numeric monodromy at two point layouts
    rng = np.random.default_rng(30)
    spec = sample_spec("I", 2, rng)
    vals = []
    for pts in ((0.0, 1.0), (2.0, 5.0)):     # t -> 3t + 2
        moved = YokoyamaSpec("I", 2, spec.alpha, (), spec.rho, pts)
        cfg = default_config(pts)
        conn = numeric_connection(canonical_system(moved), cfg)
        vals.append(conn[(0, 1)][0, 0] * conn[(1, 0)][0, 0])
    assert abs(vals[0] - vals[1]) < 1e-10 * abs(vals[0])


def test_closed_form_entries_finite_nonzero():
    for kind, n in [("I", 4), ("I*", 3), ("II", 2), ("III", 2)]:
        spec = sample_spec(kind, n, np.random.default_rng(2))
        conn = closed_form_connection(spec, default_config(spec.points))
        for m in conn.values():
            assert np.all(np.isfinite(m))
            assert np.all(np.abs(m) > 0)


# ---------------------------------------------------------------------------
# closed forms against numeric connection/monodromy

@pytest.mark.parametrize("kind,n", [("I", 3), ("I*", 3), ("II", 2), ("III", 1)])
def test_closed_form_matches_numeric(kind, n):
    spec = sample_spec(kind, n, np.random.default_rng(3))
    cfg = default_config(spec.points)
    conn = closed_form_connection(spec, cfg)
    sysm = canonical_system(spec)
    num = numeric_connection(sysm, cfg)
    for key, mat in conn.items():
        assert np.max(np.abs(mat - num[key])) < 1e-8


def test_closed_form_matches_numeric_nondefault_points():
    # branch machinery on a non-unit layout
    rng = np.random.default_rng(19)
    base = sample_spec("II", 2, rng)
    spec = YokoyamaSpec("II", 2, base.alpha, base.beta, base.rho,
                        points=(-0.7, 1.9))
    cfg = default_config(spec.points)
    conn = closed_form_connection(spec, cfg)
    num = numeric_connection(canonical_system(spec), cfg)
    for key, mat in conn.items():
        assert np.max(np.abs(mat - num[key])) < 1e-8
    rec = recurrence_connection(spec, cfg)
    for key in ((0, 1), (1, 0)):
        assert rel_err(rec[key], conn[key]) < 1e-10


def test_istar_sign_adjudication():
    """Exactly one of the two candidate half-period conventions matches the
    numeric connection coefficients: the theorem's e(-rho_1/2) on i < j,
    not the opposite e(rho_1/2), i.e. entry (i, j) times e(+-rho_1)."""
    spec = sample_spec("I*", 3, np.random.default_rng(4))
    cfg = default_config(spec.points)
    sysm = canonical_system(spec)
    num = numeric_connection(sysm, cfg)
    theorem = closed_form_connection(spec, cfg)
    r1 = spec.rho[0]
    derivation = {(i, j): m * e_of(r1 if i < j else -r1)
                  for (i, j), m in theorem.items()}

    def err(conn):
        return max(np.max(np.abs(conn[key] - num[key])) for key in conn)

    assert err(theorem) < 1e-8
    assert err(derivation) > 1e-2


def test_assemble_monodromy_shapes_and_trivial_case():
    spec = sample_spec("II", 2, np.random.default_rng(5))
    cfg = default_config(spec.points)
    conn = closed_form_connection(spec, cfg)
    zero = {k: np.zeros_like(v) for k, v in conn.items()}
    mon = assemble_monodromy(zero, spec)
    for k, m in enumerate(mon.matrices):
        off = m.copy()
        sl = spec.blocks.block_slice(k)
        want = np.eye(4, dtype=complex)
        want[sl, sl] = np.diag([e_of(a) for a in spec.local_exponents()[k]])
        assert np.max(np.abs(m - want)) == 0.0


def test_assemble_hgem_diagonal_conjugacy():
    # the (II)_2 closed-form tuple is diagonally conjugate to the bare
    # multiplicative middle-convolution output
    spec = sample_spec("II", 1, np.random.default_rng(6))
    cfg = default_config(spec.points)
    mon = assemble_monodromy(closed_form_connection(spec, cfg), spec)
    a1, b1, r1 = spec.alpha[0], spec.beta[0], spec.rho[0]
    h1 = np.array([[e_of(a1), e_of(b1 - r1) - 1], [0, 1]])
    h2 = np.array([[1, 0], [e_of(r1) * (e_of(a1 - r1) - 1), e_of(b1)]])
    from okubo.core import MonodromyTuple
    hgem = MonodromyTuple(matrices=(h1, h2))
    r, res = intertwiner(mon, hgem)
    assert res < 1e-10
    assert abs(r[0, 1]) < 1e-10 and abs(r[1, 0]) < 1e-10


def test_product_spectrum_is_e_rho():
    for kind, n in [("I", 3), ("II", 2), ("III", 2)]:
        spec = sample_spec(kind, n, np.random.default_rng(7))
        mon = assemble_monodromy(
            closed_form_connection(spec, default_config(spec.points)), spec)
        got = np.sort_complex(np.linalg.eigvals(mon.product()))
        want = np.sort_complex(np.array([e_of(r) for r in spec.rho_list()]))
        assert np.max(np.abs(got - want)) < 1e-8


def test_block_determinant_identity():
    # det(M_k) = prod_j e(alpha^(k)_j)
    spec = sample_spec("III", 2, np.random.default_rng(8))
    mon = assemble_monodromy(
        closed_form_connection(spec, default_config(spec.points)), spec)
    exps = spec.local_exponents()
    for k, m in enumerate(mon.matrices):
        want = np.prod([e_of(a) for a in exps[k]])
        assert abs(np.linalg.det(m) - want) < 1e-9


# ---------------------------------------------------------------------------
# recurrence engine

def test_recurrence_degenerate_parameter():
    # rho + c = 0: every transport factor is exactly 1
    cfg = default_config((0.0, 1.0))
    state = RecurrenceState(exponents=(0.21 + 0.31j, 0.05 + 0.52j),
                            c=0.3 - 1.1j, d=-0.7 + 0.4j, cfg=cfg)
    c = 0.17 - 0.23j
    for k in (0, 1):
        out = recurrence_step(state, k, c, -c)
        assert (out.c, out.d) == (state.c, state.d)
        assert out.exponents == state.exponents


@pytest.mark.parametrize("k", [0, 1])
def test_recurrence_step_column_transport(k):
    # the (i, k) entry picks up (t_i - t_k)^s e(+-s/2)
    # Gamma(s - a_i)/Gamma(-a_i) Gamma(a_k - rho)/Gamma(a_k + c), s = rho + c
    cfg = default_config((0.0, 1.0))
    state = RecurrenceState(exponents=(0.21 + 0.31j, 0.05 + 0.52j),
                            c=0.3 - 1.1j, d=-0.7 + 0.4j, cfg=cfg)
    c, rho = 0.17 - 0.23j, -0.31 + 0.12j
    s = rho + c
    i = 1 - k
    a_i, a_k = state.exponents[i], state.exponents[k]
    out = recurrence_step(state, k, c, rho)
    old, new = (state.c, out.c) if k == 1 else (state.d, out.d)
    half = e_of(s / 2) if i < k else e_of(-s / 2)
    want = (old * branch_power(i, k, s, cfg) * half
            * gamma_c(s - a_i) / gamma_c(-a_i)
            * gamma_c(a_k - rho) / gamma_c(a_k + c))
    assert abs(new - want) < 1e-12 * abs(want)
    assert out.exponents[k] == a_k
    assert out.exponents[i] == a_i - s


@pytest.mark.parametrize("kind,n", [("I", 3), ("I", 4), ("II", 2), ("II", 3),
                                    ("III", 1), ("III", 2)])
def test_recurrence_chain_matches_closed_form(kind, n):
    spec = sample_spec(kind, n, np.random.default_rng(10))
    cfg = default_config(spec.points)
    cf = closed_form_connection(spec, cfg)
    rec = recurrence_connection(spec, cfg)
    for key in ((0, 1), (1, 0)):
        assert rel_err(rec[key], cf[key]) < 1e-10


def test_chain_covered_entries_match_before_symmetry():
    # the leading entries reached by the recurrences agree with the closed form
    spec = sample_spec("II", 2, np.random.default_rng(11))
    cfg = default_config(spec.points)
    st = chain_connection(spec, cfg)
    cf = closed_form_connection(spec, cfg)
    assert abs(st.c - cf[(0, 1)][0, 0]) < 1e-10 * np.max(np.abs(cf[(0, 1)]))
    assert abs(st.d - cf[(1, 0)][0, 0]) < 1e-10 * np.max(np.abs(cf[(1, 0)]))


def test_symmetry_extend_fills_and_matches():
    spec = sample_spec("III", 2, np.random.default_rng(12))
    cfg = default_config(spec.points)
    full = symmetry_extend(spec, cfg)
    cf = closed_form_connection(spec, cfg)
    assert full[(0, 1)].shape == cf[(0, 1)].shape
    assert full[(1, 0)].shape == cf[(1, 0)].shape
    assert rel_err(full[(0, 1)], cf[(0, 1)]) < 1e-10
    assert rel_err(full[(1, 0)], cf[(1, 0)]) < 1e-10
    assert np.isfinite(full[(0, 1)]).all() and np.isfinite(full[(1, 0)]).all()


def test_symmetry_extend_index1_unchanged():
    spec = sample_spec("I", 3, np.random.default_rng(13))
    cfg = default_config(spec.points)
    rec = recurrence_connection(spec, cfg)
    st = chain_connection(spec, cfg)
    assert (rec[(0, 1)][0, 0], rec[(1, 0)][0, 0]) == (st.c, st.d)


# ---------------------------------------------------------------------------
# determinant formula

def test_determinant_small_exponent_limit():
    # alpha, rho -> 0: det Psi -> 1 (checked via a continuity guard at eps)
    eps = 1e-7
    alpha = tuple(eps * complex(1, k + 1) for k in range(3))
    rho1 = eps * complex(0.5, 0.7)
    rho2 = sum(alpha) - 2 * rho1
    spec = YokoyamaSpec("I*", 3, alpha=alpha, rho=(rho1, rho2))
    cfg = default_config(spec.points)
    val = okubo_determinant(spec, cfg.base_point + 0.1, cfg)
    assert abs(val - 1.0) < 1e-4


def test_determinant_ratio_cancels_prefactor():
    spec = sample_spec("II", 2, np.random.default_rng(14))
    cfg = default_config(spec.points)
    x1 = cfg.base_point + 0.13 - 0.09j
    x2 = cfg.base_point - 0.07 - 0.11j
    ratio = okubo_determinant(spec, x1, cfg) / okubo_determinant(spec, x2, cfg)
    exps = spec.local_exponents()
    want = 1.0 + 0.0j
    for k, t in enumerate(spec.points):
        want *= ((x1 - t) / (x2 - t)) ** sum(exps[k])
    assert abs(ratio - want) < 1e-10 * abs(want)


@pytest.mark.parametrize("k", [0, 1])
def test_determinant_at_singular_point_names_it(k):
    spec = sample_spec("II", 2, np.random.default_rng(1))
    with pytest.raises(SingularPoint, match=f"singular point t_{k}"):
        okubo_determinant(spec, spec.points[k], default_config(spec.points))


def test_determinant_pole_guard():
    spec = YokoyamaSpec("I*", 3, alpha=(0.4 + 0.2j, 0.3 + 0.1j, 0.2 + 0.2j),
                        rho=(0.0, 0.9 + 0.5j))
    with pytest.raises(PoleError):
        okubo_determinant(spec, 5.0, default_config(spec.points))


# ---------------------------------------------------------------------------
# regularized beta

def test_regularized_beta_integer_kill():
    out = regularized_beta(np.array([[1.0 + 0j]]), 1.0)
    assert abs(out[0, 0]) < 1e-12


def test_regularized_beta_half():
    out = regularized_beta(np.array([[0.5 + 0j]]), 0.5)
    assert abs(out[0, 0] - 4 * math.pi) < 1e-10


def test_regularized_beta_r_gauge_identity():
    """R_i / R_(k1) from the regularized beta reproduce the gamma-ratio
    transport of the recurrence; the i > k ordering needs the extra branch
    factor e(-(rho+c)) on the power inside R_i."""
    cfg = default_config((0.0, 1.0))
    rng = np.random.default_rng(15)

    def rc():
        return complex(rng.uniform(-0.4, 0.4), rng.uniform(0.1, 0.8))

    for i, k in ((0, 1), (1, 0)):
        a_i, a_k, c, rho = rc(), rc(), rc(), rc()
        s = rho + c
        half = e_of(s / 2) if i < k else e_of(-s / 2)
        fac = (branch_power(i, k, s, cfg) * half
               * gamma_ratio([s - a_i], [-a_i]) * gamma_ratio([a_k - rho], [a_k + c]))
        bt = lambda a, b: complex(regularized_beta(np.array([[a]]), b)[0, 0])
        power = branch_power(i, k, s, cfg) * (1.0 if i < k else e_of(-s))
        r_i = a_i * power * bt(a_i, 1 - s) / (e_of(a_i) - 1)
        r_k1 = (a_k - rho) * bt(a_k + c, 1 - s) / (e_of(a_k - rho) - 1)
        fac_r = ((e_of(a_i - s) - 1) ** -1 * r_i * (e_of(a_i) - 1)
                 * (e_of(a_k + c) - 1) / (e_of(a_k - rho) - 1) / r_k1)
        assert abs(fac / fac_r - 1) < 1e-11
