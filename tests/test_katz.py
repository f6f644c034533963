import numpy as np
import pytest

from okubo.core import (
    BlockStructure,
    KernelError,
    MonodromyTuple,
    SchlesingerSystem,
    StructureError,
    ZeroScalar,
    default_config,
    e_of,
    okubo_to_schlesinger,
)
from okubo.katz import (
    add_monodromy,
    add_system,
    complement_factorization,
    convolve_monodromy,
    convolve_system,
    is_okubo_type,
    k_reduce_system,
    l_reduce_system,
    mc_add_monodromy,
    mc_add_system,
    middle_convolution_monodromy,
    middle_convolution_system,
)
from okubo.yokoyama import (
    canonical_system,
    katz_chain,
    sample_spec,
    xieta_closed_form,
)

RNG = np.random.default_rng(42)


def rank1_seed(a1=0.21 + 0.33j, b1=-0.12 + 0.41j):
    return SchlesingerSystem(points=(0.0, 1.0),
                             residues=(np.array([[a1]]), np.array([[b1]])))


def random_schlesinger(n, r, rng):
    res = tuple(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for _ in range(r))
    return SchlesingerSystem(points=tuple(float(k) for k in range(r)),
                             residues=res)


def sorted_eigs(m):
    return np.sort_complex(np.linalg.eigvals(m))


# ---------------------------------------------------------------------------
# additions

def test_add_system_zero_is_identity():
    sch = random_schlesinger(3, 2, np.random.default_rng(0))
    out = add_system(sch, (0.0, 0.0))
    assert all(np.array_equal(a, b) for a, b in zip(out.residues, sch.residues))


def test_add_system_rank1():
    out = add_system(rank1_seed(), (0.5, 0.0))
    assert abs(out.residues[0][0, 0] - (0.21 + 0.33j + 0.5)) < 1e-15
    assert abs(out.residues[1][0, 0] - (-0.12 + 0.41j)) < 1e-15


def test_add_system_trace_bookkeeping():
    sch = random_schlesinger(3, 2, np.random.default_rng(1))
    a = (0.3 + 0.1j, -0.2j)
    out = add_system(sch, a)
    want = sch.a_infinity() - sum(a) * np.eye(3)
    assert np.max(np.abs(out.a_infinity() - want)) < 1e-14


def test_add_monodromy():
    mon = MonodromyTuple(matrices=(np.array([[2.0 + 0j]]), np.eye(1, dtype=complex)))
    out = add_monodromy(mon, (1.0, 1.0))
    assert np.array_equal(out.matrices[0], mon.matrices[0])
    out = add_monodromy(mon, (3.0, 1.0))
    assert abs(out.matrices[0][0, 0] - 6.0) < 1e-15
    with pytest.raises(ZeroScalar):
        add_monodromy(mon, (0.0, 1.0))


# ---------------------------------------------------------------------------
# convolution and reductions (system side)

def test_convolve_rank1_gives_hypergeometric_matrix():
    a1, b1, mu = 0.21 + 0.33j, -0.12 + 0.41j, 0.07 + 0.19j
    conv = convolve_system(rank1_seed(a1, b1), mu)
    want = np.array([[a1 + mu, b1], [a1, b1 + mu]])
    assert np.max(np.abs(conv.A - want)) < 1e-15
    assert conv.blocks.sizes == (1, 1)


def test_convolve_zero():
    sch = SchlesingerSystem(points=(0.0, 1.0),
                            residues=(np.zeros((2, 2)), np.zeros((2, 2))))
    conv = convolve_system(sch, 0.0)
    assert np.max(np.abs(conv.A)) == 0.0


def test_convolve_block_row_structure():
    sch = random_schlesinger(2, 2, np.random.default_rng(2))
    mu = 0.3 + 0.2j
    conv = convolve_system(sch, mu)
    total = np.zeros_like(conv.A)
    for k in range(2):
        bk = conv.residue(k)
        # zero outside block row k
        mask = np.ones((4, 4), dtype=bool)
        mask[2 * k:2 * k + 2, :] = False
        assert np.max(np.abs(np.where(mask, bk, 0))) == 0.0
        total += bk
    assert np.array_equal(total, conv.A)


def test_k_reduction_full_rank_is_similarity():
    rng = np.random.default_rng(3)
    sch = random_schlesinger(2, 2, rng)     # generic residues are full rank
    mu = 0.17 - 0.23j
    conv = convolve_system(sch, mu)
    _, w = middle_convolution_system(sch, mu)
    ksys = k_reduce_system(sch, w)
    assert ksys.n == 4
    assert np.max(np.abs(sorted_eigs(sum(ksys.residues)) - sorted_eigs(conv.A))) < 1e-8


def test_k_reduction_drops_zero_blocks():
    rng = np.random.default_rng(4)
    a1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    sch = SchlesingerSystem(points=(0.0, 1.0),
                            residues=(a1, np.zeros((2, 2))))
    _, w = middle_convolution_system(sch, 0.11 + 0.05j)
    assert w.ranks == [2, 0]


def test_k_reduction_rank1_scalar_blocks():
    sch = rank1_seed()
    mu = 0.07 + 0.19j
    _, w = middle_convolution_system(sch, mu)
    ksys = k_reduce_system(sch, w)
    bt = sum(ksys.residues)
    a1, b1 = sch.residues[0][0, 0], sch.residues[1][0, 0]
    want = np.array([[a1 + mu, b1], [a1, b1 + mu]])
    assert np.max(np.abs(bt - want)) < 1e-14


def test_l_reduction_full_rank_similarity():
    rng = np.random.default_rng(5)
    sch = random_schlesinger(2, 2, rng)
    mu = 0.31 + 0.11j
    _, w = middle_convolution_system(sch, mu)
    ksys = k_reduce_system(sch, w)
    lsys, (p0, q0, m) = l_reduce_system(ksys)
    assert m == ksys.n
    for a, b in zip(lsys.residues, ksys.residues):
        assert np.max(np.abs(sorted_eigs(a) - sorted_eigs(b))) < 1e-8


def test_l_reduction_zero_system():
    ksys = SchlesingerSystem(points=(0.0, 1.0),
                             residues=(np.zeros((2, 2)), np.zeros((2, 2))))
    lsys, (_, _, m) = l_reduce_system(ksys)
    assert m == 0 and lsys.n == 0


def test_middle_convolution_rank1_is_hge():
    a1, b1, mu = 0.21 + 0.33j, -0.12 + 0.41j, 0.07 + 0.19j
    out, w = middle_convolution_system(rank1_seed(a1, b1), mu)
    want = np.array([[a1 + mu, b1], [a1, b1 + mu]])
    assert np.max(np.abs(sum(out.residues) - want)) < 1e-13
    assert w.m == 2


def test_middle_convolution_dimension_count():
    rng = np.random.default_rng(6)
    sch = random_schlesinger(3, 2, rng)
    out, w = middle_convolution_system(sch, 0.21 - 0.13j)
    assert out.n == w.m  # by construction


# ---------------------------------------------------------------------------
# convolution and MC (monodromy side)

def test_convolve_monodromy_scalar():
    mon = MonodromyTuple(matrices=(np.array([[2.0 + 1j]]),))
    out = convolve_monodromy(mon, 0.5)
    assert abs(out.matrices[0][0, 0] - 0.5 * (2.0 + 1j)) < 1e-15


def test_convolve_monodromy_identity_tuple():
    mon = MonodromyTuple(matrices=(np.eye(2, dtype=complex),
                                   np.eye(2, dtype=complex)))
    out = convolve_monodromy(mon, 1.0)
    for m in out.matrices:
        assert np.array_equal(m, np.eye(4))


def test_convolve_monodromy_rank_bound():
    rng = np.random.default_rng(8)
    mats = tuple(np.eye(3) + 0.3 * (rng.standard_normal((3, 3))
                 + 1j * rng.standard_normal((3, 3))) for _ in range(2))
    mon = MonodromyTuple(matrices=mats)
    out = convolve_monodromy(mon, e_of(0.21 + 0.1j))
    bound = sum(np.linalg.matrix_rank(m - np.eye(3)) for m in mats) + 3
    for nk in out.matrices:
        assert np.linalg.matrix_rank(nk - np.eye(6)) <= bound


def test_mc_monodromy_hypergeometric():
    a1, b1, mu = 0.21 + 0.4j, -0.17 + 0.3j, 0.09 + 0.22j
    lam = e_of(mu)
    mon = MonodromyTuple(matrices=(np.array([[e_of(a1)]]),
                                   np.array([[e_of(b1)]])))
    out, w = middle_convolution_monodromy(mon, lam)
    a2, b2, r1 = a1 + mu, b1 + mu, mu
    want1 = np.array([[e_of(a2), e_of(b2 - r1) - 1], [0, 1]])
    want2 = np.array([[1, 0], [e_of(r1) * (e_of(a2 - r1) - 1), e_of(b2)]])
    assert np.max(np.abs(out.matrices[0] - want1)) < 1e-13
    assert np.max(np.abs(out.matrices[1] - want2)) < 1e-13


def test_mc_monodromy_output_dimension():
    rng = np.random.default_rng(9)
    mats = tuple(np.eye(2) + 0.4 * (rng.standard_normal((2, 2))
                 + 1j * rng.standard_normal((2, 2))) for _ in range(2))
    mon = MonodromyTuple(matrices=mats)
    out, w = middle_convolution_monodromy(mon, e_of(0.11 + 0.21j))
    assert out.n == w.m


def test_mc_spectra_match_yokoyama_rho():
    # product spectrum of MC of a rank-one tuple = e(rho)-profile of (I*)_n
    rng = np.random.default_rng(10)
    spec = sample_spec("I*", 3, rng)
    seed = MonodromyTuple(matrices=tuple(
        np.array([[e_of(a - spec.rho[0])]]) for a in spec.alpha))
    out, _ = middle_convolution_monodromy(seed, e_of(spec.rho[0]))
    prod = out.product()
    want = np.sort_complex(np.array([e_of(r) for r in spec.rho_list()]))
    got = np.sort_complex(np.linalg.eigvals(prod))
    assert np.max(np.abs(got - want)) < 1e-8


# ---------------------------------------------------------------------------
# rank complements

def test_complement_block_diagonal_zero():
    blocks = BlockStructure((2, 2))
    x = np.zeros((4, 4), dtype=complex)
    x[2:, 2:] = np.diag([1.0, 2.0])
    xi, eta, l = complement_factorization(x, blocks, 1)
    assert l == 0 and xi.shape == (2, 0)


def test_complement_planted_schur_rank_one():
    rng = np.random.default_rng(11)
    blocks = BlockStructure((2, 2))
    d = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    v = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
    a = b @ np.linalg.solve(d, c) + u @ v
    x = np.block([[a, b], [c, d]])
    xi, eta, l = complement_factorization(x, blocks, 1)
    assert l == 1
    assert np.max(np.abs(xi @ eta - u @ v)) < 1e-10


def test_complement_matches_type_II_lemma_up_to_gauge():
    rng = np.random.default_rng(12)
    spec = sample_spec("II", 2, rng)
    sysm = canonical_system(spec)
    rho2 = spec.rho[1]
    x = sysm.A - rho2 * np.eye(4)
    xi, eta, l = complement_factorization(x, sysm.blocks, 0)
    assert l == 1
    xi_cf, eta_cf = xieta_closed_form(spec)
    assert np.max(np.abs(xi @ eta - xi_cf @ eta_cf)) < 1e-9


# ---------------------------------------------------------------------------
# middle convolution with additions

def test_mc_add_chain_III_to_II():
    # one chain step: (III)_3 + (k=2, c, rho) -> (II)_4 canonical
    from okubo.yokoyama import _descend, canonical_system

    rng = np.random.default_rng(13)
    spec = sample_spec("II", 2, rng)
    steps = _descend(spec)        # [base (II)_2, -> (III)_3, -> (II)_4]
    src = steps[2]["source"]
    sys_src = canonical_system(src)
    xi, eta = xieta_closed_form(src, rho=steps[2]["rho"])
    out, w = mc_add_system(sys_src, steps[2]["k"], steps[2]["c"],
                           steps[2]["rho"], xi_eta=(xi, eta))
    want = canonical_system(spec)
    assert np.max(np.abs(out.A - want.A)) < 1e-12
    assert out.blocks.sizes == (2, 2)


def test_mc_add_chain_II_to_III():
    from okubo.yokoyama import _descend, canonical_system

    rng = np.random.default_rng(14)
    spec = sample_spec("III", 2, rng)
    steps = _descend(spec)
    last = steps[-1]
    src = last["source"]
    sys_src = canonical_system(src)
    xi, eta = xieta_closed_form(src, rho=last["rho"])
    out, _ = mc_add_system(sys_src, last["k"], last["c"], last["rho"],
                           xi_eta=(xi, eta))
    want = canonical_system(spec)
    assert np.max(np.abs(out.A - want.A)) < 1e-12


def test_mc_add_block_row_structure():
    rng = np.random.default_rng(15)
    spec = sample_spec("II", 2, rng)
    sysm = canonical_system(spec)
    c, rho = 0.21 - 0.12j, 0.33 + 0.27j
    out, w = mc_add_system(sysm, 1, c, rho)
    nk, l = 2, out.blocks.sizes[1] - 2
    sl_old = slice(2, 2 + nk)
    sl_new = slice(2 + nk, 2 + nk + l)
    # (k-old, k-new) block is zero, new diagonal is rho, (k-new, k-old) zero
    assert np.max(np.abs(out.A[sl_old, sl_new])) == 0.0
    assert np.max(np.abs(out.A[sl_new, sl_old])) == 0.0
    assert np.max(np.abs(out.A[sl_new, sl_new] - rho * np.eye(l))) < 1e-14
    # old block rows of A reappear verbatim in the k-old rows
    assert np.array_equal(out.A[sl_old, :2], sysm.A[2:, :2])
    assert np.array_equal(out.A[sl_old, sl_old], sysm.A[2:, 2:])


def test_mc_add_kernel_preconditions():
    rng = np.random.default_rng(16)
    spec = sample_spec("II", 2, rng)
    sysm = canonical_system(spec)
    with pytest.raises(KernelError):
        mc_add_system(sysm, 0, 0.0, 0.37 + 0.1j)        # c = 0 kills Ker(A_k+c)
    with pytest.raises(KernelError):
        mc_add_system(sysm, 0, 0.5, spec.alpha[0])      # rho hits an eigenvalue
    with pytest.raises(KernelError):
        mc_add_system(sysm, 0, -spec.alpha[0], 0.37 + 0.1j)   # -c = alpha_1


def test_mc_add_kernel_guard_ignores_non_normality():
    # the last step (rank 12 -> 13) has sigma_min(A_k + c) ~ 1.6e-5, far
    # below its eigenvalue gap min|eig(A_kk) + c| ~ 0.48 and |c| ~ 0.50;
    # Ker(A_k + c) is trivial, so the chain must go through
    spec = sample_spec("III", 6, np.random.default_rng(35))
    chain_sys, _ = katz_chain(spec)
    canon = canonical_system(spec)
    scale = max(1.0, float(np.max(np.abs(canon.A))))
    assert np.max(np.abs(chain_sys.A - canon.A)) / scale < 1e-8


def test_mc_add_fuchs_preserved():
    # the local exponents of mc_add: block k keeps eig(A_kk) and gains rho
    # l times; every other block shifts by -(rho + c)
    from okubo.verify import spectrum_matches
    rng = np.random.default_rng(17)
    spec = sample_spec("III", 1, rng)
    sysm = canonical_system(spec)
    k, c, rho = 1, 0.11 + 0.21j, 0.4 - 0.17j
    out, w = mc_add_system(sysm, k, c, rho)
    l = w.xi.shape[1]
    assert l >= 1
    assert out.blocks.sizes[k] == sysm.blocks.sizes[k] + l
    for i in range(sysm.r):
        want = np.linalg.eigvals(sysm.block(i, i))
        if i == k:
            want = list(want) + [rho] * l
        else:
            want = list(want - (rho + c))
        assert spectrum_matches(out.block(i, i), want) < 1e-9


def test_mc_add_monodromy_structure_and_s_equals_lambda():
    rng = np.random.default_rng(18)
    spec = sample_spec("II", 2, rng)
    sysm = canonical_system(spec)
    from okubo.connection import assemble_monodromy, closed_form_connection
    cfg = default_config(spec.points)
    mon = assemble_monodromy(closed_form_connection(spec, cfg), spec)
    s = lam = e_of(0.23 + 0.31j)
    out, w = mc_add_monodromy(mon, sysm.blocks, 0, s, lam)
    assert is_okubo_type(out, out.blocks, tol=1e-12)
    # s = lambda: the i<k (k1)-block of M^mc reduces to M_ik; here k=0 so
    # check the i>k collapse instead: factor (M^(k)_kk - lam/s) pattern
    out2, _ = mc_add_monodromy(mon, sysm.blocks, 1, s, lam)
    m0k = lam * mon.matrices[0] @ mon.matrices[1]
    i_blk = out2.matrices[0][0:2, 2:4]
    corr = (m0k[2:4, 2:4] - (lam / s) * np.eye(2)) @ np.linalg.inv(
        m0k[2:4, 2:4] - np.eye(2))
    want = (s / lam) * mon.matrices[0][0:2, 2:4] @ corr
    assert np.max(np.abs(i_blk - want)) < 1e-12


def test_mc_add_monodromy_rejects_non_okubo():
    rng = np.random.default_rng(19)
    mats = tuple(np.eye(2) + 0.4 * (rng.standard_normal((2, 2))
                 + 1j * rng.standard_normal((2, 2))) for _ in range(2))
    mon = MonodromyTuple(matrices=mats)
    with pytest.raises(StructureError):
        mc_add_monodromy(mon, BlockStructure((1, 1)), 0, 2.0, 3.0)


def test_mc_add_compatibility_system_vs_monodromy():
    """Numeric monodromy of mc_add_system output is simultaneously conjugate
    (block-diagonal intertwiner) to mc_add_monodromy of the input monodromy."""
    from okubo.verify import intertwiner, numeric_monodromy

    rng = np.random.default_rng(20)
    spec = sample_spec("II", 2, rng)
    sysm = canonical_system(spec)
    cfg = default_config(spec.points)
    mon_in = numeric_monodromy(sysm, cfg)
    c, rho = 0.11 - 0.23j, 0.31 + 0.15j
    sys2, _ = mc_add_system(sysm, 0, c, rho)
    mon_sys = numeric_monodromy(sys2, cfg)
    mon_mc, _ = mc_add_monodromy(mon_in, sysm.blocks, 0, e_of(c), e_of(-rho))
    for a, b in zip(mon_sys.matrices, mon_mc.matrices):
        err = np.max(np.abs(sorted_eigs(a) - sorted_eigs(b)))
        assert err < 1e-7
    r, res = intertwiner(mon_sys, mon_mc)
    assert res < 1e-7
    assert np.linalg.cond(r) < 1e6
    off = r.copy()
    for b in range(sys2.blocks.r):
        sl = sys2.blocks.block_slice(b)
        off[sl, sl] = 0
    assert np.max(np.abs(off)) < 1e-7 * np.max(np.abs(r))


def test_add_consistency_with_numeric_monodromy():
    """The added system's monodromy (for Z = prod (x-t_k)^(a_k) Y) equals
    Add_(e(a_k)) of the original numeric monodromy."""
    from okubo.verify import continue_along, loop_path, numeric_canonical_solution

    rng = np.random.default_rng(29)
    spec = sample_spec("II", 1, rng)
    sysm = canonical_system(spec)
    cfg = default_config(spec.points)
    psi = numeric_canonical_solution(sysm, cfg)
    from okubo.verify import numeric_monodromy
    mon = numeric_monodromy(sysm, cfg)
    a = (0.23 + 0.11j, -0.31 + 0.07j)
    added = add_system(okubo_to_schlesinger(sysm), a)
    for k in range(2):
        out = continue_along(added, psi, loop_path(cfg, k).pieces,
                             rtol=cfg.rtol, atol=cfg.atol)
        want = psi @ (e_of(a[k]) * mon.matrices[k])
        assert np.max(np.abs(out - want)) < 1e-8


@pytest.mark.parametrize("kind,n", [("II", 2), ("I", 3)])
def test_plain_mc_additive_multiplicative_compatibility(kind, n):
    """Numeric monodromy of mc_mu(system) vs MC_e(mu)(numeric monodromy):
    per-matrix spectra and the product spectrum agree."""
    from okubo.core import schlesinger_to_okubo
    from okubo.verify import numeric_monodromy

    rng = np.random.default_rng(30)
    spec = sample_spec(kind, n, rng)
    sysm = canonical_system(spec)
    cfg = default_config(spec.points)
    mu = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.15, 0.5))
    out, w = middle_convolution_system(okubo_to_schlesinger(sysm), mu)
    out_ok = schlesinger_to_okubo(out, BlockStructure(tuple(w.ranks)))
    mon_sys = numeric_monodromy(out_ok, cfg)
    mon_in = numeric_monodromy(sysm, cfg)
    mon_mc, _ = middle_convolution_monodromy(mon_in, e_of(mu))
    assert mon_mc.n == mon_sys.n
    for a, b in zip(mon_sys.matrices, mon_mc.matrices):
        assert np.max(np.abs(sorted_eigs(a) - sorted_eigs(b))) < 1e-7
    pa, pb = mon_sys.product(), mon_mc.product()
    assert np.max(np.abs(sorted_eigs(pa) - sorted_eigs(pb))) < 1e-7


def test_mc_add_three_point_system_compatibility():
    """r = 3 exercises both the i < k and i > k branches of the (k1)/(k2)
    assembly at once (k in the middle); validated against the system route."""
    from okubo.verify import intertwiner, numeric_monodromy

    rng = np.random.default_rng(23)
    spec = sample_spec("I*", 3, rng)
    sysm = canonical_system(spec)
    cfg = default_config(spec.points)
    c, rho = 0.17 - 0.21j, 0.29 + 0.33j
    sys2, w = mc_add_system(sysm, 1, c, rho)
    assert sys2.blocks.sizes == (1, 3, 1)
    mon_in = numeric_monodromy(sysm, cfg)
    mon_sys = numeric_monodromy(sys2, cfg)
    mon_mc, _ = mc_add_monodromy(mon_in, sysm.blocks, 1, e_of(c), e_of(-rho))
    assert is_okubo_type(mon_mc, sys2.blocks, tol=1e-8)
    for a, b in zip(mon_sys.matrices, mon_mc.matrices):
        assert np.max(np.abs(sorted_eigs(a) - sorted_eigs(b))) < 1e-7
    r, res = intertwiner(mon_sys, mon_mc)
    assert res < 1e-7 and np.linalg.cond(r) < 1e8
    off = r.copy()
    for b in range(sys2.blocks.r):
        sl = sys2.blocks.block_slice(b)
        off[sl, sl] = 0
    assert np.max(np.abs(off)) < 1e-6 * np.max(np.abs(r))


def test_mc_add_monodromy_hgem_to_III3_conjugacy():
    """The multiplicative chain step out of (II)_2 lands on a tuple conjugate
    to the assembled (III)_3 closed-form monodromy."""
    from okubo.connection import assemble_monodromy, closed_form_connection
    from okubo.verify import intertwiner
    from okubo.yokoyama import _descend

    rng = np.random.default_rng(21)
    spec3 = sample_spec("III", 1, rng)
    steps = _descend(spec3)
    base = steps[0]["spec"]
    cfg = default_config(spec3.points)
    mon2 = assemble_monodromy(closed_form_connection(base, cfg), base)
    step = steps[1]
    s, lam = e_of(step["c"]), e_of(-step["rho"])
    out, _ = mc_add_monodromy(mon2, base.blocks, step["k"], s, lam)
    mon3 = assemble_monodromy(closed_form_connection(spec3, cfg), spec3)
    assert out.n == mon3.n == 3
    r, res = intertwiner(out, mon3)
    assert res < 1e-9
    off = r.copy()
    for b in range(spec3.blocks.r):
        sl = spec3.blocks.block_slice(b)
        off[sl, sl] = 0
    assert np.max(np.abs(off)) < 1e-9 * np.max(np.abs(r))
