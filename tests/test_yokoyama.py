import numpy as np
import pytest

from okubo.core import GenericityError, ShapeError
from okubo.yokoyama import (
    YokoyamaSpec,
    canonical_system,
    katz_chain,
    sample_spec,
    swap_spec,
    symmetry_conjugate,
    xieta_closed_form,
    xieta_matrix_expression,
)

RNG = np.random.default_rng(77)


def prod(it):
    out = 1 + 0j
    for v in it:
        out *= v
    return out


# ---------------------------------------------------------------------------
# canonical forms

def test_type_I_canonical_entries():
    spec = sample_spec("I", 3, np.random.default_rng(0))
    a = canonical_system(spec).A
    al, rho = spec.alpha, spec.rho
    # K column is all ones
    assert np.array_equal(a[:2, 2], np.ones(2))
    want_l1 = -prod(al[0] - r for r in rho) / (al[0] - al[1])
    assert abs(a[2, 0] - want_l1) < 1e-14


def test_type_Istar_entries():
    spec = sample_spec("I*", 4, np.random.default_rng(1))
    a = canonical_system(spec).A
    for i in range(4):
        for j in range(4):
            want = spec.alpha[i] if i == j else spec.alpha[j] - spec.rho[0]
            assert abs(a[i, j] - want) < 1e-14


@pytest.mark.parametrize("kind,n", [("I", 4), ("I*", 4), ("II", 2), ("III", 2)])
def test_canonical_spectrum_is_rho_profile(kind, n):
    spec = sample_spec(kind, n, np.random.default_rng(2))
    a = canonical_system(spec).A
    got = np.sort_complex(np.linalg.eigvals(a))
    want = np.sort_complex(np.array(spec.rho_list()))
    assert np.max(np.abs(got - want)) < 1e-8


def test_fuchs_relation_per_type():
    for kind, n in [("I", 3), ("I*", 3), ("II", 2), ("III", 2)]:
        spec = sample_spec(kind, n, np.random.default_rng(3))
        assert spec.fuchs_residual() < 1e-10


def test_genericity_rejects_integer_exponent():
    with pytest.raises(GenericityError):
        YokoyamaSpec("I*", 3, alpha=(1.0, 0.3 + 0.2j, 0.1 + 0.4j),
                     rho=(0.2 + 0.1j, 1.0 + 0.4j)).check_genericity()


def test_unsupported_type_rejected():
    with pytest.raises(ShapeError):
        YokoyamaSpec("IV", 3, alpha=(0.1j,) * 3, rho=(0.1j,) * 3)


def test_vanishing_denominator_raises():
    # alpha_1 = alpha_2 makes the type I L-denominator vanish
    spec = YokoyamaSpec("I", 3, alpha=(0.3 + 0.2j, 0.3 + 0.2j, 0.1 + 0.1j),
                        rho=(0.2 + 0.1j, 0.3 + 0.3j, 0.2 + 0.1j))
    with pytest.raises(GenericityError):
        canonical_system(spec)


# ---------------------------------------------------------------------------
# Katz chains

@pytest.mark.parametrize("kind,n", [("I", 2), ("I", 4), ("I*", 3), ("I*", 4),
                                    ("II", 1), ("II", 2), ("III", 1), ("III", 2)])
def test_chain_equals_canonical(kind, n):
    spec = sample_spec(kind, n, np.random.default_rng(5))
    chain_sys, log = katz_chain(spec)
    canon = canonical_system(spec)
    scale = max(1.0, np.max(np.abs(canon.A)))
    assert np.max(np.abs(chain_sys.A - canon.A)) <= 1e-8 * scale
    assert chain_sys.blocks.sizes == canon.blocks.sizes
    assert len(log) >= 1


def test_chain_intermediate_fuchs():
    # each mc-add step of the chain lands on a system with the local
    # exponents and the exponents at infinity of the spec it rebuilds: the
    # source of the next step, and the target spec after the last
    from okubo.verify import spectrum_matches
    from okubo.yokoyama import _descend
    for kind, n in (("I", 4), ("II", 2), ("III", 2)):
        spec = sample_spec(kind, n, np.random.default_rng(6))
        _, log = katz_chain(spec)
        systems = [entry["system"] for entry in log if "system" in entry]
        rebuilt = [step["source"] for step in _descend(spec)[2:]] + [spec]
        assert len(systems) == len(rebuilt) >= 1
        for sysm, target in zip(systems, rebuilt):
            assert sysm.blocks.sizes == target.blocks.sizes
            for k, exps in enumerate(target.local_exponents()):
                assert spectrum_matches(sysm.block(k, k), exps) < 1e-8
            assert spectrum_matches(sysm.A, target.rho_list()) < 1e-8


def test_chain_istar_exponent_dictionary():
    # mc_mu of the rank-one system: diagonal alpha_k + mu, rho_1 = mu
    spec = sample_spec("I*", 3, np.random.default_rng(7))
    sysm, _ = katz_chain(spec)
    for i in range(3):
        assert abs(sysm.A[i, i] - spec.alpha[i]) < 1e-12
        for j in range(3):
            if i != j:
                assert abs(sysm.A[i, j] - (spec.alpha[j] - spec.rho[0])) < 1e-12


# ---------------------------------------------------------------------------
# rank-one complements

@pytest.mark.parametrize("kind,n", [("I", 3), ("I", 4), ("II", 2), ("II", 3),
                                    ("III", 1), ("III", 2)])
def test_xieta_outer_product_matches_schur(kind, n):
    rng = np.random.default_rng(8)
    spec = sample_spec(kind, n, rng)
    rho = None
    if kind == "I":
        rho = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.3, 0.9))
    xi, eta = xieta_closed_form(spec, rho=rho)
    schur = xieta_matrix_expression(spec, rho=rho)
    assert np.max(np.abs(xi @ eta - schur)) < 1e-9


def test_xieta_type_I_values():
    spec = sample_spec("I", 3, np.random.default_rng(9))
    rho = 0.21 + 0.43j
    xi, eta = xieta_closed_form(spec, rho=rho)
    want = -prod(rho - r for r in spec.rho) / prod(rho - a for a in spec.alpha[:2])
    assert abs(xi[0, 0] - want) < 1e-13
    assert eta[0, 0] == 1.0


def test_xieta_istar_unsupported():
    spec = sample_spec("I*", 3, np.random.default_rng(10))
    with pytest.raises(ShapeError):
        xieta_closed_form(spec, rho=0.3j)


# ---------------------------------------------------------------------------
# symmetry

def test_symmetry_identity():
    spec = sample_spec("I", 3, np.random.default_rng(11))
    sysm = canonical_system(spec)
    assert symmetry_conjugate(sysm, 1, 1) is sysm


def test_symmetry_swap_matches_swapped_spec():
    spec = sample_spec("I", 3, np.random.default_rng(12))
    swapped = swap_spec(spec, "alpha", 0, 1)
    conj = symmetry_conjugate(canonical_system(swapped), 0, 1)
    assert np.max(np.abs(conj.A - canonical_system(spec).A)) < 1e-12


def test_symmetry_double_swap_is_identity():
    spec = sample_spec("II", 2, np.random.default_rng(13))
    sysm = canonical_system(spec)
    twice = symmetry_conjugate(symmetry_conjugate(sysm, 2, 3), 2, 3)
    assert np.array_equal(twice.A, sysm.A)


def test_symmetry_rejects_cross_block():
    spec = sample_spec("II", 2, np.random.default_rng(14))
    sysm = canonical_system(spec)
    with pytest.raises(IndexError):
        symmetry_conjugate(sysm, 0, 2)


# ---------------------------------------------------------------------------
# random chain property (20 draws across types at n <= 4)

def test_chain_equals_canonical_random_draws():
    cases = [("I", 3), ("I", 4), ("I*", 4), ("II", 2), ("III", 2)]
    rng = np.random.default_rng(16)
    for kind, n in cases:
        for _ in range(4):
            spec = sample_spec(kind, n, rng)
            chain_sys, _ = katz_chain(spec)
            canon = canonical_system(spec)
            scale = max(1.0, np.max(np.abs(canon.A)))
            assert np.max(np.abs(chain_sys.A - canon.A)) <= 1e-8 * scale
