"""Okubo systems: Katz operations, Yokoyama canonical forms, closed-form
connection coefficients and monodromy, with an independent numerical
verifier."""

from .core import (
    BlockStructure,
    BranchError,
    GenericityError,
    KernelError,
    MonodromyTuple,
    NonDiagonalizable,
    OkuboError,
    OkuboSystem,
    PathConfig,
    PoleError,
    RankError,
    ResonanceError,
    SchlesingerSystem,
    ShapeError,
    SingularBlock,
    SingularPoint,
    SingularPsi,
    StepFailure,
    StructureError,
    ZeroScalar,
    branch_power,
    default_config,
    e_of,
    gamma_c,
    okubo_to_schlesinger,
    rank_factorization,
    schlesinger_to_okubo,
    right_inverse,
)
from .katz import (
    McAddWitness,
    ReductionWitness,
    add_monodromy,
    add_system,
    complement_factorization,
    convolve_monodromy,
    convolve_system,
    k_reduce_system,
    l_reduce_system,
    mc_add_monodromy,
    mc_add_system,
    middle_convolution_monodromy,
    middle_convolution_system,
)
from .yokoyama import (
    YokoyamaSpec,
    canonical_system,
    katz_chain,
    sample_spec,
    symmetry_conjugate,
    xieta_closed_form,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
