"""Stabilized saddle point discretizations with a computable dual product.

The package measures and verifies the spectral constants that govern a
residual-based stabilization: a truth-space model of a Hilbert space and its
dual (``hilbert``), the surrogate dual product on an auxiliary subspace with
its equivalence constants (``dualprod``), assembly and coercivity checks of
the stabilized system (``saddle``), a 1D mixed model for experiments
(``models``), and a CLI (``cli``) built on dense symmetric kernels
(``algebra``).
"""

from .algebra import (
    DimensionMismatch,
    EigResult,
    NotSpd,
    SpdFactorization,
    cholesky,
    operator_norm,
    spd_solve,
    sym_generalized_eig,
    sym_generalized_eigvals,
)
from .dualprod import (
    BoundViolated,
    DeflatedPressures,
    DegeneratePencil,
    DualProduct,
    EquivalenceReport,
    StiffnessForm,
    c_apply,
    deflate_pressures,
    dual_equivalence_interval,
    equivalence_report,
    estimate_c_star,
    infsup_qw,
    make_stiffness,
    pressure_deflation,
    stiffness_from_matrix,
    verify_cstar_infsup_link,
    verify_dual_equivalence,
    verify_infsup_sandwich,
    verify_stiffness_bound,
)
from .hilbert import (
    DualBasis,
    Functional,
    Subspace,
    TruthSpace,
    adjoint_project,
    dual_basis,
    dual_norm,
    orthogonal_project,
)
from .models import (
    ManufacturedSolution,
    ModelConfig,
    NestingViolated,
    build_level,
    build_spaces,
    build_truth,
    default_solution,
    error_norms,
    exact_coefficients,
    truth_record,
)
from .saddle import (
    ConstantsReport,
    DegenerateDenominator,
    Discretization,
    GammaTooLarge,
    GammaZero,
    QuasiOptimality,
    SaddleProblem,
    SingularSystem,
    StabilizedSystem,
    ThreeFieldSystem,
    TruthRecord,
    assemble_stabilized,
    assemble_three_field,
    constants,
    measure_truth,
    quasi_optimality,
    solve,
    split_truth,
    static_condense,
    verify_coercivity,
    verify_relaxed_infsup,
)

__version__ = "0.1.0"
