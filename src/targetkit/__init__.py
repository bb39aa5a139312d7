"""targetkit: structured solutions of the matrix equation A X = Y.

Given equally sized matrices X and Y, decide whether a square targeting
matrix A with a requested structure (Hermitian, positive semidefinite,
unitary, reflection, projection, complex symmetric, normal with a
two-point spectrum, ...) exists with ``A X = Y``; construct one when it
does, with every answer re-verified independently before it is returned.
"""

from .errors import (
    BadFreeParameterError,
    BadSpecError,
    BadVariantPreconditionError,
    ConditionViolatedError,
    InfeasibleError,
    LambdaSearchError,
    NumericFailureError,
    RankProvisoError,
    ShapeError,
    TargetkitError,
    TooLargeError,
    ZeroMatrixError,
    ZeroTargetError,
    ZeroVectorError,
)
from .feasibility import (
    COMPLEX_SYMMETRIC,
    HERMITIAN,
    INVERTIBLE,
    INVERTIBLE_HERMITIAN,
    NORMAL_VECTOR,
    ORTHOGONAL_PROJECTION,
    POSITIVE_DEFINITE,
    POSITIVE_SEMIDEFINITE,
    REFLECTION,
    UNCONSTRAINED,
    UNITARY,
    Condition,
    FeasibilityReport,
    PropertyClass,
    check,
    normal_two_point,
)
from .linalg import (
    DEFAULT_TOL,
    SvdFactors,
    TolerancePolicy,
    numerical_rank,
    schur_congruence,
    svd_partitioned,
)
from .mmio import read_matrix, write_matrix
from .solvers import (
    COMPLETION_GAP_NOTE,
    CompletionBlocks,
    TargetingSolution,
    completion_blocks,
    completion_gap,
    solve,
    solve_complex_symmetric,
    solve_hermitian,
    solve_invertible,
    solve_invertible_hermitian,
    solve_normal_two_point,
    solve_normal_vector,
    solve_pd,
    solve_projection,
    solve_psd,
    solve_reflection,
    solve_unconstrained,
    solve_unitary,
    solve_unitary_polar,
)
from .sources import (
    build_source_hermitian,
    build_source_projection,
    build_source_reflection,
)
from .verify import (
    InstanceSpec,
    PropertyReport,
    generate_instance,
    oracle_feasible_subspace,
    verify_property,
    verify_targeting,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "TargetkitError",
    "ShapeError",
    "ZeroMatrixError",
    "ZeroVectorError",
    "ZeroTargetError",
    "BadVariantPreconditionError",
    "BadFreeParameterError",
    "BadSpecError",
    "TooLargeError",
    "ConditionViolatedError",
    "InfeasibleError",
    "RankProvisoError",
    "NumericFailureError",
    "LambdaSearchError",
    # numerics
    "TolerancePolicy",
    "DEFAULT_TOL",
    "SvdFactors",
    "svd_partitioned",
    "numerical_rank",
    "schur_congruence",
    # feasibility
    "PropertyClass",
    "Condition",
    "FeasibilityReport",
    "check",
    "normal_two_point",
    "UNCONSTRAINED",
    "INVERTIBLE",
    "HERMITIAN",
    "INVERTIBLE_HERMITIAN",
    "POSITIVE_SEMIDEFINITE",
    "POSITIVE_DEFINITE",
    "UNITARY",
    "REFLECTION",
    "ORTHOGONAL_PROJECTION",
    "COMPLEX_SYMMETRIC",
    "NORMAL_VECTOR",
    # solvers
    "TargetingSolution",
    "CompletionBlocks",
    "completion_blocks",
    "solve",
    "solve_unconstrained",
    "solve_invertible",
    "solve_hermitian",
    "solve_invertible_hermitian",
    "solve_psd",
    "solve_pd",
    "solve_unitary",
    "solve_unitary_polar",
    "solve_reflection",
    "solve_projection",
    "solve_complex_symmetric",
    "solve_normal_two_point",
    "solve_normal_vector",
    "completion_gap",
    "COMPLETION_GAP_NOTE",
    # sources
    "build_source_hermitian",
    "build_source_reflection",
    "build_source_projection",
    # verification
    "PropertyReport",
    "verify_property",
    "verify_targeting",
    "InstanceSpec",
    "generate_instance",
    "oracle_feasible_subspace",
    # file I/O
    "read_matrix",
    "write_matrix",
]
