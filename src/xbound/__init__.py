"""X-matrix lower bound on concurrence for bipartite quantum states."""

from .errors import (
    IndexOutOfRange,
    InvalidRank,
    InvariantViolation,
    NonFinite,
    NotHermitian,
    NotPositive,
    NotUnitary,
    OutOfRange,
    StateNormError,
    StateValidationError,
    TraceNotOne,
    WrongDimensions,
)
from .highdim import (
    GeneralBoundReport,
    PairIndex,
    generalized_lower_bound,
    i_concurrence_pure,
    pair_bound,
)
from .linalg import (
    DensityMatrix,
    PureState,
    Tolerances,
    conjugate_by_local_unitary,
    partial_trace_B,
    projector,
    pure_state,
    sample_haar_pure,
    sample_haar_unitary,
    sample_random_density,
    validate_density,
)
from .oracle import (
    BasisResult,
    DecompositionCandidate,
    FuzzReport,
    OptimizerConfig,
    RoofResult,
    convex_roof_upper,
    fuzz_inequality,
    optimize_basis,
)
from .reference_states import (
    IsotropicState,
    bell_phi_plus,
    chi_state,
    isotropic_bound_closed_form,
    isotropic_exact_concurrence,
    isotropic_matrix,
    maximally_entangled,
    maximally_mixed,
    singlet,
    werner_exact_concurrence,
    werner_state,
)
from .two_qubit import (
    BoundReport,
    XCore,
    certify_from_elements,
    pure_concurrence_2q,
    wootters_concurrence,
    x_concurrence,
    x_decompose,
    x_lower_bound,
)

__version__ = "0.1.0"
