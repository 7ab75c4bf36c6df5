"""Matrix-free Monte Carlo estimation of symmetric-matrix diagonals.

The package provides probe-based diagonal estimators, evaluators for their
probabilistic error bounds and (epsilon, delta) sample planners, and an
experiment harness that reproduces the standard benchmark studies as CSV.
"""

from .bounds import (
    ComponentConstants,
    DgsmConstants,
    GaussianNormwisePlan,
    NormwiseConstants,
    component_constants,
    component_tail_bound,
    dgsm_constants,
    dgsm_tail_bound,
    epsilon_for_samples_dgsm,
    epsilon_for_samples_normwise,
    normwise_constants,
    normwise_tail_bound,
    plan_samples_component,
    plan_samples_dgsm,
    plan_samples_gaussian_normwise,
    plan_samples_normwise,
    quadratic_model_constants,
)
from .estimators import (
    DegenerateProbeError,
    DiagonalEstimate,
    GradientOracle,
    QuadraticGradientOracle,
    componentwise_relative_error,
    estimate_dgsm,
    estimate_diagonal,
    estimate_diagonal_normalized,
    normwise_relative_error,
)
from .matrixmarket import MatrixMarketError, load_matrix_market
from .operators import (
    CooSymmetric,
    DecayingRankOne,
    DenseSymmetric,
    IdentityPlusRankOne,
    MatrixFreeOperator,
    SymmetricOperator,
    TridiagToeplitz,
    UnsupportedOperationError,
    make_test_matrix,
)
from .probes import (
    STREAM_FORMAT,
    EstimatorSpec,
    RngState,
    derive_seed,
    gaussian,
    rademacher,
    sample_probe_block,
    sparse_rademacher,
)

__version__ = "0.1.0"
