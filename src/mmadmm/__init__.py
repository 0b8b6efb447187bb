"""Block-splitting solvers for linearly constrained convex problems.

Every solver kind (sequential two-block, all-parallel, mixed two-phase,
mixed with backtracking, and the parallel presets) is a two-phase partition
of the blocks plus a proximal-weight rule, run by one ``step`` over one
canonical block subproblem. Around the solvers sit variable-partition
heuristics, benchmark problem builders with a joint smooth coupling term,
and rate-bound diagnostics.
"""

from .blockspace import (
    BlockOperator,
    BlockOperatorFamily,
    BlockVector,
    DenseMatrixOp,
    DimensionError,
    InvalidWeightError,
    LeftMultiplyOp,
    MaskProjectionOp,
    RightMultiplyOp,
    ScaledIdentityOp,
    StackedOp,
    WeightMatrix,
    ZeroOp,
    combined_op_norm_sq,
    dense_matrix,
    estimate_op_norm_sq,
    gram_cross_is_zero,
    residual,
    stack_rows,
)
from .diagnostics import (
    AssumptionError,
    BoundReport,
    KKTCertificate,
    bound_report,
    hat_lambda,
    kkt_gap,
    oracle_solve,
    quadratic_oracle,
    theorem_H0,
    theorem_alpha,
    theorem_bound_rhs,
    verify_kkt,
)
from .partition import (
    Partition,
    best_prefix,
    case1_partition,
    case1_scan,
    case2_partition,
    case3_partition,
    choose_partition,
)
from .problems import (
    DataGenSpec,
    ProblemSpec,
    build_latent_lrr,
    build_lrr,
    build_nonneg_matrix_completion,
    build_nonneg_sparse_coding,
    build_nonneg_sparse_coding_noisy,
    from_manifest,
    make_subspace_data,
)
from .prox import ProxFunction
from .solvers import (
    SOLVER_KINDS,
    BacktrackingConsistencyError,
    DivergenceError,
    IterationTrace,
    SolverConfig,
    SolverResult,
    SolverState,
    UnsupportedSubproblemError,
    default_weights,
    dual_update,
    ergodic_average,
    run,
    step,
)
from .surrogates import SmoothQuadCoupling

__version__ = "0.1.0"
