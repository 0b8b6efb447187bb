"""Block-splitting solvers for linearly constrained convex problems.

The package provides four related iteration schemes built on one canonical
block subproblem (sequential two-block, all-parallel, mixed two-phase, and
mixed with backtracking), variable-partition heuristics, benchmark problem
builders with a joint smooth coupling term, and rate-bound diagnostics.
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
    NegationOp,
    RightMultiplyOp,
    RowGroup,
    ScaledIdentityOp,
    StackedOp,
    StructureError,
    WeightMatrix,
    ZeroOp,
    combined_op_norm_sq,
    dense_matrix,
    detect_row_groups,
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
    case1_partition,
    case1_scan,
    case2_partition,
    case3_partition,
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
    gs_admm_step,
    jacobi_admm_step,
    madmm_bt_step,
    madmm_step,
    run,
)
from .surrogates import SmoothQuadCoupling

__version__ = "0.1.0"
