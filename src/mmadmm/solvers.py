"""Solver engines for linearly constrained block-separable problems.

Every solver kind is one scheme: a partition of the blocks into two phases
plus a rule for the proximal weights, run by :func:`step`. Each outer
iteration updates the first phase's blocks in parallel, anchored at the
previous iterate, then the second phase's blocks in parallel, anchored at
the result; an empty phase does nothing. Each block minimizes the same
canonical subproblem: a separable upper model of the augmented Lagrangian
built from the block's objective term, the penalty coupling anchored at the
phase's reference point, and a proximal weight ``G_i = eta_i I + g_i A_i^T
A_i``. A phase solves in place in the new iterate, block by block: a block's
adjoint, prox and apply run back to back, so its operator is read from
memory once. With several workers, each takes one contiguous share of the
phase's blocks.

- sequential two-block scheme (``gs``): the partition ``((0,), (1,))``;
- all-parallel scheme (``jacobi``): the partition ``((), all)``;
- mixed scheme (``madmm``): a user or heuristic partition ``(B1, B2)``;
- mixed scheme with backtracking (``madmm-bt``): proximal weights start
  small and are inflated by ``mu`` until the per-phase acceptance
  inequality holds.

Reference presets ``l-admm-ps``, ``pl-admm-ps``, and ``gl-admm-ps`` run the
all-parallel partition with the classical weight choices.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.linalg import lapack

from .blockspace import (
    BlockOperatorFamily,
    BlockVector,
    LeftMultiplyOp,
    StackedOp,
    WeightMatrix,
    dense_row_constant,
)
from .partition import Partition, choose_partition
from .prox import ProxFunction

__all__ = [
    "SOLVER_KINDS",
    "SolverConfig",
    "SolverState",
    "SolverResult",
    "IterationTrace",
    "UnsupportedSubproblemError",
    "DivergenceError",
    "BacktrackingConsistencyError",
    "dual_update",
    "step",
    "run",
    "ergodic_average",
    "default_weights",
    "phase_smoothness",
    "prepare_context",
    "assemble_block",
    "subproblem_value",
]

logger = logging.getLogger("mmadmm")

# Strictness margin for proximal weights that must dominate the coupling
# curvature strictly (second phase and all-parallel updates). First-phase
# weights may sit exactly at the certified level.
MARGIN_EQ = 1.0
MARGIN_STRICT = 1.02


class UnsupportedSubproblemError(RuntimeError):
    """A block update has no registered closed-form solve."""


class DivergenceError(RuntimeError):
    """Iterates left the finite range; carries the result so far."""

    def __init__(self, message: str, result: "SolverResult"):
        super().__init__(message)
        self.result = result


class BacktrackingConsistencyError(RuntimeError):
    """A backtracking phase was rejected with every weight past the safe level.

    Raised when each coupled block's weight is at least ``mu (eta'_i +
    tau)``, ``mu`` times the level where the phase's test holds in exact
    arithmetic (:func:`_bt_exhausted`), and the phase still fails it.
    """


@dataclass
class SolverConfig:
    """Run parameters shared by all solver kinds.

    ``eta_scale`` seeds the backtracking weights at
    ``eta_scale * n_j * ||A_i||_2^2``, ``n_j`` the phase's block count; a
    rejected phase multiplies its weights by ``mu``, and the second phase
    needs a margin ``tau`` (see :class:`BacktrackingConsistencyError`).
    ``schedule`` selects the penalty update: ``geometric`` multiplies by
    ``rho`` every iteration (capped at ``beta_max``), ``adaptive``
    multiplies by ``rho`` only when every block's scaled step ``beta
    ||x_i^{k+1} - x_i^k|| / max(||b||, 1)`` falls below ``eps_primal``.
    ``weights`` overrides the automatic per-block proximal weights;
    ``partition`` may be a Partition or ``"auto"``.
    Numeric fields are coerced to ``float``/``int`` and must be finite
    (``bool`` is not a number); an
    ``int`` field takes an integral value only (``10.0`` but not ``2.5``),
    and an integer passes through exactly, however large.
    """

    beta0: float = 1e-4
    rho: float = 1.1
    beta_max: float = 1e6
    max_iter: int = 10000
    eps_primal: float = 1e-4
    eps_step: float = 1e-4
    tau: float = 1.3
    mu: float = 2.0
    eta_scale: float = 0.01
    schedule: str = "geometric"
    partition: object = "auto"
    weights: Optional[Sequence[WeightMatrix]] = None

    def __post_init__(self):
        for f in fields(self):
            if isinstance(f.default, (int, float)):
                value = getattr(self, f.name)
                if isinstance(value, bool):
                    raise ValueError(f"{f.name} must be a number, got {value!r}")
                if isinstance(f.default, int) and isinstance(value, numbers.Integral):
                    setattr(self, f.name, int(value))
                    continue
                value = float(value)
                if not math.isfinite(value):
                    raise ValueError(f"{f.name} must be finite, got {value}")
                if isinstance(f.default, int) and not value.is_integer():
                    raise ValueError(f"{f.name} must be an integer, got {value}")
                setattr(self, f.name, type(f.default)(value))
        if self.beta0 <= 0:
            raise ValueError("beta0 must be positive")
        if self.beta_max < self.beta0:
            raise ValueError("beta_max must be at least beta0")
        if self.rho < 1:
            raise ValueError("rho must be at least 1 (nondecreasing penalty)")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if self.eps_primal < 0:
            raise ValueError("eps_primal must be nonnegative")
        if self.eps_step < 0:
            raise ValueError("eps_step must be nonnegative")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.mu <= 1:
            raise ValueError("mu must exceed 1")
        if self.eta_scale <= 0:
            raise ValueError("eta_scale must be positive")
        if self.schedule not in ("geometric", "adaptive"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        p = self.partition
        if not (isinstance(p, Partition) or isinstance(p, str) and p == "auto"):
            raise ValueError(
                f"unrecognized partition spec {p!r}; pass a Partition or 'auto'"
            )
        if self.weights is not None:
            self.weights = tuple(self.weights)
            for k, G in enumerate(self.weights):
                if not isinstance(G, WeightMatrix):
                    raise TypeError(
                        f"weights[{k}] must be a WeightMatrix, got {type(G).__name__}"
                    )


@dataclass
class IterationTrace:
    """One completed outer iteration, as written to trace CSVs."""

    k: int
    objective: float
    residual_norm: float
    rel_residual: float
    beta: float
    step_norm: float
    backtracks: int
    wall_time_ms: float


@dataclass
class SolverState:
    """Mutable iteration state: primal blocks, dual, penalty, weight levels.

    ``eta[i]`` is block ``i``'s level ``eta_i`` in its weight ``G_i = eta_i
    I + g_i A_i^T A_i``, whose ``g_i`` the solve plan fixes; :func:`run`
    starts it at the start weights' levels, and a rejected ``madmm-bt``
    phase multiplies it by ``mu``. ``images`` is ``(x, c, r, f, z)``: the
    block images ``c_i = A_i x_i`` of the iterate ``x``, their residual ``r
    = sum_i c_i - b``, ``f``, ``{i: value}`` of the block term values known
    at ``x`` (``None`` or absent: unknown), and ``z``, ``{i: X_i}`` of the
    range coordinates of the blocks that have a range basis and whose last
    update solved in them (see :class:`_RangeBasis`): such a block solves in
    them, any other in full space. ``X_i`` is block ``i``'s iterate, ``x_i =
    fl(Q_i X_i)``, but its slice of ``x`` is written only where the iterate
    leaves the engine (:func:`step` returns, :func:`run` observes, returns
    or raises ``DivergenceError``); in between it keeps the last value
    written, and the step norms, the backtracking test and the objective
    read ``X_i`` or the carried value instead. :func:`step` recomputes the images, with no values and no
    coordinates, when they belong to another iterate, so the blocks of a
    replaced iterate solve in full space from then on.
    """

    x: BlockVector
    lam: np.ndarray
    beta: float
    k: int = 0
    eta: list = field(default_factory=list)
    backtrack_count: int = 0
    trace: list = field(default_factory=list)
    images: Optional[tuple] = None


@dataclass
class SolverResult:
    """What :func:`run` returns; an observer passed to ``run`` sees the iterates."""

    state: SolverState
    trace: list
    stop_reason: str


def dual_update(lam: np.ndarray, beta: float, resid: np.ndarray) -> np.ndarray:
    """Ascent step ``lam + beta * resid`` on the multiplier."""
    return lam + beta * resid


def _check_penalties(betas: Sequence[float]) -> None:
    """Raise ``ValueError`` unless every penalty ``betas[k]`` is finite and positive."""
    for k, b in enumerate(betas):
        if not 0.0 < b < math.inf:
            raise ValueError(f"betas[{k}] must be finite and positive, got {b!r}")


def ergodic_average(iterates: Sequence[BlockVector], betas: Sequence[float]):
    """Average ``sum_k gamma_k x^{k+1}`` with ``gamma_k`` proportional to ``1/beta_k``.

    ``iterates[k]`` is the iterate produced with penalty ``betas[k]``; the
    weights are normalized to sum to one, so a constant penalty gives the
    plain mean. Each penalty must be finite and positive.
    """
    if len(iterates) != len(betas) or not iterates:
        raise ValueError("need one penalty value per iterate")
    _check_penalties(betas)
    inv = [1.0 / b for b in betas]
    total = sum(inv)
    acc = BlockVector.zeros(iterates[0].shapes)
    for w, xk in zip(inv, iterates):
        acc = acc + (w / total) * xk
    return acc


# ---------------------------------------------------------------------------
# Per-phase smoothness of the coupling
# ---------------------------------------------------------------------------


def phase_smoothness(
    A: BlockOperatorFamily, blocks: Sequence[int], dense_rows: bool = False
) -> dict:
    """Tight per-block curvature of ``0.5 ||sum_{i in blocks} A_i x_i||^2``.

    ``eta'_i`` sums ``k_r ||A_{r,i}||_2^2`` over the rows ``r`` of
    ``A.rows`` that block ``i`` acts in, where ``A_{r,i}`` is its piece
    there and ``k_r`` counts only blocks of this phase acting in row ``r``.
    On a family's default row this is ``n_eff ||A_i||_2^2``, ``n_eff`` the
    phase's coupled blocks. With ``dense_rows``, a row where two or more
    of the phase's blocks act takes ``min(c_r, k_r)`` in place of ``k_r``,
    ``c_r`` the :func:`dense_row_constant` of their pieces there (``inf``
    unless they are all dense), which is as valid a majorant.

    Returns ``{i: (eta_i, alone_i)}`` where ``alone_i`` is true when no other
    phase block shares a row with ``i``. Raises ``ValueError`` for a block
    that is not an index of the family.
    """
    members = set(blocks)
    for i in members:
        is_int = isinstance(i, numbers.Integral) and not isinstance(i, bool)
        if not (is_int and 0 <= i < A.n):
            raise ValueError(f"phase_smoothness: the family has no block {i!r}")
    etas = {i: 0.0 for i in members}
    alone = {i: True for i in members}
    for row in A.rows:
        act = [(i, op) for i, op in row if i in members]
        k = len(act)
        if dense_rows and k > 1:
            k = min(k, dense_row_constant([op for _, op in act]))
        for i, op in act:
            etas[i] += k * op.op_norm_sq
            if len(act) > 1:
                alone[i] = False
    return {i: (etas[i], alone[i]) for i in members}


# ---------------------------------------------------------------------------
# Solver kinds: weight rules and the kind table
# ---------------------------------------------------------------------------


def _folded_term(term):
    """Split a block term into (prox part, quadratic iso weight)."""
    if term is None or term.kind == "zero":
        return None, 0.0
    if term.kind == "sq-frobenius":
        return None, term.weight
    return term, 0.0


def _gram_path(prox_part, gram_kind):
    """``(path, None)`` if a block can keep its coupling Gram, else ``(None, why)``.

    ``prox_part`` is the block's unfolded term and ``gram_kind`` its
    operator's :meth:`gram_kind`.
    """
    if gram_kind is None:
        return None, "coupling Gram has no structured form; use a Gram-cancelling weight"
    entrywise = prox_part is None or prox_part.entrywise
    if gram_kind == "scalar" or gram_kind == "diag" and entrywise:
        return "diag", None
    if prox_part is None:
        return "eig", None
    term = repr(prox_part.kind)
    if gram_kind != "diag":
        return None, f"term {term} cannot be combined with a non-diagonal coupling Gram"
    return None, f"term {term} does not split entrywise over a diagonal Gram"


def _tight_weights(problem, coupled, margin, sm, config):
    """The tightest feasible of three levels, block by block.

    ``exact`` keeps ``G_i = 0`` for a block alone on its rows in its phase
    whose exact update has a closed form; ``iso`` is ``margin (eta'_i - c) I``
    when ``A_i^T A_i = c I``, keeping the Gram in the subproblem; otherwise
    :func:`_linearized_weights` (``linearized``). Its kinds read ``eta'_i``
    with the dense-row constants (:func:`phase_smoothness`).
    """
    for i in coupled:
        op = problem.family.operators[i]
        eta_p, alone = sm[i]
        gram_kind = op.gram_kind()
        prox_part, _ = _folded_term(problem.terms[i])
        if alone and _gram_path(prox_part, gram_kind)[0] is not None:
            yield i, WeightMatrix.zero(), "exact"
        elif gram_kind == "scalar":
            eta = margin * max(eta_p - op.gram_rep()[1], 0.0)
            yield i, WeightMatrix.scaled_identity(eta), "iso"
        else:
            yield from _linearized_weights(problem, (i,), margin, sm, config)


def _linearized_weights(problem, coupled, margin, sm, config):
    """``G_i = margin eta'_i I - A_i^T A_i``: cancels the Gram, a proximal step."""
    for i in coupled:
        op = problem.family.operators[i]
        yield i, WeightMatrix.identity_minus_gram(margin * sm[i][0], op), "linearized"


def _backtrack_seed(problem, coupled, margin, sm, config):
    """Linearized at ``eta_scale n_B ||A_i||^2``, ``n_B`` the phase's block count."""
    for i in coupled:
        op = problem.family.operators[i]
        eta = config.eta_scale * len(sm) * op.op_norm_sq
        yield i, WeightMatrix.identity_minus_gram(eta, op), "linearized"


def _scaled_gram_weights(problem, coupled, margin, sm, config):
    """``G_i = (n_live - 1) A_i^T A_i + 0.02 ||A_i||^2 I`` over the live blocks."""
    coef = float(len(coupled) - 1)
    for i in coupled:
        op = problem.family.operators[i]
        ridge = 0.02 * op.op_norm_sq
        yield i, WeightMatrix.scaled_gram(coef, op, ridge=ridge), "scaled-gram"


@dataclass(frozen=True)
class _Kind:
    """One solver kind: how it groups its blocks and which majorant it takes.

    ``partition``: ``"sequential"``, ``"parallel"`` or ``"mixed"`` (see
    :func:`_resolve_partition`). ``weights`` maps ``(problem, a phase's
    coupled blocks, margin, phase_smoothness, config)`` to ``(i, G_i,
    level)`` triples. ``smooth``: whether the kind linearizes a joint smooth
    term (``True``) or refuses a problem that has one (``False``).
    ``backtrack`` grows the weights by ``mu`` until each phase's test holds.
    ``rate_bound`` marks the kinds the diagnostics give a rate bound for.
    ``dense_rows``: whether its :func:`phase_smoothness` takes the dense-row
    constants; the others keep the block counts ``k_r``.
    """

    partition: str
    weights: Callable
    smooth: bool = True
    backtrack: bool = False
    rate_bound: bool = False
    dense_rows: bool = False


_KINDS = {
    "gs": _Kind("sequential", _tight_weights, rate_bound=True, dense_rows=True),
    "jacobi": _Kind("parallel", _tight_weights, rate_bound=True, dense_rows=True),
    "madmm": _Kind("mixed", _tight_weights, rate_bound=True, dense_rows=True),
    "madmm-bt": _Kind("mixed", _backtrack_seed, backtrack=True, rate_bound=True),
    "l-admm-ps": _Kind("parallel", _linearized_weights, smooth=False),
    "pl-admm-ps": _Kind("parallel", _linearized_weights),
    "gl-admm-ps": _Kind("parallel", _scaled_gram_weights),
}
SOLVER_KINDS = tuple(_KINDS)


def default_weights(problem, kind: str, partition=None, config=None, smoothness=None):
    """The kind's per-block proximal weights and weight levels.

    Runs the kind's weight rule over each phase of the kind's partition; the
    mixed kinds need ``partition``, the others ignore it. The margin is 1 for
    first-phase blocks and slightly above 1 elsewhere, where the curvature
    bound must be dominated strictly. ``config`` supplies ``eta_scale`` for
    the backtracking seed (default ``SolverConfig()``). ``smoothness`` maps
    each phase's blocks to its :func:`phase_smoothness`, taken as the kind
    takes it, when the caller has it. A block without constraint coupling
    gets ``G_i = 0`` at level ``unconstrained``. :func:`prepare_context`
    starts a run from these unless ``config.weights`` overrides them.
    """
    config = config or SolverConfig()
    A = problem.family
    G = [WeightMatrix.zero()] * A.n
    levels = ["unconstrained"] * A.n
    for blocks, margin in _phases(_resolve_partition(problem, kind, partition)):
        if smoothness is None:
            sm = phase_smoothness(A, blocks, _KINDS[kind].dense_rows)
        else:
            sm = smoothness[blocks]
        coupled = [i for i in blocks if A.operators[i].op_norm_sq > 0.0]
        for i, g, level in _KINDS[kind].weights(problem, coupled, margin, sm, config):
            G[i], levels[i] = g, level
    return G, levels


def _resolve_partition(problem, kind: str, requested=None) -> Partition:
    """The partition whose two phases define solver ``kind`` on ``problem``.

    A sequential kind is ``((0,), (1,))`` and needs two blocks; a parallel
    kind is ``((), all)``. A mixed kind takes ``requested``: a Partition
    covering every block, or ``"auto"`` for the problem's recommended
    partition, else the case-I heuristic. Every reader of ``_KINDS`` calls
    this first: it rejects an unknown kind.
    """
    n = problem.family.n
    if kind not in SOLVER_KINDS:
        raise ValueError(f"unknown solver kind {kind!r}; options: {SOLVER_KINDS}")
    rule = _KINDS[kind].partition
    if rule == "sequential":
        if n != 2:
            raise ValueError("the sequential two-block solver needs n = 2")
        return Partition((0,), (1,), case="user")
    if rule == "parallel":
        return Partition((), tuple(range(n)), case="user")
    if isinstance(requested, Partition):
        if not requested.covers(n):
            raise ValueError("partition does not cover all blocks")
        return requested
    if requested is None:
        raise ValueError("the mixed scheme needs its partition")
    if requested != "auto":
        raise ValueError(f"unrecognized partition spec {requested!r}")
    try:
        return choose_partition(problem)
    except ValueError as exc:
        raise ValueError(f"solver kind {kind!r} {exc}") from None


def _phases(partition: Partition):
    """``((b1, margin), (b2, margin))``: the two phases of every scheme."""
    return ((partition.b1, MARGIN_EQ), (partition.b2, MARGIN_STRICT))


# ---------------------------------------------------------------------------
# Canonical block subproblem
# ---------------------------------------------------------------------------


@dataclass
class _BlockPlan:
    """Frozen per-block solve recipe: path plus cached factorizations.

    ``gram_factor``, the model's Gram coefficient, is ``1 + g`` for a coupled
    block with weight ``G = eta I + g A_i^T A_i`` and 0 for an uncoupled one.
    On the ``diag`` path the Gram is ``diag``: a float ``c`` for ``c I`` or
    an array of the block's shape. On the ``eig`` path ``eig`` holds its
    eigendecomposition, ``orient`` the side it acts on. ``basis``, set by
    :func:`_range_basis`, is the ``F^T = Q R`` of a nuclear block whose
    iterates keep their columns in ``range(Q)``; the phase engine solves it
    in the coordinates of ``Q`` when its iterate carries them.
    """

    index: int
    op: object
    prox_term: Optional[ProxFunction]
    fold_iso: float
    gram_factor: float
    path: str = "diag"
    diag: object = 0.0
    eig: Optional[tuple] = None
    orient: str = ""
    smooth_eta: float = 0.0
    basis: Optional["_RangeBasis"] = None


class _RangeBasis(NamedTuple):
    """``F^T = Q R`` for a block ``Z -> F Z``, ``F`` an ``r x m`` stack of left
    factors, and the block's operator in the coordinates of ``Q``.

    ``Q`` is ``m x r`` with orthonormal columns, ``R`` is ``r x r`` upper
    triangular, ``rows`` indexes the block's rows in the flattened
    constraint space, in the order of ``F``'s rows (a slice when they are
    back to back), and ``out_shape`` is that space's shape. As ``F Q =
    R^T``, the block's operator on the ``r x n`` coordinates ``X`` of ``Z =
    Q X`` is :meth:`apply`, ``R^T X`` placed at ``rows``, with adjoint
    :meth:`adjoint`, ``u -> R u[rows]``. :func:`_run_phase` solves a block
    that carries its coordinates ``Y`` on this operator, anchored at ``Y``,
    and carries the new ``X`` as its iterate; the full-space block ``y_i =
    fl(Q Y)`` is written by :meth:`lift`, one product, only where the
    iterate leaves the engine (see :class:`SolverState`). Its model has no Gram
    term (a nuclear term takes no left Gram, so its weight cancels it) and
    no smooth term, so, with ``U`` the ``r x n`` stack of ``s_full`` on
    ``rows`` and ``q = beta eta``, it thresholds ``W = -(beta R U - beta
    eta Y) / q``: no adjoint, apply or ``m x n`` assembly.

    Why that is the full-space answer, whose prox input is ``V = -(beta F^T
    U - beta eta y_i) / q``: ``Q W = (Q P) S T^T`` is an SVD of ``Q W`` for
    an SVD ``W = P S T^T``, as ``Q P`` has orthonormal columns, so ``SVT(Q
    W) = Q SVT(W)`` and the kept singular values, hence the carried nuclear
    value, are those of ``W``. SVT is a prox, so it is nonexpansive in the
    Frobenius norm, and

        ``V - Q W = -(beta (F^T - Q R) U - beta eta (y_i - Q Y)) / q``

    bounds ``||Q SVT(W) - SVT(V)||_F`` by ``(beta ||F^T - Q R||_F ||U||_2 +
    beta eta ||y_i - Q Y||_F) / q``. The first term is the QR's backward
    error, which for Householder QR is ``||F^T - Q R||_F <= c m r u
    ||F||_F`` (Higham, *Accuracy and Stability of Numerical Algorithms*,
    Thm. 19.4). The second is the rounding of writing ``fl(Q Y)``: ``|fl(Q
    Y) - Q Y| <= gamma_r |Q| |Y|`` entrywise (Higham, (3.13)), ``gamma_r =
    r u / (1 - r u)``, so ``||y_i - Q Y||_F <= gamma_r || |Q| ||_2
    ||Y||_F <= gamma_r sqrt(r) ||Y||_F``, about ``gamma_r ||Y||_F``. The
    full-space block is only ever written from the coordinates, never
    updated itself, so this gap is one rounding of the written block and
    does not accumulate. Further error comes
    only from rounding the small products and thresholding ``W``
    (:func:`prox._svt` bounds it as for ``V``); by Weyl each kept value
    moves by at most ``||V - Q W||_2``. The image ``F Q X = R^T X + (F -
    R^T Q^T) Q X`` carries the backward error once more. In exact
    arithmetic the coordinates are exact: the iterate starts at zero, with
    ``Q^T 0 = 0``, and every update has its columns in ``range(F^T)``.
    """

    Q: np.ndarray
    R: np.ndarray
    rows: object
    out_shape: tuple

    def adjoint(self, u: np.ndarray) -> np.ndarray:
        return self.R @ u.reshape(-1)[self.rows].reshape(self.R.shape[0], -1)

    def apply(self, X: np.ndarray) -> np.ndarray:
        image = np.zeros(self.out_shape)
        image.reshape(-1)[self.rows] = (self.R.T @ X).reshape(-1)
        return image

    def lift(self, X: np.ndarray, out: np.ndarray) -> None:
        """Write the block ``fl(Q X)`` of coordinates ``X`` into ``out``."""
        np.matmul(self.Q, X, out=out)


def _range_basis(op, prox_part, smooth_eta: float):
    """The :class:`_RangeBasis` of a nuclear block whose operator ``op`` is
    left multiplies only, ``F`` their factors stacked, else ``None``.

    The block's model then has no term outside the coupling and its own
    iterate, and every adjoint ``F^T M`` has its columns in ``range(F^T)``;
    so, from the zero start, do every prox input and every iterate. The
    basis is one Householder QR of ``F^T``, whose thin ``Q`` spans
    ``range(F^T)`` even when ``F`` is rank-deficient. It is kept only for a
    wide ``F``, fewer rows than the block, where the ``r x n`` coordinates
    ``Q^T Z`` are smaller than ``Z``. The basis (or its absence) is kept on
    ``op``, as ``op_norm_sq`` is, so solving one problem with several kinds
    factors once.
    """
    if prox_part is None or prox_part.kind != "nuclear" or smooth_eta != 0.0:
        return None
    if "_range_basis" not in vars(op):
        op._range_basis = _left_factor_basis(op)
    return op._range_basis


def _left_factor_basis(op):
    """:func:`_range_basis` of ``op``, computed."""
    if isinstance(op, StackedOp):
        spans = [(span, piece) for span, _, piece in op.spans]
    else:
        spans = [(slice(0, math.prod(op.out_shape)), op)]
    if not spans or not all(isinstance(p, LeftMultiplyOp) for _, p in spans):
        return None
    F = np.concatenate([p.factor for _, p in spans])
    r = F.shape[0]
    if r >= F.shape[1]:
        return None
    # LAPACK directly, in place in F: np.linalg.qr would also copy F^T, about
    # 40% more time at latlrr3's size. R is copied out before dorgqr
    # overwrites it, and Q is returned in C order.
    h, tau, _, info = lapack.dgeqrf(F.T, overwrite_a=True)
    if info == 0:
        R = np.triu(h[:r])
        Q, _, info = lapack.dorgqr(h, tau, overwrite_a=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"QR of the left factors failed (info {info})")
    Q = np.ascontiguousarray(Q)
    if all(a.stop == b.start for (a, _), (b, _) in zip(spans, spans[1:])):
        rows = slice(spans[0][0].start, spans[-1][0].stop)
    else:
        rows = np.concatenate([np.arange(s.start, s.stop) for s, _ in spans])
    Q.flags.writeable = R.flags.writeable = False  # shared by every context
    return _RangeBasis(Q, R, rows, op.out_shape)


def _plan_block(problem, i: int, G: WeightMatrix, smooth_eta: float) -> _BlockPlan:
    op = problem.family.operators[i]
    prox_part, fold_iso = _folded_term(problem.terms[i])
    coupled = op.op_norm_sq > 0.0
    plan = _BlockPlan(
        index=i,
        op=op,
        prox_term=prox_part,
        fold_iso=fold_iso,
        gram_factor=(1.0 + G.gram_coef) if coupled else 0.0,
        smooth_eta=smooth_eta,
        basis=_range_basis(op, prox_part, smooth_eta),
    )
    if plan.gram_factor != 0.0:
        kind, data = op.gram_rep() or (None, None)
        plan.path, reason = _gram_path(prox_part, kind)
        if reason is not None:
            raise UnsupportedSubproblemError(f"block {i}: {reason}")
        if kind == "scalar":
            plan.diag = float(data)
        elif plan.path == "diag":
            plan.diag = np.asarray(data, dtype=float)
        else:
            w, U = np.linalg.eigh(np.asarray(data, dtype=float))
            plan.eig = (np.maximum(w, 0.0), U)
            plan.orient = kind
    return plan


def _solve_block(plan: _BlockPlan, q_iso, q_gram, v):
    """Minimize block ``plan``'s model in place in ``v``, which holds its ``lin``
    (in the block's range coordinates when it was assembled in them).

    The model is ``term(v) + 0.5 q_iso ||v||^2 + 0.5 q_gram <v, Gram v> +
    <lin, v>``. On the ``diag`` path the Gram is ``c I``, a scalar
    curvature ``q_iso + q_gram c`` and one prox call with a scalar
    threshold, or a diagonal, a per-entry curvature and threshold.

    Returns the term's value at the solution when the prox gives it (a
    nuclear term, from the singular values its thresholding produced; see
    :meth:`ProxFunction.prox`), else ``None``.
    """
    if plan.path == "eig":
        v[...] = _solve_eig(plan, q_iso, q_gram, v)
        return None
    if isinstance(plan.diag, float):
        s = q_iso + q_gram * plan.diag
        no_curvature = s <= 0.0
    else:
        s = plan.diag * q_gram
        s += q_iso
        no_curvature = np.any(s <= 0.0)
    if no_curvature:
        raise UnsupportedSubproblemError(
            f"block {plan.index}: subproblem has no positive curvature"
        )
    if isinstance(s, float):
        np.divide(v, -s, out=v)
        t = 1.0 / s
    else:
        np.divide(v, s, out=v)
        np.negative(v, out=v)
        t = np.divide(1.0, s, out=s)
    term = plan.prox_term
    if term is None:
        return None
    return term.prox(v, t, out=v, return_value=True)[1]


def _solve_eig(plan: _BlockPlan, q_iso: float, q_gram: float, lin: np.ndarray):
    """The ``eig`` path: a quadratic model solved in the Gram's eigenbasis."""
    w, U = plan.eig
    denom = q_iso + q_gram * w
    if np.any(denom <= 0.0):
        raise UnsupportedSubproblemError(
            f"block {plan.index}: quadratic subproblem loses curvature"
        )
    rhs = -lin
    if plan.orient == "left":
        return U @ ((U.T @ rhs) / denom[:, None])
    if plan.orient == "right":
        return ((rhs @ U) / denom[None, :]) @ U.T
    flat = U @ ((U.T @ rhs.ravel()) / denom)
    return flat.reshape(rhs.shape)


def subproblem_value(
    plan: _BlockPlan, q_iso: float, q_gram: float, lin: np.ndarray, v: np.ndarray
) -> float:
    """Evaluate a block's assembled model (constants dropped) at ``v``.

    A folded quadratic term is already part of ``q_iso``.
    """
    val = 0.5 * q_iso * float(np.vdot(v, v)) + float(np.vdot(lin, v))
    if q_gram != 0.0:
        val += 0.5 * q_gram * float(np.vdot(v, plan.op.gram_apply(v)))
    if plan.prox_term is not None:
        val += plan.prox_term.value(v)
    return val


def assemble_block(
    ctx: "_RunContext",
    i: int,
    y: BlockVector,
    c: Sequence[np.ndarray],
    s_full: np.ndarray,
    beta: float,
    eta: float,
    smooth_res: Optional[np.ndarray],
    out: Optional[np.ndarray] = None,
    coords: Optional[np.ndarray] = None,
):
    """Build ``(q_iso, q_gram, lin)`` of block ``i``'s subproblem at anchor ``y``.

    ``c`` holds the anchor's block images ``c_j = A_j y_j`` and ``s_full``
    is ``sum_j c_j - b + lam / beta``. With the weight ``G = eta I + g A_i^T
    A_i`` the linear term ``beta A_i^T (s_full - A_i y_i) - beta G y_i`` is
    built as ``beta A_i^T (s_full - (1 + g) c_i) - beta eta y_i``: one
    adjoint and no apply. ``eta`` is the block's level (see
    :class:`SolverState`) and ``1 + g`` the plan's ``gram_factor``. The
    linearized weight (``g = -1``) cancels the image term. ``coords``, the
    carried coordinates ``Y`` of ``y_i = fl(Q Y)`` in the block's range
    basis, builds the model in them instead: anchor ``Y`` and operator
    :class:`_RangeBasis`. ``out``, an array shaped like the anchor, receives
    ``lin`` when given; the phase engine passes the block's slice of the new
    iterate, so the block is then solved in place.
    """
    plan = ctx.plans[i]
    op, yi = (plan.op, y[i]) if coords is None else (plan.basis, coords)
    q_iso = plan.fold_iso + beta * eta
    q_gram = 0.0
    lin = np.empty(yi.shape) if out is None else out
    if plan.op.op_norm_sq > 0.0:
        factor = plan.gram_factor
        si = s_full if factor == 0.0 else s_full - factor * c[i]
        q_gram = beta * factor
        np.multiply(op.adjoint(si), beta, out=lin)
    else:
        lin.fill(0.0)
    if eta != 0.0:
        lin -= (beta * eta) * yi
    if plan.smooth_eta > 0.0 and smooth_res is not None:
        grad = ctx.smooth.weight * ctx.smooth.ops[i].adjoint(smooth_res)
        q_iso += plan.smooth_eta
        lin += grad - plan.smooth_eta * yi
    return q_iso, q_gram, lin


# ---------------------------------------------------------------------------
# Run context
# ---------------------------------------------------------------------------


@dataclass
class _RunContext:
    problem: object
    kind: str
    config: SolverConfig
    partition: Partition
    plans: list
    G0: list
    levels: list
    smooth: object
    b_scale: float
    smoothness: dict
    workers: int = 1
    executor: Optional[ThreadPoolExecutor] = None

    @property
    def A(self):
        return self.problem.family

    @property
    def b(self):
        return self.problem.b


def prepare_context(
    problem, kind: str, config: SolverConfig, workers: int = 1
) -> _RunContext:
    """Validate every block and freeze the solve plans; the run starts from
    ``G0``, ``config.weights`` if given, else :func:`default_weights`."""
    not_int = isinstance(workers, bool) or not isinstance(workers, numbers.Integral)
    if not_int or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    partition = _resolve_partition(problem, kind, config.partition)
    row = _KINDS[kind]
    smoothness = {
        b: phase_smoothness(problem.family, b, row.dense_rows)
        for b, _ in _phases(partition)
    }
    smooth = problem.smooth
    if smooth is not None and not row.smooth:
        raise UnsupportedSubproblemError(
            "a joint smooth coupling requires a solver that linearizes it"
        )
    n = problem.family.n
    if config.weights is None:
        G0, levels = default_weights(problem, kind, partition, config, smoothness)
    else:
        if row.backtrack:
            raise ValueError("backtracking manages its own weights; do not pass overrides")
        if len(config.weights) != n:
            raise ValueError("one weight per block is required")
        for i, G in enumerate(config.weights):
            if G.op is not None and G.op is not problem.family.operators[i]:
                raise UnsupportedSubproblemError(
                    f"block {i}: weight Gram must be built from the block's own operator"
                )
        G0, levels = list(config.weights), ["user"] * n
    plans = []
    for i in range(n):
        eta_sm = 0.0
        if smooth is not None and smooth.ops[i] is not None:
            eta_sm = smooth.cert[i].eta
        plans.append(_plan_block(problem, i, G0[i], eta_sm))
    if row.partition == "sequential" and G0[1] == WeightMatrix.zero():
        logger.warning(
            "second-block weight is zero: classical unregularized update, "
            "the averaged-iterate rate guarantee needs a positive weight"
        )
    b_scale = max(float(np.linalg.norm(problem.b)), 1.0)
    return _RunContext(
        problem=problem,
        kind=kind,
        config=config,
        partition=partition,
        plans=plans,
        G0=G0,
        levels=levels,
        smooth=smooth,
        b_scale=b_scale,
        smoothness=smoothness,
        workers=int(workers),
    )


# ---------------------------------------------------------------------------
# Phase execution
# ---------------------------------------------------------------------------


def _run_phase(
    ctx: _RunContext,
    blocks: Sequence[int],
    y: BlockVector,
    c: Sequence[np.ndarray],
    r: np.ndarray,
    z: dict,
    lam: np.ndarray,
    beta: float,
    eta: Sequence[float],
):
    """Update ``blocks`` in parallel, all anchored at ``y`` with images ``c``,
    residual ``r = sum_j c_j - b``, range coordinates ``z`` (``{i: X_i}``)
    and weight levels ``eta`` (see :class:`SolverState`); ``blocks`` is not
    empty.

    Returns the new iterate, its block images, ``{i: value}`` for each
    updated block, its term's value at the new iterate as
    :func:`_solve_block` gave it, or ``None``, and the new iterate's range
    coordinates. The phase solves in place, block by block: each block
    assembles its linear term into its own slice of the new iterate, is
    solved there and is applied once, so its operator is read twice in a
    row (adjoint, then apply) while it is still in cache; the other blocks
    keep their images and coordinates. A block with carried coordinates
    ``z[i]`` takes the same two calls in them instead, on its range basis
    (:class:`_RangeBasis`), and carries its new ``X`` as its iterate; its
    slice of the new iterate is copied from ``y``, not written (see
    :class:`SolverState`). Any other block solves in full space and has no
    coordinates. With ``ctx.executor``, each of
    ``min(ctx.workers, len(blocks))`` contiguous shares of ``blocks`` goes
    to one worker; every block writes only its own slices, so the result is
    bitwise that of one worker.
    """
    s_full = r + lam / beta
    smooth_res = None
    if ctx.smooth is not None:
        smooth_res = ctx.smooth.residual(y)
    x = y.copy()
    xb = x.blocks  # built once, before any thread reads it

    def work(share):
        done = []
        for i in share:
            plan, v, Y = ctx.plans[i], xb[i], z.get(i)
            op, out = (plan.op, v) if Y is None else (plan.basis, None)
            q_iso, q_gram, w = assemble_block(
                ctx, i, y, c, s_full, beta, eta[i], smooth_res, out, Y
            )
            value = _solve_block(plan, q_iso, q_gram, w)  # w: v, or X
            done.append((i, op.apply(w), value, None if Y is None else w))
        return done

    n = len(blocks)
    k = min(ctx.workers, n) if ctx.executor is not None else 1
    shares = [blocks[j * n // k : (j + 1) * n // k] for j in range(k)]
    batches = ctx.executor.map(work, shares) if k > 1 else map(work, shares)
    images = list(c)
    values = {}
    coords = dict(z)
    for batch in batches:
        for i, ci, value, X in batch:
            images[i] = ci
            values[i] = value
            if X is not None:
                coords[i] = X
    return x, images, values, coords


# ---------------------------------------------------------------------------
# The step
# ---------------------------------------------------------------------------


def step(state: SolverState, ctx: _RunContext):
    """One outer iteration: the partition's two phases, then dual and penalty.

    Each phase updates its blocks in parallel, anchored at the iterate the
    previous phase left. Under ``madmm-bt`` a phase is recomputed with its
    coupled blocks' levels ``state.eta`` multiplied by ``mu`` until
    :func:`_bt_accept` holds, with ``tau = 0`` for the first phase and
    ``config.tau`` for the second; accepted levels carry over to the next
    iteration. A rejection with every coupled level past ``mu (eta'_i +
    tau)`` raises :class:`BacktrackingConsistencyError` (see
    :func:`_bt_exhausted`). Returns the residual, the penalty the iteration
    used, and its backtrack count.

    The block images ``A_i x_i``, their residual ``sum_i c_i - b``, the
    block term values the phases' proxes gave and the range coordinates
    the phases wrote are carried from phase to phase and kept on
    ``state.images``; the images are summed once after each non-empty
    phase, and the last sum is the dual residual. A rejected phase discards
    its images, values and coordinates; a block a phase leaves alone keeps
    its own. Images recomputed for an iterate that ``state.images`` does
    not belong to carry no coordinates, so from then on every block solves
    in full space. On return ``state.x`` is complete: each block that
    carries coordinates ``X_i`` holds ``fl(Q_i X_i)``.
    """
    out = _step(state, ctx)
    _write_full(state, ctx)
    return out


def _write_full(state: SolverState, ctx: _RunContext) -> None:
    """Write each block that carries range coordinates ``X_i`` into ``state.x``
    as ``fl(Q_i X_i)``: one product per such block (see :class:`SolverState`)."""
    x, *_, z = state.images
    for i, X in z.items():
        ctx.plans[i].basis.lift(X, out=x.blocks[i])


def _step(state: SolverState, ctx: _RunContext):
    """:func:`step` without writing the blocks that carry range coordinates:
    their slices of ``state.x`` keep the values they had, and their
    coordinates on ``state.images`` are their iterate."""
    backtracking = _KINDS[ctx.kind].backtrack
    mu = ctx.config.mu
    x = state.x
    if state.images is None or state.images[0] is not x:
        c = [op.apply(v) for op, v in zip(ctx.A.operators, x.blocks)]
        state.images = (x, c, ctx.A.image_sum(c) - ctx.b, {}, {})
    _, c, resid, values, z = state.images
    z_prev = z
    backtracks = 0
    for (blocks, _), tau in zip(_phases(ctx.partition), (0.0, ctx.config.tau)):
        if not blocks:
            continue
        while True:
            x_new, c_new, values_new, z_new = _run_phase(
                ctx, blocks, x, c, resid, z, state.lam, state.beta, state.eta
            )
            if not backtracking or _bt_accept(
                ctx, blocks, x, x_new, c, c_new, state.eta, tau, z, z_new
            ):
                break
            if _bt_exhausted(ctx.smoothness[blocks], state.eta, mu, tau):
                raise BacktrackingConsistencyError(
                    f"phase acceptance (tau={tau:g}) failed with every coupled "
                    f"weight at least mu={mu:g} times the level eta'_i + tau "
                    "at which it holds"
                )
            _bt_scale(ctx, blocks, state, mu)
            backtracks += 1
        x, c, values, z = x_new, c_new, {**values, **values_new}, z_new
        resid = ctx.A.image_sum(c) - ctx.b
    state.backtrack_count += backtracks
    state.lam = dual_update(state.lam, state.beta, resid)
    beta_used = state.beta
    state.beta = _next_beta(ctx, state.beta, x, state.x, z, z_prev)
    state.x = x
    state.images = (x, c, resid, values, z)
    state.k += 1
    return resid, beta_used, backtracks


def _bt_exhausted(sm: dict, eta, mu: float, tau: float) -> bool:
    """Whether a rejected phase's levels ``eta`` are all past where it must pass.

    ``sm`` is the phase's :func:`phase_smoothness`. The test of
    :func:`_bt_accept` holds in exact arithmetic once every coupled block
    (``eta'_i > 0``) has ``eta_i >= eta'_i + tau``, since ``||sum_i A_i
    d_i||^2 <= sum_i eta'_i ||d_i||^2``; a rejection with every ``eta_i >=
    mu (eta'_i + tau)``, a factor ``mu`` past that level, cannot come from
    the weights.
    """
    return all(
        eta[i] >= mu * (eta_p + tau) for i, (eta_p, _) in sm.items() if eta_p > 0.0
    )


def _bt_scale(ctx, blocks, state: SolverState, mu: float) -> None:
    """Multiply the levels of ``blocks``' coupled blocks by ``mu``."""
    for i in blocks:
        if ctx.A.operators[i].op_norm_sq > 0.0:
            state.eta[i] = mu * state.eta[i]


def _block_step(i: int, x_new, x_old, z_new, z_old) -> np.ndarray:
    """``x_i^new - x_i^old``, from the range coordinates ``z`` when the new
    iterate carries them for block ``i`` (then so did the old one, and
    their slices of ``x`` may be stale; see :class:`SolverState`). ``Q_i``
    has orthonormal columns, so in exact arithmetic both differences have
    the same norm."""
    if i in z_new:
        return z_new[i] - z_old[i]
    return x_new[i] - x_old[i]


def _bt_accept(
    ctx, blocks, anchor, updates, c_anchor, c_updates, eta, tau, z_anchor, z_updates
) -> bool:
    """``tau ||d||^2 <= sum_i eta_i ||d_i||^2 - ||sum_i A_i d_i||^2`` over ``blocks``.

    ``eta_i = eta[i]`` and ``d_i = updates[i] - anchor[i]``, restricted to
    constraint-coupled blocks, is taken by :func:`_block_step`, in the
    range coordinates ``z_updates`` and ``z_anchor`` where they are given;
    ``A_i d_i`` is taken from the block images as ``c_updates[i] -
    c_anchor[i]``. At ``tau = 0`` this is the first phase's test ``||A
    d||^2 <= sum_i eta_i ||d_i||^2``.
    """
    lhs = 0.0
    quad = 0.0
    a_vec = np.zeros(ctx.A.out_shape)
    for i in blocks:
        if ctx.A.operators[i].op_norm_sq == 0.0:
            continue
        d = _block_step(i, updates, anchor, z_updates, z_anchor)
        dsq = float(np.vdot(d, d))
        lhs += dsq
        quad += eta[i] * dsq
        a_vec += c_updates[i] - c_anchor[i]
    return tau * lhs <= quad - float(np.vdot(a_vec, a_vec))


def _next_beta(ctx, beta: float, x_new, x_prev, z_new, z_prev) -> float:
    """The next penalty; the adaptive schedule reads each :func:`_block_step`."""
    cfg = ctx.config
    if cfg.schedule == "geometric":
        return min(cfg.rho * beta, cfg.beta_max)
    worst = 0.0
    for i in range(x_new.n):
        d = _block_step(i, x_new, x_prev, z_new, z_prev)
        worst = max(worst, beta * math.sqrt(float(np.vdot(d, d))))
    if worst / ctx.b_scale <= cfg.eps_primal:
        return min(cfg.rho * beta, cfg.beta_max)
    return beta


def run(
    problem,
    solver_kind: str,
    config: Optional[SolverConfig] = None,
    workers: int = 1,
    observe: Optional[Callable[[SolverState], None]] = None,
) -> SolverResult:
    """Iterate a solver from zero initial blocks and dual until convergence.

    Stops when both the relative residual ``||A x - b|| / max(||b||, 1)``
    falls below ``eps_primal`` and the relative step
    ``||x^{k+1} - x^k|| / max(||b||, 1)`` falls below ``eps_step``, or when
    ``max_iter`` is reached. Non-finite iterates raise ``DivergenceError``
    carrying the finite prefix of the trace. ``observe(state)`` runs after
    each finite iterate's trace row, before the stop test; an observer must
    copy an iterate it keeps, as ``run`` reuses ``state.x``'s buffer. The
    iterate an observer sees, the one returned and the one a
    ``DivergenceError`` carries are complete; between them a block that
    carries range coordinates is not written (see :class:`SolverState`).
    ``workers`` threads share each phase, each solving one contiguous share
    of its blocks, and the iterates are bitwise those of one worker.
    """
    config = config or SolverConfig()
    return _iterate(prepare_context(problem, solver_kind, config, workers), observe)


def _iterate(ctx: _RunContext, observe=None) -> SolverResult:
    """:func:`run`'s iterations on the context :func:`prepare_context` made."""
    problem, config = ctx.problem, ctx.config
    x0 = BlockVector.zeros(problem.block_shapes)
    out_shape = problem.family.out_shape
    c0 = [np.zeros(out_shape) for _ in range(x0.n)]
    # ``Q^T 0 = 0`` exactly, so the zero start carries its coordinates too.
    z0 = {
        p.index: np.zeros((p.basis.Q.shape[1], *x0[p.index].shape[1:]))
        for p in ctx.plans
        if p.basis is not None
    }
    state = SolverState(
        x=x0,
        lam=np.zeros(out_shape),
        beta=config.beta0,
        eta=[g.eta for g in ctx.G0],
        images=(x0, c0, np.subtract(0.0, problem.b), {}, z0),
    )
    stop_reason = "budget"
    start = time.perf_counter()
    if ctx.workers > 1:
        ctx.executor = ThreadPoolExecutor(max_workers=ctx.workers)
    try:
        for it in range(config.max_iter):
            x_prev, z_prev = state.x, state.images[4]
            resid, beta_used, backtracks = _step(state, ctx)
            _, _, _, values, z = state.images
            # ``x_prev`` is this loop's own (``_step`` returns a new iterate)
            # and dead from here on, so its buffer takes the step: a fresh
            # full-length array here costs page faults every iteration. The
            # slices of the blocks in ``z`` were copied, not written, so
            # their step is read from their coordinates.
            step_vec = np.subtract(state.x.flat, x_prev.flat, out=x_prev.flat)
            step_sq = float(step_vec.dot(step_vec))
            for i, X in z.items():
                d = X - z_prev[i]
                step_sq += float(np.vdot(d, d))
            step_norm = math.sqrt(step_sq)
            resid_norm = float(np.linalg.norm(resid))
            # The values the proxes gave belong to ``state.x`` (``_step``
            # keeps them with its images), so no nuclear block is rescored
            # and no stale slice is scored: a block in ``z`` without its
            # value is written first.
            if any(values.get(i) is None for i in z):
                _write_full(state, ctx)
            objective = problem.objective(state.x, values)
            if not (
                math.isfinite(objective)
                and math.isfinite(resid_norm)
                and math.isfinite(step_norm)
            ):
                _write_full(state, ctx)
                result = SolverResult(state, state.trace, "diverged")
                raise DivergenceError(
                    f"non-finite iterate at iteration {state.k}", result
                )
            rel_resid = resid_norm / ctx.b_scale
            rel_step = step_norm / ctx.b_scale
            converged = rel_resid <= config.eps_primal and rel_step <= config.eps_step
            # The iterate leaves the engine here: complete it before the
            # row's time is stamped, so the write counts as iteration time.
            if converged or observe is not None or it == config.max_iter - 1:
                _write_full(state, ctx)
            state.trace.append(
                IterationTrace(
                    k=state.k,
                    objective=objective,
                    residual_norm=resid_norm,
                    rel_residual=rel_resid,
                    beta=beta_used,
                    step_norm=step_norm,
                    backtracks=backtracks,
                    wall_time_ms=(time.perf_counter() - start) * 1e3,
                )
            )
            if observe is not None:
                observe(state)
            if converged:
                stop_reason = "converged"
                break
    finally:
        if ctx.executor is not None:
            ctx.executor.shutdown(wait=True)
            ctx.executor = None
    return SolverResult(state, state.trace, stop_reason)
