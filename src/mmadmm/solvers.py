"""Solver engines for linearly constrained block-separable problems.

Four iteration schemes share one canonical block subproblem. Each outer
iteration minimizes, block by block, a separable upper model of the
augmented Lagrangian built from the block's objective term, the penalty
coupling anchored at the phase's reference point, and a proximal weight
``G_i``:

- sequential two-block scheme (``gs``): block 1 then block 2, each seeing
  the other's latest value;
- all-parallel scheme (``jacobi``): every block anchored at the previous
  iterate;
- mixed scheme (``madmm``): blocks split into two super blocks, updated
  sequentially, with parallel updates inside each;
- mixed scheme with backtracking (``madmm-bt``): proximal weights start
  small and are inflated by ``mu`` until the per-phase acceptance
  inequalities hold.

Reference presets ``l-admm-ps``, ``pl-admm-ps``, and ``gl-admm-ps`` run the
all-parallel scheme with the classical weight choices.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .blockspace import (
    BlockOperatorFamily,
    BlockVector,
    WeightMatrix,
)
from .partition import Partition, case1_partition
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
    "gs_admm_step",
    "jacobi_admm_step",
    "madmm_step",
    "madmm_bt_step",
    "run",
    "ergodic_average",
    "default_weights",
    "phase_smoothness",
    "prepare_context",
    "assemble_block",
    "subproblem_value",
]

logger = logging.getLogger("mmadmm")

SOLVER_KINDS = (
    "gs",
    "jacobi",
    "madmm",
    "madmm-bt",
    "l-admm-ps",
    "pl-admm-ps",
    "gl-admm-ps",
)

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
    """Backtracking kept failing past the provably safe weight level."""


@dataclass
class SolverConfig:
    """Run parameters shared by all solver kinds.

    ``eta_scale`` seeds the backtracking weights at
    ``eta_scale * n_j * ||A_i||_2^2``; ``schedule`` selects the penalty
    update: ``geometric`` multiplies by ``rho`` every iteration (capped at
    ``beta_max``), ``adaptive`` multiplies by ``rho`` only when every
    block's scaled step ``beta ||x_i^{k+1} - x_i^k|| / max(||b||, 1)`` falls
    below ``eps_primal``. ``weights`` overrides the automatic per-block
    proximal weights; ``partition`` may be a Partition or ``"auto"``.
    Numeric fields are coerced to ``float``/``int`` and must be finite.
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
                value = float(getattr(self, f.name))
                if not math.isfinite(value):
                    raise ValueError(f"{f.name} must be finite, got {value}")
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
        if self.weights is not None:
            self.weights = tuple(self.weights)


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
    """Mutable iteration state: primal blocks, dual, penalty, weights."""

    x: BlockVector
    lam: np.ndarray
    beta: float
    k: int = 0
    G: list = field(default_factory=list)
    etas: Optional[list] = None
    backtrack_count: int = 0
    trace: list = field(default_factory=list)


@dataclass
class SolverResult:
    state: SolverState
    trace: list
    stop_reason: str
    iterates: Optional[list] = None
    betas: Optional[list] = None


def dual_update(lam: np.ndarray, beta: float, resid: np.ndarray) -> np.ndarray:
    """Ascent step ``lam + beta * resid`` on the multiplier."""
    return lam + beta * resid


def ergodic_average(iterates: Sequence[BlockVector], betas: Sequence[float]):
    """Average ``sum_k gamma_k x^{k+1}`` with ``gamma_k`` proportional to ``1/beta_k``.

    ``iterates[k]`` is the iterate produced with penalty ``betas[k]``; the
    weights are normalized to sum to one, so a constant penalty gives the
    plain mean.
    """
    if len(iterates) != len(betas) or not iterates:
        raise ValueError("need one penalty value per iterate")
    inv = [1.0 / b for b in betas]
    total = sum(inv)
    acc = BlockVector.zeros(iterates[0].shapes)
    for w, xk in zip(inv, iterates):
        acc = acc + (w / total) * xk
    return acc


# ---------------------------------------------------------------------------
# Per-phase smoothness of the coupling
# ---------------------------------------------------------------------------


def phase_smoothness(A: BlockOperatorFamily, blocks: Sequence[int]) -> dict:
    """Tight per-block curvature of ``0.5 ||sum_{i in blocks} A_i x_i||^2``.

    With declared row groups, ``eta'_i`` sums ``k_g ||A_{g,i}||_2^2`` over the
    groups touching block ``i``, where ``k_g`` counts only blocks of this
    phase acting on group ``g``; a coupled block outside every declared group
    raises ``ValueError``. Without structure it falls back to
    ``n_eff ||A_i||_2^2`` with ``n_eff`` the phase's nonzero blocks.

    Returns ``{i: (eta_i, alone_i)}`` where ``alone_i`` is true when no other
    phase block shares a row group with ``i``.
    """
    members = set(blocks)
    out = {}
    if A.row_groups:
        etas = {i: 0.0 for i in members}
        alone = {i: True for i in members}
        seen = set()
        for g in A.row_groups:
            seen.update(g.active)
            act = [i for i in g.active if i in members]
            k = len(act)
            for i in act:
                etas[i] += k * g.norm_sq_of(i)
                if k > 1:
                    alone[i] = False
        for i in members:
            if i not in seen and A.operators[i].op_norm_sq > 0.0:
                raise ValueError(f"block {i} acts outside every declared row group")
            out[i] = (etas[i], alone[i])
    else:
        live = [i for i in members if A.operators[i].op_norm_sq > 0.0]
        k = len(live)
        for i in members:
            nsq = A.operators[i].op_norm_sq
            out[i] = (k * nsq if nsq > 0.0 else 0.0, k <= 1)
    return out


# ---------------------------------------------------------------------------
# Default and preset proximal weights
# ---------------------------------------------------------------------------


def _folded_term(term):
    """Split a block term into (prox part, quadratic iso weight)."""
    if term is None or term.kind == "zero":
        return None, 0.0
    if term.kind == "sq-frobenius":
        return None, term.weight
    return term, 0.0


def _exact_gram_feasible(term, rep) -> bool:
    """Whether a block solves exactly with its raw coupling Gram kept."""
    prox_part, _ = _folded_term(term)
    if rep is None:
        return False
    kind = rep[0]
    if kind == "scalar":
        return True
    if kind == "diag":
        return prox_part is None or prox_part.entrywise
    return prox_part is None


def default_weights(problem, kind: str, partition: Optional[Partition] = None):
    """Choose per-block proximal weights for a solver kind.

    Three levels, tightest feasible wins:

    1. a block alone on its constraint rows within its phase, whose exact
       update has a closed form, keeps ``G_i = 0``;
    2. a block whose Gram ``A_i^T A_i`` is a multiple ``c I`` of the identity
       gets the plain weight ``eta I`` with ``eta = margin (eta'_i - c)``,
       keeping the exact Gram in the subproblem;
    3. otherwise ``G_i = eta I - A_i^T A_i`` with ``eta = margin eta'_i``,
       which cancels the Gram and yields a proximal-step update.

    The margin is 1 for first-phase blocks and slightly above 1 elsewhere,
    where the curvature bound must be dominated strictly.
    """
    A = problem.family
    n = A.n
    phases = _phase_layout(kind, n, partition)
    G = [WeightMatrix.zero()] * n
    info = ["unconstrained"] * n
    for blocks, margin in phases:
        sm = phase_smoothness(A, blocks)
        for i in blocks:
            op = A.operators[i]
            if op.op_norm_sq == 0.0:
                continue
            eta_p, alone = sm[i]
            rep = op.gram_rep()
            if alone and _exact_gram_feasible(problem.terms[i], rep):
                G[i] = WeightMatrix.zero()
                info[i] = "exact"
            elif rep is not None and rep[0] == "scalar":
                eta = margin * max(eta_p - rep[1], 0.0)
                if eta == 0.0:
                    G[i] = WeightMatrix.zero()
                    info[i] = "exact"
                else:
                    G[i] = WeightMatrix.scaled_identity(eta)
                    info[i] = "iso"
            else:
                G[i] = WeightMatrix.identity_minus_gram(margin * eta_p, op)
                info[i] = "linearized"
    return G, info


def _phase_layout(kind: str, n: int, partition: Optional[Partition]):
    if kind == "gs":
        if n != 2:
            raise ValueError("the sequential two-block solver needs n = 2")
        return [((0,), MARGIN_EQ), ((1,), MARGIN_STRICT)]
    if kind in ("jacobi", "l-admm-ps", "pl-admm-ps", "gl-admm-ps"):
        return [(tuple(range(n)), MARGIN_STRICT)]
    if kind in ("madmm", "madmm-bt"):
        if partition is None:
            raise ValueError("the mixed solver needs a partition")
        return [(partition.b1, MARGIN_EQ), (partition.b2, MARGIN_STRICT)]
    raise ValueError(f"unknown solver kind {kind!r}")


def _preset_weights(problem, kind: str):
    """Classical reference weights for the all-parallel presets."""
    A = problem.family
    n = A.n
    sm = phase_smoothness(A, range(n))
    G = []
    for i, op in enumerate(A.operators):
        nsq = op.op_norm_sq
        if nsq == 0.0:
            G.append(WeightMatrix.zero())
        elif kind in ("l-admm-ps", "pl-admm-ps"):
            G.append(
                WeightMatrix.identity_minus_gram(MARGIN_STRICT * sm[i][0], op)
            )
        else:
            n_live = sum(1 for o in A.operators if o.op_norm_sq > 0.0)
            G.append(
                WeightMatrix.scaled_gram(
                    float(n_live - 1), op, ridge=0.02 * nsq
                )
            )
    return G


# ---------------------------------------------------------------------------
# Canonical block subproblem
# ---------------------------------------------------------------------------


@dataclass
class _BlockPlan:
    """Frozen per-block solve recipe: path plus cached factorizations."""

    index: int
    op: object
    prox_term: Optional[ProxFunction]
    fold_iso: float
    gram_factor: float
    path: str
    scalar_c: float = 0.0
    diag: Optional[np.ndarray] = None
    eig: Optional[tuple] = None
    orient: str = ""
    smooth_eta: float = 0.0


def _plan_block(problem, i: int, G: WeightMatrix, smooth_eta: float) -> _BlockPlan:
    op = problem.family.operators[i]
    prox_part, fold_iso = _folded_term(problem.terms[i])
    _, coef, gop = G.iso_split()
    if gop is not None and gop is not op:
        raise UnsupportedSubproblemError(
            f"block {i}: weight Gram must be built from the block's own operator"
        )
    coupled = op.op_norm_sq > 0.0
    gram_factor = (1.0 + coef) if coupled else 0.0
    plan = _BlockPlan(
        index=i,
        op=op,
        prox_term=prox_part,
        fold_iso=fold_iso,
        gram_factor=gram_factor,
        path="prox",
        smooth_eta=smooth_eta,
    )
    if gram_factor != 0.0:
        rep = op.gram_rep()
        if rep is None:
            raise UnsupportedSubproblemError(
                f"block {i}: coupling Gram has no structured form; "
                "use a Gram-cancelling weight"
            )
        kind, data = rep
        if kind == "scalar":
            plan.scalar_c = data
            plan.path = "prox"
        elif kind == "diag":
            if prox_part is not None and not prox_part.entrywise:
                raise UnsupportedSubproblemError(
                    f"block {i}: term {prox_part.kind!r} does not split "
                    "entrywise over a diagonal Gram"
                )
            plan.diag = np.asarray(data, dtype=float)
            plan.path = "diag"
        else:
            if prox_part is not None:
                raise UnsupportedSubproblemError(
                    f"block {i}: term {prox_part.kind!r} cannot be combined "
                    "with a non-diagonal coupling Gram"
                )
            w, U = np.linalg.eigh(np.asarray(data, dtype=float))
            plan.eig = (np.maximum(w, 0.0), U)
            plan.orient = kind
            plan.path = "eig"
    return plan


def _solve_block(plan: _BlockPlan, q_iso: float, q_gram: float, lin: np.ndarray):
    """Minimize ``term(v) + 0.5 q_iso ||v||^2 + 0.5 q_gram <v, Gram v> + <lin, v>``."""
    if plan.path == "prox":
        s = q_iso + q_gram * plan.scalar_c
        if s <= 0.0:
            raise UnsupportedSubproblemError(
                f"block {plan.index}: subproblem has no positive curvature"
            )
        p = lin / (-s)
        return p if plan.prox_term is None else plan.prox_term.prox(p, 1.0 / s)
    if plan.path == "diag":
        denom = q_iso + q_gram * plan.diag
        if np.any(denom <= 0.0):
            raise UnsupportedSubproblemError(
                f"block {plan.index}: diagonal subproblem loses curvature"
            )
        p = lin / (-denom)
        return p if plan.prox_term is None else plan.prox_term.prox(p, 1.0 / denom)
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
    s_full: np.ndarray,
    beta: float,
    G: WeightMatrix,
    smooth_res: Optional[np.ndarray],
):
    """Build ``(q_iso, q_gram, lin)`` of block ``i``'s subproblem at anchor ``y``."""
    plan = ctx.plans[i]
    op = plan.op
    yi = y[i]
    q_iso = plan.fold_iso
    q_gram = 0.0
    lin = np.zeros(yi.shape)
    if op.op_norm_sq > 0.0:
        si = s_full - op.apply(yi)
        q_gram = beta * plan.gram_factor
        lin += beta * op.adjoint(si)
    iso, coef, _ = G.iso_split()
    if iso != 0.0 or coef != 0.0:
        q_iso += beta * iso
        lin -= beta * G.mat_vec(yi)
    if plan.smooth_eta > 0.0 and smooth_res is not None:
        grad = ctx.smooth.weight * op_adjoint_of_smooth(ctx, i, smooth_res)
        q_iso += plan.smooth_eta
        lin += grad - plan.smooth_eta * yi
    return q_iso, q_gram, lin


def op_adjoint_of_smooth(ctx, i, smooth_res):
    return ctx.smooth.ops[i].adjoint(smooth_res)


# ---------------------------------------------------------------------------
# Run context
# ---------------------------------------------------------------------------


@dataclass
class _RunContext:
    problem: object
    kind: str
    config: SolverConfig
    partition: Optional[Partition]
    plans: list
    G0: list
    etas0: Optional[list]
    smooth: object
    smooth_linearize: bool
    b_scale: float
    workers: int = 1
    executor: Optional[ThreadPoolExecutor] = None

    @property
    def A(self):
        return self.problem.family

    @property
    def b(self):
        return self.problem.b


def _resolve_partition(problem, kind: str, config: SolverConfig) -> Optional[Partition]:
    n = problem.family.n
    if kind == "gs":
        if n != 2:
            raise ValueError("the sequential two-block solver needs n = 2")
        return Partition((0,), (1,), case="user")
    if kind in ("jacobi", "l-admm-ps", "pl-admm-ps", "gl-admm-ps"):
        return Partition((), tuple(range(n)), case="user")
    part = config.partition
    if isinstance(part, Partition):
        if not part.covers(n):
            raise ValueError("partition does not cover all blocks")
        return part
    if part in (None, "auto"):
        if problem.recommended_partition is not None:
            return problem.recommended_partition
        return case1_partition(list(problem.family.norms_sq()), problem.family)
    raise ValueError(f"unrecognized partition spec {part!r}")


def prepare_context(
    problem, kind: str, config: SolverConfig, workers: int = 1
) -> _RunContext:
    """Validate solvability of every block and freeze the solve plans."""
    if kind not in SOLVER_KINDS:
        raise ValueError(f"unknown solver kind {kind!r}; options: {SOLVER_KINDS}")
    partition = _resolve_partition(problem, kind, config)
    smooth = problem.smooth
    linearize = smooth is not None and (
        problem.linearize_smooth or kind in ("pl-admm-ps",)
    )
    if kind == "l-admm-ps" and smooth is not None:
        linearize = False
    if smooth is not None and not linearize:
        raise UnsupportedSubproblemError(
            "a joint smooth coupling requires a solver that linearizes it"
        )
    etas0 = None
    if config.weights is not None:
        if kind == "madmm-bt":
            raise ValueError(
                "backtracking manages its own weights; do not pass overrides"
            )
        if len(config.weights) != problem.family.n:
            raise ValueError("one weight per block is required")
        G0 = list(config.weights)
    elif kind == "madmm-bt":
        G0, etas0 = _bt_initial_weights(problem, partition, config.eta_scale)
    elif kind in ("l-admm-ps", "pl-admm-ps", "gl-admm-ps"):
        G0 = _preset_weights(problem, kind)
    else:
        G0, _ = default_weights(problem, kind, partition)
    plans = []
    for i in range(problem.family.n):
        eta_sm = 0.0
        if smooth is not None and linearize and smooth.ops[i] is not None:
            eta_sm = smooth.cert[i].eta
        plans.append(_plan_block(problem, i, G0[i], eta_sm))
    if kind == "gs" and G0[1].form == "zero":
        logger.warning(
            "second-block weight is zero: classical unregularized update, "
            "the averaged-iterate rate guarantee needs a positive weight"
        )
    b = problem.b
    b_scale = max(float(np.linalg.norm(b)), 1.0)
    return _RunContext(
        problem=problem,
        kind=kind,
        config=config,
        partition=partition,
        plans=plans,
        G0=G0,
        etas0=etas0,
        smooth=smooth,
        smooth_linearize=linearize,
        b_scale=b_scale,
        workers=max(1, int(workers)),
    )


def _bt_initial_weights(problem, partition: Partition, eta_scale: float):
    A = problem.family
    G = [WeightMatrix.zero()] * A.n
    etas = [0.0] * A.n
    for blocks in (partition.b1, partition.b2):
        nj = len(blocks)
        for i in blocks:
            op = A.operators[i]
            if op.op_norm_sq == 0.0:
                continue
            etas[i] = eta_scale * nj * op.op_norm_sq
            G[i] = WeightMatrix.identity_minus_gram(etas[i], op)
    return G, etas


# ---------------------------------------------------------------------------
# Phase execution
# ---------------------------------------------------------------------------


def _run_phase(
    ctx: _RunContext,
    blocks: Sequence[int],
    y: BlockVector,
    lam: np.ndarray,
    beta: float,
    G: Sequence[WeightMatrix],
) -> dict:
    """Update ``blocks`` in parallel, all anchored at ``y``; returns new values."""
    if not blocks:
        return {}
    s_full = ctx.A.apply(y) - ctx.b + lam / beta
    smooth_res = None
    if ctx.smooth is not None and ctx.smooth_linearize:
        smooth_res = ctx.smooth.residual(y)

    def work(i):
        q_iso, q_gram, lin = assemble_block(ctx, i, y, s_full, beta, G[i], smooth_res)
        return _solve_block(ctx.plans[i], q_iso, q_gram, lin)

    if ctx.executor is not None and len(blocks) > 1:
        results = list(ctx.executor.map(work, blocks))
    else:
        results = [work(i) for i in blocks]
    return dict(zip(blocks, results))


def _apply_updates(x: BlockVector, updates: dict) -> BlockVector:
    if not updates:
        return x
    blocks = list(x.blocks)
    for i, v in updates.items():
        blocks[i] = v
    return BlockVector(blocks)


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------


def gs_admm_step(state: SolverState, ctx: _RunContext):
    """Two-block sequential sweep, dual ascent, penalty advance."""
    x_prev = state.x
    first = _run_phase(ctx, (0,), x_prev, state.lam, state.beta, state.G)
    mid = _apply_updates(x_prev, first)
    second = _run_phase(ctx, (1,), mid, state.lam, state.beta, state.G)
    x_new = _apply_updates(mid, second)
    return _commit(state, ctx, x_new, backtracks=0)


def jacobi_admm_step(state: SolverState, ctx: _RunContext):
    """All-parallel sweep anchored at the previous iterate."""
    blocks = tuple(range(ctx.A.n))
    updates = _run_phase(ctx, blocks, state.x, state.lam, state.beta, state.G)
    x_new = _apply_updates(state.x, updates)
    return _commit(state, ctx, x_new, backtracks=0)


def madmm_step(state: SolverState, ctx: _RunContext):
    """Two parallel phases in sequence over the partition's super blocks."""
    part = ctx.partition
    x_prev = state.x
    first = _run_phase(ctx, part.b1, x_prev, state.lam, state.beta, state.G)
    mid = _apply_updates(x_prev, first)
    second = _run_phase(ctx, part.b2, mid, state.lam, state.beta, state.G)
    x_new = _apply_updates(mid, second)
    return _commit(state, ctx, x_new, backtracks=0)


def madmm_bt_step(state: SolverState, ctx: _RunContext):
    """Mixed step with per-phase weight inflation until acceptance holds.

    Phase one is recomputed with weights scaled by ``mu`` until the combined
    coupling of its step is dominated by the per-block quadratics; phase two
    likewise until its step passes the ``tau`` margin test. Accepted weights
    carry over to the next iteration.
    """
    part = ctx.partition
    A = ctx.A
    mu = ctx.config.mu
    x_prev = state.x
    backtracks = 0

    cap1 = _rescale_cap(ctx, part.b1, state.etas, mu)
    while True:
        first = _run_phase(ctx, part.b1, x_prev, state.lam, state.beta, state.G)
        if _bt_phase1_ok(ctx, part.b1, x_prev, first, state.etas):
            break
        _bt_scale(ctx, part.b1, state, mu)
        backtracks += 1
        cap1 -= 1
        if cap1 < 0:
            raise BacktrackingConsistencyError(
                "first-phase acceptance kept failing beyond the safe weight level"
            )
    mid = _apply_updates(x_prev, first)

    cap2 = _rescale_cap(ctx, part.b2, state.etas, mu)
    while True:
        second = _run_phase(ctx, part.b2, mid, state.lam, state.beta, state.G)
        if _bt_phase2_ok(ctx, part.b2, x_prev, second, state.etas):
            break
        _bt_scale(ctx, part.b2, state, mu)
        backtracks += 1
        cap2 -= 1
        if cap2 < 0:
            raise BacktrackingConsistencyError(
                "second-phase acceptance kept failing beyond the safe weight level"
            )
    x_new = _apply_updates(mid, second)
    state.backtrack_count += backtracks
    return _commit(state, ctx, x_new, backtracks=backtracks)


def _rescale_cap(ctx, blocks, etas, mu: float) -> int:
    worst = 1.0
    nj = len(blocks)
    for i in blocks:
        nsq = ctx.A.operators[i].op_norm_sq
        if nsq > 0.0 and etas[i] > 0.0:
            worst = max(worst, nj * nsq / etas[i])
    return int(math.ceil(math.log(worst) / math.log(mu))) + 2


def _bt_scale(ctx, blocks, state: SolverState, mu: float) -> None:
    for i in blocks:
        if ctx.A.operators[i].op_norm_sq == 0.0:
            continue
        state.etas[i] *= mu
        state.G[i] = WeightMatrix.identity_minus_gram(
            state.etas[i], ctx.A.operators[i]
        )


def _bt_phase1_ok(ctx, blocks, x_prev, updates, etas) -> bool:
    # ||A_{B1} d_{B1}||^2 <= sum_i eta_i ||d_i||^2 (weights in eta form).
    lhs_vec = np.zeros(ctx.A.out_shape)
    rhs = 0.0
    for i in blocks:
        op = ctx.A.operators[i]
        if op.op_norm_sq == 0.0:
            continue
        d = updates[i] - x_prev[i]
        lhs_vec += op.apply(d)
        rhs += etas[i] * float(np.vdot(d, d))
    return float(np.vdot(lhs_vec, lhs_vec)) <= rhs


def _bt_phase2_ok(ctx, blocks, x_prev, updates, etas) -> bool:
    # tau ||d_{B2}||^2 <= sum_i eta_i ||d_i||^2 - ||A_{B2} d_{B2}||^2,
    # restricted to constraint-coupled blocks.
    tau = ctx.config.tau
    lhs = 0.0
    quad = 0.0
    a_vec = np.zeros(ctx.A.out_shape)
    for i in blocks:
        op = ctx.A.operators[i]
        if op.op_norm_sq == 0.0:
            continue
        d = updates[i] - x_prev[i]
        dsq = float(np.vdot(d, d))
        lhs += dsq
        quad += etas[i] * dsq
        a_vec += op.apply(d)
    return tau * lhs <= quad - float(np.vdot(a_vec, a_vec))


def _commit(state: SolverState, ctx: _RunContext, x_new: BlockVector, backtracks: int):
    resid = ctx.A.apply(x_new) - ctx.b
    state.lam = dual_update(state.lam, state.beta, resid)
    beta_used = state.beta
    state.beta = _next_beta(ctx, state.beta, x_new, state.x)
    state.x = x_new
    state.k += 1
    return resid, beta_used, backtracks


def _next_beta(ctx, beta: float, x_new: BlockVector, x_prev: BlockVector) -> float:
    cfg = ctx.config
    if cfg.schedule == "geometric":
        return min(cfg.rho * beta, cfg.beta_max)
    worst = 0.0
    for new, old in zip(x_new.blocks, x_prev.blocks):
        d = new - old
        worst = max(worst, beta * math.sqrt(float(np.vdot(d, d))))
    if worst / ctx.b_scale <= cfg.eps_primal:
        return min(cfg.rho * beta, cfg.beta_max)
    return beta


_STEP_FNS: dict = {
    "gs": gs_admm_step,
    "jacobi": jacobi_admm_step,
    "madmm": madmm_step,
    "madmm-bt": madmm_bt_step,
    "l-admm-ps": jacobi_admm_step,
    "pl-admm-ps": jacobi_admm_step,
    "gl-admm-ps": jacobi_admm_step,
}


def run(
    problem,
    solver_kind: str,
    config: Optional[SolverConfig] = None,
    workers: int = 1,
    keep_iterates: bool = False,
) -> SolverResult:
    """Iterate a solver from zero initial blocks and dual until convergence.

    Stops when both the relative residual ``||A x - b|| / max(||b||, 1)``
    falls below ``eps_primal`` and the relative step
    ``||x^{k+1} - x^k|| / max(||b||, 1)`` falls below ``eps_step``, or when
    ``max_iter`` is reached. Non-finite iterates raise ``DivergenceError``
    carrying the finite prefix of the trace.
    """
    config = config or SolverConfig()
    ctx = prepare_context(problem, solver_kind, config, workers=workers)
    state = SolverState(
        x=BlockVector.zeros(problem.block_shapes),
        lam=np.zeros(problem.family.out_shape),
        beta=config.beta0,
        G=list(ctx.G0),
        etas=None if ctx.etas0 is None else list(ctx.etas0),
    )
    step = _STEP_FNS[solver_kind]
    iterates = [] if keep_iterates else None
    betas = [] if keep_iterates else None
    stop_reason = "budget"
    start = time.perf_counter()
    if ctx.workers > 1:
        ctx.executor = ThreadPoolExecutor(max_workers=ctx.workers)
    try:
        for _ in range(config.max_iter):
            x_prev = state.x
            resid, beta_used, backtracks = step(state, ctx)
            step_vec = state.x - x_prev
            step_norm = step_vec.norm()
            resid_norm = float(np.linalg.norm(resid))
            objective = problem.objective(state.x)
            if not (
                math.isfinite(objective)
                and math.isfinite(resid_norm)
                and math.isfinite(step_norm)
            ):
                result = SolverResult(
                    state, state.trace, "diverged", iterates, betas
                )
                raise DivergenceError(
                    f"non-finite iterate at iteration {state.k}", result
                )
            rel_resid = resid_norm / ctx.b_scale
            rel_step = step_norm / ctx.b_scale
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
            if keep_iterates:
                iterates.append(state.x.copy())
                betas.append(beta_used)
            if rel_resid <= config.eps_primal and rel_step <= config.eps_step:
                stop_reason = "converged"
                break
    finally:
        if ctx.executor is not None:
            ctx.executor.shutdown(wait=True)
            ctx.executor = None
    return SolverResult(state, state.trace, stop_reason, iterates, betas)
