"""Convergence diagnostics: KKT gaps, rate-bound right-hand sides, oracles.

Everything here works on desk-scale instances and deliberately uses dense
linear algebra (eigendecompositions, SVDs of the stacked operators) as an
independent route from the solvers' per-block norm certificates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .blockspace import BlockVector, WeightMatrix, _op_dense, residual
from .partition import Partition
from .solvers import (
    BacktrackingConsistencyError,
    DivergenceError,
    SolverConfig,
    UnsupportedSubproblemError,
    _KINDS,
    _check_penalties,
    _iterate,
    _resolve_partition,
    dual_update,
    prepare_context,
    run,
)

__all__ = [
    "AssumptionError",
    "KKTCertificate",
    "BoundReport",
    "H0Bundle",
    "hat_lambda",
    "kkt_gap",
    "theorem_alpha",
    "theorem_H0",
    "theorem_bound_rhs",
    "bound_report",
    "verify_kkt",
    "oracle_solve",
    "quadratic_oracle",
]


class AssumptionError(ValueError):
    """A rate-bound assumption (weight positivity) fails numerically."""


@dataclass(frozen=True)
class KKTCertificate:
    """A verified primal-dual pair for one problem instance."""

    x_star: BlockVector
    lambda_star: np.ndarray
    tol: float
    f_star: float
    residual_norm: float


@dataclass
class BoundReport:
    """Per-K left and right sides of an averaged-iterate rate bound."""

    alpha: float
    rows: list

    def ok(self, slack: float = 1e-8) -> bool:
        return all(lhs <= rhs + slack for _, lhs, rhs in self.rows)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("K,lhs,rhs\n")
            for K, lhs, rhs in self.rows:
                fh.write(f"{K},{lhs:.17g},{rhs:.17g}\n")


def hat_lambda(
    lam: np.ndarray, beta: float, problem, x_mixed: BlockVector
) -> np.ndarray:
    """Auxiliary multiplier at the mixed point ``(x_B1 new, x_B2 old)``.

    Equals the true next multiplier whenever the second phase does not move.
    """
    return dual_update(lam, beta, residual(problem.family, x_mixed, problem.b))


def kkt_gap(
    x_bar: BlockVector,
    cert: KKTCertificate,
    problem,
    alpha: float,
    beta0: float,
    star_image: Optional[np.ndarray] = None,
) -> float:
    """``f(xb) - f(x*) + <lam*, A xb - A x*> + (beta0 alpha / 2) ||A xb - b||^2``.

    Nonnegative for any valid certificate by convexity plus stationarity.
    ``star_image``, when given, is ``A x*``; a caller scoring many ``xb``
    against one certificate forms it once.
    """
    A, b = problem.family, problem.b
    image = A.apply(x_bar)
    if star_image is None:
        star_image = A.apply(cert.x_star)
    diff = image - star_image
    resid = residual(A, x_bar, b, image=image)
    return (
        problem.objective(x_bar)
        - cert.f_star
        + float(np.vdot(cert.lambda_star, diff))
        + 0.5 * beta0 * alpha * float(np.vdot(resid, resid))
    )


# ---------------------------------------------------------------------------
# Dense assembly helpers
# ---------------------------------------------------------------------------


def _stack_dense(problem, blocks: Sequence[int]) -> np.ndarray:
    return np.hstack([_op_dense(problem.family.operators[i]) for i in blocks])


def _smooth_weight(problem, i: int) -> WeightMatrix:
    """Block ``i``'s weight ``L_i`` in the joint smooth term (zero if none)."""
    if problem.smooth is None:
        return WeightMatrix.zero()
    return problem.smooth.cert[i]


def _block_quad_dense(problem, i: int, G: WeightMatrix, beta0=None) -> np.ndarray:
    """Dense ``A_i^T A_i + G_i`` (plus ``L_i/beta0`` when given) on the flat block."""
    shape = problem.block_shapes[i]
    Ai = _op_dense(problem.family.operators[i])
    M = Ai.T @ Ai + G.to_dense(shape)
    if beta0 is not None:
        M += (1.0 / beta0) * _smooth_weight(problem, i).to_dense(shape)
    return M


def _check_psd(H: np.ndarray, label: str) -> None:
    if H.size == 0:
        return
    w = np.linalg.eigvalsh(0.5 * (H + H.T))
    floor = -1e-10 * max(1.0, float(np.max(np.abs(w))))
    if float(w[0]) < floor:
        raise AssumptionError(
            f"{label} is not positive semidefinite (min eig {w[0]:.3e})"
        )


def _sigma_min_sq(M: np.ndarray) -> float:
    if M.size == 0:
        return 0.0
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    smallest = float(w[0])
    return max(smallest, 0.0) ** 2


def _spec_norm_sq_dense(M: np.ndarray) -> float:
    if M.size == 0:
        return 0.0
    s = np.linalg.svd(M, compute_uv=False)
    return float(s[0]) ** 2 if s.size else 0.0


def _block_diag(problem, blocks, G, beta0=None) -> np.ndarray:
    """``Diag{A_i^T A_i + G_i}`` over ``blocks`` (plus ``L_i/beta0`` when given)."""
    sizes = [int(np.prod(problem.block_shapes[i])) for i in blocks]
    M = np.zeros((sum(sizes), sum(sizes)))
    off = 0
    for i, sz in zip(blocks, sizes):
        M[off : off + sz, off : off + sz] = _block_quad_dense(problem, i, G[i], beta0)
        off += sz
    return M


def _diag_minus_cross(problem, blocks, G, beta0=None) -> np.ndarray:
    """``Diag{A_i^T A_i + G_i} - A_B^T A_B`` (plus ``L_i/beta0`` when given)."""
    M = _block_diag(problem, blocks, G, beta0)
    if blocks:
        AB = _stack_dense(problem, blocks)
        M -= AB.T @ AB
    return M


# ---------------------------------------------------------------------------
# Theorem constants
# ---------------------------------------------------------------------------


def theorem_alpha(
    problem,
    kind: str,
    G: Sequence[WeightMatrix],
    partition: Optional[Partition] = None,
    tau: Optional[float] = None,
) -> float:
    """Penalty coefficient ``alpha`` of the averaged-iterate rate bound.

    ``min{1/2, sigma_min^2(Diag{A_i^T A_i + G_i} - A_B2^T A_B2) / (2 ||A_B2||_2^2)}``
    over the second phase ``B2`` of the kind's partition; the backtracking
    kind uses ``tau`` in place of ``sigma_min^2``.
    """
    b2 = _resolve_partition(problem, kind, partition).b2
    row = _KINDS[kind]
    if not row.rate_bound:
        raise ValueError(f"no rate constant for solver kind {kind!r}")
    if row.backtrack and tau is None:
        raise ValueError("the backtracking scheme needs partition and tau")
    if row.backtrack and not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be finite and positive, got {tau!r}")
    # An empty second phase has ||A_B2|| = 0: the uncoupled case.
    a_sq = _spec_norm_sq_dense(_stack_dense(problem, b2)) if b2 else 0.0
    if a_sq == 0.0:
        return 0.5
    if row.backtrack:
        return min(0.5, tau / (2.0 * a_sq))
    M = _diag_minus_cross(problem, b2, G)
    return min(0.5, _sigma_min_sq(M) / (2.0 * a_sq))


@dataclass(frozen=True)
class H0Bundle:
    """Initial metrics of a rate bound: per-group dense matrices + dual coef."""

    groups: tuple  # ((block indices), dense matrix) pairs
    dual_coef: float


def theorem_H0(
    problem,
    kind: str,
    G: Sequence[WeightMatrix],
    beta0: float,
    partition: Optional[Partition] = None,
) -> H0Bundle:
    """Assemble the initial weighting matrices of the rate bound.

    Over the kind's partition, the first phase ``B1`` gets
    ``Diag{L_i/beta0 + A_i^T A_i + G_i} - A_B1^T A_B1`` and the second phase
    the block-diagonal ``Diag{L_i/beta0 + A_i^T A_i + G_i}``; an empty phase
    has no group. The dual part is ``(1/beta0)^2 I``. Raises
    :class:`AssumptionError` when a matrix is not PSD.
    """
    if not 0.0 < beta0 < math.inf:
        raise ValueError(f"beta0 must be positive and finite, got {beta0!r}")
    part = _resolve_partition(problem, kind, partition)
    if not _KINDS[kind].rate_bound:
        raise ValueError(f"no rate bound for solver kind {kind!r}")
    groups = []
    if part.b1:
        groups.append((part.b1, _diag_minus_cross(problem, part.b1, G, beta0=beta0)))
    if part.b2:
        groups.append((part.b2, _block_diag(problem, part.b2, G, beta0=beta0)))
    for idx, H in groups:
        _check_psd(H, f"initial metric over blocks {idx}")
    return H0Bundle(tuple(groups), (1.0 / beta0) ** 2)


def _flat(x: BlockVector, blocks: Sequence[int]) -> np.ndarray:
    if not blocks:
        return np.zeros(0)
    return np.concatenate([x[i].ravel() for i in blocks])


def theorem_bound_rhs(
    x0: BlockVector,
    lambda0: np.ndarray,
    cert: KKTCertificate,
    H0: H0Bundle,
    betas: Sequence[float],
    K: int,
) -> float:
    """Right side ``[sum_j ||x*-x0||^2_{H_j} + ||lam*-lam0||^2_{H_dual}]
    / (2 sum_{k=0}^K 1/beta_k)``; each penalty must be finite and positive."""
    not_int = isinstance(K, bool) or not isinstance(K, numbers.Integral)
    if not_int or K < 0 or K >= len(betas):
        raise ValueError(f"K must be an integer to index into the penalties, got {K!r}")
    _check_penalties(betas)
    num = 0.0
    for blocks, H in H0.groups:
        d = _flat(cert.x_star, blocks) - _flat(x0, blocks)
        num += float(d @ H @ d)
    dlam = cert.lambda_star - lambda0
    num += H0.dual_coef * float(np.vdot(dlam, dlam))
    denom = 2.0 * sum(1.0 / betas[k] for k in range(K + 1))
    return num / denom


def bound_report(
    problem, kind: str, config: SolverConfig, cert: KKTCertificate, K_max=None
) -> BoundReport:
    """Run ``kind`` under ``config``; row ``K <= K_max`` holds :func:`kkt_gap`
    at the ``1/beta_k``-weighted running average of the first ``K + 1``
    iterates and :func:`theorem_bound_rhs` at ``K``, with ``config``'s
    ``beta0`` and ``tau`` and the run's own ``G0`` and ``partition`` from
    :func:`prepare_context`, which prepares the run once."""
    not_int = isinstance(K_max, bool) or not isinstance(K_max, numbers.Integral)
    if K_max is not None and (not_int or K_max < 0):
        raise ValueError(f"K_max must be None or an integer >= 0, got {K_max!r}")
    cap = config.max_iter if K_max is None else min(config.max_iter, K_max + 1)
    ctx = prepare_context(problem, kind, replace(config, max_iter=cap))
    G, part, beta0 = ctx.G0, ctx.partition, config.beta0
    alpha = theorem_alpha(problem, kind, G, partition=part, tau=config.tau)
    bundle = theorem_H0(problem, kind, G, beta0, partition=part)
    x0, lam0 = BlockVector.zeros(problem.block_shapes), np.zeros_like(cert.lambda_star)
    # One unit penalty makes the denominator 2: twice this is the numerator.
    num = 2.0 * theorem_bound_rhs(x0, lam0, cert, bundle, (1.0,), 0)
    star_image = problem.family.apply(cert.x_star)
    acc, total, rows = x0, 0.0, []

    def score(state):
        nonlocal acc, total
        w = 1.0 / state.trace[-1].beta
        acc, total = acc + w * state.x, total + w
        lhs = kkt_gap((1.0 / total) * acc, cert, problem, alpha, beta0, star_image)
        rows.append((state.k - 1, lhs, num / (2.0 * total)))

    _iterate(ctx, observe=score)
    return BoundReport(alpha, rows)


# ---------------------------------------------------------------------------
# KKT verification and oracles
# ---------------------------------------------------------------------------


def _stationarity_vector(problem, x: BlockVector, lam: np.ndarray, i: int):
    v = -problem.family.operators[i].adjoint(lam)
    if problem.smooth is not None and problem.smooth.ops[i] is not None:
        v = v - problem.smooth.grad(x)[i]
    return v


def _check_subdiff(term, x: np.ndarray, v: np.ndarray, tol: float):
    """Whether ``v`` lies in the subdifferential of ``term`` at ``x``."""
    z = tol
    if term is None or term.kind == "zero":
        return bool(np.all(np.abs(v) <= tol)), "free block needs zero gradient"
    w = term.weight
    t = tol * max(1.0, w)
    if term.kind == "sq-frobenius":
        return bool(np.all(np.abs(v - w * x) <= t)), "quadratic gradient"
    if term.kind == "l1":
        pos = x > z
        neg = x < -z
        at0 = ~pos & ~neg
        ok = (
            np.all(np.abs(v[pos] - w) <= t)
            and np.all(np.abs(v[neg] + w) <= t)
            and np.all(np.abs(v[at0]) <= w + t)
        )
        return bool(ok), "l1 sign conditions"
    if term.kind == "l1-nonneg":
        if np.any(x < -z):
            return False, "nonnegativity violated"
        pos = x > z
        ok = np.all(np.abs(v[pos] - w) <= t) and np.all(v[~pos] <= w + t)
        return bool(ok), "nonneg l1 sign conditions"
    if term.kind == "indicator-nonneg":
        if np.any(x < -z):
            return False, "nonnegativity violated"
        pos = x > z
        ok = np.all(np.abs(v[pos]) <= t) and np.all(v[~pos] <= t)
        return bool(ok), "normal cone of the nonneg orthant"
    if term.kind == "l21":
        for j in range(x.shape[1]):
            xc, vc = x[:, j], v[:, j]
            nx = float(np.linalg.norm(xc))
            if nx <= z:
                if float(np.linalg.norm(vc)) > w + t:
                    return False, f"column {j} dual norm exceeds weight"
            else:
                if float(np.linalg.norm(vc - w * xc / nx)) > t:
                    return False, f"column {j} gradient mismatch"
        return True, "column-wise conditions"
    if term.kind == "nuclear":
        s = np.linalg.svd(v, compute_uv=False)
        top = float(s[0]) if s.size else 0.0
        if top > w + t:
            return False, "dual spectral norm exceeds weight"
        nuc = float(np.sum(np.linalg.svd(x, compute_uv=False)))
        pairing = float(np.vdot(v, x))
        if abs(pairing - w * nuc) > tol * max(1.0, w * nuc):
            return False, "dual pairing misses the nuclear norm"
        return True, "spectral conditions"
    return False, f"no subdifferential check for {term.kind!r}"


def verify_kkt(problem, x: BlockVector, lam: np.ndarray, tol: float = 1e-6):
    """Check feasibility and per-term stationarity; returns (ok, report)."""
    resid = residual(problem.family, x, problem.b)
    rnorm = float(np.linalg.norm(resid))
    scale = max(float(np.linalg.norm(problem.b)), 1.0)
    report = {"residual_norm": rnorm}
    if rnorm > 1e-8 * scale:
        report["failure"] = "constraint residual above floor"
        return False, report
    for i in range(problem.family.n):
        v = _stationarity_vector(problem, x, lam, i)
        ok, why = _check_subdiff(problem.terms[i], x[i], v, tol)
        if not ok:
            report["failure"] = f"block {i}: {why}"
            return False, report
    return True, report


def oracle_solve(
    problem,
    target_tol: float = 1e-6,
    solver_kind: str = "madmm",
    config: Optional[SolverConfig] = None,
) -> Optional[KKTCertificate]:
    """High-accuracy reference solve with term-by-term KKT verification.

    Returns ``None`` when the verification fails (including infeasible
    instances, caught by the residual floor) or when the solver rejects the
    problem, diverges, or hits a linear-algebra failure. Any other error,
    such as a misuse of the solver kind, propagates.

    The default configuration keeps the penalty moderate (adaptive schedule,
    capped at 1e4) and iterates until steps are near machine precision: the
    stationarity error at stopping scales like ``beta * step``, so a large
    penalty with a loose step tolerance leaves the multiplier unconverged
    even when the residual is tiny.
    """
    config = config or SolverConfig(
        beta0=1e-2,
        rho=10.0,
        beta_max=1e4,
        schedule="adaptive",
        eps_primal=1e-12,
        eps_step=1e-12,
        max_iter=300000,
    )
    try:
        result = run(problem, solver_kind, config)
    except (
        DivergenceError,
        UnsupportedSubproblemError,
        BacktrackingConsistencyError,
        np.linalg.LinAlgError,
    ):
        return None
    x, lam = result.state.x, result.state.lam
    ok, report = verify_kkt(problem, x, lam, tol=target_tol)
    if not ok:
        return None
    return KKTCertificate(
        x_star=x,
        lambda_star=lam,
        tol=target_tol,
        f_star=problem.objective(x),
        residual_norm=report["residual_norm"],
    )


def quadratic_oracle(problem) -> KKTCertificate:
    """Closed-form certificate for all-quadratic objectives.

    With every term ``(w_i/2) ||x_i||^2``, stationarity gives
    ``x_i = -A_i^T lam / w_i`` and the multiplier solves
    ``(sum_i A_i A_i^T / w_i) lam = -b`` on the flattened constraint space.
    """
    n = problem.family.n
    weights = []
    for term in problem.terms:
        if term is None or term.kind != "sq-frobenius":
            raise ValueError("closed form needs sq-frobenius terms on all blocks")
        weights.append(term.weight)
    if problem.smooth is not None:
        raise ValueError("closed form does not cover joint smooth terms")
    mats = [_op_dense(op) for op in problem.family.operators]
    out_dim = mats[0].shape[0]
    S = np.zeros((out_dim, out_dim))
    for M, w in zip(mats, weights):
        S += (M @ M.T) / w
    lam_flat = np.linalg.solve(S, -problem.b.ravel())
    lam = lam_flat.reshape(problem.family.out_shape)
    blocks = []
    for i, (M, w) in enumerate(zip(mats, weights)):
        blocks.append((-(M.T @ lam_flat) / w).reshape(problem.block_shapes[i]))
    x = BlockVector(blocks)
    resid = residual(problem.family, x, problem.b)
    return KKTCertificate(
        x_star=x,
        lambda_star=lam,
        tol=1e-10,
        f_star=problem.objective(x),
        residual_norm=float(np.linalg.norm(resid)),
    )
