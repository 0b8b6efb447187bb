"""Shared builders and independent numeric oracles for the test suite.

Everything here recomputes expected values from first principles (dense
numpy linear algebra, grid searches) so the library is checked against an
implementation that shares none of its code paths. The surrogate-axiom
probe at the end evaluates the solvers' own block model and judges it
against the augmented Lagrangian and dense curvature built here.
"""

import math

import numpy as np

from mmadmm.blockspace import BlockVector, DenseMatrixOp, ScaledIdentityOp
from mmadmm.problems import ProblemSpec
from mmadmm.prox import ProxFunction
from mmadmm.solvers import (
    SolverConfig,
    assemble_block,
    prepare_context,
    subproblem_value,
)


def l1_toy():
    """min |x1| + |x2| s.t. x1 + x2 = 2: optimal value 2, multiplier -1."""
    ops = (ScaledIdentityOp(1.0, (1,)), ScaledIdentityOp(1.0, (1,)))
    rows = [(ops, np.array([2.0]))]
    terms = (ProxFunction("l1"), ProxFunction("l1"))
    return ProblemSpec("l1-toy", rows, ((1,), (1,)), terms)


def quad_problem(seed=0, d=6, dims=(3, 4), weights=(1.0, 2.0)):
    """Strongly convex blocks (w_i/2)||x_i||^2 under dense Gaussian coupling."""
    rng = np.random.default_rng(seed)
    ops = tuple(DenseMatrixOp(rng.standard_normal((d, m))) for m in dims)
    b = rng.standard_normal(d)
    rows = [(ops, b)]
    terms = tuple(ProxFunction("sq-frobenius", w) for w in weights)
    return ProblemSpec(
        "quad", rows, tuple((m,) for m in dims), terms
    )


def op_dense(op):
    """Materialize a block operator column by column."""
    m = int(np.prod(op.in_shape)) if op.in_shape else 1
    d = int(np.prod(op.out_shape)) if op.out_shape else 1
    cols = np.zeros((d, m))
    e = np.zeros(m)
    for j in range(m):
        e[:] = 0.0
        e[j] = 1.0
        cols[:, j] = op.apply(e.reshape(op.in_shape)).ravel()
    return cols


def family_dense(A):
    """Dense matrix of a whole operator family, blocks side by side."""
    return np.hstack([op_dense(op) for op in A.operators])


def flatten_blocks(x):
    """Concatenate the blocks of a BlockVector into one flat vector."""
    return np.concatenate([blk.ravel() for blk in x.blocks])


def grid_min_1d(objective, lo=-10.0, hi=10.0, step=1e-4):
    """Argmin of a vectorized scalar objective over a uniform grid."""
    xs = np.arange(lo, hi + step, step)
    vals = objective(xs)
    return float(xs[np.argmin(vals)])


def refine_min(objective, lo, hi, steps=201, rounds=4):
    """Shrinking multi-round grid search over a box in R^k.

    ``objective`` maps an array of shape (k,) to a scalar. Each round zooms
    into one grid cell around the incumbent, so the final resolution is
    roughly ``(hi - lo) / steps**rounds`` per coordinate.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    k = lo.size
    best = None
    for _ in range(rounds):
        axes = [np.linspace(lo[i], hi[i], steps) for i in range(k)]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        vals = np.array([objective(p) for p in pts])
        best = pts[int(np.argmin(vals))]
        spans = (hi - lo) / (steps - 1)
        lo = best - spans
        hi = best + spans
    return best


def random_blocks(rng, shapes, scale=1.0):
    """List of random dense arrays matching the given shapes."""
    return [scale * rng.standard_normal(s) for s in shapes]


# ---------------------------------------------------------------------------
# Surrogate axioms on the block model the solvers run
# ---------------------------------------------------------------------------

_NONNEG_KINDS = ("l1-nonneg", "indicator-nonneg")


def surrogate_axiom_gaps(
    problem,
    kind,
    seed=0,
    config=None,
    value=subproblem_value,
    anchors=3,
    samples=10,
):
    """Majorization gaps of every phase model that ``run`` builds for ``kind``.

    The weights are the ones ``prepare_context`` picks (or
    ``config.weights``). For each phase ``P``, at a random anchor ``y``
    inside the domain with a random multiplier ``lam`` and penalty ``beta``,
    each probe ``x`` (equal to ``y`` outside ``P``) gives

        gap = sum_{i in P} [m_i(x_i) - m_i(y_i)] - [Phi(x) - Phi(y)],

    where ``m_i`` is ``value`` on block ``i``'s assembled ``(q_iso, q_gram,
    lin)`` and ``Phi(x) = f(x) + <lam, Ax - b> + beta/2 ||Ax - b||^2``. The
    axioms ask for ``0 <= gap <= bound`` with
    ``bound = 1/2 sum_i (beta ||d_i||^2_{G_i} + beta ||A_i d_i||^2 +
    eta_i ||d_i||^2)``, ``d = x - y`` and ``eta_i`` the smooth-term weight:
    the lower bound is majorization, the upper one touching at ``y`` to
    second order. Probes are random steps plus one step along the
    eigenvector of the phase's dense curvature gap with the smallest
    eigenvalue, where majorization fails first.

    Returns ``(gap, bound, scale)`` triples, ``scale = max(|Phi(x) - Phi(y)|, 1)``.
    """
    rng = np.random.default_rng(seed)
    ctx = prepare_context(problem, kind, config or SolverConfig())
    A, b, smooth = problem.family, problem.b, ctx.smooth
    shapes = problem.block_shapes
    nonneg = [t is not None and t.kind in _NONNEG_KINDS for t in problem.terms]

    def phi(x, lam, beta):
        r = A.apply(x) - b
        return (
            problem.objective(x)
            + float(np.vdot(lam, r))
            + 0.5 * beta * float(np.vdot(r, r))
        )

    out = []
    for blocks in (ctx.partition.b1, ctx.partition.b2):
        if not blocks:
            continue
        sizes = [int(np.prod(shapes[i])) for i in blocks]
        offsets = np.cumsum([0] + sizes)
        A_d = [op_dense(A.operators[i]) for i in blocks]
        G_d = [ctx.G0[i].to_dense(shapes[i]) for i in blocks]
        eta = [ctx.plans[i].smooth_eta for i in blocks]
        A_P = np.hstack(A_d)
        B_P = None
        if smooth is not None:
            B_P = np.hstack(
                [
                    op_dense(smooth.ops[i])
                    if smooth.ops[i] is not None
                    else np.zeros((smooth.offset.size, sz))
                    for i, sz in zip(blocks, sizes)
                ]
            )
        for _ in range(anchors):
            y = [
                np.abs(rng.standard_normal(s)) + 0.1
                if nonneg[i]
                else rng.standard_normal(s)
                for i, s in enumerate(shapes)
            ]
            lam = rng.standard_normal(A.out_shape)
            beta = float(10.0 ** rng.uniform(-1.0, 1.0))
            y_bv = BlockVector(y)
            s_full = A.apply(y_bv) - b + lam / beta
            smooth_res = smooth.residual(y_bv) if smooth is not None else None
            models = {
                i: assemble_block(ctx, i, y_bv, s_full, beta, ctx.G0[i], smooth_res)
                for i in blocks
            }

            # Curvature gap: the quadratic form of gap in d = x - y.
            H = np.zeros((offsets[-1], offsets[-1]))
            for k, sz in enumerate(sizes):
                lo, hi = offsets[k], offsets[k + 1]
                H[lo:hi, lo:hi] = beta * (G_d[k] + A_d[k].T @ A_d[k])
                H[lo:hi, lo:hi] += eta[k] * np.eye(sz)
            H -= beta * A_P.T @ A_P
            if B_P is not None:
                H -= smooth.weight * B_P.T @ B_P
            worst = np.linalg.eigh(0.5 * (H + H.T))[1][:, 0]
            step = 1.0
            for k, i in enumerate(blocks):
                v_i, y_i = worst[offsets[k] : offsets[k + 1]], y[i].ravel()
                if nonneg[i] and np.any(v_i < 0.0):
                    neg = v_i < 0.0
                    step = min(step, 0.5 * float(np.min(y_i[neg] / -v_i[neg])))
            moves = [
                {
                    i: step * worst[offsets[k] : offsets[k + 1]].reshape(shapes[i])
                    for k, i in enumerate(blocks)
                }
            ]
            for _ in range(samples):
                size = 10.0 ** rng.uniform(-3.0, 0.5)
                moves.append(
                    {i: size * rng.standard_normal(shapes[i]) for i in blocks}
                )

            phi_y = phi(y_bv, lam, beta)
            for move in moves:
                x = list(y)
                for i in blocks:
                    x[i] = np.abs(y[i] + move[i]) if nonneg[i] else y[i] + move[i]
                d_phi = phi(BlockVector(x), lam, beta) - phi_y
                d_model = sum(
                    value(ctx.plans[i], *models[i], x[i])
                    - value(ctx.plans[i], *models[i], y[i])
                    for i in blocks
                )
                bound = 0.0
                for k, i in enumerate(blocks):
                    d = (x[i] - y[i]).ravel()
                    a_d = A_d[k] @ d
                    bound += 0.5 * (
                        beta * float(d @ G_d[k] @ d)
                        + beta * float(a_d @ a_d)
                        + eta[k] * float(d @ d)
                    )
                out.append((d_model - d_phi, bound, max(abs(d_phi), 1.0)))
    return out


def surrogate_axioms_hold(gaps, rtol=1e-10):
    """Whether every ``(gap, bound, scale)`` satisfies ``0 <= gap <= bound``.

    Both sides allow ``rtol * scale`` of rounding; a non-finite gap fails.
    """
    return all(
        math.isfinite(gap) and -rtol * scale <= gap <= bound + rtol * scale
        for gap, bound, scale in gaps
    )
