"""Shared builders and independent numeric oracles for the test suite.

Everything here recomputes expected values from first principles (dense
numpy linear algebra, grid searches) so the library is checked against an
implementation that shares none of its code paths. The surrogate-axiom
probe at the end evaluates the solvers' own block model and judges it
against the augmented Lagrangian and dense curvature built here.
"""

import math

import numpy as np

from mmadmm import solvers
from mmadmm.blockspace import BlockVector, DenseMatrixOp, ScaledIdentityOp
from mmadmm.problems import ProblemSpec
from mmadmm.prox import ProxFunction
from mmadmm.solvers import (
    SolverConfig,
    UnsupportedSubproblemError,
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


def run_observed(problem, kind, config=None, **kwargs):
    """``(result, iterates)``: ``solvers.run`` plus a copy of every iterate,
    taken through its observer (``run`` reuses the iterate's buffer)."""
    iterates = []

    def keep(state):
        iterates.append(state.x.copy())

    return solvers.run(problem, kind, config, observe=keep, **kwargs), iterates


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


def reference_assembly(ctx, i, y, s_full, beta, G, smooth_res):
    """Block ``i``'s ``(q_iso, q_gram, lin)`` built term by term.

    Recomputes ``A_i y_i`` and applies the whole weight ``G``:
    ``lin = beta A_i^T (s_full - A_i y_i) - beta G y_i`` plus the linearized
    smooth term, as the model reads before the Gram terms cancel.
    """
    plan = ctx.plans[i]
    op = plan.op
    yi = y[i]
    q_iso = plan.fold_iso
    q_gram = 0.0
    lin = np.zeros(yi.shape)
    if op.op_norm_sq > 0.0:
        q_gram = beta * plan.gram_factor
        lin += beta * op.adjoint(s_full - op.apply(yi))
    q_iso += beta * G.eta
    lin -= beta * G.mat_vec(yi)
    if plan.smooth_eta > 0.0 and smooth_res is not None:
        q_iso += plan.smooth_eta
        lin += ctx.smooth.weight * ctx.smooth.ops[i].adjoint(smooth_res)
        lin -= plan.smooth_eta * yi
    return q_iso, q_gram, lin


# ---------------------------------------------------------------------------
# Reference phase engines: per block, and one prox call per entrywise run
# ---------------------------------------------------------------------------


def reference_solve_block(plan, q_iso, q_gram, lin, return_value=False):
    """Minimize ``term(v) + 0.5 q_iso ||v||^2 + 0.5 q_gram <v, Gram v> + <lin, v>``
    for one block on its own, path by path.

    With ``return_value``, returns ``(v, value)``, ``value`` the term's
    value as its prox gives it (``None`` where it gives none).
    """
    if plan.path == "diag":
        denom = q_iso + q_gram * plan.diag
        assert np.all(denom > 0.0)
        x = lin / (-denom)
        if plan.prox_term is not None:
            return plan.prox_term.prox(x, 1.0 / denom, return_value=return_value)
    else:
        w, U = plan.eig
        denom = q_iso + q_gram * w
        assert np.all(denom > 0.0)
        rhs = -lin
        if plan.orient == "left":
            x = U @ ((U.T @ rhs) / denom[:, None])
        elif plan.orient == "right":
            x = ((rhs @ U) / denom[None, :]) @ U.T
        else:
            x = (U @ ((U.T @ rhs.ravel()) / denom)).reshape(rhs.shape)
    return (x, None) if return_value else x


def reference_run_phase(ctx, blocks, y, c, r, z, lam, beta, G):
    """The phase update of ``solvers._run_phase``, block by block.

    Each block of ``blocks`` assembles its model, solves it on its own and
    is applied once; the result is built from per-block arrays. The images
    are summed here again, so the carried residual ``r`` is not read. No
    term value is carried: every updated block maps to ``None``. Every
    block is solved in full space, so the updated blocks drop their range
    coordinates ``z``.
    """
    if not blocks:
        return y, c, {}, z
    image_sum = np.zeros(ctx.A.out_shape)
    for ci in c:
        image_sum += ci
    s_full = image_sum - ctx.b + lam / beta
    smooth_res = None
    if ctx.smooth is not None:
        smooth_res = ctx.smooth.residual(y)
    new = list(y.blocks)
    images = list(c)
    for i in blocks:
        q_iso, q_gram, lin = assemble_block(
            ctx, i, y, c, s_full, beta, G[i], smooth_res
        )
        new[i] = reference_solve_block(ctx.plans[i], q_iso, q_gram, lin)
        images[i] = ctx.plans[i].op.apply(new[i])
    z = {i: X for i, X in z.items() if i not in blocks}
    return BlockVector(new), images, dict.fromkeys(blocks), z


def _joins(plan):
    """Whether a block solves entrywise, so a run-wide solve takes it
    together with the blocks packed beside it."""
    term = plan.prox_term
    return plan.path == "diag" and (term is None or term.entrywise)


def reference_runs(plans, blocks, layout):
    """The runs of ``blocks``, ``(plans, start, stop)`` each, in their order.

    A run is a maximal span of ``blocks`` back to back in ``layout`` that
    solve entrywise with equal terms (or none), split by
    :meth:`_Layout.runs`; any other block is a run of one.
    """
    keys = [(plan.prox_term,) if _joins(plan) else None for plan in plans]
    return tuple(
        (tuple(plans[i] for i in members), start, stop)
        for members, start, stop in layout.runs(blocks, keys)
    )


def reference_solve_run(ctx, run, curvatures, flat):
    """A run's models minimized together, which ``solvers._solve_block``
    must match bitwise block by block.

    ``run`` is ``(plans, start, stop)`` and ``flat[start:stop]`` holds the
    members' linear terms; an entrywise run is one prox call with a
    per-entry threshold built in ``ctx.denom``. Returns the term value of a
    run of one whose prox gives it, else ``None``.
    """
    plans, start, stop = run
    v = flat[start:stop]
    if not _joins(plans[0]):
        (plan,), ((q_iso, q_gram),) = plans, curvatures
        v = v.reshape(plan.op.in_shape)
        if plan.path == "eig":
            v[...] = solvers._solve_eig(plan, q_iso, q_gram, v)
            return None
        s = q_iso + q_gram * plan.diag
        if s <= 0.0:
            raise UnsupportedSubproblemError(
                f"block {plan.index}: subproblem has no positive curvature"
            )
        np.divide(v, -s, out=v)
        return plan.prox_term.prox(v, 1.0 / s, out=v, return_value=True)[1]
    for plan, (q_iso, q_gram) in zip(plans, curvatures):
        lo, hi = ctx.layout.bounds[plan.index]
        if isinstance(plan.diag, float):
            ctx.denom[lo:hi] = q_iso + q_gram * plan.diag
        else:
            d = np.multiply(plan.diag.reshape(-1), q_gram, out=ctx.denom[lo:hi])
            d += q_iso
    denom = ctx.denom[start:stop]
    if np.any(denom <= 0.0):
        for plan in plans:
            lo, hi = ctx.layout.bounds[plan.index]
            if np.any(ctx.denom[lo:hi] <= 0.0):
                raise UnsupportedSubproblemError(
                    f"block {plan.index}: subproblem has no positive curvature"
                )
    np.divide(v, denom, out=v)
    np.negative(v, out=v)
    term = plans[0].prox_term
    if term is not None:
        np.divide(1.0, denom, out=denom)
        term.prox(v, denom, out=v)
    return None


def reference_run_wide_phase(ctx, blocks, y, c, r, z, lam, beta, G):
    """The phase update of ``solvers._run_phase`` by run-wide solves.

    All of a run's adjoints come first, then one :func:`reference_solve_run`
    call, then all of its applies; the runs of :func:`reference_runs` go to
    ``ctx.executor``, when there is one, one run per task. A block with
    carried range coordinates ``Y``, always a run of one, is assembled in
    them (``assemble_block``'s ``coords``),
    solved by :func:`reference_solve_block`, and writes ``Q X`` and the
    image ``R^T X`` at its rows; it carries its new ``X``.
    """
    s_full = r + lam / beta
    smooth_res = None
    if ctx.smooth is not None:
        smooth_res = ctx.smooth.residual(y)
    x = y.copy()
    xb = x.blocks

    def work(run):
        plans = run[0]
        i = plans[0].index
        if i in z:
            plan = plans[0]
            model = assemble_block(
                ctx, i, y, c, s_full, beta, G[i], smooth_res, coords=z[i]
            )
            X, value = reference_solve_block(plan, *model, return_value=True)
            Q, R, rows = plan.basis.Q, plan.basis.R, plan.basis.rows
            xb[i][...] = Q @ X
            image = np.zeros(ctx.A.out_shape)
            image.reshape(-1)[rows] = (R.T @ X).reshape(-1)
            return [image], value, X
        curvatures = [
            assemble_block(
                ctx, p.index, y, c, s_full, beta, G[p.index], smooth_res, xb[p.index]
            )[:2]
            for p in plans
        ]
        value = reference_solve_run(ctx, run, curvatures, x.flat)
        return [p.op.apply(xb[p.index]) for p in plans], value, None

    runs = reference_runs(ctx.plans, blocks, ctx.layout)
    if ctx.executor is not None and len(runs) > 1:
        results = list(ctx.executor.map(work, runs))
    else:
        results = [work(run) for run in runs]
    images = list(c)
    values = {}
    z = dict(z)
    for (plans, _, _), (run_images, value, X) in zip(runs, results):
        for plan, ci in zip(plans, run_images):
            images[plan.index] = ci
            values[plan.index] = value
        if X is not None:
            z[plans[0].index] = X
    return x, images, values, z


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
            c = [op.apply(blk) for op, blk in zip(A.operators, y)]
            s_full = A.apply(y_bv) - b + lam / beta
            smooth_res = smooth.residual(y_bv) if smooth is not None else None
            models = {
                i: assemble_block(
                    ctx, i, y_bv, c, s_full, beta, ctx.G0[i], smooth_res
                )
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
