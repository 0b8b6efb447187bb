"""Surrogate axioms on the solvers' block model, the coupling smoothness
certificate, and the joint smooth term."""

import math

import numpy as np
import pytest

from mmadmm.blockspace import (
    BlockOperatorFamily,
    BlockVector,
    DenseMatrixOp,
    DimensionError,
    ScaledIdentityOp,
    WeightMatrix,
    stack_rows,
)
from mmadmm.problems import ProblemSpec, build_latent_lrr
from mmadmm.solvers import (
    SolverConfig,
    assemble_block,
    phase_smoothness,
    prepare_context,
    subproblem_value,
)
from mmadmm.surrogates import SmoothQuadCoupling

from helpers import (
    l1_toy,
    op_dense,
    quad_problem,
    random_blocks,
    surrogate_axiom_gaps,
    surrogate_axioms_hold,
)


def _quad(G, v):
    """``v^T G v`` of a weight ``G``, through its own action."""
    return float(np.vdot(v, G.mat_vec(v)))


def _coupling(seed=0, shapes=((3,), (2,)), d=4, weight=1.5):
    """A smooth joint quadratic (w/2)||sum_i B_i x_i - c||^2 with known grad."""
    rng = np.random.default_rng(seed)
    ops = tuple(DenseMatrixOp(rng.standard_normal((d, s[0]))) for s in shapes)
    offset = rng.standard_normal(d)
    return SmoothQuadCoupling(weight, ops, offset)


class TestCatalogSurrogates:
    """The catalog surrogates as they appear in the solvers' block model.

    A lone block with ``G_i = 0`` keeps its exact term, an isotropic
    ``G_i = eta I`` adds a proximal weight, and a joint smooth term is
    linearized with its certificate next to the kept prox term.
    """

    def test_proximal_surrogate_axioms(self):
        problem = l1_toy()
        ctx = prepare_context(problem, "jacobi", SolverConfig())
        assert [(G.eta > 0, G.gram_coef) for G in ctx.G0] == [(True, 0.0)] * 2
        assert surrogate_axioms_hold(surrogate_axiom_gaps(problem, "jacobi", seed=40))

    def test_proximal_gradient_surrogate_axioms(self):
        X = np.random.default_rng(42).standard_normal((4, 5))
        problem = build_latent_lrr(X, lam=0.7, formulation="2-block")
        ctx = prepare_context(problem, "pl-admm-ps", SolverConfig())
        assert all(plan.smooth_eta > 0.0 for plan in ctx.plans)
        gaps = surrogate_axiom_gaps(problem, "pl-admm-ps", seed=42)
        assert surrogate_axioms_hold(gaps)

    def test_separable_function_is_its_own_surrogate(self):
        # Each gs phase holds one block with G_i = 0: its model equals the
        # augmented Lagrangian along that block, so every gap vanishes.
        gaps = surrogate_axiom_gaps(l1_toy(), "gs", seed=45)
        assert all(abs(gap) <= 1e-12 * scale for gap, _, scale in gaps)

    def test_key_property_inequality(self):
        # For any subgradient u of the surrogate at x:
        # f(x) + <u, y - x> - f(y) <= 0.5 sum_i (||y_i - k_i||^2_L - ||y_i - x_i||^2_P)
        rng = np.random.default_rng(43)
        shapes = ((3,), (2,))
        f = _coupling(seed=4, shapes=shapes)
        L = f.cert
        for _ in range(100):
            kappa = BlockVector(random_blocks(rng, shapes))
            x = BlockVector(random_blocks(rng, shapes, scale=2.0))
            y = BlockVector(random_blocks(rng, shapes, scale=2.0))
            g_k = f.grad(kappa)
            u = BlockVector(
                [
                    g_k[i] + L[i].mat_vec(x[i] - kappa[i])
                    for i in range(len(shapes))
                ]
            )
            lhs = f.value(x) + u.dot(y - x) - f.value(y)
            rhs = 0.5 * sum(
                _quad(L[i], y[i] - kappa[i]) - _quad(L[i], y[i] - x[i])
                for i in range(len(shapes))
            )
            assert lhs <= rhs + 1e-10

    def test_key_property_proximal_variant(self):
        # Same inequality for f_hat = f + 0.5 ||x - kappa||^2_L with smooth f.
        rng = np.random.default_rng(44)
        shapes = ((3,), (2,))
        f = _coupling(seed=5, shapes=shapes)
        L = tuple(WeightMatrix.scaled_identity(1.7) for _ in shapes)
        for _ in range(100):
            kappa = BlockVector(random_blocks(rng, shapes))
            x = BlockVector(random_blocks(rng, shapes, scale=2.0))
            y = BlockVector(random_blocks(rng, shapes, scale=2.0))
            g_x = f.grad(x)
            u = BlockVector(
                [g_x[i] + L[i].mat_vec(x[i] - kappa[i]) for i in range(2)]
            )
            lhs = f.value(x) + u.dot(y - x) - f.value(y)
            rhs = 0.5 * sum(
                _quad(L[i], y[i] - kappa[i]) - _quad(L[i], y[i] - x[i])
                for i in range(2)
            )
            assert lhs <= rhs + 1e-10


def _one_phase_etas(A):
    """Per-block ``eta'_i`` of ``0.5 ||A x||^2`` with every block in one phase."""
    sm = phase_smoothness(A, range(A.n))
    return tuple(sm[i][0] for i in range(A.n))


class TestQuadCoupling:
    def test_dense_default_etas(self):
        rng = np.random.default_rng(46)
        ops = tuple(DenseMatrixOp(rng.standard_normal((4, m))) for m in (2, 3))
        A = BlockOperatorFamily(ops, (4,))
        assert _one_phase_etas(A) == tuple(2 * op.op_norm_sq for op in ops)

    def test_row_group_aware_etas(self):
        rng = np.random.default_rng(47)
        B1 = rng.standard_normal((2, 3))
        B2 = rng.standard_normal((4, 3))
        rows = [
            ((DenseMatrixOp(B1), None), np.zeros(2)),
            ((DenseMatrixOp(B2), ScaledIdentityOp(1.0, (4,))), np.zeros(4)),
        ]
        A, _ = stack_rows(rows, [(3,), (4,)])
        (b1, _), (b2, eye) = rows[0][0], rows[1][0]
        want0 = 1 * b1.op_norm_sq + 2 * b2.op_norm_sq
        want1 = 2 * eye.op_norm_sq
        assert _one_phase_etas(A) == pytest.approx((want0, want1))

    def test_smoothness_certificate_inequality(self):
        # 0.5 ||A (x - y)||^2 <= 0.5 sum_i eta'_i ||x_i - y_i||^2, exactly.
        rng = np.random.default_rng(48)
        for grouped in (False, True):
            if grouped:
                rows = [
                    ((DenseMatrixOp(rng.standard_normal((2, 3))), None), np.zeros(2)),
                    (
                        (
                            DenseMatrixOp(rng.standard_normal((4, 3))),
                            DenseMatrixOp(rng.standard_normal((4, 4))),
                        ),
                        np.zeros(4),
                    ),
                ]
                A, _ = stack_rows(rows, [(3,), (4,)])
            else:
                ops = tuple(
                    DenseMatrixOp(rng.standard_normal((5, m))) for m in (3, 4)
                )
                A = BlockOperatorFamily(ops, (5,))
            etas = _one_phase_etas(A)
            for _ in range(100):
                x = BlockVector(random_blocks(rng, ((3,), (4,))))
                y = BlockVector(random_blocks(rng, ((3,), (4,))))
                r = A.apply(x - y)
                lhs = 0.5 * float(np.vdot(r, r))
                rhs = 0.5 * sum(
                    eta * float(np.vdot(x[i] - y[i], x[i] - y[i]))
                    for i, eta in enumerate(etas)
                )
                assert lhs <= rhs

    def test_block_outside_groups_rejected(self):
        # A coupled block in no row would get no curvature; the family
        # refuses it when it is built, before any solve.
        ops = (ScaledIdentityOp(1.0, (2,)), ScaledIdentityOp(1.0, (2,)))
        with pytest.raises(ValueError, match="block 1 acts outside every row"):
            BlockOperatorFamily(ops, (2,), rows=(((0, ops[0]),),))


class TestQuadSurrogateParallel:
    """The all-parallel phase model of the quadratic coupling."""

    def _termless_pair(self, seed=49, d=4, dims=(3, 2)):
        rng = np.random.default_rng(seed)
        ops = tuple(DenseMatrixOp(rng.standard_normal((d, m))) for m in dims)
        rows = [(ops, rng.standard_normal(d))]
        return ProblemSpec("pair", rows, tuple((m,) for m in dims), (None,) * len(dims))

    def test_touching_and_majorization(self):
        gaps = surrogate_axiom_gaps(self._termless_pair(), "l-admm-ps", seed=49)
        assert surrogate_axioms_hold(gaps)

    def test_hand_example_two_scalars(self):
        # x1 + x2 = 0 with G_i = 2 - 1, anchored at 0 with lam = 0 and
        # beta = 1: at (1, 1) the coupling 0.5 (x1 + x2)^2 and the sum of the
        # block models both equal 2.
        ops = (ScaledIdentityOp(1.0, (1,)), ScaledIdentityOp(1.0, (1,)))
        problem = ProblemSpec("pair", [(ops, np.zeros(1))], ((1,), (1,)), (None, None))
        G = [WeightMatrix.identity_minus_gram(2.0, op) for op in ops]
        ctx = prepare_context(problem, "jacobi", SolverConfig(weights=G))
        y = BlockVector([np.zeros(1), np.zeros(1)])
        c = [np.zeros(1), np.zeros(1)]
        s_full = problem.family.apply(y) - problem.b
        model = sum(
            subproblem_value(
                ctx.plans[i],
                *assemble_block(ctx, i, y, c, s_full, 1.0, G[i].eta, None),
                np.ones(1),
            )
            for i in range(2)
        )
        assert model == pytest.approx(2.0, abs=1e-12)

    def test_linearized_value_matches(self):
        # With G_i = eta I - A_i^T A_i the Gram cancels: each block model is
        # beta <A_i^T s, d> + beta eta / 2 ||d||^2 in d = x_i - y_i, with
        # s = A y - b + lam / beta.
        problem = self._termless_pair(seed=50)
        ctx = prepare_context(problem, "l-admm-ps", SolverConfig())
        rng = np.random.default_rng(50)
        y = BlockVector(random_blocks(rng, problem.block_shapes))
        lam, beta = rng.standard_normal(4), 0.8
        s_full = problem.family.apply(y) - problem.b + lam / beta
        c = [op.apply(blk) for op, blk in zip(problem.family.operators, y.blocks)]
        for i, op in enumerate(problem.family.operators):
            q = assemble_block(ctx, i, y, c, s_full, beta, ctx.G0[i].eta, None)
            assert q[1] == 0.0
            for _ in range(20):
                d = rng.standard_normal(y[i].shape)
                got = subproblem_value(ctx.plans[i], *q, y[i] + d)
                got -= subproblem_value(ctx.plans[i], *q, y[i])
                want = beta * float(d @ op_dense(op).T @ s_full)
                want += 0.5 * beta * ctx.G0[i].eta * float(d @ d)
                assert got == pytest.approx(want, abs=1e-10)


class TestBlockModelAxioms:
    def test_fails_when_phase_weights_stop_majorizing(self):
        # The solver's level is 1.02 c_r ||A_i||^2, c_r = 1.35 the row's
        # dense constant: at 0.9 of it each G_i = eta I - A_i^T A_i is still
        # PSD, but the all-parallel phase no longer majorizes its coupling.
        problem = quad_problem(3)
        ctx = prepare_context(problem, "jacobi", SolverConfig())
        weights = []
        for G, op in zip(ctx.G0, problem.family.operators):
            low = WeightMatrix.identity_minus_gram(0.9 * G.eta, op)
            assert np.linalg.eigvalsh(low.to_dense(op.in_shape))[0] >= 0.0
            weights.append(low)
        gaps = surrogate_axiom_gaps(
            problem, "jacobi", config=SolverConfig(weights=weights), samples=10
        )
        assert not surrogate_axioms_hold(gaps)
        # The worst-direction probe leads each anchor's 1 + 10 probes.
        assert not surrogate_axioms_hold(gaps[::11])

    def test_fails_when_folded_quadratic_counts_twice(self):
        def double_counted(plan, q_iso, q_gram, lin, v):
            extra = 0.5 * plan.fold_iso * float(np.vdot(v, v))
            return subproblem_value(plan, q_iso, q_gram, lin, v) + extra

        gaps = surrogate_axiom_gaps(quad_problem(3), "jacobi", value=double_counted)
        assert not surrogate_axioms_hold(gaps)

    def test_non_finite_gap_fails(self):
        assert not surrogate_axioms_hold([(math.nan, 1.0, 1.0)])
        assert not surrogate_axioms_hold([(math.inf, math.inf, 1.0)])
        assert surrogate_axioms_hold([(0.0, 0.0, 1.0)])


class TestSmoothQuadCoupling:
    def test_weight_must_be_positive_and_finite(self):
        for weight in (math.nan, math.inf, 0.0):
            with pytest.raises(ValueError, match="coupling weight must be positive"):
                _coupling(weight=weight)

    def test_value_and_residual(self):
        f = _coupling(seed=7)
        rng = np.random.default_rng(58)
        x = BlockVector(random_blocks(rng, ((3,), (2,))))
        r = f.residual(x)
        want = -f.offset.copy()
        for i, op in enumerate(f.ops):
            want += op.apply(x[i])
        np.testing.assert_allclose(r, want, atol=1e-12)
        assert f.value(x) == pytest.approx(
            0.5 * f.weight * float(r @ r), abs=1e-12
        )

    def test_grad_finite_difference(self):
        f = _coupling(seed=8)
        rng = np.random.default_rng(59)
        x = BlockVector(random_blocks(rng, ((3,), (2,))))
        g = f.grad(x)
        eps = 1e-6
        for i in range(2):
            for j in range(x[i].size):
                bump = np.zeros_like(x[i])
                bump.flat[j] = eps
                plus = f.value(x.replace(i, x[i] + bump))
                minus = f.value(x.replace(i, x[i] - bump))
                assert g[i].flat[j] == pytest.approx(
                    (plus - minus) / (2 * eps), rel=1e-5, abs=1e-6
                )

    def test_cert_values_and_support(self):
        rng = np.random.default_rng(60)
        op = DenseMatrixOp(rng.standard_normal((3, 2)))
        f = SmoothQuadCoupling(2.0, (op, None), np.zeros(3))
        assert f.support == (0,)
        assert f.cert[0].eta == pytest.approx(2.0 * 1 * op.op_norm_sq)
        assert f.cert[1] == WeightMatrix.zero()

    def test_cert_majorizes_quadratic_model(self):
        f = _coupling(seed=9)
        rng = np.random.default_rng(61)
        for _ in range(100):
            x = BlockVector(random_blocks(rng, ((3,), (2,)), scale=2.0))
            y = BlockVector(random_blocks(rng, ((3,), (2,)), scale=2.0))
            model = (
                f.value(y)
                + f.grad(y).dot(x - y)
                + 0.5
                * sum(_quad(f.cert[i], x[i] - y[i]) for i in range(2))
            )
            assert f.value(x) <= model + 1e-10

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            SmoothQuadCoupling(0.0, (ScaledIdentityOp(1.0, (1,)),), np.zeros(1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_offset_must_be_finite(self, bad):
        ops = (ScaledIdentityOp(1.0, (2,)),)
        with pytest.raises(ValueError, match="offset has non-finite entries"):
            SmoothQuadCoupling(1.0, ops, np.array([0.0, bad]))

    def test_operator_must_map_to_the_offset(self):
        ops = (ScaledIdentityOp(1.0, (2,)), None, DenseMatrixOp(np.ones((3, 2))))
        with pytest.raises(DimensionError, match=r"operator 2 maps to shape \(3,\)"):
            SmoothQuadCoupling(1.0, ops, np.zeros(2))
