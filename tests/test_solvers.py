"""Solver family: configs, weights, block solves, schedules, trajectories."""

import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest

from mmadmm.blockspace import (
    BlockOperatorFamily,
    BlockVector,
    DenseMatrixOp,
    LeftMultiplyOp,
    MaskProjectionOp,
    RightMultiplyOp,
    ScaledIdentityOp,
    WeightMatrix,
    ZeroOp,
    stack_rows,
)
from mmadmm.partition import Partition, case1_partition
from mmadmm.problems import ProblemSpec
from mmadmm.prox import ProxFunction
from mmadmm.solvers import (
    MARGIN_STRICT,
    SOLVER_KINDS,
    BacktrackingConsistencyError,
    DivergenceError,
    SolverConfig,
    SolverState,
    UnsupportedSubproblemError,
    _bt_phase1_ok,
    _bt_phase2_ok,
    _plan_block,
    _preset_weights,
    _solve_block,
    default_weights,
    dual_update,
    ergodic_average,
    madmm_bt_step,
    phase_smoothness,
    prepare_context,
    run,
    subproblem_value,
)
from mmadmm.surrogates import SmoothQuadCoupling

from helpers import l1_toy, quad_problem


def _dense_problem(seed, d, dims, term_kind="l1", weight=1.0):
    rng = np.random.default_rng(seed)
    ops = tuple(DenseMatrixOp(rng.standard_normal((d, m))) for m in dims)
    b = rng.standard_normal(d)
    terms = tuple(ProxFunction(term_kind, weight) for _ in dims)
    return ProblemSpec(
        "dense", [(ops, b)], tuple((m,) for m in dims), terms
    )


class TestSolverConfig:
    def test_defaults(self):
        c = SolverConfig()
        assert c.beta0 == 1e-4
        assert c.rho == 1.1
        assert c.schedule == "geometric"
        assert c.partition == "auto"
        assert c.weights is None

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"beta0": 0.0}, "beta0 must be positive"),
            ({"beta0": 2.0, "beta_max": 1.0}, "beta_max must be at least beta0"),
            ({"rho": 0.9}, "rho must be at least 1"),
            ({"max_iter": -1}, "max_iter must be nonnegative"),
            ({"tau": 0.0}, "tau must be positive"),
            ({"mu": 1.0}, "mu must exceed 1"),
            ({"eta_scale": 0.0}, "eta_scale must be positive"),
            ({"schedule": "linear"}, "unknown schedule"),
            ({"beta0": math.nan}, "beta0 must be finite"),
            ({"rho": math.nan}, "rho must be finite"),
            ({"beta_max": math.nan}, "beta_max must be finite"),
            ({"beta_max": math.inf}, "beta_max must be finite"),
            ({"max_iter": math.inf}, "max_iter must be finite"),
            ({"eps_step": math.nan}, "eps_step must be finite"),
            ({"mu": math.nan}, "mu must be finite"),
            ({"eta_scale": math.nan}, "eta_scale must be finite"),
            ({"tau": math.inf}, "tau must be finite"),
            ({"eps_primal": -1.0}, "eps_primal must be nonnegative"),
            ({"eps_step": -1e-3}, "eps_step must be nonnegative"),
        ],
    )
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SolverConfig(**kwargs)


class TestDualAndErgodic:
    def test_dual_update_hand_example(self):
        lam = dual_update(np.array([2.0]), 0.5, np.array([-4.0]))
        assert lam[0] == 0.0

    def test_ergodic_hand_example(self):
        xs = [BlockVector([np.array([0.0])]), BlockVector([np.array([3.0])])]
        avg = ergodic_average(xs, [1.0, 2.0])
        assert avg[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_ergodic_constant_betas_is_mean(self):
        rng = np.random.default_rng(80)
        xs = [BlockVector([rng.standard_normal(3)]) for _ in range(2)]
        avg = ergodic_average(xs, [7.0, 7.0])
        np.testing.assert_allclose(
            avg[0], 0.5 * (xs[0][0] + xs[1][0]), atol=1e-15
        )

    def test_ergodic_validation(self):
        xs = [BlockVector([np.zeros(2)])]
        with pytest.raises(ValueError, match="one penalty value per iterate"):
            ergodic_average(xs, [1.0, 2.0])
        with pytest.raises(ValueError, match="one penalty value per iterate"):
            ergodic_average([], [])


class TestPhaseSmoothness:
    def test_dense_fallback_counts_live_blocks(self):
        rng = np.random.default_rng(81)
        ops = (
            DenseMatrixOp(rng.standard_normal((4, 2))),
            DenseMatrixOp(rng.standard_normal((4, 3))),
            ZeroOp((2,), (4,)),
        )
        A = BlockOperatorFamily(ops, (4,))
        sm = phase_smoothness(A, (0, 1, 2))
        assert sm[0] == (2 * ops[0].op_norm_sq, False)
        assert sm[1] == (2 * ops[1].op_norm_sq, False)
        assert sm[2] == (0.0, False)

    def test_single_live_block_is_alone(self):
        rng = np.random.default_rng(82)
        ops = (
            DenseMatrixOp(rng.standard_normal((4, 2))),
            DenseMatrixOp(rng.standard_normal((4, 3))),
        )
        A = BlockOperatorFamily(ops, (4,))
        sm = phase_smoothness(A, (1,))
        assert sm[1] == (ops[1].op_norm_sq, True)

    def test_row_groups_count_per_phase(self):
        rng = np.random.default_rng(83)
        rows = [
            (
                (
                    DenseMatrixOp(rng.standard_normal((3, 2))),
                    DenseMatrixOp(rng.standard_normal((3, 4))),
                ),
                np.zeros(3),
            ),
            ((DenseMatrixOp(rng.standard_normal((5, 2))), None), np.zeros(5)),
        ]
        A, _ = stack_rows(rows, [(2,), (4,)])
        g1, g2 = A.row_groups
        both = phase_smoothness(A, (0, 1))
        assert both[0][0] == pytest.approx(
            2 * g1.norm_sq_of(0) + 1 * g2.norm_sq_of(0)
        )
        assert both[0][1] is False
        assert both[1][0] == pytest.approx(2 * g1.norm_sq_of(1))
        assert both[1][1] is False
        solo = phase_smoothness(A, (0,))
        assert solo[0][0] == pytest.approx(g1.norm_sq_of(0) + g2.norm_sq_of(0))
        assert solo[0][1] is True


class TestDefaultWeights:
    def test_toy_blocks_solve_exactly(self):
        G, info = default_weights(l1_toy(), "gs")
        assert [g.form for g in G] == ["zero", "zero"]
        assert info == ["exact", "exact"]

    def test_scalar_gram_keeps_iso_weight(self):
        problem = l1_toy()
        G, info = default_weights(problem, "jacobi")
        for i, op in enumerate(problem.family.operators):
            want = MARGIN_STRICT * max(2 * op.op_norm_sq - 1.0, 0.0)
            assert info[i] == "iso"
            assert G[i].form == "scaled-identity"
            assert G[i].eta == want

    def test_dense_blocks_linearize(self):
        problem = _dense_problem(84, d=5, dims=(2, 3))
        part = Partition((0,), (1,))
        G, info = default_weights(problem, "madmm", part)
        ops = problem.family.operators
        assert info == ["linearized", "linearized"]
        assert G[0].form == "scaled-identity-minus-gram"
        assert G[0].eta == 1.0 * ops[0].op_norm_sq
        assert G[1].eta == MARGIN_STRICT * ops[1].op_norm_sq

    def test_lone_quadratic_block_stays_exact(self):
        problem = quad_problem(seed=1)
        G, info = default_weights(problem, "madmm", Partition((0,), (1,)))
        assert info == ["exact", "exact"]
        assert all(g.form == "zero" for g in G)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown solver kind"):
            default_weights(l1_toy(), "bogus")

    def test_mixed_kind_needs_partition(self):
        with pytest.raises(ValueError, match="needs a partition"):
            default_weights(l1_toy(), "madmm", None)

    def test_preset_weights(self):
        problem = _dense_problem(85, d=6, dims=(2, 3, 2))
        ops = problem.family.operators
        G = _preset_weights(problem, "l-admm-ps")
        for i, g in enumerate(G):
            assert g.form == "scaled-identity-minus-gram"
            assert g.eta == MARGIN_STRICT * (3 * ops[i].op_norm_sq)
        G = _preset_weights(problem, "gl-admm-ps")
        for i, g in enumerate(G):
            assert g.form == "scaled-gram"
            assert g.gram_coef == 2.0
            assert g.eta == pytest.approx(0.02 * ops[i].op_norm_sq)


def _mini(op, term):
    fam = BlockOperatorFamily((op,), op.out_shape)
    return SimpleNamespace(family=fam, terms=(term,))


def _model_value(op, term, q_iso, q_gram, lin, v):
    val = 0.5 * q_iso * float(np.vdot(v, v)) + float(np.vdot(lin, v))
    if q_gram != 0.0:
        val += 0.5 * q_gram * float(np.vdot(v, op.gram_apply(v)))
    if term is not None:
        val += term.value(v)
    return val


class TestBlockSolve:
    def _check_minimum(self, op, term, plan, q_iso, q_gram, lin, v, rng):
        # A folded quadratic term is part of q_iso, as assemble_block builds
        # it; the reference model evaluates that term on its own instead.
        iso = q_iso - plan.fold_iso
        best = _model_value(op, term, iso, q_gram, lin, v)
        assert best == pytest.approx(
            subproblem_value(plan, q_iso, q_gram, lin, v), abs=1e-12
        )
        for scale in (1e-2, 1e-5):
            for _ in range(25):
                probe = v + scale * rng.standard_normal(v.shape)
                assert best <= _model_value(op, term, iso, q_gram, lin, probe) + 1e-10

    def test_prox_path_scalar_gram(self):
        rng = np.random.default_rng(86)
        op = ScaledIdentityOp(1.5, (4,))
        term = ProxFunction("l1")
        plan = _plan_block(_mini(op, term), 0, WeightMatrix.zero(), 0.0)
        assert plan.path == "prox"
        lin = rng.standard_normal(4)
        v = _solve_block(plan, 0.7, 1.3, lin)
        self._check_minimum(op, term, plan, 0.7, 1.3, lin, v, rng)

    def test_diag_path_masked_gram(self):
        rng = np.random.default_rng(87)
        op = MaskProjectionOp(rng.random((3, 4)) < 0.6)
        term = ProxFunction("l1-nonneg", 0.8)
        plan = _plan_block(_mini(op, term), 0, WeightMatrix.scaled_identity(0.4), 0.0)
        assert plan.path == "diag"
        lin = rng.standard_normal((3, 4))
        v = _solve_block(plan, 0.9, 1.1, lin)
        self._check_minimum(op, term, plan, 0.9, 1.1, lin, v, rng)

    def test_eig_path_dense_gram(self):
        rng = np.random.default_rng(88)
        op = DenseMatrixOp(rng.standard_normal((5, 3)))
        plan = _plan_block(_mini(op, None), 0, WeightMatrix.scaled_identity(0.3), 0.0)
        assert plan.path == "eig"
        lin = rng.standard_normal(3)
        v = _solve_block(plan, 0.7, 1.3, lin)
        system = 0.7 * v + 1.3 * op.gram_apply(v) + lin
        assert np.linalg.norm(system) <= 1e-10
        self._check_minimum(op, None, plan, 0.7, 1.3, lin, v, rng)

    def test_eig_path_folded_quadratic_term(self):
        rng = np.random.default_rng(93)
        op = DenseMatrixOp(rng.standard_normal((5, 3)))
        term = ProxFunction("sq-frobenius", 2.0)
        plan = _plan_block(_mini(op, term), 0, WeightMatrix.scaled_identity(0.3), 0.0)
        assert plan.path == "eig" and plan.fold_iso == 2.0
        lin = rng.standard_normal(3)
        q_iso = plan.fold_iso + 0.7
        v = _solve_block(plan, q_iso, 1.3, lin)
        self._check_minimum(op, term, plan, q_iso, 1.3, lin, v, rng)

    def test_eig_path_left_gram(self):
        rng = np.random.default_rng(89)
        op = LeftMultiplyOp(rng.standard_normal((5, 3)), (3, 2))
        plan = _plan_block(_mini(op, None), 0, WeightMatrix.scaled_identity(0.2), 0.0)
        assert plan.orient == "left"
        lin = rng.standard_normal((3, 2))
        v = _solve_block(plan, 0.5, 2.0, lin)
        system = 0.5 * v + 2.0 * op.gram_apply(v) + lin
        assert np.linalg.norm(system) <= 1e-10

    def test_eig_path_right_gram(self):
        rng = np.random.default_rng(90)
        op = RightMultiplyOp(rng.standard_normal((4, 6)), (2, 4))
        plan = _plan_block(_mini(op, None), 0, WeightMatrix.scaled_identity(0.2), 0.0)
        assert plan.orient == "right"
        lin = rng.standard_normal((2, 4))
        v = _solve_block(plan, 0.5, 2.0, lin)
        system = 0.5 * v + 2.0 * op.gram_apply(v) + lin
        assert np.linalg.norm(system) <= 1e-10

    def test_foreign_gram_rejected(self):
        op = DenseMatrixOp(np.eye(3))
        other = DenseMatrixOp(2 * np.eye(3))
        G = WeightMatrix.identity_minus_gram(5.0, other)
        with pytest.raises(UnsupportedSubproblemError, match="own operator"):
            _plan_block(_mini(op, None), 0, G, 0.0)

    def test_nonentrywise_term_with_diag_gram_rejected(self):
        rng = np.random.default_rng(91)
        op = MaskProjectionOp(rng.random((3, 4)) < 0.5)
        with pytest.raises(UnsupportedSubproblemError, match="entrywise"):
            _plan_block(_mini(op, ProxFunction("l21")), 0, WeightMatrix.scaled_identity(1.0), 0.0)

    def test_prox_term_with_full_gram_rejected(self):
        rng = np.random.default_rng(92)
        op = LeftMultiplyOp(rng.standard_normal((4, 3)), (3, 2))
        with pytest.raises(UnsupportedSubproblemError, match="cannot be combined"):
            _plan_block(_mini(op, ProxFunction("nuclear")), 0, WeightMatrix.scaled_identity(1.0), 0.0)

    def test_zero_curvature_rejected(self):
        op = ScaledIdentityOp(1.0, (2,))
        plan = _plan_block(_mini(op, ProxFunction("l1")), 0, WeightMatrix.zero(), 0.0)
        with pytest.raises(UnsupportedSubproblemError, match="curvature"):
            _solve_block(plan, 0.0, 0.0, np.ones(2))


class TestToyTrajectory:
    def test_sequential_solve_matches_hand_iteration(self):
        problem = l1_toy()
        config = SolverConfig(beta0=1.0, rho=1.0)
        result = run(problem, "gs", config, keep_iterates=True)
        assert result.stop_reason == "converged"
        assert result.state.k == 3
        assert len(result.trace) == 3

        np.testing.assert_array_equal(result.iterates[0][0], [1.0])
        np.testing.assert_array_equal(result.iterates[0][1], [0.0])
        np.testing.assert_array_equal(result.iterates[1][0], [2.0])
        np.testing.assert_array_equal(result.iterates[1][1], [0.0])
        np.testing.assert_array_equal(result.iterates[2][0], [2.0])
        np.testing.assert_array_equal(result.iterates[2][1], [0.0])
        np.testing.assert_array_equal(result.state.lam, [-1.0])
        assert result.betas == [1.0, 1.0, 1.0]

        t1, t2, t3 = result.trace
        assert (t1.k, t2.k, t3.k) == (1, 2, 3)
        assert t1.objective == 1.0 and t1.residual_norm == 1.0
        assert t1.rel_residual == 0.5 and t1.step_norm == 1.0
        assert t2.objective == 2.0 and t2.residual_norm == 0.0
        assert t2.step_norm == 1.0
        assert t3.objective == 2.0 and t3.step_norm == 0.0
        assert all(t.backtracks == 0 for t in result.trace)
        assert all(t.beta == 1.0 for t in result.trace)

    def test_wall_time_nondecreasing(self):
        result = run(l1_toy(), "gs", SolverConfig(beta0=1.0, rho=1.0))
        times = [t.wall_time_ms for t in result.trace]
        assert times == sorted(times)
        assert all(t >= 0.0 for t in times)

    def test_unregularized_second_block_warns(self, caplog):
        with caplog.at_level(logging.WARNING):
            prepare_context(l1_toy(), "gs", SolverConfig())
        assert "second-block weight is zero" in caplog.text


class TestFirstIterateFormulas:
    def test_parallel_nonneg_shrinkage(self):
        rng = np.random.default_rng(93)
        A = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        op = DenseMatrixOp(A)
        problem = ProblemSpec(
            "one-block", [((op,), b)], ((4,),), (ProxFunction("l1-nonneg"),)
        )
        beta = 0.25
        result = run(
            problem,
            "jacobi",
            SolverConfig(beta0=beta, max_iter=1, rho=1.0),
            keep_iterates=True,
        )
        eta = MARGIN_STRICT * op.op_norm_sq
        want = np.maximum(A.T @ b / eta - 1.0 / (beta * eta), 0.0)
        np.testing.assert_allclose(result.iterates[0][0], want, atol=1e-12)

    def test_linearized_smooth_term_enters_gradient(self):
        ops = (ScaledIdentityOp(1.0, (1,)), ScaledIdentityOp(1.0, (1,)))
        smooth = SmoothQuadCoupling(
            2.0, (ScaledIdentityOp(1.0, (1,)), None), np.array([3.0])
        )
        problem = ProblemSpec(
            "smooth-toy",
            [(ops, np.array([2.0]))],
            ((1,), (1,)),
            (ProxFunction("l1"), ProxFunction("l1")),
            smooth=smooth,
        )
        result = run(
            problem,
            "jacobi",
            SolverConfig(beta0=1.0, max_iter=1, rho=1.0),
            keep_iterates=True,
        )
        eta = [
            MARGIN_STRICT * max(2 * op.op_norm_sq - 1.0, 0.0) for op in ops
        ]
        eta_sm = smooth.cert[0].eta
        s0 = eta[0] + eta_sm + 1.0
        s1 = eta[1] + 1.0
        assert result.iterates[0][0][0] == pytest.approx(7.0 / s0, rel=1e-12)
        assert result.iterates[0][1][0] == pytest.approx(1.0 / s1, rel=1e-12)

    def test_smooth_coupling_needs_linearizing_solver(self):
        ops = (ScaledIdentityOp(1.0, (2,)), ScaledIdentityOp(1.0, (2,)))
        smooth = SmoothQuadCoupling(
            1.0,
            (ScaledIdentityOp(1.0, (2,)), ScaledIdentityOp(1.0, (2,))),
            np.zeros(2),
        )
        problem = ProblemSpec(
            "smooth",
            [(ops, np.ones(2))],
            ((2,), (2,)),
            (ProxFunction("l1"), ProxFunction("l1")),
            smooth=smooth,
            linearize_smooth=False,
        )
        with pytest.raises(UnsupportedSubproblemError, match="linearizes"):
            prepare_context(problem, "gs", SolverConfig())
        with pytest.raises(UnsupportedSubproblemError, match="linearizes"):
            prepare_context(problem, "l-admm-ps", SolverConfig())
        ctx = prepare_context(problem, "pl-admm-ps", SolverConfig())
        assert ctx.smooth_linearize


class TestDegeneracies:
    def test_two_block_mixed_equals_sequential(self):
        problem = quad_problem(seed=2)
        config = dict(beta0=0.5, rho=1.05, max_iter=40, eps_primal=0.0, eps_step=0.0)
        gs = run(problem, "gs", SolverConfig(**config), keep_iterates=True)
        mixed = run(
            problem,
            "madmm",
            SolverConfig(partition=Partition((0,), (1,)), **config),
            keep_iterates=True,
        )
        assert len(gs.iterates) == len(mixed.iterates) == 40
        for xa, xb in zip(gs.iterates, mixed.iterates):
            for a, b in zip(xa.blocks, xb.blocks):
                assert np.max(np.abs(a - b)) <= 1e-12
        for ta, tb in zip(gs.trace, mixed.trace):
            assert abs(ta.objective - tb.objective) <= 1e-12

    def test_empty_first_side_equals_parallel(self):
        problem = _dense_problem(94, d=5, dims=(2, 3, 2))
        config = dict(beta0=1.0, rho=1.05, max_iter=30, eps_primal=0.0, eps_step=0.0)
        jac = run(problem, "jacobi", SolverConfig(**config), keep_iterates=True)
        mixed = run(
            problem,
            "madmm",
            SolverConfig(partition=Partition((), (0, 1, 2)), **config),
            keep_iterates=True,
        )
        for xa, xb in zip(jac.iterates, mixed.iterates):
            for a, b in zip(xa.blocks, xb.blocks):
                assert np.max(np.abs(a - b)) <= 1e-12


class TestSchedules:
    def test_geometric_progression(self):
        problem = quad_problem(seed=3)
        config = SolverConfig(
            beta0=1e-4, rho=1.1, max_iter=100, eps_primal=0.0, eps_step=0.0
        )
        result = run(problem, "jacobi", config)
        assert result.stop_reason == "budget"
        beta = 1e-4
        for row in result.trace:
            assert row.beta == beta
            beta = min(1.1 * beta, 1e6)
        assert result.state.beta == beta
        assert result.state.beta == pytest.approx(1.3780612, rel=1e-6)

    def test_geometric_cap(self):
        problem = quad_problem(seed=4)
        config = SolverConfig(
            beta0=1e-3,
            rho=3.0,
            beta_max=2e-3,
            max_iter=5,
            eps_primal=0.0,
            eps_step=0.0,
        )
        result = run(problem, "jacobi", config)
        assert [t.beta for t in result.trace] == [
            1e-3,
            2e-3,
            2e-3,
            2e-3,
            2e-3,
        ]

    def test_adaptive_advances_only_on_small_steps(self):
        problem = quad_problem(seed=5)
        config = SolverConfig(
            beta0=1.0,
            rho=1.1,
            schedule="adaptive",
            eps_primal=1e-5,
            eps_step=0.0,
            max_iter=300,
        )
        result = run(problem, "jacobi", config, keep_iterates=True)
        b_scale = max(float(np.linalg.norm(problem.b)), 1.0)
        held = advanced = 0
        prev_x = BlockVector.zeros(problem.block_shapes)
        beta = 1.0
        for x, beta_used in zip(result.iterates, result.betas):
            assert beta_used == beta
            worst = 0.0
            for new, old in zip(x.blocks, prev_x.blocks):
                d = new - old
                worst = max(worst, beta * math.sqrt(float(np.vdot(d, d))))
            if worst / b_scale <= config.eps_primal:
                beta = min(config.rho * beta, config.beta_max)
                advanced += 1
            else:
                held += 1
            prev_x = x
        assert result.state.beta == beta
        assert held > 0 and advanced > 0


class TestRunContract:
    def test_zero_iteration_budget(self):
        result = run(l1_toy(), "gs", SolverConfig(max_iter=0), keep_iterates=True)
        assert result.stop_reason == "budget"
        assert result.trace == []
        assert result.iterates == [] and result.betas == []
        assert result.state.k == 0
        assert all(np.all(blk == 0.0) for blk in result.state.x.blocks)
        assert np.all(result.state.lam == 0.0)

    def test_trace_is_contiguous_and_aligned(self):
        result = run(
            quad_problem(seed=7),
            "jacobi",
            SolverConfig(beta0=0.5, rho=1.2, max_iter=7, eps_primal=0.0, eps_step=0.0),
            keep_iterates=True,
        )
        assert [t.k for t in result.trace] == list(range(1, 8))
        assert len(result.iterates) == len(result.betas) == 7
        assert [t.beta for t in result.trace] == result.betas
        for blk_a, blk_b in zip(result.iterates[-1].blocks, result.state.x.blocks):
            np.testing.assert_array_equal(blk_a, blk_b)

    def test_worker_pool_is_deterministic(self):
        problem = _dense_problem(95, d=6, dims=(2, 3, 2, 4))
        config = dict(beta0=1.0, rho=1.05, max_iter=50, eps_primal=0.0, eps_step=0.0)
        serial = run(problem, "jacobi", SolverConfig(**config))
        pooled = run(problem, "jacobi", SolverConfig(**config), workers=4)
        assert len(serial.trace) == len(pooled.trace) == 50
        for ta, tb in zip(serial.trace, pooled.trace):
            assert ta.objective == tb.objective
            assert ta.residual_norm == tb.residual_norm
            assert ta.step_norm == tb.step_norm
            assert ta.beta == tb.beta
        for a, b in zip(serial.state.x.blocks, pooled.state.x.blocks):
            np.testing.assert_array_equal(a, b)

    def test_divergence_carries_partial_result(self):
        op = ScaledIdentityOp(1.0, (1,))
        problem = ProblemSpec(
            "blowup",
            [((op,), np.array([1.0]))],
            ((1,),),
            (ProxFunction("zero"),),
        )
        config = SolverConfig(
            beta0=1.0,
            rho=1.0,
            max_iter=500,
            eps_primal=0.0,
            eps_step=0.0,
            weights=(WeightMatrix.identity_minus_gram(0.01, op),),
        )
        with pytest.raises(DivergenceError) as err:
            run(problem, "jacobi", config)
        result = err.value.result
        assert result.stop_reason == "diverged"
        assert result.state.k >= 1
        for row in result.trace:
            assert math.isfinite(row.objective)
            assert math.isfinite(row.residual_norm)

    def test_weight_override_validation(self):
        problem = l1_toy()
        with pytest.raises(ValueError, match="one weight per block"):
            prepare_context(
                problem,
                "jacobi",
                SolverConfig(weights=(WeightMatrix.zero(),)),
            )
        with pytest.raises(ValueError, match="manages its own weights"):
            prepare_context(
                problem,
                "madmm-bt",
                SolverConfig(
                    weights=(WeightMatrix.zero(), WeightMatrix.zero())
                ),
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown solver kind"):
            run(l1_toy(), "sgd", SolverConfig())
        assert "gs" in SOLVER_KINDS and "madmm-bt" in SOLVER_KINDS

    def test_sequential_kind_needs_two_blocks(self):
        problem = _dense_problem(96, d=5, dims=(2, 3, 2))
        with pytest.raises(ValueError, match="needs n = 2"):
            prepare_context(problem, "gs", SolverConfig())


class TestPartitionResolution:
    def test_recommended_partition_wins(self):
        problem = _dense_problem(97, d=5, dims=(2, 3, 2))
        problem.recommended_partition = Partition((2,), (0, 1))
        ctx = prepare_context(problem, "madmm", SolverConfig())
        assert ctx.partition is problem.recommended_partition

    def test_auto_falls_back_to_scan(self):
        problem = _dense_problem(98, d=5, dims=(2, 3, 2))
        assert problem.recommended_partition is None
        ctx = prepare_context(problem, "madmm", SolverConfig())
        want = case1_partition(list(problem.family.norms_sq()), problem.family)
        assert ctx.partition.b1 == want.b1
        assert ctx.partition.b2 == want.b2

    def test_explicit_partition_must_cover(self):
        problem = _dense_problem(99, d=5, dims=(2, 3, 2))
        with pytest.raises(ValueError, match="does not cover"):
            prepare_context(
                problem,
                "madmm",
                SolverConfig(partition=Partition((0,), (1,))),
            )

    def test_unrecognized_partition_spec(self):
        with pytest.raises(ValueError, match="unrecognized partition"):
            prepare_context(
                quad_problem(seed=6), "madmm", SolverConfig(partition=5)
            )


class TestBacktracking:
    def _problem(self, seed=100):
        rng = np.random.default_rng(seed)
        dims = (2, 3, 2, 3)
        ops = tuple(DenseMatrixOp(rng.standard_normal((6, m))) for m in dims)
        b = rng.standard_normal(6)
        terms = tuple(ProxFunction("sq-frobenius", 1.0) for _ in dims)
        return ProblemSpec(
            "bt", [(ops, b)], tuple((m,) for m in dims), terms
        )

    def test_initial_weights_seeded_from_eta_scale(self):
        problem = self._problem()
        part = Partition((0, 1), (2, 3))
        config = SolverConfig(partition=part, eta_scale=0.05)
        ctx = prepare_context(problem, "madmm-bt", config)
        for i, op in enumerate(problem.family.operators):
            nj = 2
            assert ctx.etas0[i] == 0.05 * nj * op.op_norm_sq
            assert ctx.G0[i].form == "scaled-identity-minus-gram"
            assert ctx.G0[i].eta == ctx.etas0[i]

    def test_accepted_steps_satisfy_phase_inequalities(self):
        problem = self._problem()
        part = Partition((0, 1), (2, 3))
        config = SolverConfig(
            partition=part, beta0=0.5, rho=1.1, eta_scale=0.01, mu=2.0
        )
        ctx = prepare_context(problem, "madmm-bt", config)
        A = problem.family
        state = SolverState(
            x=BlockVector.zeros(problem.block_shapes),
            lam=np.zeros(A.out_shape),
            beta=config.beta0,
            G=list(ctx.G0),
            etas=list(ctx.etas0),
        )
        total_backtracks = 0
        saw_backtrack = False
        for _ in range(25):
            x_prev = state.x
            etas_before = list(state.etas)
            _, _, backtracks = madmm_bt_step(state, ctx)
            x_new = state.x
            total_backtracks += backtracks
            saw_backtrack = saw_backtrack or backtracks > 0

            lhs_vec = np.zeros(A.out_shape)
            rhs = 0.0
            for i in part.b1:
                d = x_new[i] - x_prev[i]
                lhs_vec += A.operators[i].apply(d)
                rhs += state.etas[i] * float(np.vdot(d, d))
            assert float(np.vdot(lhs_vec, lhs_vec)) <= rhs

            lhs = quad = 0.0
            a_vec = np.zeros(A.out_shape)
            for i in part.b2:
                d = x_new[i] - x_prev[i]
                dsq = float(np.vdot(d, d))
                lhs += dsq
                quad += state.etas[i] * dsq
                a_vec += A.operators[i].apply(d)
            assert config.tau * lhs <= quad - float(np.vdot(a_vec, a_vec))

            powers = set()
            for side in (part.b1, part.b2):
                ratios = {
                    round(math.log(state.etas[i] / etas_before[i], config.mu))
                    for i in side
                }
                assert len(ratios) == 1
                powers.add((side, ratios.pop()))
            assert sum(m for _, m in powers) == backtracks
            for i in range(A.n):
                assert state.etas[i] >= etas_before[i]
        assert saw_backtrack
        assert state.backtrack_count == total_backtracks

    def test_trace_counts_backtracks(self):
        problem = self._problem(seed=101)
        config = SolverConfig(
            partition=Partition((0, 1), (2, 3)),
            beta0=0.5,
            eta_scale=0.01,
            max_iter=20,
            eps_primal=0.0,
            eps_step=0.0,
        )
        result = run(problem, "madmm-bt", config)
        assert sum(t.backtracks for t in result.trace) == result.state.backtrack_count
        assert result.state.backtrack_count > 0

    def test_unreachable_margin_raises(self):
        problem = self._problem(seed=102)
        config = SolverConfig(
            partition=Partition((0,), (1, 2, 3)),
            beta0=1.0,
            tau=1e9,
            max_iter=5,
            eps_primal=0.0,
            eps_step=0.0,
        )
        with pytest.raises(BacktrackingConsistencyError):
            run(problem, "madmm-bt", config)

    def test_acceptance_helpers_exclude_uncoupled_blocks(self):
        op = DenseMatrixOp(np.eye(2))
        zero = ZeroOp((3,), (2,))
        fam = BlockOperatorFamily((op, zero), (2,))
        problem = SimpleNamespace(family=fam)
        ctx = SimpleNamespace(A=fam, config=SimpleNamespace(tau=1.3))
        x_prev = BlockVector([np.zeros(2), np.zeros(3)])
        updates = {0: np.array([0.3, -0.1]), 1: np.array([5.0, 5.0, 5.0])}
        etas = [3.0, 0.0]
        assert _bt_phase1_ok(ctx, (0, 1), x_prev, updates, etas)
        assert _bt_phase2_ok(ctx, (0, 1), x_prev, updates, etas)
