"""Solver family: configs, weights, block solves, schedules, trajectories."""

import dataclasses
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from mmadmm import blockspace, prox, solvers
from mmadmm.blockspace import (
    BlockOperatorFamily,
    BlockVector,
    DenseMatrixOp,
    LeftMultiplyOp,
    MaskProjectionOp,
    RightMultiplyOp,
    ScaledIdentityOp,
    StackedOp,
    WeightMatrix,
    ZeroOp,
    _Layout,
    stack_rows,
)
from mmadmm.partition import Partition, case1_partition
from mmadmm.problems import (
    DataGenSpec,
    ProblemSpec,
    build_latent_lrr,
    build_lrr,
    build_nonneg_matrix_completion,
    build_nonneg_sparse_coding,
    build_nonneg_sparse_coding_noisy,
    make_subspace_data,
)
from mmadmm.prox import ProxFunction
from mmadmm.solvers import (
    MARGIN_STRICT,
    SOLVER_KINDS,
    BacktrackingConsistencyError,
    DivergenceError,
    SolverConfig,
    SolverState,
    UnsupportedSubproblemError,
    _bt_accept,
    _plan_block,
    assemble_block,
    default_weights,
    dual_update,
    ergodic_average,
    phase_smoothness,
    prepare_context,
    run,
    step,
    subproblem_value,
)
from mmadmm.surrogates import SmoothQuadCoupling

from helpers import (
    l1_toy,
    quad_problem,
    random_blocks,
    reference_assembly,
    reference_run_phase,
    reference_run_wide_phase,
    reference_runs,
    reference_solve_block,
    run_observed,
    surrogate_axiom_gaps,
    surrogate_axioms_hold,
)

ROOT = Path(__file__).resolve().parent.parent


def _blowup():
    """A one-block run whose weight is too small: its iterates diverge."""
    op = ScaledIdentityOp(1.0, (1,))
    problem = ProblemSpec(
        "blowup", [((op,), np.array([1.0]))], ((1,),), (ProxFunction("zero"),)
    )
    config = SolverConfig(
        beta0=1.0,
        rho=1.0,
        max_iter=500,
        eps_primal=0.0,
        eps_step=0.0,
        weights=(WeightMatrix.identity_minus_gram(0.01, op),),
    )
    return problem, config


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

    def test_int_field_takes_integral_values_only(self):
        with pytest.raises(ValueError, match="max_iter must be an integer, got 2.5"):
            SolverConfig(max_iter=2.5)
        c = SolverConfig(max_iter=10.0)
        assert c.max_iter == 10 and type(c.max_iter) is int

    def test_weights_must_be_weight_matrices(self):
        # A bare float used to fail much later, inside prepare_context.
        G = WeightMatrix.scaled_identity(1.0)
        for weights, message in (
            ([1.0], r"weights\[0\] must be a WeightMatrix, got float"),
            ((G, None), r"weights\[1\] must be a WeightMatrix, got NoneType"),
        ):
            with pytest.raises(TypeError, match=message):
                SolverConfig(weights=weights)
        assert SolverConfig(weights=[G]).weights == (G,)

    @pytest.mark.parametrize(
        "name",
        [
            f.name
            for f in dataclasses.fields(SolverConfig)
            if isinstance(f.default, (int, float))
        ],
    )
    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_is_not_a_number(self, name, flag):
        with pytest.raises(ValueError, match=f"^{name} must be a number, got {flag}$"):
            SolverConfig(**{name: flag})

    def test_int_field_keeps_large_integers_exact(self):
        big = 2**53 + 1
        assert SolverConfig(max_iter=big).max_iter == big
        c = SolverConfig(max_iter=np.int64(big))
        assert c.max_iter == big and type(c.max_iter) is int
        for bad, message in (
            (math.nan, "must be finite"),
            (math.inf, "must be finite"),
            (2.5, "must be an integer"),
        ):
            with pytest.raises(ValueError, match=f"max_iter {message}"):
                SolverConfig(max_iter=bad)


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

    @pytest.mark.parametrize(
        "betas, bad",
        [([1.0, -2.0], 1), ([math.inf], 0), ([0.0], 0), ([1.0, math.nan], 1)],
    )
    def test_ergodic_rejects_a_bad_penalty(self, betas, bad):
        # Weights from [1, -2] would be 2 and -1, not a convex average.
        xs = [BlockVector([np.ones(2)]), BlockVector([np.zeros(2)])][: len(betas)]
        with pytest.raises(
            ValueError, match=rf"betas\[{bad}\] must be finite and positive"
        ):
            ergodic_average(xs, betas)


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
        assert sm[2] == (0.0, True)

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
        a0, a1, c0 = (
            DenseMatrixOp(rng.standard_normal(shape))
            for shape in ((3, 2), (3, 4), (5, 2))
        )
        rows = [((a0, a1), np.zeros(3)), ((c0, None), np.zeros(5))]
        A, _ = stack_rows(rows, [(2,), (4,)])
        both = phase_smoothness(A, (0, 1))
        assert both[0][0] == pytest.approx(2 * a0.op_norm_sq + 1 * c0.op_norm_sq)
        assert both[0][1] is False
        assert both[1][0] == pytest.approx(2 * a1.op_norm_sq)
        assert both[1][1] is False
        solo = phase_smoothness(A, (0,))
        assert solo[0][0] == pytest.approx(a0.op_norm_sq + c0.op_norm_sq)
        assert solo[0][1] is True

    @staticmethod
    def _reference(A, blocks):
        """``phase_smoothness`` read from the operators themselves: each row
        of a stacked family is a column of ``StackedOp.pieces``, and a
        one-row family acts through its operators other than zeros."""
        ops = A.operators
        if isinstance(ops[0], StackedOp):
            pieces = [[piece[2] for piece in op.pieces] for op in ops]
            rows = [list(enumerate(row)) for row in zip(*pieces)]
        else:
            rows = [[(i, op) for i, op in enumerate(ops) if not isinstance(op, ZeroOp)]]
        members = set(blocks)
        etas = {i: 0.0 for i in members}
        alone = {i: True for i in members}
        for row in rows:
            act = [(i, op) for i, op in row if op is not None and i in members]
            for i, op in act:
                etas[i] += len(act) * op.op_norm_sq
                alone[i] = alone[i] and len(act) == 1
        return {i: (etas[i], alone[i]) for i in members}

    def test_every_builder_matches_its_pieces_bitwise(self):
        X = make_subspace_data(0, d=6, rank=2, n_subspaces=2, per_subspace=4)
        problems = (
            build_nonneg_sparse_coding(DataGenSpec(0, d=6, n=5)),
            build_nonneg_sparse_coding_noisy(
                DataGenSpec(0, d=6, n=4, noise_sigma=0.1)
            ),
            build_latent_lrr(X, formulation="2-block"),
            build_latent_lrr(X, formulation="3-block"),
            build_lrr(X, X),
            build_nonneg_matrix_completion(DataGenSpec(0, d=5, n=4, rank=2)),
        )
        for problem in problems:
            A = problem.family
            phases = [tuple(range(A.n))] + [(i,) for i in range(A.n)]
            part = problem.recommended_partition or case1_partition(
                list(A.norms_sq()), A
            )
            phases += [part.b1, part.b2]
            for blocks in phases:
                got = phase_smoothness(A, blocks)
                want = self._reference(A, blocks)
                assert got == want, (problem.name, blocks)
                # Bitwise: equal floats, not merely close ones.
                assert all(
                    got[i][0].hex() == want[i][0].hex() for i in blocks
                ), problem.name

    def test_bare_family_reads_as_one_stacked_row(self):
        # A family without row groups gives, bit for bit, what the same
        # operators give through a one-row stack_rows.
        rng = np.random.default_rng(84)
        ops = (
            DenseMatrixOp(rng.standard_normal((4, 2))),
            ZeroOp((3,), (4,)),
            DenseMatrixOp(rng.standard_normal((4, 3))),
            ScaledIdentityOp(-1.0, (4,)),
        )
        bare = BlockOperatorFamily(ops, (4,))
        row = tuple(None if isinstance(op, ZeroOp) else op for op in ops)
        grouped, _ = stack_rows([(row, np.zeros(4))], [op.in_shape for op in ops])
        assert len(bare.rows) == len(grouped.rows) == 1
        for blocks in ((0, 1, 2, 3), (0, 2), (3,), (1, 2)):
            want = phase_smoothness(grouped, blocks)
            got = phase_smoothness(bare, blocks)
            for i in blocks:
                if ops[i].op_norm_sq > 0.0:
                    assert got[i] == want[i]

    @pytest.mark.parametrize("bad", [4, 9, -1, True, 1.0])
    def test_block_outside_the_family_rejected(self, bad):
        # An unknown block used to count as uncoupled: {9: (0.0, True)}.
        A = BlockOperatorFamily((ScaledIdentityOp(1.0, (2,)),) * 4, (2,))
        message = re.escape(f"the family has no block {bad!r}")
        for dense_rows in (False, True):
            with pytest.raises(ValueError, match=message):
                phase_smoothness(A, (0, bad), dense_rows)


def _nnsc_100(seed):
    """The benchmark's nnsc instance: d=50, n=100, blocks of 10 to 1,000."""
    return build_nonneg_sparse_coding(DataGenSpec(seed, d=50, n=100))


def _k_r_smoothness(problem, partition):
    """Each phase's :func:`phase_smoothness` at the block counts ``k_r``."""
    A = problem.family
    return {b: phase_smoothness(A, b) for b in (partition.b1, partition.b2)}


class TestDenseRowConstants:
    """jacobi and madmm weigh a dense row's blocks by ``c_r ||A_i||^2``."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nnsc_phase_constants_are_the_stacked_norms(self, seed):
        problem = _nnsc_100(seed)
        A = problem.family
        ops = A.operators
        madmm = prepare_context(problem, "madmm", SolverConfig())
        jacobi = prepare_context(problem, "jacobi", SolverConfig())
        phases = [
            (madmm, madmm.partition.b1, 1.0),
            (madmm, madmm.partition.b2, MARGIN_STRICT),
            (jacobi, jacobi.partition.b2, MARGIN_STRICT),
        ]
        for ctx, blocks, margin in phases:
            certs = [ops[i].op_norm_sq for i in blocks]
            stack = np.hstack(
                [ops[i].matrix / math.sqrt(c) for i, c in zip(blocks, certs)]
            )
            _, s, vt = scipy.linalg.svd(
                stack, full_matrices=False, lapack_driver="gesvd"
            )
            top = float(s[0]) ** 2
            c = blockspace.dense_row_constant([ops[i] for i in blocks])
            assert top <= c <= top * (1.0 + 1e-10)
            assert c <= len(blocks)
            sm = ctx.smoothness[blocks]
            assert sm == phase_smoothness(A, blocks, dense_rows=True)
            for i, cert in zip(blocks, certs):
                assert sm[i] == (c * cert, False)
                assert ctx.G0[i].eta == margin * sm[i][0]
                assert ctx.levels[i] == "linearized"
            # Along the stack's top right singular vector, scaled back to
            # the blocks, the majorant is tight: it holds at c_r and fails
            # at 0.99 c_r.
            parts = np.split(vt[0], np.cumsum([ops[i].in_shape[0] for i in blocks]))
            d = [v / math.sqrt(cert) for v, cert in zip(parts, certs)]
            image = sum(ops[i].apply(di) for i, di in zip(blocks, d))
            lhs = float(image @ image)
            rhs = sum(sm[i][0] * float(di @ di) for i, di in zip(blocks, d))
            assert lhs <= rhs
            assert lhs > 0.99 * rhs

    def test_block_counts_stay_where_the_row_is_not_all_dense(self):
        # l-admm-ps, pl-admm-ps and madmm-bt keep the k_r level on nnsc, and
        # every kind keeps it on latlrr3 and on one-block phases: their
        # weights are the k_r formula's, bit for bit.
        nnsc = build_nonneg_sparse_coding(DataGenSpec(0, d=10, n=6, sparsity=0.2))
        cases = [
            (nnsc, ("madmm-bt", "l-admm-ps", "pl-admm-ps")),
            (_latlrr3(), ("jacobi", "madmm", "madmm-bt", "l-admm-ps", "pl-admm-ps")),
        ]
        config = SolverConfig(eta_scale=0.03)
        for problem, kinds in cases:
            for kind in kinds:
                ctx = prepare_context(problem, kind, config)
                part = ctx.partition
                G, levels = default_weights(
                    problem, kind, part, config, _k_r_smoothness(problem, part)
                )
                got = [(g.eta.hex(), g.gram_coef, g.op) for g in ctx.G0]
                assert got == [(g.eta.hex(), g.gram_coef, g.op) for g in G], kind
                assert ctx.levels == levels
        A = nnsc.family
        for i in range(A.n):
            assert phase_smoothness(A, (i,), True) == phase_smoothness(A, (i,))
        # Where two dense pieces share a row, jacobi's level is lower.
        ctx = prepare_context(nnsc, "jacobi", config)
        G, _ = default_weights(
            nnsc, "jacobi", ctx.partition, config, _k_r_smoothness(nnsc, ctx.partition)
        )
        assert all(a.eta < b.eta for a, b in zip(ctx.G0, G))

    @pytest.mark.parametrize("kind", ["jacobi", "madmm"])
    def test_block_models_majorize_at_the_row_constant_only(self, kind):
        # The block models majorize the augmented Lagrangian with the new
        # weights, and stop doing so at levels 0.99 c_r ||A_i||^2.
        problem = build_nonneg_sparse_coding(
            DataGenSpec(seed=4, d=5, n=4, block_dims=(3, 2, 4, 3))
        )
        assert surrogate_axioms_hold(surrogate_axiom_gaps(problem, kind))
        ctx = prepare_context(problem, kind, SolverConfig())
        low = [None] * problem.family.n
        for sm in ctx.smoothness.values():
            for i, (eta_p, _) in sm.items():
                op = problem.family.operators[i]
                low[i] = WeightMatrix.identity_minus_gram(0.99 * eta_p, op)
        config = SolverConfig(weights=low, partition=ctx.partition)
        gaps = surrogate_axiom_gaps(problem, kind, config=config)
        assert not surrogate_axioms_hold(gaps)


class TestDefaultWeights:
    def test_toy_blocks_solve_exactly(self):
        G, info = default_weights(l1_toy(), "gs")
        assert G == [WeightMatrix.zero()] * 2
        assert info == ["exact", "exact"]

    def test_scalar_gram_at_its_curvature_bound_is_exact(self):
        # A shared block whose curvature bound eta'_i is its own Gram's c
        # (A_i^T A_i = c I) gets the iso weight at level 0, whose solve plan
        # is the exact update's.
        ops = (ScaledIdentityOp(1.5, (2,)), ScaledIdentityOp(1.0, (2,)))
        terms = (ProxFunction("l1"), ProxFunction("l1"))
        problem = ProblemSpec("pair", [(ops, np.zeros(2))], ((2,), (2,)), terms)
        c = ops[0].gram_rep()[1]
        sm = {0: (c, False), 1: (2.0 * ops[1].op_norm_sq, False)}
        G, info = default_weights(problem, "jacobi", smoothness={(): {}, (0, 1): sm})
        assert info == ["iso", "iso"]
        assert G[0] == WeightMatrix.scaled_identity(0.0)
        exact = _plan_block(problem, 0, WeightMatrix.zero(), 0.0)
        assert _plan_block(problem, 0, G[0], 0.0) == exact

    def test_scalar_gram_keeps_iso_weight(self):
        problem = l1_toy()
        G, info = default_weights(problem, "jacobi")
        for i, op in enumerate(problem.family.operators):
            want = MARGIN_STRICT * max(2 * op.op_norm_sq - 1.0, 0.0)
            assert info[i] == "iso"
            assert (G[i].eta, G[i].gram_coef) == (want, 0.0)

    def test_dense_blocks_linearize(self):
        problem = _dense_problem(84, d=5, dims=(2, 3))
        part = Partition((0,), (1,))
        G, info = default_weights(problem, "madmm", part)
        ops = problem.family.operators
        assert info == ["linearized", "linearized"]
        assert (G[0].eta, G[0].gram_coef) == (1.0 * ops[0].op_norm_sq, -1.0)
        assert G[1].eta == MARGIN_STRICT * ops[1].op_norm_sq

    def test_lone_quadratic_block_stays_exact(self):
        problem = quad_problem(seed=1)
        G, info = default_weights(problem, "madmm", Partition((0,), (1,)))
        assert info == ["exact", "exact"]
        assert G == [WeightMatrix.zero()] * 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown solver kind"):
            default_weights(l1_toy(), "bogus")

    def test_mixed_kind_needs_partition(self):
        with pytest.raises(ValueError, match="needs its partition"):
            default_weights(l1_toy(), "madmm", None)

    def test_preset_weights(self):
        problem = _dense_problem(85, d=6, dims=(2, 3, 2))
        ops = problem.family.operators
        G, _ = default_weights(problem, "l-admm-ps")
        for i, g in enumerate(G):
            assert g.gram_coef == -1.0
            assert g.eta == MARGIN_STRICT * (3 * ops[i].op_norm_sq)
        G, _ = default_weights(problem, "gl-admm-ps")
        for i, g in enumerate(G):
            assert g.gram_coef == 2.0
            assert g.eta == pytest.approx(0.02 * ops[i].op_norm_sq)


_RUN_WEIGHT_PROBLEMS = {
    "l1_toy": l1_toy,
    "quad": lambda: quad_problem(3),
    "nnsc": lambda: build_nonneg_sparse_coding(
        DataGenSpec(0, d=10, n=6, sparsity=0.2)
    ),
    "latlrr2": lambda: build_latent_lrr(
        make_subspace_data(0, d=8, rank=2, n_subspaces=2, per_subspace=5),
        lam=0.5,
        formulation="2-block",
    ),
}
# Kinds that refuse the problem: gs needs two blocks, l-admm-ps refuses a
# smooth term, and gl-admm-ps's Gram weight does not combine with these terms.
_REFUSED = {
    ("nnsc", "gs"),
    ("nnsc", "gl-admm-ps"),
    ("latlrr2", "l-admm-ps"),
    ("latlrr2", "gl-admm-ps"),
}


@pytest.mark.parametrize(
    "name, kind",
    [
        (name, kind)
        for name in _RUN_WEIGHT_PROBLEMS
        for kind in SOLVER_KINDS
        if (name, kind) not in _REFUSED
    ],
)
def test_default_weights_are_the_run_weights(name, kind):
    problem = _RUN_WEIGHT_PROBLEMS[name]()
    config = SolverConfig(eta_scale=0.03)
    ctx = prepare_context(problem, kind, config)
    G, levels = default_weights(problem, kind, ctx.partition, config)
    assert [(g.eta, g.gram_coef, g.op) for g in G] == [
        (g.eta, g.gram_coef, g.op) for g in ctx.G0
    ]
    assert levels == ctx.levels


def _mini(op, term):
    fam = BlockOperatorFamily((op,), op.out_shape)
    return SimpleNamespace(family=fam, terms=(term,))


def _solve_block(plan, q_iso, q_gram, lin):
    """One block's subproblem, solved in place."""
    v = np.array(lin, dtype=float).reshape(plan.op.in_shape)
    solvers._solve_block(plan, q_iso, q_gram, v)
    return v


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

    def test_diag_path_scalar_gram(self):
        rng = np.random.default_rng(86)
        op = ScaledIdentityOp(1.5, (4,))
        term = ProxFunction("l1")
        plan = _plan_block(_mini(op, term), 0, WeightMatrix.zero(), 0.0)
        assert (plan.path, plan.diag) == ("diag", 2.25)
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
        # A Gram built from an equal operator that is not the block's own is
        # refused before any block is planned: before block 0's l21 term,
        # which a diagonal Gram cannot take.
        ops = (MaskProjectionOp(np.eye(2) > 0), ScaledIdentityOp(1.0, (2, 2)))
        terms = (ProxFunction("l21"), ProxFunction("l1"))
        problem = ProblemSpec("pair", [(ops, np.zeros((2, 2)))], ((2, 2),) * 2, terms)
        other = ScaledIdentityOp(1.0, (2, 2))
        iso = WeightMatrix.scaled_identity(1.0)
        G = (iso, WeightMatrix.identity_minus_gram(5.0, other))
        with pytest.raises(UnsupportedSubproblemError, match="block 1: .*own operator"):
            prepare_context(problem, "jacobi", SolverConfig(weights=G))
        with pytest.raises(UnsupportedSubproblemError, match="block 0: .*entrywise"):
            prepare_context(problem, "jacobi", SolverConfig(weights=(iso, iso)))

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

    def test_eig_path_without_curvature_rejected(self):
        # A Gram with a null direction and no iso weight: the model is flat
        # along it.
        op = DenseMatrixOp(np.array([[1.0, 0.0]]))
        plan = _plan_block(_mini(op, None), 0, WeightMatrix.zero(), 0.0)
        assert plan.path == "eig"
        with pytest.raises(UnsupportedSubproblemError, match="loses curvature"):
            _solve_block(plan, 0.0, 1.0, np.ones(2))

    def test_zero_curvature_rejected(self):
        op = ScaledIdentityOp(1.0, (2,))
        plan = _plan_block(_mini(op, ProxFunction("l1")), 0, WeightMatrix.zero(), 0.0)
        with pytest.raises(UnsupportedSubproblemError, match="curvature"):
            _solve_block(plan, 0.0, 0.0, np.ones(2))


def _op_of_gram_kind(kind):
    rng = np.random.default_rng(95)
    shape = (3, 4)
    left = LeftMultiplyOp(rng.standard_normal((5, 3)), shape)
    right = RightMultiplyOp(rng.standard_normal((4, 6)), shape)
    if kind == "scalar":
        return ScaledIdentityOp(1.5, shape)
    if kind == "diag":
        return MaskProjectionOp(rng.random(shape) < 0.6)
    if kind == "left":
        return left
    if kind == "right":
        return right
    if kind == "dense":
        return DenseMatrixOp(rng.standard_normal((5, 12)))
    # A left and a right Gram stacked together have no structured sum.
    rows = [((left,), np.zeros((5, 4))), ((right,), np.zeros((3, 6)))]
    return stack_rows(rows, [shape])[0].operators[0]


@pytest.mark.parametrize("gram", ["scalar", "diag", "left", "right", "dense", None])
@pytest.mark.parametrize(
    "term",
    [None, "l1", "l1-nonneg", "indicator-nonneg", "sq-frobenius", "nuclear", "l21"],
)
def test_tight_rule_is_exact_where_the_zero_weight_plans(gram, term):
    op = _op_of_gram_kind(gram)
    assert op.gram_kind() == gram
    problem = _mini(op, None if term is None else ProxFunction(term))
    sm = {0: (op.op_norm_sq, True)}
    ((_, _, level),) = solvers._tight_weights(
        problem, [0], MARGIN_STRICT, sm, SolverConfig()
    )
    try:
        _plan_block(problem, 0, WeightMatrix.zero(), 0.0)
        accepted = True
    except UnsupportedSubproblemError:
        accepted = False
    assert (level == "exact") == accepted


class TestToyTrajectory:
    def test_sequential_solve_matches_hand_iteration(self):
        problem = l1_toy()
        config = SolverConfig(beta0=1.0, rho=1.0)
        result, iterates = run_observed(problem, "gs", config)
        assert result.stop_reason == "converged"
        assert result.state.k == 3
        assert len(result.trace) == 3

        np.testing.assert_array_equal(iterates[0][0], [1.0])
        np.testing.assert_array_equal(iterates[0][1], [0.0])
        np.testing.assert_array_equal(iterates[1][0], [2.0])
        np.testing.assert_array_equal(iterates[1][1], [0.0])
        np.testing.assert_array_equal(iterates[2][0], [2.0])
        np.testing.assert_array_equal(iterates[2][1], [0.0])
        np.testing.assert_array_equal(result.state.lam, [-1.0])
        assert len(iterates) == 3

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
        result, iterates = run_observed(
            problem, "jacobi", SolverConfig(beta0=beta, max_iter=1, rho=1.0)
        )
        eta = MARGIN_STRICT * op.op_norm_sq
        want = np.maximum(A.T @ b / eta - 1.0 / (beta * eta), 0.0)
        assert len(iterates) == result.state.k == 1
        np.testing.assert_allclose(iterates[0][0], want, atol=1e-12)

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
        _, iterates = run_observed(
            problem, "jacobi", SolverConfig(beta0=1.0, max_iter=1, rho=1.0)
        )
        eta = [
            MARGIN_STRICT * max(2 * op.op_norm_sq - 1.0, 0.0) for op in ops
        ]
        eta_sm = smooth.cert[0].eta
        s0 = eta[0] + eta_sm + 1.0
        s1 = eta[1] + 1.0
        assert iterates[0][0][0] == pytest.approx(7.0 / s0, rel=1e-12)
        assert iterates[0][1][0] == pytest.approx(1.0 / s1, rel=1e-12)

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
        )
        with pytest.raises(UnsupportedSubproblemError, match="linearizes"):
            prepare_context(problem, "l-admm-ps", SolverConfig())
        ctx = prepare_context(problem, "pl-admm-ps", SolverConfig())
        assert all(plan.smooth_eta > 0.0 for plan in ctx.plans)


class TestDegeneracies:
    def test_two_block_mixed_equals_sequential(self):
        problem = quad_problem(seed=2)
        config = dict(beta0=0.5, rho=1.05, max_iter=40, eps_primal=0.0, eps_step=0.0)
        gs, gs_x = run_observed(problem, "gs", SolverConfig(**config))
        mixed, mixed_x = run_observed(
            problem,
            "madmm",
            SolverConfig(partition=Partition((0,), (1,)), **config),
        )
        assert len(gs_x) == len(mixed_x) == 40
        for xa, xb in zip(gs_x, mixed_x):
            for a, b in zip(xa.blocks, xb.blocks):
                assert np.max(np.abs(a - b)) <= 1e-12
        for ta, tb in zip(gs.trace, mixed.trace):
            assert abs(ta.objective - tb.objective) <= 1e-12

    def test_empty_first_side_equals_parallel(self):
        problem = _dense_problem(94, d=5, dims=(2, 3, 2))
        config = dict(beta0=1.0, rho=1.05, max_iter=30, eps_primal=0.0, eps_step=0.0)
        _, jac_x = run_observed(problem, "jacobi", SolverConfig(**config))
        _, mixed_x = run_observed(
            problem,
            "madmm",
            SolverConfig(partition=Partition((), (0, 1, 2)), **config),
        )
        assert len(jac_x) == len(mixed_x) == 30
        for xa, xb in zip(jac_x, mixed_x):
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
        result, iterates = run_observed(problem, "jacobi", config)
        b_scale = max(float(np.linalg.norm(problem.b)), 1.0)
        held = advanced = 0
        prev_x = BlockVector.zeros(problem.block_shapes)
        beta = 1.0
        for x, row in zip(iterates, result.trace):
            beta_used = row.beta
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
        result, iterates = run_observed(l1_toy(), "gs", SolverConfig(max_iter=0))
        assert result.stop_reason == "budget"
        assert result.trace == [] and iterates == []
        assert result.state.k == 0
        assert all(np.all(blk == 0.0) for blk in result.state.x.blocks)
        assert np.all(result.state.lam == 0.0)

    def test_trace_is_contiguous_and_aligned(self):
        result, iterates = run_observed(
            quad_problem(seed=7),
            "jacobi",
            SolverConfig(beta0=0.5, rho=1.2, max_iter=7, eps_primal=0.0, eps_step=0.0),
        )
        assert [t.k for t in result.trace] == list(range(1, 8))
        assert len(iterates) == 7
        for blk_a, blk_b in zip(iterates[-1].blocks, result.state.x.blocks):
            np.testing.assert_array_equal(blk_a, blk_b)

    @pytest.mark.parametrize("kind", ["jacobi", "madmm-bt"])
    def test_observer_sees_each_completed_iteration(self, kind):
        problem = _dense_problem(96, d=5, dims=(2, 3, 2))
        config = SolverConfig(beta0=0.5, max_iter=12, eps_primal=0.0, eps_step=0.0)
        seen = []

        def observe(state):
            # Called after the row is appended: the row is this iteration's.
            assert state.trace[-1].k == state.k == len(state.trace)
            seen.append((state.k, state.x.copy(), state.lam.copy()))

        plain = run(problem, kind, config)
        observed = run(problem, kind, config, observe=observe)
        assert [k for k, _, _ in seen] == [t.k for t in observed.trace]
        assert len(seen) == 12
        # Watching changes nothing: the same bits as a run without observer.
        np.testing.assert_array_equal(seen[-1][1].flat, plain.state.x.flat)
        np.testing.assert_array_equal(seen[-1][2], plain.state.lam)
        untimed = [dataclasses.replace(t, wall_time_ms=0.0) for t in plain.trace]
        assert [
            dataclasses.replace(t, wall_time_ms=0.0) for t in observed.trace
        ] == untimed

    def test_observer_at_zero_budget_convergence_and_divergence(self):
        calls = []
        run(l1_toy(), "gs", SolverConfig(max_iter=0), observe=calls.append)
        assert calls == []
        # Called before the stop test, so the converged iterate is seen too.
        config = SolverConfig(beta0=1.0, rho=1.0)
        result = run(l1_toy(), "gs", config, observe=lambda s: calls.append(s.k))
        assert result.stop_reason == "converged" and calls == [1, 2, 3]
        problem, config = _blowup()
        seen = []

        def observe(state):
            assert np.all(np.isfinite(state.x.flat))
            seen.append(state.k)

        overflow = pytest.warns(RuntimeWarning, match="overflow")
        with overflow, pytest.raises(DivergenceError) as err:
            run(problem, "jacobi", config, observe=observe)
        result = err.value.result
        # The diverged iterate has no trace row and is not observed.
        assert seen == [t.k for t in result.trace] == list(range(1, result.state.k))

    @pytest.mark.parametrize("workers", [0, -1, 2.5, True])
    def test_bad_worker_count_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run(l1_toy(), "jacobi", SolverConfig(max_iter=1), workers=workers)

    def test_workers_take_contiguous_shares_of_a_phase(self, monkeypatch):
        problem = build_nonneg_sparse_coding(DataGenSpec(5, d=12, n=8, sparsity=0.2))
        config = SolverConfig(max_iter=3, eps_primal=0.0, eps_step=0.0)
        calls = []

        class Pool(solvers.ThreadPoolExecutor):
            def map(self, fn, shares):
                calls.append([tuple(share) for share in shares])
                return super().map(fn, shares)

        monkeypatch.setattr(solvers, "ThreadPoolExecutor", Pool)
        pooled = run(problem, "jacobi", config, workers=2)
        assert calls == [[(0, 1, 2, 3), (4, 5, 6, 7)]] * 3
        serial = run(problem, "jacobi", config)
        np.testing.assert_array_equal(pooled.state.x.flat, serial.state.x.flat)

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
        problem, config = _blowup()
        overflow = pytest.warns(RuntimeWarning, match="overflow")
        with overflow, pytest.raises(DivergenceError) as err:
            run(problem, "jacobi", config)
        result = err.value.result
        assert result.stop_reason == "diverged"
        assert result.state.k >= 1
        for row in result.trace:
            assert math.isfinite(row.objective)
            assert math.isfinite(row.residual_norm)

    def test_weight_override_validation(self):
        # Each refusal, by prepare_context and by run, comes before the ones
        # below it: a backtracking kind, the count, then a foreign Gram.
        problem = l1_toy()
        zero = WeightMatrix.zero()
        foreign = WeightMatrix.identity_minus_gram(5.0, ScaledIdentityOp(1.0, (1,)))
        bt = "backtracking manages its own weights; do not pass overrides"
        count = "one weight per block is required"
        own = "block 1: weight Gram must be built from the block's own operator"
        cases = [
            ("madmm-bt", (foreign,), ValueError, bt),
            ("madmm-bt", (zero, zero), ValueError, bt),
            ("jacobi", (foreign,), ValueError, count),
            ("jacobi", (zero, foreign), UnsupportedSubproblemError, own),
        ]
        for kind, weights, error, message in cases:
            for call in (prepare_context, run):
                with pytest.raises(error) as err:
                    call(problem, kind, SolverConfig(weights=weights))
                assert type(err.value) is error and str(err.value) == message

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

    def test_fixed_kind_rejects_bad_partition_spec(self):
        # Rejected when the config is built: a kind that ignores the
        # partition cannot hide the mistake.
        with pytest.raises(ValueError, match="unrecognized partition"):
            run(l1_toy(), "jacobi", SolverConfig(partition="case1"))

    def test_unrecognized_partition_spec(self):
        with pytest.raises(ValueError, match="unrecognized partition"):
            prepare_context(
                quad_problem(seed=6), "madmm", SolverConfig(partition=5)
            )

    @pytest.mark.parametrize(
        "kind, want",
        [
            ("gs", ((0,), (1,))),
            ("jacobi", ((), (0, 1))),
            ("l-admm-ps", ((), (0, 1))),
            ("pl-admm-ps", ((), (0, 1))),
            ("gl-admm-ps", ((), (0, 1))),
            ("madmm", ((1,), (0,))),
            ("madmm-bt", ((1,), (0,))),
        ],
    )
    def test_every_kind_runs_its_partition(self, kind, want):
        # The fixed kinds ignore a requested partition; the mixed kinds take it.
        config = SolverConfig(partition=Partition((1,), (0,)))
        ctx = prepare_context(quad_problem(seed=7), kind, config)
        assert (ctx.partition.b1, ctx.partition.b2) == want

    @pytest.mark.parametrize(
        "problem", [l1_toy(), _dense_problem(95, d=5, dims=(2, 3))]
    )
    def test_fixed_kinds_weigh_as_mixed_at_their_partition(self, problem):
        for kind, part in (
            ("jacobi", Partition((), (0, 1))),
            ("gs", Partition((0,), (1,))),
        ):
            G, info = default_weights(problem, kind)
            G_mixed, info_mixed = default_weights(problem, "madmm", part)
            assert info == info_mixed
            assert G == G_mixed

    @pytest.mark.parametrize("kind", ["madmm", "madmm-bt"])
    def test_mixed_kind_on_one_block(self, kind):
        ops = (ScaledIdentityOp(1.0, (2,)),)
        problem = ProblemSpec(
            "one", [(ops, np.ones(2))], ((2,),), (ProxFunction("sq-frobenius"),)
        )
        with pytest.raises(ValueError, match=f"'{kind}'.* 1 block.*pass a Partition"):
            run(problem, kind, SolverConfig(max_iter=5))
        config = SolverConfig(partition=Partition((0,), ()), beta0=1.0, max_iter=5)
        result = run(problem, kind, config)
        assert len(result.trace) == 5


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
            want = WeightMatrix.identity_minus_gram(0.05 * nj * op.op_norm_sq, op)
            assert ctx.G0[i] == want

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
            eta=[g.eta for g in ctx.G0],
        )
        total_backtracks = 0
        saw_backtrack = False
        for _ in range(25):
            x_prev = state.x
            etas_before = list(state.eta)
            _, _, backtracks = step(state, ctx)
            x_new = state.x
            total_backtracks += backtracks
            saw_backtrack = saw_backtrack or backtracks > 0

            lhs_vec = np.zeros(A.out_shape)
            rhs = 0.0
            for i in part.b1:
                d = x_new[i] - x_prev[i]
                lhs_vec += A.operators[i].apply(d)
                rhs += state.eta[i] * float(np.vdot(d, d))
            assert float(np.vdot(lhs_vec, lhs_vec)) <= rhs

            lhs = quad = 0.0
            a_vec = np.zeros(A.out_shape)
            for i in part.b2:
                d = x_new[i] - x_prev[i]
                dsq = float(np.vdot(d, d))
                lhs += dsq
                quad += state.eta[i] * dsq
                a_vec += A.operators[i].apply(d)
            assert config.tau * lhs <= quad - float(np.vdot(a_vec, a_vec))

            powers = set()
            for side in (part.b1, part.b2):
                ratios = {
                    round(math.log(state.eta[i] / etas_before[i], config.mu))
                    for i in side
                }
                assert len(ratios) == 1
                powers.add((side, ratios.pop()))
            assert sum(m for _, m in powers) == backtracks
            for i in range(A.n):
                assert state.eta[i] >= etas_before[i]
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

    def test_large_margin_is_reached_by_doubling(self):
        # tau = 1e9 lies far above every ||A_i||^2, but doubling the weights
        # reaches eta'_i + tau, where the second phase must pass.
        problem = self._problem(seed=102)
        config = SolverConfig(
            partition=Partition((0,), (1, 2, 3)),
            beta0=1.0,
            tau=1e9,
            max_iter=5,
            eps_primal=0.0,
            eps_step=0.0,
        )
        result = run(problem, "madmm-bt", config)
        assert result.stop_reason == "budget"
        assert result.state.backtrack_count > 0

    @pytest.mark.parametrize("phase", [0, 1])
    def test_rejection_past_the_safe_level_raises(self, monkeypatch, phase):
        # A phase that is always rejected raises once every coupled weight
        # is mu times past eta'_i + tau, after
        # ceil(log_mu(mu max_i (eta'_i + tau) / eta_i)) weight increases.
        problem = self._problem(seed=102)
        config = SolverConfig(partition=Partition((0,), (1, 2, 3)), tau=2.5)
        ctx = prepare_context(problem, "madmm-bt", config)
        blocks = (ctx.partition.b1, ctx.partition.b2)[phase]
        tau = (0.0, config.tau)[phase]
        sm = phase_smoothness(problem.family, blocks)
        scales = []
        bt_scale = solvers._bt_scale

        def counted(ctx, scaled, state, mu):
            scales.append(scaled)
            bt_scale(ctx, scaled, state, mu)

        def reject(ctx, tested, *args):
            return tested != blocks

        monkeypatch.setattr(solvers, "_bt_scale", counted)
        monkeypatch.setattr(solvers, "_bt_accept", reject)
        with pytest.raises(BacktrackingConsistencyError, match=f"tau={tau:g}"):
            run(problem, "madmm-bt", config)
        assert set(scales) == {blocks}
        etas = {i: ctx.G0[i].eta for i in blocks}
        want = 0
        while any(etas[i] < config.mu * (sm[i][0] + tau) for i in blocks):
            etas = {i: config.mu * eta for i, eta in etas.items()}
            want += 1
        assert len(scales) == want > 0
        rejections = len(scales) + 1  # the last one raises instead of scaling
        worst = max((sm[i][0] + tau) / ctx.G0[i].eta for i in blocks)
        assert rejections <= math.ceil(math.log(config.mu * worst, config.mu)) + 1

    @pytest.mark.parametrize("scale", [0.03, 0.01])
    def test_small_norms_next_to_tau_do_not_raise(self, scale):
        # With every ||A_i||^2 far below tau, the second phase passes only
        # at weights near tau: a guard that left tau out raised here.
        base = build_nonneg_sparse_coding(DataGenSpec(0, d=10, n=6, sparsity=0.3))
        ops = tuple(DenseMatrixOp(scale * op.matrix) for op in base.family.operators)
        problem = ProblemSpec(
            "nnsc", [(ops, scale * base.b)], base.block_shapes, base.terms
        )
        result = run(problem, "madmm-bt", SolverConfig(max_iter=200))
        assert result.stop_reason in ("budget", "converged")
        assert result.state.backtrack_count > 0

    def test_rejection_scales_only_coupled_levels(self, monkeypatch):
        # Each phase is rejected once: its coupled blocks' levels are
        # multiplied by mu, and the uncoupled block's level stays as it is.
        rng = np.random.default_rng(105)
        ops = (
            DenseMatrixOp(rng.standard_normal((4, 2))),
            DenseMatrixOp(rng.standard_normal((4, 3))),
            None,
        )
        shapes = ((2,), (3,), (2,))
        terms = tuple(ProxFunction("sq-frobenius", 1.0) for _ in shapes)
        problem = ProblemSpec("bt-free", [(ops, rng.standard_normal(4))], shapes, terms)
        config = SolverConfig(partition=Partition((0,), (1, 2)), mu=3.0)
        ctx = prepare_context(problem, "madmm-bt", config)
        tested = []

        def reject_first(ctx, blocks, *args):
            tested.append(blocks)
            return tested.count(blocks) > 1

        monkeypatch.setattr(solvers, "_bt_accept", reject_first)
        before = [ctx.G0[0].eta, ctx.G0[1].eta, 0.25]
        state = SolverState(
            x=BlockVector.zeros(shapes), lam=np.zeros(4), beta=1.0, eta=list(before)
        )
        assert step(state, ctx)[2] == 2
        assert state.eta == [3.0 * before[0], 3.0 * before[1], 0.25]

    def test_acceptance_helpers_exclude_uncoupled_blocks(self):
        op = DenseMatrixOp(np.eye(2))
        zero = ZeroOp((3,), (2,))
        fam = BlockOperatorFamily((op, zero), (2,))
        ctx = SimpleNamespace(A=fam)
        x_prev = BlockVector([np.zeros(2), np.zeros(3)])
        updates = {0: np.array([0.3, -0.1]), 1: np.array([5.0, 5.0, 5.0])}
        c_prev = [np.zeros(2), np.zeros(2)]
        c_new = {i: fam.operators[i].apply(v) for i, v in updates.items()}
        eta = [3.0, 0.0]
        args = (ctx, (0, 1), x_prev, updates, c_prev, c_new, eta)
        for tau in (0.0, 1.3):
            assert _bt_accept(*args, tau, {}, {})

    def test_acceptance_tie_passes_first_phase_test(self):
        # ||A d||^2 == eta ||d||^2 exactly: the first phase accepts a tie,
        # a positive tau margin does not.
        op = DenseMatrixOp(np.eye(2))
        ctx = SimpleNamespace(A=BlockOperatorFamily((op,), (2,)))
        x_prev = BlockVector([np.zeros(2)])
        updates = {0: np.array([0.5, 0.25])}
        c_prev, c_new = [np.zeros(2)], {0: updates[0]}
        eta = [1.0]
        args = (ctx, (0,), x_prev, updates, c_prev, c_new, eta)
        assert _bt_accept(*args, 0.0, {}, {})
        assert not _bt_accept(*args, 1.3, {}, {})


def _plans(ops, terms, weights):
    problem = SimpleNamespace(family=SimpleNamespace(operators=ops), terms=terms)
    return [_plan_block(problem, i, G, 0.0) for i, G in enumerate(weights)]


class TestGroupSolve:
    """A phase solves in place, block by block: each block of a packed
    entrywise run comes out as it would alone."""

    @pytest.mark.parametrize("weight", [1.0, 0.8])
    @pytest.mark.parametrize(
        "kind", ["l1", "l1-nonneg", "indicator-nonneg", "zero", "sq-frobenius"]
    )
    def test_group_equals_single_block_solves(self, kind, weight):
        rng = np.random.default_rng(94)
        dense = DenseMatrixOp(rng.standard_normal((12, 3)))
        ops = (
            ScaledIdentityOp(1.5, (4,)),
            dense,
            MaskProjectionOp(rng.random((3, 4)) < 0.6),
            MaskProjectionOp(rng.random((2, 2)) < 0.6),
        )
        term = ProxFunction(kind, weight)
        weights = (
            WeightMatrix.zero(),
            WeightMatrix.identity_minus_gram(1.1 * dense.op_norm_sq, dense),
            WeightMatrix.scaled_identity(0.4),
            WeightMatrix.scaled_identity(0.4),
        )
        plans = _plans(ops, (term,) * 4, weights)
        assert [plan.path for plan in plans] == ["diag"] * 4
        assert [plan.diag for plan in plans[:2]] == [2.25, 0.0]
        layout = _Layout([op.in_shape for op in ops])
        for _ in range(5):
            curvatures = [
                (plan.fold_iso + rng.uniform(0.2, 1.0), rng.uniform(0.5, 1.5))
                for plan in plans
            ]
            lins = [3.0 * rng.standard_normal(op.in_shape) for op in ops]
            flat = np.concatenate([lin.ravel() for lin in lins])
            for plan, (lo, hi), (q_iso, q_gram), lin in zip(
                plans, layout.bounds, curvatures, lins
            ):
                v = flat[lo:hi].reshape(lin.shape)
                solvers._solve_block(plan, q_iso, q_gram, v)
            for plan, (lo, hi), (q_iso, q_gram), lin in zip(
                plans, layout.bounds, curvatures, lins
            ):
                want = reference_solve_block(plan, q_iso, q_gram, lin)
                np.testing.assert_allclose(
                    flat[lo:hi].reshape(want.shape), want, rtol=0, atol=1e-15
                )

    def test_runs_end_at_gaps_terms_paths_and_matrix_terms(self):
        rng = np.random.default_rng(95)
        dense = DenseMatrixOp(rng.standard_normal((5, 3)))
        ops = tuple(ScaledIdentityOp(1.0, (2,)) for _ in range(5)) + (
            dense,
            ScaledIdentityOp(1.0, (2,)),
            ScaledIdentityOp(1.0, (2, 3)),
            ScaledIdentityOp(1.0, (2, 3)),
            ScaledIdentityOp(1.0, (2, 3)),
        )
        l1 = ProxFunction("l1", 1.0)
        terms = (
            l1,
            l1,
            ProxFunction("l1", 2.0),
            None,
            None,
            None,
            None,
            ProxFunction("l21"),
            ProxFunction("l21"),
            ProxFunction("nuclear"),
        )
        weights = [WeightMatrix.zero()] * 5 + [WeightMatrix.scaled_identity(0.3)]
        weights += [WeightMatrix.zero()] * 4
        plans = _plans(ops, terms, weights)
        assert plans[5].path == "eig"
        layout = _Layout([op.in_shape for op in ops])

        def members(blocks):
            runs = reference_runs(plans, blocks, layout)
            for run_plans, start, stop in runs:
                bounds = [layout.bounds[p.index] for p in run_plans]
                assert (bounds[0][0], bounds[-1][1]) == (start, stop)
            return [[p.index for p in run_plans] for run_plans, _, _ in runs]

        # A different term, an eig block and each l21 or nuclear block end a run.
        assert members(range(10)) == [[0, 1], [2], [3, 4], [5], [6], [7], [8], [9]]
        # A gap ends a run, and runs keep the phase's order.
        assert members((0, 2, 1)) == [[0], [2], [1]]
        assert members((1, 0)) == [[1], [0]]
        assert members((0, 1, 3, 4)) == [[0, 1], [3, 4]]

    @pytest.mark.parametrize("kind", ["jacobi", "madmm"])
    def test_each_block_adjoint_prox_apply_in_turn(self, kind, monkeypatch):
        # Block i's adjoint, prox and apply run back to back, before block
        # i+1's adjoint, so A_i is still in cache when it is applied: one
        # prox call per updated block per phase, on the block's own slice.
        problem = build_nonneg_sparse_coding(DataGenSpec(5, d=12, n=8, sparsity=0.2))
        config = SolverConfig(
            partition=Partition((0, 1, 4), (2, 3, 5, 6, 7)),
            max_iter=12,
            eps_primal=0.0,
            eps_step=0.0,
        )
        ctx = prepare_context(problem, kind, config)
        index = {id(op): i for i, op in enumerate(problem.family.operators)}
        calls = []
        for name in ("adjoint", "apply"):
            original = getattr(DenseMatrixOp, name)

            def logged(op, v, _name=name, _original=original):
                calls.append((_name, index[id(op)]))
                return _original(op, v)

            monkeypatch.setattr(DenseMatrixOp, name, logged)
        prox_original = ProxFunction.prox

        def prox_logged(term, v, t, **kw):
            calls.append(("prox", np.shape(v)))
            return prox_original(term, v, t, **kw)

        monkeypatch.setattr(ProxFunction, "prox", prox_logged)
        result = run(problem, kind, config)
        assert result.state.k == 12
        order = ctx.partition.b1 + ctx.partition.b2
        if kind == "jacobi":
            assert order == tuple(range(8))
        shapes = problem.block_shapes
        per_block = [
            [("adjoint", i), ("prox", shapes[i]), ("apply", i)] for i in order
        ]
        assert calls == 12 * sum(per_block, [])


class TestGroupedEngine:
    """Forty iterations of the in-place engine equal the per-block reference,
    and bitwise the run-wide one."""

    PROBLEMS = {
        "nnsc": lambda: build_nonneg_sparse_coding(
            DataGenSpec(5, d=12, n=8, sparsity=0.2)
        ),
        "nnsc-noisy": lambda: build_nonneg_sparse_coding_noisy(
            DataGenSpec(5, d=12, n=8, sparsity=0.2)
        ),
        "latlrr3": lambda: _latlrr3(),
        "latlrr3-rank-deficient": lambda: _rank_deficient_latlrr3(),
        "latlrr3-gapped-rows": lambda: _gapped_latlrr3(),
    }

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    @pytest.mark.parametrize("kind", ["madmm", "madmm-bt", "jacobi", "l-admm-ps"])
    def test_matches_per_block_engine(self, name, kind, monkeypatch):
        problem = self.PROBLEMS[name]()
        config = SolverConfig(max_iter=40, eps_primal=0.0, eps_step=0.0)
        got, got_x = run_observed(problem, kind, config)
        threaded = run(problem, kind, config, workers=2)
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_run_phase", reference_run_phase)
            want, want_x = run_observed(problem, kind, config)
        assert got.state.k == want.state.k == 40
        assert got.state.backtrack_count == want.state.backtrack_count
        for g, w in zip(got_x, want_x):
            scale = max(float(np.max(np.abs(w.flat))), 1.0)
            assert np.max(np.abs(g.flat - w.flat)) <= 1e-12 * scale
        scale = max(float(np.max(np.abs(want.state.lam))), 1.0)
        assert np.max(np.abs(got.state.lam - want.state.lam)) <= 1e-12 * scale
        np.testing.assert_array_equal(threaded.state.x.flat, got.state.x.flat)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    @pytest.mark.parametrize("kind", ["madmm", "madmm-bt", "jacobi", "l-admm-ps"])
    def test_bitwise_equals_run_wide_engine(self, name, kind, workers, monkeypatch):
        # Entrywise solves are elementwise, so solving each block between its
        # adjoint and its apply changes no bit against one prox call per run.
        problem = self.PROBLEMS[name]()
        config = SolverConfig(max_iter=40, eps_primal=0.0, eps_step=0.0)
        got, got_x = run_observed(problem, kind, config, workers=workers)
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_run_phase", reference_run_wide_phase)
            want, want_x = run_observed(problem, kind, config, workers=workers)
        assert got.state.k == want.state.k == 40
        assert got.state.backtrack_count == want.state.backtrack_count
        for g, w in zip(got_x, want_x):
            np.testing.assert_array_equal(g.flat, w.flat)
        np.testing.assert_array_equal(got.state.lam, want.state.lam)
        assert [t.objective for t in got.trace] == [t.objective for t in want.trace]


class TestBlockImages:
    """``A_i x_i`` is carried across phases: one apply and one adjoint per update."""

    @staticmethod
    def _counted(monkeypatch):
        counts = {"apply": 0, "adjoint": 0}
        for name in counts:
            original = getattr(DenseMatrixOp, name)

            def counted(op, v, _name=name, _original=original):
                counts[_name] += 1
                return _original(op, v)

            monkeypatch.setattr(DenseMatrixOp, name, counted)
        return counts

    def _config(self, **kw):
        return SolverConfig(
            partition=Partition((0, 1), (2, 3)),
            max_iter=12,
            eps_primal=0.0,
            eps_step=0.0,
            **kw,
        )

    @pytest.mark.parametrize("kind", ["madmm", "jacobi", "l-admm-ps"])
    def test_one_apply_and_adjoint_per_block(self, kind, monkeypatch):
        problem = _dense_problem(71, 6, (2, 3, 2, 3))
        counts = self._counted(monkeypatch)
        result = run(problem, kind, self._config())
        n = problem.family.n
        assert result.state.k == 12
        assert counts == {"apply": 12 * n, "adjoint": 12 * n}

    def test_backtracking_pays_once_more_per_recomputed_block(self, monkeypatch):
        problem = _dense_problem(72, 6, (2, 3, 2, 3), "sq-frobenius")
        counts = self._counted(monkeypatch)
        result = run(problem, "madmm-bt", self._config(beta0=0.5, eta_scale=0.01))
        backtracks = result.state.backtrack_count
        assert backtracks > 0
        # Both phases hold two blocks, so each recomputed phase costs two.
        want = 12 * problem.family.n + 2 * backtracks
        assert counts == {"apply": want, "adjoint": want}

    @pytest.mark.parametrize("kind, sums", [("jacobi", 1), ("madmm", 2)])
    def test_images_summed_once_per_phase(self, kind, sums, monkeypatch):
        problem = _dense_problem(71, 6, (2, 3, 2, 3))
        calls = []
        original = BlockOperatorFamily.image_sum

        def counted(family, images):
            calls.append(1)
            return original(family, images)

        monkeypatch.setattr(BlockOperatorFamily, "image_sum", counted)
        result = run(problem, kind, self._config())
        assert result.state.k == 12
        assert len(calls) == sums * 12

    def test_images_follow_the_iterate(self):
        # On latlrr3, Z's image is carried as R^T X from its range coordinates.
        cases = (
            (_dense_problem(73, 6, (2, 3, 2, 3)), self._config()),
            (
                build_latent_lrr(_subspace(), lam=0.1, formulation="3-block"),
                SolverConfig(max_iter=12, eps_primal=0.0, eps_step=0.0),
            ),
        )
        for problem, config in cases:
            ctx = prepare_context(problem, "madmm", config)
            A = problem.family

            def fresh(x):
                eta = [g.eta for g in ctx.G0]
                return SolverState(x=x, lam=np.zeros(A.out_shape), beta=0.5, eta=eta)

            state = fresh(BlockVector.zeros(problem.block_shapes))
            for _ in range(3):
                step(state, ctx)
                x, c, r, _, _ = state.images
                assert x is state.x
                for op, blk, ci in zip(A.operators, x.blocks, c):
                    np.testing.assert_allclose(ci, op.apply(blk), rtol=0, atol=1e-12)
                want = A.apply(x) - problem.b
                np.testing.assert_allclose(r, want, rtol=0, atol=1e-12)
            # A replaced iterate must not reuse the images of the old one.
            other = BlockVector(
                random_blocks(np.random.default_rng(73), problem.block_shapes)
            )
            state.x, state.lam, state.beta = other, np.zeros(A.out_shape), 0.5
            ref = fresh(other)
            step(state, ctx)
            step(ref, ctx)
            for got, want in zip(state.x.blocks, ref.x.blocks):
                np.testing.assert_array_equal(got, want)


def _subspace():
    return make_subspace_data(5, d=10, rank=2, n_subspaces=3, per_subspace=6)


class TestCarriedTermValues:
    """A nuclear block's term value comes from the thresholding that produced it."""

    PROBLEMS = {
        "latlrr3": lambda: build_latent_lrr(_subspace(), lam=0.1, formulation="3-block"),
        "latlrr2": lambda: build_latent_lrr(_subspace(), lam=0.1, formulation="2-block"),
        "lrr": lambda: build_lrr(_subspace(), _subspace()),
        "nmc": lambda: build_nonneg_matrix_completion(
            DataGenSpec(5, d=12, n=10, rank=2, noise_sigma=0.1)
        ),
    }

    @staticmethod
    def _config(**kw):
        return SolverConfig(**{"max_iter": 20, "eps_primal": 0.0, "eps_step": 0.0, **kw})

    @staticmethod
    def _svt_calls(monkeypatch):
        """``(calls, made)``: the factorizations each ``prox._svt`` call made,
        and every ``_svd`` and ``eigh`` call, inside a thresholding or not."""
        calls, made = [], []
        svt, svd, eigh = prox._svt, prox._svd, np.linalg.eigh

        def counted_svt(V, t):
            before = len(made)
            out = svt(V, t)
            calls.append(len(made) - before)
            return out

        def counted_svd(V, compute_uv=True):
            made.append("svd")
            return svd(V, compute_uv)

        def counted_eigh(a, *args, **kwargs):
            made.append("eigh")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(prox, "_svt", counted_svt)
        monkeypatch.setattr(prox, "_svd", counted_svd)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        return calls, made

    @staticmethod
    def _nuclear(problem):
        return {i for i, t in enumerate(problem.terms) if t and t.kind == "nuclear"}

    @pytest.mark.parametrize("kind", ["madmm", "jacobi", "l-admm-ps"])
    def test_one_svd_per_nuclear_block_per_iteration(self, kind, monkeypatch):
        # One thresholding per nuclear block per iteration, each with at most
        # one factorization, and none outside them (the trace makes none).
        problem = self.PROBLEMS["latlrr3"]()
        assert len(self._nuclear(problem)) == 2
        calls, made = self._svt_calls(monkeypatch)
        result = run(problem, kind, self._config())
        assert result.state.k == 20
        assert len(calls) == 2 * 20
        assert max(calls) <= 1 and sum(calls) == len(made)

    def test_a_rejected_phase_pays_one_svd_per_nuclear_block(self, monkeypatch):
        problem = self.PROBLEMS["latlrr3"]()
        nuclear = self._nuclear(problem)
        rejected = []
        original = solvers._bt_scale

        def scale(ctx, blocks, state, mu):
            rejected.append(len(nuclear.intersection(blocks)))
            return original(ctx, blocks, state, mu)

        monkeypatch.setattr(solvers, "_bt_scale", scale)
        calls, made = self._svt_calls(monkeypatch)
        result = run(problem, "madmm-bt", self._config(eta_scale=1e-3))
        assert result.state.k == 20
        assert result.state.backtrack_count == len(rejected)
        assert sum(rejected) > 0
        assert len(calls) == 2 * 20 + sum(rejected)
        assert max(calls) <= 1 and sum(calls) == len(made)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("schedule", ["geometric", "adaptive"])
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_trace_objective_scores_the_iterate(self, name, schedule, workers):
        problem = self.PROBLEMS[name]()
        base = dict(max_iter=40, beta0=1e-2, schedule=schedule)
        configs = [(kind, self._config(**base)) for kind in SOLVER_KINDS]
        # A small backtracking seed forces rejected phases.
        configs.append(("madmm-bt", self._config(eta_scale=1e-3, **base)))
        ran = 0
        for kind, config in configs:
            try:
                prepare_context(problem, kind, config)
            except (UnsupportedSubproblemError, ValueError):
                continue  # the kind does not run on this problem
            result, iterates = run_observed(problem, kind, config, workers=workers)
            assert result.state.k == 40
            if config.eta_scale == 1e-3:
                assert result.state.backtrack_count > 0
            for row, x in zip(result.trace, iterates):
                want = problem.objective(x)
                assert abs(row.objective - want) <= 1e-12 * abs(want), (kind, row.k)
            ran += 1
        assert ran >= 5

    def test_carried_values_score_their_own_iterate(self):
        problem = self.PROBLEMS["latlrr3"]()
        ctx = prepare_context(problem, "madmm-bt", self._config(eta_scale=1e-3))
        out_shape = problem.family.out_shape
        state = SolverState(
            x=BlockVector.zeros(problem.block_shapes),
            lam=np.zeros(out_shape),
            beta=1e-2,
            eta=[g.eta for g in ctx.G0],
        )
        for _ in range(6):
            step(state, ctx)
            x, _, _, values, _ = state.images
            assert x is state.x
            known = {i: v for i, v in values.items() if v is not None}
            assert set(known) == self._nuclear(problem)
            for i, v in known.items():
                want = problem.terms[i].value(x[i])
                assert abs(v - want) <= 1e-12 * max(want, 1.0)
        assert state.backtrack_count > 0
        # A replaced iterate steps like a fresh state with the same weights.
        other = BlockVector(
            random_blocks(np.random.default_rng(74), problem.block_shapes)
        )
        state.x, state.lam, state.beta = other, np.zeros(out_shape), 1e-2
        ref = SolverState(
            x=other, lam=np.zeros(out_shape), beta=1e-2, eta=list(state.eta)
        )
        step(state, ctx)
        step(ref, ctx)
        np.testing.assert_array_equal(state.x.flat, ref.x.flat)
        assert state.images[3] == ref.images[3]


def _grid_subspace():
    """The data of the hash grid's latlrr3 problems (``tools/hash_runs.py``)."""
    return make_subspace_data(0, d=10, rank=2, n_subspaces=3, per_subspace=6)


def _latlrr3():
    return build_latent_lrr(
        make_subspace_data(5, d=10, per_subspace=6), lam=0.1, formulation="3-block"
    )


def _rank_deficient_latlrr3():
    """latlrr3 whose stacked factor ``F = [1^T; X]`` repeats a row."""
    X = make_subspace_data(5, d=10, per_subspace=6)
    X[1] = X[0]
    return build_latent_lrr(X, lam=0.1, formulation="3-block")


def _gapped_latlrr3():
    """latlrr3 with a row ``L - W = 0`` between Z's two rows.

    Z acts in rows 0 and 2, so its rows in the stacked space are not back
    to back; ``W`` is a fourth block with a squared Frobenius term.
    """
    X = make_subspace_data(5, d=10, per_subspace=6)
    d, n = X.shape
    ones = np.ones((1, n))
    z, l, e = (n, n), (d, d), (d, n)
    rows = [
        ((LeftMultiplyOp(ones, z), None, None, None), ones),
        (
            (None, ScaledIdentityOp(1.0, l), None, ScaledIdentityOp(-1.0, l)),
            np.zeros(l),
        ),
        (
            (
                LeftMultiplyOp(X, z),
                RightMultiplyOp(X, l),
                ScaledIdentityOp(-1.0, e),
                None,
            ),
            X,
        ),
    ]
    terms = (
        ProxFunction("nuclear"),
        ProxFunction("nuclear"),
        ProxFunction("sq-frobenius", 0.1),
        ProxFunction("sq-frobenius", 1.0),
    )
    return ProblemSpec(
        "latlrr3-gapped",
        rows,
        (z, l, e, l),
        terms,
        recommended_partition=Partition((0,), (1, 2, 3), case="user"),
        data={"X": X},
    )


def _gesvd_threshold(V, t):
    """``(X, s)``: singular value thresholding by LAPACK ``gesvd``."""
    U, sv, Wt = scipy.linalg.svd(V, full_matrices=False, lapack_driver="gesvd")
    keep = sv > t
    kept = sv[keep] - t
    return (U[:, keep] * kept) @ Wt[keep], kept


class TestRangeBasis:
    """A nuclear block under left multiplies solves in the coordinates of
    ``range(F^T)``."""

    @staticmethod
    def _svt_shapes(monkeypatch):
        shapes, svt = [], prox._svt

        def spy(V, t):
            shapes.append(V.shape)
            return svt(V, t)

        monkeypatch.setattr(prox, "_svt", spy)
        return shapes

    @staticmethod
    def _coords_read(monkeypatch):
        """The ``coords`` of each ``assemble_block`` call for block 0 (``Z``),
        ``None`` for the full path."""
        read, assemble = [], solvers.assemble_block

        def spy(ctx, i, y, c, s_full, beta, G, smooth_res, out=None, coords=None):
            if i == 0:
                read.append(coords)
            return assemble(ctx, i, y, c, s_full, beta, G, smooth_res, out, coords)

        monkeypatch.setattr(solvers, "assemble_block", spy)
        return read

    @classmethod
    def _z_updates(cls, monkeypatch):
        """Every update of block 0 (``Z``): ``(plan, Y, s_full, beta, eta, Z,
        X, value)``. ``Y`` is the ``coords`` its ``assemble_block`` call read
        (``None``: the full path); ``s_full``, ``beta`` and the level ``eta``
        are its phase's; ``Z``, ``X`` and ``value`` are the block, coordinates
        (``None``: none) and term value its phase gave, ``Z`` lifted as ``Q
        X`` from coordinates, as the phase leaves its slice unwritten."""
        seen, read = [], cls._coords_read(monkeypatch)
        phase = solvers._run_phase

        def spy_phase(ctx, blocks, y, c, r, z, lam, beta, eta):
            read.clear()
            x, images, values, coords = phase(ctx, blocks, y, c, r, z, lam, beta, eta)
            if 0 in blocks:
                (Y,), X = read, coords.get(0)
                seen.append(
                    (
                        ctx.plans[0],
                        Y,
                        r + lam / beta,
                        beta,
                        eta[0],
                        x[0].copy() if Y is None else ctx.plans[0].basis.Q @ X,
                        X,
                        values[0],
                    )
                )
            return x, images, values, coords

        monkeypatch.setattr(solvers, "_run_phase", spy_phase)
        return seen

    def test_basis_spans_the_stacked_left_factors(self):
        problem = build_latent_lrr(_grid_subspace(), formulation="3-block")
        ctx = prepare_context(problem, "madmm", SolverConfig())
        Z, L, E = ctx.plans
        assert L.basis is None and E.basis is None
        F = np.vstack([np.ones((1, 18)), problem.data["X"]])
        Q, R, rows, out_shape = Z.basis
        assert Q.shape == (18, 11) and R.shape == (11, 11)
        assert rows == slice(0, 11 * 18)
        assert out_shape == problem.family.out_shape
        np.testing.assert_allclose(Q.T @ Q, np.eye(11), atol=1e-14)
        np.testing.assert_array_equal(R, np.triu(R))
        np.testing.assert_allclose(Q @ R, F.T, atol=1e-13)
        # In coordinates the block's operator is X -> A Q X, with adjoint
        # u -> Q^T A^T u.
        rng = np.random.default_rng(4)
        X, u = rng.standard_normal((11, 18)), rng.standard_normal(out_shape)
        for got, want in (
            (Z.basis.apply(X), Z.op.apply(Q @ X)),
            (Z.basis.adjoint(u), Q.T @ Z.op.adjoint(u)),
        ):
            atol = 1e-13 * np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)

    @pytest.mark.parametrize("kind", ["madmm", "madmm-bt", "jacobi"])
    def test_rank_deficient_and_gapped_factors(self, kind, monkeypatch):
        # F with a repeated row still has F^T = Q R, with a null pivot; rows
        # apart in the stacked space are gathered in F's order. Every Z
        # update of the run solves in carried coordinates (TestGroupedEngine
        # checks the iterates against the full-space engine).
        problems = (_rank_deficient_latlrr3(), _gapped_latlrr3())
        bases = []
        for problem in problems:
            Q, R, rows, _ = prepare_context(problem, kind, SolverConfig()).plans[0].basis
            X = problem.data["X"]
            F = np.vstack([np.ones((1, X.shape[1])), X])
            np.testing.assert_allclose(Q @ R, F.T, atol=1e-13)
            s_flat = np.arange(problem.family.out_shape[0], dtype=float)
            U = s_flat[rows].reshape(F.shape)
            op = problem.family.operators[0]
            want = F.T @ U
            atol = 1e-14 * np.abs(want).max()
            np.testing.assert_allclose(op.adjoint(s_flat), want, rtol=0, atol=atol)
            bases.append((R, rows))
        (R, _), (_, rows) = bases
        assert np.min(np.abs(np.diag(R))) < 1e-12 * np.max(np.abs(R))
        assert not isinstance(rows, slice)
        seen = self._z_updates(monkeypatch)
        config = SolverConfig(max_iter=40, eps_primal=0.0, eps_step=0.0)
        for problem in problems:
            seen.clear()
            assert run(problem, kind, config).state.k == 40
            assert len(seen) >= 40
            assert all(Y is not None and X is not None for _, Y, *_, X, _ in seen)

    @pytest.mark.parametrize("kind", ["madmm", "madmm-bt", "jacobi", "l-admm-ps"])
    def test_every_update_reads_carried_coordinates(self, kind, monkeypatch):
        # The zero start carries Q^T 0 = 0, and each update carries the X
        # it wrote as Q X: every Z update, the first included, assembles in
        # the coordinates the last accepted one wrote (a retry under
        # madmm-bt reads those its rejected try read).
        problem = build_latent_lrr(_grid_subspace(), formulation="3-block")
        seen = self._z_updates(monkeypatch)
        result = run(problem, kind, SolverConfig())
        assert result.stop_reason == "converged"
        assert len(seen) >= result.state.k
        assert all(Y is not None and X is not None for _, Y, *_, X, _ in seen)
        np.testing.assert_array_equal(seen[0][1], np.zeros((11, 18)))
        for (_, Y, *_, X, _), (_, Y_next, *_) in zip(seen, seen[1:]):
            assert Y_next is X or kind == "madmm-bt" and Y_next is Y

    @pytest.mark.parametrize(
        "build", [_latlrr3, _rank_deficient_latlrr3, _gapped_latlrr3]
    )
    @pytest.mark.parametrize("kind", ["madmm", "madmm-bt", "jacobi"])
    def test_the_iterate_is_the_image_of_its_coordinates(
        self, kind, build, monkeypatch
    ):
        # An observer sees Z written as fl(Q X) from the coordinates that
        # are its iterate, at every iterate.
        problem = build()
        Q = prepare_context(problem, kind, SolverConfig()).plans[0].basis.Q
        checked = []

        def observe(state):
            x, _, _, _, z = state.images
            assert x is state.x and list(z) == [0]
            np.testing.assert_array_equal(x[0], Q @ z[0])
            checked.append(state.k)

        config = SolverConfig(max_iter=40, eps_primal=0.0, eps_step=0.0)
        assert run(problem, kind, config, observe=observe).state.k == 40
        assert checked == list(range(1, 41))

    def test_a_retried_phase_reads_its_rejected_coordinates(self, monkeypatch):
        problem = build_latent_lrr(_subspace(), lam=0.1, formulation="3-block")
        calls, original = [], solvers._run_phase
        read = self._coords_read(monkeypatch)

        def spy(ctx, blocks, y, c, r, z, *rest):
            read.clear()
            out = original(ctx, blocks, y, c, r, z, *rest)
            calls.append((blocks, z, dict(z), out[3], list(read)))
            return out

        rejected, scale = [], solvers._bt_scale

        def counted(ctx, blocks, state, mu):
            rejected.append(len(calls) - 1)
            return scale(ctx, blocks, state, mu)

        monkeypatch.setattr(solvers, "_run_phase", spy)
        monkeypatch.setattr(solvers, "_bt_scale", counted)
        # Z in the second phase, whose small seed weights get rejected.
        config = SolverConfig(
            max_iter=20,
            eps_primal=0.0,
            eps_step=0.0,
            eta_scale=1e-3,
            partition=Partition((1,), (0, 2)),
        )
        assert run(problem, "madmm-bt", config).state.k == 20
        assert rejected and all(calls[j][0] == (0, 2) for j in rejected)
        for j in rejected:
            (blocks, z, before, wrote, got), (again, z_again, *_, got_again) = calls[
                j : j + 2
            ]
            assert again == blocks and z_again is z
            # Both tries assembled Z in the coordinates the phase read; the
            # rejected one neither changed them nor handed its own to the
            # retry.
            assert len(got) == len(got_again) == 1
            assert got[0] is z[0] and got_again[0] is z[0]
            assert z.keys() == before.keys() == {0}
            assert all(z[i] is before[i] for i in z)
            assert wrote[0] is not z[0]

    def test_a_replaced_iterate_takes_the_full_path(self, monkeypatch):
        # Coordinates belong to the iterate that carries them. A state whose
        # iterate was replaced, here by the same values in another object,
        # gets new images with none, and its Z then solves in full space,
        # bitwise as the per-block reference, on that step and the next.
        problem = build_latent_lrr(_grid_subspace(), formulation="3-block")
        config = SolverConfig(max_iter=4, eps_primal=0.0, eps_step=0.0)
        state = run(problem, "madmm", config).state
        assert list(state.images[4]) == [0]
        state.x = state.x.copy()
        ref = SolverState(
            x=state.x.copy(),
            lam=state.lam.copy(),
            beta=state.beta,
            eta=list(state.eta),
        )
        ctx = prepare_context(problem, "madmm", config)
        seen = self._z_updates(monkeypatch)
        for _ in range(4):
            step(state, ctx)
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "_run_phase", reference_run_phase)
                step(ref, ctx)
            assert state.images[4] == {}
            np.testing.assert_array_equal(state.x.flat, ref.x.flat)
            np.testing.assert_array_equal(state.lam, ref.lam)
        assert len(seen) == 4
        assert all(Y is None and X is None for _, Y, *_, X, _ in seen)

    @pytest.mark.parametrize(
        "problem",
        [
            build_latent_lrr(_subspace(), formulation="2-block"),  # smooth term
            build_lrr(_subspace(), _subspace()),
            build_latent_lrr(_subspace(), formulation="3-block"),
        ],
        ids=["latlrr2", "lrr", "latlrr3"],
    )
    def test_only_a_nuclear_block_under_left_multiplies_has_one(self, problem):
        kind = "madmm" if problem.smooth is None else "pl-admm-ps"
        ctx = prepare_context(problem, kind, SolverConfig())
        with_basis = [plan.index for plan in ctx.plans if plan.basis is not None]
        assert with_basis == ([0] if problem.name == "latlrr3" else [])

    def test_no_basis_for_a_tall_factor_or_a_smooth_term(self):
        rng = np.random.default_rng(3)
        nuclear = ProxFunction("nuclear")
        cases = (
            ((2, 4), 0.0, True),
            ((6, 4), 0.0, False),
            ((4, 4), 0.0, False),
            ((2, 4), 1.0, False),
        )
        for factor, smooth_eta, has in cases:
            op = LeftMultiplyOp(rng.standard_normal(factor), (4, 3))
            G = WeightMatrix.identity_minus_gram(2.0 * op.op_norm_sq, op)
            plan = _plan_block(_mini(op, nuclear), 0, G, smooth_eta)
            assert (plan.basis is not None) == has, (factor, smooth_eta)

    @pytest.mark.parametrize("kind", ["madmm", "madmm-bt", "jacobi", "l-admm-ps"])
    def test_set_up_certifies_each_factor_once_and_forms_no_gram(
        self, kind, monkeypatch
    ):
        # The certificates of 1^T and X, once each; no left or right
        # multiply forms its Gram, though the solve plans the QR of F^T.
        problem = build_latent_lrr(_grid_subspace(), formulation="3-block")
        certified, real = [], blockspace.dense_norm_sq

        def counted(M):
            certified.append(M)
            return real(M)

        def no_gram(self):
            raise AssertionError("Gram formed")

        monkeypatch.setattr(blockspace, "dense_norm_sq", counted)
        for cls in (LeftMultiplyOp, RightMultiplyOp):
            monkeypatch.setattr(cls, "gram_rep", no_gram)
        ctx = prepare_context(problem, kind, SolverConfig())
        assert [M.shape for M in certified] == [(1, 18), (10, 18)]
        assert certified[1] is problem.data["X"]
        assert ctx.plans[0].basis is not None

    @pytest.mark.parametrize("scale", [1.0, 100.0, 1000.0])
    @pytest.mark.parametrize("kind", ["madmm", "madmm-bt", "jacobi"])
    def test_reduced_thresholding_agrees_with_gesvd(self, scale, kind, monkeypatch):
        # Every Z update of the grid's latlrr3 runs (x1: mostly zero, x100:
        # eigh of the Gram, x1000: the SVD) solves in carried coordinates Y
        # and lies within _RangeBasis's bound of a gesvd thresholding of the
        # full-space prox input V, rebuilt here from the anchor Q Y.
        problem = build_latent_lrr(scale * _grid_subspace(), formulation="3-block")
        shapes = self._svt_shapes(monkeypatch)
        seen = self._z_updates(monkeypatch)
        config = SolverConfig(max_iter=40, eps_primal=0.0, eps_step=0.0)
        assert run(problem, kind, config).state.k == 40
        assert len(seen) >= 40
        assert shapes.count((11, 18)) == len(seen) and (18, 18) not in shapes
        for plan, Y, s_full, beta, eta, Z, X, value in seen:
            assert Y is not None and X is not None
            q = beta * eta
            Q, t = plan.basis.Q, 1.0 / q
            V = -(beta * plan.op.adjoint(s_full) - q * (Q @ Y)) / q
            v_norm = np.linalg.norm(V)
            resid = np.linalg.norm(V - Q @ (Q.T @ V))
            assert resid <= 1e-12 * v_norm
            want, kept = _gesvd_threshold(V, t)
            assert np.linalg.norm(Z - want) <= resid + 1e-12 * v_norm
            assert value == pytest.approx(float(np.sum(kept)), rel=1e-10, abs=1e-300)

    def test_an_anchor_off_the_range_takes_the_full_path(self, monkeypatch):
        # Without carried coordinates an anchor in the range and one off it
        # both solve in full space, bitwise as the per-block reference; with
        # them the one in the range solves in them, within rounding of it.
        problem = build_latent_lrr(100.0 * _grid_subspace(), formulation="3-block")
        ctx = prepare_context(problem, "madmm", SolverConfig())
        A, Q = problem.family, ctx.plans[0].basis.Q
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((11, 18))
        inside = Q @ Y
        off = rng.standard_normal((18, 18))
        off -= Q @ (Q.T @ off)
        lam, beta = rng.standard_normal(A.out_shape), 0.5
        rest = random_blocks(rng, problem.block_shapes[1:])
        shapes = self._svt_shapes(monkeypatch)
        for z, carried, shape in (
            (inside, {}, (18, 18)),
            (off, {}, (18, 18)),
            (inside, {0: Y}, (11, 18)),
        ):
            y = BlockVector([z, *rest])
            c = [op.apply(blk) for op, blk in zip(A.operators, y.blocks)]
            r = A.image_sum(c) - problem.b
            eta = [g.eta for g in ctx.G0]
            args = (ctx, (0,), y, c, r, carried, lam, beta, eta)
            shapes.clear()
            got_x, got_c, _, got_z = solvers._run_phase(*args)
            assert shapes == [shape]
            assert list(got_z) == list(carried)
            want_x, want_c, _, _ = reference_run_phase(*args)
            if not carried:
                np.testing.assert_array_equal(got_x[0], want_x[0])
                np.testing.assert_array_equal(got_c[0], want_c[0])
            else:
                # The coordinates are the iterate; the slice is not written.
                np.testing.assert_array_equal(got_x[0], y[0])
                s_full = r + lam / beta
                lin = assemble_block(ctx, 0, y, c, s_full, beta, eta[0], None)[2]
                bound = 1e-12 * np.linalg.norm(lin) / (beta * eta[0])
                assert np.linalg.norm(Q @ got_z[0] - want_x[0]) <= bound
                bound *= math.sqrt(ctx.plans[0].op.op_norm_sq)
                assert np.linalg.norm(got_c[0] - want_c[0]) <= bound

    def test_one_qr_per_operator(self, monkeypatch):
        # The basis is kept on Z's operator: a second solve of the same
        # problem factors nothing and runs bitwise as on a fresh build.
        def build():
            return build_latent_lrr(100.0 * _grid_subspace(), formulation="3-block")

        config = SolverConfig(max_iter=30, eps_primal=0.0, eps_step=0.0)
        fresh = run(build(), "madmm", config)
        problem = build()
        qrs, dgeqrf = [], scipy.linalg.lapack.dgeqrf

        def counted(*args, **kwargs):
            qrs.append(args[0].shape)
            return dgeqrf(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dgeqrf", counted)
        first = prepare_context(problem, "jacobi", config)
        second = prepare_context(problem, "madmm", config)
        assert qrs == [(18, 11)]
        assert second.plans[0].basis is first.plans[0].basis
        # R is kept beside Q, from the same factorization.
        Q, R, *_ = first.plans[0].basis
        F = np.vstack([np.ones((1, 18)), problem.data["X"]])
        np.testing.assert_array_equal(R, np.triu(R))
        np.testing.assert_allclose(Q @ R, F.T, rtol=0, atol=1e-13 * np.abs(F).max())
        again = run(problem, "madmm", config)
        assert qrs == [(18, 11)]
        np.testing.assert_array_equal(again.state.x.flat, fresh.state.x.flat)
        np.testing.assert_array_equal(again.state.lam, fresh.state.lam)

    @pytest.mark.parametrize("kind", ["madmm", "jacobi", "madmm-bt"])
    def test_two_workers_are_bitwise_one(self, kind):
        problem = build_latent_lrr(100.0 * _grid_subspace(), formulation="3-block")
        config = SolverConfig(max_iter=30, eps_primal=0.0, eps_step=0.0)
        one = run(problem, kind, config, workers=1)
        two = run(problem, kind, config, workers=2)
        np.testing.assert_array_equal(one.state.x.flat, two.state.x.flat)
        np.testing.assert_array_equal(one.state.lam, two.state.lam)
        assert [row.objective for row in one.trace] == [
            row.objective for row in two.trace
        ]


# Digests of latlrr3 runs at the benchmark's size (``perfbench``'s
# instances, seeds 0-2), each over the trace without its step norm and wall
# time, the final iterate, multiplier, penalty, levels and stop reason. They
# were recorded before the range coordinates became the iterate inside a
# run, with one OpenBLAS thread (the Haswell kernels of numpy 2.4's
# scipy-openblas on x86-64); another BLAS build may round differently.
_DIGEST_SCRIPT = """
import hashlib
from dataclasses import astuple
from mmadmm import SolverConfig, build_latent_lrr, make_subspace_data, run

for seed in range(3):
    X = make_subspace_data(seed, d=50)
    problem = build_latent_lrr(X, lam=0.1, formulation="3-block")
    for kind in ("madmm", "madmm-bt", "jacobi", "l-admm-ps", "pl-admm-ps"):
        schedules = ("geometric", "adaptive") if kind == "madmm" else ("geometric",)
        for schedule in schedules:
            result = run(problem, kind, SolverConfig(schedule=schedule))
            h = hashlib.sha256()
            for row in result.trace:
                k, obj, res, rel, beta, _, bt, _ = astuple(row)
                h.update(repr((k, obj, res, rel, beta, bt)).encode())
            state = result.state
            h.update(state.x.flat.tobytes())
            h.update(state.lam.tobytes())
            tail = (state.k, state.beta, list(state.eta), result.stop_reason)
            h.update(repr(tail).encode())
            print(seed, kind, schedule, state.k, h.hexdigest()[:16])
"""
_RUN_DIGESTS = """\
0 madmm geometric 74 641294ec1ec53912
0 madmm adaptive 79 ddfd97d4b57604fe
0 madmm-bt geometric 75 02b88a7c60df2fee
0 jacobi geometric 75 15de7d1e2a2aa087
0 l-admm-ps geometric 75 5c6b1f7b81927897
0 pl-admm-ps geometric 75 5c6b1f7b81927897
1 madmm geometric 73 df12bb3b86296dcd
1 madmm adaptive 78 380f846f3415718a
1 madmm-bt geometric 73 b0f566082e839a6c
1 jacobi geometric 73 2220f233906c538a
1 l-admm-ps geometric 73 7c12127b3af2a849
1 pl-admm-ps geometric 73 7c12127b3af2a849
2 madmm geometric 74 2a7329bc889f92cc
2 madmm adaptive 77 4d7f56d3b2a3882b
2 madmm-bt geometric 75 5f8ebdbd6f70edc9
2 jacobi geometric 76 f43276c746db075a
2 l-admm-ps geometric 76 d99ea06dc5a01c5f
2 pl-admm-ps geometric 76 d99ea06dc5a01c5f
"""


class TestCoordinatesAreTheIterate:
    """Inside a run, a range-basis block's iterate is its coordinates ``X``;
    ``fl(Q X)`` is written only where the iterate leaves the engine."""

    @staticmethod
    def _problem():
        """latlrr3 on scaled data, whose Z moves from the first iterate."""
        return build_latent_lrr(100.0 * _grid_subspace(), formulation="3-block")

    @staticmethod
    def _lifts(monkeypatch):
        """The coordinates ``_RangeBasis.lift`` writes, one per product."""
        lifts, lift = [], solvers._RangeBasis.lift

        def counted(basis, X, out):
            lifts.append(X)
            return lift(basis, X, out)

        monkeypatch.setattr(solvers._RangeBasis, "lift", counted)
        return lifts

    def test_runs_are_bitwise_those_recorded(self):
        # Iterates, multipliers, objectives, residuals, iteration counts
        # and the adaptive schedule's penalty path are the recorded ones.
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": str(ROOT / "src"),
        }
        done = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == _RUN_DIGESTS

    @pytest.mark.parametrize("kind", ["madmm", "madmm-bt", "jacobi", "l-admm-ps"])
    def test_step_norm_is_the_full_space_step(self, kind):
        # From the coordinates, within rounding of the step between the
        # complete iterates an observer sees, and bitwise the same with an
        # observer as without one.
        problem = self._problem()
        config = SolverConfig(max_iter=60, eps_primal=0.0, eps_step=0.0)
        plain = run(problem, kind, config)
        seen = [np.zeros_like(plain.state.x.flat)]

        def observe(state):
            seen.append(state.x.flat.copy())

        observed = run(problem, kind, config, observe=observe)
        steps = [row.step_norm for row in observed.trace]
        assert steps == [row.step_norm for row in plain.trace]
        np.testing.assert_array_equal(observed.state.x.flat, plain.state.x.flat)
        assert len(seen) == 61
        for got, new, old in zip(steps, seen[1:], seen):
            assert got == pytest.approx(np.linalg.norm(new - old), rel=1e-12, abs=0)

    @pytest.mark.parametrize("kind", ["madmm", "madmm-bt", "jacobi"])
    def test_one_product_per_block_without_an_observer(self, kind, monkeypatch):
        # One product when the run returns, converged or at its budget, and
        # the returned Z is it; none at a zero budget; one per iterate for
        # an observer.
        problem = self._problem()
        Q = prepare_context(problem, kind, SolverConfig()).plans[0].basis.Q
        lifts = self._lifts(monkeypatch)
        for config, stop in (
            (SolverConfig(eps_primal=1e-2, eps_step=1e-2), "converged"),
            (SolverConfig(max_iter=30, eps_primal=0.0, eps_step=0.0), "budget"),
        ):
            lifts.clear()
            result = run(problem, kind, config)
            assert result.stop_reason == stop and result.state.k > 1
            assert len(lifts) == 1
            x, *_, z = result.state.images
            assert x is result.state.x
            np.testing.assert_array_equal(x[0], Q @ z[0])
        lifts.clear()
        run(problem, kind, SolverConfig(max_iter=0))
        assert lifts == []
        config = SolverConfig(max_iter=7, eps_primal=0.0, eps_step=0.0)
        run(problem, kind, config, observe=lambda state: None)
        assert len(lifts) == 7

    def test_the_adaptive_schedule_reads_the_coordinates(self):
        # Z's slices of both iterates agree, as inside a run; its step is
        # the one between its coordinates, and only that step holds the
        # penalty back.
        problem = self._problem()
        ctx = prepare_context(problem, "madmm", SolverConfig(schedule="adaptive"))
        x = BlockVector.zeros(problem.block_shapes)
        X = np.zeros((ctx.plans[0].basis.Q.shape[1], x[0].shape[1]))
        grown = ctx.config.rho * 1.0
        assert solvers._next_beta(ctx, 1.0, x, x.copy(), {0: X}, {0: X}) == grown
        assert solvers._next_beta(ctx, 1.0, x, x.copy(), {0: X + 1.0}, {0: X}) == 1.0

    def test_a_direct_step_leaves_a_complete_iterate(self):
        problem = self._problem()
        config = SolverConfig(max_iter=5, eps_primal=0.0, eps_step=0.0)
        state = run(problem, "madmm", config).state
        ctx = prepare_context(problem, "madmm", config)
        Q = ctx.plans[0].basis.Q
        for _ in range(3):
            step(state, ctx)
            x, *_, z = state.images
            assert x is state.x and list(z) == [0]
            np.testing.assert_array_equal(state.x[0], Q @ z[0])
            assert np.any(state.x[0] != 0.0)

    def test_divergence_carries_a_complete_iterate(self):
        # Z's weight a twentieth of its default: the run diverges, and the
        # iterate it carries has Z written from its coordinates.
        problem = self._problem()
        ctx = prepare_context(problem, "jacobi", SolverConfig())
        weights = list(ctx.G0)
        weights[0] = WeightMatrix.identity_minus_gram(
            0.05 * weights[0].eta, problem.family.operators[0]
        )
        config = SolverConfig(
            beta0=1.0,
            rho=1.0,
            max_iter=2000,
            eps_primal=0.0,
            eps_step=0.0,
            weights=weights,
        )
        with pytest.warns(RuntimeWarning), pytest.raises(DivergenceError) as err:
            run(problem, "jacobi", config)
        state = err.value.result.state
        x, *_, z = state.images
        assert x is state.x and list(z) == [0]
        Q = ctx.plans[0].basis.Q
        np.testing.assert_array_equal(state.x[0], Q @ z[0])
        assert np.any(state.x[0] != 0.0)


class TestAssemblyReference:
    """``assemble_block`` equals the term-by-term model for every weight form."""

    def _check(self, problem, kind, config, seed):
        rng = np.random.default_rng(seed)
        ctx = prepare_context(problem, kind, config)
        A = problem.family
        for _ in range(3):
            y = BlockVector(random_blocks(rng, problem.block_shapes))
            c = [op.apply(blk) for op, blk in zip(A.operators, y.blocks)]
            lam = rng.standard_normal(A.out_shape)
            beta = float(10.0 ** rng.uniform(-1.0, 1.0))
            s_full = A.apply(y) - problem.b + lam / beta
            smooth_res = None
            if ctx.smooth is not None:
                smooth_res = ctx.smooth.residual(y)
            for i in range(A.n):
                G = ctx.G0[i]
                got = assemble_block(ctx, i, y, c, s_full, beta, G.eta, smooth_res)
                want = reference_assembly(ctx, i, y, s_full, beta, G, smooth_res)
                assert got[0] == pytest.approx(want[0], rel=1e-12)
                assert got[1] == want[1]
                err = np.linalg.norm(got[2] - want[2])
                assert err <= 1e-12 * np.linalg.norm(want[2])
        return ctx

    def test_every_weight_form(self):
        problem = quad_problem(
            74, d=6, dims=(3, 4, 2, 5), weights=(1.0, 2.0, 1.5, 0.5)
        )
        ops = problem.family.operators
        weights = [
            WeightMatrix.zero(),
            WeightMatrix.scaled_identity(3.0),
            WeightMatrix.identity_minus_gram(4.0 * ops[2].op_norm_sq, ops[2]),
            WeightMatrix.scaled_gram(1.5, ops[3], ridge=0.1),
        ]
        ctx = self._check(problem, "jacobi", SolverConfig(weights=weights), 74)
        assert ctx.G0 == weights

    def test_preset_weights(self):
        problem = quad_problem(75, d=6, dims=(3, 4, 2), weights=(1.0, 2.0, 0.5))
        for kind in ("l-admm-ps", "gl-admm-ps"):
            self._check(problem, kind, SolverConfig(), 75)

    def test_smooth_coupling(self):
        X = np.random.default_rng(76).standard_normal((4, 5))
        problem = build_latent_lrr(X, lam=0.7, formulation="2-block")
        ctx = self._check(problem, "pl-admm-ps", SolverConfig(), 76)
        assert all(plan.smooth_eta > 0.0 for plan in ctx.plans)
