"""Block vectors, operators, norm certificates, and weight matrices."""

import numpy as np
import pytest

from mmadmm.blockspace import (
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
    ZeroOp,
    combined_op_norm_sq,
    dense_matrix,
    detect_row_groups,
    estimate_op_norm_sq,
    gram_cross_is_zero,
    residual,
    stack_rows,
    WeightMatrix,
)

from helpers import family_dense, op_dense


def _op_zoo(seed=0):
    """One operator of every kind, paired with nothing; dense via op_dense."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((4, 6))
    mask = (rng.random((4, 6)) < 0.5).astype(float)
    dense = rng.standard_normal((5, 3))
    return [
        DenseMatrixOp(dense),
        ScaledIdentityOp(1.7, (4,)),
        LeftMultiplyOp(X, (6, 2)),
        RightMultiplyOp(X, (2, 4)),
        MaskProjectionOp(mask),
        NegationOp(DenseMatrixOp(dense)),
        ZeroOp((3,), (5,)),
    ]


# ---------------------------------------------------------------------------
# BlockVector
# ---------------------------------------------------------------------------


class TestBlockVector:
    def test_algebra_matches_numpy(self):
        rng = np.random.default_rng(1)
        a = BlockVector([rng.standard_normal((3,)), rng.standard_normal((2, 2))])
        b = BlockVector([rng.standard_normal((3,)), rng.standard_normal((2, 2))])
        s = a + b
        d = a - b
        for i in range(2):
            np.testing.assert_array_equal(s[i], a[i] + b[i])
            np.testing.assert_array_equal(d[i], a[i] - b[i])
        np.testing.assert_array_equal((2.5 * a)[0], 2.5 * a[0])
        np.testing.assert_array_equal((a * 2.5)[1], 2.5 * a[1])

    def test_dot_and_norms(self):
        rng = np.random.default_rng(2)
        a = BlockVector([rng.standard_normal((4,)), rng.standard_normal((3, 2))])
        b = BlockVector([rng.standard_normal((4,)), rng.standard_normal((3, 2))])
        want = float(a[0] @ b[0] + np.sum(a[1] * b[1]))
        assert a.dot(b) == pytest.approx(want, abs=1e-14)
        assert a.norm_sq() == pytest.approx(a.dot(a), abs=1e-14)
        assert a.norm() == pytest.approx(np.sqrt(a.norm_sq()), abs=1e-14)
        assert a.block_norms() == tuple(np.linalg.norm(blk) for blk in a.blocks)

    def test_zeros_copy_replace(self):
        z = BlockVector.zeros([(2,), (3, 1)])
        assert z.shapes == ((2,), (3, 1))
        assert z.norm() == 0.0
        r = z.replace(1, np.ones((3, 1)))
        assert z.norm() == 0.0
        assert r[1].sum() == 3.0
        c = r.copy()
        c.blocks[0][0] = 9.0
        assert r[0][0] == 0.0

    def test_shape_mismatch_raises(self):
        a = BlockVector([np.zeros(2)])
        b = BlockVector([np.zeros(3)])
        with pytest.raises(DimensionError):
            a + b
        with pytest.raises(DimensionError):
            a.dot(b)
        with pytest.raises(DimensionError):
            a.replace(0, np.zeros(3))


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


class TestOperators:
    def test_adjoint_identity_all_kinds(self):
        rng = np.random.default_rng(3)
        for op in _op_zoo():
            for _ in range(100):
                x = rng.standard_normal(op.in_shape)
                y = rng.standard_normal(op.out_shape)
                lhs = float(np.vdot(op.apply(x), y))
                rhs = float(np.vdot(x, op.adjoint(y)))
                bound = 1e-10 * (
                    np.linalg.norm(x) * np.linalg.norm(y) + 1.0
                )
                assert abs(lhs - rhs) <= bound

    def test_norm_certificate_exact_inequality(self):
        rng = np.random.default_rng(4)
        for op in _op_zoo():
            c = op.op_norm_sq
            for _ in range(100):
                v = rng.standard_normal(op.in_shape)
                av = op.apply(v)
                assert float(np.vdot(av, av)) <= c * float(np.vdot(v, v))

    def test_norm_matches_dense_svd(self):
        for op in _op_zoo():
            exact = 0.0
            M = op_dense(op)
            if M.size:
                s = np.linalg.svd(M, compute_uv=False)
                exact = float(s[0]) ** 2 if s.size else 0.0
            assert op.op_norm_sq >= exact * (1 - 1e-12)
            assert op.op_norm_sq <= exact * (1 + 1e-6) + 1e-12

    def test_gram_apply_equals_adjoint_apply(self):
        rng = np.random.default_rng(5)
        for op in _op_zoo():
            v = rng.standard_normal(op.in_shape)
            np.testing.assert_allclose(
                op.gram_apply(v), op.adjoint(op.apply(v)), atol=1e-12
            )

    def test_gram_rep_action_matches_adjoint_apply(self):
        rng = np.random.default_rng(21)
        for op in _op_zoo():
            rep = op.gram_rep()
            if rep is None:
                continue
            tag, payload = rep
            v = rng.standard_normal(op.in_shape)
            if tag == "scalar":
                implied = payload * v
            elif tag == "diag":
                implied = payload * v
            elif tag == "left":
                implied = payload @ v
            elif tag == "right":
                implied = v @ payload
            else:
                assert tag == "dense"
                implied = (payload @ v.ravel()).reshape(op.in_shape)
            np.testing.assert_allclose(
                implied, op.adjoint(op.apply(v)), atol=1e-10
            )

    def test_input_shape_checked(self):
        op = DenseMatrixOp(np.ones((2, 3)))
        with pytest.raises(DimensionError):
            op.apply(np.zeros(4))
        with pytest.raises(DimensionError):
            op.adjoint(np.zeros(3))


class TestResidual:
    def test_feasible_scalar_pair(self):
        ops = (ScaledIdentityOp(1.0, (1,)), ScaledIdentityOp(1.0, (1,)))
        A, b = stack_rows([(ops, np.array([2.0]))], [(1,), (1,)])
        x = BlockVector([np.array([1.0]), np.array([1.0])])
        np.testing.assert_array_equal(residual(A, x, b), [0.0])

    def test_identity_single_block(self):
        v = np.array([1.5, -2.0])
        A, b = stack_rows(
            [((ScaledIdentityOp(1.0, (2,)),), np.zeros(2))], [(2,)]
        )
        np.testing.assert_array_equal(residual(A, x := BlockVector([v]), b), v)

    def test_two_block_matrix_case(self):
        ops = (
            DenseMatrixOp(np.eye(2)),
            DenseMatrixOp(np.array([[2.0], [0.0]])),
        )
        A, b = stack_rows([(ops, np.zeros(2))], [(2,), (1,)])
        x = BlockVector([np.array([1.0, 1.0]), np.array([1.0])])
        np.testing.assert_array_equal(residual(A, x, b), [3.0, 1.0])


class TestNormEstimate:
    def test_identity(self):
        est = estimate_op_norm_sq(ScaledIdentityOp(1.0, (3,)))
        assert est.converged
        assert 1.0 <= est.value <= 1.0 + 1e-5

    def test_diagonal_matrix(self):
        est = estimate_op_norm_sq(DenseMatrixOp(np.diag([3.0, 1.0])))
        assert est.converged
        assert 9.0 * (1 - 1e-9) <= est.value <= 9.0 * (1 + 1e-4)

    def test_zero_operator(self):
        est = estimate_op_norm_sq(ZeroOp((3,), (2,)))
        assert est.converged
        assert est.value == 0.0

    def test_budget_exhausted_falls_back_to_trace(self):
        M = np.diag([2.0, 1.999999])
        est = estimate_op_norm_sq(DenseMatrixOp(M), tol=1e-14, max_iter=2)
        assert not est.converged
        assert est.value == pytest.approx(np.trace(M.T @ M))
        assert est.value >= 4.0

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            estimate_op_norm_sq(ScaledIdentityOp(1.0, (2,)), tol=0.0)


class TestCombinedNorm:
    def test_matches_stacked_svd(self):
        rng = np.random.default_rng(6)
        ops = tuple(DenseMatrixOp(rng.standard_normal((5, m))) for m in (2, 3, 4))
        A, _ = stack_rows([(ops, np.zeros(5))], [(2,), (3,), (4,)])
        got = combined_op_norm_sq(A, [0, 2])
        M = np.hstack([op_dense(ops[0]), op_dense(ops[2])])
        exact = float(np.linalg.svd(M, compute_uv=False)[0]) ** 2
        assert exact * (1 - 1e-4) <= got <= exact * (1 + 1e-4)

    def test_empty_selection(self):
        rng = np.random.default_rng(7)
        ops = (DenseMatrixOp(rng.standard_normal((3, 2))),)
        A, _ = stack_rows([(ops, np.zeros(3))], [(2,)])
        assert combined_op_norm_sq(A, []) == 0.0


class TestGramCross:
    def test_disjoint_stacked_rows_structural(self):
        ops_row1 = (DenseMatrixOp(np.ones((2, 2))), None)
        ops_row2 = (None, DenseMatrixOp(np.ones((3, 2))))
        A, _ = stack_rows(
            [(ops_row1, np.zeros(2)), (ops_row2, np.zeros(3))],
            [(2,), (2,)],
        )
        assert gram_cross_is_zero(A.operators[0], A.operators[1])

    def test_identity_pair_not_orthogonal(self):
        a = ScaledIdentityOp(1.0, (3,))
        assert not gram_cross_is_zero(a, ScaledIdentityOp(1.0, (3,)))

    def test_dense_vs_negation_not_orthogonal(self):
        rng = np.random.default_rng(8)
        op = DenseMatrixOp(rng.standard_normal((5, 3)))
        assert not gram_cross_is_zero(op, NegationOp(op))

    def test_disjoint_masks_structural(self):
        m1 = np.zeros((3, 3))
        m1[0] = 1.0
        m2 = np.zeros((3, 3))
        m2[2] = 1.0
        assert gram_cross_is_zero(MaskProjectionOp(m1), MaskProjectionOp(m2))
        assert gram_cross_is_zero(
            MaskProjectionOp(m1), NegationOp(MaskProjectionOp(m2))
        )
        assert not gram_cross_is_zero(MaskProjectionOp(m1), MaskProjectionOp(m1))

    def test_zero_operator_always_orthogonal(self):
        z = ZeroOp((2,), (3,))
        d = DenseMatrixOp(np.ones((3, 2)))
        assert gram_cross_is_zero(z, d)

    def test_numeric_orthogonality_detected(self):
        a = DenseMatrixOp(np.array([[1.0], [0.0]]))
        b = DenseMatrixOp(np.array([[0.0], [1.0]]))
        assert gram_cross_is_zero(a, b)

    def test_space_mismatch_raises(self):
        with pytest.raises(DimensionError):
            gram_cross_is_zero(ZeroOp((2,), (3,)), ZeroOp((2,), (4,)))


# ---------------------------------------------------------------------------
# Weight matrices
# ---------------------------------------------------------------------------


def _weight_zoo(seed=0):
    rng = np.random.default_rng(seed)
    op = DenseMatrixOp(rng.standard_normal((4, 3)))
    eta = op.op_norm_sq * 1.25
    return op, [
        WeightMatrix.zero(),
        WeightMatrix.scaled_identity(2.0),
        WeightMatrix.identity_minus_gram(eta, op),
        WeightMatrix.scaled_gram(1.5, op, ridge=0.3),
    ]


class TestWeightMatrix:
    def test_norm_sq_matches_dense_quadratic(self):
        rng = np.random.default_rng(9)
        _, zoo = _weight_zoo()
        for G in zoo:
            D = G.to_dense((3,))
            for _ in range(20):
                v = rng.standard_normal(3)
                want = float(v @ D @ v)
                assert G.norm_sq(v) == pytest.approx(
                    want, abs=1e-10 * (abs(want) + 1)
                )

    def test_mat_vec_matches_dense(self):
        rng = np.random.default_rng(10)
        _, zoo = _weight_zoo()
        for G in zoo:
            D = G.to_dense((3,))
            v = rng.standard_normal(3)
            np.testing.assert_allclose(G.mat_vec(v), D @ v, atol=1e-10)

    def test_hand_examples(self):
        assert WeightMatrix.zero().norm_sq(np.array([1.0, 1.0])) == 0.0
        assert WeightMatrix.scaled_identity(2.0).norm_sq(np.array([1.0, 1.0])) == 4.0
        G = WeightMatrix.identity_minus_gram(3.0, DenseMatrixOp(np.eye(2)))
        v = np.array([1.0, 2.0])
        assert G.norm_sq(v) == pytest.approx(10.0, abs=1e-12)

    def test_eta_below_gram_raises(self):
        G = WeightMatrix.identity_minus_gram(0.5, ScaledIdentityOp(1.0, (2,)))
        with pytest.raises(InvalidWeightError):
            G.norm_sq(np.array([1.0, 1.0]))

    def test_constructor_validation(self):
        with pytest.raises(InvalidWeightError):
            WeightMatrix("diagonal")
        with pytest.raises(InvalidWeightError):
            WeightMatrix.scaled_identity(-1.0)
        with pytest.raises(InvalidWeightError):
            WeightMatrix("scaled-identity-minus-gram", eta=1.0)
        with pytest.raises(InvalidWeightError):
            WeightMatrix("explicit")
        with pytest.raises(InvalidWeightError):
            WeightMatrix("scaled-gram", gram_coef=1.0)

    def test_iso_split(self):
        op, zoo = _weight_zoo()
        assert zoo[0].iso_split() == (0.0, 0.0, None)
        assert zoo[1].iso_split() == (2.0, 0.0, None)
        iso, coef, got = zoo[2].iso_split()
        assert (coef, got) == (-1.0, op) and iso == zoo[2].eta
        assert zoo[3].iso_split() == (0.3, 1.5, op)

    def test_pythagoras_identities(self):
        rng = np.random.default_rng(12)
        _, zoo = _weight_zoo()
        for G in zoo:
            for _ in range(20):
                u = rng.standard_normal(3)
                v = rng.standard_normal(3)
                lhs = G.norm_sq(u + v)
                cross = float(u @ G.mat_vec(v))
                rhs = G.norm_sq(u) + 2 * cross + G.norm_sq(v)
                assert lhs == pytest.approx(rhs, abs=1e-12 * (abs(lhs) + 1))
                polar = 0.25 * (G.norm_sq(u + v) - G.norm_sq(u - v))
                assert polar == pytest.approx(cross, abs=1e-12 * (abs(cross) + 1))


# ---------------------------------------------------------------------------
# Stacking and structure
# ---------------------------------------------------------------------------


class TestStacking:
    def test_single_row_keeps_natural_shape(self):
        ops = (DenseMatrixOp(np.ones((3, 2))), None)
        A, b = stack_rows([(ops, np.zeros((3,)))], [(2,), (4,)])
        assert A.out_shape == (3,)
        assert isinstance(A.operators[1], ZeroOp)
        assert len(A.row_groups) == 1
        assert A.row_groups[0].active == (0,)

    def test_multi_row_stacks_and_groups(self):
        rng = np.random.default_rng(13)
        B1 = rng.standard_normal((2, 3))
        B2 = rng.standard_normal((4, 3))
        rows = [
            ((DenseMatrixOp(B1), None), rng.standard_normal(2)),
            ((DenseMatrixOp(B2), ScaledIdentityOp(1.0, (4,))), rng.standard_normal(4)),
        ]
        A, b = stack_rows(rows, [(3,), (4,)])
        assert A.out_shape == (6,)
        assert b.shape == (6,)
        assert all(isinstance(op, StackedOp) for op in A.operators)
        assert tuple(g.active for g in A.row_groups) == ((0,), (0, 1))
        x = BlockVector([rng.standard_normal(3), rng.standard_normal(4)])
        want = np.concatenate([B1 @ x[0], B2 @ x[0] + x[1]])
        np.testing.assert_allclose(A.apply(x), want, atol=1e-12)
        u = rng.standard_normal(6)
        adj = A.adjoint(u)
        np.testing.assert_allclose(
            adj[0], B1.T @ u[:2] + B2.T @ u[2:], atol=1e-12
        )
        np.testing.assert_allclose(adj[1], u[2:], atol=1e-12)

    def test_row_length_mismatch_raises(self):
        with pytest.raises(DimensionError):
            stack_rows([((None,), np.zeros(2))], [(2,), (3,)])

    def test_dense_matrix_matches_columnwise_materialization(self):
        rng = np.random.default_rng(14)
        ops = (
            DenseMatrixOp(rng.standard_normal((3, 2))),
            DenseMatrixOp(rng.standard_normal((3, 4))),
        )
        A, _ = stack_rows([(ops, np.zeros(3))], [(2,), (4,)])
        np.testing.assert_allclose(dense_matrix(A), family_dense(A), atol=1e-12)

    def test_detect_row_groups_on_block_diagonal(self):
        M1 = np.array([[1.0, 2.0], [0.0, 3.0]])
        M2 = np.array([[4.0], [5.0]])
        top = np.vstack([M1, np.zeros((2, 2))])
        bottom = np.vstack([np.zeros((2, 1)), M2])
        A = BlockOperatorFamily(
            (DenseMatrixOp(top), DenseMatrixOp(bottom)), (4,)
        )
        grouped = detect_row_groups(A)
        actives = sorted(g.active for g in grouped.row_groups)
        assert actives == [(0,), (1,)]
        exact = {
            0: np.linalg.svd(M1, compute_uv=False)[0] ** 2,
            1: np.linalg.svd(M2, compute_uv=False)[0] ** 2,
        }
        for g in grouped.row_groups:
            i = g.active[0]
            assert g.norm_sq_of(i) == pytest.approx(exact[i], rel=1e-5)
            assert grouped.operators[i].op_norm_sq >= exact[i] * (1 - 1e-12)

    def test_family_validates_constraint_space(self):
        with pytest.raises(DimensionError):
            BlockOperatorFamily(
                (ZeroOp((2,), (3,)), ZeroOp((2,), (4,))), (3,)
            )

    def test_row_group_validation(self):
        with pytest.raises(ValueError):
            RowGroup((0, 1), (1.0,))
        g = RowGroup((1, 3), (2.0, 5.0))
        assert g.count() == 2
        assert g.norm_sq_of(3) == 5.0
        with pytest.raises(ValueError):
            g.norm_sq_of(0)
