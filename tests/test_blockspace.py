"""Block vectors, operators, norm certificates, and weight matrices."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from mmadmm import blockspace
from mmadmm.blockspace import (
    BlockOperatorFamily,
    BlockVector,
    DenseMatrixOp,
    DimensionError,
    InvalidWeightError,
    LeftMultiplyOp,
    MaskProjectionOp,
    RightMultiplyOp,
    ScaledIdentityOp,
    StackedOp,
    ZeroOp,
    certified_lambda_max,
    combined_op_norm_sq,
    dense_matrix,
    dense_norm_sq,
    estimate_op_norm_sq,
    gram_cross_is_zero,
    residual,
    stack_rows,
    WeightMatrix,
)

from mmadmm.problems import (
    DataGenSpec,
    build_nonneg_sparse_coding,
    make_subspace_data,
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
        ScaledIdentityOp(-1.0, (5,)),
        ZeroOp((3,), (5,)),
    ]


def _ill_conditioned_zoo():
    """Matrices whose top squared singular value is hard to certify tightly."""
    rng = np.random.default_rng(30)

    def with_spectrum(shape, s):
        U = np.linalg.qr(rng.standard_normal((shape[0], len(s))))[0]
        V = np.linalg.qr(rng.standard_normal((shape[1], len(s))))[0]
        return (U * s) @ V.T

    graded = np.logspace(0, -16, 30)
    clustered = np.r_[1 + 1e-14, 1.0, 1.0 - 1e-14, np.linspace(0.9, 0.1, 27)]
    return [
        with_spectrum((40, 30), graded),
        with_spectrum((30, 200), graded),
        with_spectrum((200, 30), graded),
        with_spectrum((40, 30), clustered),
        with_spectrum((30, 500), clustered),
        np.outer(rng.standard_normal(40), rng.standard_normal(300)),
        rng.standard_normal((1, 2000)),
        rng.standard_normal((2000, 1)),
        rng.standard_normal((1, 1)),
        1e150 * rng.standard_normal((30, 400)),
        1e-150 * rng.standard_normal((400, 30)),
        1e150 * with_spectrum((30, 200), graded),
        1e-150 * with_spectrum((40, 30), clustered),
    ]


def _top_sq_references(M):
    """References for ``||M||_2^2``: LAPACK gesvd's ``sigma_max^2``, then,
    where ``np.longdouble`` is wider than float, the Rayleigh quotient of
    the longdouble Gram at the float Gram's top eigenvector, which cannot
    exceed the Gram's ``lambda_max`` but by longdouble rounding."""
    refs = [scipy.linalg.svd(M, compute_uv=False, lapack_driver="gesvd")[0] ** 2]
    if np.finfo(np.longdouble).eps < np.finfo(float).eps:
        S = M if M.shape[0] <= M.shape[1] else M.T
        S = S / np.max(np.abs(S))  # overflow-free; undone in longdouble
        v = np.linalg.eigh(S @ S.T)[1][:, -1].astype(np.longdouble)
        L = (M if M.shape[0] <= M.shape[1] else M.T).astype(np.longdouble)
        refs.append((v @ (L @ L.T) @ v) / (v @ v))
    return refs


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

    def test_no_blocks_raises(self):
        for build in (lambda: BlockVector([]), lambda: BlockVector.zeros(())):
            with pytest.raises(DimensionError, match="at least one block"):
                build()


class TestPackedBlockVector:
    """One flat buffer with per-block views; algebra against a per-block loop."""

    @staticmethod
    def _pair(seed):
        rng = np.random.default_rng(seed)
        shapes = [(5,), (3, 4), (), (2, 1, 3), (1,)]
        return [
            BlockVector([rng.standard_normal(s) for s in shapes]) for _ in range(2)
        ]

    def test_blocks_are_views_of_flat(self):
        a, _ = self._pair(3)
        assert a.flat.dtype == np.float64 and a.flat.ndim == 1
        assert a.flat.size == sum(blk.size for blk in a.blocks)
        assert a.shapes == ((5,), (3, 4), (), (2, 1, 3), (1,))
        for blk, shape in zip(a.blocks, a.shapes):
            assert blk.shape == shape
            assert np.shares_memory(blk, a.flat)
        replaced = a.replace(1, np.ones((3, 4)))
        for v in (a + a, a - a, 2.0 * a, a * 2.0, a.copy(), replaced):
            assert all(np.shares_memory(blk, v.flat) for blk in v.blocks)

    def test_algebra_matches_per_block_reference(self):
        a, b = self._pair(4)
        pairs = list(zip(a.blocks, b.blocks))
        for got, want in (
            (a + b, [x + y for x, y in pairs]),
            (a - b, [x - y for x, y in pairs]),
            (1.7 * a, [1.7 * x for x, _ in pairs]),
            (a * -0.3, [-0.3 * x for x, _ in pairs]),
        ):
            for g, w in zip(got.blocks, want):
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)
        dot = sum(float(np.vdot(x, y)) for x, y in pairs)
        assert a.dot(b) == pytest.approx(dot, rel=1e-12)
        norm = np.sqrt(sum(float(np.vdot(x, x)) for x, _ in pairs))
        assert a.norm() == pytest.approx(norm, rel=1e-12)
        assert a.norm_sq() == pytest.approx(norm**2, rel=1e-12)
        want = [float(np.linalg.norm(x)) for x, _ in pairs]
        np.testing.assert_allclose(a.block_norms(), want, rtol=1e-12, atol=0)

    def test_equal_size_other_shapes_raise(self):
        a = BlockVector([np.zeros((2, 2)), np.zeros(3)])
        b = BlockVector([np.zeros(4), np.zeros(3)])
        assert a.flat.size == b.flat.size
        for combine in (
            lambda: a + b,
            lambda: a - b,
            lambda: a.dot(b),
            lambda: a.replace(0, np.zeros(4)),
        ):
            with pytest.raises(DimensionError):
                combine()

    def test_no_aliasing_with_sources_or_copies(self):
        src = [np.arange(3.0), np.ones((2, 2))]
        v = BlockVector(src)
        src[0][0] = 99.0
        src[1][:] = -1.0
        np.testing.assert_array_equal(v[0], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(v[1], np.ones((2, 2)))
        c = v.copy()
        r = v.replace(0, np.full(3, 5.0))
        c.flat[:] = 7.0
        r.blocks[1][0, 0] = 8.0
        np.testing.assert_array_equal(v.flat, [0.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(r[0], np.full(3, 5.0))
        assert not np.shares_memory(c.flat, v.flat)
        assert not np.shares_memory(r.flat, v.flat)


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

    def test_dense_certificate_bounds_benchmark_shapes(self):
        # Blocks shaped like the nnsc benchmark's, the real blocks of three
        # benchmark instances (up to 50x1000), their stacked case-I
        # prefixes as the footnote certifies them, latlrr3's X, and an
        # ill-conditioned zoo: no certificate may sit below a reference by
        # any amount, nor above gesvd's by 1e-10 relative.
        rng = np.random.default_rng(0)
        mats = [rng.standard_normal((50, 10 * (i + 1))) for i in range(100)]
        for seed in range(3):
            problem = build_nonneg_sparse_coding(
                DataGenSpec(seed, sparsity=0.1, d=50, n=100)
            )
            mats += [op.matrix for op in problem.family.operators]
        blocks = mats[-100:]
        order = sorted(range(100), key=lambda i: -dense_norm_sq(blocks[i]))
        mats += [np.hstack([blocks[i] for i in order[:n1]]) for n1 in (2, 3)]
        mats.append(make_subspace_data(0, d=50))
        cases = [(M, [DenseMatrixOp(M)]) for M in mats]
        cases += [
            (
                M,
                [
                    DenseMatrixOp(M),
                    LeftMultiplyOp(M, (M.shape[1], 3)),
                    RightMultiplyOp(M, (3, M.shape[0])),
                ],
            )
            for M in _ill_conditioned_zoo()
        ]
        for M, ops in cases:
            top_sq, *wider = _top_sq_references(M)
            for op in ops:
                cert = op.op_norm_sq
                assert cert >= top_sq
                assert all(np.longdouble(cert) >= ref for ref in wider)
                assert cert <= top_sq * (1 + 1e-10)

    def test_dense_certificate_copies_nothing(self):
        # The Gram comes from the matrix itself: before, the scaled copy
        # alone took M.nbytes. Entries of 1e+-150 still take the scaled
        # copy, which keeps their Gram away from overflow and underflow.
        M = np.random.default_rng(0).standard_normal((50, 1000))

        def peak(matrix):
            tracemalloc.start()
            try:
                dense_norm_sq(matrix)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for matrix in (M, M.T):
            assert peak(matrix) < M.nbytes / 2
        for scale in (1e150, 1e-150):
            assert peak(scale * M) >= M.nbytes

    def test_certificate_at_the_edges_of_the_copy_free_range(self):
        # Top entries of binary exponent +-128 are certified from the
        # matrix itself, +-129 from its scaled copy; both must bound the
        # norm, and stay tight.
        rng = np.random.default_rng(31)
        B = rng.standard_normal((30, 200))
        B /= 2.0 ** math.frexp(np.abs(B).max())[1]  # top entry in [1/2, 1)
        top_sq, *wider = _top_sq_references(B)
        for e in (-129, -128, 128, 129):
            cert = Fraction(dense_norm_sq(np.ldexp(B, e)))
            assert cert >= Fraction(top_sq) * 2 ** (2 * e)
            for ref in wider:
                assert cert >= Fraction(float(ref)) * (1 - 2**-60) * 2 ** (2 * e)
            assert cert <= Fraction(top_sq) * (1 + Fraction(1, 10**10)) * 2 ** (2 * e)

    @pytest.mark.parametrize(
        "rows, widths",
        [
            (50, (990, 990, 990)),  # nnsc's prefixes
            (50, (160, 320)),
            (50, (0, 161, 0, 7)),  # empty pieces
            (400, (80, 159, 1)),  # tall pieces: each forms its M M^T
            (3, (1,)),
        ],
    )
    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
    def test_stacked_certificate_is_the_formed_stack(self, rows, widths, scale):
        # The pieces side by side are certified from the Grams their own
        # certificates keep, never formed: the result bounds the formed
        # stack's squared norm and is as tight as its certificate.
        rng = np.random.default_rng(rows + len(widths))
        mats = [scale * rng.standard_normal((rows, w)) for w in widths]
        got = blockspace._gram_sum_norm_sq([DenseMatrixOp(M) for M in mats])
        top_sq, *wider = _top_sq_references(np.hstack(mats))
        assert got >= top_sq
        assert all(np.longdouble(got) >= ref for ref in wider)
        assert got <= top_sq * (1 + 1e-10)

    def test_stacked_certificate_of_pieces_at_distant_scales(self):
        # One piece at 2^-1000 beside one at 1: its weight 2^-2000
        # underflows, and the sum still bounds the stack and barely moves.
        # A lone piece at 2^+-300 is certified in its own units and scaled
        # back.
        rng = np.random.default_rng(33)
        B, C = rng.standard_normal((4, 5)), rng.standard_normal((4, 3))
        ops = [DenseMatrixOp(np.ldexp(B, -1000)), DenseMatrixOp(C)]
        got = blockspace._gram_sum_norm_sq(ops)
        alone = blockspace._gram_sum_norm_sq(ops[1:])
        assert alone <= got <= alone * (1 + 1e-15)
        zero = DenseMatrixOp(np.zeros((4, 2)))
        unit = blockspace._gram_sum_norm_sq([DenseMatrixOp(B), zero])
        for e in (-300, 300):
            got = blockspace._gram_sum_norm_sq([DenseMatrixOp(np.ldexp(B, e)), zero])
            assert got == pytest.approx(math.ldexp(unit, 2 * e), rel=1e-15)
        assert blockspace._gram_sum_norm_sq([zero]) == 0.0

    def test_stacked_certificate_refusals(self):
        bad = np.ones((2, 3))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite entries"):
            blockspace._gram_sum_norm_sq(
                [DenseMatrixOp(np.ones((2, 2))), DenseMatrixOp(bad)]
            )
        # Two pieces of squared norm 1.69e308 each: theirs are floats, the
        # sum's overflows.
        huge = [DenseMatrixOp(np.full((1, 1), 1.3e154))] * 2
        assert math.isfinite(huge[0].op_norm_sq)
        with pytest.raises(ValueError, match="overflows the float range"):
            blockspace._gram_sum_norm_sq(huge)
        # A matrix with no entries has norm 0.
        assert dense_norm_sq(np.ones((0, 3))) == dense_norm_sq(np.ones((3, 0))) == 0.0

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3, 4), (1, 1, 1)])
    def test_dense_certificate_needs_a_matrix(self, shape):
        # A 1-d input raised a bare IndexError and a 3-d one "too many
        # values to unpack".
        message = re.escape(f"dense_norm_sq needs a 2-d matrix, got shape {shape}")
        with pytest.raises(ValueError, match=message):
            dense_norm_sq(np.ones(shape))

    def test_rounded_down_gram_is_covered(self):
        # Each square of 1 + 2^-47 rounds down to 1 + 2^-46, and once the
        # running Gram sum passes 2^14 every partial sum drops its tail: the
        # computed Gram sits ~1e-14 below the exact one, past the
        # eigensolver's margin, so only the Gram rounding bound covers it.
        x = 1 + 2.0**-47
        n = 60000
        for M in (np.full((1, n), x), np.full((n, 1), x), np.full((2, n), x)):
            exact = M.size * Fraction(x) ** 2
            cert = DenseMatrixOp(M).op_norm_sq
            assert Fraction(cert) >= exact
            assert cert <= float(exact) * (1 + 1e-10)

    def test_overflowing_norm_is_refused(self):
        # A finite matrix whose squared norm is past the float range.
        for M in (1e160 * np.ones((3, 2)), 1e154 * np.ones((3, 2))):
            for op in (
                DenseMatrixOp(M),
                LeftMultiplyOp(M, (2, 4)),
                RightMultiplyOp(M.T, (4, 2)),
            ):
                with pytest.raises(ValueError, match="squared norm overflows"):
                    op.op_norm_sq
        # Just inside the range it still certifies: 6 * (5e153)^2 ~ 1.5e308.
        M = 5e153 * np.ones((3, 2))
        cert = DenseMatrixOp(M).op_norm_sq
        assert math.isfinite(cert)
        assert Fraction(cert) >= 6 * Fraction(M[0, 0]) ** 2

    def test_subnormal_norm_rounds_up(self):
        # ||M||^2 ~ 1e-320 lies below the normal range, where a relative
        # guard does nothing: the certificate must still bound it.
        for c, shape in ((1e-160, (3, 2)), (3e-162, (5, 7)), (1e-170, (2, 1))):
            M = c * np.ones(shape)
            exact = shape[0] * shape[1] * Fraction(M[0, 0]) ** 2
            for op in (
                DenseMatrixOp(M),
                LeftMultiplyOp(M, (shape[1], 4)),
                RightMultiplyOp(M.T, (4, shape[1])),
            ):
                assert Fraction(op.op_norm_sq) >= exact
        rng = np.random.default_rng(12)
        for shape in ((50, 300), (7, 3)):
            M = np.ldexp(rng.standard_normal(shape), -540)
            top_sq, *wider = _top_sq_references(np.ldexp(M, 540))
            exact = max([Fraction(top_sq)] + [Fraction(float(r)) for r in wider])
            assert Fraction(DenseMatrixOp(M).op_norm_sq) >= exact / 2**1080

    def test_empty_and_zero_matrices_certify_zero(self):
        for M in (np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((4, 5))):
            assert DenseMatrixOp(M).op_norm_sq == 0.0
            assert LeftMultiplyOp(M, (M.shape[1], 2)).op_norm_sq == 0.0
            assert RightMultiplyOp(M, (2, M.shape[0])).op_norm_sq == 0.0

    def test_certified_lambda_max_adds_the_rounding(self):
        G = np.diag([4.0, 1.0])
        assert certified_lambda_max(G, 0.0) >= 4.0
        assert certified_lambda_max(G, 0.5) >= 4.5
        assert certified_lambda_max(np.zeros((2, 2)), 0.0) == 0.0
        assert certified_lambda_max(np.zeros((0, 0)), 0.0) == 0.0
        # Only the lower triangle is read.
        lower = np.array([[1.0, 100.0], [0.0, 1.0]])
        assert certified_lambda_max(lower, 0.0) == pytest.approx(1.0, rel=1e-12)
        # Exact integer Grams, where the eigensolver's error is all there is
        # to cover: its top eigenvalue reads below the exact one on most.
        rng = np.random.default_rng(14)
        for d in (2, 3, 5, 8, 13, 20, 30, 50):
            for _ in range(3):
                B = rng.integers(-9, 10, size=(d, 3 * d)).astype(float)
                G = B @ B.T
                top_sq, *wider = _top_sq_references(B)
                cert = certified_lambda_max(G, 0.0)
                assert cert >= top_sq
                assert all(np.longdouble(cert) >= ref for ref in wider)
                assert cert <= top_sq * (1 + 1e-12)

    @pytest.mark.parametrize(
        "grams,rounding,message",
        [
            (np.eye(2), -1.0, "rounding must be finite and nonnegative, got -1.0"),
            (np.eye(2), math.nan, "rounding must be finite and nonnegative, got nan"),
            (np.eye(2), math.inf, "rounding must be finite and nonnegative, got inf"),
            (np.array([[1.0, 0.0], [math.nan, 1.0]]), 0.0, "grams has non-finite"),
            (np.array([[math.inf]]), 0.0, "grams has non-finite"),
            (np.ones((2, 3)), 0.0, r"grams must be a square 2-d array, got shape \(2, 3\)"),
            (np.ones(4), 0.0, r"grams must be a square 2-d array, got shape \(4,\)"),
            (np.ones((1, 1, 1)), 0.0, "grams must be a square 2-d array"),
        ],
    )
    def test_certified_lambda_max_rejects_bad_arguments(self, grams, rounding, message):
        # Each returned a value below lambda_max (0.0 for eye(2) and -1.0),
        # returned nan, or died inside numpy.
        with pytest.raises(ValueError, match="certified_lambda_max: " + message):
            certified_lambda_max(grams, rounding)

    def test_gram_kind_matches_gram_rep(self):
        for op in _op_zoo():
            assert op.gram_kind() == op.gram_rep()[0]

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

    def test_mask_entries_must_be_zero_or_one(self):
        # A mask [[2, 0], [1, 1]] would certify 1.0 where ||A||^2 is 4.
        for bad in ([[2.0, 0.0], [1.0, 1.0]], [[0.5, 1.0]], [[math.nan, 1.0]]):
            with pytest.raises(ValueError, match="mask entries must be 0 or 1"):
                MaskProjectionOp(np.array(bad))
        op = MaskProjectionOp(np.array([[True, False], [False, True]]))
        assert op.op_norm_sq == 1.0
        assert op.gram_rep()[1].tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_non_finite_scale_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="identity scale must be finite"):
                ScaledIdentityOp(bad, (2,))

    def test_bool_scale_rejected(self):
        for flag in (True, False, np.True_):
            message = f"identity scale must be a number, got {re.escape(repr(flag))}"
            with pytest.raises(ValueError, match=message):
                ScaledIdentityOp(flag, (2,))

    def test_non_finite_factor_has_no_certificate(self):
        # Each of these certified NaN, or failed deep inside the SVD.
        for bad in (math.nan, math.inf):
            M = np.ones((3, 2))
            M[1, 0] = bad
            for op in (
                DenseMatrixOp(M),
                LeftMultiplyOp(M, (2, 4)),
                RightMultiplyOp(M.T, (4, 2)),
            ):
                with pytest.raises(ValueError, match="non-finite entries"):
                    op.op_norm_sq

    def test_input_shape_checked(self):
        op = DenseMatrixOp(np.ones((2, 3)))
        with pytest.raises(DimensionError):
            op.apply(np.zeros(4))
        with pytest.raises(DimensionError):
            op.adjoint(np.zeros(3))


class TestOperatorShapes:
    """Each operator refuses a factor or piece that does not fit its block."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: DenseMatrixOp(np.ones(3)), "needs a 2-d matrix"),
            (lambda: LeftMultiplyOp(np.ones(3), (3, 2)), "2-d factor and block"),
            (lambda: LeftMultiplyOp(np.ones((2, 3)), (3,)), "2-d factor and block"),
            (lambda: LeftMultiplyOp(np.ones((2, 3)), (4, 2)), "columns must match"),
            (lambda: RightMultiplyOp(np.ones(3), (2, 3)), "2-d factor and block"),
            (lambda: RightMultiplyOp(np.ones((3, 2)), (3,)), "2-d factor and block"),
            (lambda: RightMultiplyOp(np.ones((3, 2)), (2, 4)), "rows must match"),
            (
                lambda: StackedOp([(0, (3,), ScaledIdentityOp(1.0, (2,)))], 3, (2,)),
                "piece shape mismatch",
            ),
            (
                lambda: StackedOp([(0, (2,), ScaledIdentityOp(1.0, (2,)))], 2, (3,)),
                "input-shape mismatch",
            ),
        ],
    )
    def test_mismatch_raises(self, build, message):
        with pytest.raises(DimensionError, match=message):
            build()

    @pytest.mark.parametrize(
        "build, shape",
        [
            (lambda: ScaledIdentityOp(1.0, (-1,)), "(-1,)"),
            (lambda: ScaledIdentityOp(1.0, (2.5,)), "(2.5,)"),
            (lambda: ScaledIdentityOp(1.0, (True, 2)), "(True, 2)"),
            (lambda: ZeroOp((-2,), (3,)), "(-2,)"),
            (lambda: ZeroOp((2,), (3.0,)), "(3.0,)"),
            (lambda: LeftMultiplyOp(np.ones((2, 2)), (2, -3)), "(2, -3)"),
        ],
    )
    def test_dimension_must_be_a_nonnegative_integer(self, build, shape):
        message = re.escape(f"shape {shape} needs nonnegative integer dimensions")
        with pytest.raises(DimensionError, match=message):
            build()

    def test_zero_size_and_numpy_dimensions_are_legal(self):
        assert DenseMatrixOp(np.ones((0, 3))).op_norm_sq == 0.0
        op = ZeroOp((np.int64(0), 2), (np.int32(3),))
        assert (op.in_shape, op.out_shape) == ((0, 2), (3,))
        assert all(type(n) is int for n in op.in_shape + op.out_shape)

    def test_family_needs_an_operator_and_one_block_each(self):
        with pytest.raises(DimensionError, match="at least one operator"):
            BlockOperatorFamily((), (2,))
        A = BlockOperatorFamily((ScaledIdentityOp(1.0, (2,)),) * 2, (2,))
        with pytest.raises(DimensionError, match="expected 2 blocks, got 1"):
            A.apply(BlockVector([np.ones(2)]))


def _stacked_norm_sq(ops):
    """``sigma_max^2`` of ``[A_j / sqrt(cert_j)]`` over the nonzero pieces."""
    live = [op for op in ops if op.op_norm_sq > 0.0]
    stack = np.hstack([op.matrix / math.sqrt(op.op_norm_sq) for op in live])
    s = scipy.linalg.svd(stack, compute_uv=False, lapack_driver="gesvd")
    return float(s[0]) ** 2


class TestDenseRowConstant:
    @pytest.mark.parametrize("scale", [1.0, 2.0**-300, 2.0**300])
    @pytest.mark.parametrize(
        "rows, widths",
        [(6, (3, 4)), (8, (3, 4, 2, 5)), (5, (7, 1, 9)), (4, (4, 4)), (3, (400, 2))],
    )
    def test_is_the_stacked_norm(self, rows, widths, scale):
        rng = np.random.default_rng(rows * 100 + sum(widths))
        ops = [DenseMatrixOp(scale * rng.standard_normal((rows, m))) for m in widths]
        c = blockspace.dense_row_constant(ops)
        top = _stacked_norm_sq(ops)
        assert top <= c <= top * (1.0 + 1e-10)
        assert c <= len(ops)

    def test_mixed_scales_and_a_zero_piece(self):
        rng = np.random.default_rng(7)
        ops = [
            DenseMatrixOp(2.0**-400 * rng.standard_normal((5, 6))),
            DenseMatrixOp(np.zeros((5, 3))),
            DenseMatrixOp(2.0**200 * rng.standard_normal((5, 2))),
            DenseMatrixOp(rng.standard_normal((5, 4))),
        ]
        top = _stacked_norm_sq(ops)
        assert top <= blockspace.dense_row_constant(ops) <= top * (1.0 + 1e-10)

    def test_no_bound_from_other_pieces_or_a_tall_stack(self):
        rng = np.random.default_rng(8)
        dense = DenseMatrixOp(rng.standard_normal((4, 3)))
        other = ScaledIdentityOp(1.0, (4,))
        assert blockspace.dense_row_constant([dense, other]) == math.inf
        # 3 + 0 columns against 4 rows: the stacked input Gram is smaller.
        zero = DenseMatrixOp(np.zeros((4, 5)))
        assert blockspace.dense_row_constant([dense, zero]) == math.inf
        assert blockspace.dense_row_constant([zero, zero]) == 0.0
        assert blockspace.dense_row_constant([]) == 0.0

    def test_reads_each_gram_the_certificates_keep(self, monkeypatch):
        # Each piece forms one Gram for its certificate; a tall piece forms
        # its M M^T once more, and a second reading forms none.
        rng = np.random.default_rng(9)
        ops = [DenseMatrixOp(rng.standard_normal((6, m))) for m in (8, 2, 6, 3)]
        calls = []
        real = blockspace._dense_gram

        def counted(matrix, out=False):
            calls.append(out)
            return real(matrix, out)

        monkeypatch.setattr(blockspace, "_dense_gram", counted)
        certs = [op.op_norm_sq for op in ops]
        assert calls == [False] * 4
        first = blockspace.dense_row_constant(ops)
        assert calls == [False] * 4 + [True] * 2
        assert blockspace.dense_row_constant(ops) == first
        assert len(calls) == 6
        # Keeping M M^T leaves each certificate as it was.
        assert [op.op_norm_sq for op in ops] == certs
        for op in ops:
            gram = op._output_gram()
            assert gram.out and gram.H.shape == (6, 6)

    def test_kept_gram_is_the_certificates_own(self):
        # The certificate read from the kept Gram is dense_norm_sq's, bit
        # for bit, on every nnsc block.
        ops = build_nonneg_sparse_coding(DataGenSpec(0, d=50, n=100)).family.operators
        for op in ops:
            assert op.op_norm_sq == dense_norm_sq(op.matrix)
            assert op._gram.out == (op.in_shape[0] >= 50)
            assert blockspace._gram_norm_sq(op._gram) == op.op_norm_sq


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

    def test_rhs_shape_checked(self):
        A, _ = stack_rows([((DenseMatrixOp(np.eye(2)),), np.zeros(2))], [(2,)])
        with pytest.raises(DimensionError, match="rhs shape"):
            residual(A, BlockVector([np.ones(2)]), np.zeros(3))

    def test_apply_is_the_image_sum_in_block_order(self):
        rng = np.random.default_rng(264)
        ops = tuple(DenseMatrixOp(rng.standard_normal((3, m))) for m in (2, 4, 1))
        A = BlockOperatorFamily(ops, (3,))
        x = BlockVector([rng.standard_normal(m) for m in (2, 4, 1)])
        images = [op.apply(blk) for op, blk in zip(ops, x.blocks)]
        want = np.zeros(3)
        for ci in images:
            want += ci
        np.testing.assert_array_equal(A.image_sum(images), want)
        np.testing.assert_array_equal(A.apply(x), want)


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
        op = DenseMatrixOp(M)
        est = estimate_op_norm_sq(op, tol=1e-14, max_iter=2)
        assert not est.converged
        assert est.value == op.op_norm_sq
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

    def test_budget_exhausted_falls_back_to_certificate_sum(self):
        rng = np.random.default_rng(9)
        ops = tuple(DenseMatrixOp(rng.standard_normal((5, m))) for m in (2, 3, 4))
        A, _ = stack_rows([(ops, np.zeros(5))], [(2,), (3,), (4,)])
        got = combined_op_norm_sq(A, [0, 2], tol=1e-14, max_iter=2)
        assert got == ops[0].op_norm_sq + ops[2].op_norm_sq
        exact = combined_op_norm_sq(A, [0, 2])
        assert got >= exact


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
        assert not gram_cross_is_zero(op, DenseMatrixOp(-op.matrix))

    def test_disjoint_masks_structural(self):
        m1 = np.zeros((3, 3))
        m1[0] = 1.0
        m2 = np.zeros((3, 3))
        m2[2] = 1.0
        assert gram_cross_is_zero(MaskProjectionOp(m1), MaskProjectionOp(m2))
        assert not gram_cross_is_zero(MaskProjectionOp(m1), MaskProjectionOp(m1))

    def test_zero_operator_always_orthogonal(self):
        z = ZeroOp((2,), (3,))
        d = DenseMatrixOp(np.ones((3, 2)))
        assert gram_cross_is_zero(z, d)

    def test_zero_certificate_always_orthogonal(self):
        # Not a ZeroOp, but its certificate is 0: no power step is taken.
        z = ScaledIdentityOp(0.0, (3,))
        d = DenseMatrixOp(np.ones((3, 3)))
        assert z.op_norm_sq == 0.0
        assert gram_cross_is_zero(z, d) and gram_cross_is_zero(d, z)

    def test_numeric_orthogonality_detected(self):
        a = DenseMatrixOp(np.array([[1.0], [0.0]]))
        b = DenseMatrixOp(np.array([[0.0], [1.0]]))
        assert gram_cross_is_zero(a, b)

    def test_space_mismatch_raises(self):
        with pytest.raises(DimensionError):
            gram_cross_is_zero(ZeroOp((2,), (3,)), ZeroOp((2,), (4,)))

    def test_clearly_nonzero_pair_stops_after_one_step(self, monkeypatch):
        applies = []
        apply = DenseMatrixOp.apply

        def counted(op, v):
            applies.append(op)
            return apply(op, v)

        monkeypatch.setattr(DenseMatrixOp, "apply", counted)
        rng = np.random.default_rng(9)
        a = DenseMatrixOp(rng.standard_normal((6, 3)))
        b = DenseMatrixOp(rng.standard_normal((6, 4)))
        assert not gram_cross_is_zero(a, b)
        assert applies == [b, a]  # one power step applies each operator once
        # Cross norms near the tolerance of 1e-10 still get the answer of
        # the full iteration, though the first Rayleigh quotient of
        # diag(cross^2, 0, 0) sees only a few percent of it.
        first = DenseMatrixOp(np.eye(4, 3))
        for cross, zero in ((3e-10, False), (1.5e-10, False), (0.5e-10, True)):
            second = np.zeros((4, 3))
            second[0, 0], second[3, 1] = cross, 1.0
            assert gram_cross_is_zero(first, DenseMatrixOp(second)) is zero


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


def _quad(G, v):
    """``v^T G v`` through the weight's own action."""
    return float(np.vdot(v, G.mat_vec(v)))


class TestWeightMatrix:
    def test_mat_vec_matches_dense(self):
        rng = np.random.default_rng(10)
        _, zoo = _weight_zoo()
        for G in zoo:
            D = G.to_dense((3,))
            v = rng.standard_normal(3)
            np.testing.assert_allclose(G.mat_vec(v), D @ v, atol=1e-10)

    def test_hand_examples(self):
        assert _quad(WeightMatrix.zero(), np.array([1.0, 1.0])) == 0.0
        assert _quad(WeightMatrix.scaled_identity(2.0), np.array([1.0, 1.0])) == 4.0
        G = WeightMatrix.identity_minus_gram(3.0, DenseMatrixOp(np.eye(2)))
        v = np.array([1.0, 2.0])
        assert _quad(G, v) == pytest.approx(10.0, abs=1e-12)

    def test_constructor_validation(self):
        for kwargs, message in (
            ({"eta": -1.0}, "needs eta >= 0"),
            ({"eta": 1.0, "gram_coef": -1.0}, "Gram term needs its operator"),
            ({"gram_coef": 1.5}, "Gram term needs its operator"),
            ({"eta": math.nan}, "must be finite"),
            ({"eta": math.inf}, "must be finite"),
            ({"gram_coef": math.nan}, "must be finite"),
        ):
            with pytest.raises(InvalidWeightError, match=message):
                WeightMatrix(**kwargs)

    def test_named_constructors_validate(self):
        op = DenseMatrixOp(np.eye(2))
        with pytest.raises(InvalidWeightError, match="needs eta >= 0"):
            WeightMatrix.scaled_identity(-1.0)
        with pytest.raises(InvalidWeightError, match="must be finite"):
            WeightMatrix.identity_minus_gram(math.nan, op)
        with pytest.raises(InvalidWeightError, match="must be finite"):
            WeightMatrix.scaled_gram(math.inf, op)

    def test_constructor_fields(self):
        op, zoo = _weight_zoo()
        fields = [(G.eta, G.gram_coef, G.op) for G in zoo]
        assert fields == [
            (0.0, 0.0, None),
            (2.0, 0.0, None),
            (op.op_norm_sq * 1.25, -1.0, op),
            (0.3, 1.5, op),
        ]
        assert zoo[0] == WeightMatrix.zero() == WeightMatrix.scaled_identity(0.0)
        other = DenseMatrixOp(op.matrix)
        assert zoo[2] != WeightMatrix.identity_minus_gram(zoo[2].eta, other)

    def test_pythagoras_identities(self):
        rng = np.random.default_rng(12)
        _, zoo = _weight_zoo()
        for G in zoo:
            for _ in range(20):
                u = rng.standard_normal(3)
                v = rng.standard_normal(3)
                lhs = _quad(G, u + v)
                cross = float(u @ G.mat_vec(v))
                rhs = _quad(G, u) + 2 * cross + _quad(G, v)
                assert lhs == pytest.approx(rhs, abs=1e-12 * (abs(lhs) + 1))
                polar = 0.25 * (_quad(G, u + v) - _quad(G, u - v))
                assert polar == pytest.approx(cross, abs=1e-12 * (abs(cross) + 1))


# ---------------------------------------------------------------------------
# Stacking and structure
# ---------------------------------------------------------------------------


def _stacked(*ops):
    """One block's StackedOp with one constraint row per operator."""
    pieces, off = [], 0
    for op in ops:
        pieces.append((off, op.out_shape, op))
        off += math.prod(op.out_shape)
    return StackedOp(pieces, off, ops[0].in_shape)


def _gram_dense(rep, shape):
    """A ``gram_rep`` as a dense matrix on the C-order flattened block."""
    tag, payload = rep
    if tag == "scalar":
        return payload * np.eye(math.prod(shape))
    if tag == "diag":
        return np.diag(payload.ravel())
    if tag == "left":
        return np.kron(payload, np.eye(shape[1]))
    if tag == "right":
        return np.kron(np.eye(shape[0]), payload.T)
    return payload


class _NoGramOp(DenseMatrixOp):
    """A dense operator that declares no Gram form."""

    def gram_rep(self):
        return None


class TestStackedGram:
    def test_gram_rep_is_the_summed_member_grams(self):
        rng = np.random.default_rng(31)
        mat = (2, 3)
        mask = (rng.random(mat) < 0.5).astype(float)
        mixes = {
            "scalar": _stacked(
                ScaledIdentityOp(2.0, (3,)),
                ScaledIdentityOp(-1.0, (3,)),
                ZeroOp((3,), (2,)),
            ),
            "diag": _stacked(MaskProjectionOp(mask), ScaledIdentityOp(1.5, mat)),
            "left": _stacked(
                LeftMultiplyOp(rng.standard_normal((4, 2)), mat),
                LeftMultiplyOp(rng.standard_normal((5, 2)), mat),
                ScaledIdentityOp(0.5, mat),
            ),
            "right": _stacked(
                RightMultiplyOp(rng.standard_normal((3, 4)), mat),
                ZeroOp(mat, (2,)),
            ),
            "dense": _stacked(
                DenseMatrixOp(rng.standard_normal((5, 3))),
                ScaledIdentityOp(-2.0, (3,)),
            ),
            "single": _stacked(LeftMultiplyOp(rng.standard_normal((4, 2)), mat)),
        }
        for name, op in mixes.items():
            rep = op.gram_rep()
            assert rep[0] == ("left" if name == "single" else name)
            D = op_dense(op)
            np.testing.assert_allclose(
                _gram_dense(rep, op.in_shape), D.T @ D, atol=1e-12, err_msg=name
            )

    def test_gram_kind_is_the_tag_of_gram_rep(self):
        # Over the zoo and stacks of its members, mixed and matched; the
        # left and right multiplies answer without forming their Gram.
        zoo = _op_zoo()
        rng = np.random.default_rng(33)
        mat = (2, 3)
        stacks = [
            _stacked(*(op for op in zoo if op.in_shape == shape))
            for shape in {op.in_shape for op in zoo}
        ] + [
            _stacked(
                LeftMultiplyOp(rng.standard_normal((4, 2)), mat),
                RightMultiplyOp(rng.standard_normal((3, 4)), mat),
            ),
            _stacked(
                LeftMultiplyOp(rng.standard_normal((4, 2)), mat),
                ScaledIdentityOp(0.5, mat),
                LeftMultiplyOp(rng.standard_normal((1, 2)), mat),
            ),
            _stacked(ScaledIdentityOp(2.0, mat), ZeroOp(mat, (4,))),
            _stacked(
                MaskProjectionOp(rng.random(mat) < 0.5), ScaledIdentityOp(1.0, mat)
            ),
        ]
        kinds = set()
        for op in zoo + stacks:
            rep = op.gram_rep()
            assert op.gram_kind() == (None if rep is None else rep[0])
            kinds.add(op.gram_kind())
        assert kinds == {"dense", "scalar", "left", "right", "diag", None}

    def test_multiplies_tag_their_gram_without_forming_it(self, monkeypatch):
        def no_gram(self):
            raise AssertionError("Gram formed")

        for cls in (LeftMultiplyOp, RightMultiplyOp):
            monkeypatch.setattr(cls, "gram_rep", no_gram)
        X = np.ones((2, 3))
        left, right = LeftMultiplyOp(X, (3, 4)), RightMultiplyOp(X, (2, 2))
        assert (left.gram_kind(), right.gram_kind()) == ("left", "right")
        assert _stacked(left, ScaledIdentityOp(1.0, (3, 4))).gram_kind() == "left"
        assert _stacked(right, LeftMultiplyOp(X.T, (2, 2))).gram_kind() is None

    def test_gram_rep_none_without_one_combined_form(self):
        rng = np.random.default_rng(32)
        mat = (2, 3)
        mask = (rng.random(3) < 0.5).astype(float)
        assert _stacked(
            LeftMultiplyOp(rng.standard_normal((4, 2)), mat),
            RightMultiplyOp(rng.standard_normal((3, 4)), mat),
        ).gram_rep() is None
        assert _stacked(
            MaskProjectionOp(mask), DenseMatrixOp(rng.standard_normal((4, 3)))
        ).gram_rep() is None
        assert _stacked(
            ScaledIdentityOp(1.0, (3,)), _NoGramOp(rng.standard_normal((4, 3)))
        ).gram_rep() is None


class TestStacking:
    def test_multiplies_on_one_factor_share_one_certificate(self, monkeypatch):
        calls = []
        real = blockspace.dense_norm_sq

        def counted(M):
            calls.append(M)
            return real(M)

        monkeypatch.setattr(blockspace, "dense_norm_sq", counted)
        rng = np.random.default_rng(34)
        X = rng.standard_normal((3, 5))
        ops = (LeftMultiplyOp(X, (5, 5)), RightMultiplyOp(X, (3, 3)), None)
        twin = (LeftMultiplyOp(X.copy(), (5, 5)), None, ScaledIdentityOp(1.0, (3, 5)))
        A, _ = stack_rows([(ops, X), (twin, X)], [(5, 5), (3, 3), (3, 5)])
        assert calls == []  # certified on first use
        # One certificate for the array X, one for its equal copy; each the
        # float dense_norm_sq gives on its own.
        assert ops[1].op_norm_sq == ops[0].op_norm_sq == real(X)
        assert twin[0].op_norm_sq == real(X)
        assert [M is X for M in calls] == [True, False]
        assert A.operators[0].op_norm_sq == 2.0 * real(X)
        assert len(calls) == 2

    def test_single_row_keeps_natural_shape(self):
        ops = (DenseMatrixOp(np.ones((3, 2))), None)
        A, b = stack_rows([(ops, np.zeros((3,)))], [(2,), (4,)])
        assert A.out_shape == (3,)
        assert isinstance(A.operators[1], ZeroOp)
        assert A.rows == (((0, ops[0]),),)

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
        assert tuple(tuple(i for i, _ in row) for row in A.rows) == ((0,), (0, 1))
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

    def test_family_validates_constraint_space(self):
        with pytest.raises(DimensionError):
            BlockOperatorFamily(
                (ZeroOp((2,), (3,)), ZeroOp((2,), (4,))), (3,)
            )

    def test_row_group_validation(self):
        # The family's rows name blocks of the family, with pieces that take
        # each block's shape, and every coupled block acts in some row.
        ops = (ScaledIdentityOp(1.0, (2,)), ScaledIdentityOp(2.0, (2,)))
        with pytest.raises(DimensionError, match="row 0: the family has no block 2 "):
            BlockOperatorFamily(ops, (2,), rows=(((0, ops[0]), (2, ops[1])),))
        with pytest.raises(DimensionError, match=r"no block 1 of shape \(3,\)"):
            BlockOperatorFamily(
                ops, (2,), rows=(((1, DenseMatrixOp(np.ones((2, 3)))),),)
            )
        with pytest.raises(ValueError, match="block 1 acts outside every row"):
            BlockOperatorFamily(ops, (2,), rows=(((0, ops[0]),),))
        # A block with a zero certificate may act nowhere.
        zero = (ops[0], ZeroOp((3,), (2,)))
        A = BlockOperatorFamily(zero, (2,), rows=(((0, ops[0]),),))
        assert A.rows == (((0, ops[0]),),)

    def test_rows_hold_the_given_operators(self):
        rng = np.random.default_rng(15)
        B1 = DenseMatrixOp(rng.standard_normal((2, 3)))
        B2 = DenseMatrixOp(rng.standard_normal((4, 3)))
        eye = ScaledIdentityOp(1.0, (4,))
        rows = [
            ((B1, None), np.zeros(2)),
            ((None, None), np.zeros(1)),
            ((B2, eye), np.zeros(4)),
        ]
        A, _ = stack_rows(rows, [(3,), (4,)])
        # The row with no acting block is skipped.
        assert len(A.rows) == 2
        (p,), (q, r) = A.rows
        assert p[0] == 0 and p[1] is B1
        assert q[0] == 0 and q[1] is B2
        assert r[0] == 1 and r[1] is eye

    def test_bare_family_has_one_row_of_coupled_blocks(self):
        rng = np.random.default_rng(16)
        ops = (
            DenseMatrixOp(rng.standard_normal((4, 2))),
            ZeroOp((3,), (4,)),
            ScaledIdentityOp(0.0, (4,)),
            ScaledIdentityOp(-1.0, (4,)),
        )
        A = BlockOperatorFamily(ops, (4,))
        assert len(A.rows) == 1
        assert [i for i, _ in A.rows[0]] == [0, 3]
        assert all(op is ops[i] for i, op in A.rows[0])

    def test_non_finite_rhs_rejected(self):
        ops = (ScaledIdentityOp(1.0, (2,)),)
        for bad in (math.nan, math.inf, -math.inf):
            rows = [(ops, np.zeros(2)), (ops, np.array([1.0, bad]))]
            with pytest.raises(ValueError, match="row 1: the right-hand side"):
                stack_rows(rows, [(2,)])
