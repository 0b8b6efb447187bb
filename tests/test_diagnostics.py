"""Rate-bound constants, KKT gap machinery, and reference oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from mmadmm.blockspace import (
    BlockOperatorFamily,
    BlockVector,
    DenseMatrixOp,
    ScaledIdentityOp,
    WeightMatrix,
)
from mmadmm.diagnostics import (
    AssumptionError,
    BoundReport,
    H0Bundle,
    KKTCertificate,
    bound_report,
    hat_lambda,
    kkt_gap,
    oracle_solve,
    quadratic_oracle,
    theorem_H0,
    theorem_alpha,
    theorem_bound_rhs,
    verify_kkt,
)
from mmadmm.partition import Partition
from mmadmm.problems import DataGenSpec, ProblemSpec, build_nonneg_sparse_coding
from mmadmm.prox import ProxFunction
from mmadmm.solvers import SolverConfig, default_weights, ergodic_average
from mmadmm.surrogates import SmoothQuadCoupling

from helpers import op_dense, quad_problem, run_observed


def _single(term, b, smooth=None):
    ops = (ScaledIdentityOp(1.0, b.shape),)
    return ProblemSpec("t", [(ops, b)], (b.shape,), (term,), smooth=smooth)


def _dense_pair(seed=3, d=4, dims=(2, 3), weights=(1.0, 2.0)):
    return quad_problem(seed, d=d, dims=dims, weights=weights)


class TestGapPieces:
    def test_hat_lambda_formula(self):
        problem = _single(ProxFunction("sq-frobenius"), np.array([1.0, 1.0]))
        x = BlockVector([np.array([2.0, 0.0])])
        got = hat_lambda(np.array([1.0, 1.0]), 0.5, problem, x)
        np.testing.assert_array_equal(got, np.array([1.5, 0.5]))

    def test_kkt_gap_hand_value(self):
        b = np.array([1.0, 0.0])
        problem = _single(ProxFunction("sq-frobenius"), b)
        cert = KKTCertificate(
            x_star=BlockVector([b.copy()]),
            lambda_star=np.array([-1.0, 0.0]),
            tol=1e-9,
            f_star=0.5,
            residual_norm=0.0,
        )
        x_bar = BlockVector([np.array([3.0, 1.0])])
        # 5.0 - 0.5 + <(-1,0),(2,1)> + (2*0.2/2)*5 = 3.5
        assert kkt_gap(x_bar, cert, problem, alpha=0.2, beta0=2.0) == 3.5
        assert abs(kkt_gap(cert.x_star, cert, problem, 0.2, 2.0)) <= 1e-12

    def test_kkt_gap_applies_the_family_twice(self, monkeypatch):
        problem = quad_problem(4)
        A, b = problem.family, problem.b
        rng = np.random.default_rng(6)
        cert = KKTCertificate(
            x_star=BlockVector([rng.standard_normal(s) for s in A.block_shapes]),
            lambda_star=rng.standard_normal(A.out_shape),
            tol=1e-9,
            f_star=0.25,
            residual_norm=0.0,
        )
        x_bar = BlockVector([rng.standard_normal(s) for s in A.block_shapes])
        resid = A.apply(x_bar) - b
        want = (
            problem.objective(x_bar)
            - cert.f_star
            + float(np.vdot(cert.lambda_star, A.apply(x_bar) - A.apply(cert.x_star)))
            + 0.5 * 2.0 * 0.3 * float(np.vdot(resid, resid))
        )
        calls = []
        apply = BlockOperatorFamily.apply

        def counting(self, x):
            calls.append(x)
            return apply(self, x)

        monkeypatch.setattr(BlockOperatorFamily, "apply", counting)
        assert kkt_gap(x_bar, cert, problem, alpha=0.3, beta0=2.0) == want
        assert len(calls) == 2


class TestTheoremAlpha:
    def test_sequential_two_block(self):
        problem = _dense_pair()
        G = (WeightMatrix.zero(), WeightMatrix.scaled_identity(0.3))
        a2 = np.linalg.norm(op_dense(problem.family.operators[1]), 2) ** 2
        want = min(0.5, 0.3**2 / (2.0 * a2))
        assert theorem_alpha(problem, "gs", G) == pytest.approx(want, rel=1e-12)

    def test_sequential_caps_at_half(self):
        problem = _dense_pair()
        G = (WeightMatrix.zero(), WeightMatrix.scaled_identity(100.0))
        assert theorem_alpha(problem, "gs", G) == 0.5

    def test_uncoupled_second_block_defaults_to_half(self):
        ops = (DenseMatrixOp(np.eye(2)), None)
        problem = ProblemSpec(
            "t",
            [(ops, np.ones(2))],
            ((2,), (3,)),
            (ProxFunction("sq-frobenius"), ProxFunction("l1")),
        )
        G = (WeightMatrix.zero(), WeightMatrix.scaled_identity(1.0))
        assert theorem_alpha(problem, "gs", G) == 0.5

    def test_empty_second_phase_is_uncoupled(self):
        problem = quad_problem(3)
        G = (WeightMatrix.zero(),) * 2
        part = Partition((0, 1), ())
        assert theorem_alpha(problem, "madmm", G, partition=part) == 0.5
        assert theorem_alpha(problem, "madmm-bt", G, partition=part, tau=1.3) == 0.5

    def test_parallel_orthogonal_columns(self):
        ops = (
            DenseMatrixOp(np.array([[2.0], [0.0], [0.0]])),
            DenseMatrixOp(np.array([[0.0], [1.0], [0.0]])),
        )
        problem = ProblemSpec(
            "t",
            [(ops, np.ones(3))],
            ((1,), (1,)),
            (ProxFunction("sq-frobenius"), ProxFunction("sq-frobenius")),
        )
        G = (WeightMatrix.scaled_identity(0.5),) * 2
        # Diag{A_i^T A_i + G_i} - A^T A = 0.5 I, ||A||_2^2 = 4.
        assert theorem_alpha(problem, "jacobi", G) == pytest.approx(
            0.25 / 8.0, rel=1e-12
        )

    def test_mixed_reduces_to_sequential_on_two_blocks(self):
        problem = _dense_pair()
        G = (WeightMatrix.zero(), WeightMatrix.scaled_identity(0.3))
        part = Partition((0,), (1,))
        assert theorem_alpha(problem, "madmm", G, partition=part) == pytest.approx(
            theorem_alpha(problem, "gs", G), rel=1e-9
        )

    def test_backtracking_uses_tau(self):
        problem = _dense_pair()
        G = (WeightMatrix.zero(),) * 2
        part = Partition((0,), (1,))
        a2 = np.linalg.norm(op_dense(problem.family.operators[1]), 2) ** 2
        got = theorem_alpha(problem, "madmm-bt", G, partition=part, tau=1.3)
        assert got == pytest.approx(min(0.5, 1.3 / (2.0 * a2)), rel=1e-12)

    def test_validation(self):
        problem = _dense_pair()
        G = (WeightMatrix.zero(),) * 2
        with pytest.raises(ValueError, match="needs its partition"):
            theorem_alpha(problem, "madmm", G)
        with pytest.raises(ValueError, match="partition and tau"):
            theorem_alpha(problem, "madmm-bt", G, partition=Partition((0,), (1,)))
        with pytest.raises(ValueError, match="no rate constant"):
            theorem_alpha(problem, "l-admm-ps", G)
        with pytest.raises(ValueError, match="unrecognized partition spec 'case1'"):
            theorem_alpha(problem, "madmm", G, partition="case1")

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0, 0.0])
    def test_backtracking_tau_must_be_finite_and_positive(self, tau):
        problem = quad_problem(6, dims=(3, 4, 2, 5), weights=(1.0, 2.0, 1.0, 2.0))
        G = (WeightMatrix.zero(),) * 4
        part = Partition((0, 2), (1, 3))
        with pytest.raises(ValueError, match="tau must be finite and positive"):
            theorem_alpha(problem, "madmm-bt", G, partition=part, tau=tau)


class TestTheoremH0:
    def test_sequential_matrices(self):
        problem = _dense_pair()
        G = (WeightMatrix.scaled_identity(0.2), WeightMatrix.scaled_identity(0.3))
        bundle = theorem_H0(problem, "gs", G, beta0=0.5)
        (idx1, H1), (idx2, H2) = bundle.groups
        assert idx1 == (0,) and idx2 == (1,)
        # No smooth part, so L_i = 0 and the metrics are G_1 and A_2^T A_2 + G_2.
        np.testing.assert_allclose(H1, 0.2 * np.eye(2), atol=1e-14)
        A2 = op_dense(problem.family.operators[1])
        np.testing.assert_allclose(H2, A2.T @ A2 + 0.3 * np.eye(3), atol=1e-12)
        assert bundle.dual_coef == (1.0 / 0.5) ** 2

    def test_smooth_term_enters_initial_metric(self):
        b = np.zeros(2)
        smooth = SmoothQuadCoupling(
            3.0, (ScaledIdentityOp(2.0, (2,)),), np.zeros(2)
        )
        problem = _single(None, b, smooth=smooth)
        eta = smooth.cert[0].eta
        bundle = theorem_H0(problem, "jacobi", (WeightMatrix.zero(),), beta0=0.25)
        H = bundle.groups[0][1]
        np.testing.assert_allclose(
            H, (eta / 0.25 + 1.0) * np.eye(2), atol=1e-12
        )

    def test_parallel_equals_mixed_with_empty_first_side(self):
        problem = quad_problem(9, d=5, dims=(2, 2, 3), weights=(1.0, 1.0, 2.0))
        G, _ = default_weights(problem, "jacobi")
        beta0 = 0.8
        bj = theorem_H0(problem, "jacobi", G, beta0)
        bm = theorem_H0(
            problem, "madmm", G, beta0, partition=Partition((), (0, 1, 2))
        )
        cert = quadratic_oracle(problem)
        x0 = BlockVector.zeros(problem.block_shapes)
        lam0 = np.zeros(problem.family.out_shape)
        betas = [beta0] * 4
        for K in range(4):
            rj = theorem_bound_rhs(x0, lam0, cert, bj, betas, K)
            rm = theorem_bound_rhs(x0, lam0, cert, bm, betas, K)
            assert rj == pytest.approx(rm, rel=1e-12)

    def test_rejects_indefinite_metric(self):
        problem = _dense_pair()
        A1 = op_dense(problem.family.operators[0])
        low = 0.5 * np.linalg.norm(A1, 2) ** 2
        G = (
            WeightMatrix.identity_minus_gram(low, problem.family.operators[0]),
            WeightMatrix.scaled_identity(0.3),
        )
        with pytest.raises(AssumptionError, match="not positive semidefinite"):
            theorem_H0(problem, "gs", G, beta0=1.0)

    def test_validation(self):
        problem = _dense_pair()
        G = (WeightMatrix.zero(),) * 2
        with pytest.raises(ValueError, match="beta0 must be positive"):
            theorem_H0(problem, "gs", G, beta0=0.0)
        with pytest.raises(ValueError, match="needs its partition"):
            theorem_H0(problem, "madmm", G, beta0=1.0)
        with pytest.raises(ValueError, match="no rate bound"):
            theorem_H0(problem, "l-admm-ps", G, beta0=1.0)

    @pytest.mark.parametrize("beta0", [math.nan, math.inf])
    def test_beta0_must_be_finite_and_positive(self, beta0):
        problem = _dense_pair()
        G = (WeightMatrix.zero(), WeightMatrix.scaled_identity(0.1))
        with pytest.raises(ValueError, match="beta0 must be positive and finite"):
            theorem_H0(problem, "gs", G, beta0=beta0)


class TestBoundRHS:
    def _pieces(self):
        bundle = H0Bundle(
            groups=(((0,), 2.0 * np.eye(2)),), dual_coef=0.25
        )
        cert = KKTCertificate(
            x_star=BlockVector([np.array([1.0, 1.0])]),
            lambda_star=np.array([3.0]),
            tol=1e-9,
            f_star=0.0,
            residual_norm=0.0,
        )
        x0 = BlockVector.zeros(((2,),))
        return bundle, cert, x0, np.zeros(1)

    def test_hand_value(self):
        bundle, cert, x0, lam0 = self._pieces()
        got = theorem_bound_rhs(x0, lam0, cert, bundle, (1.0, 2.0, 4.0), K=1)
        # num = 4 + 0.25 * 9, denom = 2 * (1 + 1/2)
        assert got == 6.25 / 3.0
        K = np.int64(1)
        assert theorem_bound_rhs(x0, lam0, cert, bundle, (1.0, 2.0, 4.0), K=K) == got

    def test_index_validation(self):
        bundle, cert, x0, lam0 = self._pieces()
        for bad in (-1, 3):
            with pytest.raises(ValueError, match="index into"):
                theorem_bound_rhs(x0, lam0, cert, bundle, (1.0, 2.0, 4.0), K=bad)

    @pytest.mark.parametrize("K", [True, 1.5, 1.0, "1"])
    def test_k_must_be_an_integer(self, K):
        bundle, cert, x0, lam0 = self._pieces()
        with pytest.raises(ValueError, match="K must be an integer"):
            theorem_bound_rhs(x0, lam0, cert, bundle, (1.0, 2.0, 4.0), K=K)

    @pytest.mark.parametrize(
        "betas", [(1.0, -2.0), (1.0, 0.0), (math.inf,), (math.nan,)]
    )
    def test_rejects_a_bad_penalty(self, betas):
        bundle, cert, x0, lam0 = self._pieces()
        K = len(betas) - 1
        with pytest.raises(ValueError, match=r"betas\[\d\] must be finite and positive"):
            theorem_bound_rhs(x0, lam0, cert, bundle, betas, K=K)


class TestBoundReport:
    def _config(self, G, beta0, partition=None, iters=40):
        return SolverConfig(
            beta0=beta0,
            rho=1.0,
            max_iter=iters,
            eps_primal=1e-15,
            eps_step=1e-15,
            weights=tuple(G),
            partition=partition if partition is not None else "auto",
        )

    def test_sequential_bound_holds_everywhere(self):
        problem = _dense_pair(seed=7, d=6, dims=(3, 4))
        G = (WeightMatrix.zero(), WeightMatrix.scaled_identity(0.1))
        cert = quadratic_oracle(problem)
        report = bound_report(problem, "gs", self._config(G, 0.5), cert)
        assert report.alpha == theorem_alpha(problem, "gs", G)
        assert len(report.rows) == 40
        assert report.ok()
        assert all(lhs >= -1e-9 for _, lhs, _ in report.rows)

    def test_parallel_bound_holds_everywhere(self):
        problem = quad_problem(13, d=6, dims=(2, 2, 3), weights=(1.0, 2.0, 1.5))
        G, _ = default_weights(problem, "jacobi")
        cert = quadratic_oracle(problem)
        report = bound_report(problem, "jacobi", self._config(G, 0.8), cert)
        assert report.alpha > 0.0
        assert report.ok()

    def test_forms_the_certificate_image_once(self, monkeypatch):
        problem = _dense_pair(seed=7, d=6, dims=(3, 4))
        G = (WeightMatrix.zero(), WeightMatrix.scaled_identity(0.1))
        config = self._config(G, 0.5, iters=20)
        cert = quadratic_oracle(problem)
        result, iterates = run_observed(problem, "gs", config)
        betas = [t.beta for t in result.trace]
        alpha = theorem_alpha(problem, "gs", G)
        bundle = theorem_H0(problem, "gs", G, 0.5)
        x0 = BlockVector.zeros(problem.block_shapes)
        lam0 = np.zeros(problem.family.out_shape)
        want = [
            (
                K,
                kkt_gap(
                    ergodic_average(iterates[: K + 1], betas[: K + 1]),
                    cert,
                    problem,
                    alpha,
                    0.5,
                ),
                theorem_bound_rhs(x0, lam0, cert, bundle, betas, K),
            )
            for K in range(20)
        ]
        calls = []
        apply = BlockOperatorFamily.apply

        def counting(self, x):
            calls.append(x)
            return apply(self, x)

        monkeypatch.setattr(BlockOperatorFamily, "apply", counting)
        report = bound_report(problem, "gs", config, cert)
        # One apply of each averaged iterate, plus one of ``x*`` in total.
        assert len(calls) == len(report.rows) + 1 == 21
        # The running average matches the batch one up to rounding.
        for (K, lhs, rhs), (K_want, lhs_want, rhs_want) in zip(report.rows, want):
            assert K == K_want and rhs == rhs_want
            assert abs(lhs - lhs_want) <= 1e-12 * abs(lhs_want)

    def test_k_max_truncates(self):
        problem = _dense_pair(seed=7, d=6, dims=(3, 4))
        G = (WeightMatrix.zero(), WeightMatrix.scaled_identity(0.1))
        config = self._config(G, 0.5, iters=20)
        cert = quadratic_oracle(problem)
        full = bound_report(problem, "gs", config, cert)
        report = bound_report(problem, "gs", config, cert, K_max=10)
        assert len(report.rows) == 11
        assert [K for K, _, _ in report.rows] == list(range(11))
        assert report.rows == full.rows[:11]
        assert bound_report(problem, "gs", config, cert, K_max=0).rows == full.rows[:1]
        assert bound_report(problem, "gs", config, cert, K_max=99).rows == full.rows

    @pytest.mark.parametrize("K_max", [-1, True, False, 2.0, "3"])
    def test_k_max_must_be_a_count(self, K_max):
        problem = _dense_pair()
        G = (WeightMatrix.zero(), WeightMatrix.scaled_identity(0.1))
        cert = quadratic_oracle(problem)
        with pytest.raises(ValueError, match="K_max must be None or an integer"):
            bound_report(problem, "gs", self._config(G, 0.5, iters=5), cert, K_max)

    def test_k_max_takes_a_numpy_integer(self):
        problem = _dense_pair()
        G = (WeightMatrix.zero(), WeightMatrix.scaled_identity(0.1))
        cert = quadratic_oracle(problem)
        config = self._config(G, 0.5, iters=5)
        report = bound_report(problem, "gs", config, cert, np.int64(2))
        assert [K for K, _, _ in report.rows] == [0, 1, 2]

    def test_constants_come_from_the_config(self):
        # The mixed kind's partition and start weights are read from config.
        problem = quad_problem(6, d=8, dims=(3, 4, 2, 5), weights=(1.0, 2.0, 0.5, 1.5))
        part = Partition((0, 2), (1, 3))
        G, _ = default_weights(problem, "madmm", part)
        cert = quadratic_oracle(problem)
        given = self._config(G, 1.0, part, iters=3)
        report = bound_report(problem, "madmm", replace(given, weights=None), cert)
        assert report.alpha == theorem_alpha(problem, "madmm", G, partition=part)
        assert bound_report(problem, "madmm", given, cert).rows == report.rows

    def test_ok_flags_violations(self):
        report = BoundReport(0.5, [(0, 1.0, 2.0), (1, 3.0, 1.0)])
        assert not report.ok()
        assert report.ok(slack=2.5)

    def test_csv_round_trip(self, tmp_path):
        report = BoundReport(0.5, [(0, 0.125, 1.0), (1, 0.0625, 0.5)])
        path = tmp_path / "bound.csv"
        report.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "K,lhs,rhs"
        K, lhs, rhs = lines[2].split(",")
        assert (int(K), float(lhs), float(rhs)) == (1, 0.0625, 0.5)


class TestVerifyKKT:
    def test_infeasible_point_fails_fast(self):
        problem = _single(ProxFunction("l1"), np.array([1.0]))
        ok, report = verify_kkt(problem, BlockVector([np.array([2.0])]), np.zeros(1))
        assert not ok
        assert report["failure"] == "constraint residual above floor"

    def test_l1_sign_conditions(self):
        problem = _single(ProxFunction("l1"), np.array([1.0]))
        x = BlockVector([np.array([1.0])])
        assert verify_kkt(problem, x, np.array([-1.0]))[0]
        assert not verify_kkt(problem, x, np.array([1.0]))[0]

    def test_nonneg_l1_rejects_negative_support(self):
        problem = _single(ProxFunction("l1-nonneg"), np.array([-1.0]))
        ok, report = verify_kkt(
            problem, BlockVector([np.array([-1.0])]), np.array([0.0])
        )
        assert not ok
        assert "nonnegativity" in report["failure"]

    def test_quadratic_gradient(self):
        b = np.array([2.0, -1.0])
        problem = _single(ProxFunction("sq-frobenius", weight=2.0), b)
        x = BlockVector([b.copy()])
        assert verify_kkt(problem, x, -2.0 * b)[0]
        assert not verify_kkt(problem, x, 2.0 * b)[0]

    def test_nuclear_spectral_conditions(self):
        rng = np.random.default_rng(4)
        C = rng.standard_normal((3, 2))
        U, s, Vt = np.linalg.svd(C, full_matrices=False)
        problem = _single(ProxFunction("nuclear"), C)
        x = BlockVector([C.copy()])
        assert verify_kkt(problem, x, -U @ Vt)[0]
        ok, report = verify_kkt(problem, x, -2.0 * U @ Vt)
        assert not ok and "spectral" in report["failure"]
        flipped = -U @ np.diag([1.0, -1.0]) @ Vt
        ok, report = verify_kkt(problem, x, flipped)
        assert not ok and "pairing" in report["failure"]

    def test_column_norm_conditions(self):
        C = np.array([[3.0, 0.0], [4.0, 0.0]])
        problem = _single(ProxFunction("l21", weight=2.0), C)
        x = BlockVector([C.copy()])
        lam_good = np.column_stack([-2.0 * C[:, 0] / 5.0, np.zeros(2)])
        assert verify_kkt(problem, x, lam_good)[0]
        assert not verify_kkt(problem, x, 0.5 * lam_good)[0]

    def test_nonneg_cone_conditions(self):
        b = np.array([2.0, 0.0])
        problem = _single(ProxFunction("indicator-nonneg"), b)
        x = BlockVector([b.copy()])
        assert verify_kkt(problem, x, np.array([0.0, 5.0]))[0]
        assert not verify_kkt(problem, x, np.array([0.0, -5.0]))[0]

    def test_nonneg_cone_rejects_a_negative_point(self):
        problem = _single(ProxFunction("indicator-nonneg"), np.array([-1.0]))
        ok, report = verify_kkt(problem, BlockVector([np.array([-1.0])]), np.zeros(1))
        assert not ok
        assert report["failure"] == "block 0: nonnegativity violated"

    def test_zero_column_dual_norm_bounded_by_weight(self):
        # Column 1 is zero, so its dual column may have norm up to 2, not 3.
        C = np.array([[3.0, 0.0], [4.0, 0.0]])
        problem = _single(ProxFunction("l21", weight=2.0), C)
        x = BlockVector([C.copy()])
        lam = np.column_stack([-2.0 * C[:, 0] / 5.0, [0.0, -2.0]])
        assert verify_kkt(problem, x, lam)[0]
        lam[0, 1] = 3.0
        ok, report = verify_kkt(problem, x, lam)
        assert not ok
        assert report["failure"] == "block 0: column 1 dual norm exceeds weight"

    def test_free_block_needs_zero_gradient(self):
        problem = _single(None, np.array([3.0]))
        x = BlockVector([np.array([3.0])])
        assert verify_kkt(problem, x, np.zeros(1))[0]
        assert not verify_kkt(problem, x, np.ones(1))[0]

    def test_smooth_gradient_enters_stationarity(self):
        b = np.array([1.0, 2.0])
        offset = np.array([0.0, 1.0])
        smooth = SmoothQuadCoupling(1.0, (ScaledIdentityOp(1.0, (2,)),), offset)
        problem = _single(None, b, smooth=smooth)
        x = BlockVector([b.copy()])
        assert verify_kkt(problem, x, -(b - offset))[0]
        assert not verify_kkt(problem, x, np.zeros(2))[0]


class TestOracles:
    def test_quadratic_oracle_hand_instance(self):
        ops = (ScaledIdentityOp(2.0, (2,)),)
        problem = ProblemSpec(
            "t",
            [(ops, np.array([4.0, 0.0]))],
            ((2,),),
            (ProxFunction("sq-frobenius"),),
        )
        cert = quadratic_oracle(problem)
        np.testing.assert_allclose(cert.x_star[0], [2.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(cert.lambda_star, [-1.0, 0.0], atol=1e-14)
        assert cert.f_star == pytest.approx(2.0, rel=1e-14)
        assert cert.residual_norm <= 1e-13

    def test_quadratic_oracle_passes_kkt_check(self):
        problem = quad_problem(21, d=5, dims=(2, 3), weights=(1.0, 3.0))
        cert = quadratic_oracle(problem)
        ok, _ = verify_kkt(problem, cert.x_star, cert.lambda_star, tol=1e-8)
        assert ok

    def test_quadratic_oracle_validation(self):
        problem = _single(ProxFunction("l1"), np.array([1.0]))
        with pytest.raises(ValueError, match="sq-frobenius"):
            quadratic_oracle(problem)
        smooth = SmoothQuadCoupling(1.0, (ScaledIdentityOp(1.0, (1,)),), np.zeros(1))
        quad = ProblemSpec(
            "t",
            [((ScaledIdentityOp(1.0, (1,)),), np.ones(1))],
            ((1,),),
            (ProxFunction("sq-frobenius"),),
            smooth=smooth,
        )
        with pytest.raises(ValueError, match="smooth"):
            quadratic_oracle(quad)

    def test_iterative_oracle_agrees_with_closed_form(self):
        problem = quad_problem(22, d=4, dims=(2, 2), weights=(1.0, 2.0))
        closed = quadratic_oracle(problem)
        iterated = oracle_solve(problem, target_tol=1e-7)
        assert iterated is not None
        assert iterated.f_star == pytest.approx(closed.f_star, rel=1e-8, abs=1e-10)

    def test_iterative_oracle_matches_lp_reference(self):
        gen = DataGenSpec(seed=5, d=4, n=2, block_dims=(2, 3), sparsity=0.5)
        problem = build_nonneg_sparse_coding(gen)
        cert = oracle_solve(problem, target_tol=1e-6)
        assert cert is not None
        stacked = np.hstack([problem.data["A_0"], problem.data["A_1"]])
        lp = linprog(
            np.ones(5),
            A_eq=stacked,
            b_eq=problem.data["y"],
            bounds=(0, None),
            method="highs",
        )
        assert lp.status == 0
        assert cert.f_star == pytest.approx(lp.fun, rel=1e-5, abs=1e-6)

    def test_oracle_refuses_infeasible_instance(self):
        problem = _single(ProxFunction("indicator-nonneg"), np.array([-1.0, -1.0]))
        config = SolverConfig(
            beta0=1e-2,
            rho=10.0,
            beta_max=1e4,
            schedule="adaptive",
            eps_primal=1e-12,
            eps_step=1e-12,
            max_iter=400,
        )
        # One block: the mixed default kind has no partition, so run it all-parallel.
        assert oracle_solve(problem, solver_kind="jacobi", config=config) is None

    def test_oracle_swallows_solver_rejection(self):
        smooth = SmoothQuadCoupling(1.0, (ScaledIdentityOp(1.0, (2,)),), np.zeros(2))
        problem = _single(None, np.ones(2), smooth=smooth)
        config = SolverConfig(max_iter=10)
        assert oracle_solve(problem, solver_kind="l-admm-ps", config=config) is None

    def test_oracle_propagates_misuse(self):
        problem = quad_problem(3, d=4, dims=(2, 2, 3), weights=(1.0, 2.0, 1.5))
        with pytest.raises(ValueError, match="needs n = 2"):
            oracle_solve(problem, solver_kind="gs", config=SolverConfig(max_iter=5))
