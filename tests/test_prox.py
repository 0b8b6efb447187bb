"""Closed-form proximal operators against brute-force and subgradient oracles."""

import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mmadmm import prox
from mmadmm.prox import (
    ProxFunction,
    _nuclear_value,
    _svt,
    project_nonneg,
    prox_l1,
    prox_l1_nonneg,
    prox_l21,
    prox_nuclear,
)

from helpers import grid_min_1d, refine_min


def _fail_svd(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


def _fail_eigh(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


# ---------------------------------------------------------------------------
# Hand examples
# ---------------------------------------------------------------------------


class TestHandExamples:
    def test_l1(self):
        np.testing.assert_array_equal(prox_l1(np.zeros(3), 1.0), np.zeros(3))
        np.testing.assert_array_equal(
            prox_l1(np.array([3.0, -1.0, 0.2]), 1.0), [2.0, 0.0, 0.0]
        )
        v = np.array([0.3, -4.0])
        np.testing.assert_allclose(prox_l1(v, 1e-12), v, atol=2e-12)

    def test_l1_ties_resolve_to_zero(self):
        out = prox_l1(np.array([1.0, -1.0]), 1.0)
        assert out[0] == 0.0 and out[1] == 0.0

    def test_l1_nonneg(self):
        np.testing.assert_array_equal(
            prox_l1_nonneg(np.array([3.0, -1.0]), 1.0), [2.0, 0.0]
        )
        np.testing.assert_array_equal(
            prox_l1_nonneg(np.array([-0.5, -2.0]), 1.0), [0.0, 0.0]
        )
        np.testing.assert_array_equal(prox_l1_nonneg(np.array([5.0]), 5.0), [0.0])

    def test_nuclear(self):
        np.testing.assert_array_equal(prox_nuclear(np.zeros((2, 2)), 1.0), np.zeros((2, 2)))
        np.testing.assert_allclose(
            prox_nuclear(np.diag([3.0, 1.0]), 2.0), np.diag([1.0, 0.0]), atol=1e-12
        )
        V = np.arange(6.0).reshape(2, 3)
        np.testing.assert_allclose(prox_nuclear(V, 1e-12), V, atol=1e-10)

    def test_l21(self):
        np.testing.assert_array_equal(prox_l21(np.zeros((2, 3)), 1.0), np.zeros((2, 3)))
        np.testing.assert_array_equal(
            prox_l21(np.array([[3.0], [4.0]]), 5.0), [[0.0], [0.0]]
        )
        V = np.array([[1.0, 0.0], [2.0, -1.0]])
        np.testing.assert_allclose(prox_l21(V, 1e-12), V, atol=1e-10)

    def test_project_nonneg(self):
        np.testing.assert_array_equal(project_nonneg(np.array([-1.0, 2.0])), [0.0, 2.0])
        v = np.array([0.5, 3.0])
        np.testing.assert_array_equal(project_nonneg(v), v)
        out = project_nonneg(np.array([-0.0]))
        assert out[0] == 0.0 and not np.signbit(out[0])

    def test_threshold_validation(self):
        for fn in (prox_l1, prox_l1_nonneg, prox_l21):
            with pytest.raises(ValueError):
                fn(np.ones(2), 0.0)
            with pytest.raises(ValueError):
                fn(np.ones(2), -1.0)
        with pytest.raises(ValueError):
            prox_nuclear(np.ones((2, 2)), 0.0)


# ---------------------------------------------------------------------------
# Brute-force grid equivalence
# ---------------------------------------------------------------------------


class TestBruteForce:
    def test_l1_scalar_grid(self):
        for v, t in [(3.0, 1.0), (-1.0, 1.0), (0.2, 1.0), (0.9, 1.3), (-5.5, 2.0)]:
            got = prox_l1(np.array([v]), t)[0]
            want = grid_min_1d(lambda x: t * np.abs(x) + 0.5 * (x - v) ** 2)
            assert abs(got - want) <= 2e-4

    def test_l1_nonneg_scalar_grid(self):
        for v, t in [(3.0, 1.0), (-1.0, 1.0), (5.0, 5.0), (0.4, 0.1)]:
            got = prox_l1_nonneg(np.array([v]), t)[0]
            want = grid_min_1d(
                lambda x: np.where(x >= 0, t * x + 0.5 * (x - v) ** 2, np.inf)
            )
            assert abs(got - want) <= 2e-4

    def test_sq_scalar_grid(self):
        for v, lam, t in [(8.0, 3.0, 1.0), (2.0, 1.0, 1.0), (-4.0, 0.5, 0.5)]:
            got = ProxFunction("sq-frobenius", lam).prox(np.array([v]), t)[0]
            want = grid_min_1d(lambda x: 0.5 * t * lam * x**2 + 0.5 * (x - v) ** 2)
            assert abs(got - want) <= 2e-4

    def test_l21_column_2d_grid(self):
        col = np.array([1.2, -0.7])
        t = 0.5
        got = prox_l21(col[:, None], t)[:, 0]
        want = refine_min(
            lambda p: t * np.linalg.norm(p) + 0.5 * np.sum((p - col) ** 2),
            lo=[-2.0, -2.0],
            hi=[2.0, 2.0],
        )
        assert np.max(np.abs(got - want)) <= 2e-4

    def test_nuclear_diagonal_2d_grid(self):
        V = np.diag([3.0, 1.0])
        t = 2.0
        got = prox_nuclear(V, t)

        def objective(P):
            s = np.linalg.svd(P, compute_uv=False)
            return t * np.sum(s) + 0.5 * np.sum((P - V) ** 2)

        diag_best = refine_min(
            lambda p: objective(np.diag(p)), lo=[-4.0, -4.0], hi=[4.0, 4.0]
        )
        assert objective(got) <= objective(np.diag(diag_best)) + 1e-9
        np.testing.assert_allclose(np.diag(got), diag_best, atol=2e-4)

    def test_nuclear_dense_is_local_min(self):
        rng = np.random.default_rng(30)
        V = rng.standard_normal((3, 3))
        t = 0.8
        P = prox_nuclear(V, t)

        def objective(M):
            s = np.linalg.svd(M, compute_uv=False)
            return t * np.sum(s) + 0.5 * np.sum((M - V) ** 2)

        base = objective(P)
        for scale in (1e-1, 1e-3):
            for _ in range(100):
                assert base <= objective(
                    P + scale * rng.standard_normal((3, 3))
                ) + 1e-12


# ---------------------------------------------------------------------------
# Subgradient optimality and structure
# ---------------------------------------------------------------------------


class TestOptimality:
    def test_l1_subgradient(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            v = 3 * rng.standard_normal(6)
            t = float(rng.uniform(0.1, 2.0))
            p = prox_l1(v, t)
            for vj, pj in zip(v, p):
                if pj == 0.0:
                    assert abs(vj - pj) <= t + 1e-9
                else:
                    assert abs((vj - pj) - t * np.sign(pj)) <= 1e-9

    def test_l1_nonneg_subgradient(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            v = 3 * rng.standard_normal(6)
            t = float(rng.uniform(0.1, 2.0))
            p = prox_l1_nonneg(v, t)
            assert np.all(p >= 0.0)
            for vj, pj in zip(v, p):
                if pj == 0.0:
                    assert vj - pj <= t + 1e-9
                else:
                    assert abs((vj - pj) - t) <= 1e-9

    def test_l21_subgradient(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            V = rng.standard_normal((3, 4))
            t = float(rng.uniform(0.1, 2.0))
            P = prox_l21(V, t)
            for j in range(V.shape[1]):
                col_p, col_v = P[:, j], V[:, j]
                nrm = np.linalg.norm(col_p)
                if nrm == 0.0:
                    assert np.linalg.norm(col_v) <= t + 1e-9
                else:
                    np.testing.assert_allclose(
                        col_v - col_p, t * col_p / nrm, atol=1e-9
                    )

    def test_svt_spectral_property(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            V = rng.standard_normal((4, 5))
            t = float(rng.uniform(0.1, 1.5))
            s_in = np.linalg.svd(V, compute_uv=False)
            s_out = np.linalg.svd(prox_nuclear(V, t), compute_uv=False)
            np.testing.assert_allclose(
                s_out, np.maximum(s_in - t, 0.0), atol=1e-8
            )

    def test_nuclear_unitary_invariance(self):
        rng = np.random.default_rng(35)
        Q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        Q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        D = np.diag([5.0, 3.0, 1.5, 0.2])
        t = 1.0
        np.testing.assert_allclose(
            prox_nuclear(Q1 @ D @ Q2, t),
            Q1 @ prox_nuclear(D, t) @ Q2,
            atol=1e-10,
        )

    def test_firm_nonexpansiveness(self):
        rng = np.random.default_rng(36)
        cases = [
            (lambda a: prox_l1(a, 0.7), (5,)),
            (lambda a: prox_l1_nonneg(a, 0.7), (5,)),
            (lambda a: ProxFunction("sq-frobenius", 2.0).prox(a, 1.0), (5,)),
            (lambda a: prox_l21(a, 0.7), (3, 4)),
            (lambda a: prox_nuclear(a, 0.7), (3, 4)),
            (project_nonneg, (5,)),
        ]
        for fn, shape in cases:
            for _ in range(50):
                u = rng.standard_normal(shape)
                v = rng.standard_normal(shape)
                assert np.linalg.norm(fn(u) - fn(v)) <= np.linalg.norm(
                    u - v
                ) + 1e-12

    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 6),
            elements=st.floats(-100, 100),
        ),
        hnp.arrays(
            np.float64,
            st.integers(1, 6),
            elements=st.floats(-100, 100),
        ),
        st.floats(1e-3, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_l1_nonexpansive_property(self, u, v, t):
        n = min(u.size, v.size)
        u, v = u[:n], v[:n]
        assert np.linalg.norm(prox_l1(u, t) - prox_l1(v, t)) <= np.linalg.norm(
            u - v
        ) + 1e-9


# ---------------------------------------------------------------------------
# ProxFunction wrapper
# ---------------------------------------------------------------------------


class TestProxFunction:
    def test_kind_and_weight_validation(self):
        with pytest.raises(ValueError):
            ProxFunction("l0")
        with pytest.raises(ValueError):
            ProxFunction("l1", -1.0)
        for weight in (np.nan, np.inf):
            with pytest.raises(ValueError, match="weight must be finite"):
                ProxFunction("l1", weight)
        for flag in (True, False):
            message = f"weight must be a number, got {flag}"
            with pytest.raises(ValueError, match=message):
                ProxFunction("l1", flag)

    def test_entrywise_flags(self):
        assert ProxFunction("l1").entrywise
        assert ProxFunction("l1-nonneg").entrywise
        assert ProxFunction("sq-frobenius").entrywise
        assert ProxFunction("indicator-nonneg").entrywise
        assert ProxFunction("zero").entrywise
        assert not ProxFunction("nuclear").entrywise
        assert not ProxFunction("l21").entrywise

    def test_values(self):
        v = np.array([1.0, -2.0])
        assert ProxFunction("l1", 2.0).value(v) == 6.0
        assert ProxFunction("l1-nonneg").value(v) == float("inf")
        assert ProxFunction("l1-nonneg").value(np.array([1.0, 2.0])) == 3.0
        assert ProxFunction("indicator-nonneg").value(v) == float("inf")
        assert ProxFunction("indicator-nonneg").value(np.abs(v)) == 0.0
        assert ProxFunction("sq-frobenius", 3.0).value(v) == pytest.approx(7.5)
        assert ProxFunction("zero").value(v) == 0.0
        M = np.diag([3.0, 4.0])
        assert ProxFunction("nuclear", 2.0).value(M) == pytest.approx(14.0)
        assert ProxFunction("l21", 2.0).value(M) == pytest.approx(14.0)
        assert ProxFunction("l1", 0.0).value(v) == 0.0

    def test_prox_matches_plain_functions(self):
        rng = np.random.default_rng(37)
        v = rng.standard_normal(5)
        M = rng.standard_normal((3, 4))
        np.testing.assert_array_equal(
            ProxFunction("l1", 2.0).prox(v, 0.5), prox_l1(v, 1.0)
        )
        np.testing.assert_array_equal(
            ProxFunction("l1-nonneg").prox(v, 0.5), prox_l1_nonneg(v, 0.5)
        )
        np.testing.assert_array_equal(
            ProxFunction("nuclear", 2.0).prox(M, 0.5), prox_nuclear(M, 1.0)
        )
        np.testing.assert_array_equal(
            ProxFunction("l21", 2.0).prox(M, 0.5), prox_l21(M, 1.0)
        )
        np.testing.assert_allclose(
            ProxFunction("sq-frobenius", 3.0).prox(v, 1.0), v / 4.0, atol=1e-15
        )
        np.testing.assert_array_equal(ProxFunction("zero").prox(v, 0.5), v)
        np.testing.assert_array_equal(
            ProxFunction("indicator-nonneg").prox(v, 0.5), project_nonneg(v)
        )

    def test_array_threshold_entrywise(self):
        v = np.array([3.0, -1.0, 0.2])
        t = np.array([1.0, 0.5, 0.1])
        got = ProxFunction("l1").prox(v, t)
        want = np.array(
            [ProxFunction("l1").prox(v[j : j + 1], float(t[j]))[0] for j in range(3)]
        )
        np.testing.assert_array_equal(got, want)
        got_sq = ProxFunction("sq-frobenius", 2.0).prox(v, t)
        np.testing.assert_allclose(got_sq, v / (1.0 + 2.0 * t), atol=1e-15)

    def test_nan_or_nonpositive_threshold_rejected(self):
        v = np.array([1.5, -2.0, 0.5])
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        bad = (float("nan"), -1.0, 0.0)
        for kind in ("l1", "l1-nonneg", "sq-frobenius", "indicator-nonneg", "zero"):
            for t in bad + (np.array([1.0, np.nan, 1.0]), np.array([1.0, -1.0, 1.0])):
                with pytest.raises(ValueError, match="threshold must be positive"):
                    ProxFunction(kind).prox(v, t)
        for kind in ("nuclear", "l21"):
            for t in bad:
                with pytest.raises(ValueError, match="threshold must be positive"):
                    ProxFunction(kind).prox(M, t)
        for t in bad:
            for fn, arg in (
                (prox_l1, v),
                (prox_l1_nonneg, v),
                (prox_nuclear, M),
                (prox_l21, M),
            ):
                with pytest.raises(ValueError, match="threshold must be positive"):
                    fn(arg, t)

    def test_out_argument_matches_fresh_result(self):
        rng = np.random.default_rng(41)
        v = rng.standard_normal(7)
        t = rng.uniform(0.1, 1.5, 7)
        for kind in ("l1", "l1-nonneg", "sq-frobenius", "indicator-nonneg", "zero"):
            for weight in (1.0, 0.7, 0.0):
                fn = ProxFunction(kind, weight)
                for thr in (t, 0.4):
                    want = fn.prox(v, thr)
                    out = np.empty_like(v)
                    assert fn.prox(v, thr, out=out) is out
                    np.testing.assert_array_equal(out, want)
                    inplace = v.copy()
                    assert fn.prox(inplace, thr, out=inplace) is inplace
                    np.testing.assert_array_equal(inplace, want)
        M = rng.standard_normal((3, 4))
        for kind in ("nuclear", "l21"):
            out = np.empty_like(M)
            ProxFunction(kind).prox(M, 0.3, out=out)
            np.testing.assert_array_equal(out, ProxFunction(kind).prox(M, 0.3))

    def test_array_threshold_rejected_for_spectral_kinds(self):
        M = np.ones((2, 2))
        with pytest.raises(ValueError):
            ProxFunction("nuclear").prox(M, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ProxFunction("l21").prox(M, np.array([1.0, 2.0]))
        V = np.random.default_rng(43).standard_normal((4, 3))
        for kind, fn in (("nuclear", prox_nuclear), ("l21", prox_l21)):
            for t in ([0.5, 1.0, 2.0], np.array([0.5, 1.0, 2.0]), np.array(0.5)):
                for call in (lambda: fn(V, t), lambda: ProxFunction(kind).prox(V, t)):
                    with pytest.raises(ValueError, match=f"{kind} prox needs a scalar"):
                        call()

    def test_spectral_kinds_need_a_matrix(self):
        for kind, fn in (("nuclear", prox_nuclear), ("l21", prox_l21)):
            for shape in ((3,), (2, 2, 2), ()):
                V = np.ones(shape)
                term = ProxFunction(kind)
                for call in (lambda: fn(V, 0.5), lambda: term.prox(V, 0.5)):
                    with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
                        call()

    def test_zero_weight_prox_is_identity_or_projection(self):
        v = np.array([1.5, -2.0])
        np.testing.assert_array_equal(ProxFunction("l1", 0.0).prox(v, 1.0), v)
        np.testing.assert_array_equal(
            ProxFunction("l1-nonneg", 0.0).prox(v, 1.0), project_nonneg(v)
        )
        M = np.ones((2, 2))
        np.testing.assert_array_equal(ProxFunction("nuclear", 0.0).prox(M, 1.0), M)
        np.testing.assert_array_equal(ProxFunction("l21", 0.0).prox(M, 1.0), M)

    def test_prox_minimizes_objective(self):
        rng = np.random.default_rng(38)
        kinds = ["l1", "l1-nonneg", "sq-frobenius", "indicator-nonneg", "zero"]
        for kind in kinds:
            fn = ProxFunction(kind, 1.3)
            v = rng.standard_normal(4)
            t = 0.7
            p = fn.prox(v, t)
            base = t * fn.value(p) + 0.5 * np.sum((p - v) ** 2)
            for _ in range(200):
                q = p + 0.1 * rng.standard_normal(4)
                cand = t * fn.value(q) + 0.5 * np.sum((q - v) ** 2)
                assert base <= cand + 1e-12


class TestSvdFallback:
    """A failed ``gesdd`` SVD is retried with LAPACK ``gesvd``."""

    def _matrix(self):
        return np.random.default_rng(61).standard_normal((7, 5))

    def test_prox_nuclear_falls_back_to_gesvd(self, monkeypatch):
        V, t = self._matrix(), 0.9
        U, s, Wt = scipy.linalg.svd(V, full_matrices=False, lapack_driver="gesvd")
        want = (U * np.maximum(s - t, 0.0)) @ Wt
        monkeypatch.setattr(np.linalg, "eigh", _fail_eigh)  # forces the SVD path
        monkeypatch.setattr(np.linalg, "svd", _fail_svd)
        got = prox_nuclear(V, t)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_nuclear_value_falls_back_to_gesvd(self, monkeypatch):
        V = self._matrix()
        s = scipy.linalg.svd(V, compute_uv=False, lapack_driver="gesvd")
        monkeypatch.setattr(np.linalg, "svd", _fail_svd)
        got = ProxFunction("nuclear", 2.0).value(V)
        assert got == pytest.approx(2.0 * float(np.sum(s)), rel=1e-12)

    def test_double_failure_raises(self, monkeypatch):
        V = self._matrix()
        monkeypatch.setattr(np.linalg, "eigh", _fail_eigh)  # forces the SVD path
        monkeypatch.setattr(np.linalg, "svd", _fail_svd)
        monkeypatch.setattr(scipy.linalg, "svd", _fail_svd)
        with pytest.raises(np.linalg.LinAlgError, match="singular value thresholding"):
            prox_nuclear(V, 0.5)
        with pytest.raises(np.linalg.LinAlgError):
            ProxFunction("nuclear").value(V)

    def test_non_finite_input_is_not_retried(self, monkeypatch):
        V = self._matrix()
        V[0, 0] = np.nan
        monkeypatch.setattr(np.linalg, "svd", _fail_svd)
        with pytest.raises(np.linalg.LinAlgError, match="any non-finite: True"):
            prox_nuclear(V, 0.5)


def _with_values(rng, m, n, values):
    """An ``m x n`` matrix with the given singular values, random vectors."""
    U, _ = np.linalg.qr(rng.standard_normal((m, len(values))))
    W, _ = np.linalg.qr(rng.standard_normal((n, len(values))))
    return (U * np.asarray(values)) @ W.T


def _reference_svt(V, t):
    """Thresholding by a full ``gesvd`` SVD: ``(X, kept s - t, s_max)``."""
    U, s, Wt = scipy.linalg.svd(V, full_matrices=False, lapack_driver="gesvd")
    kept = np.maximum(s - t, 0.0)
    return (U * kept) @ Wt, kept[kept > 0.0], s[0]


def _svt_inputs():
    """``name: (V, t, path)``; path ``None`` lets either fast path run."""
    rng = np.random.default_rng(71)
    eps = np.finfo(float).eps
    t = 0.8
    near = t * (1.0 + np.array([1e-8, 1e-12, 1e-15, 0.0, -1e-15, -1e-12, -1e-8]))
    at_t = rng.standard_normal((6, 4))
    at_t *= t / np.linalg.norm(at_t)
    return {
        "random": (rng.standard_normal((8, 5)), 0.7, "gram"),
        "rank-deficient": (
            rng.standard_normal((9, 2)) @ rng.standard_normal((2, 6)),
            0.3,
            "gram",
        ),
        "fully-thresholded": (0.1 * rng.standard_normal((5, 7)), 10.0, "zero"),
        "tall": (rng.standard_normal((40, 7)), 2.0, "gram"),
        "wide": (rng.standard_normal((6, 30)), 2.0, "gram"),
        "clustered-at-t": (_with_values(rng, 12, 9, [5 * t, 3 * t, *near]), t, "gram"),
        # Rank one, so s_max = ||V||_F: a few ulps above t keeps a value.
        "norm-just-above-t": (_with_values(rng, 7, 5, [t * (1 + 8 * eps)]), t, "gram"),
        "norm-at-t": (at_t, t, None),
        "norm-just-below-t": (at_t * (1 - 1e-9), t, "zero"),
        # s_max / t = 2e4: squaring would cost eps * 2e4 > 1e-12.
        "ill-conditioned": (
            _with_values(rng, 10, 8, [2e4, 3.0, 1.5, 1.2, 0.5]),
            1.0,
            "svd",
        ),
    }


class TestSvtKernel:
    """The thresholding kernel's singular values score its own output."""

    @pytest.mark.parametrize("weight", [0.0, 1.0, 0.3])
    @pytest.mark.parametrize("name", sorted(_svt_inputs()))
    def test_value_matches_the_term_value(self, name, weight):
        V, t, _ = _svt_inputs()[name]
        X, s = _svt(V, t)
        np.testing.assert_array_equal(X, prox_nuclear(V, t))
        got = _nuclear_value(weight, s)
        want = ProxFunction("nuclear", weight).value(X)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)
        if name == "fully-thresholded":
            assert got == 0.0 and not np.any(X)

    @pytest.mark.parametrize("weight", [0.0, 1.0, 0.3])
    def test_value_matches_after_gesvd_fallback(self, weight, monkeypatch):
        V, t, _ = _svt_inputs()["random"]
        monkeypatch.setattr(np.linalg, "eigh", _fail_eigh)  # forces the SVD path
        monkeypatch.setattr(np.linalg, "svd", _fail_svd)
        X, s = _svt(V, t)
        got = _nuclear_value(weight, s)
        want = ProxFunction("nuclear", weight).value(X)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)
        assert got > 0.0 or weight == 0.0

    @pytest.mark.parametrize("weight", [0.0, 1.0, 0.3])
    def test_prox_returns_the_value_it_knows(self, weight):
        V, t, _ = _svt_inputs()["random"]
        term = ProxFunction("nuclear", weight)
        out = V.copy()
        x, value = term.prox(out, t, out=out, return_value=True)
        assert x is out
        np.testing.assert_array_equal(x, term.prox(V, t))
        if weight == 0.0:
            assert value is None
        else:
            assert abs(value - term.value(x)) <= 1e-12 * term.value(x)
        for other in ("l1", "l21", "sq-frobenius", "l1-nonneg", "zero"):
            got, value = ProxFunction(other, 0.5).prox(V, t, return_value=True)
            np.testing.assert_array_equal(got, ProxFunction(other, 0.5).prox(V, t))
            assert value is None


class TestSvtPaths:
    """The kernel's zero, Gram and SVD paths against full-SVD thresholding."""

    @staticmethod
    def _spy(monkeypatch, fail_eigh=False):
        """Record every factorization the kernel makes, as ``(name, shape)``."""
        calls = []
        eigh, svd = np.linalg.eigh, prox._svd

        def counted_eigh(a, *args, **kwargs):
            calls.append(("eigh", a.shape))
            if fail_eigh:
                _fail_eigh()
            return eigh(a, *args, **kwargs)

        def counted_svd(V, compute_uv=True):
            calls.append(("svd", V.shape))
            return svd(V, compute_uv)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(prox, "_svd", counted_svd)
        return calls

    @staticmethod
    def _check_against_reference(V, t, X, s):
        want, kept, s_max = _reference_svt(V, t)
        if not np.any(want):
            assert not np.any(X) and s.size == 0
        assert np.max(np.abs(X - want)) <= 1e-10 * s_max
        got = np.sort(s)[::-1]
        size = max(got.size, kept.size)
        got = np.pad(got, (0, size - got.size))
        kept = np.pad(kept, (0, size - kept.size))
        assert np.max(np.abs(got - kept), initial=0.0) <= 1e-10 * s_max

    @pytest.mark.parametrize("name", sorted(_svt_inputs()))
    def test_matches_full_svd_thresholding(self, name, monkeypatch):
        V, t, path = _svt_inputs()[name]
        calls = self._spy(monkeypatch)
        X, s = _svt(V, t)
        self._check_against_reference(V, t, X, s)
        assert len(calls) <= 1
        small = (min(V.shape),) * 2
        if path == "zero":
            assert calls == [] and not np.any(X) and s.size == 0
        elif path == "gram":
            assert calls == [("eigh", small)]
        elif path == "svd":
            assert calls == [("svd", V.shape)]
        else:
            assert calls in ([], [("eigh", small)])

    @pytest.mark.parametrize("name", ["random", "tall", "wide", "clustered-at-t"])
    def test_failed_eigh_falls_back_to_svd(self, name, monkeypatch):
        V, t, _ = _svt_inputs()[name]
        calls = self._spy(monkeypatch, fail_eigh=True)
        X, s = _svt(V, t)
        self._check_against_reference(V, t, X, s)
        assert [kind for kind, _ in calls] == ["eigh", "svd"]
