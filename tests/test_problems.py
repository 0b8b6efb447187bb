"""Benchmark problem builders: wiring, data generation, manifest round trips."""

import numpy as np
import pytest

from mmadmm.blockspace import BlockVector
from mmadmm.problems import (
    DataGenSpec,
    ProblemSpec,
    build_latent_lrr,
    build_lrr,
    build_nonneg_matrix_completion,
    build_nonneg_sparse_coding,
    build_nonneg_sparse_coding_noisy,
    from_manifest,
    make_subspace_data,
)
from mmadmm.prox import ProxFunction
from mmadmm.solvers import SolverConfig, run

from helpers import random_blocks


def _gen(**kwargs):
    base = dict(seed=11, d=8, n=3, block_dims=(2, 3, 4), sparsity=0.5)
    base.update(kwargs)
    return DataGenSpec(**base)


class TestDataGenSpec:
    def test_default_dims_progression(self):
        gen = DataGenSpec(seed=0, d=5, n=4)
        assert gen.dims() == (10, 20, 30, 40)

    def test_explicit_dims(self):
        assert _gen().dims() == (2, 3, 4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d": 0},
            {"n": 0},
            {"sparsity": 1.5},
            {"sparsity": -0.1},
            {"obs_fraction": 0.0},
            {"obs_fraction": 1.5},
            {"rank": 0},
            {"block_dims": (2, 3)},
            {"block_dims": (2, 3, 0)},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(seed=0, d=5, n=3)
        base.update(kwargs)
        with pytest.raises(ValueError):
            DataGenSpec(**base)


class TestNonnegSparseCoding:
    def test_structure(self):
        problem = build_nonneg_sparse_coding(_gen())
        assert problem.name == "nnsc"
        assert problem.n == 3
        assert problem.block_shapes == ((2,), (3,), (4,))
        assert all(t.kind == "l1-nonneg" and t.weight == 1.0 for t in problem.terms)
        assert problem.smooth is None
        assert set(problem.data) == {"A_0", "A_1", "A_2", "y"}
        assert problem.meta["problem"] == "nnsc"
        assert problem.meta["block_dims"] == "2,3,4"

    def test_deterministic(self):
        a = build_nonneg_sparse_coding(_gen())
        b = build_nonneg_sparse_coding(_gen())
        for key in a.data:
            np.testing.assert_array_equal(a.data[key], b.data[key])
        c = build_nonneg_sparse_coding(_gen(seed=12))
        assert not np.array_equal(a.data["y"], c.data["y"])

    def test_block_streams_do_not_depend_on_block_count(self):
        small = build_nonneg_sparse_coding(_gen())
        big = build_nonneg_sparse_coding(
            _gen(n=5, block_dims=(2, 3, 4, 2, 2))
        )
        for i in range(3):
            np.testing.assert_array_equal(
                small.data[f"A_{i}"], big.data[f"A_{i}"]
            )

    def test_rhs_is_feasible_image(self):
        # y must lie in the range of [A_1 .. A_n] restricted to x >= 0; a
        # least-squares residual of zero over the planted supports is the
        # cheap necessary check available without the planted point.
        problem = build_nonneg_sparse_coding(_gen(d=4))
        stacked = np.hstack([problem.data[f"A_{i}"] for i in range(3)])
        resid = np.linalg.lstsq(stacked, problem.data["y"], rcond=None)[1]
        assert resid.size == 0 or resid[0] <= 1e-18

    def test_objective_and_residual(self):
        problem = build_nonneg_sparse_coding(_gen())
        rng = np.random.default_rng(0)
        x = BlockVector(random_blocks(rng, problem.block_shapes))
        want = sum(np.sum(np.abs(blk)) for blk in x.blocks)
        assert problem.objective(BlockVector([np.abs(b) for b in x.blocks])) == (
            pytest.approx(want, rel=1e-12)
        )
        r = problem.row_residuals(x)[0]
        manual = -problem.data["y"] + sum(
            problem.data[f"A_{i}"] @ x[i] for i in range(3)
        )
        np.testing.assert_allclose(r, manual, atol=1e-12)


class TestNoisyVariant:
    def test_structure(self):
        problem = build_nonneg_sparse_coding_noisy(
            _gen(noise_sigma=0.3), lam=2.0
        )
        assert problem.name == "nnsc-noisy"
        assert problem.n == 4
        assert problem.block_shapes[-1] == (8,)
        assert problem.terms[-1].kind == "l1"
        assert problem.terms[-1].weight == 2.0
        assert problem.meta["lam"] == 2.0
        assert problem.meta["noise_sigma"] == 0.3

    def test_reuses_noiseless_draws(self):
        clean = build_nonneg_sparse_coding(_gen())
        noisy = build_nonneg_sparse_coding_noisy(_gen(noise_sigma=0.5))
        for i in range(3):
            np.testing.assert_array_equal(
                clean.data[f"A_{i}"], noisy.data[f"A_{i}"]
            )
        assert not np.array_equal(clean.data["y"], noisy.data["y"])
        silent = build_nonneg_sparse_coding_noisy(_gen(noise_sigma=0.0))
        np.testing.assert_array_equal(clean.data["y"], silent.data["y"])

    def test_lam_validation(self):
        with pytest.raises(ValueError, match="lam must be positive"):
            build_nonneg_sparse_coding_noisy(_gen(), lam=0.0)


class TestLatentLRR:
    def _X(self, d=6, n=9, seed=21):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((d, n))

    def test_two_block_structure(self):
        X = self._X()
        problem = build_latent_lrr(X, lam=0.4, formulation="2-block")
        assert problem.name == "latlrr2"
        assert problem.block_shapes == ((9, 9), (6, 6))
        assert all(t.kind == "nuclear" for t in problem.terms)
        assert problem.smooth is not None
        assert problem.smooth.weight == 0.4
        assert problem.smooth.support == (0, 1)

    def test_two_block_objective(self):
        X = self._X()
        problem = build_latent_lrr(X, lam=0.4, formulation="2-block")
        rng = np.random.default_rng(22)
        Z = rng.standard_normal((9, 9))
        L = rng.standard_normal((6, 6))
        got = problem.objective(BlockVector([Z, L]))
        want = (
            np.linalg.svd(Z, compute_uv=False).sum()
            + np.linalg.svd(L, compute_uv=False).sum()
            + 0.2 * np.linalg.norm(X @ Z + L @ X - X) ** 2
        )
        assert got == pytest.approx(want, rel=1e-10)
        r = problem.row_residuals(BlockVector([Z, L]))[0]
        np.testing.assert_allclose(
            r, Z.sum(axis=0, keepdims=True) - 1.0, atol=1e-12
        )

    def test_three_block_structure(self):
        X = self._X()
        problem = build_latent_lrr(X, lam=0.4, formulation="3-block")
        assert problem.name == "latlrr3"
        assert problem.block_shapes == ((9, 9), (6, 6), (6, 9))
        assert problem.smooth is None
        assert [t.kind for t in problem.terms] == [
            "nuclear",
            "nuclear",
            "sq-frobenius",
        ]
        assert problem.terms[2].weight == 0.4
        assert problem.recommended_partition.b1 == (0,)
        assert problem.recommended_partition.b2 == (1, 2)
        assert len(problem.family.row_groups) == 2

    def test_three_block_couples_consistently(self):
        X = self._X()
        problem = build_latent_lrr(X, lam=0.4, formulation="3-block")
        rng = np.random.default_rng(23)
        Z = rng.standard_normal((9, 9))
        L = rng.standard_normal((6, 6))
        E = X @ Z + L @ X - X
        r1, r2 = problem.row_residuals(BlockVector([Z, L, E]))
        np.testing.assert_allclose(r2, np.zeros((6, 9)), atol=1e-12)
        np.testing.assert_allclose(
            r1, Z.sum(axis=0, keepdims=True) - 1.0, atol=1e-12
        )

    def test_validation(self):
        X = self._X()
        with pytest.raises(ValueError, match="lam must be positive"):
            build_latent_lrr(X, lam=0.0)
        with pytest.raises(ValueError, match="formulation"):
            build_latent_lrr(X, lam=0.1, formulation="4-block")
        with pytest.raises(ValueError, match="matrix"):
            build_latent_lrr(np.zeros(3), lam=0.1)


class TestLRR:
    def test_structure_and_objective(self):
        rng = np.random.default_rng(24)
        X = rng.standard_normal((5, 8))
        problem = build_lrr(X, X, lam=0.3)
        assert problem.name == "lrr"
        assert problem.block_shapes == ((8, 8), (5, 8), (8, 8))
        assert problem.terms[2] is None
        assert problem.recommended_partition.b1 == (0, 1)
        J = rng.standard_normal((8, 8))
        E = rng.standard_normal((5, 8))
        Z = rng.standard_normal((8, 8))
        got = problem.objective(BlockVector([J, E, Z]))
        want = np.linalg.svd(J, compute_uv=False).sum() + 0.3 * np.linalg.norm(
            E, axis=0
        ).sum()
        assert got == pytest.approx(want, rel=1e-10)
        r1, r2 = problem.row_residuals(BlockVector([J, E, Z]))
        np.testing.assert_allclose(r1, E + X @ Z - X, atol=1e-12)
        np.testing.assert_allclose(r2, Z - J, atol=1e-12)

    def test_runs_under_mixed_solver(self):
        rng = np.random.default_rng(25)
        X = rng.standard_normal((5, 8))
        problem = build_lrr(X, X, lam=0.3)
        result = run(problem, "madmm", SolverConfig(beta0=0.1, max_iter=5))
        assert len(result.trace) == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="row space"):
            build_lrr(np.zeros((4, 5)), np.zeros((3, 2)), lam=0.1)
        with pytest.raises(ValueError, match="lam must be positive"):
            build_lrr(np.zeros((4, 5)), np.zeros((4, 2)), lam=-1.0)


class TestMatrixCompletion:
    def _problem(self, **kwargs):
        base = dict(seed=31, d=12, n=10, rank=2, obs_fraction=0.5, noise_sigma=0.1)
        base.update(kwargs)
        return build_nonneg_matrix_completion(DataGenSpec(**base), lam=4.0)

    def test_structure(self):
        problem = self._problem()
        assert problem.name == "nmc"
        assert problem.block_shapes == (((12, 10),) * 3)[:3]
        assert [t.kind for t in problem.terms] == [
            "nuclear",
            "sq-frobenius",
            "indicator-nonneg",
        ]
        assert problem.terms[1].weight == 4.0
        assert problem.recommended_partition.b1 == (0, 1)
        assert set(problem.data) == {"B_obs", "mask", "truth"}

    def test_suggested_run_settings(self):
        problem = self._problem()
        assert problem.suggested == {
            "beta0": 10 * 1e-4,
            "rho": 10.0,
            "schedule": "adaptive",
            "eps_primal": 1e-3,
            "eps_step": 1e-3,
        }
        assert "eps" not in problem.suggested

    def test_data_properties(self):
        problem = self._problem()
        mask = problem.data["mask"]
        truth = problem.data["truth"]
        b = problem.data["B_obs"]
        assert np.all((mask == 0.0) | (mask == 1.0))
        assert np.all(truth >= 0.0)
        assert np.linalg.matrix_rank(truth) == 2
        np.testing.assert_array_equal(b[mask == 0.0], 0.0)
        frac = mask.mean()
        assert 0.3 <= frac <= 0.7

    def test_truth_is_nearly_feasible(self):
        problem = self._problem()
        mask = problem.data["mask"]
        truth = problem.data["truth"]
        b = problem.data["B_obs"]
        x = BlockVector([truth, b - mask * truth, truth])
        r1, r2 = problem.row_residuals(x)
        assert np.max(np.abs(r1)) <= 1e-12
        assert np.max(np.abs(r2)) <= 1e-12
        assert np.isfinite(problem.objective(x))

    def test_lam_validation(self):
        with pytest.raises(ValueError, match="lam must be positive"):
            build_nonneg_matrix_completion(
                DataGenSpec(seed=0, d=4, n=4), lam=0.0
            )


class TestSubspaceData:
    def test_clean_columns_live_in_low_rank_chunks(self):
        X = make_subspace_data(
            seed=5, d=12, rank=3, n_subspaces=4, per_subspace=6, corrupt_frac=0.0
        )
        assert X.shape == (12, 24)
        for k in range(4):
            chunk = X[:, 6 * k : 6 * (k + 1)]
            s = np.linalg.svd(chunk, compute_uv=False)
            assert s[3] <= 1e-10 * s[0]

    def test_corruption_touches_expected_count(self):
        clean = make_subspace_data(
            seed=6, d=10, rank=2, n_subspaces=3, per_subspace=10, corrupt_frac=0.0
        )
        dirty = make_subspace_data(
            seed=6, d=10, rank=2, n_subspaces=3, per_subspace=10, corrupt_frac=0.2
        )
        changed = np.sum(np.any(clean != dirty, axis=0))
        assert changed == round(0.2 * 30)

    def test_deterministic(self):
        a = make_subspace_data(seed=7, d=8, rank=2, n_subspaces=2, per_subspace=5)
        b = make_subspace_data(seed=7, d=8, rank=2, n_subspaces=2, per_subspace=5)
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError, match="corrupt_frac"):
            make_subspace_data(seed=0, corrupt_frac=1.2)


class TestManifestRoundTrip:
    def test_nnsc_requires_dimensions(self):
        with pytest.raises(KeyError):
            from_manifest({"problem": "nnsc", "seed": 3})
        with pytest.raises(KeyError):
            from_manifest({"problem": "nnsc", "seed": 3, "d": 5})

    def test_nnsc_noisy_round_trip(self):
        original = build_nonneg_sparse_coding_noisy(
            _gen(noise_sigma=0.1), lam=2.0
        )
        rebuilt = from_manifest(original.meta)
        assert rebuilt.name == original.name
        for key in original.data:
            np.testing.assert_array_equal(original.data[key], rebuilt.data[key])

    def test_string_values_cast(self):
        original = build_nonneg_sparse_coding(_gen())
        as_read = {k: str(v) for k, v in original.meta.items()}
        rebuilt = from_manifest(as_read)
        np.testing.assert_array_equal(original.data["y"], rebuilt.data["y"])
        assert rebuilt.block_shapes == original.block_shapes

    def test_subspace_problems_rebuild_from_recipe(self):
        meta = {
            "problem": "latlrr3",
            "seed": "3",
            "d": "10",
            "rank": "2",
            "n_subspaces": "2",
            "per_subspace": "6",
            "corrupt_frac": "0.1",
            "lam": "0.5",
        }
        spec = from_manifest(meta)
        X = make_subspace_data(
            seed=3, d=10, rank=2, n_subspaces=2, per_subspace=6, corrupt_frac=0.1
        )
        np.testing.assert_array_equal(spec.data["X"], X)
        assert spec.terms[2].weight == 0.5
        lrr = from_manifest(dict(meta, problem="lrr"))
        np.testing.assert_array_equal(lrr.data["A_dict"], X)

    def test_nmc_round_trip(self):
        original = build_nonneg_matrix_completion(
            DataGenSpec(seed=9, d=8, n=6, rank=2, obs_fraction=0.5, noise_sigma=0.2),
            lam=3.0,
        )
        rebuilt = from_manifest(original.meta)
        np.testing.assert_array_equal(original.data["B_obs"], rebuilt.data["B_obs"])
        np.testing.assert_array_equal(original.data["mask"], rebuilt.data["mask"])
        assert rebuilt.terms[1].weight == 3.0

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError, match="unknown problem name"):
            from_manifest({"problem": "svm"})


class TestProblemSpecValidation:
    def test_term_count_must_match(self):
        from mmadmm.blockspace import ScaledIdentityOp

        ops = (ScaledIdentityOp(1.0, (2,)),)
        with pytest.raises(ValueError, match="one term entry per block"):
            ProblemSpec("bad", [(ops, np.zeros(2))], ((2,),), ())

    def test_rows_must_name_all_blocks(self):
        from mmadmm.blockspace import ScaledIdentityOp

        ops = (ScaledIdentityOp(1.0, (2,)),)
        with pytest.raises(ValueError, match="every row must name all blocks"):
            ProblemSpec(
                "bad",
                [(ops, np.zeros(2))],
                ((2,), (3,)),
                (ProxFunction("l1"), ProxFunction("l1")),
            )

    def test_orphan_block_rejected(self):
        from mmadmm.blockspace import ScaledIdentityOp

        ops = (ScaledIdentityOp(1.0, (2,)), None)
        with pytest.raises(ValueError, match="appears nowhere"):
            ProblemSpec(
                "bad",
                [(ops, np.zeros(2))],
                ((2,), (3,)),
                (ProxFunction("l1"), None),
            )
