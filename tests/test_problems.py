"""Benchmark problem builders: wiring, data generation, manifest round trips."""

import hashlib
import math

import numpy as np
import pytest

from mmadmm import problems
from mmadmm.blockspace import BlockVector, DimensionError, residual
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
from mmadmm.surrogates import SmoothQuadCoupling

from helpers import random_blocks


def _assert_residual(problem, x, *rows, atol=1e-12):
    """The stacked residual ``run`` sees equals the hand-computed ``rows``."""
    got = residual(problem.family, x, problem.b).ravel()
    want = np.concatenate([np.ravel(r) for r in rows])
    np.testing.assert_allclose(got, want, atol=atol)


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

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("d", 2.5, "d must be an integer, got 2.5"),
            ("n", math.nan, "n must be an integer, got nan"),
            ("rank", 2.5, "rank must be an integer, got 2.5"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("seed", -1, "seed must be at least 0, got -1"),
            ("block_dims", (2, 2.5, 4), r"block_dims\[1\] must be an integer"),
        ],
    )
    def test_integer_fields(self, field, value, message):
        # Each of these was accepted, and the build then raised TypeError.
        base = dict(seed=0, d=5, n=3)
        base[field] = value
        with pytest.raises(ValueError, match=message):
            DataGenSpec(**base)
        gen = DataGenSpec(seed=np.int64(2), d=5.0, n=3, block_dims=(1, 2.0, 3))
        assert (gen.seed, gen.d, gen.block_dims) == (2, 5, (1, 2, 3))
        assert type(gen.seed) is type(gen.d) is int

    @pytest.mark.parametrize(
        "field,message",
        [
            ("seed", "seed must be an integer, got True"),
            ("d", "d must be an integer, got True"),
            ("rank", "rank must be an integer, got True"),
            ("sparsity", r"sparsity is a fraction in \[0, 1\], got True"),
            ("obs_fraction", r"obs_fraction is a fraction in \(0, 1\], got True"),
        ],
    )
    def test_bool_is_not_a_number(self, field, message):
        # seed=True built seed 1 and sparsity=True planted every entry.
        with pytest.raises(ValueError, match=message):
            DataGenSpec(**{"seed": 0, "n": 3, field: True})
        gen = DataGenSpec(seed=10.0, d=5, n=3, sparsity=1, obs_fraction=1)
        assert (gen.seed, gen.sparsity, gen.obs_fraction) == (10, 1, 1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
    def test_noise_sigma_finite_and_nonnegative(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma must be finite"):
            DataGenSpec(seed=0, d=5, n=3, noise_sigma=sigma)


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

    def test_instance_is_pinned(self):
        # sha256 of the benchmark instance's matrices, in block order, and
        # of its y; the instances must not move.
        problem = build_nonneg_sparse_coding(DataGenSpec(0, sparsity=0.1, d=50, n=100))
        mats = hashlib.sha256()
        for op in problem.family.operators:
            mats.update(op.matrix.tobytes())
        assert mats.hexdigest() == (
            "f484ae837dc6c8a327719a22775505fb7c5731728acd4c1b2287e83012d44ecb"
        )
        assert hashlib.sha256(problem.data["y"].tobytes()).hexdigest() == (
            "4f1bf6a7855101b86bab5b31075bd02635e1db0b2f5f15fc08bd48acf7b8ecf6"
        )

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
        manual = -problem.data["y"] + sum(
            problem.data[f"A_{i}"] @ x[i] for i in range(3)
        )
        _assert_residual(problem, x, manual)


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
        _assert_residual(
            problem, BlockVector([Z, L]), Z.sum(axis=0, keepdims=True) - 1.0
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
        assert len(problem.family.rows) == 2

    def test_three_block_couples_consistently(self):
        X = self._X()
        problem = build_latent_lrr(X, lam=0.4, formulation="3-block")
        rng = np.random.default_rng(23)
        Z = rng.standard_normal((9, 9))
        L = rng.standard_normal((6, 6))
        E = X @ Z + L @ X - X
        _assert_residual(
            problem,
            BlockVector([Z, L, E]),
            Z.sum(axis=0, keepdims=True) - 1.0,
            np.zeros((6, 9)),
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
        _assert_residual(problem, BlockVector([J, E, Z]), E + X @ Z - X, Z - J)

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
        assert np.max(np.abs(residual(problem.family, x, problem.b))) <= 1e-12
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

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"seed": True}, "seed must be an integer, got True"),
            ({"rank": True}, "rank must be an integer, got True"),
            ({"per_subspace": True}, "per_subspace must be an integer, got True"),
            ({"corrupt_frac": True}, r"corrupt_frac is a fraction in \[0, 1\]"),
            ({"corrupt_frac": math.nan}, r"corrupt_frac is a fraction in \[0, 1\]"),
        ],
    )
    def test_bool_is_not_a_number(self, kwargs, message):
        # rank=True built rank 1 and corrupt_frac=True corrupted every column.
        with pytest.raises(ValueError, match=message):
            make_subspace_data(**{"seed": 0, **kwargs})
        np.testing.assert_array_equal(
            make_subspace_data(3.0, d=20.0, corrupt_frac=1),
            make_subspace_data(3, d=20, corrupt_frac=1.0),
        )

    # sha256 of the generated bytes as a loop filling one corrupted column
    # at a time produced them; the seeded instances must not move.
    @pytest.mark.parametrize(
        "seed,kwargs,digest",
        [
            (0, {}, "3574fe041ab64222054e5be697c3bbb8bdfb6f4d68c10220832350e01320eeb4"),
            (3, {}, "5a6b6963333f8827aeb530c18183b4fbd9a1f98807f820c5c618ef7d665bca5a"),
            (60, {}, "810d83c7296e28aaecf67d7b1d06a4ddb3a7561de292baa9292cbd5730f82921"),
            (
                7,
                {"d": 20, "per_subspace": 7, "corrupt_frac": 0.5},
                "48dafbd540167cf74d1ee24de746e904f005a66591bd4c9dbf7b060942e08bac",
            ),
        ],
    )
    def test_instances_are_pinned(self, seed, kwargs, digest):
        X = make_subspace_data(seed, **kwargs)
        assert hashlib.sha256(X.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"rank": 0}, "rank must be at least 1, got 0"),
            ({"d": 2.5}, "d must be an integer, got 2.5"),
            ({"n_subspaces": 0}, "n_subspaces must be at least 1"),
            ({"per_subspace": 1.5}, "per_subspace must be an integer"),
            ({"seed": 0.5}, "seed must be an integer"),
            ({"d": 3, "rank": 4}, "rank must not exceed d=3, got 4"),
            ({"noise_scale": math.nan}, "noise_scale must be finite"),
            ({"noise_scale": -0.1}, "noise_scale must be finite and nonnegative"),
        ],
    )
    def test_inputs_checked_before_drawing(self, kwargs, message):
        # rank=0 and noise_scale=nan used to return data (NaN for the
        # latter), and d=2.5 raised TypeError inside numpy.
        base = dict(seed=0, d=6, rank=2, n_subspaces=2, per_subspace=4)
        base.update(kwargs)
        with pytest.raises(ValueError, match=message):
            make_subspace_data(**base)


class TestNonFiniteLam:
    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_every_builder_names_lam(self, lam):
        X = make_subspace_data(0, d=6, rank=2, n_subspaces=2, per_subspace=4)
        builds = (
            lambda: build_nonneg_sparse_coding_noisy(_gen(), lam=lam),
            lambda: build_latent_lrr(X, lam=lam),
            lambda: build_latent_lrr(X, lam=lam, formulation="2-block"),
            lambda: build_lrr(X, X, lam=lam),
            lambda: build_nonneg_matrix_completion(_gen(), lam=lam),
        )
        message = f"lam must be positive and finite, got {lam}"
        for build in builds:
            with pytest.raises(ValueError, match=message):
                build()

    def test_manifest_rejects_non_finite_lam(self):
        latlrr3 = {"problem": "latlrr3", "seed": 0, "d": 6, "lam": "nan"}
        with pytest.raises(ValueError, match="lam"):
            from_manifest(latlrr3)
        nmc = {"problem": "nmc", "seed": 0, "d": 4, "n": 4, "lam": "inf"}
        with pytest.raises(ValueError, match="lam"):
            from_manifest(nmc)


class TestNegatedIdentityPieces:
    def test_minus_identity_is_exact(self):
        X = make_subspace_data(0, d=6, rank=2, n_subspaces=2, per_subspace=4)
        gen = DataGenSpec(seed=0, d=4, n=5)
        # (problem, row, block) of each -I piece: E in latlrr3, J in lrr,
        # Z in nmc.
        cases = (
            (build_latent_lrr(X), 1, 2),
            (build_lrr(X, X), 1, 0),
            (build_nonneg_matrix_completion(gen), 1, 2),
        )
        rng = np.random.default_rng(5)
        for problem, row, block in cases:
            op = dict(problem.family.rows[row])[block]
            v = rng.standard_normal(op.in_shape)
            np.testing.assert_array_equal(op.apply(v), -v)
            np.testing.assert_array_equal(op.adjoint(v), -v)
            assert op.op_norm_sq == 1.0 + 1e-12
            assert op.gram_rep() == ("scalar", 1.0)


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

    def test_absent_keys_take_the_owners_defaults(self):
        nmc = from_manifest({"problem": "nmc", "seed": 9, "d": 8, "n": 6})
        want = build_nonneg_matrix_completion(DataGenSpec(seed=9, d=8, n=6))
        for key in want.data:
            np.testing.assert_array_equal(nmc.data[key], want.data[key])
        assert nmc.meta == want.meta
        noisy = from_manifest({"problem": "nnsc-noisy", "seed": 3, "d": 5, "n": 4})
        want = build_nonneg_sparse_coding_noisy(DataGenSpec(seed=3, d=5, n=4))
        np.testing.assert_array_equal(noisy.data["y"], want.data["y"])
        assert noisy.meta == want.meta
        lat = from_manifest({"problem": "latlrr3", "seed": 3})
        np.testing.assert_array_equal(lat.data["X"], make_subspace_data(seed=3))
        assert lat.terms[2].weight == build_latent_lrr(lat.data["X"]).terms[2].weight

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError, match="unknown problem name"):
            from_manifest({"problem": "svm"})

    def test_misspelled_key_rejected(self):
        meta = {"problem": "nmc", "seed": 1, "d": 5, "n": 5, "noise_sgima": 0.3}
        with pytest.raises(ValueError) as info:
            from_manifest(meta)
        message = str(info.value)
        assert "unknown manifest key(s) ['noise_sgima'] for problem 'nmc'" in message
        assert "'noise_sigma'" in message and "'obs_fraction'" in message

    @pytest.mark.parametrize(
        "meta, unknown",
        [
            ({"problem": "nnsc", "seed": 1, "d": 5, "n": 2, "lam": 2.0}, "lam"),
            ({"problem": "nnsc-noisy", "seed": 1, "d": 5, "n": 2, "rank": 2}, "rank"),
            ({"problem": "latlrr3", "seed": 1, "n": 4}, "n"),
            ({"problem": "lrr", "seed": 1, "formulation": "3-block"}, "formulation"),
        ],
    )
    def test_key_the_problem_does_not_read_rejected(self, meta, unknown):
        pattern = rf"unknown manifest key\(s\) \['{unknown}'\]"
        with pytest.raises(ValueError, match=pattern):
            from_manifest(meta)

    @pytest.mark.parametrize(
        "name, builder",
        [
            ("nnsc", "build_nonneg_sparse_coding"),
            ("nnsc-noisy", "build_nonneg_sparse_coding_noisy"),
            ("latlrr2", "build_latent_lrr"),
            ("latlrr3", "build_latent_lrr"),
            ("lrr", "build_lrr"),
            ("nmc", "build_nonneg_matrix_completion"),
        ],
    )
    def test_rebuild_calls_the_module_builder(self, name, builder, monkeypatch):
        # A builder patched on the module, as a tracer patches it, is the
        # one the rebuild calls.
        calls = []
        real = getattr(problems, builder)

        def spy(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(problems, builder, spy)
        meta = {"problem": name, "seed": 0, "d": 4}
        if name in ("nnsc", "nnsc-noisy", "nmc"):
            meta["n"] = 3
        from_manifest(meta)
        assert calls == [name]

    @pytest.mark.parametrize(
        "key, value, cast",
        [("d", "4.5", "int"), ("seed", "x", "int"), ("sparsity", "dense", "float")],
    )
    def test_uncastable_value_names_its_key(self, key, value, cast):
        meta = {"problem": "nnsc", "seed": 1, "d": 5, "n": 2, key: value}
        with pytest.raises(ValueError) as info:
            from_manifest(meta)
        assert str(info.value).startswith(f"bad value for {key!r}: ")
        assert cast in str(info.value) and repr(value) in str(info.value)

    def test_formulation_must_match_the_problem(self):
        meta = {"problem": "latlrr3", "seed": 3, "per_subspace": 4}
        spec = from_manifest(dict(meta, formulation="3-block"))
        assert spec.name == "latlrr3"
        wrong = dict(meta, formulation="2-block")
        with pytest.raises(ValueError, match="'2-block' does not match problem"):
            from_manifest(wrong)


class TestObjectiveRuns:
    """One ``value`` call per run of equal entrywise terms; same sum as per block."""

    @staticmethod
    def _problems():
        gen = _gen(n=4, block_dims=(2, 3, 4, 5))
        X = np.random.default_rng(27).standard_normal((5, 8))
        return [
            build_nonneg_sparse_coding(gen),
            build_nonneg_sparse_coding_noisy(gen),
            build_lrr(X, X, lam=0.3),
            build_latent_lrr(
                make_subspace_data(3, d=10, per_subspace=6),
                lam=0.1,
                formulation="3-block",
            ),
        ]

    @staticmethod
    def _point(problem, rng):
        blocks = []
        for term, shape in zip(problem.terms, problem.block_shapes):
            blk = rng.standard_normal(shape)
            if term is not None and term.kind in ("l1-nonneg", "indicator-nonneg"):
                blk = np.abs(blk)
            blocks.append(blk)
        return BlockVector(blocks)

    def test_equals_per_block_sum(self, monkeypatch):
        rng = np.random.default_rng(28)
        calls = []
        value = ProxFunction.value

        def counted(term, v):
            calls.append(term.kind)
            return value(term, v)

        for problem, runs in zip(self._problems(), (1, 2, 2, 3)):
            for _ in range(3):
                x = self._point(problem, rng)
                want = sum(
                    term.value(blk)
                    for term, blk in zip(problem.terms, x.blocks)
                    if term is not None
                )
                if problem.smooth is not None:
                    want += problem.smooth.value(x)
                monkeypatch.setattr(ProxFunction, "value", counted)
                calls.clear()
                got = problem.objective(x)
                monkeypatch.setattr(ProxFunction, "value", value)
                assert len(calls) == runs, problem.name
                assert got == pytest.approx(want, rel=1e-12), problem.name

    def test_negative_entry_anywhere_in_a_run_is_infinite(self):
        problem = self._problems()[0]
        rng = np.random.default_rng(29)
        x = self._point(problem, rng)
        assert np.isfinite(problem.objective(x))
        for i, shape in enumerate(problem.block_shapes):
            blk = np.abs(rng.standard_normal(shape))
            blk[-1] = -1e-3
            assert problem.objective(x.replace(i, blk)) == float("inf")

    def test_block_shapes_checked(self):
        problem = self._problems()[0]
        x = BlockVector([np.zeros(m) for m in (3, 2, 4, 5)])
        with pytest.raises(DimensionError):
            problem.objective(x)

    def test_given_values_replace_only_runs_of_one(self, monkeypatch):
        # latlrr3: two nuclear runs of one, then a sq-frobenius run.
        problem = self._problems()[3]
        x = self._point(problem, np.random.default_rng(30))
        terms = problem.terms
        scored = problem.objective(x)
        calls = []
        value = ProxFunction.value

        def counted(term, v):
            calls.append(term.kind)
            return value(term, v)

        monkeypatch.setattr(ProxFunction, "value", counted)
        # A given value is used as is; None or a missing block is scored.
        given = {0: 1.5, 1: None, 2: 1e6}
        got = problem.objective(x, given)
        assert calls == ["nuclear", "sq-frobenius"]
        assert got == 1.5 + value(terms[1], x[1]) + value(terms[2], x[2])
        calls.clear()
        assert problem.objective(x, {}) == scored and len(calls) == 3


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

    @pytest.mark.parametrize("count", [1, 3])
    def test_smooth_coupling_needs_one_operator_per_block(self, count):
        from mmadmm.blockspace import ScaledIdentityOp

        ops = (ScaledIdentityOp(1.0, (2,)), ScaledIdentityOp(1.0, (2,)))
        smooth = SmoothQuadCoupling(1.0, ops[:1] + (None,) * (count - 1), np.zeros(2))
        with pytest.raises(ValueError, match=f"has {count} operators for 2 blocks"):
            ProblemSpec(
                "bad",
                [(ops, np.zeros(2))],
                ((2,), (2,)),
                (ProxFunction("l1"), ProxFunction("l1")),
                smooth=smooth,
            )

    def test_smooth_operator_must_take_its_block(self):
        from mmadmm.blockspace import DenseMatrixOp, ScaledIdentityOp

        ops = (ScaledIdentityOp(1.0, (2,)), DenseMatrixOp(np.ones((2, 3))))
        coupling = (None, ScaledIdentityOp(1.0, (2,)))
        smooth = SmoothQuadCoupling(1.0, coupling, np.zeros(2))
        with pytest.raises(DimensionError, match="block 1: smooth coupling operator"):
            ProblemSpec(
                "bad",
                [(ops, np.zeros(2))],
                ((2,), (3,)),
                (ProxFunction("l1"), ProxFunction("l1")),
                smooth=smooth,
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
