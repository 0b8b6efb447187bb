"""End-to-end command-line flows: generate, solve, bench, partition-study."""

import re

import numpy as np
import pytest

from mmadmm import blockspace, partition, problems
from mmadmm.cli import _CONFIG_FIELDS, build_parser, main
from mmadmm.fileio import read_array_csv, read_array_mm, read_manifest, read_trace_csv
from mmadmm.partition import case1_partition, case1_scan

SUMMARY = re.compile(
    r"^(?P<label>[\w-]+): stop=(?P<stop>converged|budget) iters=(?P<iters>\d+) "
    r"objective=(?P<obj>n/a|[-+0-9.eE]+) rel_residual=(n/a|[-+0-9.eE]+) "
    r"backtracks=\d+$"
)


def _flag(name):
    return "--" + name.replace("_", "-")


# ``generate`` flags per problem, and the manifest each writes with seed 2.
_ROUND_TRIP_FLAGS = {
    "nnsc": ["--d", "6", "--n", "2", "--block-dims", "2,3"],
    "nnsc-noisy": ["--d", "6", "--n", "2", "--noise-sigma", "0.1"],
    "nmc": ["--d", "6", "--n", "5", "--rank", "2", "--lam", "3"],
}
_SUBSPACE_FLAGS = ["--d", "6", "--rank", "2", "--n-subspaces", "2", "--lam", "0.5"]
_SUBSPACE_TAIL = ["seed = 2", "d = 6", "rank = 2", "n_subspaces = 2"]
_ROUND_TRIP_MANIFESTS = {
    "nnsc": [
        "problem = nnsc",
        "seed = 2",
        "d = 6",
        "n = 2",
        "block_dims = 2,3",
        "sparsity = 0.10000000000000001",
    ],
    "nnsc-noisy": [
        "problem = nnsc-noisy",
        "seed = 2",
        "d = 6",
        "n = 2",
        "block_dims = 10,20",
        "sparsity = 0.10000000000000001",
        "noise_sigma = 0.10000000000000001",
        "lam = 1",
    ],
    "latlrr2": [
        "lam = 0.5",
        "formulation = 2-block",
        "problem = latlrr2",
        *_SUBSPACE_TAIL,
    ],
    "latlrr3": [
        "lam = 0.5",
        "formulation = 3-block",
        "problem = latlrr3",
        *_SUBSPACE_TAIL,
    ],
    "lrr": ["problem = lrr", "lam = 0.5", *_SUBSPACE_TAIL],
    "nmc": [
        "problem = nmc",
        "seed = 2",
        "d = 6",
        "n = 5",
        "rank = 2",
        "obs_fraction = 0.59999999999999998",
        "noise_sigma = 0",
        "lam = 3",
    ],
}


def _generate_round_trip(name, tmp_path):
    out = tmp_path / name
    argv = ["generate", "--problem", name, "--seed", "2", "--out", str(out)]
    assert main(argv + _ROUND_TRIP_FLAGS.get(name, _SUBSPACE_FLAGS)) == 0
    return out


def _generate_nnsc(tmp_path, n_blocks=2):
    out = tmp_path / "data"
    dims = ",".join(str(2 + i) for i in range(n_blocks))
    code = main(
        [
            "generate",
            "--problem",
            "nnsc",
            "--seed",
            "3",
            "--d",
            "6",
            "--n",
            str(n_blocks),
            "--block-dims",
            dims,
            "--sparsity",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out / "manifest.txt"


def _generate_latlrr2(tmp_path):
    out = tmp_path / "lat"
    code = main(
        [
            "generate",
            "--problem",
            "latlrr2",
            "--seed",
            "4",
            "--d",
            "8",
            "--rank",
            "2",
            "--n-subspaces",
            "2",
            "--per-subspace",
            "4",
            "--lam",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out / "manifest.txt"


class TestGenerate:
    def test_writes_data_and_manifest(self, tmp_path, capsys):
        manifest = _generate_nnsc(tmp_path)
        out = capsys.readouterr().out
        assert f"generated nnsc: 3 data files in {manifest.parent}" in out
        rebuilt = problems.from_manifest(read_manifest(manifest))
        stored = read_array_csv(manifest.parent / "y.csv")
        np.testing.assert_array_equal(stored, rebuilt.data["y"])
        for name in ("A_0", "A_1"):
            np.testing.assert_array_equal(
                read_array_csv(manifest.parent / f"{name}.csv"),
                rebuilt.data[name],
            )

    def test_mask_goes_to_matrix_market(self, tmp_path, capsys):
        out = tmp_path / "nmc"
        code = main(
            [
                "generate",
                "--problem",
                "nmc",
                "--seed",
                "5",
                "--d",
                "8",
                "--n",
                "6",
                "--rank",
                "2",
                "--obs-fraction",
                "0.5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "generated nmc: 3 data files" in capsys.readouterr().out
        assert (out / "mask.mtx").exists()
        assert (out / "B_obs.csv").exists()
        assert not (out / "mask.csv").exists()

    def test_unknown_problem_is_config_error(self, tmp_path, capsys):
        code = main(
            ["generate", "--problem", "svm", "--seed", "1", "--out", str(tmp_path)]
        )
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    def test_missing_dimension_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = main(
            ["generate", "--problem", "nnsc", "--seed", "0", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error")
        assert "missing key 'd'" in err
        assert not out.exists()

    def test_non_finite_lam_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "nmc"
        argv = ["generate", "--problem", "nmc", "--seed", "0", "--d", "4"]
        code = main(argv + ["--n", "4", "--lam", "nan", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot generate nmc")
        assert "lam must be positive and finite, got nan" in err
        assert not out.exists()

    def test_flag_the_problem_ignores_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "lat"
        argv = ["generate", "--problem", "latlrr3", "--seed", "0", "--n", "5"]
        code = main(argv + ["--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot generate latlrr3")
        assert "unknown manifest key(s) ['n']" in err
        assert not out.exists()

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_manifest_round_trip(self, name, tmp_path, capsys):
        out = _generate_round_trip(name, tmp_path)
        capsys.readouterr()
        rebuilt = problems.from_manifest(read_manifest(out / "manifest.txt"))
        assert rebuilt.name == name
        for key, arr in rebuilt.data.items():
            path = out / (f"{key}.mtx" if key == "mask" else f"{key}.csv")
            read = read_array_mm if key == "mask" else read_array_csv
            np.testing.assert_array_equal(read(path), arr)

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_manifest_text_is_pinned(self, name, tmp_path):
        out = _generate_round_trip(name, tmp_path)
        lines = _ROUND_TRIP_MANIFESTS[name]
        assert (out / "manifest.txt").read_text() == "\n".join(lines) + "\n"

    def test_recipe_flags_are_the_manifest_keys(self):
        # Every key of the table but formulation, which the name implies,
        # with the flag name, dest and type the flag has always had.
        types = {
            "d": int,
            "n": int,
            "block_dims": str,
            "sparsity": float,
            "noise_sigma": float,
            "lam": float,
            "rank": int,
            "obs_fraction": float,
            "n_subspaces": int,
            "per_subspace": int,
            "corrupt_frac": float,
        }
        table = {
            key
            for recipe in problems._RECIPES.values()
            for key in (*recipe.keys, *recipe.implied)
        }
        assert table - {"formulation"} == set(types)
        argv = ["generate", "--problem", "nnsc", "--seed", "0", "--out", "o"]
        args = vars(
            build_parser().parse_args(
                argv + [arg for key in types for arg in (_flag(key), "2")]
            )
        )
        assert set(args) == set(types) | {"command", "problem", "seed", "out", "func"}
        for key, cast in types.items():
            assert type(args[key]) is cast and args[key] == cast("2")


class TestSolve:
    def test_summary_and_trace(self, tmp_path, capsys):
        manifest = _generate_nnsc(tmp_path)
        trace_path = tmp_path / "trace.csv"
        code = main(
            [
                "solve",
                "--manifest",
                str(manifest),
                "--trace",
                str(trace_path),
                "--solver",
                "jacobi",
                "--max-iter",
                "20",
                "--workers",
                "2",
            ]
        )
        capsys.readouterr()  # drop generate output captured above
        assert code == 0
        rows = read_trace_csv(trace_path)
        assert len(rows) <= 20 and rows[0]["k"] == 1

    def test_summary_line_shape(self, tmp_path, capsys):
        manifest = _generate_nnsc(tmp_path)
        trace_path = tmp_path / "trace.csv"
        capsys.readouterr()
        code = main(
            [
                "solve",
                "--manifest",
                str(manifest),
                "--trace",
                str(trace_path),
                "--solver",
                "madmm-bt",
                "--max-iter",
                "15",
            ]
        )
        assert code == 0
        line = capsys.readouterr().out.strip()
        m = SUMMARY.match(line)
        assert m and m["label"] == "madmm-bt" and m["stop"] == "budget"
        assert int(m["iters"]) == 15

    def test_empty_run_prints_placeholder(self, tmp_path, capsys):
        manifest = _generate_nnsc(tmp_path)
        capsys.readouterr()
        code = main(
            [
                "solve",
                "--manifest",
                str(manifest),
                "--trace",
                str(tmp_path / "t.csv"),
                "--max-iter",
                "0",
            ]
        )
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert "iters=0 objective=n/a rel_residual=n/a" in line
        assert SUMMARY.match(line)

    def test_forced_first_side_size(self, tmp_path, capsys):
        manifest = _generate_nnsc(tmp_path, n_blocks=3)
        code = main(
            [
                "solve",
                "--manifest",
                str(manifest),
                "--trace",
                str(tmp_path / "t.csv"),
                "--solver",
                "madmm",
                "--n1",
                "2",
                "--max-iter",
                "5",
            ]
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            [
                "solve",
                "--manifest",
                str(manifest),
                "--trace",
                str(tmp_path / "t.csv"),
                "--n1",
                "9",
                "--max-iter",
                "5",
            ]
        )
        assert code == 1
        assert "n1 must lie in [1, 3]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--beta0", "-1.0"),
            ("--rho", "0.5"),
            ("--mu", "1.0"),
            ("--workers", "0"),
        ],
    )
    def test_bad_numbers_are_config_errors(self, tmp_path, capsys, flag, value):
        manifest = _generate_nnsc(tmp_path)
        capsys.readouterr()
        code = main(
            [
                "solve",
                "--manifest",
                str(manifest),
                "--trace",
                str(tmp_path / "t.csv"),
                flag,
                value,
            ]
        )
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    def test_run_flags_are_the_config_fields(self, tmp_path, capsys):
        args = build_parser().parse_args(
            ["solve", "--manifest", "m", "--trace", "t"]
            + [arg for f in _CONFIG_FIELDS for arg in (_flag(f.name), str(f.default))]
        )
        for f in _CONFIG_FIELDS:
            value = getattr(args, f.name)
            assert type(value) is type(f.default) and value == f.default
        manifest = _generate_nnsc(tmp_path)
        capsys.readouterr()
        code = main(
            [
                "solve",
                "--manifest",
                str(manifest),
                "--trace",
                str(tmp_path / "t.csv"),
                "--schedule",
                "bogus",
            ]
        )
        assert code == 1
        assert "unknown schedule" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_misspelled_manifest_key_is_config_error(self, command, tmp_path, capsys):
        manifest = _generate_nnsc(tmp_path)
        with open(manifest, "a") as fh:
            fh.write("sparsty = 0.3\n")
        capsys.readouterr()
        out = ["--trace", str(tmp_path / "t.csv")]
        if command == "bench":
            out = ["--solvers", "madmm", "--out", str(tmp_path / "b.csv")]
        code = main([command, "--manifest", str(manifest), *out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: bad manifest {manifest}")
        assert "unknown manifest key(s) ['sparsty'] for problem 'nnsc'" in err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("key, value", [("d", "4.5"), ("seed", "x")])
    def test_uncastable_manifest_value_names_its_key(
        self, key, value, tmp_path, capsys
    ):
        manifest = _generate_nnsc(tmp_path)
        lines = manifest.read_text().splitlines()
        edited = [
            f"{key} = {value}" if line.startswith(f"{key} =") else line
            for line in lines
        ]
        assert edited != lines
        manifest.write_text("\n".join(edited) + "\n")
        capsys.readouterr()
        trace = tmp_path / "t.csv"
        code = main(["solve", "--manifest", str(manifest), "--trace", str(trace)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"configuration error: bad manifest {manifest}: bad value for '{key}': "
            f"invalid literal for int() with base 10: '{value}'"
        )
        assert not trace.exists()

    def test_missing_manifest_is_io_error(self, tmp_path, capsys):
        code = main(
            [
                "solve",
                "--manifest",
                str(tmp_path / "nope.txt"),
                "--trace",
                str(tmp_path / "t.csv"),
            ]
        )
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    def test_unsupported_combination_is_solver_error(self, tmp_path, capsys):
        manifest = _generate_latlrr2(tmp_path)
        capsys.readouterr()
        code = main(
            [
                "solve",
                "--manifest",
                str(manifest),
                "--trace",
                str(tmp_path / "t.csv"),
                "--solver",
                "l-admm-ps",
                "--max-iter",
                "5",
            ]
        )
        assert code == 2
        assert "solver error" in capsys.readouterr().err

    def test_smooth_problem_solves_under_linearizing_kind(self, tmp_path, capsys):
        manifest = _generate_latlrr2(tmp_path)
        capsys.readouterr()
        code = main(
            [
                "solve",
                "--manifest",
                str(manifest),
                "--trace",
                str(tmp_path / "t.csv"),
                "--solver",
                "madmm",
                "--max-iter",
                "5",
            ]
        )
        assert code == 0
        assert SUMMARY.match(capsys.readouterr().out.strip())


class TestConfigFile:
    def test_file_then_flags_precedence(self, tmp_path, capsys):
        manifest = _generate_nnsc(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "solver = jacobi\nmax_iter = 3\neps_primal = 1e-15\neps_step = 1e-15\n"
        )
        capsys.readouterr()
        base = [
            "solve",
            "--manifest",
            str(manifest),
            "--trace",
            str(tmp_path / "t.csv"),
            "--config",
            str(cfg),
        ]
        assert main(base) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("jacobi:") and "iters=3" in line
        assert main(base + ["--max-iter", "5"]) == 0
        assert "iters=5" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        manifest = _generate_nnsc(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("verbosity = 3\n")
        capsys.readouterr()
        code = main(
            [
                "solve",
                "--manifest",
                str(manifest),
                "--trace",
                str(tmp_path / "t.csv"),
                "--config",
                str(cfg),
            ]
        )
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_unknown_solver_rejected(self, tmp_path, capsys):
        manifest = _generate_nnsc(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("solver = admm-x\n")
        capsys.readouterr()
        code = main(
            [
                "solve",
                "--manifest",
                str(manifest),
                "--trace",
                str(tmp_path / "t.csv"),
                "--config",
                str(cfg),
            ]
        )
        assert code == 1
        assert "unknown solver 'admm-x'; options: gs, jacobi" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_repeated_key_rejected(self, tmp_path, capsys):
        manifest = _generate_nnsc(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iter = 3\nsolver = jacobi\nmax_iter = 5\n")
        capsys.readouterr()
        code = main(
            [
                "solve",
                "--manifest",
                str(manifest),
                "--trace",
                str(tmp_path / "t.csv"),
                "--config",
                str(cfg),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{cfg}:3: key 'max_iter' repeats line 1" in captured.err
        assert not (tmp_path / "t.csv").exists()

    def test_uncastable_value_rejected(self, tmp_path, capsys):
        manifest = _generate_nnsc(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iter = soon\n")
        capsys.readouterr()
        code = main(
            [
                "solve",
                "--manifest",
                str(manifest),
                "--trace",
                str(tmp_path / "t.csv"),
                "--config",
                str(cfg),
            ]
        )
        assert code == 1
        assert "config key 'max_iter'" in capsys.readouterr().err

    def test_unknown_schedule_rejected(self, tmp_path, capsys):
        manifest = _generate_nnsc(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("schedule = bogus\n")
        capsys.readouterr()
        code = main(
            [
                "solve",
                "--manifest",
                str(manifest),
                "--trace",
                str(tmp_path / "t.csv"),
                "--config",
                str(cfg),
            ]
        )
        assert code == 1
        assert "unknown schedule" in capsys.readouterr().err

    def test_conflicting_manifest_rejected(self, tmp_path, capsys):
        manifest = _generate_nnsc(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("manifest = somewhere/else.txt\n")
        capsys.readouterr()
        code = main(
            [
                "solve",
                "--manifest",
                str(manifest),
                "--trace",
                str(tmp_path / "t.csv"),
                "--config",
                str(cfg),
            ]
        )
        assert code == 1
        assert "different manifest" in capsys.readouterr().err


class TestBench:
    def test_compares_solvers(self, tmp_path, capsys):
        manifest = _generate_nnsc(tmp_path)
        out = tmp_path / "bench.csv"
        plot = tmp_path / "plot.gp"
        capsys.readouterr()
        code = main(
            [
                "bench",
                "--manifest",
                str(manifest),
                "--solvers",
                "jacobi,l-admm-ps",
                "--out",
                str(out),
                "--plot-script",
                str(plot),
                "--max-iter",
                "10",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert SUMMARY.match(lines[0])["label"] == "jacobi"
        assert SUMMARY.match(lines[1])["label"] == "l-admm-ps"
        header = out.read_text().split("\n", 1)[0]
        assert "jacobi_objective" in header and "l-admm-ps_objective" in header
        assert str(out) in plot.read_text()

    def test_solver_list_validation(self, tmp_path, capsys):
        manifest = _generate_nnsc(tmp_path)
        capsys.readouterr()
        base = ["bench", "--manifest", str(manifest), "--out", str(tmp_path / "b.csv")]
        assert main(base + ["--solvers", " , "]) == 1
        assert "at least one solver" in capsys.readouterr().err
        assert main(base + ["--solvers", "jacobi,sgd"]) == 1
        assert "unknown solver 'sgd'" in capsys.readouterr().err

    def test_unknown_plot_column_fails_before_solving(self, tmp_path, capsys):
        manifest = _generate_nnsc(tmp_path)
        capsys.readouterr()
        out, plot = tmp_path / "b.csv", tmp_path / "p.gp"
        code = main(
            [
                "bench",
                "--manifest",
                str(manifest),
                "--solvers",
                "jacobi,madmm",
                "--out",
                str(out),
                "--plot-script",
                str(plot),
                "--plot-column",
                "bogus",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--plot-column: invalid choice: 'bogus'" in captured.err
        assert not out.exists() and not plot.exists()


class TestPartitionStudy:
    def test_score_curve_matches_library(self, tmp_path, capsys):
        manifest = _generate_nnsc(tmp_path, n_blocks=4)
        out = tmp_path / "study.csv"
        capsys.readouterr()
        code = main(
            ["partition-study", "--manifest", str(manifest), "--out", str(out)]
        )
        assert code == 0
        problem = problems.from_manifest(read_manifest(manifest))
        norms = list(problem.family.norms_sq())
        _, scores = case1_scan(norms, problem.family)
        chosen = case1_partition(norms, problem.family)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n1,score"
        assert len(lines) == 5
        for k, line in enumerate(lines[1:]):
            n1, score = line.split(",")
            assert int(n1) == k + 1
            assert float(score) == scores[k]
        stdout = capsys.readouterr().out.strip()
        m = re.match(
            r"chosen n1=(\d+) score=([-+0-9.eE]+) b1=\[([0-9, ]*)\]", stdout
        )
        assert m
        assert int(m.group(1)) == len(chosen.b1)
        assert float(m.group(2)) == chosen.score
        got_b1 = tuple(int(v) for v in m.group(3).split(",")) if m.group(3) else ()
        assert got_b1 == chosen.b1

    def test_scans_once(self, tmp_path, capsys, monkeypatch):
        # One scan: three footnote certificates (n1 = 1, 2, 3), read from
        # the Grams the block certificates keep, and the split is read from
        # the scan that the curve comes from.
        manifest = _generate_nnsc(tmp_path, n_blocks=5)
        calls, formed = [], []
        footnote, gram = partition._gram_sum_norm_sq, blockspace._dense_gram

        def counting(ops, *args, **kwargs):
            calls.append([op.in_shape for op in ops])
            return footnote(ops, *args, **kwargs)

        def forming(matrix, out=False):
            formed.append((matrix.shape, out))
            return gram(matrix, out)

        monkeypatch.setattr(partition, "_gram_sum_norm_sq", counting)
        monkeypatch.setattr(blockspace, "_dense_gram", forming)
        out = tmp_path / "study.csv"
        code = main(
            ["partition-study", "--manifest", str(manifest), "--out", str(out)]
        )
        assert code == 0
        assert len(calls) == 3
        # Each block's certificate forms its Gram once; the footnotes stack
        # no matrix and form only the output Grams of the prefix's tall
        # blocks (fewer columns than rows), once each.
        assert sorted(formed[:5]) == [((6, m), False) for m in range(2, 7)]
        assert formed[5:] == [((6, m), True) for (m,) in calls[-1] if m < 6]

    def test_needs_two_blocks(self, tmp_path, capsys):
        manifest = _generate_nnsc(tmp_path, n_blocks=1)
        capsys.readouterr()
        code = main(
            [
                "partition-study",
                "--manifest",
                str(manifest),
                "--out",
                str(tmp_path / "s.csv"),
            ]
        )
        assert code == 1
        assert "at least two blocks" in capsys.readouterr().err
