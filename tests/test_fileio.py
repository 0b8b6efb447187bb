"""Round trips and formats for the CSV, MatrixMarket, and manifest files."""

from types import SimpleNamespace

import numpy as np
import pytest

from mmadmm.fileio import (
    TRACE_HEADER,
    read_array_csv,
    read_array_mm,
    read_manifest,
    read_trace_csv,
    write_array_csv,
    write_array_mm,
    write_bench_csv,
    write_gnuplot_script,
    write_manifest,
    write_trace_csv,
)
from mmadmm.solvers import SolverConfig, run

from helpers import l1_toy


def _row(k, obj, backtracks=0):
    return SimpleNamespace(
        k=k,
        objective=obj,
        residual_norm=0.5,
        rel_residual=0.25,
        beta=1e-4,
        step_norm=0.125,
        backtracks=backtracks,
        wall_time_ms=1.2345,
    )


class TestArrayCSV:
    def test_matrix_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((5, 3))
        path = tmp_path / "a.csv"
        write_array_csv(path, arr)
        np.testing.assert_array_equal(read_array_csv(path), arr)

    def test_vector_keeps_its_shape(self, tmp_path):
        arr = np.array([0.1, -2.0, 3.5])
        path = tmp_path / "v.csv"
        write_array_csv(path, arr)
        back = read_array_csv(path)
        assert back.shape == (3,)
        np.testing.assert_array_equal(back, arr)

    def test_repeated_writes_are_identical(self, tmp_path):
        arr = np.random.default_rng(1).standard_normal((4, 4))
        p1, p2 = tmp_path / "x.csv", tmp_path / "y.csv"
        write_array_csv(p1, arr)
        write_array_csv(p2, arr)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(IOError, match="missing shape header"):
            read_array_csv(path)


class TestMatrixMarket:
    def test_sparse_mask_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        mask = (rng.random((6, 4)) < 0.3).astype(float)
        path = tmp_path / "mask.mtx"
        write_array_mm(path, mask)
        np.testing.assert_array_equal(read_array_mm(path), mask)

    def test_requires_two_dimensions(self, tmp_path):
        with pytest.raises(ValueError, match="2-d"):
            write_array_mm(tmp_path / "v.mtx", np.ones(3))


class TestManifest:
    def test_round_trip_values_are_strings(self, tmp_path):
        path = tmp_path / "run.manifest"
        write_manifest(path, {"problem": "nnsc", "seed": 7, "sparsity": 0.1})
        back = read_manifest(path)
        assert back == {
            "problem": "nnsc",
            "seed": "7",
            "sparsity": "0.10000000000000001",
        }

    def test_bool_and_comment_handling(self, tmp_path):
        path = tmp_path / "run.manifest"
        write_manifest(path, {"flag": True})
        text = path.read_text()
        path.write_text("# a comment\n\n" + text + "  spaced   =   out  \n")
        back = read_manifest(path)
        assert back == {"flag": "true", "spaced": "out"}

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "run.manifest"
        path.write_text("good = 1\nnot a pair\n")
        with pytest.raises(ValueError, match=":2:"):
            read_manifest(path)

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "run.manifest"
        path.write_text("problem = nnsc\nseed = 0\n# again\n seed=5\n")
        with pytest.raises(ValueError, match=r":4: key 'seed' repeats line 2$"):
            read_manifest(path)


class TestTraceCSV:
    def test_round_trip(self, tmp_path):
        rows = [_row(1, 2.5), _row(2, 1.25, backtracks=3)]
        path = tmp_path / "trace.csv"
        write_trace_csv(path, rows)
        back = read_trace_csv(path)
        assert back[0]["k"] == 1 and back[1]["backtracks"] == 3
        assert back[1]["objective"] == 1.25
        assert back[0]["wall_time_ms"] == pytest.approx(1.2345, abs=5e-4)
        assert path.read_text().splitlines()[0] == TRACE_HEADER

    def test_solver_trace_round_trips_exactly(self, tmp_path):
        result = run(l1_toy(), "gs", SolverConfig(beta0=1.0, rho=1.0, max_iter=3))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, result.trace)
        back = read_trace_csv(path)
        assert [r["k"] for r in back] == [row.k for row in result.trace]
        assert [r["objective"] for r in back] == [
            row.objective for row in result.trace
        ]
        assert [r["beta"] for r in back] == [row.beta for row in result.trace]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, [_row(1, 2.5), _row(2, 1.25)])
        header, first, second = path.read_text().splitlines()
        spaced = tmp_path / "spaced.csv"
        spaced.write_text(f"{header}\n\n{first}\n   \n{second}\n\n")
        assert read_trace_csv(spaced) == read_trace_csv(path)
        assert len(read_trace_csv(spaced)) == 2

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("iter,objective\n1,2.0\n")
        with pytest.raises(IOError, match="unexpected trace header"):
            read_trace_csv(path)


class TestBenchCSV:
    def test_column_groups_and_padding(self, tmp_path):
        path = tmp_path / "bench.csv"
        write_bench_csv(
            path,
            ["gs", "jacobi"],
            [[_row(1, 4.0), _row(2, 2.0)], [_row(1, 8.0)]],
        )
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "iter"
        assert header[1] == "gs_objective"
        assert header[8] == "jacobi_objective"
        assert len(header) == 1 + 2 * 7
        row2 = lines[2].split(",")
        assert row2[0] == "2"
        assert row2[1] == "2"
        assert row2[8:] == [""] * 7

    def test_label_count_must_match(self, tmp_path):
        with pytest.raises(ValueError, match="one label per trace"):
            write_bench_csv(tmp_path / "b.csv", ["a"], [[], []])


class TestGnuplotScript:
    def test_column_indices_follow_groups(self, tmp_path):
        path = tmp_path / "plot.gp"
        write_gnuplot_script(
            path, "bench.csv", ["gs", "jacobi"], column="rel_residual", title="t"
        )
        text = path.read_text()
        assert '"bench.csv" using 1:4 with lines title "gs"' in text
        assert '"bench.csv" using 1:11 with lines title "jacobi"' in text
        assert "set title 't'" in text
        assert "set ylabel 'rel_residual'" in text

    def test_unknown_column_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace column"):
            write_gnuplot_script(tmp_path / "p.gp", "b.csv", ["a"], column="iter")
