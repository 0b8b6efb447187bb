"""``tools/hash_runs.py``: the bitwise run hash and the outcome comparison."""

import ast
import importlib.util
import re
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "hash_runs.py"
MARGIN = r"^MARGIN_STRICT = .*$"


def _tool(*flags, problems="l1_toy,quad", kinds="jacobi,madmm-bt,gs"):
    argv = [sys.executable, str(TOOL), "--problems", problems, "--kinds", kinds]
    argv += [str(flag) for flag in flags]
    return subprocess.run(argv, capture_output=True, text=True)


def _hashes(*flags, **grid):
    done = _tool(*flags, **grid)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def _copy_src(dest: Path) -> Path:
    shutil.copytree(
        ROOT / "src" / "mmadmm",
        dest / "mmadmm",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return dest


def _edit(path: Path, pattern: str, replacement: str) -> None:
    text, count = re.compile(pattern, re.M).subn(replacement, path.read_text())
    assert count == 1
    path.write_text(text)


def test_two_runs_print_the_same_lines():
    first = _hashes("--iters", "6")
    assert first == _hashes("--iters", "6")
    assert len(first) == 2 * 3 * 2 * 2
    for line in first:
        name, kind, schedule, workers, status, sha, iterate_sha = line.split()
        assert name in ("l1_toy", "quad") and kind in ("jacobi", "madmm-bt", "gs")
        assert schedule in ("geometric", "adaptive") and workers in ("1", "2")
        assert status == "budget" and len(sha) == len(iterate_sha) == 64
        assert sha != iterate_sha
    # Both digests cover the iterates: one more iteration changes each column.
    longer = _hashes("--iters", "7")
    for a, b in zip(first, longer):
        assert a.split()[-2] != b.split()[-2] and a.split()[-1] != b.split()[-1]


def test_an_error_is_hashed_as_the_run_outcome():
    # gs needs exactly two blocks; nmc has three.
    flags = ("--schedules", "geometric", "--workers", "1", "--iters", "2")
    (line,) = _hashes(*flags, problems="nmc", kinds="gs")
    assert line.split()[:5] == ["nmc", "gs", "geometric", "1", "ValueError"]


def test_src_names_the_package_that_is_hashed(tmp_path):
    same, changed = _copy_src(tmp_path / "same"), _copy_src(tmp_path / "changed")
    _edit(changed / "mmadmm" / "solvers.py", MARGIN, "MARGIN_STRICT = 1.5")
    # Both blocks of quad share the second phase, whose weights take the margin.
    flags = ("--schedules", "geometric", "--workers", "1", "--iters", "3")
    grid = dict(problems="quad", kinds="jacobi,l-admm-ps")
    here = _hashes(*flags, **grid)
    assert _hashes("--src", str(same), *flags, **grid) == here
    other = _hashes("--src", str(changed), *flags, **grid)
    assert len(other) == len(here) == 2
    for a, b in zip(here, other):
        assert a.split()[:5] == b.split()[:5]
        assert a.split()[5] != b.split()[5] and a.split()[6] != b.split()[6]


def test_partitions_run_each_mixed_kind_once_per_choice():
    flags = ("--schedules", "geometric", "--workers", "1", "--iters", "3")
    grid = dict(problems="quad,latlrr3", kinds="jacobi,madmm")
    plain = _hashes(*flags, **grid)
    assert _hashes(*flags, "--partitions", "auto", **grid) == plain
    lines = _hashes(*flags, "--partitions", "auto,case1,case2", **grid)
    fields = [line.split() for line in lines]
    assert [f[:2] for f in fields] == [
        [name, label]
        for name in ("quad", "latlrr3")
        for label in ("jacobi", "madmm", "madmm/case1", "madmm/case2")
    ]
    # The auto lines are the plain ones; only the mixed kind gains lines.
    assert [line for line, f in zip(lines, fields) if "/" not in f[1]] == plain
    by_label = {tuple(f[:2]): f[4:] for f in fields}
    # quad recommends no partition, so auto resolves to case I.
    assert by_label["quad", "madmm/case1"] == by_label["quad", "madmm"]
    # latlrr3's non-orthogonality graph has an odd cycle: no case-II split.
    assert by_label["latlrr3", "madmm/case2"][0] == "ValueError"


def test_compare_tells_rounding_from_changed_runs(tmp_path):
    saved = tmp_path / "runs.npz"
    flags = ("--schedules", "geometric", "--workers", "1", "--iters", "4")
    grid = dict(problems="latlrr2,quad", kinds="jacobi,gs")
    lines = _hashes(*flags, "--save", saved, **grid)
    assert len(lines) == 4

    def compare(*more, src=ROOT / "src"):
        """Exit code, hash lines, and the report without the solvers' warnings."""
        done = _tool("--src", src, *flags, *more, "--compare", saved, **grid)
        report = [
            line
            for line in done.stderr.splitlines()
            if line[:1].isdigit() or line.startswith(("latlrr2 ", "quad "))
        ]
        return done.returncode, done.stdout.splitlines(), report

    code, same, report = compare()
    assert (code, same) == (0, lines)
    assert report[-1] == (
        "4 runs compared: largest relative deviation 0.000e+00, 0 beyond 1e-09 "
        "or changed"
    )
    # Always thresholding by SVD moves latlrr2's iterates by rounding only.
    svd_only = _copy_src(tmp_path / "svd-only")
    _edit(svd_only / "mmadmm" / "prox.py", r"^_GRAM_RTOL = .*$", "_GRAM_RTOL = 0.0")
    code, other, report = compare(src=svd_only)
    assert code == 0
    for a, b in zip(lines, other):
        assert a.split()[:5] == b.split()[:5]
        assert (a == b) == a.startswith("quad ")
    worst = float(report[-1].split("deviation ")[1].split(",")[0])
    assert 0.0 < worst <= 1e-9
    # A changed weight moves the iterates for real.
    margin = _copy_src(tmp_path / "margin")
    _edit(margin / "mmadmm" / "solvers.py", MARGIN, "MARGIN_STRICT = 1.5")
    code, _, report = compare(src=margin)
    assert code == 1
    moved = "quad jacobi geometric 1: final iterate deviates by"
    assert any(line.startswith(moved) for line in report)
    # One more iteration changes every run's count.
    code, _, report = compare("--iters", "5")
    assert code == 1
    assert report[:4] == [
        f"{name} {kind} geometric 1: iterations 4 -> 5"
        for name in ("latlrr2", "quad")
        for kind in ("jacobi", "gs")
    ]


def _import_tool(monkeypatch):
    """The tool as a module, and the grid's builders on this tree's package."""
    spec = importlib.util.spec_from_file_location("hash_runs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(sys, "path", list(sys.path))  # _load prepends to it
    return tool, tool._load(ROOT / "src")


def test_compare_checks_each_trace_column(tmp_path, monkeypatch):
    # The saved trace columns round-trip; a trace that differs in one column
    # only, beyond RTOL, fails the comparison and names that column, while
    # rounding in it passes and is reported as the column's deviation.
    tool, builders = _import_tool(monkeypatch)
    status, *_, final = tool.hash_run(builders["quad"](), "jacobi", "geometric", 1, 6)
    k, x, trace = final
    assert status == "budget" and trace.shape == (6, len(tool.COLUMNS))
    np.testing.assert_array_equal(trace[:, 0], np.arange(1, 7))
    path = tmp_path / "runs.npz"
    tool.save_finals(path, {"run": (status, final), "failed": ("ValueError", None)})
    saved = tool.load_finals(path)
    assert saved["failed"] == ("ValueError", None)
    np.testing.assert_array_equal(saved["run"][1][2], trace)
    assert tool.compare_finals({"run": (status, final)}, saved) == (
        [],
        0.0,
        dict.fromkeys(tool.COLUMNS, 0.0),
    )
    j = tool.COLUMNS.index("residual_norm")
    scale = np.max(np.abs(trace[:, j]))
    for shift, moved in ((1e-12, False), (1e-6, True)):
        other = trace.copy()
        other[-1, j] += shift * scale
        changes, worst, columns = tool.compare_finals(
            {"run": (status, (k, x, other))}, saved
        )
        assert worst == 0.0
        assert columns["residual_norm"] == pytest.approx(shift, rel=1e-3)
        del columns["residual_norm"]
        assert set(columns.values()) == {0.0}
        want = ["run: trace column residual_norm deviates by 1.000e-06"]
        assert changes == (want if moved else [])


def test_a_run_that_raises_late_hashes_only_its_error(monkeypatch):
    # The observer has hashed three iterates when the run raises; the
    # digests must still be those of the error alone.
    tool, builders = _import_tool(monkeypatch)
    from mmadmm import solvers

    step = solvers._step  # what ``run`` iterates

    def failing_at(k):
        def fail(state, ctx):
            if state.k == k:
                raise RuntimeError("stopped on purpose")
            return step(state, ctx)

        return fail

    outcomes = []
    for k in (0, 3):
        monkeypatch.setattr(solvers, "_step", failing_at(k))
        outcomes.append(tool.hash_run(builders["quad"](), "jacobi", "geometric", 1, 6))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == "RuntimeError" and outcomes[0][3] is None


def test_both_state_layouts_hash_alike(monkeypatch):
    # A package whose state keeps each block's weight ``G[i]`` rather than
    # its level ``eta[i]`` hashes the same levels, so its lines match.
    tool, builders = _import_tool(monkeypatch)
    from mmadmm import solvers

    real = solvers.run

    def run_keeping_weights(*args, **kwargs):
        result = real(*args, **kwargs)
        state = vars(result.state).copy()
        weights = [SimpleNamespace(eta=eta) for eta in state.pop("eta")]
        return replace(result, state=SimpleNamespace(**state, G=weights))

    def run_doubling_levels(*args, **kwargs):
        result = real(*args, **kwargs)
        result.state.eta = [2.0 * eta for eta in result.state.eta]
        return result

    for kind in ("madmm-bt", "jacobi"):
        want = tool.hash_run(builders["quad"](), kind, "geometric", 1, 6)
        assert want[0] == "budget"
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "run", run_keeping_weights)
            got = tool.hash_run(builders["quad"](), kind, "geometric", 1, 6)
        assert got[:3] == want[:3]
        np.testing.assert_array_equal(got[3][1], want[3][1])
        # The levels are hashed: other levels give other digests.
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "run", run_doubling_levels)
            other = tool.hash_run(builders["quad"](), kind, "geometric", 1, 6)
        assert other[1] != want[1] and other[2] != want[2]


def test_the_grid_takes_every_thresholding_path(monkeypatch):
    """madmm on the grid's problems thresholds by each path of ``prox._svt``:
    zero, ``eigh`` of the Gram, and the SVD."""
    tool, builders = _import_tool(monkeypatch)
    from mmadmm import prox

    calls = Counter()
    svt, gram, svd = prox._svt, prox._svt_gram, prox._svd

    def counted_svt(V, t):
        calls["svt"] += 1
        return svt(V, t)

    def counted_gram(V, t):
        calls["eigh"] += 1
        return gram(V, t)

    def counted_svd(V, compute_uv=True):
        calls["svd"] += compute_uv  # only the thresholding takes the vectors
        return svd(V, compute_uv)

    monkeypatch.setattr(prox, "_svt", counted_svt)
    monkeypatch.setattr(prox, "_svt_gram", counted_gram)
    monkeypatch.setattr(prox, "_svd", counted_svd)
    paths = {}
    for name, build in builders.items():
        calls.clear()
        status, *_ = tool.hash_run(build(), "madmm", "geometric", 1, 40)
        assert status == "budget", name
        paths[name] = {
            "zero": calls["svt"] - calls["eigh"] - calls["svd"],
            "eigh": calls["eigh"],
            "svd": calls["svd"],
        }
    for path in ("zero", "eigh", "svd"):
        assert sum(counts[path] for counts in paths.values()) > 0, path
    assert paths["latlrr3-x100"]["zero"] == paths["latlrr3-x100"]["svd"] == 0
    assert paths["latlrr3-x1000"]["eigh"] > 0 and paths["latlrr3-x1000"]["svd"] > 0


def test_helpers_import_no_private_name_at_load_time():
    # ``--src`` loads this tree's helpers against an older package, which
    # may lack a private name; the helpers look those up at call time.
    tree = ast.parse((ROOT / "tests" / "helpers.py").read_text())
    private = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module.startswith("mmadmm")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
    assert any(
        isinstance(node, ast.ImportFrom) and node.module.startswith("mmadmm")
        for node in tree.body
    )
