"""``tools/hash_runs.py``: the bitwise run hash that checks a refactor."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "hash_runs.py"


def _hashes(*flags, problems="l1_toy,quad", kinds="jacobi,madmm-bt,gs"):
    argv = [sys.executable, str(TOOL), "--problems", problems, "--kinds", kinds]
    argv += flags
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


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
    def copy(name):
        dest = tmp_path / name
        shutil.copytree(
            ROOT / "src" / "mmadmm",
            dest / "mmadmm",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        return dest

    same, changed = copy("same"), copy("changed")
    solvers = changed / "mmadmm" / "solvers.py"
    pattern = re.compile(r"^MARGIN_STRICT = .*$", re.M)
    text, count = pattern.subn("MARGIN_STRICT = 1.5", solvers.read_text())
    assert count == 1
    solvers.write_text(text)
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
