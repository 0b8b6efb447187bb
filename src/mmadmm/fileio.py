"""File formats used by the command-line tools.

Dense arrays travel as comma-separated values with a shape comment; sparse
arrays as MatrixMarket coordinate files; run manifests and configs as flat
``key = value`` text. All floating-point output uses ``%.17g`` so repeated
runs produce identical bytes.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy import io as spio
from scipy import sparse

__all__ = [
    "TRACE_COLUMNS",
    "TRACE_HEADER",
    "write_array_csv",
    "read_array_csv",
    "write_array_mm",
    "read_array_mm",
    "write_manifest",
    "read_manifest",
    "write_trace_csv",
    "read_trace_csv",
    "write_bench_csv",
    "write_gnuplot_script",
]

# The trace's columns after the iteration number, in file order.
TRACE_COLUMNS = (
    "objective",
    "residual_norm",
    "rel_residual",
    "beta",
    "step_norm",
    "backtracks",
    "wall_time_ms",
)
TRACE_HEADER = ",".join(("iter", *TRACE_COLUMNS))
_TRACE_FIELDS = ("k", *TRACE_COLUMNS)


def write_array_csv(path, arr: np.ndarray) -> None:
    """Dense array as CSV with a leading ``# shape:`` comment."""
    arr = np.asarray(arr, dtype=float)
    flat2d = arr.reshape(arr.shape[0], -1) if arr.ndim == 2 else arr.reshape(1, -1)
    with open(path, "w") as fh:
        fh.write("# shape: " + " ".join(str(s) for s in arr.shape) + "\n")
        for row in flat2d:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_array_csv(path) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("# shape:"):
            raise IOError(f"{path}: missing shape header")
        shape = tuple(int(s) for s in first.split(":", 1)[1].split())
        rows = [
            [float(v) for v in line.split(",")]
            for line in fh
            if line.strip()
        ]
    data = np.asarray(rows, dtype=float)
    return data.reshape(shape)


def write_array_mm(path, arr: np.ndarray) -> None:
    """Sparse-friendly MatrixMarket coordinate output for a 2-d array."""
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 2:
        raise ValueError("MatrixMarket output needs a 2-d array")
    spio.mmwrite(str(path), sparse.coo_matrix(arr))


def read_array_mm(path) -> np.ndarray:
    mat = spio.mmread(str(path))
    return mat.toarray() if sparse.issparse(mat) else np.asarray(mat, dtype=float)


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_manifest(path, entries: dict) -> None:
    """Flat ``key = value`` text, one entry per line."""
    with open(path, "w") as fh:
        for key, value in entries.items():
            fh.write(f"{key} = {_format_value(value)}\n")


def read_manifest(path) -> dict:
    """Parse ``key = value`` lines; blanks and ``#`` comments are skipped,
    and a key given twice raises ``ValueError`` naming both lines."""
    out: dict = {}
    first_line: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key in first_line:
                raise ValueError(
                    f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}"
                )
            first_line[key] = lineno
            out[key] = value
    return out


def write_trace_csv(path, trace: Sequence) -> None:
    """Per-iteration trace with the fixed eight-column schema."""
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for row in trace:
            fh.write(_trace_line(row) + "\n")


def _trace_line(row) -> str:
    vals = []
    for name in _TRACE_FIELDS:
        v = getattr(row, name)
        if name in ("k", "backtracks"):
            vals.append(str(int(v)))
        elif name == "wall_time_ms":
            vals.append(f"{v:.3f}")
        else:
            vals.append(f"{v:.17g}")
    return ",".join(vals)


def read_trace_csv(path) -> list:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise IOError(f"{path}: unexpected trace header {header!r}")
        rows = []
        for line in fh:
            if not line.strip():
                continue
            parts = line.strip().split(",")
            rows.append(
                {
                    name: (int(p) if name in ("k", "backtracks") else float(p))
                    for name, p in zip(_TRACE_FIELDS, parts)
                }
            )
    return rows


def write_bench_csv(path, labels: Sequence[str], traces: Sequence[Sequence]) -> None:
    """Aligned comparison table: one column group per labeled run.

    Rows extend to the longest trace; exhausted runs leave empty cells.
    """
    if len(labels) != len(traces):
        raise ValueError("one label per trace is required")
    header = ["iter"]
    for label in labels:
        header.extend(f"{label}_{name}" for name in TRACE_COLUMNS)
    depth = max((len(t) for t in traces), default=0)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for r in range(depth):
            cells = [str(r + 1)]
            for trace in traces:
                if r < len(trace):
                    line = _trace_line(trace[r]).split(",")
                    cells.extend(line[1:])
                else:
                    cells.extend([""] * len(TRACE_COLUMNS))
            fh.write(",".join(cells) + "\n")


def write_gnuplot_script(
    path,
    csv_path: str,
    labels: Sequence[str],
    column: str = "objective",
    title: Optional[str] = None,
) -> None:
    """Plot script for a bench CSV: the chosen column against iteration."""
    if column not in TRACE_COLUMNS:
        raise ValueError(f"unknown trace column {column!r}")
    group = len(TRACE_COLUMNS)
    offset = TRACE_COLUMNS.index(column)
    plots = []
    for j, label in enumerate(labels):
        idx = 2 + j * group + offset
        plots.append(f'"{csv_path}" using 1:{idx} with lines title "{label}"')
    with open(path, "w") as fh:
        fh.write("set datafile separator ','\n")
        fh.write("set key top right\n")
        fh.write("set xlabel 'iteration'\n")
        fh.write(f"set ylabel '{column}'\n")
        if title:
            fh.write(f"set title '{title}'\n")
        fh.write("plot " + ", \\\n     ".join(plots) + "\n")
