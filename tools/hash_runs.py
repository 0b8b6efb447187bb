"""Hash solver runs on a fixed grid of small problems, one line per run.

Each line names the problem, the solver kind, the penalty schedule and the
worker count, then how the run ended (its stop reason, or the class of the
error it raised) and two SHA-256 digests. The full digest covers
everything the run produced: every iterate, every trace row without its
wall time, the final multiplier, each block's final weight level ``eta``,
and the stop reason or the error message. The iterate digest covers the
same data except the trace's objective column, so it still matches when
only the objective's arithmetic changed (say, a nuclear norm taken from the
prox's singular values rather than from a second SVD). Two packages that
print the same lines ran bitwise the same iterations, so a refactor that
must not change the iterates is checked by

    python3 tools/hash_runs.py --src OLD/src > before.txt
    python3 tools/hash_runs.py > after.txt
    diff before.txt after.txt

where ``--src`` names the directory holding the ``mmadmm`` package to hash
(default: this tree's ``src``); the problem grid always comes from this
tree's ``tests/helpers.py`` and this file. ``diff <(cut -d' ' -f1-5,7
before.txt) <(cut -d' ' -f1-5,7 after.txt)`` compares the iterate digests
only.

Each iterate is hashed as ``run``'s observer hands it over, so no iterate
is kept. A package from before ``run`` took ``observe`` cannot be hashed
by this tool: run that tree's own ``tools/hash_runs.py`` on it instead and
diff the lines. Each configuration is also run without an observer, as
the benchmark and the CLI run it; a run whose final iterate, multiplier,
levels, trace (without the wall time), stop reason or error differs
bitwise from the observed run's is reported on standard error, and the
tool then exits 1.

The full grid is every solver kind on ten problems, both schedules and 1
or 2 workers, 40 iterations each (280 runs). ``--problems``, ``--kinds``,
``--schedules`` and ``--workers`` take comma-separated subsets, and
``--iters`` sets the iteration count. ``--partitions`` takes a subset of
``auto,case1,case2,case3`` (default ``auto``): each mixed kind (``madmm``,
``madmm-bt``) then runs once per choice, on the partition that
``choose_partition`` gives for it, and is printed as ``<kind>/<choice>``;
``auto`` keeps the plain ``<kind>`` line.

A change that moves the iterates only by rounding (say, a different but
equally accurate factorization) changes the digests, so it is checked by
the runs' outcomes instead:

    python3 tools/hash_runs.py --src OLD/src --save before.npz > /dev/null
    python3 tools/hash_runs.py --compare before.npz > /dev/null

``--save`` writes each run's stop reason, iteration count, final iterate
and trace columns (every column but the wall time); ``--compare`` reads
such a file and reports, on standard error, every run whose stop reason or
iteration count changed or whose final iterate or a trace column deviates
from the saved one by more than 1e-9 relative (the largest entry of the
difference over the largest entry of the saved array), then each trace
column's largest deviation over the runs and the final iterates' largest
deviation. It exits 1 if any run did, else 0. So a change that should move
one column by rounding only (say, a step norm taken in other coordinates)
shows which columns moved and by how much.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCHEDULES = ("geometric", "adaptive")
WORKERS = (1, 2)
PARTITIONS = ("auto", "case1", "case2", "case3")
RTOL = 1e-9
# The trace row without its wall time.
COLUMNS = (
    "k",
    "objective",
    "residual_norm",
    "rel_residual",
    "beta",
    "step_norm",
    "backtracks",
)


def _load(src: Path) -> dict:
    """Import ``mmadmm`` from ``src`` and return the grid's problem builders."""
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    from helpers import l1_toy, quad_problem
    from mmadmm.problems import (
        DataGenSpec,
        build_latent_lrr,
        build_lrr,
        build_nonneg_matrix_completion,
        build_nonneg_sparse_coding,
        build_nonneg_sparse_coding_noisy,
        make_subspace_data,
    )

    def subspace():
        return make_subspace_data(0, d=10, rank=2, n_subspaces=3, per_subspace=6)

    return {
        "nnsc": lambda: build_nonneg_sparse_coding(DataGenSpec(0, d=30, n=40)),
        "nnsc-noisy": lambda: build_nonneg_sparse_coding_noisy(
            DataGenSpec(0, d=20, n=12, noise_sigma=0.1)
        ),
        "latlrr3": lambda: build_latent_lrr(subspace(), formulation="3-block"),
        # Scaled data moves the nuclear thresholdings off the zero path:
        # x100 thresholds by eigh of the Gram from the first iterations, and
        # x1000 crosses the Gram path's guard into the SVD.
        "latlrr3-x100": lambda: build_latent_lrr(
            100.0 * subspace(), formulation="3-block"
        ),
        "latlrr3-x1000": lambda: build_latent_lrr(
            1000.0 * subspace(), formulation="3-block"
        ),
        "latlrr2": lambda: build_latent_lrr(subspace(), formulation="2-block"),
        "lrr": lambda: build_lrr(subspace(), subspace()),
        "nmc": lambda: build_nonneg_matrix_completion(
            DataGenSpec(0, d=12, n=10, rank=2, noise_sigma=0.1)
        ),
        "quad": lambda: quad_problem(3),
        "l1_toy": l1_toy,
    }


def hash_run(
    problem, kind: str, schedule: str, workers: int, iters: int, choice="auto"
):
    """``(status, full sha256 hex, iterate sha256 hex, final, unobserved)``
    of one run.

    ``final`` is ``(k, x, trace)``, the iteration count, the flat final
    iterate and the trace's :data:`COLUMNS` as a ``(k, 7)`` float array, or
    ``None`` when the run raised. ``choice`` names the partition as
    ``choose_partition`` takes it; an error in choosing it is the run's
    outcome. The same run is made again without an observer, the path the
    benchmark and the CLI take; ``unobserved`` names each part of its
    outcome (:func:`_outcome`) that differs bitwise from the observed one.
    """
    full, iterate = hashlib.sha256(), hashlib.sha256()

    def both(data: bytes):
        full.update(data)
        iterate.update(data)

    def observe(state):
        both(state.x.flat.tobytes())

    setting = (problem, kind, schedule, workers, iters, choice)
    result, error = _solve(*setting, observe)
    plain = _outcome(*_solve(*setting, None))
    outcome = _outcome(result, error)
    unobserved = [part for part in outcome if outcome[part] != plain.get(part)]
    if error is not None:
        status = type(error).__name__
        full, iterate = hashlib.sha256(), hashlib.sha256()
        both(outcome["error"])
        return status, full.hexdigest(), iterate.hexdigest(), None, unobserved
    rows = [astuple(row)[:-1] for row in result.trace]  # without the wall time
    for fields in rows:
        full.update(repr(fields).encode())
        iterate.update(repr(fields[:1] + fields[2:]).encode())  # no objective
    both(outcome["multiplier"])
    both(outcome["levels"])
    both(outcome["stop reason"])
    trace = np.array(rows, dtype=float).reshape(len(rows), len(COLUMNS))
    final = (result.state.k, result.state.x.flat.copy(), trace)
    digests = full.hexdigest(), iterate.hexdigest()
    return result.stop_reason, *digests, final, unobserved


def _solve(problem, kind, schedule, workers, iters, choice, observe):
    """``(result, None)`` of one run, or ``(None, error)`` if it raised."""
    from mmadmm.partition import choose_partition
    from mmadmm.solvers import SolverConfig, run

    try:
        partition = "auto" if choice == "auto" else choose_partition(problem, choice)
        config = SolverConfig(
            max_iter=iters, eps_step=0.0, schedule=schedule, partition=partition
        )
        return run(problem, kind, config, workers=workers, observe=observe), None
    except Exception as exc:  # the error is the run's outcome; it is hashed
        return None, exc


def _outcome(result, error) -> dict:
    """A run's outcome as bytes per part: the error it raised, or its final
    iterate, multiplier, levels, trace without the wall time and stop
    reason."""
    if error is not None:
        return {"error": f"{type(error).__name__}: {error}".encode()}
    state = result.state
    return {
        "final iterate": state.x.flat.tobytes(),
        "multiplier": state.lam.tobytes(),
        "levels": repr(final_levels(state)).encode(),
        "trace": repr([astuple(row)[:-1] for row in result.trace]).encode(),
        "stop reason": result.stop_reason.encode(),
    }


def final_levels(state) -> list:
    """Each block's weight level ``eta``: ``state.eta``, or, in a package
    whose state keeps the weights ``G``, ``[g.eta for g in state.G]``; the
    same float objects either way, so their ``repr`` is the same."""
    if hasattr(state, "eta"):
        return list(state.eta)
    return [g.eta for g in state.G]


def save_finals(path: Path, finals: dict) -> None:
    """Write ``{run key: (status, final)}`` as ``.npz`` arrays (no pickles)."""
    none = (-1, np.empty(0), np.empty((0, len(COLUMNS))))
    ks, xs, traces = zip(*(none if f is None else f for _, f in finals.values()))
    np.savez(
        path,
        key=np.array(list(finals)),
        status=np.array([status for status, _ in finals.values()]),
        k=np.array(ks),
        offset=np.cumsum([0] + [x.size for x in xs]),
        x=np.concatenate([np.empty(0), *xs]),
        trace_offset=np.cumsum([0] + [len(t) for t in traces]),
        trace=np.concatenate([none[2], *traces]),
    )


def load_finals(path: Path) -> dict:
    """The ``{run key: (status, final)}`` that :func:`save_finals` wrote."""
    with np.load(path) as data:
        off, x = data["offset"], data["x"]
        t_off, trace = data["trace_offset"], data["trace"]
        return {
            str(key): (str(status), None if k < 0 else (int(k), x[a:b], trace[c:d]))
            for key, status, k, a, b, c, d in zip(
                data["key"],
                data["status"],
                data["k"],
                off[:-1],
                off[1:],
                t_off[:-1],
                t_off[1:],
            )
        }


def deviation(x: np.ndarray, ref: np.ndarray) -> float:
    """``max |x - ref| / max |ref|``; infinite where that is not a number."""
    if np.array_equal(x, ref, equal_nan=True):
        return 0.0
    scale = float(np.max(np.abs(ref)))
    dev = float(np.max(np.abs(x - ref))) / scale if scale > 0.0 else math.inf
    return dev if dev == dev else math.inf


def compare_finals(finals: dict, saved: dict) -> tuple:
    """``(changes, largest deviation, columns)``: what differs from ``saved``
    beyond rounding, the final iterates' largest deviation, and
    ``{column: largest deviation}`` over the trace :data:`COLUMNS`."""
    changes, worst = [], 0.0
    columns = dict.fromkeys(COLUMNS, 0.0)
    for key, (status, final) in finals.items():
        if key not in saved:
            changes.append(f"{key}: not in the saved runs")
            continue
        old_status, old_final = saved[key]
        if status != old_status:
            changes.append(f"{key}: stop reason {old_status} -> {status}")
        elif final is not None:
            (k, x, trace), (old_k, old_x, old_trace) = final, old_final
            if k != old_k:
                changes.append(f"{key}: iterations {old_k} -> {k}")
                continue
            if x.shape != old_x.shape:
                changes.append(f"{key}: iterate size {old_x.size} -> {x.size}")
            else:
                dev = deviation(x, old_x)
                worst = max(worst, dev)
                if dev > RTOL:
                    changes.append(f"{key}: final iterate deviates by {dev:.3e}")
            for j, name in enumerate(COLUMNS):
                dev = deviation(trace[:, j], old_trace[:, j])
                columns[name] = max(columns[name], dev)
                if dev > RTOL:
                    changes.append(
                        f"{key}: trace column {name} deviates by {dev:.3e}"
                    )
    return changes, worst, columns


def _subset(text: str, allowed, cast=str) -> tuple:
    chosen = tuple(cast(v.strip()) for v in text.split(",") if v.strip())
    unknown = [v for v in chosen if v not in allowed]
    if unknown:
        raise SystemExit(f"unknown choice(s) {unknown}; options: {list(allowed)}")
    return chosen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--problems", help="default: every problem")
    parser.add_argument("--kinds", help="default: every solver kind")
    parser.add_argument("--schedules", default=",".join(SCHEDULES))
    parser.add_argument("--workers", default=",".join(map(str, WORKERS)))
    parser.add_argument("--iters", type=int, default=40)
    parser.add_argument("--partitions", default="auto")
    parser.add_argument("--save", type=Path, help="write the runs' outcomes here")
    parser.add_argument("--compare", type=Path, help="check against saved outcomes")
    args = parser.parse_args(argv)
    if not (args.src / "mmadmm").is_dir():
        raise SystemExit(f"no mmadmm package under {args.src}")
    saved = load_finals(args.compare) if args.compare else None
    builders = _load(args.src.resolve())
    from mmadmm.solvers import _KINDS, SOLVER_KINDS

    names = _subset(args.problems or ",".join(builders), builders)
    kinds = _subset(args.kinds or ",".join(SOLVER_KINDS), SOLVER_KINDS)
    schedules = _subset(args.schedules, SCHEDULES)
    workers = _subset(args.workers, WORKERS, int)
    partitions = _subset(args.partitions, PARTITIONS)
    finals, differs = {}, []
    for name in names:
        problem = builders[name]()
        for kind in kinds:
            mixed = _KINDS[kind].partition == "mixed"
            for choice in partitions if mixed else ("auto",):
                label = kind if choice == "auto" else f"{kind}/{choice}"
                for schedule in schedules:
                    for w in workers:
                        *line, final, unobserved = hash_run(
                            problem, kind, schedule, w, args.iters, choice
                        )
                        key = f"{name} {label} {schedule} {w}"
                        finals[key] = (line[0], final)
                        print(key, *line, flush=True)
                        if unobserved:
                            differs.append(
                                f"{key}: the run without an observer differs "
                                f"in its {', '.join(unobserved)}"
                            )
    for line in differs:
        print(line, file=sys.stderr)
    if args.save:
        save_finals(args.save, finals)
    if saved is None:
        return 1 if differs else 0
    changes, worst, columns = compare_finals(finals, saved)
    for change in changes:
        print(change, file=sys.stderr)
    for name, dev in columns.items():
        print(
            f"trace column {name}: largest relative deviation {dev:.3e}",
            file=sys.stderr,
        )
    print(
        f"{len(finals)} runs compared: largest relative deviation {worst:.3e}, "
        f"{len(changes)} beyond {RTOL:g} or changed",
        file=sys.stderr,
    )
    return 1 if changes or differs else 0


if __name__ == "__main__":
    sys.exit(main())
