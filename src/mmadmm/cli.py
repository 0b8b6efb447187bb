"""Command-line harness: generate data, solve, benchmark, study partitions.

Configuration precedence is documented defaults, then the ``--config`` file
(flat ``key = value`` lines), then explicit flags. Unknown config keys are
rejected. Exit codes: 0 success, 1 configuration error, 2 solver error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from typing import Optional

from . import fileio, problems
from .partition import (
    Partition,
    case1_partition,
    case1_scan,
    case2_partition,
    case3_partition,
)
from .solvers import (
    SOLVER_KINDS,
    BacktrackingConsistencyError,
    DivergenceError,
    SolverConfig,
    UnsupportedSubproblemError,
    run,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IO = 3


class ConfigError(ValueError):
    """Bad flags, bad config keys, or inconsistent run setup."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# Run keys shared with SolverConfig take their defaults and types from its
# fields; the rest are CLI-only.
_CONFIG_FIELDS = tuple(
    f for f in fields(SolverConfig) if f.name not in ("partition", "weights")
)

_DEFAULTS = {
    "solver": "madmm",
    **{f.name: f.default for f in _CONFIG_FIELDS},
    "workers": 1,
    "partition": "auto",
    "n1": None,
    "manifest": None,
}

_CASTS = {
    "solver": str,
    **{f.name: type(f.default) for f in _CONFIG_FIELDS},
    "workers": int,
    "partition": str,
    "n1": int,
    "manifest": str,
}


def _load_config_file(path) -> dict:
    raw = fileio.read_manifest(path)
    out = {}
    for key, value in raw.items():
        if key not in _CASTS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            out[key] = _CASTS[key](value)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    return out


def _merge_config(args) -> dict:
    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config)
    manifest_flag = getattr(args, "manifest", None)
    if (
        manifest_flag is not None
        and file_cfg.get("manifest") is not None
        and file_cfg["manifest"] != manifest_flag
    ):
        raise ConfigError("config file names a different manifest")
    cfg = dict(_DEFAULTS)
    cfg.update(file_cfg)
    for key in _CASTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if cfg["solver"] not in SOLVER_KINDS:
        raise ConfigError(
            f"unknown solver {cfg['solver']!r}; options: {', '.join(SOLVER_KINDS)}"
        )
    if cfg["schedule"] not in ("geometric", "adaptive"):
        raise ConfigError(f"unknown schedule {cfg['schedule']!r}")
    return cfg


def _resolve_partition(problem, cfg):
    """Translate the partition request into a Partition or 'auto'."""
    n = problem.family.n
    n1 = cfg.get("n1")
    if n1 is not None:
        if not 1 <= n1 <= n:
            raise ConfigError(f"n1 must lie in [1, {n}]")
        order, _ = case1_scan(list(problem.family.norms_sq()), problem.family)
        return Partition(
            tuple(sorted(order[:n1])), tuple(sorted(order[n1:])), case="user"
        )
    choice = cfg.get("partition", "auto")
    if choice == "auto":
        return "auto"
    norms = list(problem.family.norms_sq())
    if choice == "case1":
        return case1_partition(norms, problem.family)
    if choice == "case2":
        part = case2_partition(problem.family)
        if part is None:
            raise ConfigError("no two-coloring split exists for this problem")
        return part
    if choice == "case3":
        return case3_partition(problem.family)
    raise ConfigError(f"unknown partition choice {choice!r}")


def _solver_config(cfg, partition) -> SolverConfig:
    try:
        return SolverConfig(
            **{f.name: cfg[f.name] for f in _CONFIG_FIELDS}, partition=partition
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_problem(manifest_path):
    manifest = fileio.read_manifest(manifest_path)
    try:
        return problems.from_manifest(manifest)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad manifest {manifest_path}: {exc}") from exc


def _summary_line(label: str, result) -> str:
    if result.trace:
        last = result.trace[-1]
        tail = (
            f"objective={last.objective:.10g} rel_residual={last.rel_residual:.4g}"
        )
    else:
        tail = "objective=n/a rel_residual=n/a"
    return (
        f"{label}: stop={result.stop_reason} iters={len(result.trace)} "
        f"{tail} backtracks={result.state.backtrack_count}"
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    meta = {"problem": args.problem, "seed": args.seed}
    for key in (
        "d",
        "n",
        "sparsity",
        "noise_sigma",
        "lam",
        "rank",
        "obs_fraction",
        "n_subspaces",
        "per_subspace",
        "corrupt_frac",
    ):
        value = getattr(args, key)
        if value is not None:
            meta[key] = value
    if args.block_dims:
        meta["block_dims"] = args.block_dims
    problem = problems.from_manifest(meta)
    os.makedirs(args.out, exist_ok=True)
    for name, arr in sorted(problem.data.items()):
        if name == "mask":
            fileio.write_array_mm(os.path.join(args.out, f"{name}.mtx"), arr)
        else:
            fileio.write_array_csv(os.path.join(args.out, f"{name}.csv"), arr)
    fileio.write_manifest(os.path.join(args.out, "manifest.txt"), problem.meta)
    print(
        f"generated {problem.name}: {len(problem.data)} data files in {args.out}"
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _merge_config(args)
    problem = _load_problem(args.manifest)
    part = _resolve_partition(problem, cfg)
    sc = _solver_config(cfg, part)
    result = run(problem, cfg["solver"], sc, workers=cfg["workers"])
    fileio.write_trace_csv(args.trace, result.trace)
    print(_summary_line(cfg["solver"], result))
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _merge_config(args)
    kinds = [s.strip() for s in args.solvers.split(",") if s.strip()]
    if not kinds:
        raise ConfigError("--solvers needs at least one solver name")
    for kind in kinds:
        if kind not in SOLVER_KINDS:
            raise ConfigError(f"unknown solver {kind!r}")
    problem = _load_problem(args.manifest)
    part = _resolve_partition(problem, cfg)
    traces = []
    for kind in kinds:
        sc = _solver_config(cfg, part)
        result = run(problem, kind, sc, workers=cfg["workers"])
        traces.append(result.trace)
        print(_summary_line(kind, result))
    fileio.write_bench_csv(args.out, kinds, traces)
    if args.plot_script:
        fileio.write_gnuplot_script(
            args.plot_script,
            args.out,
            kinds,
            column=args.plot_column,
            title=problem.name,
        )
    return EXIT_OK


def cmd_partition_study(args) -> int:
    problem = _load_problem(args.manifest)
    norms = list(problem.family.norms_sq())
    if len(norms) < 2:
        raise ConfigError("partition study needs at least two blocks")
    order, scores = case1_scan(norms, problem.family)
    chosen = case1_partition(norms, problem.family)
    with open(args.out, "w") as fh:
        fh.write("n1,score\n")
        for k, score in enumerate(scores, start=1):
            fh.write(f"{k},{score:.17g}\n")
    print(
        f"chosen n1={len(chosen.b1)} score={chosen.score:.17g} "
        f"b1={list(chosen.b1)}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


def _add_run_flags(sp) -> None:
    sp.add_argument("--config", help="flat key = value config file")
    sp.add_argument("--solver", choices=SOLVER_KINDS)
    sp.add_argument("--beta0", type=float)
    sp.add_argument("--rho", type=float)
    sp.add_argument("--beta-max", dest="beta_max", type=float)
    sp.add_argument("--max-iter", dest="max_iter", type=int)
    sp.add_argument("--eps-primal", dest="eps_primal", type=float)
    sp.add_argument("--eps-step", dest="eps_step", type=float)
    sp.add_argument("--tau", type=float)
    sp.add_argument("--mu", type=float)
    sp.add_argument("--eta-scale", dest="eta_scale", type=float)
    sp.add_argument("--schedule", choices=("geometric", "adaptive"))
    sp.add_argument("--workers", type=int)
    sp.add_argument(
        "--partition", choices=("auto", "case1", "case2", "case3")
    )
    sp.add_argument("--n1", type=int, help="force the first super block size")


def build_parser() -> _Parser:
    parser = _Parser(prog="mmadmm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic instance to disk")
    gen.add_argument("--problem", required=True, choices=problems.PROBLEM_NAMES)
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("--d", type=int)
    gen.add_argument("--n", type=int)
    gen.add_argument("--block-dims", dest="block_dims")
    gen.add_argument("--sparsity", type=float)
    gen.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    gen.add_argument("--lam", type=float)
    gen.add_argument("--rank", type=int)
    gen.add_argument("--obs-fraction", dest="obs_fraction", type=float)
    gen.add_argument("--n-subspaces", dest="n_subspaces", type=int)
    gen.add_argument("--per-subspace", dest="per_subspace", type=int)
    gen.add_argument("--corrupt-frac", dest="corrupt_frac", type=float)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="run one solver, write the trace")
    solve.add_argument("--manifest", required=True)
    solve.add_argument("--trace", required=True)
    _add_run_flags(solve)
    solve.set_defaults(func=cmd_solve)

    bench = sub.add_parser("bench", help="compare solvers on one instance")
    bench.add_argument("--manifest", required=True)
    bench.add_argument("--solvers", required=True, help="comma-separated kinds")
    bench.add_argument("--out", required=True)
    bench.add_argument("--plot-script", dest="plot_script")
    bench.add_argument(
        "--plot-column",
        dest="plot_column",
        default="objective",
        help="trace column used by the plot script",
    )
    _add_run_flags(bench)
    bench.set_defaults(func=cmd_bench)

    study = sub.add_parser(
        "partition-study", help="score curve over first-super-block sizes"
    )
    study.add_argument("--manifest", required=True)
    study.add_argument("--out", required=True)
    study.set_defaults(func=cmd_partition_study)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        UnsupportedSubproblemError,
        DivergenceError,
        BacktrackingConsistencyError,
    ) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
