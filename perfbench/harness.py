"""Solve benchmark: time to tolerance per solver kind on seeded instances.

One run measures one workload. It builds ``INSTANCES`` instances from the
run seed, solves each with every kind in ``KINDS`` through the public API
(``build_*``, then ``mmadmm.run``), and goes on repeating the solves in the
same order while another fits in the requested seconds. Every solve starts
from a freshly built instance, so it pays its own set-up.

An operation is one (instance, kind) solve; its repeats are timing samples
of the same deterministic computation. An operation fails when a repeat
raises, stops before converging, ends above the feasibility tolerance, or
ends with a non-finite objective. A failed operation contributes no time,
iteration count or objective; it is counted and its exception reported.

The harness checks, outside the timed region and without mmadmm code, that
every converged iterate is feasible to the tolerance and that the reported
objective matches the iterate. Repeats of an operation, and the traced
repeat of the untraced solve, must agree bitwise.

The host's speed drifts by tens of percent over seconds to minutes, and
the drift moves a fixed NumPy kernel as much as a solve. So every untimed
gap between solves runs a calibration kernel of the workload's kind, built
from fixed data with NumPy alone, and each solve's times are rescaled by
the kernel's nominal time over its time next to the solve. A change to
mmadmm moves the solve and not the kernel, so it moves the rescaled time
by the same share as the wall time.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import numpy as np
import scipy
import scipy.linalg
import scipy.optimize

import mmadmm
from mmadmm import DataGenSpec, SolverConfig

from tracing import Tracer

KINDS = ("madmm", "madmm-bt", "jacobi", "l-admm-ps")
INSTANCES = 3  # instances per run; instance seeds INSTANCES * seed + j
CALIBRATION_SEED = 20160708  # fixed: the kernels are the same in every run
# About the calibration kernels' median times between solves on a 2-core
# x86_64 VM, so the rescaled times read close to wall times there.
NOMINAL_S = {"nnsc": 0.13, "latlrr3": 0.057}
MAX_ITER = 1000  # about ten times the longest converged trace
OBJECTIVE_MATCH = 1e-9  # relative; independent recomputation of f(x)
LP_SLACK = 1e-2  # a near-feasible iterate may sit this far below f*


# ---------------------------------------------------------------------------
# Independent evaluation of iterates
# ---------------------------------------------------------------------------


def _nuclear(M: np.ndarray) -> float:
    return float(np.sum(scipy.linalg.svd(M, compute_uv=False, lapack_driver="gesvd")))


def _rel(parts, rhs) -> float:
    num = math.sqrt(sum(float(np.vdot(p, p)) for p in parts))
    den = math.sqrt(sum(float(np.vdot(r, r)) for r in rhs))
    return num / max(den, 1.0)


def _nnsc_eval(problem, blocks):
    mats = [problem.data[f"A_{i}"] for i in range(len(blocks))]
    y = problem.data["y"]
    r = sum(M @ x for M, x in zip(mats, blocks)) - y
    f = math.inf if any(np.any(x < 0.0) for x in blocks) else sum(
        float(np.sum(x)) for x in blocks)
    return _rel([r], [y]), f


def _latlrr3_eval(problem, blocks):
    Z, L, E = blocks
    X = problem.data["X"]
    ones = np.ones((1, X.shape[1]))
    rel = _rel([ones @ Z - ones, X @ Z + L @ X - E - X], [ones, X])
    f = _nuclear(Z) + _nuclear(L) + 0.5 * problem.meta["lam"] * float(np.vdot(E, E))
    return rel, f


def _nnsc_reference(problem) -> float:
    """LP optimum of ``min 1^T x s.t. [A_1 .. A_n] x = y, x >= 0``."""
    A = np.hstack([problem.data[f"A_{i}"] for i in range(problem.n)])
    # Dual simplex without presolve: 1.3 s here, against 3.3 s with presolve.
    lp = scipy.optimize.linprog(
        np.ones(A.shape[1]), A_eq=A, b_eq=problem.data["y"], bounds=(0, None),
        method="highs-ds", options={"presolve": False})
    if lp.status != 0:
        raise RuntimeError(f"reference LP failed: {lp.message}")
    return float(lp.fun)


def _latlrr3_reference(problem) -> float:
    """Nuclear norm of the data ``X``, the scale of the instance.

    Across seeds 0-14 the final objective divided by it spreads 2%
    (interquartile range over median), against 5% unscaled.
    """
    return _nuclear(problem.data["X"])


# ---------------------------------------------------------------------------
# Calibration kernels: NumPy only, fixed data, shaped like each workload
# ---------------------------------------------------------------------------


def _nnsc_calibration(tiny: bool) -> Callable[[], None]:
    """Projected gradient passes over 100 dense 50 x 10(i+1) blocks."""
    rng = np.random.default_rng(CALIBRATION_SEED)
    d, n, passes = (10, 6, 2) if tiny else (50, 100, 48)
    mats = [rng.standard_normal((d, 10 * (i + 1))) for i in range(n)]
    y = rng.standard_normal(d)

    def kernel():
        xs = [np.zeros(M.shape[1]) for M in mats]
        for _ in range(passes):
            r = -y
            for M, x in zip(mats, xs):
                r = r + M @ x
            xs = [np.maximum(x - 1e-4 * (M.T @ r) - 1e-4, 0.0) for M, x in zip(mats, xs)]

    return kernel


def _latlrr3_calibration(tiny: bool) -> Callable[[], None]:
    """Thresholded SVDs of 150 x 150 and 50 x 50 blocks and their products."""
    rng = np.random.default_rng(CALIBRATION_SEED)
    d, n, passes = (10, 30, 2) if tiny else (50, 150, 10)
    X = rng.standard_normal((d, n))
    Z = rng.standard_normal((n, n))
    L = rng.standard_normal((d, d))

    def kernel():
        for _ in range(passes):
            for M in (Z, L):
                U, s, Vt = np.linalg.svd(M, full_matrices=False)
                (U * np.maximum(s - 1.0, 0.0)) @ Vt
            X @ Z + L @ X - X

    return kernel


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    build: Callable  # instance seed -> ProblemSpec
    config: Callable  # ProblemSpec -> SolverConfig keyword arguments
    evaluate: Callable  # (problem, blocks) -> (rel_residual, objective)
    reference: Callable  # problem -> reference objective
    calibration: Callable  # tiny -> calibration kernel
    nominal_s: float  # the kernel's median time on the reference machine
    reference_is_optimum: bool = False


def workloads(tiny: bool = False) -> dict:
    """The benchmark workloads; ``tiny`` shrinks every instance for tests."""
    nnsc = dict(d=10, n=6) if tiny else dict(d=50, n=100)
    sub = dict(d=10, per_subspace=6) if tiny else dict(d=50)

    def build_nnsc(seed):
        return mmadmm.build_nonneg_sparse_coding(DataGenSpec(seed, sparsity=0.1, **nnsc))

    def build_latlrr3(seed):
        X = mmadmm.make_subspace_data(seed, **sub)
        return mmadmm.build_latent_lrr(X, lam=0.1, formulation="3-block")

    return {
        "nnsc": Workload(build_nnsc, lambda p: {}, _nnsc_eval, _nnsc_reference,
                         _nnsc_calibration, NOMINAL_S["nnsc"],
                         reference_is_optimum=True),
        "latlrr3": Workload(build_latlrr3, lambda p: {}, _latlrr3_eval,
                            _latlrr3_reference, _latlrr3_calibration,
                            NOMINAL_S["latlrr3"]),
    }


# ---------------------------------------------------------------------------
# Solves
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    seed: int
    kind: str
    failure: Optional[str] = None
    solve_s: float = math.nan
    setup_s: float = math.nan
    iterations: int = 0
    objective: float = math.nan
    backtracks: int = 0
    iter_ms: float = math.nan
    calibration_s: float = math.nan  # mean kernel time just before and after
    checks: list = field(default_factory=list)  # correctness violations

    def fingerprint(self):
        """What a deterministic repeat must reproduce exactly."""
        if self.failure is not None:
            return ("failed", self.failure)
        return (self.iterations, self.objective.hex())


def solve(workload: Workload, seed: int, kind: str) -> Outcome:
    """Build one instance and solve it; time from the build call to return."""
    out = Outcome(seed, kind)
    start = perf_counter()
    problem = workload.build(seed)
    built = perf_counter()
    config = SolverConfig(max_iter=MAX_ITER, **workload.config(problem))
    try:
        result = mmadmm.run(problem, kind, config, workers=1)
    except Exception as exc:  # every solver error is a failed operation
        out.failure = f"{type(exc).__name__}: {exc}"
        return out
    done = perf_counter()
    trace = result.trace
    if not trace:
        out.failure = f"no iterations (stop reason {result.stop_reason})"
        return out
    last = trace[-1]
    out.solve_s = done - start
    out.setup_s = (built - start) + (done - built) - last.wall_time_ms / 1e3
    out.iterations = len(trace)
    out.objective = last.objective
    out.backtracks = result.state.backtrack_count
    walls = [row.wall_time_ms for row in trace]
    if len(walls) > 1:
        out.iter_ms = statistics.median(b - a for a, b in zip(walls, walls[1:]))
    if result.stop_reason != "converged":
        out.failure = f"stopped: {result.stop_reason} after {len(trace)} iterations"
    elif last.rel_residual > config.eps_primal:
        out.failure = f"rel_residual {last.rel_residual:.3e} above eps_primal"
    elif not math.isfinite(last.objective):
        out.failure = f"non-finite objective {last.objective}"
    else:
        rel, f = workload.evaluate(problem, result.state.x.blocks)
        if not rel <= config.eps_primal * (1.0 + 1e-6):
            out.checks.append(
                f"{kind}@{seed}: independent rel_residual {rel:.6e} "
                f"above eps_primal {config.eps_primal}")
        if not abs(f - last.objective) <= OBJECTIVE_MATCH * max(abs(f), 1.0):
            out.checks.append(
                f"{kind}@{seed}: reported objective {last.objective!r} "
                f"but the iterate evaluates to {f!r}")
    return out


def _timed(kernel) -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


def measure(workload, seeds, kernel=None, seconds=0.0) -> list:
    """Solve every (seed, kind) once, then go on in the same order.

    Solving goes on while one more solve, at the mean pace so far, still
    ends within ``seconds`` of the start. With a calibration ``kernel``, the
    kernel is timed before the first solve and after each, and every
    outcome records the mean of the two times next to it.
    """
    ops = [(seed, kind) for seed in seeds for kind in KINDS]
    outcomes = []
    start = perf_counter()
    before = _timed(kernel) if kernel else math.nan
    while len(outcomes) < len(ops) or (
            (perf_counter() - start) * (len(outcomes) + 1) / len(outcomes) <= seconds):
        out = solve(workload, *ops[len(outcomes) % len(ops)])
        after = _timed(kernel) if kernel else math.nan
        out.calibration_s = 0.5 * (before + after)
        before = after
        outcomes.append(out)
    return outcomes


def operations(outcomes) -> dict:
    """Group outcomes by (seed, kind), keeping first-seen order."""
    ops = {}
    for o in outcomes:
        ops.setdefault((o.seed, o.kind), []).append(o)
    return ops


def correctness_errors(outcomes, other=None) -> list:
    """Failed independent checks, and operations whose repeats disagree.

    Repeats include ``other``'s solves of the same operation, so a traced
    round can be held to the untraced one.
    """
    errors = []
    ops = operations(outcomes)
    ref = operations(other) if other is not None else {}
    for (seed, kind), reps in ops.items():
        prints = {o.fingerprint() for o in reps + ref.get((seed, kind), [])}
        if len(prints) > 1:
            errors.append(f"{kind}@{seed}: repeats disagree: {sorted(map(str, prints))}")
        for o in reps:
            errors.extend(o.checks)
    return errors


def failures(outcomes) -> list:
    """One record per failed operation."""
    return [
        {"seed": seed, "kind": kind,
         "error": next(o.failure for o in reps if o.failure is not None)}
        for (seed, kind), reps in operations(outcomes).items()
        if any(o.failure is not None for o in reps)
    ]


def succeeded(outcomes, kind) -> list:
    failed = {(f["seed"], f["kind"]) for f in failures(outcomes)}
    return [o for o in outcomes if o.kind == kind and (o.seed, kind) not in failed]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rescaled(outcomes, attr, nominal_s) -> list:
    """Per operation, the median over repeats of ``attr`` at nominal speed.

    Each repeat's time is multiplied by the calibration kernel's nominal time
    over its measured time next to that repeat.
    """
    return [statistics.median(getattr(o, attr) * nominal_s / o.calibration_s
                              for o in reps)
            for reps in operations(outcomes).values()
            if not any(math.isnan(getattr(o, attr)) for o in reps)]


def end_to_end(outcomes, references, rss_mb, nominal_s) -> dict:
    """Per kind, medians over instances; ``setup_s`` sums the kinds' medians."""
    m = {}
    setup = 0.0
    for kind in KINDS:
        setup_samples = rescaled([o for o in outcomes if o.kind == kind],
                                 "setup_s", nominal_s)
        if setup_samples:
            setup += statistics.median(setup_samples)
        ok = succeeded(outcomes, kind)
        if not ok:
            continue
        m[f"solve_s.{kind}"] = (statistics.median(rescaled(ok, "solve_s", nominal_s)), "s")
        # Repeats agree bitwise, so one per operation weighs instances evenly.
        firsts = [reps[0] for reps in operations(ok).values()]
        m[f"iterations.{kind}"] = (statistics.median(o.iterations for o in firsts), "count")
        m[f"objective.{kind}"] = (
            statistics.median(o.objective / references[o.seed] for o in firsts), "ratio")
    m["setup_s"] = (setup, "s")
    m["peak_rss_mb"] = (rss_mb, "MB")
    return m


def per_layer(untraced, traced, tracer: Tracer) -> dict:
    t = tracer
    m = {
        "blockspace.op_apply.calls": (t.calls["blockspace.op_apply"], "count"),
        "blockspace.op_apply_s": (t.self_s["blockspace.op_apply"], "s"),
        "blockspace.op_adjoint.calls": (t.calls["blockspace.op_adjoint"], "count"),
        "blockspace.op_adjoint_s": (t.self_s["blockspace.op_adjoint"], "s"),
        "blockspace.blockvector_s": (t.self_s["blockspace.blockvector"], "s"),
        "blockspace.dense_mflop": (t.counts["dense_flop"] / 1e6, "Mflop"),
        "blockspace.norm_cert.calls": (t.calls["blockspace.norm_cert"], "count"),
        "blockspace.norm_cert_s": (t.self_s["blockspace.norm_cert"], "s"),
        "blockspace.gram_rep.calls": (t.calls["blockspace.gram_rep"], "count"),
        "blockspace.gram_rep_s": (t.self_s["blockspace.gram_rep"], "s"),
        "partition.case1.calls": (t.calls["partition.case1_partition"], "count"),
        "partition.partition_s": (t.self_time("partition."), "s"),
        "problems.build_s": (t.self_s["problems.build"], "s"),
        "problems.objective.calls": (t.calls["problems.objective"], "count"),
        "problems.objective_s": (t.self_s["problems.objective"], "s"),
        "prox.prox.calls": (t.calls["prox.prox"], "count"),
        "prox.prox_s": (t.self_s["prox.prox"], "s"),
        "prox.value.calls": (t.calls["prox.value"], "count"),
        "prox.value_s": (t.self_s["prox.value"], "s"),
        "prox.svd.calls": (t.counts["svd"], "count"),
        "solvers.prepare_context_s": (t.self_s["solvers.prepare_context"], "s"),
        "solvers.default_weights_s": (t.self_s["solvers.default_weights"], "s"),
        "solvers.assemble_block.calls": (t.calls["solvers.assemble_block"], "count"),
        "solvers.assemble_block_s": (t.self_s["solvers.assemble_block"], "s"),
        "solvers.run_self_s": (t.self_s["solvers.run"], "s"),
        "solvers.backtracks": (sum(o.backtracks for o in traced), "count"),
    }
    for kind in KINDS:
        plain, slow = succeeded(untraced, kind), succeeded(traced, kind)
        if plain:
            m[f"solvers.iter_ms.{kind}"] = (
                statistics.median(o.iter_ms for o in plain), "ms")
        if plain and slow:
            m[f"trace_overhead.{kind}"] = (
                statistics.median(o.solve_s for o in slow)
                / statistics.median(o.solve_s for o in plain), "ratio")
    return m


# ---------------------------------------------------------------------------
# Machine
# ---------------------------------------------------------------------------


def blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS that numpy loaded, when it can be read."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        fn = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Command
# ---------------------------------------------------------------------------


def _metrics_json(metrics: dict) -> dict:
    return {k: {"value": float(v), "unit": u} for k, (v, u) in sorted(metrics.items())}


def run_benchmark(workload_name, seed, seconds, trace, tiny=False, emit=print) -> dict:
    """Measure one workload; emits context lines and returns the result object."""
    wl = workloads(tiny)[workload_name]
    seeds = [INSTANCES * seed + j for j in range(INSTANCES)]
    info = machine()
    if info["blas_threads"] is not None and info["blas_threads"] > info["nproc"]:
        raise RuntimeError(f"BLAS uses {info['blas_threads']} threads on "
                           f"{info['nproc']} cores")
    emit(json.dumps({"machine": info, "workload": workload_name,
                     "instance_seeds": seeds, "kinds": list(KINDS)}))
    # Untimed warm-up: a cold process pays one-off costs on its first solve.
    solve(wl, seeds[0], KINDS[0])

    if trace:
        untraced = measure(wl, seeds)
        with Tracer() as tracer:
            traced = measure(wl, seeds)
        errors = correctness_errors(untraced, traced) + correctness_errors(traced)
        outcomes = untraced
        metrics = per_layer(untraced, traced, tracer)
        emit(json.dumps({"spans": {k: [tracer.calls[k], tracer.total_s[k],
                                       tracer.self_s[k]] for k in sorted(tracer.calls)}}))
    else:
        outcomes = measure(wl, seeds, wl.calibration(tiny), seconds=seconds)
        errors = correctness_errors(outcomes)
        rss_mb = peak_rss_mb()  # before the reference LP, which peaks higher

    references = {s: wl.reference(wl.build(s)) for s in seeds}
    if not trace:
        metrics = end_to_end(outcomes, references, rss_mb, wl.nominal_s)
    lp_gap = {}
    for (seed, kind), reps in operations(outcomes).items():
        if wl.reference_is_optimum and reps[0].failure is None:
            ratio = reps[0].objective / references[seed]
            lp_gap.setdefault(kind, {})[seed] = ratio - 1.0
            if ratio < 1.0 - LP_SLACK:
                errors.append(f"{kind}@{seed}: objective {reps[0].objective!r} "
                              f"below the LP optimum {references[seed]!r}")
    failed = failures(outcomes)
    samples = {f"{kind}@{seed}": {"iterations": reps[0].iterations,
                                  "solve_s": [o.solve_s for o in reps],
                                  "setup_s": [o.setup_s for o in reps],
                                  "calibration_s": [o.calibration_s for o in reps]}
               for (seed, kind), reps in operations(outcomes).items()}
    emit(json.dumps({"references": references, "lp_gap": lp_gap,
                     "failures": failed, "check_errors": errors,
                     "operations": samples}))
    return {
        "correct": not errors,
        "attempted": len(operations(outcomes)),
        "failed": len(failed),
        "metrics": _metrics_json(metrics),
    }
