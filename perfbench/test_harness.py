"""Self-test of the solve benchmark on tiny instances.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import mmadmm  # noqa: E402
import harness  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, lines=None):
    emit = (lambda line: lines.append(json.loads(line))) if lines is not None else (
        lambda line: None)
    return harness.run_benchmark(workload, seed=0, seconds=0.0, trace=trace,
                                 tiny=True, emit=emit)


def _context(lines, key):
    return next(line[key] for line in lines if key in line)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted(workload):
    result = _run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == harness.INSTANCES * len(harness.KINDS)
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_emitted(workload):
    result = _run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_injected_failing_solve_is_counted(monkeypatch):
    real_run = mmadmm.run
    doomed = (0, "jacobi")

    def run(problem, kind, config, workers=1):
        if (problem.meta["seed"], kind) == doomed:
            raise RuntimeError("injected")
        return real_run(problem, kind, config, workers=workers)

    monkeypatch.setattr(mmadmm, "run", run)
    lines = []
    result = _run("nnsc", trace=0, lines=lines)
    assert result["attempted"] == harness.INSTANCES * len(harness.KINDS)
    assert result["failed"] == 1
    assert result["correct"]
    assert _context(lines, "failures") == [
        {"seed": 0, "kind": "jacobi", "error": "RuntimeError: injected"}]


def test_solve_stopped_by_the_iteration_cap_fails(monkeypatch):
    monkeypatch.setattr(harness, "MAX_ITER", 2)
    lines = []
    result = _run("latlrr3", trace=0, lines=lines)
    assert result["failed"] == result["attempted"]
    assert not any(k.startswith("solve_s.") for k in result["metrics"])
    assert all(f["error"].startswith("stopped: budget")
               for f in _context(lines, "failures"))


def test_failed_independent_check_makes_the_run_incorrect(monkeypatch):
    monkeypatch.setattr(harness, "OBJECTIVE_MATCH", -1.0)
    lines = []
    result = _run("latlrr3", trace=0, lines=lines)
    assert not result["correct"]
    assert all("evaluates to" in e for e in _context(lines, "check_errors"))


def test_disagreeing_repeats_are_errors():
    first = harness.Outcome(0, "madmm", iterations=10, objective=1.0)
    second = harness.Outcome(0, "madmm", iterations=10, objective=1.0 + 2**-52)
    assert harness.correctness_errors([first, first]) == []
    assert harness.correctness_errors([first, second])
    assert harness.correctness_errors([first], other=[second])
    failed = harness.Outcome(0, "madmm", failure="LinAlgError: x")
    assert harness.correctness_errors([first, failed])


def test_times_are_rescaled_by_the_calibration_next_to_each_repeat():
    fast = harness.Outcome(0, "madmm", solve_s=1.0, calibration_s=0.1)
    slow = harness.Outcome(0, "madmm", solve_s=3.0, calibration_s=0.2)
    other = harness.Outcome(1, "madmm", solve_s=2.0, calibration_s=0.1)
    assert harness.rescaled([fast, slow, slow, other], "solve_s", 0.1) == pytest.approx(
        [1.5, 2.0])


def test_measure_times_the_kernel_around_every_solve(monkeypatch):
    monkeypatch.setattr(harness, "solve", lambda wl, seed, kind: harness.Outcome(seed, kind))
    calls = []
    outcomes = harness.measure(None, [0, 1], kernel=lambda: calls.append(1))
    assert len(outcomes) == 2 * len(harness.KINDS) == len(calls) - 1
    assert all(o.calibration_s >= 0.0 for o in outcomes)
    assert all(math.isnan(o.calibration_s) for o in harness.measure(None, [0]))


def test_tracer_restores_the_package():
    originals = (mmadmm.run, mmadmm.BlockVector.__add__,
                 mmadmm.DenseMatrixOp.apply, mmadmm.ProxFunction.value,
                 mmadmm.blockspace.BlockOperator.op_norm_sq)
    with Tracer() as tracer:
        assert mmadmm.run is not originals[0]
        problem = harness.workloads(tiny=True)["nnsc"].build(0)
        mmadmm.run(problem, "madmm", mmadmm.SolverConfig(max_iter=3))
    assert tracer.calls["solvers.run"] == 1
    assert tracer.calls["problems.build"] == 1
    assert tracer.calls["blockspace.op_apply"] > 0
    assert (mmadmm.run, mmadmm.BlockVector.__add__, mmadmm.DenseMatrixOp.apply,
            mmadmm.ProxFunction.value,
            mmadmm.blockspace.BlockOperator.op_norm_sq) == originals


def test_uneven_repeats_do_not_weigh_iterations_and_objectives():
    outs = [harness.Outcome(seed, "madmm", solve_s=1.0, setup_s=0.1, iterations=it,
                            objective=f, calibration_s=0.1)
            for seed, it, f in [(0, 10, 1.0), (0, 10, 1.0), (0, 10, 1.0), (1, 20, 2.0),
                                (2, 30, 3.0)]]
    m = harness.end_to_end(outs, {0: 1.0, 1: 1.0, 2: 1.0}, 50.0, 0.1)
    assert m["iterations.madmm"] == (20, "count")
    assert m["objective.madmm"] == (2.0, "ratio")
