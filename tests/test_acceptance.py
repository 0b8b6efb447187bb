"""Acceptance gate: every top-level success criterion, one pass/fail line each.

Each test runs one end-to-end criterion at its stated tolerance and appends a
``PASS criterion-N: ...`` or ``FAIL criterion-N: ...`` line to the terminal
summary (see conftest). The gate asserts nothing weaker than the criterion.
"""

import time

import numpy as np

from mmadmm.blockspace import (
    BlockVector,
    DenseMatrixOp,
    WeightMatrix,
    dense_norm_sq,
)
from mmadmm.cli import main
from mmadmm.diagnostics import bound_report, quadratic_oracle, verify_kkt
from mmadmm.fileio import write_manifest
from mmadmm.partition import Partition, case1_partition, case1_scan
from mmadmm.problems import (
    DataGenSpec,
    ProblemSpec,
    build_latent_lrr,
    build_nonneg_matrix_completion,
    build_nonneg_sparse_coding,
    make_subspace_data,
)
from mmadmm.prox import ProxFunction, prox_l1, prox_l1_nonneg
from mmadmm.solvers import (
    SolverConfig,
    SolverState,
    default_weights,
    dual_update,
    prepare_context,
    run,
    step,
)

from helpers import (
    grid_min_1d,
    l1_toy,
    quad_problem,
    run_observed,
    surrogate_axiom_gaps,
    surrogate_axioms_hold,
)

SEEDS = (1, 2, 3)


def _report(lines, num, body):
    try:
        ok, detail = body()
    except Exception as exc:
        line = f"FAIL criterion-{num}: raised {type(exc).__name__}: {exc}"
        lines.append(line)
        print(line)
        raise
    line = f"{'PASS' if ok else 'FAIL'} criterion-{num}: {detail}"
    lines.append(line)
    print(line)
    assert ok, line


def _budget_cfg(**kw):
    base = dict(
        beta0=1e-4, rho=1.1, max_iter=100, eps_primal=1e-12, eps_step=1e-12
    )
    base.update(kw)
    return SolverConfig(**base)


def _heterogeneous_instance(seed):
    # 100 dense blocks with widths 10, 20, ..., 1000 on 50 rows.
    gen = DataGenSpec(seed=seed, d=50, n=100, sparsity=0.1)
    return build_nonneg_sparse_coding(gen)


def _uniform_instance(seed):
    # 2000 columns uniformly split into 100 blocks of 20.
    gen = DataGenSpec(
        seed=seed, d=50, n=100, block_dims=(20,) * 100, sparsity=0.1
    )
    return build_nonneg_sparse_coding(gen)


def test_criterion_1_partition_study_equals_brute_force(
    criterion_lines, tmp_path, capsys
):
    def body():
        t0 = time.time()
        problem = _heterogeneous_instance(seed=7)
        manifest = tmp_path / "manifest.txt"
        write_manifest(manifest, problem.meta)
        out = tmp_path / "study.csv"
        code = main(
            ["partition-study", "--manifest", str(manifest), "--out", str(out)]
        )
        stdout = capsys.readouterr().out.strip().split("\n")[-1]
        assert code == 0

        # Independent enumeration of every prefix split of the sorted order.
        norms = list(problem.family.norms_sq())
        n = len(norms)
        order = sorted(range(n), key=lambda i: (-norms[i], i))
        total = sum(norms)
        best_score, best_n1 = None, None
        prefix = 0.0
        brute = []
        for k, idx in enumerate(order):
            n1 = k + 1
            prefix += norms[idx]
            l_b1 = (n1 - 1) * prefix
            if n1 <= 3:
                ops = problem.family.operators
                l_b1 -= dense_norm_sq(np.hstack([ops[i].matrix for i in order[:n1]]))
            score = l_b1 + (n - n1 - 1) * (total - prefix)
            brute.append(score)
            if best_score is None or score < best_score:
                best_score, best_n1 = score, n1

        tokens = stdout.split()
        cli_n1 = int(tokens[1].split("=")[1])
        cli_score = float(tokens[2].split("=")[1])
        curve = [
            float(line.split(",")[1])
            for line in out.read_text().strip().split("\n")[1:]
        ]
        elapsed = time.time() - t0
        ok = (
            cli_n1 == best_n1
            and cli_score == best_score
            and len(curve) == n
            and all(a == b for a, b in zip(curve, brute))
            and elapsed < 30.0
        )
        return ok, (
            f"partition-study picks n1={cli_n1} with score {cli_score:.8g}, "
            f"equal to brute-force enumeration over all {n} splits "
            f"(zero tolerance, {elapsed:.1f}s)"
        )

    _report(criterion_lines, 1, body)


def test_criterion_2_heuristic_partition_beats_single_block_side(
    criterion_lines,
):
    def body():
        margins = []
        ok = True
        for seed in SEEDS:
            t0 = time.time()
            problem = _heterogeneous_instance(seed)
            norms = list(problem.family.norms_sq())
            order, _ = case1_scan(norms, problem.family)
            worst = Partition((order[0],), tuple(sorted(order[1:])))
            f_heur = run(
                problem, "madmm", _budget_cfg(partition="auto")
            ).trace[-1].objective
            f_single = run(
                problem, "madmm", _budget_cfg(partition=worst)
            ).trace[-1].objective
            margin = (f_single - f_heur) / f_single
            margins.append(margin)
            ok = ok and margin >= 0.01 and (time.time() - t0) < 120.0
        detail = (
            "k=100 objective under the scored split beats the single-block "
            "first side by " + "/".join(f"{m:.1%}" for m in margins)
            + " (>=1% required, seeds 1-3)"
        )
        return ok, detail

    _report(criterion_lines, 2, body)


def test_criterion_3_backtracking_ordering_and_split_insensitivity(
    criterion_lines,
):
    def body():
        t0 = time.time()
        ok = True
        gaps = []
        diffs = []
        for seed in SEEDS:
            problem = _uniform_instance(seed)
            objs = {}
            for kind in ("madmm-bt", "madmm", "l-admm-ps"):
                result = run(problem, kind, _budget_cfg())
                objs[kind] = result.trace[-1].objective
                if kind == "madmm-bt":
                    ok = ok and result.state.backtrack_count <= 5 * 100
            ok = ok and objs["madmm-bt"] <= 1.01 * objs["madmm"]
            ok = ok and objs["madmm"] <= 1.01 * objs["l-admm-ps"]
            gaps.append(
                (objs["madmm-bt"], objs["madmm"], objs["l-admm-ps"])
            )

            stacked = np.hstack(
                [problem.data[f"A_{i}"] for i in range(100)]
            )
            chunks = tuple(
                DenseMatrixOp(stacked[:, 100 * j : 100 * (j + 1)])
                for j in range(20)
            )
            coarse = ProblemSpec(
                "nnsc20",
                [(chunks, problem.data["y"])],
                tuple(((100,),) * 20),
                tuple(ProxFunction("l1-nonneg") for _ in range(20)),
            )
            f_coarse = run(coarse, "madmm-bt", _budget_cfg()).trace[-1].objective
            diff = abs(objs["madmm-bt"] - f_coarse) / objs["madmm-bt"]
            diffs.append(diff)
            ok = ok and diff <= 0.10
        elapsed = time.time() - t0
        ok = ok and elapsed < 120.0
        detail = (
            "k=100 objectives order backtracking <= mixed <= "
            "linearized-parallel (1% slack) on all seeds; 20-block vs "
            "100-block backtracking objectives differ by "
            + "/".join(f"{d:.2%}" for d in diffs)
            + f" (<=10% required, {elapsed:.1f}s)"
        )
        return ok, detail

    _report(criterion_lines, 3, body)


def test_criterion_4_backtracking_is_less_penalty_growth_sensitive(
    criterion_lines,
):
    def body():
        ok = True
        pairs = []
        for seed in SEEDS:
            problem = _uniform_instance(seed)
            final = {}
            for kind in ("madmm-bt", "l-admm-ps"):
                for rho in (1.1, 2.0):
                    result = run(problem, kind, _budget_cfg(rho=rho))
                    final[(kind, rho)] = result.trace[-1].objective

            def rel(kind):
                lo = final[(kind, 1.1)]
                return abs(final[(kind, 2.0)] - lo) / lo

            bt_rel, ps_rel = rel("madmm-bt"), rel("l-admm-ps")
            pairs.append((bt_rel, ps_rel))
            ok = ok and bt_rel <= ps_rel
        detail = (
            "relative k=100 objective change between rho=1.1 and rho=2 is "
            + "/".join(f"{b:.1%} vs {p:.1%}" for b, p in pairs)
            + " (backtracking vs linearized-parallel, 3 seeds)"
        )
        return ok, detail

    _report(criterion_lines, 4, body)


def test_criterion_5_averaged_iterate_gap_respects_rate_bound(
    criterion_lines,
):
    def body():
        t0 = time.time()
        two_block = quad_problem(5, d=10, dims=(5, 5), weights=(1.0, 2.0))
        G2 = (WeightMatrix.zero(), WeightMatrix.scaled_identity(0.1))
        cfg = SolverConfig(
            beta0=1.0,
            rho=1.0,
            max_iter=200,
            eps_primal=1e-15,
            eps_step=1e-15,
            weights=G2,
        )
        cert2 = quadratic_oracle(two_block)
        ok = verify_kkt(two_block, cert2.x_star, cert2.lambda_star, tol=1e-9)[0]
        rep2 = bound_report(two_block, "gs", cfg, cert2)
        ok = ok and len(rep2.rows) == 200 and rep2.ok(slack=1e-8)

        four_block = quad_problem(
            6, d=8, dims=(3, 4, 2, 5), weights=(1.0, 2.0, 0.5, 1.5)
        )
        part = case1_partition(
            list(four_block.family.norms_sq()), four_block.family
        )
        G4, _ = default_weights(four_block, "madmm", part)
        cfg4 = SolverConfig(
            beta0=1.0,
            rho=1.0,
            max_iter=200,
            eps_primal=1e-15,
            eps_step=1e-15,
            weights=tuple(G4),
            partition=part,
        )
        cert4 = quadratic_oracle(four_block)
        ok = ok and verify_kkt(
            four_block, cert4.x_star, cert4.lambda_star, tol=1e-9
        )[0]
        rep4 = bound_report(four_block, "madmm", cfg4, cert4)
        ok = ok and len(rep4.rows) == 200 and rep4.ok(slack=1e-8)
        elapsed = time.time() - t0
        ok = ok and elapsed < 60.0
        detail = (
            "kkt gap of the averaged iterate stays within the rate bound for "
            "all 200 K on the two-block sequential run (alpha="
            f"{rep2.alpha:.3g}) and the four-block mixed run "
            f"(alpha={rep4.alpha:.3g}), slack 1e-8, oracle tol 1e-9, "
            f"{elapsed:.1f}s"
        )
        return ok, detail

    _report(criterion_lines, 5, body)


def test_criterion_6_completion_needs_fewer_mixed_iterations(
    criterion_lines,
):
    def body():
        t0 = time.time()
        ok = True
        ratios = []
        for seed in SEEDS:
            gen = DataGenSpec(
                seed=seed, d=64, n=64, rank=5, obs_fraction=0.6, noise_sigma=0.1
            )
            problem = build_nonneg_matrix_completion(gen, lam=10.0)
            counts = {}
            for kind in ("madmm", "l-admm-ps"):
                result = run(problem, kind, SolverConfig(**problem.suggested))
                ok = ok and result.stop_reason == "converged"
                counts[kind] = len(result.trace)
            ratio = counts["madmm"] / counts["l-admm-ps"]
            ratios.append((counts["madmm"], counts["l-admm-ps"], ratio))
            ok = ok and ratio <= 0.9
        elapsed = time.time() - t0
        ok = ok and elapsed < 120.0
        detail = (
            "adaptive-schedule completion converges in "
            + "/".join(f"{m} vs {p} iters ({r:.2f}x)" for m, p, r in ratios)
            + f" for mixed vs linearized-parallel (<=0.9x required, "
            f"{elapsed:.1f}s)"
        )
        return ok, detail

    _report(criterion_lines, 6, body)


def test_criterion_7_latent_decomposition_favors_mixed_solver(
    criterion_lines,
):
    def body():
        X = make_subspace_data(seed=1, d=50)
        problem = build_latent_lrr(X, lam=0.1, formulation="3-block")
        res_m = run(problem, "madmm", _budget_cfg(max_iter=300))
        res_p = run(problem, "l-admm-ps", _budget_cfg(max_iter=300))
        f_m = res_m.trace[-1].objective
        f_p = res_p.trace[-1].objective
        r_m = res_m.trace[99].residual_norm
        r_p = res_p.trace[99].residual_norm
        ok = f_m <= 1.01 * f_p and r_m <= r_p
        detail = (
            f"three-block run: objective at k=300 {f_m:.6g} vs {f_p:.6g} "
            f"(1% slack) and residual at k=100 {r_m:.3g} vs {r_p:.3g} "
            "both favor the mixed solver"
        )
        return ok, detail

    _report(criterion_lines, 7, body)


# ---------------------------------------------------------------------------
# Criterion 8: the property bundle
# ---------------------------------------------------------------------------


def _prox_grids_ok():
    for v, t in [(3.0, 1.0), (-1.0, 1.0), (0.4, 0.7)]:
        got = prox_l1(np.array([v]), t)[0]
        want = grid_min_1d(lambda x: t * np.abs(x) + 0.5 * (x - v) ** 2)
        if abs(got - want) > 2e-4:
            return False
        got = prox_l1_nonneg(np.array([v]), t)[0]
        want = grid_min_1d(
            lambda x: np.where(x >= 0, t * x + 0.5 * (x - v) ** 2, np.inf)
        )
        if abs(got - want) > 2e-4:
            return False
    return True


# Every kind with solver-chosen weights, on each instance that supports it:
# gs needs two blocks, gl-admm-ps keeps a full coupling Gram that the
# nonnegative-l1 and nuclear terms cannot share a block solve with, and
# l-admm-ps does not linearize latlrr2's smooth term.
_AXIOM_KINDS = ("gs", "jacobi", "madmm", "l-admm-ps", "pl-admm-ps", "gl-admm-ps")


def _axiom_instances():
    X = make_subspace_data(0, d=6, rank=2, n_subspaces=2, per_subspace=4)
    nnsc = build_nonneg_sparse_coding(
        DataGenSpec(seed=4, d=5, n=4, block_dims=(3, 2, 4, 3))
    )
    return [
        (quad_problem(3), _AXIOM_KINDS),
        (l1_toy(), _AXIOM_KINDS),
        (nnsc, ("jacobi", "madmm", "l-admm-ps", "pl-admm-ps")),
        (
            build_latent_lrr(X, lam=0.5, formulation="2-block"),
            ("gs", "jacobi", "madmm", "pl-admm-ps"),
        ),
        (
            build_latent_lrr(X, lam=0.5, formulation="3-block"),
            ("jacobi", "madmm", "l-admm-ps", "pl-admm-ps"),
        ),
    ]


def _surrogate_axioms_ok():
    # The assembled block model of every phase majorizes the augmented
    # Lagrangian and touches it at the anchor (see surrogate_axiom_gaps).
    return all(
        surrogate_axioms_hold(surrogate_axiom_gaps(problem, kind))
        for problem, kinds in _axiom_instances()
        for kind in kinds
    )


def _dual_identity_ok():
    rng = np.random.default_rng(1)
    lam = rng.standard_normal(6)
    resid = rng.standard_normal(6)
    return np.array_equal(dual_update(lam, 0.7, resid), lam + 0.7 * resid)


def _degeneracies_ok():
    cfg = dict(
        beta0=0.5, rho=1.1, max_iter=20, eps_primal=1e-15, eps_step=1e-15
    )
    worst = 0.0
    p2 = quad_problem(31, d=5, dims=(2, 3), weights=(1.0, 2.0))
    _, seq = run_observed(p2, "gs", SolverConfig(**cfg))
    _, mixed = run_observed(
        p2, "madmm", SolverConfig(partition=Partition((0,), (1,)), **cfg)
    )
    for xa, xb in zip(seq, mixed, strict=True):
        for i in range(p2.family.n):
            worst = max(worst, float(np.max(np.abs(xa[i] - xb[i]))))
    p3 = quad_problem(32, d=5, dims=(2, 2, 3), weights=(1.0, 2.0, 1.5))
    _, par = run_observed(p3, "jacobi", SolverConfig(**cfg))
    _, mixed3 = run_observed(
        p3, "madmm", SolverConfig(partition=Partition((), (0, 1, 2)), **cfg)
    )
    for xa, xb in zip(par, mixed3, strict=True):
        for i in range(p3.family.n):
            worst = max(worst, float(np.max(np.abs(xa[i] - xb[i]))))
    return worst <= 1e-12


def _bt_postconditions_ok():
    rng = np.random.default_rng(100)
    dims = (2, 3, 2, 3)
    ops = tuple(DenseMatrixOp(rng.standard_normal((6, m))) for m in dims)
    problem = ProblemSpec(
        "bt",
        [(ops, rng.standard_normal(6))],
        tuple((m,) for m in dims),
        tuple(ProxFunction("sq-frobenius", 1.0) for _ in dims),
    )
    part = Partition((0, 1), (2, 3))
    config = SolverConfig(partition=part, beta0=0.5, rho=1.1, eta_scale=0.01)
    ctx = prepare_context(problem, "madmm-bt", config)
    A = problem.family
    state = SolverState(
        x=BlockVector.zeros(problem.block_shapes),
        lam=np.zeros(A.out_shape),
        beta=config.beta0,
        G=list(ctx.G0),
    )
    for _ in range(10):
        x_prev = state.x
        step(state, ctx)
        x_new = state.x
        coupled = np.zeros(A.out_shape)
        allowance = 0.0
        for i in part.b1:
            d = x_new[i] - x_prev[i]
            coupled += A.operators[i].apply(d)
            allowance += state.G[i].eta * float(np.vdot(d, d))
        if float(np.vdot(coupled, coupled)) > allowance:
            return False
        step_sq = quad = 0.0
        coupled2 = np.zeros(A.out_shape)
        for i in part.b2:
            d = x_new[i] - x_prev[i]
            step_sq += float(np.vdot(d, d))
            quad += state.G[i].eta * float(np.vdot(d, d))
            coupled2 += A.operators[i].apply(d)
        if config.tau * step_sq > quad - float(np.vdot(coupled2, coupled2)):
            return False
    return True


def _parallel_determinism_ok():
    problem = quad_problem(33, d=6, dims=(2, 3, 4), weights=(1.0, 2.0, 1.5))
    cfg = dict(
        beta0=0.5, rho=1.1, max_iter=15, eps_primal=1e-15, eps_step=1e-15
    )
    one = run(problem, "jacobi", SolverConfig(**cfg), workers=1)
    four = run(problem, "jacobi", SolverConfig(**cfg), workers=4)
    for a, b in zip(one.trace, four.trace):
        if (a.objective, a.residual_norm, a.step_norm) != (
            b.objective,
            b.residual_norm,
            b.step_norm,
        ):
            return False
    return all(
        np.array_equal(one.state.x[i], four.state.x[i])
        for i in range(problem.family.n)
    )


def test_criterion_8_property_bundle(criterion_lines):
    def body():
        checks = {
            "prox-grid": _prox_grids_ok(),
            "surrogate-axioms": _surrogate_axioms_ok(),
            "dual-identity": _dual_identity_ok(),
            "degeneracy-equivalence": _degeneracies_ok(),
            "backtracking-postconditions": _bt_postconditions_ok(),
            "parallel-determinism": _parallel_determinism_ok(),
        }
        ok = all(checks.values())
        detail = "property bundle: " + ", ".join(
            f"{name} {'ok' if good else 'FAILED'}"
            for name, good in checks.items()
        )
        return ok, detail

    _report(criterion_lines, 8, body)
