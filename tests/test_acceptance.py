"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Expected values tagged by hand derivations live
next to the assertions; the finite-difference oracle and the printed
closed forms serve as the independent routes.
"""

import json
import time

import numpy as np
import pytest

import helpers
from gainflow import (
    BenchConfig,
    CONVERGED_GRAD_TOL,
    bellman,
    bench,
    cli,
    cost_flow,
    flow,
    lqr_core,
    matlin,
)

ORACLE_SEED = 77
GRAD_SEED = 78
BENCH_SEED = 0
RHO_TARGET = 1e-6


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _fit_r2(points) -> float:
    ts = np.array([t for t, _ in points])
    ys = np.log(np.maximum(np.array([r for _, r in points]), 1e-300))
    design = np.vstack([ts, np.ones_like(ts)]).T
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    ss_res = float(np.sum((ys - design @ coef) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


@pytest.fixture(scope="module")
def oracle_pool():
    """100 seeded instances (n in 2..6, m in 1..3, identity weights) with a
    deterministic stabilizing start and the policy-iteration result for
    each. (Rejection-sampled standard-normal starts are hopeless at n >= 5;
    the oracle only needs some stabilizing start.)"""
    rng = np.random.default_rng(ORACLE_SEED)
    pool = []
    start = time.perf_counter()
    for i in range(100):
        n = 2 + i % 5
        m = 1 + i % min(n, 3)
        for _ in range(20):
            sys_ = bench.random_instance(n, m, rng)
            k0 = helpers.lyapunov_stabilizing_gain(sys_)
            if np.linalg.norm(k0) < 1e4:  # near-uncontrollable draw: redraw
                break
        result = lqr_core.kleinman(sys_, k0, tol=1e-10, max_iter=50)
        pool.append((sys_, k0, result))
    elapsed = time.perf_counter() - start
    return pool, elapsed


@pytest.fixture(scope="module")
def fig3_study():
    """The 200-instance comparative study with trajectories retained."""
    start = time.perf_counter()
    result = bench.run_benchmark(BenchConfig(num_instances=200, seed=BENCH_SEED),
                                 keep_trajectories=True)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_1_oracle_correctness(oracle_pool):
    pool, elapsed = oracle_pool
    worst_residual = 0.0
    worst_iters = 0
    min_eig = np.inf
    for sys_, _, result in pool:
        worst_residual = max(worst_residual,
                             float(np.linalg.norm(lqr_core.care_residual(sys_, result.p_star))))
        worst_iters = max(worst_iters, result.iterations)
        min_eig = min(min_eig, matlin.min_eig_sym(result.p_star))
    ok = worst_residual <= 1e-8 and worst_iters <= 50 and min_eig > 0.0 and elapsed <= 10.0
    _report(1, ok, f"100 instances: max residual {worst_residual:.2e} (<=1e-8), "
                   f"max iterations {worst_iters} (<=50), min eig(P*) {min_eig:.2e} (>0), "
                   f"runtime {elapsed:.2f}s (<=10s)")


def test_criterion_2_stationarity(oracle_pool):
    pool, _ = oracle_pool
    worst_e = 0.0
    worst_grad = 0.0
    for sys_, _, result in pool:
        worst_e = max(worst_e, bellman.bellman_error(sys_, result.k_star).e)
        worst_grad = max(worst_grad,
                         float(np.linalg.norm(bellman.bellman_gradient(sys_, result.k_star).grad)))
    ok = worst_e <= 1e-10 and worst_grad <= 1e-6
    _report(2, ok, f"at K*: max error {worst_e:.2e} (<=1e-10), "
                   f"max gradient norm {worst_grad:.2e} (<=1e-6)")


def test_criterion_3_gradient_exactness():
    rng = np.random.default_rng(GRAD_SEED)
    worst_e_rel = 0.0
    worst_f_rel = 0.0
    for i in range(100):
        n = 2 + i % 4
        m = 1 + i % 3
        m = min(m, n)
        sys_, k = helpers.stabilizing_pair(rng, n, m, identity_weights=(i % 2 == 0))
        grad_e = bellman.bellman_gradient(sys_, k).grad
        fd_e = helpers.fd_gradient(lambda kk: bellman.bellman_error(sys_, kk).e, k)
        worst_e_rel = max(worst_e_rel, helpers.rel_err(grad_e, fd_e))
        grad_f = cost_flow.lqr_gradient(sys_, k)
        fd_f = helpers.fd_gradient(lambda kk: cost_flow.lqr_cost(sys_, kk).f, k)
        worst_f_rel = max(worst_f_rel, helpers.rel_err(grad_f, fd_f))
    scalar = lqr_core.SystemInstance(a=[[-1.0]], b=[[1.0]], q=[[1.0]], r=[[1.0]])
    scalar_err = abs(bellman.bellman_gradient(scalar, [[0.0]]).grad[0, 0] + 1.5)
    ok = worst_e_rel <= 1e-4 and worst_f_rel <= 1e-4 and scalar_err <= 1e-9
    _report(3, ok, f"100 pairs: max rel FD mismatch error-grad {worst_e_rel:.2e}, "
                   f"cost-grad {worst_f_rel:.2e} (<=1e-4); scalar case off by "
                   f"{scalar_err:.1e} (<=1e-9)")


def test_criterion_4_closed_form_equivalence():
    sys_ = lqr_core.demo_system()
    rng = np.random.default_rng(4)
    worst_rel = 0.0
    worst_ratio_dev = 0.0
    count = 0
    while count < 100:
        k1, k2 = 6.0 * rng.random(2) - 3.0
        if k2 <= -k1 - 1.0 + 1e-6:
            continue
        count += 1
        pipeline_e = bellman.bellman_error(sys_, [[k1, k2]]).e
        formula_e = helpers.bellman_error_closed_form_2d(k1, k2)
        worst_rel = max(worst_rel, abs(pipeline_e - formula_e) / max(1.0, abs(formula_e)))
        pipeline_f = cost_flow.lqr_cost(sys_, [[k1, k2]]).f
        formula_f = helpers.lqr_cost_closed_form_2d(k1, k2)
        worst_ratio_dev = max(worst_ratio_dev, abs(formula_f / (2.0 * pipeline_f) - 1.0))
    origin_err = abs(bellman.bellman_error(sys_, [[0.0, 0.0]]).e - 5.0 / 18.0)
    ok = worst_rel <= 1e-8 and origin_err <= 1e-12 and worst_ratio_dev <= 1e-8
    _report(4, ok, f"error formula max rel dev {worst_rel:.2e} (<=1e-8), at origin "
                   f"off 5/18 by {origin_err:.1e} (<=1e-12); cost formula / "
                   f"2x pipeline within {worst_ratio_dev:.2e} (<=1e-8)")


def test_criterion_5_flow_convergence(fig3_study):
    result, elapsed = fig3_study
    total = result.summary.num_instances
    hits = result.summary.converged_counts["bellman"]
    absc_ok = all(smp.abscissa < 0.0
                  for r in result.records
                  for smp in r.trajectories["bellman"].samples)
    descent_ok = all(b.objective <= a.objective + 1e-10 * (1.0 + abs(a.objective))
                     for r in result.records
                     for a, b in zip(r.trajectories["bellman"].samples,
                                     r.trajectories["bellman"].samples[1:]))
    # the study also keeps the two baselines above the same bar
    baseline_rates = {k: result.summary.converged_counts[k] / total
                      for k in ("lqr", "natural")}
    ok = (hits / total >= 0.95 and absc_ok and descent_ok and elapsed <= 300.0
          and all(rate >= 0.95 for rate in baseline_rates.values()))
    _report(5, ok, f"rho<=1e-6 on {hits}/{total} (>=95%), abscissa<0 {absc_ok}, "
                   f"descent {descent_ok}, baselines {baseline_rates}, "
                   f"runtime {elapsed:.0f}s (<=300s)")


def test_criterion_6_linear_convergence(fig3_study):
    result, _ = fig3_study
    r2s = []
    for r in result.records:
        traj = r.trajectories["bellman"]
        if traj.status != CONVERGED_GRAD_TOL:
            continue
        residuals = flow.normalized_residuals(traj, r.k_star)
        window = residuals[int(0.1 * len(residuals)):int(0.9 * len(residuals))]
        r2s.append(_fit_r2(window))
    ok = len(r2s) > 0 and min(r2s) >= 0.95
    _report(6, ok, f"{len(r2s)} converged trajectories, min R^2 {min(r2s):.4f} (>=0.95)")


def test_criterion_7_comparative_ordering(fig3_study):
    result, _ = fig3_study
    final = {k: float(result.summary.median[k][-1]) for k in result.config.flows}
    ok = final["lqr"] >= final["bellman"] and final["lqr"] >= final["natural"]
    _report(7, ok, "median residual at the last grid point: "
                   + ", ".join(f"{k}={v:.2e}" for k, v in final.items())
                   + " (plain cost flow is the slowest)")


def test_study_matches_the_seed0_reference(fig3_study):
    # the tolerances are the STUDY_* constants in helpers.py
    result, _ = fig3_study
    reference = json.loads(helpers.STUDY_REFERENCE.read_text())
    problems = helpers.study_mismatches(reference, helpers.study_reference(result))
    assert not problems, "\n".join(problems[:20])


def test_criterion_8_coercivity_and_boundary():
    sys_ = lqr_core.demo_system()
    ray = [bellman.bellman_error(sys_, [[0.0, -1.0 + 10.0 ** (-s)]]).e for s in range(1, 5)]
    increasing = all(b > a for a, b in zip(ray, ray[1:]))
    grid = bench.grid_eval(sys_, (-3.0, 3.0), (-3.0, 3.0), 121, objective="bellman")
    boundary_cells = 0
    boundary_flagged = 0
    for i, k1 in enumerate(grid.k1):
        for j, k2 in enumerate(grid.k2):
            if abs(k2 + k1 + 1.0) < 1e-9:
                boundary_cells += 1
                boundary_flagged += int(np.isnan(grid.values[i, j]) and not grid.stable[i, j])
    ok = increasing and boundary_cells > 0 and boundary_flagged == boundary_cells
    _report(8, ok, f"error along the boundary ray strictly increasing {increasing}; "
                   f"{boundary_flagged}/{boundary_cells} boundary cells flagged singular")


def test_criterion_9_determinism(tmp_path, capsys):
    config = {"num_instances": 10, "seed": 7,
              "time_grid": [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]}
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(config))
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for d in dirs:
        code = cli.main(["bench", "--config", str(cfg_path), "--out", str(d)])
        capsys.readouterr()
        assert code == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    identical = names == sorted(p.name for p in dirs[1].iterdir()) and all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes() for name in names
    )
    _report(9, identical, f"two runs, {len(names)} files each, byte-identical {identical}")
