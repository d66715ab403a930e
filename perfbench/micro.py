"""Micro-timings for the traced run: the public Lyapunov solve beside SciPy's
Bartels-Stewart solver for n = 2..10, and the public flow right-hand side at
gains recorded on the study's trajectories."""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

import refcheck
from gainflow import flow, lqr_core

LYAPUNOV_SIZES = (2, 4, 6, 8, 10)


def per_call_us(call, budget_s: float, batches: int = 7) -> float:
    """Median over `batches` batches of the mean time of one call, in us."""
    start = time.perf_counter()
    call()
    reps = max(1, int(budget_s / batches / max(time.perf_counter() - start, 1e-7)))
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(reps):
            call()
        times.append((time.perf_counter() - start) / reps)
    return 1e6 * statistics.median(times)


def lyapunov_table(rng: np.random.Generator, budget_s: float = 0.3):
    """{n: {solver: us}} for A X + X A^T + L = 0 with a random Hurwitz A and
    positive definite L, plus any disagreement found. The solvers are the
    public `lqr_core.lyapunov_solve`, the flow's unchecked Kronecker path
    `lqr_core._lyap_fast` while it exists, and SciPy's Bartels-Stewart."""
    kron_path = getattr(lqr_core, "_lyap_fast", None)
    table, problems = {}, []
    for n in LYAPUNOV_SIZES:
        a = rng.standard_normal((n, n))
        a -= (max(0.0, np.linalg.eigvals(a).real.max()) + 1.0) * np.eye(n)
        g = rng.standard_normal((n, n))
        load = g @ g.T + np.eye(n)
        if not refcheck.close(lqr_core.lyapunov_solve(a, load),
                              scipy.linalg.solve_continuous_lyapunov(a, -load)):
            problems.append(f"lyapunov_solve n={n} differs from SciPy's")
        table[n] = {
            "lyapunov_solve": per_call_us(lambda: lqr_core.lyapunov_solve(a, load), budget_s),
            "scipy": per_call_us(lambda: scipy.linalg.solve_continuous_lyapunov(a, -load),
                                 budget_s),
        }
        if kron_path is not None:
            table[n]["_lyap_fast"] = per_call_us(lambda: kron_path(a, load), budget_s)
    return table, problems


def flow_rhs_us(points: dict, budget_s: float = 0.5) -> dict[str, float]:
    """us per `flow.flow_rhs` call, per kind, over the given (system, gain)
    points."""
    out = {}
    for kind, pairs in points.items():
        config = flow.FlowConfig(kind=kind)

        def sweep():
            for sys_, k in pairs:
                flow.flow_rhs(sys_, k, config)

        out[kind] = per_call_us(sweep, budget_s) / len(pairs)
    return out
