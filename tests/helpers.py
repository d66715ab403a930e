"""Shared test utilities: random admissible systems, stabilizing gains,
finite-difference gradients used as the independent oracle, the demo
system's closed-form error and cost surfaces, and the seed-0 study
reference.

Regenerate the study reference (tests/data/study_seed0.json) from the repo
root with

    PYTHONPATH=src python tests/helpers.py
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from gainflow import bench, lqr_core
from gainflow.lqr_core import SystemInstance

STUDY_REFERENCE = Path(__file__).parent / "data" / "study_seed0.json"

# Tolerances of the study check (study_mismatches). Statuses and converged
# flags must match exactly. The median and quartile curves may differ by
# this factor in log space; values below the floor, the oracle's own
# accuracy, count as the floor. t_hit, the time of the first accepted step
# with rho <= 1e-6, may move by this much flow time: it falls on a step
# boundary, and the steps there are 0.1 to 1.5 long.
STUDY_CURVE_FACTOR = 2.0
STUDY_CURVE_FLOOR = 1e-9
STUDY_T_HIT_TOL = 0.5


def random_spd(rng, n, scale=1.0):
    """Random symmetric positive definite matrix with eigenvalues in
    roughly [0.3, 1.3] * scale."""
    w = scale * (0.3 + rng.random(n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * w) @ q.T


def random_admissible_system(rng, n, m, identity_weights=True):
    """Admissible instance; optionally with random SPD weights so the
    R != I code paths get exercised."""
    for _ in range(1000):
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, m))
        if not np.any(b):
            continue
        q = np.eye(n) if identity_weights else random_spd(rng, n)
        r = np.eye(m) if identity_weights else random_spd(rng, m)
        sys_ = SystemInstance(a=a, b=b, q=q, r=r)
        rep = lqr_core.check_assumptions(sys_)
        if rep.stabilizable and rep.detectable:
            return sys_
    raise AssertionError("could not draw an admissible system")


def stabilizing_pair(rng, n, m, identity_weights=True):
    """(system, stabilizing gain); redraws the system when no
    standard-normal gain stabilizes it."""
    for _ in range(100):
        sys_ = random_admissible_system(rng, n, m, identity_weights)
        for _ in range(2000):
            k = rng.standard_normal((m, n))
            if lqr_core.in_stabilizing_set(sys_, k):
                return sys_, k
    raise AssertionError("could not draw a stabilizing pair")


def lyapunov_stabilizing_gain(sys_):
    """Deterministic stabilizing gain via the classical shifted-Lyapunov
    construction: solve (A + bI) Z + Z (A + bI)^T = 2 B B^T with b just past
    the spectral abscissa of A, then K = B^T Z^{-1}. Works whenever (A, B)
    is controllable, which holds almost surely for the random draws here;
    near-uncontrollable draws yield huge gains, which callers should treat
    as a reason to redraw the system."""
    from gainflow import matlin

    shift = max(matlin.spectrum(sys_.a).abscissa, 0.0) + 1.0
    z = lqr_core.lyapunov_solve(sys_.a + shift * np.eye(sys_.n),
                                -2.0 * sys_.b @ sys_.b.T)
    k = np.linalg.solve(z, sys_.b).T
    assert lqr_core.in_stabilizing_set(sys_, k)
    return k


def sigma_set_gain(rng, sys_, box=3.0):
    """Gain in the effective domain (sigma set), stable or not."""
    for _ in range(1000):
        k = box * rng.standard_normal((sys_.m, sys_.n))
        if lqr_core.in_sigma_set(sys_, k):
            return k
    raise AssertionError("could not draw a sigma-set gain")


def fd_gradient(func, k, h_scale=1e-6):
    """Central finite differences with per-entry step h = h_scale*(1+|k_ij|)."""
    k = np.asarray(k, dtype=float)
    grad = np.zeros_like(k)
    for i in range(k.shape[0]):
        for j in range(k.shape[1]):
            h = h_scale * (1.0 + abs(k[i, j]))
            kp = k.copy()
            km = k.copy()
            kp[i, j] += h
            km[i, j] -= h
            grad[i, j] = (func(kp) - func(km)) / (2.0 * h)
    return grad


def rel_err(got, want):
    want = np.asarray(want, dtype=float)
    denom = np.linalg.norm(want)
    return np.linalg.norm(np.asarray(got, dtype=float) - want) / (denom if denom else 1.0)


def bellman_error_closed_form_2d(k1: float, k2: float) -> float:
    """Bellman error of the demo system as the explicit rational function of
    the two gain entries (valid only for demo_system()).

    Raises ZeroDivisionError exactly on the denominator roots, which contain
    the stability boundary k2 = -k1 - 1.
    """
    num = (
        k1**6 + 4 * k1**5 * k2 + 12 * k1**5 + 7 * k1**4 * k2**2 + 34 * k1**4 * k2
        + 49 * k1**4
        + 8 * k1**3 * k2**3 + 40 * k1**3 * k2**2 + 84 * k1**3 * k2 + 72 * k1**3
        + 7 * k1**2 * k2**4 + 36 * k1**2 * k2**3 + 58 * k1**2 * k2**2
        + 32 * k1**2 * k2 + 29 * k1**2
        + 4 * k1 * k2**5 + 28 * k1 * k2**4 + 60 * k1 * k2**3 + 16 * k1 * k2**2
        - 52 * k1 * k2 - 8 * k1
        + k2**6 + 10 * k2**5 + 37 * k2**4 + 56 * k2**3 + 17 * k2**2 - 22 * k2 + 5
    )
    den = 2.0 * (k1**2 + 2 * k1 * k2 + 4 * k1 + k2**2 + 4 * k2 + 3) ** 2
    return num / den


def lqr_cost_closed_form_2d(k1: float, k2: float) -> float:
    """Cost surface of the demo system as an explicit rational function of
    the two gain entries (valid only for demo_system()).

    Shares its denominator root locus with the error surface, so the
    stability boundary k2 = -k1 - 1 raises ZeroDivisionError here too. The
    value is exactly twice tr(P_K) under the identity covariance surrogate.
    """
    num = 2.0 * (
        2 * k1**3 + 2 * k1**2 * k2 + 5 * k1**2 + 2 * k1 * k2**2
        + 4 * k1 * k2 + 4 * k1 + 2 * k2**3 + 7 * k2**2 + 2 * k2 + 5
    )
    den = 2.0 * (k1**2 + 2 * k1 * k2 + 4 * k1 + k2**2 + 4 * k2 + 3)
    return num / den


def study_reference(result) -> dict:
    """Compact record of a study run with its trajectories kept: per flow,
    each instance's status, converged flag, t_hit, rho at the last grid
    point and FlowStats (accepted, error rejects, guard rejects, rhs evals),
    and the summary's median and quartile curves and converged count."""
    records, summary = result.records, result.summary
    flows = {}
    for kind in result.config.flows:
        trajectories = [r.trajectories.get(kind) for r in records]
        flows[kind] = {
            "status": [r.statuses[kind] for r in records],
            "converged": [r.converged[kind] for r in records],
            "t_hit": [r.t_hit[kind] for r in records],
            "rho_last": [float(r.curves[kind][-1]) for r in records],
            "stats": [None if t is None else list(dataclasses.astuple(t.stats))
                      for t in trajectories],
            "median": summary.median[kind].tolist(),
            "q1": summary.q1[kind].tolist(),
            "q3": summary.q3[kind].tolist(),
            "converged_count": summary.converged_counts[kind],
        }
    return {"num_instances": result.config.num_instances, "seed": result.config.seed,
            "flows": flows}


def study_mismatches(reference: dict, fresh: dict) -> list[str]:
    """Where the fresh study record departs from the reference beyond the
    study tolerances; empty when it passes."""
    for key in ("num_instances", "seed"):
        if fresh[key] != reference[key]:
            return [f"{key} {fresh[key]} (reference {reference[key]})"]
    if list(fresh["flows"]) != list(reference["flows"]):
        return [f"flows {list(fresh['flows'])} (reference {list(reference['flows'])})"]
    problems = []
    for kind, ref in reference["flows"].items():
        new = fresh["flows"][kind]
        for key in ("status", "converged"):
            problems += [f"{kind} instance {i}: {key} {b} (reference {a})"
                         for i, (a, b) in enumerate(zip(ref[key], new[key])) if a != b]
        for i, (a, b) in enumerate(zip(ref["t_hit"], new["t_hit"])):
            if (a is None) != (b is None) or (a is not None and abs(b - a) > STUDY_T_HIT_TOL):
                problems.append(f"{kind} instance {i}: t_hit {b} (reference {a})")
        for curve in ("median", "q1", "q3"):
            a, b = (np.log(np.fmax(np.array(c[curve], dtype=float), STUDY_CURVE_FLOOR))
                    for c in (ref, new))
            if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
                problems.append(f"{kind} {curve}: grid or NaN cells differ")
                continue
            worst = float(np.nanmax(np.abs(b - a), initial=0.0))
            if worst > math.log(STUDY_CURVE_FACTOR):
                problems.append(f"{kind} {curve}: off by a factor {math.exp(worst):.3g} "
                                f"(allowed {STUDY_CURVE_FACTOR})")
    return problems


def write_study_reference(path=STUDY_REFERENCE) -> None:
    """Run the seed-0 study of the acceptance suite and write its record."""
    result = bench.run_benchmark(bench.BenchConfig(num_instances=200, seed=0),
                                 keep_trajectories=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(study_reference(result), indent=1) + "\n")


if __name__ == "__main__":
    write_study_reference()
