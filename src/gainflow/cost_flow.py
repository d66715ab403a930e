"""Baseline objectives: the LQR cost f_K, its gradient, and the natural
gradient, for head-to-head comparison with the Bellman-error flow.

With a state-covariance surrogate S (default identity, removing the
dependence on a particular initial state),

    f_K = tr(P_K S),
    grad f_K = 2 (R K - B^T P_K) Y_K,   A_K Y_K + Y_K A_K^T + S = 0,

and the natural gradient preconditions by a power of the closed-loop
Gramian: (grad f_K) Y_K^{-gamma}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lqr_core, matlin
from .errors import NotPD, NotStabilizing
from .lqr_core import SystemInstance, ValueSolution


@dataclass(frozen=True)
class CostEval:
    f: float
    p: ValueSolution
    y_matrix: np.ndarray
    sigma0: np.ndarray


def _check_sigma0(sys: SystemInstance, sigma0) -> np.ndarray:
    if sigma0 is None:
        return np.eye(sys.n)
    s = matlin.sym_part(matlin.as_matrix(sigma0, "sigma0"))
    if s.shape != (sys.n, sys.n):
        raise ValueError(f"sigma0 must be {sys.n} x {sys.n}, got {s.shape}")
    if matlin.min_eig_sym(s) < -matlin.TOL.psd:
        raise ValueError("sigma0 must be positive semidefinite")
    return s


def lqr_cost(sys: SystemInstance, k, sigma0=None) -> CostEval:
    """Cost of a stabilizing gain and the Gramian it induces."""
    k = lqr_core.as_gain(sys, k)
    if not lqr_core.in_stabilizing_set(sys, k):
        raise NotStabilizing("the cost is finite only for stabilizing gains")
    return _cost_eval(sys, k, _check_sigma0(sys, sigma0))


def _cost_eval(sys: SystemInstance, k: np.ndarray, s: np.ndarray) -> CostEval:
    """lqr_cost of a validated stabilizing gain (so in the sigma set) under
    the checked surrogate s."""
    sol = lqr_core._value_solution(sys, k)
    y = _gramian(lqr_core.closed_loop(sys, k), s)
    return CostEval(f=float(np.trace(sol.p @ s)), p=sol, y_matrix=y, sigma0=s)


def lqr_gradient(sys: SystemInstance, k, sigma0=None) -> np.ndarray:
    """Gradient of the cost: 2 (R K - B^T P_K) Y_K."""
    ce = lqr_cost(sys, k, sigma0)
    return _cost_gradient(sys, lqr_core.as_gain(sys, k), ce.p.p, ce.y_matrix)


def natural_gradient(sys: SystemInstance, k, sigma0=None, gamma: float = 1.0) -> np.ndarray:
    """Gramian-preconditioned gradient (grad f_K) Y^{-gamma}.

    gamma = 1 goes through a linear solve; other powers through the
    symmetric eigendecomposition of Y.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    ce = lqr_cost(sys, k, sigma0)
    grad = _cost_gradient(sys, lqr_core.as_gain(sys, k), ce.p.p, ce.y_matrix)
    return _precondition(grad, ce.y_matrix, gamma)


def _gramian(a_k: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Y_K from A_K Y + Y A_K^T + S = 0, symmetrized."""
    return matlin.sym_part(lqr_core.lyapunov_solve(a_k, s))


def _cost_gradient(sys: SystemInstance, k: np.ndarray, p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """2 (R K - B^T P_K) Y_K, for one gain or slice by slice; sys may be a
    stack of systems."""
    return 2.0 * (sys.r @ k - sys.b.swapaxes(-1, -2) @ p) @ y


# A Gramian whose smallest eigenvalue is at or below this is not positive
# definite for the natural gradient.
_GRAMIAN_PD_FLOOR = 1e-12


def _precondition(grad: np.ndarray, y: np.ndarray, gamma: float) -> np.ndarray:
    w = np.linalg.eigvalsh(y)
    if float(w.min()) <= _GRAMIAN_PD_FLOOR:
        raise NotPD("Gramian is not positive definite")
    if gamma == 1.0:
        return matlin.solve_linear(y, grad.T).T
    return _gramian_power(grad, y, gamma)


def _gramian_power(grad: np.ndarray, y: np.ndarray, gamma: float) -> np.ndarray:
    """grad Y^{-gamma} through the symmetric eigendecomposition of one Y."""
    w, v = np.linalg.eigh(y)
    return grad @ (v * w ** (-gamma)) @ v.T


def lqr_cost_closed_form_2d(k1: float, k2: float) -> float:
    """Cost surface of the demo system as an explicit rational function of
    the two gain entries (test support; valid only for demo_system()).

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
