"""Baseline objectives: the LQR cost f_K, its gradient, and the natural
gradient, for head-to-head comparison with the Bellman-error flow.

With a state-covariance surrogate S (default identity, removing the
dependence on a particular initial state),

    f_K = tr(P_K S),
    grad f_K = 2 (R K - B^T P_K) Y_K,   A_K Y_K + Y_K A_K^T + S = 0,

and the natural gradient preconditions by a power of the closed-loop
Gramian: (grad f_K) Y_K^{-gamma}. The functions here check the gain, its
domain and S, then run the evaluation kernel on the gain as a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel, lqr_core, matlin
from .errors import NotStabilizing
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
    s = matlin.as_matrix(sigma0, "sigma0")
    if s.shape != (sys.n, sys.n):
        raise ValueError(f"sigma0 must be {sys.n} x {sys.n}, got {s.shape}")
    s = matlin._sym(s)
    if matlin.min_eig_sym(s) < -matlin.TOL.psd:
        raise ValueError("sigma0 must be positive semidefinite")
    return s


def lqr_cost(sys: SystemInstance, k, sigma0=None) -> CostEval:
    """Cost of a stabilizing gain and the Gramian it induces."""
    ev, s = _evaluate(sys, k, sigma0)
    return CostEval(f=float(ev.value[0]), p=lqr_core._value_solution(ev), y_matrix=ev.y[0],
                    sigma0=s)


def lqr_gradient(sys: SystemInstance, k, sigma0=None) -> np.ndarray:
    """Gradient of the cost: 2 (R K - B^T P_K) Y_K."""
    return _evaluate(sys, k, sigma0, "lqr")[0].grad[0]


def natural_gradient(sys: SystemInstance, k, sigma0=None, gamma: float = 1.0) -> np.ndarray:
    """Gramian-preconditioned gradient (grad f_K) Y^{-gamma}.

    gamma = 1 goes through a linear solve; other powers through the
    symmetric eigendecomposition of Y.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    return _evaluate(sys, k, sigma0, "natural", gamma)[0].grad[0]


def _evaluate(sys: SystemInstance, k, sigma0, kind: str | None = None, gamma: float = 1.0):
    """(kernel evaluation, checked surrogate S) at one stabilizing gain: the
    value step with the objective, or with the direction step of kind."""
    k = lqr_core.as_gain(sys, k)
    if not lqr_core.in_stabilizing_set(sys, k):
        raise NotStabilizing("the cost is finite only for stabilizing gains")
    s = _check_sigma0(sys, sigma0)
    ev = kernel.values(sys, k[None], objective=kind is None, s=s)
    if kind is not None:
        kernel.directions(ev, kind, gamma=gamma)
    return kernel.single(ev), s
