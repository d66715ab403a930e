"""Feedback-parametrized Bellman error and its closed-form gradient.

For a gain K with value matrix P_K, the optimality-residual matrix is

    M_K = A^T P_K + P_K A - P_K B R^{-1} B^T P_K + Q,

and the Bellman error is the scalar e_K = -tr(M_K). M_K also factors as
-(K - R^{-1} B^T P_K)^T R (K - R^{-1} B^T P_K), which is negative
semidefinite wherever P_K exists, so e_K >= 0 with equality exactly at the
optimal gain. The gradient over the stabilizing set is

    grad e_K = -4 (R K - B^T P_K) X_K,
    A_K X_K + X_K A_K^T + (A~ + A~^T)/2 = 0,   A~ = A - B R^{-1} B^T P_K.

Note the auxiliary equation has A_K acting from the left, the transposed
pattern of the value equation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lqr_core, matlin
from .errors import NotStabilizing
from .lqr_core import SystemInstance, ValueSolution


@dataclass(frozen=True)
class BellmanEval:
    """Error value with the matrices behind it.

    form_gap is the Frobenius distance between the direct residual form of
    m_matrix and its factored form, recorded as a cross-check diagnostic.
    """

    e: float
    m_matrix: np.ndarray
    p: ValueSolution
    k: np.ndarray
    form_gap: float


@dataclass(frozen=True)
class BellmanGradient:
    grad: np.ndarray
    x_matrix: np.ndarray
    a_tilde: np.ndarray


def bellman_error(sys: SystemInstance, k) -> BellmanEval:
    """Bellman error of gain k.

    Defined on the whole sigma set, including non-stabilizing gains; raises
    NotInSigmaSet outside it. The returned m_matrix is the explicitly
    symmetrized direct residual form.
    """
    k = lqr_core.as_gain(sys, k)
    return _error_eval(sys, k, lqr_core.solve_value_lyapunov(sys, k))


def _error_eval(sys: SystemInstance, k: np.ndarray, sol: ValueSolution) -> BellmanEval:
    """bellman_error from the value solution of a validated gain."""
    p = sol.p
    m_direct = matlin.sym_part(lqr_core.care_residual(sys, p))
    gap_gain = k - matlin.solve_linear(sys.r, sys.b.T @ p)
    m_factored = -gap_gain.T @ sys.r @ gap_gain
    return BellmanEval(
        e=float(-np.trace(m_direct)),
        m_matrix=m_direct,
        p=sol,
        k=k,
        form_gap=float(np.linalg.norm(m_direct - m_factored)),
    )


def bellman_gradient(sys: SystemInstance, k) -> BellmanGradient:
    """Closed-form gradient of the Bellman error; defined only on the
    stabilizing set (the integral behind X_K diverges elsewhere)."""
    k = lqr_core.as_gain(sys, k)
    if not lqr_core.in_stabilizing_set(sys, k):
        raise NotStabilizing("gradient is only defined for stabilizing gains")
    a_k = lqr_core.closed_loop(sys, k)
    p = lqr_core._value_solution(sys, k).p  # stabilizing, so in the sigma set
    grad, x, a_tilde = _gradient_pieces(sys, k, a_k, p)
    return BellmanGradient(grad=grad, x_matrix=x, a_tilde=a_tilde)


def _error_value(residual: np.ndarray):
    """e_K = -tr(M_K) from the CARE residual M_K, or per slice of a
    (B, n, n) stack; equals bellman_error(...).e bit for bit (the diagonal
    of the symmetric part is the diagonal itself)."""
    return -np.trace(residual, axis1=-2, axis2=-1)


def _gradient_pieces(sys, k, a_k, p):
    """(grad e_K, X_K, A~) from the closed loop a_k and the value matrix p."""
    bt_p = sys.b.T @ p
    a_tilde = _a_tilde(sys, matlin.solve_linear(sys.r, bt_p))
    x = matlin.sym_part(lqr_core.lyapunov_solve(a_k, matlin.sym_part(a_tilde)))
    return _gradient(sys, k, bt_p, x), x, a_tilde


def _a_tilde(sys, gain_p: np.ndarray) -> np.ndarray:
    """A~ = A - B R^{-1} B^T P_K from gain_p = R^{-1} B^T P_K; sys may be a
    stack of systems."""
    return sys.a - sys.b @ gain_p


def _gradient(sys, k: np.ndarray, bt_p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """grad e_K = -4 (R K - B^T P_K) X_K, for one gain or slice by slice."""
    return -4.0 * (sys.r @ k - bt_p) @ x


def bellman_error_closed_form_2d(k1: float, k2: float) -> float:
    """Bellman error of the demo system as the explicit rational function of
    the two gain entries (test support; valid only for demo_system()).

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
