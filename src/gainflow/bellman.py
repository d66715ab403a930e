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
pattern of the value equation. The functions here check the gain and its
domain, then run the evaluation kernel on it as a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel, lqr_core, matlin
from .errors import NotInSigmaSet, NotStabilizing
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
    if not lqr_core.in_sigma_set(sys, k):
        raise NotInSigmaSet("closed-loop spectrum meets its negation")
    ev = kernel.single(kernel.values(sys, k[None], "bellman", objective=True))
    m_direct = matlin._sym(ev.residual[0])
    gap_gain = k - ev.gain_p[0]
    m_factored = -gap_gain.T @ sys.r @ gap_gain
    return BellmanEval(
        e=float(ev.value[0]),
        m_matrix=m_direct,
        p=lqr_core._value_solution(ev),
        k=k,
        form_gap=float(np.linalg.norm(m_direct - m_factored)),
    )


def bellman_gradient(sys: SystemInstance, k) -> BellmanGradient:
    """Closed-form gradient of the Bellman error; defined only on the
    stabilizing set (the integral behind X_K diverges elsewhere)."""
    k = lqr_core.as_gain(sys, k)
    if not lqr_core.in_stabilizing_set(sys, k):
        raise NotStabilizing("gradient is only defined for stabilizing gains")
    ev = kernel.single(kernel.evaluate(sys, k[None], "bellman"))
    return BellmanGradient(grad=ev.grad[0], x_matrix=ev.x[0], a_tilde=ev.a_tilde[0])
