"""Reference computations made apart from gainflow, with SciPy and NumPy only.

Every check in the benchmark compares the program's output with a value
rebuilt here: the Riccati solution from `scipy.linalg.solve_continuous_are`,
value matrices from `scipy.linalg.solve_continuous_lyapunov` (Bartels-Stewart,
where gainflow uses a Kronecker-vectorised LU solve), and closed-loop
eigenvalues from `numpy.linalg.eigvals` on stacked matrices.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Relative agreement asked of a gain, value matrix or objective value. The
# measured gaps are 1e-14 to 1e-11 on the benchmark's inputs.
REL_TOL = 1e-8
# Criterion 5's slack for the Bellman objective along the bellman flow.
DESCENT_SLACK = 1e-10
# Normalised gain residual a flow must reach (bench.RHO_TARGET).
RHO_TARGET = 1e-6


def care(a, b, q, r):
    """(P*, K*) of the continuous-time algebraic Riccati equation."""
    p = scipy.linalg.solve_continuous_are(a, b, q, r)
    return p, np.linalg.solve(r, b.T @ p)


def care_estimate(a, b, q, r):
    """Stabilizing Riccati solution from the stable eigenvectors of the
    Hamiltonian matrix: a fraction of `care`'s cost, good enough to screen
    draws and to build starting gains, not to check results."""
    n = a.shape[0]
    w, v = np.linalg.eig(np.block([[a, -b @ np.linalg.solve(r, b.T)], [-q, -a.T]]))
    stable = v[:, w.real < 0.0]
    if stable.shape[1] != n:
        raise np.linalg.LinAlgError("Hamiltonian has eigenvalues on the imaginary axis")
    p = np.real(stable[n:] @ np.linalg.inv(stable[:n]))
    return (p + p.T) / 2.0


def value_matrix(a, b, q, r, k):
    """P_K solving A_K^T P + P A_K + Q + K^T R K = 0, A_K = A - B K."""
    a_k = a - b @ k
    return scipy.linalg.solve_continuous_lyapunov(a_k.T, -(q + k.T @ r @ k))


def riccati_trace(a, b, q, r, p) -> float:
    """-tr(A^T P + P A - P B R^{-1} B^T P + Q)."""
    bt_p = b.T @ p
    return -float(np.trace(a.T @ p + p @ a - bt_p.T @ np.linalg.solve(r, bt_p) + q))


def bellman_error(a, b, q, r, k):
    """e_K: the Riccati trace at P = P_K."""
    return riccati_trace(a, b, q, r, value_matrix(a, b, q, r, k))


def lqr_cost(a, b, q, r, k):
    """tr P_K, the cost under the identity covariance surrogate."""
    return float(np.trace(value_matrix(a, b, q, r, k)))


def abscissae(a, b, gains):
    """Largest real part of eig(A - B K) for a stack of gains (S, m, n)."""
    return np.linalg.eigvals(a[None] - b[None] @ np.asarray(gains)).real.max(axis=-1)


def close(got, want, rel: float = REL_TOL) -> bool:
    """Frobenius-relative agreement, absolute below unit scale."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    return bool(np.linalg.norm(got - want) <= rel * max(1.0, float(np.linalg.norm(want))))


def rho(k, k0, k_star) -> float:
    """Normalised gain residual ||K - K*|| / ||K0 - K*||."""
    return float(np.linalg.norm(k - k_star) / np.linalg.norm(k0 - k_star))
