"""LQR problem instances, stability predicates, the value-matrix Lyapunov
solver, and a policy-iteration gain oracle.

The continuous-time problem is defined by the quadruple (A, B, Q, R). For a
feedback gain K the closed loop is A_K = A - B K and the value matrix P_K
solves

    A_K^T P + P A_K + Q + K^T R K = 0,

which the evaluation kernel solves through the n^2 x n^2 Kronecker system

    vec(P) = -(I (x) A_K^T + A_K^T (x) I)^{-1} vec(Q + K^T R K),

deliberately keeping the vectorized construction rather than a
Bartels-Stewart factorization: all systems here are desk scale (n <= 10).
The functions here check their inputs and the domain, then call it.

gain_domain, lyapunov_solve and care_residual also take stacks over a
leading axis, gains of shape (B, m, n); each slice gets the same arithmetic
as a lone gain, so stacked and one-at-a-time results agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernel, matlin
from .errors import MaxIterExceeded, NotInSigmaSet, NotStabilizing, SingularMatrix
from .matlin import TOL


@dataclass(frozen=True, eq=False)
class SystemInstance:
    """One LQR problem: dynamics (a, b) and weights (q, r).

    Construction validates shapes, finiteness, symmetry and definiteness of
    the weights, and that b and q are nonzero. Stabilizability and
    detectability are deliberately not enforced here; run check_assumptions.
    """

    a: np.ndarray
    b: np.ndarray
    q: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        a = matlin.as_matrix(self.a, "a")
        b = matlin.as_matrix(self.b, "b")
        q = matlin.as_matrix(self.q, "q")
        r = matlin.as_matrix(self.r, "r")
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError(f"a must be square, got {a.shape}")
        if n == 0:
            raise ValueError("state dimension must be positive")
        if b.shape[0] != n or b.shape[1] == 0:
            raise ValueError(f"b must be {n} x m with m >= 1, got {b.shape}")
        m = b.shape[1]
        if q.shape != (n, n):
            raise ValueError(f"q must be {n} x {n}, got {q.shape}")
        if r.shape != (m, m):
            raise ValueError(f"r must be {m} x {m}, got {r.shape}")
        if not np.any(b):
            raise ValueError("b must be nonzero")
        if not np.any(q):
            raise ValueError("q must be nonzero")
        if matlin.min_eig_sym(q, "q") < -TOL.psd:
            raise ValueError("q must be positive semidefinite")
        if matlin.min_eig_sym(r, "r") <= 0.0:
            raise ValueError("r must be positive definite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]


@dataclass(frozen=True)
class ValueSolution:
    """Value matrix with solver diagnostics.

    p is exactly symmetric (symmetrized after the solve); symmetry_defect is
    the Frobenius asymmetry of the raw solve before symmetrization and
    lyap_residual the Frobenius norm of the plugged-back equation.
    """

    p: np.ndarray
    lyap_residual: float
    symmetry_defect: float


@dataclass(frozen=True)
class AssumptionReport:
    stabilizable: bool
    detectable: bool


@dataclass(frozen=True)
class KleinmanResult:
    p_star: np.ndarray
    k_star: np.ndarray
    iterations: int
    residual_history: list[float] = field(default_factory=list)

    @property
    def residual(self) -> float:
        return self.residual_history[-1]


def demo_system() -> SystemInstance:
    """Two-state, single-input instance with a known closed-form error
    surface; the reference example for the grid and closed-form tests."""
    return SystemInstance(
        a=[[-2.0, 1.0], [0.0, -1.0]],
        b=[[1.0], [1.0]],
        q=np.eye(2),
        r=[[2.0]],
    )


def as_gain(sys: SystemInstance, k) -> np.ndarray:
    """Validate an m x n feedback gain for this instance."""
    g = _as_gains(sys, k)
    if g.ndim != 2:
        raise ValueError(f"gain must be {sys.m} x {sys.n}, got {g.shape}")
    return g


def _as_gains(sys: SystemInstance, k) -> np.ndarray:
    """Validate one m x n gain or a (B, m, n) stack of gains."""
    g = matlin.as_stack(k, "k")
    if g.shape[-2:] != (sys.m, sys.n):
        raise ValueError(f"gain must be {sys.m} x {sys.n}, got {g.shape}")
    return g


def _sqrt_psd(q: np.ndarray) -> np.ndarray:
    # symmetric square root; negative round-off eigenvalues clipped at 0
    w, v = np.linalg.eigh(matlin._sym(q))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def _rank(m: np.ndarray) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > TOL.rank_rel * s[0]))


def check_assumptions(sys: SystemInstance) -> AssumptionReport:
    """PBH rank tests for stabilizability of (A, B) and detectability of
    (A, sqrt(Q)), evaluated at every eigenvalue with Re >= -1e-9."""
    eigs = matlin.spectrum(sys.a).eigenvalues
    sqrt_q = _sqrt_psd(sys.q)
    eye = np.eye(sys.n)
    stabilizable = True
    detectable = True
    for lam in eigs:
        if lam.real < -1e-9:
            continue
        if _rank(np.hstack([lam * eye - sys.a, sys.b])) < sys.n:
            stabilizable = False
        if _rank(np.hstack([lam * eye - sys.a.T, sqrt_q.T])) < sys.n:
            detectable = False
    return AssumptionReport(stabilizable=stabilizable, detectable=detectable)


def gain_domain(sys: SystemInstance, k):
    """(abscissa, in stabilizing set, in sigma set) of gain k, all read from
    one closed-loop spectrum; for a (B, m, n) stack, three (B,) arrays from
    one batched spectrum.

    A stabilizing gain is always in the sigma set: every eigenvalue has real
    part below -1e-9, so |lambda_i + lambda_j| >= 2e-9 > sigma_margin.
    """
    k = _as_gains(sys, k)
    eigs = matlin.spectrum(sys.a - sys.b @ k)
    sums = np.abs(eigs.eigenvalues[..., :, None] + eigs.eigenvalues[..., None, :])
    in_sigma = sums.min(axis=(-2, -1)) > TOL.sigma_margin
    if k.ndim == 2:
        in_sigma = bool(in_sigma)
    return eigs.abscissa, eigs.abscissa < -TOL.stability_margin, in_sigma


def in_stabilizing_set(sys: SystemInstance, k) -> bool:
    """True when A - B K is Hurwitz with margin: abscissa < -1e-9."""
    return gain_domain(sys, k)[1]


def in_sigma_set(sys: SystemInstance, k) -> bool:
    """True when no two closed-loop eigenvalues sum to zero (within 1e-9),
    i.e. the spectrum does not meet its negation and the value equation is
    uniquely solvable."""
    return gain_domain(sys, k)[2]


def lyapunov_solve(a, load):
    """Solve A X + X A^T + L = 0 through the Kronecker system
    (I (x) A + A (x) I) vec(X) = -vec(L), with the pivot-checked LU solve
    (SingularMatrix when A and -A share an eigenvalue, numerically).

    For (B, n, n) stacks of A and L, returns (X, singular) as
    matlin.solve_linear does: flagged slices of X are NaN.
    """
    a = matlin.as_stack(a, "a")
    load = matlin.as_stack(load, "load")
    if a.shape != load.shape or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"a {a.shape} and load {load.shape} must be square and of one shape")
    if a.shape[-1] == 0:
        raise SingularMatrix("empty matrix")
    if a.ndim == 3:
        return kernel.lyapunov(a, load)
    x, singular = kernel.lyapunov(a[None], load[None])
    if singular[0]:
        raise SingularMatrix("A and -A share an eigenvalue, numerically")
    return x[0]


def solve_value_lyapunov(sys: SystemInstance, k) -> ValueSolution:
    """Value matrix P for gain k, with residual and symmetry diagnostics.

    Requires k in the sigma set (unique solvability); raises NotInSigmaSet
    otherwise. A SingularMatrix from the backing solve signals the same
    condition numerically.
    """
    k = as_gain(sys, k)
    if not in_sigma_set(sys, k):
        raise NotInSigmaSet("closed-loop spectrum meets its negation")
    return _value_solution(kernel.single(kernel.values(sys, k[None])))


def _value_solution(ev: kernel.Evaluation) -> ValueSolution:
    """The value matrix of a one-gain kernel evaluation, with the residual
    and symmetry diagnostics computed from the evaluation's arrays."""
    a_k, raw, p = ev.a_k[0], ev.raw[0], ev.p[0]
    residual = float(np.linalg.norm(a_k.T @ p + p @ a_k + ev.load[0]))
    return ValueSolution(p=p, lyap_residual=residual,
                         symmetry_defect=float(np.linalg.norm(raw - raw.T)))


def care_residual(sys: SystemInstance, p) -> np.ndarray:
    """A^T P + P A - P B R^{-1} B^T P + Q, exactly as written, for one P or
    a (B, n, n) stack."""
    p = matlin.as_stack(p, "p")
    bt_p = sys.b.T @ p
    return kernel.care_residual(sys, p, bt_p, matlin.solve_linear(sys.r, bt_p))


def kleinman(sys: SystemInstance, k0, tol: float = 1e-10, max_iter: int = 50) -> KleinmanResult:
    """Policy iteration for the optimal gain: alternate the value-matrix
    Lyapunov solve with the update K <- R^{-1} B^T P.

    Terminates when the Riccati residual or the gain update drops below tol.
    Requires a stabilizing k0; every iterate stays stabilizing (checked).
    """
    k = as_gain(sys, k0)
    if not in_stabilizing_set(sys, k):
        raise NotStabilizing("initial gain is not stabilizing")
    history: list[float] = []
    for i in range(1, max_iter + 1):
        p = solve_value_lyapunov(sys, k).p
        bt_p = sys.b.T @ p
        k_next = matlin.solve_linear(sys.r, bt_p)  # R^{-1} B^T P, in the residual too
        history.append(float(np.linalg.norm(kernel.care_residual(sys, p, bt_p, k_next))))
        step = float(np.linalg.norm(k_next - k))
        if history[-1] <= tol or step <= tol:
            return KleinmanResult(p_star=p, k_star=k_next, iterations=i, residual_history=history)
        if not in_stabilizing_set(sys, k_next):
            raise NotStabilizing(f"iterate {i} left the stabilizing set")
        k = k_next
    raise MaxIterExceeded(f"no convergence in {max_iter} iterations (residual {history[-1]:.3e})")
