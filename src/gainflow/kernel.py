"""The evaluation kernel: value, gradient and flow direction of the three
objectives for a (B, m, n) stack of gains.

One evaluation has two steps. The value step solves the value equation

    A_K^T P + P A_K + Q + K^T R K = 0

for P_K. For the Bellman error it also gives R^{-1} B^T P_K and, when the
objective is asked for, the CARE residual M_K and e_K = -tr(M_K). For the
cost objectives with a Gramian load S, it solves the Gramian equation

    A_K Y + Y A_K^T + S = 0

in the same stacked call, and the objective is f_K = tr(P_K S). The
direction step solves A_K X + X A_K^T + (A~ + A~^T)/2 = 0 with
A~ = A - B R^{-1} B^T P_K and forms grad e_K = -4 (R K - B^T P_K) X_K, or
forms grad f_K = 2 (R K - B^T P_K) Y_K and, for the natural flow,
preconditions it: (grad f_K) Y_K^{-gamma}.

The system is one SystemInstance, broadcast over the stack, or a Systems
stack with one system per gain. The kernel makes no input checks and no
domain tests; the public functions in lqr_core, bellman, cost_flow and flow
make them, and a one-gain caller is the stack of one. A member whose
evaluation breaks down (a pivot-flagged solve, a Gramian that is not
positive definite, a failed eigenvalue iteration, a non-finite direction)
leaves the stack with its cause, so it never reaches another member's
arithmetic. All arithmetic works slice by slice: a member's results do not
depend on the rest of the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matlin
from .errors import GainflowError, NoConvergence, NonFiniteValue, NotPD, SingularMatrix

# Why the evaluation of one member broke down (0: it did not), and the error
# a one-gain caller gets for it.
SINGULAR, NOT_PD, NON_FINITE, NO_EIGS = 1, 2, 3, 4
_BREAKDOWNS = {
    SINGULAR: (SingularMatrix, "a value, Gramian or preconditioner equation is singular"),
    NOT_PD: (NotPD, "Gramian is not positive definite"),
    NON_FINITE: (NonFiniteValue, "non-finite flow direction"),
    NO_EIGS: (NoConvergence, "eigenvalue iteration failed"),
}

# A Gramian whose smallest eigenvalue is at or below this is not positive
# definite for the natural gradient.
GRAMIAN_PD_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class Systems:
    """(A, B, Q, R) of a population stacked over a leading axis. The kernel
    reads the same attributes as of one SystemInstance, so it applies to
    the stack slice by slice."""

    a: np.ndarray
    b: np.ndarray
    q: np.ndarray
    r: np.ndarray

    @classmethod
    def of(cls, systems) -> Systems:
        return cls(*(np.stack([getattr(s, name) for s in systems]) for name in "abqr"))

    def __getitem__(self, rows) -> Systems:
        return Systems(self.a[rows], self.b[rows], self.q[rows], self.r[rows])


def breakdown(code) -> GainflowError:
    """The error for a breakdown code."""
    error, message = _BREAKDOWNS[int(code)]
    return error(message)


class Evaluation:
    """The arrays of one kernel evaluation of a (B, m, n) stack of gains.

    cause is a (B,) array: 0 where the evaluation went through, the
    breakdown code elsewhere. rows lists the members still in the stack,
    and every other array holds just those, in order:
    - always: k, a_k (A - B K), load (Q + K^T R K), raw (the value
      equation's solution before symmetrization) and p;
    - Bellman value step: bt_p (B^T P), gain_p (R^{-1} B^T P) and, with
      the objective, residual (M_K);
    - cost value step with a Gramian load: y;
    - value, the objective, or None when it was not asked for;
    - Bellman direction step: a_tilde and x;
    - cost direction step: w_min (the Gramian's smallest eigenvalue, for
      the natural flow);
    - every direction step: grad (the gradient, or the natural direction;
      its norm is the flow's stopping test) and rhs (the flow direction).
    sys is the Systems stack of those members, or the one SystemInstance.
    """

    def __init__(self, sys, k: np.ndarray):
        self.cause = np.zeros(len(k), dtype=np.int8)
        self.rows = np.arange(len(k))
        self.sys, self.k = sys, k
        self.value = None

    def drop(self, bad: np.ndarray, code: int) -> None:
        """The members flagged in bad leave the stack, with their cause."""
        if not bad.any():
            return
        self.cause[self.rows[bad]] = code
        keep = ~bad
        for name, x in list(vars(self).items()):
            if name != "cause" and isinstance(x, (np.ndarray, Systems)):
                setattr(self, name, x[keep])


def single(ev: Evaluation) -> Evaluation:
    """The evaluation of a stack of one gain; raises the error that stopped
    it."""
    if ev.cause[0]:
        raise breakdown(ev.cause[0])
    return ev


def lyapunov(a: np.ndarray, load: np.ndarray):
    """Solve A X + X A^T + L = 0 for (B, n, n) stacks of A and L through the
    Kronecker system (I (x) A + A (x) I) vec(X) = -vec(L): (X, singular) as
    matlin._solve_slices gives them, NaN in flagged slices."""
    n = a.shape[-1]
    eye = np.eye(n)
    # entry (i*n + p, j*n + q) is eye[i, j] a[p, q] + a[i, j] eye[p, q]
    coeff = (eye[:, None, :, None] * a[..., None, :, None, :]
             + a[..., :, None, :, None] * eye[None, :, None, :])
    coeff = coeff.reshape(a.shape[:-2] + (n * n, n * n))
    # vec stacks columns: vec(L) is the row-major ravel of L^T
    rhs = -load.swapaxes(-1, -2).reshape(load.shape[:-2] + (n * n,))
    x, singular = matlin._solve_slices(coeff, rhs)
    return x.reshape(x.shape[:1] + (n, n)).swapaxes(-1, -2), singular


def care_residual(sys, p: np.ndarray, bt_p: np.ndarray, gain_p: np.ndarray) -> np.ndarray:
    """A^T P + P A - P B R^{-1} B^T P + Q, exactly as written, from B^T P and
    R^{-1} B^T P already at hand."""
    return (sys.a.swapaxes(-1, -2) @ p + p @ sys.a
            - bt_p.swapaxes(-1, -2) @ gain_p + sys.q)


def values(sys, k: np.ndarray, kind: str = "lqr", objective: bool = False,
           s=None) -> Evaluation:
    """The value step at a (B, m, n) stack of gains.

    Solves P for every kind. For kind "bellman" it also gives
    R^{-1} B^T P and, with objective, the CARE residual and e_K. For the
    cost kinds ("lqr", "natural"), a Gramian load s adds Y to the same
    stacked solve; the objective is f_K = tr(P S), with S = I when s is
    None.
    """
    ev = Evaluation(sys, k)
    ev.a_k = sys.a - sys.b @ k
    ev.load = sys.q + k.swapaxes(-1, -2) @ sys.r @ k
    a_t = ev.a_k.swapaxes(-1, -2)
    if kind != "bellman" and s is not None:
        # the Gramian equation A_K Y + Y A_K^T + S = 0 joins the value
        # equation's stacked solve
        both, singular = lyapunov(np.concatenate([a_t, ev.a_k]),
                                  np.concatenate([ev.load, np.broadcast_to(s, ev.load.shape)]))
        ev.raw, ev.y = both[:len(k)], both[len(k):]
        singular = singular[:len(k)] | singular[len(k):]
    else:
        ev.raw, singular = lyapunov(a_t, ev.load)
    ev.drop(singular, SINGULAR)
    ev.p = matlin._sym(ev.raw)
    if kind == "bellman":
        ev.bt_p = ev.sys.b.swapaxes(-1, -2) @ ev.p
        # R^{-1} B^T P, solved once for both A~ and the CARE residual
        ev.gain_p, singular = matlin._solve_slices(ev.sys.r, ev.bt_p)
        ev.drop(singular, SINGULAR)
        if objective:
            ev.residual = care_residual(ev.sys, ev.p, ev.bt_p, ev.gain_p)
            ev.value = -np.trace(ev.residual, axis1=-2, axis2=-1)
        return ev
    if s is not None:
        ev.y = matlin._sym(ev.y)
    if objective:
        ev.value = np.trace(ev.p if s is None else ev.p @ s, axis1=-2, axis2=-1)
    return ev


def directions(ev: Evaluation, kind: str, beta: float = 1.0, gamma: float = 1.0) -> Evaluation:
    """The direction step after the value step of the same kind (for the
    cost kinds, one with a Gramian load): the gradient, preconditioned for
    "natural", and the flow direction -beta grad e_K, -grad f_K or
    -(grad f_K) Y^{-gamma}."""
    if kind == "bellman":
        ev.a_tilde = ev.sys.a - ev.sys.b @ ev.gain_p
        ev.x, singular = lyapunov(ev.a_k, matlin._sym(ev.a_tilde))
        ev.drop(singular, SINGULAR)
        ev.x = matlin._sym(ev.x)
        ev.grad = -4.0 * (ev.sys.r @ ev.k - ev.bt_p) @ ev.x
        ev.rhs = -beta * ev.grad
    else:
        ev.grad = 2.0 * (ev.sys.r @ ev.k - ev.sys.b.swapaxes(-1, -2) @ ev.p) @ ev.y
        if kind == "natural":
            _precondition(ev, gamma)
        ev.rhs = -ev.grad
    ev.drop(~np.isfinite(ev.rhs).all(axis=(1, 2)), NON_FINITE)
    return ev


def evaluate(sys, k: np.ndarray, kind: str, beta: float = 1.0, gamma: float = 1.0,
             objective: bool = False, s=None) -> Evaluation:
    """The value step, then the direction step."""
    return directions(values(sys, k, kind, objective, s), kind, beta, gamma)


def _precondition(ev: Evaluation, gamma: float) -> None:
    """grad Y^{-gamma} for each member whose Gramian is positive definite:
    a linear solve for gamma = 1, the symmetric eigendecomposition of Y
    otherwise."""
    ev.drop(~np.isfinite(ev.y).all(axis=(1, 2)), NON_FINITE)
    ev.w_min = _min_eigenvalues(ev.y)
    ev.drop(np.isnan(ev.w_min), NO_EIGS)
    ev.drop(ev.w_min <= GRAMIAN_PD_FLOOR, NOT_PD)
    if gamma == 1.0:
        ev.grad, singular = matlin._solve_slices(ev.y, ev.grad.swapaxes(-1, -2))
        ev.drop(singular, SINGULAR)
        # C order: np.linalg.norm sums a matrix in memory order
        ev.grad = np.ascontiguousarray(ev.grad.swapaxes(-1, -2))
        return
    # one member at a time: a stacked w ** -gamma can round differently
    out, failed = np.full(ev.grad.shape, np.nan), np.zeros(len(ev.grad), dtype=bool)
    for i, (grad, y) in enumerate(zip(ev.grad, ev.y)):
        try:
            w, v = np.linalg.eigh(y)
        except np.linalg.LinAlgError:
            failed[i] = True
            continue
        out[i] = grad @ (v * w ** (-gamma)) @ v.T
    ev.grad = out
    ev.drop(failed, NO_EIGS)


def _min_eigenvalues(y: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetric slice, from one batched call;
    when that call fails, each slice is retried alone, and the slices that
    fail again get NaN."""
    try:
        return np.linalg.eigvalsh(y).min(axis=-1)
    except np.linalg.LinAlgError:
        pass
    w_min = np.full(len(y), np.nan)
    for i, y_i in enumerate(y):
        try:
            w_min[i] = np.linalg.eigvalsh(y_i).min()
        except np.linalg.LinAlgError:
            continue
    return w_min
