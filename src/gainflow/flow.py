"""Adaptive integration of gain-matrix gradient flows.

The right-hand side is -beta * grad e_K (Bellman error), -grad f_K (cost),
or -(grad f_K) Y^{-gamma} (natural), integrated with the Dormand-Prince 5(4)
embedded pair under standard proportional step control. On top of the error
test sits a stability guard: a proposed step whose endpoint has spectral
abscissa >= -1e-9 is rejected and retried at half the step, and any
breakdown while evaluating a stage (singular value equation, non-finite
values) is treated the same way. Forty consecutive rejections end the run
with StepFailure.

Termination is on the gradient norm, not on distance to the optimal gain:
the optimum is an oracle-only quantity the integrator never sees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bellman, cost_flow, lqr_core, matlin
from .errors import DegenerateStart, NotPD, NotStabilizing, SingularMatrix
from .lqr_core import SystemInstance
from .matlin import TOL

FLOW_KINDS = ("bellman", "lqr", "natural")

CONVERGED_GRAD_TOL = "ConvergedGradTol"
REACHED_T_MAX = "ReachedTMax"
STEP_FAILURE = "StepFailure"

# Dormand-Prince 5(4) tableau; the last stage sits at the 5th-order endpoint,
# so its evaluation is reused as the first stage of the next step (FSAL).
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_E = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))

_MAX_CONSECUTIVE_REJECTS = 40
_STEP_SAFETY = 0.9
_STEP_SHRINK = 0.2
_STEP_GROW = 5.0


@dataclass(frozen=True)
class FlowConfig:
    """Which flow to integrate and how tightly."""

    kind: str
    beta: float = 1.0
    gamma: float = 1.0
    rtol: float = 1e-8
    atol: float = 1e-10
    t_max: float = 1e4
    grad_tol: float = 1e-8
    max_steps: int = 1_000_000
    record_stride: int = 1

    def __post_init__(self):
        if self.kind not in FLOW_KINDS:
            raise ValueError(f"kind must be one of {FLOW_KINDS}, got {self.kind!r}")
        for name in ("beta", "gamma", "rtol", "atol", "t_max", "grad_tol"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_steps < 1 or self.record_stride < 1:
            raise ValueError("max_steps and record_stride must be >= 1")


@dataclass(frozen=True)
class FlowSample:
    t: float
    k: np.ndarray
    objective: float
    grad_norm: float
    abscissa: float


@dataclass(frozen=True)
class FlowTrajectory:
    samples: list[FlowSample]
    status: str
    k_final: np.ndarray


class _StepReject(Exception):
    """Internal: non-finite values inside a proposed step."""


def _point_eval(sys: SystemInstance, k: np.ndarray, config: FlowConfig):
    """(rhs, grad_norm, objective) at one gain, through the same value,
    gradient and objective helpers as the public functions.

    Skips the stabilizing-set test; callers relying on that precondition
    must make it themselves. Singular value equations raise SingularMatrix.
    """
    a_k = sys.a - sys.b @ k
    p = matlin.sym_part(lqr_core._value_equation(sys, k, a_k)[0])
    if config.kind == "bellman":
        grad = bellman._gradient_pieces(sys, k, a_k, p)[0]
        objective = float(bellman._error_value(sys, p))
        rhs = -config.beta * grad
    else:
        y = cost_flow._gramian(a_k, np.eye(sys.n))
        grad = cost_flow._cost_gradient(sys, k, p, y)
        if config.kind == "natural":
            grad = cost_flow._precondition(grad, y, config.gamma)
        objective = float(np.trace(p))
        rhs = -grad
    if not np.all(np.isfinite(rhs)):
        raise _StepReject("non-finite flow direction")
    return rhs, float(np.linalg.norm(grad)), objective


def flow_rhs(sys: SystemInstance, k, config: FlowConfig) -> np.ndarray:
    """Flow direction at a stabilizing gain."""
    k = lqr_core.as_gain(sys, k)
    if not lqr_core.in_stabilizing_set(sys, k):
        raise NotStabilizing("flow is only defined on the stabilizing set")
    rhs, _, _ = _point_eval(sys, k, config)
    return rhs


def _initial_step(k0: np.ndarray, rhs0: np.ndarray, config: FlowConfig) -> float:
    scale = 0.01 * (1.0 + float(np.linalg.norm(k0)))
    speed = 1e-12 + float(np.linalg.norm(rhs0))
    return float(min(1.0, scale / speed, config.t_max))


def integrate(sys: SystemInstance, k0, config: FlowConfig) -> FlowTrajectory:
    """Integrate the configured flow from a stabilizing initial gain.

    Returns a trajectory whose recorded samples all lie strictly inside the
    stabilizing set. Status is ConvergedGradTol when the gradient norm drops
    below grad_tol, ReachedTMax at the horizon, and StepFailure after forty
    consecutive rejections (or an exhausted step budget).
    """
    k = lqr_core.as_gain(sys, k0).copy()
    abscissa = matlin.spectrum(sys.a - sys.b @ k).abscissa
    if abscissa >= -TOL.stability_margin:
        raise NotStabilizing("initial gain is not stabilizing")
    rhs, grad_norm, objective = _point_eval(sys, k, config)
    samples = [FlowSample(0.0, k.copy(), objective, grad_norm, abscissa)]
    if grad_norm <= config.grad_tol:
        return FlowTrajectory(samples, CONVERGED_GRAD_TOL, k)
    last_sample = samples[0]
    f_first = rhs
    h = _initial_step(k, rhs, config)
    t = 0.0
    rejects = 0
    accepted = 0
    status = STEP_FAILURE  # overwritten unless max_steps runs out

    for _ in range(config.max_steps):
        remaining = config.t_max - t
        if remaining <= 1e-12 * config.t_max:
            status = REACHED_T_MAX
            break
        h = min(h, remaining)

        guard_reject = False
        try:
            stages = [f_first]
            for row in _A[1:]:
                point = k + h * sum(c * s for c, s in zip(row, stages))
                if not np.all(np.isfinite(point)):
                    raise _StepReject("non-finite stage point")
                stages.append(_point_eval(sys, point, config)[0])
            k_new = k + h * sum(c * s for c, s in zip(_B5, stages) if c)
            if not np.all(np.isfinite(k_new)):
                raise _StepReject("non-finite step endpoint")
            abscissa_new = matlin.spectrum(sys.a - sys.b @ k_new).abscissa
            if abscissa_new >= -TOL.stability_margin:
                guard_reject = True
            else:
                rhs_new, grad_norm, objective = _point_eval(sys, k_new, config)
                stages.append(rhs_new)
        except (_StepReject, SingularMatrix, NotPD, np.linalg.LinAlgError):
            guard_reject = True

        if guard_reject:
            h *= 0.5
            rejects += 1
            if rejects >= _MAX_CONSECUTIVE_REJECTS:
                break
            continue

        err = float(np.linalg.norm(h * sum(c * s for c, s in zip(_E, stages) if c)))
        tol = config.atol + config.rtol * max(
            float(np.linalg.norm(k)), float(np.linalg.norm(k_new))
        )
        if not np.isfinite(err) or err > tol:
            factor = _STEP_SHRINK
            if np.isfinite(err) and err > 0.0:
                factor = max(_STEP_SHRINK, _STEP_SAFETY * (tol / err) ** 0.2)
            h *= factor
            rejects += 1
            if rejects >= _MAX_CONSECUTIVE_REJECTS:
                break
            continue

        t += h
        k = k_new
        f_first = rhs_new
        rejects = 0
        accepted += 1
        last_sample = FlowSample(t, k_new, objective, grad_norm, abscissa_new)
        if accepted % config.record_stride == 0:
            samples.append(last_sample)
        if grad_norm <= config.grad_tol:
            status = CONVERGED_GRAD_TOL
            break
        factor = _STEP_GROW
        if err > 0.0:
            factor = min(_STEP_GROW, max(_STEP_SHRINK, _STEP_SAFETY * (tol / err) ** 0.2))
        h *= factor

    if samples[-1].t != last_sample.t:
        samples.append(last_sample)
    return FlowTrajectory(samples=samples, status=status, k_final=k)


def normalized_residuals(traj: FlowTrajectory, k_star) -> list[tuple[float, float]]:
    """(t, ||K(t) - K*|| / ||K(0) - K*||) for every recorded sample."""
    k_star = matlin.as_matrix(k_star, "k_star")
    d0 = float(np.linalg.norm(traj.samples[0].k - k_star))
    if d0 == 0.0:
        raise DegenerateStart("trajectory starts at the reference gain")
    return [(s.t, float(np.linalg.norm(s.k - k_star)) / d0) for s in traj.samples]
