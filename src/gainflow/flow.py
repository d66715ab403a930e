"""Adaptive integration of gain-matrix gradient flows, for one gain or for a
whole population of them.

This module is the integrator. The right-hand side comes from the
evaluation kernel (kernel.py): -beta * grad e_K (Bellman error), -grad f_K
(cost), or -(grad f_K) Y^{-gamma} (natural), with the identity as the
Gramian load. It is integrated with the Dormand-Prince 5(4)
embedded pair (Dormand & Prince, 1980) under standard proportional step
control (Hairer, Norsett & Wanner, Solving ODEs I, II.4). On top of the
error test sits a stability guard: a proposed step whose endpoint has
spectral abscissa >= -1e-9 is rejected and retried at half the step, and
any breakdown while evaluating a stage (singular value, Gramian or
preconditioner equation, a Gramian that is not positive definite,
non-finite values, a failed eigenvalue iteration) is treated the same way.
Forty consecutive rejections end the run with StepFailure.

A population (systems of one shape, each with its own start gain) is
integrated in lock step. Every member keeps its own time, step size, FSAL
stage, consecutive-reject counter, step budget and status; each stage of an
attempt evaluates all members still in it with one stacked call of the
evaluation kernel, and the endpoint guard takes one batched spectrum. A
member whose evaluation breaks down leaves the stack for the rest of that
attempt and is rejected on its own. The stacked arithmetic works slice by
slice, and the step-control scalars (norms, tolerances, step factors) are
computed per member exactly as for one gain, so a member's trajectory is
the same bit for bit whatever else is in the population. One gain is the
population of one.

Termination is on the gradient norm, not on distance to the optimal gain:
the optimum is an oracle-only quantity the integrator never sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel, lqr_core, matlin
from .errors import DegenerateStart, GainflowError, NoConvergence, NotStabilizing
from .kernel import Systems
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

    def __post_init__(self):
        if self.kind not in FLOW_KINDS:
            raise ValueError(f"kind must be one of {FLOW_KINDS}, got {self.kind!r}")
        for name in ("beta", "gamma", "rtol", "atol", "t_max", "grad_tol"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True)
class FlowSample:
    t: float
    k: np.ndarray
    objective: float
    grad_norm: float
    abscissa: float


@dataclass(frozen=True)
class FlowStats:
    """Integrator counters of one trajectory: accepted steps, attempts
    rejected by the error test, attempts rejected by the stability guard or
    a breakdown while evaluating a stage, and right-hand-side evaluations
    (the one at the start included)."""

    accepted: int
    error_rejects: int
    guard_rejects: int
    rhs_evals: int


@dataclass(frozen=True)
class FlowTrajectory:
    samples: list[FlowSample]
    status: str
    k_final: np.ndarray
    stats: FlowStats


def _abscissae(pop: Systems, k: np.ndarray):
    """(abscissa, failed) of each closed loop A - B K, from one batched
    spectrum; a non-finite closed loop, or one whose eigenvalue iteration
    fails on its own, is flagged instead."""
    a_k = pop.a - pop.b @ k
    failed = ~np.isfinite(a_k).all(axis=(1, 2))
    abscissa = np.full(len(k), np.nan)
    rows = np.flatnonzero(~failed)
    try:
        abscissa[rows] = matlin.spectrum(a_k[rows]).abscissa
    except NoConvergence:
        for i in rows:
            try:
                abscissa[i] = matlin.spectrum(a_k[i]).abscissa
            except NoConvergence:
                failed[i] = True
    return abscissa, failed


def _norms(stack: np.ndarray) -> list[float]:
    """Frobenius norm of each slice, as np.linalg.norm computes it for one
    matrix: the dot product of its row-major ravel with itself, then the
    square root. (A reduction over the stack rounds differently.)"""
    rows = np.ascontiguousarray(stack).reshape(len(stack), math.prod(stack.shape[1:]))
    return [math.sqrt(row.dot(row)) for row in rows]


def _evaluate(pop, k: np.ndarray, config: FlowConfig, objective: bool = False):
    """The evaluation kernel under the flow's settings; the cost flows take
    the identity as the Gramian load."""
    return kernel.evaluate(pop, k, config.kind, config.beta, config.gamma, objective,
                           np.eye(k.shape[-1]))


def flow_rhs(sys: SystemInstance, k, config: FlowConfig) -> np.ndarray:
    """Flow direction at a stabilizing gain."""
    k = lqr_core.as_gain(sys, k)
    if not lqr_core.in_stabilizing_set(sys, k):
        raise NotStabilizing("flow is only defined on the stabilizing set")
    return kernel.single(_evaluate(sys, k[None], config)).rhs[0]


def _initial_step(k_norm: float, rhs_norm: float, config: FlowConfig) -> float:
    scale = 0.01 * (1.0 + k_norm)
    speed = 1e-12 + rhs_norm
    return float(min(1.0, scale / speed, config.t_max))


class _Member:
    """Step-control state and counters of one population member."""

    __slots__ = ("t", "h", "rejects", "attempts", "samples",
                 "accepted", "error_rejects", "guard_rejects", "rhs_evals")

    def __init__(self, first: FlowSample):
        self.t = 0.0
        self.h = 0.0
        self.rejects = self.attempts = 0
        self.samples = [first]
        self.accepted = self.error_rejects = self.guard_rejects = 0
        self.rhs_evals = 1

    def reject(self, factor: float, guard: bool) -> bool:
        """Shrink the step; True when this ends the run."""
        self.h *= factor
        self.rejects += 1
        if guard:
            self.guard_rejects += 1
        else:
            self.error_rejects += 1
        return self.rejects >= _MAX_CONSECUTIVE_REJECTS

    def finish(self, status: str) -> FlowTrajectory:
        stats = FlowStats(self.accepted, self.error_rejects, self.guard_rejects, self.rhs_evals)
        return FlowTrajectory(samples=self.samples, status=status, k_final=self.samples[-1].k,
                              stats=stats)


def integrate(sys, k0, config: FlowConfig):
    """Integrate the configured flow from stabilizing initial gains.

    With one SystemInstance and one m x n gain, returns its FlowTrajectory;
    an unstable start raises NotStabilizing, and a start where the first
    evaluation breaks down raises that error.

    With a sequence of SystemInstances of one shape and a (B, m, n) stack of
    start gains, integrates them as one population and returns one outcome
    per member, in order: its FlowTrajectory, or the GainflowError that kept
    it from starting (NotStabilizing for an unstable start). A member's
    outcome does not depend on the other members.

    Recorded samples all lie strictly inside the stabilizing set. Status is
    ConvergedGradTol when the gradient norm drops below grad_tol,
    ReachedTMax at the horizon, and StepFailure after forty consecutive
    rejections or when max_steps attempts run out.
    """
    if isinstance(sys, SystemInstance):
        k = lqr_core.as_gain(sys, k0)[None].copy()
        outcome = _integrate(Systems.of([sys]), k, config)[0]
        if isinstance(outcome, GainflowError):
            raise outcome
        return outcome
    systems = list(sys)
    if not systems:
        return []
    if not all(isinstance(s, SystemInstance) for s in systems):
        raise TypeError("a population is a sequence of SystemInstance")
    n, m = systems[0].n, systems[0].m
    if any((s.n, s.m) != (n, m) for s in systems):
        raise ValueError("the systems of a population must share n and m")
    k = matlin.as_stack(k0, "k0")
    if k.shape != (len(systems), m, n):
        raise ValueError(f"k0 must be a ({len(systems)}, {m}, {n}) stack, got {k.shape}")
    return _integrate(Systems.of(systems), k.copy(), config)


def _integrate(pop: Systems, k: np.ndarray, config: FlowConfig) -> list:
    outcomes: list = [None] * len(k)
    abscissa, failed = _abscissae(pop, k)
    for i in np.flatnonzero(failed):
        outcomes[i] = NoConvergence("eigenvalue iteration failed at the initial gain")
    for i in np.flatnonzero(~failed & (abscissa >= -TOL.stability_margin)):
        outcomes[i] = NotStabilizing("initial gain is not stabilizing")
    rows = np.array([i for i, outcome in enumerate(outcomes) if outcome is None], dtype=int)
    ev = _evaluate(pop[rows], k[rows], config, objective=True)
    for i, code in zip(rows[ev.cause != 0], ev.cause[ev.cause != 0]):
        outcomes[i] = kernel.breakdown(code)
    rows = rows[ev.cause == 0]

    # per-member state; the gains and FSAL stages of all members stay stacked
    members: dict[int, _Member] = {}
    fsal = np.empty_like(k)
    grad_norms, k_norms, rhs_norms = _norms(ev.grad), _norms(k[rows]), _norms(ev.rhs)
    for j, i in enumerate(rows):
        member = _Member(FlowSample(0.0, k[i].copy(), float(ev.value[j]), grad_norms[j],
                                    float(abscissa[i])))
        if grad_norms[j] <= config.grad_tol:
            outcomes[i] = member.finish(CONVERGED_GRAD_TOL)
            continue
        member.h = _initial_step(k_norms[j], rhs_norms[j], config)
        fsal[i] = ev.rhs[j]
        members[i] = member

    active = sorted(members)
    while active:
        live = []
        for i in active:
            member = members[i]
            if member.attempts == config.max_steps:
                outcomes[i] = member.finish(STEP_FAILURE)
                continue
            member.attempts += 1
            remaining = config.t_max - member.t
            if remaining <= 1e-12 * config.t_max:
                outcomes[i] = member.finish(REACHED_T_MAX)
                continue
            member.h = min(member.h, remaining)
            live.append(i)
        if not live:
            break
        _step(pop, k, fsal, [members[i] for i in live], np.array(live), outcomes, config)
        active = [i for i in live if outcomes[i] is None]
    return outcomes


def _step(pop: Systems, k: np.ndarray, fsal: np.ndarray, members: list[_Member],
          live: np.ndarray, outcomes: list, config: FlowConfig) -> None:
    """One attempt for each live member: stacked stages and guard, then the
    error test and the step-size update per member. Accepted members get
    their new gain and FSAL stage written into k and fsal."""
    h = np.array([member.h for member in members])[:, None, None]
    rows, evals, k_old, k_new, rhs, grad, value, abscissa, err = _attempt(
        pop[live], k[live], fsal[live], h, config)
    for member, count in zip(members, evals.tolist()):
        member.rhs_evals += count
    guarded = np.ones(len(live), dtype=bool)
    guarded[rows] = False
    for r in np.flatnonzero(guarded):
        if members[r].reject(0.5, guard=True):
            outcomes[live[r]] = members[r].finish(STEP_FAILURE)

    err_norms, old_norms, new_norms = _norms(err), _norms(k_old), _norms(k_new)
    grad_norms = _norms(grad)
    accepted = []
    for j, r in enumerate(rows.tolist()):
        member, err = members[r], err_norms[j]
        tol = config.atol + config.rtol * max(old_norms[j], new_norms[j])
        if not math.isfinite(err) or err > tol:
            factor = _STEP_SHRINK
            if math.isfinite(err) and err > 0.0:
                factor = max(_STEP_SHRINK, _STEP_SAFETY * (tol / err) ** 0.2)
            if member.reject(factor, guard=False):
                outcomes[live[r]] = member.finish(STEP_FAILURE)
            continue
        member.t += member.h
        member.rejects = 0
        member.accepted += 1
        member.samples.append(FlowSample(member.t, k_new[j].copy(), float(value[j]),
                                         grad_norms[j], float(abscissa[j])))
        if grad_norms[j] <= config.grad_tol:
            outcomes[live[r]] = member.finish(CONVERGED_GRAD_TOL)
            continue
        factor = _STEP_GROW
        if err > 0.0:
            factor = min(_STEP_GROW, max(_STEP_SHRINK, _STEP_SAFETY * (tol / err) ** 0.2))
        member.h *= factor
        accepted.append(j)
    k[live[rows[accepted]]] = k_new[accepted]
    fsal[live[rows[accepted]]] = rhs[accepted]


def _attempt(pop: Systems, k: np.ndarray, first: np.ndarray, h: np.ndarray,
             config: FlowConfig):
    """Dormand-Prince stages, endpoint and error estimate for a stack of
    members at gains k with first stages first and step sizes h (L, 1, 1).

    Returns (rows, evals, k, k_new, rhs, grad, value, abscissa, err): rows
    are the members that passed the guard, and the arrays after evals hold
    just those, in order; evals counts each member's evaluations.
    """
    rows = np.arange(len(k))
    evals = np.zeros(len(k), dtype=int)
    stages = [first]

    def keep(ok, *arrays):
        return [x[ok] for x in arrays]

    for row in _A[1:]:
        point = k + h * sum(c * s for c, s in zip(row, stages))
        finite = np.isfinite(point).all(axis=(1, 2))
        if not finite.all():
            rows, pop, k, h, point, *stages = keep(finite, rows, pop, k, h, point, *stages)
        evals[rows] += 1
        ev = _evaluate(pop, point, config)
        ok = ev.cause == 0
        if not ok.all():
            rows, pop, k, h, *stages = keep(ok, rows, pop, k, h, *stages)
        stages.append(ev.rhs)
    k_new = k + h * sum(c * s for c, s in zip(_B5, stages) if c)
    abscissa, failed = _abscissae(pop, k_new)
    ok = ~failed & (abscissa < -TOL.stability_margin) & np.isfinite(k_new).all(axis=(1, 2))
    if not ok.all():
        rows, pop, k, h, k_new, abscissa, *stages = keep(ok, rows, pop, k, h, k_new, abscissa,
                                                          *stages)
    evals[rows] += 1
    ev = _evaluate(pop, k_new, config, objective=True)
    ok = ev.cause == 0
    if not ok.all():
        rows, k, h, k_new, abscissa, *stages = keep(ok, rows, k, h, k_new, abscissa, *stages)
    stages.append(ev.rhs)
    err = h * sum(c * s for c, s in zip(_E, stages) if c)
    return rows, evals, k, k_new, ev.rhs, ev.grad, ev.value, abscissa, err


def normalized_residuals(traj: FlowTrajectory, k_star) -> list[tuple[float, float]]:
    """(t, ||K(t) - K*|| / ||K(0) - K*||) for every recorded sample."""
    k_star = matlin.as_matrix(k_star, "k_star")
    d0 = float(np.linalg.norm(traj.samples[0].k - k_star))
    if d0 == 0.0:
        raise DegenerateStart("trajectory starts at the reference gain")
    return [(s.t, float(np.linalg.norm(s.k - k_star)) / d0) for s in traj.samples]
