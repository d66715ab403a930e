"""Random-instance generation and the comparative convergence study, plus
2-d grid evaluation for contour data.

Each benchmark instance draws A and B from a standard normal distribution
(Q and R are scaled identities, which keeps detectability automatic),
rejection-samples a stabilizing initial gain, and computes the optimal gain
with the policy-iteration oracle. Once all instances are drawn, each
requested flow integrates the whole population from the shared initial
gains in one lock-step call of flow.integrate; every trajectory is the one
its instance would get alone. Normalized gain residuals are interpolated
onto a common time grid (piecewise linear in log space, where linear
convergence is a straight line) and aggregated into median and quartile
curves.

Determinism: every instance derives its own seed from the master seed via a
splitmix64 stream, so the run is reproducible bit for bit and instances are
independent of execution order.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import flow, kernel, lqr_core, matlin
from .errors import GainflowError, GenerationFailure, SamplingFailure
from .flow import FlowConfig, FlowTrajectory
from .lqr_core import SystemInstance

RHO_TARGET = 1e-6

DEFAULT_TIME_GRID = tuple(float(x) for x in np.linspace(0.0, 25.0, 101))

# Per-flow integration settings for benchmark runs. Each horizon covers its
# flow's own convergence scale: the two fast flows bring the gain residual
# below the 1e-6 target by t ~ 12-22 on admissible 2x2 instances, while the
# slow plain-cost baseline needs a longer window to pull the gain residual
# below the 1e-6 target. Bellman runs that end at t_max have stalled above
# grad_tol rather than still converging: on seed-0 instance 0 the gradient
# norm reads 1.0e-7 at t = 8.5, 4.5e-8 at t = 16.6 and 5.6e-8 at t = 24.9,
# and the steps that end after t = 12 have a median size of 1.58, where
# DOPRI5's stability limit, not its error test, sets the step.
_BENCH_FLOW = {
    "bellman": dict(rtol=1e-8, atol=1e-10, grad_tol=1e-8, t_max=25.0),
    "lqr": dict(rtol=1e-8, atol=1e-10, grad_tol=1e-8, t_max=60.0),
    "natural": dict(rtol=1e-8, atol=1e-10, grad_tol=1e-8, t_max=25.0),
}

# Sampled start gains keep the closed-loop abscissa below -_SAMPLE_MARGIN;
# _HURWITZ_BAND is the relative guard band of the n = 2 test (_stabilizing).
_SAMPLE_MARGIN = 1e-6
_HURWITZ_BAND = 1e-6

# A fresh (A, B) pair is drawn when no standard-normal gain stabilizes the
# previous one: the benchmark population is the triple (A, B, K0).
_INSTANCE_ROUNDS = 100

_MASK64 = (1 << 64) - 1
_GAMMA64 = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GAMMA64) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def instance_seed(master_seed: int, instance_id: int) -> int:
    """Per-instance seed: the (instance_id + 1)-th output of the splitmix64
    stream seeded at master_seed."""
    return _splitmix64((master_seed + instance_id * _GAMMA64) & _MASK64)


def _is_int(x) -> bool:
    """True for an integer that is not a bool (JSON's true would read as 1)."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass(frozen=True)
class BenchConfig:
    num_instances: int = 200
    n: int = 2
    m: int = 1
    seed: int = 0
    flows: tuple[str, ...] = ("bellman", "lqr", "natural")
    q_scale: float = 1.0
    r_scale: float = 1.0
    time_grid: tuple[float, ...] = DEFAULT_TIME_GRID

    def __post_init__(self):
        if not all(_is_int(getattr(self, name)) for name in ("num_instances", "n", "m", "seed")):
            raise ValueError("num_instances, n, m and seed must be integers")
        if self.num_instances <= 0:
            raise ValueError("num_instances must be positive")
        if not (self.n >= self.m >= 1):
            raise ValueError("need n >= m >= 1")
        if self.q_scale <= 0.0 or self.r_scale <= 0.0:
            raise ValueError("q_scale and r_scale must be positive")
        flows = tuple(self.flows)
        if not flows or any(f not in flow.FLOW_KINDS for f in flows):
            raise ValueError(f"flows must be a nonempty subset of {flow.FLOW_KINDS}")
        object.__setattr__(self, "flows", flows)
        grid = tuple(float(t) for t in self.time_grid)
        if not grid or grid[0] != 0.0 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("time_grid must start at 0 and increase strictly")
        object.__setattr__(self, "time_grid", grid)


@dataclass
class BenchRecord:
    instance_id: int
    seed: int
    k_star: np.ndarray | None
    curves: dict[str, np.ndarray]
    statuses: dict[str, str]
    converged: dict[str, bool]
    t_hit: dict[str, float | None]
    error: str | None = None
    trajectories: dict[str, FlowTrajectory] = field(default_factory=dict)


@dataclass
class BenchSummary:
    time_grid: np.ndarray
    median: dict[str, np.ndarray]
    q1: dict[str, np.ndarray]
    q3: dict[str, np.ndarray]
    converged_counts: dict[str, int]
    num_instances: int
    num_failed_instances: int


@dataclass
class BenchResult:
    config: BenchConfig
    records: list[BenchRecord]
    summary: BenchSummary


def random_instance(n: int, m: int, rng: np.random.Generator,
                    q_scale: float = 1.0, r_scale: float = 1.0) -> SystemInstance:
    """Standard-normal (A, B) with identity-scaled weights, resampled until
    the stabilizability and detectability checks pass (cap 1000)."""
    for _ in range(1000):
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, m))
        if not np.any(b):
            continue
        sys = SystemInstance(a=a, b=b, q=q_scale * np.eye(n), r=r_scale * np.eye(m))
        report = lqr_core.check_assumptions(sys)
        if report.stabilizable and report.detectable:
            return sys
    raise GenerationFailure(f"no admissible instance in 1000 draws (n={n}, m={m})")


def sample_stabilizing_gain(sys: SystemInstance, rng: np.random.Generator) -> np.ndarray:
    """First standard-normal gain draw whose closed loop is Hurwitz with
    abscissa below -_SAMPLE_MARGIN (cap 1e5 draws).

    Draws come in batches of 1000 and each batch is decided at once (see
    _stabilizing); the stream order is that of one-at-a-time sampling with a
    spectrum per draw, so the accepted gain is the same, and a failed call
    has consumed exactly 100 batches of the stream.
    """
    cap, batch = 100_000, 1000
    for _ in range(cap // batch):
        ks = rng.standard_normal((batch, sys.m, sys.n))
        hits = np.flatnonzero(_stabilizing(sys.a - sys.b @ ks))
        if hits.size:
            return ks[hits[0]].copy()
    raise SamplingFailure("no stabilizing gain in 1e5 draws")


def _stabilizing(closed: np.ndarray) -> np.ndarray:
    """matlin.spectrum(closed).abscissa < -_SAMPLE_MARGIN for a (B, n, n)
    stack of closed loops, decision for decision.

    At n = 2 the abscissa lies below -margin exactly when M + margin*I has
    negative trace and positive determinant (Routh-Hurwitz). With
    s = max|M| + margin bounding the entries, a draw is decided stable when
    trace < -_HURWITZ_BAND * s and det > _HURWITZ_BAND * s**2, and unstable
    when trace > _HURWITZ_BAND * s or det < -_HURWITZ_BAND * s**2; the rest
    go to the spectrum. A decided-stable draw has every eigenvalue of
    M + margin*I, and a decided-unstable one some eigenvalue, at least
    _HURWITZ_BAND * s / 2 off the imaginary axis on its side: far beyond the
    eigenvalue solver's error (about sqrt(eps) * s even for a defective M)
    and the rounding of the trace and determinant. Other sizes go to the
    spectrum.
    """
    if closed.shape[-1] != 2:
        return matlin.spectrum(closed).abscissa < -_SAMPLE_MARGIN
    shifted = closed + _SAMPLE_MARGIN * np.eye(2)
    trace = shifted[:, 0, 0] + shifted[:, 1, 1]
    det = shifted[:, 0, 0] * shifted[:, 1, 1] - shifted[:, 0, 1] * shifted[:, 1, 0]
    scale = np.abs(closed).max(axis=(1, 2)) + _SAMPLE_MARGIN
    band = _HURWITZ_BAND * scale
    stable = (trace < -band) & (det > band * scale)
    unstable = (trace > band) | (det < -band * scale)
    unsure = np.flatnonzero(~(stable | unstable))
    if unsure.size:
        stable[unsure] = matlin.spectrum(closed[unsure]).abscissa < -_SAMPLE_MARGIN
    return stable


def _draw_triple(config: BenchConfig, rng: np.random.Generator):
    """One benchmark instance: dynamics plus a stabilizing standard-normal
    initial gain. Pairs (A, B) that defeat the gain sampler are discarded
    and redrawn; the population is the jointly admissible triple."""
    for _ in range(_INSTANCE_ROUNDS):
        sys = random_instance(config.n, config.m, rng, config.q_scale, config.r_scale)
        try:
            return sys, sample_stabilizing_gain(sys, rng)
        except SamplingFailure:
            continue
    raise SamplingFailure(f"no admissible triple in {_INSTANCE_ROUNDS} rounds")


def _interp_log(time_grid: np.ndarray, residuals: list[tuple[float, float]]) -> np.ndarray:
    ts = np.array([t for t, _ in residuals])
    rhos = np.maximum(np.array([r for _, r in residuals]), 1e-300)
    return np.exp(np.interp(time_grid, ts, np.log(rhos)))


def run_benchmark(config: BenchConfig, keep_trajectories: bool = False) -> BenchResult:
    """Run the comparative convergence study.

    All instances and their oracle gains are drawn first; then each flow
    integrates the whole population in one call. Individual instance or
    flow failures are recorded in the result and never abort the run. With
    keep_trajectories the full integrator output is retained per flow for
    downstream property checks.
    """
    grid = np.array(config.time_grid)
    records: list[BenchRecord] = []
    population: list[tuple[BenchRecord, SystemInstance, np.ndarray]] = []
    for i in range(config.num_instances):
        seed = instance_seed(config.seed, i)
        record = BenchRecord(
            instance_id=i, seed=seed, k_star=None,
            curves={}, statuses={}, converged={}, t_hit={},
        )
        records.append(record)
        rng = np.random.default_rng(seed)
        try:
            sys, k0 = _draw_triple(config, rng)
            record.k_star = lqr_core.kleinman(sys, k0).k_star
        except GainflowError as exc:
            record.error = f"{type(exc).__name__}: {exc}"
            for kind in config.flows:
                _record_failure(record, kind, "NotRun", grid)
            continue
        population.append((record, sys, k0))
    systems = [sys for _, sys, _ in population]
    k0s = np.array([k0 for _, _, k0 in population]).reshape(-1, config.m, config.n)
    for kind in config.flows:
        outcomes = flow.integrate(systems, k0s, FlowConfig(kind=kind, **_BENCH_FLOW[kind]))
        for (record, _, _), traj in zip(population, outcomes):
            if isinstance(traj, GainflowError):  # it could not start
                _record_failure(record, kind, type(traj).__name__, grid)
                continue
            try:
                residuals = flow.normalized_residuals(traj, record.k_star)
            except GainflowError as exc:
                _record_failure(record, kind, type(exc).__name__, grid)
                continue
            record.curves[kind] = _interp_log(grid, residuals)
            record.statuses[kind] = traj.status
            hit = next((t for t, rho in residuals if rho <= RHO_TARGET), None)
            record.converged[kind] = hit is not None
            record.t_hit[kind] = hit
            if keep_trajectories:
                record.trajectories[kind] = traj
    return BenchResult(config=config, records=records, summary=_summarize(config, records, grid))


def _record_failure(record: BenchRecord, kind: str, status: str, grid: np.ndarray) -> None:
    record.curves[kind] = np.full(grid.shape, np.nan)
    record.statuses[kind] = status
    record.converged[kind] = False
    record.t_hit[kind] = None


def _summarize(config: BenchConfig, records: list[BenchRecord], grid: np.ndarray) -> BenchSummary:
    median, q1, q3, counts = {}, {}, {}, {}
    for kind in config.flows:
        curves = np.vstack([r.curves[kind] for r in records])
        all_nan = np.all(np.isnan(curves), axis=0)
        med = np.full(grid.shape, np.nan)
        lo = np.full(grid.shape, np.nan)
        hi = np.full(grid.shape, np.nan)
        if not all_nan.all():
            cols = ~all_nan
            med[cols] = np.nanmedian(curves[:, cols], axis=0)
            lo[cols] = np.nanpercentile(curves[:, cols], 25, axis=0)
            hi[cols] = np.nanpercentile(curves[:, cols], 75, axis=0)
        median[kind], q1[kind], q3[kind] = med, lo, hi
        counts[kind] = sum(1 for r in records if r.converged[kind])
    return BenchSummary(
        time_grid=grid, median=median, q1=q1, q3=q3,
        converged_counts=counts, num_instances=len(records),
        num_failed_instances=sum(1 for r in records if r.error is not None),
    )


@dataclass
class GridResult:
    k1: np.ndarray
    k2: np.ndarray
    values: np.ndarray  # (len(k1), len(k2)), NaN on singular cells
    stable: np.ndarray  # bool, True where the closed loop is Hurwitz


# Grid cells evaluated per stack: big enough that the per-stack overhead
# vanishes, small enough that the (B, 4, 4) Kronecker stacks and their
# temporaries keep peak memory flat for any resolution.
_GRID_CHUNK = 1024


def grid_eval(sys: SystemInstance, k1_range, k2_range, resolution,
              objective: str = "bellman") -> GridResult:
    """Evaluate an objective over a 2-d gain grid for an n=2, m=1 instance.

    Both objectives are computed wherever the vectorized value equation is
    nonsingular, including non-stabilizing cells (for the cost this is the
    finite continuation of the diverging integral); singular cells get NaN
    and every cell carries a stability bit.

    Cells are evaluated in stacks of _GRID_CHUNK gains: one batched spectrum
    gives the stability bits and sigma-set membership, and the sigma-set
    cells go through the kernel's value step, with no gradient. Each value
    equals the one-gain result (bellman_error(...).e, or tr P_K) bit for
    bit.
    """
    if sys.n != 2 or sys.m != 1:
        raise ValueError("grid evaluation needs n = 2, m = 1")
    if objective not in ("bellman", "lqr"):
        raise ValueError(f"objective must be 'bellman' or 'lqr', got {objective!r}")
    r1, r2 = (resolution, resolution) if np.isscalar(resolution) else resolution
    k1s = np.linspace(k1_range[0], k1_range[1], int(r1))
    k2s = np.linspace(k2_range[0], k2_range[1], int(r2))
    gains = np.stack(np.meshgrid(k1s, k2s, indexing="ij"), axis=-1).reshape(-1, 1, 2)
    values = np.full(gains.shape[0], np.nan)
    stable = np.zeros(gains.shape[0], dtype=bool)
    for start in range(0, gains.shape[0], _GRID_CHUNK):
        cells = slice(start, start + _GRID_CHUNK)
        _, stable[cells], in_sigma = lqr_core.gain_domain(sys, gains[cells])
        idx = start + np.flatnonzero(in_sigma)
        ev = kernel.values(sys, gains[idx], objective, objective=True)
        values[idx[ev.rows]] = ev.value
    return GridResult(k1=k1s, k2=k2s, values=values.reshape(k1s.size, k2s.size),
                      stable=stable.reshape(k1s.size, k2s.size))
