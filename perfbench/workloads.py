"""The benchmark's three workloads: inputs, one round of work, and its checks.

A workload is built once (set-up), then `run_round` is timed again and again;
every round attempts the same items, so a run's failed share never depends on
its length. `check` compares a round's output with `refcheck` and returns a
`Verdict`, outside the timed section.

- study:  a prefix of the paper's seed-0 comparative study through
          `bench.run_benchmark`, all three flows, trajectories kept.
- grid:   `gainflow grid` on the demo system through `cli.main`, 121 x 121
          cells over [-3, 3]^2, once per objective.
- oracle: `lqr_core.kleinman` on a seeded pool with n = 2..10, m = 1..3.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import refcheck
from gainflow import bench, cli, lqr_core
from gainflow.errors import GainflowError, MaxIterExceeded, SamplingFailure
from gainflow.lqr_core import SystemInstance

STUDY_SEED = 0
# Instances 0..19 of the seed-0 study. They hold one of the study's heavy
# instances (17: 2,173 lqr steps against a median near 130) and not instance
# 75, whose lqr flow ends above the rho target.
STUDY_INSTANCES = 20

GRID_BOX = (-3.0, 3.0)
GRID_STEPS = 121
GRID_OBJECTIVES = ("bellman", "lqr")
# Closed-loop eigenvalues of the demo system sum to zero exactly where
# k1 + k2 = -1 (det A_K = 0) or k1 + k2 = -3 (tr A_K = 0).
GRID_SINGULAR_SUMS = (-1.0, -3.0)
# Tolerances.stability_margin: the program's definition of "stable".
STABILITY_MARGIN = 1e-9

ORACLE_SHAPES = tuple((n, m) for n in range(2, 11) for m in range(1, min(3, n) + 1))
ORACLE_PER_SHAPE = 8
# Draws whose ||P*||_F exceeds this are redrawn. Above about 1e3 the absolute
# Riccati residual floors near kleinman's fixed tol = 1e-10, so whether a
# converged call fails would depend on the seed (see ORACLE_FAULT_SEED).
ORACLE_P_CAP = 300.0
# Stabilizing start: the optimal gain for control weight R = 100 I.
ORACLE_START_R = 100.0
# A fixed n = 8, m = 2 draw (||P*|| = 2.0e4) on which kleinman converges by
# iteration 8, then plateaus at a Riccati residual of 5e-10 to 1.5e-9 and
# raises MaxIterExceeded after 50 iterations. It is in every round, so the
# stopping-rule fault shows as exactly one failed item per round.
ORACLE_FAULT_SEED = 265
ORACLE_FAULT_SHAPE = (8, 2)


@dataclass
class Verdict:
    """Outcome of checking one round: items attempted, items failed, and
    the failures not named as known faults of the program."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, item: str, why: str, known: bool = False) -> None:
        self.failed += 1
        if not known:
            self.problems.append(f"{item}: {why}")


class Workload:
    """Hooks of the traced run that only the study fills."""

    def layer_counts(self, out) -> dict[str, float]:
        return {}

    def rhs_points(self, out) -> dict[str, list]:
        return {}


# --------------------------------------------------------------------- study


@dataclass(frozen=True)
class StudyCase:
    sys: SystemInstance
    k0: np.ndarray
    k_star: np.ndarray


def _study_triple(config: bench.BenchConfig, instance_id: int):
    """Rebuild instance `instance_id` of the study from public functions, in
    the order `bench.run_benchmark` draws it."""
    rng = np.random.default_rng(bench.instance_seed(config.seed, instance_id))
    for _ in range(100):
        sys_ = bench.random_instance(config.n, config.m, rng, config.q_scale, config.r_scale)
        try:
            return sys_, bench.sample_stabilizing_gain(sys_, rng)
        except SamplingFailure:
            continue
    raise SamplingFailure(f"study instance {instance_id} has no admissible triple")


class Study(Workload):
    name = "study"

    def __init__(self, seed: int, out_dir: Path, instances: int = STUDY_INSTANCES):
        # The study is the paper's seed-0 experiment whatever the run's seed.
        self.config = bench.BenchConfig(num_instances=instances, seed=STUDY_SEED)
        self._cases: list[StudyCase] | None = None

    def run_round(self) -> bench.BenchResult:
        return bench.run_benchmark(self.config, keep_trajectories=True)

    def cases(self) -> list[StudyCase]:
        if self._cases is None:
            self._cases = []
            for i in range(self.config.num_instances):
                sys_, k0 = _study_triple(self.config, i)
                _, k_star = refcheck.care(sys_.a, sys_.b, sys_.q, sys_.r)
                self._cases.append(StudyCase(sys_, k0, k_star))
        return self._cases

    def check(self, result: bench.BenchResult) -> Verdict:
        verdict = Verdict(attempted=self.config.num_instances)
        if len(result.records) != self.config.num_instances:
            verdict.problems.append(f"{len(result.records)} records for "
                                    f"{self.config.num_instances} instances")
        for record, case in zip(result.records, self.cases()):
            why = self._instance_problem(record, case)
            if why is not None:
                verdict.fail(f"study instance {record.instance_id}", why)
        return verdict

    def _instance_problem(self, record: bench.BenchRecord, case: StudyCase) -> str | None:
        if record.error is not None:
            return record.error
        if not refcheck.close(record.k_star, case.k_star):
            return "oracle K* differs from SciPy's"
        s = case.sys
        for kind in self.config.flows:
            traj = record.trajectories.get(kind)
            if traj is None:
                return f"{kind}: no trajectory ({record.statuses.get(kind)})"
            gains = np.stack([sample.k for sample in traj.samples])
            if not np.array_equal(gains[0], case.k0):
                return f"{kind}: starts at another gain than the rebuilt K0"
            if refcheck.abscissae(s.a, s.b, gains).max() >= 0.0:
                return f"{kind}: a recorded sample is not stabilizing"
            final = refcheck.rho(gains[-1], case.k0, case.k_star)
            if not final <= refcheck.RHO_TARGET:
                return f"{kind}: final rho {final:.2e} above {refcheck.RHO_TARGET:g}"
            objective = refcheck.bellman_error if kind == "bellman" else refcheck.lqr_cost
            ref = np.array([objective(s.a, s.b, s.q, s.r, k) for k in gains])
            got = np.array([sample.objective for sample in traj.samples])
            if not np.all(np.abs(got - ref) <= refcheck.REL_TOL * np.maximum(1.0, np.abs(ref))):
                return f"{kind}: recorded objective differs from SciPy's"
            if kind == "bellman" and np.any(
                    ref[1:] > ref[:-1] + refcheck.DESCENT_SLACK * (1.0 + np.abs(ref[:-1]))):
                return "bellman: the Bellman error increases along the flow"
        return None

    def layer_counts(self, result: bench.BenchResult) -> dict[str, float]:
        """Accepted steps per flow, and those taken after rho first reached
        the target (measured against SciPy's K*)."""
        counts = {}
        for kind in self.config.flows:
            steps = past = 0
            for record, case in zip(result.records, self.cases()):
                traj = record.trajectories.get(kind)
                if traj is None:
                    continue
                rhos = [refcheck.rho(sample.k, case.k0, case.k_star) for sample in traj.samples]
                steps += len(rhos) - 1
                hit = next((i for i, r in enumerate(rhos) if r <= refcheck.RHO_TARGET), None)
                if hit is not None:
                    past += len(rhos) - 1 - hit
            counts[f"flow.integrate.{kind}.steps"] = steps
            counts[f"flow.integrate.{kind}.steps_past_target"] = past
        return counts

    def rhs_points(self, result: bench.BenchResult, per_trajectory: int = 4):
        """(system, gain) pairs spread along every recorded trajectory, per
        flow kind, for timing `flow.flow_rhs` where the study spends it."""
        points = {kind: [] for kind in self.config.flows}
        for record, case in zip(result.records, self.cases()):
            for kind, traj in record.trajectories.items():
                picks = np.linspace(0, len(traj.samples) - 1, per_trajectory).round().astype(int)
                points[kind] += [(case.sys, traj.samples[i].k) for i in picks]
        return points


# ---------------------------------------------------------------------- grid


def _demo_instance_json() -> dict:
    # The demo system of the README, written out as the CLI reads it.
    return {"n": 2, "m": 1, "a": [-2.0, 1.0, 0.0, -1.0], "b": [1.0, 1.0],
            "q": [1.0, 0.0, 0.0, 1.0], "r": [2.0]}


class Grid(Workload):
    name = "grid"

    def __init__(self, seed: int, out_dir: Path, steps: int = GRID_STEPS):
        if (steps - 1) % 6:
            raise ValueError("grid steps - 1 must be a multiple of 6 to hit the singular lines")
        self.steps = steps
        out_dir.mkdir(parents=True, exist_ok=True)
        spec = _demo_instance_json()
        self._instance = out_dir / "demo.json"
        self._instance.write_text(json.dumps(spec), encoding="utf-8")
        self._a = np.array(spec["a"]).reshape(2, 2)
        self._b = np.array(spec["b"]).reshape(2, 1)
        self._q = np.array(spec["q"]).reshape(2, 2)
        self._r = np.array(spec["r"]).reshape(1, 1)
        lo, hi = GRID_BOX
        axis = f"{lo:g}:{hi:g}:{steps}"
        self._csv = {obj: out_dir / f"grid_{obj}.csv" for obj in GRID_OBJECTIVES}
        self._argv = {obj: ["grid", str(self._instance), "--objective", obj, f"--k1={axis}",
                            f"--k2={axis}", "--out", str(self._csv[obj])]
                      for obj in GRID_OBJECTIVES}
        self._ref = None

    def run_round(self) -> dict[str, tuple[int, str]]:
        out = {}
        for obj in GRID_OBJECTIVES:
            with contextlib.redirect_stdout(io.StringIO()) as buf:
                code = cli.main(self._argv[obj])
            out[obj] = (code, buf.getvalue())
        return out

    def reference(self):
        """Expected NaN cells, stable bits and objective values per cell."""
        if self._ref is None:
            a, b, q, r = self._a, self._b, self._q, self._r
            ks = np.linspace(*GRID_BOX, self.steps)
            i, j = np.meshgrid(np.arange(self.steps), np.arange(self.steps), indexing="ij")
            # k1 + k2 = 2 lo + (i + j) (hi - lo) / (steps - 1): the singular
            # lines are found from index sums, not from float compares.
            lo, hi = GRID_BOX
            singular = np.zeros_like(i, dtype=bool)
            for total in GRID_SINGULAR_SUMS:
                singular |= (i + j) * (hi - lo) == (total - 2 * lo) * (self.steps - 1)
            gains = np.stack([ks[i], ks[j]], axis=-1)[..., None, :]
            stable = refcheck.abscissae(a, b, gains.reshape(-1, 1, 2)).reshape(i.shape)
            values = {obj: np.full(i.shape, np.nan) for obj in GRID_OBJECTIVES}
            for (ii, jj) in zip(*np.nonzero(~singular)):
                k = gains[ii, jj]
                p = refcheck.value_matrix(a, b, q, r, k)
                values["bellman"][ii, jj] = refcheck.riccati_trace(a, b, q, r, p)
                values["lqr"][ii, jj] = np.trace(p)
            self._ref = (ks, singular, stable < -STABILITY_MARGIN, values)
        return self._ref

    def check(self, out: dict[str, tuple[int, str]]) -> Verdict:
        cells = self.steps * self.steps
        verdict = Verdict(attempted=cells * len(GRID_OBJECTIVES))
        ks, singular, stable, values = self.reference()
        for obj in GRID_OBJECTIVES:
            code, stdout = out[obj]
            problem = None
            try:
                summary = json.loads(stdout)
                k1, k2, got, bits = _read_grid_csv(self._csv[obj])
            except (ValueError, OSError) as exc:
                summary, problem = None, f"unreadable output: {exc}"
            if problem is None and code != 0:
                problem = f"exit code {code}"
            if problem is None and (summary.get("cells") != cells
                                    or summary.get("singular_cells") != int(singular.sum())):
                problem = f"summary {summary} does not match the grid"
            if problem is None and not (np.array_equal(k1, np.repeat(ks, self.steps))
                                        and np.array_equal(k2, np.tile(ks, self.steps))):
                problem = "CSV gains are not the requested grid"
            if problem is not None:
                for _ in range(cells):
                    verdict.fail(f"grid {obj}", problem)
                continue
            got = got.reshape(singular.shape)
            bits = bits.reshape(singular.shape)
            finite = np.isfinite(got)
            want = np.where(singular, 0.0, values[obj])
            scale = refcheck.REL_TOL * np.maximum(1.0, np.abs(want))
            bad = (finite == singular) | (bits != stable)
            bad |= finite & ~(np.abs(np.where(finite, got, 0.0) - want) <= scale)
            if obj == "bellman":
                bad |= finite & (got < -scale)
            for ii, jj in zip(*np.nonzero(bad)):
                verdict.fail(f"grid {obj} cell ({ks[ii]:g}, {ks[jj]:g})",
                             f"value {got[ii, jj]!r} stable {bool(bits[ii, jj])} against "
                             f"{values[obj][ii, jj]!r} stable {bool(stable[ii, jj])}")
        return verdict


def _read_grid_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "k1,k2,value,stable":
        raise ValueError(f"{path.name}: unexpected header")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != 4 or row[3] not in ("0", "1") for row in rows):
        raise ValueError(f"{path.name}: malformed row")
    k1 = np.array([float(row[0]) for row in rows])
    k2 = np.array([float(row[1]) for row in rows])
    values = np.array([float(row[2]) for row in rows])
    bits = np.array([row[3] == "1" for row in rows])
    return k1, k2, values, bits


# -------------------------------------------------------------------- oracle


@dataclass(frozen=True)
class OracleCase:
    sys: SystemInstance
    k0: np.ndarray
    known_fault: bool = False


def _oracle_case(a: np.ndarray, b: np.ndarray, known_fault: bool = False) -> OracleCase | None:
    """The case for (A, B) with identity weights, or None when ||P*|| is
    above the cap or the start fails its stability check."""
    n, m = b.shape
    q, r = np.eye(n), np.eye(m)
    try:
        p_star = refcheck.care_estimate(a, b, q, r)
        p_start = refcheck.care_estimate(a, b, q, ORACLE_START_R * r)
    except np.linalg.LinAlgError:
        return None
    if not known_fault and not np.linalg.norm(p_star) <= ORACLE_P_CAP:
        return None
    k0 = b.T @ p_start / ORACLE_START_R
    if not refcheck.abscissae(a, b, k0[None])[0] < -1e-6:
        return None
    return OracleCase(SystemInstance(a=a, b=b, q=q, r=r), k0, known_fault)


def oracle_pool(seed: int, per_shape: int = ORACLE_PER_SHAPE) -> list[OracleCase]:
    rng = np.random.default_rng(seed)
    pool = []
    for n, m in ORACLE_SHAPES:
        for _ in range(per_shape):
            case = None
            while case is None:
                case = _oracle_case(rng.standard_normal((n, n)), rng.standard_normal((n, m)))
            pool.append(case)
    rng = np.random.default_rng(ORACLE_FAULT_SEED)
    n, m = ORACLE_FAULT_SHAPE
    pool.append(_oracle_case(rng.standard_normal((n, n)), rng.standard_normal((n, m)),
                             known_fault=True))
    return pool


class Oracle(Workload):
    name = "oracle"

    def __init__(self, seed: int, out_dir: Path, per_shape: int = ORACLE_PER_SHAPE):
        self.pool = oracle_pool(seed, per_shape)
        self._ref = None

    def run_round(self) -> list:
        out = []
        for case in self.pool:
            try:
                out.append(lqr_core.kleinman(case.sys, case.k0))
            except GainflowError as exc:
                out.append(exc)
        return out

    def reference(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(P*, K*) per case from SciPy."""
        if self._ref is None:
            self._ref = [refcheck.care(c.sys.a, c.sys.b, c.sys.q, c.sys.r) for c in self.pool]
        return self._ref

    def check(self, out: list) -> Verdict:
        verdict = Verdict(attempted=len(self.pool))
        for idx, (case, result, (p_star, k_star)) in enumerate(
                zip(self.pool, out, self.reference())):
            item = f"oracle instance {idx} (n={case.sys.n}, m={case.sys.m})"
            if isinstance(result, Exception):
                known = case.known_fault and isinstance(result, MaxIterExceeded)
                verdict.fail(item, f"{type(result).__name__}: {result}", known=known)
            elif not refcheck.close(result.p_star, p_star):
                verdict.fail(item, "P* differs from SciPy's")
            elif not refcheck.close(result.k_star, k_star):
                verdict.fail(item, "K* differs from SciPy's")
            elif not np.linalg.eigvalsh(result.p_star).min() > 0.0:
                verdict.fail(item, "P* is not positive definite")
        return verdict


WORKLOADS = {cls.name: cls for cls in (Study, Grid, Oracle)}
