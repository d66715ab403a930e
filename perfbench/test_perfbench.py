"""The benchmark's own test: each workload at a small size through the same
checks, negative controls that the checks must reject, and the command's
output contract."""

import json
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def study():
    wl = workloads.Study(seed=0, out_dir=None, instances=2)
    return wl, wl.run_round()


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    wl = workloads.Grid(seed=0, out_dir=tmp_path_factory.mktemp("grid"), steps=13)
    return wl, wl.run_round()


@pytest.fixture(scope="module")
def oracle():
    wl = workloads.Oracle(seed=3, out_dir=None, per_shape=1)
    return wl, wl.run_round()


def test_study_passes(study):
    wl, out = study
    verdict = wl.check(out)
    assert (verdict.attempted, verdict.failed, verdict.problems) == (2, 0, [])


def test_study_rejects_perturbed_gain(study):
    wl, out = study
    record = out.records[1]
    good = record.k_star
    record.k_star = good * (1.0 + 1e-6)
    try:
        verdict = wl.check(out)
    finally:
        record.k_star = good
    assert verdict.failed == 1 and "K*" in verdict.problems[0]


def test_study_rejects_unstable_sample(study):
    wl, out = study
    case = wl.cases()[0]
    samples = out.records[0].trajectories["lqr"].samples
    good = samples[-1]
    unstable = next(k for k in 1e3 * np.array([[[1.0, 1.0]], [[-1.0, -1.0]], [[1.0, -1.0]]])
                    if np.linalg.eigvals(case.sys.a - case.sys.b @ k).real.max() > 0.0)
    samples[-1] = replace(good, k=unstable)
    try:
        verdict = wl.check(out)
    finally:
        samples[-1] = good
    assert verdict.failed == 1 and "not stabilizing" in verdict.problems[0]


def test_grid_passes(grid):
    wl, out = grid
    verdict = wl.check(out)
    assert (verdict.attempted, verdict.failed, verdict.problems) == (2 * 13 * 13, 0, [])
    # 11 cells on k1 + k2 = -1 and 7 on k1 + k2 = -3 at 13 steps
    assert all(json.loads(stdout)["singular_cells"] == 18 for _, stdout in out.values())


def test_grid_rejects_flipped_stability_bit(grid):
    wl, out = grid
    path = wl._csv["lqr"]
    good = path.read_text(encoding="utf-8")
    lines = good.splitlines()
    lines[5] = lines[5][:-1] + ("0" if lines[5].endswith("1") else "1")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        verdict = wl.check(out)
    finally:
        path.write_text(good, encoding="utf-8")
    assert verdict.failed == 1 and "grid lqr cell" in verdict.problems[0]


def test_oracle_counts_only_the_known_fault(oracle):
    wl, out = oracle
    verdict = wl.check(out)
    assert verdict.attempted == len(workloads.ORACLE_SHAPES) + 1
    assert (verdict.failed, verdict.problems) == (1, [])
    assert wl.pool[-1].known_fault and type(out[-1]).__name__ == "MaxIterExceeded"


def test_oracle_rejects_perturbed_gain(oracle):
    wl, out = oracle
    good = out[0]
    out[0] = replace(good, k_star=good.k_star + 1e-6 * np.abs(good.k_star).max())
    try:
        verdict = wl.check(out)
    finally:
        out[0] = good
    assert verdict.failed == 2 and "K*" in verdict.problems[0]


def test_traced_layers_are_declared(oracle):
    wl, _ = oracle
    tracer = spans.instrumented()
    tracer.install()
    try:
        wl.run_round()
    finally:
        tracer.remove()
    metrics = spans.layer_metrics(tracer, rounds=1)
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(metrics) <= declared
    assert metrics["lqr_core.kleinman.failed"] == 1.0
    assert metrics["lqr_core.kleinman.iterations"] == metrics["lqr_core.solve_value_lyapunov.calls"]


def test_host_speed_sampler_takes_its_time_out():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler(interval=0.05)
    sampler.start()
    end = time.perf_counter() + 0.5
    while time.perf_counter() < end:
        pass
    sampler.stop()
    assert len(sampler.samples) >= 3
    assert sampler.wall == pytest.approx(sum(sampler.samples)) and 0.0 < sampler.wall < 0.5
    assert signal.getsignal(signal.SIGALRM) is previous
    assert hostspeed.slowdown([hostspeed.NOMINAL_PROBE_S] * 3) == 1.0


def test_command_prints_the_result_line(capsys):
    assert run.main(["--workload", "oracle", "--seed", "5", "--seconds", "0.01"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] * 209 == result["attempted"]
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "study", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
