"""Run one workload of the gainflow benchmark and print its result.

    python3 perfbench/run.py --workload {study,grid,oracle} --seed N --seconds S --trace {0,1}

From the repository root. The program is imported from `src/`; nothing is
installed. Each round of the workload is timed (wall and process CPU time)
and then checked against SciPy/NumPy outside the timed section; rounds repeat
until `--seconds` of timed work have passed. The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json:
items_per_s and cpu_ms_per_item over all rounds, peak_rss_mb, and setup_s
(median of several fresh processes, each timed from its launch to the end of
its set-up). BLAS runs one thread. The timings are stated at the reference
host's speed: each is divided by the host slowdown that `hostspeed` samples
while it runs. With `--trace 1` untraced rounds alternate with rounds whose
calls into gainflow's public functions are recorded as spans, at the
libraries' default threads; the metrics are the per-layer ones, per round,
and spans go to results/perfbench/.

The exit code is 0 when every check passed apart from the named known faults,
1 when a check failed, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "results" / "perfbench"
SETUP_REPEATS = 7
SETUP_PROBES = 10  # host-speed samples before and after each set-up process
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Round:
    wall: float
    cpu: float
    verdict: object  # workloads.Verdict


def run_rounds(workload, seconds: float, tracer=None, sampler=None):
    """Whole rounds until `seconds` of timed work; returns the rounds and the
    last round's output. A host-speed sampler's own time is taken out of
    each round's wall and CPU time."""
    rounds, spent, out = [], 0.0, None
    while not rounds or spent < seconds:
        out = None  # so peak memory never holds two rounds' output
        gc.collect()
        if tracer is not None:
            tracer.install()
        if sampler is not None:
            wall_in, cpu_in = sampler.wall, sampler.cpu
            sampler.start()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        out = workload.run_round()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if sampler is not None:
            sampler.stop()
            wall -= sampler.wall - wall_in
            cpu -= sampler.cpu - cpu_in
        if tracer is not None:
            tracer.remove()
        rounds.append(Round(wall, cpu, workload.check(out)))
        spent += wall
    return rounds, out


def items_per_s(rounds: list[Round]) -> float:
    return statistics.median((r.verdict.attempted - r.verdict.failed) / r.wall for r in rounds)


def setup_seconds(args) -> tuple[float, list[float]]:
    """Launch-to-end-of-set-up time of a fresh process on this workload, and
    host-speed samples taken just before and after it. perf_counter is
    CLOCK_MONOTONIC, shared by parent and child."""
    probes = [hostspeed.probe_seconds() for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    seconds = float(proc.stdout.split()[-1]) - start
    probes += [hostspeed.probe_seconds() for _ in range(SETUP_PROBES)]
    return seconds, probes


def timed_run(workload, args):
    setup, setup_probes = [], []
    for _ in range(SETUP_REPEATS):
        seconds, probes = setup_seconds(args)
        setup.append(seconds)
        setup_probes += probes
    sampler = hostspeed.Sampler()
    rounds, _ = run_rounds(workload, args.seconds, sampler=sampler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    slow, setup_slow = hostspeed.slowdown(sampler.samples), hostspeed.slowdown(setup_probes)
    wall = sum(r.wall for r in rounds)
    cpu = sum(r.cpu for r in rounds)
    good = sum(r.verdict.attempted - r.verdict.failed for r in rounds)
    attempted = sum(r.verdict.attempted for r in rounds)
    metrics = {
        "items_per_s": good / wall * slow,
        "cpu_ms_per_item": 1e3 * cpu / attempted / slow,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup) / setup_slow,
    }
    print(f"{args.workload}: {len(rounds)} rounds, {wall:.2f} s timed, round wall s "
          f"{[round(r.wall, 3) for r in rounds]}; set-up s {[round(s, 3) for s in setup]}; "
          f"host slowdown {slow:.3f} in rounds ({len(sampler.samples)} samples), "
          f"{setup_slow:.3f} in set-up; before the slowdown is taken out: "
          f"raw items/s {good / wall:.5g}, raw CPU ms/item {1e3 * cpu / attempted:.5g}, "
          f"raw set-up s {statistics.median(setup):.4f}")
    return rounds, metrics, []


def traced_run(workload, args, per_layer: list[str]):
    import numpy as np

    import micro
    import spans

    # Untraced and traced rounds alternate, so host speed drift reaches both.
    tracer = spans.instrumented()
    plain, traced = [], []
    while sum(r.wall for r in plain + traced) < args.seconds:
        plain += run_rounds(workload, 0.0)[0]
        rounds, last = run_rounds(workload, 0.0, tracer)
        traced += rounds
    metrics = spans.layer_metrics(tracer, len(traced))
    metrics.update(workload.layer_counts(last))
    for kind in ("bellman", "lqr", "natural"):
        steps = metrics.get(f"flow.integrate.{kind}.steps")
        if steps:
            metrics[f"flow.integrate.{kind}.ms_per_step"] = \
                1e3 * metrics[f"flow.integrate.{kind}.s"] / steps
    lyapunov, problems = micro.lyapunov_table(np.random.default_rng(args.seed))
    for n, row in lyapunov.items():
        metrics[f"lqr_core.lyapunov_solve.us.n{n}"] = row["lyapunov_solve"]
    for kind, us in micro.flow_rhs_us(workload.rhs_points(last)).items():
        metrics[f"flow.flow_rhs.{kind}.us"] = us
    untraced, with_spans = items_per_s(plain), items_per_s(traced)
    metrics["trace.untraced_items_per_s"] = untraced
    metrics["trace.items_per_s"] = with_spans
    metrics["trace.overhead_pct"] = 100.0 * (untraced - with_spans) / untraced
    unreached = sorted(name for name in per_layer if name not in metrics)
    metrics.update({name: 0.0 for name in unreached})

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}"
    tracer.save(OUT_DIR / f"spans_{stem}.npz")
    table = tracer.table()
    (OUT_DIR / f"layers_{stem}.json").write_text(json.dumps(
        {"rounds": len(traced), "spans": table, "metrics": metrics, "unreached": unreached,
         "lyapunov_us": lyapunov}, indent=1) + "\n")
    print(f"{args.workload}: {len(plain)} untraced + {len(traced)} traced rounds; "
          f"tracing overhead {metrics['trace.overhead_pct']:.1f}% of items_per_s")
    print("span                                     calls/round     s/round  self s/round")
    for name, row in sorted(table.items()):
        print(f"{name:40s} {row['calls'] / len(traced):11.0f} {row['s'] / len(traced):11.4f} "
              f"{row['self_s'] / len(traced):13.4f}")
    for n, row in lyapunov.items():
        print(f"lyapunov n={n:2d} us per solve: " + "  ".join(
            f"{solver} {us:.1f}" for solver, us in row.items()))
    print(f"not reached by {args.workload} (reported as 0): {', '.join(unreached) or 'none'}")
    return plain + traced, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("study", "grid", "oracle"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload, print perf_counter() and exit")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gainflow" / "__init__.py").is_file():
        print(f"perfbench: no gainflow sources under {src}", file=sys.stderr)
        return 2
    if not args.trace and "numpy" not in sys.modules:
        # One BLAS thread for the end-to-end figures: with two on a two-vCPU
        # host, every threaded call waits for the second vCPU, and that wait
        # is noise the main thread's host-speed samples cannot see. The
        # traced run keeps the default threads, as a user's run does. (With
        # NumPy already loaded, as under pytest, the setting could not apply.)
        for var in BLAS_THREAD_VARS:
            os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    if args.setup_only:
        print(repr(time.perf_counter()))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if args.trace:
        rounds, metrics, problems = traced_run(workload, args, list(units))
    else:
        rounds, metrics, problems = timed_run(workload, args)
    for r in rounds:
        problems += r.verdict.problems
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.verdict.attempted for r in rounds),
        "failed": sum(r.verdict.failed for r in rounds),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
