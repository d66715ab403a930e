"""Command-line entry point.

Subcommands: care (policy-iteration oracle), eval (objective at one gain),
flow (trajectory integration to CSV), grid (2-d objective grid to CSV), and
bench (the comparative convergence study).

Exit codes are a stable contract: 0 success; 2 input error (an instance
file with asymmetric weights and a non-finite gain or axis bound
included), and an output path that cannot be written, with error
OutputError; 3 domain or precondition error (NotStabilizing,
NotInSigmaSet, SingularMatrix, SamplingFailure, and DomainError from grid
when n != 2 or m != 1); 4 numerical failure (any other GainflowError, a
LinAlgError, or a flow that ends in StepFailure). Structured results go to
standard output as JSON; time and grid series go to CSV files. Every float
is emitted with 17 significant digits so parsing the text recovers the
exact binary value.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys as _sys
from pathlib import Path

import numpy as np

from . import bench, errors, flow, kernel, lqr_core, matlin
from .lqr_core import SystemInstance

_INPUT_ERRORS = (OSError, TypeError, ValueError, json.JSONDecodeError, errors.NotSymmetric)

# Errors of the computation that exit 3: the input lies outside the domain
# or breaks a precondition. Any other GainflowError, and a LinAlgError,
# is a numerical failure and exits 4.
_DOMAIN_ERRORS = (errors.NotStabilizing, errors.NotInSigmaSet, errors.SingularMatrix,
                  errors.SamplingFailure)


def fmt_float(x: float) -> str:
    """17-significant-digit decimal text; round-trips float64 exactly
    (non-finite values read nan, inf and -inf)."""
    return format(float(x), ".17g")


def dump_json(value) -> str:
    """Compact JSON text with every float at 17 significant digits; ndarrays
    go as nested lists."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt_float(value)
    if isinstance(value, np.ndarray):
        return dump_json(value.tolist())
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{dump_json(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(dump_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _print(value) -> None:
    _sys.stdout.write(dump_json(value) + "\n")


def _fail(code: int, name: str, message) -> int:
    _sys.stderr.write(dump_json({"error": name, "message": str(message)}) + "\n")
    return code


def load_instance(path) -> tuple[SystemInstance, np.ndarray | None]:
    """Read an instance file: JSON with n, m and row-major a, b, q, r arrays
    (all required; there are no weight defaults) plus an optional k0."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("instance file must be a JSON object")
    for key in ("n", "m", "a", "b", "q", "r"):
        if key not in data:
            raise ValueError(f"instance file is missing required field {key!r}")
    n, m = data["n"], data["m"]
    if not all(bench._is_int(x) and x > 0 for x in (n, m)):
        raise ValueError("n and m must be positive integers")

    def grab(name: str, rows: int, cols: int) -> np.ndarray:
        raw = data[name]
        if not isinstance(raw, list) or len(raw) != rows * cols:
            raise ValueError(f"field {name!r} must be a flat array of {rows * cols} numbers")
        return matlin.as_matrix(np.array([float(x) for x in raw]).reshape(rows, cols), name)

    sys_ = SystemInstance(a=grab("a", n, n), b=grab("b", n, m),
                          q=grab("q", n, n), r=grab("r", m, m))
    k0 = None
    if data.get("k0") is not None:
        k0 = grab("k0", m, n)
    return sys_, k0


def _parse_gain(text: str, m: int, n: int) -> np.ndarray:
    entries = [float(x) for x in text.split(",")]
    if len(entries) != m * n:
        raise ValueError(f"gain needs {m * n} comma-separated entries, got {len(entries)}")
    return matlin.as_matrix(np.array(entries).reshape(m, n), "gain")


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_csv(path, header, rows) -> None:
    """Write a header line and one line per row, each an iterable of cell
    text; lines end in LF, the last one included."""
    lines = [",".join(header)]
    lines += map(",".join, rows)
    lines.append("")
    _write_text(path, "\n".join(lines))


def cmd_care(args) -> int:
    try:
        sys_, k0_file = load_instance(args.instance)
        if args.k0 is not None:
            k0 = _parse_gain(args.k0, sys_.m, sys_.n)
        elif k0_file is not None:
            k0 = k0_file
        else:
            k0 = None
    except _INPUT_ERRORS as exc:
        return _fail(2, "InputError", exc)
    if k0 is None:
        k0 = bench.sample_stabilizing_gain(sys_, np.random.default_rng(args.seed))
    result = lqr_core.kleinman(sys_, k0, tol=args.tol, max_iter=args.max_iter)
    _print({
        "p_star": result.p_star,
        "k_star": result.k_star,
        "residual": result.residual,
        "iterations": result.iterations,
    })
    return 0


def cmd_eval(args) -> int:
    try:
        sys_, _ = load_instance(args.instance)
        k = _parse_gain(args.k, sys_.m, sys_.n)
    except _INPUT_ERRORS as exc:
        return _fail(2, "InputError", exc)
    # the domain is read once, from one spectrum; the kernel then solves P
    # and X (or P and Y) once each
    abscissa, in_k, in_k_sigma = lqr_core.gain_domain(sys_, k)
    out: dict = {}
    if args.objective == "bellman":
        if not in_k_sigma:
            return _fail(3, "NotInSigmaSet", "gain is outside the effective domain")
        ev = kernel.values(sys_, k[None], "bellman", objective=True)
        if in_k:
            kernel.directions(ev, "bellman")
        kernel.single(ev)
        out["value"] = float(ev.value[0])
        if in_k:
            out["grad"] = ev.grad[0]
        else:
            out["grad"] = None
            out["grad_reason"] = "gain is not in the stabilizing set"
        out["m_eigs"] = np.linalg.eigvalsh(matlin._sym(ev.residual[0]))
    else:
        if not in_k:
            return _fail(3, "NotStabilizing", "the cost needs a stabilizing gain")
        ev = kernel.single(kernel.evaluate(sys_, k[None], "lqr", objective=True,
                                           s=np.eye(sys_.n)))
        out["value"] = float(ev.value[0])
        out["grad"] = ev.grad[0]
        out["y_eigs"] = np.linalg.eigvalsh(ev.y[0])
    out["abscissa"] = abscissa
    out["in_K"] = in_k
    out["in_K_sigma"] = in_k_sigma
    _print(out)
    return 0


def cmd_flow(args) -> int:
    try:
        sys_, k0_file = load_instance(args.instance)
        k0 = _parse_gain(args.k0, sys_.m, sys_.n) if args.k0 is not None else k0_file
        if k0 is None:
            raise ValueError("no initial gain: pass --k0 or put k0 in the instance file")
        config = flow.FlowConfig(kind=args.kind, beta=args.beta, gamma=args.gamma,
                                 rtol=args.rtol, atol=args.atol, t_max=args.tmax,
                                 grad_tol=args.grad_tol)
    except _INPUT_ERRORS as exc:
        return _fail(2, "InputError", exc)
    traj = flow.integrate(sys_, k0, config)
    gain_cols = [f"k_{i + 1}{j + 1}" for i in range(sys_.m) for j in range(sys_.n)]
    _write_csv(args.out, ["t", *gain_cols, "objective", "grad_norm", "abscissa"],
               (map(fmt_float, (s.t, *s.k.ravel(), s.objective, s.grad_norm, s.abscissa))
                for s in traj.samples))
    last = traj.samples[-1]
    _print({
        "status": traj.status,
        "t": last.t,
        "k_final": traj.k_final,
        "objective": last.objective,
        "grad_norm": last.grad_norm,
        "abscissa": last.abscissa,
        "samples": len(traj.samples),
        "csv": str(args.out),
        "stats": dataclasses.asdict(traj.stats),
    })
    return 4 if traj.status == flow.STEP_FAILURE else 0


def _parse_axis(spec: str) -> tuple[float, float, int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"axis spec must be min:max:steps, got {spec!r}")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if not np.isfinite([lo, hi]).all():
        raise ValueError(f"axis bounds must be finite, got {spec!r}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return lo, hi, steps


def cmd_grid(args) -> int:
    try:
        sys_, _ = load_instance(args.instance)
        k1_lo, k1_hi, n1 = _parse_axis(args.k1)
        k2_lo, k2_hi, n2 = _parse_axis(args.k2)
    except _INPUT_ERRORS as exc:
        return _fail(2, "InputError", exc)
    if sys_.n != 2 or sys_.m != 1:
        return _fail(3, "DomainError", "grid evaluation needs n = 2, m = 1")
    result = bench.grid_eval(sys_, (k1_lo, k1_hi), (k2_lo, k2_hi), (n1, n2),
                             objective=args.objective)
    # each axis value is formatted once; rows run over k1, then k2
    k1_text, k2_text = (list(map(fmt_float, axis.tolist())) for axis in (result.k1, result.k2))
    values = map(fmt_float, result.values.ravel().tolist())
    stable = np.where(result.stable.ravel(), "1", "0").tolist()
    _write_csv(args.out, ["k1", "k2", "value", "stable"],
               ((k1, k2, value, bit) for (k1, k2), value, bit in zip(
                   itertools.product(k1_text, k2_text), values, stable)))
    singular = int(np.isnan(result.values).sum())
    _print({"csv": str(args.out), "cells": int(result.values.size), "singular_cells": singular})
    return 0


def cmd_bench(args) -> int:
    try:
        data = {}
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("bench config must be a JSON object")
            unknown = set(data) - {f.name for f in dataclasses.fields(bench.BenchConfig)}
            if unknown:
                raise ValueError(f"unknown config fields: {sorted(unknown)}")
        if args.seed is not None:
            data["seed"] = args.seed
        config = bench.BenchConfig(**data)
    except _INPUT_ERRORS as exc:
        return _fail(2, "InputError", exc)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # fail before the study, not after it
    result = bench.run_benchmark(config)
    for record in result.records:
        _write_csv(out_dir / f"instance_{record.instance_id:04d}.csv",
                   ["t", *(f"rho_{kind}" for kind in config.flows)],
                   (map(fmt_float, row) for row in zip(
                       config.time_grid, *(record.curves[kind] for kind in config.flows))))
    summary = result.summary
    summary_json = {
        "config": dataclasses.asdict(config),
        "median": summary.median,
        "q1": summary.q1,
        "q3": summary.q3,
        "converged_counts": summary.converged_counts,
        "num_instances": summary.num_instances,
        "num_failed_instances": summary.num_failed_instances,
        "instances": [
            {
                "id": r.instance_id,
                "seed": r.seed,
                "error": r.error,
                "k_star": r.k_star,
                "statuses": r.statuses,
                "converged": r.converged,
                "t_hit": r.t_hit,
            }
            for r in result.records
        ],
    }
    _write_text(out_dir / "summary.json", dump_json(summary_json) + "\n")
    _print({
        "out": str(out_dir),
        "instances": summary.num_instances,
        "failed_instances": summary.num_failed_instances,
        "converged_counts": summary.converged_counts,
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gainflow",
        description="Optimal LQR gains via gradient flows of a feedback-parametrized "
                    "Bellman error, with baseline flows and a policy-iteration oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("care", help="optimal gain via policy iteration")
    p.add_argument("instance")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--k0", help="comma-separated initial gain entries (row-major)")
    p.add_argument("--seed", type=int, default=0, help="seed for sampling k0 when absent")
    p.set_defaults(func=cmd_care)

    p = sub.add_parser("eval", help="objective value and gradient at one gain")
    p.add_argument("instance")
    p.add_argument("--k", required=True, help="comma-separated gain entries (row-major)")
    p.add_argument("--objective", choices=("bellman", "lqr"), default="bellman")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("flow", help="integrate a gradient flow, write trajectory CSV")
    p.add_argument("instance")
    p.add_argument("--kind", choices=flow.FLOW_KINDS, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--rtol", type=float, default=1e-8)
    p.add_argument("--atol", type=float, default=1e-10)
    p.add_argument("--tmax", type=float, default=1e4)
    p.add_argument("--grad-tol", type=float, default=1e-8)
    p.add_argument("--k0", help="comma-separated initial gain entries (row-major)")
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("grid", help="evaluate an objective over a 2-d gain grid")
    p.add_argument("instance")
    p.add_argument("--objective", choices=("bellman", "lqr"), default="bellman")
    p.add_argument("--k1", required=True, help="axis spec min:max:steps")
    p.add_argument("--k2", required=True, help="axis spec min:max:steps")
    p.add_argument("--out", required=True, help="grid CSV path")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("bench", help="comparative convergence study")
    p.add_argument("--config", help="BenchConfig JSON path (defaults apply)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OSError as exc:  # commands map their input errors, so this is output
        return _fail(2, "OutputError", exc)
    except (errors.GainflowError, np.linalg.LinAlgError) as exc:
        return _fail(3 if isinstance(exc, _DOMAIN_ERRORS) else 4, type(exc).__name__, exc)


if __name__ == "__main__":
    _sys.exit(main())
