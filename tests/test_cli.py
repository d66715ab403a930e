"""Command-line interface: output formats, exit codes, and determinism."""

import json
import math

import numpy as np
import pytest

from gainflow import bench, cli, flow, kernel, lqr_core, matlin
from gainflow.errors import GainflowError

DEMO = {
    "n": 2, "m": 1,
    "a": [-2.0, 1.0, 0.0, -1.0],
    "b": [1.0, 1.0],
    "q": [1.0, 0.0, 0.0, 1.0],
    "r": [2.0],
}
SCALAR = {"n": 1, "m": 1, "a": [-1.0], "b": [1.0], "q": [1.0], "r": [1.0]}


@pytest.fixture
def demo_path(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(DEMO))
    return str(path)


@pytest.fixture
def scalar_path(tmp_path):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(SCALAR))
    return str(path)


@pytest.fixture
def unwritable(tmp_path):
    """A path below a regular file: no process can create it."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return blocker / "sub" / "out"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFloatFormat:
    def test_round_trip(self):
        for x in (0.1, 5.0 / 18.0, math.pi, 1e-300, -3.5e17, 0.0):
            assert float(cli.fmt_float(x)) == x

    def test_nan(self):
        assert cli.fmt_float(float("nan")) == "nan"

    def test_json_round_trip(self):
        blob = cli.dump_json({"x": [0.1, 1.0 / 3.0], "n": 3, "ok": True, "none": None})
        parsed = json.loads(blob)
        assert parsed["x"][1] == 1.0 / 3.0
        assert parsed["n"] == 3 and parsed["ok"] is True and parsed["none"] is None


class TestLoadInstance:
    def test_demo(self, demo_path):
        sys_, k0 = cli.load_instance(demo_path)
        assert sys_.n == 2 and sys_.m == 1 and k0 is None

    def test_k0_field(self, tmp_path):
        data = dict(DEMO, k0=[0.5, 0.5])
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data))
        _, k0 = cli.load_instance(str(path))
        assert np.array_equal(k0, [[0.5, 0.5]])

    def test_missing_field(self, tmp_path):
        data = {k: v for k, v in DEMO.items() if k != "r"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            cli.load_instance(str(path))

    def test_wrong_length(self, tmp_path):
        data = dict(DEMO, b=[1.0])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            cli.load_instance(str(path))


class TestCare:
    def test_demo(self, capsys, demo_path):
        code, out, _ = run(capsys, ["care", demo_path, "--k0", "0,0"])
        assert code == 0
        result = json.loads(out)
        assert result["residual"] <= 1e-10
        k_star = lqr_core.kleinman(lqr_core.demo_system(), [[0.0, 0.0]]).k_star
        assert np.allclose(result["k_star"], k_star, atol=1e-12)

    def test_scalar(self, capsys, scalar_path):
        code, out, _ = run(capsys, ["care", scalar_path, "--k0", "0"])
        assert code == 0
        assert abs(json.loads(out)["k_star"][0][0] - 0.41421356) < 1e-7

    def test_sampled_k0_deterministic(self, capsys, demo_path):
        _, out1, _ = run(capsys, ["care", demo_path, "--seed", "4"])
        _, out2, _ = run(capsys, ["care", demo_path, "--seed", "4"])
        assert out1 == out2

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, ["care", str(bad), "--k0", "0,0"])
        assert code == 2
        assert json.loads(err)["error"] == "InputError"

    def test_unstable_k0_exits_3(self, capsys, demo_path):
        code, _, err = run(capsys, ["care", demo_path, "--k0", "0,-2"])
        assert code == 3
        assert json.loads(err)["error"] == "NotStabilizing"

    def test_iteration_budget_exits_4(self, capsys, demo_path):
        # a numerical failure, not a domain error
        code, out, err = run(capsys, ["care", demo_path, "--k0", "0,0", "--tol", "0",
                                      "--max-iter", "3"])
        assert code == 4
        assert out == ""
        assert json.loads(err)["error"] == "MaxIterExceeded"

    def test_float_text_round_trips(self, capsys, demo_path):
        _, out, _ = run(capsys, ["care", demo_path, "--k0", "0,0"])
        result = json.loads(out)
        oracle = lqr_core.kleinman(lqr_core.demo_system(), [[0.0, 0.0]])
        assert result["k_star"][0][0] == oracle.k_star[0, 0]
        assert result["p_star"][1][0] == oracle.p_star[1, 0]


class TestEval:
    def test_bellman_origin(self, capsys, demo_path):
        code, out, _ = run(capsys, ["eval", demo_path, "--k", "0,0", "--objective", "bellman"])
        assert code == 0
        result = json.loads(out)
        assert abs(result["value"] - 5.0 / 18.0) < 1e-12
        assert result["in_K"] is True and result["in_K_sigma"] is True
        assert result["abscissa"] < 0
        assert len(result["m_eigs"]) == 2
        assert result["grad"] is not None

    def test_gradient_near_zero_at_oracle_gain(self, capsys, demo_path):
        k_star = lqr_core.kleinman(lqr_core.demo_system(), [[0.0, 0.0]]).k_star
        spec = ",".join(str(x) for x in k_star.ravel())
        for objective in ("bellman", "lqr"):
            code, out, _ = run(capsys, ["eval", demo_path, "--k", spec, "--objective", objective])
            assert code == 0
            grad = np.array(json.loads(out)["grad"])
            assert np.linalg.norm(grad) <= 1e-6

    def test_unstable_gain_bellman_has_null_grad(self, capsys, demo_path):
        # (0, -2) is unstable (k2 < -k1 - 1) but inside the sigma set
        code, out, _ = run(capsys, ["eval", demo_path, "--k", "0,-2", "--objective", "bellman"])
        assert code == 0
        result = json.loads(out)
        assert result["grad"] is None
        assert "grad_reason" in result
        assert result["in_K"] is False and result["in_K_sigma"] is True

    def test_boundary_exits_3(self, capsys, demo_path):
        code, _, err = run(capsys, ["eval", demo_path, "--k", "0,-1", "--objective", "bellman"])
        assert code == 3
        assert json.loads(err)["error"] == "NotInSigmaSet"

    def test_lqr_requires_stability(self, capsys, demo_path):
        code, _, err = run(capsys, ["eval", demo_path, "--k", "0,-3", "--objective", "lqr"])
        assert code == 3
        assert json.loads(err)["error"] == "NotStabilizing"

    def test_lqr_reports_gramian_eigs(self, capsys, demo_path):
        code, out, _ = run(capsys, ["eval", demo_path, "--k", "0,0", "--objective", "lqr"])
        assert code == 0
        result = json.loads(out)
        assert abs(result["value"] - 5.0 / 6.0) < 1e-12
        assert all(w > 0 for w in result["y_eigs"])


    @pytest.mark.parametrize("objective", ["bellman", "lqr"])
    def test_one_spectrum_and_two_lyapunov_solves(self, capsys, demo_path, monkeypatch,
                                                   objective):
        # the domain comes from one spectrum; P and X (or Y) are solved once:
        # the kernel's stacked Lyapunov solve counts one equation per slice
        calls = {"spectrum": 0, "lyapunov_solve": 0}
        for module, name, key, count in ((matlin, "spectrum", "spectrum", lambda a: 1),
                                         (kernel, "lyapunov", "lyapunov_solve", len)):
            original = getattr(module, name)

            def counted(*args, _original=original, _key=key, _count=count):
                calls[_key] += _count(args[0])
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        code, _, _ = run(capsys, ["eval", demo_path, "--k", "0.3,0.2", "--objective", objective])
        assert code == 0
        assert calls == {"spectrum": 1, "lyapunov_solve": 2}


class TestFlow:
    def test_demo_trajectory(self, capsys, demo_path, tmp_path):
        out_csv = tmp_path / "traj.csv"
        code, out, _ = run(capsys, ["flow", demo_path, "--kind", "bellman",
                                    "--k0", "0,0", "--out", str(out_csv)])
        assert code == 0
        summary = json.loads(out)
        assert summary["status"] == "ConvergedGradTol"
        k_star = lqr_core.kleinman(lqr_core.demo_system(), [[0.0, 0.0]]).k_star
        assert np.linalg.norm(np.array(summary["k_final"]) - k_star) <= 1e-6

        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "t,k_11,k_12,objective,grad_norm,abscissa"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert len(rows) == summary["samples"]
        ts = [r[0] for r in rows]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert all(r[5] < 0 for r in rows)
        objs = [r[3] for r in rows]
        assert all(b <= a + 1e-10 * (1 + abs(a)) for a, b in zip(objs, objs[1:]))
        # final CSV row matches the JSON summary
        assert rows[-1][1] == summary["k_final"][0][0]
        assert rows[-1][2] == summary["k_final"][0][1]
        stats = summary["stats"]
        assert list(stats) == ["accepted", "error_rejects", "guard_rejects", "rhs_evals"]
        assert stats["accepted"] == summary["samples"] - 1
        assert stats["rhs_evals"] == 1 + 6 * (stats["accepted"] + stats["error_rejects"])

    def test_unstable_k0_exits_3(self, capsys, demo_path, tmp_path):
        code, _, err = run(capsys, ["flow", demo_path, "--kind", "lqr",
                                    "--k0", "0,-2", "--out", str(tmp_path / "t.csv")])
        assert code == 3
        assert json.loads(err)["error"] == "NotStabilizing"

    def test_missing_k0_exits_2(self, capsys, demo_path, tmp_path):
        code, _, err = run(capsys, ["flow", demo_path, "--kind", "bellman",
                                    "--out", str(tmp_path / "t.csv")])
        assert code == 2

    def test_unwritable_out_exits_2(self, capsys, demo_path, unwritable):
        code, out, err = run(capsys, ["flow", demo_path, "--kind", "bellman",
                                      "--k0", "0,0", "--out", str(unwritable)])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "OutputError"


class TestGrid:
    def test_demo_grid(self, capsys, demo_path, tmp_path):
        out_csv = tmp_path / "grid.csv"
        code, out, _ = run(capsys, ["grid", demo_path, "--objective", "bellman",
                                    "--k1=-3:3:13", "--k2=-3:3:13",
                                    "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "k1,k2,value,stable"
        cells = {}
        for line in lines[1:]:
            k1s, k2s, vals, stab = line.split(",")
            cells[(float(k1s), float(k2s))] = (float(vals), stab)
        value, stable = cells[(0.0, 0.0)]
        assert abs(value - 5.0 / 18.0) < 1e-12 and stable == "1"
        value, stable = cells[(0.0, -1.0)]
        assert math.isnan(value) and stable == "0"
        for (k1, k2), (_, stable) in cells.items():
            assert (stable == "1") == (k2 > -k1 - 1.0 + 1e-9)

    def test_wrong_dimensions_exit_3(self, capsys, scalar_path, tmp_path):
        code, _, err = run(capsys, ["grid", scalar_path, "--k1", "0:1:2",
                                    "--k2", "0:1:2", "--out", str(tmp_path / "g.csv")])
        assert code == 3

    def test_bad_axis_spec_exits_2(self, capsys, demo_path, tmp_path):
        code, _, _ = run(capsys, ["grid", demo_path, "--k1", "0:1",
                                  "--k2", "0:1:2", "--out", str(tmp_path / "g.csv")])
        assert code == 2

    def test_unwritable_out_exits_2(self, capsys, demo_path, unwritable):
        code, out, err = run(capsys, ["grid", demo_path, "--k1=0:1:3", "--k2=0:1:3",
                                      "--out", str(unwritable)])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "OutputError"


class TestBench:
    CONFIG = {
        "num_instances": 4,
        "seed": 3,
        "time_grid": [0.0, 2.0, 4.0, 6.0, 8.0, 10.0],
    }

    def write_config(self, tmp_path, data=None):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(data if data is not None else self.CONFIG))
        return str(path)

    def test_outputs(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, ["bench", "--config", cfg, "--out", str(out_dir)])
        assert code == 0
        assert json.loads(out)["instances"] == 4
        for i in range(4):
            csv_path = out_dir / f"instance_{i:04d}.csv"
            lines = csv_path.read_text().strip().split("\n")
            assert lines[0] == "t,rho_bellman,rho_lqr,rho_natural"
            first = [float(x) for x in lines[1].split(",")]
            assert first[0] == 0.0
            assert all(abs(r - 1.0) <= 1e-12 for r in first[1:])
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["num_instances"] == 4
        assert set(summary["median"]) == {"bellman", "lqr", "natural"}
        assert len(summary["instances"]) == 4

    def test_byte_identical_reruns(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        dirs = [tmp_path / "run1", tmp_path / "run2"]
        for d in dirs:
            code, _, _ = run(capsys, ["bench", "--config", cfg, "--out", str(d)])
            assert code == 0
        files1 = sorted(p.name for p in dirs[0].iterdir())
        files2 = sorted(p.name for p in dirs[1].iterdir())
        assert files1 == files2
        for name in files1:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_zero_instances_exits_2(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, {"num_instances": 0})
        code, _, err = run(capsys, ["bench", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(err)["error"] == "InputError"

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, {"num_instances": 2, "horizon": 5})
        code, _, _ = run(capsys, ["bench", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("[1, 2")
        code, _, _ = run(capsys, ["bench", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unwritable_out_exits_2_before_the_study(self, capsys, tmp_path, unwritable,
                                                     monkeypatch):
        monkeypatch.setattr(bench, "run_benchmark",
                            lambda *args, **kwargs: pytest.fail("the study ran"))
        cfg = self.write_config(tmp_path)
        code, out, err = run(capsys, ["bench", "--config", cfg, "--out", str(unwritable)])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "OutputError"

    @pytest.mark.parametrize("error", [GainflowError("synthetic failure"),
                                       np.linalg.LinAlgError("synthetic failure")])
    def test_numerical_failure_exits_4(self, capsys, tmp_path, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(bench, "run_benchmark", fail)
        cfg = self.write_config(tmp_path)
        code, out, err = run(capsys, ["bench", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 4
        assert out == ""
        assert json.loads(err) == {"error": type(error).__name__, "message": "synthetic failure"}

    def test_seed_flag_overrides(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, {"num_instances": 2, "seed": 1,
                                           "time_grid": [0.0, 5.0], "flows": ["bellman"]})
        d1, d2, d3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run(capsys, ["bench", "--config", cfg, "--out", str(d1)])
        run(capsys, ["bench", "--config", cfg, "--out", str(d2), "--seed", "99"])
        run(capsys, ["bench", "--config", cfg, "--out", str(d3), "--seed", "99"])
        assert (d1 / "summary.json").read_bytes() != (d2 / "summary.json").read_bytes()
        assert (d2 / "summary.json").read_bytes() == (d3 / "summary.json").read_bytes()

    @pytest.mark.parametrize("data", [{"num_instances": 2.5}, {"n": 2.0}, {"m": True}])
    def test_non_integer_count_exits_2(self, capsys, tmp_path, monkeypatch, data):
        monkeypatch.setattr(bench, "run_benchmark",
                            lambda *args, **kwargs: pytest.fail("the study ran"))
        cfg = self.write_config(tmp_path, data)
        code, _, err = run(capsys, ["bench", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(err)["error"] == "InputError"

    def test_flows_subset_header(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, {"num_instances": 1, "seed": 8,
                                           "time_grid": [0.0, 5.0], "flows": ["bellman"]})
        out_dir = tmp_path / "sub"
        code, _, _ = run(capsys, ["bench", "--config", cfg, "--out", str(out_dir)])
        assert code == 0
        lines = (out_dir / "instance_0000.csv").read_text().strip().split("\n")
        assert lines[0] == "t,rho_bellman"


def test_unknown_subcommand_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2


@pytest.mark.parametrize("command", [
    ["care", "--k0", "0,0"],
    ["eval", "--k", "0,0"],
    ["flow", "--kind", "bellman", "--k0", "0,0", "--out"],
    ["grid", "--k1=-1:1:3", "--k2=-1:1:3", "--out"],
])
def test_asymmetric_weights_exit_2(capsys, tmp_path, command):
    code, out, err = run(capsys, _argv(tmp_path, {**DEMO, "q": [1.0, 0.5, 0.0, 1.0]}, command))
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "InputError"
    assert error["message"].startswith("q asymmetry")


def _argv(tmp_path, instance, command):
    """command with an instance file written from instance after the
    subcommand, and an output path after a trailing --out."""
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    argv = command[:1] + [str(path)] + command[1:]
    if argv[-1] == "--out":
        argv.append(str(tmp_path / "out.csv"))
    return argv


@pytest.mark.parametrize("instance, command", [
    (DEMO, ["care", "--k0", "inf,0"]),
    (DEMO, ["eval", "--k", "nan,0"]),
    (DEMO, ["flow", "--kind", "bellman", "--k0", "nan,0", "--out"]),
    (DEMO, ["grid", "--k1=nan:1:3", "--k2=-1:1:3", "--out"]),
    (DEMO, ["grid", "--k1=-1:1:3", "--k2=-1:inf:3", "--out"]),
    ({**DEMO, "k0": [math.nan, 0.0]}, ["flow", "--kind", "bellman", "--out"]),
])
def test_non_finite_gain_exits_2(capsys, tmp_path, instance, command):
    code, out, err = run(capsys, _argv(tmp_path, instance, command))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "InputError"


@pytest.mark.parametrize("instance", [
    {**DEMO, "n": 2.5},
    {**DEMO, "m": 1.0},
    {**SCALAR, "n": True, "m": True},
    {**DEMO, "a": [None, 1.0, 0.0, -1.0]},
])
def test_malformed_instance_exits_2(capsys, tmp_path, instance):
    k = ",".join(["0"] * len(instance["b"]))
    code, out, err = run(capsys, _argv(tmp_path, instance, ["eval", "--k", k]))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "InputError"


def _csv_cells(path):
    """(header, rows of cell text) of a CSV the CLI wrote, after checking
    that its lines end in LF and the file in exactly one newline."""
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n") and not data.endswith(b"\n\n")
    header, *rows = data.decode("utf-8")[:-1].split("\n")
    return header.split(","), [row.split(",") for row in rows]


def _assert_bitwise(texts, values):
    """Each cell text parses to exactly the float64 value, NaN to NaN."""
    got = np.array([float(x) for x in texts])
    want = np.asarray(values, dtype=float).ravel()
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    keep = ~np.isnan(want)
    assert np.array_equal(got[keep].view(np.uint64), want[keep].view(np.uint64))


class TestCsvFormat:
    """Every CSV cell reads back bitwise as the library's value."""

    def test_flow(self, capsys, demo_path, tmp_path):
        out_csv = tmp_path / "traj.csv"
        code, _, _ = run(capsys, ["flow", demo_path, "--kind", "bellman", "--k0", "0,0",
                                  "--out", str(out_csv)])
        assert code == 0
        sys_, _ = cli.load_instance(demo_path)
        samples = flow.integrate(sys_, [[0.0, 0.0]], flow.FlowConfig(kind="bellman")).samples
        header, rows = _csv_cells(out_csv)
        assert header == ["t", "k_11", "k_12", "objective", "grad_norm", "abscissa"]
        assert len(rows) == len(samples)
        _assert_bitwise([cell for row in rows for cell in row],
                        [(s.t, *s.k.ravel(), s.objective, s.grad_norm, s.abscissa)
                         for s in samples])

    @pytest.mark.parametrize("objective", ["bellman", "lqr"])
    def test_grid(self, capsys, demo_path, tmp_path, objective):
        out_csv = tmp_path / "grid.csv"
        code, _, _ = run(capsys, ["grid", demo_path, "--objective", objective,
                                  "--k1=-3:3:13", "--k2=-3:3:13", "--out", str(out_csv)])
        assert code == 0
        sys_, _ = cli.load_instance(demo_path)
        result = bench.grid_eval(sys_, (-3.0, 3.0), (-3.0, 3.0), 13, objective=objective)
        header, rows = _csv_cells(out_csv)
        assert header == ["k1", "k2", "value", "stable"]
        k1, k2, values, stable = zip(*rows)
        _assert_bitwise(k1, np.repeat(result.k1, 13))
        _assert_bitwise(k2, np.tile(result.k2, 13))
        _assert_bitwise(values, result.values)
        assert np.isnan(result.values).any()  # the boundary cells read nan
        assert list(stable) == ["1" if bit else "0" for bit in result.stable.ravel()]

    def test_bench(self, capsys, tmp_path):
        config = {"num_instances": 2, "seed": 3, "time_grid": [0.0, 2.0, 4.0, 6.0]}
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(config))
        code, _, _ = run(capsys, ["bench", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        records = bench.run_benchmark(bench.BenchConfig(**config)).records
        for record in records:
            header, rows = _csv_cells(tmp_path / "o" / f"instance_{record.instance_id:04d}.csv")
            assert header == ["t", "rho_bellman", "rho_lqr", "rho_natural"]
            columns = list(zip(*rows))
            _assert_bitwise(columns[0], config["time_grid"])
            for kind, column in zip(("bellman", "lqr", "natural"), columns[1:]):
                _assert_bitwise(column, record.curves[kind])
