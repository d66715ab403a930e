"""Benchmark harness: deterministic sampling, record invariants, and the
2-d grid evaluator."""

import copy

import numpy as np
import pytest

import helpers
from gainflow import bellman, bench, flow, lqr_core, matlin
from gainflow.bench import BenchConfig
from gainflow.errors import GainflowError, SamplingFailure


@pytest.fixture(scope="module")
def small_result():
    config = BenchConfig(num_instances=16, seed=11,
                         time_grid=tuple(np.linspace(0.0, 15.0, 31)))
    return bench.run_benchmark(config, keep_trajectories=True)


class TestSeeds:
    def test_splitmix_known_vectors(self):
        # first two outputs of the published splitmix64 stream seeded at 0
        assert bench.instance_seed(0, 0) == 0xE220A8397B1DCDAF
        assert bench.instance_seed(0, 1) == 0x6E789E6AA1B965F4

    def test_distinct_per_instance(self):
        seeds = {bench.instance_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestRandomInstance:
    def test_deterministic(self):
        a = bench.random_instance(3, 2, np.random.default_rng(7))
        b = bench.random_instance(3, 2, np.random.default_rng(7))
        assert np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b)
        assert np.array_equal(a.q, b.q) and np.array_equal(a.r, b.r)

    def test_identity_weights_scale(self, rng):
        sys_ = bench.random_instance(2, 1, rng, q_scale=3.0, r_scale=0.5)
        assert np.array_equal(sys_.q, 3.0 * np.eye(2))
        assert np.array_equal(sys_.r, 0.5 * np.eye(1))

    def test_assumptions_always_pass(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            sys_ = bench.random_instance(2, 1, rng)
            report = lqr_core.check_assumptions(sys_)
            assert report.stabilizable and report.detectable


class TestSampleStabilizingGain:
    def test_always_stabilizing(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            sys_ = bench.random_instance(2, 1, rng)
            try:
                k = bench.sample_stabilizing_gain(sys_, rng)
            except GainflowError:
                continue  # hopeless pair for normal draws; harness redraws these
            assert lqr_core.in_stabilizing_set(sys_, k)

    def test_deterministic(self):
        sys_ = bench.random_instance(2, 1, np.random.default_rng(7))
        k1 = bench.sample_stabilizing_gain(sys_, np.random.default_rng(9))
        k2 = bench.sample_stabilizing_gain(sys_, np.random.default_rng(9))
        assert np.array_equal(k1, k2)

    def test_hurwitz_a_still_sampled(self):
        sys_ = lqr_core.SystemInstance(a=-2.0 * np.eye(2), b=[[1.0], [0.5]],
                                       q=np.eye(2), r=[[1.0]])
        k = bench.sample_stabilizing_gain(sys_, np.random.default_rng(3))
        assert lqr_core.in_stabilizing_set(sys_, k)

    @pytest.mark.parametrize("n, m", [(2, 1), (3, 2)])
    def test_matches_one_at_a_time_reference(self, n, m):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sys_ = bench.random_instance(n, m, rng)
            reference_rng = copy.deepcopy(rng)
            try:
                k = bench.sample_stabilizing_gain(sys_, rng)
            except SamplingFailure:
                continue
            while True:
                draw = reference_rng.standard_normal((m, n))
                if matlin.spectrum(sys_.a - sys_.b @ draw).abscissa < -1e-6:
                    break
            assert np.array_equal(k, draw)

    def test_generic_shape_path(self):
        rng = np.random.default_rng(21)
        sys_ = bench.random_instance(3, 2, rng)
        k = bench.sample_stabilizing_gain(sys_, rng)
        assert k.shape == (2, 3)
        assert lqr_core.in_stabilizing_set(sys_, k)


class TestBenchConfig:
    def test_rejects_zero_instances(self):
        with pytest.raises(ValueError):
            BenchConfig(num_instances=0)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            BenchConfig(time_grid=(1.0, 2.0))
        with pytest.raises(ValueError):
            BenchConfig(time_grid=(0.0, 0.0))

    def test_rejects_unknown_flow(self):
        with pytest.raises(ValueError):
            BenchConfig(flows=("bellman", "newton"))


class TestRunBenchmark:
    def test_curves_start_at_one(self, small_result):
        for record in small_result.records:
            for kind in small_result.config.flows:
                assert abs(record.curves[kind][0] - 1.0) <= 1e-12

    def test_statuses_recorded(self, small_result):
        for record in small_result.records:
            assert set(record.statuses) == set(small_result.config.flows)

    def test_deterministic_rerun(self, small_result):
        again = bench.run_benchmark(small_result.config)
        for r1, r2 in zip(small_result.records, again.records):
            assert r1.seed == r2.seed
            assert np.array_equal(r1.k_star, r2.k_star)
            for kind in small_result.config.flows:
                assert np.array_equal(r1.curves[kind], r2.curves[kind])
                assert r1.statuses[kind] == r2.statuses[kind]

    def test_trajectory_invariants(self, small_result):
        for record in small_result.records:
            for traj in record.trajectories.values():
                assert all(s.abscissa < 0.0 for s in traj.samples)
                for a, b in zip(traj.samples, traj.samples[1:]):
                    assert b.objective <= a.objective + 1e-10 * (1.0 + abs(a.objective))

    def test_summary_aggregates(self, small_result):
        s = small_result.summary
        assert s.num_instances == 16
        for kind in small_result.config.flows:
            assert s.median[kind].shape == s.time_grid.shape
            finite = ~np.isnan(s.median[kind])
            assert (s.q1[kind][finite] <= s.median[kind][finite] + 1e-15).all()
            assert (s.median[kind][finite] <= s.q3[kind][finite] + 1e-15).all()

    def test_one_integrate_call_per_flow(self, monkeypatch):
        calls = []
        original = flow.integrate

        def counted(systems, k0s, config):
            calls.append((config.kind, len(systems), np.shape(k0s)))
            return original(systems, k0s, config)

        monkeypatch.setattr(flow, "integrate", counted)
        config = BenchConfig(num_instances=3, seed=2, time_grid=(0.0, 1.0, 2.0))
        bench.run_benchmark(config)
        assert calls == [(kind, 3, (3, 1, 2)) for kind in config.flows]

    def test_failures_do_not_abort(self, monkeypatch):
        calls = {"n": 0}
        original = lqr_core.kleinman

        def flaky(sys_, k0, *a, **kw):
            calls["n"] += 1
            if calls["n"] == 1:
                raise GainflowError("synthetic oracle failure")
            return original(sys_, k0, *a, **kw)

        monkeypatch.setattr(lqr_core, "kleinman", flaky)
        config = BenchConfig(num_instances=3, seed=2, time_grid=(0.0, 1.0, 2.0))
        result = bench.run_benchmark(config)
        assert result.summary.num_failed_instances == 1
        assert result.records[0].error is not None
        assert np.isnan(result.records[0].curves["bellman"]).all()
        assert result.records[1].error is None


class TestGridEval:
    def test_origin_cell(self, demo_sys):
        res = bench.grid_eval(demo_sys, (-1.0, 1.0), (-1.0, 1.0), 3, objective="bellman")
        i = list(res.k1).index(0.0)
        j = list(res.k2).index(0.0)
        assert abs(res.values[i, j] - 5.0 / 18.0) < 1e-12
        assert res.stable[i, j]

    def test_boundary_cells_singular(self, demo_sys):
        res = bench.grid_eval(demo_sys, (-3.0, 3.0), (-3.0, 3.0), 13, objective="bellman")
        for i, k1 in enumerate(res.k1):
            for j, k2 in enumerate(res.k2):
                if abs(k2 + k1 + 1.0) < 1e-9 or abs(k2 + k1 + 3.0) < 1e-9:
                    assert np.isnan(res.values[i, j])
                assert res.stable[i, j] == (k2 > -k1 - 1.0 + 1e-9)

    def test_matches_closed_form_on_sigma_set(self, demo_sys):
        res = bench.grid_eval(demo_sys, (-3.0, 3.0), (-3.0, 3.0), 13, objective="bellman")
        for i, k1 in enumerate(res.k1):
            for j, k2 in enumerate(res.k2):
                if np.isnan(res.values[i, j]):
                    continue
                want = helpers.bellman_error_closed_form_2d(k1, k2)
                assert abs(res.values[i, j] - want) <= 1e-8 * max(1.0, abs(want))

    def test_lqr_objective_continues_into_unstable_region(self, demo_sys):
        res = bench.grid_eval(demo_sys, (-2.0, -2.0), (-2.0, -2.0), 1, objective="lqr")
        # (-2, -2) is unstable (k2 < -k1 - 1) yet inside the sigma set
        assert not res.stable[0, 0]
        assert np.isfinite(res.values[0, 0])

    def test_lqr_grid_matches_closed_form_on_sigma_set(self, demo_sys):
        res = bench.grid_eval(demo_sys, (-3.0, 3.0), (-3.0, 3.0), 13, objective="lqr")
        for i, k1 in enumerate(res.k1):
            for j, k2 in enumerate(res.k2):
                if np.isnan(res.values[i, j]):
                    continue
                want = helpers.lqr_cost_closed_form_2d(k1, k2) / 2.0
                assert abs(res.values[i, j] - want) <= 1e-8 * max(1.0, abs(want))

    def test_values_increase_towards_boundary(self, demo_sys):
        values = []
        for s in range(1, 5):
            res = bench.grid_eval(demo_sys, (0.0, 0.0), (-1.0 + 10.0**-s,) * 2, 1)
            values.append(res.values[0, 0])
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_wrong_shape(self, scalar_sys):
        with pytest.raises(ValueError):
            bench.grid_eval(scalar_sys, (0.0, 1.0), (0.0, 1.0), 2)


def _per_cell_reference(sys_, k1s, k2s, objective):
    """grid_eval's contract, one gain at a time through the public scalar
    path: NaN outside the sigma set and where the value solve raises."""
    values = np.full((k1s.size, k2s.size), np.nan)
    stable = np.zeros((k1s.size, k2s.size), dtype=bool)
    for i, k1 in enumerate(k1s):
        for j, k2 in enumerate(k2s):
            k = np.array([[k1, k2]])
            stable[i, j] = lqr_core.in_stabilizing_set(sys_, k)
            try:
                if objective == "bellman":
                    values[i, j] = bellman.bellman_error(sys_, k).e
                else:
                    values[i, j] = np.trace(lqr_core.solve_value_lyapunov(sys_, k).p)
            except GainflowError:
                pass
    return values, stable


def _spd_instance():
    rng = np.random.default_rng(404)
    return helpers.random_admissible_system(rng, 2, 1, identity_weights=False)


class TestStackedGridEval:
    @pytest.mark.parametrize("objective", ["bellman", "lqr"])
    @pytest.mark.parametrize("make_sys", [lqr_core.demo_system, _spd_instance])
    def test_bitwise_equal_to_per_cell_path(self, make_sys, objective):
        sys_ = make_sys()
        res = bench.grid_eval(sys_, (-3.0, 3.0), (-3.0, 3.0), 31, objective=objective)
        values, stable = _per_cell_reference(sys_, res.k1, res.k2, objective)
        assert np.array_equal(res.stable, stable)
        assert np.array_equal(np.isnan(res.values), np.isnan(values))
        assert res.values.tobytes() == values.tobytes()

    def test_demo_grid_hits_both_singular_lines(self, demo_sys):
        res = bench.grid_eval(demo_sys, (-3.0, 3.0), (-3.0, 3.0), 31)
        sums = res.k1[:, None] + res.k2[None, :]
        for line in (-1.0, -3.0):
            on_line = np.abs(sums - line) < 1e-9
            assert on_line.sum() > 0 and np.isnan(res.values[on_line]).all()
        assert np.isnan(res.values).sum() == (np.abs(sums + 1.0) < 1e-9).sum() \
            + (np.abs(sums + 3.0) < 1e-9).sum()

    @pytest.mark.parametrize("objective", ["bellman", "lqr"])
    def test_partial_last_chunk_matches_single_cell_grids(self, demo_sys, objective):
        # 37 x 41 = 1517 cells: one full stack and a partial one
        assert (37 * 41) % bench._GRID_CHUNK
        res = bench.grid_eval(demo_sys, (-4.0, 2.0), (-2.5, 3.5), (37, 41), objective=objective)
        for i, k1 in enumerate(res.k1):
            for j, k2 in enumerate(res.k2):
                one = bench.grid_eval(demo_sys, (k1, k1), (k2, k2), 1, objective=objective)
                assert one.stable[0, 0] == res.stable[i, j]
                assert one.values[0, 0].tobytes() == res.values[i, j].tobytes()
