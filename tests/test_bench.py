"""Benchmark harness: deterministic sampling, record invariants, the 2-d
grid evaluator, and the study reference check."""

import copy
import json

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

    @pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (3, 2)])
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

    @pytest.mark.parametrize("m", [1, 2])
    def test_failure_consumes_exactly_the_cap(self, m):
        # no standard-normal gain comes near moving eigenvalues at 100
        sys_ = lqr_core.SystemInstance(a=100.0 * np.eye(2), b=np.eye(2)[:, :m],
                                       q=np.eye(2), r=np.eye(m))
        rng, reference_rng = np.random.default_rng(4), np.random.default_rng(4)
        with pytest.raises(SamplingFailure):
            bench.sample_stabilizing_gain(sys_, rng)
        for _ in range(100):
            reference_rng.standard_normal((1000, m, 2))
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_draw_triple_matches_spectrum_reference_on_discarded_pairs(self):
        # The first 20 instances of the seed-0 study discard 6 (A, B) pairs,
        # each after running the sampler to its cap.
        config = BenchConfig(num_instances=20, seed=0)
        pairs = 0
        for i in range(config.num_instances):
            rng = np.random.default_rng(bench.instance_seed(0, i))
            reference_rng = copy.deepcopy(rng)
            sys_, k0 = bench._draw_triple(config, rng)
            ref_sys, ref_k0, drawn = _spectrum_only_triple(config, reference_rng)
            pairs += drawn
            assert np.array_equal(sys_.a, ref_sys.a) and np.array_equal(sys_.b, ref_sys.b)
            assert np.array_equal(k0, ref_k0)
            assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert pairs == 26

    def test_study_prefix_draws_without_the_spectrum(self, monkeypatch):
        calls = []
        original = matlin.spectrum

        def counted(a):
            calls.append(np.shape(a))
            return original(a)

        monkeypatch.setattr(matlin, "spectrum", counted)
        config = BenchConfig(num_instances=20, seed=0)
        for i in range(config.num_instances):
            bench._draw_triple(config, np.random.default_rng(bench.instance_seed(0, i)))
        # random_instance's assumption check takes one spectrum of A for each
        # of the 26 pairs drawn; no draw lies in the guard band, so the
        # sampler takes none (with a spectrum per batch the total was 723)
        assert calls == [(2, 2)] * 26

    def test_generic_shape_path(self):
        rng = np.random.default_rng(21)
        sys_ = bench.random_instance(3, 2, rng)
        k = bench.sample_stabilizing_gain(sys_, rng)
        assert k.shape == (2, 3)
        assert lqr_core.in_stabilizing_set(sys_, k)


def _spectrum_only_triple(config, rng):
    """_draw_triple with one spectrum per batch of the gain sampler, as it
    was before the trace-determinant prefilter: (sys, k0, pairs drawn)."""
    for drawn in range(1, 101):
        sys_ = bench.random_instance(config.n, config.m, rng)
        for _ in range(100):
            ks = rng.standard_normal((1000, config.m, config.n))
            hits = np.flatnonzero(matlin.spectrum(sys_.a - sys_.b @ ks).abscissa < -1e-6)
            if hits.size:
                return sys_, ks[hits[0]], drawn
    raise AssertionError("no triple in 100 pairs")


def _adversarial_closed_loops(rng, scale):
    """2x2 matrices whose abscissa sits at, near and away from -1e-6, with
    entries of size `scale`: a real eigenvalue at -1e-6 + delta, a complex
    pair with real part -1e-6 + delta, and near-defective double
    eigenvalues at -1e-6 + delta and at +-scale, each in a random basis."""
    deltas = np.concatenate([[0.0], np.outer([-1.0, 1.0], np.logspace(-24, 0, 49)).ravel()])
    deltas = np.concatenate([deltas, scale * deltas])
    out = []
    for delta in deltas:
        edge = -1e-6 + delta
        other = scale * rng.uniform(0.5, 2.0)
        blocks = [
            np.diag([edge, -other]),
            np.array([[edge, other], [-other, edge]]),
            np.array([[edge, scale], [scale * 1e-15 * rng.standard_normal(), edge]]),
            np.array([[edge, scale], [-1e-30 * scale, edge]]),
            np.array([[-scale, scale], [delta * scale, -scale]]),
            np.array([[scale, scale], [delta * scale, scale]]),
        ]
        for block in blocks:
            v = rng.standard_normal((2, 2))
            out.append(v @ block @ np.linalg.inv(v))
    return np.array(out)


class TestHurwitzPrefilter:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_decides_as_the_spectrum_does(self, monkeypatch, m, scale):
        rng = np.random.default_rng(17)
        targets = _adversarial_closed_loops(rng, scale)
        b = rng.standard_normal((len(targets), 2, m))
        k = rng.standard_normal((len(targets), m, 2))
        # closed loops formed as the sampler forms them, A - B K
        closed = (targets + b @ k) - b @ k
        expected = matlin.spectrum(closed).abscissa < -1e-6
        sent = []
        original = matlin.spectrum

        def recorded(a):
            sent.extend(x.tobytes() for x in a)
            return original(a)

        monkeypatch.setattr(matlin, "spectrum", recorded)
        decided = bench._stabilizing(closed)
        sent = set(sent)
        by_prefilter = np.array([x.tobytes() not in sent for x in closed])
        assert np.array_equal(decided, expected)
        assert (~by_prefilter).any()  # the band is in use on these draws
        assert expected[by_prefilter].any() and not expected[by_prefilter].all()

    def test_larger_systems_use_the_spectrum(self, monkeypatch):
        calls = []
        original = matlin.spectrum
        monkeypatch.setattr(matlin, "spectrum", lambda a: calls.append(a) or original(a))
        closed = np.random.default_rng(3).standard_normal((50, 3, 3))
        decided = bench._stabilizing(closed)
        assert len(calls) == 1 and calls[0] is closed
        assert np.array_equal(decided, original(closed).abscissa < -1e-6)


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

    @pytest.mark.parametrize("name, value", [("num_instances", 2.5), ("n", 2.0),
                                             ("m", True), ("seed", 1.5)])
    def test_rejects_non_integer_counts(self, name, value):
        with pytest.raises(ValueError):
            BenchConfig(**{name: value})


class TestStudyReference:
    """The study check itself, on the committed reference: it passes the
    reference and fails a doctored copy."""

    @pytest.fixture
    def reference(self):
        return json.loads(helpers.STUDY_REFERENCE.read_text())

    def test_reference_passes_itself(self, reference):
        assert helpers.study_mismatches(reference, reference) == []

    def test_flipped_flag_fails(self, reference):
        doctored = copy.deepcopy(reference)
        flags = doctored["flows"]["natural"]["converged"]
        flags[7] = not flags[7]
        assert helpers.study_mismatches(reference, doctored) == [
            f"natural instance 7: converged {flags[7]} (reference {not flags[7]})"]

    def test_scaled_median_fails(self, reference):
        doctored = copy.deepcopy(reference)
        median = doctored["flows"]["bellman"]["median"]
        doctored["flows"]["bellman"]["median"] = [10.0 * x for x in median]
        problems = helpers.study_mismatches(reference, doctored)
        assert len(problems) == 1 and problems[0].startswith("bellman median: off by a factor 10")


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
