"""Integrator behavior: right-hand sides, convergence to the oracle gain,
invariant-set preservation, descent, residual bookkeeping, the stacked
evaluation kernel, and population runs that match one-gain runs bit for
bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gainflow import bellman, bench, cost_flow, flow, kernel, lqr_core, matlin
from gainflow.bench import BenchConfig
from gainflow.errors import DegenerateStart, NotStabilizing, SingularMatrix
from gainflow.flow import FlowConfig


def kernel_evaluation(sys_, ks, config, objective=False):
    """The kernel on a gain stack under a flow's settings (the identity as
    the Gramian load)."""
    return kernel.evaluate(sys_, ks, config.kind, config.beta, config.gamma, objective,
                           np.eye(ks.shape[-1]))


def kernel_eval(pop, ks, config, objective=False):
    """(cause, rhs, grad, value) of the kernel under a flow's settings."""
    ev = kernel_evaluation(pop, ks, config, objective)
    return ev.cause, ev.rhs, ev.grad, ev.value


def point_eval(sys_, k, config):
    """(rhs, grad_norm, objective) at one gain, as a stack of one; raises the
    error that stopped the evaluation."""
    ev = kernel.single(kernel_evaluation(sys_, k[None], config, objective=True))
    return ev.rhs[0], flow._norms(ev.grad)[0], float(ev.value[0])


def fit_r2(points):
    ts = np.array([t for t, _ in points])
    ys = np.log(np.maximum(np.array([r for _, r in points]), 1e-300))
    design = np.vstack([ts, np.ones_like(ts)]).T
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    ss_res = float(np.sum((ys - design @ coef) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


class TestFlowConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FlowConfig(kind="steepest")

    def test_rejects_nonpositive_tolerances(self):
        with pytest.raises(ValueError):
            FlowConfig(kind="bellman", rtol=0.0)
        with pytest.raises(ValueError):
            FlowConfig(kind="bellman", t_max=-1.0)


class TestFlowRhs:
    def test_scalar_bellman_value(self, scalar_sys):
        rhs = flow.flow_rhs(scalar_sys, [[0.0]], FlowConfig(kind="bellman"))
        assert abs(rhs[0, 0] - 1.5) < 1e-9

    def test_beta_scales_exactly(self, demo_sys):
        one = flow.flow_rhs(demo_sys, [[0.2, 0.1]], FlowConfig(kind="bellman", beta=1.0))
        two = flow.flow_rhs(demo_sys, [[0.2, 0.1]], FlowConfig(kind="bellman", beta=2.0))
        assert np.array_equal(two, 2.0 * one)

    def test_zero_at_optimum(self, demo_sys):
        k_star = lqr_core.kleinman(demo_sys, [[0.0, 0.0]]).k_star
        for kind in flow.FLOW_KINDS:
            rhs = flow.flow_rhs(demo_sys, k_star, FlowConfig(kind=kind))
            assert np.linalg.norm(rhs) <= 1e-6

    @staticmethod
    def assert_rhs_is_public_gradient(sys_, k):
        # the flow evaluates through the public functions' helpers: bit for bit
        assert np.array_equal(
            flow.flow_rhs(sys_, k, FlowConfig(kind="lqr")),
            -cost_flow.lqr_gradient(sys_, k))
        assert np.array_equal(
            flow.flow_rhs(sys_, k, FlowConfig(kind="natural", gamma=1.0)),
            -cost_flow.natural_gradient(sys_, k, gamma=1.0))
        assert np.array_equal(
            flow.flow_rhs(sys_, k, FlowConfig(kind="bellman")),
            -bellman.bellman_gradient(sys_, k).grad)

    def test_matches_public_gradients(self, demo_sys):
        self.assert_rhs_is_public_gradient(demo_sys, [[0.3, -0.2]])

    @pytest.mark.parametrize("n, m", [(3, 1), (3, 2), (4, 1), (4, 2)])
    def test_matches_public_gradients_on_random_instances(self, n, m):
        rng = np.random.default_rng(1000 * n + m)
        for _ in range(3):
            sys_, k = helpers.stabilizing_pair(rng, n, m, identity_weights=False)
            self.assert_rhs_is_public_gradient(sys_, k)

    @pytest.mark.parametrize("kind", flow.FLOW_KINDS)
    def test_point_eval_raises_on_sigma_boundary(self, demo_sys, kind):
        # A - B K has eigenvalues 0 and -2 here: the value equation is singular
        with pytest.raises(SingularMatrix):
            point_eval(demo_sys, np.array([[0.3, -1.3]]), FlowConfig(kind=kind))

    def test_refuses_unstable_gain(self, demo_sys):
        with pytest.raises(NotStabilizing):
            flow.flow_rhs(demo_sys, [[0.0, -2.0]], FlowConfig(kind="bellman"))


class TestIntegrate:
    def test_scalar_converges_to_care_root(self, scalar_sys):
        traj = flow.integrate(scalar_sys, [[0.0]], FlowConfig(kind="bellman"))
        assert traj.status == flow.CONVERGED_GRAD_TOL
        assert abs(traj.k_final[0, 0] - (np.sqrt(2.0) - 1.0)) < 1e-6

    def test_start_at_optimum_is_immediate(self, demo_sys):
        k_star = lqr_core.kleinman(demo_sys, [[0.0, 0.0]], tol=1e-13).k_star
        traj = flow.integrate(demo_sys, k_star, FlowConfig(kind="bellman"))
        assert traj.status == flow.CONVERGED_GRAD_TOL
        assert len(traj.samples) <= 2
        assert np.allclose(traj.k_final, k_star)

    @pytest.mark.parametrize("kind", flow.FLOW_KINDS)
    def test_demo_all_kinds_reach_oracle(self, demo_sys, kind):
        k_star = lqr_core.kleinman(demo_sys, [[0.0, 0.0]], tol=1e-13).k_star
        traj = flow.integrate(demo_sys, [[0.0, 0.0]], FlowConfig(kind=kind))
        assert traj.status == flow.CONVERGED_GRAD_TOL
        assert np.linalg.norm(traj.k_final - k_star) <= 1e-6
        ts = [s.t for s in traj.samples]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert all(s.abscissa < 0.0 for s in traj.samples)
        for a, b in zip(traj.samples, traj.samples[1:]):
            assert b.objective <= a.objective + 1e-10 * (1.0 + abs(a.objective))

    def test_kinds_agree_pairwise(self, demo_sys):
        finals = [
            flow.integrate(demo_sys, [[0.0, 0.0]], FlowConfig(kind=kind)).k_final
            for kind in flow.FLOW_KINDS
        ]
        for a in finals:
            for b in finals:
                assert np.linalg.norm(a - b) <= 1e-5

    def test_tolerance_halving_consistency(self, rng):
        for _ in range(3):
            sys_, k0 = helpers.stabilizing_pair(rng, 2, 1)
            base = flow.integrate(sys_, k0, FlowConfig(kind="bellman", rtol=1e-8, atol=1e-10))
            tight = flow.integrate(sys_, k0, FlowConfig(kind="bellman", rtol=5e-9, atol=5e-11))
            assert np.linalg.norm(base.k_final - tight.k_final) <= 1e-7

    def test_refuses_unstable_start(self, demo_sys):
        with pytest.raises(NotStabilizing):
            flow.integrate(demo_sys, [[0.0, -2.0]], FlowConfig(kind="bellman"))

    def test_step_budget_exhaustion_is_step_failure(self, demo_sys):
        traj = flow.integrate(demo_sys, [[0.0, 0.0]],
                              FlowConfig(kind="bellman", max_steps=3, grad_tol=1e-14))
        assert traj.status == flow.STEP_FAILURE
        assert len(traj.samples) >= 1

    def test_reached_t_max(self, demo_sys):
        traj = flow.integrate(demo_sys, [[0.0, 0.0]],
                              FlowConfig(kind="bellman", t_max=0.01, grad_tol=1e-14))
        assert traj.status == flow.REACHED_T_MAX
        assert traj.samples[-1].t <= 0.01 + 1e-12

    def test_guard_keeps_every_sample_stable_near_boundary(self, demo_sys):
        # start very close to the stability boundary
        traj = flow.integrate(demo_sys, [[0.0, -0.999]], FlowConfig(kind="bellman"))
        assert all(s.abscissa < 0.0 for s in traj.samples)
        assert traj.status == flow.CONVERGED_GRAD_TOL


class TestNormalizedResiduals:
    def test_starts_at_one_and_converges(self, demo_sys):
        k_star = lqr_core.kleinman(demo_sys, [[0.0, 0.0]], tol=1e-13).k_star
        traj = flow.integrate(demo_sys, [[0.0, 0.0]], FlowConfig(kind="bellman"))
        res = flow.normalized_residuals(traj, k_star)
        assert res[0][1] == 1.0
        assert all(r >= 0.0 for _, r in res)
        assert res[-1][1] <= 1e-6

    def test_degenerate_start(self, demo_sys):
        k_star = lqr_core.kleinman(demo_sys, [[0.0, 0.0]], tol=1e-13).k_star
        traj = flow.integrate(demo_sys, k_star, FlowConfig(kind="bellman"))
        with pytest.raises(DegenerateStart):
            flow.normalized_residuals(traj, traj.samples[0].k)

    def test_log_residual_is_linear_in_time(self, rng):
        sys_, k0 = helpers.stabilizing_pair(rng, 2, 1)
        k_star = lqr_core.kleinman(sys_, k0).k_star
        traj = flow.integrate(sys_, k0, FlowConfig(kind="bellman", t_max=25.0))
        res = flow.normalized_residuals(traj, k_star)
        tail = res[len(res) // 10:]
        assert fit_r2(tail) >= 0.95


class TestFlowStats:
    @pytest.mark.parametrize("kind", flow.FLOW_KINDS)
    def test_counts_steps_and_evaluations(self, demo_sys, kind):
        traj = flow.integrate(demo_sys, [[0.0, 0.0]], FlowConfig(kind=kind))
        stats = traj.stats
        assert stats.accepted == len(traj.samples) - 1
        assert stats.guard_rejects == 0
        # the start, then five stages and the endpoint per attempt
        assert stats.rhs_evals == 1 + 6 * (stats.accepted + stats.error_rejects)

    def test_guard_rejects_are_counted(self, demo_sys):
        # loose tolerances let the step grow until endpoints leave the
        # stabilizing set; each such attempt stops after its five stages
        config = FlowConfig(kind="bellman", rtol=1e-2, atol=1e-2, max_steps=400)
        stats = flow.integrate(demo_sys, [[0.0, -0.99]], config).stats
        assert stats.guard_rejects > 0
        assert stats.accepted + stats.error_rejects + stats.guard_rejects == 400
        assert stats.rhs_evals == (1 + 6 * (stats.accepted + stats.error_rejects)
                                   + 5 * stats.guard_rejects)

    def test_converged_start_has_no_steps(self, demo_sys):
        k_star = lqr_core.kleinman(demo_sys, [[0.0, 0.0]], tol=1e-13).k_star
        traj = flow.integrate(demo_sys, k_star, FlowConfig(kind="bellman"))
        assert traj.stats == flow.FlowStats(accepted=0, error_rejects=0, guard_rejects=0,
                                            rhs_evals=1)


# The stacked kernel: populations of random 2..4-state instances with SPD
# weights, each member at a stabilizing gain of its own system.
kernel_cases = st.tuples(st.integers(2, 4), st.integers(1, 2), st.integers(1, 6),
                         st.integers(0, 2**32 - 1))

PUBLIC_DIRECTIONS = {
    "bellman": lambda sys_, k: bellman.bellman_gradient(sys_, k).grad,
    "lqr": cost_flow.lqr_gradient,
    "natural": cost_flow.natural_gradient,
}


def assert_public_functions_match(kind, ev, i, sys_, k):
    """The one-gain public results at k equal member i of the stacked
    evaluation ev, bit for bit."""
    config = FlowConfig(kind=kind)
    assert ev.rhs[i].tobytes() == flow.flow_rhs(sys_, k, config).tobytes()
    if kind == "bellman":
        error = bellman.bellman_error(sys_, k)
        gradient = bellman.bellman_gradient(sys_, k)
        assert float(ev.value[i]) == error.e
        assert ev.p[i].tobytes() == error.p.p.tobytes()
        assert ev.x[i].tobytes() == gradient.x_matrix.tobytes()
        assert ev.a_tilde[i].tobytes() == gradient.a_tilde.tobytes()
        return
    cost = cost_flow.lqr_cost(sys_, k)
    assert float(ev.value[i]) == cost.f
    assert ev.p[i].tobytes() == cost.p.p.tobytes()
    assert ev.y[i].tobytes() == cost.y_matrix.tobytes()


def _kernel_population(n, m, size, seed):
    rng = np.random.default_rng(seed)
    pairs = [helpers.stabilizing_pair(rng, n, m, identity_weights=False) for _ in range(size)]
    return [sys_ for sys_, _ in pairs], np.array([k for _, k in pairs])


@pytest.mark.parametrize("kind", flow.FLOW_KINDS)
@given(case=kernel_cases)
@settings(max_examples=25, deadline=None)
def test_stacked_kernel_equals_one_gain_evaluation(kind, case):
    systems, ks = _kernel_population(*case)
    config = FlowConfig(kind=kind)
    cause, rhs, grad, value = kernel_eval(kernel.Systems.of(systems), ks, config,
                                          objective=True)
    assert not cause.any()
    norms = flow._norms(grad)
    for i, (sys_, k) in enumerate(zip(systems, ks)):
        one_rhs, one_norm, one_value = point_eval(sys_, k, config)
        assert rhs[i].tobytes() == one_rhs.tobytes()
        assert (norms[i], float(value[i])) == (one_norm, one_value)
        # the one-gain public functions run the kernel on a stack of one
        public = PUBLIC_DIRECTIONS[kind](sys_, k)
        assert grad[i].tobytes() == public.tobytes()
        assert norms[i] == float(np.linalg.norm(public))


@pytest.mark.parametrize("kind", flow.FLOW_KINDS)
@given(case=kernel_cases)
@settings(max_examples=15, deadline=None)
def test_public_functions_are_the_kernel_at_one_gain(kind, case):
    systems, ks = _kernel_population(*case)
    ev = kernel_evaluation(kernel.Systems.of(systems), ks, FlowConfig(kind=kind), objective=True)
    assert not ev.cause.any()
    for i, (sys_, k) in enumerate(zip(systems, ks)):
        assert_public_functions_match(kind, ev, i, sys_, k)


@pytest.mark.parametrize("kind", flow.FLOW_KINDS)
@given(case=kernel_cases, order_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_stacked_kernel_does_not_depend_on_order(kind, case, order_seed):
    systems, ks = _kernel_population(*case)
    perm = np.random.default_rng(order_seed).permutation(len(ks))
    undo = np.argsort(perm)
    config = FlowConfig(kind=kind)
    _, rhs, grad, value = kernel_eval(kernel.Systems.of(systems), ks, config, objective=True)
    _, rhs_p, grad_p, value_p = kernel_eval(
        kernel.Systems.of([systems[i] for i in perm]), ks[perm], config, objective=True)
    assert rhs_p[undo].tobytes() == rhs.tobytes()
    assert grad_p[undo].tobytes() == grad.tobytes()
    assert value_p[undo].tobytes() == value.tobytes()


@pytest.mark.parametrize("kind", flow.FLOW_KINDS)
def test_kernel_drops_a_singular_member_alone(demo_sys, kind):
    # [[0.3, -1.3]] puts the demo closed loop on the sigma-set boundary
    ks = np.array([[[0.0, 0.0]], [[0.3, -1.3]], [[1.0, 0.5]]])
    config = FlowConfig(kind=kind)
    cause, rhs, _, _ = kernel_eval(kernel.Systems.of([demo_sys] * 3), ks, config)
    assert cause.tolist() == [0, kernel.SINGULAR, 0]
    for row, k in zip(rhs, ks[[0, 2]]):
        assert row.tobytes() == point_eval(demo_sys, k, config)[0].tobytes()


# Population runs: instances 0..5 of the seed-0 study with the study's flow
# settings, integrated one at a time and as populations in either order.
@pytest.fixture(scope="module")
def study_population():
    config = BenchConfig(seed=0)
    triples = [bench._draw_triple(config, np.random.default_rng(bench.instance_seed(0, i)))
               for i in range(6)]
    return [sys_ for sys_, _ in triples], np.array([k0 for _, k0 in triples])


def assert_same_run(a, b):
    assert (a.status, a.stats, len(a.samples)) == (b.status, b.stats, len(b.samples))
    for x, y in zip(a.samples, b.samples):
        assert (x.t, x.objective, x.grad_norm, x.abscissa) == (y.t, y.objective, y.grad_norm,
                                                               y.abscissa)
        assert x.k.tobytes() == y.k.tobytes()
    assert a.k_final.tobytes() == b.k_final.tobytes()


@pytest.mark.parametrize("kind", flow.FLOW_KINDS)
def test_population_members_match_lone_runs(study_population, kind):
    systems, k0s = study_population
    config = FlowConfig(kind=kind, **bench._BENCH_FLOW[kind])
    alone = [flow.integrate(sys_, k0, config) for sys_, k0 in zip(systems, k0s)]
    forward = flow.integrate(systems, k0s, config)
    backward = flow.integrate(systems[::-1], k0s[::-1], config)[::-1]
    for one, a, b in zip(alone, forward, backward):
        assert_same_run(one, a)
        assert_same_run(one, b)


def test_failing_members_keep_their_own_status(study_population):
    systems, k0s = study_population
    # a step budget that some members exhaust and others do not
    config = FlowConfig(kind="lqr", **bench._BENCH_FLOW["lqr"], max_steps=150)
    alone = [flow.integrate(sys_, k0, config) for sys_, k0 in zip(systems, k0s)]
    statuses = {traj.status for traj in alone}
    assert flow.STEP_FAILURE in statuses and len(statuses) > 1
    # a zero gain does not stabilize a system whose A is unstable
    unstable = next(sys_ for sys_ in systems if matlin.spectrum(sys_.a).abscissa >= 0.0)
    outcomes = flow.integrate([unstable] + systems, np.concatenate([np.zeros((1, 1, 2)), k0s]),
                              config)
    assert isinstance(outcomes[0], NotStabilizing)
    for one, other in zip(alone, outcomes[1:]):
        assert_same_run(one, other)


def test_guard_rejected_member_leaves_the_others_alone(demo_sys):
    config = FlowConfig(kind="bellman", rtol=1e-2, atol=1e-2, max_steps=400)
    k0s = np.array([[[0.5, 0.5]], [[0.0, -0.99]], [[0.0, 0.0]]])
    alone = [flow.integrate(demo_sys, k0, config) for k0 in k0s]
    assert alone[1].stats.guard_rejects > 0
    for one, other in zip(alone, flow.integrate([demo_sys] * 3, k0s, config)):
        assert_same_run(one, other)


class TestPopulationInput:
    def test_empty_population(self):
        assert flow.integrate([], np.zeros((0, 1, 2)), FlowConfig(kind="lqr")) == []

    def test_rejects_mixed_shapes(self, demo_sys, scalar_sys):
        with pytest.raises(ValueError):
            flow.integrate([demo_sys, scalar_sys], np.zeros((2, 1, 2)), FlowConfig(kind="lqr"))

    def test_rejects_wrong_gain_stack(self, demo_sys):
        with pytest.raises(ValueError):
            flow.integrate([demo_sys, demo_sys], np.zeros((3, 1, 2)), FlowConfig(kind="lqr"))

    def test_unstable_member_outcome_is_an_error_value(self, demo_sys):
        outcomes = flow.integrate([demo_sys, demo_sys], [[[0.0, 0.0]], [[0.0, -2.0]]],
                                  FlowConfig(kind="bellman"))
        assert outcomes[0].status == flow.CONVERGED_GRAD_TOL
        assert isinstance(outcomes[1], NotStabilizing)

    @pytest.mark.parametrize("kind", flow.FLOW_KINDS)
    def test_no_member_can_start(self, demo_sys, kind):
        # the first evaluation then runs on an empty stack
        outcomes = flow.integrate([demo_sys, demo_sys], [[[0.0, -2.0]], [[0.0, -3.0]]],
                                  FlowConfig(kind=kind))
        assert [type(outcome) for outcome in outcomes] == [NotStabilizing, NotStabilizing]
