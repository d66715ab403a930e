"""Integrator behavior: right-hand sides, convergence to the oracle gain,
invariant-set preservation, descent, and residual bookkeeping."""

import numpy as np
import pytest

import helpers
from gainflow import bellman, cost_flow, flow, lqr_core
from gainflow.errors import DegenerateStart, NotStabilizing, SingularMatrix
from gainflow.flow import FlowConfig


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
            flow._point_eval(demo_sys, np.array([[0.3, -1.3]]), FlowConfig(kind=kind))

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

    def test_record_stride_thins_output(self, demo_sys):
        full = flow.integrate(demo_sys, [[0.0, 0.0]], FlowConfig(kind="bellman"))
        thin = flow.integrate(demo_sys, [[0.0, 0.0]], FlowConfig(kind="bellman", record_stride=5))
        assert len(thin.samples) < len(full.samples)
        assert np.allclose(thin.k_final, full.k_final)
        # the final accepted state is always recorded
        assert np.array_equal(thin.samples[-1].k, thin.k_final)

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
