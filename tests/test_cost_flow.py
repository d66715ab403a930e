"""LQR cost, its gradient, and the natural gradient."""

import numpy as np
import pytest

import helpers
from gainflow import bellman, cost_flow, lqr_core, matlin
from gainflow.errors import NotPD, NotStabilizing


class TestLqrCost:
    def test_scalar(self, scalar_sys):
        ce = cost_flow.lqr_cost(scalar_sys, [[0.0]])
        assert abs(ce.f - 0.5) < 1e-14
        assert abs(ce.y_matrix[0, 0] - 0.5) < 1e-14

    def test_demo_origin(self, demo_sys):
        ce = cost_flow.lqr_cost(demo_sys, [[0.0, 0.0]])
        assert abs(ce.f - 5.0 / 6.0) < 1e-13

    def test_optimum_minimizes(self, demo_sys, rng):
        k_star = lqr_core.kleinman(demo_sys, [[0.0, 0.0]]).k_star
        f_star = cost_flow.lqr_cost(demo_sys, k_star).f
        tried = 0
        while tried < 50:
            k = 2.0 * rng.standard_normal((1, 2))
            if not lqr_core.in_stabilizing_set(demo_sys, k):
                continue
            tried += 1
            assert cost_flow.lqr_cost(demo_sys, k).f >= f_star - 1e-12

    def test_unstable_gain_rejected(self):
        sys_ = lqr_core.SystemInstance(a=[[1.0]], b=[[1.0]], q=[[1.0]], r=[[1.0]])
        with pytest.raises(NotStabilizing):
            cost_flow.lqr_cost(sys_, [[0.0]])

    def test_gramian_properties_on_random(self, rng):
        for _ in range(50):
            sys_, k = helpers.stabilizing_pair(rng, 3, 1, identity_weights=False)
            ce = cost_flow.lqr_cost(sys_, k)
            a_k = sys_.a - sys_.b @ k
            residual = np.linalg.norm(a_k @ ce.y_matrix + ce.y_matrix @ a_k.T + np.eye(3))
            assert residual <= 1e-9 * (1.0 + np.linalg.norm(ce.y_matrix))
            assert matlin.min_eig_sym(ce.y_matrix) > 1e-12

    def test_custom_sigma0(self, scalar_sys):
        ce = cost_flow.lqr_cost(scalar_sys, [[0.0]], sigma0=[[2.0]])
        assert abs(ce.f - 1.0) < 1e-14  # tr(P * 2) = 2 * 1/2
        assert abs(ce.y_matrix[0, 0] - 1.0) < 1e-14

    @pytest.mark.parametrize("sigma0, message", [
        ([[1.0, 0.0]], "sigma0 must be 2 x 2"),
        (np.eye(3), "sigma0 must be 2 x 2"),
        ([[1.0, 0.0], [0.0, -1.0]], "sigma0 must be positive semidefinite"),
    ])
    def test_sigma0_checks(self, demo_sys, sigma0, message):
        with pytest.raises(ValueError, match=message):
            cost_flow.lqr_cost(demo_sys, [[0.0, 0.0]], sigma0=sigma0)

    def test_sigma0_symmetric_part(self, demo_sys):
        skewed = cost_flow.lqr_cost(demo_sys, [[0.0, 0.0]], sigma0=[[1.0, 0.4], [0.0, 1.0]])
        assert np.array_equal(skewed.sigma0, [[1.0, 0.2], [0.2, 1.0]])


class TestLqrGradient:
    def test_scalar_hand_value(self, scalar_sys):
        grad = cost_flow.lqr_gradient(scalar_sys, [[0.0]])
        assert abs(grad[0, 0] + 0.5) < 1e-12

    def test_vanishes_at_optimum(self, demo_sys):
        k_star = lqr_core.kleinman(demo_sys, [[0.0, 0.0]]).k_star
        assert np.linalg.norm(cost_flow.lqr_gradient(demo_sys, k_star)) <= 1e-6

    def test_against_finite_differences_on_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, min(n, 3) + 1))
            sys_, k = helpers.stabilizing_pair(rng, n, m, identity_weights=False)
            grad = cost_flow.lqr_gradient(sys_, k)
            fd = helpers.fd_gradient(lambda kk: cost_flow.lqr_cost(sys_, kk).f, k)
            assert helpers.rel_err(grad, fd) <= 1e-4


class TestNaturalGradient:
    def test_scalar_hand_value(self, scalar_sys):
        out = cost_flow.natural_gradient(scalar_sys, [[0.0]], gamma=1.0)
        assert abs(out[0, 0] + 1.0) < 1e-12

    def test_solve_path_matches_eig_path(self, rng):
        for _ in range(25):
            sys_, k = helpers.stabilizing_pair(rng, 3, 2, identity_weights=False)
            via_solve = cost_flow.natural_gradient(sys_, k, gamma=1.0)
            ce = cost_flow.lqr_cost(sys_, k)
            grad = cost_flow.lqr_gradient(sys_, k)
            w, v = np.linalg.eigh(ce.y_matrix)
            via_eig = grad @ (v / w) @ v.T
            assert np.linalg.norm(via_solve - via_eig) <= 1e-10 * (1.0 + np.linalg.norm(via_eig))

    def test_tiny_gamma_recovers_plain_gradient(self, rng):
        sys_, k = helpers.stabilizing_pair(rng, 3, 1)
        plain = cost_flow.lqr_gradient(sys_, k)
        nearly = cost_flow.natural_gradient(sys_, k, gamma=1e-12)
        assert np.linalg.norm(nearly - plain) <= 1e-10 * (1.0 + np.linalg.norm(plain))

    def test_general_gamma_power(self, rng):
        sys_, k = helpers.stabilizing_pair(rng, 2, 1)
        out = cost_flow.natural_gradient(sys_, k, gamma=0.5)
        ce = cost_flow.lqr_cost(sys_, k)
        w, v = np.linalg.eigh(ce.y_matrix)
        expected = cost_flow.lqr_gradient(sys_, k) @ (v * w**-0.5) @ v.T
        assert np.allclose(out, expected, atol=1e-12)

    def test_rejects_gamma_zero(self, scalar_sys):
        with pytest.raises(ValueError):
            cost_flow.natural_gradient(scalar_sys, [[0.0]], gamma=0.0)

    def test_not_pd_with_zero_sigma0(self, scalar_sys):
        # a zero covariance surrogate yields a zero Gramian
        with pytest.raises(NotPD):
            cost_flow.natural_gradient(scalar_sys, [[0.0]], sigma0=[[0.0]], gamma=1.0)

    def test_same_zero_set_as_plain_gradient(self, demo_sys):
        k_star = lqr_core.kleinman(demo_sys, [[0.0, 0.0]]).k_star
        assert np.linalg.norm(cost_flow.natural_gradient(demo_sys, k_star)) <= 1e-6
        k = np.array([[0.5, 0.5]])
        assert np.linalg.norm(cost_flow.natural_gradient(demo_sys, k)) > 1e-6
        assert np.linalg.norm(cost_flow.lqr_gradient(demo_sys, k)) > 1e-6


class TestCostClosedForm2d:
    def test_origin(self):
        assert abs(helpers.lqr_cost_closed_form_2d(0.0, 0.0) - 5.0 / 3.0) < 1e-15

    def test_boundary_divides_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            helpers.lqr_cost_closed_form_2d(0.0, -1.0)

    def test_twice_the_pipeline_everywhere(self, demo_sys, rng):
        count = 0
        while count < 100:
            k1, k2 = 6.0 * rng.random(2) - 3.0
            if k2 <= -k1 - 1.0 + 1e-6:
                continue
            count += 1
            pipeline = cost_flow.lqr_cost(demo_sys, [[k1, k2]]).f
            formula = helpers.lqr_cost_closed_form_2d(k1, k2)
            assert abs(formula / pipeline - 2.0) <= 1e-8


def test_cost_and_error_share_their_minimizer(demo_sys):
    k_star = lqr_core.kleinman(demo_sys, [[0.0, 0.0]], tol=1e-13).k_star
    assert np.linalg.norm(cost_flow.lqr_gradient(demo_sys, k_star)) <= 1e-6
    assert np.linalg.norm(bellman.bellman_gradient(demo_sys, k_star).grad) <= 1e-6
