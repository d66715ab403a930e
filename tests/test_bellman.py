"""Bellman error, its gradient, and the hard-coded closed form for the
demo system. Expected values were derived by hand (value solve, residual
matrix, trace) and the gradient is cross-checked against central finite
differences as the independent oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gainflow import bellman, lqr_core, matlin
from gainflow.errors import NotInSigmaSet, NotStabilizing
from gainflow.lqr_core import SystemInstance


class TestBellmanError:
    def test_demo_origin_is_5_18(self, demo_sys):
        ev = bellman.bellman_error(demo_sys, [[0.0, 0.0]])
        assert abs(ev.e - 5.0 / 18.0) < 1e-12
        # at K = 0 the residual matrix reduces to -P B R^{-1} B^T P
        p = ev.p.p
        expected_m = -p @ demo_sys.b @ demo_sys.b.T @ p / 2.0
        assert np.allclose(ev.m_matrix, expected_m, atol=1e-12)
        assert ev.form_gap < 1e-12

    def test_scalar_hand_value(self, scalar_sys):
        ev = bellman.bellman_error(scalar_sys, [[0.0]])
        assert abs(ev.e - 0.25) < 1e-14
        assert abs(ev.m_matrix[0, 0] + 0.25) < 1e-14

    def test_vanishes_at_optimum(self, demo_sys):
        k_star = lqr_core.kleinman(demo_sys, [[0.0, 0.0]]).k_star
        ev = bellman.bellman_error(demo_sys, k_star)
        assert ev.e <= 1e-10
        assert np.linalg.norm(ev.m_matrix) <= 1e-10

    def test_unstable_gain_in_sigma_set(self):
        # A_K = 1 is unstable yet the error is finite and nonnegative
        sys_ = SystemInstance(a=[[1.0]], b=[[1.0]], q=[[1.0]], r=[[1.0]])
        ev = bellman.bellman_error(sys_, [[0.0]])
        assert abs(ev.e - 0.25) < 1e-14
        assert ev.e >= 0.0

    def test_boundary_raises(self, demo_sys):
        with pytest.raises(NotInSigmaSet):
            bellman.bellman_error(demo_sys, [[0.0, -1.0]])

    def test_e_equals_negative_trace(self, rng):
        for _ in range(50):
            sys_, k = helpers.stabilizing_pair(rng, 3, 1, identity_weights=False)
            ev = bellman.bellman_error(sys_, k)
            assert ev.e == -float(np.trace(ev.m_matrix))

    def test_form_equivalence_and_sign_on_sigma_set(self, demo_sys, rng):
        # both residual forms agree and M stays negative semidefinite,
        # including on non-stabilizing gains inside the effective domain
        systems = [demo_sys] + [
            helpers.random_admissible_system(rng, 2 + i % 3, 1 + i % 2,
                                             identity_weights=(i % 2 == 0))
            for i in range(6)
        ]
        seen_unstable = 0
        count = 0
        while count < 200:
            sys_ = systems[count % len(systems)]
            k = helpers.sigma_set_gain(rng, sys_)
            ev = bellman.bellman_error(sys_, k)
            count += 1
            if not lqr_core.in_stabilizing_set(sys_, k):
                seen_unstable += 1
            scale = 1.0 + np.linalg.norm(ev.m_matrix)
            assert ev.form_gap <= 1e-9 * scale
            assert ev.e >= -1e-10
            assert np.linalg.eigvalsh(ev.m_matrix / scale).max() <= 1e-8
        assert seen_unstable > 10  # the box sampling really leaves the stable region


class TestBellmanGradient:
    def test_scalar_hand_value(self, scalar_sys):
        out = bellman.bellman_gradient(scalar_sys, [[0.0]])
        assert abs(out.grad[0, 0] + 1.5) < 1e-9
        assert abs(out.x_matrix[0, 0] + 0.75) < 1e-12
        assert abs(out.a_tilde[0, 0] + 1.5) < 1e-12

    def test_demo_matches_finite_differences(self, demo_sys):
        k = np.array([[0.0, 0.0]])
        grad = bellman.bellman_gradient(demo_sys, k).grad
        fd = helpers.fd_gradient(lambda kk: bellman.bellman_error(demo_sys, kk).e, k)
        assert helpers.rel_err(grad, fd) <= 1e-4

    def test_vanishes_at_optimum(self, demo_sys):
        k_star = lqr_core.kleinman(demo_sys, [[0.0, 0.0]]).k_star
        assert np.linalg.norm(bellman.bellman_gradient(demo_sys, k_star).grad) <= 1e-6

    def test_refuses_unstable_gain(self):
        sys_ = SystemInstance(a=[[1.0]], b=[[1.0]], q=[[1.0]], r=[[1.0]])
        with pytest.raises(NotStabilizing):
            bellman.bellman_gradient(sys_, [[0.0]])

    def test_against_finite_differences_on_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, min(n, 3) + 1))
            sys_, k = helpers.stabilizing_pair(rng, n, m, identity_weights=False)
            grad = bellman.bellman_gradient(sys_, k).grad
            fd = helpers.fd_gradient(lambda kk: bellman.bellman_error(sys_, kk).e, k)
            assert helpers.rel_err(grad, fd) <= 1e-4

    def test_x_matrix_properties(self, rng):
        for _ in range(50):
            sys_, k = helpers.stabilizing_pair(rng, 3, 2, identity_weights=False)
            out = bellman.bellman_gradient(sys_, k)
            a_k = sys_.a - sys_.b @ k
            load = matlin._sym(out.a_tilde)
            residual = np.linalg.norm(a_k @ out.x_matrix + out.x_matrix @ a_k.T + load)
            assert residual <= 1e-9 * (1.0 + np.linalg.norm(out.x_matrix))
            svals = np.linalg.svd(out.x_matrix, compute_uv=False)
            assert svals.min() > 1e-10 * svals.max()

    def test_oracle_gain_is_the_only_nearby_stationary_point(self, rng):
        for _ in range(10):
            sys_, k0 = helpers.stabilizing_pair(rng, 3, 1)
            res = lqr_core.kleinman(sys_, k0, tol=1e-13)
            assert np.linalg.norm(bellman.bellman_gradient(sys_, res.k_star).grad) <= 1e-6
            for _ in range(5):  # the gradient is nonzero away from the optimum
                delta = 0.1 * rng.standard_normal(res.k_star.shape)
                k = res.k_star + delta
                if not lqr_core.in_stabilizing_set(sys_, k):
                    continue
                assert np.linalg.norm(bellman.bellman_gradient(sys_, k).grad) > 1e-6


class TestClosedForm2d:
    def test_origin(self):
        assert abs(helpers.bellman_error_closed_form_2d(0.0, 0.0) - 5.0 / 18.0) < 1e-15

    def test_boundary_divides_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            helpers.bellman_error_closed_form_2d(0.0, -1.0)
        with pytest.raises(ZeroDivisionError):
            helpers.bellman_error_closed_form_2d(1.5, -2.5)

    def test_matches_pipeline_on_stable_gains(self, demo_sys, rng):
        count = 0
        while count < 100:
            k1, k2 = 6.0 * rng.random(2) - 3.0
            if k2 <= -k1 - 1.0 + 1e-6:
                continue
            count += 1
            via_pipeline = bellman.bellman_error(demo_sys, [[k1, k2]]).e
            via_formula = helpers.bellman_error_closed_form_2d(k1, k2)
            assert abs(via_pipeline - via_formula) <= 1e-8 * max(1.0, abs(via_formula))

    def test_coercive_along_boundary_ray(self, demo_sys):
        values = [bellman.bellman_error(demo_sys, [[0.0, -1.0 + 10.0 ** (-s)]]).e for s in range(1, 5)]
        assert all(b > a for a, b in zip(values, values[1:]))


# The paper's claim e_K >= 0 on the sigma set, as far as rounding lets the
# direct residual form show it: random 2..4-state instances with SPD
# weights, each at a random sigma-set gain, stable or not. The factored form
# -tr(G^T R G) is nonpositive, and |tr X| <= sqrt(n) ||X||, so e_K can fall
# below zero by at most sqrt(n) form_gap; form_gap itself is rounding of the
# residual's terms.
@given(case=st.tuples(st.integers(2, 4), st.integers(1, 2), st.integers(0, 2**32 - 1)))
@settings(max_examples=60, deadline=None)
def test_error_is_nonnegative_up_to_the_form_gap(case):
    n, m, seed = case
    rng = np.random.default_rng(seed)
    sys_ = helpers.random_admissible_system(rng, n, m, identity_weights=False)
    ev = bellman.bellman_error(sys_, helpers.sigma_set_gain(rng, sys_))
    p = ev.p.p
    scale = (2.0 * np.linalg.norm(sys_.a.T @ p) + np.linalg.norm(sys_.q)
             + np.linalg.norm(p @ sys_.b) ** 2 / np.linalg.eigvalsh(sys_.r).min())
    assert ev.form_gap <= 1e-13 * scale
    assert ev.e >= -np.sqrt(n) * ev.form_gap
