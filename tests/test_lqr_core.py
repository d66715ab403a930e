"""Instance validation, stability predicates, value solves, and the
policy-iteration oracle."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gainflow import bellman, cost_flow, kernel, lqr_core, matlin
from gainflow.errors import MaxIterExceeded, NotInSigmaSet, NotStabilizing, SingularMatrix
from gainflow.lqr_core import SystemInstance

P_DEMO_AT_ORIGIN = np.array([[1.0 / 4.0, 1.0 / 12.0], [1.0 / 12.0, 7.0 / 12.0]])


class TestSystemInstance:
    def test_rejects_zero_b(self):
        with pytest.raises(ValueError):
            SystemInstance(a=[[1.0]], b=[[0.0]], q=[[1.0]], r=[[1.0]])

    def test_rejects_zero_q(self):
        with pytest.raises(ValueError):
            SystemInstance(a=[[1.0]], b=[[1.0]], q=[[0.0]], r=[[1.0]])

    def test_rejects_indefinite_q(self):
        with pytest.raises(ValueError):
            SystemInstance(a=np.eye(2), b=np.ones((2, 1)), q=np.diag([1.0, -1.0]), r=[[1.0]])

    def test_rejects_semidefinite_r(self):
        with pytest.raises(ValueError):
            SystemInstance(a=[[1.0]], b=[[1.0]], q=[[1.0]], r=[[0.0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            SystemInstance(a=np.eye(2), b=np.ones((3, 1)), q=np.eye(2), r=[[1.0]])

    def test_dimensions(self, demo_sys):
        assert demo_sys.n == 2
        assert demo_sys.m == 1


class TestCheckAssumptions:
    def test_demo_system(self, demo_sys):
        report = lqr_core.check_assumptions(demo_sys)
        assert report.stabilizable and report.detectable

    def test_unreachable_mode(self):
        # unstable second mode that b cannot reach
        sys_ = SystemInstance(a=np.diag([1.0, 1.0]), b=[[1.0], [0.0]], q=np.eye(2), r=[[1.0]])
        report = lqr_core.check_assumptions(sys_)
        assert not report.stabilizable

    def test_hurwitz_a_trivially_passes(self, rng):
        sys_ = SystemInstance(a=-np.eye(3) + 0.1 * rng.standard_normal((3, 3)),
                              b=rng.standard_normal((3, 2)), q=np.eye(3), r=np.eye(2))
        if matlin.spectrum(sys_.a).abscissa < -1e-9:
            report = lqr_core.check_assumptions(sys_)
            assert report.stabilizable and report.detectable

    def test_undetectable_mode(self):
        # q sees only the first state; the unstable second mode is invisible
        sys_ = SystemInstance(a=np.diag([-1.0, 1.0]), b=[[1.0], [1.0]],
                              q=np.diag([1.0, 0.0]), r=[[1.0]])
        report = lqr_core.check_assumptions(sys_)
        assert report.stabilizable and not report.detectable


class TestClosedLoopAndSets:
    def test_demo_origin_in_k(self, demo_sys):
        assert lqr_core.in_stabilizing_set(demo_sys, [[0.0, 0.0]])
        assert lqr_core.in_sigma_set(demo_sys, [[0.0, 0.0]])

    def test_demo_boundary(self, demo_sys):
        k = [[0.0, -1.0]]  # on k2 = -k1 - 1
        assert not lqr_core.in_stabilizing_set(demo_sys, k)
        assert not lqr_core.in_sigma_set(demo_sys, k)

    def test_unstable_but_sigma(self):
        sys_ = SystemInstance(a=[[1.0]], b=[[1.0]], q=[[1.0]], r=[[1.0]])
        assert not lqr_core.in_stabilizing_set(sys_, [[0.0]])
        assert lqr_core.in_sigma_set(sys_, [[0.0]])

    def test_stabilizing_implies_sigma(self, rng):
        for _ in range(100):
            sys_, k = helpers.stabilizing_pair(rng, int(rng.integers(1, 5)), 1)
            assert lqr_core.in_sigma_set(sys_, k)


class TestValueSolve:
    def test_demo_origin(self, demo_sys):
        sol = lqr_core.solve_value_lyapunov(demo_sys, [[0.0, 0.0]])
        assert np.allclose(sol.p, P_DEMO_AT_ORIGIN, atol=1e-13)
        assert np.array_equal(sol.p, sol.p.T)

    def test_scalar(self, scalar_sys):
        sol = lqr_core.solve_value_lyapunov(scalar_sys, [[0.0]])
        assert abs(sol.p[0, 0] - 0.5) < 1e-14

    def test_identity_load(self):
        # A = -I, Q + K^T R K = 2 I at K = 0  =>  P = I
        sys_ = SystemInstance(a=-np.eye(2), b=np.ones((2, 1)), q=2.0 * np.eye(2), r=[[1.0]])
        sol = lqr_core.solve_value_lyapunov(sys_, np.zeros((1, 2)))
        assert np.allclose(sol.p, np.eye(2), atol=1e-14)

    def test_boundary_raises(self, demo_sys):
        with pytest.raises(NotInSigmaSet):
            lqr_core.solve_value_lyapunov(demo_sys, [[0.0, -1.0]])

    def test_residual_and_psd_on_random_stabilizing(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, min(n, 3) + 1))
            sys_, k = helpers.stabilizing_pair(rng, n, m, identity_weights=False)
            sol = lqr_core.solve_value_lyapunov(sys_, k)
            assert sol.lyap_residual <= 1e-9 * (1.0 + np.linalg.norm(sol.p))
            assert matlin.min_eig_sym(sol.p) >= -1e-9
            assert np.array_equal(sol.p, sol.p.T)


class TestCareResidual:
    def test_zero_p(self, demo_sys):
        assert np.array_equal(lqr_core.care_residual(demo_sys, np.zeros((2, 2))), demo_sys.q)

    def test_scalar_root(self, scalar_sys):
        p = np.array([[np.sqrt(2.0) - 1.0]])
        assert abs(lqr_core.care_residual(scalar_sys, p)[0, 0]) < 1e-15


class TestKleinman:
    def test_scalar(self, scalar_sys):
        result = lqr_core.kleinman(scalar_sys, [[0.0]], tol=1e-14)
        assert abs(result.k_star[0, 0] - (np.sqrt(2.0) - 1.0)) < 1e-12
        assert abs(result.p_star[0, 0] - (np.sqrt(2.0) - 1.0)) < 1e-12

    def test_fixed_point_start(self, demo_sys):
        k_star = lqr_core.kleinman(demo_sys, [[0.0, 0.0]], tol=1e-12).k_star
        again = lqr_core.kleinman(demo_sys, k_star)
        assert again.iterations == 1
        assert np.linalg.norm(again.k_star - k_star) < 1e-9

    def test_demo_cross_checked_against_gradient(self, demo_sys):
        result = lqr_core.kleinman(demo_sys, [[0.0, 0.0]])
        assert result.residual <= 1e-10
        grad = bellman.bellman_gradient(demo_sys, result.k_star).grad
        assert np.linalg.norm(grad) <= 1e-8

    def test_gain_consistency_on_random(self, rng):
        for _ in range(25):
            sys_, k0 = helpers.stabilizing_pair(rng, int(rng.integers(2, 5)), 1)
            result = lqr_core.kleinman(sys_, k0)
            update = matlin.solve_linear(sys_.r, sys_.b.T @ result.p_star)
            assert np.linalg.norm(result.k_star - update) <= 1e-10
            assert np.linalg.norm(lqr_core.care_residual(sys_, result.p_star)) <= 1e-8

    def test_iterates_monotone_in_psd_order(self, rng):
        # replicate the iteration by hand and check P_0 >= P_1 >= ... >= P*
        for _ in range(10):
            sys_, k = helpers.stabilizing_pair(rng, 3, 1)
            prev = None
            for _ in range(6):
                p = lqr_core.solve_value_lyapunov(sys_, k).p
                if prev is not None:
                    assert matlin.min_eig_sym(prev - p) >= -1e-8
                prev = p
                k = matlin.solve_linear(sys_.r, sys_.b.T @ p)

    def test_residual_history_decreasing(self, rng):
        for _ in range(10):
            sys_, k0 = helpers.stabilizing_pair(rng, 3, 2)
            hist = lqr_core.kleinman(sys_, k0).residual_history
            assert all(b <= a for a, b in zip(hist[1:], hist[2:]))

    def test_not_stabilizing(self):
        sys_ = SystemInstance(a=[[1.0]], b=[[1.0]], q=[[1.0]], r=[[1.0]])
        with pytest.raises(NotStabilizing):
            lqr_core.kleinman(sys_, [[0.0]])

    def test_max_iter_exceeded(self, demo_sys):
        with pytest.raises(MaxIterExceeded):
            lqr_core.kleinman(demo_sys, [[0.0, 0.0]], tol=0.0, max_iter=3)


def test_demo_optimal_loop_is_stable(demo_sys):
    k_star = lqr_core.kleinman(demo_sys, [[0.0, 0.0]]).k_star
    assert matlin.spectrum(demo_sys.a - demo_sys.b @ k_star).abscissa < 0.0


def test_lyapunov_solve_matches_kron_formula(rng):
    # a nonsymmetric load pins the Kronecker and column-stacking layout
    for n in range(1, 7):
        a = rng.standard_normal((n, n))
        a -= (max(0.0, matlin.spectrum(a).abscissa) + 1.0) * np.eye(n)
        load = rng.standard_normal((n, n))
        x = lqr_core.lyapunov_solve(a, load)
        assert np.linalg.norm(a @ x + x @ a.T + load) <= 1e-9 * (1.0 + np.linalg.norm(x))
        reference = scipy.linalg.solve_continuous_lyapunov(a, -load)
        assert np.linalg.norm(x - reference) <= 1e-10 * np.linalg.norm(reference)


@pytest.mark.parametrize("evaluate", [
    bellman.bellman_error, bellman.bellman_gradient, lqr_core.solve_value_lyapunov,
    cost_flow.lqr_cost, cost_flow.lqr_gradient, cost_flow.natural_gradient,
])
def test_one_spectrum_per_evaluation(demo_sys, monkeypatch, evaluate):
    # a stabilizing gain is in the sigma set, so one domain check suffices
    calls = []
    spectrum = matlin.spectrum
    monkeypatch.setattr(matlin, "spectrum", lambda a: calls.append(a) or spectrum(a))
    evaluate(demo_sys, [[0.3, 0.2]])
    assert len(calls) == 1


# Stacked evaluation: random 2..4-state instances with SPD weights, and gain
# stacks that mix gains around a stabilizing one with wide standard-normal
# draws, most of them unstable.
stacked_cases = st.tuples(st.integers(2, 4), st.integers(1, 3), st.integers(1, 12),
                          st.integers(0, 2**32 - 1))


def value_matrices(sys_, ks):
    """(P, singular) of a gain stack from the kernel's value step: P[i] is
    NaN where the pivot check flags the value equation of ks[i]."""
    ev = kernel.values(sys_, ks)
    p = np.full((len(ks), sys_.n, sys_.n), np.nan)
    p[ev.rows] = ev.p
    return p, ev.cause == kernel.SINGULAR


def _instance_and_stack(n, m, size, seed):
    rng = np.random.default_rng(seed)
    sys_, k_stab = helpers.stabilizing_pair(rng, n, min(m, n), identity_weights=False)
    near = k_stab + 0.1 * rng.standard_normal((size, sys_.m, n))
    wide = 3.0 * rng.standard_normal((size, sys_.m, n))
    return sys_, np.concatenate([k_stab[None], near, wide])


@given(case=stacked_cases)
@settings(max_examples=40, deadline=None)
def test_stacked_evaluation_equals_per_gain(case):
    sys_, ks = _instance_and_stack(*case)
    abscissa, stable, in_sigma = lqr_core.gain_domain(sys_, ks)
    p, singular = value_matrices(sys_, ks)
    residual = lqr_core.care_residual(sys_, p[~singular])
    solved = iter(residual)
    for i, k in enumerate(ks):
        assert (abscissa[i], stable[i], in_sigma[i]) == lqr_core.gain_domain(sys_, k)
        if not singular[i]:
            assert next(solved).tobytes() == lqr_core.care_residual(sys_, p[i]).tobytes()
        if not in_sigma[i]:
            continue
        try:
            want = lqr_core.solve_value_lyapunov(sys_, k).p
        except SingularMatrix:
            assert singular[i]
            continue
        assert not singular[i]
        assert p[i].tobytes() == want.tobytes()


@given(case=stacked_cases, order_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_stacked_evaluation_does_not_depend_on_order(case, order_seed):
    sys_, ks = _instance_and_stack(*case)
    perm = np.random.default_rng(order_seed).permutation(len(ks))
    undo = np.argsort(perm)
    p, singular = value_matrices(sys_, ks)
    p_perm, singular_perm = value_matrices(sys_, ks[perm])
    assert p_perm[undo].tobytes() == p.tobytes()
    assert np.array_equal(singular_perm[undo], singular)
    domain = lqr_core.gain_domain(sys_, ks)
    domain_perm = lqr_core.gain_domain(sys_, ks[perm])
    assert all(np.array_equal(x[undo], y) for x, y in zip(domain_perm, domain))


@given(case=stacked_cases)
@settings(max_examples=40, deadline=None)
def test_stabilizing_implies_sigma_set(case):
    sys_, ks = _instance_and_stack(*case)
    _, stable, in_sigma = lqr_core.gain_domain(sys_, ks)
    assert stable[0] and in_sigma[stable].all()
    for k in ks[stable]:
        assert lqr_core.in_stabilizing_set(sys_, k) and lqr_core.in_sigma_set(sys_, k)


def test_value_matrices_flags_singular_gain(demo_sys):
    # [[0.3, -1.3]] puts the demo closed loop on the sigma-set boundary
    ks = np.array([[[0.0, 0.0]], [[0.3, -1.3]], [[1.0, 0.5]]])
    p, singular = value_matrices(demo_sys, ks)
    assert singular.tolist() == [False, True, False]
    assert np.isnan(p[1]).all()
    assert np.array_equal(p[0], lqr_core.solve_value_lyapunov(demo_sys, [[0.0, 0.0]]).p)
    assert np.allclose(p[0], P_DEMO_AT_ORIGIN, atol=1e-15)
