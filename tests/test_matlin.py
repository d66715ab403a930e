"""Matrix-kernel tests: hand cases plus algebraic property checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainflow import matlin
from gainflow.errors import NotSymmetric, SingularMatrix

dims = st.integers(min_value=1, max_value=5)


def test_solve_identity():
    b = np.array([[1.0], [2.0], [3.0]])
    assert np.allclose(matlin.solve_linear(np.eye(3), b), b)


def test_solve_diagonal():
    x = matlin.solve_linear([[2.0, 0.0], [0.0, 4.0]], np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0])


def test_solve_singular_raises():
    with pytest.raises(SingularMatrix):
        matlin.solve_linear([[1.0, 2.0], [2.0, 4.0]], np.array([1.0, 1.0]))


def test_solve_shape_checks():
    with pytest.raises(ValueError):
        matlin.solve_linear(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        matlin.solve_linear(np.eye(2), np.ones(3))


def test_spectrum_triangular():
    sp = matlin.spectrum(np.diag([-2.0, -1.0]))
    assert np.allclose(sorted(sp.eigenvalues.real), [-2.0, -1.0])
    assert abs(sp.abscissa + 1.0) < 1e-14


def test_spectrum_rotation():
    sp = matlin.spectrum([[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(sorted(sp.eigenvalues.imag), [-1.0, 1.0])
    assert abs(sp.abscissa) < 1e-12


def test_spectrum_trace_det(rng):
    for n in (2, 3):
        for _ in range(50):
            a = rng.standard_normal((n, n))
            eigs = matlin.spectrum(a).eigenvalues
            assert abs(eigs.sum().real - np.trace(a)) <= 1e-9 * max(1.0, abs(np.trace(a)))
            assert abs(eigs.sum().imag) <= 1e-9
            det = np.linalg.det(a)
            assert abs(np.prod(eigs) - det) <= 1e-9 * max(1.0, abs(det))


def test_spectrum_conjugate_pairs(rng):
    for _ in range(50):
        a = rng.standard_normal((4, 4))
        eigs = list(matlin.spectrum(a).eigenvalues)
        while eigs:
            lam = eigs.pop()
            if abs(lam.imag) <= 1e-9:
                continue
            match = min(range(len(eigs)), key=lambda i: abs(eigs[i] - lam.conjugate()))
            assert abs(eigs[match] - lam.conjugate()) <= 1e-9
            eigs.pop(match)


def test_spectrum_deterministic(rng):
    a = rng.standard_normal((5, 5))
    assert np.array_equal(matlin.spectrum(a).eigenvalues, matlin.spectrum(a).eigenvalues)


def test_sym_part_hand():
    assert np.array_equal(matlin._sym(np.array([[0.0, 2.0], [0.0, 0.0]])),
                          [[0.0, 1.0], [1.0, 0.0]])


@given(dim=dims, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_sym_part_idempotent_trace_preserving(dim, seed):
    a = np.random.default_rng(seed).standard_normal((dim, dim))
    s = matlin._sym(a)
    assert np.array_equal(matlin._sym(s), s)
    assert abs(np.trace(s) - np.trace(a)) <= 1e-12 * max(1.0, abs(np.trace(a)))


def test_min_eig_sym_requires_symmetry():
    with pytest.raises(NotSymmetric):
        matlin.min_eig_sym([[0.0, 1.0], [0.0, 0.0]])


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        matlin.as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        matlin.as_matrix([1.0, 2.0])


def test_tolerance_defaults():
    assert matlin.TOL.pivot_rel == 1e-13
    assert matlin.TOL.stability_margin == 1e-9
    assert matlin.TOL.sigma_margin == 1e-9


class TestStackedSolve:
    @pytest.mark.parametrize("n, rhs_cols", [(1, None), (4, None), (9, None), (16, 3)])
    def test_singular_middle_slice_flagged_alone(self, rng, n, rhs_cols):
        a = rng.standard_normal((7, n, n))
        a[3] = np.outer(rng.standard_normal(n), rng.standard_normal(n))  # rank one
        if n == 1:
            a[3] = 0.0
        shape = (7, n) if rhs_cols is None else (7, n, rhs_cols)
        b = rng.standard_normal(shape)
        x, singular = matlin._solve_slices(a, b)
        assert singular.tolist() == [False, False, False, True, False, False, False]
        assert np.isnan(x[3]).all()
        with pytest.raises(SingularMatrix):
            matlin.solve_linear(a[3], b[3])
        for i in (0, 1, 2, 4, 5, 6):
            assert np.array_equal(x[i], matlin.solve_linear(a[i], b[i]))

    def test_pivot_rule_is_relative_per_slice(self):
        # near-singular at scale 1 and at scale 1e8 is flagged; a tiny but
        # well-conditioned slice is not
        a = np.array([[[1.0, 1.0], [1.0, 1.0 + 1e-14]], [[1e8, 1e8], [1e8, 1e8 + 1e-6]],
                      1e-14 * np.eye(2)])
        _, singular = matlin._solve_slices(a, np.ones((3, 2)))
        assert singular.tolist() == [True, True, False]

    def test_one_matrix_many_right_hand_sides(self, rng):
        for n in (1, 2, 3):
            a = rng.standard_normal((n, n)) + n * np.eye(n)
            b = rng.standard_normal((11, n, 4))
            x = matlin.solve_linear(a, b)
            for i in range(11):
                assert np.array_equal(x[i], matlin.solve_linear(a, b[i]))

    def test_stack_shape_checks(self):
        with pytest.raises(ValueError):
            matlin.solve_linear(np.ones((3, 2, 2)), np.ones(2))
        with pytest.raises(ValueError):
            matlin.solve_linear(np.ones((3, 2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            matlin.solve_linear(np.ones((3, 2, 3)), np.ones((3, 2)))

    def test_spectrum_of_stack_matches_each_matrix(self, rng):
        a = rng.standard_normal((9, 3, 3))
        sp = matlin.spectrum(a)
        for i in range(9):
            one = matlin.spectrum(a[i])
            assert np.array_equal(sp.eigenvalues[i], one.eigenvalues)
            assert sp.abscissa[i] == one.abscissa

    def test_sym_part_of_stack_matches_each_matrix(self, rng):
        a = rng.standard_normal((5, 3, 3))
        s = matlin._sym(a)
        assert all(np.array_equal(s[i], matlin._sym(a[i])) for i in range(5))

    def test_empty_stack(self):
        x, singular = matlin._solve_slices(np.ones((0, 3, 3)), np.ones((0, 3)))
        assert x.shape == (0, 3) and singular.shape == (0,)
        assert matlin.solve_linear(np.eye(2), np.ones((0, 2, 5))).shape == (0, 2, 5)
