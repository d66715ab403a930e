"""Dense real-matrix kernel: pivot-checked linear solves, eigenvalues, and
definiteness tests.

Matrices are plain 2-d float64 numpy arrays; spectrum also takes (B, N, N)
stacks over a leading axis and treats each slice exactly as it treats one
matrix. Every linear solve is one LAPACK dgesv call per slice, a lone matrix
being the stack of one. All functions are pure and never mutate their
arguments; non-finite entries are rejected at the door.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import NoConvergence, NotSymmetric, SingularMatrix


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the package.

    pivot_rel          LU pivot below pivot_rel * max|entry| means singular
    symmetry_rel       allowed relative asymmetry before NotSymmetric
    psd                eigenvalue slack of a positive semidefinite test
    stability_margin   spectral abscissa must sit below -stability_margin
    sigma_margin       min |lambda_i + lambda_j| for a solvable value equation
    rank_rel           singular values below rank_rel * s_max do not count
    """

    pivot_rel: float = 1e-13
    symmetry_rel: float = 1e-10
    psd: float = 1e-10
    stability_margin: float = 1e-9
    sigma_margin: float = 1e-9
    rank_rel: float = 1e-9


TOL = Tolerances()


@dataclass(frozen=True)
class Spectrum:
    """Full eigenvalue set of a real square matrix.

    eigenvalues are sorted by (real, imag) so identical inputs always
    produce identical output; abscissa is the largest real part.
    """

    eigenvalues: np.ndarray
    abscissa: float


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d float64 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {m.shape}")
    return as_stack(m, name)


def as_stack(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d float64 matrix or a 3-d stack of them, rejecting
    non-finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim not in (2, 3):
        raise ValueError(f"{name} must be 2-d or a 3-d stack, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _require_square(m: np.ndarray, name: str) -> np.ndarray:
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def solve_linear(m, rhs, tol: Tolerances = TOL):
    """Solve m x = rhs for one N x N matrix m by LU with partial pivoting.

    rhs is an N-vector, an N x K matrix, or a (B, N, K) stack of right-hand
    sides. Raises SingularMatrix when any pivot falls below
    tol.pivot_rel * max|entry of m|.

    Each right-hand side, a lone one as the stack of one, is one LAPACK
    dgesv call, so a slice's solution is the lone solution bit for bit.
    (NumPy's bundled OpenBLAS is a different build from SciPy's, and
    np.linalg.solve differs from it in the last bits from N = 9 on.)
    """
    a = _require_square(as_matrix(m, "m"), "m")
    b = np.asarray(rhs, dtype=float)
    lone = b.ndim < 3
    if lone:
        a, b = a[None], b[None]
    if b.ndim not in (2, 3) or b.shape[1] != a.shape[-1]:
        raise ValueError(f"rhs of shape {b.shape} does not fit a matrix of shape {a.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("rhs contains non-finite entries")
    if a.shape[-1] == 0:
        raise SingularMatrix("empty matrix")
    x, singular = _solve_slices(a, b, tol)
    if singular.any():
        raise SingularMatrix(f"pivot below {tol.pivot_rel:.0e} * max|entry|")
    return x[0] if lone else x


def _solve_slices(a: np.ndarray, b: np.ndarray, tol: Tolerances = TOL):
    """Solve each slice of a (B, N, N) stack against the matching slice of
    b, (B, N) or (B, N, K), or one N x N matrix against every slice of b,
    without input checks: (x, singular), NaN in flagged slices.

    Each slice is one LAPACK dgesv call (dgetrf then dgetrs in one call:
    bitwise the same factors and solution). A pivot at or below
    tol.pivot_rel * max|entry of the slice| flags the slice; that catches an
    exactly zero pivot (LAPACK info > 0) too.
    """
    if a.ndim == 2:
        a = np.broadcast_to(a, b.shape[:1] + a.shape)
    # copies whose slices are Fortran-ordered float64, which dgesv factors
    # and solves in place
    lu = a.swapaxes(1, 2).copy().swapaxes(1, 2)
    x = b.copy() if b.ndim == 2 else b.swapaxes(1, 2).copy().swapaxes(1, 2)
    for lu_i, x_i in zip(lu, x):
        info = lapack.dgesv(lu_i, x_i, 1, 1)[3]  # overwrite_a, overwrite_b
        if info < 0:
            raise ValueError(f"dgesv: illegal argument {-info}")
    pivots = np.abs(lu.diagonal(axis1=1, axis2=2)).min(axis=1)
    singular = pivots <= tol.pivot_rel * np.abs(a).max(axis=(1, 2))
    x = np.ascontiguousarray(x)
    if singular.any():
        x[singular] = np.nan
    return x, singular


def spectrum(a) -> Spectrum:
    """All eigenvalues of a real square matrix, deterministically ordered.

    For a (B, n, n) stack, eigenvalues is (B, n), sorted per slice, and
    abscissa a (B,) array.
    """
    m = _require_square(as_stack(a, "a"), "a")
    if m.shape[-1] == 0:
        raise ValueError("spectrum of an empty matrix is undefined")
    try:
        eigs = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((eigs.imag, eigs.real))
    if m.ndim == 2:
        eigs = eigs[order]
        return Spectrum(eigenvalues=eigs, abscissa=float(eigs.real.max()))
    eigs = np.take_along_axis(eigs, order, axis=-1)
    return Spectrum(eigenvalues=eigs, abscissa=eigs.real.max(axis=-1))


def _sym(m: np.ndarray) -> np.ndarray:
    """Symmetric part (m + m^T) / 2, of one square matrix or of each in a
    stack; no input checks."""
    return (m + m.swapaxes(-1, -2)) / 2.0


def _require_symmetric(a, name: str, tol: Tolerances = TOL) -> np.ndarray:
    m = _require_square(as_matrix(a, name), name)
    defect = np.linalg.norm(m - m.T)
    if defect > tol.symmetry_rel * np.linalg.norm(m):
        raise NotSymmetric(f"{name} asymmetry {defect:.3e} exceeds tolerance")
    return m


def min_eig_sym(a, name: str = "a") -> float:
    """Smallest eigenvalue of a symmetric matrix; a NotSymmetric error calls
    it name."""
    m = _require_symmetric(a, name)
    return float(np.linalg.eigvalsh(_sym(m)).min())
