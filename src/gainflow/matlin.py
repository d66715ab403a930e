"""Dense real-matrix kernel: pivot-checked linear solves, eigenvalues, and
definiteness tests.

Matrices are plain 2-d float64 numpy arrays; solve_linear, spectrum and
sym_part also take (B, N, N) stacks over a leading axis and treat each slice
exactly as they treat one matrix. All functions are pure and never mutate
their arguments; non-finite entries are rejected at the door.
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
    pairing            conjugate-pair matching slack for real-matrix spectra
    psd                default eigenvalue slack for is_psd
    stability_margin   spectral abscissa must sit below -stability_margin
    sigma_margin       min |lambda_i + lambda_j| for a solvable value equation
    rank_rel           singular values below rank_rel * s_max do not count
    lyap_residual_rel  plugged-back Lyapunov residual bound, relative
    """

    pivot_rel: float = 1e-13
    symmetry_rel: float = 1e-10
    pairing: float = 1e-9
    psd: float = 1e-10
    stability_margin: float = 1e-9
    sigma_margin: float = 1e-9
    rank_rel: float = 1e-9
    lyap_residual_rel: float = 1e-9


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
    """Solve m x = rhs by LU with partial pivoting.

    For one N x N matrix, rhs is an N-vector, an N x K matrix, or a (B, N, K)
    stack of right-hand sides; returns x and raises SingularMatrix when any
    pivot falls below tol.pivot_rel * max|entry of m|.

    For a (B, N, N) stack, rhs is (B, N) or (B, N, K); returns (x, singular)
    with the same pivot rule applied to each slice. Flagged slices are not
    solved and come back NaN.

    Every slice goes through the same LAPACK calls as a lone matrix, so its
    solution is the 2-d solution bit for bit. (NumPy's bundled OpenBLAS is a
    different build from SciPy's, and np.linalg.solve differs from it in the
    last bits from N = 9 on.)
    """
    a = _require_square(as_stack(m, "m"), "m")
    b = np.asarray(rhs, dtype=float)
    if a.ndim == 3 or b.ndim == 3:
        return _solve_stack(a, b, tol)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"rhs has {b.shape[0]} rows, matrix has {a.shape[0]}")
    if not np.all(np.isfinite(b)):
        raise ValueError("rhs contains non-finite entries")
    return _lu_solve(*_lu_factor(a, tol), b)


def _solve_stack(a: np.ndarray, b: np.ndarray, tol: Tolerances):
    stacks_differ = a.ndim == 3 and b.shape[:1] != a.shape[:1]
    if b.ndim not in (2, 3) or b.shape[1] != a.shape[-1] or stacks_differ:
        raise ValueError(f"rhs of shape {b.shape} does not fit a matrix of shape {a.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("rhs contains non-finite entries")
    if a.ndim == 2:
        lu, piv = _lu_factor(a, tol)
        return np.array([_lu_solve(lu, piv, b_i) for b_i in b]).reshape(b.shape)
    if a.shape[-1] == 0:
        raise SingularMatrix("empty matrix")
    return _solve_slices(a, b, tol)


def _solve_slices(a: np.ndarray, b: np.ndarray, tol: Tolerances = TOL):
    """solve_linear on a (B, N, N) stack without its input checks:
    (x, singular), NaN in flagged slices.

    Each slice is one LAPACK dgesv call, which is dgetrf then dgetrs in one
    call: its factors and solution equal theirs bit for bit.
    """
    lu, x = np.empty(a.shape), np.empty(b.shape)
    for i, (a_i, b_i) in enumerate(zip(a, b)):
        lu[i], _, x[i], info = lapack.dgesv(a_i, b_i)
        if info < 0:
            raise ValueError(f"dgesv: illegal argument {-info}")
    # the pivot rule of _lu_factor, for all slices at once (an exactly zero
    # pivot, LAPACK info > 0, is caught here too)
    pivots = np.abs(np.diagonal(lu, axis1=1, axis2=2)).min(axis=1)
    singular = pivots <= tol.pivot_rel * np.abs(a).max(axis=(1, 2))
    x[singular] = np.nan
    return x, singular


def _lu_factor(a: np.ndarray, tol: Tolerances):
    if a.size == 0:
        raise SingularMatrix("empty matrix")
    # LAPACK dgetrf, as scipy.linalg.lu_factor calls it; an exactly zero
    # pivot (info > 0) is left to the pivot scan below
    lu, piv, info = lapack.dgetrf(a)
    if info < 0:
        raise ValueError(f"dgetrf: illegal argument {-info}")
    pivots = np.abs(np.diag(lu))
    threshold = tol.pivot_rel * np.abs(a).max()
    if pivots.min() <= threshold:
        raise SingularMatrix(f"pivot {pivots.min():.3e} below threshold {threshold:.3e}")
    return lu, piv


def _lu_solve(lu: np.ndarray, piv: np.ndarray, b: np.ndarray) -> np.ndarray:
    # LAPACK dgetrs, as scipy.linalg.lu_solve calls it; one right-hand side
    # block per call, because dgetrs on a wider block can round differently
    x, info = lapack.dgetrs(lu, piv, b)
    if info < 0:
        raise ValueError(f"dgetrs: illegal argument {-info}")
    return x


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


def sym_part(a) -> np.ndarray:
    """Symmetric part (a + a^T) / 2, of one matrix or of each in a stack."""
    return _sym(_require_square(as_stack(a, "a"), "a"))


def _sym(m: np.ndarray) -> np.ndarray:
    """sym_part without its input checks."""
    return (m + m.swapaxes(-1, -2)) / 2.0


def _require_symmetric(a, name: str, tol: Tolerances = TOL) -> np.ndarray:
    m = _require_square(as_matrix(a, name), name)
    defect = np.linalg.norm(m - m.T)
    if defect > tol.symmetry_rel * np.linalg.norm(m):
        raise NotSymmetric(f"{name} asymmetry {defect:.3e} exceeds tolerance")
    return m


def min_eig_sym(a) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    m = _require_symmetric(a, "a")
    return float(np.linalg.eigvalsh(sym_part(m)).min())


def is_psd(a, tol: float = TOL.psd) -> bool:
    """True when every eigenvalue of the symmetric matrix a is >= -tol."""
    return min_eig_sym(a) >= -tol
