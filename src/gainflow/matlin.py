"""Dense real-matrix kernel: pivot-checked linear solves, eigenvalues, and
definiteness tests.

Matrices are plain 2-d float64 numpy arrays. All functions are pure and never
mutate their arguments; non-finite entries are rejected at the door.
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
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _require_square(m: np.ndarray, name: str) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def solve_linear(m, rhs, tol: Tolerances = TOL) -> np.ndarray:
    """Solve m x = rhs by LU with partial pivoting.

    Raises SingularMatrix when any pivot falls below
    tol.pivot_rel * max|entry of m|.
    """
    a = _require_square(as_matrix(m, "m"), "m")
    b = np.asarray(rhs, dtype=float)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"rhs has {b.shape[0]} rows, matrix has {a.shape[0]}")
    if not np.all(np.isfinite(b)):
        raise ValueError("rhs contains non-finite entries")
    if a.size == 0:
        raise SingularMatrix("empty matrix")
    # LAPACK dgetrf/dgetrs, as scipy.linalg.lu_factor/lu_solve call them; an
    # exactly zero pivot (info > 0) is left to the pivot scan below
    lu, piv, info = lapack.dgetrf(a)
    if info < 0:
        raise ValueError(f"dgetrf: illegal argument {-info}")
    pivots = np.abs(np.diag(lu))
    threshold = tol.pivot_rel * np.abs(a).max()
    if pivots.min() <= threshold:
        raise SingularMatrix(f"pivot {pivots.min():.3e} below threshold {threshold:.3e}")
    x, info = lapack.dgetrs(lu, piv, b)
    if info < 0:
        raise ValueError(f"dgetrs: illegal argument {-info}")
    return x


def spectrum(a) -> Spectrum:
    """All eigenvalues of a real square matrix, deterministically ordered."""
    m = _require_square(as_matrix(a, "a"), "a")
    if m.shape[0] == 0:
        raise ValueError("spectrum of an empty matrix is undefined")
    try:
        eigs = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order]
    return Spectrum(eigenvalues=eigs, abscissa=float(eigs.real.max()))


def sym_part(a) -> np.ndarray:
    """Symmetric part (a + a^T) / 2."""
    m = _require_square(as_matrix(a, "a"), "a")
    return (m + m.T) / 2.0


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
