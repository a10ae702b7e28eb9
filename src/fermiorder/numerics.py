"""Dense Hermitian linear algebra for small complex matrices.

Everything downstream (trace norms, negativity, trace distances) takes its
spectra from ``hermitian_eigenvalues``. That routine checks and Hermitizes
its input and then diagonalizes it with LAPACK through ``numpy.linalg.eigh``;
what it adds on top is the package's input contract, a fixed descending
order, and the reconstruction residual that says how far to trust a result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Absolute tolerance on matrix entries for Hermiticity and equality checks.
DEFAULT_TOL = 1e-12

#: Largest dimension the eigensolver accepts.
MAX_EIG_DIM = 4096


class NotHermitianError(ValueError):
    """The input matrix is not Hermitian within tolerance."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


def as_complex_matrix(m: np.ndarray) -> np.ndarray:
    """Validate and return ``m`` as a square complex128 array.

    Raises ``DimensionMismatchError`` for non-square input and ``ValueError``
    for NaN or infinite entries.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _check_hermitian(m: np.ndarray, tol: float) -> None:
    dev = np.abs(m - m.conj().T).max()
    if dev >= tol:
        raise NotHermitianError(f"max |m - m^dag| entry is {dev:.3e} (tolerance {tol:.1e})")


@dataclass(frozen=True)
class EigenResult:
    """Spectrum of a Hermitian matrix.

    ``eigenvalues`` are real and sorted descending; column k of ``vectors``
    is the eigenvector paired with ``eigenvalues[k]``. ``residual`` is the
    max-entry norm of ``m - V diag(w) V^dag`` against the original input.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    residual: float


def hermitian_eigenvalues(m: np.ndarray, tol: float = DEFAULT_TOL) -> EigenResult:
    """Diagonalize a Hermitian matrix with ``numpy.linalg.eigh``.

    The input must be square, finite and Hermitian within ``tol``; it is
    Hermitized exactly before the call, so LAPACK sees a matrix whose upper
    and lower triangles agree. Eigenvalues come back sorted descending. A
    LAPACK failure surfaces as ``numpy.linalg.LinAlgError``.
    """
    m = as_complex_matrix(m)
    dim = m.shape[0]
    if dim > MAX_EIG_DIM:
        raise DimensionMismatchError(f"dimension {dim} exceeds eigensolver cap {MAX_EIG_DIM}")
    _check_hermitian(m, tol)

    a = 0.5 * (m + m.conj().T)  # exact Hermitization; deviation is < tol by the check above
    w, v = np.linalg.eigh(a)
    w, v = w[::-1], v[:, ::-1]  # eigh sorts ascending
    residual = float(np.abs(m - (v * w) @ v.conj().T).max())
    return EigenResult(eigenvalues=w, vectors=v, residual=residual)


def trace_norm(m: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Sum of |eigenvalue| over the spectrum of a Hermitian matrix."""
    return float(np.abs(hermitian_eigenvalues(m, tol=tol).eigenvalues).sum())


def trace_distance(x: np.ndarray, y: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Half the trace norm of ``x - y`` for Hermitian operands of equal dimension."""
    x = as_complex_matrix(x)
    y = as_complex_matrix(y)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"shape mismatch: {x.shape} vs {y.shape}")
    _check_hermitian(x, tol)
    _check_hermitian(y, tol)
    # deviations of x and y from Hermiticity can add up in the difference
    return 0.5 * trace_norm(x - y, tol=2.0 * tol)
