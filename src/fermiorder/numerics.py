"""Dense Hermitian linear algebra for small complex matrices.

Everything downstream (trace norms, negativity, trace distances) takes its
spectra from ``hermitian_eigenvalues``. That routine checks and Hermitizes
its input and then diagonalizes it with LAPACK through ``numpy.linalg.eigh``;
what it adds on top is the package's input contract, a fixed descending
order, and the reconstruction residual that says how far to trust a result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

#: Absolute tolerance on matrix entries for Hermiticity and equality checks.
DEFAULT_TOL = 1e-12

#: How far a state handed in may sit from unit trace (unit norm if pure), and
#: how far a matrix the measures derive from it may sit from Hermitian.
STATE_TOL = 1e-9

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


def _check_eig_dim(dim: int) -> None:
    """Reject a dimension above the eigensolver cap, before anything that size exists."""
    if dim > MAX_EIG_DIM:
        raise DimensionMismatchError(f"dimension {dim} exceeds eigensolver cap {MAX_EIG_DIM}")


def _check_hermitian(m: np.ndarray, tol: float) -> None:
    dev = np.abs(m - m.conj().T).max()
    if dev >= tol:
        raise NotHermitianError(f"max |m - m^dag| entry is {dev:.3e} (tolerance {tol:.1e})")


@dataclass(frozen=True)
class EigenResult:
    """Spectrum of a Hermitian matrix.

    ``eigenvalues`` are real and sorted descending; column k of ``vectors``
    is the eigenvector paired with ``eigenvalues[k]``. ``residual`` is the
    max-entry norm of ``m - V diag(w) V^dag`` against the original input,
    computed on first access; the input is held, not copied, until then.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    _input: np.ndarray = field(repr=False)

    @cached_property
    def residual(self) -> float:
        v, w = self.vectors, self.eigenvalues
        return float(np.abs(self._input - (v * w) @ v.conj().T).max())


def hermitian_eigenvalues(m: np.ndarray, tol: float = DEFAULT_TOL) -> EigenResult:
    """Diagonalize a Hermitian matrix with ``numpy.linalg.eigh``.

    The input must be square, finite and Hermitian within ``tol``; it is
    Hermitized exactly before the call, so LAPACK sees a matrix whose upper
    and lower triangles agree. Eigenvalues come back sorted descending. A
    LAPACK failure surfaces as ``numpy.linalg.LinAlgError``.
    """
    m = as_complex_matrix(m)
    _check_eig_dim(m.shape[0])
    _check_hermitian(m, tol)

    a = 0.5 * (m + m.conj().T)  # exact Hermitization; deviation is < tol by the check above
    w, v = np.linalg.eigh(a)
    return EigenResult(eigenvalues=w[::-1], vectors=v[:, ::-1], _input=m)  # eigh sorts ascending


def trace_norm(m: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Sum of |eigenvalue| over the spectrum of a Hermitian matrix."""
    return float(np.abs(hermitian_eigenvalues(m, tol=tol).eigenvalues).sum())


def trace_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Half the trace norm of ``x - y`` for Hermitian operands of equal dimension."""
    x = as_complex_matrix(x)
    y = as_complex_matrix(y)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"shape mismatch: {x.shape} vs {y.shape}")
    _check_hermitian(x, DEFAULT_TOL)
    _check_hermitian(y, DEFAULT_TOL)
    # deviations of x and y from Hermiticity can add up in the difference
    return 0.5 * trace_norm(x - y, tol=2.0 * DEFAULT_TOL)
