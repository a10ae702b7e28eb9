"""Dense Hermitian linear algebra for small complex matrices.

Everything downstream (trace norms, negativity, trace distances) takes its
spectra from ``_eigh``, through ``hermitian_eigenvalues`` for one matrix.
It checks and Hermitizes its input and then diagonalizes it with LAPACK
through ``numpy.linalg.eigh``; what it adds on top is the package's input
contract and a fixed descending order, and ``hermitian_eigenvalues`` adds
the reconstruction residual that says how far to trust a result. The
checks and ``_eigh`` also take a stack of matrices along axis 0, which is
how the route comparison evaluates many states at once. A trace distance
whose difference is exactly zero needs no spectrum and skips ``_eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

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
    _check_finite(m)
    return m


def _first_failure(bad: np.ndarray, error: type, message: Callable[[Any], str]) -> None:
    """Raise ``error(message(i))`` at the first index i where ``bad`` holds.

    ``bad`` is one test result for one matrix, or one per row for a stack of
    them along axis 0; a stack's message then leads with the row, so every
    check below runs unchanged on one matrix or on a stack.
    """
    if bad.ndim == 0:
        if bad:
            raise error(message(()))
    elif bad.any():
        row = int(bad.argmax())
        raise error(f"row {row}: {message(row)}")


def _check_finite(m: np.ndarray) -> None:
    _first_failure(~np.isfinite(m).all(axis=(-2, -1)), ValueError, lambda i: "matrix entries must be finite")


def _check_tol(tol: float, name: str = "tol") -> None:
    """Reject a comparison tolerance outside (0, 1): at 0 or below, or NaN,
    no difference passes and even agreeing routes read as disagreeing, and
    at 1 or above it passes differences larger than any entry of a density
    matrix."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {tol}")


def _check_eig_dim(dim: int) -> None:
    """Reject a dimension above the eigensolver cap, before anything that size exists."""
    if dim > MAX_EIG_DIM:
        raise DimensionMismatchError(f"dimension {dim} exceeds eigensolver cap {MAX_EIG_DIM}")


def _check_hermitian(m: np.ndarray, tol: float) -> None:
    dev = np.abs(m - m.conj().mT).max(axis=(-2, -1))
    _first_failure(
        dev >= tol,
        NotHermitianError,
        lambda i: f"max |m - m^dag| entry is {dev[i]:.3e} (tolerance {tol:.1e})",
    )


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


def _hermitize(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2 for a matrix or each matrix of a stack along axis 0,
    exactly Hermitian: fused multiply-add lanes can leave a product such as
    psi psi^dag a few ulp off conjugate symmetry, and reductions, which
    preserve Hermiticity exactly, then hand back exactly Hermitian
    matrices."""
    return 0.5 * (m + m.conj().mT)


def _eigh(m: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, descending, and eigenvectors of a matrix or of each
    matrix of a stack along axis 0, checked against the dimension cap and
    Hermitian within ``tol``, then Hermitized exactly so that LAPACK sees a
    matrix whose upper and lower triangles agree."""
    _check_eig_dim(m.shape[-1])
    _check_hermitian(m, tol)
    w, v = np.linalg.eigh(_hermitize(m))  # the deviation is < tol by the check above
    return w[..., ::-1], v[..., ::-1]  # eigh sorts ascending


def hermitian_eigenvalues(m: np.ndarray, tol: float = DEFAULT_TOL) -> EigenResult:
    """Diagonalize a Hermitian matrix with ``numpy.linalg.eigh``.

    The input must be square, finite and Hermitian within ``tol``; it is
    Hermitized exactly before the call. Eigenvalues come back sorted
    descending. A LAPACK failure surfaces as ``numpy.linalg.LinAlgError``.
    """
    m = as_complex_matrix(m)
    w, v = _eigh(m, tol)
    return EigenResult(eigenvalues=w, vectors=v, _input=m)


def trace_norm(m: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Sum of |eigenvalue| over the spectrum of a Hermitian matrix."""
    return float(np.abs(hermitian_eigenvalues(m, tol=tol).eigenvalues).sum())


def _trace_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Half the trace norm of ``x - y``, for two Hermitian matrices of equal
    shape or two stacks of them along axis 0, one distance per row.

    A difference that is exactly zero throughout, which is how the two
    reduction routes agree, is finite and Hermitian and has the spectrum
    +0.0, so its distances are +0.0 without an eigensolve; only the
    dimension cap is checked on it. Any other difference takes one
    eigensolve of the whole stack, equal and unequal rows alike."""
    d = x - y
    if not d.any():  # NaN counts as nonzero, so it reaches the finite check
        _check_eig_dim(d.shape[-1])
        return np.zeros(d.shape[:-2])
    _check_finite(d)
    # deviations of x and y from Hermiticity can add up in the difference
    w, _ = _eigh(d, 2.0 * DEFAULT_TOL)
    return 0.5 * np.abs(w).sum(axis=-1)


def trace_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Half the trace norm of ``x - y`` for Hermitian operands of equal
    dimension: +0.0 with no eigensolve when ``x - y`` is exactly zero,
    otherwise from one eigensolve of the difference."""
    x = as_complex_matrix(x)
    y = as_complex_matrix(y)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"shape mismatch: {x.shape} vs {y.shape}")
    _check_hermitian(x, DEFAULT_TOL)
    _check_hermitian(y, DEFAULT_TOL)
    return float(_trace_distances(x, y))
