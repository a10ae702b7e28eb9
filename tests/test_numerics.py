import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiorder.numerics import (
    DimensionMismatchError,
    NotHermitianError,
    hermitian_eigenvalues,
    trace_distance,
    trace_norm,
)
from _oracles import random_density, random_unitary

tol = 1e-12


def random_hermitian(dim, rng, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2.0


def test_identity_eigenvalues():
    result = hermitian_eigenvalues(np.eye(2, dtype=complex))
    assert np.allclose(result.eigenvalues, [1.0, 1.0], atol=tol)


def test_diagonal_eigenvalues_sorted_descending():
    result = hermitian_eigenvalues(np.diag([1.0, -1.0]).astype(complex))
    assert np.allclose(result.eigenvalues, [1.0, -1.0], atol=tol)


def test_rank_one_projector_times_two():
    result = hermitian_eigenvalues(np.ones((2, 2), dtype=complex))
    assert np.allclose(result.eigenvalues, [2.0, 0.0], atol=tol)


def test_eigenvalue_sum_matches_trace():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 5, 8):
        m = random_hermitian(dim, rng)
        result = hermitian_eigenvalues(m)
        assert abs(result.eigenvalues.sum() - np.trace(m).real) < 10 * tol


def test_known_spectrum_recovered():
    """U diag(d) U^dag with a random unitary U has spectrum d by construction."""
    rng = np.random.default_rng(5)
    for dim in (2, 3, 4, 8, 16, 32, 64):
        d = rng.uniform(-1.0, 1.0, size=dim)
        u = random_unitary(dim, rng)
        m = (u * d) @ u.conj().T
        ours = hermitian_eigenvalues(m).eigenvalues
        assert np.abs(ours - np.sort(d)[::-1]).max() < 1e-13


def test_tiny_pivot_does_not_overflow():
    """A 1e-200 off-diagonal entry is a valid input, not a numerical hazard."""
    m = np.array([[1.0, 1e-200, 0.0], [1e-200, 0.0, 0.5], [0.0, 0.5, 2.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = hermitian_eigenvalues(m)
    root = np.sqrt(1.25)  # the lower 2x2 block [[0, 0.5], [0.5, 2]] has eigenvalues 1 +- root
    assert np.allclose(result.eigenvalues, [1.0 + root, 1.0, 1.0 - root], atol=tol)
    assert result.residual < 10 * tol


def test_reconstruction_residual_small():
    rng = np.random.default_rng(7)
    for dim in (2, 8, 64):
        m = random_hermitian(dim, rng)
        result = hermitian_eigenvalues(m)
        assert result.residual < 10 * tol * max(1.0, np.abs(m).max())


def test_eigenvectors_reconstruct_input():
    rng = np.random.default_rng(3)
    m = random_hermitian(6, rng)
    result = hermitian_eigenvalues(m)
    rebuilt = (result.vectors * result.eigenvalues) @ result.vectors.conj().T
    assert np.abs(rebuilt - m).max() < 1e-11


def test_not_hermitian_rejected():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotHermitianError):
        hermitian_eigenvalues(m)


def test_trace_norm_of_density_is_one():
    rng = np.random.default_rng(13)
    for dim in (2, 4, 8):
        rho = random_density(dim, dim, rng)
        assert abs(trace_norm(rho) - 1.0) < 1e-10


def test_trace_norm_diag_plus_minus():
    assert abs(trace_norm(np.diag([1.0, -1.0]).astype(complex)) - 2.0) < tol


def test_trace_norm_bell_partial_transpose():
    """Partially transposing a maximally entangled pair doubles the norm."""
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(bell, bell.conj())
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    assert abs(trace_norm(pt) - 2.0) < 1e-10


def test_trace_norm_unitary_invariance():
    rng = np.random.default_rng(17)
    for dim in (2, 4, 8):
        m = random_hermitian(dim, rng)
        u = random_unitary(dim, rng)
        assert abs(trace_norm(u @ m @ u.conj().T) - trace_norm(m)) < 1e-10


def test_trace_distance_examples():
    m = np.diag([0.5, 0.5]).astype(complex)
    assert trace_distance(m, m) == 0.0
    assert abs(trace_distance(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)) - 1.0) < tol
    assert abs(trace_distance(m, np.diag([1.0, 0.0]).astype(complex)) - 0.5) < tol


def test_trace_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        trace_distance(np.eye(2, dtype=complex), np.eye(4, dtype=complex))


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=8))
def test_trace_distance_triangle_inequality(seed, dim):
    rng = np.random.default_rng(seed)
    x = random_hermitian(dim, rng)
    y = random_hermitian(dim, rng)
    z = random_hermitian(dim, rng)
    assert trace_distance(x, z) <= trace_distance(x, y) + trace_distance(y, z) + 1e-10


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=10_000))
def test_trace_distance_symmetry(seed):
    rng = np.random.default_rng(seed)
    x = random_hermitian(4, rng)
    y = random_hermitian(4, rng)
    assert abs(trace_distance(x, y) - trace_distance(y, x)) < 1e-12
