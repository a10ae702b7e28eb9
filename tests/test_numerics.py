import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiorder import numerics
from fermiorder.numerics import (
    DimensionMismatchError,
    NotHermitianError,
    _check_finite,
    _check_hermitian,
    _trace_distances,
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
    # a matrix that is not square is refused before its Hermiticity is read
    with pytest.raises(DimensionMismatchError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        hermitian_eigenvalues(np.ones((2, 3)))


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


def test_trace_distance_of_a_purely_imaginary_difference():
    """A difference whose entries are all imaginary is not zero: it takes
    the eigensolve, and its distance is its eigenvalues' half sum, 0.1."""
    m = np.array([[0.5, 0.1j], [-0.1j, 0.5]])
    assert abs(trace_distance(m, np.eye(2) / 2.0) - 0.1) < 1e-15


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


def test_stacked_trace_distances_equal_one_pair_at_a_time():
    """One eigensolve of a stack gives each pair's ``trace_distance`` to the
    bit, at dimensions where the sum of the spectrum takes the unrolled path."""
    rng = np.random.default_rng(31)
    for dim in (2, 8, 16, 64):
        x = np.stack([random_density(dim, 3, rng) for _ in range(5)])
        y = np.stack([random_density(dim, 2, rng) for _ in range(5)])
        stacked = _trace_distances(x, y).tolist()
        assert stacked == [trace_distance(a, b) for a, b in zip(x, y)]


def test_stacked_checks_name_the_first_offending_row():
    """A check on a stack raises the one-matrix exception for the first row
    that fails it, its message led by that row."""
    rng = np.random.default_rng(32)
    stack = np.stack([random_hermitian(4, rng) for _ in range(4)])
    stack[2, 0, 1] += 1e-6
    stack[3, 1, 0] += 1e-6
    with pytest.raises(NotHermitianError) as one:
        _check_hermitian(stack[2], tol)
    with pytest.raises(NotHermitianError) as stacked:
        _check_hermitian(stack, tol)
    assert str(stacked.value) == f"row 2: {one.value}"
    stack[1, 3, 3] = np.inf
    with pytest.raises(ValueError, match=r"^row 1: matrix entries must be finite$"):
        _check_finite(stack)


def test_equal_operands_have_distance_positive_zero():
    """Equal operands give +0.0, the bytes an eigensolve of their zero
    difference gives, as a float for one pair and per row for a stack."""
    rng = np.random.default_rng(33)
    for dim in (1, 2, 8, 64):
        m = random_density(dim, 2, rng)
        assert np.float64(trace_distance(m, m)).tobytes() == np.float64(0.0).tobytes()
        assert repr(trace_distance(m, m)) == "0.0"
        stack = np.stack([m, m.conj()])
        assert _trace_distances(stack, stack).tobytes() == np.zeros(2).tobytes()


def test_stack_of_equal_and_unequal_pairs_equals_one_pair_at_a_time():
    """A stack with equal rows among unequal ones takes one eigensolve for
    all of them and still gives each pair's ``trace_distance`` to the bit."""
    rng = np.random.default_rng(34)
    for dim in (2, 8, 16):
        x = np.stack([random_density(dim, 3, rng) for _ in range(5)])
        y = np.stack([random_density(dim, 2, rng) for _ in range(5)])
        y[[0, 2, 4]] = x[[0, 2, 4]]
        stacked = _trace_distances(x, y)
        assert stacked.tolist() == [trace_distance(a, b) for a, b in zip(x, y)]
        assert stacked[[0, 2, 4]].tobytes() == np.zeros(3).tobytes()


def test_zero_difference_above_the_cap_is_refused(monkeypatch):
    """The eigensolver cap refuses an exactly-zero difference as it refuses
    any other, with the same exception and message."""
    monkeypatch.setattr(numerics, "MAX_EIG_DIM", 2)
    m = np.eye(4, dtype=complex) / 4
    message = "^dimension 4 exceeds eigensolver cap 2$"
    for y in (m, np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)):
        with pytest.raises(DimensionMismatchError, match=message):
            trace_distance(m, y)
    stack = np.stack([m, m])
    with pytest.raises(DimensionMismatchError, match=message):
        _trace_distances(stack, stack)


def test_non_finite_difference_is_refused():
    """A NaN entry makes the difference NaN even where the operands are
    otherwise equal: it is refused, not read as zero."""
    m = np.eye(2, dtype=complex) / 2
    bad = m.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        _trace_distances(bad, bad)
    stack = np.stack([m, m, m])
    other = stack.copy()
    other[1, 1, 1] = np.nan
    with pytest.raises(ValueError, match="^row 1: matrix entries must be finite$"):
        _trace_distances(stack, other)


def test_stacked_difference_off_hermitian_names_its_row():
    """In a stack whose other rows are equal, the one row whose difference
    is not Hermitian raises the one-pair exception, led by its row."""
    rng = np.random.default_rng(35)
    x = np.stack([random_density(4, 2, rng) for _ in range(4)])
    y = x.copy()
    y[2, 0, 1] += 1e-6
    with pytest.raises(NotHermitianError) as one:
        _trace_distances(x[2], y[2])
    with pytest.raises(NotHermitianError) as stacked:
        _trace_distances(x, y)
    assert str(stacked.value) == f"row 2: {one.value}"
