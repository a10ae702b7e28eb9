"""Independent reference implementations used to cross-check the package.

Everything here is built from explicit dense matrices and index loops,
deliberately avoiding the package's own sign machinery, so that agreement
between the two is evidence rather than tautology.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=np.complex128)
PARITY_Z = np.diag([1.0, -1.0]).astype(np.complex128)
RAISE = np.array([[0, 0], [1, 0]], dtype=np.complex128)
LOWER = np.array([[0, 1], [0, 0]], dtype=np.complex128)


def jw_matrix(n: int, k: int, kind: str) -> np.ndarray:
    """Dense 2^n matrix of a mode operator with parity strings spelled out.

    Mode position 0 is the first (most significant) tensor factor, matching
    the package's bitstring convention. Creation is "+", annihilation "-".
    """
    block = RAISE if kind == "+" else LOWER
    factors = [PARITY_Z] * k + [block] + [I2] * (n - 1 - k)
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def permutation_parity(sequence: list[int]) -> int:
    """+1 or -1 by counting inversion pairs directly."""
    inversions = 0
    for i in range(len(sequence)):
        for j in range(i + 1, len(sequence)):
            if sequence[i] > sequence[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def qubit_ptrace(matrix: np.ndarray, n: int, traced_positions: list[int]) -> np.ndarray:
    """Partial trace over given bit positions via explicit index loops."""
    kept = [p for p in range(n) if p not in traced_positions]
    dk, dt = 1 << len(kept), 1 << len(traced_positions)

    def full_index(kept_bits: int, traced_bits: int) -> int:
        idx = 0
        for i, p in enumerate(kept):
            idx |= ((kept_bits >> (len(kept) - 1 - i)) & 1) << (n - 1 - p)
        for i, p in enumerate(traced_positions):
            idx |= ((traced_bits >> (len(traced_positions) - 1 - i)) & 1) << (n - 1 - p)
        return idx

    out = np.zeros((dk, dk), dtype=np.complex128)
    for a in range(dk):
        for b in range(dk):
            for j in range(dt):
                out[a, b] += matrix[full_index(a, j), full_index(b, j)]
    return out


def partial_transpose(matrix: np.ndarray, n: int, traced_positions: list[int]) -> np.ndarray:
    """Transpose traced bit positions by explicit index surgery."""
    dim = 1 << n
    out = np.zeros_like(matrix)
    mask = 0
    for p in traced_positions:
        mask |= 1 << (n - 1 - p)
    for r in range(dim):
        for c in range(dim):
            rr = (r & ~mask) | (c & mask)
            cc = (c & ~mask) | (r & mask)
            out[rr, cc] = matrix[r, c]
    return out


def negativity(matrix: np.ndarray, n: int, traced_positions: list[int]) -> float:
    pt = partial_transpose(matrix, n, traced_positions)
    # the trace norm as a sum of singular values, not of |eigenvalues|, so the
    # oracle does not share the package's Hermitian eigensolver
    return (float(np.linalg.svd(pt, compute_uv=False).sum()) - 1.0) / 2.0


def fermionic_trace(rho: np.ndarray, n: int, traced_positions: list[int]) -> np.ndarray:
    """Operator-sandwich reduction built entirely from dense JW matrices."""
    kept = [p for p in range(n) if p not in traced_positions]
    m = len(traced_positions)
    dk = 1 << len(kept)

    def embed(kept_bits: int) -> int:
        idx = 0
        for i, p in enumerate(kept):
            idx |= ((kept_bits >> (len(kept) - 1 - i)) & 1) << (n - 1 - p)
        return idx

    rows = [embed(a) for a in range(dk)]
    total = np.zeros((dk, dk), dtype=np.complex128)
    for pattern in range(1 << m):
        occupied = [
            traced_positions[i] for i in range(m) if (pattern >> (m - 1 - i)) & 1
        ]
        sandwiched = rho
        for p in occupied:
            sandwiched = jw_matrix(n, p, "-") @ sandwiched
        for p in occupied:
            sandwiched = sandwiched @ jw_matrix(n, p, "+")
        total += sandwiched[np.ix_(rows, rows)]
    return total


def random_density(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Ginibre-style random density matrix of the given rank."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
