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


def walsh_hadamard_table(data: np.ndarray, n: int, traced_positions: list[int]) -> np.ndarray:
    """F[x, y, w] = sum over traced bits z of (-1)^(w.z) M[x, y, z].

    M[x, y, z] is psi(x, z) psi*(y, z) for an amplitude vector, or
    rho((x, z), (y, z)) for a matrix, with x, y the kept bits and z the
    traced bits, each read in canonical position order. One table holds the
    qubit-route reduction of every ordering (see ``walsh_hadamard_reduction``).
    """
    traced = sorted(traced_positions)
    kept = [p for p in range(n) if p not in traced]
    dk, dt = 1 << len(kept), 1 << len(traced)
    full = np.zeros((dk, dt), dtype=np.int64)
    for x in range(dk):
        for z in range(dt):
            for i, p in enumerate(kept):
                full[x, z] |= ((x >> (len(kept) - 1 - i)) & 1) << (n - 1 - p)
            for i, p in enumerate(traced):
                full[x, z] |= ((z >> (len(traced) - 1 - i)) & 1) << (n - 1 - p)
    if data.ndim == 1:
        products = data[full][:, None, :] * data[full].conj()[None, :, :]
    else:
        products = data[full[:, None, :], full[None, :, :]]
    hadamard = np.array(
        [[-1.0 if bin(w & z).count("1") % 2 else 1.0 for z in range(dt)] for w in range(dt)]
    )
    return products @ hadamard  # the Walsh-Hadamard matrix is symmetric


def walsh_hadamard_reduction(
    table: np.ndarray, n: int, traced_positions: list[int], ranks: list[int]
) -> np.ndarray:
    """The qubit-route reduction under one ordering, read off the table.

    ``ranks[p]`` is the place of canonical mode p in the ordering. P(a) is
    the set of traced modes whose order relative to kept mode a differs
    between the ordering and canonical order; entry (x, y) is F[x, y, w]
    with w the XOR of P(a) over the kept modes a where x and y differ.
    Inversions inside either block cancel in the map and its inverse.
    """
    traced = sorted(traced_positions)
    kept = [p for p in range(n) if p not in traced]
    masks = []
    for a in kept:
        mask = 0
        for i, t in enumerate(traced):
            if (t < a) != (ranks[t] < ranks[a]):
                mask |= 1 << (len(traced) - 1 - i)
        masks.append(mask)
    dk = 1 << len(kept)
    out = np.zeros((dk, dk), dtype=np.complex128)
    for x in range(dk):
        for y in range(dk):
            w = 0
            for i, mask in enumerate(masks):
                if ((x ^ y) >> (len(kept) - 1 - i)) & 1:
                    w ^= mask
            out[x, y] = table[x, y, w]
    return out


def precedence_rows(ordering, kept, traced) -> tuple[int, ...]:
    """The kept x traced precedence matrix of an ordering (a sequence of
    labels), one integer per kept mode: bit i is set when ``traced[i]``
    stands before that kept mode."""
    place = {label: i for i, label in enumerate(ordering)}
    return tuple(
        sum(1 << i for i, c in enumerate(traced) if place[c] < place[a]) for a in kept
    )


def column_orbit(rows: tuple[int, ...], n_traced: int) -> tuple[int, ...]:
    """The column orbit of a precedence matrix, named by its smallest
    member: every one of the 2^t masks is XOR-ed into all rows at once."""
    return min(tuple(r ^ mask for r in rows) for mask in range(1 << n_traced))


def row_column_orbit(rows: tuple[int, ...], n_traced: int) -> tuple[int, ...]:
    """The orbit of a precedence matrix under column flips and row
    complements, named by its smallest member: every column mask is tried
    with every subset of rows complemented."""
    ones = (1 << n_traced) - 1
    return min(
        tuple(r ^ mask ^ (ones if (subset >> i) & 1 else 0) for i, r in enumerate(rows))
        for mask in range(1 << n_traced)
        for subset in range(1 << len(rows))
    )


def ordering_classes(data: np.ndarray, modes, kept, tol: float = 1e-9) -> list[tuple[list[tuple], np.ndarray]]:
    """Every ordering of ``modes`` grouped by its qubit-route reduction, by
    brute force: each permutation of the labels, in ``itertools`` order, is
    reduced through the Walsh-Hadamard table and joins the first class
    whose matrix it matches within ``tol``, or opens one. Classes come back
    largest first, ties broken by their first member's labels compared as
    strings, each with its members, label tuples in permutation order, and
    its matrix."""
    from itertools import permutations

    n = len(modes)
    traced = [p for p in range(n) if modes[p] not in kept]
    table = walsh_hadamard_table(data, n, traced)
    classes: list[tuple[list[tuple], np.ndarray]] = []
    for ordering in permutations(modes):
        matrix = walsh_hadamard_reduction(table, n, traced, [ordering.index(m) for m in modes])
        for members, held in classes:
            if np.abs(held - matrix).max() < tol:
                members.append(ordering)
                break
        else:
            classes.append(([ordering], matrix))
    return sorted(classes, key=lambda c: (-len(c[0]), c[0][0]))
