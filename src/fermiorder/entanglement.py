"""Entanglement measures over mode bipartitions.

Negativity is computed as (trace norm of the partial transpose minus one)
over two, so a maximally entangled pair of qubits scores exactly 0.5.
Fermionic inputs must name the mode ordering that carries them to qubits:
the measured number genuinely depends on that choice, and hiding it behind
a default would defeat the purpose of tracking it. The positive-partial-
transpose test is promoted to a separability decision only where that is a
theorem, judged by the local support dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .fock import (
    CREATION,
    BipartitionSpec,
    DensityOperator,
    FockVector,
    ModeSystem,
    OperatorString,
    _block_partial_trace,
    _trace_view,
    from_operator_string,
)
from .numerics import DEFAULT_TOL, STATE_TOL, _check_eig_dim, _hermitize, hermitian_eigenvalues, trace_norm
from .ordering import ModeOrdering, QubitState, qubit_image
from .reduction import _bipartition_positions

#: Eigenvalues above this count toward a marginal's support dimension, and
#: partial-transpose eigenvalues below its negation witness entanglement.
SUPPORT_TOL = 1e-10

#: Negativity values smaller than this are reported as exactly zero.
NEGATIVITY_CLAMP = 1e-12


class UnsupportedDimensionsError(ValueError):
    """Positivity of the partial transpose does not decide separability at
    these local dimensions; use negativity as a one-sided witness."""


class MalformedDecompositionError(ValueError):
    """A separable decomposition breaks one of its structural rules."""


AnyState = Union[FockVector, DensityOperator, QubitState]


@dataclass(frozen=True)
class MeasureResult:
    """An entanglement number together with what produced it.

    The ordering is part of the result's identity for fermionic inputs;
    it is None only for measures evaluated directly on qubit data.
    """

    value: float
    measure: str
    bipartition: Union[BipartitionSpec, None]
    ordering: Union[ModeOrdering, None]

    def to_json(self) -> dict:
        bp = None
        if self.bipartition is not None:
            bp = {"kept": list(self.bipartition.kept), "traced": list(self.bipartition.traced)}
        return {
            "measure": self.measure,
            "value": self.value,
            "bipartition": bp,
            "ordering": None if self.ordering is None else list(self.ordering.labels),
        }


def _qubit_register(state: AnyState, ordering: Union[ModeOrdering, None]) -> QubitState:
    """The qubit register of any supported state input, refused before its
    matrix is formed if the eigensolver would refuse its dimension. A
    fermionic input is carried there under ``ordering``, a ``FockVector`` as
    its amplitudes; every register must have unit trace (unit norm if pure)."""
    if not isinstance(state, (QubitState, FockVector, DensityOperator)):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    _check_eig_dim(state.system.dim)
    if isinstance(state, QubitState):
        if ordering is not None and ordering != state.ordering:
            raise ValueError("qubit state already carries an ordering; do not pass a different one")
    elif ordering is None:
        raise ValueError(
            "fermionic states require an explicit mode ordering; "
            "the measured value depends on it"
        )
    else:
        state = qubit_image(state, ordering)
    tr = np.vdot(state.data, state.data) if state.is_pure else state.data.trace()
    if abs(tr - 1.0) >= STATE_TOL:
        raise ValueError(f"qubit state trace is {tr}, expected 1")
    return state


def _as_qubit_matrix(
    state: AnyState, ordering: Union[ModeOrdering, None]
) -> tuple[np.ndarray, ModeSystem, Union[ModeOrdering, None]]:
    """Dense qubit-register matrix of ``_qubit_register``'s register, with
    its system and ordering. A pure register gives its outer product,
    Hermitized as its density is."""
    register = _qubit_register(state, ordering)
    data = register.data
    matrix = _hermitize(np.outer(data, data.conj())) if register.is_pure else data
    return matrix, register.system, register.ordering


def partial_transpose(
    matrix: np.ndarray, system: ModeSystem, bp: Union[BipartitionSpec, None] = None
) -> np.ndarray:
    """Transpose the traced block's bit indices of a mode-indexed matrix."""
    _, _, traced = _bipartition_positions(system, bp)
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (system.dim, system.dim):
        raise ValueError(f"expected a {system.dim}x{system.dim} matrix, got {m.shape}")
    return _partial_transpose(m, traced)


def _partial_transpose(m: np.ndarray, traced: list[int]) -> np.ndarray:
    """``partial_transpose`` of a checked 2^n x 2^n complex matrix, over the
    modes at the ``traced`` positions its bipartition resolved to."""
    n = m.shape[0].bit_length() - 1
    t = m.reshape([2] * (2 * n))
    axes = list(range(2 * n))
    for k in traced:
        axes[k], axes[n + k] = axes[n + k], axes[k]
    return t.transpose(axes).reshape(m.shape)


def negativity(
    state: AnyState,
    bp: Union[BipartitionSpec, None] = None,
    ordering: Union[ModeOrdering, None] = None,
) -> MeasureResult:
    """Negativity of a state across a mode bipartition: (‖partial
    transpose‖₁ − 1) / 2, clamped to zero below the noise floor.

    A fermionic input depends on the ordering only through its kept ×
    traced precedence matrix M; the signs inside each block are local. For
    a state of one total parity p, both ways of changing M that leave the
    value alone give local signs on amplitude (x, z). Rule (i), the column
    rule: XOR-ing one mask into every kept row multiplies it by
    (−1)^(|x|·z_c) for each flipped column c, which is (−1)^((p + |z|)·z_c),
    a sign on the traced side alone. Rule (ii), the row rule: complementing
    kept mode a's row multiplies it by (−1)^(x_a·|z|) = (−1)^(x_a·(p + |x|)),
    a sign on the kept side alone. Local signs leave the partial-transpose
    spectrum unchanged, so such a state takes one value per orbit of M
    under row and column flips: one value on each ``ordering_scan`` class,
    a column orbit, and the same value for all orderings listing the kept
    modes contiguously, the orbit of the zero matrix. A state mixing
    parities, in its amplitudes or as a mixture of an even and an odd
    state, can give two contiguous orderings different values."""
    matrix, system, used_ordering = _as_qubit_matrix(state, ordering)
    bp, _, traced = _bipartition_positions(system, bp)
    pt = _partial_transpose(matrix, traced)
    value = (trace_norm(pt, tol=STATE_TOL) - 1.0) / 2.0
    if value < NEGATIVITY_CLAMP:
        value = 0.0
    return MeasureResult(value=value, measure="negativity", bipartition=bp, ordering=used_ordering)


def _support_rank(marginal: np.ndarray) -> int:
    eig = hermitian_eigenvalues(marginal, tol=STATE_TOL)
    return int(np.sum(eig.eigenvalues > SUPPORT_TOL))


def ppt_separable(
    state: AnyState,
    bp: Union[BipartitionSpec, None] = None,
    ordering: Union[ModeOrdering, None] = None,
) -> bool:
    """Decide separability by positivity of the partial transpose.

    The decision is a theorem only for 2x2 and 2x3 systems, so the state's
    local support dimensions (marginal ranks) are checked first: one side
    must fit in 2 dimensions and the other in 3. Since the partial-transpose
    spectrum does not change under local basis rotations, a state whose
    marginals fit those ranks is equivalent to a genuine 2x2 or 2x3 state
    and the criterion applies. Larger supports raise an error instead of
    returning a one-sided answer. Each marginal is the register's block
    trace over the other side (``_block_partial_trace`` of its
    ``_trace_view``), so a kept set that is not first copies at most the
    traced-diagonal slab, never the register.
    """
    matrix, system, _ = _as_qubit_matrix(state, ordering)
    _, kept, traced = _bipartition_positions(system, bp)
    rank_kept = _support_rank(_block_partial_trace(_trace_view(matrix, kept, traced, pure=False), False))
    rank_traced = _support_rank(_block_partial_trace(_trace_view(matrix, traced, kept, pure=False), False))
    low, high = sorted((rank_kept, rank_traced))
    if low > 2 or high > 3:
        raise UnsupportedDimensionsError(
            f"local supports {rank_kept}x{rank_traced} exceed 2x3; positivity of "
            "the partial transpose is only necessary here, not sufficient"
        )
    pt = _partial_transpose(matrix, traced)
    eig = hermitian_eigenvalues(pt, tol=STATE_TOL)
    return bool(eig.eigenvalues[-1] >= -SUPPORT_TOL)


@dataclass(frozen=True)
class SeparableDecomposition:
    """Convex mixture of products of kept-block and traced-block creators."""

    weights: tuple[float, ...]
    terms_kept: tuple[OperatorString, ...]
    terms_traced: tuple[OperatorString, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "terms_kept", tuple(self.terms_kept))
        object.__setattr__(self, "terms_traced", tuple(self.terms_traced))
        if not (len(self.weights) == len(self.terms_kept) == len(self.terms_traced)):
            raise MalformedDecompositionError("weights and term lists must have equal length")
        if not self.weights:
            raise MalformedDecompositionError("decomposition needs at least one term")
        if any(w <= 0 for w in self.weights):
            raise MalformedDecompositionError("weights must be positive")
        if abs(sum(self.weights) - 1.0) >= DEFAULT_TOL:
            raise MalformedDecompositionError(f"weights sum to {sum(self.weights)}, expected 1")


def build_separable(dec: SeparableDecomposition, system: ModeSystem) -> DensityOperator:
    """Mix the decomposition's product terms into a density operator.

    Each term applies its traced-block creators to the vacuum first, then
    the kept-block creators, is normalized, and contributes its weight. The
    result is separable across the system's kept/traced split by
    construction, with all anticommutation signs tracked exactly.
    """
    kept_set, traced_set = set(system.a_labels), set(system.c_labels)
    total = np.zeros((system.dim, system.dim), dtype=np.complex128)
    for weight, term_a, term_b in zip(dec.weights, dec.terms_kept, dec.terms_traced):
        for ops, block, name in ((term_a, kept_set, "kept"), (term_b, traced_set, "traced")):
            for label, kind in ops.factors:
                if kind != CREATION:
                    raise MalformedDecompositionError(
                        f"{name} term {ops} contains a non-creation factor"
                    )
                if label not in block:
                    raise MalformedDecompositionError(
                        f"{name} term {ops} uses mode {label!r} outside its block"
                    )
        combined = OperatorString(term_a.factors + term_b.factors)
        vec = from_operator_string(combined, system)
        norm = vec.norm()
        if norm == 0.0:
            raise MalformedDecompositionError(f"term {combined} annihilates the vacuum")
        amps = vec.amplitudes / norm
        total += weight * np.outer(amps, amps.conj())
    return DensityOperator(system, total)


_SPIN_FLIP = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=np.complex128,
)


def _binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def concurrence_and_eof(
    rho: Union[np.ndarray, AnyState],
    ordering: Union[ModeOrdering, None] = None,
) -> tuple[MeasureResult, MeasureResult]:
    """Concurrence and entanglement of formation of a two-qubit density.

    Uses the spin-flip construction: the singular spectrum of √ρ ρ̃ √ρ with
    ρ̃ the doubly spin-flipped conjugate gives concurrence
    C = max(0, λ₁ − λ₂ − λ₃ − λ₄), and the entanglement of formation is the
    binary entropy of (1 + √(1 − C²)) / 2. A pure register, a
    ``FockVector`` or a pure ``QubitState``, takes the closed form
    C = 2|ψ₀₀ψ₁₁ − ψ₀₁ψ₁₀| instead: three of its λ are 0 and come out near
    1e-17, and their square roots would reach 1e-8.
    """
    bp: Union[BipartitionSpec, None] = None
    if isinstance(rho, np.ndarray):
        data = np.asarray(rho, dtype=np.complex128)
        if data.shape != (4, 4):
            raise ValueError(f"expected a 4x4 density matrix, got {data.shape}")
    else:
        register = _qubit_register(rho, ordering)
        system, ordering, data = register.system, register.ordering, register.data
        if system.n_modes != 2:
            raise ValueError(f"need a two-mode system, got {system.n_modes} modes")
        bp = BipartitionSpec(kept=(system.modes[0],), traced=(system.modes[1],))
    if data.ndim == 1:
        concurrence = float(min(1.0, 2.0 * abs(data[0] * data[3] - data[1] * data[2])))
    else:
        if abs(data.trace() - 1.0) >= STATE_TOL:
            raise ValueError(f"density matrix trace is {data.trace()}, expected 1")
        # the eigensolver rejects a matrix further than STATE_TOL from Hermitian
        eig = hermitian_eigenvalues(data, tol=STATE_TOL)
        vals = np.clip(eig.eigenvalues, 0.0, None)
        sqrt_rho = (eig.vectors * np.sqrt(vals)) @ eig.vectors.conj().T
        flipped = _SPIN_FLIP @ data.conj() @ _SPIN_FLIP
        m = sqrt_rho @ flipped @ sqrt_rho
        lam = np.sqrt(np.clip(hermitian_eigenvalues(m, tol=STATE_TOL).eigenvalues, 0.0, None))
        concurrence = float(min(1.0, max(0.0, lam[0] - lam[1] - lam[2] - lam[3])))
    eof = _binary_entropy((1.0 + math.sqrt(1.0 - concurrence**2)) / 2.0)
    return (
        MeasureResult(value=concurrence, measure="concurrence", bipartition=bp, ordering=ordering),
        MeasureResult(value=eof, measure="eof", bipartition=bp, ordering=ordering),
    )
