"""Exact fermionic Fock space over named modes.

Conventions
-----------
A system of N modes carries one fixed *canonical order*: the kept (``a``)
modes first, the traced (``c``) modes after them. The basis vector for an
occupation pattern is the product of creation operators for the occupied
modes, written left to right in canonical order and applied to the vacuum;
its phase is +1 by definition. Bra vectors are the adjoints of those kets,
so the dual basis carries the reversed operator order and no extra stored
phases.

Bitstrings are serialized left to right in canonical order: position 0 of
``"1010"`` is the occupation of the first canonical mode. Internally a
bitstring maps to the integer whose most significant bit is mode 0, so a
dense amplitude array reshaped to ``[2] * N`` puts mode k on axis k.

Acting with a creation or annihilation operator on mode k multiplies the
amplitude by ``(-1) ** (number of occupied modes strictly before k)``;
``apply`` reads that Jordan-Wigner sign off the ``(2**k, 2, -1)`` reshape,
whose leading index holds the modes before k, and keeps no table. Every
reduction takes its signs from the pair-inversion rule of
``ordering._inversion_signs`` instead, the fermionic trace included.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence, Union

import numpy as np

from .numerics import DEFAULT_TOL, STATE_TOL, _check_hermitian, as_complex_matrix

#: Operator kinds, matching the operator-string grammar tokens.
CREATION = "+"
ANNIHILATION = "-"

#: Largest number of modes a system may hold (dense arrays of size 2**N).
MAX_MODES = 14

EVEN = "even"
ODD = "odd"
ANY_SECTOR = "any"


# a ValueError like every other rejected input, still a KeyError for lookups
class UnknownModeError(KeyError, ValueError):
    """A mode label does not belong to the system it was used with."""

    __str__ = ValueError.__str__  # the message, without KeyError's quotes


def _check_label(label: str) -> str:
    if not isinstance(label, str) or not label.isalnum():
        raise ValueError(f"mode labels must be non-empty alphanumeric strings, got {label!r}")
    return label


@dataclass(frozen=True)
class ModeSystem:
    """An ordered set of fermionic modes with a kept/traced split.

    ``modes`` is the canonical order; the first ``a_count`` labels are the
    kept block, the rest the traced block.
    """

    modes: tuple[str, ...]
    a_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", tuple(self.modes))
        for label in self.modes:
            _check_label(label)
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"mode labels must be distinct: {self.modes}")
        if not 1 <= len(self.modes) <= MAX_MODES:
            raise ValueError(f"need between 1 and {MAX_MODES} modes, got {len(self.modes)}")
        if not 0 <= self.a_count <= len(self.modes):
            raise ValueError(f"a_count {self.a_count} out of range for {len(self.modes)} modes")

    @classmethod
    def from_blocks(cls, kept: Sequence[str], traced: Sequence[str] = ()) -> "ModeSystem":
        """Build a system from the kept block followed by the traced block."""
        return cls(tuple(kept) + tuple(traced), a_count=len(tuple(kept)))

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def dim(self) -> int:
        return 1 << self.n_modes

    @property
    def a_labels(self) -> tuple[str, ...]:
        return self.modes[: self.a_count]

    @property
    def c_labels(self) -> tuple[str, ...]:
        return self.modes[self.a_count :]

    def position(self, label: str) -> int:
        try:
            return self.modes.index(label)
        except ValueError:
            raise UnknownModeError(f"mode {label!r} not in system {self.modes}") from None

    def index_of_bits(self, bits: str) -> int:
        """Integer index of a serialized occupation bitstring."""
        if len(bits) != self.n_modes or set(bits) - {"0", "1"}:
            raise ValueError(f"expected a {self.n_modes}-character 0/1 string, got {bits!r}")
        return int(bits, 2)

    def bits_of_index(self, index: int) -> str:
        return format(index, f"0{self.n_modes}b")

    def bipartition(self) -> "BipartitionSpec":
        """The system's own kept/traced split as a bipartition."""
        return BipartitionSpec(kept=self.a_labels, traced=self.c_labels)


@dataclass(frozen=True)
class BipartitionSpec:
    """Disjoint kept/traced mode sets covering a whole system."""

    kept: tuple[str, ...]
    traced: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "kept", tuple(self.kept))
        object.__setattr__(self, "traced", tuple(self.traced))
        overlap = set(self.kept) & set(self.traced)
        if overlap:
            raise ValueError(f"kept and traced blocks overlap: {sorted(overlap)}")

    def validate_for(self, system: ModeSystem) -> None:
        if set(self.kept) | set(self.traced) != set(system.modes) or len(self.kept) + len(
            self.traced
        ) != system.n_modes:
            raise ValueError(
                f"bipartition {self.kept}|{self.traced} does not cover system {system.modes}"
            )


def parity_of(bits: str) -> str:
    """Parity ("even" or "odd") of the total occupation of a bitstring."""
    if set(bits) - {"0", "1"}:
        raise ValueError(f"expected a 0/1 string, got {bits!r}")
    return ODD if bits.count("1") % 2 else EVEN


@lru_cache(maxsize=None)
def _parity_vector(n_modes: int) -> np.ndarray:
    """Total occupation parity (0 or 1) for every index of an n-mode system."""
    idx = np.arange(1 << n_modes, dtype=np.uint64)
    par = (np.bitwise_count(idx) & 1).astype(np.int8)
    par.setflags(write=False)
    return par


def _sign_conjugate(signs: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Apply a diagonal sign matrix S to a state: S psi for an amplitude
    vector, S rho S for a matrix. Callers build the signs by their own rule.

    A stack of sign rows, one per leading index, gives a stack of results:
    each row conjugates the one state ``data``, or its own matrix of a
    stack of matrices."""
    if data.ndim == 1:
        return signs * data
    return signs[..., :, None] * data * signs[..., None, :]


def _block_partial_trace(
    data: np.ndarray, system: ModeSystem, kept: Iterable[str], batch: bool = False
) -> np.ndarray:
    """Sum a mode-indexed vector psi or matrix rho over the occupations of
    the modes not kept.

    Mode k is axis k of the ``[2] * N`` reshape; the kept modes stay in
    canonical order. psi is reshaped to dk x dt and reduced as an exactly
    Hermitized psi psi^dag, never forming its 2^N x 2^N density. No signs
    are applied: callers conjugate the state by their own sign rule first.
    With ``batch``, axis 0 stacks states that are reduced one by one, and
    the result stacks their dk x dk reductions.
    """
    n = system.n_modes
    kept_set = set(kept)
    kept_axes = [k for k, label in enumerate(system.modes) if label in kept_set]
    traced_axes = [k for k, label in enumerate(system.modes) if label not in kept_set]
    dk, dt = 1 << len(kept_axes), 1 << len(traced_axes)
    lead = list(data.shape[:1]) if batch else []
    perm = list(range(len(lead))) + [len(lead) + ax for ax in kept_axes + traced_axes]
    if data.ndim == len(lead) + 1:
        psi = data.reshape(lead + [2] * n).transpose(perm).reshape(lead + [dk, dt])
        reduced = psi @ psi.conj().mT
        return 0.5 * (reduced + reduced.conj().mT)
    t = data.reshape(lead + [2] * (2 * n)).transpose(perm + [n + ax for ax in perm[len(lead) :]])
    return np.einsum("...ajbj->...ab", t.reshape(lead + [dk, dt, dk, dt]))


@dataclass(frozen=True, eq=False)
class FockVector:
    """A (possibly unnormalized) pure state as a dense amplitude array."""

    system: ModeSystem
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.system.dim,):
            raise ValueError(f"expected {self.system.dim} amplitudes, got shape {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def vacuum(cls, system: ModeSystem) -> "FockVector":
        amps = np.zeros(system.dim, dtype=np.complex128)
        amps[0] = 1.0
        return cls(system, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self) -> bool:
        return abs(self.norm() ** 2 - 1.0) < STATE_TOL

    def normalized(self) -> "FockVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockVector(self.system, self.amplitudes / n)

    def amplitude(self, bits: str) -> complex:
        return complex(self.amplitudes[self.system.index_of_bits(bits)])

    def to_density(self) -> "DensityOperator":
        if not self.is_normalized():
            raise ValueError("state must be normalized before forming a density operator")
        m = np.outer(self.amplitudes, self.amplitudes.conj())
        # fused multiply-add lanes can leave the outer product a few ulp off
        # exact conjugate symmetry; restore it so reductions, which preserve
        # Hermiticity exactly, hand back exactly Hermitian matrices
        m = 0.5 * (m + m.conj().T)
        return DensityOperator(self.system, m)

    def to_json(self) -> dict:
        amps = {}
        for i, a in enumerate(self.amplitudes):
            if a != 0:
                amps[self.system.bits_of_index(i)] = [float(a.real), float(a.imag)]
        return {"modes": list(self.system.modes), "amplitudes": amps}

    @classmethod
    def from_json(cls, obj: dict, a_count: Union[int, None] = None) -> "FockVector":
        """Inverse of ``to_json``; any other shape raises ``ValueError``."""
        if not (
            isinstance(obj, dict)
            and isinstance(obj.get("modes"), list)
            and isinstance(obj.get("amplitudes"), dict)
        ):
            raise ValueError('state JSON must be an object with a "modes" list and an "amplitudes" object')
        modes = tuple(obj["modes"])
        system = ModeSystem(modes, a_count=len(modes) if a_count is None else a_count)
        amps = np.zeros(system.dim, dtype=np.complex128)
        for bits, pair in obj["amplitudes"].items():
            if not (
                isinstance(pair, list)
                and len(pair) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
            ):
                raise ValueError(f"amplitude of {bits!r} must be a [re, im] pair of numbers, got {pair!r}")
            try:
                amps[system.index_of_bits(bits)] = complex(*pair)
            except OverflowError:
                raise ValueError(f"amplitude of {bits!r} must be finite, got {pair!r}") from None
        return cls(system, amps)


def basis_state(system: ModeSystem, bits: str) -> FockVector:
    """The canonical basis vector for one occupation bitstring (phase +1)."""
    amps = np.zeros(system.dim, dtype=np.complex128)
    amps[system.index_of_bits(bits)] = 1.0
    return FockVector(system, amps)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A density matrix in the canonical occupation basis (row = ket string)."""

    system: ModeSystem
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = as_complex_matrix(self.matrix)
        if m.shape != (self.system.dim, self.system.dim):
            raise ValueError(f"expected a {self.system.dim}x{self.system.dim} matrix")
        _check_hermitian(m, DEFAULT_TOL)
        tr = m.trace()
        if abs(tr - 1.0) >= STATE_TOL:
            raise ValueError(f"density matrix trace is {tr}, expected 1")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


FockState = Union[FockVector, DensityOperator]


@dataclass(frozen=True)
class OperatorString:
    """An ordered product of mode operators; the rightmost factor acts first."""

    factors: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        factors = tuple((str(label), str(kind)) for label, kind in self.factors)
        for label, kind in factors:
            _check_label(label)
            if kind not in (CREATION, ANNIHILATION):
                raise ValueError(f"operator kind must be '+' or '-', got {kind!r}")
        object.__setattr__(self, "factors", factors)

    @classmethod
    def parse(cls, text: str) -> "OperatorString":
        """Parse whitespace-separated tokens like ``"a1+ c2-"``."""
        factors = []
        for token in text.split():
            label, kind = token[:-1], token[-1]
            if kind not in (CREATION, ANNIHILATION) or not label:
                raise ValueError(f"malformed operator token {token!r} (expected '<label>+/-')")
            factors.append((label, kind))
        return cls(tuple(factors))

    def __str__(self) -> str:
        return " ".join(f"{label}{kind}" for label, kind in self.factors)


def _apply_to_amplitudes(kind: str, k: int, amplitudes: np.ndarray) -> np.ndarray:
    """The amplitudes after one operator acts on the mode at position ``k``."""
    # mode k is the middle axis; the leading index holds the modes before it
    amps = amplitudes.reshape(1 << k, 2, -1)
    source = 0 if kind == CREATION else 1
    signs = 1 - 2 * _parity_vector(k)
    out = np.zeros_like(amps)
    out[:, 1 - source] = signs[:, None] * amps[:, source]
    return out.reshape(-1)


def apply(kind: str, mode: str, state: FockVector) -> FockVector:
    """Apply one creation or annihilation operator; the result is unnormalized.

    Creation on an occupied mode and annihilation on an empty mode both give
    the zero vector for that component; otherwise the occupation bit flips
    and the amplitude picks up the Jordan-Wigner sign of the modes before it.
    """
    if kind not in (CREATION, ANNIHILATION):
        raise ValueError(f"kind must be {CREATION!r} or {ANNIHILATION!r}, got {kind!r}")
    k = state.system.position(mode)
    return FockVector(state.system, _apply_to_amplitudes(kind, k, state.amplitudes))


def from_operator_string(ops: OperatorString, system: ModeSystem) -> FockVector:
    """Apply an operator string to the vacuum, rightmost factor first.

    The result is a canonical basis vector up to an exact integer sign, or
    the zero vector when an occupation constraint is violated. The factors
    act on one raw amplitude array, wrapped in a ``FockVector`` once, so no
    intermediate vector is copied and checked.
    """
    amplitudes = FockVector.vacuum(system).amplitudes
    for label, kind in reversed(ops.factors):
        amplitudes = _apply_to_amplitudes(kind, system.position(label), amplitudes)
    return FockVector(system, amplitudes)


def ssr_compliant(state: FockState) -> bool:
    """Parity superselection check.

    A state complies when no density entry above ``DEFAULT_TOL`` connects
    bitstrings of different total parity. For a pure state the largest such
    entry of psi psi^dagger is its largest even amplitude times its largest
    odd one, so the density is never formed.
    """
    par = _parity_vector(state.system.n_modes)
    if isinstance(state, FockVector):
        size = np.abs(state.amplitudes)
        cross = size[par == 0].max(initial=0.0) * size[par == 1].max(initial=0.0)
    else:
        cross = np.abs(state.matrix[par[:, None] != par[None, :]]).max(initial=0.0)
    return bool(cross <= DEFAULT_TOL)


def sector_indices(system: ModeSystem, sector: str) -> np.ndarray:
    """Basis indices of one parity sector (or all of them for "any")."""
    if sector not in (EVEN, ODD, ANY_SECTOR):
        raise ValueError(f"sector must be 'even', 'odd' or 'any', got {sector!r}")
    idx = np.arange(system.dim)
    if sector == ANY_SECTOR:
        return idx
    par = _parity_vector(system.n_modes)
    return idx[par == (1 if sector == ODD else 0)]


def random_state(system: ModeSystem, sector: str = ANY_SECTOR, seed: int = 0) -> FockVector:
    """Haar-uniform random pure state on a parity sector.

    Amplitudes are independent standard complex Gaussians on the sector's
    bitstrings, then normalized; the same seed always gives the same state.
    """
    rng = np.random.default_rng(seed)
    support = sector_indices(system, sector)
    amps = np.zeros(system.dim, dtype=np.complex128)
    amps[support] = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
    return FockVector(system, amps).normalized()


def state_from_terms(
    system: ModeSystem, terms: Iterable[tuple[complex, OperatorString]], normalize: bool = True
) -> FockVector:
    """Superpose weighted operator strings applied to the vacuum."""
    total = np.zeros(system.dim, dtype=np.complex128)
    for coeff, ops in terms:
        total = total + complex(coeff) * from_operator_string(ops, system).amplitudes
    state = FockVector(system, total)
    return state.normalized() if normalize else state


def state_to_json_str(state: FockVector) -> str:
    return json.dumps(state.to_json(), sort_keys=True)


def state_from_json_str(text: str, a_count: Union[int, None] = None) -> FockVector:
    try:
        return FockVector.from_json(json.loads(text), a_count=a_count)
    except RecursionError:
        raise ValueError("state JSON is nested too deeply") from None
