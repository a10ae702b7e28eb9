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

The package's own vector constructors fill one new array, check it once
and wrap it without a copy (``FockVector._wrap``); the public constructors
copy what a caller passes in and run the same checks, and ``to_density``
builds its density through ``DensityOperator``'s. One routine,
``_draw_amplitudes``, draws a random state's amplitudes into a given
zeroed row: ``random_state`` wraps one such row, and ``theorem_sweep``
fills the rows of each chunk's stack in place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .numerics import DEFAULT_TOL, STATE_TOL, _check_hermitian, _first_failure, _hermitize, as_complex_matrix

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


@lru_cache(maxsize=MAX_MODES + 1)
def _parity_vector(n_modes: int) -> np.ndarray:
    """Total occupation parity (0 or 1) for every index of an n-mode system."""
    idx = np.arange(1 << n_modes, dtype=np.uint64)
    par = (np.bitwise_count(idx) & 1).astype(np.int8)
    par.setflags(write=False)
    return par


@lru_cache(maxsize=MAX_MODES + 1)
def _parity_indices(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The indices of even and of odd total occupation of an n-mode
    system, ascending, as read-only arrays; 128 KiB at 14 modes."""
    even, odd = (np.flatnonzero(_parity_vector(n_modes) == p) for p in (0, 1))
    for indices in (even, odd):
        indices.setflags(write=False)
    return even, odd


def _sign_conjugate(signs: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Apply a diagonal sign matrix S to a state: S psi for an amplitude
    vector, S rho S for a matrix. Callers build the signs by their own rule.

    A stack of sign rows, one per leading index, gives a stack of results:
    each row conjugates the one state ``data``, or its own matrix of a
    stack of matrices. A state that is reduced is signed inside
    ``_block_partial_trace`` instead, on its ``_trace_view``."""
    if data.ndim == 1:
        return signs * data
    return signs[..., :, None] * data * signs[..., None, :]


def _kept_traced_view(data: np.ndarray, kept: Sequence[int], traced: Sequence[int]) -> np.ndarray:
    """A mode-indexed vector, amplitudes psi or sign rows, as dk x dt, with
    the modes at the ``kept`` positions first, in the order ``kept`` lists
    them, and those at ``traced`` after them.

    Mode k is axis k of the ``[2] * N`` reshape of the last axis; any
    leading axes stack vectors and stay in front. A sign vector viewed this
    way has the signs of the kept block with every traced mode empty at
    ``[..., 0]``. A matrix is read across a split by ``_trace_view``.
    """
    lead = data.shape[:-1]
    perm = [*range(len(lead)), *(len(lead) + ax for ax in [*kept, *traced])]
    t = data.reshape(lead + (2,) * (len(kept) + len(traced))).transpose(perm)
    return t.reshape(lead + (1 << len(kept), 1 << len(traced)))


def _trace_view(data: np.ndarray, kept: Sequence[int], traced: Sequence[int], pure: bool) -> np.ndarray:
    """What a block trace reads of a state: psi's ``_kept_traced_view``,
    dk x dt, if ``pure``, else rho's traced-diagonal slab rho(aj, bj),
    dk x dt x dk, its dk^2 dt entries; for each state of a stack along the
    leading axes, ``data.shape[:-1]`` of amplitudes, ``data.shape[:-2]`` of
    densities. ``pure`` is the flag ``_block_partial_trace`` takes.

    The slab is taken by one ``einsum`` over the ``[2] * 2N`` axes, in
    which a traced mode's row and column axes share a subscript. That is a
    view of the density, so at most the slab is copied, when its axes
    cannot be merged into dk x dt x dk without it; the whole density never
    is, as transposing it to dk x dt x dk x dt first would."""
    if pure:
        return _kept_traced_view(data, kept, traced)
    n = len(kept) + len(traced)
    lead = data.shape[:-2]
    # row axis k is subscript k; a kept mode's column axis is n + k
    columns = [n + k if k in kept else k for k in range(n)]
    axes = data.reshape(lead + (2,) * (2 * n))
    slab = np.einsum(axes, [..., *range(n), *columns], [..., *kept, *traced, *(n + k for k in kept)])
    return slab.reshape(lead + (1 << len(kept), 1 << len(traced), 1 << len(kept)))


def _block_partial_trace(view: np.ndarray, pure: bool, signs: Union[np.ndarray, None] = None) -> np.ndarray:
    """Sum a state's ``_trace_view`` over the occupations of its traced
    modes, keeping the kept ones in the order the view lists them, after
    conjugating the state by the diagonal sign matrix S whose
    ``_kept_traced_view`` is ``signs``, if given: the reduction of S psi or
    of S rho S. ``pure`` says whether the view is psi's or rho's. Callers
    build the signs by their own rule.

    psi is multiplied by its signs and reduced as an exactly Hermitized
    psi psi^dag of its dk x dt view, never forming its 2^N x 2^N density.
    rho is reduced from its traced-diagonal slab, and only the slab is
    conjugated, in the order ``_sign_conjugate`` multiplies, so no array
    of the density's size is made and the result is the bytes a
    conjugation of the whole density followed by the trace gives. A view
    with a leading stack axis holds states that are reduced one by one; a
    stack of sign rows reduces the one state once per row, as
    ``_sign_conjugate`` conjugates it. Either way the result stacks their
    dk x dk reductions.
    """
    if pure:
        if signs is not None:
            view = signs * view
        return _hermitize(view @ view.conj().mT)
    if signs is not None:
        view = signs[..., :, :, None] * view * signs.swapaxes(-1, -2)[..., None, :, :]
    return np.einsum("...ajb->...ab", view)


@dataclass(frozen=True, eq=False)
class FockVector:
    """A (possibly unnormalized) pure state as a dense amplitude array."""

    system: ModeSystem
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", _frozen_amplitudes(self.system, amps))

    @classmethod
    def _wrap(cls, system: ModeSystem, amplitudes: np.ndarray) -> "FockVector":
        """A state of a new complex128 amplitude array the package just
        built and nothing else holds: checked as the constructor checks
        a caller's array, then frozen and wrapped without a copy."""
        state = object.__new__(cls)
        object.__setattr__(state, "system", system)
        object.__setattr__(state, "amplitudes", _frozen_amplitudes(system, amplitudes))
        return state

    @classmethod
    def vacuum(cls, system: ModeSystem) -> "FockVector":
        return cls._wrap(system, _vacuum_amplitudes(system))

    def _rescaled(self) -> tuple[np.ndarray, float, float]:
        """The amplitudes divided by a scale, the scale and their norm. The
        scale is 1, and the amplitudes are returned as they are, unless the
        plain norm lies outside [1e-150, 1e150], where squares underflow or
        overflow; there it is the largest real or imaginary part."""
        amps = self.amplitudes
        with np.errstate(over="ignore"):
            n = float(np.linalg.norm(amps))
        scale = 1.0
        if not 1e-150 <= n <= 1e150 and amps.any():
            parts = amps.view(np.float64)
            scale = float(np.abs(parts).max())
            amps = (parts / scale).view(np.complex128)
            n = float(np.linalg.norm(amps))
        return amps, scale, n

    def norm(self) -> float:
        _, scale, n = self._rescaled()
        return scale * n

    def is_normalized(self) -> bool:
        return abs(self.norm() ** 2 - 1.0) < STATE_TOL

    def normalized(self) -> "FockVector":
        amps, _, n = self._rescaled()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockVector._wrap(self.system, amps / n)

    def amplitude(self, bits: str) -> complex:
        return complex(self.amplitudes[self.system.index_of_bits(bits)])

    def to_density(self) -> "DensityOperator":
        if not self.is_normalized():
            raise ValueError("state must be normalized before forming a density operator")
        amps = self.amplitudes
        return DensityOperator(self.system, _hermitize(np.outer(amps, amps.conj())))

    def to_json(self) -> dict:
        amps = {}
        for i, a in enumerate(self.amplitudes):
            if a != 0:
                amps[self.system.bits_of_index(i)] = [float(a.real), float(a.imag)]
        return {"modes": list(self.system.modes), "amplitudes": amps}

    @classmethod
    def from_json(cls, obj: dict) -> "FockVector":
        """Inverse of ``to_json``, every mode kept; other shapes raise ``ValueError``."""
        if not (
            isinstance(obj, dict)
            and isinstance(obj.get("modes"), list)
            and isinstance(obj.get("amplitudes"), dict)
        ):
            raise ValueError('state JSON must be an object with a "modes" list and an "amplitudes" object')
        modes = tuple(obj["modes"])
        system = ModeSystem(modes, a_count=len(modes))
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
        return cls._wrap(system, amps)


def _frozen_amplitudes(system: ModeSystem, amps: np.ndarray) -> np.ndarray:
    """``amps``, a complex128 array, checked to hold one finite amplitude
    per basis state of ``system`` and made read-only."""
    if amps.shape != (system.dim,):
        raise ValueError(f"expected {system.dim} amplitudes, got shape {amps.shape}")
    _check_finite_amplitudes(amps)
    amps.setflags(write=False)
    return amps


def _check_finite_amplitudes(amps: np.ndarray) -> None:
    """Refuse amplitudes, of one state or a stack of them, with an entry
    that is not finite."""
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite")


def _vacuum_amplitudes(system: ModeSystem) -> np.ndarray:
    """A new array of the vacuum's amplitudes."""
    amps = np.zeros(system.dim, dtype=np.complex128)
    amps[0] = 1.0
    return amps


def basis_state(system: ModeSystem, bits: str) -> FockVector:
    """The canonical basis vector for one occupation bitstring (phase +1)."""
    amps = np.zeros(system.dim, dtype=np.complex128)
    amps[system.index_of_bits(bits)] = 1.0
    return FockVector._wrap(system, amps)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A density matrix in the canonical occupation basis (row = ket string)."""

    system: ModeSystem
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = as_complex_matrix(self.matrix)
        if m.shape != (self.system.dim, self.system.dim):
            raise ValueError(f"expected a {self.system.dim}x{self.system.dim} matrix")
        _check_density(m)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _checked(cls, system: ModeSystem, matrix: np.ndarray) -> "DensityOperator":
        """Wrap a new complex128 matrix of the system's shape that has
        passed the finite check and ``_check_density``, as one row of a
        checked stack, without checking or copying it again."""
        matrix.setflags(write=False)
        rho = object.__new__(cls)
        object.__setattr__(rho, "system", system)
        object.__setattr__(rho, "matrix", matrix)
        return rho


FockState = Union[FockVector, DensityOperator]


def _state_data(state: FockState) -> tuple[ModeSystem, np.ndarray]:
    """A state's system, and its amplitudes if it is pure, else its matrix.
    The entry points read a state through it, so any other input is a
    ``TypeError`` before anything of it is read."""
    if not isinstance(state, (FockVector, DensityOperator)):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    return state.system, state.amplitudes if isinstance(state, FockVector) else state.matrix


def _check_density(m: np.ndarray) -> None:
    """The checks a finite density matrix passes, on one matrix or on each
    matrix of a stack along axis 0: Hermitian within ``DEFAULT_TOL`` and
    unit trace within ``STATE_TOL``."""
    _check_hermitian(m, DEFAULT_TOL)
    tr = m.trace(axis1=-2, axis2=-1)
    _first_failure(
        abs(tr - 1.0) >= STATE_TOL, ValueError, lambda i: f"density matrix trace is {tr[i]}, expected 1"
    )


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
    return FockVector._wrap(state.system, _apply_to_amplitudes(kind, k, state.amplitudes))


def _operator_string_amplitudes(ops: OperatorString, system: ModeSystem) -> np.ndarray:
    """A new array of the amplitudes of ``ops`` applied to the vacuum."""
    amplitudes = _vacuum_amplitudes(system)
    for label, kind in reversed(ops.factors):
        amplitudes = _apply_to_amplitudes(kind, system.position(label), amplitudes)
    return amplitudes


def from_operator_string(ops: OperatorString, system: ModeSystem) -> FockVector:
    """Apply an operator string to the vacuum, rightmost factor first.

    The result is a canonical basis vector up to an exact integer sign, or
    the zero vector when an occupation constraint is violated. The factors
    act on plain amplitude arrays, from a new array of the vacuum's to a
    new array per factor, and only the last is checked and wrapped in a
    ``FockVector``, without a copy: no vector is built for the vacuum or
    for any factor before the last.
    """
    return FockVector._wrap(system, _operator_string_amplitudes(ops, system))


#: Bytes for the temporaries of a chunked or stacked evaluation, the
#: package's one memory budget, read by ``_stack_runs`` alone. Each caller
#: states the bytes of one item of its stack: ``ssr_compliant`` a
#: density's row, ``data[0].nbytes``; the sweep a trial's eight arrays,
#: ``8 * state_bytes``; the ordering scan a group head's evaluation,
#: ``head_bytes`` (its signed state, a density's signed traced-diagonal
#: slab of dk^2 dt entries, or its dk x dk reduction), and an orbit's
#: matrix, 16 dk^2; and the check of a scan plan a member's sign
#: temporaries, ``14 << n_modes``. For ``ssr_compliant``,
#: budgets from 128 KiB to 1 MiB check an 11- or 12-mode density in the
#: same time within 10%, one BLAS thread, and the tracemalloc peak is 1.5
#: times the budget, 0.38 MiB, where one D x D mask peaked at 48 and 192
#: MiB (``BENCH_24.json``). For the stacks 256 KiB is the knee of a sweep
#: from 64 KiB to 1 MiB on a 2-core machine (``BENCH_14.json``): below it
#: the scan spends its time on per-chunk work, and above it larger stacks
#: raise the (4,4) scan's tracemalloc peak. The budget bounds the stacks
#: alone, not the scan plan, which outlives the call.
_STACK_BYTES = 256 * 1024


def _stack_runs(start: int, stop: int, item_bytes: int) -> Iterator[tuple[int, int]]:
    """The ``(lo, hi)`` runs of ``start..stop``, each of as many items of
    ``item_bytes`` as ``_STACK_BYTES`` holds, and at least one."""
    step = max(1, _STACK_BYTES // item_bytes)
    for lo in range(start, stop, step):
        yield lo, min(lo + step, stop)


def ssr_compliant(state: FockState) -> bool:
    """Parity superselection check.

    A state complies when no density entry above ``DEFAULT_TOL`` connects
    bitstrings of different total parity. For a pure state the largest such
    entry of psi psi^dagger is its largest even amplitude times its largest
    odd one, so the density is never formed. A density's cross-parity
    entries are its even rows' odd columns and its odd rows' even columns,
    read in runs of rows of at most ``_STACK_BYTES`` (``_stack_runs``), so
    no array of the density's size is made.
    """
    system, data = _state_data(state)
    if data.ndim == 1:
        return bool(_ssr_compliant_amplitudes(data, system.n_modes))
    even, odd = _parity_indices(system.n_modes)
    for rows, columns in ((even, odd), (odd, even)):
        for lo, hi in _stack_runs(0, len(rows), data[0].nbytes):
            if np.abs(data[rows[lo:hi]][:, columns]).max() > DEFAULT_TOL:
                return False
    return True


def _ssr_compliant_amplitudes(amplitudes: np.ndarray, n_modes: int) -> np.ndarray:
    """``ssr_compliant`` of a pure state's amplitudes, or of each state of a
    stack along axis 0, one verdict per state."""
    even, odd = _parity_indices(n_modes)
    size = np.abs(amplitudes)
    cross = size[..., even].max(axis=-1, initial=0.0) * size[..., odd].max(axis=-1, initial=0.0)
    return cross <= DEFAULT_TOL


#: How a state's entries sit across total parity, as ``_exact_parity``
#: reads them: some entry joins the two parities, both parities hold
#: entries but none joins them, or every entry lies in one parity.
_CROSS_PARITY, _BOTH_PARITIES, _ONE_PARITY = range(3)


def _exact_parity(data: np.ndarray, n_modes: int) -> tuple[int, int]:
    """How a state's amplitudes or matrix sit across total parity, read
    with no tolerance and without forming products that could underflow
    to 0, and the parity p they keep: ``(_ONE_PARITY, 0)`` when every odd
    entry is 0, ``(_ONE_PARITY, 1)`` when every even entry is 0,
    ``(_BOTH_PARITIES, 0)`` when every cross-parity entry is 0 but both
    parities are present, and ``(_CROSS_PARITY, 0)`` otherwise. A matrix
    entry counts as even when either of its indices is even and as odd when
    either is odd, so a cross-parity entry counts as both. A pure state with
    amplitudes of both parities is cross-parity: its density joins them."""
    odd = _parity_vector(n_modes).astype(bool)
    if data.ndim == 1:
        if not data[odd].any():
            return _ONE_PARITY, 0
        return (_ONE_PARITY, 1) if not data[~odd].any() else (_CROSS_PARITY, 0)
    # the columns the even rows reach, and those the odd rows reach
    nonzero = data != 0
    from_even, from_odd = nonzero[~odd].any(axis=0), nonzero[odd].any(axis=0)
    if from_even[odd].any() or from_odd[~odd].any():
        return _CROSS_PARITY, 0
    if from_even.any() and from_odd.any():
        return _BOTH_PARITIES, 0
    return _ONE_PARITY, int(from_odd.any())


def sector_indices(system: ModeSystem, sector: str) -> np.ndarray:
    """Basis indices of one parity sector (or all of them for "any"),
    ascending. The even and odd ones are ``_parity_indices``' shared
    read-only arrays."""
    if sector not in (EVEN, ODD, ANY_SECTOR):
        raise ValueError(f"sector must be 'even', 'odd' or 'any', got {sector!r}")
    if sector == ANY_SECTOR:
        return np.arange(system.dim)
    return _parity_indices(system.n_modes)[sector == ODD]


def random_state(system: ModeSystem, sector: str = ANY_SECTOR, seed: int = 0) -> FockVector:
    """Haar-uniform random pure state on a parity sector.

    Amplitudes are independent standard complex Gaussians on the sector's
    bitstrings, then normalized; the same seed always gives the same state.
    A negative seed is a ``ValueError``.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    amps = np.zeros(system.dim, dtype=np.complex128)
    _draw_amplitudes(amps, sector_indices(system, sector), seed)
    return FockVector._wrap(system, amps)


def _draw_amplitudes(row: np.ndarray, support: np.ndarray, seed: int) -> None:
    """Write the amplitudes of ``random_state``'s state of ``seed`` into
    ``row``, a zeroed complex128 vector: ``default_rng(seed)``'s real and
    then imaginary standard Gaussians on the sector's ``support``, divided
    in place by their norm. The one place the package draws a state, so
    ``random_state`` and each row of ``theorem_sweep``'s stacks hold the
    same bytes; the caller checks that they are finite."""
    rng = np.random.default_rng(seed)
    row[support] = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
    row /= float(np.linalg.norm(row))


def state_from_terms(
    system: ModeSystem, terms: Iterable[tuple[complex, OperatorString]], normalize: bool = True
) -> FockVector:
    """Superpose weighted operator strings applied to the vacuum; a sum
    that overflows is refused as not finite. The terms' amplitudes are
    summed as plain arrays and only the sum is checked and wrapped, without
    a copy, before it is normalized."""
    total = np.zeros(system.dim, dtype=np.complex128)
    with np.errstate(over="ignore"):
        for coeff, ops in terms:
            total = total + complex(coeff) * _operator_string_amplitudes(ops, system)
    state = FockVector._wrap(system, total)
    return state.normalized() if normalize else state


def state_to_json_str(state: FockVector) -> str:
    return json.dumps(state.to_json(), sort_keys=True)


def state_from_json_str(text: str) -> FockVector:
    try:
        return FockVector.from_json(json.loads(text))
    except RecursionError:
        raise ValueError("state JSON is nested too deeply") from None
