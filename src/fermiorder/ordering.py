"""Ordering-dependent maps from fermionic states to qubit registers.

A mode ordering fixes how occupied modes are listed when a Fock basis
vector is rewritten as a product of creation operators before being read
off as a qubit basis state. Two orderings disagree by the parity of the
permutation between them on each occupation pattern, so the induced qubit
images differ by diagonal sign matrices. Everything downstream (partial
traces of the image, inverse maps on the kept block) keeps the tensor
factors in canonical positions and folds the ordering into those signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .fock import (
    MAX_MODES,
    DensityOperator,
    FockState,
    FockVector,
    ModeSystem,
    _check_label,
    _sign_conjugate,
    _state_data,
)


#: Entries kept by ``ordering_sign_vector``, the package's one cache of
#: per-ordering signs, which serves both reduction routes. An entry is one
#: int8 sign per basis state, 2**14 B = 16 KiB at 14 modes, so a full cache
#: holds at most 64 MiB. The ordering scan computes its signs in batches
#: outside this cache, from the per-mode-count pair table of ``_pair_table``;
#: the bound is for callers that walk many orderings one call at a time.
_SIGN_CACHE_SIZE = 4096


class InvalidOrderingError(ValueError):
    """An ordering does not list each mode of its system exactly once."""


class InvalidSubsetError(ValueError):
    """A restriction asked for labels the ordering does not contain."""


@dataclass(frozen=True)
class ModeOrdering:
    """A permutation of mode labels, written first-to-last."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        for label in labels:
            _check_label(label)
        if len(set(labels)) != len(labels):
            raise InvalidOrderingError(f"ordering repeats labels: {labels}")
        object.__setattr__(self, "labels", labels)

    @classmethod
    def canonical(cls, system: ModeSystem) -> "ModeOrdering":
        return cls(system.modes)

    def validate_for(self, system: ModeSystem) -> None:
        self._check_permutation_of(system.modes)

    def _check_permutation_of(self, modes: tuple[str, ...]) -> None:
        if set(self.labels) != set(modes) or len(self.labels) != len(modes):
            raise InvalidOrderingError(f"ordering {self.labels} is not a permutation of {modes}")

    def rank(self, label: str) -> int:
        """Position of a label within the ordering (0 = acts first)."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvalidSubsetError(f"label {label!r} not in ordering {self.labels}") from None

    def restricted_to(self, labels: Sequence[str]) -> "ModeOrdering":
        """The ordering induced on a subset of labels."""
        keep = set(labels)
        missing = keep - set(self.labels)
        if missing:
            raise InvalidSubsetError(f"labels {sorted(missing)} not in ordering {self.labels}")
        return ModeOrdering(tuple(l for l in self.labels if l in keep))

    def __str__(self) -> str:
        return ",".join(self.labels)


def is_physical(ordering: ModeOrdering, system: ModeSystem) -> bool:
    """True when every kept mode precedes every traced mode in the ordering."""
    return _kept_first(ordering, system.a_labels, system.c_labels)


def _kept_first(ordering: ModeOrdering, kept: tuple[str, ...], traced: tuple[str, ...]) -> bool:
    """The physical-ordering rule on a split given as its two label blocks:
    ``ordering`` must list exactly their labels, and every kept label must
    come before every traced one. ``is_physical`` reads the blocks off a
    system; the route comparison passes them without building one."""
    ordering._check_permutation_of(kept + traced)
    if not kept or not traced:
        return True
    return max(map(ordering.rank, kept)) < min(map(ordering.rank, traced))


@lru_cache(maxsize=MAX_MODES + 1)
def _pair_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mode pairs i < j, and a float32 table, 1 where basis index x
    (column) occupies both modes of pair (row). 5.7 MiB at 14 modes."""
    first, second = np.triu_indices(n, 1)
    occupied = (np.arange(1 << n) >> (n - 1 - np.arange(n))[:, None]) & 1
    table = (occupied[first] & occupied[second]).astype(np.float32)
    table.setflags(write=False)
    return first, second, table


def _inversion_signs(ranks: np.ndarray) -> np.ndarray:
    """Per-basis-state int8 signs for a stack of orderings, one row per
    ordering.

    Row r of ``ranks`` gives, for each mode in canonical order, its position
    in ordering r. The sign of an occupation pattern is the parity of the
    permutation that reorders its occupied modes from the ordering's order
    into canonical order, which counts the inverted pairs that are both
    occupied: one product of the stack's inverted-pair matrix with
    ``_pair_table``, exact since a count is at most 91. Only rank
    comparisons enter, so the rank columns of a subset of modes give that
    subset's signs without renumbering.
    """
    first, second, table = _pair_table(ranks.shape[1])
    counts = (ranks[:, first] > ranks[:, second]).astype(np.float32) @ table
    return 1 - 2 * (counts.astype(np.int8) & 1)


@lru_cache(maxsize=_SIGN_CACHE_SIZE)
def ordering_sign_vector(system: ModeSystem, ordering: ModeOrdering) -> np.ndarray:
    """Per-basis-state sign relating the ordering's phases to canonical ones,
    by the pair-inversion rule of ``_inversion_signs``."""
    ordering.validate_for(system)
    signs = _inversion_signs(np.array([[ordering.rank(label) for label in system.modes]]))[0]
    signs.setflags(write=False)
    return signs


def ordering_sign(system: ModeSystem, ordering: ModeOrdering, bits: str) -> int:
    """Sign picked up by one basis bitstring under the ordering's map."""
    return int(ordering_sign_vector(system, ordering)[system.index_of_bits(bits)])


@dataclass(frozen=True, eq=False)
class QubitState:
    """A qubit-register state remembering which map produced it.

    ``data`` is a dense vector (pure) or square matrix (mixed) over the
    qubits of ``system``, one qubit per mode in canonical positions;
    ``ordering`` records the sign convention the image was taken in.
    """

    system: ModeSystem
    ordering: ModeOrdering
    data: np.ndarray

    def __post_init__(self) -> None:
        self.ordering.validate_for(self.system)
        data = np.asarray(self.data, dtype=np.complex128)
        d = self.system.dim
        if data.shape not in ((d,), (d, d)):
            raise ValueError(f"expected shape ({d},) or ({d}, {d}), got {data.shape}")
        data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def is_pure(self) -> bool:
        return self.data.ndim == 1


def qubit_image(state: FockState, ordering: ModeOrdering) -> QubitState:
    """Map a fermionic state onto qubits under one mode ordering.

    Basis vectors keep their canonical tensor positions; the ordering only
    contributes a diagonal sign on each occupation pattern. For a density
    operator the sign matrix acts on both sides.
    """
    system, data = _state_data(state)
    signs = ordering_sign_vector(system, ordering)
    return QubitState(system, ordering, _sign_conjugate(signs, data))


def inverse_image_restricted(q: QubitState) -> FockState:
    """Undo the qubit map on a (possibly reduced) register.

    The inverse uses the same diagonal sign matrix as the forward map, built
    from ``q.ordering`` on ``q.system``; for a register that came from a
    partial trace, that ordering must be the original one restricted to the
    surviving modes. Pure data returns a Fock vector; matrices return a
    density operator. Any input other than a ``QubitState`` is a
    ``TypeError``.
    """
    if not isinstance(q, QubitState):
        raise TypeError(f"unsupported state type {type(q).__name__}")
    data = _sign_conjugate(ordering_sign_vector(q.system, q.ordering), q.data)
    if q.is_pure:
        return FockVector(q.system, data)
    return DensityOperator(q.system, data)
