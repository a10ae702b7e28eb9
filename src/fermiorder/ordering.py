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
from typing import Sequence, Union

import numpy as np

from .fock import (
    DensityOperator,
    FockState,
    FockVector,
    ModeSystem,
    _check_label,
)


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
        if set(self.labels) != set(system.modes) or len(self.labels) != system.n_modes:
            raise InvalidOrderingError(
                f"ordering {self.labels} is not a permutation of {system.modes}"
            )

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
    ordering.validate_for(system)
    if not system.a_labels or not system.c_labels:
        return True
    last_kept = max(ordering.rank(l) for l in system.a_labels)
    first_traced = min(ordering.rank(l) for l in system.c_labels)
    return last_kept < first_traced


@lru_cache(maxsize=None)
def ordering_sign_vector(system: ModeSystem, ordering: ModeOrdering) -> np.ndarray:
    """Per-basis-state sign relating the ordering's phases to canonical ones.

    The sign of an occupation pattern is the parity of the permutation that
    reorders its occupied modes from the ordering's order into canonical
    order, which counts the inverted pairs that are both occupied.
    """
    ordering.validate_for(system)
    n = system.n_modes
    idx = np.arange(system.dim, dtype=np.int64)
    flips = np.zeros(system.dim, dtype=np.int64)
    ranks = [ordering.rank(label) for label in system.modes]
    for i in range(n):
        for j in range(i + 1, n):
            if ranks[i] > ranks[j]:
                mask = (1 << (n - 1 - i)) | (1 << (n - 1 - j))
                flips += (idx & mask) == mask
    signs = 1 - 2 * (flips & 1)
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
    signs = ordering_sign_vector(state.system, ordering)
    if isinstance(state, FockVector):
        return QubitState(state.system, ordering, signs * state.amplitudes)
    return QubitState(state.system, ordering, signs[:, None] * state.matrix * signs[None, :])


def inverse_image_restricted(q: QubitState) -> FockState:
    """Undo the qubit map on a (possibly reduced) register.

    The inverse uses the same diagonal sign matrix as the forward map, built
    from ``q.ordering`` on ``q.system``; for a register that came from a
    partial trace, that ordering must be the original one restricted to the
    surviving modes. Pure data returns a Fock vector; matrices return a
    density operator.
    """
    signs = ordering_sign_vector(q.system, q.ordering)
    if q.is_pure:
        return FockVector(q.system, signs * q.data)
    return DensityOperator(q.system, signs[:, None] * q.data * signs[None, :])
