"""Ready-made states exercising the ordering and superselection machinery.

Each builder returns a normalized pure state over its own labelled mode
system, constructed through the operator algebra so that every phase is
derived rather than typed in.
"""

from __future__ import annotations

import numpy as np

from .fock import (
    FockVector,
    ModeSystem,
    OperatorString,
    state_from_terms,
)
from .ordering import ModeOrdering, QubitState


def two_delocalized_fermions() -> FockVector:
    """Two independent fermions, one spread over modes a,b and one over c,d.

    The state is (a† + b†)(c† + d†)|0⟩ / 2 with the kept block {a, b}. Its
    qubit image under the block ordering (a,b,c,d) factorizes across the
    blocks; under the interleaved ordering (a,d,b,c) one amplitude flips
    sign and the image becomes maximally entangled. Superselection holds
    either way (all support is in the two-particle sector).
    """
    system = ModeSystem.from_blocks(("a", "b"), ("c", "d"))
    terms = [
        (0.5, OperatorString.parse("a+ c+")),
        (0.5, OperatorString.parse("a+ d+")),
        (0.5, OperatorString.parse("b+ c+")),
        (0.5, OperatorString.parse("b+ d+")),
    ]
    return state_from_terms(system, terms, normalize=False)


def entangling_ordering() -> ModeOrdering:
    """The interleaved ordering that entangles two_delocalized_fermions."""
    return ModeOrdering(("a", "d", "b", "c"))


def parity_violating_state() -> FockVector:
    """Equal superposition of all four occupations of two modes.

    Every mode sits in (|0⟩ + |1⟩)/√2, so the state carries even-odd
    coherences and fails the parity superselection rule. Its reduced state
    over mode a depends on which ordering the qubit route uses, which is
    what makes it the standard disagreement witness.
    """
    system = ModeSystem.from_blocks(("a",), ("b",))
    terms = [
        (0.5, OperatorString(())),
        (0.5, OperatorString.parse("b+")),
        (0.5, OperatorString.parse("a+")),
        (0.5, OperatorString.parse("a+ b+")),
    ]
    return state_from_terms(system, terms, normalize=False)


def occupation_bell_state() -> FockVector:
    """(|00⟩ + |11⟩)/√2 over one kept mode A and one traced mode R.

    Both branches are even, so superselection holds; either marginal is
    maximally mixed and the negativity across A|R is 1/2.
    """
    system = ModeSystem.from_blocks(("A",), ("R",))
    amp = 1.0 / np.sqrt(2.0)
    terms = [
        (amp, OperatorString(())),
        (amp, OperatorString.parse("A+ R+")),
    ]
    return state_from_terms(system, terms, normalize=False)


def spin_singlet_state() -> FockVector:
    """One fermion per party, spins anticorrelated: (|↑↓⟩ + |↓↑⟩)/√2.

    Modes are (uA, dA) for the kept party and (uR, dR) for the traced one;
    the two canonical-basis amplitudes are both +1/√2. Each party holds
    exactly one particle in every branch, so all local operators stay in
    one parity sector and superselection is automatic.
    """
    system = ModeSystem.from_blocks(("uA", "dA"), ("uR", "dR"))
    amp = 1.0 / np.sqrt(2.0)
    terms = [
        (amp, OperatorString.parse("uA+ dR+")),
        (amp, OperatorString.parse("dA+ uR+")),
    ]
    return state_from_terms(system, terms, normalize=False)


def tilted_pair_state(theta: float) -> FockVector:
    """cos θ|10⟩ + sin θ|01⟩: one fermion shared between modes A and R.

    At θ = π/4 this is a maximally entangled pair; the family sweeps from
    product (θ = 0) to maximal, with every member in the odd sector.
    """
    system = ModeSystem.from_blocks(("A",), ("R",))
    terms = [
        (complex(np.cos(theta)), OperatorString.parse("A+")),
        (complex(np.sin(theta)), OperatorString.parse("R+")),
    ]
    return state_from_terms(system, terms, normalize=False)


def qubit_pair_system() -> ModeSystem:
    """A plain two-qubit register for states defined directly on qubits."""
    return ModeSystem.from_blocks(("q1",), ("q2",))


def qubit_state_from_matrix(matrix: np.ndarray) -> QubitState:
    """Wrap a 4x4 qubit density matrix for the measure functions."""
    system = qubit_pair_system()
    return QubitState(system, ModeOrdering.canonical(system), matrix)


def parse_state_spec(text: str) -> list[tuple[complex, OperatorString]]:
    """Parse "coeff: ops; coeff: ops" into weighted operator strings.

    Each term is a complex coefficient, a colon, and a whitespace-separated
    operator string; an empty operator part means the vacuum. Example:
    ``"0.5: a+ c+; -0.5: b+ d+"``.
    """
    terms = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ValueError(f"term {chunk!r} is missing the 'coeff:' prefix")
        coeff_text, ops_text = chunk.split(":", 1)
        try:
            coeff = complex(coeff_text.strip())
        except ValueError:
            raise ValueError(f"cannot parse coefficient {coeff_text.strip()!r}") from None
        if not np.isfinite(coeff):
            raise ValueError(f"coefficient {coeff_text.strip()!r} is not finite")
        terms.append((coeff, OperatorString.parse(ops_text)))
    if not terms:
        raise ValueError("state specification is empty")
    return terms


def state_from_spec(text: str, system: ModeSystem) -> FockVector:
    """Build a normalized state over a given system from the inline grammar."""
    return state_from_terms(system, parse_state_spec(text))


def maximally_mixed_matrix(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128) / dim


def one_particle_mixed_matrix(system: ModeSystem) -> np.ndarray:
    """Equal mixture of the single-occupation basis states of a system."""
    weights = np.zeros(system.dim)
    for k in range(system.n_modes):
        weights[1 << (system.n_modes - 1 - k)] = 1.0 / system.n_modes
    return np.diag(weights).astype(np.complex128)
