"""Two partial-trace routes and their comparison.

The native fermionic route discards modes by sandwiching the density
operator between annihilator and creator products for every traced
occupation pattern and evaluating on the traced vacuum. The qubit route
maps the state onto qubits under a chosen mode ordering, performs the
ordinary tensor-product partial trace, and pulls the result back to the
kept fermionic block. For parity-superselected states and any ordering
that puts every kept mode before every traced mode, the routes agree
exactly; the checker and scanner here measure that, and measure how badly
it fails everywhere else.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .fock import (
    ANNIHILATION,
    CREATION,
    BipartitionSpec,
    DensityOperator,
    FockState,
    FockVector,
    ModeSystem,
    _apply_left,
    _apply_right,
    random_state,
    ssr_compliant,
)
from .numerics import DEFAULT_TOL, trace_distance
from .ordering import (
    ModeOrdering,
    QubitState,
    inverse_image_restricted,
    is_physical,
    qubit_image,
)

#: Orderings are enumerated exhaustively; N! at 8 modes is the ceiling.
MAX_SCAN_MODES = 8

#: Non-representative members per precedence class that the scan recomputes
#: to check the class is uniform.
SCAN_VERIFY_SAMPLES = 3


class InvalidBipartitionError(ValueError):
    """A bipartition does not cover the state's mode system."""


class NonPhysicalOrderingError(ValueError):
    """The ordering interleaves kept and traced modes; pass force=True to
    compare the routes anyway."""


class SystemTooLargeError(ValueError):
    """The exhaustive ordering scan is capped at 8 modes."""


def _resolve_bipartition(system: ModeSystem, bp: Union[BipartitionSpec, None]) -> BipartitionSpec:
    if bp is None:
        return system.bipartition()
    try:
        bp.validate_for(system)
    except ValueError as exc:
        raise InvalidBipartitionError(str(exc)) from None
    return bp


def _split_positions(system: ModeSystem, bp: BipartitionSpec) -> tuple[list[str], list[str]]:
    """Kept and traced labels, each in canonical order."""
    kept_set, traced_set = set(bp.kept), set(bp.traced)
    kept = [m for m in system.modes if m in kept_set]
    traced = [m for m in system.modes if m in traced_set]
    return kept, traced


def _embedding_indices(system: ModeSystem, kept: Sequence[str]) -> np.ndarray:
    """Full-system indices of kept-block basis states with traced modes empty."""
    shifts = [system.n_modes - 1 - system.position(label) for label in kept]
    sub = np.arange(1 << len(kept), dtype=np.int64)
    full = np.zeros_like(sub)
    for i, shift in enumerate(shifts):
        bit = (sub >> (len(kept) - 1 - i)) & 1
        full |= bit << shift
    return full


def fermionic_partial_trace(
    rho: FockState, bp: Union[BipartitionSpec, None] = None
) -> DensityOperator:
    """Trace out modes with the operator-sandwich construction.

    For every occupation pattern of the traced modes, the density operator
    is multiplied by the matching annihilators on the left and creators on
    the right (all signs supplied by the mode-operator machinery), the
    traced modes are then all empty, and the surviving block is read off in
    the kept modes' canonical basis. The pattern sum preserves the trace
    exactly and keeps the result Hermitian and positive.
    """
    if isinstance(rho, FockVector):
        rho = rho.to_density()
    system = rho.system
    bp = _resolve_bipartition(system, bp)
    kept, traced = _split_positions(system, bp)
    kept_system = ModeSystem(tuple(kept), a_count=len(kept))
    embed = _embedding_indices(system, kept)

    total = np.zeros((kept_system.dim, kept_system.dim), dtype=np.complex128)
    for pattern in range(1 << len(traced)):
        occupied = [
            label
            for i, label in enumerate(traced)
            if (pattern >> (len(traced) - 1 - i)) & 1
        ]
        m = rho.matrix
        for label in occupied:
            m = _apply_left(ANNIHILATION, label, m, system)
        for label in occupied:
            m = _apply_right(CREATION, label, m, system)
        total += m[np.ix_(embed, embed)]
    return DensityOperator(kept_system, total)


def qubit_partial_trace(q: QubitState, bp: Union[BipartitionSpec, None] = None) -> QubitState:
    """Ordinary tensor-product partial trace on the qubit register.

    The surviving register keeps the kept modes in canonical positions and
    remembers the ordering restricted to those modes, which is what the
    inverse map needs to return to the fermionic picture.
    """
    system = q.system
    bp = _resolve_bipartition(system, bp)
    kept, traced = _split_positions(system, bp)
    kept_system = ModeSystem(tuple(kept), a_count=len(kept))
    kept_ordering = q.ordering.restricted_to(kept)

    n = system.n_modes
    kept_axes = [system.position(l) for l in kept]
    traced_axes = [system.position(l) for l in traced]
    if q.is_pure:
        psi = q.data.reshape([2] * n)
        psi = psi.transpose(kept_axes + traced_axes).reshape(kept_system.dim, -1)
        reduced = psi @ psi.conj().T
    else:
        traced_dim = 1 << len(traced)
        m = q.data.reshape([2] * (2 * n))
        perm = kept_axes + traced_axes
        m = m.transpose(perm + [n + ax for ax in perm])
        m = m.reshape(kept_system.dim, traced_dim, kept_system.dim, traced_dim)
        reduced = np.einsum("ajbj->ab", m)
    return QubitState(kept_system, kept_ordering, reduced)


def qubit_route_reduction(
    rho: FockState, ordering: ModeOrdering, bp: Union[BipartitionSpec, None] = None
) -> DensityOperator:
    """Map to qubits, trace there, and pull back to the kept fermionic block."""
    if isinstance(rho, FockVector):
        rho = rho.to_density()
    q = qubit_image(rho, ordering)
    reduced = qubit_partial_trace(q, bp)
    out = inverse_image_restricted(reduced)
    assert isinstance(out, DensityOperator)
    return out


@dataclass(frozen=True, eq=False)
class TheoremReport:
    """Side-by-side comparison of the two reduction routes."""

    ordering: ModeOrdering
    max_entry_diff: float
    trace_distance: float
    ssr_compliant: bool
    physical: bool
    fermionic: DensityOperator
    qubit_route: DensityOperator
    tol: float = DEFAULT_TOL

    @property
    def agrees(self) -> bool:
        return self.max_entry_diff < self.tol

    def to_json(self) -> dict:
        return {
            "ordering": list(self.ordering.labels),
            "maxEntryDiff": self.max_entry_diff,
            "traceDistance": self.trace_distance,
            "ssr": self.ssr_compliant,
            "physical": self.physical,
            "agrees": self.agrees,
        }


def theorem_check(
    rho: FockState,
    ordering: ModeOrdering,
    bp: Union[BipartitionSpec, None] = None,
    tol: float = DEFAULT_TOL,
    force: bool = False,
) -> TheoremReport:
    """Compare the fermionic trace against the qubit route for one ordering.

    Orderings that interleave kept and traced modes are outside the
    equivalence statement and are rejected unless ``force`` is set, which
    is how the disagreement examples are produced on purpose.
    """
    if isinstance(rho, FockVector):
        rho = rho.to_density()
    system = rho.system
    bp = _resolve_bipartition(system, bp)
    physical = is_physical(ordering, _system_for(bp, system))
    if not physical and not force:
        raise NonPhysicalOrderingError(
            f"ordering {ordering} interleaves kept and traced modes; "
            "pass force=True to compare the routes anyway"
        )
    fermionic = fermionic_partial_trace(rho, bp)
    qubit_side = qubit_route_reduction(rho, ordering, bp)
    diff = float(np.abs(fermionic.matrix - qubit_side.matrix).max())
    dist = trace_distance(fermionic.matrix, qubit_side.matrix)
    return TheoremReport(
        ordering=ordering,
        max_entry_diff=diff,
        trace_distance=dist,
        ssr_compliant=ssr_compliant(rho),
        physical=physical,
        fermionic=fermionic,
        qubit_route=qubit_side,
        tol=tol,
    )


def _system_for(bp: BipartitionSpec, system: ModeSystem) -> ModeSystem:
    """A view of the system whose kept/traced split matches the bipartition."""
    kept, traced = _split_positions(system, bp)
    return ModeSystem(tuple(kept) + tuple(traced), a_count=len(kept))


# --- exhaustive ordering scan ----------------------------------------------


@dataclass(frozen=True, eq=False)
class OrderingClass:
    """All orderings whose qubit-route reduced state is one and the same."""

    representative: ModeOrdering
    orderings: tuple[ModeOrdering, ...]
    reduced: DensityOperator
    contains_physical: bool
    matches_fermionic: bool
    max_entry_diff: float

    @property
    def size(self) -> int:
        return len(self.orderings)

    def to_json(self) -> dict:
        return {
            "representative": list(self.representative.labels),
            "size": self.size,
            "containsPhysical": self.contains_physical,
            "matchesFermionic": self.matches_fermionic,
            "maxEntryDiff": self.max_entry_diff,
        }


def _precedence_key(ordering: ModeOrdering, kept: Sequence[str], traced: Sequence[str]) -> bytes:
    """Which traced modes precede which kept modes, packed as a byte key.

    The qubit-route reduced state depends on the ordering only through
    these kept/traced precedence bits: signs from inversions inside the
    kept block are cancelled by the inverse map, and signs from inversions
    inside the traced block square away on the trace diagonal.
    """
    ranks = {label: i for i, label in enumerate(ordering.labels)}
    bits = bytearray()
    for a in kept:
        for c in traced:
            bits.append(1 if ranks[c] < ranks[a] else 0)
    return bytes(bits)


def ordering_scan(
    rho: FockState,
    bp: Union[BipartitionSpec, None] = None,
    tol: float = DEFAULT_TOL,
) -> list[OrderingClass]:
    """Group all mode orderings by the reduced state their route produces.

    Every permutation of the modes is enumerated (8-mode cap), but the
    route is only evaluated once per precedence class; class membership is
    spot-checked by recomputing a few non-representative members, which
    must agree to the bit. Classes are then merged whenever two precedence
    classes happen to land on the identical reduced matrix, and each final
    class is compared against the fermionic trace. Classes are returned
    largest first, ties broken by representative labels.
    """
    from itertools import permutations

    if isinstance(rho, FockVector):
        rho = rho.to_density()
    system = rho.system
    if system.n_modes > MAX_SCAN_MODES:
        raise SystemTooLargeError(
            f"ordering scan enumerates all permutations; {system.n_modes} modes "
            f"exceeds the cap of {MAX_SCAN_MODES}"
        )
    bp = _resolve_bipartition(system, bp)
    kept, traced = _split_positions(system, bp)
    scan_system = _system_for(bp, system)

    groups: dict[bytes, list[ModeOrdering]] = {}
    for perm in permutations(system.modes):
        ordering = ModeOrdering(perm)
        groups.setdefault(_precedence_key(ordering, kept, traced), []).append(ordering)

    fermionic = fermionic_partial_trace(rho, bp)
    rng = np.random.default_rng(0)
    classes: dict[bytes, list[tuple[ModeOrdering, ...]]] = {}
    reduced_by_key: dict[bytes, DensityOperator] = {}
    for members in groups.values():
        representative = members[0]
        reduced = qubit_route_reduction(rho, representative, bp)
        others = members[1:]
        for pick in rng.choice(len(others), size=min(SCAN_VERIFY_SAMPLES, len(others)), replace=False) if others else []:
            check = qubit_route_reduction(rho, others[int(pick)], bp)
            if not np.array_equal(check.matrix, reduced.matrix):
                raise AssertionError(
                    f"precedence class of {representative} is not uniform: "
                    f"{others[int(pick)]} disagrees"
                )
        # adding 0.0 flushes negative zeros left behind by sign flips, which
        # would otherwise split byte-identical classes
        key = (reduced.matrix + 0.0).tobytes()
        classes.setdefault(key, []).append(tuple(members))
        reduced_by_key.setdefault(key, reduced)

    result = []
    for key, member_groups in classes.items():
        orderings = tuple(o for grp in member_groups for o in grp)
        reduced = reduced_by_key[key]
        diff = float(np.abs(reduced.matrix - fermionic.matrix).max())
        result.append(
            OrderingClass(
                representative=orderings[0],
                orderings=orderings,
                reduced=reduced,
                contains_physical=any(is_physical(o, scan_system) for o in orderings),
                matches_fermionic=diff < tol,
                max_entry_diff=diff,
            )
        )
    result.sort(key=lambda c: (-c.size, c.representative.labels))
    return result


# --- randomized sweep --------------------------------------------------------

SWEEP_COLUMNS = ("seed", "n", "m", "ordering", "maxEntryDiff", "traceDistance", "ssr")


@dataclass(frozen=True)
class SweepRow:
    seed: int
    n: int
    m: int
    ordering: str
    max_entry_diff: float
    trace_distance: float
    ssr: bool

    def as_record(self) -> dict:
        return {
            "seed": self.seed,
            "n": self.n,
            "m": self.m,
            "ordering": self.ordering,
            "maxEntryDiff": self.max_entry_diff,
            "traceDistance": self.trace_distance,
            "ssr": self.ssr,
        }


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    tol: float

    @property
    def max_entry_diff(self) -> float:
        return max((r.max_entry_diff for r in self.rows), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_entry_diff < self.tol

    @property
    def worst_seed(self) -> Union[int, None]:
        if not self.rows:
            return None
        return max(self.rows, key=lambda r: r.max_entry_diff).seed

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for r in self.rows:
            writer.writerow(
                [r.seed, r.n, r.m, r.ordering, repr(r.max_entry_diff), repr(r.trace_distance), r.ssr]
            )
        return buf.getvalue()


def sweep_system(n: int, m: int) -> ModeSystem:
    """The standard labelled system with n kept and m traced modes."""
    return ModeSystem.from_blocks(
        tuple(f"a{i}" for i in range(1, n + 1)),
        tuple(f"c{j}" for j in range(1, m + 1)),
    )


def theorem_sweep(
    n: int,
    m: int,
    trials: int,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> SweepResult:
    """Run the route comparison over random superselected states.

    Each trial draws a random pure state in one parity sector, forms its
    density operator, and checks the two routes under the canonical
    kept-before-traced ordering. ``trials`` states are drawn in the even
    sector, then ``trials`` in the odd one; trial seeds are ``seed + i`` in
    that order, so a reported seed reproduces its state directly.
    """
    system = sweep_system(n, m)
    ordering = ModeOrdering.canonical(system)
    rows = []
    offset = 0
    for sector in ("even", "odd"):
        for t in range(trials):
            state_seed = seed + offset + t
            state = random_state(system, sector=sector, seed=state_seed)
            report = theorem_check(state.to_density(), ordering, tol=tol)
            rows.append(
                SweepRow(
                    seed=state_seed,
                    n=n,
                    m=m,
                    ordering=str(ordering),
                    max_entry_diff=report.max_entry_diff,
                    trace_distance=report.trace_distance,
                    ssr=report.ssr_compliant,
                )
            )
        offset += trials
    return SweepResult(rows=tuple(rows), tol=tol)
