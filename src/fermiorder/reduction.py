"""Two partial-trace routes and their comparison.

The native fermionic route discards modes by sandwiching the density
operator between annihilator and creator products for every traced
occupation pattern and evaluating on the traced vacuum. That sandwich is
the sign conjugation of the ordering that lists the traced modes first,
followed by a block trace, so both routes take their signs from the one
pair-inversion rule of ``_inversion_signs``. The qubit route maps the
state onto qubits under a chosen mode ordering, performs the ordinary
tensor-product partial trace, and pulls the result back to the kept
fermionic block. Both routes reduce a pure state from its amplitudes,
never forming its density. For parity-superselected states the routes
agree exactly under every ordering that lists the kept modes as one
contiguous run, whatever traced modes stand before or after it. Moving an
occupied traced mode across the run flips an entry's sign once per
occupied kept mode on each side, and superselection gives both sides the
same kept parity wherever their traced occupations match. The physical
orderings, every kept mode before every traced mode, are the runs with no
traced mode in front; ``is_physical`` tests that narrower rule. The
checker and scanner here measure the agreement, and how badly it fails
everywhere else.
"""

from __future__ import annotations

import csv
import io
from dataclasses import astuple, dataclass
from itertools import permutations
from typing import Union

import numpy as np

from .fock import (
    BipartitionSpec,
    DensityOperator,
    FockState,
    FockVector,
    ModeSystem,
    _block_partial_trace,
    _sign_conjugate,
    random_state,
    ssr_compliant,
)
from .numerics import DEFAULT_TOL, trace_distance
from .ordering import (
    ModeOrdering,
    QubitState,
    _inversion_signs,
    inverse_image_restricted,
    is_physical,
    ordering_sign_vector,
    qubit_image,
)

#: Orderings are enumerated exhaustively. At the cap, a scan holds an
#: 8! x 8 int8 rank matrix and 40320 label tuples; it builds a
#: ``ModeOrdering`` only for each class representative, and
#: ``OrderingClass.orderings`` builds its members when read.
MAX_SCAN_MODES = 8

#: Bytes the ordering scan may give one stacked array, which holds a state
#: or a dk x dk reduction per evaluated ordering.
_SCAN_CHUNK_BYTES = 64 * 1024

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


def _check_scan_size(system: ModeSystem) -> None:
    """Reject a system the exhaustive ordering scan will not enumerate."""
    if system.n_modes > MAX_SCAN_MODES:
        raise SystemTooLargeError(
            f"ordering scan enumerates all permutations; {system.n_modes} modes "
            f"exceeds the cap of {MAX_SCAN_MODES}"
        )


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


def fermionic_partial_trace(
    rho: FockState, bp: Union[BipartitionSpec, None] = None
) -> DensityOperator:
    """Trace out modes with the operator-sandwich construction.

    Sandwiching by the annihilators of a traced occupation pattern and their
    adjoint multiplies entry (x, y) by s(x) s(y), where s(x) is the sign of
    annihilating x's occupied traced modes in canonical order. That is the
    sign of the ordering that lists the traced modes first, so the pattern
    sum is that ordering's sign conjugation followed by a block trace over
    the traced occupations: the fermionic trace is ``qubit_route_reduction``
    under the traced-first ordering. A pure state is conjugated as s * psi
    and reduced without forming its density; it must be normalized. The
    trace is preserved exactly, and the result is Hermitian and positive.
    """
    system = rho.system
    bp = _resolve_bipartition(system, bp)
    kept, traced = _split_positions(system, bp)
    signs = ordering_sign_vector(system, ModeOrdering(traced + kept))
    data = rho.amplitudes if isinstance(rho, FockVector) else rho.matrix
    reduced = _block_partial_trace(_sign_conjugate(signs, data), system, kept)
    return DensityOperator(ModeSystem.from_blocks(kept), reduced)


def qubit_partial_trace(q: QubitState, bp: Union[BipartitionSpec, None] = None) -> QubitState:
    """Ordinary tensor-product partial trace on the qubit register.

    The surviving register keeps the kept modes in canonical positions and
    remembers the ordering restricted to those modes, which is what the
    inverse map needs to return to the fermionic picture. The reduced
    register is a matrix, also when a pure register is reduced.
    """
    bp = _resolve_bipartition(q.system, bp)
    kept, _ = _split_positions(q.system, bp)
    reduced = _block_partial_trace(q.data, q.system, kept)
    return QubitState(ModeSystem.from_blocks(kept), q.ordering.restricted_to(kept), reduced)


def qubit_route_reduction(
    rho: FockState, ordering: ModeOrdering, bp: Union[BipartitionSpec, None] = None
) -> DensityOperator:
    """Map to qubits, trace there, and pull back to the kept fermionic block."""
    return inverse_image_restricted(qubit_partial_trace(qubit_image(rho, ordering), bp))


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
    system = rho.system
    bp = _resolve_bipartition(system, bp)
    physical = is_physical(ordering, ModeSystem.from_blocks(*_split_positions(system, bp)))
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


# --- exhaustive ordering scan ----------------------------------------------


@dataclass(frozen=True, eq=False)
class OrderingClass:
    """All orderings whose qubit-route reduced state is one and the same.

    The members are held as label tuples; ``orderings`` builds them as
    ``ModeOrdering`` objects each time it is read."""

    representative: ModeOrdering
    _member_labels: tuple[tuple[str, ...], ...]
    reduced: DensityOperator
    contains_physical: bool
    matches_fermionic: bool
    max_entry_diff: float

    @property
    def orderings(self) -> tuple[ModeOrdering, ...]:
        return tuple(ModeOrdering(labels) for labels in self._member_labels)

    @property
    def size(self) -> int:
        return len(self._member_labels)

    def to_json(self) -> dict:
        return {
            "representative": list(self.representative.labels),
            "size": self.size,
            "containsPhysical": self.contains_physical,
            "matchesFermionic": self.matches_fermionic,
            "maxEntryDiff": self.max_entry_diff,
        }


def ordering_scan(
    rho: FockState,
    bp: Union[BipartitionSpec, None] = None,
    tol: float = DEFAULT_TOL,
) -> list[OrderingClass]:
    """Group all mode orderings by the reduced state their route produces.

    The qubit-route reduced state depends on the ordering only through its
    kept/traced precedence bits, which traced modes precede which kept
    ones: signs from inversions inside the kept block are cancelled by the
    inverse map, and signs from inversions inside the traced block square
    away on the trace diagonal. Every permutation of the modes is
    enumerated (8-mode cap) as a row of mode ranks, and the orderings are
    grouped by their precedence bits in order of first appearance. The
    route is evaluated once per group on its first member, and on up to
    ``SCAN_VERIFY_SAMPLES`` other members drawn at random, which must agree
    to the bit. These evaluations run stacked, whole groups at a time, in
    chunks whose largest stacked array stays within ``_SCAN_CHUNK_BYTES``
    unless one group alone is larger. Groups are then merged whenever they
    land on the identical reduced matrix, and each final class is compared
    against the fermionic trace. Classes are returned largest first, ties
    broken by representative labels. For a superselected state, every
    ordering that keeps the kept modes contiguous lands in the one class
    that matches the fermionic trace exactly; ``contains_physical`` still
    flags only kept-before-traced orderings.
    """
    system = rho.system
    _check_scan_size(system)
    bp = _resolve_bipartition(system, bp)
    kept, traced = _split_positions(system, bp)
    kept_cols = [system.position(m) for m in kept]
    traced_cols = [system.position(m) for m in traced]
    fermionic = fermionic_partial_trace(rho, bp)
    data = rho.amplitudes if isinstance(rho, FockVector) else rho.matrix

    # ranks[p, i] is the position of canonical mode i in the p-th permutation
    perms = np.array(list(permutations(range(system.n_modes))), dtype=np.int8)
    ranks = np.empty_like(perms)
    np.put_along_axis(ranks, perms, np.arange(system.n_modes), axis=1)
    # bit (kept a, traced c) is set when c precedes a; the bits of one
    # permutation are packed into one integer code, at most 16 bits wide
    bits = (ranks[:, None, traced_cols] < ranks[:, kept_cols, None]).reshape(len(ranks), -1)
    codes = bits @ (1 << np.arange(bits.shape[1]))
    groups: dict[int, list[int]] = {}
    for p, code in enumerate(codes.tolist()):
        groups.setdefault(code, []).append(p)
    members = list(groups.values())
    # physical orderings are exactly those where no traced mode precedes a kept one
    physical = np.array([code == 0 for code in groups])

    rng = np.random.default_rng(0)
    samples = []
    for m in members:
        others = len(m) - 1
        picks = rng.choice(others, size=min(SCAN_VERIFY_SAMPLES, others), replace=False) if others else []
        samples.append([m[0]] + [m[1 + int(pick)] for pick in picks])

    orderings = list(permutations(system.modes))
    kept_system = ModeSystem.from_blocks(kept)
    group_bytes = data.itemsize * max(data.size, kept_system.dim**2) * (1 + SCAN_VERIFY_SAMPLES)
    per_chunk = max(1, _SCAN_CHUNK_BYTES // group_bytes)
    classes: dict[bytes, tuple[DensityOperator, list[int]]] = {}
    for g in range(0, len(samples), per_chunk):
        chunk = samples[g : g + per_chunk]
        lengths = [len(rows) for rows in chunk]
        starts = np.cumsum([0] + lengths[:-1])
        heads = np.repeat(starts, lengths)
        rows = np.concatenate(chunk)
        r = ranks[rows]
        signed = _sign_conjugate(_inversion_signs(r), data)
        reduced = _block_partial_trace(signed, system, kept, batch=True)
        reduced = _sign_conjugate(_inversion_signs(r[:, kept_cols]), reduced)
        bad = np.flatnonzero((reduced != reduced[heads]).any(axis=(1, 2)))
        if bad.size:
            raise AssertionError(
                f"precedence class of {orderings[rows[heads[bad[0]]]]} is not uniform: "
                f"{orderings[rows[bad[0]]]} disagrees"
            )
        for h, head in enumerate(starts, start=g):
            # adding 0.0 flushes negative zeros left behind by sign flips,
            # which would otherwise split byte-identical classes
            key = (reduced[head] + 0.0).tobytes()
            if key not in classes:
                classes[key] = (DensityOperator(kept_system, reduced[head]), [])
            classes[key][1].append(h)

    result = []
    for reduced_op, merged in classes.values():
        members_of = tuple(orderings[p] for h in merged for p in members[h])
        diff = float(np.abs(reduced_op.matrix - fermionic.matrix).max())
        result.append(
            OrderingClass(
                representative=ModeOrdering(members_of[0]),
                _member_labels=members_of,
                reduced=reduced_op,
                contains_physical=bool(physical[merged].any()),
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
        return dict(zip(SWEEP_COLUMNS, astuple(self)))


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
        # csv writes floats as their repr, the shortest round-tripping form
        writer.writerows(astuple(r) for r in self.rows)
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

    Each trial draws a random pure state in one parity sector and checks
    the two routes on it, without forming its density, under the canonical
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
            report = theorem_check(state, ordering, tol=tol)
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
