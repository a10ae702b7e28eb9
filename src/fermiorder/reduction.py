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
everywhere else. Every reduction and measure reads its bipartition through
``_bipartition_positions``, as kept and traced mode positions, and every
reduction here reads its split through one bounded cache of route plans,
``_route_plan``, keyed by system, bipartition and, for a route
comparison, ordering: what no state changes, the split's positions, its
kept system and the fermionic trace's signs, and under an ordering its
physical verdict and the qubit route's signs. The checker and the
randomized sweep share one comparison, ``_compare_routes``, which takes
one state or a stack of them. Every route reads a state through its
``_trace_view`` and its signs in the same kept|traced layout, and the
comparison and the scan share one qubit route, ``_qubit_reduction``,
which takes one sign view or a stack of them and reads the kept block's
signs off those same signs.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from itertools import chain, permutations
from operator import attrgetter
from typing import Callable, NamedTuple, Union

import numpy as np

from .fock import (
    _CROSS_PARITY,
    _ONE_PARITY,
    BipartitionSpec,
    DensityOperator,
    FockState,
    ModeSystem,
    _block_partial_trace,
    _check_density,
    _check_finite_amplitudes,
    _draw_amplitudes,
    _kept_traced_view,
    _exact_parity,
    _parity_indices,
    _sign_conjugate,
    _ssr_compliant_amplitudes,
    _stack_runs,
    _state_data,
    _trace_view,
    ssr_compliant,
)
from .numerics import DEFAULT_TOL, _check_eig_dim, _check_finite, _check_tol, _trace_distances
from .ordering import (
    ModeOrdering,
    QubitState,
    _inversion_signs,
    _kept_first,
    inverse_image_restricted,
    ordering_sign_vector,
    qubit_image,
)

#: Orderings are enumerated exhaustively. At the cap, the permutations and
#: their ranks (``_permutations``), two 8! x 8 int8 matrices of 315 KiB,
#: are shared by every 8-mode plan; a split's scan plan (``_scan_plan``)
#: holds one int64 array of 8! entries (315 KiB), each permutation's orbit,
#: then its samples and its orbits' bounds and signs, 0.31-0.57 MiB in all
#: (``nbytes``; 2.77-4.43 MiB at 9 modes), and both outlive the call in
#: their caches. Each call adds a few int64 arrays of 8! entries and an
#: int8 copy of the permutations in class order, which the returned
#: classes keep. It builds no ``ModeOrdering``
#: but its fermionic trace's, and no ``DensityOperator``:
#: ``OrderingClass`` builds its representative and its members from their
#: int8 rows, and wraps its matrix's bytes, when read. A density's samples
#: are signed on their traced-diagonal slab, dk^2 dt entries, which the
#: group budget of ``_STACK_BYTES`` counts, not on the whole density.
MAX_SCAN_MODES = 8

#: Non-representative members per scan group that the scan recomputes to
#: check the group is uniform.
SCAN_VERIFY_SAMPLES = 3


class InvalidBipartitionError(ValueError):
    """A bipartition does not cover the state's mode system."""


class NonPhysicalOrderingError(ValueError):
    """The ordering interleaves kept and traced modes; pass force=True to
    compare the routes anyway."""


class SystemTooLargeError(ValueError):
    """The exhaustive ordering scan is capped at ``MAX_SCAN_MODES`` modes."""


def _check_scan_size(system: ModeSystem) -> None:
    """Reject a system the exhaustive ordering scan will not enumerate."""
    if system.n_modes > MAX_SCAN_MODES:
        raise SystemTooLargeError(
            f"ordering scan enumerates all permutations; {system.n_modes} modes "
            f"exceeds the cap of {MAX_SCAN_MODES}"
        )


def _bipartition_positions(
    system: ModeSystem, bp: Union[BipartitionSpec, None]
) -> tuple[BipartitionSpec, list[int], list[int]]:
    """``bp``, or the system's own split if None, checked to cover the
    system, with its kept and traced mode positions in canonical order."""
    bp = system.bipartition() if bp is None else bp
    try:
        bp.validate_for(system)
    except ValueError as exc:
        raise InvalidBipartitionError(str(exc)) from None
    kept = [k for k, label in enumerate(system.modes) if label in bp.kept]
    traced = [k for k, label in enumerate(system.modes) if label in bp.traced]
    return bp, kept, traced


#: Plans ``_route_plan`` keeps. A plan holds at most two int8 sign views
#: of 2^N entries, views of cached sign vectors or copies of them, at most
#: 32 KiB at 14 modes, and its positions and kept system, so a full cache
#: holds at most 2 MiB of signs.
_ROUTE_PLANS = 64


@dataclass(frozen=True, eq=False)
class _RoutePlan:
    """What a reduction on one split, or a route comparison on it under
    one ordering, reads and no state changes: the kept and traced
    positions, the kept system, the traced-first ordering's signs of the
    fermionic trace, and, only for a plan made with an ordering, the
    physical verdict and the ordering's signs for the qubit route, else
    None. Signs are read-only int8 ``_kept_traced_view``s. The fermionic
    trace's are built by ``_fermionic``, from ``_route_plan``, when first
    read, and then kept on the plan, so a qubit-only caller never builds
    them and a later read is an attribute read."""

    kept: tuple[int, ...]
    traced: tuple[int, ...]
    physical: Union[bool, None]
    kept_system: ModeSystem
    qubit_signs: Union[np.ndarray, None]
    _fermionic: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def fermionic_signs(self) -> np.ndarray:
        return self._fermionic()


@lru_cache(maxsize=_ROUTE_PLANS)
def _route_plan(
    system: ModeSystem, bp: Union[BipartitionSpec, None], ordering: Union[ModeOrdering, None] = None
) -> _RoutePlan:
    """The ``_RoutePlan`` of ``bp`` (the system's own split if None), and
    of ``ordering`` if one is given: the one place a reduction resolves its
    split. It raises what reading them raises, in this order: an
    ``InvalidBipartitionError`` for a split that does not cover the system
    or keeps no mode, then an ``InvalidOrderingError`` for an ordering of
    other labels, with the message ``is_physical`` gives on the split's
    blocks in canonical order. An exception is not cached, so a call that
    raises raises again."""
    bp, kept, traced = _bipartition_positions(system, bp)
    if not kept:
        raise InvalidBipartitionError(f"bipartition {bp.kept}|{bp.traced} keeps no mode: the kept block is empty")
    kept_labels = tuple(system.modes[k] for k in kept)
    traced_labels = tuple(system.modes[k] for k in traced)
    physical = None if ordering is None else _kept_first(ordering, kept_labels, traced_labels)

    def signs(o: ModeOrdering) -> np.ndarray:
        view = _kept_traced_view(ordering_sign_vector(system, o), kept, traced)
        view.setflags(write=False)
        return view

    return _RoutePlan(
        tuple(kept),
        tuple(traced),
        physical,
        ModeSystem.from_blocks(kept_labels),
        None if ordering is None else signs(ordering),
        lambda: signs(ModeOrdering(traced_labels + kept_labels)),
    )


def _qubit_reduction(view: np.ndarray, pure: bool, signs: np.ndarray) -> np.ndarray:
    """The qubit route of a state's ``_trace_view`` under the ordering
    whose sign vector has the ``_kept_traced_view`` ``signs``, or under
    each ordering of a stack of such sign rows; or of each state of a
    stacked view under one ordering. It is ``qubit_image``'s sign
    conjugation, the block trace of ``qubit_partial_trace`` and the kept
    block's signs of ``inverse_image_restricted``, without the objects in
    between. The kept block's signs are the ordering's own with every
    traced mode empty, ``signs[..., 0]``: the occupied pairs the ordering
    inverts are then kept pairs, inverted exactly when the ordering
    restricted to the kept modes inverts them."""
    return _sign_conjugate(signs[..., 0], _block_partial_trace(view, pure, signs))


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
    and reduced without forming its density; it must be normalized. A
    density is reduced from its traced-diagonal slab, the dk^2 dt entries
    rho(xz, yz) the trace reads, and only the slab is conjugated, so no
    array of the density's size is made: at (5,5) the tracemalloc peak is
    under 1/8 of the density's bytes, where conjugating the whole density
    peaked at twice them. The bytes are those of that whole conjugation.
    The trace is preserved exactly, and the result is Hermitian and
    positive. The split and its signs are read from the split's route plan
    (``_route_plan``), built by the first call on it. An empty kept block
    is an ``InvalidBipartitionError``.
    """
    system, data = _state_data(rho)
    plan = _route_plan(system, bp)
    pure = data.ndim == 1
    view = _trace_view(data, plan.kept, plan.traced, pure)
    return DensityOperator(plan.kept_system, _block_partial_trace(view, pure, plan.fermionic_signs))


def qubit_partial_trace(q: QubitState, bp: Union[BipartitionSpec, None] = None) -> QubitState:
    """Ordinary tensor-product partial trace on the qubit register.

    The surviving register keeps the kept modes in canonical positions and
    remembers the ordering restricted to those modes, which is what the
    inverse map needs to return to the fermionic picture. The reduced
    register is a matrix, also when a pure register is reduced. The split
    is read from its route plan (``_route_plan``). An empty kept block is
    an ``InvalidBipartitionError``, raised before anything is
    traced, so ``qubit_route_reduction`` refuses it too. Any input other
    than a ``QubitState`` is a ``TypeError``.
    """
    if not isinstance(q, QubitState):
        raise TypeError(f"unsupported state type {type(q).__name__}")
    plan = _route_plan(q.system, bp)
    reduced = _block_partial_trace(_trace_view(q.data, plan.kept, plan.traced, q.is_pure), q.is_pure)
    return QubitState(plan.kept_system, q.ordering.restricted_to(plan.kept_system.modes), reduced)


def qubit_route_reduction(
    rho: FockState, ordering: ModeOrdering, bp: Union[BipartitionSpec, None] = None
) -> DensityOperator:
    """Map to qubits, trace there, and pull back to the kept fermionic block.
    ``theorem_check`` computes the same matrix from the arrays alone."""
    return inverse_image_restricted(qubit_partial_trace(qubit_image(rho, ordering), bp))


def _compare_routes(
    plan: _RoutePlan, data: np.ndarray, pure: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The fermionic trace and the qubit route of ``plan``, their largest
    entry difference and their trace distance, for one state's amplitudes
    (``pure``) or matrix, or for each state of a stack along the leading
    axes. The state is viewed once, as its ``_trace_view``, and each route
    signs that one view with its own sign rows from the plan. Where the two
    routes agree to the bit on every row, as they do for superselected
    states under physical orderings, the distances are +0.0 with no
    eigensolve (``_trace_distances``); otherwise they come from one
    eigensolve of the stack's differences.

    Each check the one-state objects make runs once on the whole stack, in
    the order they make it, and a stack's message names the first offending
    row: the eigensolver's dimension cap, first, before anything is
    reduced; each reduction finite, Hermitian within ``DEFAULT_TOL`` and of
    unit trace within ``STATE_TOL`` (``DensityOperator``); and their
    difference finite and Hermitian within ``2 * DEFAULT_TOL``
    (``trace_distance``), which an exactly-zero difference passes by
    construction. The state's own entries are not checked again: every
    caller hands over those of a ``FockVector`` or ``DensityOperator``,
    whose constructor refused non-finite ones.
    """
    _check_eig_dim(plan.kept_system.dim)
    view = _trace_view(data, plan.kept, plan.traced, pure)
    fermionic = _block_partial_trace(view, pure, plan.fermionic_signs)
    qubit_side = _qubit_reduction(view, pure, plan.qubit_signs)
    for reduced in (fermionic, qubit_side):
        _check_finite(reduced)
        _check_density(reduced)
    diff = np.abs(fermionic - qubit_side).max(axis=(-2, -1))
    return fermionic, qubit_side, diff, _trace_distances(fermionic, qubit_side)


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

    This is the one-state case of the stacked comparison that
    ``theorem_sweep`` runs, with the same checks: both routes are reduced
    from one view of the state's arrays, and the reductions, their
    difference and its eigensolve are checked as ``_compare_routes``
    lists. What depends on the split and the ordering alone, their
    positions, the physical verdict, the kept system and both routes'
    signs, is read from the route plan, ``_route_plan``, which the first
    call on a split and ordering builds and later calls reuse. ``force``,
    the refusal of a non-physical ordering and every check of the state
    run on each call: a refused non-physical ordering leaves its plan
    cached, and a refused split or ordering of other labels leaves
    nothing. When the routes agree to the bit the trace
    distance is +0.0 and nothing is diagonalized; only a nonzero difference
    takes an eigensolve. Orderings that interleave kept and traced
    modes are outside the equivalence statement and are rejected unless
    ``force`` is set, which is how the disagreement examples are produced
    on purpose. An empty kept block is an ``InvalidBipartitionError``,
    raised before anything is reduced or diagonalized. A ``tol`` outside
    (0, 1), or NaN, is a ``ValueError`` before the state is read.
    """
    _check_tol(tol)
    system, data = _state_data(rho)
    plan = _route_plan(system, bp, ordering)
    if not plan.physical and not force:
        raise NonPhysicalOrderingError(
            f"ordering {ordering} interleaves kept and traced modes; "
            "pass force=True to compare the routes anyway"
        )
    fermionic, qubit_side, diff, dist = _compare_routes(plan, data, data.ndim == 1)
    return TheoremReport(
        ordering=ordering,
        max_entry_diff=float(diff),
        trace_distance=float(dist),
        ssr_compliant=ssr_compliant(rho),
        physical=plan.physical,
        fermionic=DensityOperator._checked(plan.kept_system, fermionic),
        qubit_route=DensityOperator._checked(plan.kept_system, qubit_side),
        tol=tol,
    )


# --- exhaustive ordering scan ----------------------------------------------


@dataclass(frozen=True, eq=False)
class OrderingClass:
    """All orderings whose qubit-route reduced state is one and the same,
    held as int8 rows of indices into ``_modes``, the system's labels, in
    permutation order. The first row, the class's earliest permutation, is
    the representative, built as a ``ModeOrdering`` when first read and
    kept from then on. The reduced state is held as ``_matrix``, the bytes
    of its matrix on the kept system ``_system``, already checked as a row
    of its scan's stack, and ``reduced`` wraps them as a
    ``DensityOperator`` when first read, without checking or copying them
    again."""

    _modes: np.ndarray
    _members: np.ndarray
    _system: ModeSystem
    _matrix: bytes
    contains_physical: bool
    matches_fermionic: bool
    max_entry_diff: float

    @classmethod
    def _wrap(cls, **fields) -> "OrderingClass":
        """A class from its fields, set as they are, as
        ``DensityOperator._checked`` does, without the dataclass
        ``__init__``."""
        c = object.__new__(cls)
        c.__dict__.update(fields)
        return c

    @cached_property
    def reduced(self) -> DensityOperator:
        dk = self._system.dim
        matrix = np.frombuffer(self._matrix, np.complex128).reshape(dk, dk)
        return DensityOperator._checked(self._system, matrix)

    @cached_property
    def representative(self) -> ModeOrdering:
        return ModeOrdering(tuple(self._modes[self._members[0]].tolist()))

    @property
    def orderings(self) -> tuple[ModeOrdering, ...]:
        return tuple(ModeOrdering(tuple(row)) for row in self._modes[self._members].tolist())

    @property
    def size(self) -> int:
        return len(self._members)

    def to_json(self) -> dict:
        return {
            "representative": list(self.representative.labels),
            "size": self.size,
            "containsPhysical": self.contains_physical,
            "matchesFermionic": self.matches_fermionic,
            "maxEntryDiff": self.max_entry_diff,
        }


@lru_cache(maxsize=MAX_SCAN_MODES)
def _permutations(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Every permutation of n modes as read-only int8 rows: ``perms[p]``
    lists the mode indices of the p-th permutation in ``itertools`` order,
    and ``ranks[p, i]`` is the position of mode i in it. They depend on the
    mode count alone, so the scan plans of one mode count share them; the
    eight counts up to ``MAX_SCAN_MODES`` hold 0.69 MiB, 0.62 MiB of it at
    8 modes."""
    perms = np.fromiter(chain.from_iterable(permutations(range(n_modes))), np.int8)
    perms = perms.reshape(-1, n_modes)
    ranks = np.argsort(perms, axis=1).astype(np.int8)
    for array in (perms, ranks):
        array.setflags(write=False)
    return perms, ranks


#: Plans ``_scan_plan`` keeps. An 8-mode plan, at the ``MAX_SCAN_MODES``
#: cap, holds 0.31-0.57 MiB besides the permutations it shares (``nbytes``),
#: at most 585 KiB (a (4,4) split keyed by precedence group), and a plan
#: for a state of one parity at most 440 KiB (432 KiB at (5,3)), so a full
#: cache holds at most 4.6 MiB, and 5.3 MiB with the permutations of every
#: mode count up to the cap. A 9-mode plan would hold 2.77-4.43 MiB.
_SCAN_PLANS = 8


class _ScanPlan(NamedTuple):
    """What the ordering scan of one split needs and no state changes, as
    read-only arrays, and the orbit of the physical orderings. Groups are
    the orderings the route runs once for, orbits those a class matrix is
    derived for; samples are the evaluated orderings, and each group's run
    of them starts at its first member. Sign rows are the kept-side signs
    d_R of the rows R an orbit complements relative to its group's first
    member, one set per total parity p; a sample's are its orbit's, since
    the rows an ordering complements depend on its orbit alone, and they
    exist only where the verdict frees row flips (``_scan_plan``)."""

    orbit: np.ndarray  # each permutation's orbit; a group's orbits are one run
    samples: np.ndarray  # group g's are samples[bounds[g] : bounds[g + 1]]
    bounds: np.ndarray
    orbit_bounds: np.ndarray  # group g's orbits are orbit_bounds[g] to [g + 1]
    orbit_signs: Union[np.ndarray, None]  # [p, o]: orbit o's for parity p
    physical: int


@lru_cache(maxsize=_SCAN_PLANS)
def _scan_plan(n_modes: int, kept: tuple[int, ...], traced: tuple[int, ...], parity: int) -> _ScanPlan:
    """The ``_ScanPlan`` of one split, for a state of ``_exact_parity``'s
    verdict ``parity``.

    The flip rule: a verdict frees the flips of the kept x traced
    precedence matrix M that change the route's reduction by a known sign
    or not at all, and an ordering's key is its M made canonical under the
    flips its verdict frees. A cross-parity state frees none, and the key
    is M. A state of both parities frees column flips, which XOR one mask
    into every kept row (rule (i) of ``ordering_scan``): the key XORs every
    row with the first kept mode's row, which fixes the mask. A state of one
    parity also frees row flips, which complement kept rows R and conjugate
    the reduction by the kept-side signs d_R (rule (ii)): the key then
    replaces each row r by min(r, r XOR all-ones). The orderings of one key
    form a group, which the route runs once for; those that also share its
    rows before they are complemented form an orbit, whose matrix is its
    group's first member conjugated by d_R for the rows R the orbit
    complements relative to it."""
    _, ranks = _permutations(n_modes)
    k, t = len(kept), len(traced)
    # rows[p, a] packs kept mode a's precedence bits: bit c is set when
    # traced[c] precedes it; a permutation's code packs all its rows, at
    # most 16 bits. The physical orderings, no traced mode before a kept
    # one, have every row 0
    rows = (ranks[:, None, traced] < ranks[:, kept, None]) @ (1 << np.arange(t))
    shifts = t * np.arange(k)
    # the flip rule: columns fixes the column mask where it is free, flips
    # marks the rows whose complement is lower where rows are free, and the
    # group key complements them
    columns = rows ^ rows[:, :1] * (parity != _CROSS_PARITY)
    ones = (1 << t) - 1
    flips = ((columns ^ ones) < columns) & (parity == _ONE_PARITY)
    # groups are numbered in order of first appearance; first holds where
    # each group's code first appears
    codes = ((columns ^ flips * ones) << shifts).sum(axis=1)
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    group = np.argsort(np.argsort(first))[inverse]
    # orbits are numbered by group, then by column key, so each group's
    # orbits are one run
    _, orbit = np.unique(group << k * t | (columns << shifts).sum(axis=1), return_inverse=True)
    # sorted by group and then by a random key that is lowest at the first
    # member, each group's run is its first member, then the others at random
    keys = np.random.default_rng(0).random(len(ranks))
    keys[first] = -1.0
    by_key = np.lexsort((keys, group))
    runs = group[by_key]
    samples = by_key[np.arange(len(ranks)) - np.searchsorted(runs, runs) <= SCAN_VERIFY_SAMPLES]
    bounds = np.searchsorted(group[samples], np.arange(len(first) + 1))
    # one member of each orbit, which shares its group and its flips
    member = np.zeros(orbit.max() + 1, dtype=np.int64)
    member[orbit] = np.arange(len(orbit))
    orbit_bounds = np.searchsorted(group[member], np.arange(len(first) + 1))
    # each orbit's flipped rows relative to the orbit of its group's first
    # member, samples[bounds[g]], kept mode a at bit k - 1 - a as in a kept
    # index
    flipped = flips[member] @ (1 << np.arange(k)[::-1])
    relative = flipped ^ flipped[orbit[samples[bounds[:-1]]]][group[member]]
    plan = _ScanPlan(
        orbit=orbit,
        samples=samples,
        bounds=bounds,
        orbit_bounds=orbit_bounds,
        orbit_signs=_kept_side_signs(k)[:, relative] if parity == _ONE_PARITY else None,
        physical=int(orbit[rows.any(axis=1).argmin()]),
    )
    for array in plan[:-1]:
        if array is not None:
            array.setflags(write=False)
    return plan


def _kept_side_signs(n_kept: int) -> np.ndarray:
    """d_R(x) = (-1)^((p + |x|) |x & R|) as int8 at [p, R, x], p a total
    parity, R a set of kept rows and x a kept index, kept mode a at bit
    k - 1 - a of both. Complementing the kept rows R of the precedence
    matrix multiplies amplitude (x, z) of a state of parity p by d_R(x),
    since |z| = p + |x| on its support, so it conjugates the reduction by
    d_R."""
    x = np.arange(1 << n_kept)
    overlap = np.bitwise_count(x[:, None] & x)
    exponent = (np.arange(2)[:, None, None] + np.bitwise_count(x).astype(np.int64)) * overlap
    return np.where(exponent % 2, -1, 1).astype(np.int8)


def ordering_scan(
    rho: FockState,
    bp: Union[BipartitionSpec, None] = None,
    tol: float = DEFAULT_TOL,
) -> list[OrderingClass]:
    """Group all mode orderings by the reduced state their route produces.

    The qubit-route reduced state depends on the ordering only through its
    kept/traced precedence matrix M, whose bit (a, c) is set when traced
    mode c precedes kept mode a: signs from inversions inside the kept
    block are cancelled by the inverse map, and signs from inversions
    inside the traced block square away on the trace diagonal. The
    ordering's sign factors as s_K(x) s_T(z) (-1)^(x.M.z) over kept bits x
    and traced bits z. Every permutation of the modes is enumerated (8-mode
    cap) as a row of mode ranks, and the orderings are grouped by M in
    order of first appearance.

    Rule (i), the column rule: for a state that is exactly
    parity-superselected, with every entry between opposite total
    parities exactly 0, the reduction depends on M only up to XOR-ing one
    common mask into every kept row. Flipping column c multiplies reduced
    entry (x, y) by (-1)^((|x| + |y|) z_c), and |x| and |y| have one
    parity wherever the state is supported.

    Rule (ii), the row rule: for a state of one total parity p, also
    complementing the kept rows R of M multiplies amplitude (x, z) by
    d_R(x) = (-1)^((p + |x|) |x & R|), since |z| = p + |x| on the support:
    a sign on the kept side alone, so the reduction becomes d_R rho d_R.

    ``_exact_parity`` reads, with no tolerance, which rules a state obeys,
    and the flip rule of ``_scan_plan`` turns that verdict into the groups
    the route runs once for and the orbits a matrix is derived for, from
    its group's first member. A class gathers the orbits that land on one
    reduced matrix. The orbit of the zero matrix, every ordering that keeps
    the kept modes contiguous, lands in the class that matches the
    fermionic trace.

    The route is evaluated once per group on its first member, and on up to
    ``SCAN_VERIFY_SAMPLES`` other members of the group picked by one draw of
    random keys; each must equal the first member conjugated by its own
    d_R, to the bit (d_R is 1 unless the verdict frees row flips). The
    samples come from the whole group, so for a state of one parity that
    checks both rules on every group, and for a mixture the column rule on
    every class. These evaluations run stacked, whole groups at a time, in
    chunks whose largest stacked array stays within ``_STACK_BYTES`` unless
    one group alone is larger (``_stack_runs``): each chunk's sign rows
    come from one ``_inversion_signs`` call and go through
    ``_qubit_reduction``, the route ``theorem_check`` compares. A density
    is signed on its traced-diagonal slab alone, so a sample costs dk^2 dt
    entries, not the density's 4^N, and an even (3,3) density scan runs its
    16 groups in two chunks, not one chunk per group. Each
    chunk's evaluated first members are checked as one stack, with the
    checks ``DensityOperator`` makes: d_R moves no diagonal entry and no
    deviation size, so a derived matrix passes them as its first member
    does. The chunk then derives the matrix of each orbit of its groups,
    at most ``_STACK_BYTES`` of them at a time (``_stack_runs``), by the
    rule that also gives each sample the matrix it must equal, the scan's
    one ``_sign_conjugate`` call; no stack is held while the next is
    derived. Orbits are merged whenever they land on the identical reduced
    matrix, with negative zeros flushed to +0.0 first; the flushed bytes of
    the orbit that opens a class are its merge key and its matrix, held
    once, and
    its ``reduced`` wraps them as a ``DensityOperator`` only when a caller
    first reads it. Each
    stack's orbits are compared against the fermionic trace in one array
    operation, and each writes its largest entry difference as its class's:
    the orbits of a class share its bytes, so they write the same value,
    with no search for the orbit that opened it. Each class lists
    its members in permutation order, the order of
    ``itertools.permutations`` over the system's modes, so the result does
    not depend on the grouping, and its representative is its earliest
    permutation. Classes are returned largest first, ties broken by
    representative labels. ``contains_physical`` flags only the class of
    the kept-before-traced orderings.

    What no state changes is the split's plan, ``_scan_plan``: each
    permutation's orbit number, the sampled members, where each group's
    run of them and of its orbits starts, and the kept-side signs of each
    orbit, which its samples share. It is keyed by the mode count, the
    kept and traced positions and ``_exact_parity``'s verdict, so a plan
    never serves a state whose grouping it does not fit, and the cache
    keeps the last ``_SCAN_PLANS`` plans, read-only. The permutation rows
    and their ranks depend on the mode count alone and are shared by its
    plans (``_permutations``). Scanning many states on one split pays for
    the plan once; a process that runs one scan, as the CLI does, gains
    nothing. The orderings' own sign rows are not kept: each chunk signs
    its own. The split, its kept system and the signs of the fermionic
    trace the classes are compared against are read from the split's route
    plan (``_route_plan``), and that trace is given the checks
    ``DensityOperator`` makes, so a scan constructs no ``DensityOperator``.
    An empty kept block is an ``InvalidBipartitionError``; an empty traced
    block gives one class. A ``tol`` outside (0, 1), or NaN, is a
    ``ValueError`` before the state is read.
    """
    _check_tol(tol)
    system, data = _state_data(rho)
    _check_scan_size(system)
    route = _route_plan(system, bp)
    # the state is viewed once; the fermionic trace is given the checks
    # ``DensityOperator`` makes
    pure = data.ndim == 1
    view = _trace_view(data, route.kept, route.traced, pure)
    fermionic = _block_partial_trace(view, pure, route.fermionic_signs)
    _check_finite(fermionic)
    _check_density(fermionic)
    fermionic = fermionic.ravel()

    parity, p = _exact_parity(data, system.n_modes)
    plan = _scan_plan(system.n_modes, route.kept, route.traced, parity)
    perms, ranks = _permutations(system.n_modes)
    names = np.array(system.modes)
    dk = route.kept_system.dim
    # a sample's largest stacked array is its signed state, its signed
    # traced-diagonal slab of dk * dk * dt entries for a density, or its
    # reduction
    state_size = data.size if data.ndim == 1 else dk * data.shape[0]
    group_bytes = data.itemsize * max(state_size, dk * dk) * (1 + SCAN_VERIFY_SAMPLES)

    def derive(reduced: np.ndarray, heads: np.ndarray, orbits) -> np.ndarray:
        # the matrices of ``orbits``: the rows ``heads`` of a chunk's reduced
        # stack, each its group's first member, conjugated by the orbit's
        # kept-side signs d_R when the verdict frees row flips
        derived = reduced[heads]
        if parity == _ONE_PARITY:
            derived = _sign_conjugate(plan.orbit_signs[p, orbits], derived)
        return derived

    # a class's key is its matrix's bytes, the one copy of it the scan keeps
    classes: dict[bytes, int] = {}
    # each class's largest entry difference from the fermionic trace; a
    # scan has at most one class per orbit
    diffs = np.empty(plan.orbit_bounds[-1])
    orbit_class = np.empty(plan.orbit_bounds[-1], dtype=np.int64)
    for g, end in _stack_runs(0, len(plan.bounds) - 1, group_bytes):
        lo, hi = plan.bounds[g], plan.bounds[end]
        rows = plan.samples[lo:hi]
        signs = _kept_traced_view(_inversion_signs(ranks[rows]), route.kept, route.traced)
        reduced = _qubit_reduction(view, pure, signs)
        # each sample must be its group's first member, where the group's
        # run starts, conjugated by the kept-side signs of the rows its
        # orbit complements relative to it
        starts = plan.bounds[g:end] - lo
        heads = np.repeat(starts, np.diff(plan.bounds[g : end + 1]))
        bad = np.flatnonzero((reduced != derive(reduced, heads, plan.orbit[rows])).any(axis=(1, 2)))
        if bad.size:
            head, other = names[perms[rows[[heads[bad[0]], bad[0]]]]].tolist()
            raise AssertionError(f"scan group of {tuple(head)} is not uniform: {tuple(other)} disagrees")
        # the checks ``DensityOperator`` makes run on the first members as
        # one stack: a sign conjugation moves no diagonal entry and no
        # deviation size, so each derived matrix passes them as its first
        # member does
        _check_finite(reduced[starts])
        _check_density(reduced[starts])
        # the same rule gives each orbit of the chunk's groups its matrix,
        # a stack of at most ``_STACK_BYTES`` of them at a time, since a
        # group of a state of one parity may have more orbits than samples;
        # adding 0.0 flushes negative zeros left behind by sign flips, which
        # would otherwise split byte-identical classes
        o_lo, o_hi = plan.orbit_bounds[g], plan.orbit_bounds[end]
        orbit_heads = np.repeat(starts, np.diff(plan.orbit_bounds[g : end + 1]))
        for o, o_end in _stack_runs(o_lo, o_hi, data.itemsize * dk * dk):
            flushed = derive(reduced, orbit_heads[o - o_lo : o_end - o_lo], slice(o, o_end))
            flushed += 0.0
            flushed = flushed.reshape(o_end - o, -1)
            stack_class = [
                classes.setdefault(key, len(classes))
                for key in flushed.view(f"V{flushed[0].nbytes}").ravel().tolist()
            ]
            orbit_class[o:o_end] = stack_class
            # every orbit of a class has its bytes, so its diff, too
            diffs[stack_class] = np.abs(flushed - fermionic).max(axis=1)
            # no stack is held while the next is derived
            del flushed

    # the last chunk's reductions are not held while the members are sorted
    del reduced
    # each class lists its members in permutation order; class c's members
    # are ordered[starts[c] : ends[c]], its representative ordered[starts[c]].
    # Each permutation's class, 315 KiB at 8 modes, is not held while the
    # classes are built
    member_class = orbit_class[plan.orbit]
    ordered = perms[np.argsort(member_class, kind="stable")]
    ordered.setflags(write=False)
    ends = np.cumsum(np.bincount(member_class)).tolist()
    del member_class
    starts = [0, *ends[:-1]]
    # classes go largest first, ties broken by representative labels, read
    # as each mode's rank in label order
    label_rank = np.argsort(sorted(range(system.n_modes), key=system.modes.__getitem__))
    heads = label_rank[ordered[starts]].tolist()
    keys = list(classes)
    class_diffs = diffs[: len(keys)].tolist()
    physical = int(orbit_class[plan.physical])
    return [
        OrderingClass._wrap(
            _modes=names,
            _members=ordered[starts[c] : ends[c]],
            _system=route.kept_system,
            _matrix=keys[c],
            contains_physical=c == physical,
            matches_fermionic=class_diffs[c] < tol,
            max_entry_diff=class_diffs[c],
        )
        for c in sorted(range(len(keys)), key=lambda c: (starts[c] - ends[c], heads[c]))
    ]


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
        return dict(zip(SWEEP_COLUMNS, _row_values(self)))


# the fields in order, read without the deep copy ``dataclasses.astuple`` makes
_row_values = attrgetter(*(f.name for f in fields(SweepRow)))


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
        writer.writerows(map(_row_values, self.rows))
        return buf.getvalue()


def sweep_system(n: int, m: int) -> ModeSystem:
    """The standard labelled system with n kept and m traced modes; a
    negative count is a ``ValueError``."""
    if n < 0 or m < 0:
        raise ValueError(f"mode counts must be non-negative, got ({n},{m})")
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

    Each trial draws a random pure state in one parity sector, and the two
    routes are compared on it, without forming its density, under the
    canonical kept-before-traced ordering. ``trials`` states are drawn in
    the even sector, then ``trials`` in the odd one; trial seeds are
    ``seed + i`` in that order. Each trial is drawn straight into its row
    of one zeroed stack per chunk by ``fock._draw_amplitudes``, the draw
    ``random_state`` makes, so ``random_state(system, sector, s)`` holds a
    reported seed's state byte for byte; no ``FockVector`` is built per
    trial, and the stack is checked finite once, with ``random_state``'s
    message. The split and both routes' signs are read once, from the
    route plan of the canonical ordering (``_route_plan``). The trials are
    not checked one by one: each chunk's stack is compared in one
    evaluation of ``_compare_routes``, each chunk a run of
    ``_stack_runs``: as many trials as keep the stacked arrays it holds at
    once within ``_STACK_BYTES``, the budget the ordering scan also keeps,
    and at least one; at 14 modes that is one trial. A chunk whose two
    routes agree to the bit, as superselected states do under the canonical ordering, gets its trace
    distances with no eigensolve; any other chunk takes one eigensolve of
    its stacked differences. Every check
    ``theorem_check`` makes runs on each chunk, a failure naming the first
    offending row of its chunk, and every row equals the ``theorem_check``
    of its state, to the bit. The canonical ordering lists the kept block
    first, so it is physical. A negative ``trials``, ``seed`` or mode count
    is a ``ValueError`` and an empty kept block, ``n == 0``, an
    ``InvalidBipartitionError``, each raised before any state is drawn, as
    is the ``ValueError`` of a ``tol`` outside (0, 1), or NaN.
    """
    _check_tol(tol)
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    system = sweep_system(n, m)
    ordering = ModeOrdering.canonical(system)
    plan = _route_plan(system, None, ordering)
    label = str(ordering)
    # a trial's largest array, its state or its reduction, is this many
    # complex128 bytes, and a chunk's comparison holds up to eight arrays
    # of that size per trial at once (tracemalloc: 5 to 8)
    state_bytes = 16 * max(system.dim, 1 << 2 * n)
    even, odd = _parity_indices(system.n_modes)
    rows = []
    for lo, hi in _stack_runs(0, 2 * trials, 8 * state_bytes):
        seeds = range(seed + lo, seed + hi)
        amplitudes = np.zeros((len(seeds), system.dim), dtype=np.complex128)
        for row, s in zip(amplitudes, seeds):
            _draw_amplitudes(row, even if s < seed + trials else odd, s)
        _check_finite_amplitudes(amplitudes)
        _, _, diff, dist = _compare_routes(plan, amplitudes, True)
        ssr = _ssr_compliant_amplitudes(amplitudes, system.n_modes)
        rows += [
            SweepRow(s, n, m, label, d, t, c)
            for s, d, t, c in zip(seeds, diff.tolist(), dist.tolist(), ssr.tolist())
        ]
    return SweepResult(rows=tuple(rows), tol=tol)
