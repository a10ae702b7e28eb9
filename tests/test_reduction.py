import re
import tracemalloc
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiorder.fock import (
    BipartitionSpec,
    DensityOperator,
    FockVector,
    ModeSystem,
    basis_state,
    random_state,
    ssr_compliant,
)
from fermiorder.entanglement import negativity, partial_transpose, ppt_separable
from fermiorder.numerics import (
    DimensionMismatchError,
    NotHermitianError,
    hermitian_eigenvalues,
    trace_distance,
)
from fermiorder import fock
from fermiorder import ordering as ordering_module
from fermiorder import reduction
from fermiorder.ordering import (
    InvalidOrderingError,
    ModeOrdering,
    _inversion_signs,
    inverse_image_restricted,
    is_physical,
    qubit_image,
)
from fermiorder.reduction import (
    InvalidBipartitionError,
    NonPhysicalOrderingError,
    SweepResult,
    SweepRow,
    SystemTooLargeError,
    fermionic_partial_trace,
    qubit_partial_trace,
    qubit_route_reduction,
    sweep_system,
    theorem_check,
    theorem_sweep,
)
from fermiorder.states import (
    occupation_bell_state,
    parity_violating_state,
    spin_singlet_state,
    two_delocalized_fermions,
)
from _oracles import (
    column_orbit,
    fermionic_trace,
    partial_transpose as partial_transpose_oracle,
    precedence_rows,
    qubit_ptrace,
    random_density,
    row_column_orbit,
    walsh_hadamard_reduction,
    walsh_hadamard_table,
)

tol = 1e-12


def _walsh_hadamard_table(state, bp):
    """The oracle's table for a state, and the traced positions it is over."""
    system = state.system
    traced = [system.position(m) for m in bp.traced]
    data = state.amplitudes if isinstance(state, FockVector) else state.matrix
    return walsh_hadamard_table(data, system.n_modes, traced), traced


def ordering_scan(state, bp=None):
    """``reduction.ordering_scan``, with every class's reduced state checked
    against the Walsh-Hadamard oracle at its representative ordering."""
    classes = reduction.ordering_scan(state, bp)
    system = state.system
    table, traced = _walsh_hadamard_table(state, bp or system.bipartition())
    for c in classes:
        ranks = [c.representative.labels.index(m) for m in system.modes]
        oracle = walsh_hadamard_reduction(table, system.n_modes, traced, ranks)
        assert np.abs(c.reduced.matrix - oracle).max() < tol
    return classes


def mixed_ssr_density(system, seed):
    """Convex mixture of same-parity pure states (superselected but not pure)."""
    a = random_state(system, sector="even", seed=seed)
    b = random_state(system, sector="even", seed=seed + 1)
    m = 0.3 * np.outer(a.amplitudes, a.amplitudes.conj()) + 0.7 * np.outer(
        b.amplitudes, b.amplitudes.conj()
    )
    return DensityOperator(system, m)


# --- fermionic route ----------------------------------------------------------


def test_trace_of_occupied_pair():
    system = ModeSystem.from_blocks(("a",), ("c",))
    rho = basis_state(system, "11").to_density()
    reduced = fermionic_partial_trace(rho)
    assert np.array_equal(reduced.matrix, np.diag([0.0, 1.0]).astype(complex))


def test_bell_marginal_maximally_mixed():
    rho = occupation_bell_state().to_density()
    reduced = fermionic_partial_trace(rho)
    assert np.abs(reduced.matrix - np.eye(2) / 2).max() < tol


def test_singlet_marginals_both_parties():
    rho = spin_singlet_state().to_density()
    target = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
    kept = fermionic_partial_trace(rho)
    assert np.abs(kept.matrix - target).max() < tol
    other = fermionic_partial_trace(rho, BipartitionSpec(kept=("uR", "dR"), traced=("uA", "dA")))
    assert np.abs(other.matrix - target).max() < tol


def test_fermionic_route_matches_dense_oracle():
    """Bitwise operator sandwiches against kron-built matrices, several splits.

    Kept sets that are not first or not contiguous leave traced modes ahead
    of kept ones, so their sandwich signs do not cancel even on
    superselected states; those cases check the sign table itself. Each
    pure case is also passed as the ``FockVector`` itself, which the route
    reduces without forming its density.
    """
    # (modes, kept positions, sector); "rank2" draws a mixed density instead
    cases = [
        (2, (0,), "any"),
        (3, (0, 1), "any"),
        (4, (0, 1), "even"),
        (4, (0,), "any"),
        (4, (0, 2), "even"),
        (4, (0, 2), "any"),
        (5, (1, 3, 4), "odd"),
        (5, (1, 3, 4), "any"),
        (4, (1, 3), "rank2"),
    ]
    for n_modes, kept_positions, sector in cases:
        system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
        traced_positions = [p for p in range(n_modes) if p not in kept_positions]
        bp = BipartitionSpec(
            kept=tuple(system.modes[p] for p in kept_positions),
            traced=tuple(system.modes[p] for p in traced_positions),
        )
        for seed in range(4):
            if sector == "rank2":
                rho = DensityOperator(system, random_density(system.dim, 2, np.random.default_rng(seed)))
                inputs = (rho,)
            else:
                state = random_state(system, sector=sector, seed=seed)
                rho = state.to_density()
                inputs = (rho, state)
            reference = fermionic_trace(rho.matrix, n_modes, traced_positions)
            for given in inputs:
                ours = fermionic_partial_trace(given, bp)
                assert np.abs(ours.matrix - reference).max() < tol


def test_fermionic_trace_is_traced_first_qubit_route():
    """The sandwich signs are those of the ordering that lists the traced
    modes first, so the fermionic trace is the qubit route under that
    ordering to the last bit, for kept sets anywhere in the system and
    blocks listed in any order."""
    rng = np.random.default_rng(2017)
    for n_modes in range(2, 9):
        system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
        for trial in range(8):
            k = int(rng.integers(1, n_modes))
            modes = [str(m) for m in rng.permutation(system.modes)]
            bp = BipartitionSpec(kept=tuple(modes[:k]), traced=tuple(modes[k:]))
            kind = ("even", "odd", "any", "rank3")[trial % 4]
            if kind == "rank3":
                state = DensityOperator(system, random_density(system.dim, 3, rng))
            else:
                state = random_state(system, sector=kind, seed=int(rng.integers(1 << 30)))
            traced_first = ModeOrdering(bp.traced + bp.kept)
            assert np.array_equal(
                fermionic_partial_trace(state, bp).matrix,
                qubit_route_reduction(state, traced_first, bp).matrix,
            )


def test_fermionic_route_preserves_trace_and_hermiticity():
    system = sweep_system(2, 2)
    for seed in range(5):
        rho = random_state(system, sector="any", seed=seed).to_density()
        reduced = fermionic_partial_trace(rho)
        assert abs(np.trace(reduced.matrix) - 1.0) < tol
        assert np.abs(reduced.matrix - reduced.matrix.conj().T).max() == 0.0


def test_fermionic_route_positive():
    system = sweep_system(2, 2)
    for seed in range(5):
        rho = random_state(system, sector="any", seed=seed + 50).to_density()
        reduced = fermionic_partial_trace(rho)
        eigs = hermitian_eigenvalues(reduced.matrix).eigenvalues
        assert eigs[-1] > -1e-10


def test_ssr_propagates_to_reduction():
    system = sweep_system(2, 2)
    rho = mixed_ssr_density(system, seed=7)
    assert ssr_compliant(rho)
    assert ssr_compliant(fermionic_partial_trace(rho))


def _image(state, ordering):
    return qubit_image(state.to_density(), ordering)


#: Every public entry point that takes a bipartition, called on a state, an
#: ordering and that bipartition.
BIPARTITION_ENTRY_POINTS = {
    "fermionic_partial_trace": lambda state, o, bp: fermionic_partial_trace(state, bp),
    "qubit_partial_trace": lambda state, o, bp: qubit_partial_trace(_image(state, o), bp),
    "theorem_check": lambda state, o, bp: theorem_check(state, o, bp),
    "ordering_scan": lambda state, o, bp: reduction.ordering_scan(state, bp),
    "partial_transpose": lambda state, o, bp: partial_transpose(_image(state, o).data, state.system, bp),
    "negativity": lambda state, o, bp: negativity(state, bp, o),
    "ppt_separable": lambda state, o, bp: ppt_separable(state, bp, o),
}


@pytest.mark.parametrize("entry", sorted(BIPARTITION_ENTRY_POINTS))
@pytest.mark.parametrize(
    "kept, traced",
    [(("a1",), ("c1",)), (("a1", "zz"), ("c1", "c2")), (("a1", "a1"), ("c1", "c2"))],
    ids=["short", "foreign-label", "repeated-label"],
)
def test_every_bipartition_entry_point_rejects_an_uncovered_split(entry, kept, traced):
    """All seven entry points read a bipartition through the one resolver,
    so each rejects a split that does not cover the system in one way."""
    system = sweep_system(1, 2)
    state = random_state(system, sector="even", seed=1)
    bp = BipartitionSpec(kept=kept, traced=traced)
    message = rf"^bipartition {re.escape(f'{kept}|{traced}')} does not cover system"
    with pytest.raises(InvalidBipartitionError, match=message):
        BIPARTITION_ENTRY_POINTS[entry](state, ModeOrdering.canonical(system), bp)


REDUCTIONS = ("fermionic_partial_trace", "qubit_partial_trace", "theorem_check", "ordering_scan")


@pytest.mark.parametrize("entry", REDUCTIONS)
@pytest.mark.parametrize("sector", ["even", "any"])
def test_reductions_refuse_an_empty_kept_block_before_reducing(monkeypatch, entry, sector):
    """A reduction keeps a state on its kept modes, so an empty kept block
    is an invalid bipartition, named as such before anything is reduced or
    diagonalized; ``qubit_route_reduction`` refuses it through
    ``qubit_partial_trace``."""

    def forbidden(*args, **kwargs):
        raise AssertionError("reduced before the bipartition was checked")

    system = sweep_system(1, 2)
    state = random_state(system, sector=sector, seed=2)
    bp = BipartitionSpec(kept=(), traced=system.modes)
    monkeypatch.setattr(reduction, "_block_partial_trace", forbidden)
    monkeypatch.setattr(reduction, "_trace_distances", forbidden)
    message = re.escape(f"bipartition ()|{system.modes} keeps no mode: the kept block is empty")
    with pytest.raises(InvalidBipartitionError, match=message):
        BIPARTITION_ENTRY_POINTS[entry](state, ModeOrdering.canonical(system), bp)
    with pytest.raises(InvalidBipartitionError, match=message):
        qubit_route_reduction(state, ModeOrdering.canonical(system), bp)


def test_sweep_refuses_an_empty_kept_block_before_drawing(monkeypatch):
    """``theorem_sweep(0, m, trials)`` keeps no mode, so it raises the
    ``InvalidBipartitionError`` ``theorem_check`` raises on that split,
    before any state is drawn or reduced."""

    def forbidden(*args, **kwargs):
        raise AssertionError("drew or reduced before the bipartition was checked")

    monkeypatch.setattr(reduction, "_draw_amplitudes", forbidden)
    monkeypatch.setattr(reduction, "_block_partial_trace", forbidden)
    message = re.escape("bipartition ()|('c1', 'c2') keeps no mode: the kept block is empty")
    with pytest.raises(InvalidBipartitionError, match=message):
        theorem_sweep(0, 2, 1)
    system = sweep_system(0, 2)
    with pytest.raises(InvalidBipartitionError, match=message):
        theorem_check(basis_state(system, "00"), ModeOrdering.canonical(system))


def test_sweep_refuses_negative_counts_before_drawing(monkeypatch):
    """A negative mode count or trial count is refused before any state is
    drawn, instead of running a smaller sweep or an empty one that
    passes; ``sweep_system`` refuses a negative mode count on its own. So
    is a negative seed, with a message that names it, where numpy's own
    refusal names nothing."""

    def forbidden(*args, **kwargs):
        raise AssertionError("drew a state before the counts were checked")

    monkeypatch.setattr(reduction, "_draw_amplitudes", forbidden)
    for n, m in ((2, -3), (-1, 2)):
        with pytest.raises(ValueError, match=re.escape(f"mode counts must be non-negative, got ({n},{m})")):
            theorem_sweep(n, m, 1)
        with pytest.raises(ValueError, match="mode counts must be non-negative"):
            sweep_system(n, m)
    with pytest.raises(ValueError, match="trials must be non-negative, got -1"):
        theorem_sweep(2, 2, -1)
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -3$"):
        theorem_sweep(1, 1, 2, seed=-3)


def test_entry_points_refuse_a_state_of_another_type():
    """A ``QubitState`` or a bare array given where a fermionic state is
    expected is a ``TypeError`` naming its type, raised before its
    ``system`` is read, at each entry point that reads a state's data."""
    system = sweep_system(1, 1)
    state = random_state(system, sector="even", seed=1)
    canonical = ModeOrdering.canonical(system)
    for given in (qubit_image(state, canonical), state.amplitudes):
        for call in (
            lambda: fermionic_partial_trace(given),
            lambda: theorem_check(given, canonical),
            lambda: reduction.ordering_scan(given),
            lambda: qubit_image(given, canonical),
            lambda: ssr_compliant(given),
        ):
            with pytest.raises(TypeError, match=f"unsupported state type {type(given).__name__}"):
                call()


def test_qubit_entry_points_refuse_a_state_of_another_type():
    """A ``FockVector``, a ``DensityOperator`` or a bare array given where a
    qubit register is expected is a ``TypeError`` naming its type, raised
    before its ``data`` or ``system`` is read."""
    system = sweep_system(1, 1)
    state = random_state(system, sector="even", seed=1)
    for given in (state, state.to_density(), state.amplitudes):
        for call in (lambda: qubit_partial_trace(given), lambda: inverse_image_restricted(given)):
            with pytest.raises(TypeError, match=f"unsupported state type {type(given).__name__}"):
                call()


def test_empty_blocks_where_they_are_answered():
    """Negativity across an empty kept block is 0, and a scan whose traced
    block is empty has one class, every ordering, whose matrix is the
    fermionic trace, the state's own density."""
    system = sweep_system(2, 1)
    for sector in ("even", "any"):
        state = random_state(system, sector=sector, seed=4)
        empty_kept = BipartitionSpec(kept=(), traced=system.modes)
        assert negativity(state, empty_kept, ModeOrdering.canonical(system)).value == 0.0
        nothing_traced = BipartitionSpec(kept=system.modes, traced=())
        (only,) = reduction.ordering_scan(state, nothing_traced)
        assert only.size == factorial(3) and only.contains_physical and only.matches_fermionic
        assert np.array_equal(only.reduced.matrix, fermionic_partial_trace(state, nothing_traced).matrix)
        assert np.abs(only.reduced.matrix - state.to_density().matrix).max() < tol


@settings(deadline=None, max_examples=40, derandomize=True)
@given(
    n_modes=st.sampled_from(range(2, 8)),
    kind=st.sampled_from(["even", "odd", "any", "rank3"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_reductions_on_random_splits_match_oracles_whatever_the_label_order(n_modes, kind, seed):
    """On a kept set that does not come first, with its labels and the
    traced labels passed in shuffled order, under a random ordering: the
    fermionic trace, the qubit route and the partial transpose agree with
    the dense oracles, and give the bytes of the same split passed in
    canonical label order."""
    rng = np.random.default_rng(seed)
    system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
    canonical = _split_not_first(rng, system)
    canonical = BipartitionSpec(
        kept=tuple(m for m in system.modes if m in canonical.kept),
        traced=tuple(m for m in system.modes if m in canonical.traced),
    )
    shuffled = BipartitionSpec(
        kept=tuple(str(m) for m in rng.permutation(canonical.kept)),
        traced=tuple(str(m) for m in rng.permutation(canonical.traced)),
    )
    ordering = ModeOrdering(tuple(str(m) for m in rng.permutation(system.modes)))
    if kind == "rank3":
        state = rho = DensityOperator(system, random_density(system.dim, 3, rng))
    else:
        state = random_state(system, sector=kind, seed=seed)
        rho = state.to_density()
    traced = [system.modes.index(m) for m in canonical.traced]
    ranks = [ordering.labels.index(m) for m in system.modes]
    table = walsh_hadamard_table(rho.matrix, n_modes, traced)
    image = qubit_image(rho, ordering).data
    results = {}
    for name, bp in (("shuffled", shuffled), ("canonical", canonical)):
        results[name] = [
            fermionic_partial_trace(state, bp).matrix,
            qubit_route_reduction(state, ordering, bp).matrix,
            partial_transpose(image, system, bp),
        ]
    oracles = [
        fermionic_trace(rho.matrix, n_modes, traced),
        walsh_hadamard_reduction(table, n_modes, traced, ranks),
        partial_transpose_oracle(image, n_modes, traced),
    ]
    for ours, canonical_order, oracle in zip(results["shuffled"], results["canonical"], oracles):
        assert np.abs(ours - oracle).max() < tol
        assert ours.tobytes() == canonical_order.tobytes()


# --- qubit route ---------------------------------------------------------------


def test_qubit_trace_matches_loop_oracle():
    system = sweep_system(2, 2)
    for seed in range(4):
        rho = random_state(system, sector="any", seed=seed).to_density()
        ordering = ModeOrdering(("c1", "a2", "a1", "c2"))
        image = qubit_image(rho, ordering)
        ours = qubit_partial_trace(image)
        reference = qubit_ptrace(image.data, 4, traced_positions=[2, 3])
        assert np.abs(ours.data - reference).max() < tol
        assert ours.ordering.labels == ("a2", "a1")


def test_qubit_trace_of_product_state():
    system = sweep_system(1, 1)
    rho = basis_state(system, "10").to_density()
    image = qubit_image(rho, ModeOrdering.canonical(system))
    reduced = qubit_partial_trace(image)
    assert np.array_equal(reduced.data, np.diag([0.0, 1.0]).astype(complex))


def test_pair_state_block_image_reduces_to_pure():
    state = two_delocalized_fermions()
    image = qubit_image(state.to_density(), ModeOrdering.canonical(state.system))
    reduced = qubit_partial_trace(image)
    plus = np.zeros(4, dtype=complex)
    plus[1] = plus[2] = 1.0 / np.sqrt(2.0)
    assert np.abs(reduced.data - np.outer(plus, plus.conj())).max() < tol


# --- theorem check --------------------------------------------------------------


def test_theorem_on_random_even_states():
    system = sweep_system(2, 2)
    ordering = ModeOrdering.canonical(system)
    for seed in range(10):
        rho = random_state(system, sector="even", seed=seed).to_density()
        report = theorem_check(rho, ordering)
        assert report.ssr_compliant
        assert report.max_entry_diff < tol
        assert report.trace_distance < tol


def test_theorem_on_mixed_ssr_state():
    system = sweep_system(2, 2)
    rho = mixed_ssr_density(system, seed=21)
    report = theorem_check(rho, ModeOrdering(("a2", "a1", "c2", "c1")))
    assert report.max_entry_diff < tol


def test_theorem_holds_for_any_physical_ordering():
    system = sweep_system(2, 2)
    rho = random_state(system, sector="odd", seed=3).to_density()
    for a_perm in permutations(("a1", "a2")):
        for c_perm in permutations(("c1", "c2")):
            report = theorem_check(rho, ModeOrdering(a_perm + c_perm))
            assert report.physical
            assert report.max_entry_diff < tol


def _contiguous_kept_ordering(rng, bp):
    """Kept modes in one contiguous run, in random order, with a random
    share of the traced modes before it and the rest after."""
    kept = [str(m) for m in rng.permutation(bp.kept)]
    traced = [str(m) for m in rng.permutation(bp.traced)]
    cut = int(rng.integers(len(traced) + 1))
    return ModeOrdering(tuple(traced[:cut] + kept + traced[cut:]))


def test_contiguous_kept_block_gives_fermionic_trace():
    """For superselected states the qubit route equals the fermionic trace
    to the last bit under every ordering that keeps the kept modes
    contiguous, also with traced modes on both sides of them."""
    rng = np.random.default_rng(2024)
    not_physical = 0
    for n_modes in range(2, 8):
        system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
        for trial in range(16):
            bp = _random_split(rng, system) if trial % 4 == 0 else _split_not_first(rng, system)
            sector = ("even", "odd")[trial % 2]
            pure = random_state(system, sector=sector, seed=int(rng.integers(1 << 30)))
            if trial % 4 < 2:
                state = pure
            else:
                other = random_state(system, sector=sector, seed=int(rng.integers(1 << 30)))
                mixed = 0.4 * pure.to_density().matrix + 0.6 * other.to_density().matrix
                state = DensityOperator(system, mixed)
            fermionic = fermionic_partial_trace(state, bp).matrix
            for _ in range(4):
                ordering = _contiguous_kept_ordering(rng, bp)
                not_physical += not is_physical(ordering, ModeSystem.from_blocks(bp.kept, bp.traced))
                route = qubit_route_reduction(state, ordering, bp)
                assert np.array_equal(route.matrix, fermionic)
    assert not_physical > 100

def test_basis_state_reduces_exactly():
    system = sweep_system(1, 1)
    rho = basis_state(system, "11").to_density()
    report = theorem_check(rho, ModeOrdering.canonical(system))
    assert report.max_entry_diff == 0.0


def test_non_physical_ordering_needs_force():
    system = sweep_system(1, 1)
    rho = parity_violating_state().to_density()
    bad = ModeOrdering(("b", "a"))
    sys_rho = ModeSystem.from_blocks(("a",), ("b",))
    assert rho.system.modes == sys_rho.modes
    with pytest.raises(NonPhysicalOrderingError):
        theorem_check(rho, bad)
    report = theorem_check(rho, bad, force=True)
    assert not report.physical


def test_route_gap_for_parity_violating_state():
    """The two orderings of the two-mode witness give reductions half a
    trace-distance apart, and only one reproduces the operator sandwich."""
    rho = parity_violating_state().to_density()
    keep_first = theorem_check(rho, ModeOrdering(("a", "b")))
    trace_first = theorem_check(rho, ModeOrdering(("b", "a")), force=True)
    assert not keep_first.ssr_compliant
    assert abs(keep_first.trace_distance - 0.5) < 1e-10
    assert trace_first.max_entry_diff < tol
    gap = np.abs(keep_first.qubit_route.matrix - trace_first.qubit_route.matrix).max()
    assert gap > 0.4



def test_theorem_check_ssr_flag_same_for_pure_and_density():
    """A faint off-sector amplitude whose density cross entries stay below
    the tolerance gets one ssr flag whether the state is pure or dense."""
    system = ModeSystem.from_blocks(("a",), ("b",))
    amps = np.array([1.0, 1.6e-12, 0.0, 1.0], dtype=np.complex128) / np.sqrt(2)
    state = FockVector(system, amps)
    ordering = ModeOrdering.canonical(system)
    assert theorem_check(state, ordering).ssr_compliant is True
    assert theorem_check(state.to_density(), ordering).ssr_compliant is True


def test_report_json_fields():
    system = sweep_system(1, 1)
    rho = random_state(system, sector="even", seed=0).to_density()
    report = theorem_check(rho, ModeOrdering.canonical(system))
    payload = report.to_json()
    assert payload["ordering"] == ["a1", "c1"]
    assert set(payload) == {"ordering", "maxEntryDiff", "traceDistance", "ssr", "physical", "agrees"}


# --- pure-state inputs ------------------------------------------------------------


def _random_split(rng, system):
    """A kept set of any size from 1 to N-1 drawn anywhere in the system, so
    it is often not first and not contiguous."""
    k = int(rng.integers(1, system.n_modes))
    kept = tuple(str(m) for m in rng.choice(system.modes, size=k, replace=False))
    return BipartitionSpec(kept=kept, traced=tuple(m for m in system.modes if m not in kept))


def test_pure_input_matches_density_input():
    """Both routes reduce a FockVector without forming its density; the
    result agrees with the density input's and is exactly Hermitian, on
    random bipartitions and random orderings."""
    rng = np.random.default_rng(2013)
    for n_modes in range(2, 9):
        system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
        for trial in range(6):
            bp = _random_split(rng, system)
            ordering = ModeOrdering(tuple(str(m) for m in rng.permutation(system.modes)))
            sector = ("even", "odd", "any")[trial % 3]
            state = random_state(system, sector=sector, seed=int(rng.integers(1 << 30)))
            rho = state.to_density()
            for reduce in (
                lambda s: fermionic_partial_trace(s, bp),
                lambda s: qubit_route_reduction(s, ordering, bp),
            ):
                pure, dense = reduce(state), reduce(rho)
                assert np.abs(pure.matrix - dense.matrix).max() < 1e-14
                assert np.array_equal(pure.matrix, pure.matrix.conj().T)


def test_pure_input_scan_matches_density_input():
    """The scan groups orderings identically for a pure state and its
    density, and a class is physical exactly when one of its orderings is."""

    def summary(classes):
        return [(c.size, c.representative, c.contains_physical, c.matches_fermionic) for c in classes]

    rng = np.random.default_rng(2011)
    for n_modes in range(2, 7):
        system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
        for sector in ("even", "any"):
            bp = _random_split(rng, system)
            state = random_state(system, sector=sector, seed=int(rng.integers(1 << 30)))
            pure = ordering_scan(state, bp)
            dense = ordering_scan(state.to_density(), bp)
            assert summary(pure) == summary(dense)
            split = ModeSystem.from_blocks(
                [m for m in system.modes if m in bp.kept],
                [m for m in system.modes if m in bp.traced],
            )
            for c in pure:
                assert c.contains_physical == any(is_physical(o, split) for o in c.orderings)


def test_unnormalized_pure_state_rejected():
    system = sweep_system(2, 2)
    state = FockVector(system, 2.0 * random_state(system, sector="even", seed=1).amplitudes)
    ordering = ModeOrdering.canonical(system)
    for reduce in (
        fermionic_partial_trace,
        lambda s: qubit_route_reduction(s, ordering),
        lambda s: theorem_check(s, ordering),
        ordering_scan,
    ):
        with pytest.raises(ValueError):
            reduce(state)


def test_fourteen_mode_pure_state_stays_pure(monkeypatch):
    """A (7,7) route check on a kept set that is not first runs on the
    amplitudes; forming the 4 GiB density would fail the test."""

    def no_density(self):
        raise AssertionError("the pure state was expanded to a density")

    monkeypatch.setattr(FockVector, "to_density", no_density)
    system = sweep_system(7, 7)
    kept = ("a2", "c1", "a4", "c3", "a6", "a7", "c6")
    bp = BipartitionSpec(kept=kept, traced=tuple(m for m in system.modes if m not in kept))
    state = random_state(system, sector="odd", seed=14)
    report = theorem_check(state, ModeOrdering(bp.kept + bp.traced), bp)
    assert report.physical and report.ssr_compliant
    assert report.agrees
    assert abs(np.trace(report.fermionic.matrix) - 1.0) < tol


# --- ordering scan ---------------------------------------------------------------


def test_scan_parity_witness_has_two_classes():
    classes = ordering_scan(parity_violating_state().to_density())
    assert len(classes) == 2
    physical = [c for c in classes if c.contains_physical]
    assert len(physical) == 1
    assert not physical[0].matches_fermionic


def test_scan_vacuum_single_class():
    system = sweep_system(2, 1)
    from fermiorder.fock import FockVector

    rho = FockVector.vacuum(system).to_density()
    classes = ordering_scan(rho)
    assert len(classes) == 1
    assert classes[0].size == 6
    assert classes[0].matches_fermionic


def test_scan_ssr_state_physical_class_matches():
    system = sweep_system(2, 2)
    rho = random_state(system, sector="even", seed=11).to_density()
    classes = ordering_scan(rho)
    physical_classes = [c for c in classes if c.contains_physical]
    assert len(physical_classes) == 1
    assert physical_classes[0].matches_fermionic
    block_orderings = {
        a + c for a in permutations(("a1", "a2")) for c in permutations(("c1", "c2"))
    }
    members = {o.labels for o in physical_classes[0].orderings}
    assert block_orderings <= members


def test_scan_class_sizes_cover_all_orderings():
    system = sweep_system(2, 1)
    rho = random_state(system, sector="any", seed=5).to_density()
    classes = ordering_scan(rho)
    assert sum(c.size for c in classes) == 6


def test_scan_size_guard():
    system = ModeSystem(tuple(f"m{k}" for k in range(9)), a_count=4)
    from fermiorder.fock import FockVector

    with pytest.raises(SystemTooLargeError):
        ordering_scan(FockVector.vacuum(system).to_density())


def test_scan_builds_orderings_only_for_representatives(monkeypatch):
    """A (3,3) scan constructs one ``ModeOrdering`` per class representative
    and one for its fermionic trace, not one per permutation. Read back,
    ``orderings`` lists all 6! permutations once: within a class, in
    permutation order, so the representative is the class's earliest
    permutation."""
    system = sweep_system(3, 3)
    kept = ("a2", "c1", "c3")
    traced = tuple(m for m in system.modes if m not in kept)
    state = random_state(system, sector="even", seed=33)
    built = []
    post_init = ModeOrdering.__post_init__

    def counting(self):
        built.append(self.labels)
        post_init(self)

    with monkeypatch.context() as patched:
        patched.setattr(ModeOrdering, "__post_init__", counting)
        classes = ordering_scan(state, BipartitionSpec(kept=kept, traced=traced))
    assert len(built) <= len(classes) + 1

    perms = list(permutations(system.modes))

    def precedence(p):
        return tuple(p.index(c) < p.index(a) for a in kept for c in traced)

    members = [[o.labels for o in c.orderings] for c in classes]
    assert sorted(p for labels in members for p in labels) == perms
    assert any(len({precedence(p) for p in labels}) > 1 for labels in members)
    for c, labels in zip(classes, members):
        assert c.size == len(labels)
        assert c.representative.labels == labels[0]
        assert labels == sorted(labels, key=perms.index)


def _split_not_first(rng, system):
    """A random kept set that does not sit first in canonical order."""
    while True:
        bp = _random_split(rng, system)
        if set(bp.kept) != set(system.modes[: len(bp.kept)]):
            return bp


def _scan_record(classes):
    return [
        (
            c.representative,
            c.orderings,
            c.contains_physical,
            c.matches_fermionic,
            c.max_entry_diff,
            c.reduced.matrix.tobytes(),
        )
        for c in classes
    ]


def test_scan_classes_match_qubit_route(monkeypatch):
    """Each class's reduced matrix is exactly what the per-ordering route
    gives its representative and three random members, on kept sets that
    are not first, for even, odd and any-sector states, pure and as
    densities, and for 30/70 mixtures of both parities. For even and odd
    states most class matrices are derived from another orbit's by the row
    rule, and each is compared here. The scan itself neither calls the
    route nor the cached sign vectors."""

    def forbidden(*args):
        raise AssertionError("the scan called the per-ordering route")

    rng = np.random.default_rng(2020)
    for n_modes in range(3, 7):
        system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
        for sector in ("even", "odd", "any", "mixture"):
            bp = _split_not_first(rng, system)
            seed = int(rng.integers(1 << 30))
            if sector == "mixture":
                inputs = (_parity_mixture(system, seed),)
            else:
                state = random_state(system, sector=sector, seed=seed)
                inputs = (state, state.to_density())
            for given in inputs:
                with monkeypatch.context() as patched:
                    patched.setattr(reduction, "qubit_route_reduction", forbidden)
                    patched.setattr(ordering_module, "ordering_sign_vector", forbidden)
                    classes = ordering_scan(given, bp)
                assert sum(c.size for c in classes) == factorial(n_modes)
                for c in classes:
                    picks = rng.choice(c.size, size=min(3, c.size), replace=False)
                    for o in [c.representative] + [c.orderings[int(k)] for k in picks]:
                        route = qubit_route_reduction(given, o, bp)
                        assert np.array_equal(c.reduced.matrix, route.matrix)


def test_walsh_hadamard_oracle_matches_qubit_route():
    """The Walsh-Hadamard table gives the qubit-route reduction of random
    orderings at 2-7 modes, for pure, rank-1 density and rank-3 inputs on
    kept sets that are not first."""
    rng = np.random.default_rng(2022)
    for n_modes in range(2, 8):
        system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
        for sector in ("even", "odd", "any"):
            bp = _split_not_first(rng, system)
            state = random_state(system, sector=sector, seed=int(rng.integers(1 << 30)))
            mixed = DensityOperator(system, random_density(system.dim, 3, rng))
            for given in (state, state.to_density(), mixed):
                table, traced = _walsh_hadamard_table(given, bp)
                for _ in range(4):
                    labels = tuple(str(m) for m in rng.permutation(system.modes))
                    ranks = [labels.index(m) for m in system.modes]
                    route = qubit_route_reduction(given, ModeOrdering(labels), bp)
                    oracle = walsh_hadamard_reduction(table, n_modes, traced, ranks)
                    assert np.abs(route.matrix - oracle).max() < tol


def test_scan_chunk_size_does_not_change_results(monkeypatch):
    """A byte budget of one group per chunk, and one of 16 MiB that holds a
    pure state's whole scan in one chunk, give the same scan, to the bit."""
    rng = np.random.default_rng(2021)
    system = ModeSystem(tuple(f"m{k}" for k in range(6)), a_count=6)
    chunks = []

    def counting(view, pure, signs=None):
        reduced = block_trace(view, pure, signs)
        chunks.append(reduced.ndim == 3)
        return reduced

    block_trace = reduction._block_partial_trace
    for sector in ("even", "any"):
        bp = _split_not_first(rng, system)
        state = random_state(system, sector=sector, seed=int(rng.integers(1 << 30)))
        for given in (state, state.to_density()):
            default = _scan_record(ordering_scan(given, bp))
            for budget in (1, 16 << 20):
                chunks.clear()
                with monkeypatch.context() as patched:
                    patched.setattr(fock, "_STACK_BYTES", budget)
                    patched.setattr(reduction, "_block_partial_trace", counting)
                    assert _scan_record(ordering_scan(given, bp)) == default
                if budget > 1 and given is state:
                    assert chunks.count(True) == 1


def test_scan_constructs_no_density_operator(monkeypatch):
    """Whatever its size, a scan never runs ``DensityOperator.__post_init__``:
    the fermionic trace it compares against is checked as the constructor
    would, and each class's matrix is checked as a row of its chunk's stack
    and wrapped as it is when its ``reduced`` is first read, which
    constructs nothing either."""
    rng = np.random.default_rng(2029)
    constructed = []
    post_init = DensityOperator.__post_init__

    def counting(self):
        constructed.append(self.system.dim)
        post_init(self)

    for n_modes in range(2, 8):
        system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
        bp = _split_not_first(rng, system)
        state = random_state(system, sector="any", seed=int(rng.integers(1 << 30)))
        for given in (state, state.to_density()) if n_modes < 7 else (state,):
            constructed.clear()
            with monkeypatch.context() as patched:
                patched.setattr(DensityOperator, "__post_init__", counting)
                classes = reduction.ordering_scan(given, bp)
                matrices = [c.reduced.matrix for c in classes]
            assert len(classes) > 1
            assert constructed == []
            assert all(c.reduced.matrix is m for c, m in zip(classes, matrices))


def test_density_scan_signs_its_orderings_in_few_chunks(monkeypatch):
    """A (3,3) even-density scan budgets each group by its signed slabs,
    not by its signed densities, so its 16 groups fill two chunks of 8
    and it calls ``_inversion_signs`` twice, where a group's four signed
    64 x 64 densities alone filled a chunk; the pure state's scan takes
    one chunk."""
    system = sweep_system(3, 3)
    bp = BipartitionSpec(kept=("a1", "c1", "a3"), traced=("a2", "c2", "c3"))
    state = random_state(system, sector="even", seed=23)
    calls = []

    def counting(ranks):
        calls.append(len(ranks))
        return _inversion_signs(ranks)

    monkeypatch.setattr(reduction, "_inversion_signs", counting)
    counts = []
    for given in (state, state.to_density()):
        calls.clear()
        reduction.ordering_scan(given, bp)
        counts.append(len(calls))
    slab_bytes = 16 * 8 * 8 * 8 * (1 + reduction.SCAN_VERIFY_SAMPLES)
    assert fock._STACK_BYTES // slab_bytes == 8
    assert counts == [1, 2]


def test_density_reduction_peaks_far_below_the_density():
    """The fermionic trace of a (5,5) even density reads its traced-diagonal
    slab, 1/32 of the 16 MiB density, and conjugates only that, so its
    tracemalloc peak stays under 1/8 of the density's bytes, where
    conjugating the whole density peaked at twice them. That holds on a
    split whose kept modes sit at positions 1, 3, 5, 7 and 9, none of them
    first, too, for the trace and for the route comparison: the slab is a
    view of the density, and at most the slab is copied, where reordering
    the whole density first copied all of it."""
    system = sweep_system(5, 5)
    rho = random_state(system, sector="even", seed=29).to_density()
    off_front = BipartitionSpec(kept=system.modes[1::2], traced=system.modes[0::2])
    calls = [
        lambda: fermionic_partial_trace(rho),
        lambda: fermionic_partial_trace(rho, off_front),
        lambda: theorem_check(rho, ModeOrdering(off_front.kept + off_front.traced), off_front).fermionic,
    ]
    for call in calls:
        call()
        tracemalloc.start()
        try:
            reduced = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reduced.matrix.shape == (32, 32)
        assert peak < rho.matrix.nbytes / 8


def test_reductions_reuse_the_plan_of_their_split():
    """A second ``fermionic_partial_trace``, ``qubit_partial_trace`` or
    ``ordering_scan`` on a split is served from its route plan and gives
    the same bytes. Their plan is made without an ordering, so it holds no
    physical verdict and no qubit-route signs; it holds the kept system and
    the fermionic trace's read-only signs, as a plan with an ordering
    does."""
    system = sweep_system(2, 2)
    bp = BipartitionSpec(kept=("a2", "c1"), traced=("a1", "c2"))
    state = random_state(system, sector="even", seed=17)
    register = qubit_image(state, ModeOrdering(("c2", "a2", "a1", "c1")))

    def scan_bytes():
        return [(c.reduced.matrix.tobytes(), c.to_json()) for c in ordering_scan(state, bp)]

    for call in (
        lambda: fermionic_partial_trace(state, bp).matrix.tobytes(),
        lambda: qubit_partial_trace(register, bp).data.tobytes(),
        scan_bytes,
    ):
        reduction._route_plan.cache_clear()
        first = call()
        assert reduction._route_plan.cache_info().misses == 1
        before = reduction._route_plan.cache_info()
        again = call()
        after = reduction._route_plan.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert again == first
    plan = reduction._route_plan(system, bp)
    assert plan.physical is None and plan.qubit_signs is None
    assert plan.kept_system == ModeSystem.from_blocks(bp.kept)
    assert plan.fermionic_signs.dtype == np.int8 and not plan.fermionic_signs.flags.writeable
    with_ordering = reduction._route_plan(system, bp, ModeOrdering(bp.kept + bp.traced))
    assert with_ordering.physical is True
    assert np.array_equal(with_ordering.fermionic_signs, plan.fermionic_signs)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0, 1.0])
def test_entry_points_refuse_a_tolerance_no_comparison_passes(monkeypatch, tol):
    """A tolerance outside (0, 1), or NaN, would make agreeing routes read
    as disagreeing, a false counterexample, or pass any difference; the
    three entry points that compare raise ``ValueError`` for it before
    they read a state or draw one."""

    def forbidden(*args, **kwargs):
        raise AssertionError("read a state before the tolerance was checked")

    system = sweep_system(2, 2)
    state = random_state(system, sector="even", seed=31)
    monkeypatch.setattr(reduction, "_state_data", forbidden)
    monkeypatch.setattr(reduction, "_draw_amplitudes", forbidden)
    message = re.escape(f"tol must be in (0, 1), got {tol}")
    with pytest.raises(ValueError, match=message):
        theorem_check(state, ModeOrdering.canonical(system), tol=tol)
    with pytest.raises(ValueError, match=message):
        theorem_sweep(2, 2, 1, tol=tol)
    with pytest.raises(ValueError, match=message):
        reduction.ordering_scan(state, tol=tol)


def test_scan_class_diffs_are_those_of_their_own_matrices(monkeypatch):
    """Each class's ``max_entry_diff`` is, to the bit, the largest entry
    difference between its own reduced matrix and the fermionic trace, and
    it matches exactly when that is below the tolerance: for even and odd
    states, a mixture of both parities and any-sector states, pure and as
    densities, on kept sets that are not first. A budget of one byte puts
    each orbit in a stack of its own, so the orbits of one class land in
    different stacks."""
    rng = np.random.default_rng(2031)
    inputs = []
    for n_modes in (4, 5):
        system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
        for sector in ("even", "odd", "any"):
            state = random_state(system, sector=sector, seed=int(rng.integers(1 << 30)))
            inputs += [(given, _split_not_first(rng, system)) for given in (state, state.to_density())]
        inputs.append((_parity_mixture(system, n_modes), _split_not_first(rng, system)))
    for budget in (1, fock._STACK_BYTES):
        monkeypatch.setattr(fock, "_STACK_BYTES", budget)
        for given, bp in inputs:
            fermionic = fermionic_partial_trace(given, bp).matrix
            classes = reduction.ordering_scan(given, bp)
            assert any(c.matches_fermionic for c in classes)
            for c in classes:
                diff = float(np.abs(c.reduced.matrix - fermionic).max())
                assert type(c.max_entry_diff) is float and c.max_entry_diff == diff
                assert c.matches_fermionic is (diff < tol)


def test_scan_holds_each_class_matrix_once():
    """A (4,3) scan of a state mixing parities, on a kept set that is not
    first, peaks under twice the bytes of the class matrices it returns
    (tracemalloc): each class's merge key is its matrix, so no second copy
    of the class matrices is held while the scan runs. A (7,1) scan of an
    even pure state peaks under 1.5 times: its one group has 64 orbits of
    256 KiB matrices, and they are derived one ``_STACK_BYTES`` stack at a
    time, not the group's at once."""
    cases = (
        (sweep_system(4, 3), BipartitionSpec(kept=("a2", "c1", "c3", "a4"), traced=("a1", "a3", "c2")), "any", 1000, 2),
        (sweep_system(7, 1), None, "even", 63, 1.5),
    )
    for system, bp, sector, count, bound in cases:
        state = random_state(system, sector=sector, seed=43)
        tracemalloc.start()
        try:
            classes = reduction.ordering_scan(state, bp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(c.reduced.matrix.nbytes for c in classes)
        assert len(classes) > count
        assert peak < bound * held, (system.n_modes, peak / held)


def test_scan_refuses_a_class_matrix_off_unit_trace(monkeypatch):
    """A stacked reduction scaled off unit trace fails the density check
    that the scan runs on each chunk's class matrices."""
    system = sweep_system(2, 2)
    state = random_state(system, sector="any", seed=3)
    block_trace = reduction._block_partial_trace

    def scaled(view, pure, signs=None):
        reduced = block_trace(view, pure, signs)
        return 1.5 * reduced if reduced.ndim == 3 else reduced

    monkeypatch.setattr(reduction, "_block_partial_trace", scaled)
    for budget in (1, fock._STACK_BYTES):
        monkeypatch.setattr(fock, "_STACK_BYTES", budget)
        with pytest.raises(ValueError, match="density matrix trace is"):
            reduction.ordering_scan(state)


def test_scan_uniformity_check_fires(monkeypatch):
    """One flipped sign in a verification sample's row makes that sample
    disagree with its representative, and the scan refuses to group it.
    For the even state the flip hits an even amplitude, and the corrupted
    sample lies in another column orbit than its group's first member, so
    the check that fires is the row rule's, head conjugated by kept-side
    signs against sample."""
    system = sweep_system(2, 2)
    corrupted = []

    def one_flip(ranks):
        signs = _inversion_signs(ranks)
        if len(ranks) > 1 and ranks.shape[1] == system.n_modes:
            signs[-1, 3] *= -1
            corrupted.append(ranks)
        return signs

    monkeypatch.setattr(fock, "_STACK_BYTES", 1)
    monkeypatch.setattr(reduction, "_inversion_signs", one_flip)
    for sector, kept, traced in (("any", ("a1", "a2"), ("c1", "c2")), ("even", ("a1", "c1"), ("a2", "c2"))):
        corrupted.clear()
        bp = BipartitionSpec(kept=kept, traced=traced)
        with pytest.raises(AssertionError, match="is not uniform"):
            ordering_scan(random_state(system, sector=sector, seed=3), bp)
        head, sample = (
            column_orbit(precedence_rows([system.modes[i] for i in np.argsort(row)], kept, traced), 2)
            for row in corrupted[0][[0, -1]]
        )
        assert (head != sample) == (sector == "even")


def _nearly_superselected(system, seed):
    """An even state with one odd amplitude of 1e-13: superselected within
    ``DEFAULT_TOL``, but not exactly."""
    amplitudes = random_state(system, sector="even", seed=seed).amplitudes.copy()
    amplitudes[1] = 1e-13
    return FockVector(system, amplitudes)


def _scan_groups(sector):
    """The oracle's orbit function for the groups a scan of an input of this
    kind runs the route on: row-and-column orbits for one parity, column
    orbits for both parities, precedence matrices otherwise."""
    if sector in ("even", "odd"):
        return row_column_orbit
    if sector == "mixture":
        return column_orbit
    return lambda rows, _: rows


def test_scan_samples_each_group_at_its_head_and_distinct_members(monkeypatch):
    """The rank rows the scan signs are, group by group in order of first
    appearance, each group's first member followed by
    min(SCAN_VERIFY_SAMPLES, size - 1) distinct other members of that same
    group, and nothing else. A group is a row-and-column orbit for an input
    of one parity, even or odd, a column orbit for a 30/70 mixture of both,
    and a precedence group otherwise: for an any-sector state, and for one
    whose single cross-parity amplitude is 1e-13, which ``ssr_compliant``
    accepts."""
    seen = []

    def spy(ranks):
        if ranks.shape[1] == n_modes:
            seen.extend(tuple(row) for row in ranks.tolist())
        return _inversion_signs(ranks)

    monkeypatch.setattr(reduction, "_inversion_signs", spy)
    rng = np.random.default_rng(2026)
    for n_modes in (4, 5, 6):
        system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
        near = _nearly_superselected(system, n_modes)
        assert ssr_compliant(near)
        for sector, state in (
            ("even", random_state(system, sector="even", seed=n_modes)),
            ("odd", random_state(system, sector="odd", seed=n_modes)),
            ("mixture", _parity_mixture(system, n_modes)),
            ("any", random_state(system, sector="any", seed=n_modes)),
            ("near", near),
        ):
            bp = _split_not_first(rng, system)
            seen.clear()
            reduction.ordering_scan(state, bp)

            groups = {}
            for p in permutations(range(n_modes)):
                key = precedence_rows([system.modes[i] for i in p], bp.kept, bp.traced)
                key = _scan_groups(sector)(key, len(bp.traced))
                groups.setdefault(key, []).append(tuple(np.argsort(p).tolist()))
            assert len(set(seen)) == len(seen)
            start = 0
            for members in groups.values():
                count = 1 + min(reduction.SCAN_VERIFY_SAMPLES, len(members) - 1)
                run = seen[start : start + count]
                assert run[0] == members[0] and set(run) <= set(members)
                start += count
            assert start == len(seen)


def _signed_rows(bp, sector):
    """How many rank rows a scan on ``bp`` of an input of this kind signs:
    each group's first member and up to SCAN_VERIFY_SAMPLES others."""
    sizes = {}
    for p in permutations(bp.kept + bp.traced):
        key = _scan_groups(sector)(precedence_rows(p, bp.kept, bp.traced), len(bp.traced))
        sizes[key] = sizes.get(key, 0) + 1
    return sum(1 + min(reduction.SCAN_VERIFY_SAMPLES, size - 1) for size in sizes.values())


def test_scan_plan_serves_only_the_grouping_a_state_fits(monkeypatch):
    """On one split, an even, an any-sector, a nearly superselected, an odd
    state and a mixture of both parities are scanned, then the same five
    again from the plan cache. The warm scans equal the cold ones, the
    second pass only hits the cache, and every scan signs one row set per
    row-and-column orbit for the even and odd state, per column orbit for
    the mixture and per precedence group for the other two, so a plan
    keyed by one grouping never serves a state it does not fit."""
    signed = []

    def spy(ranks):
        if ranks.shape[1] == system.n_modes:
            signed[-1] += len(ranks)
        return _inversion_signs(ranks)

    monkeypatch.setattr(reduction, "_inversion_signs", spy)
    system = ModeSystem(tuple(f"m{k}" for k in range(6)), a_count=6)
    bp = _split_of_size(np.random.default_rng(2030), system, 3)
    states = (
        (random_state(system, "even", 1), "even"),
        (random_state(system, "any", 2), "any"),
        (_nearly_superselected(system, 3), "near"),
        (random_state(system, "odd", 4), "odd"),
        (_parity_mixture(system, 5), "mixture"),
    )
    reduction._scan_plan.cache_clear()
    records = []
    for state, sector in states + states:
        signed.append(0)
        records.append(_scan_record(reduction.ordering_scan(state, bp)))
        assert signed[-1] == _signed_rows(bp, sector)
    assert records[5:] == records[:5]
    assert len({_signed_rows(bp, sector) for sector in ("even", "mixture", "any")}) == 3
    info = reduction._scan_plan.cache_info()
    assert (info.misses, info.hits) == (3, 7)


def test_scan_plan_arrays_are_read_only():
    """No array of a cached plan, whichever grouping it is keyed by, nor of
    the permutations the plans of one mode count share, can be written to;
    a plan ends with the orbit of the physical orderings, a number."""
    arrays = list(reduction._permutations(5))
    for parity in (fock._CROSS_PARITY, fock._BOTH_PARITIES, fock._ONE_PARITY):
        plan = reduction._scan_plan(5, (0, 1), (2, 3, 4), parity)
        assert len(plan) == 6 and isinstance(plan.physical, int)
        assert (plan.orbit_signs is None) == (parity != fock._ONE_PARITY)
        arrays += [array for array in plan[:-1] if array is not None]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_scan_plans_at_the_cap_stay_within_their_stated_bound():
    """Every 8-mode plan of a (5,3), (4,4) or (3,5) split, under each
    parity verdict, holds at most the 585 KiB the ``_SCAN_PLANS`` comment
    states, a plan for a state of one parity at most the 440 KiB it states
    for those, and each plan exactly one array with an 8!-entry axis, its
    orbit numbers."""
    try:
        for k in (5, 4, 3):
            for parity in (fock._CROSS_PARITY, fock._BOTH_PARITIES, fock._ONE_PARITY):
                plan = reduction._scan_plan(8, tuple(range(k)), tuple(range(k, 8)), parity)
                arrays = [array for array in plan[:-1] if array is not None]
                held = sum(array.nbytes for array in arrays)
                assert held <= (440 if parity == fock._ONE_PARITY else 585) * 1024
                assert [array.shape[-1] == factorial(8) for array in arrays].count(True) == 1
    finally:
        reduction._scan_plan.cache_clear()


@settings(deadline=None, max_examples=25)
@given(
    n_modes=st.integers(min_value=3, max_value=6),
    sector=st.sampled_from(["even", "odd", "any"]),
    seed=st.integers(min_value=0, max_value=2**30),
)
def test_warm_scan_equals_cold_and_only_the_fermionic_class_matches(n_modes, sector, seed):
    """On a random split whose kept set is not first, a scan served from
    the plan cache equals the same scan after the cache is emptied. The
    class holding the traced-first orderings, whose route is the fermionic
    trace, matches it; for a state that is not superselected it is not the
    physical class, and every other class, the physical one among them,
    has a route gap above 0."""
    rng = np.random.default_rng(seed)
    system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
    bp = _split_not_first(rng, system)
    state = random_state(system, sector, seed)
    reduction.ordering_scan(state, bp)
    warm = reduction.ordering_scan(state, bp)
    reduction._scan_plan.cache_clear()
    assert _scan_record(warm) == _scan_record(reduction.ordering_scan(state, bp))
    traced_first = bp.traced + bp.kept
    (fermionic,) = [c for c in warm if traced_first in {o.labels for o in c.orderings}]
    assert fermionic.matches_fermionic
    assert fermionic.contains_physical == (sector != "any")
    if sector == "any":
        assert all(c.max_entry_diff > 0 for c in warm if c is not fermionic)


def _split_of_size(rng, system, k):
    """A random kept set of k modes that does not sit first."""
    while True:
        kept = tuple(str(m) for m in rng.choice(system.modes, size=k, replace=False))
        if set(kept) != set(system.modes[:k]):
            return BipartitionSpec(kept=kept, traced=tuple(m for m in system.modes if m not in kept))


def _parity_mixture(system, seed):
    """0.3 of a random even state plus 0.7 of a random odd one."""
    even = random_state(system, sector="even", seed=seed).amplitudes
    odd = random_state(system, sector="odd", seed=seed + 1).amplitudes
    return DensityOperator(system, 0.3 * np.outer(even, even.conj()) + 0.7 * np.outer(odd, odd.conj()))


@pytest.mark.parametrize("k, t", [(2, 2), (3, 3), (4, 3)])
def test_scan_classes_are_column_orbits(k, t):
    """The column rule: for a superselected state, even, odd or a 30/70
    mixture of both, the qubit route depends on the precedence matrix only
    up to XOR-ing one mask into every kept row. Each scan class is exactly
    one column orbit, and no two classes share one, on kept sets that are
    not first; the orbits are the oracle's, named by their smallest member
    over all 2^t masks."""
    rng = np.random.default_rng(100 * k + t)
    system = ModeSystem(tuple(f"m{i}" for i in range(k + t)), a_count=k + t)
    bp = _split_of_size(rng, system, k)
    orbit = {
        p: column_orbit(precedence_rows(p, bp.kept, bp.traced), t) for p in permutations(system.modes)
    }
    for kind in ("even", "odd", "mixture"):
        seed = int(rng.integers(1 << 30))
        state = _parity_mixture(system, seed) if kind == "mixture" else random_state(system, kind, seed)
        orbits = [{orbit[o.labels] for o in c.orderings} for c in reduction.ordering_scan(state, bp)]
        assert all(len(members) == 1 for members in orbits)
        assert set().union(*orbits) == set(orbit.values()) and len(orbits) == len(set(orbit.values()))


def _negativities(state, bp):
    """The negativity under every ordering, with each ordering's labels."""
    orderings = list(permutations(state.system.modes))
    return orderings, np.array([negativity(state, bp, ModeOrdering(o)).value for o in orderings])


def _distinct(values, gap=1e-9):
    """How many values stay apart once those within ``gap`` are joined."""
    return 1 + int((np.diff(np.sort(values)) > gap).sum())


@pytest.mark.parametrize("k, t, orbits, groups", [(2, 2, 2, 14), (2, 3, 4, 46), (3, 3, 16, 230)])
def test_negativity_takes_one_value_per_row_and_column_orbit(k, t, orbits, groups):
    """The row rule: for a state of one parity, negativity also ignores
    complementing a whole kept row of the precedence matrix, a sign on the
    kept side alone. Over all N! orderings, even and odd states take one
    value per row-and-column orbit, spread by at most 1e-12 inside an orbit
    and at least 1e-9 apart between orbits. Contrasts: any-sector states
    take one value per precedence matrix, and 30/70 even+odd mixtures take
    more values than they have scan classes (checked below 6 modes, where
    the N! eigensolves are cheap)."""
    rng = np.random.default_rng(10 * k + t)
    system = ModeSystem(tuple(f"m{i}" for i in range(k + t)), a_count=k + t)
    bp = _split_of_size(rng, system, k)
    for kind, orbit, count in (
        ("even", row_column_orbit, orbits),
        ("odd", row_column_orbit, orbits),
        ("any", lambda rows, _: rows, groups),
    ):
        orderings, values = _negativities(random_state(system, kind, int(rng.integers(1 << 30))), bp)
        by_orbit = {}
        for o, v in zip(orderings, values):
            by_orbit.setdefault(orbit(precedence_rows(o, bp.kept, bp.traced), t), []).append(v)
        assert len(by_orbit) == count
        assert max(max(v) - min(v) for v in by_orbit.values()) <= 1e-12
        assert _distinct(values) == count
    if k + t < 6:
        mixture = _parity_mixture(system, int(rng.integers(1 << 30)))
        assert _distinct(_negativities(mixture, bp)[1]) > len(reduction.ordering_scan(mixture, bp))


@settings(deadline=None, max_examples=30)
@given(
    n_modes=st.integers(min_value=2, max_value=7),
    sector=st.sampled_from(["even", "odd"]),
    mixed=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**30),
)
def test_contiguous_kept_orderings_reproduce_the_fermionic_trace(n_modes, sector, mixed, seed):
    """For a superselected state, pure or a rank-2 mixture of one parity, any
    ordering that lists the kept modes as one run, with traced modes on
    either side, gives the fermionic trace bit for bit, on a random split
    whose kept set is not first: the zero matrix's column orbit."""
    rng = np.random.default_rng(seed)
    system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
    bp = _split_not_first(rng, system)
    state = random_state(system, sector, seed)
    if mixed:
        other = random_state(system, sector, seed + 1).to_density().matrix
        state = DensityOperator(system, 0.5 * state.to_density().matrix + 0.5 * other)
    route = qubit_route_reduction(state, _contiguous_kept_ordering(rng, bp), bp)
    assert np.array_equal(route.matrix, fermionic_partial_trace(state, bp).matrix)


def test_seven_mode_scan():
    """A (3,4) scan on a kept set that is not first covers all 7! orderings,
    and its one physical class is the fermionic reduction."""
    system = sweep_system(3, 4)
    kept = ("a2", "c1", "c3")
    bp = BipartitionSpec(kept=kept, traced=tuple(m for m in system.modes if m not in kept))
    state = random_state(system, sector="even", seed=7)
    classes = ordering_scan(state, bp)
    assert sum(c.size for c in classes) == factorial(7)
    physical = [c for c in classes if c.contains_physical]
    assert len(physical) == 1 and physical[0].matches_fermionic
    fermionic = fermionic_partial_trace(state, bp)
    assert np.abs(physical[0].reduced.matrix - fermionic.matrix).max() < tol


def test_scan_interleaved_ordering_disagrees_for_some_ssr_state():
    """Interleaving kept and traced modes is not harmless in general: for
    some superselected states the interleaved class departs from the
    operator-sandwich reduction."""
    system = ModeSystem.from_blocks(("a1", "a2"), ("c1",))
    found = False
    for seed in range(30):
        rho = random_state(system, sector="even", seed=seed).to_density()
        interleaved = qubit_route_reduction(rho, ModeOrdering(("a1", "c1", "a2")))
        fermionic = fermionic_partial_trace(rho)
        if np.abs(interleaved.matrix - fermionic.matrix).max() > 1e-6:
            found = True
            break
    assert found


# --- within-traced-block permutations -------------------------------------------


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    sector=st.sampled_from(["even", "odd", "any"]),
    perm_seed=st.integers(min_value=0, max_value=10_000),
)
def test_within_traced_permutation_is_irrelevant(seed, sector, perm_seed):
    """Reordering traced modes behind the kept block never changes the
    reduced state, superselected or not."""
    system = sweep_system(2, 3)
    rho = random_state(system, sector=sector, seed=seed).to_density()
    rng = np.random.default_rng(perm_seed)
    base = qubit_route_reduction(rho, ModeOrdering.canonical(system))
    shuffled = tuple(rng.permutation(("c1", "c2", "c3")))
    other = qubit_route_reduction(rho, ModeOrdering(("a1", "a2") + shuffled))
    assert np.abs(base.matrix - other.matrix).max() < tol


# --- sweep ------------------------------------------------------------------------


def test_sweep_rows_and_determinism():
    first = theorem_sweep(1, 1, trials=4, seed=3)
    second = theorem_sweep(1, 1, trials=4, seed=3)
    assert first.to_csv() == second.to_csv()
    assert len(first.rows) == 8
    assert first.passed
    assert first.rows[0].seed == 3
    header = first.to_csv().splitlines()[0]
    assert header == "seed,n,m,ordering,maxEntryDiff,traceDistance,ssr"
    # a sweep of no rows has no worst seed
    assert SweepResult(rows=(), tol=1e-12).worst_seed is None


def _per_trial_sweep(n, m, trials, seed):
    """The sweep as one ``theorem_check`` per trial, its rows built by hand."""
    system = sweep_system(n, m)
    ordering = ModeOrdering.canonical(system)
    rows = []
    for i in range(2 * trials):
        state = random_state(system, sector="even" if i < trials else "odd", seed=seed + i)
        report = theorem_check(state, ordering)
        diff, dist, ssr = report.max_entry_diff, report.trace_distance, report.ssr_compliant
        rows.append(SweepRow(seed + i, n, m, str(ordering), diff, dist, ssr))
    return SweepResult(rows=tuple(rows), tol=tol)


def _sweep_bytes(result):
    """The CSV and the JSON records, whose floats are written as their repr."""
    return result.to_csv(), repr([r.as_record() for r in result.rows])


#: (n, m) splits covering 1 to 7 modes in total.
SWEEP_SPLITS = [(1, 0), (1, 1), (2, 1), (1, 3), (3, 1), (2, 3), (3, 3), (4, 3)]


@pytest.mark.parametrize("budget", [None, 1, 8000], ids=["default", "one-per-chunk", "uneven-chunks"])
def test_sweep_rows_equal_per_trial_checks(monkeypatch, budget):
    """The stacked sweep gives, byte for byte, the rows of one
    ``theorem_check`` per trial, and never calls ``theorem_check``. Its
    stacks hold, row by row and bit for bit, signed zeros included, the
    states ``random_state`` draws for those checks. A budget of 1
    byte makes every trial its own chunk; 8000 bytes gives chunks that
    straddle the sector boundary at the small splits."""
    expected = {
        (n, m, seed): _sweep_bytes(_per_trial_sweep(n, m, 5, seed))
        for n, m in SWEEP_SPLITS
        for seed in (0, 11)
    }
    stacks = []

    def no_check(*args, **kwargs):
        raise AssertionError("the sweep checked a trial on its own")

    def spy(plan, data, *args, **kwargs):
        stacks.append(data)
        return compare(plan, data, *args, **kwargs)

    compare = reduction._compare_routes
    monkeypatch.setattr(reduction, "theorem_check", no_check)
    monkeypatch.setattr(reduction, "_compare_routes", spy)
    if budget is not None:
        monkeypatch.setattr(fock, "_STACK_BYTES", budget)
    for (n, m, seed), want in expected.items():
        stacks.clear()
        assert _sweep_bytes(theorem_sweep(n, m, trials=5, seed=seed)) == want
        system = sweep_system(n, m)
        sectors = ["even"] * 5 + ["odd"] * 5
        drawn = np.stack(
            [random_state(system, sector=sector, seed=seed + i).amplitudes for i, sector in enumerate(sectors)]
        )
        swept = np.concatenate(stacks)
        assert (swept.dtype, swept.shape, swept.tobytes()) == (drawn.dtype, drawn.shape, drawn.tobytes())
        if budget == 1:
            assert len(stacks) == 10
        if budget == 8000 and (n, m) == (2, 1):
            assert [len(stack) for stack in stacks] == [3, 3, 3, 1]


def test_stacked_comparison_equals_one_state_at_a_time():
    """``_compare_routes`` on a stack gives, row by row and bit for bit,
    the ``theorem_check`` fields of each state: pure and rank-3 rows, kept
    sets that are not first, and orderings forced where the routes differ."""
    rng = np.random.default_rng(2028)
    for n_modes in range(2, 7):
        system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
        bp = _split_not_first(rng, system)
        seeds = rng.integers(1 << 30, size=4).tolist()
        pure = np.stack([random_state(system, sector="any", seed=s).amplitudes for s in seeds])
        mixed = np.stack([random_density(system.dim, 3, rng) for _ in range(4)])
        for stack, wrap in ((pure, FockVector), (mixed, DensityOperator)):
            o = ModeOrdering(tuple(str(x) for x in rng.permutation(system.modes)))
            compared = reduction._compare_routes(reduction._route_plan(system, bp, o), stack, wrap is FockVector)
            fermionic, qubit_side, diff, dist = compared
            for row in range(len(stack)):
                report = theorem_check(wrap(system, stack[row]), o, bp, force=True)
                assert fermionic[row].tobytes() == report.fermionic.matrix.tobytes()
                assert qubit_side[row].tobytes() == report.qubit_route.matrix.tobytes()
                assert (diff[row], dist[row]) == (report.max_entry_diff, report.trace_distance)


def _report_bytes(report):
    return (
        report.fermionic.matrix.tobytes(),
        report.qubit_route.matrix.tobytes(),
        report.to_json(),
        np.float64(report.trace_distance).tobytes(),
    )


def test_theorem_check_fields_equal_the_public_routes():
    """Each ``theorem_check`` field equals what the public calls give: the
    fermionic trace, the three-step qubit composition (also equal to
    ``qubit_route_reduction``), their entry difference and ``trace_distance``,
    bit for bit, on pure and rank-3 inputs, kept sets that are not first,
    and random orderings, non-physical ones forced. A second call on the
    same split and ordering is served from the route plan, and gives the
    same bytes."""
    rng = np.random.default_rng(2027)
    seen_physical = set()
    for n_modes in range(2, 8):
        system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
        for sector in ("even", "odd", "any"):
            bp = _split_not_first(rng, system)
            split = ModeSystem.from_blocks(bp.kept, bp.traced)
            state = random_state(system, sector=sector, seed=int(rng.integers(1 << 30)))
            mixed = DensityOperator(system, random_density(system.dim, 3, rng))
            orderings = [ModeOrdering(bp.kept + bp.traced)]
            orderings += [ModeOrdering(tuple(str(x) for x in rng.permutation(system.modes))) for _ in range(3)]
            for given in (state, mixed):
                for o in orderings:
                    report = theorem_check(given, o, bp, force=True)
                    before = reduction._route_plan.cache_info()
                    again = theorem_check(given, o, bp, force=True)
                    after = reduction._route_plan.cache_info()
                    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
                    assert _report_bytes(again) == _report_bytes(report)
                    fermionic = fermionic_partial_trace(given, bp).matrix
                    composed = inverse_image_restricted(qubit_partial_trace(qubit_image(given, o), bp)).matrix
                    assert report.fermionic.matrix.tobytes() == fermionic.tobytes()
                    assert report.qubit_route.matrix.tobytes() == composed.tobytes()
                    assert qubit_route_reduction(given, o, bp).matrix.tobytes() == composed.tobytes()
                    assert report.max_entry_diff == float(np.abs(fermionic - composed).max())
                    assert report.trace_distance == trace_distance(fermionic, composed)
                    assert report.ssr_compliant == ssr_compliant(given)
                    assert report.physical == is_physical(o, split)
                    seen_physical.add(report.physical)
    assert seen_physical == {True, False}


def test_theorem_check_signs_two_orderings():
    """One ``theorem_check`` leaves two entries in the sign cache, the
    ordering's and the traced-first one of the fermionic trace: the qubit
    route reads the kept block's inverse signs off the ordering's own
    signs, with no cached vector for the restricted ordering."""
    system = sweep_system(3, 3)
    bp = BipartitionSpec(kept=("a2", "c1", "c3"), traced=("a1", "a3", "c2"))
    state = random_state(system, sector="even", seed=5)
    ordering_module.ordering_sign_vector.cache_clear()
    reduction._route_plan.cache_clear()
    report = theorem_check(state, ModeOrdering(bp.kept + bp.traced), bp)
    assert report.physical and report.agrees
    assert ordering_module.ordering_sign_vector.cache_info().currsize == 2


def test_theorem_check_raises_in_one_order_cold_and_warm():
    """A split that does not cover the system is refused before an
    ordering of other labels, and that before a non-physical ordering,
    whether the plan of the valid split and ordering is cached or not.
    Nothing is cached for the first two, which have no plan; the third is
    refused after its plan is read, since ``force`` is not part of it."""
    system = sweep_system(2, 2)
    state = random_state(system, sector="even", seed=3)
    bp = BipartitionSpec(kept=("a2", "c1"), traced=("a1", "c2"))
    uncovering = BipartitionSpec(kept=("a2", "c1"), traced=("a1",))
    interleaved = ModeOrdering(("a2", "a1", "c1", "c2"))
    foreign = ModeOrdering(("a2", "a1", "c1", "x"))
    reduction._route_plan.cache_clear()
    for warm in (0, 1):
        with pytest.raises(InvalidBipartitionError):
            theorem_check(state, foreign, uncovering)
        with pytest.raises(InvalidBipartitionError):
            theorem_check(state, interleaved, uncovering)
        with pytest.raises(InvalidOrderingError):
            theorem_check(state, foreign, bp)
        assert reduction._route_plan.cache_info().currsize == warm
        with pytest.raises(NonPhysicalOrderingError):
            theorem_check(state, interleaved, bp)
        assert reduction._route_plan.cache_info().currsize == 1


def test_force_is_not_part_of_the_route_plan():
    """``force`` is read on every call: after a forced comparison has
    cached the plan of a non-physical ordering, the same call without
    ``force`` is served from that plan and still refused."""
    system = sweep_system(2, 2)
    state = random_state(system, sector="odd", seed=4)
    interleaved = ModeOrdering(("c1", "a1", "a2", "c2"))
    report = theorem_check(state, interleaved, force=True)
    assert not report.physical
    before = reduction._route_plan.cache_info()
    with pytest.raises(NonPhysicalOrderingError, match="interleaves kept and traced modes"):
        theorem_check(state, interleaved)
    after = reduction._route_plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def _owned_bytes(arrays):
    """The bytes of the buffers that ``arrays`` view, each buffer once."""
    owners = {}
    for array in arrays:
        while array.base is not None:
            array = array.base
        owners[id(array)] = array.nbytes
    return sum(owners.values())


def test_route_plan_cache_is_bounded_and_read_only():
    """The route-plan cache keeps ``_ROUTE_PLANS`` = 64 plans, and a plan
    at 14 modes, the ``MAX_MODES`` cap, holds at most 32 KiB of int8 signs
    (two sign views of 2^14 entries, copies or views of cached sign
    vectors), so a full cache holds at most 2 MiB of them; every array of
    a plan is read-only."""
    assert reduction._ROUTE_PLANS == 64
    assert reduction._route_plan.cache_parameters()["maxsize"] == reduction._ROUTE_PLANS
    rng = np.random.default_rng(2030)
    system = ModeSystem(tuple(f"m{k}" for k in range(14)), a_count=14)
    splits = [BipartitionSpec(kept=system.modes[:7], traced=system.modes[7:])]
    splits += [_split_not_first(rng, system) for _ in range(2)]
    for bp in splits:
        for ordering in (ModeOrdering(bp.kept + bp.traced), ModeOrdering(tuple(rng.permutation(system.modes).tolist()))):
            plan = reduction._route_plan(system, bp, ordering)
            assert plan.fermionic_signs is not None  # built on first read, then held
            arrays = [value for value in vars(plan).values() if isinstance(value, np.ndarray)]
            assert len(arrays) == 2
            assert not any(array.flags.writeable for array in arrays)
            assert all(array.dtype == np.int8 for array in arrays)
            assert _owned_bytes(arrays) <= 32 * 1024
    assert reduction._ROUTE_PLANS * 32 * 1024 <= 2 * 1024 * 1024


def _count_eigh(monkeypatch):
    """Replace ``np.linalg.eigh`` with a wrapper that records each call."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_agreeing_routes_take_no_eigensolve(monkeypatch):
    """Superselected states under physical orderings, with the kept set
    first and not first, reduce to the same bits on both routes, so neither
    ``theorem_check`` nor ``theorem_sweep`` diagonalizes anything."""
    rng = np.random.default_rng(2029)
    checks = []
    for n_modes in range(2, 7):
        system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
        half = n_modes // 2
        first = BipartitionSpec(kept=system.modes[:half], traced=system.modes[half:])
        for bp in (first, _split_not_first(rng, system)):
            for sector in ("even", "odd"):
                state = random_state(system, sector=sector, seed=int(rng.integers(1 << 30)))
                kept = tuple(str(m) for m in rng.permutation(bp.kept))
                traced = tuple(str(m) for m in rng.permutation(bp.traced))
                checks.append((state, ModeOrdering(kept + traced), bp))
                checks.append((state.to_density(), ModeOrdering(kept + traced), bp))
    calls = _count_eigh(monkeypatch)
    for state, ordering, bp in checks:
        report = theorem_check(state, ordering, bp)
        assert report.physical and report.max_entry_diff == 0.0
        assert np.float64(report.trace_distance).tobytes() == np.float64(0.0).tobytes()
    sweep = theorem_sweep(3, 3, 5)
    assert [row.trace_distance for row in sweep.rows] == [0.0] * 10
    assert calls == []


def test_disagreeing_routes_take_one_eigensolve(monkeypatch):
    """The parity-violating witness under the kept-first ordering has routes
    half a trace distance apart: one eigensolve, whose distance is the
    public ``trace_distance`` of the report's two matrices, to the bit.
    Forced to the traced-first ordering, its qubit route is the operator
    sandwich itself, and nothing is diagonalized."""
    state = parity_violating_state()
    calls = _count_eigh(monkeypatch)
    report = theorem_check(state, ModeOrdering(("a", "b")), force=True)
    assert calls == [(2, 2)]
    assert report.trace_distance == trace_distance(report.fermionic.matrix, report.qubit_route.matrix)
    assert abs(report.trace_distance - 0.5) < 1e-10
    calls.clear()
    forced = theorem_check(state, ModeOrdering(("b", "a")), force=True)
    assert not forced.physical and forced.trace_distance == 0.0
    assert calls == []


@settings(deadline=None, max_examples=40)
@given(
    n_modes=st.sampled_from(range(2, 8)),
    kept_first=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_report_physical_is_the_physical_rule_of_the_split(n_modes, kept_first, seed):
    """``theorem_check`` decides physicality as ``is_physical`` does on the
    split's own system, on random splits and orderings, kept-first or
    drawn at random, and refuses an ordering of the wrong labels with the
    message ``is_physical`` gives on the split's blocks in canonical order."""
    rng = np.random.default_rng(seed)
    system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
    bp = _random_split(rng, system)
    split = ModeSystem.from_blocks(bp.kept, bp.traced)
    if kept_first:
        labels = tuple(str(m) for m in rng.permutation(bp.kept)) + tuple(str(m) for m in rng.permutation(bp.traced))
    else:
        labels = tuple(str(m) for m in rng.permutation(system.modes))
    ordering = ModeOrdering(labels)
    state = random_state(system, sector="even", seed=seed)
    report = theorem_check(state, ordering, bp, force=True)
    assert report.physical == is_physical(ordering, split)
    assert report.physical or not kept_first
    wrong = ModeOrdering(labels[:-1] + ("x",))
    in_canonical_order = ModeSystem.from_blocks(
        [m for m in system.modes if m in bp.kept], [m for m in system.modes if m in bp.traced]
    )
    with pytest.raises(InvalidOrderingError) as expected:
        is_physical(wrong, in_canonical_order)
    with pytest.raises(InvalidOrderingError, match=f"^{re.escape(str(expected.value))}$"):
        theorem_check(state, wrong, bp, force=True)


def _sweep_stack(rows):
    system = sweep_system(2, 2)
    amplitudes = np.stack([random_state(system, sector="even", seed=s).amplitudes for s in range(rows)])
    ordering = ModeOrdering.canonical(system)
    return system, amplitudes, reduction._route_plan(system, None, ordering), ordering


def test_stacked_check_names_the_row_the_per_trial_path_refuses():
    """A row that fails a check raises the exception the per-trial path
    raises for that state, its message led by the row. A non-finite row,
    which no ``FockVector`` holds, is refused by the reductions' own
    finite check."""
    system, amplitudes, plan, ordering = _sweep_stack(5)
    amplitudes[3] *= 2.0
    with pytest.raises(ValueError) as per_trial:
        theorem_check(FockVector(system, amplitudes[3]), ordering)
    with pytest.raises(type(per_trial.value)) as stacked:
        reduction._compare_routes(plan, amplitudes, pure=True)
    assert type(stacked.value) is type(per_trial.value)
    assert str(stacked.value) == f"row 3: {per_trial.value}"
    assert str(per_trial.value).startswith("density matrix trace is")

    amplitudes[3] /= 2.0
    amplitudes[1, 5] = np.nan
    with pytest.raises(ValueError, match="must be finite"):
        FockVector(system, amplitudes[1])
    with pytest.raises(ValueError, match=r"^row 1: matrix entries must be finite$"):
        reduction._compare_routes(plan, amplitudes, pure=True)


def test_stacked_check_of_mixed_rows_names_the_non_hermitian_row():
    """A stack of matrices is checked like a stack of amplitudes: the row
    whose reductions are not Hermitian raises ``NotHermitianError``, as the
    ``DensityOperator`` of that matrix does."""
    system, amplitudes, plan, ordering = _sweep_stack(3)
    rhos = np.einsum("bi,bj->bij", amplitudes, amplitudes.conj())
    rhos[2, 0, 4] += 1e-3  # kept 00 vs 01 over traced 00, which the trace keeps
    with pytest.raises(NotHermitianError):
        DensityOperator(system, rhos[2])
    with pytest.raises(NotHermitianError, match=r"^row 2: max \|m - m\^dag\| entry"):
        reduction._compare_routes(plan, rhos, pure=False)


def test_sweep_refuses_a_kept_block_above_the_eigensolver_cap_before_reducing(monkeypatch):
    """At 13 kept modes the trace distance would need an 8192-dimensional
    eigensolve; the sweep refuses with the eigensolver's own error before
    anything is viewed or reduced, instead of after forming two 1 GiB
    reductions."""

    def no_reduction(*args, **kwargs):
        raise AssertionError("a state was viewed or reduced")

    with monkeypatch.context() as patched:
        patched.setattr(reduction, "_trace_view", no_reduction)
        patched.setattr(reduction, "_block_partial_trace", no_reduction)
        with pytest.raises(DimensionMismatchError, match="^dimension 8192 exceeds eigensolver cap 4096$"):
            theorem_sweep(13, 1, trials=1)


_QUBIT_ONLY_SIGNS = """
import fermiorder as fo
from fermiorder.ordering import ordering_sign_vector
system = fo.ModeSystem.from_blocks(("a1", "a2", "a3"), ("c1", "c2", "c3"))
state = fo.random_state(system, "even", 1)
fo.qubit_route_reduction(state, fo.ModeOrdering(("c1", "a1", "a2", "c2", "a3", "c3")))
print(ordering_sign_vector.cache_info().currsize)
fo.fermionic_partial_trace(state)
fo.fermionic_partial_trace(state)
print(ordering_sign_vector.cache_info().currsize)
"""


def test_a_qubit_only_caller_builds_no_fermionic_signs():
    """In a fresh process, one ``qubit_route_reduction`` on a new (3,3)
    split computes two sign vectors, the ordering's and its restriction to
    the kept modes, and not the fermionic trace's; the first fermionic
    trace on the split adds that one, and a second adds none."""
    import subprocess
    import sys

    out = subprocess.run([sys.executable, "-c", _QUBIT_ONLY_SIGNS], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["2", "3"]


def test_route_plan_keeps_the_fermionic_signs_it_builds():
    """A plan builds the fermionic trace's signs on their first read and
    then holds them as an instance attribute, so every later read returns
    the same array without calling the builder again."""
    system = sweep_system(2, 2)
    reduction._route_plan.cache_clear()
    plan = reduction._route_plan(system, None)
    assert "fermionic_signs" not in vars(plan)
    signs = plan.fermionic_signs
    assert vars(plan)["fermionic_signs"] is signs
    assert reduction._route_plan(system, None).fermionic_signs is signs
    expected = ordering_module.ordering_sign_vector(system, ModeOrdering(system.c_labels + system.a_labels))
    assert np.array_equal(signs, fock._kept_traced_view(expected, [0, 1], [2, 3]))
