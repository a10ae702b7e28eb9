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
from fermiorder.numerics import hermitian_eigenvalues
from fermiorder import ordering as ordering_module
from fermiorder import reduction
from fermiorder.ordering import ModeOrdering, _inversion_signs, is_physical, qubit_image
from fermiorder.reduction import (
    InvalidBipartitionError,
    NonPhysicalOrderingError,
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
    fermionic_trace,
    qubit_ptrace,
    random_density,
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


def test_invalid_bipartition_rejected():
    system = sweep_system(1, 1)
    rho = random_state(system, seed=0).to_density()
    with pytest.raises(InvalidBipartitionError):
        fermionic_partial_trace(rho, BipartitionSpec(kept=("a1",), traced=("zz",)))


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
    ``orderings`` lists all 6! permutations once: within a class, by
    precedence group in order of first appearance, then in permutation
    order, with the representative first."""
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

    first_seen = {}
    for i, p in enumerate(perms):
        first_seen.setdefault(precedence(p), i)
    members = [[o.labels for o in c.orderings] for c in classes]
    assert sorted(p for labels in members for p in labels) == perms
    assert any(len({precedence(p) for p in labels}) > 1 for labels in members)
    for c, labels in zip(classes, members):
        assert c.size == len(labels)
        assert c.representative.labels == labels[0]
        assert labels == sorted(labels, key=lambda p: (first_seen[precedence(p)], perms.index(p)))


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
    are not first, for pure and density inputs. The scan itself neither
    calls the route nor the cached sign vectors."""

    def forbidden(*args):
        raise AssertionError("the scan called the per-ordering route")

    rng = np.random.default_rng(2020)
    for n_modes in range(3, 7):
        system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
        bp = _split_not_first(rng, system)
        state = random_state(system, sector="any", seed=int(rng.integers(1 << 30)))
        for given in (state, state.to_density()):
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
    """A byte budget of one group per chunk gives the same scan, to the bit."""
    rng = np.random.default_rng(2021)
    system = ModeSystem(tuple(f"m{k}" for k in range(6)), a_count=6)
    for sector in ("even", "any"):
        bp = _split_not_first(rng, system)
        state = random_state(system, sector=sector, seed=int(rng.integers(1 << 30)))
        for given in (state, state.to_density()):
            default = _scan_record(ordering_scan(given, bp))
            with monkeypatch.context() as patched:
                patched.setattr(reduction, "_SCAN_CHUNK_BYTES", 1)
                assert _scan_record(ordering_scan(given, bp)) == default


def test_scan_uniformity_check_fires(monkeypatch):
    """One flipped sign in a verification sample's row makes that sample
    disagree with its representative, and the scan refuses to group it."""
    system = sweep_system(2, 2)
    state = random_state(system, sector="any", seed=3)

    def one_flip(ranks):
        signs = _inversion_signs(ranks)
        if len(ranks) > 1 and ranks.shape[1] == system.n_modes:
            signs[-1, 1] *= -1
        return signs

    monkeypatch.setattr(reduction, "_SCAN_CHUNK_BYTES", 1)
    monkeypatch.setattr(reduction, "_inversion_signs", one_flip)
    with pytest.raises(AssertionError, match="is not uniform"):
        ordering_scan(state)


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
