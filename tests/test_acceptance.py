"""Acceptance gate: one test per required behavior, at its stated tolerance.

Each test prints a single PASS/FAIL line (bypassing capture) so a full run
reads as a checklist. Tolerances and trial counts are part of the contract
and are not to be loosened casually.
"""

import time
from itertools import permutations

import numpy as np
import pytest

from fermiorder.entanglement import (
    SeparableDecomposition,
    build_separable,
    concurrence_and_eof,
    negativity,
    ppt_separable,
)
from fermiorder.fock import (
    ANNIHILATION,
    CREATION,
    BipartitionSpec,
    ModeSystem,
    OperatorString,
    apply,
    basis_state,
    random_state,
    ssr_compliant,
)
from fermiorder.numerics import trace_distance
from fermiorder.ordering import ModeOrdering, qubit_image
from fermiorder.reduction import (
    fermionic_partial_trace,
    qubit_route_reduction,
    sweep_system,
    theorem_check,
)
from fermiorder.states import (
    entangling_ordering,
    occupation_bell_state,
    parity_violating_state,
    spin_singlet_state,
    tilted_pair_state,
    two_delocalized_fermions,
)
from _oracles import jw_matrix
from _oracles import negativity as negativity_oracle
from _oracles import qubit_ptrace

TOL = 1e-12
DERIVED_TOL = 1e-10


def announce(capsys, ok, label, detail):
    with capsys.disabled():
        print(f"[acceptance] {'PASS' if ok else 'FAIL'} {label}: {detail}")


def test_theorem_route_agreement_sweep(capsys):
    """Both reduction routes coincide on random superselected states."""
    start = time.monotonic()
    worst = 0.0
    trials = 0
    for n, m in ((1, 1), (2, 2), (3, 3)):
        system = sweep_system(n, m)
        ordering = ModeOrdering.canonical(system)
        for sector_index, sector in enumerate(("even", "odd")):
            for t in range(500):
                state = random_state(system, sector=sector, seed=sector_index * 500 + t)
                report = theorem_check(state.to_density(), ordering, tol=TOL)
                worst = max(worst, report.max_entry_diff)
                trials += 1
    elapsed = time.monotonic() - start
    ok = worst < TOL and elapsed < 30.0
    announce(
        capsys, ok, "theorem-route-agreement",
        f"max entry diff {worst:.3e} over {trials} trials in {elapsed:.1f}s (tol {TOL}, budget 30s)",
    )
    assert worst < TOL
    assert elapsed < 30.0


def test_pair_state_negativity_by_ordering(capsys):
    """The four-mode pair state scores 0 under the block ordering and 1/2
    under the interleaving one, matching the reference spectrum."""
    state = two_delocalized_fermions()
    block = negativity(state, ordering=ModeOrdering.canonical(state.system)).value
    mixed = negativity(state, ordering=entangling_ordering()).value
    image = qubit_image(state.to_density(), entangling_ordering())
    reference = negativity_oracle(image.data, 4, traced_positions=[2, 3])
    ok = abs(block) <= TOL and abs(mixed - 0.5) <= DERIVED_TOL and abs(mixed - reference) <= DERIVED_TOL
    announce(
        capsys, ok, "ordering-dependent-negativity",
        f"block {block:.3e}, interleaved {mixed:.12f} (oracle {reference:.12f})",
    )
    assert abs(block) <= TOL
    assert abs(mixed - 0.5) <= DERIVED_TOL


def test_route_disagreement_gap_pinned(capsys):
    """Two orderings of the parity-violating witness give reduced states
    exactly half a trace-distance apart."""
    rho = parity_violating_state().to_density()
    first = qubit_route_reduction(rho, ModeOrdering(("a", "b")))
    second = qubit_route_reduction(rho, ModeOrdering(("b", "a")))
    gap = trace_distance(first.matrix, second.matrix)

    image_ab = qubit_image(rho, ModeOrdering(("a", "b")))
    image_ba = qubit_image(rho, ModeOrdering(("b", "a")))
    oracle_first = qubit_ptrace(image_ab.data, 2, [1])
    oracle_second = qubit_ptrace(image_ba.data, 2, [1])
    oracle_gap = float(np.linalg.svd(oracle_first - oracle_second, compute_uv=False).sum()) / 2.0

    ok = gap > 1e-6 and abs(gap - 0.5) <= DERIVED_TOL and abs(gap - oracle_gap) <= DERIVED_TOL
    announce(capsys, ok, "route-disagreement-gap", f"trace distance {gap:.12f} (oracle {oracle_gap:.12f})")
    assert gap > 1e-6
    assert abs(gap - 0.5) <= DERIVED_TOL


def test_within_traced_permutation_invariance(capsys):
    """Permuting traced modes behind the kept block never moves the reduced
    state, for superselected and violating states alike."""
    system = sweep_system(2, 3)
    rng = np.random.default_rng(2024)
    worst = 0.0
    states = []
    for i in range(50):
        states.append(random_state(system, sector="even", seed=i))
        states.append(random_state(system, sector="odd", seed=1000 + i))
    for i in range(100):
        state = random_state(system, sector="any", seed=2000 + i)
        assert not ssr_compliant(state)
        states.append(state)
    for state in states:
        rho = state.to_density()
        base = qubit_route_reduction(rho, ModeOrdering.canonical(system))
        for _ in range(10):
            shuffled = tuple(rng.permutation(system.c_labels))
            other = qubit_route_reduction(rho, ModeOrdering(system.a_labels + shuffled))
            worst = max(worst, float(np.abs(base.matrix - other.matrix).max()))
    ok = worst < TOL
    announce(
        capsys, ok, "within-traced-permutation-invariance",
        f"max deviation {worst:.3e} over {len(states)} states x 10 permutations",
    )
    assert worst < TOL


def test_separable_states_and_entangled_witness(capsys):
    """Mixtures of block-local creations never show negativity and pass the
    separability decision; the occupation pair does neither."""
    rng = np.random.default_rng(77)
    worst = 0.0
    count = 0
    for wide in (False, True):
        system = sweep_system(1, 2) if wide else sweep_system(1, 1)
        ordering = ModeOrdering.canonical(system)
        for _ in range(50):
            terms = int(rng.integers(1, 4))
            weights = rng.random(terms) + 0.1
            weights /= weights.sum()
            kept, traced = [], []
            for _ in range(terms):
                kept.append(
                    OperatorString(tuple((l, CREATION) for l in system.a_labels if rng.random() < 0.5))
                )
                traced.append(
                    OperatorString(tuple((l, CREATION) for l in system.c_labels if rng.random() < 0.5))
                )
            dec = SeparableDecomposition(
                weights=tuple(weights), terms_kept=tuple(kept), terms_traced=tuple(traced)
            )
            rho = build_separable(dec, system)
            value = negativity(rho, ordering=ordering).value
            worst = max(worst, value)
            assert ppt_separable(rho, ordering=ordering)
            count += 1

    bell = occupation_bell_state()
    bell_ordering = ModeOrdering.canonical(bell.system)
    bell_negativity = negativity(bell, ordering=bell_ordering).value
    bell_ppt = ppt_separable(bell.to_density(), ordering=bell_ordering)
    ok = worst < TOL and abs(bell_negativity - 0.5) <= DERIVED_TOL and bell_ppt is False
    announce(
        capsys, ok, "separable-forms-and-witness",
        f"max separable negativity {worst:.3e} over {count} builds; "
        f"pair state negativity {bell_negativity:.12f}, separable={bell_ppt}",
    )
    assert worst < TOL
    assert abs(bell_negativity - 0.5) <= DERIVED_TOL
    assert bell_ppt is False


def test_singlet_marginals_maximally_mixed(capsys):
    """Either party of the shared spin pair reduces to the even mixture of
    its one-particle basis."""
    state = spin_singlet_state()
    rho = state.to_density()
    target = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
    kept = fermionic_partial_trace(rho)
    flipped = fermionic_partial_trace(rho, BipartitionSpec(kept=("uR", "dR"), traced=("uA", "dA")))
    diff = max(
        float(np.abs(kept.matrix - target).max()),
        float(np.abs(flipped.matrix - target).max()),
    )
    compliant = ssr_compliant(state)
    ok = diff < TOL and compliant
    announce(capsys, ok, "singlet-marginals", f"max deviation {diff:.3e}, ssr={compliant}")
    assert diff < TOL
    assert compliant


def test_negativity_and_eof_increase_together(capsys):
    """Both measures are strictly monotone along the one-parameter tilt."""
    thetas = np.linspace(np.pi / 4.0 / 20.0, np.pi / 4.0, 20)
    negativities, eofs = [], []
    for theta in thetas:
        state = tilted_pair_state(float(theta))
        ordering = ModeOrdering.canonical(state.system)
        negativities.append(negativity(state, ordering=ordering).value)
        image = qubit_image(state.to_density(), ordering)
        eofs.append(concurrence_and_eof(image)[1].value)
    neg_monotone = all(b > a for a, b in zip(negativities, negativities[1:]))
    eof_monotone = all(b > a for a, b in zip(eofs, eofs[1:]))
    ok = neg_monotone and eof_monotone
    announce(
        capsys, ok, "measure-monotonicity",
        f"negativity {negativities[0]:.4f}->{negativities[-1]:.4f}, "
        f"eof {eofs[0]:.4f}->{eofs[-1]:.4f}, both strictly increasing={ok}",
    )
    assert neg_monotone
    assert eof_monotone


def test_operator_algebra_matches_dense_oracle(capsys):
    """Exact sign agreement with kron-built parity-string matrices, plus
    randomized anticommutation checks, inside the time budget."""
    start = time.monotonic()
    mismatch = 0
    checked = 0
    for n in range(1, 7):
        system = ModeSystem(tuple(f"m{k}" for k in range(n)), a_count=max(1, n // 2))
        for k in range(n):
            for kind, symbol in ((CREATION, "+"), (ANNIHILATION, "-")):
                dense = jw_matrix(n, k, symbol)
                for idx in range(system.dim):
                    v = basis_state(system, system.bits_of_index(idx))
                    ours = apply(kind, system.modes[k], v).amplitudes
                    if not np.array_equal(ours, dense[:, idx]):
                        mismatch += 1
                    checked += 1

    rng = np.random.default_rng(11)
    system = ModeSystem(tuple(f"m{k}" for k in range(5)), a_count=2)
    for t in range(1000):
        i, j = rng.choice(5, size=2, replace=False)
        ki = CREATION if rng.random() < 0.5 else ANNIHILATION
        kj = CREATION if rng.random() < 0.5 else ANNIHILATION
        v = random_state(system, seed=int(rng.integers(0, 1 << 30)))
        left = apply(ki, system.modes[i], apply(kj, system.modes[j], v))
        right = apply(kj, system.modes[j], apply(ki, system.modes[i], v))
        if not np.array_equal(left.amplitudes, -right.amplitudes):
            mismatch += 1
        checked += 1
    elapsed = time.monotonic() - start
    ok = mismatch == 0 and elapsed < 10.0
    announce(
        capsys, ok, "algebra-oracle-equivalence",
        f"{checked} exact comparisons, {mismatch} mismatches, {elapsed:.1f}s (budget 10s)",
    )
    assert mismatch == 0
    assert elapsed < 10.0
