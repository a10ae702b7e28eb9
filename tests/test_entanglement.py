from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiorder.entanglement import (
    SUPPORT_TOL,
    MalformedDecompositionError,
    SeparableDecomposition,
    UnsupportedDimensionsError,
    build_separable,
    concurrence_and_eof,
    negativity,
    partial_transpose,
    ppt_separable,
)
from fermiorder.fock import (
    BipartitionSpec,
    FockVector,
    ModeSystem,
    OperatorString,
    random_state,
    ssr_compliant,
)
from fermiorder.numerics import NotHermitianError
from fermiorder.ordering import ModeOrdering, QubitState, qubit_image
from fermiorder.reduction import ordering_scan, sweep_system
from fermiorder.states import (
    entangling_ordering,
    occupation_bell_state,
    qubit_pair_system,
    qubit_state_from_matrix,
    tilted_pair_state,
    two_delocalized_fermions,
)
from _oracles import negativity as negativity_oracle
from _oracles import partial_transpose as pt_oracle
from _oracles import qubit_ptrace, random_density, random_unitary

tol = 1e-12


def bell_matrix():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


# --- partial transpose ----------------------------------------------------------


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(2)
    system = sweep_system(2, 2)
    m = random_density(16, 16, rng)
    once = partial_transpose(m, system)
    twice = partial_transpose(once, system)
    assert np.array_equal(twice, m)
    with pytest.raises(ValueError, match=r"^expected a 16x16 matrix, got \(4, 4\)$"):
        partial_transpose(np.eye(4), system)


def test_partial_transpose_matches_index_oracle():
    rng = np.random.default_rng(8)
    system = sweep_system(1, 2)
    m = random_density(8, 8, rng)
    ours = partial_transpose(m, system)
    reference = pt_oracle(m, 3, traced_positions=[1, 2])
    assert np.array_equal(ours, reference)


def test_partial_transpose_diagonal_unchanged():
    system = sweep_system(1, 1)
    d = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    assert np.array_equal(partial_transpose(d, system), d)


def test_partial_transpose_of_product_state_stays_positive():
    rng = np.random.default_rng(4)
    sigma = random_density(2, 2, rng)
    tau = random_density(2, 2, rng)
    system = qubit_pair_system()
    pt = partial_transpose(np.kron(sigma, tau), system)
    assert np.array_equal(pt, np.kron(sigma, tau.T))
    assert np.linalg.eigvalsh(pt).min() > -1e-12


def test_bell_partial_transpose_spectrum():
    system = qubit_pair_system()
    pt = partial_transpose(bell_matrix(), system)
    eigs = np.sort(np.linalg.eigvalsh(pt))
    assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-10)


# --- negativity -------------------------------------------------------------------


def test_measures_read_pure_inputs_without_their_density(monkeypatch):
    """A ``FockVector`` is carried to qubits as amplitudes, and its matrix is
    the Hermitized outer product its density would have, so negativity and
    the PPT verdict keep the density's bytes. Concurrence and EOF of a pure
    input come from the closed form, within 1e-7 of the density's spin-flip
    spectrum."""
    cases = []
    for n_modes in range(2, 7):
        system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
        rng = np.random.default_rng(n_modes)
        for sector in ("even", "odd", "any"):
            state = random_state(system, sector=sector, seed=n_modes)
            kept = tuple(str(m) for m in rng.permutation(system.modes)[: n_modes // 2])
            bp = BipartitionSpec(kept=kept, traced=tuple(m for m in system.modes if m not in kept))
            ordering = ModeOrdering(tuple(str(m) for m in rng.permutation(system.modes)))
            cases.append((state, bp, ordering))

    def measures(given, bp, ordering):
        values = [negativity(given, bp, ordering).value]
        try:
            values.append(ppt_separable(given, bp, ordering))
        except UnsupportedDimensionsError as exc:
            values.append(str(exc))
        return values

    expected = [measures(state.to_density(), bp, o) for state, bp, o in cases]
    two_mode = [(s, o) for s, _, o in cases if s.system.n_modes == 2]
    spin_flip = [[r.value for r in concurrence_and_eof(s.to_density(), o)] for s, o in two_mode]

    def no_density(self):
        raise AssertionError("a pure input formed its density")

    monkeypatch.setattr(FockVector, "to_density", no_density)
    assert [measures(state, bp, o) for state, bp, o in cases] == expected
    closed = [[r.value for r in concurrence_and_eof(s, o)] for s, o in two_mode]
    assert np.abs(np.array(closed) - np.array(spin_flip)).max() < 1e-7


def test_unnormalized_pure_input_is_rejected_by_its_norm():
    system = sweep_system(1, 1)
    doubled = FockVector(system, 2 * FockVector.vacuum(system).amplitudes)
    ordering = ModeOrdering.canonical(system)
    for call in (negativity, ppt_separable):
        with pytest.raises(ValueError, match=r"^qubit state trace is \(4\+0j\), expected 1$"):
            call(doubled, ordering=ordering)


def test_fermionic_negativity_requires_ordering():
    state = occupation_bell_state()
    with pytest.raises(ValueError):
        negativity(state)
    # a qubit state's own ordering is the only one it may be read under
    image = qubit_state_from_matrix(np.eye(4, dtype=complex) / 4)
    with pytest.raises(ValueError, match=r"^qubit state already carries an ordering; do not pass a different one$"):
        negativity(image, ordering=ModeOrdering(("c1", "a1")))


def test_bell_negativity_half():
    state = occupation_bell_state()
    result = negativity(state, ordering=ModeOrdering.canonical(state.system))
    assert abs(result.value - 0.5) < 1e-10
    assert result.ordering is not None
    assert result.bipartition.kept == ("A",)


def test_pair_state_negativity_depends_on_ordering():
    state = two_delocalized_fermions()
    block = negativity(state, ordering=ModeOrdering.canonical(state.system))
    mixed = negativity(state, ordering=entangling_ordering())
    assert block.value == 0.0
    assert abs(mixed.value - 0.5) < 1e-10


def _split_system(n_modes, kept):
    system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
    return system, BipartitionSpec(kept=kept, traced=tuple(m for m in system.modes if m not in kept))


def _contiguous_orderings(system, kept):
    """Every ordering that lists the kept modes as one run, traced modes
    before it, after it or both."""
    for p in permutations(system.modes):
        places = [p.index(m) for m in kept]
        if max(places) - min(places) == len(kept) - 1:
            yield ModeOrdering(p)


def test_negativity_same_for_every_contiguous_ordering_of_one_parity():
    """Relative to kept-first, an ordering T1 K T2 multiplies each basis
    state by signs local to K and to T, times (-1)^(n_K n_T1). Within one
    parity sector n_K = p + n_T (mod 2), so that factor is a diagonal sign on
    the traced side alone, and the partial-transpose spectrum is unchanged.
    Checked on kept sets that are not first; a state mixing parities
    gives some contiguous ordering a different value."""
    for n_modes, kept in ((4, ("m1", "m2")), (5, ("m0", "m2", "m4")), (6, ("m1", "m3", "m4"))):
        system, bp = _split_system(n_modes, kept)
        kept_first = ModeOrdering(bp.kept + bp.traced)
        for sector in ("even", "odd", "any"):
            state = random_state(system, sector=sector, seed=40 + n_modes)
            reference = negativity(state, bp, kept_first).value
            gaps = [
                abs(negativity(state, bp, o).value - reference)
                for o in _contiguous_orderings(system, kept)
            ]
            if sector == "any":
                assert max(gaps) > 1e-3
            else:
                assert reference > 1e-3 and max(gaps) < tol


def _parity_decomposition(system, parity, rng):
    """Two random product terms, each with a total particle number of the
    given parity."""
    kept, traced = [], []
    while len(kept) < 2:
        a_subset = [l for l in system.a_labels if rng.random() < 0.5]
        c_subset = [l for l in system.c_labels if rng.random() < 0.5]
        if (len(a_subset) + len(c_subset)) % 2 == parity:
            kept.append(OperatorString(tuple((l, "+") for l in a_subset)))
            traced.append(OperatorString(tuple((l, "+") for l in c_subset)))
    weight = float(rng.uniform(0.1, 0.9))
    return SeparableDecomposition(
        weights=(weight, 1.0 - weight), terms_kept=tuple(kept), terms_traced=tuple(traced)
    )


def test_ppt_verdict_same_for_every_contiguous_ordering():
    """A contiguous-kept ordering changes a state of one parity by a local
    unitary (see above), so the PPT verdict is that of kept-first: all 12
    contiguous orderings of two_delocalized_fermions say separable, while
    its 12 interleaved orderings give both verdicts. Separable mixtures of
    either parity are separable under every contiguous ordering."""
    pair = two_delocalized_fermions()
    contiguous = set(_contiguous_orderings(pair.system, pair.system.a_labels))
    interleaved = {ModeOrdering(p) for p in permutations(pair.system.modes)} - contiguous
    assert len(contiguous) == len(interleaved) == 12
    assert all(ppt_separable(pair, ordering=o) for o in contiguous)
    assert {ppt_separable(pair, ordering=o) for o in interleaved} == {True, False}
    system = sweep_system(2, 2)
    rng = np.random.default_rng(7)
    for parity in (0, 1):
        for _ in range(3):
            rho = build_separable(_parity_decomposition(system, parity, rng), system)
            assert ssr_compliant(rho)
            for o in _contiguous_orderings(system, system.a_labels):
                assert ppt_separable(rho, ordering=o) is True


def test_negativity_constant_on_each_scan_class():
    """Every member of an ``ordering_scan`` class gives the same negativity
    for a state of one parity: all members at 4 and 5 modes, and at 6 modes
    the representative and three random members of each class."""
    rng = np.random.default_rng(44)
    for n_modes, kept in ((4, ("m0", "m2")), (5, ("m1", "m2", "m4")), (6, ("m0", "m3", "m5"))):
        system, bp = _split_system(n_modes, kept)
        for sector in ("even", "odd"):
            state = random_state(system, sector=sector, seed=50 + n_modes)
            for c in ordering_scan(state, bp):
                members = c.orderings
                if n_modes == 6:
                    picks = rng.choice(c.size, size=min(3, c.size), replace=False)
                    members = [c.representative] + [members[int(k)] for k in picks]
                values = [negativity(state, bp, o).value for o in members]
                assert max(values) - min(values) < tol


def test_negativity_matches_eigvalsh_oracle_on_random_states():
    system = sweep_system(2, 2)
    ordering = ModeOrdering(("a2", "c1", "a1", "c2"))
    for seed in range(6):
        rho = random_state(system, sector="any", seed=seed).to_density()
        ours = negativity(rho, ordering=ordering).value
        image = qubit_image(rho, ordering)
        reference = max(0.0, negativity_oracle(image.data, 4, traced_positions=[2, 3]))
        assert abs(ours - reference) < 1e-10


def test_negativity_local_unitary_invariance():
    rng = np.random.default_rng(19)
    system = qubit_pair_system()
    for _ in range(5):
        rho = random_density(4, 3, rng)
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        a = negativity(qubit_state_from_matrix(rho)).value
        b = negativity(qubit_state_from_matrix(u @ rho @ u.conj().T)).value
        assert abs(a - b) < 1e-10


def test_measure_result_serialization_echoes_context():
    state = occupation_bell_state()
    result = negativity(state, ordering=ModeOrdering(("A", "R")))
    payload = result.to_json()
    assert payload["measure"] == "negativity"
    assert payload["ordering"] == ["A", "R"]
    assert payload["bipartition"] == {"kept": ["A"], "traced": ["R"]}


def test_unnormalized_qubit_state_rejected():
    """A qubit state off unit trace (or unit norm) by 1e-9 or more raises,
    as an unnormalized FockVector does, instead of giving a meaningless
    value; one within the bound is accepted."""
    system = qubit_pair_system()
    ordering = ModeOrdering.canonical(system)
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    for data in (2.0 * psi, 2.0 * bell_matrix(), (1.0 + 2e-9) * bell_matrix()):
        q = QubitState(system, ordering, data)
        for measure in (negativity, ppt_separable):
            with pytest.raises(ValueError, match="trace"):
                measure(q)
    near = QubitState(system, ordering, (1.0 + 5e-10) * bell_matrix())
    assert abs(negativity(near).value - 0.5) < 1e-9
    assert not ppt_separable(near)


def test_measures_share_one_hermiticity_bound():
    """A mixed qubit state off Hermitian by 1e-11 is accepted by every
    measure, and one off by 1e-6 is rejected by every measure."""
    system = qubit_pair_system()
    ordering = ModeOrdering.canonical(system)
    for skew, accepted in ((1e-11, True), (1e-6, False)):
        matrix = bell_matrix()
        matrix[0, 1] += skew
        q = QubitState(system, ordering, matrix)
        for measure in (negativity, ppt_separable, concurrence_and_eof):
            if accepted:
                measure(q)
            else:
                with pytest.raises(NotHermitianError):
                    measure(q)


# --- separability ------------------------------------------------------------------


def random_decomposition(system, rng):
    terms = int(rng.integers(1, 4))
    weights = rng.random(terms) + 0.05
    weights = weights / weights.sum()
    kept, traced = [], []
    for _ in range(terms):
        a_subset = [l for l in system.a_labels if rng.random() < 0.5]
        b_subset = [l for l in system.c_labels if rng.random() < 0.5]
        kept.append(OperatorString(tuple((l, "+") for l in a_subset)))
        traced.append(OperatorString(tuple((l, "+") for l in b_subset)))
    return SeparableDecomposition(
        weights=tuple(weights), terms_kept=tuple(kept), terms_traced=tuple(traced)
    )


def test_single_term_product_state():
    system = sweep_system(1, 1)
    dec = SeparableDecomposition(
        weights=(1.0,),
        terms_kept=(OperatorString.parse("a1+"),),
        terms_traced=(OperatorString.parse("c1+"),),
    )
    rho = build_separable(dec, system)
    assert rho.matrix[3, 3] == 1.0
    assert negativity(rho, ordering=ModeOrdering.canonical(system)).value == 0.0


def test_two_term_mixture_not_negative():
    system = sweep_system(1, 1)
    dec = SeparableDecomposition(
        weights=(0.5, 0.5),
        terms_kept=(OperatorString.parse("a1+"), OperatorString(())),
        terms_traced=(OperatorString.parse("c1+"), OperatorString(())),
    )
    rho = build_separable(dec, system)
    assert abs(rho.matrix[0, 0] - 0.5) < tol
    assert abs(rho.matrix[3, 3] - 0.5) < tol
    assert negativity(rho, ordering=ModeOrdering.canonical(system)).value == 0.0
    assert ppt_separable(rho, ordering=ModeOrdering.canonical(system))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(min_value=0, max_value=100_000), wide=st.booleans())
def test_separable_builds_have_zero_negativity(seed, wide):
    system = sweep_system(1, 2) if wide else sweep_system(1, 1)
    rng = np.random.default_rng(seed)
    rho = build_separable(random_decomposition(system, rng), system)
    ordering = ModeOrdering.canonical(system)
    assert negativity(rho, ordering=ordering).value < tol
    assert ppt_separable(rho, ordering=ordering)


def test_decomposition_validation():
    with pytest.raises(MalformedDecompositionError):
        SeparableDecomposition(weights=(), terms_kept=(), terms_traced=())
    with pytest.raises(MalformedDecompositionError, match=r"^weights and term lists must have equal length$"):
        SeparableDecomposition((1.0,), (), ())
    with pytest.raises(MalformedDecompositionError):
        SeparableDecomposition(
            weights=(0.4, 0.4),
            terms_kept=(OperatorString(()), OperatorString(())),
            terms_traced=(OperatorString(()), OperatorString(())),
        )
    with pytest.raises(MalformedDecompositionError):
        SeparableDecomposition(
            weights=(-0.5, 1.5),
            terms_kept=(OperatorString(()), OperatorString(())),
            terms_traced=(OperatorString(()), OperatorString(())),
        )


def test_build_rejects_wrong_blocks_and_kinds():
    system = sweep_system(1, 1)
    crossed = SeparableDecomposition(
        weights=(1.0,),
        terms_kept=(OperatorString.parse("c1+"),),
        terms_traced=(OperatorString(()),),
    )
    with pytest.raises(MalformedDecompositionError):
        build_separable(crossed, system)
    annihilating = SeparableDecomposition(
        weights=(1.0,),
        terms_kept=(OperatorString.parse("a1-"),),
        terms_traced=(OperatorString(()),),
    )
    with pytest.raises(MalformedDecompositionError):
        build_separable(annihilating, system)
    doubled = SeparableDecomposition(
        weights=(1.0,),
        terms_kept=(OperatorString.parse("a1+ a1+"),),
        terms_traced=(OperatorString(()),),
    )
    with pytest.raises(MalformedDecompositionError):
        build_separable(doubled, system)


def test_ppt_bell_is_entangled():
    rho = occupation_bell_state().to_density()
    assert ppt_separable(rho, ordering=ModeOrdering.canonical(rho.system)) is False


def test_ppt_maximally_mixed_separable():
    assert ppt_separable(qubit_state_from_matrix(np.eye(4, dtype=complex) / 4.0))


def test_ppt_gate_rejects_large_supports():
    """A (2,2)-mode state with full-rank marginals is outside the regime
    where a positive partial transpose certifies separability. So is a
    (1,2)-mode state with a1 and c1 maximally mixed and c2 empty, split as
    {c2} | {a1, c1}, a kept set that does not come first: its marginals
    have ranks 1 and 4, while the system's own split has ranks 2 and 2."""
    system = sweep_system(2, 2)
    rng = np.random.default_rng(3)
    matrix = random_density(16, 16, rng)
    q = QubitState(system, ModeOrdering.canonical(system), matrix)
    with pytest.raises(UnsupportedDimensionsError):
        ppt_separable(q)
    system = sweep_system(1, 2)
    half = np.eye(2, dtype=complex) / 2.0
    matrix = np.kron(np.kron(half, half), np.diag([1.0, 0.0]).astype(complex))
    q = QubitState(system, ModeOrdering.canonical(system), matrix)
    assert ppt_separable(q) is True
    with pytest.raises(UnsupportedDimensionsError, match=r"^local supports 1x4 exceed 2x3"):
        ppt_separable(q, BipartitionSpec(kept=("c2",), traced=("c1", "a1")))


def _low_support_register(rng, kept, traced):
    """A random register of rank 1 to 3 in canonical mode positions, pure
    when of rank 1, whose marginals on ``kept`` and ``traced`` have random
    supports of 1 to 4 dimensions each, as far as the blocks hold."""
    n = len(kept) + len(traced)
    dk, dt = 1 << len(kept), 1 << len(traced)
    u = random_unitary(dk, rng)[:, : int(rng.integers(1, min(dk, 4) + 1))]
    v = random_unitary(dt, rng)[:, : int(rng.integers(1, min(dt, 4) + 1))]
    rank = int(rng.integers(1, 4))
    weights = rng.random(rank)
    vectors = []
    for _ in range(rank):
        c = rng.standard_normal((u.shape[1], v.shape[1])) + 1j * rng.standard_normal((u.shape[1], v.shape[1]))
        psi = (u @ c @ v.T).reshape([2] * n).transpose(np.argsort(kept + traced)).ravel()
        vectors.append(psi / np.linalg.norm(psi))
    if rank == 1:
        return vectors[0]
    return sum(w * np.outer(psi, psi.conj()) for w, psi in zip(weights / weights.sum(), vectors))


def test_ppt_agrees_with_negativity_in_small_dimensions():
    """On 2-qubit registers the verdict is the negativity's. On random
    registers at 3-6 modes, split with a kept set that does not come
    first, the supports are the ranks of the dense oracle's marginals,
    named in the refusal when they exceed 2x3, and where they fit, the
    verdict is the sign of the oracle partial transpose's smallest
    eigenvalue."""
    rng = np.random.default_rng(23)
    for _ in range(20):
        rho = random_density(4, int(rng.integers(1, 5)), rng)
        q = qubit_state_from_matrix(rho)
        assert ppt_separable(q) == (negativity(q).value < tol)
    fits = refused = 0
    for n_modes in (3, 4, 5, 6):
        system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
        for _ in range(10):
            while True:
                chosen = rng.random(n_modes) < 0.5
                kept = np.flatnonzero(chosen).tolist()
                if kept and kept != list(range(len(kept))):
                    break
            traced = np.flatnonzero(~chosen).tolist()
            data = _low_support_register(rng, kept, traced)
            q = QubitState(system, ModeOrdering.canonical(system), data)
            bp = BipartitionSpec(kept=tuple(system.modes[k] for k in kept), traced=tuple(system.modes[k] for k in traced))
            matrix = np.outer(data, data.conj()) if data.ndim == 1 else data
            rank_kept, rank_traced = (
                int(np.sum(np.linalg.eigvalsh(qubit_ptrace(matrix, n_modes, side)) > SUPPORT_TOL))
                for side in (traced, kept)
            )
            low, high = sorted((rank_kept, rank_traced))
            if low > 2 or high > 3:
                refused += 1
                with pytest.raises(UnsupportedDimensionsError, match=rf"^local supports {rank_kept}x{rank_traced} "):
                    ppt_separable(q, bp)
            else:
                fits += 1
                smallest = np.linalg.eigvalsh(pt_oracle(matrix, n_modes, traced))[0]
                assert ppt_separable(q, bp) is bool(smallest >= -SUPPORT_TOL)
    assert fits and refused


# --- concurrence and entanglement of formation ---------------------------------


def test_bell_concurrence_and_eof_maximal():
    c, e = concurrence_and_eof(bell_matrix())
    assert abs(c.value - 1.0) < 1e-10
    assert abs(e.value - 1.0) < 1e-10
    assert c.measure == "concurrence"
    assert e.measure == "eof"


def test_product_state_concurrence_zero():
    rng = np.random.default_rng(6)
    rho = np.kron(random_density(2, 2, rng), random_density(2, 2, rng))
    c, e = concurrence_and_eof(rho)
    assert c.value == 0.0
    assert e.value == 0.0


def test_werner_half_concurrence_quarter():
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0 / np.sqrt(2.0)
    v[2] = -1.0 / np.sqrt(2.0)
    werner = 0.5 * np.outer(v, v.conj()) + 0.5 * np.eye(4) / 4.0
    c, _ = concurrence_and_eof(werner)
    assert abs(c.value - 0.25) < 1e-10


def test_concurrence_accepts_fermionic_input_with_ordering():
    state = occupation_bell_state()
    c, e = concurrence_and_eof(state.to_density(), ordering=ModeOrdering.canonical(state.system))
    assert abs(c.value - 1.0) < 1e-10
    assert e.bipartition is not None


def test_pure_concurrence_of_separable_products_is_zero():
    """Every one-term ``build_separable`` product of a two-mode system is a
    pure state, and a pure input, as a ``FockVector`` or as its qubit image,
    takes the closed form 2|psi00 psi11 - psi01 psi10|: exactly 0 here, under
    either ordering."""
    system = sweep_system(1, 1)
    for kept in ("", "a1+"):
        for traced in ("", "c1+"):
            dec = SeparableDecomposition((1.0,), (OperatorString.parse(kept),), (OperatorString.parse(traced),))
            rho = build_separable(dec, system).matrix
            pure = FockVector(system, np.linalg.eigh(rho)[1][:, -1])
            for ordering in (ModeOrdering(("a1", "c1")), ModeOrdering(("c1", "a1"))):
                for given in (pure, qubit_image(pure, ordering)):
                    c, e = concurrence_and_eof(given, ordering)
                    assert c.value == 0.0 and e.value == 0.0


def test_pure_concurrence_of_bell_states_is_one():
    """The four Bell states as pure ``QubitState``s, and the occupation
    Bell state as a ``FockVector``, have concurrence and EOF 1."""
    r = 1.0 / np.sqrt(2.0)
    system = qubit_pair_system()
    for psi in ([r, 0, 0, r], [r, 0, 0, -r], [0, r, r, 0], [0, r, -r, 0]):
        register = QubitState(system, ModeOrdering.canonical(system), np.array(psi, dtype=complex))
        for result in concurrence_and_eof(register):
            assert abs(result.value - 1.0) < 1e-15
    bell = occupation_bell_state()
    for result in concurrence_and_eof(bell, ModeOrdering.canonical(bell.system)):
        assert abs(result.value - 1.0) < 1e-15


def test_pure_concurrence_is_twice_the_schmidt_product():
    """On random two-mode pure states under both orderings, the closed form
    equals 2 s1 s2 from the Schmidt coefficients of the qubit image, and
    stays within 1e-7 of the spin-flip route on the state's density."""
    system = sweep_system(1, 1)
    for seed in range(30):
        state = random_state(system, sector="any", seed=seed)
        for ordering in (ModeOrdering(("a1", "c1")), ModeOrdering(("c1", "a1"))):
            c = concurrence_and_eof(state, ordering)[0].value
            s = np.linalg.svd(qubit_image(state, ordering).data.reshape(2, 2), compute_uv=False)
            assert abs(c - 2.0 * s[0] * s[1]) < 1e-15
            assert abs(c - concurrence_and_eof(state.to_density(), ordering)[0].value) < 1e-7


def test_concurrence_rejects_non_density():
    with pytest.raises(ValueError):
        concurrence_and_eof(np.eye(4, dtype=complex))
    system = sweep_system(2, 2)
    with pytest.raises(ValueError, match=r"^need a two-mode system, got 4 modes$"):
        concurrence_and_eof(random_state(system, "even", 1), ModeOrdering.canonical(system))


def test_measures_increase_together_along_tilt_family():
    thetas = np.linspace(np.pi / 40.0, np.pi / 4.0, 20)
    negativities, eofs = [], []
    for theta in thetas:
        state = tilted_pair_state(float(theta))
        ordering = ModeOrdering.canonical(state.system)
        negativities.append(negativity(state, ordering=ordering).value)
        image = qubit_image(state.to_density(), ordering)
        eofs.append(concurrence_and_eof(image)[1].value)
    for a, b in zip(negativities, negativities[1:]):
        assert b > a
    for a, b in zip(eofs, eofs[1:]):
        assert b > a
