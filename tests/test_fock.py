import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiorder.fock import (
    _BOTH_PARITIES,
    _CROSS_PARITY,
    _ONE_PARITY,
    ANNIHILATION,
    CREATION,
    BipartitionSpec,
    DensityOperator,
    FockVector,
    ModeSystem,
    OperatorString,
    UnknownModeError,
    _block_partial_trace,
    _exact_parity,
    _kept_traced_view,
    _trace_view,
    apply,
    basis_state,
    from_operator_string,
    parity_of,
    random_state,
    sector_indices,
    ssr_compliant,
    state_from_json_str,
    state_from_terms,
    state_to_json_str,
)
from fermiorder import fock
from fermiorder.states import (
    parity_violating_state,
    spin_singlet_state,
    state_from_spec,
    two_delocalized_fermions,
)
from _oracles import jw_matrix

tol = 1e-12


def small_system(n=3):
    return ModeSystem.from_blocks(tuple(f"a{i}" for i in range(1, n)), ("c1",))


# --- construction and validation ---------------------------------------------


def test_mode_labels_must_be_distinct():
    with pytest.raises(ValueError):
        ModeSystem(("a", "a"), a_count=1)
    # a label in both blocks of a split is refused by name
    with pytest.raises(ValueError, match=r"^kept and traced blocks overlap: \['a1'\]$"):
        BipartitionSpec(kept=("a1",), traced=("a1", "c1"))


def test_mode_count_guard():
    with pytest.raises(ValueError):
        ModeSystem(tuple(f"m{i}" for i in range(15)), a_count=1)
    with pytest.raises(ValueError, match=r"^a_count 3 out of range for 2 modes$"):
        ModeSystem(("a", "b"), 3)


def test_states_refuse_a_wrong_size_and_the_zero_vector():
    """A vector or density of another size than its system's, and
    normalizing the zero vector, are ``ValueError``s that say so."""
    system = ModeSystem.from_blocks(("a1", "a2"), ("c1", "c2"))
    with pytest.raises(ValueError, match=r"^expected 16 amplitudes, got shape \(3,\)$"):
        FockVector(system, np.ones(3))
    with pytest.raises(ValueError, match=r"^expected a 16x16 matrix$"):
        DensityOperator(system, np.eye(4) / 4)
    with pytest.raises(ValueError, match=r"^cannot normalize the zero vector$"):
        FockVector(system, np.zeros(16)).normalized()


def test_unknown_mode_rejected():
    system = ModeSystem.from_blocks(("a",), ("c",))
    with pytest.raises(UnknownModeError):
        apply(CREATION, "zz", FockVector.vacuum(system))
    # rejected like any other bad input, with its message unquoted
    with pytest.raises(ValueError, match=r"^mode 'zz' not in system \('a', 'c'\)$"):
        system.position("zz")
    # the kind is checked before the label; both errors are ValueErrors, so
    # the message tells them apart
    with pytest.raises(ValueError, match=r"^kind must be "):
        apply("x", "zz", FockVector.vacuum(system))


def test_bitstring_round_trip():
    system = ModeSystem.from_blocks(("a", "b"), ("c",))
    assert system.index_of_bits("101") == 5
    assert system.bits_of_index(5) == "101"
    with pytest.raises(ValueError):
        system.index_of_bits("10")


# --- single-operator actions -------------------------------------------------


def test_creation_on_vacuum():
    system = ModeSystem.from_blocks(("a",), ("c",))
    v = apply(CREATION, "a", FockVector.vacuum(system))
    assert v.amplitude("10") == 1.0


def test_creation_sign_through_occupied_mode():
    """c acting after a picks up one anticommutation sign."""
    system = ModeSystem.from_blocks(("a",), ("c",))
    v = apply(CREATION, "a", FockVector.vacuum(system))
    v = apply(CREATION, "a", v)
    assert v.norm() == 0.0

    w = from_operator_string(OperatorString.parse("c+ a+"), system)
    assert w.amplitude("11") == -1.0


def test_annihilation_of_leading_mode():
    system = ModeSystem.from_blocks(("a",), ("c",))
    v = from_operator_string(OperatorString.parse("a+ c+"), system)
    out = apply(ANNIHILATION, "a", v)
    assert out.amplitude("01") == 1.0


def test_operator_string_examples():
    system = ModeSystem.from_blocks(("a",), ("c",))
    assert from_operator_string(OperatorString.parse("a+ c+"), system).amplitude("11") == 1.0
    assert from_operator_string(OperatorString.parse("c+ a+"), system).amplitude("11") == -1.0
    assert from_operator_string(OperatorString.parse("a+ a+"), system).norm() == 0.0


def test_operator_string_parse_errors():
    with pytest.raises(ValueError):
        OperatorString.parse("a1")
    with pytest.raises(ValueError):
        OperatorString.parse("+")
    with pytest.raises(ValueError, match=r"^operator kind must be '\+' or '-', got '\*'$"):
        OperatorString((("a1", "*"),))


# --- algebraic properties ----------------------------------------------------

kinds = st.sampled_from([CREATION, ANNIHILATION])


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    i=st.integers(min_value=0, max_value=3),
    j=st.integers(min_value=0, max_value=3),
    kind_i=kinds,
    kind_j=kinds,
)
def test_anticommutation_for_distinct_modes(seed, i, j, kind_i, kind_j):
    system = ModeSystem.from_blocks(("a1", "a2"), ("c1", "c2"))
    if i == j:
        return
    v = random_state(system, seed=seed)
    mi, mj = system.modes[i], system.modes[j]
    left = apply(kind_i, mi, apply(kind_j, mj, v))
    right = apply(kind_j, mj, apply(kind_i, mi, v))
    assert np.array_equal(left.amplitudes, -right.amplitudes)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10_000), k=st.integers(min_value=0, max_value=2), kind=kinds)
def test_nilpotency(seed, k, kind):
    system = small_system()
    v = random_state(system, seed=seed)
    label = system.modes[k]
    twice = apply(kind, label, apply(kind, label, v))
    assert twice.norm() == 0.0


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10_000), k=st.integers(min_value=0, max_value=2))
def test_number_anticommutator_is_identity(seed, k):
    """{a_k, a_k†} = 1 holds entrywise with exact integer signs."""
    system = small_system()
    v = random_state(system, seed=seed)
    label = system.modes[k]
    first = apply(CREATION, label, apply(ANNIHILATION, label, v))
    second = apply(ANNIHILATION, label, apply(CREATION, label, v))
    assert np.array_equal(first.amplitudes + second.amplitudes, v.amplitudes)


def test_permuted_creation_strings_give_unit_amplitude():
    system = ModeSystem.from_blocks(("a1", "a2"), ("c1", "c2"))
    from itertools import permutations

    for perm in permutations(("a1", "a2", "c1", "c2")):
        ops = OperatorString(tuple((label, CREATION) for label in perm))
        v = from_operator_string(ops, system)
        amp = v.amplitude("1111")
        assert amp in (1.0, -1.0)
        assert abs(v.norm() - 1.0) < tol


# --- dense-matrix oracle equivalence -----------------------------------------


def test_apply_matches_dense_oracle_exactly():
    """Bit tricks and kron-built parity strings must agree sign for sign."""
    for n in range(1, 7):
        system = ModeSystem(tuple(f"m{k}" for k in range(n)), a_count=max(1, n // 2))
        for k in range(n):
            for kind in (CREATION, ANNIHILATION):
                dense = jw_matrix(n, k, "+" if kind == CREATION else "-")
                for idx in range(system.dim):
                    v = basis_state(system, system.bits_of_index(idx))
                    ours = apply(kind, system.modes[k], v).amplitudes
                    assert np.array_equal(ours, dense[:, idx])



def test_operator_string_matches_per_factor_apply():
    """Random strings, many of which annihilate the vacuum, give the same
    amplitude bytes as applying their factors one at a time."""
    rng = np.random.default_rng(11)
    zeros = 0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        system = ModeSystem(tuple(f"m{k}" for k in range(n)), a_count=max(1, n // 2))
        factors = tuple(
            (system.modes[int(rng.integers(n))], str(rng.choice([CREATION, ANNIHILATION], p=[0.7, 0.3])))
            for _ in range(int(rng.integers(0, 7)))
        )
        state = FockVector.vacuum(system)
        for label, kind in reversed(factors):
            state = apply(kind, label, state)
        ours = from_operator_string(OperatorString(factors), system).amplitudes
        assert ours.tobytes() == state.amplitudes.tobytes()
        zeros += not ours.any()
    assert 50 < zeros < 190

# --- parity and superselection -----------------------------------------------


def test_parity_examples():
    assert parity_of("0000") == "even"
    assert parity_of("1000") == "odd"
    assert parity_of("1010") == "even"
    with pytest.raises(ValueError):
        parity_of("10x0")


def test_ssr_flags_for_named_states():
    assert ssr_compliant(two_delocalized_fermions()) is True
    assert ssr_compliant(parity_violating_state()) is False
    assert ssr_compliant(spin_singlet_state()) is True


def test_ssr_on_density_blocks():
    system = ModeSystem.from_blocks(("a",), ("c",))
    even = random_state(system, sector="even", seed=1)
    odd = random_state(system, sector="odd", seed=2)
    mixed = 0.5 * np.outer(even.amplitudes, even.amplitudes.conj()) + 0.5 * np.outer(
        odd.amplitudes, odd.amplitudes.conj()
    )
    from fermiorder.fock import DensityOperator

    assert ssr_compliant(DensityOperator(system, mixed)) is True
    coherent = 0.5 * np.outer(
        even.amplitudes + odd.amplitudes, (even.amplitudes + odd.amplitudes).conj()
    )
    assert ssr_compliant(DensityOperator(system, coherent)) is False



def test_ssr_faint_off_sector_amplitude():
    """(|00> + 1.6e-12 |01> + |11>)/sqrt 2: the odd amplitude is above the
    tolerance, but the largest cross-parity entry of the density is not, so
    the pure state complies just as its density does."""
    system = ModeSystem.from_blocks(("a",), ("b",))
    amps = np.array([1.0, 1.6e-12, 0.0, 1.0], dtype=np.complex128) / np.sqrt(2)
    state = FockVector(system, amps)
    assert ssr_compliant(state) is True
    assert ssr_compliant(state.to_density()) is True


def test_ssr_boundary_is_inclusive_for_pure_states_and_densities():
    """Amplitudes 1 at |00> and 1e-12 at |01>: the largest cross-parity
    entry of the density is exactly ``DEFAULT_TOL``, which complies, for
    the pure state, whose even and odd maxima multiply to it, as for its
    density."""
    system = ModeSystem.from_blocks(("a",), ("b",))
    state = FockVector(system, np.array([1.0, 1e-12, 0.0, 0.0]))
    assert ssr_compliant(state) is True
    assert ssr_compliant(state.to_density()) is True


@pytest.mark.parametrize("scale", [0.3, 3.0])
def test_ssr_pure_and_density_agree_near_threshold(scale):
    """An off-sector amplitude that puts the largest cross-parity entry of
    the density at ``scale`` times the tolerance gives the pure state and
    its density one verdict."""
    rng = np.random.default_rng(381)
    for n_modes in range(2, 7):
        system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=1)
        for trial in range(40):
            sector, other = ("even", "odd") if trial % 2 else ("odd", "even")
            seed = int(rng.integers(1 << 30))
            amps = random_state(system, sector=sector, seed=seed).amplitudes.copy()
            faint = scale * tol / np.abs(amps).max()
            phase = np.exp(2j * np.pi * rng.random())
            amps[rng.choice(sector_indices(system, other))] = faint * phase
            state = FockVector(system, amps / np.linalg.norm(amps))
            assert ssr_compliant(state) is (scale < 1)
            assert ssr_compliant(state.to_density()) is (scale < 1)


def _cross_parity_max(data, n_modes):
    """The largest cross-parity entry of a density, read through one
    D x D mask of opposite parities."""
    par = np.array([bin(i).count("1") % 2 for i in range(1 << n_modes)])
    return np.abs(data[par[:, None] != par[None, :]]).max(initial=0.0)


def test_ssr_of_a_density_is_its_largest_cross_parity_entry_against_the_tolerance():
    """A density complies exactly when its largest cross-parity entry is
    at most the tolerance, an entry at the tolerance included, wherever
    that entry sits: in either cross-parity block, in the first, a middle
    or the last chunk of rows; and random densities with faint
    cross-parity entries get the verdict of the one-mask reading."""
    rng = np.random.default_rng(2412)
    above = np.nextafter(tol, 1.0)
    seen = set()
    for n_modes in (1, 2, 5, 10):
        system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
        even, odd = sector_indices(system, "even"), sector_indices(system, "odd")
        for rows, columns in ((even, odd), (odd, even)):
            for r in sorted({0, len(rows) // 2, len(rows) - 1}):
                for c in (columns[0], columns[-1]):
                    for value, verdict in ((tol, True), (above, False)):
                        m = np.eye(system.dim, dtype=np.complex128) / system.dim
                        # the transposed entry is half as large, so only this block exceeds
                        m[rows[r], c], m[c, rows[r]] = 1j * value, -0.5j * value
                        assert ssr_compliant(DensityOperator(system, m)) is verdict
        for _ in range(8):
            w = rng.standard_normal((2, system.dim)) + 1j * rng.standard_normal((2, system.dim))
            w[:, odd] *= 10.0 ** rng.uniform(-14, -10)
            m = np.einsum("bi,bj->ij", w, w.conj())
            m = 0.5 * (m + m.conj().T) / np.trace(m).real
            expected = bool(_cross_parity_max(m, n_modes) <= tol)
            assert ssr_compliant(DensityOperator(system, m)) is expected
            seen.add(expected)
    assert seen == {True, False}


def test_ssr_of_a_density_makes_no_array_of_its_size():
    """The density check reads its cross-parity entries a chunk of rows at
    a time: on a 10-mode density of 16 MiB its tracemalloc peak stays
    under 1 MiB, where one D x D mask and the copy it selects peaked at
    three quarters of the density's bytes."""
    system = ModeSystem(tuple(f"m{k}" for k in range(10)), a_count=10)
    rho = DensityOperator(system, np.eye(system.dim) / system.dim)
    tracemalloc.start()
    try:
        assert ssr_compliant(rho) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sector_indices_are_shared_read_only_arrays():
    """The even and odd sectors' indices are the ascending indices of even
    and odd occupation count, one read-only array per sector and mode
    count, handed out again on every call; "any" lists every index, and
    any other sector is refused."""
    for n_modes in range(1, 12):
        system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
        counts = np.array([bin(i).count("1") for i in range(system.dim)])
        for sector, parity in (("even", 0), ("odd", 1)):
            indices = sector_indices(system, sector)
            assert np.array_equal(indices, np.flatnonzero(counts % 2 == parity))
            assert not indices.flags.writeable
            assert sector_indices(system, sector) is indices
        assert np.array_equal(sector_indices(system, "any"), np.arange(system.dim))
    with pytest.raises(ValueError, match=r"^sector must be 'even', 'odd' or 'any', got 'both'$"):
        sector_indices(system, "both")


# --- random states ------------------------------------------------------------


def test_random_state_deterministic_per_seed():
    system = small_system()
    a = random_state(system, sector="any", seed=42)
    b = random_state(system, sector="any", seed=42)
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_random_state_refuses_a_negative_seed():
    """A negative seed is a ``ValueError`` that names it, where numpy's own
    refusal names nothing."""
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
        random_state(small_system(), sector="even", seed=-1)


def test_random_state_sector_support():
    system = ModeSystem.from_blocks(("a1", "a2"), ("c1", "c2"))
    even = random_state(system, sector="even", seed=0)
    assert ssr_compliant(even)
    assert np.count_nonzero(even.amplitudes) == 8
    odd = random_state(system, sector="odd", seed=0)
    assert ssr_compliant(odd)
    assert abs(odd.norm() - 1.0) < tol


def test_exact_parity_reads_every_entry_without_tolerance():
    """``_exact_parity`` sorts states by their entries alone: one parity and
    which, both parities with nothing between them, or something between
    them, however small. A matrix is read entry by entry, not off its
    diagonal: an odd block with an empty odd diagonal still counts."""
    system = ModeSystem.from_blocks(("a1", "a2"), ("c1", "c2"))
    odd = np.array([bin(i).count("1") % 2 == 1 for i in range(16)])
    even_state = random_state(system, sector="even", seed=1).amplitudes
    odd_state = random_state(system, sector="odd", seed=2).amplitudes
    tiny = even_state.copy()
    tiny[odd.argmax()] = 1e-300
    mixture = np.outer(even_state, even_state.conj()) + np.outer(odd_state, odd_state.conj())
    joined = mixture.copy()
    joined[0, odd.argmax()] = 1e-300
    hollow = np.outer(even_state, even_state.conj())
    hollow[1, 2] = hollow[2, 1] = 1e-3
    for data, verdict in (
        (even_state, (_ONE_PARITY, 0)),
        (odd_state, (_ONE_PARITY, 1)),
        (np.outer(odd_state, odd_state.conj()), (_ONE_PARITY, 1)),
        (tiny, (_CROSS_PARITY, 0)),
        (random_state(system, sector="any", seed=3).amplitudes, (_CROSS_PARITY, 0)),
        (mixture, (_BOTH_PARITIES, 0)),
        (joined, (_CROSS_PARITY, 0)),
        (hollow, (_BOTH_PARITIES, 0)),
    ):
        assert _exact_parity(data, system.n_modes) == verdict


def test_exact_parity_reads_a_cross_entry_of_the_odd_rows():
    """A (1,1) density diag(.5, 0, 0, .5) whose one cross-parity entry,
    1e-13 at (1, 0), sits in an odd row, within ``DEFAULT_TOL`` of
    Hermitian, is cross-parity: the odd rows are read as the even ones."""
    system = ModeSystem.from_blocks(("a1",), ("c1",))
    m = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    m[1, 0] = 1e-13
    rho = DensityOperator(system, m)
    assert _exact_parity(rho.matrix, system.n_modes) == (_CROSS_PARITY, 0)


@settings(deadline=None, max_examples=60)
@given(
    n_modes=st.integers(min_value=1, max_value=4),
    pure=st.booleans(),
    zeroed=st.sampled_from([None, 0, 1]),
    cross=st.sampled_from([0.0, 1e-300, 1e-13]),
    seed=st.integers(min_value=0, max_value=2**30),
)
def test_exact_parity_short_of_cross_parity_implies_ssr_compliance(n_modes, pure, zeroed, cross, seed):
    """Whenever ``_exact_parity`` does not call a state cross-parity,
    ``ssr_compliant`` holds: the scan groups by the first reader and the
    CLI's violation flag reads the second. The parity block ``zeroed`` is
    emptied, if any, and one entry joining the two parities is set to
    ``cross``: an amplitude of the emptied parity for a pure state, an
    entry and its mirror for a density."""
    rng = np.random.default_rng(seed)
    system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
    odd = sector_indices(system, "odd")
    even = sector_indices(system, "even")
    vectors = rng.standard_normal((2, system.dim)) + 1j * rng.standard_normal((2, system.dim))
    if pure:
        amps = vectors[0]
        if zeroed is not None:
            amps[(even, odd)[zeroed]] = 0.0
            amps[(even, odd)[zeroed][0]] = cross
        state = FockVector(system, amps / np.linalg.norm(amps))
    else:
        rho = vectors.T @ vectors.conj()
        par = np.isin(np.arange(system.dim), odd)
        rho[par[:, None] != par[None, :]] = 0.0
        if zeroed is not None:
            block = (even, odd)[zeroed]
            rho[np.ix_(block, block)] = 0.0
        rho[even[0], odd[0]] = rho[odd[0], even[0]] = cross
        state = DensityOperator(system, rho / np.trace(rho).real)
    verdict, _ = _exact_parity(state.amplitudes if pure else state.matrix, n_modes)
    if verdict != _CROSS_PARITY:
        assert ssr_compliant(state)
    if cross == 0.0 and (zeroed is not None or not pure):
        assert verdict != _CROSS_PARITY


def test_random_state_draws_the_two_step_amplitudes():
    """One ``FockVector`` per draw holds, byte for byte, the amplitudes of
    the raw Gaussian vector wrapped and then ``normalized()``, for every
    sector at 1-10 modes and 20 seeds."""
    for n in range(1, 11):
        system = ModeSystem(tuple(f"m{k}" for k in range(n)), a_count=n)
        for sector in ("even", "odd", "any"):
            support = sector_indices(system, sector)
            for seed in range(20):
                rng = np.random.default_rng(seed)
                amps = np.zeros(system.dim, dtype=np.complex128)
                amps[support] = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
                two_step = FockVector(system, amps).normalized()
                drawn = random_state(system, sector=sector, seed=seed)
                assert drawn.amplitudes.tobytes() == two_step.amplitudes.tobytes()


# --- serialization -------------------------------------------------------------


def test_json_round_trip():
    state = spin_singlet_state()
    text = state_to_json_str(state)
    loaded = state_from_json_str(text)
    assert loaded.system.modes == state.system.modes
    assert loaded.system.a_labels == state.system.modes
    assert np.array_equal(loaded.amplitudes, state.amplitudes)
    payload = json.loads(text)
    assert set(payload) == {"modes", "amplitudes"}
    assert all(len(v) == 2 for v in payload["amplitudes"].values())


def test_from_json_rejects_amplitude_beyond_float_range():
    obj = {"modes": ["a"], "amplitudes": {"1": [10**400, 0]}}
    with pytest.raises(ValueError, match=r"^amplitude of '1' must be finite"):
        FockVector.from_json(obj)


@pytest.mark.parametrize("scale", ["1e-170", "1e200"])
def test_normalizing_tiny_and_huge_amplitudes(scale):
    """Amplitudes whose squares underflow or overflow are divided by the
    largest first, so the state equals, byte for byte, the same spec at
    unit scale, and its norm is 1."""
    system = ModeSystem.from_blocks(("a",), ("b",))
    unit = state_from_spec("1: a+; 1: b+", system)
    scaled = state_from_spec(f"{scale}: a+; {scale}: b+", system)
    assert scaled.amplitudes.tobytes() == unit.amplitudes.tobytes()
    assert abs(FockVector(system, 2 * unit.amplitudes * float(scale)).norm() / float(scale) - 2) < tol


def test_an_overflowing_superposition_is_refused_as_not_finite():
    system = ModeSystem.from_blocks(("a",), ("b",))
    with pytest.raises(ValueError, match="^amplitudes must be finite$"):
        state_from_spec("1e308: a+; 1e308: a+", system)



def _old_signed_block_trace(signs, data, kept, traced, pure):
    """The signed block trace as it was before a density was reduced from
    its slab, in numpy alone: conjugate the whole state, s * psi or
    s[:, None] * rho * s[None, :], view it kept | traced and trace."""
    n, dk, dt = len(kept) + len(traced), 1 << len(kept), 1 << len(traced)
    if pure:
        conj = signs * data
        lead = list(conj.shape[:-1])
        perm = list(range(len(lead))) + [len(lead) + ax for ax in kept + traced]
        view = conj.reshape(lead + [2] * n).transpose(perm).reshape(lead + [dk, dt])
        m = view @ view.conj().swapaxes(-1, -2)
        return 0.5 * (m + m.conj().swapaxes(-1, -2))
    conj = signs[..., :, None] * data * signs[..., None, :]
    lead = list(conj.shape[:-2])
    perm = list(range(len(lead))) + [len(lead) + ax for ax in kept + traced]
    perm += [len(lead) + n + ax for ax in kept + traced]
    view = conj.reshape(lead + [2] * (2 * n)).transpose(perm).reshape(lead + [dk, dt, dk, dt])
    return np.einsum("...ajbj->...ab", view)


def test_signed_block_trace_is_the_whole_state_conjugation_to_the_byte():
    """``_block_partial_trace`` with the ``_kept_traced_view`` of signs,
    on a state's ``_trace_view``, which conjugates a density's
    traced-diagonal slab alone, gives the bytes of conjugating the whole
    state and then tracing: for pure vectors, stacks of them, rank-2
    densities and stacks of densities, under one sign vector and under a
    stack of 4 sign rows, on kept positions drawn anywhere, in any order,
    and with exact zeros whose signs the conjugation flips."""
    rng = np.random.default_rng(2311)

    def draw(*shape):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        z[rng.random(shape) < 0.3] = 0.0
        return z

    for _ in range(60):
        n_modes = int(rng.integers(2, 8))
        d = 1 << n_modes
        kept = [int(a) for a in rng.permutation(n_modes)[: rng.integers(1, n_modes + 1)]]
        traced = [a for a in range(n_modes) if a not in kept]
        psi, psis, w = draw(d), draw(3, d), draw(2, d)
        rho = 0.7 * np.outer(w[0], w[0].conj()) + 0.3 * np.outer(w[1], w[1].conj())
        rhos = np.einsum("bi,bj->bij", psis, psis.conj())
        one = 1 - 2 * rng.integers(0, 2, d).astype(np.int8)
        rows = 1 - 2 * rng.integers(0, 2, (4, d)).astype(np.int8)
        cases = [(psi, one, True), (psi, rows, True), (psis, one, True)]
        cases += [(rho, one, False), (rho, rows, False), (rhos, one, False)]
        for data, signs, pure in cases:
            view = _trace_view(data, kept, traced, pure)
            new = _block_partial_trace(view, pure, _kept_traced_view(signs, kept, traced))
            old = _old_signed_block_trace(signs, data, kept, traced, pure)
            assert (new.shape, new.dtype) == (old.shape, old.dtype)
            assert new.tobytes() == old.tobytes(), (n_modes, kept, data.shape, signs.shape)


def test_constructor_copies_and_freezes_a_callers_array():
    """``FockVector(system, arr)`` keeps a read-only copy of the caller's
    array: later writes to ``arr`` do not change the state, and ``arr``
    stays writable."""
    system = ModeSystem.from_blocks(("a",), ("b",))
    arr = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
    state = FockVector(system, arr)
    arr[0] = 5.0
    assert arr.flags.writeable
    assert not state.amplitudes.flags.writeable
    assert not np.shares_memory(state.amplitudes, arr)
    assert state.amplitudes.tolist() == [1.0, 0.0, 0.0, 0.0]


def _built_states():
    """Each of the package's own state constructors, by name, as a call."""
    system = ModeSystem.from_blocks(("a", "b"), ("c",))
    plus = OperatorString.parse("a+ c+")
    unnormalized = FockVector(system, 2 * basis_state(system, "100").amplitudes)
    return {
        "random_state": lambda: random_state(system, "even", 3),
        "vacuum": lambda: FockVector.vacuum(system),
        "basis_state": lambda: basis_state(system, "101"),
        "apply": lambda: apply(CREATION, "b", unnormalized),
        "normalized": lambda: unnormalized.normalized(),
        "from_operator_string": lambda: from_operator_string(plus, system),
        "from_operator_string[]": lambda: from_operator_string(OperatorString(()), system),
        "state_from_terms": lambda: state_from_terms(system, [(0.5, plus), (0.5j, plus)], normalize=False),
        "state_from_terms[normalize]": lambda: state_from_terms(system, [(3.0, plus), (1.0, OperatorString(()))]),
        "from_json": lambda: FockVector.from_json({"modes": ["a", "b"], "amplitudes": {"01": [0.6, 0.8]}}),
    }


@pytest.mark.parametrize("name", sorted(_built_states()))
def test_package_built_states_are_read_only_and_checked_once(monkeypatch, name):
    """Every state a package constructor returns holds a read-only array
    that passed the vector checks (shape, finite) exactly once, however
    many operator factors or terms built it; ``state_from_terms`` checks
    its sum once and, when it normalizes, the normalized vector once
    more. Its density from ``to_density`` is read-only, shares no memory
    with the amplitudes and passed the density checks exactly once."""
    build = _built_states()[name]
    checked = []
    real = fock._frozen_amplitudes
    monkeypatch.setattr(fock, "_frozen_amplitudes", lambda *args: checked.append(1) or real(*args))
    state = build()
    assert isinstance(state, FockVector) and state.amplitudes.dtype == np.complex128
    assert not state.amplitudes.flags.writeable
    assert len(checked) == (2 if name == "state_from_terms[normalize]" else 1)
    if not state.is_normalized():
        return
    densities = []
    real_density = fock._check_density
    monkeypatch.setattr(fock, "_check_density", lambda m: densities.append(1) or real_density(m))
    rho = state.to_density()
    assert len(densities) == 1
    assert not rho.matrix.flags.writeable
    assert not np.shares_memory(rho.matrix, state.amplitudes)


def test_a_state_built_from_another_shares_no_memory_with_it():
    """``apply`` and ``normalized`` build new arrays; the input state's
    amplitudes are left as they were."""
    system = ModeSystem.from_blocks(("a",), ("b",))
    vacuum = FockVector.vacuum(system)
    for built in (apply(CREATION, "b", vacuum), vacuum.normalized()):
        assert not np.shares_memory(built.amplitudes, vacuum.amplitudes)
    assert vacuum.amplitudes.tolist() == [1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("normalize", [False, True])
def test_state_from_terms_refuses_an_overflowing_sum(normalize):
    """Two finite terms whose sum overflows are refused with the
    constructor's message, before any normalization."""
    system = ModeSystem.from_blocks(("a",), ("b",))
    plus = OperatorString.parse("a+")
    with pytest.raises(ValueError, match="^amplitudes must be finite$"):
        state_from_terms(system, [(1e308, plus), (1e308, plus)], normalize=normalize)

