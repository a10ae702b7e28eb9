import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiorder.fock import (
    ANNIHILATION,
    CREATION,
    FockVector,
    ModeSystem,
    OperatorString,
    UnknownModeError,
    apply,
    basis_state,
    from_operator_string,
    parity_of,
    random_state,
    sector_indices,
    ssr_compliant,
    state_from_json_str,
    state_to_json_str,
)
from fermiorder.states import parity_violating_state, spin_singlet_state, two_delocalized_fermions
from _oracles import jw_matrix

tol = 1e-12


def small_system(n=3):
    return ModeSystem.from_blocks(tuple(f"a{i}" for i in range(1, n)), ("c1",))


# --- construction and validation ---------------------------------------------


def test_mode_labels_must_be_distinct():
    with pytest.raises(ValueError):
        ModeSystem(("a", "a"), a_count=1)


def test_mode_count_guard():
    with pytest.raises(ValueError):
        ModeSystem(tuple(f"m{i}" for i in range(15)), a_count=1)


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


# --- random states ------------------------------------------------------------


def test_random_state_deterministic_per_seed():
    system = small_system()
    a = random_state(system, sector="any", seed=42)
    b = random_state(system, sector="any", seed=42)
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_random_state_sector_support():
    system = ModeSystem.from_blocks(("a1", "a2"), ("c1", "c2"))
    even = random_state(system, sector="even", seed=0)
    assert ssr_compliant(even)
    assert np.count_nonzero(even.amplitudes) == 8
    odd = random_state(system, sector="odd", seed=0)
    assert ssr_compliant(odd)
    assert abs(odd.norm() - 1.0) < tol


# --- serialization -------------------------------------------------------------


def test_json_round_trip():
    state = spin_singlet_state()
    text = state_to_json_str(state)
    loaded = state_from_json_str(text, a_count=2)
    assert loaded.system.modes == state.system.modes
    assert np.array_equal(loaded.amplitudes, state.amplitudes)
    payload = json.loads(text)
    assert set(payload) == {"modes", "amplitudes"}
    assert all(len(v) == 2 for v in payload["amplitudes"].values())


def test_from_json_rejects_amplitude_beyond_float_range():
    obj = {"modes": ["a"], "amplitudes": {"1": [10**400, 0]}}
    with pytest.raises(ValueError, match=r"^amplitude of '1' must be finite"):
        FockVector.from_json(obj)
