from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiorder.fock import DensityOperator, ModeSystem, _kept_traced_view, random_state
from fermiorder.ordering import (
    InvalidOrderingError,
    InvalidSubsetError,
    ModeOrdering,
    QubitState,
    _inversion_signs,
    inverse_image_restricted,
    is_physical,
    ordering_sign,
    ordering_sign_vector,
    qubit_image,
)
from fermiorder.states import two_delocalized_fermions
from _oracles import permutation_parity

tol = 1e-12


def test_ordering_must_be_permutation():
    system = ModeSystem.from_blocks(("a",), ("c",))
    with pytest.raises(InvalidOrderingError):
        ModeOrdering(("a", "a"))
    with pytest.raises(InvalidOrderingError):
        ModeOrdering(("a",)).validate_for(system)


def test_identity_ordering_all_plus_one():
    system = ModeSystem.from_blocks(("a", "b"), ("c", "d"))
    signs = ordering_sign_vector(system, ModeOrdering.canonical(system))
    assert np.array_equal(signs, np.ones(16, dtype=np.int64))


def test_ordering_sign_examples():
    system = ModeSystem.from_blocks(("a", "b"), ("c", "d"))
    assert ordering_sign(system, ModeOrdering(("a", "d", "b", "c")), "0101") == -1
    assert ordering_sign(system, ModeOrdering(("a", "b", "d", "c")), "1100") == 1


def test_ordering_sign_matches_inversion_parity():
    """Every ordering and occupation at 4 modes, against a loop-counted parity."""
    system = ModeSystem.from_blocks(("a", "b"), ("c", "d"))
    for perm in permutations(system.modes):
        ordering = ModeOrdering(perm)
        for idx in range(system.dim):
            bits = system.bits_of_index(idx)
            occupied_in_order = [
                system.position(label) for label in ordering.labels if bits[system.position(label)] == "1"
            ]
            expected = permutation_parity(occupied_in_order)
            assert ordering_sign(system, ordering, bits) == expected


def test_batched_sign_rows_match_sign_vector():
    """All 720 orderings of 6 modes as one rank matrix give the cached
    per-ordering sign vectors, and the rank columns of a kept subset give the
    restricted orderings' signs on the kept block without renumbering."""
    system = ModeSystem(tuple(f"m{k}" for k in range(6)), a_count=6)
    orderings = [ModeOrdering(perm) for perm in permutations(system.modes)]
    ranks = np.array([[o.rank(label) for label in system.modes] for o in orderings])
    rows = _inversion_signs(ranks)
    kept = ("m1", "m3", "m4")
    kept_system = ModeSystem.from_blocks(kept)
    kept_rows = _inversion_signs(ranks[:, [system.position(m) for m in kept]])
    assert rows.shape == (720, 64) and kept_rows.shape == (720, 8)
    for o, row, kept_row in zip(orderings, rows, kept_rows):
        assert np.array_equal(row, ordering_sign_vector(system, o))
        assert np.array_equal(kept_row, ordering_sign_vector(kept_system, o.restricted_to(kept)))


def test_kept_block_signs_are_the_orderings_own_with_traced_modes_empty():
    """At 1 to 10 modes, on random orderings and kept sets that are not
    first, the kept|traced view of an ordering's signs at traced index 0 is
    the sign vector of the ordering restricted to the kept modes, one
    ordering at a time and for a stack of rank rows."""
    rng = np.random.default_rng(2031)
    for n_modes in range(1, 11):
        system = ModeSystem(tuple(f"m{k}" for k in range(n_modes)), a_count=n_modes)
        for _ in range(4):
            while True:
                chosen = rng.random(n_modes) < 0.5
                kept = np.flatnonzero(chosen).tolist()
                if kept and (n_modes == 1 or kept != list(range(len(kept)))):
                    break
            traced = np.flatnonzero(~chosen).tolist()
            labels = [system.modes[k] for k in kept]
            kept_system = ModeSystem.from_blocks(labels)
            ranks = np.array([rng.permutation(n_modes) for _ in range(3)])
            stacked = _kept_traced_view(_inversion_signs(ranks), kept, traced)[..., 0]
            for row, kept_signs in zip(ranks, stacked):
                o = ModeOrdering(tuple(system.modes[i] for i in np.argsort(row)))
                own = _kept_traced_view(ordering_sign_vector(system, o), kept, traced)[..., 0]
                restricted = ordering_sign_vector(kept_system, o.restricted_to(labels))
                assert np.array_equal(own, restricted)
                assert np.array_equal(kept_signs, restricted)


def test_inversion_signs_match_loop_parity_at_every_mode_count():
    """The one-product sign rule against a loop-counted parity at 1 to 14
    modes: random rank stacks plus the reversed order (91 inversions at 14
    modes), every basis index up to 8 modes and sampled ones above, and the
    rank columns of every other mode, a non-contiguous subset whose ranks
    keep their gaps."""
    rng = np.random.default_rng(1114)
    for n in range(1, 15):
        ranks = np.array([rng.permutation(n) for _ in range(3)] + [np.arange(n)[::-1]], dtype=np.int8)
        for stack in (ranks, ranks[:, ::2]):
            k = stack.shape[1]
            signs = _inversion_signs(stack)
            assert signs.dtype == np.int8 and signs.shape == (len(stack), 1 << k)
            if k <= 8:
                indices = range(1 << k)
            else:
                indices = np.append(rng.choice(1 << k, size=200, replace=False), (1 << k) - 1)
            for r, row in zip(stack.tolist(), signs):
                for x in map(int, indices):
                    occupied = [i for i in range(k) if x >> (k - 1 - i) & 1]
                    assert row[x] == permutation_parity(sorted(occupied, key=r.__getitem__))


def test_fourteen_mode_sign_vector_is_read_only_int8():
    """The cached sign vector holds one read-only byte per basis state, so a
    14-mode entry is 2**14 B, and its values match a loop-counted parity."""
    system = ModeSystem(tuple(f"m{k}" for k in range(14)), a_count=7)
    rng = np.random.default_rng(14)
    ordering = ModeOrdering(tuple(str(m) for m in rng.permutation(system.modes)))
    signs = ordering_sign_vector(system, ordering)
    assert signs.dtype == np.int8 and signs.shape == (1 << 14,) and signs.nbytes == 1 << 14
    assert not signs.flags.writeable
    for idx in rng.integers(0, system.dim, size=64):
        bits = system.bits_of_index(int(idx))
        occupied_in_order = [
            system.position(label) for label in ordering.labels if bits[system.position(label)] == "1"
        ]
        assert signs[idx] == permutation_parity(occupied_in_order)


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(min_value=0, max_value=10_000), perm_seed=st.integers(min_value=0, max_value=10_000))
def test_ordering_sign_matches_parity_5_modes(seed, perm_seed):
    system = ModeSystem(("p", "q", "r", "s", "t"), a_count=2)
    rng = np.random.default_rng(perm_seed)
    ordering = ModeOrdering(tuple(rng.permutation(system.modes)))
    idx = int(np.random.default_rng(seed).integers(0, system.dim))
    bits = system.bits_of_index(idx)
    occupied_in_order = [
        system.position(label) for label in ordering.labels if bits[system.position(label)] == "1"
    ]
    assert ordering_sign(system, ordering, bits) == permutation_parity(occupied_in_order)


def test_qubit_image_preserves_norm_and_trace():
    system = ModeSystem.from_blocks(("a", "b"), ("c",))
    state = random_state(system, seed=9)
    ordering = ModeOrdering(("c", "a", "b"))
    image = qubit_image(state, ordering)
    assert abs(np.linalg.norm(image.data) - 1.0) < tol
    rho = state.to_density()
    image_rho = qubit_image(rho, ordering)
    assert abs(np.trace(image_rho.data) - 1.0) < tol
    assert np.abs(image_rho.data - image_rho.data.conj().T).max() < tol


def test_interleaved_image_of_pair_state_flips_one_amplitude():
    """The (a,d,b,c) ordering negates exactly the {b,d}-occupied branch."""
    state = two_delocalized_fermions()
    image = qubit_image(state, ModeOrdering(("a", "d", "b", "c")))
    sys_ = state.system
    assert image.data[sys_.index_of_bits("1010")] == pytest.approx(0.5)
    assert image.data[sys_.index_of_bits("1001")] == pytest.approx(0.5)
    assert image.data[sys_.index_of_bits("0110")] == pytest.approx(0.5)
    assert image.data[sys_.index_of_bits("0101")] == pytest.approx(-0.5)


def test_block_ordering_image_factorizes():
    state = two_delocalized_fermions()
    image = qubit_image(state, ModeOrdering.canonical(state.system))
    amps = image.data.reshape(4, 4)
    assert np.linalg.matrix_rank(amps, tol=1e-10) == 1


def test_vacuum_image_is_vacuum():
    system = ModeSystem.from_blocks(("a", "b"), ("c",))
    from fermiorder.fock import FockVector

    vac = FockVector.vacuum(system)
    for perm in permutations(system.modes):
        image = qubit_image(vac, ModeOrdering(perm))
        assert np.array_equal(image.data, vac.amplitudes)


def test_inverse_image_round_trip():
    system = ModeSystem.from_blocks(("a", "b"), ("c", "d"))
    rho = random_state(system, seed=3).to_density()
    for perm in (("a", "b", "c", "d"), ("d", "b", "a", "c")):
        ordering = ModeOrdering(perm)
        image = qubit_image(rho, ordering)
        back = inverse_image_restricted(image)
        assert isinstance(back, DensityOperator)
        assert np.array_equal(back.matrix, rho.matrix)


def test_inverse_image_on_pure_vector():
    system = ModeSystem.from_blocks(("a",), ("c",))
    state = random_state(system, seed=4)
    ordering = ModeOrdering(("c", "a"))
    back = inverse_image_restricted(qubit_image(state, ordering))
    assert np.array_equal(back.amplitudes, state.amplitudes)


def test_is_physical_classification():
    system = ModeSystem.from_blocks(("a1", "a2"), ("c1", "c2"))
    assert is_physical(ModeOrdering(("a1", "a2", "c1", "c2")), system) is True
    assert is_physical(ModeOrdering(("a2", "a1", "c2", "c1")), system) is True
    assert is_physical(ModeOrdering(("a1", "c1", "a2", "c2")), system) is False
    assert is_physical(ModeOrdering(("c1", "c2", "a1", "a2")), system) is False


def test_restriction_keeps_relative_order():
    ordering = ModeOrdering(("d", "a", "c", "b"))
    assert ordering.restricted_to(("a", "b")).labels == ("a", "b")
    assert ordering.restricted_to(("d", "c", "b")).labels == ("d", "c", "b")
    with pytest.raises(InvalidSubsetError):
        ordering.restricted_to(("a", "zz"))
    with pytest.raises(InvalidSubsetError, match=r"^label 'zz' not in ordering \('d', 'a', 'c', 'b'\)$"):
        ordering.rank("zz")


def test_qubit_state_shape_validation():
    system = ModeSystem.from_blocks(("a",), ("c",))
    ordering = ModeOrdering.canonical(system)
    with pytest.raises(ValueError):
        QubitState(system, ordering, np.zeros(3, dtype=complex))


def test_sign_between_two_orderings_composes():
    """The relative sign of two orderings is the product of their canonical
    signs, checked against a directly counted permutation parity."""
    system = ModeSystem(("u", "v", "w", "x"), a_count=2)
    orderings = [ModeOrdering(p) for p in permutations(system.modes)]
    for oa in orderings[::5]:
        rank_a = {label: i for i, label in enumerate(oa.labels)}
        for ob in orderings[::7]:
            for idx in range(system.dim):
                bits = system.bits_of_index(idx)
                listed_in_b = [
                    rank_a[label] for label in ob.labels if bits[system.position(label)] == "1"
                ]
                relative = permutation_parity(listed_in_b)
                s_a = ordering_sign(system, oa, bits)
                s_b = ordering_sign(system, ob, bits)
                assert relative == s_a * s_b
