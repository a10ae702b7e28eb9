"""The benchmark's workloads: seeded inputs, the timed call, and its check.

Every input is generated here from the workload seed; the package receives
only the finished states, orderings and bipartitions. Each workload also
computes, at set-up, a reference for every input by a route other than the
timed one, and ``check`` compares the timed result against it.

Package functions are looked up through their modules at call time
(``fermiorder.reduction.theorem_check``), so wrappers installed by the
tracer see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import fermiorder
import fermiorder.cli
from fermiorder.fock import BipartitionSpec, DensityOperator, FockVector, ModeSystem
from fermiorder.ordering import ModeOrdering

#: Entry tolerance between a timed result and its reference.
REF_TOL = 1e-10
#: Tolerance on the unit trace of a reduced state.
TRACE_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], list]
    reference: Callable[[Any], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any, Any], bool]


# --- references, written without the package's sign code ---------------------


def _occupations(n: int) -> np.ndarray:
    """occ[x, k] is the occupation of canonical mode k in basis index x."""
    idx = np.arange(1 << n)
    return (idx[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1


def _sector_mask(n: int, sector: str) -> np.ndarray:
    parity = _occupations(n).sum(axis=1) % 2
    return parity == (1 if sector == "odd" else 0)


def random_amplitudes(rng: np.random.Generator, n: int, sector: str) -> np.ndarray:
    mask = _sector_mask(n, sector)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
    return amps / np.linalg.norm(amps)


def image_signs(modes: tuple[str, ...], order: tuple[str, ...]) -> np.ndarray:
    """Sign of each basis state when its creators are listed in ``order``.

    Counts, for every pair of modes that ``order`` lists against canonical
    order, the basis states where both are occupied.
    """
    occ = _occupations(len(modes))
    rank = [order.index(m) for m in modes]
    flips = np.zeros(occ.shape[0], dtype=np.int64)
    for i in range(len(modes)):
        for j in range(i + 1, len(modes)):
            if rank[i] > rank[j]:
                flips += occ[:, i] & occ[:, j]
    return 1 - 2 * (flips % 2)


def kept_first_reduction(
    amplitudes: np.ndarray, modes: tuple[str, ...], kept: tuple[str, ...]
) -> np.ndarray:
    """Reduced state of a pure state on ``kept`` (canonical order).

    Reorders each basis state's creators to put the kept modes first, then
    traces the rest as an ordinary matrix product. For a superselected state
    this is the fermionic partial trace.
    """
    n = len(modes)
    kept_pos = [modes.index(m) for m in kept]
    traced_pos = [p for p in range(n) if p not in kept_pos]
    occ = _occupations(n)
    signs = image_signs(modes, tuple(modes[p] for p in kept_pos + traced_pos))
    weights_k = 1 << np.arange(len(kept_pos) - 1, -1, -1)
    weights_t = 1 << np.arange(len(traced_pos) - 1, -1, -1)
    rows = occ[:, kept_pos] @ weights_k
    cols = occ[:, traced_pos] @ weights_t if traced_pos else np.zeros(1 << n, dtype=np.int64)
    psi = np.zeros((1 << len(kept_pos), 1 << len(traced_pos)), dtype=np.complex128)
    psi[rows, cols] = signs * amplitudes
    return psi @ psi.conj().T


def reference_negativity(
    matrix: np.ndarray, modes: tuple[str, ...], order: tuple[str, ...], traced: tuple[str, ...]
) -> float:
    """Negativity by index surgery and ``numpy.linalg.eigvalsh``."""
    n = len(modes)
    s = image_signs(modes, order)
    image = s[:, None] * matrix * s[None, :]
    mask = 0
    for label in traced:
        mask |= 1 << (n - 1 - modes.index(label))
    r, c = np.indices(image.shape)
    pt = np.empty_like(image)
    pt[(r & ~mask) | (c & mask), (c & ~mask) | (r & mask)] = image
    value = (float(np.abs(np.linalg.eigvalsh(pt)).sum()) - 1.0) / 2.0
    return 0.0 if value < 1e-12 else value


def _max_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def labelled_system(n_kept: int, n_traced: int) -> ModeSystem:
    return ModeSystem.from_blocks(
        tuple(f"a{i}" for i in range(1, n_kept + 1)),
        tuple(f"c{j}" for j in range(1, n_traced + 1)),
    )


def _split(system: ModeSystem, kept_positions) -> BipartitionSpec:
    positions = set(kept_positions)
    kept = tuple(m for i, m in enumerate(system.modes) if i in positions)
    return BipartitionSpec(kept=kept, traced=tuple(m for m in system.modes if m not in kept))


def _kept_set_not_first(rng: np.random.Generator, n: int, k: int, contiguous: bool) -> list[int]:
    """A random k-subset of positions that is not the first k, and, unless
    ``contiguous``, is not one consecutive run either."""
    while True:
        pos = sorted(int(p) for p in rng.choice(n, size=k, replace=False))
        if pos == list(range(k)):
            continue
        if not contiguous and pos[-1] - pos[0] == k - 1:
            continue
        return pos


# --- route-check ---------------------------------------------------------------

ROUTE_MODES = (4, 4)
ROUTE_STATES = 8


def route_check_inputs(seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    system = labelled_system(*ROUTE_MODES)
    n, k = system.n_modes, ROUTE_MODES[0]
    splits = [system.bipartition(), _split(system, _kept_set_not_first(rng, n, k, True))]
    inputs = []
    for i in range(ROUTE_STATES):
        state = FockVector(system, random_amplitudes(rng, n, ("even", "odd")[i % 2]))
        for bp in splits:
            inputs.append((state, ModeOrdering(bp.kept + bp.traced), bp))
    return inputs


def route_check_reference(inp) -> np.ndarray:
    state, _, bp = inp
    return kept_first_reduction(state.amplitudes, state.system.modes, bp.kept)


def route_check_run(inp):
    state, ordering, bp = inp
    return fermiorder.reduction.theorem_check(state, ordering, bp)


def route_check_ok(inp, report, ref) -> bool:
    fermionic = report.fermionic.matrix
    return (
        bool(report.agrees)
        and _max_diff(fermionic, report.qubit_route.matrix) < REF_TOL
        and abs(np.trace(fermionic) - 1.0) < TRACE_TOL
        and _max_diff(fermionic, ref) < REF_TOL
    )


# --- negativity ----------------------------------------------------------------

NEG_MODES = (3, 3)
NEG_STATES = 8


def negativity_inputs(seed: int) -> list:
    rng = np.random.default_rng([seed, 2])
    system = labelled_system(*NEG_MODES)
    n, k = system.n_modes, NEG_MODES[0]
    bps = [system.bipartition(), _split(system, _kept_set_not_first(rng, n, k, False))]
    sectors = [("even", "even"), ("odd", "odd"), ("even", "odd"), ("odd", "even")]
    inputs = []
    for i in range(NEG_STATES):
        s1, s2 = sectors[i % 4]
        v1, v2 = random_amplitudes(rng, n, s1), random_amplitudes(rng, n, s2)
        p = rng.uniform(0.2, 0.8)
        m = p * np.outer(v1, v1.conj()) + (1 - p) * np.outer(v2, v2.conj())
        rho = DensityOperator(system, 0.5 * (m + m.conj().T))
        bp = bps[i % 2]
        if (i // 2) % 2 == 0:  # physical: kept block first
            order = tuple(rng.permutation(bp.kept)) + tuple(rng.permutation(bp.traced))
        else:  # interleaved: some traced mode precedes some kept mode
            while True:
                order = tuple(str(m) for m in rng.permutation(system.modes))
                if max(order.index(m) for m in bp.kept) > min(order.index(m) for m in bp.traced):
                    break
        inputs.append((rho, ModeOrdering(tuple(str(m) for m in order)), bp))
    return inputs


def negativity_reference(inp) -> float:
    rho, ordering, bp = inp
    return reference_negativity(rho.matrix, rho.system.modes, ordering.labels, bp.traced)


def negativity_run(inp):
    rho, ordering, bp = inp
    return fermiorder.entanglement.negativity(rho, bp, ordering)


def negativity_ok(inp, result, ref) -> bool:
    return abs(result.value - ref) < REF_TOL


# --- ordering-scan -------------------------------------------------------------

SCAN_MODES = 6
SCAN_STATES = 8


#: Kept positions of each split. The last is not first in canonical order;
#: it is fixed rather than drawn, because the number of ordering classes,
#: and so the cost of a scan, depends on which modes are kept.
SCAN_SPLITS = ((0, 1, 2), (0, 1), (0, 1, 2, 3), (1, 3, 5))


def ordering_scan_inputs(seed: int) -> list:
    rng = np.random.default_rng([seed, 3])
    system = labelled_system(3, 3)
    splits = [_split(system, kept) for kept in SCAN_SPLITS]
    return [
        (FockVector(system, random_amplitudes(rng, SCAN_MODES, "even")), splits[i % len(splits)])
        for i in range(SCAN_STATES)
    ]


def ordering_scan_reference(inp) -> np.ndarray:
    state, bp = inp
    return kept_first_reduction(state.amplitudes, state.system.modes, bp.kept)


def ordering_scan_run(inp):
    state, bp = inp
    return fermiorder.reduction.ordering_scan(state, bp)


def ordering_scan_ok(inp, classes, ref) -> bool:
    if sum(c.size for c in classes) != math.factorial(SCAN_MODES):
        return False
    physical = [c for c in classes if c.contains_physical]
    return bool(physical) and all(
        c.matches_fermionic and _max_diff(c.reduced.matrix, ref) < REF_TOL for c in physical
    )


# --- cli-small -----------------------------------------------------------------

_EXAMPLES_LINE = re.compile(r"^examples: (\d+)/(\d+) checks passed$", re.MULTILINE)


def _coefficients(rng: np.random.Generator, k: int) -> list[str]:
    return [f"{x:.4f}" for x in rng.uniform(-1.0, 1.0, size=k)]


def _inline(coeffs: list[str], terms: list[str]) -> str:
    return "; ".join(f"{c}: {t}" for c, t in zip(coeffs, terms))


def cli_small_inputs(seed: int) -> list:
    """One input: the fixed command mix, with its states and seeds drawn
    from the workload seed."""
    rng = np.random.default_rng([seed, 4])
    scan_state = _inline(_coefficients(rng, 4), ["a+ b+", "a+ c+", "b+ d+", "c+ d+"])
    neg_state = _inline(_coefficients(rng, 4), ["a+ c+", "a+ d+", "b+ c+", "b+ d+"])
    while True:
        order = [str(m) for m in rng.permutation(["a", "b", "c", "d"])]
        if max(order.index("a"), order.index("b")) > min(order.index("c"), order.index("d")):
            break
    block = ["--kept", "a,b", "--traced", "c,d"]
    sweep_seed, scan_seed = (str(int(s)) for s in rng.integers(0, 10**6, size=2))
    return [
        (
            ("examples",),
            ("theorem-sweep", "--modes", "2,2", "--trials", "20", "--seed", sweep_seed),
            ("ordering-scan", *block, "--state", scan_state),
            ("ordering-scan", "--modes", "2,3", "--format", "json", "--seed", scan_seed),
            ("negativity", *block, "--state", neg_state, "--ordering", ",".join(order)),
        )
    ]


def cli_small_run(commands) -> list[tuple[int, str]]:
    results = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fermiorder.cli.main(list(argv))
        results.append((code, out.getvalue() + err.getvalue()))
    return results


def examples_all_passed(text: str) -> bool:
    match = _EXAMPLES_LINE.search(text)
    return match is not None and match.group(1) == match.group(2)


def cli_small_ok(commands, results, expected) -> bool:
    """Every command exits 0, ``examples`` passes all its checks, and the
    output is byte-identical to the output recorded at set-up."""
    return (
        results == expected
        and all(code == 0 for code, _ in results)
        and examples_all_passed(results[0][1])
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("route-check", route_check_inputs, route_check_reference, route_check_run, route_check_ok),
        Workload("negativity", negativity_inputs, negativity_reference, negativity_run, negativity_ok),
        Workload(
            "ordering-scan",
            ordering_scan_inputs,
            ordering_scan_reference,
            ordering_scan_run,
            ordering_scan_ok,
        ),
        # the reference is the mix's own output, recorded once at set-up, so
        # every later pass checks that reports are byte-deterministic
        Workload("cli-small", cli_small_inputs, cli_small_run, cli_small_run, cli_small_ok),
    )
}
