"""Print a byte-identity manifest of the package's public results.

Each line is ``<id> <sha256>``: the id names one result, by the call, its
inputs and the field read, and the hash is of that result's bytes. An
array is hashed with its dtype, shape and ``tobytes()``, a float as its
``repr``, an error as its type name and message, and a CLI command as its
stdout, stderr and exit code. Lines are sorted. Only the public API and
``fermiorder.cli.main`` are called, and every input is drawn here from
fixed seeds, so the tool runs unchanged against another checkout's
``src``. Two manifests made on one machine should agree line for line;
BLAS kernels differ by CPU, so hashes from two machines are not
comparable:

    PYTHONPATH=src python tools/byte_manifest.py > new.txt
    PYTHONPATH=/path/to/other/src python tools/byte_manifest.py > old.txt
    diff old.txt new.txt

or, as one command that prints only the ids whose lines differ, an id
found in one manifest alone included, and exits 1 if there are any:

    PYTHONPATH=src python tools/byte_manifest.py --against /path/to/other/src

``--against`` makes this manifest in process and then the other in a
subprocess, this script run with ``PYTHONPATH`` set to that ``src`` and
the environment otherwise unchanged, so both use the same BLAS threads. ``--quick`` prints a subset (2-4 modes, a few CLI commands) in
about a second, and with ``--against`` compares that subset. The item
count, the package path and the runtime go to stderr.
"""

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import fermiorder as fo
from fermiorder import states
from fermiorder.cli import main as cli_main

#: The golden CLI commands and those the README shows, then commands that
#: fail, then a sweep at its default of 100 trials per sector: each is run
#: in process with ``FERMIORDER_TOL`` unset.
CLI_COMMANDS = (
    ("examples",),
    ("examples", "--format", "json"),
    ("theorem-sweep", "--modes", "2,2", "--trials", "50", "--format", "csv"),
    ("theorem-sweep", "--modes", "3,3", "--trials", "10", "--seed", "7", "--format", "csv"),
    ("theorem-sweep", "--modes", "4,4", "--trials", "25", "--seed", "3"),
    ("theorem-sweep", "--modes", "4,4", "--trials", "25", "--seed", "3", "--format", "json"),
    ("ordering-scan", "--state", "0.5: ; 0.5: b+; 0.5: a+; 0.5: a+ b+", "--kept", "a", "--traced", "b"),
    ("ordering-scan", "--modes", "2,3", "--sector", "any", "--seed", "4", "--format", "json"),
    ("ordering-scan", "--modes", "2,3", "--sector", "odd", "--seed", "5", "--format", "csv"),
    ("ordering-scan", "--modes", "3,3", "--sector", "any", "--seed", "2"),
    (
        "ordering-scan", "--kept", "a,b", "--traced", "c,d",
        "--state", "0.3j: ; 0.5: a+ c+; -0.4: b+ c+; 0.35: a+ d+; 0.2+0.1j: b+ d+; 0.25: a+ b+ c+ d+",
    ),
    (
        "negativity", "--state", "0.5: a+ c+; 0.5: a+ d+; 0.5: b+ c+; 0.5: b+ d+",
        "--kept", "a,b", "--traced", "c,d", "--ordering", "a,d,b,c", "--format", "json",
    ),
    (
        "negativity",
        "--state", "0.3j: ; 0.5: a+ c+; -0.4: b+ c+; 0.35: a+ d+; 0.2+0.1j: b+ d+; 0.25: a+ b+ c+ d+",
        "--kept", "a,b", "--traced", "c,d", "--ordering", "b,c,a,d",
    ),
    (
        "ordering-scan", "--kept", "d,b", "--traced", "a,c", "--format", "json",
        "--state", "0.3j: ; 0.5: a+ c+; -0.4: b+ c+; 0.35: a+ d+; 0.2+0.1j: b+ d+; 0.25: a+ b+ c+ d+",
    ),
    (
        "negativity", "--kept", "c,a", "--traced", "b,d", "--ordering", "d,a,c,b",
        "--state", "0.3j: ; 0.5: a+ c+; -0.4: b+ c+; 0.35: a+ d+; 0.2+0.1j: b+ d+; 0.25: a+ b+ c+ d+",
    ),
    ("ordering-scan", "--modes", "5,4"),
    ("theorem-sweep", "--modes", "2,2", "--seed", "-1"),
    ("theorem-sweep", "--modes", "2,2", "--trials", "0"),
    ("negativity", "--modes", "1,1", "--ordering", "a1,c1"),
    ("negativity", "--state", "1: z+", "--kept", "a", "--traced", "b", "--ordering", "a,b"),
    ("negativity", "--state", "1e999: a+", "--kept", "a", "--traced", "b", "--ordering", "a,b"),
    ("ordering-scan", "--modes", "1,1", "--kept", "a"),
    ("frobnicate",),
    ("theorem-sweep", "--modes", "2,2"),
)

#: The commands ``--quick`` runs: one of each kind, and one failure.
QUICK_CLI = (0, 2, 6, 11, 16)


def _encode(value) -> bytes:
    """The bytes a result is hashed by."""
    if isinstance(value, np.ndarray):
        return f"array {value.dtype.str} {value.shape} ".encode() + value.tobytes()
    if isinstance(value, BaseException):
        return f"error {type(value).__name__}: {value}".encode()
    if isinstance(value, (list, tuple)):
        parts = [_encode(v) for v in value]
        return f"seq {len(parts)} ".encode() + b"".join(len(p).to_bytes(8, "little") + p for p in parts)
    if isinstance(value, bytes):
        return value
    return repr(value).encode()


def _digest(value) -> str:
    return hashlib.sha256(_encode(value)).hexdigest()


class Manifest:
    """Hashes of results by id; a result that raises is hashed as its error."""

    def __init__(self) -> None:
        self.items: dict[str, str] = {}
        self.names: set[str] = set()

    def add(self, name: str, compute, fields=None) -> None:
        """Hash ``compute()``, or each ``read(result)`` of ``fields``, a
        dict of field names to readers, under ``name.field``."""
        if name in self.names:
            raise ValueError(f"duplicate manifest id {name}")
        self.names.add(name)
        try:
            value = compute()
        except Exception as exc:
            self.items[name] = _digest(exc)
            return
        if fields is None:
            self.items[name] = _digest(value)
        else:
            for field, read in fields.items():
                self.items[f"{name}.{field}"] = _digest(read(value))

    def lines(self) -> list[str]:
        return [f"{name} {digest}" for name, digest in sorted(self.items.items())]


def _system_key(system):
    return system.modes, system.a_count


DENSITY_FIELDS = {"matrix": lambda r: r.matrix, "system": lambda r: _system_key(r.system)}
QUBIT_FIELDS = {
    "data": lambda q: q.data,
    "system": lambda q: _system_key(q.system),
    "ordering": lambda q: q.ordering.labels,
}
REPORT_FIELDS = {
    "ordering": lambda r: r.ordering.labels,
    "max_entry_diff": lambda r: r.max_entry_diff,
    "trace_distance": lambda r: r.trace_distance,
    "ssr_compliant": lambda r: r.ssr_compliant,
    "physical": lambda r: r.physical,
    "agrees": lambda r: r.agrees,
    "tol": lambda r: r.tol,
    "fermionic": lambda r: r.fermionic.matrix,
    "fermionic_system": lambda r: _system_key(r.fermionic.system),
    "qubit_route": lambda r: r.qubit_route.matrix,
    "qubit_route_system": lambda r: _system_key(r.qubit_route.system),
    "json": lambda r: r.to_json(),
}
CLASS_FIELDS = {
    "representative": lambda c: c.representative.labels,
    "orderings": lambda c: tuple(o.labels for o in c.orderings),
    "size": lambda c: c.size,
    "contains_physical": lambda c: c.contains_physical,
    "matches_fermionic": lambda c: c.matches_fermionic,
    "max_entry_diff": lambda c: c.max_entry_diff,
    "reduced": lambda c: c.reduced.matrix,
    "reduced_system": lambda c: _system_key(c.reduced.system),
    "json": lambda c: c.to_json(),
}
SCAN_FIELDS = {"count": len} | {
    field: (lambda read: lambda classes: tuple(read(c) for c in classes))(read)
    for field, read in CLASS_FIELDS.items()
}
#: The scan fields with every class's members read before any
#: representative, which the scan does not derive from its members
ORDERINGS_FIRST_FIELDS = {"orderings": SCAN_FIELDS["orderings"]} | SCAN_FIELDS
MEASURE_FIELDS = {"value": lambda m: m.value, "json": lambda m: m.to_json()}
EIGEN_FIELDS = {
    "eigenvalues": lambda e: e.eigenvalues,
    "vectors": lambda e: e.vectors,
    "residual": lambda e: e.residual,
}
SWEEP_FIELDS = {
    "csv": lambda s: s.to_csv(),
    "max_entry_diff": lambda s: s.max_entry_diff,
    "passed": lambda s: s.passed,
    "worst_seed": lambda s: s.worst_seed,
}


def _system(n_modes: int) -> fo.ModeSystem:
    """n modes labelled a1.. then c1.., split as evenly as the labels go."""
    return fo.sweep_system((n_modes + 1) // 2, n_modes // 2)


def _states(system, rng):
    """The manifest's states of one system: pure even, odd and any-sector
    states, their densities, a rank-3 even density and a 30/70 mixture of
    an even and an odd state, by name."""
    seeds = rng.integers(1 << 30, size=6).tolist()
    pure = {s: fo.random_state(system, s, seed) for s, seed in zip(("even", "odd", "any"), seeds)}
    out = {f"pure-{s}": psi for s, psi in pure.items()}
    out |= {f"density-{s}": psi.to_density() for s, psi in pure.items()}
    vectors = [fo.random_state(system, "even", seed).amplitudes for seed in seeds[3:]]
    weights = rng.random(3)
    weights /= weights.sum()
    rank3 = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vectors))
    out["rank3-even"] = fo.DensityOperator(system, rank3)
    even, odd = pure["even"].amplitudes, pure["odd"].amplitudes
    out["mix-30-70"] = fo.DensityOperator(system, 0.3 * np.outer(even, even.conj()) + 0.7 * np.outer(odd, odd.conj()))
    return out


def _split_not_first(system, rng) -> fo.BipartitionSpec:
    """A random split whose kept modes, listed in random order, are not
    the system's first modes."""
    n = system.n_modes
    while True:
        chosen = rng.random(n) < 0.5
        kept = np.flatnonzero(chosen).tolist()
        if kept and kept != list(range(len(kept))):
            break
    kept_labels = [system.modes[k] for k in rng.permutation(kept)]
    traced_labels = [m for m in system.modes if m not in kept_labels]
    return fo.BipartitionSpec(kept=tuple(kept_labels), traced=tuple(traced_labels))


def _add_state_items(manifest, prefix, system, state, splits, rng, scan: bool) -> None:
    """Every reduction, check and measure of one state on each split."""
    pure = isinstance(state, fo.FockVector)
    manifest.add(f"{prefix}/ssr_compliant", lambda: fo.ssr_compliant(state))
    if pure:
        manifest.add(f"{prefix}/to_density", lambda: state.to_density().matrix)
        manifest.add(f"{prefix}/json", lambda: fo.state_to_json_str(state))
    for split_name, bp in splits.items():
        name = f"{prefix}/{split_name}"
        blocks = system.bipartition() if bp is None else bp
        kept_first = fo.ModeOrdering(blocks.kept + blocks.traced)
        shuffled = fo.ModeOrdering(tuple(rng.permutation(system.modes).tolist()))
        manifest.add(f"{name}/fermionic_partial_trace", lambda: fo.fermionic_partial_trace(state, bp), DENSITY_FIELDS)
        for o_name, o in (("kept-first", kept_first), ("random", shuffled)):
            manifest.add(f"{name}/{o_name}/qubit_image", lambda: fo.qubit_image(state, o), QUBIT_FIELDS)
            manifest.add(
                f"{name}/{o_name}/qubit_partial_trace",
                lambda: fo.qubit_partial_trace(fo.qubit_image(state, o), bp),
                QUBIT_FIELDS,
            )
            manifest.add(
                f"{name}/{o_name}/qubit_route_reduction",
                lambda: fo.qubit_route_reduction(state, o, bp),
                DENSITY_FIELDS,
            )
            manifest.add(
                f"{name}/{o_name}/theorem_check", lambda: fo.theorem_check(state, o, bp, force=True), REPORT_FIELDS
            )
            manifest.add(f"{name}/{o_name}/negativity", lambda: fo.negativity(state, bp, o), MEASURE_FIELDS)
            manifest.add(f"{name}/{o_name}/ppt_separable", lambda: fo.ppt_separable(state, bp, o))
        manifest.add(f"{name}/random/theorem_check-unforced", lambda: fo.theorem_check(state, shuffled, bp).to_json())
        check = fo.theorem_check(state, shuffled, bp, force=True)
        manifest.add(
            f"{name}/random/trace_distance",
            lambda: fo.trace_distance(check.fermionic.matrix, check.qubit_route.matrix),
        )
        manifest.add(
            f"{name}/hermitian_eigenvalues", lambda: fo.hermitian_eigenvalues(check.fermionic.matrix), EIGEN_FIELDS
        )
        if not pure:
            manifest.add(
                f"{name}/partial_transpose", lambda: fo.partial_transpose(state.matrix, system, bp)
            )
        if scan:
            manifest.add(f"{name}/ordering_scan", lambda: fo.ordering_scan(state, bp), SCAN_FIELDS)


def _add_states(manifest, quick: bool) -> None:
    rng = np.random.default_rng(2026)
    for n_modes in range(2, 5 if quick else 9):
        system = _system(n_modes)
        splits = {"own": None}
        for k in range(1 if quick else 3):
            splits[f"split{k}"] = _split_not_first(system, rng)
        for draw in range(1 if quick else 2):
            for state_name, state in _states(system, rng).items():
                prefix = f"states/n{n_modes}/draw{draw}/{state_name}"
                _add_state_items(manifest, prefix, system, state, splits, rng, scan=n_modes <= 7)
        for split_name, bp in splits.items():
            blocks = system.bipartition() if bp is None else bp
            manifest.add(f"states/n{n_modes}/{split_name}/blocks", lambda: (blocks.kept, blocks.traced))


def _add_named_states(manifest) -> None:
    """The package's example states, through the measures of the paper."""
    pair = states.occupation_bell_state()
    canonical = fo.ModeOrdering.canonical(pair.system)
    manifest.add("named/bell/concurrence_and_eof", lambda: fo.concurrence_and_eof(pair, canonical))
    manifest.add("named/bell/density-concurrence", lambda: fo.concurrence_and_eof(pair.to_density(), canonical))
    for theta in (0.0, 0.3, 1.1):
        tilted = states.tilted_pair_state(theta)
        manifest.add(
            f"named/tilted-{theta}/concurrence_and_eof",
            lambda: fo.concurrence_and_eof(tilted, fo.ModeOrdering.canonical(tilted.system)),
        )
    rng = np.random.default_rng(5)
    for k in range(3):
        g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        manifest.add(f"named/random-qubit-pair-{k}/concurrence_and_eof", lambda: fo.concurrence_and_eof(rho))
        q = states.qubit_state_from_matrix(rho)
        manifest.add(f"named/random-qubit-pair-{k}/negativity", lambda: fo.negativity(q), MEASURE_FIELDS)
        manifest.add(f"named/random-qubit-pair-{k}/ppt_separable", lambda: fo.ppt_separable(q))
    for name in ("two_delocalized_fermions", "parity_violating_state", "spin_singlet_state"):
        state = getattr(states, name)()
        canonical = fo.ModeOrdering.canonical(state.system)
        manifest.add(f"named/{name}/amplitudes", lambda: state.amplitudes)
        manifest.add(f"named/{name}/theorem_check", lambda: fo.theorem_check(state, canonical), REPORT_FIELDS)
        manifest.add(f"named/{name}/ordering_scan", lambda: fo.ordering_scan(state), SCAN_FIELDS)
        manifest.add(
            f"named/{name}/entangling-negativity",
            lambda: fo.negativity(state, ordering=states.entangling_ordering()),
            MEASURE_FIELDS,
        )


def _add_stacked_scans(manifest) -> None:
    """8-mode scans of even pure states, which the state items above do not
    scan: a scan derives its orbits' matrices a bounded stack at a time,
    and here one chunk's orbits span several stacks (at (7,1) one group
    has 64 orbits of 256 KiB matrices)."""
    for n, m, seed in ((7, 1, 1), (6, 2, 2), (5, 3, 3)):
        state = fo.random_state(fo.sweep_system(n, m), "even", seed)
        manifest.add(f"scan/{n}-{m}-even-{seed}", lambda: fo.ordering_scan(state), SCAN_FIELDS)


def _add_unsorted_label_scans(manifest) -> None:
    """Scans on systems whose labels do not sort in canonical order, where
    classes of one size go in the string order of their representatives'
    labels, not in the order of their mode positions: pure and density,
    one parity and any sector, each scanned twice, reading every class's
    representative before its members and then after them."""
    for modes, kept, cases in (
        (("q", "b", "z", "a", "m", "c"), ("m", "z", "c"), (("odd", 1), ("any", 2))),
        (("q", "b", "z", "a", "m", "c", "d", "e"), ("e", "b", "m", "a"), (("even", 3),)),
    ):
        system = fo.ModeSystem(modes, len(modes) // 2)
        bp = fo.BipartitionSpec(kept=kept, traced=tuple(m for m in modes if m not in kept))
        for sector, seed in cases:
            state = fo.random_state(system, sector, seed)
            for form, given in (("pure", state), ("density", state.to_density())):
                name = f"labels/{''.join(modes)}/{sector}-{seed}-{form}"
                manifest.add(f"{name}/representative-first", lambda: fo.ordering_scan(given, bp), SCAN_FIELDS)
                manifest.add(f"{name}/orderings-first", lambda: fo.ordering_scan(given, bp), ORDERINGS_FIRST_FIELDS)


def _add_sweeps(manifest, quick: bool) -> None:
    for n, m, trials, seed in ((1, 1, 5, 0), (2, 2, 20, 3)) if quick else (
        (1, 1, 5, 0), (2, 2, 20, 3), (3, 3, 10, 7), (4, 4, 25, 3), (2, 5, 8, 11), (6, 1, 4, 2),
        # at 12 and 14 modes each chunk holds one trial
        (6, 6, 3, 5), (7, 7, 2, 9),
    ):
        manifest.add(f"sweep/{n}-{m}-{trials}-{seed}", lambda: fo.theorem_sweep(n, m, trials, seed), SWEEP_FIELDS)


def _error_cases():
    """A fixed list of bad inputs, by name, each a call that raises."""
    system = fo.sweep_system(2, 2)
    psi = fo.random_state(system, "even", 1)
    canonical = fo.ModeOrdering.canonical(system)
    bad_density = np.eye(16, dtype=complex) / 16
    bad_density[0, 1] = 1e-3
    mixed = np.eye(16, dtype=complex) / 16
    big = fo.random_state(fo.sweep_system(7, 6), "even", 0)
    qubit_bell = states.qubit_state_from_matrix(np.eye(4, dtype=complex) / 4)
    return {
        "fockvector-shape": lambda: fo.FockVector(system, np.ones(3)),
        "fockvector-nan": lambda: fo.FockVector(system, np.full(16, np.nan)),
        "density-shape": lambda: fo.DensityOperator(system, np.eye(4) / 4),
        "density-not-hermitian": lambda: fo.DensityOperator(system, bad_density),
        "density-trace": lambda: fo.DensityOperator(system, 2 * mixed),
        "system-repeated-labels": lambda: fo.ModeSystem(("a", "a"), 1),
        "system-no-modes": lambda: fo.ModeSystem((), 0),
        "system-a-count": lambda: fo.ModeSystem(("a", "b"), 3),
        "bipartition-overlap": lambda: fo.BipartitionSpec(kept=("a1",), traced=("a1", "c1")),
        "bipartition-uncovered": lambda: fo.fermionic_partial_trace(psi, fo.BipartitionSpec(("a1",), ("c1",))),
        "bipartition-empty-kept": lambda: fo.fermionic_partial_trace(psi, fo.BipartitionSpec((), system.modes)),
        "qubit-trace-empty-kept": lambda: fo.qubit_route_reduction(psi, canonical, fo.BipartitionSpec((), system.modes)),
        "ordering-repeats": lambda: fo.ModeOrdering(("a1", "a1")),
        "ordering-other-labels": lambda: fo.qubit_image(psi, fo.ModeOrdering(("x", "y", "z", "w"))),
        "ordering-subset": lambda: canonical.restricted_to(("zz",)),
        "ordering-rank": lambda: canonical.rank("zz"),
        "theorem-non-physical": lambda: fo.theorem_check(psi, fo.ModeOrdering(("a1", "c1", "a2", "c2"))),
        "theorem-tol-zero": lambda: fo.theorem_check(psi, canonical, tol=0.0),
        "theorem-tol-nan": lambda: fo.theorem_check(psi, canonical, tol=float("nan")),
        "theorem-type": lambda: fo.theorem_check(psi.amplitudes, canonical),
        "scan-too-large": lambda: fo.ordering_scan(fo.random_state(fo.sweep_system(5, 4), "even", 0)),
        "scan-tol-one": lambda: fo.ordering_scan(psi, tol=1.0),
        "scan-type": lambda: fo.ordering_scan(qubit_bell),
        "sweep-negative-trials": lambda: fo.theorem_sweep(2, 2, -1),
        "sweep-negative-seed": lambda: fo.theorem_sweep(2, 2, 1, seed=-1),
        "sweep-negative-modes": lambda: fo.theorem_sweep(-1, 2, 1),
        "sweep-empty-kept": lambda: fo.theorem_sweep(0, 2, 1),
        "sweep-eigensolver-cap": lambda: fo.theorem_sweep(13, 1, 1),
        "random-state-seed": lambda: fo.random_state(system, "even", -1),
        "random-state-sector": lambda: fo.random_state(system, "both", 0),
        "negativity-no-ordering": lambda: fo.negativity(psi),
        "negativity-eigensolver-cap": lambda: fo.negativity(big, ordering=fo.ModeOrdering.canonical(big.system)),
        "negativity-trace": lambda: fo.negativity(fo.FockVector(system, 2 * psi.amplitudes), ordering=canonical),
        "negativity-type": lambda: fo.negativity(psi.amplitudes),
        "negativity-other-ordering": lambda: fo.negativity(qubit_bell, ordering=fo.ModeOrdering(("c1", "a1"))),
        "ppt-large-supports": lambda: fo.ppt_separable(fo.random_state(system, "any", 4), ordering=canonical),
        "partial-transpose-shape": lambda: fo.partial_transpose(np.eye(4), system),
        "concurrence-shape": lambda: fo.concurrence_and_eof(np.eye(3) / 3),
        "concurrence-modes": lambda: fo.concurrence_and_eof(psi, canonical),
        "decomposition-lengths": lambda: fo.SeparableDecomposition((1.0,), (), ()),
        "decomposition-empty": lambda: fo.SeparableDecomposition((), (), ()),
        "decomposition-weights": lambda: fo.SeparableDecomposition((0.5, 0.6), (fo.OperatorString(()),) * 2, (fo.OperatorString(()),) * 2),
        "eigen-not-hermitian": lambda: fo.hermitian_eigenvalues(np.array([[1.0, 1.0], [0.0, 1.0]])),
        "eigen-not-square": lambda: fo.hermitian_eigenvalues(np.ones((2, 3))),
        "eigen-nan": lambda: fo.hermitian_eigenvalues(np.array([[np.nan]])),
        "trace-distance-shapes": lambda: fo.trace_distance(np.eye(2), np.eye(4)),
        "apply-unknown-mode": lambda: fo.apply(fo.CREATION, "zz", psi),
        "apply-unknown-kind": lambda: fo.apply("*", "a1", psi),
        "operator-parse": lambda: fo.OperatorString.parse("a1*"),
        "operator-string-mode": lambda: fo.from_operator_string(fo.OperatorString.parse("zz+"), system),
        "json-invalid": lambda: fo.state_from_json_str("{"),
        "json-layout": lambda: fo.state_from_json_str("[1, 2]"),
        "parity-bits": lambda: fo.parity_of("012"),
        "ordering-sign-bits": lambda: fo.ordering_sign(system, canonical, "01"),
        "qubit-trace-type": lambda: fo.qubit_partial_trace(psi),
        "qubit-state-shape": lambda: fo.QubitState(system, canonical, np.ones(3)),
        "state-spec": lambda: states.state_from_spec("0.5 a+", system),
        "state-spec-label": lambda: states.state_from_spec("1: q+", system),
    }


def _add_errors(manifest, quick: bool) -> None:
    cases = _error_cases()
    for name in sorted(cases)[:: 6 if quick else 1]:
        manifest.add(f"error/{name}", cases[name])


def _run_cli(argv) -> tuple[int, str, str]:
    """``fermiorder`` on ``argv`` in process, with ``FERMIORDER_TOL``
    unset: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("FERMIORDER_TOL", None)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        if saved is not None:
            os.environ["FERMIORDER_TOL"] = saved
    return code, out.getvalue(), err.getvalue()


def _add_cli(manifest, quick: bool) -> None:
    for k in QUICK_CLI if quick else range(len(CLI_COMMANDS)):
        argv = CLI_COMMANDS[k]
        manifest.add(f"cli/{k:02d}-{argv[0]}", lambda: _run_cli(argv))
    if not quick:
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp) / "report.txt"

            def written():
                result = _run_cli((*CLI_COMMANDS[7], "--output", str(target)))
                return result, target.read_bytes()

            manifest.add("cli/output-file", written)


def manifest(quick: bool = False) -> list[str]:
    """The sorted manifest lines."""
    m = Manifest()
    _add_states(m, quick)
    _add_sweeps(m, quick)
    _add_errors(m, quick)
    _add_cli(m, quick)
    if not quick:
        _add_named_states(m)
        _add_stacked_scans(m)
        _add_unsorted_label_scans(m)
    return m.lines()


def differing_ids(ours: list[str], theirs: list[str]) -> list[str]:
    """The sorted ids whose lines differ between two manifests, an id in
    one of them alone included."""
    return sorted({line.split(" ")[0] for line in set(ours) ^ set(theirs)})


def _timed_manifest(quick: bool) -> list[str]:
    """``manifest(quick)``, its item count, package path and runtime
    reported on stderr."""
    start = time.perf_counter()
    lines = manifest(quick)
    print(
        f"{len(lines)} items from {Path(fo.__file__).parent} in {time.perf_counter() - start:.1f} s",
        file=sys.stderr,
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="byte_manifest.py", description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="a subset in about a second")
    parser.add_argument("--against", metavar="SRC_DIR", help="print the ids that differ from SRC_DIR's manifest")
    args = parser.parse_args(argv)
    if args.against is None:
        print("\n".join(_timed_manifest(args.quick)))
        return 0
    lines = _timed_manifest(args.quick)
    # one after the other: two processes with threaded BLAS on a 2-core
    # machine each took 145 s for what takes 16 s alone
    other = subprocess.run(
        [sys.executable, __file__, *(["--quick"] if args.quick else [])],
        env={**os.environ, "PYTHONPATH": str(Path(args.against).resolve())},
        capture_output=True,
        text=True,
    )
    sys.stderr.write(other.stderr)
    if other.returncode != 0:
        print(f"byte_manifest.py: the manifest of {args.against} exited {other.returncode}", file=sys.stderr)
        return 2
    differ = differing_ids(lines, other.stdout.splitlines())
    if differ:
        print("\n".join(differ))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
