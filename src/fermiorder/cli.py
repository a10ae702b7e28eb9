"""Command-line interface: worked examples, sweeps, scans, and measures.

Every report is deterministic for a given seed and flag set, and every
entanglement number is printed next to the ordering and bipartition that
produced it. Each command builds its report as a JSON record and as text
lines, and ``_report`` writes the one ``--format`` asks for, ending in a
newline, to the ``--output`` file or else to stdout. Exit codes: 0 on
success, 1 when a checked property fails, 2 on usage or size-limit errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Sequence, Union

import numpy as np

from .fock import (
    MAX_MODES,
    BipartitionSpec,
    ModeSystem,
    OperatorString,
    from_operator_string,
    random_state,
    ssr_compliant,
    state_from_json_str,
)
from .numerics import DEFAULT_TOL, trace_distance
from .ordering import ModeOrdering
from .reduction import (
    _check_scan_size,
    fermionic_partial_trace,
    ordering_scan,
    qubit_route_reduction,
    sweep_system,
    theorem_sweep,
)
from .entanglement import negativity
from .states import (
    entangling_ordering,
    maximally_mixed_matrix,
    occupation_bell_state,
    one_particle_mixed_matrix,
    parity_violating_state,
    spin_singlet_state,
    state_from_spec,
    two_delocalized_fermions,
)

TOL_ENV_VAR = "FERMIORDER_TOL"

#: Tolerance for values frozen from an independent eigen-decomposition.
DERIVED_VALUE_TOL = 1e-10


def _tolerance() -> float:
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{TOL_ENV_VAR} must be a number, got {raw!r}") from None
    if not 0.0 < value < 1.0:
        raise ValueError(f"{TOL_ENV_VAR} must be in (0, 1), got {value}")
    return value


def _modes_arg(text: str) -> tuple[int, int]:
    try:
        n_text, m_text = text.split(",")
        n, m = int(n_text), int(m_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'n,m' integers, got {text!r}") from None
    if n < 1 or m < 0 or n + m > MAX_MODES:
        raise argparse.ArgumentTypeError(f"mode counts ({n},{m}) out of range")
    return n, m


def _labels_arg(text: str) -> tuple[str, ...]:
    labels = tuple(part.strip() for part in text.split(",") if part.strip())
    if not labels:
        raise argparse.ArgumentTypeError(f"expected comma-separated labels, got {text!r}")
    return labels


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _report(args: argparse.Namespace, record: dict, lines: list[str], csv_text: str = "") -> None:
    """Write the report in the format ``--format`` names: the JSON record,
    the CSV text or the text lines, to the ``--output`` file or to stdout."""
    if args.fmt == "json":
        text = json.dumps(record, sort_keys=True)
    elif args.fmt == "csv":
        text = csv_text
    else:
        text = "\n".join(lines)
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- examples ----------------------------------------------------------------


def _check(name: str, check: str, expected: object, actual: object, tol: float = 0.0) -> dict:
    """One examples check: a bool passes when it equals ``expected``, a
    number when it lies within ``tol`` of it."""
    if isinstance(expected, bool):
        passed = actual == expected
    else:
        passed = abs(actual - expected) <= tol
    return {"name": name, "check": check, "expected": expected, "actual": actual, "passed": bool(passed)}


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max())


def _examples_checks(tol: float) -> list[dict]:
    pair = two_delocalized_fermions()
    n_block = negativity(pair, ordering=ModeOrdering.canonical(pair.system)).value
    n_mixed = negativity(pair, ordering=entangling_ordering()).value
    physical_ok = all(c.matches_fermionic for c in ordering_scan(pair, tol=tol) if c.contains_physical)

    witness = parity_violating_state()
    kept_first = qubit_route_reduction(witness, ModeOrdering(("a", "b")))
    traced_first = qubit_route_reduction(witness, ModeOrdering(("b", "a")))
    gap = trace_distance(kept_first.matrix, traced_first.matrix)
    several_classes = len(ordering_scan(witness, tol=tol)) >= 2

    bell = occupation_bell_state()
    bell_diff = _max_abs_diff(fermionic_partial_trace(bell).matrix, maximally_mixed_matrix(2))
    n_bell = negativity(bell, ordering=ModeOrdering.canonical(bell.system)).value

    singlet = spin_singlet_state()
    kept_target = one_particle_mixed_matrix(ModeSystem.from_blocks(("uA", "dA")))
    kept_diff = _max_abs_diff(fermionic_partial_trace(singlet).matrix, kept_target)
    flipped = BipartitionSpec(kept=("uR", "dR"), traced=("uA", "dA"))
    traced_target = one_particle_mixed_matrix(ModeSystem.from_blocks(("uR", "dR")))
    traced_diff = _max_abs_diff(fermionic_partial_trace(singlet, flipped).matrix, traced_target)
    n_singlet = negativity(singlet, ordering=ModeOrdering.canonical(singlet.system)).value

    sign_system = ModeSystem.from_blocks(("a",), ("c",))
    forward = from_operator_string(OperatorString.parse("a+ c+"), sign_system).amplitude("11")
    reversed_ = from_operator_string(OperatorString.parse("c+ a+"), sign_system).amplitude("11")
    # both amplitudes are at most 1 in size, so half their difference is -1
    # exactly when a+ c+ gives +1 and c+ a+ gives -1
    flip = float(((reversed_ - forward) / 2).real)

    return [
        _check("two-delocalized-fermions", "ssr", True, ssr_compliant(pair)),
        _check("two-delocalized-fermions", "negativity[a,b,c,d]", 0.0, n_block, tol),
        _check("two-delocalized-fermions", "negativity[a,d,b,c]", 0.5, n_mixed, DERIVED_VALUE_TOL),
        _check("two-delocalized-fermions", "physical-class-matches-fermionic", True, physical_ok),
        _check("parity-violating-state", "ssr", False, ssr_compliant(witness)),
        _check("parity-violating-state", "route-gap[a,b vs b,a]", 0.5, gap, DERIVED_VALUE_TOL),
        _check("parity-violating-state", "ordering-classes>=2", True, several_classes),
        _check("occupation-bell", "marginal-maximally-mixed", 0.0, bell_diff, tol),
        _check("occupation-bell", "negativity[A,R]", 0.5, n_bell, DERIVED_VALUE_TOL),
        _check("spin-singlet", "ssr", True, ssr_compliant(singlet)),
        _check("spin-singlet", "kept-marginal-one-particle-mixed", 0.0, kept_diff, tol),
        _check("spin-singlet", "traced-marginal-one-particle-mixed", 0.0, traced_diff, tol),
        _check("spin-singlet", "negativity[uA,dA,uR,dR]", 0.5, n_singlet, DERIVED_VALUE_TOL),
        _check("operator-sign", "reversed-product-flips-sign", -1.0, flip),
    ]


def cmd_examples(args: argparse.Namespace, tol: float) -> int:
    checks = _examples_checks(tol)
    passed = all(c["passed"] for c in checks)
    lines = [
        f"{'PASS' if c['passed'] else 'FAIL'} {c['name']} {c['check']} "
        f"expected={c['expected']!r} actual={c['actual']!r}"
        for c in checks
    ]
    lines.append(f"examples: {sum(c['passed'] for c in checks)}/{len(checks)} checks passed")
    _report(args, {"checks": checks, "passed": passed}, lines)
    return 0 if passed else 1


# --- theorem sweep -----------------------------------------------------------


def cmd_theorem_sweep(args: argparse.Namespace, tol: float) -> int:
    n, m = args.modes
    result = theorem_sweep(n, m, trials=args.trials, seed=args.seed, tol=tol)
    record = {
        "rows": [r.as_record() for r in result.rows],
        "maxEntryDiff": result.max_entry_diff,
        "tol": result.tol,
        "passed": result.passed,
    }
    lines = [
        f"theorem sweep: modes=({n},{m}) trials={args.trials} per sector seed={args.seed}",
        f"max entry diff over {len(result.rows)} trials = {result.max_entry_diff!r}",
        f"PASS (tolerance {result.tol!r})"
        if result.passed
        else f"FAIL (tolerance {result.tol!r}); worst seed = {result.worst_seed}",
    ]
    _report(args, record, lines, result.to_csv())
    return 0 if result.passed else 1


# --- ordering scan -----------------------------------------------------------


def _resolve_system(args: argparse.Namespace) -> ModeSystem:
    if args.modes is not None and (args.kept or args.traced):
        args.parser.error("give either --kept/--traced or --modes n,m, not both")
    if args.kept or args.traced:
        if not (args.kept and args.traced):
            args.parser.error("--kept and --traced must be given together")
        return ModeSystem.from_blocks(args.kept, args.traced)
    if args.modes is None:
        args.parser.error("give either --kept/--traced or --modes n,m")
    return sweep_system(*args.modes)


def _resolve_state(args: argparse.Namespace, system: ModeSystem):
    if args.state:
        return state_from_spec(args.state, system)
    if args.state_json:
        with open(args.state_json, "r", encoding="utf-8") as fh:
            state = state_from_json_str(fh.read(), a_count=system.a_count)
        if state.system.modes != system.modes:
            args.parser.error(
                f"state file modes {state.system.modes} do not match --kept/--traced {system.modes}"
            )
        return state
    return None


def cmd_ordering_scan(args: argparse.Namespace, tol: float) -> int:
    system = _resolve_system(args)
    state = _resolve_state(args, system)
    if state is None:
        state = random_state(system, sector=args.sector, seed=args.seed)
        source = f"random sector={args.sector} seed={args.seed}"
    else:
        source = "explicit state"
    _check_scan_size(system)
    # the scan runs on the density, not the pure state: the pure path's
    # maxEntryDiff differs in the last digits, and reports are pinned
    rho = state.to_density()
    classes = ordering_scan(rho, tol=tol)
    ssr = ssr_compliant(rho)
    violation = ssr and any(c.contains_physical and not c.matches_fermionic for c in classes)
    rows = [c.to_json() for c in classes]
    record = {
        "modes": list(system.modes),
        "kept": list(system.a_labels),
        "state": source,
        "ssr": ssr,
        "classes": rows,
        "violation": violation,
    }
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows({**r, "representative": " ".join(r["representative"])}.values() for r in rows)
    lines = [
        f"ordering scan: modes={','.join(system.modes)} "
        f"kept={','.join(system.a_labels)} ({source})",
        f"ssr compliant: {ssr}",
        f"ordering classes: {len(classes)}",
    ]
    for i, c in enumerate(classes):
        lines.append(
            f"class {i}: representative=({','.join(c.representative.labels)}) size={c.size} "
            f"physical={c.contains_physical} matchesFermionic={c.matches_fermionic} "
            f"maxEntryDiff={c.max_entry_diff!r}"
        )
    if violation:
        lines.append("FAIL: a physical ordering disagrees with the fermionic trace on an SSR state")
    _report(args, record, lines, buf.getvalue())
    return 1 if violation else 0


# --- negativity --------------------------------------------------------------


def cmd_negativity(args: argparse.Namespace, tol: float) -> int:
    system = _resolve_system(args)
    state = _resolve_state(args, system)
    if state is None:
        args.parser.error("negativity needs --state or --state-json")
    ordering = ModeOrdering(args.ordering)
    result = negativity(state, ordering=ordering)
    ssr = ssr_compliant(state)
    bp = result.bipartition
    lines = [
        f"negativity = {result.value!r}",
        f"ordering = {','.join(ordering.labels)}",
        f"bipartition = kept {','.join(bp.kept)} | traced {','.join(bp.traced)}",
        f"ssr = {ssr}",
    ]
    _report(args, {**result.to_json(), "ssr": ssr}, lines)
    return 0


# --- entry point -------------------------------------------------------------


def _add_report_options(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    p.add_argument("--format", dest="fmt", choices=formats, default="text")
    p.add_argument("--output", help="write the report to a file instead of stdout")


def _add_state_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--modes", type=_modes_arg, metavar="N,M")
    p.add_argument("--kept", type=_labels_arg, metavar="LABELS")
    p.add_argument("--traced", type=_labels_arg, metavar="LABELS")
    given = p.add_mutually_exclusive_group()
    given.add_argument("--state", help="inline state, e.g. '0.5: a+ c+; 0.5: b+ c+'")
    given.add_argument("--state-json", help="path to a JSON state file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermiorder",
        description="Fermionic mode algebra: ordering-dependent reductions and entanglement measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("examples", help="run the named example states against their expected values")
    p.set_defaults(run=cmd_examples)
    _add_report_options(p, ("text", "json"))

    p = sub.add_parser("theorem-sweep", help="compare the two reduction routes on random superselected states")
    p.set_defaults(run=cmd_theorem_sweep)
    p.add_argument("--modes", type=_modes_arg, required=True, metavar="N,M")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_report_options(p, ("text", "json", "csv"))

    # the two state commands check their options after parsing and keep
    # their own parser, so those usage errors print the subcommand's usage
    p = sub.add_parser("ordering-scan", help="group all mode orderings by the reduced state they produce")
    p.set_defaults(run=cmd_ordering_scan, parser=p)
    _add_state_options(p)
    p.add_argument("--sector", choices=("even", "odd", "any"), default="even")
    p.add_argument("--seed", type=int, default=0)
    _add_report_options(p, ("text", "json", "csv"))

    p = sub.add_parser("negativity", help="negativity of a state under an explicit mode ordering")
    p.set_defaults(run=cmd_negativity, parser=p)
    _add_state_options(p)
    p.add_argument("--ordering", type=_labels_arg, required=True, metavar="LABELS")
    _add_report_options(p, ("text", "json"))
    return parser


def main(argv: Union[Sequence[str], None] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, _tolerance())
    except (ValueError, OSError) as exc:
        print(f"fermiorder: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
