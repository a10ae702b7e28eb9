"""Command-line interface: worked examples, sweeps, scans, and measures.

Every report is deterministic for a given seed and flag set, and every
entanglement number is printed next to the ordering and bipartition that
produced it. Exit codes: 0 on success, 1 when a checked property fails,
2 on usage or size-limit errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .fock import (
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
    SystemTooLargeError,
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


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation parameters shared by the subcommands."""

    seed: int
    trials: int
    modes: Union[tuple[int, int], None]
    output: Union[str, None]
    fmt: str
    tol: float


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
    if n < 0 or m < 0 or n + m < 1 or n + m > 14:
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


def _emit(text: str, output: Union[str, None]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_report(obj: object) -> str:
    return json.dumps(obj, sort_keys=True)


# --- examples ----------------------------------------------------------------


def _check(name: str, check: str, expected: object, actual: object, ok: bool) -> dict:
    return {"name": name, "check": check, "expected": expected, "actual": actual, "passed": bool(ok)}


def _close(actual: float, expected: float, tol: float) -> bool:
    return abs(actual - expected) <= tol


def _examples_checks(tol: float) -> list[dict]:
    checks: list[dict] = []

    pair = two_delocalized_fermions()
    system = pair.system
    block_ordering = ModeOrdering.canonical(system)
    mixed_ordering = entangling_ordering()
    checks.append(_check("two-delocalized-fermions", "ssr", True, ssr_compliant(pair), ssr_compliant(pair)))
    n_block = negativity(pair, ordering=block_ordering).value
    checks.append(
        _check("two-delocalized-fermions", "negativity[a,b,c,d]", 0.0, n_block, _close(n_block, 0.0, tol))
    )
    n_mixed = negativity(pair, ordering=mixed_ordering).value
    checks.append(
        _check(
            "two-delocalized-fermions",
            "negativity[a,d,b,c]",
            0.5,
            n_mixed,
            _close(n_mixed, 0.5, DERIVED_VALUE_TOL),
        )
    )
    classes = ordering_scan(pair.to_density(), tol=tol)
    physical_ok = all(c.matches_fermionic for c in classes if c.contains_physical)
    checks.append(
        _check("two-delocalized-fermions", "physical-class-matches-fermionic", True, physical_ok, physical_ok)
    )

    witness = parity_violating_state()
    checks.append(
        _check("parity-violating-state", "ssr", False, ssr_compliant(witness), not ssr_compliant(witness))
    )
    rho = witness.to_density()
    kept_first = qubit_route_reduction(rho, ModeOrdering(("a", "b")))
    traced_first = qubit_route_reduction(rho, ModeOrdering(("b", "a")))
    gap = trace_distance(kept_first.matrix, traced_first.matrix)
    checks.append(
        _check(
            "parity-violating-state",
            "route-gap[a,b vs b,a]",
            0.5,
            gap,
            _close(gap, 0.5, DERIVED_VALUE_TOL),
        )
    )
    witness_classes = ordering_scan(rho, tol=tol)
    checks.append(
        _check(
            "parity-violating-state",
            "ordering-classes>=2",
            True,
            len(witness_classes) >= 2,
            len(witness_classes) >= 2,
        )
    )

    bell = occupation_bell_state()
    reduced = fermionic_partial_trace(bell.to_density())
    mixed_diff = float(np.abs(reduced.matrix - maximally_mixed_matrix(2)).max())
    checks.append(
        _check("occupation-bell", "marginal-maximally-mixed", 0.0, mixed_diff, mixed_diff <= tol)
    )
    n_bell = negativity(bell, ordering=ModeOrdering.canonical(bell.system)).value
    checks.append(
        _check("occupation-bell", "negativity[A,R]", 0.5, n_bell, _close(n_bell, 0.5, DERIVED_VALUE_TOL))
    )

    singlet = spin_singlet_state()
    checks.append(_check("spin-singlet", "ssr", True, ssr_compliant(singlet), ssr_compliant(singlet)))
    srho = singlet.to_density()
    kept_marginal = fermionic_partial_trace(srho)
    kept_target = one_particle_mixed_matrix(ModeSystem.from_blocks(("uA", "dA")))
    kept_diff = float(np.abs(kept_marginal.matrix - kept_target).max())
    checks.append(
        _check("spin-singlet", "kept-marginal-one-particle-mixed", 0.0, kept_diff, kept_diff <= tol)
    )
    flipped = BipartitionSpec(kept=("uR", "dR"), traced=("uA", "dA"))
    traced_marginal = fermionic_partial_trace(srho, flipped)
    traced_target = one_particle_mixed_matrix(ModeSystem.from_blocks(("uR", "dR")))
    traced_diff = float(np.abs(traced_marginal.matrix - traced_target).max())
    checks.append(
        _check("spin-singlet", "traced-marginal-one-particle-mixed", 0.0, traced_diff, traced_diff <= tol)
    )
    n_singlet = negativity(singlet, ordering=ModeOrdering.canonical(singlet.system)).value
    checks.append(
        _check("spin-singlet", "negativity[uA,dA,uR,dR]", 0.5, n_singlet, _close(n_singlet, 0.5, DERIVED_VALUE_TOL))
    )

    sign_system = ModeSystem.from_blocks(("a",), ("c",))
    forward = from_operator_string(OperatorString.parse("a+ c+"), sign_system).amplitude("11")
    reversed_ = from_operator_string(OperatorString.parse("c+ a+"), sign_system).amplitude("11")
    checks.append(
        _check(
            "operator-sign",
            "reversed-product-flips-sign",
            -1.0,
            float(reversed_.real),
            forward == 1.0 and reversed_ == -1.0,
        )
    )
    return checks


def cmd_examples(cfg: RunConfig) -> int:
    checks = _examples_checks(cfg.tol)
    passed = all(c["passed"] for c in checks)
    if cfg.fmt == "json":
        report = _json_report({"checks": checks, "passed": passed})
    else:
        lines = []
        for c in checks:
            status = "PASS" if c["passed"] else "FAIL"
            lines.append(
                f"{status} {c['name']} {c['check']} expected={c['expected']!r} actual={c['actual']!r}"
            )
        done = sum(1 for c in checks if c["passed"])
        lines.append(f"examples: {done}/{len(checks)} checks passed")
        report = "\n".join(lines)
    _emit(report, cfg.output)
    return 0 if passed else 1


# --- theorem sweep -----------------------------------------------------------


def cmd_theorem_sweep(cfg: RunConfig) -> int:
    n, m = cfg.modes
    result = theorem_sweep(n, m, trials=cfg.trials, seed=cfg.seed, tol=cfg.tol)
    if cfg.fmt == "csv":
        report = result.to_csv()
    elif cfg.fmt == "json":
        report = _json_report(
            {
                "rows": [r.as_record() for r in result.rows],
                "maxEntryDiff": result.max_entry_diff,
                "tol": result.tol,
                "passed": result.passed,
            }
        )
    else:
        lines = [
            f"theorem sweep: modes=({n},{m}) trials={cfg.trials} per sector seed={cfg.seed}",
            f"max entry diff over {len(result.rows)} trials = {result.max_entry_diff!r}",
        ]
        if result.passed:
            lines.append(f"PASS (tolerance {result.tol!r})")
        else:
            lines.append(f"FAIL (tolerance {result.tol!r}); worst seed = {result.worst_seed}")
        report = "\n".join(lines)
    _emit(report, cfg.output)
    return 0 if result.passed else 1


# --- ordering scan -----------------------------------------------------------


def _resolve_system(args: argparse.Namespace, parser: argparse.ArgumentParser) -> ModeSystem:
    if args.kept or args.traced:
        if not (args.kept and args.traced):
            parser.error("--kept and --traced must be given together")
        return ModeSystem.from_blocks(args.kept, args.traced)
    if args.modes is None:
        parser.error("give either --kept/--traced or --modes n,m")
    return sweep_system(*args.modes)


def _resolve_state(args: argparse.Namespace, parser: argparse.ArgumentParser, system: ModeSystem):
    if getattr(args, "state", None):
        return state_from_spec(args.state, system)
    if getattr(args, "state_json", None):
        with open(args.state_json, "r", encoding="utf-8") as fh:
            state = state_from_json_str(fh.read(), a_count=system.a_count)
        if state.system.modes != system.modes:
            parser.error(
                f"state file modes {state.system.modes} do not match --kept/--traced {system.modes}"
            )
        return state
    return None


def cmd_ordering_scan(cfg: RunConfig, args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    system = _resolve_system(args, parser)
    state = _resolve_state(args, parser, system)
    if state is None:
        state = random_state(system, sector=args.sector, seed=cfg.seed)
        source = f"random sector={args.sector} seed={cfg.seed}"
    else:
        source = "explicit state"
    rho = state.to_density()
    classes = ordering_scan(rho, tol=cfg.tol)
    ssr = ssr_compliant(rho)
    violation = ssr and any(c.contains_physical and not c.matches_fermionic for c in classes)

    if cfg.fmt == "json":
        report = _json_report(
            {
                "modes": list(system.modes),
                "kept": list(system.a_labels),
                "state": source,
                "ssr": ssr,
                "classes": [c.to_json() for c in classes],
                "violation": violation,
            }
        )
    elif cfg.fmt == "csv":
        lines = ["representative,size,containsPhysical,matchesFermionic,maxEntryDiff"]
        for c in classes:
            rep = " ".join(c.representative.labels)
            lines.append(
                f"{rep},{c.size},{c.contains_physical},{c.matches_fermionic},{c.max_entry_diff!r}"
            )
        report = "\n".join(lines)
    else:
        lines = [
            f"ordering scan: modes={','.join(system.modes)} kept={','.join(system.a_labels)} ({source})",
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
        report = "\n".join(lines)
    _emit(report, cfg.output)
    return 1 if violation else 0


# --- negativity --------------------------------------------------------------


def cmd_negativity(cfg: RunConfig, args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    system = _resolve_system(args, parser)
    state = _resolve_state(args, parser, system)
    if state is None:
        parser.error("negativity needs --state or --state-json")
    ordering = ModeOrdering(args.ordering)
    result = negativity(state, ordering=ordering, tol=cfg.tol)
    ssr = ssr_compliant(state)
    if cfg.fmt == "json":
        payload = result.to_json()
        payload["ssr"] = ssr
        report = _json_report(payload)
    else:
        bp = result.bipartition
        report = "\n".join(
            [
                f"negativity = {result.value!r}",
                f"ordering = {','.join(ordering.labels)}",
                f"bipartition = kept {','.join(bp.kept)} | traced {','.join(bp.traced)}",
                f"ssr = {ssr}",
            ]
        )
    _emit(report, cfg.output)
    return 0


# --- entry point -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermiorder",
        description="Fermionic mode algebra: ordering-dependent reductions and entanglement measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("examples", help="run the named example states against their expected values")
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    p.add_argument("--output", help="write the report to a file instead of stdout")

    p = sub.add_parser("theorem-sweep", help="compare the two reduction routes on random superselected states")
    p.add_argument("--modes", type=_modes_arg, required=True, metavar="N,M")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text")
    p.add_argument("--output")

    p = sub.add_parser("ordering-scan", help="group all mode orderings by the reduced state they produce")
    p.add_argument("--modes", type=_modes_arg, metavar="N,M")
    p.add_argument("--kept", type=_labels_arg, metavar="LABELS")
    p.add_argument("--traced", type=_labels_arg, metavar="LABELS")
    p.add_argument("--state", help="inline state, e.g. '0.5: a+ c+; 0.5: b+ c+'")
    p.add_argument("--state-json", help="path to a JSON state file")
    p.add_argument("--sector", choices=("even", "odd", "any"), default="even")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text")
    p.add_argument("--output")

    p = sub.add_parser("negativity", help="negativity of a state under an explicit mode ordering")
    p.add_argument("--state")
    p.add_argument("--state-json")
    p.add_argument("--kept", type=_labels_arg, metavar="LABELS")
    p.add_argument("--traced", type=_labels_arg, metavar="LABELS")
    p.add_argument("--modes", type=_modes_arg, metavar="N,M")
    p.add_argument("--ordering", type=_labels_arg, required=True, metavar="LABELS")
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    p.add_argument("--output")
    return parser


def main(argv: Union[Sequence[str], None] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        tol = _tolerance()
    except ValueError as exc:
        print(f"fermiorder: {exc}", file=sys.stderr)
        return 2
    cfg = RunConfig(
        seed=getattr(args, "seed", 0),
        trials=getattr(args, "trials", 1),
        modes=getattr(args, "modes", None),
        output=getattr(args, "output", None),
        fmt=getattr(args, "fmt", "text"),
        tol=tol,
    )
    try:
        if args.command == "examples":
            return cmd_examples(cfg)
        if args.command == "theorem-sweep":
            return cmd_theorem_sweep(cfg)
        if args.command == "ordering-scan":
            return cmd_ordering_scan(cfg, args, parser)
        if args.command == "negativity":
            return cmd_negativity(cfg, args, parser)
    except SystemTooLargeError as exc:
        print(f"fermiorder: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"fermiorder: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
