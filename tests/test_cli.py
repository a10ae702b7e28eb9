import argparse
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermiorder import cli
from fermiorder.cli import _build_parser, main
from fermiorder.fock import FockVector, state_to_json_str
from fermiorder.reduction import OrderingClass, SweepResult, SweepRow
from fermiorder.states import parse_state_spec, spin_singlet_state

ST1_SPEC = "0.5: a+ c+; 0.5: a+ d+; 0.5: b+ c+; 0.5: b+ d+"
ST3_SPEC = "0.5: ; 0.5: b+; 0.5: a+; 0.5: a+ b+"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("FERMIORDER_TOL", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "fermiorder.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_examples_all_pass():
    proc = run_cli("examples")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
    assert proc.stdout.strip().endswith("checks passed")


def test_examples_json_shape():
    proc = run_cli("examples", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "parity-violating-state" in names
    ssr_checks = [c for c in payload["checks"] if c["check"] == "ssr"]
    assert any(c["actual"] is False for c in ssr_checks)


def test_sweep_deterministic_bytes():
    args = ("theorem-sweep", "--modes", "1,1", "--trials", "5", "--seed", "12", "--format", "json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_sweep_csv_columns():
    proc = run_cli("theorem-sweep", "--modes", "2,2", "--trials", "3", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "seed,n,m,ordering,maxEntryDiff,traceDistance,ssr"
    assert len(lines) == 1 + 6


def test_sweep_rejects_bad_modes():
    proc = run_cli("theorem-sweep", "--modes", "banana")
    assert proc.returncode == 2
    proc = run_cli("theorem-sweep", "--modes", "0,2")
    assert proc.returncode == 2
    assert "out of range" in proc.stderr
    proc = run_cli("ordering-scan", "--modes", "0,3")
    assert proc.returncode == 2
    assert "out of range" in proc.stderr


def test_scan_parity_witness_reports_two_classes():
    proc = run_cli(
        "ordering-scan", "--kept", "a", "--traced", "b", "--state", ST3_SPEC, "--format", "json"
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["ssr"] is False
    assert len(payload["classes"]) == 2


def test_scan_random_even_state_passes():
    proc = run_cli("ordering-scan", "--modes", "2,2", "--sector", "even", "--seed", "5")
    assert proc.returncode == 0
    assert "ordering classes:" in proc.stdout


def test_scan_size_limit_exit_code():
    proc = run_cli("ordering-scan", "--modes", "5,4")
    assert proc.returncode == 2
    assert "exceeds" in proc.stderr


def _forbid_density(monkeypatch):
    def no_density(self):
        raise AssertionError("a 2^N x 2^N density was formed")

    monkeypatch.setattr(FockVector, "to_density", no_density)


def test_size_caps_checked_before_density(monkeypatch, capsys):
    _forbid_density(monkeypatch)
    assert main(["ordering-scan", "--modes", "5,4"]) == 2
    assert "exceeds" in capsys.readouterr().err
    labels = [f"a{i}" for i in range(1, 8)] + [f"c{j}" for j in range(1, 7)]
    argv = ["negativity", "--modes", "7,6", "--state", "1: a1+ c1+", "--ordering", ",".join(labels)]
    assert main(argv) == 2
    assert "exceeds eigensolver cap" in capsys.readouterr().err


def test_sweep_at_fourteen_modes(monkeypatch, capsys):
    _forbid_density(monkeypatch)
    assert main(["theorem-sweep", "--modes", "7,7", "--trials", "1"]) == 0
    assert "PASS" in capsys.readouterr().out




@pytest.mark.parametrize("command", ["theorem-sweep", "ordering-scan"])
def test_negative_seed_is_a_usage_error_naming_the_seed(capsys, command):
    assert main([command, "--modes", "1,1", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "fermiorder: seed must be non-negative, got -1\n"

# No real input makes a checked property fail, so these tests swap each
# command's result for a failing one. The expected bytes are the reports as
# first recorded, so the FAIL lines and exit codes stay pinned.

FAILURE_ARGV = {
    "examples": ["examples"],
    "theorem-sweep": ["theorem-sweep", "--modes", "1,1"],
    "ordering-scan": ["ordering-scan", "--modes", "2,1", "--seed", "1"],
}

FAILURE_REPORTS = {
    ("examples", "text"): (
        "PASS pair ssr expected=True actual=True\n"
        "FAIL pair negativity expected=0.5 actual=0.25\n"
        "examples: 1/2 checks passed\n"
    ),
    ("examples", "json"): (
        '{"checks": [{"actual": true, "check": "ssr", "expected": true, "name": "pair", '
        '"passed": true}, {"actual": 0.25, "check": "negativity", "expected": 0.5, '
        '"name": "pair", "passed": false}], "passed": false}\n'
    ),
    ("theorem-sweep", "text"): (
        "theorem sweep: modes=(1,1) trials=100 per sector seed=0\n"
        "max entry diff over 1 trials = 0.25\n"
        "FAIL (tolerance 1e-12); worst seed = 5\n"
    ),
    ("theorem-sweep", "json"): (
        '{"maxEntryDiff": 0.25, "passed": false, "rows": [{"m": 1, "maxEntryDiff": 0.25, '
        '"n": 1, "ordering": "a1,c1", "seed": 5, "ssr": true, "traceDistance": 0.125}], '
        '"tol": 1e-12}\n'
    ),
    ("theorem-sweep", "csv"): (
        "seed,n,m,ordering,maxEntryDiff,traceDistance,ssr\n"
        '5,1,1,"a1,c1",0.25,0.125,True\n'
    ),
    ("ordering-scan", "text"): (
        "ordering scan: modes=a1,a2,c1 kept=a1,a2 (random sector=even seed=1)\n"
        "ssr compliant: True\n"
        "ordering classes: 2\n"
        "class 0: representative=(a1,a2,c1) size=4 physical=True matchesFermionic=False "
        "maxEntryDiff=0.0\n"
        "class 1: representative=(a1,c1,a2) size=2 physical=False matchesFermionic=False "
        "maxEntryDiff=0.27763215305635325\n"
        "FAIL: a physical ordering disagrees with the fermionic trace on an SSR state\n"
    ),
    ("ordering-scan", "json"): (
        '{"classes": [{"containsPhysical": true, "matchesFermionic": false, '
        '"maxEntryDiff": 0.0, "representative": ["a1", "a2", "c1"], "size": 4}, '
        '{"containsPhysical": false, "matchesFermionic": false, '
        '"maxEntryDiff": 0.27763215305635325, "representative": ["a1", "c1", "a2"], '
        '"size": 2}], "kept": ["a1", "a2"], "modes": ["a1", "a2", "c1"], "ssr": true, '
        '"state": "random sector=even seed=1", "violation": true}\n'
    ),
    ("ordering-scan", "csv"): (
        "representative,size,containsPhysical,matchesFermionic,maxEntryDiff\n"
        "a1 a2 c1,4,True,False,0.0\n"
        "a1 c1 a2,2,False,False,0.27763215305635325\n"
    ),
}


@pytest.mark.parametrize("command, fmt", sorted(FAILURE_REPORTS))
def test_failure_reports_are_pinned(monkeypatch, capsys, command, fmt):
    real_scan = cli.ordering_scan
    monkeypatch.setattr(
        cli,
        "_examples_checks",
        lambda tol: [
            cli._check("pair", "ssr", True, True),
            cli._check("pair", "negativity", 0.5, 0.25, 1e-10),
        ],
    )
    monkeypatch.setattr(
        cli,
        "theorem_sweep",
        lambda *args, **kwargs: SweepResult(
            (SweepRow(5, 1, 1, "a1,c1", 0.25, 0.125, True),), 1e-12
        ),
    )
    monkeypatch.setattr(
        cli,
        "ordering_scan",
        lambda rho, tol: [
            dataclasses.replace(c, matches_fermionic=False) for c in real_scan(rho, tol=tol)
        ],
    )
    monkeypatch.delenv("FERMIORDER_TOL", raising=False)
    assert main([*FAILURE_ARGV[command], "--format", fmt]) == 1
    assert capsys.readouterr().out == FAILURE_REPORTS[command, fmt]


def test_negativity_inline_state():
    proc = run_cli(
        "negativity",
        "--state", ST1_SPEC,
        "--kept", "a,b",
        "--traced", "c,d",
        "--ordering", "a,d,b,c",
        "--format", "json",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert abs(payload["value"] - 0.5) < 1e-9
    assert payload["ordering"] == ["a", "d", "b", "c"]
    assert payload["bipartition"]["kept"] == ["a", "b"]


@pytest.mark.parametrize("scale", ["1e-170", "1e200"])
def test_negativity_of_tiny_and_huge_amplitudes(capsys, scale):
    """A spec whose amplitudes square to 0 or to infinity gives the report
    of the same spec at unit scale, exit 0, with warnings as errors."""
    argv = ["negativity", "--kept", "a", "--traced", "b", "--ordering", "a,b", "--state"]
    assert main([*argv, "1: a+; 1: b+"]) == 0
    unit = capsys.readouterr().out
    assert main([*argv, f"{scale}: a+; {scale}: b+"]) == 0
    assert capsys.readouterr().out == unit


def test_negativity_requires_ordering():
    proc = run_cli("negativity", "--state", ST1_SPEC, "--kept", "a,b", "--traced", "c,d")
    assert proc.returncode == 2


def test_negativity_from_json_file(tmp_path):
    state = spin_singlet_state()
    path = tmp_path / "singlet.json"
    path.write_text(state_to_json_str(state), encoding="utf-8")
    proc = run_cli(
        "negativity",
        "--state-json", str(path),
        "--kept", "uA,dA",
        "--traced", "uR,dR",
        "--ordering", "uA,dA,uR,dR",
    )
    assert proc.returncode == 0
    assert "negativity = 0.4999" in proc.stdout
    assert "ssr = True" in proc.stdout


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"amplitudes": {}}', '"modes" list'),
        ("[1, 2]", '"modes" list'),
        ('{"modes": ["a", "c"], "amplitudes": {"10": ["x", 0]}}', "[re, im] pair"),
        ('{"modes": "ac", "amplitudes": {"10": [1, 0]}}', '"modes" list'),
        ('{"modes": ["a", "c"], "amplitudes": {"10": [1%s, 0]}}' % ("0" * 400), "must be finite"),
    ],
    ids=["no-modes", "top-level-list", "non-numeric-amplitude", "modes-string", "huge-amplitude"],
)
def test_malformed_state_json_is_usage_error(tmp_path, capsys, text, message):
    path = tmp_path / "state.json"
    path.write_text(text, encoding="utf-8")
    argv = ["negativity", "--state-json", str(path), "--kept", "a", "--traced", "c", "--ordering", "a,c"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["ordering-scan", "--kept", "a", "--traced", "b", "--state", "1: c+"],
        ["negativity", "--kept", "a", "--traced", "b", "--state", "1: c+", "--ordering", "a,b"],
    ],
    ids=["ordering-scan", "negativity"],
)
def test_unknown_mode_label_is_usage_error(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err == "fermiorder: mode 'c' not in system ('a', 'b')\n"


@pytest.mark.parametrize("command", ["ordering-scan", "negativity"])
def test_state_json_with_other_modes_is_a_mode_mismatch(tmp_path, capsys, command):
    """A state file with fewer modes than the command's system is reported
    as a mode mismatch in the subcommand's usage, naming the option that
    set the system, not a parameter the user never set."""
    path = tmp_path / "one.json"
    path.write_text('{"modes": ["a"], "amplitudes": {"1": [1.0, 0.0]}}', encoding="utf-8")
    for system_args, named in (
        (["--kept", "a,b", "--traced", "c"], "--kept/--traced ('a', 'b', 'c')"),
        (["--modes", "2,1"], "--modes ('a1', 'a2', 'c1')"),
    ):
        argv = [command, *system_args, "--state-json", str(path)]
        if command == "negativity":
            argv += ["--ordering", "a,b,c"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: fermiorder {command}")
        assert err.endswith(f"fermiorder {command}: error: state file modes ('a',) do not match {named}\n")


def test_deeply_nested_state_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    argv = ["negativity", "--state-json", str(path), "--kept", "a", "--traced", "c", "--ordering", "a,c"]
    assert main(argv) == 2
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["ordering-scan", "--kept", "a"],
        ["negativity", "--kept", "a", "--traced", "b", "--ordering", "a,b"],
    ],
    ids=["ordering-scan", "negativity"],
)
def test_late_usage_errors_print_the_subcommand_usage(capsys, argv):
    """Usage errors found after parsing show the subcommand's usage line,
    as argparse's own errors do."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: fermiorder {argv[0]} ")


@pytest.mark.parametrize(
    "argv",
    [
        ["ordering-scan", "--kept", "a"],
        ["theorem-sweep", "--modes", "0,2"],
        ["negativity", "--kept", "a", "--traced", "b", "--ordering", "a,b"],
        ["no-such-command"],
    ],
    ids=["late-scan", "argparse-sweep", "late-negativity", "unknown-command"],
)
def test_usage_errors_after_a_command_match_a_fresh_process(capsys, monkeypatch, argv):
    """The parser is built once per process and reused. A usage error
    raised after a successful command in the same process prints what a
    fresh process prints, with the same exit code."""
    monkeypatch.delenv("FERMIORDER_TOL", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    fresh = run_cli(*argv)
    assert main(["ordering-scan", "--modes", "2,1", "--seed", "1"]) == 0
    assert _build_parser() is _build_parser()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == fresh.returncode == 2
    assert capsys.readouterr() == ("", fresh.stderr)


_COEFFICIENTS = st.sampled_from(["1", "-0.5", "0.3j", "1+2j", "0", "1e400", "nan", "x", ""])
_OPERATORS = st.sampled_from(["a+", "b+", "a-", "b-", "c+", "c-", "+", "-", ":", "a", "1"])
_INLINE_STATES = st.lists(
    st.builds(
        lambda coeff, colon, ops: coeff + colon + " ".join(ops),
        _COEFFICIENTS,
        st.sampled_from([":", ": ", ""]),
        st.lists(_OPERATORS, max_size=4),
    ),
    max_size=4,
).map("; ".join)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_NUMBERS = st.integers() | st.just(10**400) | st.floats()
_JSON_STATES = st.fixed_dictionaries(
    {
        "modes": st.sampled_from([["a", "b"], ["b", "a"], ["a"], ["a", "c"], ["a", "a"], [], ["a", 1]]),
        "amplitudes": st.dictionaries(
            st.sampled_from(["00", "01", "10", "11", "1", "0x"]),
            st.tuples(_NUMBERS, _NUMBERS).map(list) | st.lists(_NUMBERS | st.text(max_size=1), max_size=3),
            max_size=3,
        ),
    }
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["ordering-scan", "negativity"]),
    spec=_INLINE_STATES,
    doc=st.one_of(_JSON_STATES, _JSON_VALUES),
    from_json=st.booleans(),
)
@example(command="ordering-scan", spec="1: c+", doc=None, from_json=False)
@example(command="negativity", spec="0.5: a+; 0.5: c+", doc=None, from_json=False)
def test_cli_input_never_ends_in_a_traceback(command, spec, doc, from_json):
    """Random inline states and random JSON documents on a two-mode system
    either give a report or a usage error, never an uncaught exception."""
    argv = [command, "--kept", "a", "--traced", "b"]
    if command == "negativity":
        argv += ["--ordering", "a,b"]
    with tempfile.TemporaryDirectory() as tmp:
        if from_json:
            path = os.path.join(tmp, "state.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            argv += ["--state-json", path]
        else:
            argv += ["--state", spec]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 2)


def test_tolerance_env_var_validation():
    proc = run_cli("examples", env_extra={"FERMIORDER_TOL": "not-a-number"})
    assert proc.returncode == 2
    proc = run_cli("examples", env_extra={"FERMIORDER_TOL": "2.0"})
    assert proc.returncode == 2


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "0", "-1", "1"])
def test_tolerance_env_var_outside_the_open_unit_interval(monkeypatch, raw):
    """The CLI refuses the tolerances the library refuses, with its own
    message naming the variable."""
    monkeypatch.setenv("FERMIORDER_TOL", raw)
    with pytest.raises(ValueError, match=rf"^FERMIORDER_TOL must be in \(0, 1\), got {float(raw)}$"):
        cli._tolerance()


def test_tolerance_env_var_applies():
    # an absurdly loose tolerance still passes; a crankily tight one is honored
    proc = run_cli(
        "theorem-sweep", "--modes", "1,1", "--trials", "2",
        env_extra={"FERMIORDER_TOL": "1e-3"},
    )
    assert proc.returncode == 0
    assert "1e-3" in proc.stdout or "0.001" in proc.stdout


def test_output_file_written(tmp_path):
    target = tmp_path / "report.json"
    proc = run_cli(
        "theorem-sweep", "--modes", "1,1", "--trials", "2", "--format", "json",
        "--output", str(target),
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["passed"] is True


def test_main_callable_directly():
    assert main(["theorem-sweep", "--modes", "1,1", "--trials", "1"]) == 0


def test_state_spec_parse_error_exit_code():
    proc = run_cli(
        "negativity", "--state", "0.5 a+", "--kept", "a", "--traced", "b", "--ordering", "a,b"
    )
    assert proc.returncode == 2
    assert "coeff" in proc.stderr or "missing" in proc.stderr
    with pytest.raises(ValueError, match=r"^state specification is empty$"):
        parse_state_spec(" ; ")


# dest: (option strings, type name, default, choices, required)
OPTION_TABLE = {
    "examples": {
        "fmt": (("--format",), None, "text", ("text", "json"), False),
        "output": (("--output",), None, None, None, False),
    },
    "theorem-sweep": {
        "fmt": (("--format",), None, "text", ("text", "json", "csv"), False),
        "modes": (("--modes",), "_modes_arg", None, None, True),
        "output": (("--output",), None, None, None, False),
        "seed": (("--seed",), "int", 0, None, False),
        "trials": (("--trials",), "_positive_int", 100, None, False),
    },
    "ordering-scan": {
        "fmt": (("--format",), None, "text", ("text", "json", "csv"), False),
        "kept": (("--kept",), "_labels_arg", None, None, False),
        "modes": (("--modes",), "_modes_arg", None, None, False),
        "output": (("--output",), None, None, None, False),
        "sector": (("--sector",), None, "even", ("even", "odd", "any"), False),
        "seed": (("--seed",), "int", 0, None, False),
        "state": (("--state",), None, None, None, False),
        "state_json": (("--state-json",), None, None, None, False),
        "traced": (("--traced",), "_labels_arg", None, None, False),
    },
    "negativity": {
        "fmt": (("--format",), None, "text", ("text", "json"), False),
        "kept": (("--kept",), "_labels_arg", None, None, False),
        "modes": (("--modes",), "_modes_arg", None, None, False),
        "ordering": (("--ordering",), "_labels_arg", None, None, True),
        "output": (("--output",), None, None, None, False),
        "state": (("--state",), None, None, None, False),
        "state_json": (("--state-json",), None, None, None, False),
        "traced": (("--traced",), "_labels_arg", None, None, False),
    },
}


def test_option_tables_are_pinned():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    tables = {}
    for command, subparser in sub.choices.items():
        tables[command] = {
            a.dest: (
                tuple(a.option_strings),
                getattr(a.type, "__name__", None),
                a.default,
                None if a.choices is None else tuple(a.choices),
                a.required,
            )
            for a in subparser._actions
            if not isinstance(a, argparse._HelpAction)
        }
    assert tables == OPTION_TABLE


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["negativity", "--state", ST1_SPEC, "--state-json", "unused.json",
             "--kept", "a,b", "--traced", "c,d", "--ordering", "a,b,c,d"],
            "not allowed with argument",
        ),
        (
            ["ordering-scan", "--modes", "1,1", "--kept", "a,b", "--traced", "c,d"],
            "not both",
        ),
        (["theorem-sweep", "--modes", "2"], "expected 'n,m' integers"),
        (["ordering-scan", "--kept", ",", "--traced", "a"], "expected comma-separated labels"),
        (["theorem-sweep", "--modes", "1,1", "--trials", "0"], "must be at least 1"),
        (["ordering-scan"], "give either --kept/--traced or --modes n,m"),
    ],
    ids=["state-and-state-json", "modes-and-kept", "modes-one-number", "kept-no-labels", "trials-zero", "no-split"],
)
def test_conflicting_inputs_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def _forbidden(what):
    def call(*args, **kwargs):
        raise AssertionError(f"a text report built {what}")

    return call


def test_text_reports_build_no_other_format(monkeypatch, capsys):
    """A text report builds only its lines: ``theorem-sweep`` never calls
    ``SweepResult.to_csv``, and ``ordering-scan`` builds no CSV, no JSON
    and no per-class record. The JSON and CSV reports still build theirs."""
    monkeypatch.delenv("FERMIORDER_TOL", raising=False)
    sweep = ("theorem-sweep", "--modes", "2,1", "--trials", "3")
    scan = ("ordering-scan", "--modes", "2,1", "--seed", "3")
    expected = {}
    for argv in (sweep, scan):
        for fmt in ("text", "json", "csv"):
            assert main([*argv, "--format", fmt]) == 0
            expected[argv, fmt] = capsys.readouterr().out
    with monkeypatch.context() as spies:
        spies.setattr(SweepResult, "to_csv", _forbidden("the sweep's CSV"))
        spies.setattr(cli.csv, "writer", _forbidden("a CSV writer"))
        spies.setattr(cli.json, "dumps", _forbidden("a JSON record"))
        spies.setattr(OrderingClass, "to_json", _forbidden("a class record"))
        for argv in (sweep, scan):
            assert main(list(argv)) == 0
            assert capsys.readouterr().out == expected[argv, "text"]
    assert expected[sweep, "csv"].startswith("seed,n,m,ordering,")
    assert expected[scan, "csv"].startswith("representative,")
    assert json.loads(expected[scan, "json"])["classes"]
