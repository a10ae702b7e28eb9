"""CLI reports pinned byte for byte against recorded outputs.

Each case runs ``cli.main`` in-process with ``FERMIORDER_TOL`` unset and
compares stdout, and the file that ``--output`` writes, with
``tests/golden/<name>.txt``. The files hold reports from a known-good
commit, so a rewrite of a reduction route or a measure that moves any
printed digit fails here, not only one that breaks a check.
"""

from pathlib import Path

import pytest

from fermiorder.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "examples": ("examples",),
    "examples-json": ("examples", "--format", "json"),
    "theorem-sweep-3-3": (
        "theorem-sweep", "--modes", "3,3", "--trials", "10", "--seed", "7", "--format", "csv",
    ),
    "theorem-sweep-4-4": ("theorem-sweep", "--modes", "4,4", "--trials", "25", "--seed", "3"),
    "theorem-sweep-4-4-json": (
        "theorem-sweep", "--modes", "4,4", "--trials", "25", "--seed", "3", "--format", "json",
    ),
    "ordering-scan-2-3": (
        "ordering-scan", "--modes", "2,3", "--sector", "any", "--seed", "4", "--format", "json",
    ),
    "ordering-scan-csv": (
        "ordering-scan", "--modes", "2,3", "--sector", "odd", "--seed", "5", "--format", "csv",
    ),
    "ordering-scan-inline": (
        "ordering-scan", "--kept", "a,b", "--traced", "c,d",
        "--state", "0.3j: ; 0.5: a+ c+; -0.4: b+ c+; 0.35: a+ d+; 0.2+0.1j: b+ d+; 0.25: a+ b+ c+ d+",
    ),
    "negativity-readme": (
        "negativity",
        "--state", "0.5: a+ c+; 0.5: a+ d+; 0.5: b+ c+; 0.5: b+ d+",
        "--kept", "a,b", "--traced", "c,d", "--ordering", "a,d,b,c", "--format", "json",
    ),
    "negativity-text": (
        "negativity",
        "--state", "0.3j: ; 0.5: a+ c+; -0.4: b+ c+; 0.35: a+ d+; 0.2+0.1j: b+ d+; 0.25: a+ b+ c+ d+",
        "--kept", "a,b", "--traced", "c,d", "--ordering", "b,c,a,d",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("FERMIORDER_TOL", raising=False)
    assert main(list(CASES[name])) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_file_matches_golden(name, capsys, monkeypatch, tmp_path):
    """``--output`` writes exactly the bytes the report prints to stdout."""
    monkeypatch.delenv("FERMIORDER_TOL", raising=False)
    target = tmp_path / "report.txt"
    assert main([*CASES[name], "--output", str(target)]) == 0
    assert capsys.readouterr() == ("", "")
    assert target.read_bytes() == (GOLDEN_DIR / f"{name}.txt").read_bytes()


def test_reports_match_golden_back_to_back(capsys, monkeypatch):
    """Every pinned report still matches when all the commands run one after
    another in one process, twice over, on the one parser it builds."""
    monkeypatch.delenv("FERMIORDER_TOL", raising=False)
    for name in sorted(CASES) * 2:
        assert main(list(CASES[name])) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
