"""Smoke tests of the scripts under ``tools/``."""

import importlib.util
import os
import re
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_byte_manifest_repeats_in_process(monkeypatch):
    """``byte_manifest.py --quick`` run twice in one process prints the
    same sorted, unique ``id sha256`` lines, errors and CLI output
    included, and leaves ``FERMIORDER_TOL`` as it found it. No hash is
    pinned: the manifest compares two trees on one machine."""
    monkeypatch.setenv("FERMIORDER_TOL", "1e-6")
    manifest = _load("byte_manifest")
    first = manifest.manifest(quick=True)
    assert first == manifest.manifest(quick=True)
    ids = [line.split(" ")[0] for line in first]
    assert ids == sorted(set(ids))
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in first)
    for kind in ("states/", "sweep/", "error/", "cli/"):
        assert any(i.startswith(kind) for i in ids), kind
    assert any(i.endswith("/ppt_separable") and "/split" in i for i in ids)
    assert os.environ["FERMIORDER_TOL"] == "1e-6"


def test_quick_byte_manifest_against_its_own_src_finds_no_difference(capsys):
    """``byte_manifest.py --quick --against`` this tree's own ``src``
    makes the other manifest in a subprocess, prints no id and exits 0."""
    manifest = _load("byte_manifest")
    assert manifest.main(["--quick", "--against", str(TOOLS.parent / "src")]) == 0
    assert capsys.readouterr().out == ""


def test_differing_ids_name_changed_and_lone_lines():
    """An id whose hash changed, or that one manifest alone holds, is
    printed once; an id with equal lines is not."""
    manifest = _load("byte_manifest")
    ours = ["a 00", "b 11", "c 22"]
    theirs = ["a 00", "b 12", "d 33"]
    assert manifest.differing_ids(ours, theirs) == ["b", "c", "d"]
