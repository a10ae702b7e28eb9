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
