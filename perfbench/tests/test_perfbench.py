"""Tests of the benchmark itself: its correctness checks, its tracer, and its
output contract. Run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fermiorder
import workloads
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent


def _first_results(name: str, count: int):
    w = workloads.WORKLOADS[name]
    inputs = w.make_inputs(0)[:count]
    return w, inputs, [w.reference(i) for i in inputs], [w.run(i) for i in inputs]


def _flip_pair(matrix: np.ndarray) -> np.ndarray:
    """Flip the sign of one off-diagonal entry and its mirror, which keeps
    the matrix Hermitian."""
    bad = np.array(matrix)
    i, j = np.unravel_index(np.argmax(np.abs(np.triu(bad, 1))), bad.shape)
    bad[i, j], bad[j, i] = -bad[i, j], -bad[j, i]
    return bad


# --- every check passes on real results and fires on corrupted ones ----------


def test_route_check_catches_corruption():
    w, inputs, refs, reports = _first_results("route-check", 2)
    for inp, ref, report in zip(inputs, refs, reports):
        assert w.check(inp, report, ref)
        qubit = report.qubit_route
        bad_sign = SimpleNamespace(fermionic=SimpleNamespace(matrix=_flip_pair(report.fermionic.matrix)),
                                   qubit_route=qubit, agrees=True)
        assert not w.check(inp, bad_sign, ref)
        # both routes corrupted alike: agreement holds, the reference does not
        same = SimpleNamespace(matrix=_flip_pair(report.fermionic.matrix))
        assert not w.check(inp, SimpleNamespace(fermionic=same, qubit_route=same, agrees=True), ref)
        scaled = SimpleNamespace(matrix=1.01 * report.fermionic.matrix)
        assert not w.check(inp, SimpleNamespace(fermionic=scaled, qubit_route=scaled, agrees=True), ref)
        disagree = SimpleNamespace(fermionic=report.fermionic, qubit_route=qubit, agrees=False)
        assert not w.check(inp, disagree, ref)


def test_negativity_catches_corruption():
    w, inputs, refs, results = _first_results("negativity", 4)
    for inp, ref, result in zip(inputs, refs, results):
        assert w.check(inp, result, ref)
        assert not w.check(inp, SimpleNamespace(value=result.value + 1e-8), ref)


def _class_like(c, **changes):
    fields = dict(size=c.size, contains_physical=c.contains_physical,
                  matches_fermionic=c.matches_fermionic, reduced=c.reduced)
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_ordering_scan_catches_corruption():
    w, inputs, refs, results = _first_results("ordering-scan", 4)
    for inp, ref, classes in zip(inputs, refs, results):
        assert w.check(inp, classes, ref)
        short = [_class_like(classes[0], size=classes[0].size - 1)] + list(classes[1:])
        assert not w.check(inp, short, ref)
        k = next(i for i, c in enumerate(classes) if c.contains_physical)
        flipped = SimpleNamespace(matrix=_flip_pair(classes[k].reduced.matrix))
        bad = list(classes)
        bad[k] = _class_like(classes[k], reduced=flipped)
        assert not w.check(inp, bad, ref)
        bad[k] = _class_like(classes[k], matches_fermionic=False)
        assert not w.check(inp, bad, ref)


def test_cli_small_catches_corruption():
    w, inputs, refs, results = _first_results("cli-small", 1)
    inp, ref, out = inputs[0], refs[0], results[0]
    assert w.check(inp, out, ref)
    code, text = out[3]
    changed = list(out)
    changed[3] = (code, text.replace("true", "fals", 1) if "true" in text else text + " ")
    assert not w.check(inp, changed, ref)
    failed = list(out)
    failed[1] = (1, out[1][1])
    assert not w.check(inp, failed, failed)
    passed, total = workloads._EXAMPLES_LINE.search(out[0][1]).groups()
    lost = list(out)
    lost[0] = (0, out[0][1].replace(f"{passed}/{total}", f"{int(passed) - 1}/{total}"))
    assert not w.check(inp, lost, lost)


def test_references_match_the_package():
    inputs = workloads.route_check_inputs(5)
    for state, _, bp in inputs[:4]:
        ref = workloads.kept_first_reduction(state.amplitudes, state.system.modes, bp.kept)
        pkg = fermiorder.fermionic_partial_trace(state, bp).matrix
        assert np.abs(ref - pkg).max() < 1e-12


# --- tracer --------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fake_package():
    """fakepkg.mod defines inner/outer; fakepkg.other re-binds inner by name,
    as ``from .mod import inner`` would."""
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    other = types.ModuleType("fakepkg.other")

    def inner(x):
        clock.now += 2.0
        return x + 1

    def outer(x):
        clock.now += 1.0
        y = mod.inner(x)  # looked up at call time, like a module global
        clock.now += 3.0
        return other.inner(y)

    mod.inner, mod.outer, other.inner = inner, outer, inner
    sys.modules.update({"fakepkg": pkg, "fakepkg.mod": mod, "fakepkg.other": other})
    yield clock, mod, other
    for name in ("fakepkg", "fakepkg.mod", "fakepkg.other"):
        sys.modules.pop(name)


def test_self_time_of_nested_wrappers(fake_package):
    clock, mod, other = fake_package
    tracer = Tracer("fakepkg", {"mod.outer": None, "mod.inner": None}, clock=clock)
    tracer.record_spans = True
    with tracer:
        assert other.inner is not tracer.originals["mod.inner"]
        assert mod.outer(1) == 3
        clock.now += 10.0  # outside every wrapper
        assert other.inner(5) == 6
    assert tracer.stats["mod.outer"].calls == 1
    assert tracer.stats["mod.outer"].self_s == pytest.approx(4.0)
    assert tracer.stats["mod.inner"].calls == 3
    assert tracer.stats["mod.inner"].self_s == pytest.approx(6.0)
    assert tracer.top_level_s == pytest.approx(10.0)
    by_name = {}
    for _, span, parent, name, start, end in tracer.spans:
        by_name.setdefault(name, []).append((span, parent, end - start))
    (outer_span, outer_parent, outer_dur), = by_name["mod.outer"]
    assert outer_parent == 0 and outer_dur == pytest.approx(8.0)
    parents = [parent for _, parent, _ in by_name["mod.inner"]]
    assert parents == [outer_span, outer_span, 0]
    assert mod.inner is tracer.originals["mod.inner"] and other.inner is mod.inner


def test_self_time_survives_an_exception(fake_package):
    clock, mod, _ = fake_package

    def failing(x):
        clock.now += 5.0
        raise ValueError("boom")

    mod.inner = failing
    tracer = Tracer("fakepkg", {"mod.outer": None, "mod.inner": None}, clock=clock)
    with tracer, pytest.raises(ValueError):
        mod.outer(1)
    assert tracer.stats["mod.inner"].self_s == pytest.approx(5.0)
    assert tracer.stats["mod.outer"].self_s == pytest.approx(1.0)
    assert not tracer._stack


def _fingerprint(name, result):
    if name == "route-check":
        return result.fermionic.matrix.tobytes() + result.qubit_route.matrix.tobytes()
    if name == "negativity":
        return repr(result.value)
    if name == "ordering-scan":
        return [(c.size, c.representative.labels, c.reduced.matrix.tobytes()) for c in result]
    return result


def _package_bindings():
    return {
        (mod_name, attr): id(value)
        for mod_name, module in sys.modules.items()
        if mod_name == "fermiorder" or mod_name.startswith("fermiorder.")
        for attr, value in vars(module).items()
        if callable(value)
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracer_leaves_outputs_unchanged(name):
    w = workloads.WORKLOADS[name]
    inputs = w.make_inputs(3)[:3]
    bindings = _package_bindings()
    method = fermiorder.FockVector.to_density
    plain = [_fingerprint(name, w.run(i)) for i in inputs]
    with Tracer() as tracer:
        traced = [_fingerprint(name, w.run(i)) for i in inputs]
    after = [_fingerprint(name, w.run(i)) for i in inputs]
    assert plain == traced == after
    assert sum(s.calls for s in tracer.stats.values()) > 0
    assert _package_bindings() == bindings
    assert fermiorder.FockVector.to_density is method


def test_tracer_reaches_every_alias():
    with Tracer() as tracer:
        orig = tracer.originals["ordering.qubit_image"]
        for module in (fermiorder.ordering, fermiorder.reduction, fermiorder.entanglement, fermiorder):
            assert module.qubit_image is not orig
        assert fermiorder.numerics.hermitian_eigenvalues is not tracer.originals["numerics.hermitian_eigenvalues"]
        assert fermiorder.cli.negativity is not tracer.originals["entanglement.negativity"]
    assert fermiorder.entanglement.qubit_image is orig


# --- output contract -----------------------------------------------------------


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_reports_the_metrics_benchmark_json_names(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _run(["--workload", "cli-small", "--seed", "7", "--seconds", "1", "--trace", trace], ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec[key]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(["--workload", "route-check", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_client_counts_raising_operations_and_checks_as_failed():
    from run import Client, reference_or_none
    from workloads import Workload

    def run_op(x):
        if x == "raise":
            raise ValueError("broken operation")
        return x

    def check(x, result, ref):
        return result + ref == 3  # TypeError when the reference is missing

    def reference(x):
        if x == 2:
            raise ValueError("broken reference")
        return 3 - x

    inputs = [1, "raise", 2, 0]
    w = Workload("fake", lambda seed: inputs, reference, run_op, check)
    client = Client(w, [reference_or_none(w, x) for x in inputs])
    client.inputs = inputs
    client.one_pass()
    assert (client.attempted, client.failed) == (4, 2)


def test_timing_metrics_scale_each_call_by_its_pass():
    from run import timing_metrics

    calls = [(0.3, True, 1.0), (0.1, True, 2.0), (0.2, True, 0.5), (0.4, False, 1.0)]
    metrics = timing_metrics(calls)  # scaled: 0.3, 0.2, 0.1, 0.4
    assert metrics["ops_per_s"]["value"] == pytest.approx(3 / 1.0)
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(250.0)
    assert metrics["latency_p90_ms"]["value"] == pytest.approx(370.0)
    unscaled = timing_metrics(calls, scaled=False)
    assert unscaled["ops_per_s"]["value"] == pytest.approx(3 / 1.0)
    assert unscaled["latency_p50_ms"]["value"] == pytest.approx(250.0)


def test_speed_probe_scale_is_reference_over_probe_time():
    from run import REF_PROBE_MS, SpeedProbe

    probe = SpeedProbe(np)
    seconds = probe()
    assert 0 < seconds < 1
    assert 0 < probe.scale() < 10 * REF_PROBE_MS / 1e3 / seconds
