#!/usr/bin/env python3
"""Closed-loop benchmark of the fermiorder package, one workload per process.

Usage, from the repository root:

    python3 perfbench/run.py --workload route-check --seed 1 --seconds 20 --trace 0

One client keeps one request in flight: it calls the package, checks the
result against a reference computed at set-up, and only then sends the
next input. The package is imported from ``src/`` next to this directory.

``--trace 0`` reports the end-to-end metrics over every timed call. On a
shared host, other load can slow a CPU by up to 2x, for seconds or for
minutes (measured on a 2-vCPU virtual machine), so every time is scaled to a
reference machine speed: a fixed speed probe runs before each call, and the
call's time is multiplied by ``REF_PROBE_MS`` over the probe's time.
Set-up is repeated before each of equal slices of the timed phase, so its
median, too, spans the whole run.

``--trace 1`` spends half the time untraced and half with per-layer
wrappers installed (see tracing.py), and reports per-layer self time and
call counts per operation, the tracing overhead, a tracemalloc peak and the
machine-speed calibration. The last line of standard output is always the
JSON result; a line before it holds details that are reported but not gated
(sample counts, unscaled times, calibration).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

from tracing import EXTRAS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

#: Set-up is repeated this many times, each with a fresh import and cold
#: package caches, one before each slice of the timed phase, and its median
#: reported, so that a slow spell of the machine does not move ``setup_s``.
SETUP_REPEATS = 5

#: The speed probe's median time before a call on the reference machine
#: (the 2-vCPU virtual machine of WORKLOADS.md), ms. Scaled times read as if
#: every call ran at that speed.
REF_PROBE_MS = 3.9

_TIMED_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import fermiorder; print(time.perf_counter() - start)"
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cap_blas_threads() -> None:
    """One BLAS thread, set before numpy loads: the workloads' matrices are
    small, and extra threads would only add scheduling noise."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_package():
    """Import fermiorder from this checkout's src/ and nowhere else."""
    if not (SRC / "fermiorder" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import fermiorder

    if Path(fermiorder.__file__).resolve().parent != SRC / "fermiorder":
        raise SystemExit(f"perfbench: imported fermiorder from {fermiorder.__file__}, not {SRC}")
    return fermiorder


def fresh_import_s() -> float:
    """Seconds a new interpreter spends importing fermiorder (numpy included),
    as every CLI process does."""
    out = subprocess.run(
        [sys.executable, "-c", _TIMED_IMPORT, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


def _clear_package_caches(package) -> None:
    """Empty every lru_cache in the package, as a fresh process would have."""
    for name, module in list(sys.modules.items()):
        if name == package.__name__ or name.startswith(package.__name__ + "."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def calibrate(np) -> float:
    """Milliseconds for a fixed pure-numpy loop; median of five repeats.

    Reported beside each run and never gated, so a change of machine speed
    can be told apart from a change of code.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
    h = a + a.conj().T
    times = []
    for _ in range(5):
        start = time.perf_counter()
        x = h
        for _ in range(200):
            x = x @ h
            x = x / np.abs(x).max()
        np.linalg.eigvalsh(x + x.conj().T)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


class SpeedProbe:
    """A fixed mix of the package's three kinds of work, with no package code
    in it: interpreter loops, products of small matrices, and a signed row
    gather over a 1 MiB complex matrix. About 3.9 ms on the reference
    machine.

    ``scale()`` runs it twice and times the second run, whose caches hold
    the probe's own data whatever ran before it; it returns the factor that
    brings a time measured right after it to the reference speed.
    """

    def __init__(self, np):
        self.np = np
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self.big = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self.rows = rng.permutation(256)
        self.signs = rng.choice([-1.0, 1.0], 256)

    def __call__(self) -> float:
        start = time.perf_counter()
        total, table = 0, {}
        for i in range(6000):
            table[i & 63] = total
            total += i * i % 7
        x = self.matrix
        for _ in range(150):
            x = x @ self.matrix
            x = x / self.np.abs(x).max()
        out = self.np.zeros_like(self.big)
        out[self.rows, :] = self.signs[:, None] * self.big[self.rows, :]
        return time.perf_counter() - start

    def scale(self) -> float:
        self()
        return REF_PROBE_MS / 1e3 / self()


class Client:
    """One closed-loop client: call, time, check, then the next input."""

    def __init__(self, workload, refs):
        self.workload = workload
        self.inputs = []
        self.refs = refs
        self.attempted = 0
        self.failed = 0

    def call(self, i: int) -> tuple[float, bool]:
        """Run input ``i`` and check it; returns (call seconds, correct).

        An operation that raises, or whose result makes the check raise,
        counts as failed and the loop goes on. The first such traceback goes
        to stderr.
        """
        w = self.workload
        self.attempted += 1
        start = time.perf_counter()
        latency = None
        try:
            result = w.run(self.inputs[i])
            latency = time.perf_counter() - start
            ok = bool(w.check(self.inputs[i], result, self.refs[i]))
        except Exception:
            if latency is None:
                latency = time.perf_counter() - start
            if not self.failed:
                traceback.print_exc()
            ok = False
        self.failed += not ok
        return latency, ok

    def one_pass(self) -> None:
        for i in range(len(self.inputs)):
            self.call(i)

    def run_for(self, seconds: float, probe: SpeedProbe, calls: list[tuple[float, bool, float]]) -> None:
        """Cycle over the inputs for ``seconds``, appending (call seconds,
        correct, speed scale) of each call to ``calls``. Every pass runs the
        inputs in the same order, each right after the probe; the last pass
        may stop early."""
        deadline = time.perf_counter() + seconds
        while True:
            for i in range(len(self.inputs)):
                scale = probe.scale()
                calls.append((*self.call(i), scale))
                if time.perf_counter() >= deadline:
                    return


def reference_or_none(workload, inp):
    """The workload's set-up reference for one input. None when computing it
    raises (cli-small's reference is the package's own output), which then
    fails every check of that input."""
    try:
        return workload.reference(inp)
    except Exception:
        traceback.print_exc()
        return None


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timing_metrics(calls: list[tuple[float, bool, float]], scaled: bool = True) -> dict:
    """ops_per_s and latency p50/p90 over (call seconds, correct, speed
    scale) triples; with ``scaled``, each call's time is multiplied by its
    scale first.

    ops_per_s is correct calls per second of summed call time.
    """
    latencies = [t * s if scaled else t for t, _, s in calls]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(calls) > 1 else latencies[0]
    return {
        "ops_per_s": _metric(sum(ok for _, ok, _ in calls) / sum(latencies), "1/s"),
        "latency_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": _metric(p90 * 1e3, "ms"),
    }


def _setup(package, client, seed: int) -> tuple[float, float]:
    """One timed set-up: a fresh import, then, with cold caches, input
    generation and a first checked pass. Returns (import, rest) seconds."""
    import_s = fresh_import_s()
    _clear_package_caches(package)
    start = time.perf_counter()
    client.inputs = client.workload.make_inputs(seed)
    client.one_pass()
    return import_s, time.perf_counter() - start


def _layer_metrics(tracer, ops: int) -> dict:
    """Per-layer statistics, divided by the operations traced where they
    accumulate, so they do not grow with the speed of the code."""
    metrics = {}
    for name, stat in tracer.stats.items():
        metrics[f"{name}.calls"] = _metric(stat.calls / ops, "calls/op")
        metrics[f"{name}.self_s"] = _metric(stat.self_s / ops, "s/op")
        for key, (unit, per_op) in EXTRAS.get(name, {}).items():
            value = stat.extra.get(key, 0)
            metrics[f"{name}.{key}"] = _metric(value / ops if per_op else value, unit)
    return metrics


def _trace_run(package, client, probe: SpeedProbe, plain: list, seconds: float, seed: int, workload_name: str) -> dict:
    """Untraced then traced halves, then one tracemalloc pass; per-layer
    metrics. The untraced calls are appended to ``plain``."""
    client.run_for(seconds / 2, probe, plain)
    plain_rate = len(plain) / sum(t for t, _, _ in plain)

    sign_cache = package.ordering.ordering_sign_vector
    before = sign_cache.cache_info()
    tracer = Tracer(package.__name__)
    op_times = []  # (latency, time inside top-level wrappers) per operation
    with tracer:
        deadline = time.perf_counter() + seconds / 2
        tracer.record_spans = True  # spans of the first pass only, to bound memory
        while True:
            for i in range(len(client.inputs)):
                tracer.op_id += 1
                wrapped_before = tracer.top_level_s
                latency, _ = client.call(i)
                op_times.append((latency, tracer.top_level_s - wrapped_before))
            tracer.record_spans = False
            if time.perf_counter() >= deadline:
                break
    after = sign_cache.cache_info()
    ops = len(op_times)
    traced_rate = ops / sum(t for t, _ in op_times)

    tracemalloc.start()
    client.one_pass()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    metrics = _layer_metrics(tracer, ops)
    prefix = "ordering.ordering_sign_vector"
    metrics[f"{prefix}.cache_hits"] = _metric((after.hits - before.hits) / ops, "hits/op")
    metrics[f"{prefix}.cache_misses"] = _metric((after.misses - before.misses) / ops, "misses/op")
    metrics[f"{prefix}.cache_entries"] = _metric(after.currsize, "count")
    metrics["trace.unattributed_s"] = _metric(sum(t - w for t, w in op_times) / ops, "s/op")
    metrics["trace.overhead"] = _metric(plain_rate / traced_rate, "x")
    metrics["mem.peak_alloc_mb"] = _metric(peak / 2**20, "MB")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload_name}-seed{seed}.json"
    spans_path.write_text(
        json.dumps(
            {
                "columns": ["op", "span", "parent", "name", "start_s", "end_s"],
                "spans": tracer.spans,
            }
        )
    )
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    cap_blas_threads()
    package = import_package()
    import numpy as np

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    calib_before = calibrate(np)
    probe = SpeedProbe(np)

    client = Client(workload, [reference_or_none(workload, inp) for inp in workload.make_inputs(args.seed)])
    calls = []
    if args.trace:
        setups = [_setup(package, client, args.seed)]
        metrics = _trace_run(package, client, probe, calls, args.seconds, args.seed, args.workload)
        unscaled = None
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            setups.append(_setup(package, client, args.seed))
            client.run_for(args.seconds / SETUP_REPEATS, probe, calls)
        metrics = timing_metrics(calls)
        metrics["peak_rss_mb"] = _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        # set-ups are spread over the run, so the run's median scale fits them
        setup_s = statistics.median(a + b for a, b in setups)
        metrics["setup_s"] = _metric(setup_s * statistics.median(s for _, _, s in calls), "s")
        unscaled = {k: v["value"] for k, v in timing_metrics(calls, scaled=False).items()}
        unscaled["setup_s"] = setup_s
    calib_after = calibrate(np)
    if args.trace:
        metrics["calib.before_ms"] = _metric(calib_before, "ms")
        metrics["calib.after_ms"] = _metric(calib_after, "ms")

    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "client": "closed loop, 1 client, 1 request in flight",
                "timed_calls": len(calls),
                "error_rate": client.failed / client.attempted,
                "unscaled": unscaled,
                "speed_scale_median": statistics.median(s for _, _, s in calls) if calls else None,
                "setup_repeats_s": [{"import": a, "inputs_and_first_pass": b} for a, b in setups],
                "calibration_ms": {"before": calib_before, "after": calib_after},
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": client.failed == 0,
                "attempted": client.attempted,
                "failed": client.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
