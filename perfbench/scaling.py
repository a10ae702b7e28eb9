#!/usr/bin/env python3
"""Size-scaling report: wall time and peak bytes of four paths by mode count.

Usage, from the repository root:

    python3 perfbench/scaling.py

This is a report beside the gated workloads, not one of them. Each path runs
once per size on a random even pure state with the canonical split (N // 2
kept modes first), from 4 modes towards ``MAX_MODES``:

- ``fermionic_partial_trace`` and ``qubit_route_reduction`` of the state
- ``negativity`` of the state under the canonical ordering
- ``ordering_scan`` of the state

A path stops at the first size whose call takes longer than ``BUDGET_S``,
and that size is recorded as not reached. A size whose time, extrapolated
from the last two sizes, would pass two budgets, or whose
dense density operator would pass ``DENSITY_CAP`` bytes, is recorded as not
reached without being attempted. Peak bytes are the ``tracemalloc`` peak of
a second call, made only when the first took under half the budget.

The report is printed and written to ``.perfbench-out/scaling.json``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
import tracemalloc

from run import OUT_DIR, calibrate, cap_blas_threads, import_package

#: Per-call wall-time budget, seconds.
BUDGET_S = 2.0
#: Largest dense density operator (complex128, 2^N x 2^N) a size may need.
DENSITY_CAP = 64 * 2**20


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> int:
    cap_blas_threads()
    fo = import_package()
    import numpy as np

    from workloads import labelled_system, random_amplitudes

    max_modes = fo.fock.MAX_MODES
    paths = {
        "fermionic_partial_trace": lambda s, o, bp: fo.reduction.fermionic_partial_trace(s, bp),
        "qubit_route_reduction": lambda s, o, bp: fo.reduction.qubit_route_reduction(s, o, bp),
        "negativity": lambda s, o, bp: fo.entanglement.negativity(s, bp, o),
        "ordering_scan": lambda s, o, bp: fo.reduction.ordering_scan(s, bp),
    }
    rng = np.random.default_rng(0)
    states = {}
    for n in range(4, max_modes + 1):
        system = labelled_system(n // 2, n - n // 2)
        states[n] = (
            fo.FockVector(system, random_amplitudes(rng, n, "even")),
            fo.ModeOrdering.canonical(system),
            system.bipartition(),
        )

    report = {
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
            "processor": platform.machine(),
            "calibration_ms": calibrate(np),
        },
        "budget_s": BUDGET_S,
        "density_cap_bytes": DENSITY_CAP,
        "paths": {},
    }
    for name, path in paths.items():
        rows, history, stopped = [], [], None
        for n in range(4, max_modes + 1):
            row = {"modes": n}
            rows.append(row)
            density_bytes = 16 * 4**n
            if stopped:
                row.update(reached=False, reason="not attempted: a smaller size was not reached")
                continue
            if density_bytes > DENSITY_CAP:
                stopped = f"dense density needs {density_bytes} bytes, cap {DENSITY_CAP}"
            elif len(history) >= 2:
                predicted = history[-1] * max(history[-1] / history[-2], 2.0)
                if predicted > 2 * BUDGET_S:
                    stopped = f"extrapolated {predicted:.1f} s per call, over budget"
            if stopped:
                row.update(reached=False, reason=stopped)
                continue
            call = lambda: path(*states[n])  # noqa: E731
            try:
                wall = _timed(call)
            except fo.SystemTooLargeError as exc:
                stopped = f"{type(exc).__name__}: {exc}"
                row.update(reached=False, reason=stopped)
                continue
            history.append(wall)
            row["wall_s"] = wall
            if wall > BUDGET_S:
                stopped = f"{wall:.2f} s per call at {n} modes, over budget"
                row.update(reached=False, reason=stopped)
                continue
            row["reached"] = True
            row["peak_bytes"] = _peak_bytes(call) if wall < BUDGET_S / 2 else None
        report["paths"][name] = rows
        print(name, [(r["modes"], round(r.get("wall_s", -1), 4)) for r in rows], file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    text = json.dumps(report, indent=1)
    (OUT_DIR / "scaling.json").write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
