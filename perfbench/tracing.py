"""Per-layer timing of a package from outside it, by wrapping its functions.

The package binds names with ``from .x import y``, so one function can be
reachable through several module attributes (``fermiorder.reduction.
qubit_image`` and ``fermiorder.entanglement.qubit_image`` are the same
object). ``Tracer.install`` therefore replaces every attribute, in every
loaded module of the package, that holds a traced function, and
``Tracer.remove`` puts the originals back. No package file is edited.

Each wrapper keeps a call count and a self time: the call's duration minus
the time spent in wrapped calls made from inside it. Spans (name, start,
end, parent) are kept in memory while ``record_spans`` is set and are
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0
    extra: dict = field(default_factory=dict)


def _observe_eigen(stat: LayerStat, args: tuple, kwargs: dict, result) -> None:
    dim = int(args[0].shape[0]) if args else int(kwargs["m"].shape[0])
    extra = stat.extra
    extra["dim_max"] = max(extra.get("dim_max", 0), dim)
    # computed, not counted: the Jacobi sweep costs O(dim^3) per sweep
    extra["dim3_sum"] = extra.get("dim3_sum", 0) + dim**3
    extra["residual_max"] = max(extra.get("residual_max", 0.0), float(result.residual))


#: Extra statistics a hook records: name -> (unit, reported per operation).
EXTRAS = {
    "numerics.hermitian_eigenvalues": {
        "dim_max": ("dim", False),
        "dim3_sum": ("dim3/op", True),
        "residual_max": ("abs", False),
    }
}

#: Traced entry points, as "<module>.<function>" or "<module>.<Class>.<method>"
#: under the package, with an optional hook that records extra statistics.
TARGETS: dict[str, Optional[Callable]] = {
    "fock.FockVector.to_density": None,
    "fock.ssr_compliant": None,
    "fock.state_from_terms": None,
    "ordering.ordering_sign_vector": None,
    "ordering.qubit_image": None,
    "ordering.inverse_image_restricted": None,
    "ordering.is_physical": None,
    "reduction.fermionic_partial_trace": None,
    "reduction.qubit_partial_trace": None,
    "reduction.qubit_route_reduction": None,
    "reduction.theorem_check": None,
    "reduction.theorem_sweep": None,
    "reduction.ordering_scan": None,
    "entanglement.negativity": None,
    "entanglement.partial_transpose": None,
    "numerics.hermitian_eigenvalues": _observe_eigen,
    "numerics.trace_norm": None,
    "numerics.trace_distance": None,
    "states.state_from_spec": None,
    "cli.main": None,
}


class Tracer:
    """Installs timing wrappers on a package's functions and removes them."""

    def __init__(
        self,
        package: str = "fermiorder",
        targets: Optional[dict[str, Optional[Callable]]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.package = package
        self.targets = TARGETS if targets is None else targets
        self.clock = clock
        self.stats = {name: LayerStat() for name in self.targets}
        self.top_level_s = 0.0
        self.record_spans = False
        self.op_id = 0
        #: (op_id, span_id, parent_span_id, name, start, end); parent 0 = none
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.originals: dict[str, object] = {}
        self._stack: list[list] = []
        self._next_span = 1
        self._patches: list[tuple[object, str, object]] = []

    def _modules(self) -> list:
        prefix = self.package + "."
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def _resolve(self, target: str) -> tuple[object, str, object]:
        module_name, *path = target.split(".")
        owner = sys.modules[f"{self.package}.{module_name}"]
        for part in path[:-1]:
            owner = getattr(owner, part)
        return owner, path[-1], getattr(owner, path[-1])

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        for target, observe in self.targets.items():
            owner, attr, original = self._resolve(target)
            self.originals[target] = original
            wrapper = self._wrap(target, original, observe)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)

    def remove(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        stat = self.stats[name]
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_span
            self._next_span += 1
            frame = [0.0, span_id]  # [time in wrapped children, span id]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.self_s += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.top_level_s += duration
                if self.record_spans:
                    self.spans.append((self.op_id, span_id, parent, name, start, end))
            if observe is not None:
                observe(stat, args, kwargs, result)
            return result

        return wrapper
