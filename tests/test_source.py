"""Static checks on the package source."""

import ast
import importlib
from pathlib import Path

import fermiorder

PACKAGE_DIR = Path(fermiorder.__file__).parent


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports, with their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, including those inside quoted annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


def test_modules_use_every_import():
    """Each module other than the re-exporting ``__init__`` reads every name
    it imports."""
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in _imported_names(tree).items()
            if name not in used
        ]
    assert not unused, f"unused imports: {unused}"


def test_all_lists_every_reexport():
    """``__all__`` names exactly what ``__init__`` imports from the modules."""
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(imported) == len(set(imported))
    assert sorted(fermiorder.__all__) == sorted(imported)


def test_traced_benchmark_targets_resolve():
    """Every function the benchmark's tracer wraps still exists on the
    package, so a simplification cannot silently drop a traced layer."""
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text())
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS"
    )
    targets = [ast.literal_eval(key) for key in table.keys]
    assert targets
    missing = []
    for target in targets:
        module, *attrs = target.split(".")
        obj = importlib.import_module(f"fermiorder.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(target)
    assert not missing, f"traced targets no longer on the package: {missing}"


def _cache_name(decorator: ast.expr) -> str | None:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    if isinstance(target, ast.Attribute):
        return target.attr
    return getattr(target, "id", None)


def test_every_cache_is_bounded():
    """Each ``lru_cache`` or ``cache`` in the package is a module-level
    function whose cache has a finite ``maxsize``, read off the live cache,
    so no cache grows with the inputs it is called on."""
    found, unbounded = [], []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = importlib.import_module(
            "fermiorder" if path.stem == "__init__" else f"fermiorder.{path.stem}"
        )
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not any(_cache_name(d) in ("lru_cache", "cache") for d in node.decorator_list):
                continue
            name = f"{path.name}:{node.name}"
            found.append(name)
            cached = getattr(module, node.name, None) if node in tree.body else None
            maxsize = getattr(cached, "cache_parameters", dict)().get("maxsize")
            if not isinstance(maxsize, int):
                unbounded.append(name)
    assert {
        "ordering.py:_pair_table",
        "fock.py:_parity_vector",
        "fock.py:_parity_indices",
        "reduction.py:_permutations",
        "reduction.py:_scan_plan",
        "reduction.py:_route_plan",
    } <= set(found)
    assert not unbounded, f"caches without a finite maxsize: {unbounded}"


RESOLVER = "_bipartition_positions"


def test_one_bipartition_resolver():
    """``reduction._bipartition_positions`` is the one reader of a
    bipartition: in the modules that reduce and measure across one, no code
    looks up a mode position by label and no other function calls
    ``validate_for``, so a second resolver cannot come back unnoticed."""
    offending, resolver_checks = [], 0
    for name in ("reduction.py", "entanglement.py"):
        tree = ast.parse((PACKAGE_DIR / name).read_text(), filename=name)
        inside = {
            id(node)
            for func in tree.body
            if isinstance(func, ast.FunctionDef) and func.name == RESOLVER
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr == "validate_for" and id(node) in inside:
                resolver_checks += 1
            elif node.func.attr in ("position", "validate_for"):
                offending.append(f"{name}:{node.lineno} .{node.func.attr}(")
    assert resolver_checks == 1
    assert not offending, f"bipartition read outside {RESOLVER}: {offending}"


def _density_calls(node: ast.AST) -> list[str]:
    """The calls under ``node`` of ``DensityOperator`` itself or of one of
    its attributes, by name, each once per call."""
    calls = [inner.func for inner in ast.walk(node) if isinstance(inner, ast.Call)]
    return [
        "DensityOperator" if isinstance(f, ast.Name) else f.attr
        for f in calls
        if getattr(f, "id", None) == "DensityOperator"
        or isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "DensityOperator"
    ]


def test_scan_wraps_class_matrices_without_the_constructor():
    """``reduction.ordering_scan`` calls neither ``DensityOperator(...)``
    nor ``DensityOperator._checked``: its class matrices are checked as a
    stack, and ``OrderingClass.reduced`` is the one place in
    ``reduction.py`` that wraps one, by ``_checked``, when it is first read.
    So neither the per-class constructor, which checks and copies each
    matrix again, nor a wrapper per class built whether it is read or not
    can come back unnoticed."""
    tree = ast.parse((PACKAGE_DIR / "reduction.py").read_text(), filename="reduction.py")
    scan = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "ordering_scan"
    )
    assert _density_calls(scan) == []
    functions = [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)] + [
        (f"{c.name}.{f.name}", f)
        for c in tree.body
        if isinstance(c, ast.ClassDef)
        for f in c.body
        if isinstance(f, ast.FunctionDef)
    ]
    wrapped = {name: _density_calls(f).count("_checked") for name, f in functions}
    # ``theorem_check`` wraps its two route matrices, which are no class's
    assert {name: n for name, n in wrapped.items() if n} == {"theorem_check": 2, "OrderingClass.reduced": 1}


def test_fermionic_reduction_conjugates_no_whole_state():
    """In ``reduction.py`` only ``_qubit_reduction``, which conjugates a
    dk x dk reduction by the kept block's signs, and ``ordering_scan``,
    which derives orbit matrices from reductions, call ``_sign_conjugate``,
    once each: the scan derives its orbits' matrices by one rule, and the
    fermionic trace hands its signs to ``_block_partial_trace``, which
    conjugates a density's traced-diagonal slab instead, so a conjugation
    of the whole density, or a second derivation rule in the scan, cannot
    come back unnoticed."""
    tree = ast.parse((PACKAGE_DIR / "reduction.py").read_text(), filename="reduction.py")
    assert sorted(_callers(tree, "_sign_conjugate")) == ["_qubit_reduction", "ordering_scan"]
    assert "fermionic_partial_trace" in _callers(tree, "_block_partial_trace")


def _calls_of(tree: ast.AST, name: str) -> list[ast.Call]:
    """The calls of ``name`` under ``tree``, as a bare name or as an
    attribute."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def _callers(tree: ast.Module, name: str) -> list[str]:
    """The module-level functions whose bodies call ``name``, once per call."""
    return [func.name for func in tree.body if isinstance(func, ast.FunctionDef) for _ in _calls_of(func, name)]


def test_one_qubit_route_in_reduction():
    """``reduction.py`` runs the block trace only where a state is reduced:
    in the fermionic trace of the public call, of the comparison and of the
    scan, in the qubit route and in the public qubit trace. It restricts an
    ordering only in the public qubit trace, and signs orderings by
    ``_inversion_signs`` in one call in the scan, for its group heads, and
    one in its plan, for the members the plan checks against them: the
    scan and the comparison both go through ``_qubit_reduction``, which
    reads the kept block's signs off the ordering's own, so a second inline
    route or a second sign computation cannot come back unnoticed."""
    tree = ast.parse((PACKAGE_DIR / "reduction.py").read_text(), filename="reduction.py")
    assert sorted(_callers(tree, "_block_partial_trace")) == [
        "_compare_routes",
        "_qubit_reduction",
        "fermionic_partial_trace",
        "ordering_scan",
        "qubit_partial_trace",
    ]
    assert _callers(tree, "restricted_to") == ["qubit_partial_trace"]
    assert _callers(tree, "_inversion_signs") == ["_scan_plan", "ordering_scan"]
    assert "ordering_scan" in _callers(tree, "_qubit_reduction")
    assert "_compare_routes" in _callers(tree, "_qubit_reduction")


def test_one_block_trace():
    """``np.einsum`` is called only by ``fock._trace_view``, which views a
    density's traced-diagonal slab, and ``fock._block_partial_trace``,
    which sums it: every reduction and ``ppt_separable``'s marginals read a
    state across a split through those two, so a second block trace
    cannot come back unnoticed."""
    found = sorted(
        f"{path.stem}.{getattr(node, 'name', node.lineno)}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
        for _ in _calls_of(node, "einsum")
    )
    assert found == ["fock._block_partial_trace", "fock._trace_view"]


ENTRY_POINTS = ("fermionic_partial_trace", "qubit_partial_trace", "ordering_scan", "theorem_check", "theorem_sweep")


def test_route_comparisons_read_one_plan():
    """In ``reduction.py`` only ``_route_plan`` resolves a split
    (``_bipartition_positions``) and reads a sign vector
    (``ordering_sign_vector``), and every entry point that reduces, the
    two public traces, the scan, the checker and the sweep, reads its split
    through it; ``theorem_check`` and ``theorem_sweep`` are the callers of
    ``_compare_routes``. So a second resolution of a split, per call or
    beside the plan, or a second comparison path, cannot come back
    unnoticed."""
    tree = ast.parse((PACKAGE_DIR / "reduction.py").read_text(), filename="reduction.py")
    assert sorted(_callers(tree, "_compare_routes")) == ["theorem_check", "theorem_sweep"]
    assert sorted(_callers(tree, "_route_plan")) == sorted(ENTRY_POINTS)
    for name in ("_bipartition_positions", "ordering_sign_vector"):
        assert set(_callers(tree, name)) == {"_route_plan"}


def test_scan_plan_builds_every_grouping_with_one_formula():
    """``reduction._scan_plan`` has no ``if`` statement on the parity
    verdict: one flip rule builds the precedence groups, the column orbits
    and the row-and-column orbits, so a per-grouping branch cannot come
    back unnoticed."""
    tree = ast.parse((PACKAGE_DIR / "reduction.py").read_text(), filename="reduction.py")
    plan = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_scan_plan"
    )
    branches = [
        node.lineno
        for node in ast.walk(plan)
        if isinstance(node, ast.If)
        and any(isinstance(name, ast.Name) and name.id == "parity" for name in ast.walk(node.test))
    ]
    assert not branches, f"_scan_plan branches on parity at lines {branches}"


EIGENSOLVERS = ("eigh", "eigvalsh", "_eigh", "hermitian_eigenvalues", "trace_norm")


def test_route_comparison_diagonalizes_only_through_trace_distances():
    """``reduction.py`` reaches an eigensolver only through
    ``_trace_distances``, called once in ``_compare_routes``, so the
    exactly-zero difference of agreeing routes skips the eigensolve on
    every path; and the physical rule, ``ordering._kept_first``, which
    ``_route_plan`` alone calls, reads the split's label blocks: neither
    the call nor the rule builds a ``ModeSystem`` for them."""
    tree = ast.parse((PACKAGE_DIR / "reduction.py").read_text(), filename="reduction.py")
    solved = [f"{name} in {caller}" for name in EIGENSOLVERS for caller in _callers(tree, name)]
    assert not solved, f"reduction.py calls an eigensolver directly: {solved}"
    assert _callers(tree, "_trace_distances") == ["_compare_routes"]
    assert _callers(tree, "_kept_first") == ["_route_plan"]
    ordering = ast.parse((PACKAGE_DIR / "ordering.py").read_text(), filename="ordering.py")
    (rule,) = [f for f in ordering.body if isinstance(f, ast.FunctionDef) and f.name == "_kept_first"]
    for node in [rule, *_calls_of(tree, "_kept_first")]:
        for name in ("ModeSystem", "from_blocks"):
            assert not _calls_of(node, name), f"the physical rule builds a ModeSystem at line {node.lineno}"


def test_no_module_multiplies_in_place():
    """No package module multiplies an array in place (``*=``), so every
    sign conjugation goes through ``fock._sign_conjugate`` and a second,
    in-place copy of it cannot come back unnoticed."""
    offending = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult)
    ]
    assert not offending, f"in-place multiplication at {offending}"


def _is_hermitization(node: ast.AST) -> bool:
    """Whether ``node`` is ``0.5 * (x + <something of x.conj()>)``."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and isinstance(node.left, ast.Constant)
        and node.left.value == 0.5
        and isinstance(node.right, ast.BinOp)
        and isinstance(node.right.op, ast.Add)
        and any(isinstance(inner, ast.Attribute) and inner.attr == "conj" for inner in ast.walk(node.right))
    )


def test_one_exact_hermitization():
    """The exact Hermitization ``0.5 * (m + m.conj()...)`` is written once,
    as the body of ``numerics._hermitize``, which every caller that
    Hermitizes goes through."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _is_hermitization(node)
    ]
    tree = ast.parse((PACKAGE_DIR / "numerics.py").read_text())
    (hermitize,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_hermitize"]
    assert found == [f"numerics.py:{hermitize.body[-1].lineno}"]


def test_one_draw_of_a_random_state():
    """``np.random.default_rng`` is called in the package only by
    ``fock._draw_amplitudes``, the one routine that draws a state's
    amplitudes: the ordering scan draws nothing, since its plan checks its
    groups at sign level rather than on sampled orderings.
    ``theorem_sweep`` draws through that routine into its stacks and calls
    neither ``random_state`` nor ``np.stack``, so a second draw, or a
    ``FockVector`` per trial stacked again, cannot come back unnoticed."""
    found = sorted(
        f"{path.stem}.{getattr(node, 'name', node.lineno)}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
        for _ in _calls_of(node, "default_rng")
    )
    assert found == ["fock._draw_amplitudes"]
    fock = ast.parse((PACKAGE_DIR / "fock.py").read_text(), filename="fock.py")
    assert _callers(fock, "_draw_amplitudes") == ["random_state"]
    tree = ast.parse((PACKAGE_DIR / "reduction.py").read_text(), filename="reduction.py")
    assert _callers(tree, "_draw_amplitudes") == ["theorem_sweep"]
    for name in ("random_state", "stack"):
        assert "theorem_sweep" not in _callers(tree, name), name


def test_one_chunk_rule():
    """``_STACK_BYTES`` is read in the package only by ``fock._stack_runs``,
    the one rule that cuts a stacked evaluation into runs of items within
    the budget, and ``ssr_compliant``, the sweep, the check of the scan's
    plan and both loops of the ordering scan iterate over it, so a chunk
    rule written by hand, or an import of the budget to write one, cannot
    come back unnoticed."""
    found = sorted(
        f"{path.stem}.{getattr(node, 'name', node.lineno)}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
        for read in ast.walk(node)
        if (isinstance(read, ast.Name) and read.id == "_STACK_BYTES" and isinstance(read.ctx, ast.Load))
        or (isinstance(read, ast.Attribute) and read.attr == "_STACK_BYTES")
        or (isinstance(read, ast.alias) and read.name == "_STACK_BYTES")
    )
    assert found == ["fock._stack_runs"]
    fock = ast.parse((PACKAGE_DIR / "fock.py").read_text(), filename="fock.py")
    assert _callers(fock, "_stack_runs") == ["ssr_compliant"]
    tree = ast.parse((PACKAGE_DIR / "reduction.py").read_text(), filename="reduction.py")
    assert sorted(_callers(tree, "_stack_runs")) == ["_scan_plan", "ordering_scan", "ordering_scan", "theorem_sweep"]
