"""Layering of the package: its modules import each other at module level, without a cycle."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "slhkit"


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _relative_imports(tree):
    """Sibling modules named by every relative import, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.split(".")[0])
            else:  # from . import a, b
                names.update(alias.name for alias in node.names)
    return names


def test_intra_package_import_graph_is_acyclic():
    modules = _modules()
    graph = {name: _relative_imports(tree) & modules.keys()
             for name, tree in modules.items()}
    assert graph["adiabatic"]  # the walk sees the package's imports
    # one limit route in the library; the Stratonovich cross-check is a test oracle
    assert "stratonovich" not in graph["adiabatic"]
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail("import cycle: " + " <- ".join(exc.args[1]))


def test_no_module_imports_inside_a_function():
    for name, tree in _modules().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = [node.lineno for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
                assert not nested, f"{name}.{func.name} imports at lines {nested}"


# the checks whose tolerance the command line's --tol (or SLHKIT_TOL) sets
_TOL_RECEIVERS = {"model.validate", "model.ValidationReport.passed",
                  "adiabatic.AssumptionReport.passed", "adiabatic.limit_slh",
                  "adiabatic._require_assumptions"}


def _functions(tree, prefix):
    """(qualified name, node) of every function; methods are named under their class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}.{node.name}", node
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _functions(node, f"{prefix}.{node.name}")


def test_one_default_tolerance_and_no_other_tolerance_parameters():
    receivers = set()
    for name, tree in _modules().items():
        if name != "operators":  # operators.DEFAULT_TOL is the one default
            literals = [node.lineno for node in ast.walk(tree)
                        if isinstance(node, ast.Constant)
                        and isinstance(node.value, float) and node.value == 1e-9]
            assert not literals, f"{name} writes 1e-9 at lines {literals}"
        if name == "cli":  # its commands read the --tol option itself
            continue
        for qualname, func in _functions(tree, name):
            a = func.args
            params = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
            if params & {"tol", "cond_limit"}:
                assert qualname in _TOL_RECEIVERS, f"{qualname} takes {params}"
                receivers.add(qualname)
    assert receivers == _TOL_RECEIVERS  # the walk sees every --tol receiver


# the two functions whose results need an explicit inverse: the blocks of an
# inverse, and the Stratonovich guard that reads max|(S + 1)^-1|
_INVERSE_CALLERS = {"reduction.block_inverse", "stratonovich.ito_to_stratonovich"}


def _calls(node, where):
    """(qualified name of the enclosing function, class or module, call) of every call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _calls(child, f"{where}.{child.name}")
            continue
        if isinstance(child, ast.Call):
            yield where, child
        yield from _calls(child, where)


def _callee(call):
    """The called name: f of f(...) and of x.f(...)."""
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def test_no_route_forms_an_inverse_only_to_multiply_it():
    callers = set()
    for name, tree in _modules().items():
        for where, call in _calls(tree, name):
            if _callee(call) == "inverse":
                callers.add(where)
            if _callee(call) == "lu_solve":
                eye = [arg for arg in call.args + [kw.value for kw in call.keywords]
                       if isinstance(arg, ast.Call) and _callee(arg) == "eye"]
                assert not eye, f"{where} solves against an identity at line {call.lineno}"
    assert callers == _INVERSE_CALLERS  # solve with the factor a route holds instead
