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
