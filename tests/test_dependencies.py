"""Dependency guard: the library imports only the standard library and
numpy, and the tests never import the tools that generate reference data."""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _imports(path):
    """(file name, top-level module) for every absolute import in a file,
    including imports inside functions."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield path.name, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield path.name, node.module.split(".")[0]


def test_import_dependencies():
    src = sorted((ROOT / "src" / "skewlog").glob("*.py"))
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert src and tests
    allowed = set(sys.stdlib_module_names) | {"numpy", "skewlog"}
    assert [(f, m) for p in src for f, m in _imports(p) if m not in allowed] == []
    banned = {"mpmath", "scipy", "sympy"}
    assert [(f, m) for p in tests for f, m in _imports(p) if m in banned] == []
