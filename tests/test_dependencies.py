"""Dependency guard: the library imports only the standard library (and
loads no numpy), its lower layers import none of the upper ones, and the
tests never import the tools that generate reference data."""

import ast
import os
import pathlib
import subprocess
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
    allowed = set(sys.stdlib_module_names) | {"skewlog"}
    assert [(f, m) for p in src for f, m in _imports(p) if m not in allowed] == []
    banned = {"mpmath", "scipy", "sympy"}
    assert [(f, m) for p in tests for f, m in _imports(p) if m in banned] == []


def test_import_loads_no_numpy():
    # a clean interpreter: neither the package nor the CLI pulls numpy in
    code = ("import sys, skewlog, skewlog.cli; "
            "print('numpy' in sys.modules)")
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def _skewlog_imports(path):
    """The skewlog modules a library file imports, relative or absolute."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, (
                "skewlog" if node.level else "", node.module)))
            # from skewlog import x (or from . import x) may name a module
            targets = ([f"{module}.{alias.name}" for alias in node.names]
                       if module == "skewlog" else [module])
        else:
            continue
        for name in targets:
            parts = name.split(".")
            if parts[0] == "skewlog" and len(parts) > 1:
                yield parts[1]


def test_layering():
    src = ROOT / "src" / "skewlog"
    upper = {"series_engine", "verifier", "cli"}
    for lower in ("polylog", "closed_forms", "quadrature"):
        assert set(_skewlog_imports(src / f"{lower}.py")) & upper == set(), lower
