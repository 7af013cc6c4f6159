"""Dependency guard: the library imports only the standard library (and
loads no numpy), its lower layers import none of the upper ones, the
tests never import the tools that generate reference data, and every name
the benchmark's tracer wraps exists."""

import ast
import importlib
import importlib.util
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


def _child(code, *argv):
    """stdout of code run by a clean interpreter on the tree's sources."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("SKEWLOG_MAX_TERMS", None)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          check=True, capture_output=True, text=True).stdout


def test_import_loads_no_numpy():
    # a clean interpreter: neither the package nor the CLI pulls numpy in
    out = _child("import sys, skewlog, skewlog.cli; "
                 "print('numpy' in sys.modules)")
    assert out.strip() == "False"


#: The modules series_engine loads only when a call needs them.
_LAZY = {"skewlog.c_sums", "skewlog.mu_split", "skewlog.polylog"}


def test_near_rule_waits_for_a_near_call():
    # which of _LAZY each path loads in a fresh interpreter: an interior
    # sum, plain or at mu = 1 (in the band too), none; every series at
    # t = +-1 c_sums, whose near rule builds the shared Lerch values once
    # and no polylog;
    # MU_DILOG's and MU_LEWIN's forward split mu_split; the first call in
    # the band c_sums, building the shared values and its own c-sum tables
    # only
    head = ("from skewlog import series_engine as se\n"
            "from skewlog.catalog import SERIES\n")
    interior = (
        "se.sum_series(se.SeriesId.SKEW_SQ, -0.9899)\n"
        "for sid in (se.SeriesId.MU_DILOG, se.SeriesId.MU_LEWIN,\n"
        "            se.SeriesId.MU_TRILOG):\n"
        "    for t in (0.5, -0.9, 0.995):\n"
        "        se.sum_series(sid, t, mu=1.0)\n")
    ends = (
        "for sid in se.SeriesId:\n"
        "    for t in SERIES[sid.name].domain.ends:\n"
        "        if abs(t) == 1.0:\n"
        "            se.sum_series(sid, t)\n"
        "from skewlog.c_sums import _lerch_values\n"
        "info = _lerch_values.cache_info()\n"
        "assert (info.misses, info.currsize) == (1, 1), info\n")
    forward = (
        "for sid in (se.SeriesId.MU_DILOG, se.SeriesId.MU_LEWIN):\n"
        "    r = se.sum_series(sid, -0.896, 1e-8, mu=0.338)\n"
        "    assert r.terms_used < 20, r\n")
    band = (
        "se.sum_series(se.SeriesId.SKEW_SQ, 0.995)\n"
        "from skewlog import c_sums as cs\n"
        "sizes = (cs._lerch_values.cache_info().currsize,\n"
        "         cs._near_table.cache_info().currsize)\n"
        "assert sizes == (1, 2), sizes\n")
    for code, expected in ((interior, set()), (ends, {"skewlog.c_sums"}),
                           (forward, {"skewlog.mu_split"}),
                           (band, {"skewlog.c_sums"})):
        loaded = set(_child(_LOADED.format(head + code)).split())
        assert loaded & _LAZY == expected, code


def test_no_dataclasses():
    src = sorted((ROOT / "src" / "skewlog").glob("*.py"))
    assert [(f, m) for p in src for f, m in _imports(p)
            if m == "dataclasses"] == []


#: Modules a child loaded, beyond those its interpreter started with.
_LOADED = "import sys; before = set(sys.modules)\n{}\n" \
    "print(' '.join(sorted(set(sys.modules) - before)))"


def test_bare_import_loads_no_library_module():
    loaded = _child(_LOADED.format("import skewlog")).split()
    assert sorted(m for m in loaded if m.startswith("skewlog")) == [
        "skewlog", "skewlog._version"]


#: The modules that compute: listing the catalogs or reading a report
#: loads none of them.
_NUMERICS = {f"skewlog.{m}" for m in (
    "core_numerics", "polylog", "series_engine", "c_sums", "mu_split",
    "closed_forms", "quadrature", "verifier")}


def test_cli_verbs_load_only_what_they_use():
    # the CLI run as python -m would run it, its own output sent to stderr
    run_cli = ("import runpy\nsys.argv = ['skewlog', *sys.argv[1:]]\n"
               "sys.stdout, out = sys.stderr, sys.stdout\ntry:\n"
               "    runpy.run_module('skewlog.cli', run_name='__main__')\n"
               "except SystemExit as exc:\n    assert exc.code == 0\n"
               "sys.stdout = out")
    # the report writers' and readers' modules load only with a report
    writers = {"dataclasses", "json", "csv", "array", "datetime"}
    heavy = writers | {"skewlog.verifier", "skewlog.quadrature"}
    # each verb's marker module shows that it ran
    for argv, marker, banned in (
            (["constants"], "skewlog.core_numerics", heavy),
            # the polylog coefficients are built without fractions
            (["eval", "li2", "--x", "0.5"], "skewlog.polylog",
             heavy | {"fractions"}),
            (["list"], "skewlog.catalog", writers | _NUMERICS),
            (["verify", "--id", "EQ2"], "skewlog.verifier", writers),
            # an interior sum loads none of the lazy modules, an end sum
            # only c_sums
            (["eval", "series", "--id", "GF_SKEW", "--t", "0.5"],
             "skewlog.series_engine", heavy | _LAZY),
            (["eval", "series", "--id", "CENTERED_SQ", "--t", "1"],
             "skewlog.c_sums", heavy | _LAZY - {"skewlog.c_sums"})):
        loaded = set(_child(_LOADED.format(run_cli), *argv).split())
        assert marker in loaded, argv
        assert loaded & banned == set(), argv


def test_parse_report_loads_no_numerics():
    from skewlog import IdentityId, Report, Verdict, VerificationRecord
    from skewlog.report import serialize_report, summarize

    records = [VerificationRecord(IdentityId.EQ4, (("t", 1.0),), -0.5, -0.5,
                                  0.0, 1e-9, Verdict.PASS)]
    report = Report(records, summarize(records), {"version": "x"}, ["a"])
    parse = ("from skewlog import parse_report\n"
             "for fmt, text in zip(('json', 'csv'), sys.argv[1:]):\n"
             "    assert len(parse_report(text, fmt).records) == 1\n")
    texts = [serialize_report(report, fmt).decode() for fmt in ("json", "csv")]
    loaded = set(_child(_LOADED.format(parse), *texts).split())
    assert "skewlog.report" in loaded
    assert loaded & _NUMERICS == set()


def test_lazy_namespace_resolves_every_name():
    out = _child(
        "import skewlog\n"
        "mod = skewlog.series_engine\n"  # no explicit submodule import
        "assert mod.__name__ == 'skewlog.series_engine'\n"
        "names = {}\n"
        "exec('from skewlog import *', names)\n"
        "missing = [n for n in skewlog.__all__ if n not in names]\n"
        "assert missing == [], missing\n"
        "assert set(skewlog.__all__) <= set(dir(skewlog))\n"
        "try:\n    skewlog.no_such_name\n"
        "except AttributeError:\n    print('ok')\n")
    assert out.strip() == "ok"


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
    upper = {"series_engine", "c_sums", "mu_split", "verifier", "cli"}
    lower = {"polylog", "closed_forms", "quadrature"}
    # the catalog and the report form build on nothing that computes
    forms = {"catalog", "report"}
    # the package, its version, errors, results and core numerics build on
    # one another only
    base = {"__init__", "_version", "errors", "result", "core_numerics"}
    # a new module must join a class, or it would pass unchecked
    assert {p.stem for p in src.glob("*.py")} == upper | lower | forms | base
    for name in lower:
        assert set(_skewlog_imports(src / f"{name}.py")) & upper == set(), name
    for name in base:
        assert set(_skewlog_imports(src / f"{name}.py")) <= base, name
    assert set(_skewlog_imports(src / "catalog.py")) == set()
    assert set(_skewlog_imports(src / "report.py")) == {"catalog"}


#: Imported names a module keeps without reading them: the verifier
#: re-exports these two for the benchmark, which reads them off it.
_REEXPORTS = {"verifier.py": {"parse_report", "serialize_report"}}


def test_every_imported_name_is_read():
    # the lint: each name a library module binds by an import (but
    # __future__'s) is read in that module, or listed in its __all__
    unread = []
    for path in sorted((ROOT / "src" / "skewlog").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound, read, exported = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                bound |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                exported |= {c.value for c in ast.walk(node.value)
                             if isinstance(c, ast.Constant)}
        unread += [f"{path.name}: {name}" for name in sorted(
            bound - read - exported - _REEXPORTS.get(path.name, set()))]
    assert unread == []


def test_traced_boundary_names_resolve():
    # the benchmark's tracer wraps each name of its BOUNDARY on its layer's
    # module; a name the library drops must fail here, not only in traced
    # benchmark runs
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert set(tracing.BOUNDARY) == set(tracing.LAYERS)
    missing = [f"{layer}.{name}"
               for layer, names in tracing.BOUNDARY.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"skewlog.{layer}"), name, None))]
    assert missing == []
