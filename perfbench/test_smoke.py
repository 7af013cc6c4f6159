"""Smoke test for the benchmark: every workload at minimal size, fixed seed.

    python3 perfbench/test_smoke.py
    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs for one second untraced and once traced.  A run must
pass its own correctness checks and print exactly the metric names that
BENCHMARK.json declares (``end_to_end`` untraced, ``per_layer`` traced),
each with its declared unit.  The test also checks that layer_map.json
covers every workload and per-layer metric, that the mpmath references
agree with direct summation of the series definitions, and that the
benchmark fails without printing a result when the library sources are
missing.  Takes under a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SKEWLOG_MAX_TERMS", None)
    return env


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, env=_env(), timeout=300)


def _check_run(workload: str, trace: int) -> None:
    proc = _run(workload, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 \
            or result["attempted"] < 1:
        raise AssertionError(f"{workload} trace={trace}: {result}")
    declared = {m["name"]: m["unit"]
                for m in BENCH["per_layer" if trace else "end_to_end"]}
    printed = result["metrics"]
    missing = sorted(set(declared) - set(printed))
    undeclared = sorted(set(printed) - set(declared))
    if missing or undeclared:
        raise AssertionError(f"{workload} trace={trace}: missing {missing}, "
                             f"undeclared {undeclared}")
    for name, m in printed.items():
        if set(m) != {"value", "unit"} or m["unit"] != declared[name]:
            raise AssertionError(f"{workload}: {name} printed as {m}")
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            raise AssertionError(f"{workload}: {name} = {m['value']!r}")


def test_workloads_print_declared_metrics():
    for w in BENCH["workloads"]:
        for trace in (0, 1):
            _check_run(w["name"], trace)


def test_layer_map_covers_benchmark():
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    names = {w["name"] for w in BENCH["workloads"]}
    if set(layer_map["workloads"]) != names:
        raise AssertionError("layer_map workloads differ from BENCHMARK.json")
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    if set(layer_map["moves"]) != per_layer:
        raise AssertionError("layer_map moves differ from per_layer metrics")
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for target in (t for ts in layer_map["moves"].values() for t in ts):
        workload, _, metric = target.partition(":")
        if workload not in names or metric not in e2e:
            raise AssertionError(f"unknown target {target}")


def test_references_match_series_definitions():
    sys.path.insert(0, str(HERE))
    import reference
    gap = reference.selfcheck()
    if not gap < 1e-25:
        raise AssertionError(f"reference closed forms off by {gap:.3e}")


def test_fails_without_library_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        for trace in (0, 1):
            proc = _run(BENCH["workloads"][0]["name"], trace, cwd=bare)
            if proc.returncode == 0 or proc.stdout.strip():
                raise AssertionError(f"bare run exited {proc.returncode} "
                                     f"printing {proc.stdout!r}")
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
