#!/usr/bin/env python3
"""skewlog benchmark runner.

One workload per fresh interpreter, one caller in a closed loop:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify-report, point-eval, endpoint-quad, cli-process (see
BENCHMARK.json and perfbench/layer_map.json for why each exists and which
layers it stresses).  The run imports the library from ``src/`` of the
checkout, sets it up (import plus one warm-up pass; ``setup_s`` and
``peak_rss_mb`` are medians over this process and further fresh children),
fetches mpmath references for its inputs from a child process (cached per
input set under ``.perfbench_out/``), then times ops for ``--seconds`` and
checks every result outside the timed region.

End-to-end times (``setup_s``, ``ops_per_s``, ``latency_ms.*``) are wall
times scaled to a reference machine speed (calibration.py), measured
between slices of ops; the unscaled wall figures are printed on a comment
line.  ``ok_ratio`` and ``bound_ok_ratio`` are 1 - fail_ratio and
1 - bound_violation_ratio (both also printed as measured), so that no
metric reads 0.

The last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``; with
``--trace 1`` half the time runs untraced, half with spans at every layer
boundary (written to ``.perfbench_out/``), followed by the per-layer
probes.  The exit code is 0 only when every op and every check passed.

    python3 perfbench/run.py --stability

runs two interleaved sets of ``STABILITY_RUNS`` runs per workload with
distinct seeds and checks each end-to-end metric's spread (quartile range
over median) within each set and over all runs, and the drift between the
two set medians in either direction, against the bounds in BENCHMARK.json.  ``--seconds``
defaults to BENCHMARK.json's ``run_seconds`` in both modes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

import calibration
import probes
import tracing
import workloads as W

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent / "BENCHMARK.json"
WORKLOADS = {cls.name: cls for cls in
             (W.VerifyReport, W.PointEval, W.EndpointQuad, W.CliProcess)}
#: Set-ups per run (this process plus fresh children); setup_s is their median.
SETUP_SAMPLES = 5
#: Runs per set in stability mode (two sets: ten runs per workload).
STABILITY_RUNS = 5


class SetupError(RuntimeError):
    pass


def setup(wl: W.Workload):
    """Import the library, check the process is fresh, bind and warm up.

    Returns (set-up seconds scaled to the reference speed, peak RSS in MB
    of this process so far, the library, the warm-up results)."""
    before = calibration.kernel_speed()
    t0 = time.perf_counter()
    sk = W.import_library()
    if Path(sk.__file__).resolve().parent != W.SRC / "skewlog":
        raise SetupError(f"imported skewlog from {sk.__file__}, not from {W.SRC}")
    se = sk.series_engine
    if se.get_max_terms() != se.DEFAULT_MAX_TERMS:
        raise SetupError("term cap is not the default")
    if len(sk.core_numerics._CACHE.values_h) != 1:
        raise SetupError("harmonic cache is not cold: not a fresh interpreter")
    wl.bind()
    warm = wl.warmup()
    seconds = time.perf_counter() - t0
    scale = (before + calibration.kernel_speed()) / 2
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return seconds * scale, peak_mb, sk, warm


def setup_samples(args, first: tuple[float, float]) -> list[tuple[float, float]]:
    """(scaled set-up seconds, peak MB) of this process and of fresh children."""
    samples = [first]
    env = W.child_env()
    for _ in range(SETUP_SAMPLES - 1):
        proc = W.run_child([sys.executable, str(HERE / "run.py"), "--setup-only",
                            "--workload", args.workload, "--seed", str(args.seed)],
                           env, timeout=150, check=True)
        seconds, peak_mb = proc.stdout.split()[-2:]
        samples.append((float(seconds), float(peak_mb)))
    return samples


def load_refs(keys: list) -> W.Refs:
    """References for ``keys``, computed by reference.py in a child process
    and cached by the digest of the key set and the reference code."""
    unique = sorted({json.dumps(k) for k in keys})
    digest = hashlib.sha256(
        "\n".join(unique).encode() + (HERE / "reference.py").read_bytes()
    ).hexdigest()[:24]
    path = W.OUT / f"ref-{digest}.json"
    if not path.exists():
        keys_path = W.OUT / f"keys-{digest}.json"
        keys_path.write_text(json.dumps([json.loads(k) for k in unique]))
        W.run_child([sys.executable, str(HERE / "reference.py"), str(keys_path),
                     str(path)], timeout=170, check=True)
        keys_path.unlink()
    return W.Refs(json.loads(path.read_text()))


class Loop:
    """Closed-loop op runner: the next op starts when the previous one ends.

    Ops run in slices of at least ``SLICE_S``; the workload's speed
    measurement between slices scales the op times of the slice on either
    side of it to the reference speed."""

    SLICE_S = 0.2

    def __init__(self, wl: W.Workload, refs: W.Refs) -> None:
        self.wl, self.refs = wl, refs
        self.wall_ms = array("d")
        self.scaled_ms = array("d")
        self.spec_of = array("l")
        self.attempted = self.failed = self.checked = self.violated = 0
        self.details: list[str] = []

    def run(self, seconds: float, tracer=None) -> None:
        wl, n = self.wl, len(self.wl.specs)
        clock = time.perf_counter_ns
        deadline = time.perf_counter() + seconds
        i = 0
        after = wl.speed()
        while True:
            before = after
            first = len(self.wall_ms)
            slice_end = time.perf_counter() + self.SLICE_S
            while True:
                k = i % n
                t0 = clock()
                try:
                    res = wl.call(k) if tracer is None else tracer.run_op(i, wl.call, k)
                except Exception as exc:  # an exception is a failed op, not a crash
                    res = exc
                self.wall_ms.append((clock() - t0) / 1e6)
                self.spec_of.append(k)
                out = wl.check(k, res, self.refs)
                self.attempted += 1
                self.failed += out.failed
                self.checked += out.checked
                self.violated += out.violated
                if out.failed and len(self.details) < 5:
                    self.details.append(out.detail)
                i += 1
                if time.perf_counter() >= slice_end:
                    break
            after = wl.speed()
            scale = (before + after) / 2
            self.scaled_ms.extend(ms * scale for ms in self.wall_ms[first:])
            if time.perf_counter() >= deadline or (tracer and tracer.full()):
                return


def _timings(lat) -> tuple[float, float, float]:
    """(ops per second of busy time, p50, p90) of per-op milliseconds."""
    deciles = statistics.quantiles(lat, n=10, method="inclusive") \
        if len(lat) > 1 else [lat[0]] * 9
    return len(lat) / (sum(lat) / 1e3), deciles[4], deciles[8]


def end_to_end(loop: Loop, setups: list[tuple[float, float]]) -> dict:
    ops, p50, p90 = _timings(loop.scaled_ms)
    return {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "ops_per_s": (ops, "1/s"),
        "latency_ms.p50": (p50, "ms"),
        "latency_ms.p90": (p90, "ms"),
        "peak_rss_mb": (statistics.median(m for _, m in setups), "MB"),
        "ok_ratio": (1.0 - loop.failed / loop.attempted, "ratio"),
        "bound_ok_ratio": (1.0 - loop.violated / max(loop.checked, 1), "ratio"),
    }


def overhead_ratio(plain: Loop, traced: Loop, n_specs: int) -> float:
    """Traced time over untraced time, over the specs both loops ran."""
    total = [0.0] * n_specs
    count = [0] * n_specs
    for k, ms in zip(plain.spec_of, plain.wall_ms):
        total[k] += ms
        count[k] += 1
    pairs = [(ms, total[k] / count[k])
             for k, ms in zip(traced.spec_of, traced.wall_ms) if count[k]]
    return sum(t for t, _ in pairs) / sum(b for _, b in pairs)


def report(args, loops: list[Loop], metrics: dict, extra: list[str]) -> int:
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    checked = sum(lp.checked for lp in loops)
    violated = sum(lp.violated for lp in loops)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    ops, p50, p90 = _timings(loops[0].wall_ms)
    print(f"# ops={attempted} latency_samples={len(loops[0].wall_ms)} "
          f"failed={failed} fail_ratio={failed / attempted:.6g} ratio "
          f"checked={checked} violated={violated} "
          f"bound_violation_ratio={violated / max(checked, 1):.6g} ratio")
    print(f"# unscaled wall time: ops_per_s={ops:.6g} 1/s "
          f"latency_ms.p50={p50:.6g} ms latency_ms.p90={p90:.6g} ms")
    for line in extra:
        print(f"# {line}")
    for d in (d for lp in loops for d in lp.details):
        print(f"# FAILED: {d}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_workload(args) -> int:
    if not (W.SRC / "skewlog" / "__init__.py").is_file():
        print(f"error: no library sources at {W.SRC}", file=sys.stderr)
        return 2
    if "SKEWLOG_MAX_TERMS" in os.environ:
        print("error: SKEWLOG_MAX_TERMS must be unset", file=sys.stderr)
        return 2
    sys.path.insert(0, str(W.SRC))
    W.OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed)
    try:
        seconds, peak_mb, sk, warm = setup(wl)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(seconds, peak_mb)
        return 0
    refs = load_refs(wl.reference_keys(warm))
    del warm

    if not args.trace:
        setups = setup_samples(args, (seconds, peak_mb))
        loop = Loop(wl, refs)
        loop.run(args.seconds)
        return report(args, [loop], end_to_end(loop, setups), wl.describe())

    plain = Loop(wl, refs)
    plain.run(args.seconds / 2)
    tracer = tracing.Tracer()
    restore = tracing.patch(tracer.wrap)
    try:
        wl.bind(tracer)
        traced = Loop(wl, refs)
        traced.run(args.seconds / 2, tracer)
    finally:
        restore()
    spans_path = W.OUT / f"spans-{args.workload}-{args.seed}.json"
    tracer.write(spans_path)
    extra = wl.describe()
    extra.append(f"spans={len(tracer.start)} traced_ops={tracer.ops} "
                 f"file={spans_path.name}")
    extra += [f"self {name}: {ms:.6g} ms/op, {calls:.6g} spans/op"
              for name, (ms, calls) in tracer.self_times().items()]
    reps = 1 if args.seconds < 5 else 3
    metrics = probes.run_all(sk, args.seed, reps)
    metrics["trace.overhead_ratio"] = (
        overhead_ratio(plain, traced, len(wl.specs)), "ratio")
    return report(args, [plain, traced], metrics, extra)


# -- stability mode ---------------------------------------------------------

def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def stability(args) -> int:
    bench = json.loads(BENCH.read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    summary = {}
    for wname in (w["name"] for w in bench["workloads"]):
        sets: list[list[dict]] = [[], []]
        for r in range(STABILITY_RUNS):
            for s in (0, 1):
                seed = 1 + r + 1000 * s
                t0 = time.perf_counter()
                proc = W.run_child(
                    [sys.executable, str(HERE / "run.py"), "--workload", wname,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", "0"], timeout=400)
                print(f"# {wname} seed {seed}: {time.perf_counter() - t0:.1f} s wall",
                      flush=True)
                result = json.loads(proc.stdout.splitlines()[-1]) \
                    if proc.stdout.strip() else {"correct": False}
                if proc.returncode != 0 or not result["correct"]:
                    print(f"# {wname} seed {seed}: exit {proc.returncode}\n"
                          f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                    ok = False
                    continue
                sets[s].append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"## {wname}: {len(sets[0])}+{len(sets[1])} runs of {args.seconds} s")
        rows = {}
        for name, spec in metrics.items():
            a = [m[name] for m in sets[0]]
            b = [m[name] for m in sets[1]]
            if not a or not b:
                ok = False
                continue
            bound = spec["bound"]
            qa, qb, qall = _quartiles(a), _quartiles(b), _quartiles(a + b)
            spreads = [(q[2] - q[0]) / q[1] for q in (qa, qb, qall)]
            drift = (qb[1] - qa[1]) / qa[1]
            row_ok = abs(drift) <= bound and max(spreads) <= bound
            ok &= row_ok
            rows[name] = {"median": [qa[1], qb[1]], "quartiles": [qa, qb],
                          "spread": spreads, "drift": drift, "ok": row_ok}
            print(f"{name:>16}: median {qa[1]:.6g} | {qb[1]:.6g} "
                  f"q1-q3 {qa[0]:.6g}-{qa[2]:.6g} | {qb[0]:.6g}-{qb[2]:.6g} "
                  f"spread {spreads[0]:.3f} {spreads[1]:.3f} all {spreads[2]:.3f} "
                  f"(bound {bound}, target < {bound / 3:.3f}) "
                  f"drift {drift:+.3f} {'ok' if row_ok else 'OUT OF BOUND'}")
        summary[wname] = rows
    print(json.dumps({"stable": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--stability", action="store_true")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(json.loads(BENCH.read_text())["run_seconds"])
    if args.stability:
        return stability(args)
    if args.workload is None:
        p.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
