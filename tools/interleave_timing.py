"""Per-call timing of two trees, interleaved, by kind of call.

    python3 tools/interleave_timing.py OLD NEW [--workload point-eval]
                                       [--seeds 1,2,3] [--rounds 5]
                                       [--best 7]

Each of OLD and NEW is a tree's `src` directory, or a checkout that
contains one.  The calls are the ops of a perfbench workload, point-eval
(`li2`, `li3`, closed forms, J and `sum_series`) or endpoint-quad (the
series at t = +-1 and the quadratures), for each seed, bound by
perfbench/workloads.py from the checkout that holds this script, so both
trees run the same calls.  Per seed and round, one child process per tree
imports skewlog from that tree, makes each call once to fill caches and
tables, then times every call `--best` times and keeps its fastest time.
The trees alternate which goes first from round to round.  A pass is the
sum of those fastest times over the calls of one kind; point-eval's
series are split into the plain interior sums (`series`), the mu series
below |t| = 0.99 (`series_mu`) and the sums at |t| = 0.99
(`series_near`).  For each kind and seed the script prints both trees'
median pass over the rounds, in microseconds, the change in percent, and
in how many rounds NEW was faster; then the same for `total`, the summed
pass over all kinds, which is what a perfbench run's ops_per_s follows.
Each row also gives both trees' summed `terms_used` over the kind's calls,
read from the warm-up call (series terms, or quadrature evaluations; `-`
for a kind whose calls return a bare float, and for verify-report's
stages), and ends in `DIFF` where the two sums differ.  So a row tells a
change that did less work from one that did the same work faster.

verify-report is timed by stage instead: its one op is `verify_all`, the
report written to JSON (`json_write`) and to CSV (`csv_write`), and both
read back (`json_parse`, `csv_parse`), in that order, as the workload's op
runs them.  Each child makes one op to warm up, then times `--best` ops
with the cyclic GC on, and a pass is each stage's median over them; its
`total` is the sum of the five.  Its seed changes no input.  Each seed
then ends with a `peak_mb` row: the child's `ru_maxrss`, in MB, read right
after the warm-up op, which is the cold op that a perfbench run's
peak_rss_mb reads; both trees' median over the rounds, the change, and in
how many rounds NEW peaked lower.  It is kept out of `total`.

A perfbench run times whole 25-second op loops; this places a saving of a
few percent per call, which one traced run of each tree cannot.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = {"point-eval": "PointEval", "endpoint-quad": "EndpointQuad",
             "verify-report": "VerifyReport"}
STAGES = ("verify_all", "json_write", "csv_write", "json_parse", "csv_parse")

_CHILD = r"""
import json, pathlib, sys, time
src, perfbench, cls, seed, best = sys.argv[1:]
sys.path[:0] = [src, perfbench]
import skewlog, workloads
if not pathlib.Path(skewlog.__file__).is_relative_to(src):
    sys.exit(f"skewlog came from {skewlog.__file__}, not {src}")
wl = getattr(workloads, cls)(int(seed))
wl.bind()
terms = [getattr(r, "terms_used", None) for r in wl.warmup()]
clock, call, n = time.perf_counter_ns, wl.call, len(wl.specs)
times = [float("inf")] * n
for _ in range(int(best)):
    for i in range(n):
        t0 = clock()
        call(i)
        dt = clock() - t0
        if dt < times[i]:
            times[i] = dt
json.dump([times, terms], sys.stdout)
"""

_STAGES_CHILD = r"""
import json, pathlib, resource, statistics, sys, time
src, perfbench, ops = sys.argv[1:]
sys.path[:0] = [src, perfbench]
import skewlog, workloads
if not pathlib.Path(skewlog.__file__).is_relative_to(src):
    sys.exit(f"skewlog came from {skewlog.__file__}, not {src}")
wl = workloads.VerifyReport(0)
wl.bind()
wl.warmup()
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
clock = time.perf_counter_ns
stages = [[] for _ in range(5)]
for _ in range(int(ops)):
    t0 = clock()
    report = wl.verify_all()
    t1 = clock()
    js = wl.serialize(report, "json")
    t2 = clock()
    cs = wl.serialize(report, "csv")
    t3 = clock()
    from_json = wl.parse(js, "json")
    t4 = clock()
    from_csv = wl.parse(cs, "csv")
    t5 = clock()
    for times, a, b in zip(stages, (t0, t1, t2, t3, t4), (t1, t2, t3, t4, t5)):
        times.append(b - a)
    del report, js, cs, from_json, from_csv
json.dump([statistics.median(t) / 1e3 for t in stages] + [peak_mb],
          sys.stdout)
"""


def _src(path: str) -> pathlib.Path:
    p = pathlib.Path(path).resolve()
    return p / "src" if (p / "src" / "skewlog").is_dir() else p


def specs_of(workload: str, seed: int) -> list:
    """The workload's specs for seed, in its order."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return getattr(workloads, WORKLOADS[workload])(seed).specs


def kind(spec) -> str:
    if spec[0] != "series":
        return spec[0]
    if abs(spec[2]) >= 0.99:
        return "series_near"
    return "series" if spec[4] is None else "series_mu"


def _child(script: str, *args) -> list[float]:
    out = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


def time_tree(src: pathlib.Path, workload: str, seed: int,
              best: int) -> list[list]:
    """The fastest of best timings of each call, in ns, and each call's
    terms_used (None for a bare float), in a fresh child."""
    return _child(_CHILD, src, PERFBENCH, WORKLOADS[workload], seed, best)


def time_stages(src: pathlib.Path, ops: int) -> dict[str, float]:
    """verify-report's median time per stage over ops warm ops, in us, and
    its peak_mb after the warm-up op, in a fresh child."""
    return dict(zip(STAGES + ("peak_mb",),
                    _child(_STAGES_CHILD, src, PERFBENCH, ops)))


def passes(specs: list, times: list[float]) -> dict[str, float]:
    """Summed time per kind, in us."""
    out: dict[str, float] = {}
    for s, t in zip(specs, times):
        out[kind(s)] = out.get(kind(s), 0.0) + t / 1e3
    return out


def work(specs: list, terms: list[int | None]) -> dict[str, int]:
    """Summed terms_used per kind and in `total`, over the calls that
    report one; a kind none of whose calls does is left out."""
    out: dict[str, int] = {}
    for s, n in zip(specs, terms):
        if n is not None:
            out[kind(s)] = out.get(kind(s), 0) + n
            out["total"] = out.get("total", 0) + n
    return out


def _count(n: int | None) -> str:
    return "-" if n is None else str(n)


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   default="point-eval")
    p.add_argument("--seeds", default="1,2,3",
                   help="comma-separated workload seeds")
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--best", type=int, default=7,
                   help="timings per call, or timed ops per child for "
                        "verify-report")
    args = p.parse_args(argv)
    stages = args.workload == "verify-report"
    trees = {"old": _src(args.old), "new": _src(args.new)}
    print(f"{'seed':>5} {'kind':<12} {'calls':>5} {'old us':>10} "
          f"{'new us':>10} {'change':>8} {'new wins':>8} {'old terms':>10} "
          f"{'new terms':>10}")
    for seed in map(int, args.seeds.split(",")):
        specs = [] if stages else specs_of(args.workload, seed)
        runs: dict[str, list[dict[str, float]]] = {"old": [], "new": []}
        terms: dict[str, dict[str, int]] = {"old": {}, "new": {}}
        for r in range(args.rounds):
            for side in ("old", "new") if r % 2 == 0 else ("new", "old"):
                if stages:
                    runs[side].append(time_stages(trees[side], args.best))
                    continue
                times, used = time_tree(trees[side], args.workload, seed,
                                        args.best)
                runs[side].append(passes(specs, times))
                terms[side] = work(specs, used)
        counts: dict[str, int] = dict.fromkeys(STAGES, 1) if stages else {}
        for s in specs:
            counts[kind(s)] = counts.get(kind(s), 0) + 1
        order = list(counts) if stages else sorted(counts)
        for run in runs["old"] + runs["new"]:
            run["total"] = sum(map(run.__getitem__, order))
        counts["total"] = 1 if stages else len(specs)
        rows = order + ["total"]
        if stages:  # a peak in MB: lower wins, as for a time
            counts["peak_mb"] = 1
            rows.append("peak_mb")
        for k in rows:
            old = statistics.median(run[k] for run in runs["old"])
            new = statistics.median(run[k] for run in runs["new"])
            wins = sum(b[k] < a[k] for a, b in zip(runs["old"], runs["new"]))
            digits = 2 if k == "peak_mb" else 1
            old_n, new_n = terms["old"].get(k), terms["new"].get(k)
            flag = " DIFF" if old_n != new_n else ""
            print(f"{seed:>5} {k:<12} {counts[k]:>5} {old:>10.{digits}f} "
                  f"{new:>10.{digits}f} {100.0 * (new / old - 1.0):>+7.1f}% "
                  f"{wins:>4}/{args.rounds} {_count(old_n):>10} "
                  f"{_count(new_n):>10}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
