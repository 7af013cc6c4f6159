"""Alternating perfbench pairs of two trees, and the rule a claimed gain
must meet.

    python3 tools/bench_pairs.py OLD NEW --workload W --seeds A-B
                                 [--seconds S] [--claim METRIC]

OLD and NEW are checkouts, each with its own `perfbench/` and `src/`.
Each seed from A to B is one pair: `python3 perfbench/run.py --workload W
--seed SEED --seconds S` runs once in each checkout, from that checkout,
one child at a time.  OLD goes first in the first pair, NEW in the
second, and so on.  The script imports nothing from either tree; it reads
the end-to-end metrics, and which way each is better, from OLD's
BENCHMARK.json, and each run's values from the JSON object on the last
line of its output.

For each pair it prints every end-to-end metric of both runs, the change
in percent and whether NEW was better.  Then, per metric: each tree's
median and quartiles over the pairs, the change of the medians, and in
how many pairs NEW was better (a tie is not a win).

With --claim METRIC (for example ops_per_s) it also says whether NEW's
gain on that metric meets the rule: NEW better in at least nine of ten
pairs (nine tenths of them, rounded up), and the gap between the medians
larger than the distance between OLD's quartiles.  The exit code is 0
when every run was correct and the claim, if one is named, is met; 1 if
not; 2 if a run failed to give its JSON line.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    lo = int(lo)
    hi = int(hi) if hi else lo
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    """q1, median, q3, as perfbench/run.py computes them."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def run(tree: pathlib.Path, workload: str, seed: int,
        seconds: float) -> dict:
    """One perfbench run in tree: its last output line, as a dict."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
        out["metrics"] = {k: v["value"] for k, v in out["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        print(f"{tree}: seed {seed} gave no result line "
              f"(exit {proc.returncode})", file=sys.stderr)
        sys.exit(2)
    return out


def _better(new: float, old: float, better: str) -> bool:
    return new > old if better == "higher" else new < old


def _change(new: float, old: float) -> str:
    return f"{(new - old) / old * 100:+.2f}%" if old else "n/a"


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old", type=pathlib.Path)
    p.add_argument("new", type=pathlib.Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, required=True,
                   help="A-B: one pair per seed from A to B")
    p.add_argument("--seconds", type=float, default=None,
                   help="seconds per run (default: BENCHMARK.json's)")
    p.add_argument("--claim", default=None,
                   help="the metric whose gain is tested against the rule")
    args = p.parse_args(argv)

    bench = json.loads((args.old / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    if args.claim is not None and args.claim not in metrics:
        p.error(f"--claim must be one of {', '.join(metrics)}")
    seconds = args.seconds or float(bench["run_seconds"])

    trees = {"OLD": args.old, "NEW": args.new}
    runs = {"OLD": [], "NEW": []}
    correct = True
    for i, seed in enumerate(args.seeds):
        order = ("OLD", "NEW") if i % 2 == 0 else ("NEW", "OLD")
        for side in order:
            out = run(trees[side], args.workload, seed, seconds)
            correct &= bool(out["correct"]) and not out["failed"]
            runs[side].append(out["metrics"])
        print(f"pair {i + 1}: seed {seed}, {order[0]} first", flush=True)
        for name, better in metrics.items():
            old, new = runs["OLD"][-1][name], runs["NEW"][-1][name]
            mark = "NEW better" if _better(new, old, better) else ""
            print(f"  {name:>16}: {old:12.6g} -> {new:12.6g} "
                  f"{_change(new, old):>9} {mark}", flush=True)

    n = len(args.seeds)
    print(f"\n{args.workload}, {n} pairs, {seconds:g} s per run; "
          "OLD median [q1-q3] -> NEW median [q1-q3] (NEW better in k of n)")
    summary = {}
    for name, better in metrics.items():
        old = [r[name] for r in runs["OLD"]]
        new = [r[name] for r in runs["NEW"]]
        qo, qn = _quartiles(old), _quartiles(new)
        wins = sum(_better(b, a, better) for a, b in zip(old, new))
        summary[name] = {"old": qo, "new": qn, "wins": wins}
        print(f"  {name:>16}: {qo[1]:.6g} [{qo[0]:.6g}-{qo[2]:.6g}] -> "
              f"{qn[1]:.6g} [{qn[0]:.6g}-{qn[2]:.6g}] "
              f"{_change(qn[1], qo[1])} ({wins} of {n})")

    met = None
    if args.claim is not None:
        s = summary[args.claim]
        gap = s["new"][1] - s["old"][1]
        if metrics[args.claim] == "lower":
            gap = -gap
        spread = s["old"][2] - s["old"][0]
        need = -(-9 * n // 10)
        met = s["wins"] >= need and gap > spread
        print(f"claim {args.claim}: NEW better in {s['wins']} of {n} "
              f"(needs {need}); median gap {gap:.6g} against OLD's "
              f"quartile spread {spread:.6g}: "
              f"{'MET' if met else 'NOT MET'}")
    print(json.dumps({"workload": args.workload, "pairs": n,
                      "correct": correct, "claim": args.claim, "met": met,
                      "metrics": summary}))
    return 0 if correct and met is not False else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
