"""Bit-for-bit diff of two trees' series sums and coefficients.

    python3 tools/series_diff.py OLD_SRC NEW_SRC

Each argument is a tree's `src` directory, or a checkout that contains one.
One child process per tree imports skewlog from there and prints one row
per call: `sum_series` over a seeded grid (every series on its domain,
including t = +-0.99, +-0.999 and the endpoints; tol 1e-6 to 1e-13; a mu
grid for the mu series; one pass under each of two small term caps), with
the value and bound as `float.hex`, the terms used and the status; then
`coefficient(sid, n)` for n <= 200.  The diff prints the first differing
rows.  The exit status is 0 when both outputs are identical and 1
otherwise.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

SHOWN = 20  # differing rows printed

_CHILD = r"""
import math, pathlib, random, sys
sys.path.insert(0, sys.argv[1])
import skewlog
from skewlog import SeriesId, coefficient, set_max_terms, sum_series
if not pathlib.Path(skewlog.__file__).is_relative_to(sys.argv[1]):
    sys.exit(f"skewlog came from {skewlog.__file__}, not {sys.argv[1]}")

MU_SERIES = {SeriesId.MU_LEWIN, SeriesId.MU_DILOG, SeriesId.MU_TRILOG}
MUS = (-0.9, -0.7, -0.3, -0.0, 0.0, 0.25, 0.5, 0.8, 1.0)
TOLS = tuple(10.0 ** -k for k in range(6, 14))
rng = random.Random(20171)


def domain(sid):
    lo = -1.0 / 3.0 if sid is SeriesId.SKEW_OVER_NSQ else -1.0
    ts = [0.0, -0.0, 1e-3, -1e-3, 0.5, 0.9, 0.99, 1.0, -1.0, lo]
    ts += [-t for t in (0.5, 0.9, 0.99) if -t >= lo]
    ts += [rng.uniform(lo, 1.0) for _ in range(8)]
    return ts


def row(sid, t, tol, mu, cap=""):
    r = sum_series(sid, t, tol, mu=mu)
    value = r.value.hex() if math.isfinite(r.value) else repr(r.value)
    print(f"{sid.name} t={t!r} tol={tol!r} mu={mu!r}{cap} -> {value} "
          f"{r.error_bound.hex()} {r.terms_used} {r.status.name}")


for sid in SeriesId:
    mus = MUS if sid in MU_SERIES else (None,)
    for t in domain(sid):
        for tol in TOLS:
            for mu in mus:
                row(sid, t, tol, mu)
    # |t| = 0.999 takes thousands of terms: three tolerances, fewer mu
    for t in (0.999, -0.999):
        for tol in (1e-6, 1e-10, 1e-13):
            for mu in (MUS[1], MUS[5], MUS[8]) if sid in MU_SERIES else mus:
                row(sid, t, tol, mu)
    for n in range(201):
        for mu in mus:
            print(f"{sid.name} a[{n}] mu={mu!r} -> {coefficient(sid, n, mu).hex()}")

# a cap inside the first block, and one inside the second
for cap in (5, 100):
    set_max_terms(cap)
    for sid in SeriesId:
        mu = 0.5 if sid in MU_SERIES else None
        for t in (0.99, -0.99, 0.5, 1.0):
            for tol in (1e-6, 1e-13):
                row(sid, t, tol, mu, f" cap={cap}")
"""


def _src(path: str) -> pathlib.Path:
    p = pathlib.Path(path).resolve()
    return p / "src" if (p / "src" / "skewlog").is_dir() else p


def render(path: str) -> list[str]:
    """The rows of the tree at path, from a child process."""
    return subprocess.run(
        [sys.executable, "-c", _CHILD, str(_src(path))],
        check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = render(argv[0]), render(argv[1])
    differ = [(i, a, b) for i, (a, b) in enumerate(zip(old, new)) if a != b]
    for i, a, b in differ[:SHOWN]:
        print(f"row {i}:\n  - {a}\n  + {b}")
    print(f"rows: {len(old)} -> {len(new)}, {len(differ)} differ")
    return 0 if old == new else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
