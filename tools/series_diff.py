"""Bit-for-bit diff of two trees' series sums, coefficients and quadratures.

    python3 tools/series_diff.py OLD_SRC NEW_SRC

Each argument is a tree's `src` directory, or a checkout that contains one.
One child process per tree imports skewlog from there and prints one row
per call: `sum_series` over a seeded grid (every series on its domain,
including the near-endpoint band at t = +-0.99, +-0.995, +-(1 - 1e-6) and
+-0.999, and the endpoints; tol 1e-6 to 1e-13; a mu grid for the mu
series; one pass under each of two small term caps), with
the value and bound as `float.hex`, the terms used and the status; then
`coefficient(sid, n)` for n <= 200; then the quadratures, in the same
format, at abs_tol = rel_tol = 1e-6 to 1e-15: g and G at 21 values of z
(0, +-1e-3 up to +-0.999, and +-1), EQ31, EQ32, `integrate_1d` of the
log-singular EQ21 integrand over [0, x] and [x, 0] for x = 0.25, 0.5, 1,
and of 1/sqrt(t) over [0, 1] with max_subdivisions=2000 (frozen panels at
the tight tolerances).  That is 15,629 rows.  The diff prints the first differing rows.  The
exit status is 0 when both outputs are identical and 1 otherwise.
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
from skewlog import (
    QuadratureConfig, SeriesId, coefficient, double_integral_bigG,
    double_integral_eq31, double_integral_eq32, double_integral_g,
    integrate_1d, set_max_terms, sum_series)
if not pathlib.Path(skewlog.__file__).is_relative_to(sys.argv[1]):
    sys.exit(f"skewlog came from {skewlog.__file__}, not {sys.argv[1]}")

MU_SERIES = {SeriesId.MU_LEWIN, SeriesId.MU_DILOG, SeriesId.MU_TRILOG}
MUS = (-0.9, -0.7, -0.3, -0.0, 0.0, 0.25, 0.5, 0.8, 1.0)
TOLS = tuple(10.0 ** -k for k in range(6, 14))
rng = random.Random(20171)


def domain(sid):
    lo = -1.0 / 3.0 if sid is SeriesId.SKEW_OVER_NSQ else -1.0
    near = (0.99, 0.995, 1.0 - 1e-6)  # the near-endpoint band
    ts = [0.0, -0.0, 1e-3, -1e-3, 0.5, 0.9, *near, 1.0, -1.0, lo]
    ts += [-t for t in (0.5, 0.9, *near) if -t >= lo]
    ts += [rng.uniform(lo, 1.0) for _ in range(8)]
    return ts


def fields(r):
    value = r.value.hex() if math.isfinite(r.value) else repr(r.value)
    return f"{value} {r.error_bound.hex()} {r.terms_used} {r.status.name}"


def row(sid, t, tol, mu, cap=""):
    r = sum_series(sid, t, tol, mu=mu)
    print(f"{sid.name} t={t!r} tol={tol!r} mu={mu!r}{cap} -> {fields(r)}")


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


def eq21(t):
    return (math.log1p(t) - 0.6931471805599453) * math.log(t) / (1.0 - t)


ZS = [0.0] + [s * z for z in (1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99,
                                0.999, 1.0) for s in (1.0, -1.0)]
for k in range(6, 16):
    tol = 10.0 ** -k
    cfg = QuadratureConfig(abs_tol=tol, rel_tol=tol)
    calls = [(f"g z={z!r}", double_integral_g, (z, cfg)) for z in ZS]
    calls += [(f"G z={z!r}", double_integral_bigG, (z, cfg)) for z in ZS]
    calls += [("EQ31", double_integral_eq31, (cfg,)),
              ("EQ32", double_integral_eq32, (cfg,))]
    for x in (0.25, 0.5, 1.0):
        calls += [(f"EQ21 [0, {x!r}]", integrate_1d, (eq21, 0.0, x, cfg)),
                  (f"EQ21 [{x!r}, 0]", integrate_1d, (eq21, x, 0.0, cfg))]
    calls.append(("1/sqrt(t) [0, 1] max_subdivisions=2000", integrate_1d,
                  (lambda t: 1.0 / math.sqrt(t), 0.0, 1.0,
                   cfg._replace(max_subdivisions=2000))))
    for name, fn, args in calls:
        print(f"quad {name} tol={tol!r} -> {fields(fn(*args))}")
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
