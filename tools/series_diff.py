"""Bit-for-bit diff of two trees' series sums, coefficients, quadratures
and kernels.

    python3 tools/series_diff.py OLD_SRC NEW_SRC

Each argument is a tree's `src` directory, or a checkout that contains one.
One child process per tree imports skewlog from there and prints one row
per call: `sum_series` over a seeded grid (every series on its domain,
including the near-endpoint band at t = +-0.99, +-0.995, +-(1 - 1e-6),
+-(1 - 1e-12) and +-0.999, and the endpoints; tol 1e-6 to 1e-13; a mu
grid for the mu series; one pass under each of two small term caps), with
the value and bound as `float.hex`, the terms used and the status; then
`coefficient(sid, n)` for n <= 200; then the quadratures, in the same
format, at abs_tol = rel_tol = 1e-6 to 1e-15: g and G at 21 values of z
(0, +-1e-3 up to +-0.999, and +-1), EQ31, EQ32, `integrate_1d` of the
log-singular EQ21 integrand over [0, x] and [x, 0] for x = 0.25, 0.5, 1,
and of 1/sqrt(t) over [0, 1] with max_subdivisions=2000; g and those EQ21
integrals under max_subdivisions 1, 3 and 10 at tol 1e-10 and 1e-13; EQ21
over [0, 0.8] at rel_tol 1e-12 and abs_tol 1e-8 to 1e-11, as endpoint-quad
runs it; cos(50t) over [0, 20] at tol 1e-11 to 1e-14, up to 100,000
splits; and, without the map at a zero limit, log(t - 0.3) and
(t - 0.3)^-0.5 over [0.3, 1] and log(t + 5) over [-5, -4], each in both
orientations at tol 1e-10 to 1e-15 and once at the default config (frozen
panels next to the singular limit).  Last come the kernels, each row one
`float.hex`: `li2_real` and `li3_real` at 2,000 seeded points of [-1, 1],
at +-(1 - 10^-k) for k = 1..15, at 1/2 and its two neighbouring doubles,
at 0, -0.0 and +-1, and at six points from -1.5 to -2^53; every closed
form at 40 seeded points of its domain, its admitted ends, the points
above that fall inside it and lo + 10^-k (k = 3, 8, 12), each crossed
with the mu grid for the mu forms; and J = `int_li2_over_1mt` at 700
seeded points of [-1, 1) (200 of them within 1/16 of 0), at +-1/16 and
1/2 with their neighbouring doubles, at 1 - 10^-k and -1 + 10^-k, at -1,
+-0.0 and +-1e-300.  Then the double integrals once more: G, EQ31 and
EQ32 under max_subdivisions 1, 3 and 10 at tol 1e-10 and 1e-13, and g
and G at 40 seeded z in [-1, 1] and at z = +-1e-5, at tol 1e-8 to 1e-15.
Last, at tol 1e-8 and 1e-13, `integrate_1d` of exp and of 1/sqrt|t| over
[0, -0.75] and [-0.75, 0] (the map at a negative limit), and of an
integrand that is nan beyond 0.99 over [0, 1], [1, 0] and [0.5, 1].
Last, the window edges that the series rows hold as data, at tol 1e-6
and 1e-13, at the default cap and again under cap 5: every series at
+-nextafter(0.99, 0) on its domain, with the mu grid, and the mu series
at mu = nextafter(1, 0) and nextafter(-1, 0), t = +-0.5 and +-0.99.  A
call that raises prints the exception's name.  That is 26,109 rows
(16,326 before the kernel rows, 24,993 before the quadrature rows after
them, 25,707 before the 14 after those, 25,721 before the 388 edge
rows).  The diff prints the
first differing rows, then one line that counts the differing rows by the
fields that moved (value, bound, terms, status: "bound 1257" counts rows
whose bound alone moved) and gives the largest relative move of a bound.
The exit status is 0 when both outputs are identical and 1 otherwise.
"""

from __future__ import annotations

import collections
import math
import pathlib
import subprocess
import sys

SHOWN = 20  # differing rows printed

_CHILD = r"""
import math, pathlib, random, sys
sys.path.insert(0, sys.argv[1])
import skewlog
from skewlog import (
    ClosedFormId, QuadratureConfig, SeriesId, coefficient,
    double_integral_bigG, double_integral_eq31, double_integral_eq32,
    double_integral_g, integrate_1d, set_max_terms, sum_series)
from skewlog.catalog import CLOSED_FORMS, SERIES
from skewlog.closed_forms import closed_form, int_li2_over_1mt
from skewlog.polylog import li2_real, li3_real
from skewlog.series_engine import DEFAULT_MAX_TERMS
if not pathlib.Path(skewlog.__file__).is_relative_to(sys.argv[1]):
    sys.exit(f"skewlog came from {skewlog.__file__}, not {sys.argv[1]}")

MUS = (-0.9, -0.7, -0.3, -0.0, 0.0, 0.25, 0.5, 0.8, 1.0)
TOLS = tuple(10.0 ** -k for k in range(6, 14))
rng = random.Random(20171)


def domain(sid):
    lo = SERIES[sid.name].domain.lo
    near = (0.99, 0.995, 1.0 - 1e-6, 1.0 - 1e-12)  # the near-endpoint band
    ts = [0.0, -0.0, 1e-3, -1e-3, 0.5, 0.9, *near, 1.0, -1.0, lo]
    ts += [-t for t in (0.5, 0.9, *near) if -t >= lo]
    ts += [rng.uniform(lo, 1.0) for _ in range(8)]
    return ts


def fields(r):
    value = r.value.hex() if math.isfinite(r.value) else repr(r.value)
    return f"{value} {r.error_bound.hex()} {r.terms_used} {r.status.name}"


def outcome(fn, args, spell=fields):
    # spell(fn(*args)), or the name of the exception it raised
    try:
        return spell(fn(*args))
    except Exception as exc:
        return type(exc).__name__


def row(sid, t, tol, mu, cap=""):
    r = sum_series(sid, t, tol, mu=mu)
    print(f"{sid.name} t={t!r} tol={tol!r} mu={mu!r}{cap} -> {fields(r)}")


for sid in SeriesId:
    has_mu = SERIES[sid.name].domain.mu
    mus = MUS if has_mu else (None,)
    for t in domain(sid):
        for tol in TOLS:
            for mu in mus:
                row(sid, t, tol, mu)
    # |t| = 0.999 takes thousands of terms: three tolerances, fewer mu
    for t in (0.999, -0.999):
        for tol in (1e-6, 1e-10, 1e-13):
            for mu in (MUS[1], MUS[5], MUS[8]) if has_mu else mus:
                row(sid, t, tol, mu)
    for n in range(201):
        for mu in mus:
            print(f"{sid.name} a[{n}] mu={mu!r} -> {coefficient(sid, n, mu).hex()}")

# a cap inside the first block, and one inside the second
for cap in (5, 100):
    set_max_terms(cap)
    for sid in SeriesId:
        mu = 0.5 if SERIES[sid.name].domain.mu else None
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
        print(f"quad {name} tol={tol!r} -> {outcome(fn, args)}")

# the max_subdivisions exit
for cap in (1, 3, 10):
    for tol in (1e-10, 1e-13):
        cfg = QuadratureConfig(abs_tol=tol, rel_tol=tol, max_subdivisions=cap)
        calls = [(f"g z={z!r}", double_integral_g, (z, cfg))
                 for z in (0.0, -1.0, 0.5, 0.99, 1.0)]
        for x in (0.25, 0.5, 1.0):
            calls += [(f"EQ21 [0, {x!r}]", integrate_1d, (eq21, 0.0, x, cfg)),
                      (f"EQ21 [{x!r}, 0]", integrate_1d, (eq21, x, 0.0, cfg))]
        for name, fn, args in calls:
            print(f"quad {name} tol={tol!r} max_subdivisions={cap} -> "
                  f"{outcome(fn, args)}")

# the EQ21 integral as endpoint-quad runs it, and a spread error over
# thousands of splits, whose last stop test takes the exact sums
for k in range(8, 12):
    cfg = QuadratureConfig(abs_tol=10.0 ** -k, rel_tol=1e-12)
    print(f"quad EQ21 [0, 0.8] {cfg} -> "
          f"{outcome(integrate_1d, (eq21, 0.0, 0.8, cfg))}")
for k in range(11, 15):
    cfg = QuadratureConfig(10.0 ** -k, 10.0 ** -k, max_subdivisions=100_000)
    r = outcome(integrate_1d,
                (lambda t: math.cos(50.0 * t), 0.0, 20.0, cfg))
    print(f"quad cos(50t) [0, 20] {cfg} -> {r}")

# singularities at a nonzero limit, which integrate_1d takes without a
# map, in both orientations; at 1e-15 and at the default config these
# sample the limit unless panels whose nodes round onto it are frozen
singular = {"log(t - 0.3)": (lambda t: math.log(t - 0.3), 0.3, 1.0),
            "log(t + 5)": (lambda t: math.log(t + 5.0), -5.0, -4.0),
            "(t - 0.3)^-0.5": (lambda t: (t - 0.3) ** -0.5, 0.3, 1.0)}
for k in range(10, 16):
    cfg = QuadratureConfig(10.0 ** -k, 10.0 ** -k)
    for name, (f, a, b) in singular.items():
        for lo, hi in ((a, b), (b, a)):
            print(f"quad {name} [{lo!r}, {hi!r}] tol={cfg.abs_tol!r} -> "
                  f"{outcome(integrate_1d, (f, lo, hi, cfg))}")
for name, (f, a, b) in singular.items():
    print(f"quad {name} [{a!r}, {b!r}] default -> "
          f"{outcome(integrate_1d, (f, a, b))}")


def around(*xs):
    # each x with its two neighbouring doubles
    return [y for x in xs for y in (math.nextafter(x, -2.0), x,
                                    math.nextafter(x, 2.0))]


# the kernels: every zone of li2_real/li3_real, their edges and the
# inversion below -1; the closed forms on their domains; J across its
# three zones
near = [s * (1.0 - 10.0 ** -k) for k in range(1, 16) for s in (1.0, -1.0)]
xs = [rng.uniform(-1.0, 1.0) for _ in range(2000)] + near + around(0.5)
xs += [0.0, -0.0, 1.0, -1.0, -1.5, -2.0, -10.0, -1e3, -1e10, -2.0 ** 53]
for x in xs:
    print(f"li2 x={x!r} -> {outcome(li2_real, (x,), float.hex)}")
    print(f"li3 x={x!r} -> {outcome(li3_real, (x,), float.hex)}")
for cf_id in ClosedFormId:
    dom = CLOSED_FORMS[cf_id.name]
    ts = [rng.uniform(dom.lo, 1.0) for _ in range(40)] + list(dom.ends)
    ts += [t for t in near + [0.0, -0.0, 0.5, -0.5] if dom.lo < t < 1.0]
    ts += [dom.lo + 10.0 ** -k for k in (3, 8, 12)]
    for t in ts:
        for mu in MUS if dom.mu else (None,):
            print(f"{cf_id.name} t={t!r} mu={mu!r} -> "
                  f"{outcome(closed_form, (cf_id, t, mu), float.hex)}")
xs = [rng.uniform(-1.0, 1.0) for _ in range(500)]
xs += [rng.uniform(-0.0625, 0.0625) for _ in range(200)]
xs += around(0.0625, -0.0625, 0.5) + [x for x in near if x < 1.0]
xs += [-1.0, 0.0, -0.0, 1e-300, -1e-300]
for x in xs:
    print(f"J x={x!r} -> {outcome(int_li2_over_1mt, (x,), float.hex)}")

# the double integrals' kernel rule: G, EQ31 and EQ32 under the caps g
# runs under above, then g and G at seeded z and on either side of 0
for cap in (1, 3, 10):
    for tol in (1e-10, 1e-13):
        cfg = QuadratureConfig(abs_tol=tol, rel_tol=tol, max_subdivisions=cap)
        calls = [(f"G z={z!r}", double_integral_bigG, (z, cfg))
                 for z in (0.0, -1.0, 0.5, 0.99, 1.0)]
        calls += [("EQ31", double_integral_eq31, (cfg,)),
                  ("EQ32", double_integral_eq32, (cfg,))]
        for name, fn, args in calls:
            print(f"quad {name} tol={tol!r} max_subdivisions={cap} -> "
                  f"{outcome(fn, args)}")
zs = [rng.uniform(-1.0, 1.0) for _ in range(40)] + [1e-5, -1e-5]
for k in range(8, 16):
    tol = 10.0 ** -k
    cfg = QuadratureConfig(abs_tol=tol, rel_tol=tol)
    for z in zs:
        for name, fn in (("g", double_integral_g), ("G", double_integral_bigG)):
            print(f"quad {name} z={z!r} tol={tol!r} -> {outcome(fn, (z, cfg))}")

# the map at a negative limit, in both orientations, and an integrand that
# is nan beyond one node, mapped and not: DIVERGENT_INPUT after the panel
# that meets it
mapped = {"exp": math.exp, "1/sqrt|t|": lambda t: 1.0 / math.sqrt(abs(t))}
nan_beyond = lambda t: math.nan if t > 0.99 else t ** -0.5
for tol in (1e-8, 1e-13):
    cfg = QuadratureConfig(abs_tol=tol, rel_tol=tol)
    calls = [(f"{name} [{a!r}, {b!r}]", (f, a, b, cfg))
             for name, f in mapped.items()
             for a, b in ((0.0, -0.75), (-0.75, 0.0))]
    calls += [(f"nan beyond 0.99 [{a!r}, {b!r}]", (nan_beyond, a, b, cfg))
              for a, b in ((0.0, 1.0), (1.0, 0.0), (0.5, 1.0))]
    for name, args in calls:
        print(f"quad {name} tol={tol!r} -> {outcome(integrate_1d, args)}")

# both sides of each window edge that the series rows hold as data: every
# series just below |t| = 0.99, where the band starts, with the mu grid,
# and the mu series at mu next to +-1, where the splits stop; at the
# default cap, then under cap 5
edge = math.nextafter(0.99, 0.0)
for cap in (DEFAULT_MAX_TERMS, 5):
    set_max_terms(cap)
    tag = f" cap={cap}" if cap != DEFAULT_MAX_TERMS else ""
    for sid in SeriesId:
        dom = SERIES[sid.name].domain
        calls = [(t, mu) for t in (edge, -edge) if dom.lo < t
                 for mu in (MUS if dom.mu else (None,))]
        if dom.mu:
            calls += [(t, mu) for mu in (math.nextafter(1.0, 0.0),
                                         math.nextafter(-1.0, 0.0))
                      for t in (0.5, -0.5, 0.99, -0.99)]
        for tol in (1e-6, 1e-13):
            for t, mu in calls:
                row(sid, t, tol, mu, tag)
"""


def _src(path: str) -> pathlib.Path:
    p = pathlib.Path(path).resolve()
    return p / "src" if (p / "src" / "skewlog").is_dir() else p


def render(path: str) -> list[str]:
    """The rows of the tree at path, from a child process."""
    return subprocess.run(
        [sys.executable, "-c", _CHILD, str(_src(path))],
        check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines()


FIELDS = ("value", "bound", "terms", "status")


def moved(a: str, b: str) -> tuple[str, float]:
    """Which fields of row b differ from row a, as "value+bound" etc., and
    the relative move of the bound (0.0 when it did not move).  A row of
    one field (a coefficient, or an exception's name) has only a value; a
    row whose call or field count differs is "other"."""
    (call_a, _, x), (call_b, _, y) = a.partition(" -> "), b.partition(" -> ")
    x, y = x.split(), y.split()
    if call_a != call_b or len(x) != len(y) or len(x) not in (1, 4):
        return "other", 0.0
    names = [f for f, u, v in zip(FIELDS, x, y) if u != v]
    rel = 0.0
    if "bound" in names:
        u, v = float.fromhex(x[1]), float.fromhex(y[1])
        rel = abs(v - u) / abs(u) if u else math.inf
    return "+".join(names), rel


def summary(differ: list[tuple[int, str, str]]) -> str:
    """One line: the differing rows counted by the fields that moved, and
    the largest relative bound move."""
    kinds = collections.Counter()
    worst = 0.0
    for _, a, b in differ:
        kind, rel = moved(a, b)
        kinds[kind] += 1
        worst = max(worst, rel)
    counts = ", ".join(f"{kind} {n}" for kind, n in kinds.most_common())
    return f"moved: {counts}; largest relative bound move {worst:.3g}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = render(argv[0]), render(argv[1])
    differ = [(i, a, b) for i, (a, b) in enumerate(zip(old, new)) if a != b]
    for i, a, b in differ[:SHOWN]:
        print(f"row {i}:\n  - {a}\n  + {b}")
    print(f"rows: {len(old)} -> {len(new)}, {len(differ)} differ")
    if differ:
        print(summary(differ))
    return 0 if old == new else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
