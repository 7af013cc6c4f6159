"""Write the golden table that the tests check the library against.

    python3 tools/make_reference.py [OUT]

Builds a list of reference keys, computes each one with
`perfbench/reference.py` (mpmath at 32 digits, sharing no code with
skewlog) and writes `{"digits": ..., "values": {json key: [hi, lo]}}` as
JSON to OUT, by default `tests/data/reference.json`.  A value is the
double-double `hi + lo` of the exact result at the key's binary argument,
so a test can form `value - hi - lo` in plain floats.  The tests read the
file; they never import mpmath.

Each builder in KEY_BUILDERS returns one family of keys; a new family (the
closed forms, say) is one more builder.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "tests" / "data" / "reference.json"

GRID = 1000  # the uniform grid is -1 + 2k/GRID, k = 0..GRID


def _neighbours(x: float) -> list[float]:
    """x and the doubles 1 and 4 ulp either side of it."""
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for n in range(1, 5):
            y = math.nextafter(y, direction)
            if n in (1, 4):
                out.append(y)
    return out


def polylog_arguments() -> list[float]:
    """The li2/li3 arguments: a uniform grid on [-1, 1], +-(1 - 10^-k) for
    k = 1..15, the zone edges 1/2 and +-0.75 with their 1 and 4 ulp
    neighbours, -1 + 2^-52 and 1e-300."""
    xs = [-1.0 + 2.0 * k / GRID for k in range(GRID + 1)]
    for k in range(1, 16):
        xs += [1.0 - 10.0**-k, -(1.0 - 10.0**-k)]
    for edge in (0.5, 0.75, -0.75):
        xs += _neighbours(edge)
    xs += [-1.0 + 2.0**-52, 1e-300]
    return list(dict.fromkeys(xs))  # in order, each once


def polylog_keys() -> list[list]:
    return [[fn, x] for fn in ("li2", "li3") for x in polylog_arguments()]


def pole_keys() -> list[list]:
    """EQ5 and EQ12 next to their pole t = 1: 1 - 10^-k, k = 8..15, and
    the double just below 1."""
    ts = [1.0 - 10.0**-k for k in range(8, 16)] + [math.nextafter(1.0, 0.0)]
    return [["cf", cid, t, None] for cid in ("EQ5", "EQ12") for t in ts]


def antiderivative_keys() -> list[list]:
    """J at +-10^-k, k = 1..15, and at +-1/16 with its 1 and 4 ulp
    neighbours, where the kernel switches from its u-series to version a."""
    xs = [s * 10.0**-k for k in range(1, 16) for s in (1.0, -1.0)]
    xs += [s * x for x in _neighbours(0.0625) for s in (1.0, -1.0)]
    return [["J", x] for x in xs]


QUAD_ZS = [1.0, -1.0, 0.999, -0.999, 0.5, -0.5, 0.0]


def quadrature_keys() -> list[list]:
    """The double integrals and the EQ21 integral: g and G at QUAD_ZS
    through their closed forms EQ29_G and EQ30_BIGG, EQ31 and EQ32 through
    their constants, and the EQ21 integrand's integral over [0, x] for
    x = 0.25, 0.5, 0.8 and 1."""
    keys = [["cf", cid, z, None] for cid in ("EQ29_G", "EQ30_BIGG")
            for z in QUAD_ZS]
    keys += [["const", "EQ31"], ["const", "EQ32"]]
    return keys + [["int1d", x] for x in (0.25, 0.5, 0.8, 1.0)]


NEAR_TS = [0.99, 0.995] + [1.0 - 10.0**-k for k in range(3, 16)]


def near_endpoint_keys() -> list[list]:
    """The series without mu that have a near-endpoint rule in sum_series,
    at +-0.99, +-0.995 and +-(1 - 10^-k), k = 3..15, where each is in its
    domain."""
    sys.path.insert(0, str(ROOT / "src"))
    from skewlog.series_engine import _SPECS

    return [["series", sid.name, s * t, None]
            for sid, spec in _SPECS.items()
            if spec.near and not spec.domain.mu
            for s in (1.0, -1.0) for t in NEAR_TS if s * t > spec.domain.lo]


def endpoint_keys() -> list[list]:
    """Every series without mu at each end t = +-1 its catalog Domain
    admits: the endpoint constants."""
    sys.path.insert(0, str(ROOT / "src"))
    from skewlog.catalog import SERIES

    return [["series", name, t, None] for name, row in SERIES.items()
            if not row.domain.mu for t in row.domain.ends if abs(t) == 1.0]


def interior_keys() -> list[list]:
    """Every series at stratified interior points |t| < 0.99 in its
    domain: for each sign, one seeded uniform point in each stratum
    [k/10, (k+1)/10) of |t|, k = 0..8, then 0.9, 0.95 and 0.98.  The mu
    series take mu = -0.999, -0.5, 0.5, 0.9 and 1 (not 0: the MU_TRILOG
    reference divides by mu)."""
    sys.path.insert(0, str(ROOT / "src"))
    from skewlog.catalog import SERIES

    rng = random.Random(2017)
    ts = [s * x for s in (1.0, -1.0)
          for x in [rng.uniform(k / 10, (k + 1) / 10) for k in range(9)]
          + [0.9, 0.95, 0.98]]
    return [["series", name, t, mu] for name, row in SERIES.items()
            for mu in ((-0.999, -0.5, 0.5, 0.9, 1.0) if row.domain.mu
                       else (None,))
            for t in ts if t > row.domain.lo]


def mu_near_keys() -> list[list]:
    """The three mu series on the near_endpoint_keys points, at mu = -0.9,
    0.5 and 0.9 (not 0: the MU_TRILOG reference divides by mu)."""
    sys.path.insert(0, str(ROOT / "src"))
    from skewlog.series_engine import _SPECS

    return [["series", sid.name, s * t, mu]
            for sid, spec in _SPECS.items() if spec.domain.mu
            for mu in (-0.9, 0.5, 0.9)
            for s in (1.0, -1.0) for t in NEAR_TS]


# A new family goes before the last one, so that every existing line of
# the output, the last one's missing comma included, stays as it is.
KEY_BUILDERS = [polylog_keys, antiderivative_keys, pole_keys,
                quadrature_keys, near_endpoint_keys, endpoint_keys,
                interior_keys, mu_near_keys]


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = pathlib.Path(argv[0]) if argv else DEFAULT_OUT
    sys.path.insert(0, str(ROOT / "perfbench"))
    import reference

    keys = [key for build in KEY_BUILDERS for key in build()]
    values = reference.compute(keys)
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                       for k, v in values.items())
    out.write_text(f'{{"digits": {reference.mp.mp.dps}, "values": {{\n'
                   f"{lines}\n}}}}\n")
    print(f"{len(keys)} keys -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
