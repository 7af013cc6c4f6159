"""Independent reference values for the benchmark's correctness checks.

Everything here is computed with mpmath at 32 significant digits and never
calls into skewlog, so a reference shares no code with the library it
checks.  A reference is addressed by a JSON-able key such as
``["li2", 0.25]`` or ``["cf", "EQ13", 0.9, null]`` and returned as a
double-double ``[hi, lo]`` so that the benchmark can form ``value - ref``
in plain floats without losing the digits that decide a bound check.

Closed forms are the catalog's dilogarithm/trilogarithm expressions
evaluated in high precision (so the cancellation near removable points that
the double-precision library suffers does not occur here), with the exact
limit substituted only at the removable point itself.  ``selfcheck`` ties
those expressions back to the series definitions by direct summation.

Run as a script, ``python3 reference.py KEYS.json OUT.json`` reads a list of
keys and writes ``{json.dumps(key): [hi, lo]}``; the benchmark does this in
a child process so that mpmath never enters the measured process.
"""

from __future__ import annotations

import json
import os
import sys

import mpmath as mp

mp.mp.dps = 32

LOG2 = mp.log(2)
ZETA3 = mp.zeta(3)
PI = mp.pi
PI2_6 = PI**2 / 6
PI2_12 = PI**2 / 12
LI2_HALF = mp.polylog(2, mp.mpf(0.5))
LI3_HALF = mp.polylog(3, mp.mpf(0.5))
EQ18 = 1.5 * ZETA3 - PI2_6 * LOG2 - LOG2**3 / 3
EQ19 = PI2_12 * LOG2 - 0.75 * ZETA3 - LOG2**3 / 3

#: Named constants of the library's table and the catalog's endpoint values.
CONSTANTS = {
    "LOG2": LOG2,
    "PI": PI,
    "PI_SQ_OVER_6": PI2_6,
    "PI_SQ_OVER_12": PI2_12,
    "ZETA3": ZETA3,
    "CATALAN_G": mp.catalan,
    "EULER_GAMMA": mp.euler,
    "LI2_HALF": LI2_HALF,
    "LI3_HALF": LI3_HALF,
    "LI2_MINUS1": -PI2_12,
    "LI3_MINUS1": -0.75 * ZETA3,
    "EQ4": mp.mpf(-0.5),
    "EQ9": PI2_12 - LOG2**2 / 2,
    "EQ10": PI2_12 + LOG2**2 / 2,
    "EQ15": PI2_6 / 4,
    "EQ16": LOG2,
    "EQ18": EQ18,
    "EQ19": EQ19,
    "EQ31": 0.875 * LOG2**2 + PI / 8 * LOG2 - mp.catalan / 2 - PI2_6 / 8,
    "EQ32": PI2_12 * LOG2 + LOG2**3 / 3 - ZETA3 / 2,
}


def li2(w):
    return mp.polylog(2, w)


def li3(w):
    return mp.polylog(3, w)


def antiderivative(x):
    """J(x) = int_0^x Li2(t)/(1-t) dt for x < 1 (the Landen-type form,
    analytic on the whole half-line)."""
    l1mx = mp.log(1 - x)
    return -2 * li3(-x / (1 - x)) - 2 * li3(x) + l1mx * li2(x) + l1mx**3 / 3


def closed_form(cid: str, t, mu=None):
    """The catalog's closed form ``cid`` at exact binary t (and mu)."""
    t = mp.mpf(t)
    mu = None if mu is None else mp.mpf(mu)
    if cid == "EQ2":
        return mp.log(1 + t) / (1 - t)
    if cid == "EQ3":
        return mp.mpf(-0.5) if t == 1 else (mp.log(1 + t) - LOG2) / (1 - t)
    if cid == "EQ5":
        return li2((1 - t) / 2) - LI2_HALF - li2(-t) - LOG2 * mp.log(1 - t)
    if cid == "EQ8":
        return li2((1 - t) / 2) - LI2_HALF - li2(-t)
    if cid == "EQ11":
        return li2((1 - t) / 2) - LI2_HALF
    if cid == "EQ12":
        num = li2(t) + 2 * LOG2 * mp.log(1 + t) + 2 * LI2_HALF - 2 * li2((1 + t) / 2)
        return num / (1 - t)
    if cid in ("EQ13", "EQ29_G"):
        if t == 1:
            return LOG2
        return (li2(t) + LOG2**2 - 2 * (li2((1 + t) / 2) - LI2_HALF)) / (1 - t)
    if cid in ("EQ17", "EQ30_BIGG"):
        if t == 1:
            return EQ18
        if t == -1:
            return EQ19
        l1mx, l1px = mp.log(1 - t), mp.log(1 + t)
        up = li2((1 + t) / 2)
        return (
            antiderivative(t)
            + l1mx * (2 * up - PI2_6)
            + 2 * l1px * (l1mx**2 - LOG2**2)
            + 2 * LOG2 * (up - LI2_HALF)
            - 2 * LOG2 * l1mx**2
            + 4 * l1mx * li2((1 - t) / 2)
            - 4 * (li3((1 - t) / 2) - LI3_HALF)
        )
    if cid == "EQ20":
        l1px = mp.log(1 + t)
        return (
            li3(2 * t / (1 + t)) - li3(t / (1 + t)) - li3((1 + t) / 2) + LI3_HALF
            - li3(t) + l1px * (li2(t) + LI2_HALF + LOG2 * l1px / 2)
        )
    if cid == "EQ22":
        return (li2(mu * (1 + t) / (1 + mu)) - li2(mu / (1 + mu))
                - mp.log(1 + mu) * mp.log(1 + t))
    if cid == "EQ24":
        return li2((1 + mu) * t / (1 + t)) - li2(t / (1 + t))
    if cid == "EQ25_ABEL":
        return (li2(t / (1 + t)) + li2(mu / (1 + mu))
                + mp.log(1 + mu) * mp.log(1 + t))
    if cid == "EQ26":
        return li2(2 * t / (1 + t))
    if cid == "EQ27_RAMANUJAN":
        r = mp.log(1 - t) - mp.log(1 + t)
        return li2(2 * t / (1 + t)) + r * r / 4
    if cid == "EQ28":
        return li3((1 + mu) * t / (1 + t)) - li3(t / (1 + t))
    if cid == "LANDEN":
        return li2(t / (1 + t))
    raise KeyError(f"no reference closed form {cid!r}")


#: Series -> companion closed form; the MU_TRILOG companion is mu * series.
SERIES_COMPANION = {
    "GF_SKEW": "EQ2",
    "GF_CENTERED": "EQ3",
    "SKEW_OVER_N": "EQ5",
    "CENTERED_OVER_N": "EQ8",
    "CENTERED_SHIFT": "EQ11",
    "SKEW_SQ": "EQ12",
    "CENTERED_SQ": "EQ13",
    "CENTERED_SQ_SHIFT": "EQ17",
    "SKEW_OVER_NSQ": "EQ20",
    "MU_LEWIN": "EQ22",
    "MU_DILOG": "EQ24",
    "MU_TRILOG": "EQ28",
    "RAMANUJAN_ODD": "EQ27_RAMANUJAN",
}


def series_value(sid: str, t, mu=None):
    v = closed_form(SERIES_COMPANION[sid], t, mu)
    return v / mp.mpf(mu) if sid == "MU_TRILOG" else v


def _eq21_integrand(t):
    return (mp.log(1 + t) - LOG2) * mp.log(t) / (1 - t)


class _Prefix:
    """Exact-enough prefix sums H_n^-, H_n^(2), grown on demand."""

    def __init__(self) -> None:
        self.skew = [mp.mpf(0)]
        self.h2 = [mp.mpf(0)]

    def ensure(self, n: int) -> None:
        for k in range(len(self.skew), n + 1):
            self.skew.append(self.skew[-1] + mp.mpf((-1) ** (k - 1)) / k)
            self.h2.append(self.h2[-1] + mp.mpf(1) / (k * k))


_PREFIX = _Prefix()


def value(key: list):
    """High-precision reference for one key."""
    kind = key[0]
    if kind == "li2":
        return li2(mp.mpf(key[1]))
    if kind == "li3":
        return li3(mp.mpf(key[1]))
    if kind == "cf":
        return closed_form(key[1], key[2], key[3])
    if kind == "series":
        return series_value(key[1], key[2], key[3])
    if kind == "J":
        return antiderivative(mp.mpf(key[1]))
    if kind == "const":
        return CONSTANTS[key[1]]
    if kind == "int1d":
        return mp.quad(_eq21_integrand, [0, mp.mpf(key[1])])
    if kind == "psi_half_diff":
        n = mp.mpf(key[1])
        return mp.digamma((n + 1) / 2) - mp.digamma(n / 2)
    if kind == "skew":
        _PREFIX.ensure(key[1])
        return _PREFIX.skew[key[1]]
    if kind == "eq14":
        _PREFIX.ensure(key[1])
        return _PREFIX.skew[key[1]] ** 2 + _PREFIX.h2[key[1]]
    raise KeyError(f"unknown reference kind {kind!r}")


def double_double(v) -> list[float]:
    hi = float(v)
    return [hi, float(v - mp.mpf(hi))]


def compute(keys: list[list]) -> dict[str, list[float]]:
    return {json.dumps(k): double_double(value(k)) for k in keys}


# -- self-check against the series definitions ------------------------------

def _series_direct(sid: str, t, mu=None, n_terms: int = 400):
    """Plain partial sum of the catalog series, written from its definition."""
    t = mp.mpf(t)
    mu = None if mu is None else mp.mpf(mu)
    l2 = LOG2
    total = mp.mpf(0)
    skew = mp.mpf(0)       # H_n^-
    skew_mu = mp.mpf(0)    # H_n^-(mu)
    inner = mp.mpf(0)      # sum_k H_k^-(mu)/k
    odd = mp.mpf(0)        # O_m = 1 + 1/3 + ... + 1/(2m-1)
    for n in range(0, n_terms):
        if n >= 1:
            skew += mp.mpf((-1) ** (n - 1)) / n
            if mu is not None:
                skew_mu += (-mu) ** (n - 1) / n
                inner += skew_mu / n
        sign = 1 if n % 2 == 1 else -1
        c = skew - l2
        a = {
            "GF_SKEW": skew,
            "GF_CENTERED": c,
            "SKEW_OVER_N": skew / n if n else 0,
            "CENTERED_OVER_N": c / n if n else 0,
            "CENTERED_SHIFT": t * c / (n + 1),
            "SKEW_SQ": skew**2,
            "CENTERED_SQ": c**2,
            "CENTERED_SQ_SHIFT": t * c**2 / (n + 1),
            "SKEW_OVER_NSQ": t * skew / (n + 1) ** 2,
        }.get(sid)
        if sid == "MU_LEWIN":
            a = t * sign * mu * skew_mu / (n + 1) if n else 0
        elif sid == "MU_DILOG":
            a = sign * mu * skew_mu / n if n else 0
        elif sid == "MU_TRILOG":
            a = sign * inner / n if n else 0
        elif sid == "RAMANUJAN_ODD":
            if n % 2 == 1:
                odd += mp.mpf(1) / n
                a = 2 * odd / n
            else:
                a = 0
        total += a * t**n
    return total


def selfcheck() -> float:
    """Largest relative gap between the closed-form references and direct
    summation of the series definitions (and between the antiderivative
    and quadrature); a transcription slip shows up as a gap near 1."""
    worst = mp.mpf(0)

    def gap(a, b):
        return abs(a - b) / max(1, abs(b))

    for sid in SERIES_COMPANION:
        mus = (0.6, -0.4) if sid.startswith("MU_") else (None,)
        for mu in mus:
            for t in (-0.25, 0.3125):
                worst = max(worst, gap(series_value(sid, t, mu),
                                       _series_direct(sid, t, mu)))
    for x in (-0.75, 0.5, 0.875):
        worst = max(worst, gap(antiderivative(mp.mpf(x)),
                               mp.quad(lambda s: li2(s) / (1 - s), [0, x])))
    return float(worst)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: reference.py KEYS.json OUT.json", file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        keys = json.load(fh)
    result = compute(keys)
    tmp = argv[1] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
