"""Real-argument dilogarithm and trilogarithm on [-1, 1].

Both functions reduce every argument to a power-series evaluation in a zone
where the series converges fast, using the classical reflection, Landen and
duplication identities.  Accuracy target is 1e-14 absolute over the whole
domain; in practice the reductions stay within a few ulp.
"""

from __future__ import annotations

import math

from .core_numerics import CONSTANTS, check_real

_PI_SQ_OVER_6 = CONSTANTS["PI_SQ_OVER_6"]
_LOG2 = CONSTANTS["LOG2"]
_ZETA3 = CONSTANTS["ZETA3"]

# Termination: next term below 1e-17 * (1 + |partial|), hard cap 200 terms.
_SERIES_EPS = 1e-17
_SERIES_CAP = 200


def _series(m: int, x: float) -> float:
    """sum_{k>=1} x^k / k^m summed forward; caller guarantees fast decay."""
    total = 0.0
    p = 1.0
    for k in range(1, _SERIES_CAP + 1):
        p *= x
        term = p / k**m
        total += term
        if abs(term) <= _SERIES_EPS * (1.0 + abs(total)):
            break
    return total


def li2(x: float) -> float:
    """Dilogarithm Li_2(x) for -1 <= x <= 1."""
    x = check_real("li2 argument", x, (-1.0, 1.0))
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return _PI_SQ_OVER_6
    if x == -1.0:
        return CONSTANTS["LI2_MINUS1"]
    if x == 0.5:
        return CONSTANTS["LI2_HALF"]
    if abs(x) <= 0.5:
        return _series(2, x)
    if x > 0.5:
        # Euler reflection; 1-x lands in (0, 0.5)
        return _PI_SQ_OVER_6 - math.log(x) * math.log1p(-x) - _series(2, 1.0 - x)
    # x in (-1, -0.5): Landen transform, y/(1+y) lands in (1/3, 1/2)
    y = -x
    return -0.5 * math.log1p(y) ** 2 - _series(2, y / (1.0 + y))


def li3(x: float) -> float:
    """Trilogarithm Li_3(x) for -1 <= x <= 1."""
    x = check_real("li3 argument", x, (-1.0, 1.0))
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return _ZETA3
    if x == -1.0:
        return CONSTANTS["LI3_MINUS1"]
    if x == 0.5:
        return CONSTANTS["LI3_HALF"]
    # The series cutoff must exceed 1/phi = 0.618..., the fixed point of
    # x -> 1 - x, or the reduction below would recurse forever.
    if abs(x) <= 0.75:
        return _series(3, x)
    if x > 0.75:
        # Li_3(x) + Li_3(1-x) + Li_3(1 - 1/x) = zeta(3) + log^3(x)/6
        #   + (pi^2/6) log(x) - log^2(x) log(1-x) / 2
        lx = math.log(x)
        l1mx = math.log1p(-x)
        rhs = (
            _ZETA3
            + lx**3 / 6.0
            + _PI_SQ_OVER_6 * lx
            - 0.5 * lx * lx * l1mx
        )
        # both arguments land in (-1/3, 0.25]
        return rhs - _series(3, 1.0 - x) - _series(3, -(1.0 - x) / x)
    # x in (-1, -0.75): duplication Li_3(x) = Li_3(x^2)/4 - Li_3(-x)
    return 0.25 * li3(x * x) - li3(-x)
