"""Closed-form companion expressions for the tagged series.

Each ClosedFormId names the dilogarithm/trilogarithm expression that a
series in the catalog converges to; its domain is in catalog, and its row
here adds the numerics.  The forms call polylog's unchecked kernels
li2_real/li3_real, whose arguments here are at most 1 for every input in
the form's domain; the mu-family arguments, and EQ27's 2x/(1+x) below
x = -1/3, fall below -1, where the kernels invert.

Three catalog entries are shipped in corrected form; the verification
report carries numeric evidence for each correction:

* the version-B antiderivative of Li2(t)/(1-t) needs the constant pi^2/6
  (not pi/6) in its log(1-x) coefficient;
* the MU_LEWIN companion series carries weight (-1)^(n-1) mu H_n^-(mu)
  (writing the inner sum as sum_k (-1)^(k-1) mu^k / k = +mu H_n^-(mu)
  under an outer (-1)^n weight flips the series sign);
* the MU_TRILOG companion needs an extra factor mu in front of the series.
"""

from __future__ import annotations

import math

from .catalog import CLOSED_FORMS, ClosedFormId, lookup
from .core_numerics import CONSTANTS, LOG2, check_mu, check_real
from .errors import DomainError
from .polylog import li2_real, li3_real

_PI_SQ_OVER_6 = CONSTANTS["PI_SQ_OVER_6"]
_PI_SQ_OVER_12 = CONSTANTS["PI_SQ_OVER_12"]
_LI2_HALF = CONSTANTS["LI2_HALF"]
_LI3_HALF = CONSTANTS["LI3_HALF"]
_ZETA3 = CONSTANTS["ZETA3"]

#: Half-width of the window around a removable point where the limit value
#: is substituted.
NEAR_POLE_WINDOW = 1e-8


# perfbench/tracing.py reads this name.  A def, not "= li2_real": the
# tracer wraps every binding of the object it is given.
def _li2_ext(w: float) -> float:
    return li2_real(w)


def _eq2(t: float) -> float:
    return math.log1p(t) / (1.0 - t)


def _eq3(t: float) -> float:
    if abs(1.0 - t) < NEAR_POLE_WINDOW:
        return -0.5  # removable: log((1+t)/2)/(1-t) -> -1/2
    return (math.log1p(t) - LOG2) / (1.0 - t)


def _eq11(t: float) -> float:
    return li2_real(0.5 * (1.0 - t)) - _LI2_HALF


def _eq8(t: float) -> float:
    return _eq11(t) - li2_real(-t)


def _eq5(t: float) -> float:
    return _eq8(t) - LOG2 * math.log1p(-t)


def _eq12(t: float) -> float:
    num = (
        li2_real(t)
        + 2.0 * LOG2 * math.log1p(t)
        + 2.0 * _LI2_HALF
        - 2.0 * li2_real(0.5 * (1.0 + t))
    )
    return num / (1.0 - t)


def _eq13(t: float) -> float:
    if abs(1.0 - t) < NEAR_POLE_WINDOW:
        return LOG2  # removable limit
    num = (li2_real(t) + LOG2 * LOG2
           - 2.0 * (li2_real(0.5 * (1.0 + t)) - _LI2_HALF))
    return num / (1.0 - t)


def _eq20(x: float) -> float:
    l1px = math.log1p(x)
    return (
        li3_real(2.0 * x / (1.0 + x))
        - li3_real(x / (1.0 + x))
        - li3_real(0.5 * (1.0 + x))
        + _LI3_HALF
        - li3_real(x)
        + l1px * (li2_real(x) + _LI2_HALF + 0.5 * LOG2 * l1px)
    )


def _eq22(x: float, mu: float) -> float:
    return (
        li2_real(mu * (1.0 + x) / (1.0 + mu))
        - li2_real(mu / (1.0 + mu))
        - math.log1p(mu) * math.log1p(x)
    )


def _eq24(x: float, mu: float) -> float:
    return li2_real((1.0 + mu) * x / (1.0 + x)) - li2_real(x / (1.0 + x))


def _eq26(x: float) -> float:
    l1px = math.log1p(x)
    return (
        -li2_real(0.5 * (1.0 + x))
        + _LI2_HALF
        + li2_real(x)
        - li2_real(-x)
        + LOG2 * l1px
        - 0.5 * l1px * l1px
    )


def _eq27(x: float) -> float:
    r = math.log1p(-x) - math.log1p(x)  # log((1-x)/(1+x))
    return li2_real(2.0 * x / (1.0 + x)) + 0.25 * r * r


def _eq28(x: float, mu: float) -> float:
    return li3_real((1.0 + mu) * x / (1.0 + x)) - li3_real(x / (1.0 + x))


def _landen(x: float) -> float:
    l1px = math.log1p(x)
    return -0.5 * l1px * l1px - li2_real(-x)


def _j_a(x: float) -> float:
    """J(x) by version a, for x <= 1/2 (unchecked)."""
    l1mx = math.log1p(-x)
    return (-2.0 * li3_real(-x / (1.0 - x)) - 2.0 * li3_real(x)
            + l1mx * li2_real(x) + l1mx**3 / 3.0)


def _j_b(x: float) -> float:
    """J(x) by version b, for 0 <= x < 1 (unchecked)."""
    return 2.0 * (li3_real(1.0 - x) - _ZETA3) - math.log1p(-x) * (
        li2_real(1.0 - x) + _PI_SQ_OVER_6
    )


def _j(x: float) -> float:
    """The unchecked J kernel, -1 <= x < 1: version a up to 1/2, else b."""
    return _j_a(x) if x <= 0.5 else _j_b(x)


def int_li2_over_1mt(x: float, version: str = "auto") -> float:
    """Antiderivative J(x) = integral_0^x Li2(t)/(1-t) dt, -1 <= x < 1.

    Two independent closed forms are provided: version "a" holds on
    [-1, 1/2], version "b" on [0, 1); "auto" picks whichever applies.
    """
    x = check_real("x", x)
    if not (-1.0 <= x < 1.0):
        raise DomainError("int_li2_over_1mt requires -1 <= x < 1")
    if version == "auto":
        return _j(x)
    if version == "a":
        if x > 0.5:
            raise DomainError("version a holds on -1 <= x <= 1/2")
        return _j_a(x)
    if version == "b":
        if x < 0.0:
            raise DomainError("version b holds on 0 <= x < 1")
        return _j_b(x)
    raise ValueError("version must be 'auto', 'a' or 'b'")


#: Exact endpoint constants for the shifted squared-coefficient series.
EQ18_VALUE = 1.5 * _ZETA3 - _PI_SQ_OVER_6 * LOG2 - LOG2**3 / 3.0
EQ19_VALUE = _PI_SQ_OVER_12 * LOG2 - 0.75 * _ZETA3 - LOG2**3 / 3.0


def _eq17(x: float) -> float:
    if abs(1.0 - x) < NEAR_POLE_WINDOW:
        return EQ18_VALUE
    if abs(1.0 + x) < NEAR_POLE_WINDOW:
        return EQ19_VALUE
    j = _j(x)
    l1mx = math.log1p(-x)
    l1px = math.log1p(x)
    half_up = li2_real(0.5 * (1.0 + x))
    return (
        j
        + l1mx * (2.0 * half_up - _PI_SQ_OVER_6)
        + 2.0 * l1px * (l1mx * l1mx - LOG2 * LOG2)
        + 2.0 * LOG2 * (half_up - _LI2_HALF)
        - 2.0 * LOG2 * l1mx * l1mx
        + 4.0 * l1mx * li2_real(0.5 * (1.0 - x))
        - 4.0 * (li3_real(0.5 * (1.0 - x)) - _LI3_HALF)
    )


def _abel_sides(x: float, mu: float) -> tuple[float, float]:
    lhs = (
        li2_real((1.0 + mu) * x / (1.0 + x))
        + li2_real(mu * (1.0 + x) / (1.0 + mu))
        - li2_real(mu * x)
    )
    rhs = (
        li2_real(x / (1.0 + x))
        + li2_real(mu / (1.0 + mu))
        + math.log1p(mu) * math.log1p(x)
    )
    return lhs, rhs


#: A closed form's catalog Domain and its numerics: evaluate(t), or
#: evaluate(t, mu) when the domain takes mu, called only on the domain.
_FORMS: dict[ClosedFormId, tuple] = {
    cf_id: (CLOSED_FORMS[cf_id.name], evaluate)
    for cf_id, evaluate in {
        ClosedFormId.EQ2: _eq2,
        ClosedFormId.EQ3: _eq3,
        ClosedFormId.EQ5: _eq5,
        ClosedFormId.EQ8: _eq8,
        ClosedFormId.EQ11: _eq11,
        ClosedFormId.EQ12: _eq12,
        ClosedFormId.EQ13: _eq13,
        ClosedFormId.EQ17: _eq17,
        ClosedFormId.EQ20: _eq20,
        ClosedFormId.EQ22: _eq22,
        ClosedFormId.EQ24: _eq24,
        ClosedFormId.EQ25_ABEL: lambda x, mu: _abel_sides(x, mu)[1],
        ClosedFormId.EQ26: _eq26,
        ClosedFormId.EQ27_RAMANUJAN: _eq27,
        ClosedFormId.EQ28: _eq28,
        ClosedFormId.EQ29_G: _eq13,
        ClosedFormId.EQ30_BIGG: _eq17,
        ClosedFormId.LANDEN: _landen,
    }.items()}


def _checked(cf_id: ClosedFormId, t, mu):
    """The evaluator of cf_id and its checked arguments, (t,) or (t, mu);
    a cf_id that is not a ClosedFormId is a ValueError."""
    try:
        domain, evaluate = _FORMS[cf_id]
    except KeyError:
        domain, evaluate = lookup(_FORMS, cf_id, "closed form")
    if domain.mu or mu is not None:
        mu = check_mu(cf_id, domain, mu)
    t = check_real("t", t)
    if not (domain.lo < t < 1.0 or t in domain.ends):
        raise DomainError(f"{cf_id.name} requires {domain}")
    return evaluate, ((t,) if mu is None else (t, mu))


def closed_form(cf_id: ClosedFormId, t: float, mu: float | None = None) -> float:
    """Evaluate the tagged closed form at t (and mu where required)."""
    evaluate, args = _checked(cf_id, t, mu)
    return evaluate(*args)


def closed_form_eq17(x: float) -> float:
    """closed_form(ClosedFormId.EQ17, x): sum_n (H_n^- - log 2)^2
    x^(n+1)/(n+1) on [-1, 1].  Its removable 0 * inf products at x = +-1
    give way to EQ18_VALUE / EQ19_VALUE within NEAR_POLE_WINDOW of them."""
    return closed_form(ClosedFormId.EQ17, x)


def abel_sides(mu: float, x: float) -> tuple[float, float]:
    """Both sides of the five-term Abel relation for (mu, x)."""
    return _abel_sides(*_checked(ClosedFormId.EQ25_ABEL, x, mu)[1])
