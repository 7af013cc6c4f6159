"""Closed-form companion expressions for the tagged series.

Each ClosedFormId names the dilogarithm/trilogarithm expression that a
series in the catalog converges to; its domain text is in catalog, and its
row here holds only the numerics.  Arguments produced by the mu-family
transformations can leave [-1, 1]; those go through private real-axis
extensions of li2/li3 built on the standard inversion formulas, keeping the
public polylog API restricted to [-1, 1].

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
from collections import namedtuple

from .catalog import CLOSED_FORMS, ClosedFormId, lookup
from .core_numerics import CONSTANTS, LOG2, check_real
from .errors import DomainError, PoleError
from .polylog import li2, li3

_PI_SQ_OVER_6 = CONSTANTS["PI_SQ_OVER_6"]
_PI_SQ_OVER_12 = CONSTANTS["PI_SQ_OVER_12"]
_LI2_HALF = CONSTANTS["LI2_HALF"]
_LI3_HALF = CONSTANTS["LI3_HALF"]
_ZETA3 = CONSTANTS["ZETA3"]

#: Half-width of the window around a removable point where the limit value
#: is substituted (or a pole is refused).
NEAR_POLE_WINDOW = 1e-8


def _li2_ext(w: float) -> float:
    """li2 extended to w <= 1 by the real inversion formula."""
    if w > 1.0:
        raise DomainError("li2 extension requires w <= 1")
    if w >= -1.0:
        return li2(w)
    lw = math.log(-w)
    return -li2(1.0 / w) - _PI_SQ_OVER_6 - 0.5 * lw * lw


def _li3_ext(w: float) -> float:
    """li3 extended to w <= 1 by the real inversion formula."""
    if w > 1.0:
        raise DomainError("li3 extension requires w <= 1")
    if w >= -1.0:
        return li3(w)
    lw = math.log(-w)
    return li3(1.0 / w) - lw**3 / 6.0 - _PI_SQ_OVER_6 * lw


def _eq2(t: float) -> float:
    return math.log1p(t) / (1.0 - t)


def _eq3(t: float) -> float:
    if abs(1.0 - t) < NEAR_POLE_WINDOW:
        return -0.5  # removable: log((1+t)/2)/(1-t) -> -1/2
    return (math.log1p(t) - LOG2) / (1.0 - t)


def _eq5(t: float) -> float:
    if abs(1.0 - t) < NEAR_POLE_WINDOW:
        raise PoleError("EQ5 diverges at t = 1 (log(1-t) term)")
    return li2(0.5 * (1.0 - t)) - _LI2_HALF - li2(-t) - LOG2 * math.log1p(-t)


def _eq8(t: float) -> float:
    return li2(0.5 * (1.0 - t)) - _LI2_HALF - li2(-t)


def _eq11(t: float) -> float:
    return li2(0.5 * (1.0 - t)) - _LI2_HALF


def _eq12(t: float) -> float:
    if abs(1.0 - t) < NEAR_POLE_WINDOW:
        # the bracket tends to log^2 2 != 0, so 1/(1-t) is a genuine pole
        raise PoleError("EQ12 has a simple pole at t = 1")
    num = (
        li2(t)
        + 2.0 * LOG2 * math.log1p(t)
        + 2.0 * _LI2_HALF
        - 2.0 * li2(0.5 * (1.0 + t))
    )
    return num / (1.0 - t)


def _eq13(t: float) -> float:
    if abs(1.0 - t) < NEAR_POLE_WINDOW:
        return LOG2  # removable limit
    num = li2(t) + LOG2 * LOG2 - 2.0 * (li2(0.5 * (1.0 + t)) - _LI2_HALF)
    return num / (1.0 - t)


def _eq20(x: float) -> float:
    l1px = math.log1p(x)
    return (
        li3(2.0 * x / (1.0 + x))
        - li3(x / (1.0 + x))
        - li3(0.5 * (1.0 + x))
        + _LI3_HALF
        - li3(x)
        + l1px * (li2(x) + _LI2_HALF + 0.5 * LOG2 * l1px)
    )


def _eq22(x: float, mu: float) -> float:
    return (
        _li2_ext(mu * (1.0 + x) / (1.0 + mu))
        - _li2_ext(mu / (1.0 + mu))
        - math.log1p(mu) * math.log1p(x)
    )


def _eq24(x: float, mu: float) -> float:
    return _li2_ext((1.0 + mu) * x / (1.0 + x)) - _li2_ext(x / (1.0 + x))


def _eq26(x: float) -> float:
    l1px = math.log1p(x)
    return (
        -li2(0.5 * (1.0 + x))
        + _LI2_HALF
        + li2(x)
        - li2(-x)
        + LOG2 * l1px
        - 0.5 * l1px * l1px
    )


def _li2_two_x_over_1px(x: float) -> float:
    """Li2(2x/(1+x)) continued to -1 < x < -1/3, where 2x/(1+x) < -1."""
    if x >= -1.0 / 3.0:
        return li2(2.0 * x / (1.0 + x))
    return _eq26(x)


def _eq27(x: float) -> float:
    r = math.log1p(-x) - math.log1p(x)  # log((1-x)/(1+x))
    return _li2_two_x_over_1px(x) + 0.25 * r * r


def _eq28(x: float, mu: float) -> float:
    return _li3_ext((1.0 + mu) * x / (1.0 + x)) - _li3_ext(x / (1.0 + x))


def _landen(x: float) -> float:
    l1px = math.log1p(x)
    return -0.5 * l1px * l1px - li2(-x)


def int_li2_over_1mt(x: float, version: str = "auto") -> float:
    """Antiderivative J(x) = integral_0^x Li2(t)/(1-t) dt, -1 <= x < 1.

    Two independent closed forms are provided: version "a" holds on
    [-1, 1/2], version "b" on [0, 1); "auto" picks whichever applies.
    """
    x = check_real("x", x)
    if not (-1.0 <= x < 1.0):
        raise DomainError("int_li2_over_1mt requires -1 <= x < 1")
    if version == "auto":
        version = "a" if x <= 0.5 else "b"
    if version == "a":
        if x > 0.5:
            raise DomainError("version a holds on -1 <= x <= 1/2")
        return (
            -2.0 * li3(-x / (1.0 - x))
            - 2.0 * li3(x)
            + math.log1p(-x) * li2(x)
            + math.log1p(-x) ** 3 / 3.0
        )
    if version == "b":
        if x < 0.0:
            raise DomainError("version b holds on 0 <= x < 1")
        return 2.0 * (li3(1.0 - x) - _ZETA3) - math.log1p(-x) * (
            li2(1.0 - x) + _PI_SQ_OVER_6
        )
    raise ValueError("version must be 'auto', 'a' or 'b'")


#: Exact endpoint constants for the shifted squared-coefficient series.
EQ18_VALUE = 1.5 * _ZETA3 - _PI_SQ_OVER_6 * LOG2 - LOG2**3 / 3.0
EQ19_VALUE = _PI_SQ_OVER_12 * LOG2 - 0.75 * _ZETA3 - LOG2**3 / 3.0


def _eq17(x: float) -> float:
    if abs(1.0 - x) < NEAR_POLE_WINDOW:
        return EQ18_VALUE
    if abs(1.0 + x) < NEAR_POLE_WINDOW:
        return EQ19_VALUE
    j = int_li2_over_1mt(x)
    l1mx = math.log1p(-x)
    l1px = math.log1p(x)
    half_up = li2(0.5 * (1.0 + x))
    return (
        j
        + l1mx * (2.0 * half_up - _PI_SQ_OVER_6)
        + 2.0 * l1px * (l1mx * l1mx - LOG2 * LOG2)
        + 2.0 * LOG2 * (half_up - _LI2_HALF)
        - 2.0 * LOG2 * l1mx * l1mx
        + 4.0 * l1mx * li2(0.5 * (1.0 - x))
        - 4.0 * (li3(0.5 * (1.0 - x)) - _LI3_HALF)
    )


def _abel_sides(x: float, mu: float) -> tuple[float, float]:
    lhs = (
        _li2_ext((1.0 + mu) * x / (1.0 + x))
        + _li2_ext(mu * (1.0 + x) / (1.0 + mu))
        - li2(mu * x)
    )
    rhs = (
        _li2_ext(x / (1.0 + x))
        + _li2_ext(mu / (1.0 + mu))
        + math.log1p(mu) * math.log1p(x)
    )
    return lhs, rhs


def _closed(t: float) -> bool:
    return -1.0 <= t <= 1.0


def _open(t: float) -> bool:
    return -1.0 < t < 1.0


def _open_left(t: float) -> bool:
    return -1.0 < t <= 1.0


def _from_minus_third(t: float) -> bool:
    return -1.0 / 3.0 <= t <= 1.0


class _Form(namedtuple("_Form", "evaluate domain takes_mu",
                        defaults=(False,))):
    """The numerics of one closed form: evaluate(t), or evaluate(t, mu)
    when takes_mu, is called only with t in domain(t) and -1 < mu <= 1."""

    __slots__ = ()


_FORMS: dict[ClosedFormId, _Form] = {
    ClosedFormId.EQ2: _Form(_eq2, _open),
    ClosedFormId.EQ3: _Form(_eq3, _open_left),
    ClosedFormId.EQ5: _Form(_eq5, _closed),
    ClosedFormId.EQ8: _Form(_eq8, _closed),
    ClosedFormId.EQ11: _Form(_eq11, _closed),
    ClosedFormId.EQ12: _Form(_eq12, _open),
    ClosedFormId.EQ13: _Form(_eq13, _closed),
    ClosedFormId.EQ17: _Form(_eq17, _closed),
    ClosedFormId.EQ20: _Form(_eq20, _from_minus_third),
    ClosedFormId.EQ22: _Form(_eq22, _open, takes_mu=True),
    ClosedFormId.EQ24: _Form(_eq24, _open, takes_mu=True),
    ClosedFormId.EQ25_ABEL: _Form(
        lambda x, mu: _abel_sides(x, mu)[1], _open, takes_mu=True),
    ClosedFormId.EQ26: _Form(_eq26, _from_minus_third),
    ClosedFormId.EQ27_RAMANUJAN: _Form(_eq27, _open),
    ClosedFormId.EQ28: _Form(_eq28, _open, takes_mu=True),
    ClosedFormId.EQ29_G: _Form(_eq13, _closed),
    ClosedFormId.EQ30_BIGG: _Form(_eq17, _closed),
    ClosedFormId.LANDEN: _Form(_landen, _open_left),
}


def _args(cf_id: ClosedFormId, t, mu) -> tuple[float, ...]:
    """The checked evaluator arguments of cf_id: (t,), or (t, mu); a cf_id
    that is not a ClosedFormId is a ValueError."""
    try:
        form = _FORMS[cf_id]
    except KeyError:
        form = lookup(_FORMS, cf_id, "closed form")
    if form.takes_mu:
        if mu is None:
            raise ValueError(f"{cf_id.name} requires mu")
        mu = check_real("mu", mu)
        if not -1.0 < mu <= 1.0:
            raise DomainError("mu must satisfy -1 < mu <= 1")
    elif mu is not None:
        raise ValueError(f"{cf_id.name} takes no mu")
    t = check_real("t", t)
    if not form.domain(t):
        raise DomainError(
            f"{cf_id.name} requires {CLOSED_FORMS[cf_id.name]}")
    return (t, mu) if form.takes_mu else (t,)


def closed_form(cf_id: ClosedFormId, t: float, mu: float | None = None) -> float:
    """Evaluate the tagged closed form at t (and mu where required)."""
    args = _args(cf_id, t, mu)
    return _FORMS[cf_id].evaluate(*args)


def closed_form_eq17(x: float) -> float:
    """Closed form of sum_n (H_n^- - log 2)^2 x^(n+1)/(n+1) on [-1, 1].

    The assembled expression has removable 0 * inf products at both
    endpoints, so x within NEAR_POLE_WINDOW of +-1 returns the exact limit
    values EQ18_VALUE / EQ19_VALUE instead.
    """
    return closed_form(ClosedFormId.EQ17, x)


def abel_sides(mu: float, x: float) -> tuple[float, float]:
    """Both sides of the five-term Abel relation for (mu, x)."""
    return _abel_sides(*_args(ClosedFormId.EQ25_ABEL, x, mu))
