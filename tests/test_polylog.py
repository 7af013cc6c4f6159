"""Dilogarithm and trilogarithm: reference values, functional equations, domain."""

import json
import math
import pathlib
import random

import pytest
from hypothesis import given, strategies as st

from skewlog import (
    CONSTANTS, ClosedFormId, DomainError, closed_form, closed_forms, li2, li3)
from skewlog.catalog import CLOSED_FORMS
from skewlog.polylog import (
    _LI2_P, _LI3_Q, _LI3_U, _PI_SQ_OVER_6, _ZETA3, _li2_u, li2_real,
    li3_real)

#: Error budgets.  Reference values are doubles rounded from the exact
#: value, so they carry half an ulp of their own; the functional equations
#: add the roundings of their few extra terms, all of size ~1.
REF_ULPS = {"li2": 2, "li3": 3}
ORACLE_ABS = 1e-15
FUNCTIONAL_ABS = 1e-15
PROPERTY_ABS = 2e-15

# Reference values computed independently at 50-digit working precision,
# then rounded to the nearest double.
LI2_REFS = {
    0.3: 0.32612951007547606953,
    0.7: 0.8893776242860387386,
    0.95: 1.4406337969700394838,
    -0.3: -0.28007433375958290423,
    -0.75: -0.64276126883997887911,
    -0.99: -0.81552588147733974909,
    0.9999: 1.6439129842561454972,
    -0.9999: -0.82239771774029860452,
    0.49: 0.56843844389666690925,
    0.51: 0.59616536137795074248,
}

LI3_REFS = {
    0.9: 1.0496589501864398696,
    -0.7: -0.64866632128523549351,
    0.6180339887498949: 0.67795750683172261582,
    0.76: 0.85750863835625377441,
    -0.8: -0.73437130563444290492,
    -0.99: -0.89331153010224575737,
    0.3: 0.31240017789289262076,
    0.99: 1.1858329336450369343,
    -0.2: -0.19527359293105427595,
}


def test_li2_reference_values():
    for x, ref in LI2_REFS.items():
        assert abs(li2(x) - ref) <= REF_ULPS["li2"] * math.ulp(ref), x


def test_li3_reference_values():
    for x, ref in LI3_REFS.items():
        assert abs(li3(x) - ref) <= REF_ULPS["li3"] * math.ulp(ref), x


#: Ulp budget per zone against tests/data/reference.json (double-double
#: values from tools/make_reference.py): the u-series on [-1, 1/2), the
#: reflection (li2) or the mu-series (li3) on (1/2, 1), and the tabled
#: constants at 0, +-1 and 1/2.
GOLDEN_ULPS = {
    ("li2", "u"): 2.0, ("li2", "upper"): 3.0, ("li2", "table"): 0.5,
    ("li3", "u"): 2.5, ("li3", "upper"): 2.0, ("li3", "table"): 0.5,
}
GOLDEN = pathlib.Path(__file__).parent / "data" / "reference.json"


def _zone(x: float) -> str:
    if x in (0.0, 1.0, -1.0, 0.5):
        return "table"
    return "u" if x < 0.5 else "upper"


def test_golden_table():
    values = json.loads(GOLDEN.read_text())["values"]
    seen = set()
    for key, (hi, lo) in values.items():
        name, *args = json.loads(key)
        if name not in ("li2", "li3"):
            continue
        [x] = args
        value = (li2 if name == "li2" else li3)(x)
        err = abs((value - hi) - lo)
        zone = (name, _zone(x))
        seen.add(zone)
        assert err <= GOLDEN_ULPS[zone] * math.ulp(hi), (key, value)
        assert err <= 1e-15 * abs(hi), (key, value)
    assert seen == set(GOLDEN_ULPS)


def test_continuous_across_one_half():
    # the zones meet at 1/2: one ulp either side and the tabled value are
    # in order and a few ulp apart
    below, above = math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)
    for fn in (li2, li3):
        a, b, c = fn(below), fn(0.5), fn(above)
        assert a <= b <= c, fn
        assert c - a <= 4 * math.ulp(b), fn


def test_exact_table_points():
    assert li2(0.0) == 0.0
    assert li3(0.0) == 0.0
    assert li2(1.0) == CONSTANTS["PI_SQ_OVER_6"]
    assert li2(-1.0) == CONSTANTS["LI2_MINUS1"]
    assert li3(1.0) == CONSTANTS["ZETA3"]
    assert li3(-1.0) == CONSTANTS["LI3_MINUS1"]
    assert li2(0.5) == CONSTANTS["LI2_HALF"]
    assert li3(0.5) == CONSTANTS["LI3_HALF"]


def polylog_series_oracle(m: int, x: float, n_terms: int) -> float:
    """Plain partial sum sum_{k=1..n_terms} x^k / k^m, exactly as written.

    Slow-but-obvious cross-check for li2/li3; no reductions, no shortcuts.
    """
    if m not in (2, 3):
        raise DomainError("order m must be 2 or 3")
    if not -1.0 < x < 1.0:
        raise DomainError("oracle requires |x| < 1")
    if n_terms < 0:
        raise DomainError("n_terms must be >= 0")
    terms = []
    p = 1.0
    for k in range(1, n_terms + 1):
        p *= x
        terms.append(p / k**m)
    return math.fsum(terms)


def test_against_series_oracle():
    # Inside the disc the raw series is slow but unambiguous
    for x in (-0.6, -0.3, 0.2, 0.45, 0.6):
        for m, fn in ((2, li2), (3, li3)):
            ref = polylog_series_oracle(m, x, 400)
            assert abs(fn(x) - ref) <= ORACLE_ABS


def test_series_oracle_input_checks():
    with pytest.raises(ValueError):
        polylog_series_oracle(4, 0.5, 100)
    with pytest.raises(ValueError):
        polylog_series_oracle(2, 1.0, 100)
    with pytest.raises(ValueError):
        polylog_series_oracle(2, 0.5, -1)
    assert polylog_series_oracle(2, 0.5, 0) == 0.0


def test_li2_euler_reflection():
    # Li2(x) + Li2(1-x) = pi^2/6 - log(x) log(1-x)
    pi2_6 = CONSTANTS["PI_SQ_OVER_6"]
    for x in (0.05, 0.2, 0.35, 0.5, 0.64, 0.8, 0.97):
        lhs = li2(x) + li2(1.0 - x)
        rhs = pi2_6 - math.log(x) * math.log1p(-x)
        assert abs(lhs - rhs) <= FUNCTIONAL_ABS


def test_li2_landen():
    # Li2(-x) + Li2(x/(1+x)) = -log^2(1+x)/2
    for x in (0.1, 0.35, 0.7, 0.95, 1.0):
        lhs = li2(-x) + li2(x / (1.0 + x))
        rhs = -0.5 * math.log1p(x) ** 2
        assert abs(lhs - rhs) <= FUNCTIONAL_ABS


def test_li3_three_term_relation():
    # Li3(x) + Li3(1-x) + Li3(1-1/x) resolves into zeta/log terms.
    # Needs x >= 0.5 so the third argument stays inside [-1, 1].
    z3 = CONSTANTS["ZETA3"]
    pi2_6 = CONSTANTS["PI_SQ_OVER_6"]
    for x in (0.5, 0.61, 0.77, 0.9, 0.98):
        lx, l1mx = math.log(x), math.log1p(-x)
        rhs = z3 + lx**3 / 6.0 + pi2_6 * lx - 0.5 * lx**2 * l1mx
        lhs = li3(x) + li3(1.0 - x) + li3(1.0 - 1.0 / x)
        assert abs(lhs - rhs) <= FUNCTIONAL_ABS


def test_duplication():
    for x in (0.12, 0.38, 0.6, 0.83, 0.99, 1.0):
        assert abs(li2(x) + li2(-x) - 0.5 * li2(x * x)) <= FUNCTIONAL_ABS
        assert abs(li3(x) + li3(-x) - 0.25 * li3(x * x)) <= FUNCTIONAL_ABS


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_duplication_property(x):
    assert li2(x) + li2(-x) == pytest.approx(0.5 * li2(x * x),
                                             abs=PROPERTY_ABS)
    assert li3(x) + li3(-x) == pytest.approx(0.25 * li3(x * x),
                                             abs=PROPERTY_ABS)


def test_monotone_on_unit_interval():
    xs = [k / 50.0 for k in range(51)]
    v2 = [li2(x) for x in xs]
    v3 = [li3(x) for x in xs]
    assert all(b > a for a, b in zip(v2, v2[1:]))
    assert all(b > a for a, b in zip(v3, v3[1:]))


def test_domain_errors_outside_closed_interval():
    for bad in (1.0000001, -1.0000001, 2.0, -5.0, math.inf):
        with pytest.raises(DomainError):
            li2(bad)
        with pytest.raises(DomainError):
            li3(bad)
    with pytest.raises(DomainError):
        li2(math.nan)


def test_kernels_are_the_public_functions_bit_for_bit():
    # li2 and li3 are a check of [-1, 1] and then the kernel; -0.0 keeps
    # the tabled 0.0
    xs = [k / 64.0 for k in range(-64, 65)] + [
        -0.0, math.nextafter(-1.0, 0.0), math.nextafter(0.5, 0.0),
        math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0)]
    for x in xs:
        assert li2_real(x).hex() == li2(x).hex(), x
        assert li3_real(x).hex() == li3(x).hex(), x
    assert li2_real(-0.0).hex() == li3_real(-0.0).hex() == (0.0).hex()


def _horner(coeffs, y):
    """The loop each kernel's written-out polynomial stands for."""
    p = 0.0
    for c in coeffs:
        p = p * y + c
    return p


def _uniform(lo, hi, seed, n=10_000):
    rng = random.Random(seed)
    return [rng.uniform(lo, hi) for _ in range(n)]


def test_straight_line_polynomials_are_the_horner_loop_bit_for_bit():
    # each zone's polynomial, written out as one expression, rounds as
    # Horner's loop over its coefficient list: the same bits at 10,000
    # points of the zone, u in [-log 2, log 2] or mu in (-log 2, 0)
    log2 = math.log(2.0)
    differ = []
    for u in [-log2, log2] + _uniform(-log2, log2, 1):
        v = u * u
        ref = u - 0.25 * v + u * v * _horner(_LI2_P, v)
        if _li2_u(u).hex() != ref.hex():
            differ.append(("li2", u))
    # li3 at x = 1 - e^-u, whose u the kernel recomputes
    for u in _uniform(-log2, log2, 2):
        x = -math.expm1(-u)
        if x in (0.0, 0.5):  # tabled
            continue
        u = -math.log1p(-x)
        if li3_real(x).hex() != (u * _horner(_LI3_U, u)).hex():
            differ.append(("li3 u", x))
    for x in map(math.exp, _uniform(-log2, 0.0, 3)):
        if not 0.5 < x < 1.0:
            continue
        mu = math.log(x)
        p = _horner(_LI3_Q, mu * mu)
        ref = _ZETA3 + mu * (_PI_SQ_OVER_6 + mu * (
            0.75 - 0.5 * math.log(-mu) + mu * (-1.0 / 12.0 + mu * p)))
        if li3_real(x).hex() != ref.hex():
            differ.append(("li3 mu", x))
    assert differ == []


#: Li2(w), Li3(w) below -1, computed with mpmath at 50 digits and rounded.
INVERSION_REFS = {
    -1.0000000000000002: (-0.8224670334241133721457994,
                          -0.9015426773696958966741711),
    -1.5: (-1.147380660375570754079977, -1.297837450156250147922643),
    -3.0: (-1.939375420766708953077272, -2.348790554584076557805871),
    -10.0: (-4.198277886858103857912145, -5.921064803756973491351928),
    -1000.0: (-25.50247581388996883291656, -66.30012385080927042118810),
    -2.0**53: (-676.4411921149621272703956, -8323.714800456713554941136),
}


def test_inversion_below_minus_one():
    # the kernels map w < -1 to 1/w: within 2 ulp of the reference, and
    # Li2(w) + Li2(1/w) = -pi^2/6 - log^2(-w)/2,
    # Li3(w) - Li3(1/w) = -(pi^2/6) log(-w) - log^3(-w)/6
    pi2_6 = CONSTANTS["PI_SQ_OVER_6"]
    for w, (ref2, ref3) in INVERSION_REFS.items():
        assert abs(li2_real(w) - ref2) <= 2 * math.ulp(ref2), w
        assert abs(li3_real(w) - ref3) <= 2 * math.ulp(ref3), w
    for w in (-1.5, -3.0, -10.0):
        lhs = li2_real(w) + li2(1.0 / w)
        rhs = -pi2_6 - 0.5 * math.log(-w) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-13)
    for w in (-1.5, -4.0):
        lhs = li3_real(w) - li3_real(1.0 / w)
        rhs = -pi2_6 * math.log(-w) - math.log(-w) ** 3 / 6.0
        assert lhs == pytest.approx(rhs, abs=1e-13)
    # above 1 a kernel is outside its contract and math refuses it
    for kernel in (li2_real, li3_real):
        with pytest.raises(ValueError, match="math domain error"):
            kernel(1.5)


@pytest.mark.parametrize("cf", list(ClosedFormId), ids=lambda c: c.name)
def test_closed_forms_pass_the_kernels_at_most_one(cf, monkeypatch):
    # at the edges of each form's domain, crossed with the mu edges, the
    # form is finite and every kernel argument it composes is <= 1
    args = []

    def recording(kernel):
        def call(w):
            args.append(w)
            return kernel(w)
        return call

    monkeypatch.setattr(closed_forms, "li2_real", recording(li2_real))
    monkeypatch.setattr(closed_forms, "li3_real", recording(li3_real))
    domain = CLOSED_FORMS[cf.name]
    ts = [math.nextafter(1.0, 0.0), math.nextafter(domain.lo, 0.0),
          *domain.ends]
    mus = (math.nextafter(-1.0, 0.0), 1.0) if domain.mu else (None,)
    for t in ts:
        for mu in mus:
            assert math.isfinite(closed_form(cf, t, mu)), (t, mu)
    assert all(w <= 1.0 for w in args), max(args)
