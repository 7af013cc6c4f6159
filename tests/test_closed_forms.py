"""Closed-form right-hand sides, the log-weighted dilog antiderivative, and
the small identity helpers built on top of it."""

import json
import math
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from skewlog import (
    ClosedFormId,
    DomainError,
    EQ18_VALUE,
    EQ19_VALUE,
    SeriesId,
    abel_sides,
    closed_form,
    closed_form_eq17,
    constant,
    int_li2_over_1mt,
    li2,
    sum_series,
)
from skewlog.polylog import li2_real

LOG2 = math.log(2.0)

# antiderivative values pinned from a 50-digit evaluation
J_REFS = {
    0.25: 0.03944395559148087660383,
    0.7: 0.5937934916801369027415,
    -0.5: 0.08794340412340917239759,
    -0.9: 0.2291993498587533131016,
    0.95: 2.776004488073439031083,
    -1.0: 0.2695764795315278073874,
}


def test_value_at_zero_and_limits():
    assert closed_form(ClosedFormId.EQ3, 0.0) == pytest.approx(-LOG2)
    # removable limits at t -> 1
    assert closed_form(ClosedFormId.EQ3, 1.0 - 1e-10) == pytest.approx(-0.5, abs=1e-6)
    assert closed_form(ClosedFormId.EQ3, 1.0) == -0.5
    assert closed_form(ClosedFormId.EQ13, 1.0) == pytest.approx(LOG2)
    assert closed_form(ClosedFormId.EQ13, 1.0 - 1e-6) == pytest.approx(LOG2, abs=1e-5)


def test_simple_poles_raise():
    # t = 1 is outside the domains, [-1, 1) and (-1, 1); every t below it
    # has a finite value, large near the pole
    for cf, text in ((ClosedFormId.EQ5, "-1 <= t < 1"),
                     (ClosedFormId.EQ12, "|t| < 1")):
        with pytest.raises(DomainError, match=f"{cf.name} requires {text}"):
            closed_form(cf, 1.0)
        for t in (1.0 - 1e-4, 1.0 - 1e-12, math.nextafter(1.0, 0.0)):
            assert 1.0 < closed_form(cf, t) < math.inf, (cf, t)
    assert closed_form(ClosedFormId.EQ12, 1.0 - 1e-12) > 1e11


#: Relative error gate per closed form against the golden table
#: (tests/data/reference.json, keys ["cf", id, t, null]) at the points
#: 1 - 10^-k, k = 8..15, and the double below 1, next to the pole t = 1:
#: each is the measured worst error there, EQ5 1.58e-16 (1.1 ulp) and EQ12
#: 8.16e-15 (71 ulp, the 1/(1-t) of a bracket that cancels to log^2 2).
GOLDEN_REL = {"EQ5": 1.6e-16, "EQ12": 8.2e-15}
GOLDEN = pathlib.Path(__file__).parent / "data" / "reference.json"


def test_golden_table_next_to_the_pole():
    values = json.loads(GOLDEN.read_text())["values"]
    seen = {}
    for key, (hi, lo) in values.items():
        kind, *args = json.loads(key)
        if kind != "cf" or args[0] not in GOLDEN_REL:
            continue  # the EQ29_G and EQ30_BIGG keys check the quadrature
        cid, t, mu = args
        err = abs((closed_form(ClosedFormId[cid], t, mu) - hi) - lo)
        assert err <= GOLDEN_REL[cid] * abs(hi), (key, err / abs(hi))
        seen[cid] = seen.get(cid, 0) + 1
    assert seen == {"EQ5": 9, "EQ12": 9}


def test_domain_checks():
    with pytest.raises(DomainError):
        closed_form(ClosedFormId.EQ3, 1.5)
    with pytest.raises(DomainError):
        closed_form(ClosedFormId.EQ20, -0.5)  # floor at -1/3
    with pytest.raises(DomainError):
        closed_form(ClosedFormId.EQ26, -0.34)


def test_mu_argument_policing():
    with pytest.raises(ValueError):
        closed_form(ClosedFormId.EQ24, 0.5)  # needs mu
    with pytest.raises(ValueError):
        closed_form(ClosedFormId.EQ3, 0.5, mu=0.7)


# --- the antiderivative J(x) = int_0^x li2(t)/(1-t) dt ------------------------

def test_antiderivative_reference_values():
    for x, ref in J_REFS.items():
        assert int_li2_over_1mt(x) == pytest.approx(ref, abs=1e-13)
    assert int_li2_over_1mt(0.0) == 0.0


#: Relative error gate for J against the golden table (["J", x] at
#: +-10^-k, k = 1..15, and +-1/16 with its 1 and 4 ulp neighbours), per
#: branch of the kernel, just above the measured worst: the u-series below
#: |x| = 1/16 (2.68e-16), version a from there (2.93e-14, at x = 1/16).
J_GOLDEN_REL = {"u": 2.7e-16, "a": 3.0e-14}


def test_antiderivative_golden_table():
    values = json.loads(GOLDEN.read_text())["values"]
    worst = {}
    for key, (hi, lo) in values.items():
        name, *args = json.loads(key)
        if name != "J":
            continue
        [x] = args
        branch = "u" if abs(x) < 0.0625 else "a"
        err = abs((int_li2_over_1mt(x) - hi) - lo) / abs(hi)
        worst[branch] = max(worst.get(branch, 0.0), err)
    assert set(worst) == set(J_GOLDEN_REL)
    assert {b: r for b, r in worst.items() if r > J_GOLDEN_REL[b]} == {}


def test_antiderivative_versions_agree():
    for k in range(51):
        x = 0.5 * k / 50.0
        a = int_li2_over_1mt(x, version="a")
        b = int_li2_over_1mt(x, version="b")
        assert abs(a - b) <= 1e-12, x


def test_antiderivative_closure_value():
    # x = -1 in closed form: pi^2/12 * log 2 - zeta(3)/4
    ref = constant("PI_SQ_OVER_12") * LOG2 - constant("ZETA3") / 4.0
    assert int_li2_over_1mt(-1.0) == pytest.approx(ref, abs=1e-13)


def test_antiderivative_domain():
    with pytest.raises(DomainError):
        int_li2_over_1mt(1.0)
    with pytest.raises(DomainError):
        int_li2_over_1mt(-1.0001)
    with pytest.raises(ValueError):
        int_li2_over_1mt(0.5, version="c")


def test_j_u_is_the_horner_loop_bit_for_bit():
    # _j_u's polynomial, written out as one expression, rounds as Horner's
    # loop over _J_P: the same bits at 10,000 points of |x| < 1/16
    from skewlog.closed_forms import _J_P, _j_u

    rng = random.Random(4)
    differ = []
    for x in [rng.uniform(-0.0625, 0.0625) for _ in range(10_000)]:
        u = -math.log1p(-x)
        v = u * u
        p = 0.0
        for c in _J_P:
            p = p * v + c
        if _j_u(x).hex() != (v * (0.5 - u / 12.0 + v * p)).hex():
            differ.append(x)
    assert differ == []


def test_eq17_takes_the_unchecked_j_kernel(monkeypatch):
    # closed_form has checked x, so EQ17 and EQ30_BIGG skip the public J's
    # checks; the kernel is the public function bit for bit
    from skewlog import closed_forms

    for k in range(-40, 40):
        x = k / 40.0
        assert closed_forms._j(x) == int_li2_over_1mt(x), x
    forms = (ClosedFormId.EQ17, ClosedFormId.EQ30_BIGG)
    before = {(cf, x): closed_form(cf, x)
              for cf in forms for x in (-0.7, 0.3, 0.8)}

    def refuse(*args, **kwargs):
        raise AssertionError("the public J was called")

    monkeypatch.setattr(closed_forms, "int_li2_over_1mt", refuse)
    assert {key: closed_form(*key) for key in before} == before


def test_uncorrected_constant_is_visibly_wrong():
    # the historical misprint (pi/6 for pi^2/6) shifts version b by
    # (pi^2/6 - pi/6) * log(1-x), far from the independent version a
    x = 0.4
    good = int_li2_over_1mt(x, version="b")
    bad = good + math.log1p(-x) * (math.pi**2 / 6.0 - math.pi / 6.0)
    assert abs(good - int_li2_over_1mt(x, version="a")) <= 1e-12
    assert abs(int_li2_over_1mt(x, version="a") - bad) > 0.3


def test_eq17_assembled_expression():
    assert closed_form_eq17(0.0) == 0.0
    assert closed_form_eq17(0.3) == pytest.approx(0.14875566910609719, abs=1e-13)
    assert closed_form_eq17(1.0) == pytest.approx(EQ18_VALUE, abs=1e-15)
    assert closed_form_eq17(-1.0) == pytest.approx(EQ19_VALUE, abs=1e-15)
    # endpoint windows snap to the closure constants
    assert closed_form_eq17(1.0 - 1e-12) == closed_form_eq17(1.0)
    z3 = constant("ZETA3")
    assert EQ18_VALUE == pytest.approx(
        1.5 * z3 - constant("PI_SQ_OVER_6") * LOG2 - LOG2**3 / 3.0, abs=1e-15)
    assert EQ19_VALUE == pytest.approx(
        constant("PI_SQ_OVER_12") * LOG2 - 0.75 * z3 - LOG2**3 / 3.0, abs=1e-15)


# --- five-term dilog relation -------------------------------------------------

def test_abel_degenerate_mu():
    # at mu = 0 both sides collapse to the same single dilog term
    for x in (-0.5, 0.0, 0.7):
        lhs, rhs = abel_sides(0.0, x)
        assert lhs == rhs
    lhs, rhs = abel_sides(0.0, 0.3)
    assert lhs - rhs == 0.0


def test_abel_residual_grid():
    for mu in (-0.8, -0.3, 0.2, 0.7, 1.0):
        for x in (-0.9, -0.4, 0.3, 0.8):
            lhs, rhs = abel_sides(mu, x)
            assert abs(lhs - rhs) <= 1e-12, (mu, x)


@given(
    mu=st.floats(min_value=-0.95, max_value=1.0),
    x=st.floats(min_value=-0.95, max_value=0.95),
)
@settings(max_examples=60)
def test_abel_residual_property(mu, x):
    lhs, rhs = abel_sides(mu, x)
    assert abs(lhs - rhs) <= 1e-11


def test_abel_closed_form_takes_only_the_right_side(monkeypatch):
    # EQ25_ABEL is the relation's right side: two li2 kernel calls, not
    # the five of both sides; abel_sides returns the same value as its rhs
    from skewlog import closed_forms

    calls = []
    kernel = closed_forms.li2_real

    def counted(x):
        calls.append(x)
        return kernel(x)

    monkeypatch.setattr(closed_forms, "li2_real", counted)
    for mu, x in ((0.5, 0.3), (-0.8, -0.9), (1.0, 0.8), (0.2, 0.0)):
        calls.clear()
        rhs = closed_form(ClosedFormId.EQ25_ABEL, x, mu=mu)
        assert len(calls) == 2, (mu, x)
        calls.clear()
        assert abel_sides(mu, x)[1] == rhs, (mu, x)
        assert len(calls) == 5, (mu, x)


# --- composed-argument identities ---------------------------------------------

def test_eq26_matches_direct_dilog():
    for x in (-1.0 / 3.0, -0.2, 0.0, 0.25, 0.6, 1.0):
        direct = li2(2.0 * x / (1.0 + x))
        assert closed_form(ClosedFormId.EQ26, x) == pytest.approx(direct, abs=1e-13)


def test_landen_matches_direct_dilog():
    # x/(1+x) drops below -1 once x < -1/2, where the kernel inverts
    for x in (-0.9, -0.5, 0.0, 0.3, 0.9, 1.0):
        direct = li2_real(x / (1.0 + x))
        assert closed_form(ClosedFormId.LANDEN, x) == pytest.approx(direct, abs=1e-13)


def test_ramanujan_residuals():
    for x in (-0.9, -0.5, -0.34, 0.0, 0.3, 0.7, 0.95):
        closed = closed_form(ClosedFormId.EQ27_RAMANUJAN, x)
        series = sum_series(SeriesId.RAMANUJAN_ODD, x, 1e-13).value
        assert abs(closed - series) <= 1e-11, x


# --- series/derivative consistency for the mu forms ---------------------------

def test_mu_closed_forms_differentiate_consistently():
    # B(x) = closed_form(EQ24) has B'(x)(1+x) equal to the alternating
    # generating function of the mu skew-harmonic numbers; check with a
    # high-order central difference against the truncated series.
    from skewlog import skew_harmonic_mu

    mu = 0.5
    for x in (-0.4, 0.4):
        h = 1e-4
        stencil = (
            closed_form(ClosedFormId.EQ24, x - 2 * h, mu=mu)
            - 8.0 * closed_form(ClosedFormId.EQ24, x - h, mu=mu)
            + 8.0 * closed_form(ClosedFormId.EQ24, x + h, mu=mu)
            - closed_form(ClosedFormId.EQ24, x + 2 * h, mu=mu)
        ) / (12.0 * h)
        series = mu * math.fsum(
            (-1.0) ** (n - 1) * skew_harmonic_mu(n, mu) * x ** (n - 1)
            for n in range(1, 200)
        )
        assert stencil * (1.0 + x) == pytest.approx(series * (1.0 + x), abs=5e-9)
