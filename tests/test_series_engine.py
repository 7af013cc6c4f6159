"""Coefficient streams, the endpoint tail engine, and series evaluation."""

import json
import math
import pathlib
import re
import time

import pytest

from skewlog import (
    ClosedFormId,
    DomainError,
    SeriesId,
    Status,
    closed_form,
    coefficient,
    get_max_terms,
    set_max_terms,
    skew_harmonic_mu,
    sum_series,
)
from skewlog.catalog import SERIES
from skewlog.core_numerics import DEFAULT_CACHE_LIMIT
from skewlog.near_endpoint import near_sum
from skewlog.series_engine import (
    _SPECS, DEFAULT_MAX_TERMS, _eta, _hurwitz, _interior_sum)

LOG2 = math.log(2.0)


# --- coefficients -----------------------------------------------------------

def test_coefficient_examples():
    assert coefficient(SeriesId.GF_SKEW, 4) == pytest.approx(7.0 / 12.0)
    assert coefficient(SeriesId.GF_CENTERED, 0) == pytest.approx(-LOG2)
    assert coefficient(SeriesId.GF_CENTERED, 3) == pytest.approx(5.0 / 6.0 - LOG2)
    assert coefficient(SeriesId.CENTERED_SQ, 0) == pytest.approx(LOG2**2)
    assert coefficient(SeriesId.SKEW_SQ, 2) == pytest.approx(0.25)
    assert coefficient(SeriesId.SKEW_OVER_NSQ, 2) == pytest.approx(0.5 / 9.0)


def test_ramanujan_coefficients_vanish_on_even_index():
    for n in (0, 2, 4, 10, 100):
        assert coefficient(SeriesId.RAMANUJAN_ODD, n) == 0.0
    assert coefficient(SeriesId.RAMANUJAN_ODD, 1) == pytest.approx(2.0)
    assert coefficient(SeriesId.RAMANUJAN_ODD, 3) == pytest.approx(8.0 / 9.0)
    assert coefficient(SeriesId.RAMANUJAN_ODD, 5) == pytest.approx(46.0 / 75.0)


def test_mu_coefficients_against_direct_formulas():
    mu = 0.5
    for n in range(1, 40):
        s = skew_harmonic_mu(n, mu)
        sign = 1.0 if n % 2 == 1 else -1.0
        assert coefficient(SeriesId.MU_LEWIN, n, mu=mu) == pytest.approx(
            mu * sign * s / (n + 1), rel=1e-13)
        assert coefficient(SeriesId.MU_DILOG, n, mu=mu) == pytest.approx(
            mu * sign * s / n, rel=1e-13)
        inner = math.fsum(skew_harmonic_mu(k, mu) / k for k in range(1, n + 1))
        assert coefficient(SeriesId.MU_TRILOG, n, mu=mu) == pytest.approx(
            sign * inner / n, rel=1e-13)


def test_mu_trilog_coefficient_is_linear_time():
    t0 = time.perf_counter()
    c = coefficient(SeriesId.MU_TRILOG, 3000, mu=0.7)
    dt = time.perf_counter() - t0
    assert math.isfinite(c)
    assert dt < 0.2, dt


def test_mu_argument_policing():
    with pytest.raises(ValueError):
        coefficient(SeriesId.MU_DILOG, 3)  # needs mu
    with pytest.raises(ValueError):
        coefficient(SeriesId.GF_SKEW, 3, mu=0.5)  # must not take mu


def test_coefficient_negative_index():
    with pytest.raises(ValueError):
        coefficient(SeriesId.GF_SKEW, -1)


@pytest.mark.parametrize("mu", [5.0, -1.0, 1.5, math.nan])
def test_coefficient_mu_out_of_domain(mu):
    # as closed_form raises and sum_series reports DIVERGENT_INPUT
    # each names its owner and the owner's whole domain
    with pytest.raises(DomainError, match=re.escape(
            "MU_DILOG requires |t| < 1, -1 < mu <= 1") + "$"):
        coefficient(SeriesId.MU_DILOG, 3, mu=mu)
    with pytest.raises(DomainError, match=re.escape(
            "EQ24 requires |t| < 1, -1 < mu <= 1") + "$"):
        closed_form(ClosedFormId.EQ24, 0.5, mu=mu)
    res = sum_series(SeriesId.MU_DILOG, 0.5, mu=mu)
    assert res.status is Status.DIVERGENT_INPUT


# --- tail engine --------------------------------------------------------------

# zeta(s, x), and -psi(x) for s = 1, as 25-digit literals computed offline
# with mpmath at 40 digits
HURWITZ_CASES = [
    (1, 33.0, -3.481279530534987242153326),
    (1, 16.5, -2.772751371622623497085471),
    (2, 16.5, 0.06247968267796899872461595),
    (2, 34.0, 0.02984853037475571730748159),
    (5, 17.5, 0.000002984664445570464413590625),
    (14, 33.0, 1.692249333666506010331574e-21),
]

# eta(s, x) = sum_{i >= 0} (-1)^i (x+i)^-s, the same way (by nsum, and by
# the digamma / Hurwitz differences)
ETA_CASES = [
    (1, 33.0, 0.01538097835241843565062293),
    (1, 34.0, 0.0149220519506118673796801),
    (2, 33.0, 0.0004730373186824092357262943),
    (3, 34.0, 0.00001328178137029074266709378),
    (12, 33.0, 3.535426763538042746464861e-19),
]


@pytest.mark.parametrize("s,x,ref", HURWITZ_CASES)
def test_hurwitz_against_literals(s, x, ref):
    assert abs(_hurwitz(s, x) - ref) <= 4 * math.ulp(ref)


@pytest.mark.parametrize("s,x,ref", ETA_CASES)
def test_eta_against_literals(s, x, ref):
    # the Hurwitz difference cancels up to ~100x at s = 1 (measured 4.8e-15)
    assert abs(_eta(s, x) - ref) <= 1e-14 * ref


# --- sum_series: interior points --------------------------------------------

INTERIOR_CASES = [
    (SeriesId.GF_SKEW, "EQ2", (-0.9, -0.4, 0.3, 0.8)),
    (SeriesId.GF_CENTERED, "EQ3", (-0.9, -0.4, 0.3, 0.8)),
    (SeriesId.SKEW_OVER_N, "EQ5", (-0.9, -0.4, 0.3, 0.8)),
    (SeriesId.CENTERED_OVER_N, "EQ8", (-0.9, -0.4, 0.3, 0.8)),
    (SeriesId.CENTERED_SHIFT, "EQ11", (-0.9, -0.4, 0.3, 0.8)),
    (SeriesId.SKEW_SQ, "EQ12", (-0.9, -0.4, 0.3, 0.8)),
    (SeriesId.CENTERED_SQ, "EQ13", (-0.9, -0.4, 0.3, 0.8)),
    (SeriesId.CENTERED_SQ_SHIFT, "EQ17", (-0.9, -0.4, 0.3, 0.8)),
    (SeriesId.SKEW_OVER_NSQ, "EQ20", (-0.3, -0.1, 0.4, 0.9)),
]


@pytest.mark.parametrize("sid,cf,ts", INTERIOR_CASES, ids=[c[0].name for c in INTERIOR_CASES])
def test_interior_sum_matches_closed_form(sid, cf, ts):
    from skewlog import ClosedFormId

    cf_id = ClosedFormId[cf]
    for t in ts:
        res = sum_series(sid, t, tol=1e-12)
        assert res.status is Status.CONVERGED, (sid, t)
        ref = closed_form(cf_id, t)
        assert abs(res.value - ref) <= 1e-10, (sid, t)


def test_mu_series_interior():
    from skewlog import ClosedFormId

    for sid, cf in (
        (SeriesId.MU_LEWIN, ClosedFormId.EQ22),
        (SeriesId.MU_DILOG, ClosedFormId.EQ24),
    ):
        for mu in (0.3, 0.8, 1.0):
            for t in (-0.6, 0.5):
                res = sum_series(sid, t, tol=1e-12, mu=mu)
                assert res.status is Status.CONVERGED
                ref = closed_form(cf, t, mu=mu)
                assert abs(res.value - ref) <= 1e-10


def test_sum_series_at_zero():
    res = sum_series(SeriesId.SKEW_OVER_N, 0.0)
    assert res.value == 0.0
    assert res.status is Status.CONVERGED
    # constant-term series start at a0 instead
    res0 = sum_series(SeriesId.GF_CENTERED, 0.0)
    assert res0.value == pytest.approx(-LOG2)


def _interior_rows():
    path = pathlib.Path(__file__).parent / "data" / "interior_bits.txt"
    for line in path.read_text().splitlines():
        if not line.startswith("#"):
            yield line.split()


def test_interior_sums_bit_for_bit():
    # every field of ~240 interior sums as the term-by-term loop gave them,
    # caps of 5 terms and of one that ends inside a block included
    rows = list(_interior_rows())
    assert {row[0] for row in rows} == {sid.name for sid in SeriesId}
    for sid, t, tol, mu, cap, *expected in rows:
        if cap != "-":
            set_max_terms(int(cap))
        res = sum_series(SeriesId[sid], float(t), float(tol),
                         mu=None if mu == "None" else float(mu))
        set_max_terms(DEFAULT_MAX_TERMS)
        got = [res.value.hex(), res.error_bound.hex(), str(res.terms_used),
               res.status.name]
        assert got == expected, (sid, t, tol, mu, cap)


def test_min_terms_is_honored():
    # a sum at a 1000x smaller tol moves the value by at most the bound
    lo = sum_series(SeriesId.GF_SKEW, 0.1, tol=1e-10)
    hi = sum_series(SeriesId.GF_SKEW, 0.1, tol=1e-13)
    assert hi.terms_used > lo.terms_used
    assert abs(hi.value - lo.value) <= lo.error_bound


# --- sum_series: endpoints ---------------------------------------------------

def test_endpoint_values(endpoint_values):
    # every declared rule, to tolerances down to 1e-12, from exactly 32 terms
    assert set(endpoint_values) == {
        (sid, t) for sid, spec in _SPECS.items() for t in spec.endpoints}
    for (sid, t), ref in endpoint_values.items():
        for tol in (1e-6, 1e-8, 1e-10, 1e-11, 1e-12):
            res = sum_series(sid, t, tol=tol)
            err = abs(res.value - ref)
            assert res.status is Status.CONVERGED, (sid, t, tol)
            assert err <= tol, (sid, t, tol, err)
            # reported bound must cover the actual error
            assert err <= res.error_bound + math.ulp(ref), (sid, t, tol, err)
            assert res.terms_used == 32, (sid, t, tol, res.terms_used)


# float.hex of (value, error_bound) of every endpoint rule at tol 1e-10.  A
# change to a rule that moves either by one ulp must update this table on
# purpose (tools/report_diff.py shows what it does to the report).
ENDPOINT_BITS = {
    (SeriesId.GF_CENTERED, 1.0):
        ("-0x1.ffffffffffffbp-2", "0x1.d2a7fa1ee68f8p-46"),
    (SeriesId.SKEW_OVER_N, -1.0):
        ("-0x1.100caf119dc9cp+0", "0x1.082ab9951cf31p-48"),
    (SeriesId.CENTERED_OVER_N, 1.0):
        ("0x1.ebfbdff82c58fp-3", "0x1.f8a0b6dd3b19ep-49"),
    (SeriesId.CENTERED_OVER_N, -1.0):
        ("-0x1.2a1b6e2725670p-1", "0x1.013e2a8a62b73p-48"),
    (SeriesId.CENTERED_SHIFT, 1.0):
        ("-0x1.2a1b6e272566fp-1", "0x1.018050a541ec2p-48"),
    (SeriesId.CENTERED_SHIFT, -1.0):
        ("0x1.100caf119dc9bp+0", "0x1.086cdfaffc280p-48"),
    (SeriesId.CENTERED_SQ, -1.0):
        ("0x1.a51a6625307d2p-2", "0x1.261e53200d054p-48"),
    (SeriesId.CENTERED_SQ, 1.0):
        ("0x1.62e42fefa39efp-1", "0x1.2a2e670d79f7bp-48"),
    (SeriesId.CENTERED_SQ_SHIFT, -1.0):
        ("-0x1.c51448aca3f17p-2", "0x1.1b280e680cc41p-49"),
    (SeriesId.CENTERED_SQ_SHIFT, 1.0):
        ("0x1.1a9213a2882cfp-1", "0x1.1e4f8c4abe382p-49"),
    (SeriesId.SKEW_OVER_NSQ, 1.0):
        ("0x1.0434c8cca6cf8p-1", "0x1.c9a83ea091a08p-51"),
}


def test_endpoint_rules_bit_for_bit():
    assert set(ENDPOINT_BITS) == {
        (sid, t) for sid, spec in _SPECS.items() for t in spec.endpoints}
    for (sid, t), bits in ENDPOINT_BITS.items():
        res = sum_series(sid, t, tol=1e-10)
        assert (res.value.hex(), res.error_bound.hex()) == bits, (sid, t)


def test_endpoint_rule_ignores_tol():
    # value, bound and terms do not depend on tol or on earlier calls; tol
    # only picks the status, CONVERGED exactly when bound <= tol
    for sid, spec in _SPECS.items():
        for t in spec.endpoints:
            first = sum_series(sid, t, tol=1e-10)
            for tol in (1e-6, 1e-8, 1e-10, 1e-12, 1e-13, 1e-14, 1e-15):
                for _ in range(2):
                    res = sum_series(sid, t, tol=tol)
                    assert res[:3] == first[:3], (sid, t, tol)
                    assert res.terms_used == 32
            bound = first.error_bound
            assert sum_series(sid, t, tol=bound).status is Status.CONVERGED
            short = sum_series(sid, t, tol=math.nextafter(bound, 0.0))
            assert short.status is Status.MAX_TERMS, (sid, t)
            assert short[:3] == first[:3], (sid, t)


def test_endpoint_bound_within_envelope():
    # the direct-sum endpoint must report a bound no worse than 1/(N+1)
    res = sum_series(SeriesId.CENTERED_SQ, 1.0, tol=1e-6)
    assert res.error_bound <= 1.0 / (res.terms_used + 1)


def test_divergent_endpoints():
    for sid, t in (
        (SeriesId.GF_SKEW, 1.0),
        (SeriesId.GF_SKEW, -1.0),
        (SeriesId.SKEW_OVER_N, 1.0),
        (SeriesId.SKEW_SQ, 1.0),
        (SeriesId.GF_CENTERED, -1.0),
    ):
        res = sum_series(sid, t)
        assert res.status is Status.DIVERGENT_INPUT, (sid, t)
        assert math.isnan(res.value)
        assert math.isinf(res.error_bound)


def test_out_of_domain_t():
    res = sum_series(SeriesId.GF_SKEW, 1.5)
    assert res.status is Status.DIVERGENT_INPUT
    res = sum_series(SeriesId.SKEW_OVER_NSQ, -0.5)  # domain floor is -1/3
    assert res.status is Status.DIVERGENT_INPUT


def test_mu_domain():
    assert sum_series(SeriesId.MU_DILOG, 0.5, mu=1.0).status is Status.CONVERGED
    assert sum_series(SeriesId.MU_DILOG, 0.5, mu=-1.0).status is Status.DIVERGENT_INPUT
    assert sum_series(SeriesId.MU_DILOG, 0.5, mu=1.2).status is Status.DIVERGENT_INPUT
    with pytest.raises(ValueError):
        sum_series(SeriesId.MU_DILOG, 0.5)  # mu is required
    with pytest.raises(ValueError):
        sum_series(SeriesId.GF_SKEW, 0.5, mu=0.5)


# --- sum_series: near-endpoint rule ------------------------------------------

NEAR = [sid for sid, spec in _SPECS.items() if spec.near]

#: Worst |value - reference| / error_bound per series over its golden keys
#: (tests/data/reference.json, ["series", id, t, null]: +-0.99, +-0.995 and
#: +-(1 - 10^-k), k = 3..15).  A gate may only tighten.
NEAR_RATIO = {
    SeriesId.GF_SKEW: 0.20,
    SeriesId.GF_CENTERED: 0.12,
    SeriesId.SKEW_OVER_N: 0.22,
    SeriesId.CENTERED_OVER_N: 0.03,
    SeriesId.CENTERED_SHIFT: 0.06,
    SeriesId.SKEW_SQ: 0.28,
    SeriesId.CENTERED_SQ: 0.04,
    SeriesId.CENTERED_SQ_SHIFT: 0.08,
    SeriesId.SKEW_OVER_NSQ: 0.10,
}


def _near_golden():
    path = pathlib.Path(__file__).parent / "data" / "reference.json"
    for key, ref in json.loads(path.read_text())["values"].items():
        key = json.loads(key)
        if key[0] == "series":
            yield SeriesId[key[1]], key[2], ref


def test_near_rule_series():
    # the nine series without mu, RAMANUJAN_ODD excepted
    assert set(NEAR) == set(NEAR_RATIO) == set(SeriesId) - {
        SeriesId.MU_LEWIN, SeriesId.MU_DILOG, SeriesId.MU_TRILOG,
        SeriesId.RAMANUJAN_ODD}


def test_near_rule_against_golden():
    worst = dict.fromkeys(NEAR, 0.0)
    keys = list(_near_golden())
    assert len(keys) == 8 * 30 + 15
    for sid, t, (hi, lo) in keys:
        res = sum_series(sid, t, tol=1e-12 * max(1.0, abs(hi)))
        assert res.status is Status.CONVERGED, (sid, t)
        assert res.terms_used == 32, (sid, t)
        err = abs(res.value - hi - lo)
        assert err <= res.error_bound, (sid, t, err, res.error_bound)
        worst[sid] = max(worst[sid], err / res.error_bound)
    assert {sid: r for sid, r in worst.items() if r > NEAR_RATIO[sid]} == {}


def test_near_rule_meets_the_endpoint_rules():
    # 1e-15 from an end, the near rule agrees with the end's rule
    t_near = 1.0 - 1e-15
    for sid in NEAR:
        for end in _SPECS[sid].endpoints:
            near = sum_series(sid, end * t_near, tol=1e-6)
            rule = sum_series(sid, end, tol=1e-6)
            assert near.terms_used == 32 and near.status is Status.CONVERGED
            gap = abs(near.value - rule.value)
            assert gap <= near.error_bound + rule.error_bound + 1e-12, (
                sid, end, gap)


def test_near_rule_meets_the_interior_sum():
    # at the band's start, and one double inside it, both regimes agree
    for sid in NEAR:
        spec = _SPECS[sid]
        for edge in (0.99, -0.99):
            for t in (edge, math.nextafter(edge, 0.0)):
                if t <= spec.lo:
                    continue
                near = near_sum(spec, t)
                inner = _interior_sum(spec, t, 1e-13, None)
                assert inner.status is Status.CONVERGED, (sid, t)
                gap = abs(near.value - inner.value)
                assert gap <= near.error_bound + inner.error_bound + 1e-11, (
                    sid, t, gap)


def test_near_rule_dispatch():
    t = 0.99
    below = math.nextafter(t, 0.0)
    for sid in NEAR:
        # the band starts at |t| = 0.99
        assert sum_series(sid, t, tol=1e-10).terms_used == 32
        assert sum_series(sid, below, tol=1e-10).terms_used > 500
        # the near rule ignores the term cap
        first = sum_series(sid, t, tol=1e-10)
        set_max_terms(5)
        assert sum_series(sid, t, tol=1e-10) == first, sid
        set_max_terms(DEFAULT_MAX_TERMS)
    # a bound above tol falls back to the interior sum
    near = sum_series(SeriesId.GF_SKEW, t, tol=1e-10)
    tight = sum_series(SeriesId.GF_SKEW, t, tol=near.error_bound / 2)
    assert tight.terms_used > 32
    assert tight == _interior_sum(_SPECS[SeriesId.GF_SKEW], t,
                                  near.error_bound / 2, None)
    # the mu series and RAMANUJAN_ODD stay interior sums
    assert sum_series(SeriesId.MU_DILOG, t, mu=0.5).terms_used > 32
    assert sum_series(SeriesId.RAMANUJAN_ODD, -t).terms_used > 32


# --- term cap ----------------------------------------------------------------

def test_max_terms_cap_and_status():
    old = get_max_terms()
    try:
        set_max_terms(40)
        res = sum_series(SeriesId.GF_SKEW, 0.999, tol=1e-14)
        assert res.status is Status.MAX_TERMS
        assert res.terms_used <= 40
    finally:
        set_max_terms(old)
    assert get_max_terms() == old


def test_set_max_terms_validation():
    with pytest.raises(ValueError):
        set_max_terms(0)
    with pytest.raises(ValueError):
        set_max_terms(-5)


def test_term_cap_stays_within_the_cache_limit():
    # a cap the harmonic cache cannot serve is refused up front, rather
    # than accepted and failing in the middle of a sum
    old = get_max_terms()
    with pytest.raises(ValueError, match=str(DEFAULT_CACHE_LIMIT)):
        set_max_terms(DEFAULT_CACHE_LIMIT + 1)
    assert get_max_terms() == old
    set_max_terms(DEFAULT_CACHE_LIMIT)
    res = sum_series(SeriesId.RAMANUJAN_ODD, 0.5, tol=1e-12)
    assert res.status is Status.CONVERGED


# --- catalog -----------------------------------------------------------------

def test_series_catalog_shape():
    assert len(SERIES) == len(SeriesId)
    assert list(SERIES) == [sid.name for sid in SeriesId]
    for closed_form, alias, domain in SERIES.values():
        assert closed_form.startswith("EQ") and alias.startswith("EQ")
        assert domain
