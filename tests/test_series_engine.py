"""Coefficient streams, the endpoint tail engine, and series evaluation."""

import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import threading
import time
from itertools import chain, count, islice

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
from skewlog.core_numerics import (
    _BERNOULLI_DEN, _BERNOULLI_NUM, DEFAULT_CACHE_LIMIT)
from skewlog.c_sums import (
    _TAIL_TERMS, _eta, _expansion, _hurwitz, _lerch_values, near_sum)
from skewlog.mu_split import backward as mu_split, forward
from skewlog.result import EvalResult
from skewlog.series_engine import (
    _FP_SLACK, _SPECS, _TABLE_TERMS, DEFAULT_MAX_TERMS, _capped_tail,
    _endpoint, _interior_sum, _plain)

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


def _bernoulli_poly(n, p, q):
    """q^n B_n(p/q) times _BERNOULLI_DEN, an exact integer."""
    return sum(math.comb(n, k) * _BERNOULLI_NUM[k] * p ** (n - k) * q**k
               for k in range(n + 1))


def test_lerch_values_below_one_are_bernoulli_polynomials():
    # zeta(1 - n, a) = -B_n(a)/n and eta(1 - n, a) = 2^(n-1) (zeta(1 - n,
    # a/2) - zeta(1 - n, (a+1)/2)) = (B_n((a+1)/2) - B_n(a/2)) / 2n, each
    # an exact rational rounded once: the integer sums give the same bits
    a = _TAIL_TERMS + 1
    zeta, eta = _lerch_values()
    below = sorted(s for s in zeta if s <= 0)
    assert below == sorted(s for s in eta if s <= 0) and len(below) == 21
    for s in below:
        n = 1 - s
        assert zeta[s] == -_bernoulli_poly(n, a, 1) / (n * _BERNOULLI_DEN)
        assert eta[s] == (_bernoulli_poly(n, a + 1, 2) - _bernoulli_poly(
            n, a, 2)) / (2 * n * _BERNOULLI_DEN)


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


def _raw_rule(spec, mu):
    """The series' block rule, without the table a series without mu
    reads it through."""
    block = spec.coeffs(mu)
    return getattr(block, "rule", block)


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


def _running(sid, t, mu):
    """(a_n t^n, tail bound at n) for n = 0, 1, ..., one term at a time:
    a_n from the series' raw block rule (not its table) 64 at a time, t^n a
    running product, and the tail bound env(n+1) |t^n| |t|^(p+1)/(1-|t|)."""
    spec = _SPECS[sid]
    block = _raw_rule(spec, mu)
    coefficients = chain.from_iterable(
        block(lo, lo + 64) for lo in count(0, 64))
    q = abs(t)
    c = q ** (spec.p + 1) / (1.0 - q)
    pw = 1.0
    for n, a in enumerate(coefficients):
        yield a * pw, spec.env(n + 1, mu) * abs(pw) * c
        pw *= t


def _term_by_term(sid, t, tol, mu):
    """The interior sum as a plain loop: stop at the first n whose tail
    bound is at most tol/2, or at the term cap, and fsum the terms."""
    terms = []
    for term, tail in islice(_running(sid, t, mu), get_max_terms()):
        terms.append(term)
        if tail <= 0.5 * tol:
            break
    p = _SPECS[sid].p
    value = math.fsum(terms) * t**p if p else math.fsum(terms)
    bound = tail + _FP_SLACK * (1.0 + abs(value))
    status = (Status.CONVERGED if tail <= 0.5 * tol and bound <= tol
              else Status.MAX_TERMS)
    return EvalResult(value, bound, len(terms), status)


def _bits(res):
    return (res.value.hex(), res.error_bound.hex(), res.terms_used,
            res.status)


def _at_cap(cap, fn, *args):
    set_max_terms(cap)
    try:
        return fn(*args)
    finally:
        set_max_terms(DEFAULT_MAX_TERMS)


def test_interior_sums_term_by_term():
    # the block engine against a plain loop that shares only the
    # coefficients with it: every pinned row that sum_series sums as an
    # interior sum ...
    interior = 0
    for sid, t, tol, mu, cap, *_ in _interior_rows():
        sid, t, tol = SeriesId[sid], float(t), float(tol)
        mu = None if mu == "None" else float(mu)
        cap = DEFAULT_MAX_TERMS if cap == "-" else int(cap)
        res = _at_cap(cap, sum_series, sid, t, tol, mu)
        if res == _at_cap(cap, _interior_sum, _SPECS[sid], t, tol, mu):
            interior += 1
            assert _bits(res) == _bits(_at_cap(
                cap, _term_by_term, sid, t, tol, mu)), (sid, t, tol, mu, cap)
    assert interior == 141
    # ... and stops just before, at and after the block edges 64 and 192,
    # under the default cap and caps of 5 and 100, for both signs of t
    for sid, mu in ((SeriesId.GF_SKEW, None), (SeriesId.CENTERED_SHIFT, None),
                    (SeriesId.RAMANUJAN_ODD, None), (SeriesId.MU_TRILOG, 1.0)):
        for t in (0.85, -0.85):
            for stop in (63, 64, 65, 191, 192, 193):
                # tol/2 is the tail bound at the last term summed
                _, tail = next(islice(_running(sid, t, mu), stop - 1, None))
                tol = 2.0 * tail
                for cap in (DEFAULT_MAX_TERMS, 5, 100):
                    res = _at_cap(cap, sum_series, sid, t, tol, mu)
                    assert res.terms_used == min(stop, cap)
                    assert _bits(res) == _bits(_at_cap(
                        cap, _term_by_term, sid, t, tol, mu)), (
                            sid, t, stop, cap)


# --- coefficient tables -----------------------------------------------------

#: The series whose a_n come from a table: those without mu but GF_SKEW,
#: whose block is already a slice of the harmonic cache.
TABLED = [sid for sid, spec in _SPECS.items()
          if not spec.domain.mu and hasattr(spec.coeffs(None), "rule")]


def _hex(xs):
    return [x.hex() for x in xs]


def test_tabled_series():
    assert set(TABLED) == {sid for sid in SeriesId if not SERIES[
        sid.name].domain.mu} - {SeriesId.GF_SKEW}


def test_coefficient_tables_match_their_rules():
    # a fresh table grown in ascending, descending and seeded random order
    # of blocks gives every block the bits of the raw rule, blocks that
    # reach past _TABLE_TERMS included, and ends as long as the longest
    # block within _TABLE_TERMS, equal to the rule from a_0
    rng = random.Random(2929)
    edge = _TABLE_TERMS
    blocks = [(0, 1), (0, 64), (5, 6), (64, 192), (edge - 64, edge),
              (edge - 3, edge + 5), (edge, edge + 64), (edge + 100, edge + 101)]
    for _ in range(40):
        lo = rng.randrange(edge + 200)
        blocks.append((lo, lo + rng.randint(1, 300)))
    orders = {"ascending": sorted(blocks),
              "descending": sorted(blocks, reverse=True),
              "random": rng.sample(blocks, len(blocks))}
    longest = max(hi for _, hi in blocks if hi <= edge)
    for sid in TABLED:
        rule = _raw_rule(_SPECS[sid], None)
        for order, seq in orders.items():
            tabled = _plain(rule)(None)
            for lo, hi in seq:
                assert _hex(tabled(lo, hi)) == _hex(rule(lo, hi)), (
                    sid, order, lo, hi)
            assert len(tabled.table) == longest, (sid, order)
            assert _hex(tabled.table) == _hex(rule(0, longest)), (sid, order)


def test_coefficient_tables_are_bounded():
    # a clean interpreter: importing builds no table; a_n up to
    # _TABLE_TERMS - 1 fill a table to _TABLE_TERMS, and coefficients and
    # interior sums far past it add nothing, while such a sum keeps the
    # bits of the same engine without tables
    code = """if True:
        from skewlog import SeriesId, coefficient
        from skewlog.series_engine import _SPECS, _TABLE_TERMS, _interior_sum
        tables = {sid: spec.coeffs(None).table for sid, spec in _SPECS.items()
                  if not spec.domain.mu and hasattr(spec.coeffs(None), "table")}
        print(sorted(set(map(len, tables.values()))))
        same = True
        for sid in tables:
            spec = _SPECS[sid]
            coefficient(sid, _TABLE_TERMS - 1)
            coefficient(sid, 3 * _TABLE_TERMS)
            raw = spec._replace(coeffs=lambda mu: spec.coeffs(None).rule)
            for t in (0.9995, -0.9995):
                same &= (_interior_sum(spec, t, 1e-13, None)
                         == _interior_sum(raw, t, 1e-13, None))
        print(max(map(len, tables.values())), same)
    """
    path = os.pathsep.join([str(pathlib.Path(__file__).parents[1] / "src"),
                            *sys.path])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True,
                         timeout=120).stdout.split("\n")
    assert out[0] == "[0]"
    assert out[1] == f"{_TABLE_TERMS} True"


def test_coefficient_tables_fill_under_threads(monkeypatch):
    # 4 threads sum the tabled rows in turn, each row at four t, each
    # thread in its own order of t so that they grow a table together, on
    # empty tables and with a short switch interval, in 20 rounds: each sum
    # keeps its serial bits, and each table ends as the raw rule up to the
    # most terms a sum of its row took, so no range went in twice
    ts = (0.5, -0.9, 0.95, -0.98)
    jobs = [(sid, t) for sid in TABLED for t in ts]
    tol = 1e-13
    serial = {job: _bits(sum_series(job[0], job[1], tol)) for job in jobs}
    most = {sid: max(serial[job][2] for job in jobs if job[0] is sid)
            for sid in TABLED}

    def work(k, start, got, errors):
        try:
            start.wait(timeout=30)
            for sid in TABLED:
                for t in ts[k:] + ts[:k]:
                    got.append(((sid, t), _bits(sum_series(sid, t, tol))))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            tables = {}
            for sid in TABLED:
                coeffs = _plain(_raw_rule(_SPECS[sid], None))
                tables[sid] = coeffs(None).table
                monkeypatch.setitem(_SPECS, sid,
                                    _SPECS[sid]._replace(coeffs=coeffs))
            start, got, errors = threading.Barrier(4), [[], [], [], []], []
            threads = [threading.Thread(target=work,
                                        args=(k, start, got[k], errors))
                       for k in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert errors == []
            for k in range(4):
                assert len(got[k]) == len(jobs)
                assert all(bits == serial[job] for job, bits in got[k]), k
            for sid, table in tables.items():
                assert len(table) == most[sid], sid
                assert _hex(table) == _hex(
                    _raw_rule(_SPECS[sid], None)(0, most[sid])), sid
    finally:
        sys.setswitchinterval(interval)


def test_capped_tail_is_a_floor():
    # sum_series returns a near result above tol as MAX_TERMS, without the
    # interior sum, when its bound is at most _capped_tail: that needs
    # every interior sum that stops at the cap to report at least it
    for cap in (5, 100, 1000):
        for sid in SeriesId:
            spec = _SPECS[sid]
            for mu in (-0.9, 0.5, 1.0) if spec.domain.mu else (None,):
                for q in (0.9, 0.99, 0.999):
                    for t in (q, -q):
                        res = _at_cap(cap, _interior_sum, spec, t, 1e-300, mu)
                        assert res.status is Status.MAX_TERMS
                        assert res.terms_used == cap
                        floor = _at_cap(cap, _capped_tail, spec, t, mu)
                        assert res.error_bound >= floor, (sid, t, mu, cap)


#: Worst |value - reference| / error_bound per series over its interior
#: golden keys (tests/data/reference.json, ["series", id, t, mu] at |t| <
#: 0.99: one seeded point per 0.1-wide stratum of |t| and +-0.9, +-0.95,
#: +-0.98; mu = -0.999, -0.5, 0.5, 0.9, 1), at tol 1e-10 and 1e-13.  A gate
#: may only tighten.
INTERIOR_RATIO = {
    SeriesId.GF_SKEW: 0.757,
    SeriesId.GF_CENTERED: 0.521,
    SeriesId.SKEW_OVER_N: 0.719,
    SeriesId.CENTERED_OVER_N: 0.934,
    SeriesId.CENTERED_SHIFT: 0.523,
    SeriesId.SKEW_SQ: 0.574,
    SeriesId.CENTERED_SQ: 0.286,
    SeriesId.CENTERED_SQ_SHIFT: 0.299,
    SeriesId.SKEW_OVER_NSQ: 0.777,
    SeriesId.MU_LEWIN: 0.990,
    SeriesId.MU_DILOG: 0.991,
    SeriesId.MU_TRILOG: 0.874,
    SeriesId.RAMANUJAN_ODD: 0.763,
}


def test_interior_against_golden():
    keys = [*_series_golden(False, near=False),
            *_series_golden(True, near=False)]
    assert len(keys) == 9 * 24 + 15 + 3 * 5 * 24
    worst = dict.fromkeys(SeriesId, 0.0)
    for sid, t, mu, (hi, lo) in keys:
        for tol in (1e-10, 1e-13):
            res = sum_series(sid, t, tol, mu=mu)
            assert res.status is Status.CONVERGED, (sid, t, mu, tol)
            err = abs(res.value - hi - lo)
            assert err <= res.error_bound, (sid, t, mu, tol, err,
                                            res.error_bound)
            worst[sid] = max(worst[sid], err / res.error_bound)
    assert {sid: r for sid, r in worst.items()
            if r > INTERIOR_RATIO[sid]} == {}


def test_min_terms_is_honored():
    # a sum at a 1000x smaller tol moves the value by at most the bound
    lo = sum_series(SeriesId.GF_SKEW, 0.1, tol=1e-10)
    hi = sum_series(SeriesId.GF_SKEW, 0.1, tol=1e-13)
    assert hi.terms_used > lo.terms_used
    assert abs(hi.value - lo.value) <= lo.error_bound


# --- sum_series: endpoints ---------------------------------------------------

#: Every (series, t = +-1) pair that a catalog Domain admits.
ENDS = [(sid, t) for sid in SeriesId for t in SERIES[sid.name].domain.ends
        if abs(t) == 1.0]


def test_endpoint_values(endpoint_values):
    # every admitted end, to tolerances down to 1e-12, from exactly 32 terms
    assert set(endpoint_values) == set(ENDS)
    for (sid, t), ref in endpoint_values.items():
        for tol in (1e-6, 1e-8, 1e-10, 1e-11, 1e-12):
            res = sum_series(sid, t, tol=tol)
            err = abs(res.value - ref)
            assert res.status is Status.CONVERGED, (sid, t, tol)
            assert err <= tol, (sid, t, tol, err)
            # reported bound must cover the actual error
            assert err <= res.error_bound + math.ulp(ref), (sid, t, tol, err)
            assert res.terms_used == 32, (sid, t, tol, res.terms_used)


# float.hex of (value, error_bound) of every admitted end at tol 1e-10.  A
# change that moves either by one ulp must update this table on purpose
# (tools/report_diff.py shows what it does to the report).
ENDPOINT_BITS = {
    (SeriesId.GF_CENTERED, 1.0):
        ("-0x1.ffffffffffffbp-2", "0x1.d2a7fa22ab277p-46"),
    (SeriesId.SKEW_OVER_N, -1.0):
        ("-0x1.100caf119dc9bp+0", "0x1.146d1a478f48ap-48"),
    (SeriesId.CENTERED_OVER_N, 1.0):
        ("0x1.ebfbdff82c590p-3", "0x1.f576e421b7b1dp-49"),
    (SeriesId.CENTERED_OVER_N, -1.0):
        ("-0x1.2a1b6e2725670p-1", "0x1.ff4eda4ec12a0p-49"),
    (SeriesId.CENTERED_SHIFT, 1.0):
        ("-0x1.2a1b6e272566fp-1", "0x1.018050a5b9087p-48"),
    (SeriesId.CENTERED_SHIFT, -1.0):
        ("0x1.100caf119dc9bp+0", "0x1.086cdfb20718dp-48"),
    (SeriesId.CENTERED_SQ, -1.0):
        ("0x1.a51a6625307d2p-2", "0x1.261e5320497eap-48"),
    (SeriesId.CENTERED_SQ, 1.0):
        ("0x1.62e42fefa39efp-1", "0x1.2a2e670e83c02p-48"),
    (SeriesId.CENTERED_SQ_SHIFT, -1.0):
        ("-0x1.c51448aca3f17p-2", "0x1.1b280e68107f8p-49"),
    (SeriesId.CENTERED_SQ_SHIFT, 1.0):
        ("0x1.1a9213a2882cfp-1", "0x1.1e4f8c4acfc37p-49"),
    (SeriesId.SKEW_OVER_NSQ, 1.0):
        ("0x1.0434c8cca6cf8p-1", "0x1.4bc58a682eb1bp-49"),
}


def test_endpoint_rules_bit_for_bit():
    assert set(ENDPOINT_BITS) == set(ENDS)
    for (sid, t), bits in ENDPOINT_BITS.items():
        res = sum_series(sid, t, tol=1e-10)
        assert (res.value.hex(), res.error_bound.hex()) == bits, (sid, t)


def test_endpoint_rule_ignores_tol():
    # value, bound and terms do not depend on tol or on earlier calls; tol
    # only picks the status, CONVERGED exactly when bound <= tol
    for sid, t in ENDS:
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


def test_near_entry_finite_at_each_admitted_end():
    # an end is its near entry at lam = 0: the elementary part and every
    # c-sum's terms and tail are finite at each end the domain admits.
    # The mu series and those with log 2/(1-t) parts (or RAMANUJAN_ODD's
    # log v) admit none
    assert {sid for sid in SeriesId if not SERIES[sid.name].domain.ends} == {
        SeriesId.GF_SKEW, SeriesId.SKEW_SQ, SeriesId.RAMANUJAN_ODD,
        *MU_NEAR}
    for sid, t in ENDS:
        elementary = _SPECS[sid].near[0]
        if elementary:
            assert math.isfinite(elementary(t)), (sid, t)
        bound, res, _ = _endpoint(sid, t)
        assert math.isfinite(res.value) and math.isfinite(bound), (sid, t)


def test_near_rule_drops_log_lam_term_only_where_q_vanishes():
    # at lam = 0 near_sum drops log(lam) Q(lam), which holds only where
    # Q(0) = A_1, the u^1 coefficient of a one-signed c-sum (x > 0), is 0:
    # c_n^power/(n + over)^deg is O(u^2) for every such c-sum at an end the
    # catalog admits.  The rule there is the end's result
    one_signed = 0
    for sid, t in ENDS:
        for rule in _SPECS[sid].near[1]:
            if (-t if rule.alt else t) > 0.0:
                one_signed += 1
                a = _expansion(rule.power, rule.over, rule.deg)
                assert a[1] == 0.0, (sid, t, rule)
        assert near_sum(_SPECS[sid], t) == _endpoint(sid, t)[1], (sid, t)
    assert one_signed


#: Worst |value - reference| / error_bound over the endpoint golden keys
#: (tests/data/reference.json, ["series", id, +-1, null]).  A gate may
#: only tighten.
ENDPOINT_RATIO = 0.03


def test_endpoints_against_golden():
    keys = [k for k in _series_golden(False) if abs(k[1]) == 1.0]
    assert len(keys) == len(ENDS)
    assert {k[:2] for k in keys} == set(ENDS)
    worst = 0.0
    for sid, t, _, (hi, lo) in keys:
        res = sum_series(sid, t, tol=1e-12)
        assert res.status is Status.CONVERGED, (sid, t)
        err = abs(res.value - hi - lo)
        assert err <= res.error_bound, (sid, t, err, res.error_bound)
        worst = max(worst, err / res.error_bound)
    assert worst <= ENDPOINT_RATIO


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

NEAR = [sid for sid, spec in _SPECS.items()
        if spec.near and not spec.domain.mu]
MU_NEAR = [sid for sid, spec in _SPECS.items() if spec.near and spec.domain.mu]

#: Worst |value - reference| / error_bound per series over its near golden
#: keys (tests/data/reference.json, ["series", id, t, null]: +-0.99, +-0.995
#: and +-(1 - 10^-k), k = 3..15).  A gate may only tighten.
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
    SeriesId.RAMANUJAN_ODD: 0.25,
}


#: The same for the mu series' split, over the keys
#: ["series", id, t, mu], mu = -0.9, 0.5, 0.9, on the points above.
NEAR_MU_RATIO = {
    SeriesId.MU_LEWIN: 0.33,
    SeriesId.MU_DILOG: 0.39,
    SeriesId.MU_TRILOG: 0.26,
}


def _series_golden(with_mu, near=True):
    """The golden series keys with or without mu, those with |t| >= 0.99
    if near, else the interior ones."""
    path = pathlib.Path(__file__).parent / "data" / "reference.json"
    for key, ref in json.loads(path.read_text())["values"].items():
        key = json.loads(key)
        if (key[0] == "series" and (key[3] is not None) == with_mu
                and (abs(key[2]) >= 0.99) == near):
            yield SeriesId[key[1]], key[2], key[3], ref


def test_near_rule_series():
    # every series: ten by c-sums, the mu series split
    assert set(NEAR) | set(MU_NEAR) == set(SeriesId)
    assert set(NEAR) == set(NEAR_RATIO)
    assert set(MU_NEAR) == set(NEAR_MU_RATIO) == {
        SeriesId.MU_LEWIN, SeriesId.MU_DILOG, SeriesId.MU_TRILOG}


def test_near_rule_against_golden():
    worst = dict.fromkeys(NEAR, 0.0)
    keys = [k for k in _series_golden(False) if abs(k[1]) < 1.0]
    assert len(keys) == 9 * 30 + 15
    for sid, t, _, (hi, lo) in keys:
        res = sum_series(sid, t, tol=1e-12 * max(1.0, abs(hi)))
        assert res.status is Status.CONVERGED, (sid, t)
        assert res.terms_used == 32, (sid, t)
        err = abs(res.value - hi - lo)
        assert err <= res.error_bound, (sid, t, err, res.error_bound)
        worst[sid] = max(worst[sid], err / res.error_bound)
    assert {sid: r for sid, r in worst.items() if r > NEAR_RATIO[sid]} == {}


def test_near_rule_meets_the_endpoint_rules():
    # 1e-15 from an end, the near rule (a Lerch tail in lam) agrees with
    # the end's value (the zeta or eta tail at lam = 0)
    t_near = 1.0 - 1e-15
    for sid, end in ENDS:
        near = sum_series(sid, end * t_near, tol=1e-6)
        rule = sum_series(sid, end, tol=1e-6)
        assert near.terms_used == 32 and near.status is Status.CONVERGED
        gap = abs(near.value - rule.value)
        assert gap <= near.error_bound + rule.error_bound + 1e-12, (
            sid, end, gap)


#: tools/series_diff.py's mu grid, less mu = 1
SPLIT_MUS = (-0.9, -0.7, -0.3, -0.0, 0.0, 0.25, 0.5, 0.8)


def test_near_rule_meets_the_interior_sum():
    # at the band's start, and one double inside it, both regimes agree;
    # the mu series' split at each mu of the grid
    cases = [(sid, None) for sid in NEAR]
    cases += [(sid, mu) for sid in MU_NEAR for mu in SPLIT_MUS]
    for sid, mu in cases:
        spec = _SPECS[sid]
        for edge in (0.99, -0.99):
            for t in (edge, math.nextafter(edge, 0.0)):
                if t <= spec.domain.lo:
                    continue
                if mu is None:
                    near = near_sum(spec, t)
                else:
                    near = mu_split(spec, t, mu, math.inf)
                inner = _interior_sum(spec, t, 1e-13, mu)
                assert inner.status is Status.CONVERGED, (sid, t, mu)
                gap = abs(near.value - inner.value)
                assert gap <= near.error_bound + inner.error_bound + 1e-11, (
                    sid, t, mu, gap)


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
    # RAMANUJAN_ODD too, by O_m = H_m/2 + log 2 - c_2m
    assert sum_series(SeriesId.RAMANUJAN_ODD, -t) == near_sum(
        _SPECS[SeriesId.RAMANUJAN_ODD], -t)


def test_hopeless_interior_sum_is_skipped():
    # a near bound above tol, under the interior sum's tail bound at the
    # term cap: that sum could only end at the cap with a larger bound, so
    # the near result returns, as MAX_TERMS, without it (~100 ms each)
    cases = [(SeriesId.SKEW_SQ, 1.0 - 1e-6, 1e-13, None),
             (SeriesId.GF_CENTERED, 1.0 - 1e-6, 1e-14, None),
             (SeriesId.MU_TRILOG, -0.999999, 1e-13, -0.3)]
    for sid, t, tol, mu in cases:
        spec = _SPECS[sid]
        near = (near_sum(spec, t) if mu is None
                else mu_split(spec, t, mu, DEFAULT_MAX_TERMS))
        assert near.error_bound > tol, sid
        sum_series(sid, t, tol, mu=mu)  # builds the near tables
        t0 = time.perf_counter()
        res = sum_series(sid, t, tol, mu=mu)
        assert time.perf_counter() - t0 < 5e-3, sid
        assert res == near._replace(status=Status.MAX_TERMS), sid
    # at 0.99 the interior sum may end with the smaller bound, and runs
    # (test_near_rule_dispatch), but not under a cap of 100 terms
    spec = _SPECS[SeriesId.GF_SKEW]
    tol = near_sum(spec, 0.99).error_bound / 2
    set_max_terms(100)
    try:
        assert sum_series(SeriesId.GF_SKEW, 0.99, tol) == near_sum(
            spec, 0.99)._replace(status=Status.MAX_TERMS)
    finally:
        set_max_terms(DEFAULT_MAX_TERMS)


def test_mu_near_rule_against_golden():
    worst = dict.fromkeys(MU_NEAR, 0.0)
    keys = list(_series_golden(True))
    assert len(keys) == 3 * 3 * 30
    for sid, t, mu, (hi, lo) in keys:
        res = sum_series(sid, t, tol=1e-12 * max(1.0, abs(hi)), mu=mu)
        assert res.status is Status.CONVERGED, (sid, t, mu)
        # the split, not the interior sum: ~55 terms at |mu| = 0.5
        assert res == mu_split(_SPECS[sid], t, mu, math.inf), (sid, t, mu)
        err = abs(res.value - hi - lo)
        assert err <= res.error_bound, (sid, t, mu, err, res.error_bound)
        worst[sid] = max(worst[sid], err / res.error_bound)
    assert {sid: r for sid, r in worst.items() if r > NEAR_MU_RATIO[sid]} == {}


def test_mu_split_seeds_deep_enough():
    # Each r_n carries the seed's error at full size, so the depth comes
    # from |mu|, not from |mu t|: at |mu| = |t| = 0.99 a depth from
    # |mu t| would leave the r_n off by ~1e-11, which neither the bound
    # nor the value may miss.
    for sid in MU_NEAR:
        spec = _SPECS[sid]
        for mu in (0.99, -0.99):
            for t in (0.99, -0.99):
                split = mu_split(spec, t, mu, math.inf)
                inner = _interior_sum(spec, t, 1e-13, mu)
                assert inner.status is Status.CONVERGED, (sid, t, mu)
                gap = abs(split.value - inner.value)
                assert gap <= split.error_bound + inner.error_bound, (
                    sid, t, mu, gap)
                if mu > 0.0:
                    assert split.error_bound <= 1e-12, (sid, t, mu)


def test_mu_split_dispatch():
    t = 0.99
    for sid in MU_NEAR:
        split = sum_series(sid, t, tol=1e-10, mu=0.5)
        assert split.terms_used < 60 and split.status is Status.CONVERGED
        assert split == mu_split(_SPECS[sid], t, 0.5, math.inf)
        # the band starts at |t| = 0.99: below it, the forward split
        below = math.nextafter(-t, 0.0)
        assert sum_series(sid, below, tol=1e-10, mu=0.5) == forward(
            _SPECS[sid], below, 0.5, 1e-10, math.inf)
        # the split ignores the term cap
        set_max_terms(5)
        try:
            assert sum_series(sid, t, tol=1e-10, mu=0.5) == split, sid
        finally:
            set_max_terms(DEFAULT_MAX_TERMS)
        # mu = 1 has no split, and next to it the split would take more
        # terms than the interior sum, or than any sum may: both stay
        # interior sums
        for mu in (1.0, math.nextafter(1.0, 0.0)):
            for tt in (t, -t):
                assert sum_series(sid, tt, tol=1e-10, mu=mu) == _interior_sum(
                    _SPECS[sid], tt, 1e-10, mu), (sid, tt, mu)
            assert mu_split(_SPECS[sid], 1.0 - 1e-6, mu,
                            DEFAULT_MAX_TERMS) is None, (sid, mu)
        assert mu_split(_SPECS[sid], t, 1.0, math.inf) is None
    # a split bound above tol falls back to the interior sum
    spec = _SPECS[SeriesId.MU_DILOG]
    split = mu_split(spec, t, 0.5, math.inf)
    tight = sum_series(SeriesId.MU_DILOG, t, tol=split.error_bound / 2, mu=0.5)
    assert tight == _interior_sum(spec, t, split.error_bound / 2, 0.5)


# --- sum_series: the forward split of the mu series below 0.99 ---------------

def test_forward_split_dispatch():
    # MU_LEWIN at t = -0.896, mu = 0.338: 139 interior terms, the split 15
    spec = _SPECS[SeriesId.MU_LEWIN]
    res = sum_series(SeriesId.MU_LEWIN, -0.896, tol=1e-8, mu=0.338)
    assert res.status is Status.CONVERGED and res.terms_used <= 20
    assert res == forward(spec, -0.896, 0.338, 1e-8, math.inf)
    assert _interior_sum(spec, -0.896, 1e-8, 0.338).terms_used > 100


def test_forward_split_meets_the_interior_sum():
    # every sign of mu and t: the split and the interior sum agree within
    # their bounds, at tol 1e-10 and 1e-13
    for sid in MU_NEAR:
        spec = _SPECS[sid]
        for a in (0.9, 0.98):
            for mu in (a, -a):
                for t in (0.9, -0.9, 0.98, -0.98):
                    for tol in (1e-10, 1e-13):
                        split = forward(spec, t, mu, tol, math.inf)
                        inner = _interior_sum(spec, t, tol, mu)
                        assert inner.status is Status.CONVERGED
                        gap = abs(split.value - inner.value)
                        assert gap <= split.error_bound + inner.error_bound, (
                            sid, t, mu, tol, gap)


def test_forward_split_edges():
    for sid in MU_NEAR:
        spec = _SPECS[sid]
        # t = 0 keeps the a_0 path
        assert sum_series(sid, 0.0, mu=0.5) == _interior_sum(
            spec, 0.0, 1e-12, 0.5)
        # at mu = 1 the split's terms shrink no faster than the interior
        # sum's and it would take more of them: the interior sum runs
        for t in (0.5, -0.9):
            assert forward(spec, t, 1.0, 1e-12, math.inf).terms_used > (
                _interior_sum(spec, t, 1e-12, 1.0).terms_used)
            assert sum_series(sid, t, 1e-12, mu=1.0) == _interior_sum(
                spec, t, 1e-12, 1.0)
    # mu = +-0: MU_DILOG and MU_LEWIN are 0, a one-term interior sum;
    # MU_TRILOG's split is its elementary part and one term
    for mu in (0.0, -0.0):
        for sid in (SeriesId.MU_DILOG, SeriesId.MU_LEWIN):
            res = sum_series(sid, -0.7, tol=1e-12, mu=mu)
            assert res == _interior_sum(_SPECS[sid], -0.7, 1e-12, mu)
            assert res.value == 0.0 and res.terms_used == 1
        spec = _SPECS[SeriesId.MU_TRILOG]
        res = sum_series(SeriesId.MU_TRILOG, -0.7, tol=1e-12, mu=mu)
        assert res == forward(spec, -0.7, mu, 1e-12, math.inf)
        assert res.terms_used == 1 and res.status is Status.CONVERGED
        inner = _interior_sum(spec, -0.7, 1e-12, mu)
        assert abs(res.value - inner.value) <= (
            res.error_bound + inner.error_bound)


def test_forward_split_falls_back_to_the_interior_sum():
    spec = _SPECS[SeriesId.MU_DILOG]
    # a split of more terms than the cap leaves the interior sum to stop
    # there
    set_max_terms(5)
    try:
        assert forward(spec, 0.5, 0.5, 1e-10, math.inf).terms_used > 5
        res = sum_series(SeriesId.MU_DILOG, 0.5, tol=1e-10, mu=0.5)
        assert res == _interior_sum(spec, 0.5, 1e-10, 0.5)
        assert res.status is Status.MAX_TERMS and res.terms_used == 5
    finally:
        set_max_terms(DEFAULT_MAX_TERMS)
    # a split bound above tol (under its rounding floor) does too
    assert forward(spec, 0.5, 0.5, 1e-17, math.inf).error_bound > 1e-17
    assert sum_series(SeriesId.MU_DILOG, 0.5, 1e-17, mu=0.5) == (
        _interior_sum(spec, 0.5, 1e-17, 0.5))


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
