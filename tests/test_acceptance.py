"""Acceptance suite: twelve numbered criteria, one printed PASS line each.

Each test states its numeric target, tolerance, and (where bounded) wall-clock
budget. Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import subprocess
import sys
import time

import pytest

from skewlog import (
    CONSTANTS,
    ClosedFormId,
    IdentityId,
    SeriesId,
    Status,
    Verdict,
    closed_form,
    closed_form_eq17,
    digamma_half_diff,
    double_integral_bigG,
    double_integral_eq31,
    double_integral_eq32,
    double_integral_g,
    harmonic,
    harmonic2,
    int_li2_over_1mt,
    integrate_1d,
    li2,
    odd_harmonic,
    skew_harmonic,
    sum_series,
    verify_identity,
)

LOG2 = math.log(2.0)
PI = math.pi
Z3 = CONSTANTS["ZETA3"]


def _report(label: str, detail: str) -> None:
    print(f"PASS {label}: {detail}")


def test_criterion_01_accelerated_centered_sum():
    t0 = time.perf_counter()
    res = sum_series(SeriesId.GF_CENTERED, 1.0, tol=1e-10)
    dt = time.perf_counter() - t0
    err = abs(res.value + 0.5)
    assert res.status is Status.CONVERGED
    assert err <= 1e-10
    assert dt < 1.0
    _report("criterion 1", f"sum={res.value:.15f} err={err:.2e} ({dt*1e3:.1f} ms)")


def test_criterion_02_alternating_square_sum():
    t0 = time.perf_counter()
    res = sum_series(SeriesId.CENTERED_SQ, -1.0, tol=1e-10)
    dt = time.perf_counter() - t0
    target = PI * PI / 24.0
    err = abs(res.value - target)
    assert res.status is Status.CONVERGED
    assert err <= 1e-10
    assert dt < 1.0
    _report("criterion 2", f"sum={res.value:.15f} vs pi^2/24, err={err:.2e} ({dt*1e3:.1f} ms)")


def test_criterion_03_direct_sum_with_tail():
    t0 = time.perf_counter()
    res = sum_series(SeriesId.CENTERED_SQ, 1.0, tol=1e-6)
    dt = time.perf_counter() - t0
    err = abs(res.value - LOG2)
    assert res.status is Status.CONVERGED
    assert err <= 1e-6
    assert res.error_bound <= 1.0 / (res.terms_used + 1)
    assert dt < 5.0
    _report("criterion 3",
            f"sum={res.value:.12f} vs log2, err={err:.2e}, "
            f"bound={res.error_bound:.2e} at {res.terms_used} terms ({dt*1e3:.0f} ms)")


def test_criterion_04_shifted_endpoint_constants():
    e9 = PI * PI / 12.0 - 0.5 * LOG2 * LOG2
    e10 = PI * PI / 12.0 + 0.5 * LOG2 * LOG2
    r9 = sum_series(SeriesId.CENTERED_OVER_N, -1.0, tol=1e-9)
    r10 = sum_series(SeriesId.SKEW_OVER_N, -1.0, tol=1e-9)
    err9 = abs(-r9.value - e9)
    err10 = abs(-r10.value - e10)
    assert err9 <= 1e-9 and err10 <= 1e-9
    _report("criterion 4", f"endpoint sums 0.58224/1.06269: errs {err9:.2e}, {err10:.2e}")


def test_criterion_05_trilog_endpoint_constants():
    e18 = 1.5 * Z3 - (PI * PI / 6.0) * LOG2 - LOG2**3 / 3.0
    e19 = (PI * PI / 12.0) * LOG2 - 0.75 * Z3 - LOG2**3 / 3.0
    r18 = sum_series(SeriesId.CENTERED_SQ_SHIFT, 1.0, tol=1e-8)
    r19 = sum_series(SeriesId.CENTERED_SQ_SHIFT, -1.0, tol=1e-8)
    err18 = abs(r18.value - e18)
    err19 = abs(r19.value - e19)
    assert err18 <= 1e-8 and err19 <= 1e-8
    _report("criterion 5", f"endpoint sums 0.55190/-0.44246: errs {err18:.2e}, {err19:.2e}")


def test_criterion_06_generating_function_suite():
    pairs = [
        (SeriesId.GF_SKEW, ClosedFormId.EQ2),
        (SeriesId.GF_CENTERED, ClosedFormId.EQ3),
        (SeriesId.SKEW_OVER_N, ClosedFormId.EQ5),
        (SeriesId.CENTERED_OVER_N, ClosedFormId.EQ8),
        (SeriesId.CENTERED_SHIFT, ClosedFormId.EQ11),
        (SeriesId.SKEW_SQ, ClosedFormId.EQ12),
        (SeriesId.CENTERED_SQ, ClosedFormId.EQ13),
    ]
    worst = 0.0
    for sid, cf in pairs:
        for t in (-0.9, -0.5, -0.1, 0.1, 0.5, 0.9):
            res = sum_series(sid, t, tol=1e-12)
            ref = closed_form(cf, t)
            resid = abs(res.value - ref)
            assert resid <= 1e-10, (sid, t, resid)
            worst = max(worst, resid)
    _report("criterion 6", f"7 series x 6 points, worst residual {worst:.2e}")


def test_criterion_07_trilog_suite():
    worst20 = 0.0
    for x in (-0.3, -0.1, 0.2, 0.5, 0.9):
        res = sum_series(SeriesId.SKEW_OVER_NSQ, x, tol=1e-12)
        ref = closed_form(ClosedFormId.EQ20, x)
        resid = abs(res.value - ref)
        assert resid <= 1e-9, ("EQ20", x, resid)
        worst20 = max(worst20, resid)
    worst28 = 0.0
    for mu in (-0.8, -0.3, 0.2, 0.7, 1.0):
        for x in (-0.9, -0.4, 0.3, 0.8):
            res = sum_series(SeriesId.MU_TRILOG, x, tol=1e-12, mu=mu)
            ref = closed_form(ClosedFormId.EQ28, x, mu=mu)
            resid = abs(mu * res.value - ref)
            assert resid <= 1e-9, ("EQ28", mu, x, resid)
            worst28 = max(worst28, resid)
    _report("criterion 7", f"trilog residuals: grid {worst20:.2e}, mu-grid {worst28:.2e}")


def test_criterion_08_dilog_identity_suite():
    worst = {}
    for ident in (IdentityId.EQ22, IdentityId.EQ24, IdentityId.EQ25_ABEL,
                  IdentityId.EQ26, IdentityId.EQ27_RAMANUJAN, IdentityId.LANDEN):
        recs = verify_identity(ident, tolerance=1e-9)
        assert all(r.verdict is not Verdict.FAIL for r in recs), ident
        checked = [r for r in recs if r.verdict is Verdict.PASS]
        assert checked
        worst[ident.name] = max(r.residual for r in checked)
        # mu closure: the identity families parameterized by mu include mu=1
        if ident in (IdentityId.EQ22, IdentityId.EQ24, IdentityId.EQ25_ABEL):
            assert any(("mu", 1.0) in r.params for r in checked), ident
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _report("criterion 8", f"worst residuals: {detail}")


def test_criterion_09_discrete_exact_suite():
    # running-sum lemma and the half-integer digamma identity, n <= 1000
    acc = 0.0
    comp = 0.0
    worst_lemma = 0.0
    worst_digamma = 0.0
    for n in range(1, 1001):
        term = (-1.0) ** (n - 1) * skew_harmonic(n) / n
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        lemma = abs(2.0 * acc - (skew_harmonic(n) ** 2 + harmonic2(n)))
        dig = abs(digamma_half_diff(n)
                  - 2.0 * (-1.0) ** (n - 1) * (LOG2 - skew_harmonic(n - 1)))
        worst_lemma = max(worst_lemma, lemma)
        worst_digamma = max(worst_digamma, dig)
    assert worst_lemma <= 1e-12
    assert worst_digamma <= 1e-12
    # even-index split identities, n <= 5000, relative
    worst_split = 0.0
    for n in range(1, 5001):
        lhs = skew_harmonic(2 * n)
        scale = max(1.0, abs(lhs))
        a = abs(lhs - (harmonic(2 * n) - harmonic(n))) / scale
        b = abs(lhs - (odd_harmonic(n) - 0.5 * harmonic(n))) / scale
        worst_split = max(worst_split, a, b)
    assert worst_split <= 1e-13
    _report("criterion 9",
            f"lemma {worst_lemma:.1e}, digamma {worst_digamma:.1e}, splits {worst_split:.1e}")


def test_criterion_10_quadrature_suite():
    worst_g = 0.0
    for z in (-0.9, -0.5, -0.1, 0.3, 0.7, 0.9):
        resid = abs(double_integral_g(z).value - closed_form(ClosedFormId.EQ29_G, z))
        assert resid <= 1e-8, ("g", z, resid)
        worst_g = max(worst_g, resid)
    corner_p = abs(double_integral_g(1.0).value - LOG2)
    corner_m = abs(double_integral_g(-1.0).value - PI * PI / 24.0)
    assert corner_p <= 1e-10 and corner_m <= 1e-10
    worst_big = 0.0
    for z in (-0.9, -0.5, 0.5, 0.9):
        resid = abs(double_integral_bigG(z).value - closed_form_eq17(z))
        assert resid <= 1e-7, ("bigG", z, resid)
        worst_big = max(worst_big, resid)
    e31 = abs(double_integral_eq31().value - 0.028995093021738701)
    e32 = abs(double_integral_eq32().value - 0.080070471071272396)
    assert e31 <= 1e-8 and e32 <= 1e-8
    _report("criterion 10",
            f"g grid {worst_g:.1e}, corners {max(corner_p, corner_m):.1e}, "
            f"G grid {worst_big:.1e}, squares {max(e31, e32):.1e}")


def test_criterion_11_antiderivative_cross_check():
    worst_pair = 0.0
    for k in range(51):
        x = 0.5 * k / 50.0
        gap = abs(int_li2_over_1mt(x, version="a") - int_li2_over_1mt(x, version="b"))
        worst_pair = max(worst_pair, gap)
    assert worst_pair <= 1e-12
    worst_quad = 0.0
    for x in (0.45, 0.2, -0.3, -0.6, -0.95):
        ref = integrate_1d(lambda t: li2(t) / (1.0 - t), 0.0, x)
        gap = abs(int_li2_over_1mt(x) - ref.value)
        assert gap <= 1e-9, (x, gap)
        worst_quad = max(worst_quad, gap)
    closure = abs(int_li2_over_1mt(-1.0)
                  - (CONSTANTS["PI_SQ_OVER_12"] * LOG2 - Z3 / 4.0))
    assert closure <= 1e-10
    _report("criterion 11",
            f"version gap {worst_pair:.1e}, vs quadrature {worst_quad:.1e}, "
            f"closure {closure:.1e}")


def test_criterion_12_property_suite_single_command():
    cmd = [
        sys.executable, "-m", "pytest", "-q",
        "tests/test_polylog.py",
        "tests/test_series_engine.py",
        "tests/test_verifier.py",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    tail = [l for l in proc.stdout.splitlines() if l.strip()][-1]
    _report("criterion 12", f"property suite exit 0 ({tail.strip()})")
