"""Harmonic-family sequences, the shared cache, and named constants."""

import math
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, strategies as st

from skewlog import core_numerics
from skewlog.core_numerics import DEFAULT_CACHE_LIMIT, HarmonicCache
from skewlog import (
    CONSTANTS,
    ClosedFormId,
    DomainError,
    GridSpec,
    IdentityId,
    QuadratureConfig,
    SeriesId,
    abel_sides,
    closed_form,
    closed_form_eq17,
    coefficient,
    digamma_half_diff,
    double_integral_bigG,
    double_integral_g,
    harmonic,
    harmonic2,
    int_li2_over_1mt,
    integrate_1d,
    li2,
    li3,
    odd_harmonic,
    set_max_terms,
    skew_harmonic,
    skew_harmonic_mu,
    sum_series,
    verify_identity,
)

LOG2 = math.log(2.0)


def test_harmonic_small_values():
    assert harmonic(0) == 0.0
    assert harmonic(1) == 1.0
    assert abs(harmonic(4) - 25.0 / 12.0) < 1e-15
    assert abs(harmonic2(3) - 49.0 / 36.0) < 1e-15
    assert skew_harmonic(0) == 0.0
    assert abs(skew_harmonic(3) - 5.0 / 6.0) < 1e-15
    assert abs(skew_harmonic(4) - 7.0 / 12.0) < 1e-15


def test_negative_index_rejected():
    # With the cache filled past every bad index below, a bool, a float, a
    # string or a negative index still raises; good indices read the same
    # values as a fresh cache both inside the fill and beyond it.
    harmonic(64)
    fresh = HarmonicCache()
    # fn: (reference, the cache index fn(n) reads per unit of n)
    expected = {
        harmonic: (fresh.h, 1),
        harmonic2: (fresh.h2, 1),
        skew_harmonic: (fresh.skew, 1),
        odd_harmonic: (lambda n: fresh.h(2 * n) - 0.5 * fresh.h(n), 2),
    }
    for fn, (ref, reach) in expected.items():
        for bad in (True, 2.0, "3", -1):
            with pytest.raises(DomainError):
                fn(bad)
        # beyond the fill, but never past the cache limit, however full an
        # earlier test left the cache
        far = min(len(core_numerics._CACHE.values_h) + 7,
                  DEFAULT_CACHE_LIMIT // reach)
        for n in (50, far):
            assert fn(n) == ref(n)


def test_skew_harmonic_mu_examples():
    # mu=1 must collapse to the plain skew-harmonic numbers
    for n in (1, 5, 40):
        assert skew_harmonic_mu(n, 1.0) == pytest.approx(skew_harmonic(n), abs=1e-15)
    # terms are (-mu)^(k-1)/k, so the k=1 term is always 1
    assert skew_harmonic_mu(1, 0.5) == 1.0
    assert skew_harmonic_mu(2, 0.5) == pytest.approx(0.75)
    assert skew_harmonic_mu(3, 0.5) == pytest.approx(0.75 + 0.25 / 3.0)
    with pytest.raises(ValueError):
        skew_harmonic_mu(0, 0.5)


@given(
    n=st.integers(min_value=1, max_value=200),
    mu=st.floats(min_value=-0.999, max_value=1.0, allow_nan=False),
)
def test_skew_harmonic_mu_matches_direct_sum(n, mu):
    direct = sum((-mu) ** (k - 1) / k for k in range(1, n + 1))
    assert skew_harmonic_mu(n, mu) == pytest.approx(direct, abs=1e-12, rel=1e-12)


def test_skew_harmonic_converges_to_log2():
    # |H_n^- - log 2| <= 1/(n+1), overshooting then undershooting
    for n in (1, 2, 7, 100, 5000):
        gap = skew_harmonic(n) - LOG2
        assert abs(gap) <= 1.0 / (n + 1) + 1e-15
        assert math.copysign(1.0, gap) == (-1.0) ** (n - 1)


def _log2_enclosure(k=80):
    """Rationals lo <= log 2 <= hi: log 2 = sum_(j>=1) 1/(j 2^j), whose terms
    past j = k sum to under 1/((k+1) 2^k)."""
    lo = sum(Fraction(1, j << j) for j in range(1, k + 1))
    return lo, lo + Fraction(1, (k + 1) << k)


def test_skew_gaps_against_exact_rationals():
    # each computed c_n = |H_n^- - log 2|, n < 40, is within _C_ERR of
    # c_n = (-1)^n (log 2 - H_n^-) at both ends of the enclosure, H_n^-
    # summed exactly, so within _C_ERR of the true c_n
    enclosure = _log2_enclosure()
    h = Fraction(0)
    for n, gap in enumerate(core_numerics.skew_gaps(0, 40)):
        h += Fraction((-1) ** (n - 1), n) if n else 0
        for log2 in enclosure:
            c = (-1) ** n * (log2 - h)
            assert abs(Fraction(abs(gap)) - c) <= core_numerics._C_ERR, n


def test_skew_gaps_sign_is_exact():
    # H_n^- - log 2 = -(-1)^n c_n with c_n >= 1/(2n+2), far above the
    # rounding, so the computed sign is exact and abs gives c_n: at every
    # n <= 1,000, and at every 997th n up to 2 10^5
    for n in chain(range(1001), range(1001, 200_001, 997)):
        (gap,) = core_numerics.skew_gaps(n, n + 1)
        assert math.copysign(1.0, gap) == -(-1.0) ** n, n
        assert abs(gap) >= 0.5 / (n + 1), n
    assert list(core_numerics.skew_gaps(0, 1001)) == [
        next(core_numerics.skew_gaps(n, n + 1)) for n in range(1001)]


def test_even_index_split_identities():
    # H_2n^- = H_2n - H_n  and  H_2n^- = O_n - H_n/2 with O_n the odd-denominator sum
    for n in (1, 2, 3, 10, 64, 999, 5000):
        lhs = skew_harmonic(2 * n)
        a = harmonic(2 * n) - harmonic(n)
        b = odd_harmonic(n) - 0.5 * harmonic(n)
        assert abs(lhs - a) <= 1e-13 * max(1.0, abs(lhs))
        assert abs(lhs - b) <= 1e-13 * max(1.0, abs(lhs))


def test_digamma_half_diff_small_n():
    # psi((n+1)/2) - psi(n/2): n=1 gives 2 log 2, n=2 gives 2 - 2 log 2
    assert digamma_half_diff(1) == pytest.approx(2.0 * LOG2, abs=1e-15)
    assert digamma_half_diff(2) == pytest.approx(2.0 - 2.0 * LOG2, abs=1e-15)
    with pytest.raises(ValueError):
        digamma_half_diff(0)


def test_digamma_half_diff_vs_skew_harmonic():
    # The half-integer digamma difference equals 2(-1)^(n-1)(log 2 - H_{n-1}^-)
    for n in range(1, 1001):
        expected = 2.0 * (-1.0) ** (n - 1) * (LOG2 - skew_harmonic(n - 1))
        assert abs(digamma_half_diff(n) - expected) <= 1e-12


def test_running_sum_identity_to_n_1000():
    # 2 * sum_{k<=n} (-1)^(k-1) H_k^- / k == (H_n^-)^2 + H_n^(2)
    acc = 0.0
    comp = 0.0
    for k in range(1, 1001):
        term = (-1.0) ** (k - 1) * skew_harmonic(k) / k
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        rhs = skew_harmonic(k) ** 2 + harmonic2(k)
        assert abs(2.0 * acc - rhs) <= 1e-12


def test_constants_internal_relations():
    pi = CONSTANTS["PI"]
    assert abs(CONSTANTS["PI_SQ_OVER_6"] - pi * pi / 6.0) <= 5e-16 * CONSTANTS["PI_SQ_OVER_6"]
    assert abs(CONSTANTS["PI_SQ_OVER_12"] - pi * pi / 12.0) <= 5e-16
    assert abs(CONSTANTS["LOG2"] - LOG2) <= 5e-16
    # Li2(1/2) = pi^2/12 - log^2(2)/2
    assert abs(CONSTANTS["LI2_HALF"] - (CONSTANTS["PI_SQ_OVER_12"] - 0.5 * LOG2**2)) <= 5e-16
    # Li3(1/2) = 7 zeta(3)/8 - pi^2 log2 / 12 + log^3 2 / 6
    li3_half = (
        0.875 * CONSTANTS["ZETA3"]
        - CONSTANTS["PI_SQ_OVER_12"] * LOG2
        + LOG2**3 / 6.0
    )
    assert abs(CONSTANTS["LI3_HALF"] - li3_half) <= 5e-16
    assert CONSTANTS["LI2_MINUS1"] == pytest.approx(-CONSTANTS["PI_SQ_OVER_12"], abs=1e-16)
    assert CONSTANTS["LI3_MINUS1"] == pytest.approx(-0.75 * CONSTANTS["ZETA3"], abs=1e-16)


def test_cache_limit_enforced():
    cache = HarmonicCache(limit=100)
    cache.ensure(100)
    assert cache.h(100) == pytest.approx(harmonic(100))
    with pytest.raises(ValueError):
        cache.ensure(101)
    beyond = core_numerics.DEFAULT_CACHE_LIMIT + 1
    for fn in (harmonic, harmonic2, skew_harmonic):
        with pytest.raises(ValueError, match="cache limit"):
            fn(beyond)


def test_cache_limit_validation():
    # a positive int, like set_max_terms's cap
    for bad in (True, False, 2.5, 0, -3, "10"):
        with pytest.raises(ValueError, match="cache limit"):
            HarmonicCache(bad)
    assert HarmonicCache(1).limit == 1


def test_cache_agrees_with_fresh_instance():
    fresh = HarmonicCache(limit=2000)
    fresh.ensure(2000)
    for n in (1, 17, 256, 2000):
        assert fresh.h(n) == harmonic(n)
        assert fresh.h2(n) == harmonic2(n)
        assert fresh.skew(n) == skew_harmonic(n)


# Every public entry point that takes a real argument, with one argument
# left free.
REAL_ENTRY_POINTS = {
    "li2": li2,
    "li3": li3,
    "closed_form t": lambda x: closed_form(ClosedFormId.EQ2, x),
    "closed_form mu": lambda x: closed_form(ClosedFormId.EQ24, 0.5, mu=x),
    "closed_form_eq17": closed_form_eq17,
    "abel_sides mu": lambda x: abel_sides(x, 0.5),
    "abel_sides x": lambda x: abel_sides(0.5, x),
    "int_li2_over_1mt": int_li2_over_1mt,
    "sum_series t": lambda x: sum_series(SeriesId.GF_SKEW, x),
    "sum_series tol": lambda x: sum_series(SeriesId.GF_SKEW, 0.5, tol=x),
    "sum_series mu": lambda x: sum_series(SeriesId.MU_DILOG, 0.5, mu=x),
    "coefficient mu": lambda x: coefficient(SeriesId.MU_DILOG, 3, mu=x),
    "skew_harmonic_mu": lambda x: skew_harmonic_mu(3, x),
    "harmonic": harmonic,
    "harmonic2": harmonic2,
    "skew_harmonic": skew_harmonic,
    "odd_harmonic": odd_harmonic,
    "double_integral_g": double_integral_g,
    "double_integral_bigG": double_integral_bigG,
    "integrate_1d": lambda x: integrate_1d(lambda t: t, 0.0, x),
    "verify_identity grid t": lambda x: verify_identity(
        IdentityId.EQ2, GridSpec((x,))),
    "verify_identity grid mu": lambda x: verify_identity(
        IdentityId.EQ22, GridSpec((0.5,), (x,))),
}


@pytest.mark.parametrize("bad", [True, "0.5"], ids=["bool", "str"])
@pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
def test_bool_and_non_real_arguments_raise_domain_error(entry, bad):
    with pytest.raises(DomainError):
        REAL_ENTRY_POINTS[entry](bad)


# Every public entry point that takes an integer argument, with one argument
# left free.
INT_ENTRY_POINTS = {
    "harmonic": harmonic,
    "harmonic2": harmonic2,
    "skew_harmonic": skew_harmonic,
    "odd_harmonic": odd_harmonic,
    "skew_harmonic_mu n": lambda n: skew_harmonic_mu(n, 0.5),
    "digamma_half_diff": digamma_half_diff,
    "coefficient n": lambda n: coefficient(SeriesId.GF_SKEW, n),
    "set_max_terms": set_max_terms,
    "HarmonicCache limit": HarmonicCache,
    "HarmonicCache.h": lambda n: HarmonicCache(100).h(n),
    "HarmonicCache.ensure": lambda n: HarmonicCache(100).ensure(n),
    "QuadratureConfig max_subdivisions": lambda n: QuadratureConfig(
        max_subdivisions=n),
    "verify_identity n_range": lambda n: verify_identity(
        IdentityId.EQ14_LEMMA6, GridSpec(n_range=(0, n))),
}


@pytest.mark.parametrize("bad", [True, 2.5, "3", -1],
                         ids=["bool", "float", "str", "negative"])
@pytest.mark.parametrize("entry", sorted(INT_ENTRY_POINTS))
def test_bad_integer_arguments_raise_domain_error(entry, bad):
    # one check for every integer: the message names the argument and its
    # range
    with pytest.raises(DomainError, match="must be an integer"):
        INT_ENTRY_POINTS[entry](bad)
