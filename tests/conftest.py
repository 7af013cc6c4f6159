import pytest

from skewlog import SeriesId, get_max_terms, set_max_terms, verify_all


@pytest.fixture(autouse=True)
def _restore_term_cap():
    """The CLI honors SKEWLOG_MAX_TERMS by mutating the engine cap; keep that
    from leaking between tests."""
    cap = get_max_terms()
    yield
    set_max_terms(cap)


@pytest.fixture(scope="session")
def full_report():
    """One shared full verification run; building it per-test would dominate runtime."""
    return verify_all()


@pytest.fixture(scope="session")
def endpoint_values():
    """The exact value of every declared (series, t = +-1) endpoint rule, as
    25-digit literals computed offline with mpmath at 40 digits."""
    s = SeriesId
    return {
        (s.GF_CENTERED, 1.0): -0.5,
        # log^2(2)/2
        (s.CENTERED_OVER_N, 1.0): 0.2402265069591007123335513,
        # -(pi^2/12 - log^2(2)/2)
        (s.CENTERED_OVER_N, -1.0): -0.5822405264650125059026563,
        (s.CENTERED_SHIFT, 1.0): -0.5822405264650125059026563,
        # pi^2/12 + log^2(2)/2
        (s.CENTERED_SHIFT, -1.0): 1.062693540383213930569759,
        # pi^2/24
        (s.CENTERED_SQ, -1.0): 0.4112335167120566091181038,
        # log 2
        (s.CENTERED_SQ, 1.0): 0.6931471805599453094172321,
        # 3/2 zeta(3) - (pi^2/6) log 2 - log^3(2)/3
        (s.CENTERED_SQ_SHIFT, 1.0): 0.5518957267668955107187429,
        # (pi^2/12) log 2 - 3/4 zeta(3) - log^3(2)/3
        (s.CENTERED_SQ_SHIFT, -1.0): -0.4424601893779124952187982,
        # -(pi^2/12 + log^2(2)/2)
        (s.SKEW_OVER_N, -1.0): -1.062693540383213930569759,
        # sum_{n>=1} H_n^-/(n+1)^2, by nsum and from the EQ20 closed form
        (s.SKEW_OVER_NSQ, 1.0): 0.5082152128046848508121316,
    }
