"""Tagged power series with rigorous tail bounds.

Each SeriesId names one concrete power series sum_{n} a_n t^(n+p) whose
coefficients involve skew-harmonic numbers.  sum_series evaluates it three
ways depending on t:

* interior |t| < 1: direct summation, geometric tail bound
  env(N+1) |t|^(N+1+p) / (1 - |t|), where env is a per-series nonincreasing
  majorant of |a_n|;
* alternating endpoint: iterated averaging (accelerate_alternating) with a
  bracket-width bound;
* one-signed endpoint: direct partial sum plus an explicit tail correction
  built from the asymptotic c_n = (-1)^n (log 2 - H_n^-) ~ u/2 + u^2/4
  - u^4/8 + O(u^6) in u = 1/(n+1), with the next omitted order as bound.

Every returned error_bound is meant to be honest: re-evaluating with more
terms moves the value by at most the reported bound.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .core_numerics import LOG2, check_real, odd_harmonic, skew_harmonic
from .errors import DomainError
from .result import EvalResult, Status

DEFAULT_MAX_TERMS = 200_000
_max_terms = DEFAULT_MAX_TERMS


def set_max_terms(n: int) -> None:
    """Set the global term cap used by sum_series."""
    global _max_terms
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("max terms must be a positive integer")
    _max_terms = n


def get_max_terms() -> int:
    return _max_terms


class SeriesId(enum.Enum):
    GF_SKEW = "GF_SKEW"
    GF_CENTERED = "GF_CENTERED"
    SKEW_OVER_N = "SKEW_OVER_N"
    CENTERED_OVER_N = "CENTERED_OVER_N"
    CENTERED_SHIFT = "CENTERED_SHIFT"
    SKEW_SQ = "SKEW_SQ"
    CENTERED_SQ = "CENTERED_SQ"
    CENTERED_SQ_SHIFT = "CENTERED_SQ_SHIFT"
    SKEW_OVER_NSQ = "SKEW_OVER_NSQ"
    MU_LEWIN = "MU_LEWIN"
    MU_DILOG = "MU_DILOG"
    MU_TRILOG = "MU_TRILOG"
    RAMANUJAN_ODD = "RAMANUJAN_ODD"


def _c(n: int) -> float:
    """c_n = (-1)^n (log 2 - H_n^-) = integral_0^1 x^n/(1+x) dx > 0."""
    d = LOG2 - skew_harmonic(n)
    return d if n % 2 == 0 else -d


def _c_mu(mu: float) -> float:
    """Uniform bound on |H_n^-(mu)| over n >= 1 for -1 < mu <= 1."""
    if mu >= 0.0:
        return 1.0
    a = -mu
    return -math.log1p(-a) / a


def _coeff_gf_skew(n: int) -> float:
    return skew_harmonic(n) if n >= 1 else 0.0


def _coeff_gf_centered(n: int) -> float:
    return skew_harmonic(n) - LOG2


def _coeff_skew_over_n(n: int) -> float:
    return skew_harmonic(n) / n if n >= 1 else 0.0


def _coeff_centered_over_n(n: int) -> float:
    return (skew_harmonic(n) - LOG2) / n if n >= 1 else 0.0


def _coeff_centered_shift(n: int) -> float:
    return (skew_harmonic(n) - LOG2) / (n + 1)


def _coeff_skew_sq(n: int) -> float:
    return skew_harmonic(n) ** 2 if n >= 1 else 0.0


def _coeff_centered_sq(n: int) -> float:
    return (skew_harmonic(n) - LOG2) ** 2


def _coeff_centered_sq_shift(n: int) -> float:
    return (skew_harmonic(n) - LOG2) ** 2 / (n + 1)


def _coeff_skew_over_nsq(n: int) -> float:
    return skew_harmonic(n) / (n + 1) ** 2 if n >= 1 else 0.0


def _coeff_ramanujan(n: int) -> float:
    if n < 1 or n % 2 == 0:
        return 0.0
    m = (n + 1) // 2
    return 2.0 * odd_harmonic(m) / n


def _mu_stream(term: Callable[[int, float, float, float], float],
               mu: float) -> Iterator[float]:
    """Yields a_0 = 0, a_1, ... of a mu series with O(1) work per term.

    a_n = (-1)^(n-1) term(n, mu, H_n^-(mu), sum_{k<=n} H_k^-(mu)/k); both
    running sums are Kahan-compensated.
    """
    yield 0.0
    s = 0.0    # running H_n^-(mu)
    cs = 0.0
    inner = 0.0  # running sum_k H_k^-(mu)/k
    ci = 0.0
    p = 1.0    # (-mu)^(n-1)
    for n in itertools.count(1):
        y = p / n - cs
        t = s + y
        cs = (t - s) - y
        s = t
        p *= -mu
        y = s / n - ci
        t = inner + y
        ci = (t - inner) - y
        inner = t
        sign = 1.0 if n % 2 == 1 else -1.0
        yield sign * term(n, mu, s, inner)


def _env_one(n: int, mu: float | None) -> float:
    return 1.0


def _env_inv(n: int, mu: float | None) -> float:
    return 1.0 / max(n, 1)


def _env_half_inv_sq(n: int, mu: float | None) -> float:
    # |(H_n^- - log 2)/n| = c_n/n <= 1/(2n^2) for n >= 1
    return 0.5 / max(n, 1) ** 2


def _env_inv_np1_sq(n: int, mu: float | None) -> float:
    return 1.0 / (n + 1) ** 2


def _env_inv_np1(n: int, mu: float | None) -> float:
    return 1.0 / (n + 1)


def _env_inv_np1_cube(n: int, mu: float | None) -> float:
    return 1.0 / (n + 1) ** 3


def _env_mu_shift(n: int, mu: float | None) -> float:
    return abs(mu) * _c_mu(mu) / (n + 1)


def _env_mu_over_n(n: int, mu: float | None) -> float:
    return abs(mu) * _c_mu(mu) / max(n, 1)


def _env_mu_log(n: int, mu: float | None) -> float:
    n = max(n, 1)
    return _c_mu(mu) * (1.0 + math.log(n)) / n


def _env_ramanujan(n: int, mu: float | None) -> float:
    n = max(n, 1)
    return (2.0 + math.log(n)) / n


def cauchy_divide(coeffs: list[float], lam: float, n_out: int) -> list[float]:
    """Coefficients of (sum a_n t^n) / (1 - lam t) through order n_out.

    The recurrence b_n = lam * b_(n-1) + a_n is the Cauchy product with the
    geometric series and gives b_n = sum_{k<=n} lam^(n-k) a_k exactly.
    """
    if n_out < 0:
        raise ValueError("n_out must be >= 0")
    if len(coeffs) < n_out + 1:
        raise ValueError("need at least n_out + 1 input coefficients")
    out = []
    b = 0.0
    for n in range(n_out + 1):
        b = lam * b + coeffs[n]
        out.append(b)
    return out


# -- alternating / one-signed endpoint machinery ----------------------------

_FP_SLACK = 2e-16


def accelerate_alternating(terms: list[float], tol: float) -> EvalResult:
    """Estimate the limit of sum(terms + tail) from a finite prefix.

    The terms must alternate strictly in sign with nonincreasing magnitudes;
    other input raises ValueError.  Iterated averaging of the partial sums
    is used: consecutive entries of every row bracket the limit, so half the
    tightest bracket is a rigorous bound.
    """
    if tol <= 0.0 or not math.isfinite(tol):
        raise ValueError("tol must be positive")
    terms = [float(x) for x in terms]
    if not terms:
        raise ValueError("terms must be non-empty")
    signs = [1 if x > 0 else -1 for x in terms if x != 0.0]
    alternating = (
        len(signs) == len(terms)
        and all(signs[i] == -signs[i + 1] for i in range(len(signs) - 1))
    )
    mags = [abs(x) for x in terms]
    nonincreasing = all(
        mags[i + 1] <= mags[i] * (1.0 + 1e-12) for i in range(len(mags) - 1)
    )
    if not (alternating and nonincreasing):
        raise ValueError(
            "terms must alternate in sign with nonincreasing magnitudes")

    row = list(itertools.accumulate(terms))
    best_val = row[-1]
    best_hw = abs(terms[-1])
    while len(row) >= 2:
        a, b = row[-2], row[-1]
        hw = 0.5 * abs(b - a)
        if hw < best_hw:
            best_hw = hw
            best_val = 0.5 * (a + b)
        row = [0.5 * (row[i] + row[i + 1]) for i in range(len(row) - 1)]
    bound = 1.25 * best_hw + 8e-16 * (1.0 + abs(best_val))
    status = Status.CONVERGED if bound <= tol else Status.MAX_TERMS
    return EvalResult(best_val, bound, len(terms), status)


def _tail_zeta(s: int, m_start: int) -> float:
    """sum_{n >= m_start} n^-s by Euler-Maclaurin; error << the model errors
    these tails get folded into (next omitted term is O(m^-(s+5)))."""
    m = float(m_start)
    if s == 2:
        return 1.0 / m + 0.5 / m**2 + 1.0 / (6.0 * m**3) - 1.0 / (30.0 * m**5)
    if s == 3:
        return 0.5 / m**2 + 0.5 / m**3 + 0.25 / m**4 - 1.0 / (12.0 * m**6)
    if s == 4:
        return 1.0 / (3.0 * m**3) + 0.5 / m**4 + 1.0 / (3.0 * m**5) - 1.0 / (6.0 * m**7)
    if s == 5:
        return 0.25 / m**4 + 0.5 / m**5 + 5.0 / (12.0 * m**6)
    raise ValueError("tail order not supported")


# Tail models for the one-signed endpoint sums, from
# c_n = u/2 + u^2/4 - u^4/8 + O(u^6), u = 1/(n+1).  Each returns the
# correction for sum over n > N and a rigorous bound on its model error.

def _tail_c_over_n(N: int) -> tuple[float, float]:
    # c_n/n = u^2/2 + 3u^3/4 + O(u^4)
    m = N + 2
    return 0.5 * _tail_zeta(2, m) + 0.75 * _tail_zeta(3, m), 2.0 * _tail_zeta(4, m)


def _tail_c_shift(N: int) -> tuple[float, float]:
    # c_n/(n+1) = u^2/2 + u^3/4 + O(u^5)
    m = N + 2
    return 0.5 * _tail_zeta(2, m) + 0.25 * _tail_zeta(3, m), _tail_zeta(4, m)


def _tail_c_sq(N: int) -> tuple[float, float]:
    # c_n^2 = u^2/4 + u^3/4 + u^4/16 + O(u^5)
    m = N + 2
    t = 0.25 * _tail_zeta(2, m) + 0.25 * _tail_zeta(3, m) + _tail_zeta(4, m) / 16.0
    return t, _tail_zeta(5, m) + 0.25 * _tail_zeta(4, m)


def _tail_c_sq_shift(N: int) -> tuple[float, float]:
    # c_n^2/(n+1) = u^3/4 + u^4/4 + O(u^5)
    m = N + 2
    return 0.25 * _tail_zeta(3, m) + 0.25 * _tail_zeta(4, m), _tail_zeta(5, m)


def _size_endpoint(tail_fn: Callable[[int], tuple[float, float]], tol: float) -> int:
    n = 512
    while tail_fn(n)[1] > 0.5 * tol and 2 * n <= _max_terms:
        n *= 2
    return min(n, _max_terms)


def _endpoint_one_signed(
    term_fn: Callable[[int], float],
    n_start: int,
    tail_fn: Callable[[int], tuple[float, float]],
    tail_sign: float,
    tol: float,
) -> EvalResult:
    N = _size_endpoint(tail_fn, tol)
    partial = math.fsum(term_fn(n) for n in range(n_start, N + 1))
    correction, model_err = tail_fn(N)
    value = partial + tail_sign * correction
    bound = model_err + _FP_SLACK * (1.0 + abs(value))
    status = Status.CONVERGED if bound <= tol else Status.MAX_TERMS
    return EvalResult(value, bound, N + 1 - n_start, status)


def _endpoint_alternating(
    coeff: Callable[[int], float], sign: float, prefactor: float, tol: float
) -> EvalResult:
    m = 64
    best: EvalResult | None = None
    while True:
        terms = []
        s = 1.0
        for n in range(m):
            terms.append(coeff(n) * s)
            s *= sign
        while terms and terms[0] == 0.0:
            terms.pop(0)
        r = accelerate_alternating(terms, tol)
        if best is None or r.error_bound < best.error_bound:
            best = EvalResult(prefactor * r.value, r.error_bound, m, r.status)
        if best.converged() or m >= 1024:
            return best
        m *= 2


def _endpoint_skew_over_n_neg1(tol: float) -> EvalResult:
    # sum_{n>=1} (-1)^n H_n^-/n: split H_n^- = log2 - (-1)^n c_n; the
    # alternating log2 part beyond N is exactly -log2 * (-1)^N c_N, the c
    # part gets the c_n/n tail model.
    N = _size_endpoint(_tail_c_over_n, tol)
    partial = math.fsum(
        (skew_harmonic(n) / n if n % 2 == 0 else -skew_harmonic(n) / n)
        for n in range(1, N + 1)
    )
    alt_rem = -LOG2 * ((1.0 if N % 2 == 0 else -1.0) * _c(N))
    correction, model_err = _tail_c_over_n(N)
    value = partial + alt_rem - correction
    bound = model_err + _FP_SLACK * (1.0 + abs(value))
    status = Status.CONVERGED if bound <= tol else Status.MAX_TERMS
    return EvalResult(value, bound, N, status)


def _endpoint_skew_over_nsq_pos1(tol: float) -> EvalResult:
    # sum_{n>=1} H_n^-/(n+1)^2 at t = 1: H_n^- = log2 - (-1)^n c_n; the
    # log2 part beyond N is log2 * tail_zeta(2, N+2), the alternating c part
    # is bounded by its first term ~ 1/(2 (N+2)^3).
    def bound_fn(N: int) -> tuple[float, float]:
        return 0.0, (N + 2.0) ** -3

    N = _size_endpoint(bound_fn, tol)
    partial = math.fsum(
        skew_harmonic(n) / (n + 1) ** 2 for n in range(1, N + 1)
    )
    value = partial + LOG2 * _tail_zeta(2, N + 2)
    bound = (N + 2.0) ** -3 + _FP_SLACK * (1.0 + abs(value))
    status = Status.CONVERGED if bound <= tol else Status.MAX_TERMS
    return EvalResult(value, bound, N, status)


#: An endpoint rule evaluates a series at t = +-1 to tolerance tol.
_EndpointRule = Callable[["_SeriesSpec", float], EvalResult]


def _alternating(sign: float, prefactor: float = 1.0) -> _EndpointRule:
    """Rule for a series whose terms alternate at t = sign: averaged partial
    sums of the coefficients, times prefactor (the value of t^p)."""
    return lambda spec, tol: _endpoint_alternating(
        spec.coeff, sign, prefactor, tol)


def _one_signed(
    term_fn: Callable[[int], float],
    n_start: int,
    tail_fn: Callable[[int], tuple[float, float]],
    tail_sign: float,
) -> _EndpointRule:
    """Rule for one-signed terms: partial sum plus tail_sign * tail model."""
    return lambda spec, tol: _endpoint_one_signed(
        term_fn, n_start, tail_fn, tail_sign, tol)


@dataclass(frozen=True)
class _SeriesSpec:
    """One catalog row.  A series without mu has the per-index rule coeff;
    a mu series has mu_term instead (see _mu_stream).  The domain is
    lo <= t <= 1 with |t| = 1 admitted exactly where an endpoint rule is."""

    label: str            # companion closed-form tag, interface data
    alias: str            # catalog spelling accepted by the CLI
    p: int                # value = t^p * sum a_n t^n
    lo: float
    domain_text: str
    env: Callable[[int, float | None], float]
    coeff: Callable[[int], float] | None = None
    mu_term: Callable[[int, float, float, float], float] | None = None
    endpoints: dict[float, _EndpointRule] = field(default_factory=dict)

    @property
    def needs_mu(self) -> bool:
        return self.mu_term is not None

    def in_domain(self, t: float) -> bool:
        return self.lo <= t <= 1.0 and (abs(t) < 1.0 or t in self.endpoints)


_SPECS: dict[SeriesId, _SeriesSpec] = {
    SeriesId.GF_SKEW: _SeriesSpec(
        "EQ2", "EQ2_LHS", 0, -1.0, "|t| < 1", _env_one, _coeff_gf_skew),
    SeriesId.GF_CENTERED: _SeriesSpec(
        "EQ3", "EQ3_LHS", 0, -1.0, "|t| < 1 or t = 1", _env_inv_np1,
        _coeff_gf_centered, endpoints={1.0: _alternating(1.0)}),
    SeriesId.SKEW_OVER_N: _SeriesSpec(
        "EQ5", "EQ5_LHS", 0, -1.0, "|t| <= 1, t != 1", _env_inv,
        _coeff_skew_over_n,
        endpoints={-1.0: lambda spec, tol: _endpoint_skew_over_n_neg1(tol)}),
    SeriesId.CENTERED_OVER_N: _SeriesSpec(
        "EQ8", "EQ8_LHS", 0, -1.0, "|t| <= 1", _env_half_inv_sq,
        _coeff_centered_over_n, endpoints={
            1.0: _alternating(1.0),
            -1.0: _one_signed(lambda n: -_c(n) / n, 1, _tail_c_over_n, -1.0),
        }),
    SeriesId.CENTERED_SHIFT: _SeriesSpec(
        "EQ11", "EQ11_LHS", 1, -1.0, "|t| <= 1", _env_inv_np1_sq,
        _coeff_centered_shift, endpoints={
            1.0: _alternating(1.0),
            # t^p prefactor is -1; the inner sum is -sum c_n/(n+1)
            -1.0: _one_signed(lambda n: _c(n) / (n + 1), 0, _tail_c_shift, 1.0),
        }),
    SeriesId.SKEW_SQ: _SeriesSpec(
        "EQ12", "EQ12_LHS", 0, -1.0, "|t| < 1", _env_one, _coeff_skew_sq),
    SeriesId.CENTERED_SQ: _SeriesSpec(
        "EQ13", "EQ13_LHS", 0, -1.0, "|t| <= 1", _env_inv_np1_sq,
        _coeff_centered_sq, endpoints={
            -1.0: _alternating(-1.0),
            1.0: _one_signed(lambda n: _c(n) ** 2, 0, _tail_c_sq, 1.0),
        }),
    SeriesId.CENTERED_SQ_SHIFT: _SeriesSpec(
        "EQ17", "EQ17_LHS", 1, -1.0, "|t| <= 1", _env_inv_np1_cube,
        _coeff_centered_sq_shift, endpoints={
            -1.0: _alternating(-1.0, -1.0),
            1.0: _one_signed(
                lambda n: _c(n) ** 2 / (n + 1), 0, _tail_c_sq_shift, 1.0),
        }),
    SeriesId.SKEW_OVER_NSQ: _SeriesSpec(
        "EQ20", "EQ20_LHS", 1, -1.0 / 3.0, "-1/3 <= t <= 1", _env_inv_np1_sq,
        _coeff_skew_over_nsq,
        endpoints={1.0: lambda spec, tol: _endpoint_skew_over_nsq_pos1(tol)}),
    SeriesId.MU_LEWIN: _SeriesSpec(
        "EQ22", "EQ22_LHS", 1, -1.0, "|t| < 1, -1 < mu <= 1", _env_mu_shift,
        mu_term=lambda n, mu, s, inner: mu * s / (n + 1)),
    SeriesId.MU_DILOG: _SeriesSpec(
        "EQ24", "EQ24_SERIES", 0, -1.0, "|t| < 1, -1 < mu <= 1",
        _env_mu_over_n, mu_term=lambda n, mu, s, inner: mu * s / n),
    SeriesId.MU_TRILOG: _SeriesSpec(
        "EQ28", "EQ28_SERIES", 0, -1.0, "|t| < 1, -1 < mu <= 1", _env_mu_log,
        mu_term=lambda n, mu, s, inner: inner / n),
    SeriesId.RAMANUJAN_ODD: _SeriesSpec(
        "EQ27", "EQ27_SERIES", 0, -1.0, "|t| < 1", _env_ramanujan,
        _coeff_ramanujan),
}


def series_catalog() -> list[tuple[str, str, str]]:
    """(series tag, companion closed-form tag, domain) rows, enum order."""
    return [(sid.name, _SPECS[sid].label, _SPECS[sid].domain_text)
            for sid in SeriesId]


def series_by_name(name: str) -> SeriesId:
    """The series with this engine tag or catalog alias, in any case."""
    key = name.upper()
    for sid, spec in _SPECS.items():
        if key in (sid.name, spec.alias):
            return sid
    valid = sorted([sid.name for sid in SeriesId]
                   + [spec.alias for spec in _SPECS.values()])
    raise ValueError(
        f"unknown series id {name!r}; valid ids: {', '.join(valid)}")


def _mu_arg(series_id: SeriesId, mu) -> float | None:
    """mu as a float for a mu series and None otherwise; a missing or an
    unexpected mu is a ValueError."""
    spec = _SPECS[series_id]
    if spec.needs_mu and mu is None:
        raise ValueError(f"{series_id.name} requires mu")
    if not spec.needs_mu and mu is not None:
        raise ValueError(f"{series_id.name} takes no mu")
    return check_real("mu", mu) if spec.needs_mu else None


def _coeff_stream(spec: _SeriesSpec, mu: float | None) -> Iterator[float]:
    """Yields a_0, a_1, ... of the series."""
    if spec.mu_term is not None:
        return _mu_stream(spec.mu_term, mu)
    return map(spec.coeff, itertools.count())


def coefficient(series_id: SeriesId, n: int, mu: float | None = None) -> float:
    """Coefficient a_n of the tagged series.  A mu series reads it off its
    coefficient stream, in O(n)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError("n must be an integer >= 0")
    mu = _mu_arg(series_id, mu)
    spec = _SPECS[series_id]
    if spec.mu_term is None:
        return spec.coeff(n)
    return next(itertools.islice(_mu_stream(spec.mu_term, mu), n, None))


def sum_series(
    series_id: SeriesId,
    t: float,
    tol: float = 1e-12,
    mu: float | None = None,
    *,
    min_terms: int = 0,
) -> EvalResult:
    """Evaluate the tagged series at t to absolute tolerance tol.

    Out-of-domain t (or mu) yields status DIVERGENT_INPUT with value nan
    rather than an exception; a bool or non-real t, tol or mu raises
    DomainError.  min_terms forces at least that many interior terms; it
    exists so callers can check bound honesty and is ignored at |t| = 1.
    """
    spec = _SPECS[series_id]
    tol = check_real("tol", tol)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError("tol must be a positive finite number")
    mu = _mu_arg(series_id, mu)
    if mu is not None and not (-1.0 < mu <= 1.0):
        return EvalResult(math.nan, math.inf, 0, Status.DIVERGENT_INPUT)
    t = check_real("t", t)
    if not spec.in_domain(t):
        return EvalResult(math.nan, math.inf, 0, Status.DIVERGENT_INPUT)

    if abs(t) == 1.0:
        return spec.endpoints[t](spec, tol)

    stream = _coeff_stream(spec, mu)
    if t == 0.0:
        a0 = next(stream) if spec.p == 0 else 0.0
        return EvalResult(a0, 0.0, 1, Status.CONVERGED)

    q = abs(t)
    geom = q ** (spec.p + 1) / (1.0 - q)
    cap = get_max_terms()
    terms: list[float] = []
    pw = 1.0
    tail = math.inf
    hit_cap = True
    for n in range(cap):
        terms.append(next(stream) * pw)
        pw *= t
        tail = spec.env(n + 1, mu) * geom
        geom *= q
        if tail <= 0.5 * tol and n + 1 >= min_terms:
            hit_cap = False
            break
    value = math.fsum(terms) * t**spec.p if spec.p else math.fsum(terms)
    bound = tail + _FP_SLACK * (1.0 + abs(value))
    if hit_cap or bound > tol:
        return EvalResult(value, bound, len(terms), Status.MAX_TERMS)
    return EvalResult(value, bound, len(terms), Status.CONVERGED)
