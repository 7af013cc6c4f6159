"""Tagged power series with rigorous tail bounds.

Each SeriesId names one concrete power series sum_{n} a_n t^(n+p) whose
coefficients involve skew-harmonic numbers.  sum_series evaluates it two
ways depending on t:

* interior |t| < 1: direct summation, geometric tail bound
  env(N+1) |t|^(N+1+p) / (1 - |t|), where env is a per-series nonincreasing
  majorant of |a_n|;
* endpoint t = +-1: every term there is s_n c_n^k / (n + d)^e with
  c_n = (-1)^n (log 2 - H_n^-) and s_n = 1 or (-1)^n.  One rule sums a
  fixed 32 terms plus the tail beyond them, from the asymptotic expansion
  of c_n in u = 1/(n+1), generated from Bernoulli numbers through u^12 and
  summed against Euler-Maclaurin Hurwitz zeta values (their alternating
  combination eta for s_n = (-1)^n); the two omitted orders, doubled, and
  the rounding of each c_n make the bound.  A rule may add an exact
  constant.

Every returned error_bound is meant to be honest: re-evaluating with more
terms moves the value by at most the reported bound.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .core_numerics import (
    CONSTANTS, LOG2, check_real, odd_harmonic, skew_harmonic)
from .errors import DomainError
from .result import EvalResult, Status

DEFAULT_MAX_TERMS = 200_000
_max_terms = DEFAULT_MAX_TERMS


def set_max_terms(n: int) -> None:
    """Set the global term cap of sum_series's interior sums; the endpoint
    rules sum a fixed number of terms and ignore it."""
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


# -- endpoint rules: a fixed prefix plus an asymptotic tail ------------------
#
# c_n is the Laplace transform of 1/(1+e^-s) = 1/2 + tanh(s/2)/2 at n+1, so
# in u = 1/(n+1)
#     c_n ~ u/2 + sum_k (4^k - 1) B_2k/(2k) u^2k = u/2 + u^2/4 - u^4/8 + ...
# where (4^k - 1) B_2k/(2k) = (-1)^(k-1) T_(2k-1) / 4^k with the integer
# tangent numbers T, exact in binary.  An endpoint term s_n c_n^k / (n + d)^e,
# with s_n = 1 or (-1)^n, is that expansion multiplied out, and its sum over
# n >= N is sum_j a_j zeta(j, N+1), or (-1)^N sum_j a_j eta(j, N+1) for the
# alternating s_n, with eta(j, m) = sum_{i >= 0} (-1)^i (m+i)^-j.

_FP_SLACK = 2e-16

#: An endpoint rule evaluates a series at t = +-1 to tolerance tol.
_EndpointRule = Callable[[float], EvalResult]


def _tangent_numbers(k: int) -> list[int]:
    """T_1, T_3, ..., T_(2k-1) of tan x = sum_j T_(2j-1) x^(2j-1)/(2j-1)!
    (the Knuth-Buckholtz recurrence, in integers)."""
    t = [0] + [math.factorial(j) for j in range(k)]
    for i in range(2, k + 1):
        for j in range(i, k + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return t[1:]


_TANGENT = _tangent_numbers(12)
#: B_2, B_4, ..., B_24, each rounded once from the tangent numbers.
_BERNOULLI = [(-1) ** (k - 1) * 2 * k * tk / (4**k * (4**k - 1))
              for k, tk in enumerate(_TANGENT, 1)]

_TAIL_TERMS = 32             # terms summed before the tail takes over
_TAIL_ORDER = 12             # highest power of u the tail keeps
_TAIL_DEG = _TAIL_ORDER + 2  # the two omitted powers bound the model error
#: Error of each computed c_n, n < 40: LOG2's half ulp, the roundings of
#: the 1/k in H_n^- (2^-53 H_n together) and the compensated sum's few ulp.
_C_ERR = 8e-16


def _mul(a: list[float], b: list[float]) -> list[float]:
    """Product of two power series in u, truncated after u^_TAIL_DEG."""
    return [math.fsum(a[i] * b[j - i] for i in range(j + 1))
            for j in range(_TAIL_DEG + 1)]


def _hurwitz(s: int, x: float) -> float:
    """zeta(s, x) = sum_{i >= 0} (x+i)^-s for s >= 2 and real x > 0, and its
    finite part -psi(x) at s = 1, by Euler-Maclaurin.  For (x+i)^-s the
    remainder is below the first omitted correction; corrections are added
    until one falls under 2^-60 of |sum|."""
    total = (-math.log(x) if s == 1 else x ** (1 - s) / (s - 1)) + 0.5 * x**-s
    g = 0.5 * s * x ** (-s - 1)  # s (s+1) ... (s+2k-2) x^(1-s-2k) / (2k)!
    for k, b in enumerate(_BERNOULLI, 1):
        total += b * g
        if abs(b * g) < 2.0**-60 * abs(total):
            break
        g *= (s + 2 * k - 1) * (s + 2 * k) / ((2 * k + 1) * (2 * k + 2) * x**2)
    return total


def _eta(s: int, x: float) -> float:
    """eta(s, x) = sum_{i >= 0} (-1)^i (x+i)^-s, s >= 1, as the difference
    2^-s (zeta(s, x/2) - zeta(s, (x+1)/2)).  The difference cancels most at
    s = 1, where zeta(1, x/2) ~ -log(x/2); at x = 33 and 34 its rounding is
    below 7.4e-17 (5e-15 relative), far inside the bound's _C_ERR term."""
    return 2.0**-s * (_hurwitz(s, 0.5 * x) - _hurwitz(s, 0.5 * (x + 1.0)))


@functools.cache
def _tail(power: int, over: int | None, deg: int, alt: bool,
          m: int) -> tuple[float, float]:
    """sum_{n >= m-1} s_n c_n^power / (n + over)^deg (no divisor for over
    None), s_n = (-1)^n if alt else 1, and a bound on its model error: the
    expansion in u is multiplied out, its powers through _TAIL_ORDER are
    summed against zeta(j, m) (eta(j, m) if alt), and twice the two omitted
    powers, summed against zeta(j, m) without signs, are the bound."""
    c = [0.0] * (_TAIL_DEG + 1)
    c[1] = 0.5
    for k in range(1, _TAIL_DEG // 2 + 1):
        c[2 * k] = (-1) ** (k - 1) * _TANGENT[k - 1] / 4**k
    a = [1.0] + [0.0] * _TAIL_DEG
    for _ in range(power):
        a = _mul(a, c)
    if over is not None:  # 1/(n + over) = u / (1 - (1 - over) u)
        inv = [0.0] + [float((1 - over) ** (j - 1))
                       for j in range(1, _TAIL_DEG + 1)]
        for _ in range(deg):
            a = _mul(a, inv)

    def against(f: Callable[[int, float], float], js: range) -> list[float]:
        return [a[j] * f(j, float(m)) if a[j] else 0.0 for j in js]

    # a[0] = 0: every term is O(u)
    head = against(_eta if alt else _hurwitz, range(1, _TAIL_ORDER + 1))
    omitted = against(_hurwitz, range(_TAIL_ORDER + 1, _TAIL_DEG + 1))
    sign = -1.0 if alt and m % 2 == 0 else 1.0  # (-1)^(m-1)
    return sign * math.fsum(head), 2.0 * math.fsum(map(abs, omitted))


def _endpoint(
    power: int, over: int | None = None, deg: int = 1, sign: float = 1.0,
    alt: bool = False, const: float = 0.0, start: int | None = None,
) -> _EndpointRule:
    """Rule for the terms sign * s_n c_n^power / (n + over)^deg (no divisor
    for over None), s_n = (-1)^n if alt else 1, from n = start (default 1
    for over 0, else 0): _TAIL_TERMS terms plus the asymptotic tail, plus
    const."""
    if start is None:
        start = 1 if over == 0 else 0
    n_end = start + _TAIL_TERMS

    def rule(tol: float) -> EvalResult:
        terms = []
        dc = 0.0  # sum of |d term / d c_n|, to carry the error of each c_n
        for n in range(start, n_end):
            c = _c(n)
            x = c**power if over is None else c**power / (n + over) ** deg
            terms.append(-x if alt and n % 2 else x)
            dc += power * x / c
        tail, model_err = _tail(power, over, deg, alt, n_end + 1)
        value = sign * (math.fsum(terms) + tail) + const
        bound = model_err + _C_ERR * dc + _FP_SLACK * (1.0 + abs(value))
        status = Status.CONVERGED if bound <= tol else Status.MAX_TERMS
        return EvalResult(value, bound, len(terms), status)
    return rule


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
        # H_n^- - log 2 = -(-1)^n c_n
        _coeff_gf_centered,
        endpoints={1.0: _endpoint(1, sign=-1.0, alt=True)}),
    SeriesId.SKEW_OVER_N: _SeriesSpec(
        "EQ5", "EQ5_LHS", 0, -1.0, "|t| <= 1, t != 1", _env_inv,
        # (-1)^n H_n^- = (-1)^n log 2 - c_n: CENTERED_OVER_N less log^2 2
        _coeff_skew_over_n,
        endpoints={-1.0: _endpoint(1, over=0, sign=-1.0, const=-LOG2**2)}),
    SeriesId.CENTERED_OVER_N: _SeriesSpec(
        "EQ8", "EQ8_LHS", 0, -1.0, "|t| <= 1", _env_half_inv_sq,
        _coeff_centered_over_n, endpoints={
            1.0: _endpoint(1, over=0, sign=-1.0, alt=True),
            -1.0: _endpoint(1, over=0, sign=-1.0),
        }),
    SeriesId.CENTERED_SHIFT: _SeriesSpec(
        "EQ11", "EQ11_LHS", 1, -1.0, "|t| <= 1", _env_inv_np1_sq,
        _coeff_centered_shift, endpoints={
            1.0: _endpoint(1, over=1, sign=-1.0, alt=True),
            # t^p = -1 times the terms -c_n/(n+1)
            -1.0: _endpoint(1, over=1),
        }),
    SeriesId.SKEW_SQ: _SeriesSpec(
        "EQ12", "EQ12_LHS", 0, -1.0, "|t| < 1", _env_one, _coeff_skew_sq),
    SeriesId.CENTERED_SQ: _SeriesSpec(
        "EQ13", "EQ13_LHS", 0, -1.0, "|t| <= 1", _env_inv_np1_sq,
        _coeff_centered_sq, endpoints={
            -1.0: _endpoint(2, alt=True),
            1.0: _endpoint(2),
        }),
    SeriesId.CENTERED_SQ_SHIFT: _SeriesSpec(
        "EQ17", "EQ17_LHS", 1, -1.0, "|t| <= 1", _env_inv_np1_cube,
        _coeff_centered_sq_shift, endpoints={
            # t^p = -1
            -1.0: _endpoint(2, over=1, sign=-1.0, alt=True),
            1.0: _endpoint(2, over=1),
        }),
    SeriesId.SKEW_OVER_NSQ: _SeriesSpec(
        "EQ20", "EQ20_LHS", 1, -1.0 / 3.0, "-1/3 <= t <= 1", _env_inv_np1_sq,
        # H_n^- = log 2 - (-1)^n c_n: log 2 (pi^2/6 - 1) less alternating
        # terms, both from n = 1
        _coeff_skew_over_nsq, endpoints={1.0: _endpoint(
            1, over=1, deg=2, sign=-1.0, alt=True, start=1,
            const=LOG2 * (CONSTANTS["PI_SQ_OVER_6"] - 1.0))}),
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
    coefficient stream, in O(n); a mu outside -1 < mu <= 1 raises
    DomainError."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError("n must be an integer >= 0")
    mu = _mu_arg(series_id, mu)
    if mu is not None and not -1.0 < mu <= 1.0:
        raise DomainError("mu must satisfy -1 < mu <= 1")
    spec = _SPECS[series_id]
    if spec.mu_term is None:
        return spec.coeff(n)
    return next(itertools.islice(_mu_stream(spec.mu_term, mu), n, None))


def sum_series(
    series_id: SeriesId,
    t: float,
    tol: float = 1e-12,
    mu: float | None = None,
) -> EvalResult:
    """Evaluate the tagged series at t to absolute tolerance tol.

    Out-of-domain t (or mu) yields status DIVERGENT_INPUT with value nan
    rather than an exception; a bool or non-real t, tol or mu raises
    DomainError.  Interior sums stop at the term cap (set_max_terms) with
    status MAX_TERMS; the endpoint rules sum a fixed number of terms.
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
        return spec.endpoints[t](tol)

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
        if tail <= 0.5 * tol:
            hit_cap = False
            break
    value = math.fsum(terms) * t**spec.p if spec.p else math.fsum(terms)
    bound = tail + _FP_SLACK * (1.0 + abs(value))
    if hit_cap or bound > tol:
        return EvalResult(value, bound, len(terms), Status.MAX_TERMS)
    return EvalResult(value, bound, len(terms), Status.CONVERGED)
