"""Tagged power series with rigorous tail bounds.

Each SeriesId names one concrete power series sum_{n} a_n t^(n+p) whose
coefficients involve skew-harmonic numbers; its companion closed form,
alias and domain are in catalog, and its row here adds the numerics.
sum_series evaluates it four ways depending on t:

* interior |t| < 1: direct summation, geometric tail bound
  env(N+1) |t|^(N+1+p) / (1 - |t|), where env is a per-series nonincreasing
  majorant of |a_n|.  The terms come in blocks: coefficients by C-level
  maps over the harmonic cache (a fused loop for the mu series), powers
  and geometric factors by running products carried from block to block,
  the stopping index by bisection on the nonincreasing tail bound, and one
  math.fsum.  Every float is rounded as in a term-by-term loop, so value,
  bound, terms and status are those of that loop, bit for bit (the
  argument is in _SeriesSpec);
* the mu series at 0 < |t| < 0.99: the forward split (forward_split,
  loaded by the first such call).  With s_n = H_n^-(mu)/mu, the partial
  sums of log1p(mu)/mu, each series is an elementary part plus sums of
  what s_n still owes that limit, whose terms shrink like |mu t|^n, so N,
  which comes from tol, is about log(tol)/log|mu t|.  It is taken when N
  is at most the interior sum's estimate and the term cap, and its bound
  at most tol;
* endpoint t = +-1, where the series' catalog Domain admits it: its near
  entry (below) at lam = 0.  Every term of a c-sum there is
  s_n c_n^k / (n + d)^e with c_n = (-1)^n (log 2 - H_n^-) and s_n = 1 or
  (-1)^n.  A c-sum is a fixed 32 terms plus the tail beyond them, from the
  asymptotic expansion of c_n in u = 1/(n+1), generated from Bernoulli
  numbers through u^12 and summed against Euler-Maclaurin Hurwitz zeta
  values (their alternating combination eta for s_n = (-1)^n); the two
  omitted orders, doubled, and the rounding of each c_n make the bound;
* near an endpoint, 0.99 <= |t| < 1, for every series (near_endpoint,
  loaded by the first call in the band): the ten without mu as an
  elementary part plus one or two c-sums, their terms each times t^n, as
  32 terms plus a Lerch tail; the mu series, at |mu| < 1, by the same
  split, but with each tail summed backward from a seed whose N comes
  from |mu| alone, when that takes fewer terms than the interior sum
  would.  A bound above tol falls back to the interior sum, unless that
  sum could only end at the term cap with a larger bound.

Every returned error_bound is meant to be honest: re-evaluating with more
terms moves the value by at most the reported bound.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Callable, Iterable
from itertools import accumulate, chain, cycle, islice, repeat
from operator import mul, sub, truediv

from .catalog import SERIES, SeriesId, lookup
from .core_numerics import (
    _BERNOULLI, _CACHE, _TANGENT, CONSTANTS, DEFAULT_CACHE_LIMIT, LOG2,
    check_int, check_mu, check_real, check_tol, skew_harmonic)
from .result import EvalResult, Status

DEFAULT_MAX_TERMS = 200_000
_max_terms = DEFAULT_MAX_TERMS
_BLOCK = 64  # the first block of an interior sum, in terms


def set_max_terms(n: int) -> None:
    """Set the global term cap of sum_series's interior sums, an integer
    from 1 to the harmonic cache limit (DomainError otherwise), which the
    mu series' split keeps too below |t| = 0.99; the endpoint and
    near-endpoint rules ignore it."""
    global _max_terms
    _max_terms = check_int("max terms", n, 1, DEFAULT_CACHE_LIMIT)


def get_max_terms() -> int:
    return _max_terms


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


# -- coefficients, a block at a time ----------------------------------------
#
# A block rule block(lo, hi) returns an iterable of a_lo, ..., a_(hi-1).
# Those of the series without mu are C-level maps over slices of the
# harmonic cache, with the float operations of the one-term formula; each
# fills the cache no further than the last index it reads.

#: block(lo, hi) -> a_lo, ..., a_(hi-1)
_Block = Callable[[int, int], Iterable[float]]
_H, _SKEW = _CACHE.values_h, _CACHE.values_skew


def _skew(lo: int, hi: int) -> list[float]:
    """H_n^- (0.0 at n = 0)."""
    if hi > len(_SKEW):
        _CACHE.ensure(hi - 1)
    return _SKEW[lo:hi]


def _centered(lo: int, hi: int) -> Iterable[float]:
    """H_n^- - log 2."""
    return map(sub, _skew(lo, hi), repeat(LOG2))


def _over_n(x: Iterable[float], lo: int, hi: int) -> Iterable[float]:
    """x_n / n, 0.0 at n = 0, for x = x_lo, ..., x_(hi-1)."""
    if lo:
        return map(truediv, x, range(lo, hi))
    return chain((0.0,), map(truediv, islice(x, 1, None), range(1, hi)))


def _over_np1(x: Iterable[float], lo: int, hi: int) -> Iterable[float]:
    """x_n / (n + 1)."""
    return map(truediv, x, range(lo + 1, hi + 1))


def _squares(x: Iterable[float]) -> Iterable[float]:
    """x_n ** 2."""
    return map(pow, x, repeat(2))


def _ramanujan(lo: int, hi: int) -> list[float]:
    """2 O_m / n at odd n = 2m - 1, with O_m = H_2m - H_m/2 as in
    odd_harmonic; 0.0 at even n."""
    out = [0.0] * (hi - lo)
    odd = range(lo | 1, hi, 2)
    if odd:
        m = (odd[0] + 1) // 2
        end = m + len(odd)
        if 2 * end - 2 >= len(_H):
            _CACHE.ensure(2 * end - 2)
        o = map(sub, _H[2 * m:2 * end:2], map(mul, repeat(0.5), _H[m:end]))
        out[odd[0] - lo::2] = map(truediv, map(mul, repeat(2.0), o), odd)
    return out


def _plain(block: _Block) -> Callable[[float | None], _Block]:
    """The rule of a series without mu: one block rule for every sum."""
    return lambda mu: block


def _mu_rule(over: int, inner: bool) -> Callable[[float], _Block]:
    """The rule of a mu series: rule(mu) is a fresh block rule.

    a_0 = 0 and a_n = (-1)^(n-1) mu s_n/(n + over) for n >= 1, with
    s_n = H_n^-(mu); with inner, a_n = (-1)^(n-1) i_n/(n + over) instead,
    i_n = sum_{k<=n} s_k/k.  Both run as Kahan sums in one loop per block,
    with no call per term; the block rule carries them, so its calls must
    cover 0, 1, 2, ... in order.
    """
    def rule(mu: float) -> _Block:
        s = cs = i = ci = 0.0
        p = 1.0  # (-mu)^(n-1)
        neg = -mu

        def block(lo: int, hi: int) -> list[float]:
            nonlocal s, cs, i, ci, p
            first = max(lo, 1)
            s_, cs_, p_, i_, ci_, runs = s, cs, p, i, ci, []
            # the s_n recurrence is written twice: the loop without i_n is
            # the mu series' hot path
            if inner:
                for n in range(first, hi):
                    y = p_ / n - cs_
                    x = s_ + y
                    cs_ = (x - s_) - y
                    s_ = x
                    p_ *= neg
                    y = s_ / n - ci_
                    x = i_ + y
                    ci_ = (x - i_) - y
                    i_ = x
                    runs.append(i_)
            else:
                for n in range(first, hi):
                    y = p_ / n - cs_
                    x = s_ + y
                    cs_ = (x - s_) - y
                    s_ = x
                    p_ *= neg
                    runs.append(s_)
            s, cs, p, i, ci = s_, cs_, p_, i_, ci_
            signs = cycle((1.0, -1.0) if first % 2 else (-1.0, 1.0))
            x = runs if inner else map(mul, repeat(mu), runs)
            a = map(mul, signs, map(truediv, x, range(first + over,
                                                      hi + over)))
            return chain((0.0,), a) if lo == 0 else a
        return block
    return rule


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


def _env_mu_log(n: int, mu: float | None) -> float:
    n = max(n, 1)
    return _c_mu(mu) * (1.0 + math.log(n)) / n


def _env_ramanujan(n: int, mu: float | None) -> float:
    n = max(n, 1)
    return (2.0 + math.log(n)) / n


# -- c-sums at t = +-1: a fixed prefix plus an asymptotic tail ---------------
#
# c_n is the Laplace transform of 1/(1+e^-s) = 1/2 + tanh(s/2)/2 at n+1, so
# in u = 1/(n+1)
#     c_n ~ u/2 + sum_k (4^k - 1) B_2k/(2k) u^2k = u/2 + u^2/4 - u^4/8 + ...
# where (4^k - 1) B_2k/(2k) = (-1)^(k-1) T_(2k-1) / 4^k with the integer
# tangent numbers T, exact in binary.  A c-sum's term at t = +-1,
# s_n c_n^k / (n + d)^e with s_n = 1 or (-1)^n, is that expansion multiplied
# out, and its sum over n >= N is sum_j a_j zeta(j, N+1), or
# (-1)^N sum_j a_j eta(j, N+1) for the alternating s_n, with
# eta(j, m) = sum_{i >= 0} (-1)^i (m+i)^-j.

_FP_SLACK = 2e-16

_TAIL_TERMS = 32             # terms summed before the tail takes over
_TAIL_ORDER = 12             # highest power of u the tail keeps
_TAIL_DEG = _TAIL_ORDER + 2  # the two omitted powers bound the model error
#: Error of each computed c_n, n < 40: LOG2's half ulp, the roundings of
#: the 1/k in H_n^- (2^-53 H_n together) and the compensated sum's few ulp.
_C_ERR = 8e-16

#: |t| from which sum_series tries the near-endpoint rule (near_endpoint).
#: Its tail's terms alternate and shrink as (lam a)^r/r!, lam = -log|t|,
#: a = _TAIL_TERMS + 1; at |t| = 0.99, lam a = 0.332 and they cancel by
#: under a bit, but the loss grows as exp(2 lam a) below.
_NEAR_START = 0.99


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
def _expansion(power: int, over: int | None, deg: int) -> list[float]:
    """a_0, ..., a__TAIL_DEG of c_n^power / (n + over)^deg ~ sum_j a_j u^j
    (no divisor for over None), u = 1/(n+1): the expansion of c_n
    multiplied out."""
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
    return a


@functools.cache
def _tail(power: int, over: int | None, deg: int, alt: bool,
          m: int) -> tuple[float, float]:
    """sum_{n >= m-1} s_n c_n^power / (n + over)^deg (no divisor for over
    None), s_n = (-1)^n if alt else 1, and a bound on its model error: the
    _expansion's powers through _TAIL_ORDER are summed against zeta(j, m)
    (eta(j, m) if alt), and twice the two omitted powers, summed against
    zeta(j, m) without signs, are the bound."""
    a = _expansion(power, over, deg)

    def against(f: Callable[[int, float], float], js: range) -> list[float]:
        return [a[j] * f(j, float(m)) if a[j] else 0.0 for j in js]

    # a[0] = 0: every term is O(u)
    head = against(_eta if alt else _hurwitz, range(1, _TAIL_ORDER + 1))
    omitted = against(_hurwitz, range(_TAIL_ORDER + 1, _TAIL_DEG + 1))
    sign = -1.0 if alt and m % 2 == 0 else 1.0  # (-1)^(m-1)
    return sign * math.fsum(head), 2.0 * math.fsum(map(abs, omitted))


#: A c-sum of a near entry: the terms sign c_n^power / (n + over)^deg x^n
#: (no divisor for over None) from n = start, x = -t if alt else t.
_Rule = namedtuple("_Rule", "power over deg sign alt start",
                   defaults=(None, 1, 1.0, False, 0))


def _terms(power: int, over: int | None, deg: int, alt: bool, lo: int,
           hi: int) -> tuple[list[float], list[float]]:
    """The terms s_n c_n^power / (n + over)^deg (no divisor for over None),
    s_n = (-1)^n if alt else 1, for n = lo, ..., hi-1, and the |derivative
    in c_n| of each."""
    terms, dterms = [], []
    for n in range(lo, hi):
        c = _c(n)
        x = c**power if over is None else c**power / (n + over) ** deg
        terms.append(-x if alt and n % 2 else x)
        dterms.append(power * x / c)
    return terms, dterms


@functools.cache
def _endpoint(series_id: SeriesId,
              end: float) -> tuple[float, EvalResult, EvalResult]:
    """The series at an end t = +-1 its domain admits: the near entry at
    lam = 0, where a c-sum's x^n is s_n = (-1)^n if x < 0, else 1.  One
    math.fsum adds the elementary part and each c-sum's _TAIL_TERMS terms
    and asymptotic tail, all times sign end^p, which is +-1 (so exact) at
    every admitted end.  The bound is near_sum's without the Lerch cut.
    Returns the bound, then the result as CONVERGED and as MAX_TERMS: they
    do not depend on tol, so each end is computed once, on its first call."""
    spec = _SPECS[series_id]
    elementary, rules, rounding = (*spec.near, 3.0)[:3]
    e = elementary(end) if elementary else 0.0
    parts, err, mass = [e], 0.0, rounding * abs(e)
    for power, over, deg, sign, alt, start in rules:
        w = sign * end**spec.p
        neg = (-end if alt else end) < 0.0
        n_end = start + _TAIL_TERMS
        terms, dterms = _terms(power, over, deg, neg, start, n_end)
        tail, model = _tail(power, over, deg, neg, n_end + 1)
        parts += [w * x for x in terms]
        parts.append(w * tail)
        err += abs(w) * (model + _C_ERR * math.fsum(dterms))
        mass += abs(w) * (abs(math.fsum(terms)) + abs(tail))
    value = math.fsum(parts)
    bound = err + _FP_SLACK * (1.0 + mass)
    return (bound,
            EvalResult(value, bound, _TAIL_TERMS, Status.CONVERGED),
            EvalResult(value, bound, _TAIL_TERMS, Status.MAX_TERMS))


class _SeriesSpec(namedtuple("_SeriesSpec", "domain p env coeffs near")):
    """One series: its catalog.Domain and its numerics.  The value is
    t^p * sum a_n t^n.  coeffs(mu) returns the series' block rule
    (a _Block; mu is None for a series without mu).  env(n, mu) is the
    majorant of |a_n| in the interior tail bound; it must be nonincreasing
    in n as computed, not only in exact arithmetic, because the interior
    sum finds its stopping index by bisection.  Each env here is a constant
    over an exact integer power of n or n + 1, or (c + log n)/n, whose
    relative step of about 1/n is far above its rounding for every n the
    cache allows.  near, the entry of the near-endpoint rule, is
    (elementary, rules[, rounding]): elementary(t), or None for 0, plus
    t^p times the sum of the c-sums of the _Rules in rules, where
    elementary(t) is within rounding (3 if not given) times _FP_SLACK
    |elementary(t)|; or, for a mu series, its _MuSplit.  An end t = +-1
    that the domain admits is the near entry at lam = 0 (_endpoint).

    An interior sum takes its terms in blocks that double from 64 up to
    the term cap; a block ends early where the tail bound would reach
    tol/2 if env kept its value at the block's start, which only saves
    work.  A block's powers t^n and geometric factors
    q^(n+1+p)/(1-q), q = |t|, are running products (itertools.accumulate
    with operator.mul) continued from the last value of the block before,
    so each is rounded exactly as in a term-by-term loop.  The geometric
    factors never grow (q < 1, and rounding is monotone), so the tail
    bounds env(n+1) * geom_n are nonincreasing as computed, and the first n
    whose bound is at most tol/2 is found by bisection: env is evaluated
    only at the O(log N) probes, and the index is the one the term-by-term
    test would stop at.  The terms a_n t^n of every block go into one
    math.fsum, which is exactly rounded whatever their order.
    """

    __slots__ = ()


def _log2_li2(t: float) -> float:
    if t == 1.0:  # li2_real(1.0), without loading polylog at the end
        return LOG2 * CONSTANTS["PI_SQ_OVER_6"]
    from .polylog import li2_real  # only the near rule needs polylog
    return LOG2 * li2_real(t)


def _ramanujan_near(t: float) -> float:
    """RAMANUJAN_ODD's elementary part near t = +-1 (near_endpoint):
    sign(t) (atanh(s)^2 + pi^2/12 - Li2(v) - log^2(1-v)/2), s = |t| and
    v = (1-s)/2, exact, within 6 _FP_SLACK of its size."""
    from .polylog import li2_real
    v = 0.5 * (1.0 - abs(t))
    lv = math.log1p(-v)
    a = 0.5 * (lv - math.log(v))  # atanh(s)
    e = a * a + 0.5 * CONSTANTS["PI_SQ_OVER_6"] - li2_real(v) - 0.5 * lv * lv
    return math.copysign(e, t)


#: The split of a mu series (forward_split.mu_split below 0.99,
#: near_endpoint.mu_split in the band): its term's divisor n + over, and
#: whether the term holds i_n = sum_(k<=n) H_k^-(mu)/(mu k) (inner).
_MuSplit = namedtuple("_MuSplit", "over inner")


def _mu_row(over: int, inner: bool = False) -> tuple:
    """The row (p, env, coeffs, near) of the mu series t^over sum a_n t^n,
    a_n as in _mu_rule(over, inner), all four from its split.  As
    |H_n^-(mu)| <= _c_mu, env is |mu| _c_mu/(n + over), or with inner
    _c_mu (1 + log n)/n, since |i_n| <= _c_mu H_n."""
    if inner:
        env = _env_mu_log
    else:
        def env(n: int, mu: float) -> float:
            return abs(mu) * _c_mu(mu) / max(n + over, 1)
    return over, env, _mu_rule(over, inner), _MuSplit(over, inner)


#: series -> (p, env, coeffs, near); _SPECS adds the catalog Domain.  Near
#: t = +-1, with H_n^- = log 2 - (-1)^n c_n, each near entry of a series
#: without mu is its elementary part and its c-sums.
_ROWS = {
    SeriesId.GF_SKEW: (
        0, _env_one, _plain(_skew),
        # log 2/(1-t) - sum c_n (-t)^n
        (lambda t: LOG2 / (1.0 - t), (_Rule(1, sign=-1.0, alt=True),))),
    SeriesId.GF_CENTERED: (
        0, _env_inv_np1,
        # H_n^- - log 2 = -(-1)^n c_n
        _plain(_centered),
        (None, (_Rule(1, sign=-1.0, alt=True),))),
    SeriesId.SKEW_OVER_N: (
        0, _env_inv,
        _plain(lambda lo, hi: _over_n(_skew(lo, hi), lo, hi)),
        # -log 2 log(1-t) - sum c_n (-t)^n/n
        (lambda t: -LOG2 * math.log1p(-t),
         (_Rule(1, over=0, sign=-1.0, alt=True, start=1),))),
    SeriesId.CENTERED_OVER_N: (
        0, _env_half_inv_sq,
        _plain(lambda lo, hi: _over_n(_centered(lo, hi), lo, hi)),
        (None, (_Rule(1, over=0, sign=-1.0, alt=True, start=1),))),
    SeriesId.CENTERED_SHIFT: (
        1, _env_inv_np1_sq,
        _plain(lambda lo, hi: _over_np1(_centered(lo, hi), lo, hi)),
        (None, (_Rule(1, over=1, sign=-1.0, alt=True),))),
    SeriesId.SKEW_SQ: (
        0, _env_one, _plain(lambda lo, hi: _squares(_skew(lo, hi))),
        # log^2 2/(1-t) - 2 log 2 sum c_n (-t)^n + sum c_n^2 t^n
        (lambda t: LOG2**2 / (1.0 - t),
         (_Rule(1, sign=-2.0 * LOG2, alt=True), _Rule(2)))),
    SeriesId.CENTERED_SQ: (
        0, _env_inv_np1_sq,
        _plain(lambda lo, hi: _squares(_centered(lo, hi))),
        (None, (_Rule(2),))),
    SeriesId.CENTERED_SQ_SHIFT: (
        1, _env_inv_np1_cube,
        _plain(lambda lo, hi: _over_np1(_squares(_centered(lo, hi)), lo, hi)),
        (None, (_Rule(2, over=1),))),
    SeriesId.SKEW_OVER_NSQ: (
        1, _env_inv_np1_sq,
        _plain(lambda lo, hi: map(truediv, _skew(lo, hi), map(
            pow, range(lo + 1, hi + 1), repeat(2)))),
        # log 2 Li2(t) - t sum c_n (-t)^n/(n+1)^2, from n = 0
        (_log2_li2, (_Rule(1, over=1, deg=2, sign=-1.0, alt=True),))),
    # L (t - log1p(t)) + t sum r_n t^n/(n+1)
    SeriesId.MU_LEWIN: _mu_row(over=1),
    # L log1p(t) + sum r_n t^n/n
    SeriesId.MU_DILOG: _mu_row(over=0),
    # mu i_n = L H_n - R + rho_n, R = sum_k (-1)^k r_k/k and rho_n its tail
    # beyond n
    SeriesId.MU_TRILOG: _mu_row(over=0, inner=True),
    SeriesId.RAMANUJAN_ODD: (
        0, _env_ramanujan, _plain(_ramanujan),
        # O_m = H_m/2 + log 2 - c_2m and c_2m = 1/2m - c_(2m-1): elementary
        # plus sum c_n t^n/n - sum c_n (-t)^n/n; rounding 6
        (_ramanujan_near, (_Rule(1, over=0, start=1),
                           _Rule(1, over=0, sign=-1.0, alt=True, start=1)),
         6.0)),
}
_SPECS: dict[SeriesId, _SeriesSpec] = {
    sid: _SeriesSpec(SERIES[sid.name].domain, *row)
    for sid, row in _ROWS.items()}


def coefficient(series_id: SeriesId, n: int, mu: float | None = None) -> float:
    """Coefficient a_n of the tagged series, n an integer >= 0.  A mu
    series runs its block rule from a_0, in O(n) time, a bounded block at
    a time.  A bad n, or a mu outside -1 < mu <= 1, raises DomainError."""
    check_int("n", n)
    spec = lookup(_SPECS, series_id, "series")
    mu = check_mu(series_id, spec.domain, mu)
    block = spec.coeffs(mu)
    lo = 0 if spec.domain.mu else n
    while True:
        hi = min(lo + 4096, n + 1)
        *_, a = block(lo, hi)
        if hi > n:
            return a
        lo = hi


def sum_series(
    series_id: SeriesId,
    t: float,
    tol: float = 1e-12,
    mu: float | None = None,
) -> EvalResult:
    """Evaluate the tagged series at t to absolute tolerance tol.

    Out-of-domain t (or mu) yields status DIVERGENT_INPUT with value nan
    rather than an exception; a bool or non-real t, tol or mu, or a tol
    that is not positive and finite, raises DomainError.  Interior sums
    stop at the term cap (set_max_terms) with status MAX_TERMS; the
    endpoint and near-endpoint rules ignore the cap, and all but the mu
    series' split sum a fixed 32 terms.  At an end t = +-1 that its catalog
    Domain admits, a series is its near entry at lam = 0, whose value and
    bound do not depend on tol: each end is computed once per process, on
    its first call, and a call only compares the stored bound with tol
    (CONVERGED when bound <= tol, else MAX_TERMS).  At 0 < |t| < 0.99 a mu
    series returns its forward split (forward_split, CONVERGED) when the
    split's N terms are at most the interior sum's estimate
    (_interior_terms) and the term cap, and its bound is at most tol; else
    the interior sum.  At 0.99 <= |t| < 1 a series returns the
    near-endpoint rule's result (CONVERGED) when its bound is at most tol,
    else the interior sum; the rule's tables are built on the first call
    that needs them, never at import.  For a mu series that rule is
    near_endpoint.mu_split, taken at |mu| < 1 when its N terms are fewer
    than the interior sum's estimate and than _SPLIT_MOST.  A near result
    whose bound exceeds tol but not _capped_tail returns as MAX_TERMS,
    without the interior sum, which could only end at the cap with a bound
    no smaller.
    """
    tol = check_tol("tol", tol)
    try:
        spec = _SPECS[series_id]
    except KeyError:
        spec = lookup(_SPECS, series_id, "series")
    lo, ends, has_mu = spec.domain
    if has_mu or mu is not None:
        mu = check_mu(series_id, spec.domain, mu, strict=False)
    t = check_real("t", t)
    # check_mu turned a mu outside -1 < mu <= 1 into NaN, so mu != mu
    if not (lo < t < 1.0 or t in ends) or mu != mu:
        return EvalResult(math.nan, math.inf, 0, Status.DIVERGENT_INPUT)

    if abs(t) == 1.0:
        bound, converged, short = _endpoint(series_id, t)
        return converged if bound <= tol else short
    if abs(t) >= _NEAR_START:
        if has_mu:
            near = _near_rule().mu_split(
                spec, t, mu, min(_interior_terms(spec, t, tol, mu),
                                 _SPLIT_MOST))
        else:
            near = _near_rule().near_sum(spec, t)
        if near:
            if near.error_bound <= tol:
                return near
            if near.error_bound <= _capped_tail(spec, t, mu):
                return near._replace(status=Status.MAX_TERMS)
    elif has_mu and t:
        split = _forward_rule().mu_split(spec, t, mu, tol, min(
            _interior_terms(spec, t, tol, mu), get_max_terms()))
        if split and split.error_bound <= tol:
            return split
    return _interior_sum(spec, t, tol, mu)


def _capped_tail(spec: _SeriesSpec, t: float, mu: float | None) -> float:
    """A floor under the interior sum's tail bound at the term cap,
    env(cap) |t|^(cap+p)/(1-|t|), less a margin for the ~cap roundings of
    the running product that sum computes it by.  As env and the geometric
    factors never grow, a sum whose tail bound there exceeds tol/2 ends at
    the cap, with a bound of at least this."""
    cap = get_max_terms()
    q = abs(t)
    return (spec.env(cap, mu) * q ** (cap + spec.p) / (1.0 - q)
            * (1.0 - (cap + 8) * 2.0**-52))


#: The most terms the mu split takes in the band, whatever the cap: it
#: holds them in lists, as an interior sum under the default cap does.
_SPLIT_MOST = DEFAULT_MAX_TERMS


def _interior_terms(spec: _SeriesSpec, t: float, tol: float,
                    mu: float | None) -> float:
    """About how many terms the interior sum takes at t: the n at which
    env(1, mu) |t|^(n+1+p)/(1-|t|) falls to tol/2 (rather more, as env
    only shrinks)."""
    env = spec.env(1, mu)
    if not env:
        return 0.0
    q = abs(t)
    return ((math.log(tol) - math.log(2.0 * env) + math.log1p(-q))
            / math.log(q) - spec.p - 1)


@functools.cache
def _near_rule():
    """The near_endpoint module, imported by the first call in the band."""
    from . import near_endpoint
    return near_endpoint


@functools.cache
def _forward_rule():
    """The forward_split module, imported by the first mu sum below the
    band."""
    from . import forward_split
    return forward_split


def _interior_sum(spec: _SeriesSpec, t: float, tol: float,
                  mu: float | None) -> EvalResult:
    """The interior sum of spec at |t| < 1, in blocks (see _SeriesSpec)."""
    block = spec.coeffs(mu)
    if t == 0.0:
        a0 = next(iter(block(0, 1))) if spec.p == 0 else 0.0
        return EvalResult(a0, 0.0, 1, Status.CONVERGED)

    # blocks of terms, see _SeriesSpec; geom is q^(n+1+p)/(1-q) and pw is
    # t^n at the block's first n
    q = abs(t)
    geom = q ** (spec.p + 1) / (1.0 - q)
    pw = 1.0
    cap = get_max_terms()
    env, half = spec.env, 0.5 * tol
    terms: list[float] = []
    lo, size = 0, _BLOCK
    while True:
        # were env to keep its value at lo, the tail bound would reach tol/2
        # about k terms on: the block ends there (a term to spare for
        # rounding) unless its doubled size ends first.  This only saves
        # work; the bisection below finds the stop.
        tail = env(lo + 1, mu) * geom
        ratio = half / tail if tail > half else 1.0
        k = math.ceil(math.log(ratio) / math.log(q)) if ratio else cap
        hi = min(lo + size, cap, lo + k + 2)
        geoms = list(accumulate(repeat(q, hi - lo - 1), mul, initial=geom))
        tail = env(hi, mu) * geoms[-1]
        done = tail <= half
        if done:  # bisection for the first n whose tail bound is <= tol/2
            a, b = lo, hi - 1
            while a < b:
                m = (a + b) // 2
                x = env(m + 1, mu) * geoms[m - lo]
                if x <= half:
                    b, tail = m, x
                else:
                    a = m + 1
            hi = b + 1
            # the last block's powers go straight into its terms
            terms += map(mul, block(lo, hi), accumulate(
                repeat(t, hi - lo - 1), mul, initial=pw))
            break
        powers = list(accumulate(repeat(t, hi - lo - 1), mul, initial=pw))
        terms += map(mul, block(lo, hi), powers)
        if hi == cap:
            break
        geom, pw = geoms[-1] * q, powers[-1] * t
        lo, size = hi, 2 * size
    value = math.fsum(terms) * t**spec.p if spec.p else math.fsum(terms)
    bound = tail + _FP_SLACK * (1.0 + abs(value))
    if not done or bound > tol:
        return EvalResult(value, bound, len(terms), Status.MAX_TERMS)
    return EvalResult(value, bound, len(terms), Status.CONVERGED)
