"""Tagged power series with rigorous tail bounds.

Each SeriesId names one concrete power series sum_{n} a_n t^(n+p) whose
coefficients involve skew-harmonic numbers; its companion closed form,
alias and domain are in catalog, and its row here (_SeriesSpec) adds the
numerics, the regimes in which sum_series evaluates it among them.  Where
no regime's result will do, sum_series sums the series directly: the
interior sum at |t| < 1, with geometric tail bound
env(N+1) |t|^(N+1+p) / (1 - |t|), env a per-series nonincreasing majorant
of |a_n|, taken in blocks whose value, bound, terms and status are those
of a term-by-term loop with the same bound, bit for bit.

c_sums and mu_split are imported by the first call that needs them, so a
process that sums only interior series compiles neither.

Every returned error_bound is meant to be honest: re-evaluating with more
terms moves the value by at most the reported bound.
"""

from __future__ import annotations

import functools
import importlib
import math
import threading
from collections import namedtuple
from collections.abc import Callable, Iterable
from itertools import accumulate, chain, cycle, islice, repeat
from operator import mul, sub, truediv

from .catalog import SERIES, SeriesId, lookup
from .core_numerics import (
    _CACHE, _H, _skew, CONSTANTS, DEFAULT_CACHE_LIMIT, LOG2, check_int,
    check_mu, check_real, check_tol, skew_gaps)
from .result import EvalResult, Status

DEFAULT_MAX_TERMS = 200_000
_max_terms = DEFAULT_MAX_TERMS
_BLOCK = 64  # the first block of an interior sum, in terms
# interior, split and near results are built without EvalResult's
# Python-level __new__
_new = tuple.__new__
_CONVERGED, _MAX_TERMS = Status.CONVERGED, Status.MAX_TERMS
_INF = math.inf


def set_max_terms(n: int) -> None:
    """Set the global term cap of sum_series's interior sums, an integer
    from 1 to the harmonic cache limit (DomainError otherwise), which the
    mu series' split keeps too below |t| = 0.99; the endpoint and
    near-endpoint rules ignore it."""
    global _max_terms
    _max_terms = check_int("max terms", n, 1, DEFAULT_CACHE_LIMIT)


def get_max_terms() -> int:
    return _max_terms


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
# fills the cache no further than the last index it reads.  A sum reads
# them through a table (_plain), which they fill.

#: block(lo, hi) -> a_lo, ..., a_(hi-1)
_Block = Callable[[int, int], Iterable[float]]


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


#: The most a_n a series' table holds (~0.5 MB of floats at most); a block
#: that reaches past it is computed by the series' block rule.
_TABLE_TERMS = 1 << 14


def _plain(block: _Block) -> Callable[[float | None], _Block]:
    """The rule of a series without mu: one block rule for every sum,
    block through a per-process table of a_0, a_1, ...  The table is
    filled by block itself under a lock, only as far as a call has read
    (exactly to its hi), and each call then slices it.  Every rule here is
    position-independent, a_n's float operations being the same in any
    block, so the slice holds the bits block(lo, hi) gives, and block reads
    the harmonic cache no further than it would.  The block rule keeps
    block as .rule and the table as .table; filled entries are never
    changed, so reads need no lock."""
    table: list[float] = []
    lock = threading.Lock()

    def tabled(lo: int, hi: int) -> Iterable[float]:
        if hi > len(table):
            if hi > _TABLE_TERMS:
                return block(lo, hi)
            with lock:
                if hi > len(table):
                    table.extend(block(len(table), hi))
        return table[lo:hi]

    tabled.rule, tabled.table = block, table
    return lambda mu: tabled


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
            for n in range(first, hi):
                y = p_ / n - cs_
                x = s_ + y
                cs_ = (x - s_) - y
                s_ = x
                p_ *= neg
                if inner:
                    y = s_ / n - ci_
                    x = i_ + y
                    ci_ = (x - i_) - y
                    i_ = x
                    runs.append(i_)
                else:
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


_FP_SLACK = 2e-16

#: |t| from which a row's near entry is tried.  The Lerch tail's terms
#: (c_sums) alternate and shrink as (lam a)^r/r!, lam = -log|t|,
#: a = c_sums._TAIL_TERMS + 1; at |t| = 0.99, lam a = 0.332 and they cancel
#: by under a bit, but the loss grows as exp(2 lam a) below.
_NEAR_START = 0.99

#: A c-sum of a near entry: the terms sign c_n^power / (n + over)^deg x^n
#: (no divisor for over None) from n = start, x = -t if alt else t.
_Rule = namedtuple("_Rule", "power over deg sign alt start",
                   defaults=(None, 1, 1.0, False, 0))


@functools.cache
def _lazy(name: str):
    """The module skewlog.<name> (c_sums or mu_split), imported by the
    first call that needs it."""
    return importlib.import_module("." + name, __package__)


# The regimes' rules: rule(spec, t, tol, mu) is a result, or None where
# the rule does not apply, each with its own gate and term budget.

def _near(spec, t: float, tol: float, mu: None) -> EvalResult:
    """The near entry of a series without mu (c_sums.near_sum)."""
    return _lazy("c_sums").near_sum(spec, t)


def _backward(spec, t: float, tol: float, mu: float) -> EvalResult | None:
    """The backward split (mu_split.backward), at mu < 1, when its N
    terms are fewer than the interior sum's estimate and than
    DEFAULT_MAX_TERMS, whatever the cap: it holds them in lists, as an
    interior sum under the default cap does."""
    if mu < 1.0:
        return _lazy("mu_split").backward(spec, t, mu, min(
            _interior_terms(spec, t, tol, mu), DEFAULT_MAX_TERMS))
    return None


def _forward(spec, t: float, tol: float, mu: float) -> EvalResult | None:
    """The forward split (mu_split.forward), at t != 0 and mu < 1 (at
    mu = 1 its terms shrink no faster than the interior sum's), when its
    N terms are at most the interior sum's estimate and the term cap."""
    if t and mu < 1.0:
        return _lazy("mu_split").forward(spec, t, mu, tol, min(
            _interior_terms(spec, t, tol, mu), get_max_terms()))
    return None


class _SeriesSpec(namedtuple("_SeriesSpec", "domain p env coeffs near regimes",
                             defaults=(((_NEAR_START, _near),),))):
    """One series: its catalog.Domain and its numerics.  The value is
    t^p * sum a_n t^n.  coeffs(mu) returns the series' block rule
    (a _Block; mu is None for a series without mu, whose rule is read
    through its table of a_n, _plain, but for GF_SKEW's, already a slice
    of the harmonic cache).  env(n, mu) is the majorant of |a_n| in the
    interior tail bound; it must be nonincreasing in n as computed, not
    only in exact arithmetic, because the interior sum finds its stopping
    index by bisection.  Each env here is a constant over an exact integer
    power of n or n + 1, or (c + log n)/n, whose relative step of about
    1/n is far above its rounding for every n the cache allows.  near,
    the near entry, is (elementary, rules, rounding): elementary(t), or
    None for 0, plus t^p times the sum of the c-sums of the _Rules in
    rules, where elementary(t) is within rounding times
    _FP_SLACK |elementary(t)|; or, for a mu series, (over, inner), its
    splits' divisor n + over and whether their term holds
    i_n = sum_(k<=n) H_k^-(mu)/(mu k).

    regimes are the row's (start, rule) pairs, in order (see sum_series):
    by default, for a series without mu, its near entry from
    |t| = _NEAR_START (_near); for a mu series its backward split there
    and its forward split below (_backward and _forward, in mu_split).  An end t = +-1 that the domain
    admits is the near entry at lam = 0 (c_sums.near_sum).

    An interior sum takes its terms in blocks that double from 64 up to
    the term cap; a block ends early where the tail bound would reach
    tol/2 if env kept its value at the block's start, which only saves
    work.  A block's powers t^n are a running product (itertools.accumulate
    with operator.mul) continued from the last value of the block before,
    so each is rounded exactly as in a term-by-term loop, and they serve
    twice: the terms are a_n t^n, and the tail bound at n is
    env(n+1) * |t^n| * c, with c = q^(p+1)/(1-q), q = |t|, computed once
    per sum.  That bound is nonincreasing in n as computed: |t^n| never
    grows (|t^(n+1)| is |t^n| q rounded, q < 1, and rounding is monotone),
    env never grows, and a rounded product of nonincreasing positive
    factors is nonincreasing.  So the first n whose bound is at most tol/2
    is found by bisection: env is evaluated only at the O(log N) probes,
    and the index is the one a term-by-term test would stop at.  Each
    block's terms are a lazy map of its coefficients times its powers, and
    all of them go into one math.fsum, which is exactly rounded whatever
    their order.
    """

    __slots__ = ()


def _log2_li2(t: float) -> float:
    if t == 1.0:  # li2_real(1.0), without loading polylog at the end
        return LOG2 * CONSTANTS["PI_SQ_OVER_6"]
    from .polylog import li2_real  # only the band needs polylog
    return LOG2 * li2_real(t)


def _ramanujan_near(t: float) -> float:
    """RAMANUJAN_ODD's elementary part near t = +-1 (derived in c_sums):
    sign(t) (atanh(s)^2 + pi^2/12 - Li2(v) - log^2(1-v)/2), s = |t| and
    v = (1-s)/2, exact, within 6 _FP_SLACK of its size."""
    from .polylog import li2_real
    v = 0.5 * (1.0 - abs(t))
    lv = math.log1p(-v)
    a = 0.5 * (lv - math.log(v))  # atanh(s)
    e = a * a + 0.5 * CONSTANTS["PI_SQ_OVER_6"] - li2_real(v) - 0.5 * lv * lv
    return math.copysign(e, t)


def _mu_row(over: int, inner: bool = False) -> tuple:
    """The row (p, env, coeffs, near, regimes) of the mu series
    t^over sum a_n t^n, a_n as in _mu_rule(over, inner), all from its
    splits.  As |H_n^-(mu)| <= _c_mu, env is |mu| _c_mu/(n + over), or
    with inner _c_mu (1 + log n)/n, since |i_n| <= _c_mu H_n."""
    if inner:
        env = _env_mu_log
    else:
        def env(n: int, mu: float) -> float:
            return abs(mu) * _c_mu(mu) / max(n + over, 1)
    return (over, env, _mu_rule(over, inner), (over, inner),
            ((_NEAR_START, _backward), (0.0, _forward)))


#: series -> (p, env, coeffs, near[, regimes]); _SPECS adds the catalog
#: Domain.  Near t = +-1, with H_n^- = log 2 - (-1)^n c_n, each near entry
#: of a series without mu is its elementary part and its c-sums; the mu
#: series split (mu_split).
_ROWS = {
    SeriesId.GF_SKEW: (
        # its block is already a slice of the harmonic cache: no table
        0, _env_one, lambda mu: _skew,
        # log 2/(1-t) - sum c_n (-t)^n
        (lambda t: LOG2 / (1.0 - t), (_Rule(1, sign=-1.0, alt=True),), 3.0)),
    SeriesId.GF_CENTERED: (
        0, _env_inv_np1,
        # H_n^- - log 2 = -(-1)^n c_n
        _plain(skew_gaps),
        (None, (_Rule(1, sign=-1.0, alt=True),), 3.0)),
    SeriesId.SKEW_OVER_N: (
        0, _env_inv,
        _plain(lambda lo, hi: _over_n(_skew(lo, hi), lo, hi)),
        # -log 2 log(1-t) - sum c_n (-t)^n/n
        (lambda t: -LOG2 * math.log1p(-t),
         (_Rule(1, over=0, sign=-1.0, alt=True, start=1),), 3.0)),
    SeriesId.CENTERED_OVER_N: (
        0, _env_half_inv_sq,
        _plain(lambda lo, hi: _over_n(skew_gaps(lo, hi), lo, hi)),
        (None, (_Rule(1, over=0, sign=-1.0, alt=True, start=1),), 3.0)),
    SeriesId.CENTERED_SHIFT: (
        1, _env_inv_np1_sq,
        _plain(lambda lo, hi: _over_np1(skew_gaps(lo, hi), lo, hi)),
        (None, (_Rule(1, over=1, sign=-1.0, alt=True),), 3.0)),
    SeriesId.SKEW_SQ: (
        0, _env_one, _plain(lambda lo, hi: _squares(_skew(lo, hi))),
        # log^2 2/(1-t) - 2 log 2 sum c_n (-t)^n + sum c_n^2 t^n
        (lambda t: LOG2**2 / (1.0 - t),
         (_Rule(1, sign=-2.0 * LOG2, alt=True), _Rule(2)), 3.0)),
    SeriesId.CENTERED_SQ: (
        0, _env_inv_np1_sq,
        _plain(lambda lo, hi: _squares(skew_gaps(lo, hi))),
        (None, (_Rule(2),), 3.0)),
    SeriesId.CENTERED_SQ_SHIFT: (
        1, _env_inv_np1_cube,
        _plain(lambda lo, hi: _over_np1(_squares(skew_gaps(lo, hi)), lo, hi)),
        (None, (_Rule(2, over=1),), 3.0)),
    SeriesId.SKEW_OVER_NSQ: (
        1, _env_inv_np1_sq,
        _plain(lambda lo, hi: map(truediv, _skew(lo, hi), map(
            pow, range(lo + 1, hi + 1), repeat(2)))),
        # log 2 Li2(t) - t sum c_n (-t)^n/(n+1)^2, from n = 0
        (_log2_li2, (_Rule(1, over=1, deg=2, sign=-1.0, alt=True),), 3.0)),
    SeriesId.MU_LEWIN: _mu_row(over=1),
    SeriesId.MU_DILOG: _mu_row(over=0),
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
    a time; a series with a table of a_n (_plain) fills it through a_n
    when n < _TABLE_TERMS.  A bad n, or a mu outside -1 < mu <= 1, raises
    DomainError."""
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
    rather than an exception; a bool or non-real t, tol or mu, or a tol that
    is not positive and finite, raises DomainError.  A t that is an exact
    float, and a tol that is an exact float in (0, inf), are taken as they
    are; any other t or tol goes through check_real or check_tol, so every
    value is accepted or refused, with the same message, as by those
    checks.  At an end t = +-1 that
    its catalog Domain admits, a series is its near entry at lam = 0
    (c_sums.near_sum), whose value and bound do not depend on tol: each end
    is computed once per process, on its first call, and a call only
    compares the stored bound with tol (CONVERGED when bound <= tol, else
    MAX_TERMS).  At any other t, the rule of the first of the row's regimes
    whose start |t| reaches (see _SeriesSpec) gives a result, or None; a
    result whose bound is at most tol returns as it is (CONVERGED), and one
    whose bound is at most _capped_tail returns as MAX_TERMS, without the
    interior sum, which could only end at the term cap with a bound no
    smaller.  Else the interior sum runs: it stops at the term cap
    (set_max_terms) with status MAX_TERMS.  The c-sums sum a fixed 32 terms
    and the backward split ignores the cap.
    """
    if type(tol) is not float or not 0.0 < tol < _INF:
        tol = check_tol("tol", tol)
    try:
        spec = _SPECS[series_id]
    except KeyError:
        spec = lookup(_SPECS, series_id, "series")
    lo, ends, has_mu = spec.domain
    if has_mu or mu is not None:
        mu = check_mu(series_id, spec.domain, mu, strict=False)
    if type(t) is not float:
        t = check_real("t", t)
    # check_mu turned a mu outside -1 < mu <= 1 into NaN, so mu != mu
    if not (lo < t < 1.0 or t in ends) or mu != mu:
        return EvalResult(math.nan, math.inf, 0, Status.DIVERGENT_INPUT)

    q = abs(t)
    if q == 1.0:
        bound, converged, short = _endpoint(series_id, t)
        return converged if bound <= tol else short
    for start, rule in spec.regimes:
        if q >= start:
            res = rule(spec, t, tol, mu)
            if res:
                if res.error_bound <= tol:
                    return res
                if res.error_bound <= _capped_tail(spec, t, mu):
                    return res._replace(status=_MAX_TERMS)
            break
    return _interior_sum(spec, t, tol, mu)


def _capped_tail(spec: _SeriesSpec, t: float, mu: float | None) -> float:
    """A floor under the interior sum's tail bound at the term cap.

    That bound, at n = cap - 1, is env(cap) * |t^(cap-1)| * c with
    c = q^(p+1)/(1-q), q = |t| (see _SeriesSpec).  Before rounding it is
    E = env(cap) q^(cap+p)/(1-q), for the same computed env(cap), since
    |t^(cap-1)| = q^(cap-1).  The running product t^(cap-1) rounds cap - 2
    times (its first step, 1.0 * t, is exact), c at most four units of
    2^-53 (q**(p+1) within an ulp, 1 - q, the division), and the two
    products one each: the computed bound is at least E (1 - (cap+4) 2^-53)
    to first order.  Here E is computed with at most seven such units
    (q**(cap+p) within an ulp, 1 - q, the product, the division, the
    margin's 1 - x and the last product), then shrunk by (cap + 8) 2^-52,
    so this floor is at most E (1 - (2 cap + 9) 2^-53): below that bound
    for every cap.  As env and |t^n| never grow, a sum whose tail bound
    there exceeds tol/2 ends at the cap, and every MAX_TERMS interior
    result, at the cap or before it, has a bound of at least this."""
    cap = get_max_terms()
    q = abs(t)
    return (spec.env(cap, mu) * q ** (cap + spec.p) / (1.0 - q)
            * (1.0 - (cap + 8) * 2.0**-52))


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
def _endpoint(series_id: SeriesId,
              end: float) -> tuple[float, EvalResult, EvalResult]:
    """The series at an end t = +-1 its domain admits, its near entry at
    lam = 0 (c_sums.near_sum): the bound, then the result as CONVERGED and
    as MAX_TERMS.  They do not depend on tol, so each end is computed once,
    on its first call."""
    res = _lazy("c_sums").near_sum(_SPECS[series_id], end)
    return res.error_bound, res, res._replace(status=_MAX_TERMS)


def _interior_sum(spec: _SeriesSpec, t: float, tol: float,
                  mu: float | None) -> EvalResult:
    """The interior sum of spec at |t| < 1, in blocks (see _SeriesSpec)."""
    block = spec.coeffs(mu)
    if t == 0.0:
        a0 = next(iter(block(0, 1))) if spec.p == 0 else 0.0
        return _new(EvalResult, (a0, 0.0, 1, _CONVERGED))

    # blocks of terms, see _SeriesSpec; pw is t^n at the block's first n,
    # and the tail bound at n is env(n+1) |t^n| c
    q = abs(t)
    c = q ** (spec.p + 1) / (1.0 - q)
    pw = 1.0
    cap = get_max_terms()
    env, half = spec.env, 0.5 * tol
    blocks = []
    lo, size = 0, _BLOCK
    while True:
        # were env to keep its value at lo, the tail bound would reach tol/2
        # about k terms on: the block ends there (a term to spare for
        # rounding) unless its doubled size ends first.  This only saves
        # work; the bisection below finds the stop.
        tail = env(lo + 1, mu) * abs(pw) * c
        ratio = half / tail if tail > half else 1.0
        k = math.ceil(math.log(ratio) / math.log(q)) if ratio else cap
        hi = min(lo + size, cap, lo + k + 2)
        powers = list(accumulate(repeat(t, hi - lo - 1), mul, initial=pw))
        tail = env(hi, mu) * abs(powers[-1]) * c
        done = tail <= half
        if done:  # bisection for the first n whose tail bound is <= tol/2
            a, b = lo, hi - 1
            while a < b:
                m = (a + b) // 2
                x = env(m + 1, mu) * abs(powers[m - lo]) * c
                if x <= half:
                    b, tail = m, x
                else:
                    a = m + 1
            hi = b + 1
        # map stops at the block's end, which the bisection may have moved
        blocks.append(map(mul, block(lo, hi), powers))
        if done or hi == cap:
            break
        pw = powers[-1] * t
        lo, size = hi, 2 * size
    value = math.fsum(chain.from_iterable(blocks))
    if spec.p:
        value *= t**spec.p
    bound = tail + _FP_SLACK * (1.0 + abs(value))
    status = _CONVERGED if done and bound <= tol else _MAX_TERMS
    return _new(EvalResult, (value, bound, hi, status))
