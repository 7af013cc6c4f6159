"""The c-sums, in which sum_series sums every series without mu near t = +-1.

With c_n = (-1)^n (log 2 - H_n^-) = integral_0^1 x^n/(1+x) dx > 0, how far
the skew-harmonic numbers still are from log 2, H_n^- = log 2 - (-1)^n c_n
(c_n comes from core_numerics.skew_gaps, with its error _C_ERR),
and each series without mu is an elementary part plus t^p times c-sums,
the terms sign c_n^power / (n + over)^deg x^n from n = start, x = -t or t
(the near entries of series_engine._ROWS).  RAMANUJAN_ODD's coefficients
2 O_m/n, n = 2m - 1, hold log n / n, but O_m = H_2m - H_m/2 =
H_m/2 + H_2m^-, with H_2m^- = log 2 - c_2m and c_2m = 1/(n+1) - c_n,
makes them (H_m + 2 log 2 - 2/(n+1) + 2 c_n)/n.  The odd powers of the
first three sum in closed form, and 2 sum_odd c_n t^n/n is
sum c_n t^n/n - sum c_n (-t)^n/n, so with s = |t| and v = (1-s)/2

    f(t) = sign(t) (atanh(s)^2 + pi^2/12 - Li2(v) - log^2(1-v)/2)
           + sum_(n>=1) c_n t^n/n - sum_(n>=1) c_n (-t)^n/n,

the Li2((1+s)/2) of the plain sum reflected, as f is odd, so that only
v, exact for s >= 1/2, reaches li2_real.  Its rounding: with each log
within 1 ulp, a = atanh(s) = (log1p(-v) - log v)/2 is within 3u
(u = 2^-53; -log v >= 5.29 in the band), a^2 within 7u, and with the
other terms (at most 0.0052 together) and three additions the part is
within 10.1u of itself, under the 6 _FP_SLACK its near entry charges.

A c-sum is its terms below N = _TAIL_TERMS plus the tail beyond them,
from the asymptotic expansion of c_n in u = 1/(n+1).  c_n is the Laplace
transform of 1/(1+e^-s) = 1/2 + tanh(s/2)/2 at n+1, so

    c_n ~ u/2 + sum_k (4^k - 1) B_2k/(2k) u^2k = u/2 + u^2/4 - u^4/8 + ...

where (4^k - 1) B_2k/(2k) = (-1)^(k-1) T_(2k-1) / 4^k with the integer
tangent numbers T, exact in binary.  A term c_n^power / (n + over)^deg is
that expansion multiplied out (_expansion), A_j through u^_TAIL_ORDER.

In the band 0.99 <= |t| < 1 and at an end t = +-1 alike (near_sum), the
tail is sum_j A_j L_j, L_j = sum_(n>=N) x^n (n+1)^-j.  With a = N + 1 and
lam = -log|x| (Erdelyi et al., Higher Transcendental Functions I, 1.11),
for x > 0

    x L_j = sum_{r != j-1} zeta(j-r, a) (-lam)^r/r!
            + (-lam)^(j-1)/(j-1)! (psi(j) - psi(a) - log lam),

and for x < 0, where the alternating sum is entire in lam,

    x L_j = (-1)^a sum_r eta(j-r, a) (-lam)^r/r!,

with eta(s, a) = 2^-s (zeta(s, a/2) - zeta(s, (a+1)/2)) as in _eta, both
exact rationals at s <= 0 (_lerch_values).  Summed over j against A_j
these are two polynomials in lam, P(lam) - log(lam) Q(lam), or P alone for
x < 0 (the log lam terms of the even and odd halves of the alternating sum
cancel).  They are tabled once per c-sum and sign of x, on the first call
that needs them; a call sums N products and runs Horner's rule once or
twice.  At an end lam = 0: P(0) is sum_(j>=2) A_j zeta(j, a), or for x < 0
(-1)^a sum_j A_j eta(j, a), and Q(0) = A_1 is 0 for every c-sum with x > 0
that an end admits (its terms are O(u^2), or the sum would diverge), so
the log lam term drops.

series_engine imports this module on the first call at an end or in the
band, so a process that sums only interior series never compiles it; that
call builds the Lerch values every c-sum shares.  It imports no polylog:
the elementary parts that need Li2 are series_engine's.
"""

from __future__ import annotations

import functools
import math
from itertools import repeat
from operator import mul

from .core_numerics import (
    _BERNOULLI, _BERNOULLI_DEN, _BERNOULLI_NUM, _C_ERR, _TANGENT, skew_gaps)
from .result import EvalResult
from .series_engine import _CONVERGED, _FP_SLACK, _NEAR_START, _new

_TAIL_TERMS = 32             # terms summed before the tail takes over
_TAIL_ORDER = 12             # highest power of u the tail keeps
_TAIL_DEG = _TAIL_ORDER + 2  # the two omitted powers bound the model error
_NEAR_ORDER = 16  # powers of lam kept in P; the next 6 bound the rest


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
    s = 1, where zeta(1, x/2) ~ -log(x/2); at x = 33 its rounding is
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


def _terms(power: int, over: int | None, deg: int, alt: bool, lo: int,
           hi: int) -> tuple[list[float], list[float]]:
    """The terms s_n c_n^power / (n + over)^deg (no divisor for over None),
    s_n = (-1)^n if alt else 1, for n = lo, ..., hi-1, and the |derivative
    in c_n| of each."""
    terms, dterms = [], []
    for n, c in zip(range(lo, hi), map(abs, skew_gaps(lo, hi))):
        x = c**power if over is None else c**power / (n + over) ** deg
        terms.append(-x if alt and n % 2 else x)
        dterms.append(power * x / c)
    return terms, dterms


@functools.cache
def _lerch_values() -> tuple[dict[int, float], dict[int, float]]:
    """zeta(s, a) (s != 1) and eta(s, a), a = _TAIL_TERMS + 1, for every s
    the near tables read.  At s = -k <= 0 each is an exact rational rounded
    once: with b = B+_(k+1) = (-1)^(k+1) B_(k+1) (B+_1 = +1/2),
    zeta(-k, a) = -b/(k+1) - sum_(j<a) j^k and eta(-k, a) =
    (-1)^(a-1) ((2^(k+1) - 1) b/(k+1) - sum_(j<a) (-1)^(j-1) j^k).  Shared
    by every c-sum, built on the first call at an end or in the band."""
    a = _TAIL_TERMS + 1
    zeta, eta = {}, {}
    for s in range(2 - _NEAR_ORDER - 6, _TAIL_DEG + 1):
        if s <= 0:
            k = -s
            b = (-1) ** (k + 1) * _BERNOULLI_NUM[k + 1]
            den = (k + 1) * _BERNOULLI_DEN
            powers = [j**k for j in range(1, a)]
            alt = sum(powers[::2]) - sum(powers[1::2])
            zeta[s] = (-b - den * sum(powers)) / den
            eta[s] = (-1) ** (a - 1) * ((2**(k + 1) - 1) * b - den * alt) / den
        else:
            if s <= _TAIL_ORDER:
                eta[s] = _eta(s, float(a))
            if s > 1:
                zeta[s] = _hurwitz(s, float(a))
    return zeta, eta


@functools.cache
def _near_table(rule, neg: bool) -> tuple:
    """The c-sum of rule, a series_engine._Rule, without its sign, for
    x = -t if rule.alt else t, x < 0 if neg: (head, dhead, p, q, bound).
    head[n] t^n is its term n < N and dhead[n] |t|^n that term's
    |derivative in c_n|; p and q are P's and Q's coefficients in -lam,
    highest power first (q empty for x < 0); bound is the model error,
    twice the expansion's two omitted powers summed against zeta(j, a)
    without signs, a majorant here as |x|^n <= 1, plus P's truncation at
    |t| = _NEAR_START."""
    power, over, deg, _, alt, start = rule
    n_end = _TAIL_TERMS
    head, dhead = _terms(power, over, deg, alt, start, n_end)
    head, dhead = [0.0] * start + head, [0.0] * start + dhead
    a = n_end + 1
    coef = _expansion(power, over, deg)
    zeta, eta = _lerch_values()
    fact = math.factorial
    js = range(1, _TAIL_ORDER + 1)
    p, q = [], []
    if neg:
        sign = -1.0 if a % 2 else 1.0  # (-1)^a
        for r in range(_NEAR_ORDER + 6):
            p.append(sign * math.fsum(coef[j] * eta[j - r] for j in js)
                     / fact(r))
    else:
        # psi(r+1) - psi(a) = H_r - H_(a-1), an exact rational
        den = math.lcm(*range(1, a))
        for r in range(_NEAR_ORDER + 6):
            terms = [coef[j] * zeta[j - r] for j in js if j != r + 1]
            if r < _TAIL_ORDER:
                dpsi = -sum(den // k for k in range(r + 1, a)) / den
                terms.append(coef[r + 1] * dpsi)
                q.append(coef[r + 1] / fact(r))
            p.append(math.fsum(terms) / fact(r))
    lam = -math.log(_NEAR_START)
    cut = 2.0 * math.fsum(abs(b) * lam**r
                          for r, b in enumerate(p) if r >= _NEAR_ORDER)
    model = 2.0 * math.fsum(abs(coef[j] * zeta[j])
                            for j in range(_TAIL_ORDER + 1, _TAIL_DEG + 1))
    return head, dhead, p[_NEAR_ORDER - 1::-1], q[::-1], model + cut


def near_sum(spec, t: float) -> EvalResult:
    """The near-endpoint rule of spec, a series_engine row with a near
    entry, at _NEAR_START <= |t| < 1 or at an end t = +-1 its domain
    admits: N terms of each c-sum plus its tail, times the c-sum's sign.
    At an end, lam = 0: P is its constant term, and the log(lam) Q term
    drops, as Q(0) = A_1 = 0 for every c-sum with x > 0 there; one
    math.fsum then adds the elementary part and every term and tail, each
    times sign t^p, which is +-1 (so exact).  The bound adds each c-sum's
    table bound, _C_ERR times its head's sum of |derivative in c_n| |t|^n,
    and _FP_SLACK times 1 plus the magnitudes of the parts, which may
    cancel in the value: each head, each of P and log(lam) Q over x, and
    thrice the elementary part, whose error is two roundings more than its
    one call (log 2 Li2(t): li2_real's 2.3 ulp), or the rounding its entry
    names."""
    elementary, rules, rounding = (*spec.near, 3.0)[:3]
    y = math.log(abs(t))  # -lam, 0.0 at an end
    log_lam = math.log(-y) if y else 0.0
    pw = list(map(pow, repeat(t), range(_TAIL_TERMS)))
    qw = list(map(abs, pw))
    e = elementary(t) if elementary else 0.0
    sums, mass, err = [] if y else [e], rounding * abs(e), 0.0
    for rule in rules:
        head_c, dhead, p_c, q_c, bound = _near_table(
            rule, (t < 0.0) != rule.alt)
        terms = map(mul, head_c, pw) if y else list(map(mul, head_c, pw))
        head = math.fsum(terms)
        p = 0.0
        for b in p_c:
            p = p * y + b
        q = 0.0
        for b in q_c:
            q = q * y + b
        q *= log_lam
        x = -t if rule.alt else t
        tail = (p - q) / x
        if y:
            sums.append(rule.sign * (head + tail))
        else:
            sign = rule.sign * t**spec.p
            sums += [sign * z for z in terms]
            sums.append(sign * tail)
        w = abs(rule.sign)
        mass += w * (abs(head) + (abs(p) + abs(q)) / abs(x))
        err += w * (bound + _C_ERR * math.fsum(map(mul, dhead, qw)))
    total = math.fsum(sums)
    value = e + (total * t if spec.p else total) if y else total
    bound = err + _FP_SLACK * (1.0 + mass)
    return _new(EvalResult, (value, bound, _TAIL_TERMS, _CONVERGED))
