"""The near-endpoint rule of sum_series, for 0.99 <= |t| < 1.

With H_n^- = log 2 - (-1)^n c_n, each series without mu (RAMANUJAN_ODD
aside) is an elementary part plus t^p times c-sums: the terms of an
endpoint rule, sign s_n c_n^power / (n + over)^deg from n = start, each
times t^n (the near entries of series_engine._ROWS).  A c-sum is its terms
below N = _TAIL_TERMS plus the tail sum_j A_j L_j, with A_j the endpoint
rules' _expansion of the terms in u = 1/(n+1) through _TAIL_ORDER and
L_j = sum_{n >= N} x^n (n+1)^-j, x = -t if alt else t.  With a = N + 1 and
lam = -log|x| (Erdelyi et al., Higher Transcendental Functions I, 1.11),
for x > 0

    x L_j = sum_{r != j-1} zeta(j-r, a) (-lam)^r/r!
            + (-lam)^(j-1)/(j-1)! (psi(j) - psi(a) - log lam),

and for x < 0, where the alternating sum is entire in lam,

    x L_j = (-1)^a sum_r eta(j-r, a) (-lam)^r/r!,

with zeta(-k, a) = -B_(k+1)(a)/(k+1) and eta(s, a) = 2^-s (zeta(s, a/2) -
zeta(s, (a+1)/2)) as in _eta.  Summed over j against A_j these are two
polynomials in lam, P(lam) - log(lam) Q(lam), or P alone for x < 0 (the
log lam terms of the even and odd halves of the alternating sum cancel).
They are tabled once per c-sum and sign of x, on the first call that needs
them; a call sums N products and runs Horner's rule once or twice.

series_engine imports this module on the first call in the band, so a
process that never reaches it neither compiles nor builds any of it.
"""

from __future__ import annotations

import functools
import math
from itertools import repeat
from operator import mul

from .core_numerics import _BERNOULLI_DEN, _BERNOULLI_NUM
from .result import EvalResult, Status
from .series_engine import (
    _C_ERR, _FP_SLACK, _NEAR_START, _TAIL_ORDER, _TAIL_TERMS, _Rule, _eta,
    _expansion, _hurwitz, _tail, _terms)

_NEAR_ORDER = 16  # powers of lam kept in P; the next 6 bound the rest


def _bernoulli_poly(n: int, p: int, q: int) -> int:
    """q^n B_n(p/q) times _BERNOULLI_DEN, an exact integer."""
    return sum(math.comb(n, k) * _BERNOULLI_NUM[k] * p ** (n - k) * q**k
               for k in range(n + 1))


@functools.cache
def _lerch_values() -> tuple[dict[int, float], dict[int, float]]:
    """zeta(s, a) (s != 1) and eta(s, a), a = _TAIL_TERMS + 1, for every s
    the near tables read; below s = 1 each is an exact rational rounded
    once.  Shared by every c-sum, built on the first near call."""
    a = _TAIL_TERMS + 1
    zeta, eta = {}, {}
    for s in range(2 - _NEAR_ORDER - 6, _TAIL_ORDER + 1):
        if s <= 0:
            n = 1 - s
            zeta[s] = -_bernoulli_poly(n, a, 1) / (n * _BERNOULLI_DEN)
            # 2^-s / 2^n = 1/2
            eta[s] = (_bernoulli_poly(n, a + 1, 2)
                      - _bernoulli_poly(n, a, 2)) / (2 * n * _BERNOULLI_DEN)
        else:
            eta[s] = _eta(s, float(a))
            if s > 1:
                zeta[s] = _hurwitz(s, float(a))
    return zeta, eta


@functools.cache
def _near_table(rule: _Rule, neg: bool) -> tuple:
    """The c-sum of rule, without its sign or const, for x = -t if
    rule.alt else t, x < 0 if neg: (head, dhead, p, q, bound).  head[n] t^n
    is its term n < N and dhead[n] |t|^n that term's |derivative in c_n|;
    p and q are P's and Q's coefficients in -lam, highest power first (q
    empty for x < 0); bound is the _tail model error, a majorant here as
    |x|^n <= 1, plus P's truncation at |t| = _NEAR_START."""
    power, over, deg, _, alt, _, start = rule
    n_end = _TAIL_TERMS
    head, dhead = _terms(power, over, deg, alt, start, n_end)
    head, dhead = [0.0] * start + head, [0.0] * start + dhead
    a = n_end + 1
    coef = _expansion(power, over, deg)[:_TAIL_ORDER + 1]
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
    model = _tail(power, over, deg, False, a)[1]
    return head, dhead, p[_NEAR_ORDER - 1::-1], q[::-1], model + cut


def near_sum(spec, t: float) -> EvalResult:
    """The near-endpoint rule of spec, a series_engine row with a near
    entry, at _NEAR_START <= |t| < 1: N terms of each c-sum plus its tail,
    times the c-sum's sign.  The bound adds each c-sum's table bound,
    _C_ERR times its head's sum of |derivative in c_n| |t|^n, and
    _FP_SLACK times 1 plus the magnitudes of the parts, which may cancel in
    the value: each head, each of P and log(lam) Q over x, and thrice the
    elementary part, whose error is two roundings more than its one call
    (log 2 Li2(t): li2_real's 2.3 ulp)."""
    elementary, rules = spec.near
    y = math.log(abs(t))  # -lam
    log_lam = math.log(-y)
    pw = list(map(pow, repeat(t), range(_TAIL_TERMS)))
    qw = list(map(abs, pw))
    e = elementary(t) if elementary else 0.0
    sums, mass, err = [], 3.0 * abs(e), 0.0
    for rule in rules:
        head_c, dhead, p_c, q_c, bound = _near_table(
            rule, (t < 0.0) != rule.alt)
        head = math.fsum(map(mul, head_c, pw))
        p = 0.0
        for b in p_c:
            p = p * y + b
        q = 0.0
        for b in q_c:
            q = q * y + b
        q *= log_lam
        x = -t if rule.alt else t
        sums.append(rule.sign * (head + (p - q) / x))
        w = abs(rule.sign)
        mass += w * (abs(head) + (abs(p) + abs(q)) / abs(x))
        err += w * (bound + _C_ERR * math.fsum(map(mul, dhead, qw)))
    total = math.fsum(sums)
    value = e + (total * t if spec.p else total)
    bound = err + _FP_SLACK * (1.0 + mass)
    return EvalResult(value, bound, _TAIL_TERMS, Status.CONVERGED)
