"""The near-endpoint rule of sum_series, for 0.99 <= |t| < 1.

With H_n^- = log 2 - (-1)^n c_n, each series without mu is an elementary
part plus t^p times c-sums, the terms sign c_n^power / (n + over)^deg
x^n from n = start, x = -t or t (the near entries of series_engine._ROWS,
which at t = +-1 sums them itself).  RAMANUJAN_ODD's coefficients
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

A c-sum is its terms below N = _TAIL_TERMS plus the tail sum_j A_j L_j,
with A_j the _expansion of c_n^power / (n + over)^deg in u = 1/(n+1)
through _TAIL_ORDER and L_j = sum_{n >= N} x^n (n+1)^-j, x = -t if alt
else t.  With a = N + 1 and lam = -log|x| (Erdelyi et al., Higher
Transcendental Functions I, 1.11), for x > 0

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

The mu series split instead (mu_split).  With L = log1p(mu) and
r_n = int_0^mu x^n/(1+x) dx, H_n^-(mu) = L - (-1)^n r_n, so

    MU_DILOG   = L log1p(t) + sum_(n>=1) r_n t^n/n,
    MU_LEWIN   = L (t - log1p(t)) + t sum_(n>=1) r_n t^n/(n+1),
    MU_TRILOG  = (-L (Li2(-t) + log1p(t)^2/2) - R log1p(t)
                  + sum_(n>=1) (-1)^(n-1) rho_n t^n/n) / mu,

the last from mu i_n = L H_n - R + rho_n, with R = sum_k (-1)^k r_k/k
and rho_n its tail beyond n.  |r_n| <= |mu|^(n+1)/((n+1) min(1, 1+mu)),
so the sums' terms shrink like |mu t|^n.  The r_n come from the backward
recurrence r_(n-1) = mu^n/n - r_n seeded with r_N = 0.  The seed's error
-r_N reaches every r_n, n < N, at full size (with alternating sign), so N
must come from that bound on |r_N|, not from the rate |mu t| of the terms:
at mu = 0.999, t = 0.99 the latter leaves each r_n off by ~1e-5.

series_engine imports this module on the first call in the band, so a
process that never reaches it neither compiles nor builds any of it.
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate, repeat
from operator import mul, truediv

from .core_numerics import _BERNOULLI_DEN, _BERNOULLI_NUM
from .polylog import li2_real
from .result import EvalResult
from .series_engine import (
    _C_ERR, _CONVERGED, _FP_SLACK, _NEAR_START, _TAIL_ORDER, _TAIL_TERMS,
    _Rule, _eta, _expansion, _hurwitz, _new, _tail, _terms)

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
    """The c-sum of rule, without its sign, for x = -t if
    rule.alt else t, x < 0 if neg: (head, dhead, p, q, bound).  head[n] t^n
    is its term n < N and dhead[n] |t|^n that term's |derivative in c_n|;
    p and q are P's and Q's coefficients in -lam, highest power first (q
    empty for x < 0); bound is the _tail model error, a majorant here as
    |x|^n <= 1, plus P's truncation at |t| = _NEAR_START."""
    power, over, deg, _, alt, start = rule
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
    (log 2 Li2(t): li2_real's 2.3 ulp), or the rounding its entry names."""
    elementary, rules, rounding = (*spec.near, 3.0)[:3]
    y = math.log(abs(t))  # -lam
    log_lam = math.log(-y)
    pw = list(map(pow, repeat(t), range(_TAIL_TERMS)))
    qw = list(map(abs, pw))
    e = elementary(t) if elementary else 0.0
    sums, mass, err = [], rounding * abs(e), 0.0
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
    return _new(EvalResult, (value, bound, _TAIL_TERMS, _CONVERGED))


#: The mu split's sums stop at the N where the seed error a^N/((N+1) m) of
#: its backward recurrence falls to about this; each r_n, n < N, carries
#: that error at full size, so N comes from |mu|, not from |mu t|.
_SEED_ERR = 2.0**-60


def mu_split(spec, t: float, mu: float, most: float) -> EvalResult | None:
    """The split of a mu series at _NEAR_START <= |t| < 1, -1 < mu < 1 (see
    the module docstring), or None when it would take `most` terms or more.

    With a = |mu|, m = min(1, 1 + mu) and x = -t, it writes
    r_n = (-1)^n mu G_n, G_n = sum_(k>n) (-mu)^(k-1)/k, and
    rho_n = mu F_n, F_n = sum_(k>n) G_k/k:

        MU_DILOG   L log1p(t) + mu sum_(n>=1) G_n x^n/n
        MU_LEWIN   L (t - log1p(t)) + t mu sum_(n>=1) G_n x^n/(n+1)
        MU_TRILOG  -(L/mu)(Li2(-t) + log1p(t)^2/2) - F_0 log1p(t)
                   - sum_(n>=1) F_n x^n/n

    (L/mu = 1 at mu = +-0.0).  The G_n are suffix sums of the terms
    k <= N, which is the backward recurrence seeded with r_N = 0: each is
    off by the same omitted sum, at most s = a^N/((N+1) m), and N is where
    s is about _SEED_ERR.  The bound adds the seed error (s H_(N-1) in
    each F_n, with the omitted G_k/k, k >= N), the omitted terms n >= N
    (geometric in a|t|), and _FP_SLACK times 1 plus the parts, which may
    cancel in the value: the elementary part, counted for each of its
    roundings (li2_real's 2.3 ulp), the sums, and majorants of what the
    suffix sums' roundings add up to (each G_n within (2 + 1/m)/(1 - a)
    units of a^n/(n+1))."""
    over, inner = spec.near
    a = abs(mu)
    if a >= 1.0:
        return None
    m = min(1.0, 1.0 + mu)
    n_end = 2
    if a:  # a^N ~ _SEED_ERR m (N+1), with N+1 taken from a first guess
        la = math.log(a)
        guess = math.log(_SEED_ERR * m) / la
        n_end = max(n_end, math.ceil(guess + math.log1p(guess) / la))
    if n_end >= most:
        return None
    # G_n, n = 1..N-1: suffix sums of (-mu)^(k-1)/k, k = N down to 2
    g = list(accumulate(map(truediv, map(pow, repeat(-mu), range(
        n_end - 1, 0, -1)), range(n_end, 1, -1))))[::-1]
    # x^n/(n + over), n = 1..N-1
    w = list(map(truediv, map(pow, repeat(-t), range(1, n_end)),
                 range(1 + over, n_end + over)))
    lg = math.log1p(t)
    h = 1.0 + math.log(n_end)  # >= H_(N-1) >= sum_n |x^n/(n + over)|
    s = a**n_end / ((n_end + 1) * m)
    aq = a * abs(t)
    # the G_n's roundings, in units of a^n/(n+1)
    k1 = (2.0 + 1.0 / m) / (1.0 - a)
    if inner:
        # F_n, n = 0..N-2: suffix sums of G_k/k, k = N-1 down to 1
        f = list(accumulate(map(truediv, reversed(g), range(
            n_end - 1, 0, -1))))[::-1]
        lmu = math.log1p(mu) / mu if mu else 1.0
        li = li2_real(-t)
        e = -lmu * (li + 0.5 * lg * lg)
        f0 = -f[0] * lg
        tail = math.fsum(map(mul, f[1:], w))
        value = e + f0 - tail
        # the omitted G_k/k, k >= N, shift every F_n as the seed does
        shift = s * h + a**n_end / (n_end * (n_end + 1) * m * (1.0 - a))
        err = (shift * (abs(lg) + h)
               + a**n_end * abs(t) ** (n_end - 1)
               / ((n_end - 1) * n_end * (n_end + 1) * m * (1.0 - a)
                  * (1.0 - aq)))
        # the F_n's roundings, in units of a^(n+1)/(n+1)
        k3 = k1 + 1.0 / (m * (1.0 - a))
        rounding = a * (k3 * (abs(lg) + a) + (2.0 * abs(lg) + 3.0) / m)
        mass = (4.0 * abs(lmu) * (abs(li) + 0.5 * lg * lg) + abs(f0)
                + abs(tail) + rounding)
    else:
        lmu = math.log1p(mu)
        e = lmu * (t - lg) if over else lmu * lg
        part = mu * math.fsum(map(mul, g, w))
        if over:
            part *= t
        value = e + part
        err = a * (s * h + aq**n_end
                   / (n_end * (n_end + 1) * m * (1.0 - aq)))
        mass = (2.0 * abs(e) + (abs(lmu * lg) if over else 0.0) + abs(part)
                + a * a * (k1 + 3.0 / m))
    bound = err + _FP_SLACK * (1.0 + mass)
    return _new(EvalResult, (value, bound, n_end, _CONVERGED))
