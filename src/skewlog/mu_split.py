"""The splits in which sum_series sums the mu series: forward below
|t| = 0.99, backward in the band 0.99 <= |t| < 1.

With L = log1p(mu), l = L/mu (1 at mu = +-0.0) and
s_n = H_n^-(mu)/mu = sum_(k<=n) (-mu)^(k-1)/k, the partial sums of l,
G_n = l - s_n = sum_(k>n) (-mu)^(k-1)/k is the tail the partial sum s_n
leaves, and F_n = sum_(k>n) G_k/k, F_0 = -l L/2, the tail of the G_k/k.
With x = -t:

    MU_DILOG   L log1p(t) + mu sum_(n>=1) G_n x^n/n
    MU_LEWIN   L (t - log1p(t)) + t mu sum_(n>=1) G_n x^n/(n+1)
    MU_TRILOG  -l (Li2(-t) + log1p(t)^2/2) - F_0 log1p(t)
               - sum_(n>=1) F_n x^n/n

the last from i_n = l H_n - F_0 + F_n.  With r_n = int_0^mu x^n/(1+x) dx =
(-1)^n mu G_n, H_n^-(mu) = L - (-1)^n r_n, the form backward runs in.
With a = |mu| and m = min(1, 1 + mu), |G_n| <= a^n/((n+1) m) and
|F_n| <= a^(n+1)/((n+1) m), so the sums' terms shrink like |mu t|^n, where
the interior sum's shrink like |t|^n.  The two splits differ in how they
form the G_n:

* forward (0 < |t| < 0.99): the s_n run the interior sum's Kahan
  recurrence, G_n = l - s_n, and N comes from tol, about
  log(tol)/log|mu t|;
* backward (the band): the G_n are suffix sums of the terms k <= N, which
  is the backward recurrence r_(n-1) = mu^n/n - r_n seeded with r_N = 0.
  The seed's error -r_N reaches every r_n, n < N, at full size (with
  alternating sign), so N must come from the bound on |r_N|, not from the
  rate |mu t| of the terms: at mu = 0.999, t = 0.99 the latter leaves each
  r_n off by ~1e-5.

series_engine imports this module on the first mu sum that may split, so
a process that sums no mu series never compiles it: without a bytecode
cache, compiling is part of each process's set-up time and peak memory.
Only MU_TRILOG's elementary part loads polylog.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import accumulate, repeat
from operator import mul, truediv

from .core_numerics import CONSTANTS
from .result import EvalResult
from .series_engine import _CONVERGED, _FP_SLACK, _c_mu, _new

#: The backward split's sums stop at the N where the seed error
#: a^N/((N+1) m) of its recurrence falls to about this; each r_n, n < N,
#: carries that error at full size, so N comes from |mu|, not from |mu t|.
_SEED_ERR = 2.0**-60


def _elementary(t: float, mu: float, over: int, inner: bool) -> tuple:
    """(log1p(t), L, l, Li2(-t) or None without inner, e): the logs both
    splits share and the elementary part e of the series (see the module
    docstring)."""
    lg, big_l = math.log1p(t), math.log1p(mu)
    ell = big_l / mu if mu else 1.0
    if inner:
        from .polylog import li2_real  # only MU_TRILOG's split needs Li2
        li = li2_real(-t)
        return lg, big_l, ell, li, -ell * (li + 0.5 * lg * lg)
    return lg, big_l, ell, None, big_l * (t - lg) if over else big_l * lg


def _weights(t: float, over: int, n: int) -> Iterable[float]:
    """x^k/(k + over), k = 1..n, x = -t."""
    return map(truediv, map(pow, repeat(-t), range(1, n + 1)),
               range(1 + over, n + 1 + over))


def _g_sum(t: float, mu: float, over: int, e: float, g: Iterable[float],
           w: Iterable[float]) -> tuple[float, float]:
    """MU_DILOG's or MU_LEWIN's value e + part and its part
    (t) mu sum G_n w_n."""
    part = mu * math.fsum(map(mul, g, w))
    if over:
        part *= t
    return e + part, part


def forward(spec, t: float, mu: float, tol: float,
            most: float) -> EvalResult | None:
    """The forward split of spec, a series_engine mu row, at 0 < |t| < 1,
    or None when it would take more than `most` terms.

    With q = |t|, the terms n > N of each sum add at most
    a (aq)^(N+1)/((N+1)(N+2) m (1 - aq)); N is the first index at which
    that times (N+1)(N+2) is at most tol/2.

    Rounding, in u = 2^-53 < _FP_SLACK/1.8, a function within k ulp taken
    as within k u (log1p and pow 1, li2_real 2.3), as elsewhere here.  The
    s_n run series_engine._mu_rule's Kahan recurrence, but with each power
    by pow, so each G_n is within e_G = u (3 c + 4 sigma): c = _c_mu(mu)
    bounds |l|, |s_n| and |G_n|, and sigma = min(H_N, -log1p(-a)/a) the
    sum of |terms|.  The F_n, a Kahan sum of the G_k/k from F_0 (within
    4 u), are within e_G H_n + e_F, e_F = u (9 |F_0| + 3 a), as
    sum_k |G_k|/k <= |F_0| + a.  Through the weights |x^n|/(n + over),
    n <= N, these add at most a e_G S (the G_n) and e_G W + e_F S (the
    F_n), with S = min(-log1p(-q), H_N) >= sum_(n<=N) q^n/n and
    W = zeta(2) + S^2/2 >= sum_(n<=N) H_n q^n/n; each product's three
    roundings add 3 u of its size, at most c |x^n|/(n + over) for the G_n.
    The rest is _FP_SLACK times 1 plus the parts, which may cancel in the
    value, each counted for its roundings.
    """
    over, inner = spec.near
    a, q = abs(mu), abs(t)
    aq, m = a * q, min(1.0, 1.0 + mu)
    n = 1
    if aq:  # (aq)^(N+1) <= tol m (1 - aq)/(2a)
        g = ((math.log(tol) + math.log(m) + math.log1p(-aq)
              - math.log(2.0 * a)) / math.log(aq))
        n = max(n, math.ceil(g) - 1)
    if n > most:
        return None
    lg, big_l, ell, li, e = _elementary(t, mu, over, inner)
    c = _c_mu(mu)
    h = 1.0 + math.log(n)  # >= H_N
    sigma = min(h, -math.log1p(-a) / a) if 0.0 < a < 1.0 else h
    e_g = _FP_SLACK * (1.7 * c + 2.25 * sigma)
    s_big = min(-math.log1p(-q), h)
    trunc = a * aq ** (n + 1) / ((n + 1) * (n + 2) * m * (1.0 - aq))
    w = _weights(t, over, n)
    s = cs = 0.0
    neg = -mu
    # the s_n recurrence is written twice, as in _mu_rule
    if inner:
        f0 = -0.5 * ell * big_l
        fr, cf, fs = f0, 0.0, []
        for k in range(1, n + 1):
            y = neg ** (k - 1) / k - cs
            x = s + y
            cs = (x - s) - y
            s = x
            y = (s - ell) / k - cf
            x = fr + y
            cf = (x - fr) - y
            fr = x
            fs.append(fr)
        head = -f0 * lg
        terms = list(map(mul, fs, w))
        tail = math.fsum(terms)
        value = math.fsum((e, head, -tail))
        rounding = (e_g * (CONSTANTS["PI_SQ_OVER_6"] + 0.5 * s_big * s_big)
                    + _FP_SLACK * ((5.0 * abs(f0) + 1.7 * a) * s_big
                                   + 1.7 * math.fsum(map(abs, terms))))
        mass = (4.5 * abs(ell) * (abs(li) + 0.5 * lg * lg) + 4.0 * abs(head)
                + 1.2 * abs(tail))
    else:
        gs = []
        for k in range(1, n + 1):
            y = neg ** (k - 1) / k - cs
            x = s + y
            cs = (x - s) - y
            s = x
            gs.append(ell - s)
        value, part = _g_sum(t, mu, over, e, gs, w)
        rounding = a * s_big * (e_g + 1.7 * _FP_SLACK * c)
        mass = (2.25 * abs(e) + (0.6 * abs(big_l * lg) if over else 0.0)
                + 2.25 * abs(part))
    bound = trunc + rounding + _FP_SLACK * (1.0 + mass)
    return _new(EvalResult, (value, bound, n, _CONVERGED))


def backward(spec, t: float, mu: float, most: float) -> EvalResult | None:
    """The backward split of spec, a series_engine mu row, at
    0.99 <= |t| < 1, -1 < mu < 1, or None when it would take `most` terms
    or more.

    Each G_n, a suffix sum of the terms k <= N, is off by the same omitted
    sum, at most s = a^N/((N+1) m), and N is where s is about _SEED_ERR.
    The bound adds the seed error (s H_(N-1) in each F_n, with the omitted
    G_k/k, k >= N), the omitted terms n >= N (geometric in a|t|), and
    _FP_SLACK times 1 plus the parts, which may cancel in the value: the
    elementary part, counted for each of its roundings (li2_real's
    2.3 ulp), the sums, and majorants of what the suffix sums' roundings
    add up to (each G_n within (2 + 1/m)/(1 - a) units of a^n/(n+1))."""
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
    w = _weights(t, over, n_end - 1)
    lg, big_l, ell, li, e = _elementary(t, mu, over, inner)
    h = 1.0 + math.log(n_end)  # >= H_(N-1) >= sum_n |x^n/(n + over)|
    s = a**n_end / ((n_end + 1) * m)
    aq = a * abs(t)
    # the G_n's roundings, in units of a^n/(n+1)
    k1 = (2.0 + 1.0 / m) / (1.0 - a)
    if inner:
        # F_n, n = 0..N-2: suffix sums of G_k/k, k = N-1 down to 1
        f = list(accumulate(map(truediv, reversed(g), range(
            n_end - 1, 0, -1))))[::-1]
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
        mass = (4.0 * abs(ell) * (abs(li) + 0.5 * lg * lg) + abs(f0)
                + abs(tail) + rounding)
    else:
        value, part = _g_sum(t, mu, over, e, g, w)
        err = a * (s * h + aq**n_end
                   / (n_end * (n_end + 1) * m * (1.0 - aq)))
        mass = (2.0 * abs(e) + (abs(big_l * lg) if over else 0.0)
                + abs(part) + a * a * (k1 + 3.0 / m))
    bound = err + _FP_SLACK * (1.0 + mass)
    return _new(EvalResult, (value, bound, n_end, _CONVERGED))
