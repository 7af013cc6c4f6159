"""The forward split of the mu series, which sum_series takes below 0.99.

With s_n = H_n^-(mu)/mu = sum_(k<=n) (-mu)^(k-1)/k, L = log1p(mu) and
l = L/mu (1 at mu = +-0.0), G_n = l - s_n is the tail the partial sum s_n
leaves, and F_n = F_0 - sum_(k<=n) G_k/k, F_0 = sum_k G_k/k = -l L/2, the
tail of the G_k/k.  With x = -t:

    MU_DILOG   L log1p(t) + mu sum_(n>=1) G_n x^n/n
    MU_LEWIN   L (t - log1p(t)) + t mu sum_(n>=1) G_n x^n/(n+1)
    MU_TRILOG  -l (Li2(-t) + log1p(t)^2/2) - F_0 log1p(t)
               - sum_(n>=1) F_n x^n/n

the last from i_n = l H_n - F_0 + F_n.  The interior sum's terms shrink
like |t|^n; these like |mu t|^n, so N, which comes from tol, is about
log(tol)/log|mu t|.  The band 0.99 <= |t| < 1 keeps near_endpoint.mu_split,
the same split with each tail summed backward.

series_engine imports this module on the first mu sum below the band, so
a process that sums no mu series never compiles it: without a bytecode
cache, compiling is part of each process's set-up time and peak memory.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul, truediv

from .core_numerics import CONSTANTS
from .result import EvalResult, Status
from .series_engine import _FP_SLACK, _c_mu


def mu_split(spec, t: float, mu: float, tol: float,
             most: float) -> EvalResult | None:
    """The forward split of spec, a series_engine mu row, at 0 < |t| < 1
    (see the module docstring), or None when it would take more than
    `most` terms.

    With a = |mu|, q = |t| and m = min(1, 1 + mu), |G_n| <= a^n/((n+1) m)
    and |F_n| <= a^(n+1)/((n+1) m), so the terms n > N of each sum add at
    most a (aq)^(N+1)/((N+1)(N+2) m (1 - aq)); N is the first index at
    which that times (N+1)(N+2) is at most tol/2.

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
    lg, big_l = math.log1p(t), math.log1p(mu)
    ell = big_l / mu if mu else 1.0
    c = _c_mu(mu)
    h = 1.0 + math.log(n)  # >= H_N
    sigma = min(h, -math.log1p(-a) / a) if 0.0 < a < 1.0 else h
    e_g = _FP_SLACK * (1.7 * c + 2.25 * sigma)
    s_big = min(-math.log1p(-q), h)
    trunc = a * aq ** (n + 1) / ((n + 1) * (n + 2) * m * (1.0 - aq))
    w = map(truediv, map(pow, repeat(-t), range(1, n + 1)),
            range(1 + over, n + 1 + over))
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
        from .polylog import li2_real  # only MU_TRILOG's split needs Li2
        li = li2_real(-t)
        e = -ell * (li + 0.5 * lg * lg)
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
        e = big_l * (t - lg) if over else big_l * lg
        part = mu * math.fsum(map(mul, gs, w))
        if over:
            part *= t
        value = e + part
        rounding = a * s_big * (e_g + 1.7 * _FP_SLACK * c)
        mass = (2.25 * abs(e) + (0.6 * abs(big_l * lg) if over else 0.0)
                + 2.25 * abs(part))
    bound = trunc + rounding + _FP_SLACK * (1.0 + mass)
    return EvalResult(value, bound, n, Status.CONVERGED)
