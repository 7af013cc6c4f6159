"""Real-argument dilogarithm and trilogarithm.

li2 and li3 check -1 <= x <= 1, then call their kernels li2_real and
li3_real, which take any float x <= 1 unchecked (x > 1 is a math domain
error).  The other modules call the kernels on arguments composed from
checked inputs, each at most 1 since rounding is monotone: with x <= 1,
1 + x >= 2x, so fl(1+x) >= 2x and fl(2x/fl(1+x)) <= 1; likewise
mu(1+x)/(1+mu), (1+mu)x/(1+x) and x/(1+x) for -1 < x, mu <= 1.  Below -1
the inversions Li2(x) = -Li2(1/x) - pi^2/6 - log^2(-x)/2 and
Li3(x) = Li3(1/x) - log^3(-x)/6 - (pi^2/6) log(-x) map x into (-1, 0).

On [-1, 1] each zone is one fixed-length Horner polynomial whose
coefficients are exact rationals in the Bernoulli numbers B_n
(B_1 = -1/2), each rounded once:

* li2 on [-1, 1/2): with u = -log(1 - x), so |u| <= log 2,
  Li2 = sum_n B_n u^(n+1)/(n+1)! = u - u^2/4 + u v P(v), v = u^2, where P
  holds B_2k/(2k+1)!, k = 1..9: 9 terms ('t Hooft and Veltman, Nucl.
  Phys. B153 (1979)).  On (1/2, 1) the Euler reflection maps x to 1 - x,
  exact there, whose u is -log x.
* li3 on [-1, 1/2): the same u.  dLi3/du = Li2/(e^u - 1), so Li3 is the
  integrated Cauchy product of the two Bernoulli series:
  sum_(m=0..20) u^(m+1)/(m+1) sum_j B_j B_(m-j)/((j+1)! (m-j)!), 21 terms.
* li3 on (1/2, 1): with mu = log x in (-log 2, 0), Li3 = zeta(3) +
  zeta(2) mu + mu^2 (3/4 - log(-mu)/2) - mu^3/12 + mu^4 Q(mu^2), where Q
  holds zeta(3-k)/k! = -B_(k-2)/((k-2) k!), k = 4, 6, ..., 18: 8 terms
  (Crandall, "Note on fast polylogarithm computation" (2006)).

The truncation is static.  At |u| = log 2 (|mu| = log 2) the first omitted
term is 4.7e-21 for li2, 8.5e-22 for the li3 u-series and 8.2e-22 for the
mu-series, and all the omitted terms together are under 1.13 times the
first, so no zone truncates more than 1e-20.  Horner's rule for
sum_(i=0..n) a_i y^i returns sum (1 + theta_(2i+1)) a_i y^i (theta_2n for
a_n), |theta_k| <= gamma_k = k 2^-53/(1 - k 2^-53) (Higham, Accuracy and
Stability of Numerical Algorithms, 5.1).  Each polynomial is written out as
one expression, c_0 + y (c_1 + y (... + y c_n)), rather than looped over
its list: that is the same recurrence p <- p y + c_i, operation for
operation, so the bound stands and the bits are those of the loop
(tests/test_polylog.py checks them).  At the zone edges that bounds
the rounding of u v P(v) by 3.1e-18, of mu^4 Q by 2.7e-19, and of the
whole li3 u-series by 2.5e-16 (4.7e-16 relative); the rest is the rounding
of u (or mu) and of the few leading terms.  Against a 32-digit reference
(tests/data/reference.json) the worst errors are 1.5 ulp (li2, u-series),
2.3 ulp (li2, reflection), 1.9 ulp (li3, u-series) and 1.4 ulp (li3,
mu-series); below -1, against mpmath at 1,500 log-uniform points down to
-2^53, 1.8 ulp.  x = 0, +-1 and 1/2 return the tabled constants.
"""

from __future__ import annotations

import math

from .core_numerics import (
    _BERNOULLI_DEN as _D, _BERNOULLI_NUM as _B, CONSTANTS, check_real)

_PI_SQ_OVER_6 = CONSTANTS["PI_SQ_OVER_6"]
_ZETA3 = CONSTANTS["ZETA3"]
_F = math.factorial

# Each coefficient is a ratio of integers (_B[n] / _D = B_n) rounded once by
# the division; the lists run in Horner order, highest power first.
_LI2_P = [_B[2 * k] / (_D * _F(2 * k + 1)) for k in range(9, 0, -1)]
# C(m+1, j+1)/(m+1)! = 1/((j+1)! (m-j)!)
_LI3_U = [sum(math.comb(m + 1, j + 1) * _B[j] * _B[m - j]
              for j in range(m + 1)) / (_D * _D * _F(m + 1) * (m + 1))
          for m in range(20, -1, -1)]
_LI3_Q = [-_B[k - 2] / (_D * (k - 2) * _F(k)) for k in range(18, 2, -2)]
# The kernels read the coefficients by name, each name with its index in
# the docstring.  In a written-out polynomial, c + y * (...) is Horner's
# p * y + c, the same two roundings, and the innermost coefficient stands
# for the loop's first step 0.0 * y + c, which is exact.
_P9, _P8, _P7, _P6, _P5, _P4, _P3, _P2, _P1 = _LI2_P
(_U20, _U19, _U18, _U17, _U16, _U15, _U14, _U13, _U12, _U11, _U10,
 _U9, _U8, _U7, _U6, _U5, _U4, _U3, _U2, _U1, _U0) = _LI3_U
_Q18, _Q16, _Q14, _Q12, _Q10, _Q8, _Q6, _Q4 = _LI3_Q
#: The tabled values at 0 (-0.0 too), +-1 and 1/2.
_LI2_AT = {0.0: 0.0, 1.0: _PI_SQ_OVER_6, -1.0: CONSTANTS["LI2_MINUS1"],
           0.5: CONSTANTS["LI2_HALF"]}
_LI3_AT = {0.0: 0.0, 1.0: _ZETA3, -1.0: CONSTANTS["LI3_MINUS1"],
           0.5: CONSTANTS["LI3_HALF"]}


def _li2_u(u: float) -> float:
    """Li2(1 - e^-u) for |u| <= log 2."""
    v = u * u
    p = _P1 + v * (_P2 + v * (_P3 + v * (_P4 + v * (
        _P5 + v * (_P6 + v * (_P7 + v * (_P8 + v * _P9)))))))
    return u - 0.25 * v + u * v * p


def li2_real(x: float) -> float:
    """Li_2(x) for a float x <= 1, unchecked."""
    if x in _LI2_AT:
        return _LI2_AT[x]
    if x < -1.0:
        lx = math.log(-x)
        return -li2_real(1.0 / x) - _PI_SQ_OVER_6 - 0.5 * lx * lx
    if x < 0.5:
        return _li2_u(-math.log1p(-x))
    # Euler reflection; 1 - x in (0, 1/2) is exact and -log x its u
    lx = math.log(x)
    return _PI_SQ_OVER_6 - lx * math.log1p(-x) - _li2_u(-lx)


def li3_real(x: float) -> float:
    """Li_3(x) for a float x <= 1, unchecked."""
    if x in _LI3_AT:
        return _LI3_AT[x]
    if x < -1.0:
        lx = math.log(-x)
        return li3_real(1.0 / x) - lx**3 / 6.0 - _PI_SQ_OVER_6 * lx
    if x < 0.5:
        u = -math.log1p(-x)
        return u * (_U0 + u * (_U1 + u * (_U2 + u * (_U3 + u * (
            _U4 + u * (_U5 + u * (_U6 + u * (_U7 + u * (_U8 + u * (
                _U9 + u * (_U10 + u * (_U11 + u * (_U12 + u * (
                    _U13 + u * (_U14 + u * (_U15 + u * (_U16 + u * (
                        _U17 + u * (_U18 + u * (
                            _U19 + u * _U20))))))))))))))))))))
    mu = math.log(x)
    v = mu * mu
    p = _Q4 + v * (_Q6 + v * (_Q8 + v * (_Q10 + v * (
        _Q12 + v * (_Q14 + v * (_Q16 + v * _Q18))))))
    return _ZETA3 + mu * (_PI_SQ_OVER_6 + mu * (
        0.75 - 0.5 * math.log(-mu) + mu * (-1.0 / 12.0 + mu * p)))


def li2(x: float) -> float:
    """Dilogarithm Li_2(x) for -1 <= x <= 1."""
    return li2_real(check_real("li2 argument", x, (-1.0, 1.0)))


def li3(x: float) -> float:
    """Trilogarithm Li_3(x) for -1 <= x <= 1."""
    return li3_real(check_real("li3 argument", x, (-1.0, 1.0)))
