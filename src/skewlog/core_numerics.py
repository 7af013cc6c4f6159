"""Harmonic-family prefix sums, reference constants, and half-integer digamma
differences.

Everything downstream (series coefficients, closed forms, the verifier's
discrete identities) consumes these values, so they are computed once into a
compensated prefix cache and treated as exact thereafter.
"""

from __future__ import annotations

import math
import numbers
import threading
from itertools import repeat
from operator import sub

from .errors import DomainError

#: Decimal literals with >= 17 significant digits, never computed at startup.
CONSTANTS: dict[str, float] = {
    "LOG2": 0.69314718055994530942,
    "PI": 3.1415926535897932385,
    "PI_SQ_OVER_6": 1.6449340668482264365,
    "PI_SQ_OVER_12": 0.82246703342411321824,
    "ZETA3": 1.2020569031595942854,
    "CATALAN_G": 0.91596559417721901505,
    "EULER_GAMMA": 0.57721566490153286061,
    "LI2_HALF": 0.58224052646501250590,
    "LI3_HALF": 0.53721319360804020094,
    "LI2_MINUS1": -0.82246703342411321824,
    "LI3_MINUS1": -0.90154267736969571405,
}

LOG2 = CONSTANTS["LOG2"]


def _tangent_numbers(k: int) -> list[int]:
    """T_1, T_3, ..., T_(2k-1) of tan x = sum_j T_(2j-1) x^(2j-1)/(2j-1)!
    (the Knuth-Buckholtz recurrence, in integers)."""
    t = [0] + [math.factorial(j) for j in range(k)]
    for i in range(2, k + 1):
        for j in range(i, k + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return t[1:]


_TANGENT = _tangent_numbers(12)


def _bernoulli_numerators(den: int) -> list[int]:
    """B_0, B_1, ..., B_24 times den, a common denominator of them all:
    B_2k = (-1)^(k-1) 2k T_(2k-1) / (4^k (4^k - 1)), B_1 = -1/2 and the
    other odd B_n are 0."""
    b = [den, -den // 2]
    for k, t in enumerate(_TANGENT, 1):
        b += [(-1) ** (k - 1) * 2 * k * t * den // (4**k * (4**k - 1)), 0]
    return b[:-1]


#: Bernoulli numbers as integers over one denominator, so that coefficients
#: built from them stay exact rationals until one division rounds each.
_BERNOULLI_DEN = math.lcm(*(4**k * (4**k - 1) for k in range(1, 13)))
_BERNOULLI_NUM = _bernoulli_numerators(_BERNOULLI_DEN)
#: B_2, B_4, ..., B_24, each rounded once.
_BERNOULLI = [b / _BERNOULLI_DEN for b in _BERNOULLI_NUM[2::2]]

DEFAULT_CACHE_LIMIT = 1_000_000


class HarmonicCache:
    """Prefix sums H_n, H_n^(2) and the skew variant H_n^-, grown lazily.

    values_h[n], values_h2[n], values_skew[n] hold the sums for index n with
    the 0-th entries equal to 0.  Accumulation is forward with Kahan
    compensation, which keeps every cached prefix within a couple of ulp of
    the exactly rounded sum for n up to the cache limit.  Growth happens
    under a lock; entries already filled are immutable, so concurrent reads
    need no synchronization.
    """

    def __init__(self, limit: int = DEFAULT_CACHE_LIMIT) -> None:
        self.limit = check_int("cache limit", limit, 1)
        self.values_h: list[float] = [0.0]
        self.values_h2: list[float] = [0.0]
        self.values_skew: list[float] = [0.0]
        self._carry = [0.0, 0.0, 0.0]  # Kahan compensations for the 3 sums
        self._lock = threading.Lock()

    def ensure(self, n: int) -> None:
        """Fill the cache through index n, an int in [0, limit], else
        DomainError."""
        check_int("n", n)
        if n > self.limit:
            raise DomainError(
                f"index {n} exceeds the configured cache limit {self.limit}"
            )
        if n < len(self.values_h):
            return
        with self._lock:
            start = len(self.values_h)
            if n < start:
                return
            h, h2, sk = self.values_h, self.values_h2, self.values_skew
            ch, ch2, csk = self._carry
            vh, vh2, vsk = h[-1], h2[-1], sk[-1]
            for k in range(start, n + 1):
                inv = 1.0 / k
                y = inv - ch
                t = vh + y
                ch = (t - vh) - y
                vh = t
                h.append(vh)

                y = inv * inv - ch2
                t = vh2 + y
                ch2 = (t - vh2) - y
                vh2 = t
                h2.append(vh2)

                y = (inv if k % 2 == 1 else -inv) - csk
                t = vsk + y
                csk = (t - vsk) - y
                vsk = t
                sk.append(vsk)
            self._carry = [ch, ch2, csk]

    def h(self, n: int) -> float:
        self.ensure(n)
        return self.values_h[n]

    def h2(self, n: int) -> float:
        self.ensure(n)
        return self.values_h2[n]

    def skew(self, n: int) -> float:
        self.ensure(n)
        return self.values_skew[n]


def check_real(name: str, x, bounds: tuple[float, float] | None = None) -> float:
    """x as a float, for every public entry point that takes a real argument.

    A bool or a non-real value raises DomainError, and so does a value
    outside the closed interval bounds (NaN included) when bounds is given.
    """
    if not isinstance(x, float) and (
        isinstance(x, bool) or not isinstance(x, numbers.Real)
    ):
        raise DomainError(f"{name} must be a real number")
    x = float(x)
    if bounds is not None and not bounds[0] <= x <= bounds[1]:
        raise DomainError(f"{name} must lie in [{bounds[0]:g}, {bounds[1]:g}]")
    return x


def check_int(name: str, n, lo: int | None = 0, hi: int | None = None) -> int:
    """n, for every public entry point that takes an integer argument.  A
    bool, a non-int or a value outside [lo, hi] (None: no bound) raises
    DomainError, whose message names the argument and its range."""
    if (not isinstance(n, int) or isinstance(n, bool)
            or (lo is not None and n < lo) or (hi is not None and n > hi)):
        span = ("" if lo is None else f" >= {lo}" if hi is None
                else f" in [{lo}, {hi}]")
        raise DomainError(f"{name} must be an integer{span}")
    return n


def check_tol(name: str, tol, floor: float = 0.0) -> float:
    """tol as a float, for every public entry point that takes a
    tolerance: a real number, finite and positive, and >= floor when floor
    is positive.  Anything else raises DomainError."""
    if type(tol) is not float:
        tol = check_real(name, tol)
    if not (0.0 < tol < math.inf and tol >= floor):
        if floor:
            raise DomainError(f"{name} must be a finite number >= {floor:g}")
        raise DomainError(f"{name} must be a positive finite number")
    return tol


def check_mu(owner, domain, mu, strict: bool = True) -> float | None:
    """The mu of owner, a series or closed form id with catalog Domain
    domain: None when the domain takes no mu, else a float in
    -1 < mu <= 1.  A missing or an unexpected mu is a ValueError and a bool
    or non-real one a DomainError; a mu out of range (NaN included) raises
    DomainError "<owner> requires <domain>" when strict, else is NaN."""
    if not domain.mu:
        if mu is not None:
            raise ValueError(f"{owner.name} takes no mu")
        return None
    if mu is None:
        raise ValueError(f"{owner.name} requires mu")
    mu = check_real("mu", mu)
    if -1.0 < mu <= 1.0:
        return mu
    if strict:
        raise DomainError(f"{owner.name} requires {domain}")
    return math.nan


_CACHE = HarmonicCache()


# The cache's lists only grow, so these aliases stay valid.  Each accessor
# reads an entry already filled straight from its list; any other input
# (bool, negative, non-int, not yet cached) goes to the cache's checks.
_H, _H2, _SKEW = _CACHE.values_h, _CACHE.values_h2, _CACHE.values_skew


def _skew(lo: int, hi: int) -> list[float]:
    """H_n^- for n = lo, ..., hi-1 (0.0 at n = 0)."""
    if hi > len(_SKEW):
        _CACHE.ensure(hi - 1)
    return _SKEW[lo:hi]


#: Error of each c_n from skew_gaps, n < 40: LOG2's half ulp, the roundings
#: of the 1/k in H_n^- (2^-53 H_n together) and the compensated sum's few ulp.
_C_ERR = 8e-16


def skew_gaps(lo: int, hi: int) -> map:
    """H_n^- - log 2 = -(-1)^n c_n, n = lo, ..., hi-1, with c_n > 0 as in
    c_sums; the sign is exact, c_n >= 1/(2n+2) being far above its error."""
    return map(sub, _skew(lo, hi), repeat(LOG2))


def harmonic(n: int) -> float:
    """H_n = sum_{k=1..n} 1/k, with harmonic(0) = 0."""
    if type(n) is int and 0 <= n < len(_H):
        return _H[n]
    return _CACHE.h(n)


def harmonic2(n: int) -> float:
    """H_n^(2) = sum_{k=1..n} 1/k^2, with harmonic2(0) = 0."""
    if type(n) is int and 0 <= n < len(_H2):
        return _H2[n]
    return _CACHE.h2(n)


def skew_harmonic(n: int) -> float:
    """H_n^- = 1 - 1/2 + ... + (-1)^(n-1)/n, with skew_harmonic(0) = 0."""
    if type(n) is int and 0 <= n < len(_SKEW):
        return _SKEW[n]
    return _CACHE.skew(n)


def odd_harmonic(n: int) -> float:
    """O_n = 1 + 1/3 + ... + 1/(2n-1), via O_n = H_{2n} - H_n/2."""
    check_int("n", n)
    return harmonic(2 * n) - 0.5 * harmonic(n)


def skew_harmonic_mu(n: int, mu: float) -> float:
    """The polynomial sum_{k=1..n} (-mu)^(k-1) / k.

    Defined for n >= 1; reduces to skew_harmonic(n) at mu = 1.  The intended
    parameter range is |mu| < 1 with the endpoints admitted as closure.
    """
    check_int("n", n, 1)
    mu = check_real("mu", mu)
    terms = []
    p = 1.0
    for k in range(1, n + 1):
        terms.append(p / k)
        p *= -mu
    return math.fsum(terms)


def digamma_half_diff(n: int) -> float:
    """psi((n+1)/2) - psi(n/2) for integer n >= 1.

    Uses the exact half-integer recurrences psi(x+1) = psi(x) + 1/x with
    base values psi(1) = -gamma and psi(1/2) = -gamma - 2 log 2; gamma
    cancels in the difference, leaving only harmonic-type sums.
    """
    check_int("n", n, 1)
    if n % 2 == 0:
        m = n // 2
        # psi(m + 1/2) - psi(m)
        return -2.0 * LOG2 + 2.0 * odd_harmonic(m) - harmonic(m - 1)
    m = (n - 1) // 2
    # psi(m + 1) - psi(m + 1/2)
    return harmonic(m) + 2.0 * LOG2 - 2.0 * odd_harmonic(m)
