"""Adaptive quadrature for the double-integral representations.

1D: Gauss-Kronrod 7/15 under worst-interval bisection.  All nodes are
interior, so integrable endpoint singularities never get sampled; adaptivity
grades panels toward them.

2D: each double integral has the form F(xy) / ((1+x)(1+y)) over the unit
square.  With p = xy the x-integral is done exactly, and the double integral
is one 1D integral against a shared kernel,

    F(0) log^2 2 + int_0^1 (F(p) - F(0)) K(p) dp,
    K(p) = int_p^1 dx / ((1+x)(x+p)) = (2 log((1+p)/2) - log p) / (1 - p),

taken by the 1D rule in p = u^3.  Subtracting F(0) turns the log p end of
K into p log p.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple

from .core_numerics import check_real
from .errors import DomainError
from .result import EvalResult, Status


class QuadratureConfig(namedtuple("QuadratureConfig",
                                  "abs_tol rel_tol max_subdivisions")):
    """Targets of one quadrature call.  abs_tol and rel_tol are checked
    like sum_series's tol (any real, stored as a float) and must be finite
    and >= 1e-15; max_subdivisions must be an int in [1, 1e6]."""

    __slots__ = ()

    def __new__(cls, abs_tol: float = 1e-10, rel_tol: float = 1e-12,
                max_subdivisions: int = 4000):
        tols = []
        for name, tol in (("abs_tol", abs_tol), ("rel_tol", rel_tol)):
            tol = check_real(name, tol)
            if not (tol >= 1e-15 and math.isfinite(tol)):
                raise ValueError(f"{name} must be a finite number >= 1e-15")
            tols.append(tol)
        if not (
            isinstance(max_subdivisions, int)
            and not isinstance(max_subdivisions, bool)
            and 1 <= max_subdivisions <= 1_000_000
        ):
            raise ValueError("max_subdivisions must be an int in [1, 1e6]")
        return super().__new__(cls, *tols, max_subdivisions)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: validate there too
        return cls(*iterable)


_DEFAULT_CFG = QuadratureConfig()

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1] (positive half; the rule
# is symmetric).  Gauss weights apply to the odd-indexed Kronrod nodes.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """15-point Kronrod value and |K15 - G7| error estimate on [a, b]."""
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    fc = f(c)
    k = _WGK[7] * fc
    g = _WG[3] * fc
    for i in range(7):
        x = h * _XGK[i]
        s = f(c - x) + f(c + x)
        k += _WGK[i] * s
        if i % 2 == 1:
            g += _WG[i // 2] * s
    return h * k, abs(h * (k - g))


def _add_exact(partials: list[float], x: float) -> None:
    """Add x to partials, non-overlapping floats whose exact sum is a running
    total (Shewchuk 1997, as inside math.fsum)."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def integrate_1d(f, a: float, b: float, cfg: QuadratureConfig | None = None) -> EvalResult:
    """Oriented adaptive integral of f from a to b.

    The panel with the largest error estimate is bisected until twice the
    summed estimates is within half the target, or after
    cfg.max_subdivisions bisections.  A panel narrower than 1e-14 times the
    scale of the limits is frozen instead of bisected.  The totals are kept
    as exact running partials, so each equals the fsum of its panels.
    """
    a, b = check_real("a", a), check_real("b", b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration limits must be finite")
    if a == b:
        return EvalResult(0.0, 0.0, 0, Status.CONVERGED)
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    cfg = cfg or _DEFAULT_CFG
    narrow = 1e-14 * max(abs(a), abs(b), 1.0)
    v, e = _gk15(f, a, b)
    heap = [(-e, 0, a, b, v)]
    vals, errs = [v], [e]
    evals = 15
    splits = 0
    while splits < cfg.max_subdivisions and heap:
        target = max(cfg.abs_tol, cfg.rel_tol * abs(math.fsum(vals)))
        if 2.0 * math.fsum(errs) <= 0.5 * target:
            break
        neg_e, _, pa, pb, pv = heapq.heappop(heap)
        if pb - pa < narrow:
            continue  # frozen: its value and error stay in the totals
        _add_exact(vals, -pv)
        _add_exact(errs, neg_e)
        m = 0.5 * (pa + pb)
        for ca, cb in ((pa, m), (m, pb)):
            cv, ce = _gk15(f, ca, cb)
            _add_exact(vals, cv)
            _add_exact(errs, ce)
            evals += 15
            # evals is unique per panel, so ties go in insertion order
            heapq.heappush(heap, (-ce, evals, ca, cb, cv))
        splits += 1

    value = math.fsum(vals)
    bound = 2.0 * math.fsum(errs) + 1e-16 * (1.0 + abs(value))
    target = max(cfg.abs_tol, cfg.rel_tol * abs(value))
    status = Status.CONVERGED if bound <= target else Status.MAX_TERMS
    return EvalResult(sign * value, bound, evals, status)


# log^2 2, correctly rounded
_LOG2_SQ = 0.48045301391820144


def _kernel(p: float) -> float:
    """K(p) in s = 1 - p, exact for p >= 1/2 by Sterbenz; below s = 1e-3
    its series sum_k (1 - 2^(1-k))/k s^(k-1), k = 2..6."""
    s = 1.0 - p
    if s < 1e-3:
        return s * (0.25 + s * (0.25 + s * (7.0 / 32.0 + s * (
            3.0 / 16.0 + s * (31.0 / 192.0)))))
    # log(p) of the same rounded p: 3 log(u) would not cancel against s
    return (2.0 * math.log1p(-0.5 * s) - math.log(p)) / s


def _xy_integral(d, f0: float, cfg: QuadratureConfig | None) -> EvalResult:
    """Integral over [0,1]^2 of F(xy) / ((1+x)(1+y)), given f0 = F(0) and
    d(p) = F(p) - F(0); see the module docstring."""

    def h(u):
        p = u * u * u
        return 3.0 * u * u * d(p) * _kernel(p)

    cfg = cfg or _DEFAULT_CFG
    r = integrate_1d(h, 0.0, 1.0, cfg)
    value = f0 * _LOG2_SQ + r.value
    bound = r.error_bound + 2.5e-16 * (abs(f0) * _LOG2_SQ + abs(value))
    status = r.status
    if bound > max(cfg.abs_tol, cfg.rel_tol * abs(value)):
        status = Status.MAX_TERMS
    return EvalResult(value, bound, r.terms_used, status)


def double_integral_g(z: float, cfg: QuadratureConfig | None = None) -> EvalResult:
    """g(z) = integral over [0,1]^2 of 1 / ((1 - xyz)(1+x)(1+y)).

    F(p) = 1/(1 - pz), and F(p) - 1 = pz/(1 - pz) is used as written.  At
    z = 1 it grows like 1/(1 - p) while K(p) vanishes like (1 - p)/4, so the
    1D integrand stays bounded.
    """
    z = check_real("z", z, (-1.0, 1.0))

    def d(p):
        w = p * z
        return w / (1.0 - w)

    return _xy_integral(d, 1.0, cfg)


def double_integral_bigG(z: float, cfg: QuadratureConfig | None = None) -> EvalResult:
    """G(z) = -integral over [0,1]^2 of log(1 - xyz) / (xy (1+x)(1+y)).

    F(p) = -log(1 - pz)/p with F(0) = z.  For |pz| < 1e-4, F(p) - z is
    replaced by its power series through w^5 (w = pz, truncation below
    1e-20 relative) to avoid cancellation.
    """
    z = check_real("z", z, (-1.0, 1.0))

    def d(p):
        w = p * z
        if abs(w) < 1e-4:
            return z * w * (1.0 / 2.0 + w * (1.0 / 3.0 + w * (
                1.0 / 4.0 + w * (1.0 / 5.0 + w / 6.0))))
        return -math.log1p(-w) / p - z

    return _xy_integral(d, z, cfg)


def double_integral_eq31(cfg: QuadratureConfig | None = None) -> EvalResult:
    """Integral over [0,1]^2 of x^2 y^2 / ((1 + x^2 y^2)(1+x)(1+y))."""

    def d(p):
        s = p * p
        return s / (1.0 + s)

    return _xy_integral(d, 0.0, cfg)


def double_integral_eq32(cfg: QuadratureConfig | None = None) -> EvalResult:
    """Integral over [0,1]^2 of log(1 + xy) / ((1+x)(1+y))."""
    return _xy_integral(math.log1p, 0.0, cfg)
