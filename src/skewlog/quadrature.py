"""Adaptive quadrature for the double-integral representations.

1D: Gauss-Kronrod 7/15 under worst-interval bisection.  2D: embedded
8x8 / 16x16 tensor Gauss-Legendre panels under adaptive quadrant
subdivision.  Both run the same worst-panel-first refinement loop.  All
nodes are interior, so integrable endpoint or corner singularities never get
sampled; adaptivity grades panels toward them.  Panel contributions are
totalled with fsum, which is correctly rounded, so the totals do not depend
on the order in which panels were refined.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .core_numerics import check_real
from .errors import DomainError
from .result import EvalResult, Status


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-12
    max_subdivisions: int = 4000

    def __post_init__(self) -> None:
        if not (isinstance(self.abs_tol, float) and self.abs_tol >= 1e-15):
            raise ValueError("abs_tol must be a float >= 1e-15")
        if not (isinstance(self.rel_tol, float) and self.rel_tol >= 1e-15):
            raise ValueError("rel_tol must be a float >= 1e-15")
        if not (
            isinstance(self.max_subdivisions, int)
            and 1 <= self.max_subdivisions <= 1_000_000
        ):
            raise ValueError("max_subdivisions must be an int in [1, 1e6]")


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


def _refine(rule, split, too_narrow, whole, cost: int, cfg: QuadratureConfig,
            safety: float, slack: float) -> EvalResult:
    """Worst-panel-first adaptive integration over the panel whole.

    rule(*panel) gives a panel's value and error estimate from cost integrand
    evaluations, split(*panel) its children, and a panel for which
    too_narrow(*panel) holds is frozen instead of split.  Refinement stops
    once safety times the summed estimates is within half the target, or
    after cfg.max_subdivisions splits; the bound adds slack (1 + |value|)
    for rounding.
    """
    v, e = rule(*whole)
    heap = [(-e, 0, whole, v, e)]
    frozen: list[tuple[float, float]] = []  # (value, error) of unsplittable
    evals = cost
    seq = 1
    splits = 0
    while splits < cfg.max_subdivisions:
        total_val = math.fsum(x[3] for x in heap) + math.fsum(x[0] for x in frozen)
        total_err = math.fsum(x[4] for x in heap) + math.fsum(x[1] for x in frozen)
        target = max(cfg.abs_tol, cfg.rel_tol * abs(total_val))
        if safety * total_err <= 0.5 * target or not heap:
            break
        _, _, panel, pv, pe = heapq.heappop(heap)
        if too_narrow(*panel):
            frozen.append((pv, pe))
            continue
        for child in split(*panel):
            cv, ce = rule(*child)
            evals += cost
            heapq.heappush(heap, (-ce, seq, child, cv, ce))
            seq += 1
        splits += 1

    panels = [x[3:] for x in heap] + frozen
    value = math.fsum(p[0] for p in panels)
    bound = safety * math.fsum(p[1] for p in panels) + slack * (1.0 + abs(value))
    target = max(cfg.abs_tol, cfg.rel_tol * abs(value))
    status = Status.CONVERGED if bound <= target else Status.MAX_TERMS
    return EvalResult(value, bound, evals, status)


def _halve(a: float, b: float):
    m = 0.5 * (a + b)
    return (a, m), (m, b)


def integrate_1d(f, a: float, b: float, cfg: QuadratureConfig | None = None) -> EvalResult:
    """Oriented adaptive integral of f from a to b."""
    a, b = check_real("a", a), check_real("b", b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration limits must be finite")
    if a == b:
        return EvalResult(0.0, 0.0, 0, Status.CONVERGED)
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    scale = max(abs(a), abs(b), 1.0)
    r = _refine(partial(_gk15, f), _halve,
                lambda pa, pb: pb - pa < 1e-14 * scale, (a, b), 15,
                cfg or _DEFAULT_CFG, 2.0, 1e-16)
    return EvalResult(sign * r.value, r.error_bound, r.terms_used, r.status)


@lru_cache(maxsize=None)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel_2d(f2, x0, x1, y0, y1) -> tuple[float, float]:
    """16x16 tensor value and |I16 - I8| estimate on a rectangle."""
    hx, hy = 0.5 * (x1 - x0), 0.5 * (y1 - y0)
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    vals = []
    for n in (16, 8):
        xn, wn = _gl_nodes(n)
        gx = cx + hx * xn
        gy = cy + hy * xn
        fv = f2(gx[:, None], gy[None, :])
        vals.append(hx * hy * float(wn @ fv @ wn))
    return vals[0], abs(vals[0] - vals[1])


def _quarter(x0, x1, y0, y1):
    xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    return [(qx0, qx1, qy0, qy1) for qx0, qx1 in ((x0, xm), (xm, x1))
            for qy0, qy1 in ((y0, ym), (ym, y1))]


def _adapt_2d(f2, cfg: QuadratureConfig | None) -> EvalResult:
    """Adaptive quadtree integration of f2 over [0,1]^2."""
    return _refine(partial(_panel_2d, f2), _quarter,
                   lambda x0, x1, y0, y1: x1 - x0 < 1e-13, (0.0, 1.0, 0.0, 1.0),
                   256 + 64, cfg or _DEFAULT_CFG, 1.5, 2e-16)


def double_integral_g(z: float, cfg: QuadratureConfig | None = None) -> EvalResult:
    """g(z) = integral over [0,1]^2 of 1 / ((1 - xyz)(1+x)(1+y)).

    At z = 1 the integrand blows up like 1/((1-x) + (1-y)) at the (1,1)
    corner (integrable).  The quadtree samples no corner node and grades its
    panels into the corner, so the same rule and the requested tolerance
    apply there as everywhere else.
    """
    z = check_real("z", z, (-1.0, 1.0))

    def f2(x, y):
        return 1.0 / ((1.0 - x * y * z) * (1.0 + x) * (1.0 + y))

    return _adapt_2d(f2, cfg)


def double_integral_bigG(z: float, cfg: QuadratureConfig | None = None) -> EvalResult:
    """G(z) = -integral over [0,1]^2 of log(1 - xyz) / (xy (1+x)(1+y)).

    The xy -> 0 limit of -log(1-xyz)/(xy) is z (removable); for
    xy |z| < 1e-4 the factor is replaced by its power series through w^5
    (w = xyz, truncation below 1e-24) to avoid cancellation.
    """
    z = check_real("z", z, (-1.0, 1.0))

    def f2(x, y):
        xy = x * y
        w = xy * z
        guard = np.abs(w) < 1e-4
        xy_safe = np.where(guard, 1.0, xy)
        direct = -np.log1p(-w) / xy_safe
        series = z * (
            1.0 + w * (1.0 / 2.0 + w * (1.0 / 3.0 + w * (
                1.0 / 4.0 + w * (1.0 / 5.0 + w / 6.0))))
        )
        return np.where(guard, series, direct) / ((1.0 + x) * (1.0 + y))

    return _adapt_2d(f2, cfg)


def double_integral_eq31(cfg: QuadratureConfig | None = None) -> EvalResult:
    """Integral over [0,1]^2 of x^2 y^2 / ((1 + x^2 y^2)(1+x)(1+y))."""

    def f2(x, y):
        s = (x * y) ** 2
        return s / ((1.0 + s) * (1.0 + x) * (1.0 + y))

    return _adapt_2d(f2, cfg)


def double_integral_eq32(cfg: QuadratureConfig | None = None) -> EvalResult:
    """Integral over [0,1]^2 of log(1 + xy) / ((1+x)(1+y))."""

    def f2(x, y):
        return np.log1p(x * y) / ((1.0 + x) * (1.0 + y))

    return _adapt_2d(f2, cfg)
