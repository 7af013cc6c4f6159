"""Adaptive quadrature for the double-integral representations.

1D: Gauss-Kronrod 7/15 under worst-interval bisection.  All nodes are
interior: a panel whose halves' outermost nodes would round onto their ends
is frozen, not split, so integrable endpoint singularities never get
sampled; adaptivity grades panels toward them.  A zero limit is mapped by
t = e u^3 (e the other limit), which turns a log or power singularity at 0
into a zero of the new integrand: the EQ21 integral over [0, x] takes about
a quarter of the evaluations it takes in t.  A nonzero limit is not mapped,
because nodes clustered toward it would round onto it.  Every decision
reads the panels' summed values and error estimates as math.fsum gives
them, yet a split costs O(1) work (see integrate_1d).

2D: each double integral has the form F(xy) / ((1+x)(1+y)) over the unit
square.  With p = xy the x-integral is done exactly, and the double integral
is one 1D integral against a shared kernel,

    F(0) log^2 2 + int_0^1 (F(p) - F(0)) K(p) dp,
    K(p) = int_p^1 dx / ((1+x)(x+p)) = (2 log((1+p)/2) - log p) / (1 - p),

taken by the 1D rule in p = u^3.  Subtracting F(0) turns the log p end of
K into p log p.  Bisection of [0, 1] in u makes only dyadic panels, and K
does not depend on F or z, so each panel's nodes p, weights 3u^2 and K(p)
are tabulated once in a bounded table shared by all four integrals; a
panel then costs only the 15 values of F(p) - F(0).

The panel rules (_gk15; _gk15_map and _gk15_map_deep for the map at a
zero limit; _gk15_kernel for the kernel integral) are written out node by
node, so that every integrand call is made from Python code: CPython 3.11
runs a call from Python code in the caller's interpreter loop, while a
call made from C, through map or a per-node wrapper called by it, enters
the interpreter anew.  Two other ways were measured and rejected: f
called through a C-level map (the EQ21 integrals 10% slower), and d
applied to a panel's nodes through a chain of maps (2.9 us a warm panel
of g's d, against 1.9 us written out).

The map's nodes u^3 and u^2 do not depend on the limit or the integrand,
and every mapped integral bisects [0, 1] in u, so _gk15_map reads them
from a memo of dyadic panels, as the kernel rule reads its table.  The
memo keeps only panels no narrower than _MAP_FLOOR = 2^-7: at most 255,
about 0.3 MB, and the EQ21 integrals' panels nearly all are (498 of 502
visits in endpoint-quad), which then take about 10% less time.  A memo
without the floor (an LRU of 256 panels) was rejected: cos(50t) on
[0, 20] at tol 1e-12 visits about 1,000 panels, 800 of them narrower
than 2^-7 and each once per integral, so that memo only churned and the
integral took 76-81% longer (at tol 1e-10 and 1e-12).  Below the floor
_gk15_map_deep forms the nodes inline, as the rule did before the memo,
and that integral takes as long as without a memo (-1% to +1%);
building a node tuple for those panels and reading it back, even
unstored, cost it 8-9%.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from heapq import heappop, heappush, heapreplace
from itertools import chain
from operator import itemgetter

from .core_numerics import check_int, check_real, check_tol
from .errors import DomainError
from .result import EvalResult, Status


class QuadratureConfig(namedtuple("QuadratureConfig",
                                  "abs_tol rel_tol max_subdivisions")):
    """Targets of one quadrature call.  abs_tol and rel_tol are checked
    like sum_series's tol (any real, stored as a float) and must be finite
    and >= 1e-15; max_subdivisions must be an int in [1, 1e6].  A bad
    value raises DomainError."""

    __slots__ = ()

    def __new__(cls, abs_tol: float = 1e-10, rel_tol: float = 1e-12,
                max_subdivisions: int = 4000):
        return super().__new__(
            cls, check_tol("abs_tol", abs_tol, 1e-15),
            check_tol("rel_tol", rel_tol, 1e-15),
            check_int("max_subdivisions", max_subdivisions, 1, 1_000_000))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: validate there too
        return cls(*iterable)


_DEFAULT_CFG = QuadratureConfig()

# results are built without EvalResult's Python-level __new__
_new = tuple.__new__
_CONVERGED, _MAX_TERMS = Status.CONVERGED, Status.MAX_TERMS


def _config(cfg) -> QuadratureConfig:
    """cfg, or the default for None; anything else raises DomainError."""
    if cfg is None:
        return _DEFAULT_CFG
    if not isinstance(cfg, QuadratureConfig):
        raise DomainError("cfg must be a QuadratureConfig or None")
    return cfg


# Gauss-Kronrod 7/15 on [-1, 1]: the positive Kronrod nodes _X0 > ... > _X6
# (the rule is symmetric about the centre node 0), their Kronrod weights
# _K0 ... _K6 and the centre's _KC.  The Gauss 7-point rule uses the odd
# nodes _X1, _X3, _X5 with weights _G1, _G3, _G5, and the centre with _GC.
_X0, _X1, _X2, _X3, _X4, _X5, _X6 = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_K0, _K1, _K2, _K3, _K4, _K5, _K6, _KC = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_G1, _G3, _G5, _GC = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """15-point Kronrod value and |K15 - G7| error estimate on [a, b].

    f is called at the centre, then at c - x and c + x from the outermost
    node in, and both sums add left to right in that order; another order
    would move the last bits of the results."""
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    fc = f(c)
    x = h * _X0
    s0 = f(c - x) + f(c + x)
    x = h * _X1
    s1 = f(c - x) + f(c + x)
    x = h * _X2
    s2 = f(c - x) + f(c + x)
    x = h * _X3
    s3 = f(c - x) + f(c + x)
    x = h * _X4
    s4 = f(c - x) + f(c + x)
    x = h * _X5
    s5 = f(c - x) + f(c + x)
    x = h * _X6
    s6 = f(c - x) + f(c + x)
    k = (_KC * fc + _K0 * s0 + _K1 * s1 + _K2 * s2 + _K3 * s3 + _K4 * s4
         + _K5 * s5 + _K6 * s6)
    g = _GC * fc + _G1 * s1 + _G3 * s3 + _G5 * s5
    return h * k, abs(h * (k - g))


def _map_nodes(a: float, b: float) -> tuple[float, ...]:
    """The nodes u of _gk15 on [a, b], each formed as _gk15 forms it, in
    its call order, as one flat tuple of 30 floats: the 15 (u u) u, then
    the 15 u u."""
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    us = [c]
    for x in (_X0, _X1, _X2, _X3, _X4, _X5, _X6):
        x = h * x
        us += (c - x, c + x)
    qs = [u * u for u in us]
    return (*[q * u for q, u in zip(qs, us)], *qs)


#: The narrowest panel, in u, whose nodes the map's memo keeps: the
#: dyadic panels of [0, 1] no narrower are at most 255, about 1.1 KB each.
_MAP_FLOOR = 2.0 ** -7

#: The map's panel nodes, _map_nodes(a, b), for the panels no narrower
#: than _MAP_FLOOR, each built on its first visit and never changed.
_map_panel = functools.cache(_map_nodes)


def _gk15_map(few, a: float, b: float) -> tuple[float, float]:
    """_gk15 on [a, b] of u -> f(e u^3) 3e u^2, for few = (f, e, 3e): each
    node u as _gk15 forms it, and each value formed as f(e ((u u) u))
    times 3e (u u), in _gk15's call and summation order.

    A panel no narrower than _MAP_FLOOR reads its nodes from the memo
    _map_panel; a narrower one goes to _gk15_map_deep, which forms them
    inline.  Both rules are written out and call f from their own code."""
    if b - a < _MAP_FLOOR:
        return _gk15_map_deep(few, a, b)
    f, e, w = few
    (p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, p10, p11, p12, p13, p14,
     q0, q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11, q12, q13,
     q14) = _map_panel(a, b)
    fc = f(e * p0) * (w * q0)
    s0 = f(e * p1) * (w * q1) + f(e * p2) * (w * q2)
    s1 = f(e * p3) * (w * q3) + f(e * p4) * (w * q4)
    s2 = f(e * p5) * (w * q5) + f(e * p6) * (w * q6)
    s3 = f(e * p7) * (w * q7) + f(e * p8) * (w * q8)
    s4 = f(e * p9) * (w * q9) + f(e * p10) * (w * q10)
    s5 = f(e * p11) * (w * q11) + f(e * p12) * (w * q12)
    s6 = f(e * p13) * (w * q13) + f(e * p14) * (w * q14)
    k = (_KC * fc + _K0 * s0 + _K1 * s1 + _K2 * s2 + _K3 * s3 + _K4 * s4
         + _K5 * s5 + _K6 * s6)
    g = _GC * fc + _G1 * s1 + _G3 * s3 + _G5 * s5
    h = 0.5 * (b - a)
    return h * k, abs(h * (k - g))


def _gk15_map_deep(few, a: float, b: float) -> tuple[float, float]:
    """_gk15_map on a panel narrower than _MAP_FLOOR: the same values,
    with each node's (u u) u and u u formed inline, as _map_nodes forms
    them, and kept by nobody."""
    f, e, w = few
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    uu = c * c
    fc = f(e * (uu * c)) * (w * uu)
    x = h * _X0
    u, v = c - x, c + x
    uu, vv = u * u, v * v
    s0 = f(e * (uu * u)) * (w * uu) + f(e * (vv * v)) * (w * vv)
    x = h * _X1
    u, v = c - x, c + x
    uu, vv = u * u, v * v
    s1 = f(e * (uu * u)) * (w * uu) + f(e * (vv * v)) * (w * vv)
    x = h * _X2
    u, v = c - x, c + x
    uu, vv = u * u, v * v
    s2 = f(e * (uu * u)) * (w * uu) + f(e * (vv * v)) * (w * vv)
    x = h * _X3
    u, v = c - x, c + x
    uu, vv = u * u, v * v
    s3 = f(e * (uu * u)) * (w * uu) + f(e * (vv * v)) * (w * vv)
    x = h * _X4
    u, v = c - x, c + x
    uu, vv = u * u, v * v
    s4 = f(e * (uu * u)) * (w * uu) + f(e * (vv * v)) * (w * vv)
    x = h * _X5
    u, v = c - x, c + x
    uu, vv = u * u, v * v
    s5 = f(e * (uu * u)) * (w * uu) + f(e * (vv * v)) * (w * vv)
    x = h * _X6
    u, v = c - x, c + x
    uu, vv = u * u, v * v
    s6 = f(e * (uu * u)) * (w * uu) + f(e * (vv * v)) * (w * vv)
    k = (_KC * fc + _K0 * s0 + _K1 * s1 + _K2 * s2 + _K3 * s3 + _K4 * s4
         + _K5 * s5 + _K6 * s6)
    g = _GC * fc + _G1 * s1 + _G3 * s3 + _G5 * s5
    return h * k, abs(h * (k - g))


#: 2^-52, twice the unit roundoff u = 2^-53.  A running float sum is within
#: u times the summed magnitudes of its partial results of the exact sum of
#: its terms (Higham, Accuracy and Stability of Numerical Algorithms, 4.2);
#: the factor 2 covers the rounding of that magnitude sum, gamma_n for n
#: additions.
_U2 = 2.0 ** -52


_NEG_ERR, _VALUE = itemgetter(0), itemgetter(4)


def _totals(heap: list, frozen: list) -> tuple[float, float]:
    """The fsum of the values and of the error estimates of every panel,
    live and frozen: each the exact total, correctly rounded (the second
    as the exact negation of the fsum of the negated estimates)."""
    return (math.fsum(map(_VALUE, chain(heap, frozen))),
            -math.fsum(map(_NEG_ERR, chain(heap, frozen))))


def _interior(a: float, b: float) -> bool:
    """Whether _gk15's outermost nodes on [a, b], computed as it computes
    them, lie strictly inside (a, b); then so do all its nodes."""
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    x = h * _X0
    return a < c - x and c + x < b


def integrate_1d(f, a: float, b: float, cfg: QuadratureConfig | None = None) -> EvalResult:
    """Oriented adaptive integral of f from a to b.

    When one limit is zero (0.0 or -0.0) and the other is e, the integral is
    taken as int_0^1 f(e u^3) 3e u^2 du, so a singularity of f at 0 (a log
    or a power of t) becomes a zero of the new integrand; from e to 0 it is
    the exact negation of that.  Only a zero limit is mapped: near 0 floats
    resolve nodes that cluster like u^3, while nodes clustered toward a
    nonzero limit round onto it.  Otherwise f is integrated as it is.  The
    map has its own panel rule, _gk15_map, which reads each node's u^3 and
    u^2 from its memo (or forms them, below the memo's floor), forms
    e u^3 and 3e u^2 inline and calls f itself, with no wrapper per node.

    The panel with the largest error estimate is bisected until twice the
    summed estimates is within half the target, or after
    cfg.max_subdivisions bisections.  A panel is frozen instead of bisected
    when it is narrower than 1e-14 times the scale of its limits, or when a
    half's outermost node would round onto that half's ends, so f is
    called strictly inside (a, b) only (with the map, unless e u^3
    underflows).  Nonzero limits so close together (about a hundred ulps)
    that the first panel's outermost nodes would round onto them raise
    DomainError, as does a cfg that is neither None (the default config)
    nor a QuadratureConfig.  terms_used counts integrand evaluations, 15
    per panel.

    Every decision is taken on the fsum of the panels' values and error
    estimates, the exact totals correctly rounded, as if they were kept
    exactly.  A split updates float running totals instead, each with a
    bound on its own rounding, which decide the stop test when they put it
    clearly on one side; only when they cannot are the two fsums formed,
    and the running totals restart from them.  The returned value and
    bound come from the same fsums.

    At the first panel whose value or error estimate is not finite (f
    returned nan or inf there) the integral stops and returns
    EvalResult(nan, inf, evaluations so far, Status.DIVERGENT_INPUT).
    """
    a, b = check_real("a", a), check_real("b", b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration limits must be finite")
    cfg = _config(cfg)
    if a == b:
        return EvalResult(0.0, 0.0, 0, Status.CONVERGED)
    if a and b:
        if not _interior(min(a, b), max(a, b)):
            raise DomainError("integration limits too close together: "
                              "the rule's nodes would round onto them")
        return _adaptive(f, a, b, cfg)
    e = a or b  # the nonzero limit
    few = (f, e, 3.0 * e)
    # from e to 0 is the same loop oriented the other way: its exact negation
    return (_adaptive(few, 0.0, 1.0, cfg, _gk15_map) if b
            else _adaptive(few, 1.0, 0.0, cfg, _gk15_map))


def _adaptive(f, a: float, b: float, cfg: QuadratureConfig,
              rule=_gk15) -> EvalResult:
    """The adaptive loop of integrate_1d on f from a to b, a != b.
    rule(f, pa, pb) is the panel rule: _gk15 on an integrand f,
    _gk15_map on f = (f, e, 3e) for the map at a zero limit, or
    _gk15_kernel on f = d for the double integrals.

    The heap holds (-error, evaluations so far, a, b, value) per live
    panel.  The loop reads the worst panel at heap[0]: a frozen one is
    popped onto the frozen list as it is; a split one is replaced in place
    by its first half (heapreplace), and its second half is pushed.  The
    evaluation counts are unique, so no two keys tie, and which panel
    comes out next does not depend on the heap's layout."""
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    narrow = 1e-14 * max(abs(a), abs(b), 1.0)
    v, e = rule(f, a, b)
    evals = 15
    if not math.isfinite(v + e):
        return EvalResult(math.nan, math.inf, evals, Status.DIVERGENT_INPUT)
    heap = [(-e, 0, a, b, v)]
    frozen = []
    # The running totals over live and frozen panels, and the summed
    # magnitudes of their partial results: |val - exact| <= _U2 val_mu.
    val, err, val_mu, err_mu = v, e, 0.0, 0.0
    moved = True  # the totals changed since the last stop test, which
    # otherwise would give the same answer again
    splits = 0
    while splits < cfg.max_subdivisions and heap:
        if moved:
            # The test is 2 fsum(errs) <= 0.5 max(abs_tol, rel_tol
            # |fsum(vals)|).  lhs - rhs is within slack of that difference:
            # the running bounds give the _U2 terms; the fsums' half ulp,
            # the products in rhs, the difference and slack itself round by
            # a few u of lhs + rhs, inside 1e-15 (lhs + rhs), about 9u.
            lhs = 2.0 * err
            rhs = 0.5 * max(abs_tol, rel_tol * abs(val))
            slack = (_U2 * (2.0 * err_mu + 0.5 * rel_tol * val_mu)
                     + 1e-15 * (lhs + rhs))
            if abs(lhs - rhs) <= slack:  # too close: take the exact sums
                val, err = _totals(heap, frozen)
                val_mu, err_mu = abs(val), err
                lhs = 2.0 * err
                rhs = 0.5 * max(abs_tol, rel_tol * abs(val))
            if lhs <= rhs:
                break
        neg_e, _, pa, pb, pv = heap[0]  # the worst panel
        m = 0.5 * (pa + pb)
        if pb - pa < narrow or not (_interior(pa, m) and _interior(m, pb)):
            # frozen: its value and error stay in the totals
            frozen.append(heappop(heap))
            moved = False
            continue
        moved = True
        val -= pv
        err += neg_e
        val_mu += abs(val)
        err_mu += abs(err)
        for ca, cb, put in ((pa, m, heapreplace), (m, pb, heappush)):
            cv, ce = rule(f, ca, cb)
            evals += 15
            if not math.isfinite(cv + ce):
                return EvalResult(math.nan, math.inf, evals,
                                  Status.DIVERGENT_INPUT)
            val += cv
            err += ce
            val_mu += abs(val)
            err_mu += abs(err)
            put(heap, (-ce, evals, ca, cb, cv))
        splits += 1

    value, err = _totals(heap, frozen)
    bound = 2.0 * err + 1e-16 * (1.0 + abs(value))
    target = max(abs_tol, rel_tol * abs(value))
    status = _CONVERGED if bound <= target else _MAX_TERMS
    return _new(EvalResult, (sign * value, bound, evals, status))


# log^2 2, correctly rounded
_LOG2_SQ = 0.48045301391820144

#: Panels the kernel table keeps, about 1.6 KB each.  Bisection of [0, 1]
#: in u makes dyadic panels only, so g, G, EQ31 and EQ32 at any z, tol and
#: cap share them: one g or G at tol 1e-15 touches at most about a hundred.
#: A rapidly oscillating F can touch more; the least recently used panels
#: are then rebuilt.
_KERNEL_PANELS = 256


def _kernel(p: float) -> float:
    """K(p) in s = 1 - p, exact for p >= 1/2 by Sterbenz; below s = 1e-3
    its series sum_k (1 - 2^(1-k))/k s^(k-1), k = 2..6."""
    s = 1.0 - p
    if s < 1e-3:
        return s * (0.25 + s * (0.25 + s * (7.0 / 32.0 + s * (
            3.0 / 16.0 + s * (31.0 / 192.0)))))
    # log(p) of the same rounded p: 3 log(u) would not cancel against s
    return (2.0 * math.log1p(-0.5 * s) - math.log(p)) / s


@functools.lru_cache(maxsize=_KERNEL_PANELS)
def _kernel_panel(a: float, b: float) -> tuple[float, ...]:
    """The nodes u of _gk15 on [a, b], in its call order, as one flat tuple
    of 45 floats: the 15 p = u^3, then the 15 weights 3u^2 of dp = 3u^2 du,
    then the 15 K(p)."""
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    us = [c]
    for x in (_X0, _X1, _X2, _X3, _X4, _X5, _X6):
        x = h * x
        us += (c - x, c + x)
    ps = [u * u * u for u in us]
    return (*ps, *[3.0 * u * u for u in us], *map(_kernel, ps))


def _gk15_kernel(d, a: float, b: float) -> tuple[float, float]:
    """_gk15 on [a, b] of u -> 3u^2 d(p) K(p), p = u^3, each value formed
    left to right as the weight times d(p), times K(p), from the panel's
    tabulated nodes; d is called once per node, at the nodes in order.

    The rule is written out: it unpacks the panel's flat table tuple (15
    p, 15 weights, 15 K(p), each in _gk15's node order) and calls d from
    its own code at each node, which costs less than driving d through
    C-level maps over three tuples."""
    (p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, p10, p11, p12, p13, p14,
     w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11, w12, w13, w14,
     k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13,
     k14) = _kernel_panel(a, b)
    fc = w0 * d(p0) * k0
    s0 = w1 * d(p1) * k1 + w2 * d(p2) * k2
    s1 = w3 * d(p3) * k3 + w4 * d(p4) * k4
    s2 = w5 * d(p5) * k5 + w6 * d(p6) * k6
    s3 = w7 * d(p7) * k7 + w8 * d(p8) * k8
    s4 = w9 * d(p9) * k9 + w10 * d(p10) * k10
    s5 = w11 * d(p11) * k11 + w12 * d(p12) * k12
    s6 = w13 * d(p13) * k13 + w14 * d(p14) * k14
    k = (_KC * fc + _K0 * s0 + _K1 * s1 + _K2 * s2 + _K3 * s3 + _K4 * s4
         + _K5 * s5 + _K6 * s6)
    g = _GC * fc + _G1 * s1 + _G3 * s3 + _G5 * s5
    h = 0.5 * (b - a)
    return h * k, abs(h * (k - g))


def _xy_integral(d, f0: float, cfg: QuadratureConfig | None) -> EvalResult:
    """Integral over [0,1]^2 of F(xy) / ((1+x)(1+y)), given f0 = F(0) and
    d(p) = F(p) - F(0); see the module docstring.  A DIVERGENT_INPUT from
    the loop is returned as it is."""
    # the loop runs in u over [0, 1] with the kernel rule, which maps
    # p = u^3 itself from the table: integrate_1d's map at 0 would form
    # the nodes and K(p) at every panel, and its weight 3.0 * (u * u)
    # rounds differently from 3.0 * u * u here
    cfg = _config(cfg)
    r = _adaptive(d, 0.0, 1.0, cfg, _gk15_kernel)
    if r.status is Status.DIVERGENT_INPUT:
        return r
    value = f0 * _LOG2_SQ + r.value
    bound = r.error_bound + 2.5e-16 * (abs(f0) * _LOG2_SQ + abs(value))
    status = r.status
    if bound > max(cfg.abs_tol, cfg.rel_tol * abs(value)):
        status = _MAX_TERMS
    return _new(EvalResult, (value, bound, r.terms_used, status))


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
