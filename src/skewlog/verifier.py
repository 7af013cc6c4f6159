"""Identity verification harness.

Every cataloged identity gets checked on a default grid at a default
tolerance; results come back as flat records (one per evaluation point)
that serialize deterministically to JSON or CSV.  Failures never abort a
run: each record carries its own verdict, and grid points outside a
participant's domain produce SKIPPED records with a reason.

The report's notes section documents the three catalog corrections shipped
in closed_forms, each with numeric evidence computed at report time.

Records and grids are named tuples; the Report is a plain mutable class.
Checking identities loads none of json, csv, io, array and datetime: the
JSON writer imports json, both writers import array when a column's values
repeat (tolerances and residuals do), parse_report imports json, or csv and
io, and verify_all imports datetime for the report's timestamp.
"""

from __future__ import annotations

import enum
import math
import re
from collections import namedtuple
from itertools import chain, cycle, islice, repeat
from operator import add, attrgetter, ge, getitem, itemgetter, mul, sub

from ._version import __version__
from .closed_forms import (
    ClosedFormId,
    EQ18_VALUE,
    EQ19_VALUE,
    _li2_ext,
    abel_sides,
    closed_form,
    closed_form_eq17,
    int_li2_over_1mt,
)
from .core_numerics import (
    _CACHE,
    CONSTANTS,
    LOG2,
    check_real,
    digamma_half_diff,
)
from .errors import DomainError, PoleError
from .polylog import li2
from .quadrature import (
    QuadratureConfig,
    double_integral_bigG,
    double_integral_eq31,
    double_integral_eq32,
    double_integral_g,
    integrate_1d,
)
from .result import Status
from .series_engine import SeriesId, sum_series

_PI_SQ_OVER_6 = CONSTANTS["PI_SQ_OVER_6"]
_PI_SQ_OVER_12 = CONSTANTS["PI_SQ_OVER_12"]
_LI2_HALF = CONSTANTS["LI2_HALF"]
_ZETA3 = CONSTANTS["ZETA3"]
_PI = CONSTANTS["PI"]


class IdentityId(enum.Enum):
    EQ1_DIGAMMA = "EQ1_DIGAMMA"
    EQ2 = "EQ2"
    EQ3 = "EQ3"
    EQ4 = "EQ4"
    EQ5 = "EQ5"
    EQ8 = "EQ8"
    EQ9 = "EQ9"
    EQ10 = "EQ10"
    EQ11 = "EQ11"
    EQ12 = "EQ12"
    EQ13 = "EQ13"
    EQ14_LEMMA6 = "EQ14_LEMMA6"
    EQ15 = "EQ15"
    EQ16 = "EQ16"
    EQ17 = "EQ17"
    EQ18 = "EQ18"
    EQ19 = "EQ19"
    EQ20 = "EQ20"
    EQ21 = "EQ21"
    EQ22 = "EQ22"
    EQ24 = "EQ24"
    EQ25_ABEL = "EQ25_ABEL"
    EQ26 = "EQ26"
    EQ27_RAMANUJAN = "EQ27_RAMANUJAN"
    EQ28 = "EQ28"
    EQ29 = "EQ29"
    EQ30 = "EQ30"
    EQ31 = "EQ31"
    EQ32 = "EQ32"
    LANDEN = "LANDEN"
    H_EVEN_ODD_SPLIT = "H_EVEN_ODD_SPLIT"


class Verdict(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    SKIPPED = "SKIPPED"


class VerificationRecord(namedtuple(
        "VerificationRecord",
        "identity params lhs rhs residual tolerance verdict note",
        defaults=("",))):
    """One checked point: the IdentityId, its params as ((name, value),
    ...) pairs, both sides, |lhs - rhs|, the tolerance, the Verdict and a
    note (why it was skipped, or which participant did not converge)."""

    __slots__ = ()


class GridSpec(namedtuple("GridSpec", "t_values mu_values n_range",
                          defaults=((), (), None))):
    """Evaluation points: t_values (crossed with mu_values when those are
    given), or the integers n_range = (lo, hi) inclusive."""

    __slots__ = ()


class Report:
    """A verification run: the records, verdict counts per identity,
    metadata and notes.  Two reports are equal when all four are."""

    __slots__ = ("records", "summary", "metadata", "notes")

    def __init__(self, records: list[VerificationRecord],
                 summary: dict[str, dict[str, int]], metadata: dict,
                 notes: list[str] | None = None) -> None:
        self.records = records
        self.summary = summary
        self.metadata = metadata
        self.notes = [] if notes is None else notes

    def _astuple(self) -> tuple:
        return self.records, self.summary, self.metadata, self.notes

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        return ("Report(records=%r, summary=%r, metadata=%r, notes=%r)"
                % self._astuple())


def _rec(identity, params, lhs, rhs, tol, note="", parts=()):
    """One checked point.  parts holds the (label, EvalResult) of each series
    or quadrature participant; one that did not converge makes the record
    FAIL whatever the residual, and the note names it and its status."""
    residual = abs(lhs - rhs)
    verdict = Verdict.PASS if residual <= tol else Verdict.FAIL
    if parts:
        unconverged = [f"{label} did not converge: {r.status.name}"
                       for label, r in parts if r.status is not Status.CONVERGED]
        if unconverged:
            verdict, note = Verdict.FAIL, "; ".join(unconverged)
    return VerificationRecord(identity, params, lhs, rhs, residual, tol,
                              verdict, note)


def _skip(identity, params, tol, reason):
    return VerificationRecord(identity, params, 0.0, 0.0, 0.0, tol,
                              Verdict.SKIPPED, reason)


def _series_tol(tol: float) -> float:
    return max(1e-13, 0.01 * tol)


def _quad_cfg(tol: float) -> QuadratureConfig:
    return QuadratureConfig(abs_tol=max(1e-11, 0.01 * tol))


def _points(grid: GridSpec):
    """Record params of every grid point: (t,), or (mu, t) with mu outer."""
    if grid.mu_values:
        for mu in grid.mu_values:
            for x in grid.t_values:
                yield (("mu", float(mu)), ("t", float(x)))
    else:
        for t in grid.t_values:
            yield (("t", float(t)),)


def _pointwise(sides):
    """Check that sides(tol, *point) returns two equal values at every grid
    point, as (lhs, rhs, parts) with parts as in _rec; a DomainError or
    PoleError makes the point a SKIPPED record."""
    def check(identity, grid, tol):
        out = []
        for params in _points(grid):
            try:
                lhs, rhs, parts = sides(tol, *(v for _, v in params))
            except (DomainError, PoleError) as exc:
                out.append(_skip(identity, params, tol, str(exc)))
                continue
            out.append(_rec(identity, params, lhs, rhs, tol, parts=parts))
        return out
    return check


def _with_series(sid: SeriesId, sides):
    """Check sides(s, *point) -> (lhs, rhs) at every grid point, where s is
    the series sid summed at the point's t (and mu), the record's one
    participant; a point outside the series domain is SKIPPED."""
    label = f"series {sid.name}"

    def point_sides(tol, *point):
        *mu, t = point  # (t,) or (mu, t)
        r = sum_series(sid, t, _series_tol(tol), *mu)
        if r.status is Status.DIVERGENT_INPUT:
            raise DomainError("t outside series domain")
        return (*sides(r.value, *point), ((label, r),))
    return _pointwise(point_sides)


def _series_vs_closed(sid: SeriesId, cid: ClosedFormId):
    return _with_series(sid, lambda s, t: (s, closed_form(cid, t)))


def _endpoint_const(sid: SeriesId, rhs: float, sign: float = 1.0):
    """sign * (series at the grid's t = +-1) against a known constant."""
    return _with_series(sid, lambda s, t: (sign * s, rhs))


def _quad_vs(label: str, quad, rhs: float):
    """sides of a quadrature participant against a known value."""
    return quad.value, rhs, ((label, quad),)


_VERDICTS = (Verdict.FAIL, Verdict.PASS)


def _n_records(identity, first, lhs, rhs, tol, residual=None, notes=None):
    """The records of the integers first, first + 1, ... from their columns
    lhs and rhs (lists), and residual and notes when given: what _rec gives
    point by point, built by C-level maps."""
    if residual is None:
        residual = list(map(abs, map(sub, lhs, rhs)))
    params = zip(zip(repeat("n"), map(float, range(first, first + len(lhs)))))
    verdicts = map(_VERDICTS.__getitem__, map(tol.__ge__, residual))
    return list(map(tuple.__new__, repeat(VerificationRecord), zip(
        repeat(identity), params, lhs, rhs, residual, repeat(tol), verdicts,
        repeat("") if notes is None else notes)))


def _skip_below(identity, grid, tol, first, reason):
    """SKIPPED records for the grid's n < first, outside the domain."""
    lo, hi = grid.n_range
    return [_skip(identity, (("n", float(n)),), tol, reason)
            for n in range(lo, min(first, hi + 1))]


def _verify_eq1(identity, grid, tol):
    lo, hi = grid.n_range
    out = _skip_below(identity, grid, tol, 1, "n must be an integer >= 1")
    first = max(lo, 1)
    if first <= hi:
        lhs = list(map(digamma_half_diff, range(first, hi + 1)))
        # 2 (-1)^(n-1) (log 2 - H_(n-1)^-)
        _CACHE.ensure(hi - 1)
        signs = cycle((2.0, -2.0) if first % 2 else (-2.0, 2.0))
        rhs = list(map(mul, signs, map(
            sub, repeat(LOG2), _CACHE.values_skew[first - 1:hi])))
        out += _n_records(identity, first, lhs, rhs, tol)
    return out


def _verify_eq14(identity, grid, tol):
    lo, hi = grid.n_range
    out = _skip_below(identity, grid, tol, 0, "n must be >= 0")
    first = max(lo, 0)
    if first <= hi:
        _CACHE.ensure(hi)
        sk, h2 = _CACHE.values_skew, _CACHE.values_h2
        # 2 sum_{k<=n} (-1)^(k-1) H_k^-/k, Kahan-compensated, from n = 0
        lhs = [0.0] if first == 0 else []
        s = comp = 0.0
        for n in range(1, hi + 1):
            term = sk[n] / n
            if n % 2 == 0:
                term = -term
            y = term - comp
            t = s + y
            comp = (t - s) - y
            s = t
            if n >= first:
                lhs.append(2.0 * s)
        rhs = list(map(add, map(pow, sk[first:hi + 1], repeat(2)),
                       h2[first:hi + 1]))
        out += _n_records(identity, first, lhs, rhs, tol)
    return out


_SPLIT_NOTES = ("odd half (even half residual is smaller)",
                "even half (odd half residual is smaller)")


def _verify_split(identity, grid, tol):
    """H_2n^- = H_2n - H_n and H_(2n+1)^- = H_(2n+1) - H_n; a record keeps
    the half with the larger residual (the even half on a tie)."""
    lo, hi = grid.n_range
    out = _skip_below(identity, grid, tol, 0, "n must be >= 0")
    first = max(lo, 0)
    if first <= hi:
        # one fill, then the entries straight from the cache's lists
        _CACHE.ensure(2 * hi + 1)
        h, sk = _CACHE.values_h, _CACHE.values_skew
        hn = h[first:hi + 1]
        # (lhs, rhs, residual) columns of the odd half (k = 1), then of the
        # even half, so that a pick of False (0) indexes the odd one
        halves = []
        for k in (1, 0):
            sides = sk[2 * first + k:2 * hi + 2:2]
            diffs = list(map(sub, h[2 * first + k:2 * hi + 2:2], hn))
            halves.append((sides, diffs,
                           list(map(abs, map(sub, sides, diffs)))))
        even = list(map(ge, halves[1][2], halves[0][2]))
        lhs, rhs, residual = (list(map(getitem, zip(*pair), even))
                              for pair in zip(*halves))
        out += _n_records(identity, first, lhs, rhs, tol, residual,
                          map(_SPLIT_NOTES.__getitem__, even))
    return out


def _eq21_integrand(t):
    return (math.log1p(t) - LOG2) * math.log(t) / (1.0 - t)


def _eq21_sides(tol, x):
    if not 0.0 < x <= 1.0:
        raise DomainError("log x term needs 0 < x <= 1")
    series = sum_series(SeriesId.SKEW_OVER_NSQ, x, _series_tol(tol))
    quad = integrate_1d(_eq21_integrand, 0.0, x, _quad_cfg(tol))
    rhs = (
        math.log(x) * (li2(0.5 * (1.0 - x)) - _LI2_HALF)
        + LOG2 * li2(x)
        - quad.value
    )
    return series.value, rhs, (("series SKEW_OVER_NSQ", series),
                               ("quadrature integrate_1d", quad))


#: The grid of a parameter-free identity: one point, whose record has no
#: params.  verify_identity takes no other grid for it.
_NO_PARAMS = GridSpec((0.0,))


def _square_integral(label: str, integral, rhs: float):
    """A parameter-free double integral against its known value."""
    def check(identity, grid, tol):
        quad = integral(_quad_cfg(tol))
        return [_rec(identity, (), quad.value, rhs, tol,
                     parts=((label, quad),))]
    return check


class _Check(namedtuple("_Check", "grid tolerance run singular",
                         defaults=(None,))):
    """One catalog row: run(identity, grid, tol) checks the identity on a
    grid; a singular grid (the integrable corners z = +-1) is checked as
    well by verify_all, at the same tolerance, but is not part of the
    default grid of verify_identity."""

    __slots__ = ()


_T6 = (-0.9, -0.5, -0.1, 0.1, 0.5, 0.9)
_MU5 = (-0.8, -0.3, 0.2, 0.7, 1.0)
_X4 = (-0.9, -0.4, 0.3, 0.8)
_MU_GRID = GridSpec(t_values=_X4, mu_values=_MU5)
_Z_ENDS = GridSpec(t_values=(-1.0, 1.0))

# Lambdas look their callees up when they run, so wrappers installed on
# other modules' functions (tracing) still see every call.
_CHECKS: dict[IdentityId, _Check] = {
    IdentityId.EQ1_DIGAMMA: _Check(GridSpec(n_range=(1, 1000)), 1e-12,
                                   _verify_eq1),
    IdentityId.EQ2: _Check(GridSpec(_T6), 1e-10, _series_vs_closed(
        SeriesId.GF_SKEW, ClosedFormId.EQ2)),
    IdentityId.EQ3: _Check(GridSpec(_T6), 1e-10, _series_vs_closed(
        SeriesId.GF_CENTERED, ClosedFormId.EQ3)),
    IdentityId.EQ4: _Check(GridSpec((1.0,)), 1e-9, _endpoint_const(
        SeriesId.GF_CENTERED, -0.5)),
    IdentityId.EQ5: _Check(GridSpec(_T6), 1e-10, _series_vs_closed(
        SeriesId.SKEW_OVER_N, ClosedFormId.EQ5)),
    IdentityId.EQ8: _Check(GridSpec(_T6), 1e-10, _series_vs_closed(
        SeriesId.CENTERED_OVER_N, ClosedFormId.EQ8)),
    # catalog orientation: weight (-1)^(n-1) flips the series sign
    IdentityId.EQ9: _Check(GridSpec((-1.0,)), 1e-9, _endpoint_const(
        SeriesId.CENTERED_OVER_N, _PI_SQ_OVER_12 - 0.5 * LOG2 * LOG2, -1.0)),
    IdentityId.EQ10: _Check(GridSpec((-1.0,)), 1e-9, _endpoint_const(
        SeriesId.SKEW_OVER_N, _PI_SQ_OVER_12 + 0.5 * LOG2 * LOG2, -1.0)),
    IdentityId.EQ11: _Check(GridSpec(_T6), 1e-10, _series_vs_closed(
        SeriesId.CENTERED_SHIFT, ClosedFormId.EQ11)),
    IdentityId.EQ12: _Check(GridSpec(_T6), 1e-10, _series_vs_closed(
        SeriesId.SKEW_SQ, ClosedFormId.EQ12)),
    IdentityId.EQ13: _Check(GridSpec(_T6), 1e-10, _series_vs_closed(
        SeriesId.CENTERED_SQ, ClosedFormId.EQ13)),
    IdentityId.EQ14_LEMMA6: _Check(GridSpec(n_range=(1, 1000)), 1e-12,
                                   _verify_eq14),
    IdentityId.EQ15: _Check(GridSpec((-1.0,)), 1e-10, _endpoint_const(
        SeriesId.CENTERED_SQ, _PI_SQ_OVER_6 / 4.0)),
    IdentityId.EQ16: _Check(GridSpec((1.0,)), 1e-8, _endpoint_const(
        SeriesId.CENTERED_SQ, LOG2)),
    IdentityId.EQ17: _Check(
        GridSpec((-0.9, -0.5, -0.1, 0.3, 0.7)), 1e-9, _series_vs_closed(
            SeriesId.CENTERED_SQ_SHIFT, ClosedFormId.EQ17)),
    IdentityId.EQ18: _Check(GridSpec((1.0,)), 1e-8, _endpoint_const(
        SeriesId.CENTERED_SQ_SHIFT, EQ18_VALUE)),
    IdentityId.EQ19: _Check(GridSpec((-1.0,)), 1e-8, _endpoint_const(
        SeriesId.CENTERED_SQ_SHIFT, EQ19_VALUE)),
    IdentityId.EQ20: _Check(
        GridSpec((-0.3, -0.1, 0.2, 0.5, 0.9)), 1e-9, _series_vs_closed(
            SeriesId.SKEW_OVER_NSQ, ClosedFormId.EQ20)),
    IdentityId.EQ21: _Check(GridSpec((0.25, 0.5, 0.8, 1.0)), 1e-8,
                            _pointwise(_eq21_sides)),
    IdentityId.EQ22: _Check(_MU_GRID, 1e-9, _with_series(
        SeriesId.MU_LEWIN, lambda s, mu, x: (
            s, closed_form(ClosedFormId.EQ22, x, mu=mu)))),
    IdentityId.EQ24: _Check(_MU_GRID, 1e-9, _with_series(
        SeriesId.MU_DILOG, lambda s, mu, x: (
            closed_form(ClosedFormId.EQ24, x, mu=mu), s))),
    IdentityId.EQ25_ABEL: _Check(_MU_GRID, 1e-9, _pointwise(
        lambda tol, mu, x: (*abel_sides(mu, x), ()))),
    IdentityId.EQ26: _Check(
        GridSpec((-0.3, 0.0, 0.25, 0.6, 0.9)), 1e-10, _pointwise(
            lambda tol, x: (li2(2.0 * x / (1.0 + x)),
                            closed_form(ClosedFormId.EQ26, x), ()))),
    IdentityId.EQ27_RAMANUJAN: _Check(
        GridSpec((-0.9, -0.6, -0.2, 0.0, 0.3, 0.6, 0.9)), 1e-10, _with_series(
            SeriesId.RAMANUJAN_ODD, lambda s, x: (
                closed_form(ClosedFormId.EQ27_RAMANUJAN, x), s))),
    # closed trilogarithm difference vs mu * series
    IdentityId.EQ28: _Check(_MU_GRID, 1e-9, _with_series(
        SeriesId.MU_TRILOG, lambda s, mu, x: (
            closed_form(ClosedFormId.EQ28, x, mu=mu), mu * s))),
    IdentityId.EQ29: _Check(
        GridSpec((-0.99, -0.5, 0.0, 0.5, 0.9)), 1e-8, _pointwise(
            lambda tol, z: _quad_vs(
                "quadrature double_integral_g",
                double_integral_g(z, _quad_cfg(tol)),
                closed_form(ClosedFormId.EQ29_G, z))),
        singular=_Z_ENDS),
    IdentityId.EQ30: _Check(
        GridSpec((-0.9, -0.5, 0.5, 0.9)), 1e-7, _pointwise(
            lambda tol, z: _quad_vs(
                "quadrature double_integral_bigG",
                double_integral_bigG(z, _quad_cfg(tol)),
                closed_form_eq17(z))),
        singular=_Z_ENDS),
    IdentityId.EQ31: _Check(_NO_PARAMS, 1e-8, _square_integral(
        "quadrature double_integral_eq31",
        lambda cfg: double_integral_eq31(cfg),
        0.875 * LOG2 * LOG2 + _PI / 8.0 * LOG2
        - 0.5 * CONSTANTS["CATALAN_G"] - _PI_SQ_OVER_6 / 8.0)),
    IdentityId.EQ32: _Check(_NO_PARAMS, 1e-8, _square_integral(
        "quadrature double_integral_eq32",
        lambda cfg: double_integral_eq32(cfg),
        _PI_SQ_OVER_12 * LOG2 + LOG2**3 / 3.0 - 0.5 * _ZETA3)),
    IdentityId.LANDEN: _Check(
        GridSpec((-0.99, -0.5, -0.1, 0.3, 0.9, 1.0)), 1e-10, _pointwise(
            lambda tol, x: (_li2_ext(x / (1.0 + x)),
                            closed_form(ClosedFormId.LANDEN, x), ()))),
    IdentityId.H_EVEN_ODD_SPLIT: _Check(GridSpec(n_range=(1, 5000)), 5e-14,
                                        _verify_split),
}


def verify_identity(
    identity: IdentityId,
    grid: GridSpec | None = None,
    tolerance: float | None = None,
) -> list[VerificationRecord]:
    """Check one identity over a grid; one record per evaluation point.

    The grid must be of the identity's kind, integers n_range or reals
    t_values, and a parameter-free identity (EQ31, EQ32) takes only its
    own (ValueError); a point outside the domain is a SKIPPED record.
    tolerance, when given, is checked like sum_series's tol: a bool or a
    non-real value raises DomainError, and it must be positive and finite
    (ValueError)."""
    row = _CHECKS[identity]
    if grid is None:
        grid = row.grid
    elif row.grid is _NO_PARAMS and grid != _NO_PARAMS:
        raise ValueError(f"{identity.name} has no parameters and takes no "
                         "grid")
    elif (grid.n_range is None) != (row.grid.n_range is None):
        kind = ("with an n_range" if row.grid.n_range
                else "of t_values, not an n_range")
        raise ValueError(f"{identity.name} takes a grid {kind}")
    if tolerance is None:
        tolerance = row.tolerance
    else:
        tolerance = check_real("tolerance", tolerance)
        if not (tolerance > 0.0 and math.isfinite(tolerance)):
            raise ValueError("tolerance must be a positive finite number")
    return row.run(identity, grid, tolerance)


def _correction_notes() -> list[str]:
    """Numeric evidence for the three corrected catalog entries."""
    notes = []

    a = int_li2_over_1mt(0.3, version="a")
    b_ok = int_li2_over_1mt(0.3, version="b")
    b_raw = b_ok + math.log1p(-0.3) * (_PI_SQ_OVER_6 - math.pi / 6.0)
    notes.append(
        "antiderivative version b uses pi^2/6, not pi/6, as the constant in "
        f"its log(1-x) coefficient: at x=0.3 versions a/b agree to "
        f"{abs(a - b_ok):.3e} with pi^2/6 but differ by {abs(a - b_raw):.3e} "
        "with pi/6."
    )

    mu, x = 0.5, 0.4
    rhs22 = closed_form(ClosedFormId.EQ22, x, mu=mu)
    ser22 = sum_series(SeriesId.MU_LEWIN, x, 1e-13, mu=mu).value
    notes.append(
        "EQ22 series weight is (-1)^(n-1) mu H_n^-(mu)/(n+1): pairing the "
        "inner sum written as sum_k (-1)^(k-1) mu^k/k (= +mu H_n^-(mu)) "
        f"with an outer (-1)^n weight flips the series sign. At "
        f"(mu,t)=({mu},{x}): |corrected - closed| = "
        f"{abs(ser22 - rhs22):.3e}, |sign-flipped - closed| = "
        f"{abs(-ser22 - rhs22):.3e}."
    )

    lhs28 = closed_form(ClosedFormId.EQ28, x, mu=mu)
    ser28 = sum_series(SeriesId.MU_TRILOG, x, 1e-13, mu=mu).value
    notes.append(
        "EQ28 needs an overall factor mu in front of the series (it is "
        "produced by integrating the EQ24 series, which carries mu). At "
        f"(mu,t)=({mu},{x}): |closed - mu*series| = "
        f"{abs(lhs28 - mu * ser28):.3e}, |closed - series| = "
        f"{abs(lhs28 - ser28):.3e}."
    )
    return notes


def summarize(records: list[VerificationRecord]) -> dict[str, dict[str, int]]:
    """Verdict counts per identity, in order of first appearance."""
    summary: dict[str, dict[str, int]] = {}
    for r in records:
        # _name_ is a plain attribute; the .name property costs a call
        name = r.identity._name_
        row = summary.get(name)
        if row is None:
            row = summary[name] = {"PASS": 0, "FAIL": 0, "SKIPPED": 0}
        row[r.verdict._name_] += 1
    return summary


def verify_all() -> Report:
    """Run every identity on its default grid and assemble a Report.

    Identities with a singular grid (EQ29/EQ30 at z = +-1) additionally get
    checked there, at their row tolerance.
    """
    records: list[VerificationRecord] = []
    for identity in IdentityId:
        records.extend(verify_identity(identity))
        singular = _CHECKS[identity].singular
        if singular is not None:
            records.extend(verify_identity(identity, singular))

    import datetime

    metadata = {
        "tolerances": {k.name: _CHECKS[k].tolerance
                       for k in sorted(IdentityId, key=lambda k: k.name)},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
    }
    return Report(records, summarize(records), metadata, _correction_notes())


_CSV_HEADER = ["identity", "params", "lhs", "rhs", "residual",
               "tolerance", "verdict"]


class _ByName(dict):
    """Enum members by name; an unknown name is a ValueError naming it."""

    def __missing__(self, name):
        raise ValueError(f"unknown identity or verdict name {name!r}")


_IDENTITY_BY_NAME = _ByName((m.name, m) for m in IdentityId)
_VERDICT_BY_NAME = _ByName((m.name, m) for m in Verdict)


def _format(fmt) -> str:
    """fmt, a str naming JSON or CSV in any case, as 'json' or 'csv'."""
    if isinstance(fmt, str) and fmt.lower() in ("json", "csv"):
        return fmt.lower()
    raise ValueError(f"format must be 'json' or 'csv', not {fmt!r}")


def _params_parse(s: str) -> tuple[tuple[str, float], ...]:
    if not s:
        return ()
    out = []
    try:
        for piece in s.split(";"):
            k, v = piece.split("=")
            out.append((k, float(v)))
    except ValueError:
        raise ValueError(
            f"params piece {piece!r} is not name=number") from None
    return tuple(out)


# Both writers work on columns: the records are transposed once, each
# column is turned into text by C-level maps, and every record is one
# %-template filled from the zipped columns.


def _columns(records) -> list[list]:
    """The eight record fields as columns.  (zip(*records) would hold an
    iterator per record, enough young objects to set off the collector.)"""
    return [list(map(itemgetter(i), records))
            for i in range(len(VerificationRecord._fields))]


def _texts(column, spell, scalar) -> list[str]:
    """The text of each value of a record column.  A column of floats is
    spelled by spell (floats -> texts); where values repeat, as tolerances
    and residuals do, once per distinct IEEE bit pattern, so 0.0 and -0.0,
    or two NaNs, never share a text.  Any other column (an int from a
    hand-made record, say) is spelled value by value by scalar."""
    if set(map(type, column)) - {float}:
        return list(map(scalar, column))
    if 2 * len(set(column)) > len(column):
        # mostly distinct (results, grid points): the lookups would cost more
        # than the spelling they save
        return list(spell(column))
    from array import array

    bits = array("Q", array("d", column).tobytes())
    distinct = dict(zip(bits, column))
    text = dict(zip(distinct, spell(distinct.values())))
    return list(map(text.__getitem__, bits))


def _params_texts(params, name_texts, value_texts, template) -> list[str]:
    """The text of each record's params.  The names and the values of all
    records are spelled as two columns, name_texts(names) and
    value_texts(values); a record of k pairs is template(k) filled with its
    name and value texts in turn."""
    sizes = list(map(len, params))
    pairs = list(chain.from_iterable(params))
    if set(map(len, pairs)) - {2}:
        raise ValueError("every params pair must be (name, value)")
    texts = chain.from_iterable(zip(
        name_texts(list(map(itemgetter(0), pairs))),
        value_texts(list(map(itemgetter(1), pairs)))))
    templates = {k: template(k) for k in set(sizes)}
    return list(map(str.__mod__, map(templates.__getitem__, sizes), map(
        tuple, map(islice, repeat(texts), map(mul, sizes, repeat(2))))))


# The JSON form is exactly json.dumps(obj, sort_keys=True, indent=2) of the
# report dict.  With indent set, json falls back to its pure-Python encoder,
# so the records list, which is nearly all of the output, is written here
# with that layout spelled out; strings go through json's own escaper and
# floats get json's spelling (float.__repr__, NaN, Infinity, -Infinity).
_JSON_FLOAT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_RECORD = (
    '    {\n      "identity": %s,\n      "lhs": %s,\n      "note": %s,\n'
    '      "params": %s,\n      "residual": %s,\n      "rhs": %s,\n'
    '      "tolerance": %s,\n      "verdict": %s\n    }')
_JSON_PARAM = '        [\n          %s,\n          %s\n        ]'
# the member names are ASCII identifiers: json.dumps only quotes them
_JSON_NAME = {m: '"%s"' % m.name for m in (*IdentityId, *Verdict)}


def _json_params(k: int) -> str:
    return "[\n" + ",\n".join([_JSON_PARAM] * k) + "\n      ]" if k else "[]"


def _json_records(records) -> str:
    import json
    from json.encoder import encode_basestring_ascii

    def floats(column):
        def spell(xs):
            reprs = list(map(float.__repr__, xs))
            return map(_JSON_FLOAT.get, reprs, reprs)
        return _texts(column, spell, json.dumps)

    def strings(column):
        """Notes and names: a few distinct strs, each escaped once."""
        if set(map(type, column)) - {str}:
            return list(map(json.dumps, column))
        distinct = set(column)
        text = dict(zip(distinct, map(encode_basestring_ascii, distinct)))
        return list(map(text.__getitem__, column))

    identity, params, lhs, rhs, residual, tol, verdict, note = \
        _columns(records)
    return ",\n".join(map(_JSON_RECORD.__mod__, zip(
        map(_JSON_NAME.__getitem__, identity), floats(lhs), strings(note),
        _params_texts(params, strings, floats, _json_params),
        floats(residual), floats(rhs), floats(tol),
        map(_JSON_NAME.__getitem__, verdict))))


def _json_report(report: Report) -> str:
    import json

    def nested(obj) -> str:
        """obj as json.dumps lays it out one level down; json escapes every
        newline inside a string, so each raw newline is layout."""
        return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n  ")

    records = _json_records(report.records)
    return "".join((
        '{\n  "metadata": ', nested(report.metadata),
        ',\n  "notes": ', nested(report.notes),
        ',\n  "records": ', "[\n" if records else "[]", records,
        "\n  ]" if records else "",
        ',\n  "summary": ', nested(report.summary), "\n}"))


# The CSV form is exactly what csv.writer(buf, lineterminator="\n") writes
# for the header and one row per record: the identity name, the params as
# name=value pieces joined by ";", the four floats as %.17g and the verdict
# name.  Only a params name can hold a character that calls for quoting:
# csv's QUOTE_MINIMAL, which this writer applies to a params field holding
# the delimiter, the quote character, CR or LF.
_CSV_RECORD = "%s,%s,%s,%s,%s,%s,%s\n"
_CSV_QUOTED = re.compile('[,"\r\n]')


def _csv_params(k: int) -> str:
    return ";".join(["%s=%s"] * k)


def _csv_quote(field: str) -> str:
    return '"%s"' % field.replace('"', '""')


def _csv_report(report: Report) -> str:
    def floats(column):
        return _texts(column, lambda xs: map("%.17g".__mod__, xs),
                      lambda x: format(x, ".17g"))

    identity, params, lhs, rhs, residual, tol, verdict, _ = \
        _columns(report.records)
    params = _params_texts(params, lambda names: map(format, names), floats,
                           _csv_params)
    special = set(filter(_CSV_QUOTED.search, params))
    quoted = dict(zip(special, map(_csv_quote, special)))
    name = attrgetter("_name_")
    return "".join(chain((",".join(_CSV_HEADER) + "\n",), map(
        _CSV_RECORD.__mod__, zip(
            map(name, identity), map(quoted.get, params, params),
            floats(lhs), floats(rhs), floats(residual), floats(tol),
            map(name, verdict)))))


def serialize_report(report: Report, fmt: str = "json") -> bytes:
    """The report as UTF-8 JSON or CSV bytes (fmt in any case)."""
    if _format(fmt) == "json":
        return _json_report(report).encode("utf-8")
    return _csv_report(report).encode("utf-8")


def parse_report(data: bytes | str, fmt: str = "json") -> Report:
    """Inverse of serialize_report.

    JSON round-trips the full report; CSV carries only the tabular record
    fields, so summary is recomputed and metadata/notes come back empty.
    A malformed report is a ValueError that names what is wrong: the
    missing JSON key or record field, or the CSV line.  Blank lines at the
    end of a CSV report are ignored.
    """
    fmt = _format(fmt)
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if fmt == "json":
        import json

        obj = json.loads(data)
        if not isinstance(obj, dict):
            raise ValueError("a JSON report must be an object")
        for key in ("records", "summary", "metadata"):
            if key not in obj:
                raise ValueError(f"JSON report has no {key!r} key")
        try:
            records = [
                VerificationRecord(
                    _IDENTITY_BY_NAME[d["identity"]],
                    tuple([(k, float(v)) for k, v in d["params"]]),
                    d["lhs"], d["rhs"], d["residual"], d["tolerance"],
                    _VERDICT_BY_NAME[d["verdict"]], d.get("note", ""),
                )
                for d in obj["records"]
            ]
        except KeyError as exc:
            key = exc.args[0]
            i = next(i for i, d in enumerate(obj["records"]) if key not in d)
            raise ValueError(
                f"JSON record {i} has no {key!r} field") from None
        return Report(records, obj["summary"], obj["metadata"],
                      obj.get("notes", []))
    import csv
    import io

    rows = csv.reader(io.StringIO(data.rstrip("\r\n")))
    if next(rows, None) != _CSV_HEADER:
        raise ValueError("bad CSV header")
    try:
        records = [
            VerificationRecord(
                _IDENTITY_BY_NAME[identity], _params_parse(params),
                float(lhs), float(rhs), float(residual), float(tol),
                _VERDICT_BY_NAME[verdict],
            )
            for identity, params, lhs, rhs, residual, tol, verdict in rows
        ]
    except (ValueError, csv.Error) as exc:
        line = rows.line_num
        rows = csv.reader(io.StringIO(data))
        row = next(row for row in rows if rows.line_num == line)
        if len(row) != len(_CSV_HEADER):
            raise ValueError(f"CSV line {line} has {len(row)} fields, "
                             f"expected {len(_CSV_HEADER)}") from None
        raise ValueError(f"CSV line {line}: {exc}") from None
    return Report(records, summarize(records), {}, [])


def identity_catalog() -> list[tuple[str, str]]:
    """(identity tag, grid description) rows in enum order."""
    out = []
    for identity in IdentityId:
        g = _CHECKS[identity].grid
        if g.n_range:
            desc = f"n in [{g.n_range[0]}, {g.n_range[1]}]"
        elif g.mu_values:
            desc = (f"mu in {{{', '.join(f'{m:g}' for m in g.mu_values)}}} x "
                    f"t in {{{', '.join(f'{t:g}' for t in g.t_values)}}}")
        else:
            desc = f"t in {{{', '.join(f'{t:g}' for t in g.t_values)}}}"
        out.append((identity.name, desc))
    return out
