"""Identity verification harness.

Every cataloged identity gets checked on its grid at its tolerance, both
from the catalog; results come back as flat records (one per evaluation
point), gathered into a report.  Failures never abort a run: each record
carries its own verdict, and grid points outside a participant's domain
produce SKIPPED records with a reason.

The report's notes section documents the three catalog corrections shipped
in closed_forms, each with numeric evidence computed at report time.
verify_all imports datetime for the report's timestamp.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, ge, getitem, mul, sub

from ._version import __version__
from .catalog import IDENTITIES, NO_PARAMS, GridSpec, IdentityId, lookup
from .closed_forms import (
    ClosedFormId,
    EQ18_VALUE,
    EQ19_VALUE,
    abel_sides,
    closed_form,
    int_li2_over_1mt,
)
from .core_numerics import (
    _CACHE,
    CONSTANTS,
    LOG2,
    check_int,
    check_real,
    check_tol,
    digamma_half_diff,
    skew_gaps,
)
from .errors import DomainError
from .polylog import li2_real
from .quadrature import (
    QuadratureConfig,
    double_integral_bigG,
    double_integral_eq31,
    double_integral_eq32,
    double_integral_g,
    integrate_1d,
)
# perfbench reads parse_report and serialize_report off this module
from .report import (
    Report, Verdict, VerificationRecord, _n_params, parse_report,
    serialize_report, summarize)
from .result import Status
from .series_engine import SeriesId, sum_series

_PI_SQ_OVER_6 = CONSTANTS["PI_SQ_OVER_6"]
_PI_SQ_OVER_12 = CONSTANTS["PI_SQ_OVER_12"]
_LI2_HALF = CONSTANTS["LI2_HALF"]
_ZETA3 = CONSTANTS["ZETA3"]
_PI = CONSTANTS["PI"]


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
    """Record params of every grid point: (t,), or (mu, t) with mu outer,
    each value checked by check_real."""
    if grid.mu_values:
        for mu in grid.mu_values:
            for x in grid.t_values:
                yield (("mu", check_real("grid mu", mu)),
                       ("t", check_real("grid t", x)))
    else:
        for t in grid.t_values:
            yield (("t", check_real("grid t", t)),)


def _pointwise(sides):
    """Check that sides(tol, *point) returns two equal values at every grid
    point, as (lhs, rhs, parts) with parts as in _rec; a DomainError makes
    the point a SKIPPED record."""
    def check(identity, grid, tol):
        out = []
        for params in _points(grid):
            try:
                lhs, rhs, parts = sides(tol, *(v for _, v in params))
            except DomainError as exc:
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


def _direct_vs_closed(direct, cid: ClosedFormId):
    """direct(t) against the closed form cid at t, which goes first: its
    DomainError skips a point outside its domain before direct runs."""
    def sides(tol, t):
        rhs = closed_form(cid, t)
        return direct(t), rhs, ()
    return _pointwise(sides)


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
    point by point, built by C-level maps.  Each n's params is the one
    object of report's n table."""
    if residual is None:
        residual = list(map(abs, map(sub, lhs, rhs)))
    params = _n_params(first, first + len(lhs))
    verdicts = map(_VERDICTS.__getitem__, map(tol.__ge__, residual))
    return list(map(tuple.__new__, repeat(VerificationRecord), zip(
        repeat(identity), params, lhs, rhs, residual, repeat(tol), verdicts,
        repeat("") if notes is None else notes)))


def _n_range(identity, grid, tol, first, reason):
    """The grid's n_range (lo, hi) as (SKIPPED records for its n < first,
    outside the domain, max(lo, first), hi).  lo and hi must be integers
    with hi >= lo."""
    lo, hi = grid.n_range
    lo = check_int("n_range start", lo, None)
    hi = check_int("n_range end", hi, lo)
    return ([_skip(identity, (("n", float(n)),), tol, reason)
             for n in range(lo, min(first, hi + 1))], max(lo, first), hi)


def _verify_eq1(identity, grid, tol):
    out, first, hi = _n_range(identity, grid, tol, 1,
                              "n must be an integer >= 1")
    if first <= hi:
        lhs = list(map(digamma_half_diff, range(first, hi + 1)))
        # 2 c_(n-1) = 2 (-1)^(n-1) (log 2 - H_(n-1)^-)
        rhs = list(map(mul, repeat(2.0), map(abs, skew_gaps(first - 1, hi))))
        out += _n_records(identity, first, lhs, rhs, tol)
    return out


def _verify_eq14(identity, grid, tol):
    out, first, hi = _n_range(identity, grid, tol, 0, "n must be >= 0")
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
    out, first, hi = _n_range(identity, grid, tol, 0, "n must be >= 0")
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
        math.log(x) * (li2_real(0.5 * (1.0 - x)) - _LI2_HALF)
        + LOG2 * li2_real(x)
        - quad.value
    )
    return series.value, rhs, (("series SKEW_OVER_NSQ", series),
                               ("quadrature integrate_1d", quad))


def _square_integral(label: str, integral, rhs: float):
    """A parameter-free double integral against its known value."""
    def check(identity, grid, tol):
        quad = integral(_quad_cfg(tol))
        return [_rec(identity, (), quad.value, rhs, tol,
                     parts=((label, quad),))]
    return check


# run(identity, grid, tol) of each identity, which checks it on a grid.
# Lambdas look their callees up when they run, so wrappers installed on
# other modules' functions (tracing) still see every call.
_CHECKS = {
    IdentityId.EQ1_DIGAMMA: _verify_eq1,
    IdentityId.EQ2: _series_vs_closed(SeriesId.GF_SKEW, ClosedFormId.EQ2),
    IdentityId.EQ3: _series_vs_closed(SeriesId.GF_CENTERED, ClosedFormId.EQ3),
    IdentityId.EQ4: _endpoint_const(SeriesId.GF_CENTERED, -0.5),
    IdentityId.EQ5: _series_vs_closed(SeriesId.SKEW_OVER_N, ClosedFormId.EQ5),
    IdentityId.EQ8: _series_vs_closed(
        SeriesId.CENTERED_OVER_N, ClosedFormId.EQ8),
    # catalog orientation: weight (-1)^(n-1) flips the series sign
    IdentityId.EQ9: _endpoint_const(
        SeriesId.CENTERED_OVER_N, _PI_SQ_OVER_12 - 0.5 * LOG2 * LOG2, -1.0),
    IdentityId.EQ10: _endpoint_const(
        SeriesId.SKEW_OVER_N, _PI_SQ_OVER_12 + 0.5 * LOG2 * LOG2, -1.0),
    IdentityId.EQ11: _series_vs_closed(
        SeriesId.CENTERED_SHIFT, ClosedFormId.EQ11),
    IdentityId.EQ12: _series_vs_closed(SeriesId.SKEW_SQ, ClosedFormId.EQ12),
    IdentityId.EQ13: _series_vs_closed(
        SeriesId.CENTERED_SQ, ClosedFormId.EQ13),
    IdentityId.EQ14_LEMMA6: _verify_eq14,
    IdentityId.EQ15: _endpoint_const(
        SeriesId.CENTERED_SQ, _PI_SQ_OVER_6 / 4.0),
    IdentityId.EQ16: _endpoint_const(SeriesId.CENTERED_SQ, LOG2),
    IdentityId.EQ17: _series_vs_closed(
        SeriesId.CENTERED_SQ_SHIFT, ClosedFormId.EQ17),
    IdentityId.EQ18: _endpoint_const(SeriesId.CENTERED_SQ_SHIFT, EQ18_VALUE),
    IdentityId.EQ19: _endpoint_const(SeriesId.CENTERED_SQ_SHIFT, EQ19_VALUE),
    IdentityId.EQ20: _series_vs_closed(
        SeriesId.SKEW_OVER_NSQ, ClosedFormId.EQ20),
    IdentityId.EQ21: _pointwise(_eq21_sides),
    IdentityId.EQ22: _with_series(SeriesId.MU_LEWIN, lambda s, mu, x: (
        s, closed_form(ClosedFormId.EQ22, x, mu=mu))),
    IdentityId.EQ24: _with_series(SeriesId.MU_DILOG, lambda s, mu, x: (
        closed_form(ClosedFormId.EQ24, x, mu=mu), s)),
    IdentityId.EQ25_ABEL: _pointwise(
        lambda tol, mu, x: (*abel_sides(mu, x), ())),
    IdentityId.EQ26: _direct_vs_closed(
        lambda x: li2_real(2.0 * x / (1.0 + x)), ClosedFormId.EQ26),
    IdentityId.EQ27_RAMANUJAN: _with_series(
        SeriesId.RAMANUJAN_ODD, lambda s, x: (
            closed_form(ClosedFormId.EQ27_RAMANUJAN, x), s)),
    # closed trilogarithm difference vs mu * series
    IdentityId.EQ28: _with_series(SeriesId.MU_TRILOG, lambda s, mu, x: (
        closed_form(ClosedFormId.EQ28, x, mu=mu), mu * s)),
    IdentityId.EQ29: _pointwise(lambda tol, z: _quad_vs(
        "quadrature double_integral_g", double_integral_g(z, _quad_cfg(tol)),
        closed_form(ClosedFormId.EQ29_G, z))),
    IdentityId.EQ30: _pointwise(lambda tol, z: _quad_vs(
        "quadrature double_integral_bigG",
        double_integral_bigG(z, _quad_cfg(tol)),
        closed_form(ClosedFormId.EQ30_BIGG, z))),
    IdentityId.EQ31: _square_integral(
        "quadrature double_integral_eq31",
        lambda cfg: double_integral_eq31(cfg),
        0.875 * LOG2 * LOG2 + _PI / 8.0 * LOG2
        - 0.5 * CONSTANTS["CATALAN_G"] - _PI_SQ_OVER_6 / 8.0),
    IdentityId.EQ32: _square_integral(
        "quadrature double_integral_eq32",
        lambda cfg: double_integral_eq32(cfg),
        _PI_SQ_OVER_12 * LOG2 + LOG2**3 / 3.0 - 0.5 * _ZETA3),
    IdentityId.LANDEN: _direct_vs_closed(
        lambda x: li2_real(x / (1.0 + x)), ClosedFormId.LANDEN),
    IdentityId.H_EVEN_ODD_SPLIT: _verify_split,
}


def _kind(grid: GridSpec) -> str:
    if grid.n_range is not None:
        return "n_range"
    return "t_values x mu_values" if grid.mu_values else "t_values"


def verify_identity(
    identity: IdentityId,
    grid: GridSpec | None = None,
    tolerance: float | None = None,
) -> list[VerificationRecord]:
    """Check one identity over a grid; one record per evaluation point.

    The grid must be of the identity's kind, integers n_range, reals
    t_values, or t_values crossed with mu_values, and a parameter-free
    identity (EQ31, EQ32) takes only its own (ValueError); a point outside
    the domain is a SKIPPED record.  A bool or non-real grid value, an
    n_range (lo, hi) that is not two integers with hi >= lo, and a
    tolerance (when given) that is not a positive finite real raise
    DomainError.  An identity that is not an IdentityId, or a grid that is
    not a GridSpec, is a ValueError."""
    run = lookup(_CHECKS, identity, "identity")
    row = IDENTITIES[identity.name]
    if grid is None:
        grid = row.grid
    elif not isinstance(grid, GridSpec):
        raise ValueError(f"{identity.name} takes a GridSpec grid, not "
                         f"{type(grid).__name__}")
    elif row.grid is NO_PARAMS and (
            # == alone would take False or 0 for NO_PARAMS's 0.0
            grid != NO_PARAMS or type(grid.t_values[0]) is not float):
        raise ValueError(f"{identity.name} has no parameters and takes no "
                         "grid")
    elif _kind(grid) != _kind(row.grid):
        raise ValueError(f"{identity.name} takes a grid of "
                         f"{_kind(row.grid)}, not of {_kind(grid)}")
    if tolerance is None:
        tolerance = row.tolerance
    else:
        tolerance = check_tol("tolerance", tolerance)
    return run(identity, grid, tolerance)


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


def verify_all() -> Report:
    """Run every identity on its default grid and assemble a Report.

    Identities with a singular grid (EQ29/EQ30 at z = +-1) additionally get
    checked there, at their row tolerance.
    """
    records: list[VerificationRecord] = []
    for identity in IdentityId:
        records.extend(verify_identity(identity))
        singular = IDENTITIES[identity.name].singular
        if singular is not None:
            records.extend(verify_identity(identity, singular))

    import datetime

    metadata = {
        "tolerances": {name: IDENTITIES[name].tolerance
                       for name in sorted(IDENTITIES)},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
    }
    return Report(records, summarize(records), metadata, _correction_notes())

