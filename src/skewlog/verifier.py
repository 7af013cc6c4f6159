"""Identity verification harness.

Every cataloged identity gets checked on a default grid at a default
tolerance; results come back as flat records (one per evaluation point)
that serialize deterministically to JSON or CSV.  Failures never abort a
run: each record carries its own verdict, and grid points outside a
participant's domain produce SKIPPED records with a reason.

The report's notes section documents the three catalog corrections shipped
in closed_forms, each with numeric evidence computed at report time.
"""

from __future__ import annotations

import datetime
import enum
import io
import json
import math
import csv as csv_mod
from json.encoder import encode_basestring_ascii
from dataclasses import dataclass, field
from typing import Callable

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
    CONSTANTS,
    LOG2,
    digamma_half_diff,
    harmonic,
    harmonic2,
    skew_harmonic,
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


@dataclass(frozen=True)
class VerificationRecord:
    identity: IdentityId
    params: tuple[tuple[str, float], ...]
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    verdict: Verdict
    note: str = ""


@dataclass(frozen=True)
class GridSpec:
    t_values: tuple[float, ...] = ()
    mu_values: tuple[float, ...] = ()
    n_range: tuple[int, int] | None = None


@dataclass
class Report:
    records: list[VerificationRecord]
    summary: dict[str, dict[str, int]]
    metadata: dict
    notes: list[str] = field(default_factory=list)


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


def _verify_eq1(identity, grid, tol):
    lo, hi = grid.n_range
    out = []
    for n in range(lo, hi + 1):
        lhs = digamma_half_diff(n)
        sign = 1.0 if n % 2 == 1 else -1.0
        rhs = 2.0 * sign * (LOG2 - skew_harmonic(n - 1))
        out.append(_rec(identity, (("n", float(n)),), lhs, rhs, tol))
    return out


def _verify_eq14(identity, grid, tol):
    lo, hi = grid.n_range
    out = []
    s = 0.0
    comp = 0.0
    for n in range(1, hi + 1):
        term = skew_harmonic(n) / n
        if n % 2 == 0:
            term = -term
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if n >= lo:
            lhs = 2.0 * s
            rhs = skew_harmonic(n) ** 2 + harmonic2(n)
            out.append(_rec(identity, (("n", float(n)),), lhs, rhs, tol))
    return out


def _verify_split(identity, grid, tol):
    lo, hi = grid.n_range
    out = []
    for n in range(lo, hi + 1):
        le, re_ = skew_harmonic(2 * n), harmonic(2 * n) - harmonic(n)
        lo_, ro = skew_harmonic(2 * n + 1), harmonic(2 * n + 1) - harmonic(n)
        if abs(le - re_) >= abs(lo_ - ro):
            out.append(_rec(identity, (("n", float(n)),), le, re_, tol,
                            "even half (odd half residual is smaller)"))
        else:
            out.append(_rec(identity, (("n", float(n)),), lo_, ro, tol,
                            "odd half (even half residual is smaller)"))
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


def _square_integral(label: str, integral, rhs: float):
    """A parameter-free double integral against its known value."""
    def check(identity, grid, tol):
        quad = integral(_quad_cfg(tol))
        return [_rec(identity, (), quad.value, rhs, tol,
                     parts=((label, quad),))]
    return check


@dataclass(frozen=True)
class _Check:
    """One catalog row: run(identity, grid, tol) checks the identity on a
    grid; a singular grid (the integrable corners z = +-1) is checked as
    well by verify_all, at the same tolerance, but is not part of the
    default grid of verify_identity."""

    grid: GridSpec
    tolerance: float
    run: Callable[[IdentityId, GridSpec, float], list[VerificationRecord]]
    singular: GridSpec | None = None


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
    IdentityId.EQ31: _Check(GridSpec((0.0,)), 1e-8, _square_integral(
        "quadrature double_integral_eq31",
        lambda cfg: double_integral_eq31(cfg),
        0.875 * LOG2 * LOG2 + _PI / 8.0 * LOG2
        - 0.5 * CONSTANTS["CATALAN_G"] - _PI_SQ_OVER_6 / 8.0)),
    IdentityId.EQ32: _Check(GridSpec((0.0,)), 1e-8, _square_integral(
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
    """Check one identity over a grid; one record per evaluation point."""
    row = _CHECKS[identity]
    return row.run(identity, row.grid if grid is None else grid,
                   row.tolerance if tolerance is None else tolerance)


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


def _params_str(params: tuple[tuple[str, float], ...]) -> str:
    return ";".join(f"{k}={v:.17g}" for k, v in params)


def _params_parse(s: str) -> tuple[tuple[str, float], ...]:
    if not s:
        return ()
    out = []
    for piece in s.split(";"):
        k, v = piece.split("=")
        out.append((k, float(v)))
    return tuple(out)


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
_JSON_NAME = {m: json.dumps(m.name) for m in (*IdentityId, *Verdict)}


def _json_scalar(x) -> str:
    """x as json.dumps writes it."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if isinstance(x, float):
        s = float.__repr__(x)
        return _JSON_FLOAT.get(s, s)
    return json.dumps(x)


def _json_params(params) -> str:
    if not params:
        return "[]"
    return "[\n" + ",\n".join([
        _JSON_PARAM % (_json_scalar(k), _json_scalar(v)) for k, v in params
    ]) + "\n      ]"


def _json_nested(obj) -> str:
    """obj as json.dumps lays it out one level down; json escapes every
    newline inside a string, so each raw newline is layout."""
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n  ")


def _json_report(report: Report) -> str:
    spell = _JSON_FLOAT.get
    rep = float.__repr__
    out = []
    for r in report.records:
        try:
            lhs, rhs = rep(r.lhs), rep(r.rhs)
            residual, tol = rep(r.residual), rep(r.tolerance)
        except TypeError:  # not a float: ints, bools, None
            lhs, rhs = _json_scalar(r.lhs), _json_scalar(r.rhs)
            residual, tol = _json_scalar(r.residual), _json_scalar(r.tolerance)
        out.append(_JSON_RECORD % (
            _JSON_NAME[r.identity], spell(lhs, lhs), _json_scalar(r.note),
            _json_params(r.params), spell(residual, residual),
            spell(rhs, rhs), spell(tol, tol), _JSON_NAME[r.verdict]))
    records = "[\n" + ",\n".join(out) + "\n  ]" if out else "[]"
    return ('{\n  "metadata": ' + _json_nested(report.metadata)
            + ',\n  "notes": ' + _json_nested(report.notes)
            + ',\n  "records": ' + records
            + ',\n  "summary": ' + _json_nested(report.summary) + "\n}")


def serialize_report(report: Report, fmt: str = "json") -> bytes:
    fmt = fmt.lower()
    if fmt == "json":
        return _json_report(report).encode("utf-8")
    if fmt == "csv":
        buf = io.StringIO()
        w = csv_mod.writer(buf, lineterminator="\n")
        w.writerow(_CSV_HEADER)
        w.writerows([
            (r.identity._name_, _params_str(r.params), f"{r.lhs:.17g}",
             f"{r.rhs:.17g}", f"{r.residual:.17g}", f"{r.tolerance:.17g}",
             r.verdict._name_)
            for r in report.records])
        return buf.getvalue().encode("utf-8")
    raise ValueError("format must be 'json' or 'csv'")


def parse_report(data: bytes | str, fmt: str = "json") -> Report:
    """Inverse of serialize_report.

    JSON round-trips the full report; CSV carries only the tabular record
    fields, so summary is recomputed and metadata/notes come back empty.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    fmt = fmt.lower()
    if fmt == "json":
        obj = json.loads(data)
        records = [
            VerificationRecord(
                _IDENTITY_BY_NAME[d["identity"]],
                tuple([(k, float(v)) for k, v in d["params"]]),
                d["lhs"], d["rhs"], d["residual"], d["tolerance"],
                _VERDICT_BY_NAME[d["verdict"]], d.get("note", ""),
            )
            for d in obj["records"]
        ]
        return Report(records, obj["summary"], obj["metadata"],
                      obj.get("notes", []))
    if fmt == "csv":
        rows = csv_mod.reader(io.StringIO(data))
        if next(rows, None) != _CSV_HEADER:
            raise ValueError("bad CSV header")
        records = [
            VerificationRecord(
                _IDENTITY_BY_NAME[identity], _params_parse(params),
                float(lhs), float(rhs), float(residual), float(tol),
                _VERDICT_BY_NAME[verdict],
            )
            for identity, params, lhs, rhs, residual, tol, verdict in rows
        ]
        return Report(records, summarize(records), {}, [])
    raise ValueError("format must be 'json' or 'csv'")


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
