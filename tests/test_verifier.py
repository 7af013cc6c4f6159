"""Identity verification runs, report structure, and serialization round-trips."""

import csv
import io
import json
import math
import operator

import pytest

from skewlog import (
    DomainError,
    GridSpec,
    IdentityId,
    QuadratureConfig,
    Report,
    SeriesId,
    Verdict,
    VerificationRecord,
    parse_report,
    set_max_terms,
    sum_series,
    verify_all,
    verify_identity,
)
from skewlog.catalog import CLOSED_FORMS, IDENTITIES, NO_PARAMS
from skewlog.report import _N_TERMS, _n_params, serialize_report, summarize


def test_single_identity_run():
    recs = verify_identity(IdentityId.EQ15)
    assert len(recs) == 1
    rec = recs[0]
    assert rec.verdict is Verdict.PASS
    assert rec.residual == pytest.approx(abs(rec.lhs - rec.rhs), abs=1e-18)
    assert rec.residual <= rec.tolerance


def test_grid_identity_run():
    recs = verify_identity(IdentityId.EQ13)
    assert len(recs) >= 4
    for rec in recs:
        assert rec.verdict is Verdict.PASS
        assert rec.identity is IdentityId.EQ13
        assert rec.params  # every record carries its evaluation point


def test_custom_grid_and_skip():
    # a point outside the series domain must be reported as SKIPPED, not FAIL
    recs = verify_identity(IdentityId.EQ13, grid=GridSpec(t_values=(0.5, 1.5)))
    verdicts = {v.verdict for v in recs}
    assert Verdict.PASS in verdicts
    assert Verdict.SKIPPED in verdicts
    skipped = [r for r in recs if r.verdict is Verdict.SKIPPED]
    assert all(r.residual == 0.0 for r in skipped)
    assert all(r.note for r in skipped)


def test_integer_grid_outside_the_domain_is_skipped():
    # one record per n; an n outside the domain is SKIPPED with the reason,
    # never an exception and never a read of a negative cache index
    def split(recs):
        return [(dict(r.params)["n"], r.verdict, r.note) for r in recs]

    eq1 = verify_identity(IdentityId.EQ1_DIGAMMA, GridSpec(n_range=(0, 2)))
    assert [r[:2] for r in split(eq1)] == [
        (0.0, Verdict.SKIPPED), (1.0, Verdict.PASS), (2.0, Verdict.PASS)]
    assert eq1[0].note == "n must be an integer >= 1"
    assert eq1[1:] == verify_identity(IdentityId.EQ1_DIGAMMA,
                                      GridSpec(n_range=(1, 2)))
    for identity in (IdentityId.H_EVEN_ODD_SPLIT, IdentityId.EQ14_LEMMA6):
        recs = verify_identity(identity, GridSpec(n_range=(-2, 2)))
        assert [r[:2] for r in split(recs)] == [
            (-2.0, Verdict.SKIPPED), (-1.0, Verdict.SKIPPED),
            (0.0, Verdict.PASS), (1.0, Verdict.PASS), (2.0, Verdict.PASS)]
        assert {r.note for r in recs[:2]} == {"n must be >= 0"}
        assert recs[2].lhs == recs[2].rhs == 0.0  # the empty sums
        assert recs[3:] == verify_identity(identity, GridSpec(n_range=(1, 2)))
        # a grid wholly below the domain
        assert [r[1] for r in split(verify_identity(
            identity, GridSpec(n_range=(-3, -2))))] == [Verdict.SKIPPED] * 2


def test_grid_kind_must_match_the_identity():
    with pytest.raises(ValueError, match="n_range"):
        verify_identity(IdentityId.EQ2, GridSpec(n_range=(1, 3)))
    with pytest.raises(ValueError, match="n_range"):
        verify_identity(IdentityId.H_EVEN_ODD_SPLIT, GridSpec(t_values=(0.5,)))
    with pytest.raises(ValueError, match="n_range"):
        verify_identity(IdentityId.EQ1_DIGAMMA, GridSpec())
    # mu_values where the identity takes none, or none where it takes them:
    # refused before any evaluation, not a TypeError from a participant
    for identity, grid in ((IdentityId.EQ25_ABEL, GridSpec((0.5,))),
                           (IdentityId.EQ22, GridSpec((0.5,))),
                           (IdentityId.EQ26, GridSpec((0.5,), (0.3,))),
                           (IdentityId.EQ2, GridSpec((0.5,), (0.3,)))):
        with pytest.raises(ValueError, match=f"{identity.name} takes a grid "
                                             "of t_values.*not of t_values"):
            verify_identity(identity, grid)


def test_grid_is_a_gridspec():
    # a plain tuple, even one equal to a GridSpec, or any other object is
    # refused before its fields are read
    for identity, grid in ((IdentityId.EQ2, ((0.5,), (), None)),
                           (IdentityId.EQ31, tuple(NO_PARAMS)),
                           (IdentityId.EQ1_DIGAMMA, {"n_range": (1, 3)}),
                           (IdentityId.EQ22, [(0.5,), (0.3,)])):
        with pytest.raises(ValueError, match=f"^{identity.name} takes a "
                                             "GridSpec grid, not "):
            verify_identity(identity, grid)


@pytest.mark.parametrize("identity", [IdentityId.EQ31, IdentityId.EQ32])
def test_parameter_free_identity_takes_no_grid(identity):
    # a grid would be ignored: one record with params () whatever it holds
    # (False and 0 compare equal to its one value 0.0)
    for grid in (GridSpec((0.1, 0.2, 0.3)), GridSpec((0.0,), (0.5,)),
                 GridSpec(n_range=(1, 3)), GridSpec(), GridSpec((False,)),
                 GridSpec((0,))):
        with pytest.raises(ValueError, match=identity.name):
            verify_identity(identity, grid)
    for grid in (GridSpec((0.0,)), NO_PARAMS, None):  # its own grid
        [rec] = verify_identity(identity, grid)
        assert rec.params == () and rec.verdict is Verdict.PASS


@pytest.mark.parametrize("identity", [
    IdentityId.EQ1_DIGAMMA, IdentityId.EQ14_LEMMA6,
    IdentityId.H_EVEN_ODD_SPLIT])
def test_integer_grid_records_are_whole(identity):
    # records built column by column hold what a point-by-point check
    # gives: the residual of their sides, its verdict, one point each
    recs = verify_identity(identity, GridSpec(n_range=(-2, 300)),
                           tolerance=2e-16)
    assert [r.params for r in recs] == [
        (("n", float(n)),) for n in range(-2, 301)]
    verdicts = {r.verdict for r in recs}
    assert {Verdict.PASS, Verdict.FAIL} <= verdicts
    for r in recs:
        assert type(r) is VerificationRecord and r.identity is identity
        assert r.tolerance == 2e-16
        if r.verdict is Verdict.SKIPPED:
            continue
        assert r.residual == abs(r.lhs - r.rhs)
        assert r.verdict is (Verdict.PASS if r.residual <= 2e-16
                             else Verdict.FAIL)
        assert ("half" in r.note) == (identity is IdentityId.H_EVEN_ODD_SPLIT)


def test_custom_tolerance_can_fail():
    recs = verify_identity(IdentityId.EQ13, tolerance=1e-18)
    assert any(r.verdict is Verdict.FAIL for r in recs)


# Every tolerance argument, with the value left free.
TOL_ENTRY_POINTS = {
    "sum_series tol": lambda x: sum_series(SeriesId.GF_SKEW, 0.5, tol=x),
    "verify_identity tolerance": lambda x: verify_identity(
        IdentityId.EQ2, tolerance=x),
    "QuadratureConfig abs_tol": lambda x: QuadratureConfig(abs_tol=x),
    "QuadratureConfig rel_tol": lambda x: QuadratureConfig(rel_tol=x),
}


def test_tolerance_validation():
    # one check for every tolerance: a real, positive and finite, and at or
    # above the floor 1e-15 in QuadratureConfig
    for name, entry in TOL_ENTRY_POINTS.items():
        for bad in (True, "1e-9", 0, -1, math.nan, math.inf):
            with pytest.raises(DomainError, match=name.split()[-1]):
                entry(bad)
        if name.startswith("QuadratureConfig"):
            entry(1e-15)
            with pytest.raises(DomainError, match="1e-15"):
                entry(math.nextafter(1e-15, 0.0))
    recs = verify_identity(IdentityId.EQ15, tolerance=1)
    assert [type(r.tolerance) for r in recs] == [float]


def test_nan_grid_point_is_skipped():
    # grid values go through check_real: a NaN is a real number, so its
    # point is SKIPPED rather than refused, and an int becomes a float
    recs = verify_identity(IdentityId.EQ2, GridSpec((math.nan, 0)))
    assert [r.verdict for r in recs] == [Verdict.SKIPPED, Verdict.PASS]
    assert [type(r.params[0][1]) for r in recs] == [float, float]
    [rec] = verify_identity(IdentityId.EQ22, GridSpec((0.5,), (math.nan,)))
    assert rec.verdict is Verdict.SKIPPED


@pytest.mark.parametrize("identity,t", [
    (IdentityId.LANDEN, -1.0), (IdentityId.LANDEN, -3.0),
    (IdentityId.EQ26, -1.0), (IdentityId.EQ26, -0.9), (IdentityId.EQ26, 5.0),
])
def test_direct_side_waits_for_the_closed_form(identity, t):
    # the closed form is checked first, so a point outside its domain is
    # SKIPPED with its text before x/(1+x) or 2x/(1+x) divides by 1 + t
    [rec] = verify_identity(identity, GridSpec((t,)))
    assert rec.verdict is Verdict.SKIPPED
    assert rec.note == f"{identity.name} requires {CLOSED_FORMS[identity.name]}"


def test_records_and_reports_are_plain_values():
    rec = VerificationRecord(IdentityId.EQ4, (("t", 1.0),), 1.0, 1.0, 0.0,
                             1e-9, Verdict.PASS)
    assert rec.note == ""
    assert rec == VerificationRecord(
        identity=IdentityId.EQ4, params=(("t", 1.0),), lhs=1.0, rhs=1.0,
        residual=0.0, tolerance=1e-9, verdict=Verdict.PASS, note="")
    assert repr(rec).startswith("VerificationRecord(identity=<IdentityId.EQ4")
    with pytest.raises(AttributeError):
        rec.lhs = 2.0
    assert GridSpec() == GridSpec((), (), None)
    report = Report([rec], summarize([rec]), {"version": "x"})
    assert report.notes == []
    assert report == Report([rec], summarize([rec]), {"version": "x"}, [])
    assert report != Report([], {}, {"version": "x"})
    assert repr(report) == (f"Report(records=[{rec!r}], summary="
                            f"{report.summary!r}, metadata={{'version': "
                            "'x'}, notes=[])")
    with pytest.raises(TypeError):
        hash(report)


def test_unconverged_participant_fails_the_record():
    # At 120 terms GF_SKEW stops at the cap for |t| = 0.9; at tolerance
    # 3e-5 the t = 0.9 residual (2.2e-5) would still pass on its own.
    set_max_terms(120)
    recs = {dict(r.params)["t"]: r for r in
            verify_identity(IdentityId.EQ2, tolerance=3e-5)}
    for t in (-0.9, 0.9):
        rec = recs[t]
        assert rec.residual <= rec.tolerance
        assert rec.verdict is Verdict.FAIL
        assert rec.note == "series GF_SKEW did not converge: MAX_TERMS"
    assert recs[0.5].verdict is Verdict.PASS
    assert recs[0.5].note == ""


def test_records_are_deterministic():
    a = verify_identity(IdentityId.EQ20)
    b = verify_identity(IdentityId.EQ20)
    assert a == b


def test_full_report_all_pass(full_report):
    assert full_report.records
    # summary is keyed by identity, with verdict counts inside
    counts = {}
    for rec in full_report.records:
        per = counts.setdefault(rec.identity.name, {"PASS": 0, "FAIL": 0, "SKIPPED": 0})
        per[rec.verdict.name] += 1
    assert counts == full_report.summary
    assert all(per["FAIL"] == 0 for per in full_report.summary.values())


def test_full_report_covers_every_identity(full_report):
    seen = {rec.identity for rec in full_report.records}
    assert seen == set(IdentityId)


def test_report_metadata_and_notes(full_report):
    assert "tolerances" in full_report.metadata
    assert "version" in full_report.metadata
    # the three documented catalog corrections ship as notes with evidence
    assert len(full_report.notes) == 3
    joined = " ".join(full_report.notes)
    assert "corrected" in joined


def test_json_round_trip(full_report):
    blob = serialize_report(full_report, "json")
    assert blob == _reference_json(full_report)
    parsed = json.loads(blob)
    assert set(parsed) == {"metadata", "notes", "records", "summary"}
    restored = parse_report(blob, "json")
    assert restored.records == full_report.records
    assert restored.summary == full_report.summary
    assert restored.notes == full_report.notes


def test_json_is_stable(full_report):
    a = serialize_report(full_report, "json")
    b = serialize_report(full_report, "json")
    assert a == b


def test_csv_round_trip(full_report):
    blob = serialize_report(full_report, "csv")
    lines = blob.decode().splitlines()
    assert lines[0] == "identity,params,lhs,rhs,residual,tolerance,verdict"
    assert len(lines) == len(full_report.records) + 1
    restored = parse_report(blob, "csv")
    assert len(restored.records) == len(full_report.records)
    for orig, back in zip(full_report.records, restored.records):
        assert back.identity == orig.identity
        assert back.lhs == orig.lhs  # %.17g survives the double round-trip
        assert back.rhs == orig.rhs
        assert back.verdict == orig.verdict
    assert restored.summary == full_report.summary
    # the whole report is exactly what csv.writer writes
    assert blob == _stdlib_csv(full_report)


def test_unknown_format_rejected(full_report):
    with pytest.raises(ValueError):
        serialize_report(full_report, "xml")
    with pytest.raises(ValueError):
        parse_report(b"{}", "xml")
    # an unknown identity or verdict name is rejected the same way, naming it
    header = "identity,params,lhs,rhs,residual,tolerance,verdict\n"
    for row, bad in (("NOPE,,1,1,0,1,PASS", "NOPE"),
                     ("EQ4,t=1,1,1,0,1,MAYBE", "MAYBE")):
        with pytest.raises(ValueError, match=bad):
            parse_report(header + row, "csv")
    record = {"identity": "EQ4", "params": [["t", 1.0]], "lhs": 1.0,
              "rhs": 1.0, "residual": 0.0, "tolerance": 1.0, "verdict": "PASS"}
    for key, bad in (("identity", "NOPE"), ("verdict", "MAYBE")):
        doc = {"records": [{**record, key: bad}], "summary": {},
               "metadata": {}}
        with pytest.raises(ValueError, match=bad):
            parse_report(json.dumps(doc), "json")


def test_malformed_reports_are_value_errors(full_report):
    records = full_report.records[:3]
    report = _synthetic(records)
    for fmt in (None, 1, b"json"):
        with pytest.raises(ValueError, match="format"):
            serialize_report(report, fmt)
        with pytest.raises(ValueError, match="format"):
            parse_report(b"{}", fmt)
    # JSON: a missing top-level key or record field is named
    doc = json.loads(serialize_report(report, "json"))
    for key in ("records", "summary", "metadata"):
        with pytest.raises(ValueError, match=repr(key)):
            parse_report(json.dumps({k: v for k, v in doc.items()
                                     if k != key}), "json")
    with pytest.raises(ValueError, match="'records'"):
        parse_report(b"{}", "json")
    with pytest.raises(ValueError, match="object"):
        parse_report(b"[]", "json")
    for field in ("identity", "params", "lhs", "verdict"):
        bad = json.loads(json.dumps(doc))
        del bad["records"][1][field]
        with pytest.raises(ValueError, match=f"record 1 .*'{field}'"):
            parse_report(json.dumps(bad), "json")
    # records, a record, its params or its identity of the wrong type
    for rows, match in (([1], "record 0 is not an object"),
                        ("ab", "'records' must be a list")):
        with pytest.raises(ValueError, match=match):
            parse_report(json.dumps({**doc, "records": rows}), "json")
    for field, value in (("params", 5), ("identity", ["EQ4"])):
        bad = json.loads(json.dumps(doc))
        bad["records"][1][field] = value
        with pytest.raises(ValueError, match="record 1: "):
            parse_report(json.dumps(bad), "json")
    bad = json.loads(json.dumps(doc))
    del bad["notes"], bad["records"][0]["note"]  # optional: default empty
    back = parse_report(json.dumps(bad), "json")
    assert back.notes == [] and back.records[0].note == ""
    # CSV: the line of a row without 7 fields or a params piece without =
    lines = serialize_report(report, "csv").decode().split("\n")
    assert lines[-1] == ""
    for line, bad in ((2, "EQ1_DIGAMMA,n=2,1,1,0"),
                      (3, lines[3] + ",extra"),
                      (2, lines[2].replace("n=", "n", 1))):
        text = "\n".join(lines[:line] + [bad] + lines[line + 1:])
        with pytest.raises(ValueError, match=f"line {line + 1}"):
            parse_report(text, "csv")
    # a trailing blank line is ignored; the records come back as they were
    blob = serialize_report(report, "csv")
    assert parse_report(blob + b"\n", "csv") == parse_report(blob, "csv")
    assert parse_report(blob, "csv").records == records


def test_identity_catalog_covers_enum():
    assert list(IDENTITIES) == [identity.name for identity in IdentityId]


def _reference_json(report):
    """The report as the stdlib encoder writes it: the JSON form's definition."""
    obj = {
        "records": [
            {
                "identity": r.identity.name,
                "params": [[k, v] for k, v in r.params],
                "lhs": r.lhs,
                "rhs": r.rhs,
                "residual": r.residual,
                "tolerance": r.tolerance,
                "verdict": r.verdict.name,
                "note": r.note,
            }
            for r in report.records
        ],
        "summary": report.summary,
        "metadata": report.metadata,
        "notes": report.notes,
    }
    return json.dumps(obj, sort_keys=True, indent=2).encode()


def _synthetic(records, metadata=None, notes=None):
    return Report(records, summarize(records),
                  {"version": "0", "tolerances": {"EQ2": 1e-10}}
                  if metadata is None else metadata,
                  ["a note"] if notes is None else notes)


_ODD = [
    VerificationRecord(IdentityId.EQ2, (("t", math.nan),), math.nan, 1.0,
                       math.nan, 1e-10, Verdict.FAIL),
    VerificationRecord(IdentityId.EQ3, (("t", -0.0),), math.inf, -math.inf,
                       math.inf, 0.0, Verdict.FAIL, "inf"),
    VerificationRecord(IdentityId.EQ22, (("mu", -0.8), ("t", 0.3)), -0.0,
                       0.0, 0.0, 5e-324, Verdict.PASS),
    VerificationRecord(IdentityId.EQ31, (), 1e300, 1.7976931348623157e308,
                       1.5e-7, 1e-8, Verdict.FAIL),
    # ints are spelled as json spells them, not as floats
    VerificationRecord(IdentityId.EQ4, (("t", 1.0),), 1, 0, 1, 1e-9,
                       Verdict.FAIL),
    VerificationRecord(IdentityId.EQ13, (("t", 1.5),), 0.0, 0.0, 0.0, 1e-10,
                       Verdict.SKIPPED,
                       'say "x"; back\\slash\nnew line\ttab \u00e9\u2264 \U0001d70b'),
]


# Columns where repeats dominate, so each distinct bit pattern is spelled
# once: 0.0 and -0.0, NaNs held by distinct objects, +-inf, the smallest
# subnormal, ints and floats in one column.
_REPEATS = [
    VerificationRecord(IdentityId.EQ2, (("t", x),), x, -x, y, 5e-324,
                       Verdict.PASS, "same" if x else "")
    for x, y in zip([0.0, -0.0] * 4, [float("nan"), float("nan"), math.inf,
                                      -math.inf] * 2)
] + [VerificationRecord(IdentityId.EQ3, (), 0, 0.0, 0.0, 1e-10,
                        Verdict.PASS)] * 2


def _n_record(params):
    return VerificationRecord(IdentityId.EQ14_LEMMA6, params, 0.25, 0.25, 0.0,
                              1e-12, Verdict.PASS)


def _fresh_n_table(monkeypatch):
    """An empty n table for this test alone, so that no test fills the
    process's table further than the code it runs does."""
    from skewlog import report

    table = []
    monkeypatch.setattr(report, "_N_PARAMS", table)
    monkeypatch.setattr(report, "_N_SELF", {})
    return table


@pytest.fixture
def n_odd(monkeypatch):
    """Records whose params are one ("n", v) pair, with a fresh n table
    filled to its end: entries of the table (its first and its last),
    equal tuples that are not entries, and values equal to an entry's that
    spell otherwise: -0.0, an int and n past the table."""
    _fresh_n_table(monkeypatch)
    return [_n_record(p) for p in (
        *_n_params(0, 2), *_n_params(_N_TERMS - 2, _N_TERMS),
        tuple([("n", 1.0)]), tuple([("n", float(_N_TERMS - 1))]),
        (("n", -0.0),), (("n", 5),),
        *_n_params(_N_TERMS, _N_TERMS + 1), (("n", 2.0 ** 53),),
        (("n", 1e300),))]


def _float_params(report):
    """report with each params value as the float a reader gives back."""
    return Report([r._replace(params=tuple((k, float(v)) for k, v in r.params))
                   for r in report.records],
                  report.summary, report.metadata, report.notes)


@pytest.mark.parametrize("report", [
    _synthetic(_ODD),
    _synthetic(_REPEATS),
    _synthetic(_ODD, metadata={}, notes=[]),
    _synthetic([], metadata={}, notes=[]),
    _synthetic(_ODD[:1], metadata={"nested": {"z": [], "a": [1, math.inf]}},
               notes=['quo"te', "line\nbreak", "\u00fcber"]),
], ids=["odd-values", "repeats", "empty-metadata-notes", "no-records",
        "odd-metadata"])
def test_json_matches_stdlib_encoder(report):
    _check_json(report)


def test_json_matches_stdlib_encoder_with_n_params(n_odd):
    _check_json(_synthetic(n_odd))
    _check_json(_synthetic(_ODD + n_odd + _REPEATS))


def _check_json(report):
    """report is written as json.dumps writes it, and reads back."""
    blob = serialize_report(report, "json")
    assert blob == _reference_json(report)
    back = parse_report(blob, "json")
    # repr compares NaN fields, which == does not; an int params
    # value reads back as its float
    expected = _float_params(report)
    assert repr(back.records) == repr(expected.records)
    assert (back.summary, back.metadata, back.notes) == (
        report.summary, report.metadata, report.notes)
    assert serialize_report(back, "json") == _reference_json(expected)


def _stdlib_csv(report):
    """The report as csv.writer writes it: the CSV form's definition."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["identity", "params", "lhs", "rhs", "residual", "tolerance",
                "verdict"])
    for r in report.records:
        w.writerow([r.identity.name,
                    ";".join("%s=%.17g" % kv for kv in r.params),
                    "%.17g" % r.lhs, "%.17g" % r.rhs, "%.17g" % r.residual,
                    "%.17g" % r.tolerance, r.verdict.name])
    return buf.getvalue().encode()


# equal values held by distinct objects, which must not share a spelling slot
# with anything but their own bit pattern
_A, _B = float("0.1") * 3, float("0.1") * 3
assert _A == _B and _A is not _B

_QUOTING = [
    # params names that csv must quote: a comma, a quote, a newline
    VerificationRecord(IdentityId.EQ22, (("a,b", 0.5), ('q"', -0.0)), 0.0,
                       -0.0, 0.0, 1e-9, Verdict.PASS),
    VerificationRecord(IdentityId.EQ2, (("new\nline", 1.0),), -0.0, 0.0, _A,
                       _B, Verdict.PASS),
    VerificationRecord(IdentityId.EQ2, (("mu", _B), ("t", _A)), _A, _B,
                       -0.0, 0.0, Verdict.FAIL, "a note"),
]


@pytest.mark.parametrize("records", [
    _ODD, _QUOTING, _REPEATS, _ODD + _QUOTING + _REPEATS, []],
    ids=["odd-values", "quoting", "repeats", "all", "no-records"])
def test_csv_matches_stdlib_writer(records):
    _check_csv(records)


def test_csv_matches_stdlib_writer_with_n_params(n_odd):
    _check_csv(n_odd)
    _check_csv(_ODD + _QUOTING + n_odd + _REPEATS)


def _check_csv(records):
    """records are written as csv.writer writes them, and read back bit
    for bit."""
    report = _synthetic(records)
    blob = serialize_report(report, "csv")
    assert blob == _stdlib_csv(report)
    back = parse_report(blob, "csv")
    assert len(back.records) == len(records)

    def bits(r):
        floats = (*(v for _, v in r.params), r.lhs, r.rhs, r.residual,
                  r.tolerance)
        return (r.identity, [k for k, _ in r.params], r.verdict,
                [float(x).hex() for x in floats])
    # every float comes back bit for bit, -0.0, NaN, +-inf and 5e-324 too
    assert [bits(r) for r in back.records] == [bits(r) for r in records]


def test_n_table_entries_are_known_by_identity(n_odd):
    # both readers give a table entry for a value that is one bit for bit,
    # and both writers spell only the entries themselves as entries
    from skewlog import report as report_module

    table = report_module._N_PARAMS

    def entry(params):
        (_, v), = params
        return 0 <= v < len(table) and params is table[int(v)]

    assert list(map(entry, (r.params for r in n_odd))) == [
        True] * 4 + [False] * 7
    for fmt in ("json", "csv"):
        back = parse_report(serialize_report(_synthetic(n_odd), fmt), fmt)
        assert list(map(entry, (r.params for r in back.records))) == [
            True] * 6 + [False, True] + [False] * 3, fmt
    # params that cannot be hashed, a list of pairs, are written beside the
    # entries; a params name or a note that is no str is laid out as
    # json.dumps lays it out at its depth
    report = _synthetic([*n_odd[:3], _n_record([("n", 1.0)]), n_odd[3]])
    assert serialize_report(report, "json") == _reference_json(report)
    assert serialize_report(report, "csv") == _stdlib_csv(report)
    report = _synthetic([n_odd[0], _n_record(((["k"], 2),))._replace(
        note=["a", {"n": 1}]), n_odd[1]])
    assert serialize_report(report, "json") == _reference_json(report)
    # a bool equal to an entry's value is no entry, and no number either
    report = _synthetic(n_odd + [_n_record((("n", True),))])
    for fmt, where in (("json", "JSON record 11"), ("csv", "CSV line 13")):
        with pytest.raises(ValueError, match=f"^{where}: 'params' value is "
                           "not a number: True$"):
            serialize_report(report, fmt)


def test_writers_refuse_what_the_readers_refuse():
    # a params value or a float field that is no int or float would not
    # read back: both writers refuse it, naming its record or line and
    # field in the JSON reader's words, and never write it as csv.writer
    # does (True as 1) or fail as it does (a bare TypeError)
    ok = _n_record((("t", 0.5),))
    for field, value in (
            ("params", True), ("params", None), ("params", "0.5"),
            ("params", [1.0]), ("params", {"a": 2, "b": [1.0]}),
            ("lhs", [1.0]), ("rhs", {"x": [0.5, {}], "y": []}),
            ("residual", "abc"), ("tolerance", True), ("lhs", None)):
        if field == "params":
            bad = ok._replace(params=(("t", 0.5), ("mu", value)))
            what = f"'params' value is not a number: {value!r}"
        else:
            bad = ok._replace(**{field: value})
            what = f"{field!r} is not a number: {value!r}"
        report = _synthetic([ok, bad, ok])
        with pytest.raises(ValueError) as read:
            parse_report(_reference_json(report), "json")
        assert str(read.value) == f"JSON record 1: {what}"
        for fmt, where in (("json", "JSON record 1"), ("csv", "CSV line 3")):
            with pytest.raises(ValueError) as written:
                serialize_report(report, fmt)
            assert str(written.value) == f"{where}: {what}", fmt


def test_n_past_the_filled_table_reads_as_a_fresh_tuple(monkeypatch):
    # an n below 2^14 that the table has not reached yet is read as a new
    # tuple, as a fresh process reads n = 5 before the verifier asks for it;
    # once the table holds n, the same bytes read back as its entry
    for fmt in ("json", "csv"):
        table = _fresh_n_table(monkeypatch)
        records = [_n_record(p) for p in (
            *_n_params(1, 3), (("n", 3.0),), (("n", 5.0),))]
        blob = serialize_report(_synthetic(records), fmt)
        params = [r.params for r in parse_report(blob, fmt).records]
        assert params == [r.params for r in records], fmt
        assert [p is q for p, q in zip(params, table[1:])] == [True, True]
        assert len(table) == 3
        _n_params(0, 6)
        params = [r.params for r in parse_report(blob, fmt).records]
        assert [p is table[int(p[0][1])] for p in params] == [True] * 4, fmt


def test_csv_n_field_reads_as_float_reads_it(monkeypatch):
    _fresh_n_table(monkeypatch)
    header = "identity,params,lhs,rhs,residual,tolerance,verdict\n"

    def params(field):
        row = f"EQ14_LEMMA6,{field},1,1,0,1,PASS\n"
        return parse_report(header + row, "csv").records[0].params

    five, = _n_params(5, 6)
    for field in ("n=5", "n=05", "n=00005", "n=000005", "n=5.0", "n=5e0"):
        assert params(field) is five, field
    # -0 keeps its sign; past the table, and past int()'s digit limit,
    # the value is read by float and is no entry
    zero = params("n=-0")
    assert zero == (("n", 0.0),) and math.copysign(1.0, zero[0][1]) == -1.0
    assert params("n=16384") == (("n", 16384.0),)
    assert params("n=" + "9" * 5000) == (("n", math.inf),)
    # a digit that is no decimal is no number: "\u00b2".isdigit() holds
    with pytest.raises(ValueError, match="^CSV line 2: params piece "
                       "'n=\u00b2' is not name=number$"):
        params("n=\u00b2")


def test_malformed_json_values_name_the_record():
    doc = json.loads(serialize_report(_synthetic(_PLAIN), "json"))
    for field, value, what in (
            ("params", [["n", "abc"]],
             "'params' value is not a number: 'abc'"),
            ("params", [["t", 0.5], ["mu", "0.5"]],
             "'params' value is not a number: '0\\.5'"),
            ("params", [["n", True]], "'params' value is not a number: True"),
            ("params", [["n", None]], "'params' value is not a number: None"),
            ("params", [["n", 1.0, 2.0]], "too many values"),
            ("params", [["n", 10 ** 400]], "too large to convert"),
            ("lhs", "abc", "'lhs' is not a number: 'abc'"),
            ("rhs", None, "'rhs' is not a number: None"),
            ("residual", [0.0], "'residual' is not a number: \\[0.0\\]"),
            ("tolerance", True, "'tolerance' is not a number: True")):
        bad = json.loads(json.dumps(doc))
        bad["records"][1][field] = value
        with pytest.raises(ValueError, match=f"^JSON record 1: .*{what}"):
            parse_report(json.dumps(bad), "json")
    # ints are numbers: they read back as they were written
    doc["records"][1]["lhs"] = 10 ** 400
    assert parse_report(json.dumps(doc), "json").records[1].lhs == 10 ** 400


def test_csv_names_an_int_past_the_float_range():
    # the JSON form writes an int of any size in a float field; csv cannot
    # spell one past the float range as %.17g, and the ValueError names its
    # line and field
    records = [_n_record((("t", 0.5),)), _n_record((("t", 0.5),))]
    for field, fixed in (("lhs", {"lhs": -10 ** 400}),
                         ("tolerance", {"tolerance": 10 ** 309}),
                         ("params", {"params": (("t", 1), ("mu", 10 ** 400))})):
        report = _synthetic([records[0], records[1]._replace(**fixed)])
        if field != "params":
            assert serialize_report(report, "json") == _reference_json(report)
        with pytest.raises(OverflowError):
            _stdlib_csv(report)
        with pytest.raises(ValueError, match=f"^CSV line 3: '{field}' int "
                           "too large to convert to float$"):
            serialize_report(report, "csv")


def test_both_writers_refuse_a_params_int_past_the_float_range():
    # a reader takes a params value by float(), which refuses such an int;
    # so neither writer writes one, and both name the first record that
    # holds it and the field alike
    big = 10 ** 400
    records = [_n_record((("t", 0.5),))] + [
        _n_record((("mu", big), ("t", 0.5)))] * 2
    report = _synthetic(records)
    for fmt, where in (("json", "JSON record 1"), ("csv", "CSV line 3")):
        with pytest.raises(ValueError, match=f"^{where}: 'params' int too "
                           "large to convert to float$"):
            serialize_report(report, fmt)
    # json.dumps writes it, and the reader refuses what it wrote
    with pytest.raises(ValueError, match="^JSON record 1: int too large"):
        parse_report(_reference_json(report), "json")
    # an int in range is written as json writes it, and reads as its float
    report = _synthetic([_n_record((("mu", 2 ** 1000), ("t", 1)))])
    assert serialize_report(report, "json") == _reference_json(report)
    assert parse_report(serialize_report(report, "json")).records == [
        _n_record((("mu", 2.0 ** 1000), ("t", 1.0)))]


def test_the_reparse_builds_the_records_the_hook_builds(full_report):
    # a record-like object in the metadata leaves the hooked parse with a
    # record that is not the report's, so the text is parsed again as plain
    # JSON and each record object goes through the same hook: the same
    # records, equal notes in one str, and every n params the table's entry
    doc = json.loads(serialize_report(full_report, "json"))
    doc["metadata"]["record-like"] = doc["records"][0]
    texts = serialize_report(full_report, "json"), json.dumps(doc)
    for text, reparsed in zip(texts, (False, True)):
        back = parse_report(text, "json")
        assert len(back.records) == 7176
        assert repr(back.records) == repr(full_report.records)
        # the re-parse leaves the record-like object a dict
        assert back.metadata.get("record-like") == (
            doc["records"][0] if reparsed else None)
        notes = [r.note for r in back.records if r.note]
        assert len(set(map(id, notes))) == len(set(notes)) > 1
        n_params = [r.params for r in back.records
                    if len(r.params) == 1 and r.params[0][0] == "n"]
        assert len(n_params) == 7000
        assert all(p is _n_params(int(v), int(v) + 1)[0]
                   for p in n_params for (_, v), in [p])
    # a record with another key goes through the re-parse without it
    doc = json.loads(serialize_report(_synthetic(_PLAIN), "json"))
    doc["records"][1]["extra"] = [1]
    assert parse_report(json.dumps(doc), "json").records == _PLAIN


def test_a_missing_field_is_named_in_field_order():
    doc = json.loads(serialize_report(_synthetic(_PLAIN), "json"))
    for gone, first in ((("verdict", "lhs", "params"), "params"),
                        (("note", "tolerance", "rhs"), "rhs"),
                        (("verdict", "identity"), "identity"),
                        (("verdict", "residual"), "residual")):
        bad = json.loads(json.dumps(doc))
        for field in gone:
            del bad["records"][1][field]
        with pytest.raises(ValueError, match=f"^JSON record 1 has no "
                           f"'{first}' field$"):
            parse_report(json.dumps(bad), "json")


def test_csv_quotes_a_carriage_return():
    # csv.writer with lineterminator "\n" leaves a CR bare, which csv.reader
    # then rejects; the writer quotes it, so the report reads back
    rec = VerificationRecord(IdentityId.EQ2, (("a\rb", 0.5),), 1.0, 1.0, 0.0,
                             1e-10, Verdict.PASS)
    blob = serialize_report(_synthetic([rec]), "csv")
    assert blob.endswith(b'\nEQ2,"a\rb=0.5",1,1,0,1e-10,PASS\n')
    assert parse_report(blob, "csv").records == [rec]


def test_report_diff_names_each_changed_record():
    # tools/report_diff.py compares two trees' reports record by record
    import importlib.util
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1]
    path = root / "tools" / "report_diff.py"
    spec = importlib.util.spec_from_file_location("report_diff", path)
    report_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_diff)

    recs = [VerificationRecord(IdentityId.EQ4, (("t", 1.0),), -0.5, -0.5, 0.0,
                               1e-10, Verdict.PASS),
            VerificationRecord(IdentityId.EQ15, (), 0.4, 0.4, 0.0, 1e-10,
                               Verdict.PASS)]
    old = Report(recs, summarize(recs), {"version": "x"}, ["n"])
    moved = [recs[0], VerificationRecord(IdentityId.EQ15, (), 0.4, 0.5, 0.1,
                                         1e-10, Verdict.FAIL)]
    new = Report(moved, summarize(moved), {"version": "x"}, ["n"])
    for fmt, diff in (("json", report_diff.diff_json),
                      ("csv", report_diff.diff_csv)):
        a, b = (serialize_report(r, fmt).decode() for r in (old, new))
        assert [line for line in diff(a, a) if "changed" in line] == []
        changed = [line for line in diff(a, b) if "changed" in line]
        assert len(changed) == 1 and "EQ15" in changed[0], changed
        assert "verdict: " in changed[0] and "FAIL" in changed[0]
    assert "  summary equal: False" in report_diff.diff_json(
        *(serialize_report(r, "json").decode() for r in (old, new)))


def _peak(parse):
    """parse() and the peak bytes that tracemalloc saw it allocate."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        return parse(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_parse_holds_each_record_once(full_report, fmt):
    # A parsed record takes ~225 bytes: the tuple and its four floats, the
    # n params and the notes being shared.  So 300 bytes a record, plus the
    # JSON text decoded (one byte a character; the CSV is never decoded
    # whole), leave no room for a dict per record (>= 272 bytes) or for
    # the CSV text's UCS-4 copy in io.StringIO (4 bytes a character).
    n = len(full_report.records)
    blob = serialize_report(full_report, fmt)
    text = len(blob) if fmt == "json" else 0
    back, peak = _peak(lambda: parse_report(blob, fmt))
    assert len(back.records) == n
    assert peak < text + 300 * n, (peak, text + 300 * n)
    assert 300 * n < 4 * len(blob) or fmt == "json"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_writers_never_hold_the_whole_report_as_text(full_report, fmt):
    # The writers spell _CHUNK records at a time into one bytes buffer.  A
    # list of the record texts, their joined str and its bytes, held at
    # once, take 3-4 times the output; the buffer and one chunk's texts
    # beside it stay below a quarter more than the output and 1 MiB.
    blob, peak = _peak(lambda: serialize_report(full_report, fmt))
    assert peak < 1.25 * len(blob) + 2 ** 20, (peak, len(blob))


def test_chunks_join_into_the_same_bytes(full_report, n_odd, monkeypatch):
    # runs of 1, 2 and 7 records, which split the reports below at every
    # kind of boundary, join into the bytes that the stdlib writers write
    from skewlog import report as report_module

    reports = [full_report, _synthetic(_PLAIN), _synthetic(n_odd),
               _synthetic(_ODD + _QUOTING + n_odd + _REPEATS)]
    expected = [(_reference_json(r), _stdlib_csv(r)) for r in reports]
    empty = _synthetic([], metadata={}, notes=[])
    for chunk in (1, 2, 7):
        monkeypatch.setattr(report_module, "_CHUNK", chunk)
        for report, (js, cs) in zip(reports, expected):
            assert serialize_report(report, "json") == js, chunk
            assert serialize_report(report, "csv") == cs, chunk
        assert serialize_report(empty, "json") == (
            b'{\n  "metadata": {},\n  "notes": [],\n  "records": [],\n'
            b'  "summary": {}\n}') == _reference_json(empty)
        assert serialize_report(empty, "csv") == (
            b"identity,params,lhs,rhs,residual,tolerance,verdict\n")


def test_a_refusal_names_its_record_past_the_first_chunk(monkeypatch):
    # each chunk is spelled knowing where it starts, so the record that a
    # writer refuses is named by its place in the report
    from skewlog import report as report_module

    monkeypatch.setattr(report_module, "_CHUNK", 2)
    records = [_n_record((("t", 0.5),))] * 5 + [
        _n_record((("mu", 10 ** 400), ("t", 0.5)))] * 2
    report = _synthetic(records)
    for fmt, where in (("json", "JSON record 5"), ("csv", "CSV line 7")):
        with pytest.raises(ValueError, match=f"^{where}: 'params' int too "
                           "large to convert to float$"):
            serialize_report(report, fmt)


_PLAIN = [
    VerificationRecord(IdentityId.EQ4, (("t", 0.5),), 1.0, 1.0, 0.0, 1e-10,
                       Verdict.PASS),
    VerificationRecord(IdentityId.EQ1_DIGAMMA, (("n", 3.0),), 0.25, 0.5,
                       0.25, 1e-12, Verdict.FAIL),
]


def test_csv_lines_split_as_stringio_splits_them():
    blob = serialize_report(_synthetic(_PLAIN), "csv")
    expected = parse_report(blob, "csv")
    assert expected.records == _PLAIN
    crlf = blob.replace(b"\n", b"\r\n")
    # CRLF rows, and trailing blank lines of either kind, read the same;
    # a str reads as its UTF-8 bytes do
    for data in (crlf, blob + b"\n\n\n", blob + b"\r\n\n\r\n",
                 crlf + b"\r\n\r\n", blob + b"\r"):
        assert parse_report(data, "csv") == expected, data
        assert parse_report(data.decode(), "csv") == expected, data
    # a quoted params name holding a newline, or CRLF, is part of the name
    quoted = [VerificationRecord(IdentityId.EQ2, ((name, 1.0),), -0.0, 0.0,
                                 0.0, 1e-10, Verdict.PASS)
              for name in ("new\nline", "cr\r\nlf", "two\n\nlines")]
    blob = serialize_report(_synthetic(quoted + _PLAIN), "csv")
    for data in (blob, blob.decode()):
        assert parse_report(data, "csv").records == quoted + _PLAIN
    # a bare CR in an unquoted field, a blank row before the end and a
    # short row are errors of their own lines, counted past the quoted
    # newlines
    for extra, line in ((b"EQ4,a\rb=1,1,1,0,1,PASS\n", 11),
                        (b"\nEQ4,t=1,1,1,0,1,PASS\n", 11),
                        (b"EQ4,t=1,1,1,0,1\n", 11)):
        for data in (blob + extra, (blob + extra).decode()):
            with pytest.raises(ValueError, match=f"^CSV line {line}[: ]"):
                parse_report(data, "csv")
    with pytest.raises(ValueError, match="new-line character"):
        parse_report(blob + b"EQ4,a\rb=1,1,1,0,1,PASS\n", "csv")
    with pytest.raises(UnicodeDecodeError):
        parse_report(blob + b"EQ4,\xff=1,1,1,0,1,PASS\n", "csv")


def test_n_params_are_shared(full_report):
    def n_params(records):
        return [r.params for r in records
                if len(r.params) == 1 and r.params[0][0] == "n"]

    mine = n_params(full_report.records)
    assert len(mine) == 7000
    for records in (verify_all().records,
                    parse_report(serialize_report(full_report, "json")).records,
                    parse_report(serialize_report(full_report, "csv"),
                                 "csv").records):
        theirs = n_params(records)
        assert theirs == mine
        assert all(map(operator.is_, theirs, mine))
    # equal notes share one str
    back = parse_report(serialize_report(full_report, "json"))
    notes = {id(r.note) for r in back.records if r.note}
    assert len(notes) == len({r.note for r in back.records if r.note})
    # -0.0 is not n = 0: it keeps its sign through either form
    recs = [VerificationRecord(IdentityId.EQ14_LEMMA6, (("n", x),), 1.0, 1.0,
                               0.0, 1e-12, Verdict.PASS) for x in (-0.0, 0.0)]
    for fmt in ("json", "csv"):
        back = parse_report(serialize_report(_synthetic(recs), fmt), fmt)
        assert [math.copysign(1.0, r.params[0][1])
                for r in back.records] == [-1.0, 1.0], fmt
        assert back.records[1].params is _n_params(0, 1)[0]


def test_record_like_objects_outside_the_records_stay_dicts():
    rec = _PLAIN[0]
    like = json.loads(serialize_report(_synthetic([rec]), "json"))[
        "records"][0]
    for report in (
            _synthetic([rec], metadata={"record": like, "x": [like]}),
            Report([rec], {"EQ4": like}, {}, []),
            _synthetic([rec._replace(note=like)])):
        back = parse_report(serialize_report(report, "json"))
        assert back == report
        assert back.records[0] == rec._replace(note=back.records[0].note)
    # a record with an extra key reads as one without it; an object with
    # exactly a record's keys at the top is no report
    doc = json.loads(serialize_report(_synthetic(_PLAIN), "json"))
    doc["records"][1]["extra"] = {"identity": "EQ4"}
    assert parse_report(json.dumps(doc)).records == _PLAIN
    with pytest.raises(ValueError, match="no 'records' key"):
        parse_report(json.dumps(like))


def test_n_table_is_filled_once_by_racing_threads(monkeypatch):
    # threads that ask for overlapping ranges at once all get slices of one
    # table, which holds every n once, in order
    import sys
    import threading

    from skewlog import report

    his = (1, 700, 40, 1500, 3, 1200, 900, 64)

    def work(k, start, got, errors):
        try:
            start.wait(timeout=30)
            for hi in his[k:] + his[:k]:
                got.append((hi, report._n_params(hi // 3, hi)))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            table, keyed = [], {}
            monkeypatch.setattr(report, "_N_PARAMS", table)
            monkeypatch.setattr(report, "_N_SELF", keyed)
            start, got, errors = threading.Barrier(4), [[], [], [], []], []
            threads = [threading.Thread(target=work,
                                        args=(k, start, got[k], errors))
                       for k in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert errors == []
            assert table == [(("n", float(n)),) for n in range(max(his))]
            # each entry is keyed by itself, and nothing else is keyed
            assert len(keyed) == len(table)
            assert all(keyed.get(p) is p for p in table)
            for k in range(4):
                assert len(got[k]) == len(his)
                for hi, params in got[k]:
                    assert all(map(operator.is_, params, table[hi // 3:hi]))
    finally:
        sys.setswitchinterval(interval)
