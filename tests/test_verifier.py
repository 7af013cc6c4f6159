"""Identity verification runs, report structure, and serialization round-trips."""

import csv
import io
import json
import math

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
    verify_identity,
)
from skewlog.catalog import CLOSED_FORMS, IDENTITIES, NO_PARAMS
from skewlog.report import serialize_report, summarize


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
    blob = serialize_report(report, "json")
    assert blob == _reference_json(report)
    back = parse_report(blob, "json")
    # repr compares NaN fields, which == does not
    assert repr(back.records) == repr(report.records)
    assert (back.summary, back.metadata, back.notes) == (
        report.summary, report.metadata, report.notes)
    assert serialize_report(back, "json") == blob


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
