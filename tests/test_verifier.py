"""Identity verification runs, report structure, and serialization round-trips."""

import json
import math

import pytest

from skewlog import (
    GridSpec,
    IdentityId,
    Report,
    Verdict,
    VerificationRecord,
    parse_report,
    set_max_terms,
    verify_identity,
)
from skewlog.verifier import identity_catalog, serialize_report, summarize


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


def test_custom_tolerance_can_fail():
    recs = verify_identity(IdentityId.EQ13, tolerance=1e-18)
    assert any(r.verdict is Verdict.FAIL for r in recs)


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


def test_identity_catalog_covers_enum():
    cat = identity_catalog()
    assert len(cat) == len(IdentityId)


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


@pytest.mark.parametrize("report", [
    _synthetic(_ODD),
    _synthetic(_ODD, metadata={}, notes=[]),
    _synthetic([], metadata={}, notes=[]),
    _synthetic(_ODD[:1], metadata={"nested": {"z": [], "a": [1, math.inf]}},
               notes=['quo"te', "line\nbreak", "\u00fcber"]),
], ids=["odd-values", "empty-metadata-notes", "no-records", "odd-metadata"])
def test_json_matches_stdlib_encoder(report):
    blob = serialize_report(report, "json")
    assert blob == _reference_json(report)
    back = parse_report(blob, "json")
    # repr compares NaN fields, which == does not
    assert repr(back.records) == repr(report.records)
    assert (back.summary, back.metadata, back.notes) == (
        report.summary, report.metadata, report.notes)
    assert serialize_report(back, "json") == blob


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
