"""Verification records and reports, and their JSON and CSV forms.

A report holds the flat records of a run (one per evaluation point, each
with its own verdict), verdict counts per identity, metadata and notes.
serialize_report writes it deterministically to JSON or CSV, and
parse_report reads either form back.

Only the standard library and the catalog are imported here, so reading a
report loads no numerics.  Records are named tuples; the Report is a plain
mutable class.  json, csv, io and array load only when a report is
written or read: the JSON writer imports json, both writers import array
when a column's values repeat (tolerances and residuals do), and
parse_report imports json, or csv and io.
"""

from __future__ import annotations

import enum
import re
from collections import namedtuple
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter, mul

from .catalog import IdentityId, lookup


class Verdict(enum.Enum):
    __hash__ = object.__hash__  # C-level; a member equals only itself

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


_CSV_HEADER = ["identity", "params", "lhs", "rhs", "residual",
               "tolerance", "verdict"]
_IDENTITIES, _VERDICTS = IdentityId.__members__, Verdict.__members__
# parse_report builds records without the named tuple's Python-level __new__
_new = tuple.__new__


def _members(table, names: list, what: str) -> list:
    """table[name] for each of names, resolved in one pass; an unknown name
    is the ValueError of catalog.lookup."""
    members = list(map(table.get, names))
    if None in members:
        lookup(table, names[members.index(None)], what)
    return members


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
# the member names are ASCII identifiers: json.dumps only quotes them.
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
    quoted = _JSON_NAME.__getitem__
    return ",\n".join(map(_JSON_RECORD.__mod__, zip(
        map(quoted, identity), floats(lhs), strings(note),
        _params_texts(params, strings, floats, _json_params),
        floats(residual), floats(rhs), floats(tol), map(quoted, verdict))))


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


def _parse_json_records(rows) -> list[VerificationRecord]:
    """The records of a JSON report's record list, in one pass."""
    identities = _members(
        _IDENTITIES, list(map(itemgetter("identity"), rows)), "identity")
    verdicts = _members(
        _VERDICTS, list(map(itemgetter("verdict"), rows)), "verdict")
    return [
        _new(VerificationRecord, (
            identity, tuple([(k, float(v)) for k, v in d["params"]]),
            d["lhs"], d["rhs"], d["residual"], d["tolerance"], verdict,
            d.get("note", ""),
        ))
        for d, identity, verdict in zip(rows, identities, verdicts)
    ]


def parse_report(data: bytes | str, fmt: str = "json") -> Report:
    """Inverse of serialize_report.

    JSON round-trips the full report; CSV carries only the tabular record
    fields, so summary is recomputed and metadata/notes come back empty.
    A malformed report is a ValueError that names what is wrong: the
    missing JSON key, the JSON record, or the CSV line.  Blank lines at the
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
        rows = obj["records"]
        try:
            records = _parse_json_records(rows)
        except (KeyError, TypeError):
            # parsed again a record at a time, to name the first bad one
            if not isinstance(rows, list):
                raise ValueError("a JSON report's 'records' must be a "
                                 "list") from None
            for i, d in enumerate(rows):
                if not isinstance(d, dict):
                    raise ValueError(
                        f"JSON record {i} is not an object") from None
                try:
                    _parse_json_records([d])
                except KeyError as exc:
                    raise ValueError(f"JSON record {i} has no "
                                     f"{exc.args[0]!r} field") from None
                except TypeError as exc:
                    raise ValueError(f"JSON record {i}: {exc}") from None
            raise
        return Report(records, obj["summary"], obj["metadata"],
                      obj.get("notes", []))
    import csv
    import io

    # the rows stream from the reader: each name is resolved by a subscript
    # as it comes, and lookup runs only on the row that failed
    rows = csv.reader(io.StringIO(data.rstrip("\r\n")))
    if next(rows, None) != _CSV_HEADER:
        raise ValueError("bad CSV header")
    try:
        records = [
            _new(VerificationRecord, (
                _IDENTITIES[identity], _params_parse(params),
                float(lhs), float(rhs), float(residual), float(tol),
                _VERDICTS[verdict], "",
            ))
            for identity, params, lhs, rhs, residual, tol, verdict in rows
        ]
    except (KeyError, ValueError, csv.Error) as exc:
        line = rows.line_num
        rows = csv.reader(io.StringIO(data))
        row = next(row for row in rows if rows.line_num == line)
        if len(row) != len(_CSV_HEADER):
            raise ValueError(f"CSV line {line} has {len(row)} fields, "
                             f"expected {len(_CSV_HEADER)}") from None
        if isinstance(exc, KeyError):
            try:
                lookup(_IDENTITIES, row[0], "identity")
                lookup(_VERDICTS, row[6], "verdict")
            except ValueError as unknown:
                exc = unknown
        raise ValueError(f"CSV line {line}: {exc}") from None
    return Report(records, summarize(records), {}, [])
