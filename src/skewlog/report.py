"""Verification records and reports, and their JSON and CSV forms.

A report holds the flat records of a run (one per evaluation point, each
with its own verdict), verdict counts per identity, metadata and notes.
serialize_report writes it deterministically to JSON or CSV, and
parse_report reads either form back.

Only the standard library and the catalog are imported here, so reading a
report loads no numerics.  Records are named tuples; the Report is a plain
mutable class.  json, csv, io and array load only when a report is
written or read: the JSON writer imports json, both writers import io and,
when a column's values repeat (tolerances and residuals do), array, and
parse_report imports json, or csv and io.

Both writers emit _CHUNK records at a time into one io.BytesIO, each run
spelled column by column, joined and encoded at once, and return its
bytes without a copy; the JSON head and tail (metadata, notes, summary)
are written around the runs.  So the whole report is never held as a str,
nor its records' texts as a list: held whole, those two and the bytes took
3-4 times the output at once, and in the verify-report op the JSON write
was the largest single step up in the process's peak memory.

Reading a report holds each record once.  One JSON object_hook builds
every record, from each object with exactly the record fields (note
optional) as the scanner closes it: no dict outlives its record, and equal
notes share one str.  If that parse raises, or its records are not exactly
the report's (a record-like object in the metadata, a record with another
key), a plain re-parse sends each record object, cut to the record fields,
through the same hook, so that an error names its record.  The CSV reader
streams its rows from the UTF-8 bytes, with no decoded copy.  The params
(("n", n),) of the integer grids come from one per-process table
(_n_params, at most 2^14 entries, filled under a lock), which the verifier
slices.  An entry is known by identity, never by value: _N_SELF keys each
entry by itself, so (("n", -0.0),), (("n", 5),) and (("n", True),), equal
to entries but spelled otherwise, are not entries.  Both writers spell an
entry with one template fill and the other params in columns; the CSV
reader returns the entry for a field n=<decimal digits>, and the JSON
hook, through _shared, for params [["n", v]] whose float the table holds
bit for bit.  A JSON params value must be a number, a float or an int, as
a float field must: true, null or a string is a ValueError.  Both writers
refuse, in the readers' words, what the readers would not take back.
"""

from __future__ import annotations

import enum
import math
import re
import threading
from collections import namedtuple
from itertools import chain, compress, islice, repeat
from operator import attrgetter, is_, itemgetter, mul, not_

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


def _format(fmt) -> str:
    """fmt, a str naming JSON or CSV in any case, as 'json' or 'csv'."""
    if isinstance(fmt, str) and fmt.lower() in ("json", "csv"):
        return fmt.lower()
    raise ValueError(f"format must be 'json' or 'csv', not {fmt!r}")


#: (("n", float(n)),) for n = 0, 1, ...: the params of the integer-grid
#: records, one object per n however many reports hold it.
_N_PARAMS: list[tuple[tuple[str, float]]] = []
#: each table entry keyed by itself: params p is an entry exactly when
#: _N_SELF.get(p) is p, which an equal tuple ((("n", True),), say) is not
_N_SELF: dict = {}
_N_LOCK = threading.Lock()
_N_TERMS = 1 << 14  # the most the table holds (~2.2 MB when full)


def _n_params(lo: int, hi: int) -> list[tuple[tuple[str, float]]]:
    """The params (("n", float(n)),) of n = lo, ..., hi-1, as a slice of
    the per-process table, filled under a lock only as far as a call asks;
    past _N_TERMS they are built afresh.  Filled entries never change, so
    reads need no lock."""
    table = _N_PARAMS
    if hi > len(table):
        if hi > _N_TERMS:
            return list(zip(zip(repeat("n"), map(float, range(lo, hi)))))
        with _N_LOCK:
            if hi > len(table):
                new = list(zip(zip(repeat("n"), map(
                    float, range(len(table), hi)))))
                # keyed first, so that no entry is seen without its key
                _N_SELF.update(zip(new, new))
                table.extend(new)
    return table[lo:hi]


def _shared(params: tuple) -> tuple:
    """params, or the n table's entry when params is one ("n", v) pair
    and the table holds v bit for bit (-0.0 is not n = 0)."""
    if len(params) == 1:
        (k, v), = params
        if (k == "n" and v.is_integer() and 0.0 <= v < len(_N_PARAMS)
                and math.copysign(1.0, v) > 0.0):
            return _N_PARAMS[int(v)]
    return params


def _params_parse(s: str) -> tuple[tuple[str, float], ...]:
    """A CSV params field as its pairs.  n=<decimal digits> naming an n
    the table holds is that entry (n=05 too); any other field is split at
    ";" and "=", each value read by float, and the pairs go to _shared."""
    digits = s[2:]
    # isdecimal, not isdigit: int() rejects "\u00b2", which isdigit accepts;
    # 5 digits hold any n < 2^14, and int() rejects the thousands of digits
    # that float reads as inf
    if s[:2] == "n=" and digits.isdecimal() and len(digits) < 6:
        n = int(digits)
        if n < len(_N_PARAMS):
            return _N_PARAMS[n]
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
    return _shared(tuple(out))


# Both writers work on columns: each run of _CHUNK records is transposed
# once, each column is turned into text by C-level maps, and every record
# is one %-template filled from the zipped columns.


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


def _params_texts(params, entry, name_texts, value_texts,
                  template) -> list[str]:
    """The text of each record's params.  An entry of the n table (found
    by identity, never by value) is entry % ("n", float(n)), one C-level
    fill: %d spells n < 2^14 as both repr and %.17g spell float(n).  The
    other params are spelled by _spelled, and the two merge in order."""
    try:
        is_entry = list(map(is_, map(_N_SELF.get, params), params))
    except TypeError:  # a params that cannot be hashed: a list value
        is_entry = []
    if True not in is_entry:
        return _spelled(params, name_texts, value_texts, template)
    texts = (
        iter(_spelled(list(compress(params, map(not_, is_entry))),
                      name_texts, value_texts, template)),
        map(entry.__mod__, map(itemgetter(0), compress(params, is_entry))))
    return list(map(next, map(texts.__getitem__, is_entry)))


def _refuse(records, field: str, x, where: str, first: int,
            wide: bool = False) -> None:
    """Refuse x, a float field's value or (field "params") a params value,
    unless the readers take it back: an int or a float, no bool, within
    the float range unless wide (the JSON form's float fields keep any
    int).  The ValueError names where, the first record (from first) that
    holds x, by identity, and the field."""
    if x.__class__ is bool or not isinstance(x, (int, float)):
        what = "value is" if field == "params" else "is"
        exc = f"{what} not a number: {x!r}"
    else:
        try:
            float(x)
            return
        except OverflowError as err:  # an int past the float range
            if wide:
                return
            exc = err
    values = (map(itemgetter(1), r.params) if field == "params"
              else (getattr(r, field),) for r in records)
    i = next(n for n, vs in enumerate(values) if any(v is x for v in vs))
    raise ValueError(f"{where} {first + i}: {field!r} {exc}") from None


def _spelled(params, name_texts, value_texts, template) -> list[str]:
    """The text of each record's params, in columns.  The names and the
    values of all records are spelled as two columns, name_texts(names)
    and value_texts(values); a record of k pairs is template(k) filled
    with its name and value texts in turn."""
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
# with that layout spelled out; strings go through json's own escaper,
# floats get json's spelling (float.__repr__, NaN, Infinity, -Infinity),
# and ints json.dumps's.  A float field or params value that the reader
# would refuse (True, None, a str, a list, or in params an int past the
# float range) is a ValueError naming its record and field, as in CSV.
_JSON_FLOAT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_RECORD = (
    '    {\n      "identity": %s,\n      "lhs": %s,\n      "note": %s,\n'
    '      "params": %s,\n      "residual": %s,\n      "rhs": %s,\n'
    '      "tolerance": %s,\n      "verdict": %s\n    }')
_JSON_PARAM = '        [\n          %s,\n          %s\n        ]'
# the member names are ASCII identifiers: json.dumps only quotes them.
_JSON_NAME = {m: '"%s"' % m.name for m in (*IdentityId, *Verdict)}


def _json_nested(obj, indent: int) -> str:
    """obj as json.dumps(..., sort_keys=True, indent=2) lays it out when it
    starts on a line indented by indent spaces; json escapes every newline
    inside a string, so each raw newline is layout."""
    import json

    return json.dumps(obj, sort_keys=True, indent=2).replace(
        "\n", "\n" + " " * indent)


def _json_params(k: int) -> str:
    return "[\n" + ",\n".join([_JSON_PARAM] * k) + "\n      ]" if k else "[]"


_JSON_N = _json_params(1) % ('"%s"', "%d.0")  # an n table entry's params


def _json_records(records, first: int) -> str:
    """The records, from JSON record first on, joined by ",\n"."""
    from json.encoder import encode_basestring_ascii

    def floats(column, field="params"):
        def spell(xs):
            reprs = list(map(float.__repr__, xs))
            return map(_JSON_FLOAT.get, reprs, reprs)

        def scalar(x):
            _refuse(records, field, x, "JSON record", first,
                    wide=field != "params")
            return _json_nested(x, 0)
        return _texts(column, spell, scalar)

    # a note or a params name that is no str is laid out by _json_nested
    # at its depth: a record field's line is indented by 6 spaces, a params
    # name's by 10
    def strings(column, indent=10):
        """Notes and names: a few distinct strs, each escaped once."""
        if set(map(type, column)) - {str}:
            return [_json_nested(x, indent) for x in column]
        distinct = set(column)
        text = dict(zip(distinct, map(encode_basestring_ascii, distinct)))
        return list(map(text.__getitem__, column))

    identity, params, lhs, rhs, residual, tol, verdict, note = \
        _columns(records)
    quoted = _JSON_NAME.__getitem__
    return ",\n".join(map(_JSON_RECORD.__mod__, zip(
        map(quoted, identity), floats(lhs, "lhs"), strings(note, 6),
        _params_texts(params, _JSON_N, strings, floats, _json_params),
        floats(residual, "residual"), floats(rhs, "rhs"),
        floats(tol, "tolerance"),
        map(quoted, verdict))))


# The CSV form is exactly what csv.writer(buf, lineterminator="\n") writes
# for the header and one row per record: the identity name, the params as
# name=value pieces joined by ";", the four floats as %.17g and the verdict
# name.  Only a params name can hold a character that calls for quoting:
# csv's QUOTE_MINIMAL, which this writer applies to a params field holding
# the delimiter, the quote character, CR or LF.  A value that is no
# number (True, None, a str, a list) or an int past the float range is a
# ValueError naming its line and field, where csv.writer writes True as 1
# and fails on the others without naming either.
_CSV_RECORD = "%s,%s,%s,%s,%s,%s,%s\n"
_CSV_QUOTED = re.compile('[,"\r\n]')


def _csv_params(k: int) -> str:
    return ";".join(["%s=%s"] * k)


_CSV_N = _csv_params(1) % ("%s", "%d")  # an n table entry's params


def _csv_quote(field: str) -> str:
    return '"%s"' % field.replace('"', '""')


def _csv_records(records, first: int) -> str:
    """The rows of the records, from CSV line first on, each ending in LF."""
    def floats(column, field="params"):
        def scalar(x):
            _refuse(records, field, x, "CSV line", first)
            return format(x, ".17g")
        return _texts(column, lambda xs: map("%.17g".__mod__, xs), scalar)

    identity, params, lhs, rhs, residual, tol, verdict, _ = \
        _columns(records)
    params = _params_texts(params, _CSV_N, lambda names: map(format, names),
                           floats, _csv_params)
    special = set(filter(_CSV_QUOTED.search, params))
    quoted = dict(zip(special, map(_csv_quote, special)))
    name = attrgetter("_name_")
    return "".join(map(_CSV_RECORD.__mod__, zip(
        map(name, identity), map(quoted.get, params, params),
        floats(lhs, "lhs"), floats(rhs, "rhs"),
        floats(residual, "residual"), floats(tol, "tolerance"),
        map(name, verdict))))


_CHUNK = 1024  # records spelled at a time (see the module docstring)


def serialize_report(report: Report, fmt: str = "json") -> bytes:
    """The report as UTF-8 JSON or CSV bytes (fmt in any case)."""
    import io

    records = report.records
    if _format(fmt) == "json":  # records number from 0, CSV lines from 2
        head = "".join((
            '{\n  "metadata": ', _json_nested(report.metadata, 2),
            ',\n  "notes": ', _json_nested(report.notes, 2),
            ',\n  "records": ', "[\n" if records else "[]"))
        spell, first, sep = _json_records, 0, b",\n"
        tail = "".join(("\n  ]" if records else "", ',\n  "summary": ',
                        _json_nested(report.summary, 2), "\n}"))
    else:
        head, spell, first, sep, tail = (
            ",".join(_CSV_HEADER) + "\n", _csv_records, 2, b"", "")
    buf = io.BytesIO()
    buf.write(head.encode("utf-8"))
    for lo in range(0, len(records), _CHUNK):
        if lo:
            buf.write(sep)
        buf.write(spell(records[lo:lo + _CHUNK], first + lo).encode("utf-8"))
    buf.write(tail.encode("utf-8"))
    return buf.getvalue()


_RECORD_KEYS = frozenset(VerificationRecord._fields) - {"note"}
_NOTED_KEYS = frozenset(VerificationRecord._fields)


def _param_value(v) -> float:
    """A JSON params value that is no float, as its float: an int is a
    number (past the float range, an OverflowError), true, null or a
    string is not."""
    if v.__class__ is not int:
        raise ValueError(f"'params' value is not a number: {v!r}")
    return float(v)


def _parse_json(text: str) -> Report:
    """A JSON report, each record built by hook (see the module docstring)."""
    import json

    built, notes = [], {}

    def hook(d):
        """The record of d, or d itself when d is no record object."""
        keys = d.keys()
        if keys != _NOTED_KEYS and keys != _RECORD_KEYS:
            return d
        identity, verdict = _IDENTITIES[d["identity"]], _VERDICTS[d["verdict"]]
        lhs, rhs, residual, tol = (
            d["lhs"], d["rhs"], d["residual"], d["tolerance"])
        if not (lhs.__class__ is rhs.__class__ is residual.__class__
                is tol.__class__ is float):
            for field in ("lhs", "rhs", "residual", "tolerance"):
                if d[field].__class__ not in (int, float):  # true is no number
                    raise ValueError(
                        f"{field!r} is not a number: {d[field]!r}")
        params = d["params"]
        if params.__class__ is list and len(params) == 1:
            (k, v), = params
            params = _shared(((k, v if v.__class__ is float
                               else _param_value(v)),))
        else:
            params = tuple([(k, v if v.__class__ is float
                             else _param_value(v)) for k, v in params])
        note = d.get("note", "")
        if note.__class__ is str:
            note = notes.setdefault(note, note)
        record = _new(VerificationRecord, (
            identity, params, lhs, rhs, residual, tol, verdict, note))
        built.append(record)
        return record

    try:
        obj = json.loads(text, object_hook=hook)
    except (KeyError, OverflowError, TypeError, ValueError):
        obj = None
    if not (obj.__class__ is dict and {"summary", "metadata"} <= obj.keys()
            and obj.get("records") == built):
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("a JSON report must be an object")
        for key in ("records", "summary", "metadata"):
            if key not in obj:
                raise ValueError(f"JSON report has no {key!r} key")
        if not isinstance(obj["records"], list):
            raise ValueError("a JSON report's 'records' must be a list")
        built.clear()
        for i, d in enumerate(obj["records"]):
            if not isinstance(d, dict):
                raise ValueError(f"JSON record {i} is not an object")
            cut = {k: d[k] for k in _NOTED_KEYS & d.keys()}
            try:
                try:
                    record = hook(cut)
                except KeyError:  # lookup names the unknown name
                    lookup(_IDENTITIES, cut["identity"], "identity")
                    lookup(_VERDICTS, cut["verdict"], "verdict")
                    raise
            except (KeyError, OverflowError, TypeError, ValueError) as exc:
                raise ValueError(f"JSON record {i}: {exc}") from None
            if record is cut:
                missing = next(k for k in VerificationRecord._fields
                               if k not in cut)
                raise ValueError(f"JSON record {i} has no {missing!r} field")
    return Report(built, obj["summary"], obj["metadata"],
                  obj.get("notes", []))


def _csv_rows(data: bytes):
    """csv.reader over the UTF-8 bytes, lines split at LF as io.StringIO
    splits them (newline="\n"), with no decoded copy of the text."""
    import csv
    import io

    return csv.reader(io.TextIOWrapper(
        io.BytesIO(data), encoding="utf-8", newline="\n"))


def _parse_csv(data: bytes) -> Report:
    import csv
    from itertools import takewhile

    # the rows stream from the reader: each name is resolved by a subscript
    # as it comes, and lookup runs only on the row that failed; the first
    # blank row ends the records, and only blank rows may follow it
    rows = _csv_rows(data)
    if next(rows, None) != _CSV_HEADER:
        raise ValueError("bad CSV header")
    try:
        records = [
            _new(VerificationRecord, (
                _IDENTITIES[identity], _params_parse(params),
                float(lhs), float(rhs), float(residual), float(tol),
                _VERDICTS[verdict], "",
            ))
            for identity, params, lhs, rhs, residual, tol, verdict
            in takewhile(len, rows)
        ]
    except UnicodeDecodeError:
        raise  # the bytes, not a line, are at fault
    except (KeyError, ValueError, csv.Error) as exc:
        line = rows.line_num
        rows = _csv_rows(data)
        try:
            row = next(row for row in rows if rows.line_num == line)
        except csv.Error:  # the row itself does not parse: a bare CR, say
            raise ValueError(f"CSV line {line}: {exc}") from None
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
    line = rows.line_num  # the blank row's, if one ended the records
    try:
        trailing = any(rows)
    except csv.Error:
        trailing = True
    if trailing:
        raise ValueError(f"CSV line {line} has 0 fields, "
                         f"expected {len(_CSV_HEADER)}")
    return Report(records, summarize(records), {}, [])


def parse_report(data: bytes | str, fmt: str = "json") -> Report:
    """Inverse of serialize_report.

    JSON round-trips the full report; CSV carries only the tabular record
    fields, so summary is recomputed and metadata/notes come back empty.
    A malformed report is a ValueError that names what is wrong: the
    missing JSON key, the JSON record, or the CSV line.  Blank lines at the
    end of a CSV report are ignored.
    """
    if _format(fmt) == "csv":
        return _parse_csv(data.encode("utf-8") if isinstance(data, str)
                          else data)
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return _parse_json(data)
