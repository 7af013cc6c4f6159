"""Record-by-record diff of two trees' verification reports.

    python3 tools/report_diff.py OLD_SRC NEW_SRC

Each argument is a tree's `src` directory, or a checkout that contains one.
One child process per tree imports skewlog from there and writes
`serialize_report(verify_all(), fmt)` for JSON and CSV, with the metadata
timestamp fixed, and the exit code and stdout of the CLI's `list` and of
`verify --id ID` for every identity, each run in-process by `cli.run`.
The diff prints every changed, added or removed record, a changed one with
its residual old -> new and its other differing fields; then whether
metadata, notes and summary are equal and whether the whole output is
byte-identical; then each CLI run whose exit code or output differs.  Its
last line gives the largest residual growth of any record and the total
residual of each side.  The exit status is 0 when both formats and every
CLI run are byte-identical and 1 otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
import pathlib
import subprocess
import sys

FIXED_TIMESTAMP = "1970-01-01T00:00:00+00:00"

_CHILD = r"""
import contextlib, io, json, pathlib, sys
sys.path.insert(0, sys.argv[1])
import skewlog
from skewlog import IdentityId, serialize_report, verify_all
from skewlog.cli import run
if not pathlib.Path(skewlog.__file__).is_relative_to(sys.argv[1]):
    sys.exit(f"skewlog came from {skewlog.__file__}, not {sys.argv[1]}")
report = verify_all()
report.metadata["timestamp"] = sys.argv[2]
out = {fmt: serialize_report(report, fmt).decode("utf-8")
       for fmt in ("json", "csv")}
cli = out["cli"] = {}
for argv in [["list"]] + [["verify", "--id", i.name] for i in IdentityId]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    cli[" ".join(argv)] = [code, buf.getvalue()]
json.dump(out, sys.stdout)
"""


def _src(path: str) -> pathlib.Path:
    p = pathlib.Path(path).resolve()
    return p / "src" if (p / "src" / "skewlog").is_dir() else p


def render(path: str) -> dict:
    """The JSON and CSV reports and the CLI runs of the tree at path, from
    a child process."""
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(_src(path)), FIXED_TIMESTAMP],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


def _keyed(rows: list[tuple[tuple[str, str], tuple]]) -> dict[tuple, tuple]:
    """Rows by (identity, params, occurrence): repeated points stay apart."""
    seen: dict[tuple[str, str], int] = {}
    out = {}
    for key, row in rows:
        n = seen[key] = seen.get(key, -1) + 1
        out[(*key, n)] = row
    return out


def _label(key: tuple) -> str:
    return f"{key[0]} {key[1]}" + (f" #{key[2]}" if key[2] else "")


def _diff_rows(old: dict, new: dict, fields: list[str]) -> list[str]:
    """A line per removed, added or changed row; a changed row shows its
    residual old -> new, then every other field that differs."""
    r = fields.index("residual")
    lines = []
    for key in [*old, *(k for k in new if k not in old)]:
        if key not in new:
            lines.append(f"  removed {_label(key)}")
        elif key not in old:
            lines.append(f"  added   {_label(key)}")
        elif old[key] != new[key]:
            changes = "".join(
                f", {f}: {a} -> {b}"
                for f, a, b in zip(fields, old[key], new[key])
                if a != b and f != "residual")
            lines.append(f"  changed {_label(key)}: residual "
                         f"{old[key][r]} -> {new[key][r]}{changes}")
    return lines


_JSON_FIELDS = ["lhs", "rhs", "residual", "tolerance", "verdict", "note"]


def _json_rows(text: str) -> dict[tuple, tuple]:
    """A JSON report's records by (identity, params, occurrence), their
    fields spelled as JSON."""
    return _keyed([
        ((r["identity"], ";".join(f"{k}={v!r}" for k, v in r["params"])),
         tuple(json.dumps(r[f]) for f in _JSON_FIELDS))
        for r in json.loads(text)["records"]])


def diff_json(old: str, new: str) -> list[str]:
    """Changed records, then the equality of the other top-level parts;
    values compare by their JSON spelling, so -0.0 and 0.0 differ."""
    a, b = json.loads(old), json.loads(new)
    lines = _diff_rows(_json_rows(old), _json_rows(new), _JSON_FIELDS)
    lines.append(f"  records: {len(a['records'])} -> {len(b['records'])}, "
                 f"{len(lines)} differ")
    for part in ("metadata", "notes", "summary"):
        lines.append(f"  {part} equal: {a[part] == b[part]}")
    return lines


def diff_csv(old: str, new: str) -> list[str]:
    """Changed rows by (identity, params), and the header's equality."""
    a = list(csv.reader(io.StringIO(old)))
    b = list(csv.reader(io.StringIO(new)))
    fields = a[0][2:]

    def rows(table):
        return _keyed([((r[0], r[1]), tuple(r[2:])) for r in table[1:]])

    lines = _diff_rows(rows(a), rows(b), fields)
    lines.append(f"  records: {len(a) - 1} -> {len(b) - 1}, "
                 f"{len(lines)} differ")
    lines.append(f"  header equal: {a[0] == b[0]}")
    return lines


def residual_line(old: str, new: str) -> str:
    """The largest residual growth over the records both JSON reports
    have, and the total residual of each; NaN residuals (skipped points)
    count in neither."""
    old, new = _json_rows(old), _json_rows(new)
    r = _JSON_FIELDS.index("residual")

    def residual(row: tuple) -> float:
        x = float(row[r])
        return x if math.isfinite(x) else 0.0

    grown = max(((residual(new[k]) - residual(old[k]), k)
                 for k in old if k in new), default=(0.0, None))
    where = f" ({_label(grown[1])})" if grown[0] > 0.0 else ""
    totals = [math.fsum(map(residual, rows.values())) for rows in (old, new)]
    return (f"residual: largest growth {grown[0]:.3g}{where}, total "
            f"{totals[0]!r} -> {totals[1]!r}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = render(argv[0]), render(argv[1])
    same = True
    for fmt, diff in (("json", diff_json), ("csv", diff_csv)):
        identical = old[fmt] == new[fmt]
        same &= identical
        print(f"{fmt}: byte-identical: {identical}")
        print("\n".join(diff(old[fmt], new[fmt])))
    runs = [*old["cli"], *(k for k in new["cli"] if k not in old["cli"])]
    differ = [k for k in runs if old["cli"].get(k) != new["cli"].get(k)]
    same &= not differ
    print(f"cli: {len(runs)} runs, byte-identical: {not differ}")
    for k in differ:
        print(f"  differs: {k}: exit {(old['cli'].get(k) or ['-'])[0]} -> "
              f"{(new['cli'].get(k) or ['-'])[0]}")
    print(residual_line(old["json"], new["json"]))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
