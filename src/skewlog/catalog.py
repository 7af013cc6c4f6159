"""The three catalogs by name: series, closed forms and identities.

Each table is the one place its catalog's names are written, with the text
and settings that need no numerics: a series' companion closed form, CLI
alias and domain; a closed form's domain; an identity's default grid, row
tolerance and extra z = +-1 grid.  SeriesId, ClosedFormId and IdentityId
are built from the tables' keys, in table order, each member's value its
name.  The numerics modules key their rows by those enums.

Only the standard library is imported here, so listing the catalogs or
reading a report loads no numerics.
"""

from __future__ import annotations

import enum
from collections import namedtuple


def lookup(table, key, what: str):
    """table[key], for a table keyed by names or by enum members; a key
    not in the table is a ValueError that names it and lists the valid
    keys in table order."""
    try:
        return table[key]
    except KeyError:
        valid = ", ".join(map(str, table))
        raise ValueError(
            f"unknown {what} {key!r}; valid ids: {valid}") from None


class GridSpec(namedtuple("GridSpec", "t_values mu_values n_range",
                          defaults=((), (), None))):
    """Evaluation points: t_values (crossed with mu_values when those are
    given), or the integers n_range = (lo, hi) inclusive."""

    __slots__ = ()


_MU_TEXT = "|t| < 1, -1 < mu <= 1"

#: A series row: the tag of its companion closed form, the alias the CLI
#: accepts as well, and its domain.
_Series = namedtuple("_Series", "closed_form alias domain")

SERIES = {
    "GF_SKEW": _Series("EQ2", "EQ2_LHS", "|t| < 1"),
    "GF_CENTERED": _Series("EQ3", "EQ3_LHS", "|t| < 1 or t = 1"),
    "SKEW_OVER_N": _Series("EQ5", "EQ5_LHS", "|t| <= 1, t != 1"),
    "CENTERED_OVER_N": _Series("EQ8", "EQ8_LHS", "|t| <= 1"),
    "CENTERED_SHIFT": _Series("EQ11", "EQ11_LHS", "|t| <= 1"),
    "SKEW_SQ": _Series("EQ12", "EQ12_LHS", "|t| < 1"),
    "CENTERED_SQ": _Series("EQ13", "EQ13_LHS", "|t| <= 1"),
    "CENTERED_SQ_SHIFT": _Series("EQ17", "EQ17_LHS", "|t| <= 1"),
    "SKEW_OVER_NSQ": _Series("EQ20", "EQ20_LHS", "-1/3 <= t <= 1"),
    "MU_LEWIN": _Series("EQ22", "EQ22_LHS", _MU_TEXT),
    "MU_DILOG": _Series("EQ24", "EQ24_SERIES", _MU_TEXT),
    "MU_TRILOG": _Series("EQ28", "EQ28_SERIES", _MU_TEXT),
    "RAMANUJAN_ODD": _Series("EQ27", "EQ27_SERIES", "|t| < 1"),
}

#: A closed form's domain.
CLOSED_FORMS = {
    "EQ2": "|t| < 1",
    "EQ3": "-1 < t <= 1",
    "EQ5": "-1 <= t <= 1, t != 1",
    "EQ8": "|t| <= 1",
    "EQ11": "|t| <= 1",
    "EQ12": "|t| < 1",
    "EQ13": "|t| <= 1",
    "EQ17": "|t| <= 1",
    "EQ20": "-1/3 <= t <= 1",
    "EQ22": _MU_TEXT,
    "EQ24": _MU_TEXT,
    "EQ25_ABEL": _MU_TEXT,
    "EQ26": "-1/3 <= t <= 1",
    "EQ27_RAMANUJAN": "|t| < 1",
    "EQ28": _MU_TEXT,
    "EQ29_G": "|t| <= 1",
    "EQ30_BIGG": "|t| <= 1",
    "LANDEN": "-1 < t <= 1",
}

#: An identity row: the default grid of verify_identity, the row tolerance,
#: and a singular grid (the integrable corners z = +-1) that verify_all
#: checks as well, at the same tolerance.
_Identity = namedtuple("_Identity", "grid tolerance singular",
                       defaults=(None,))

#: The grid of a parameter-free identity: one point, whose record has no
#: params.  verify_identity takes no other grid for it.
NO_PARAMS = GridSpec((0.0,))

_T6 = GridSpec((-0.9, -0.5, -0.1, 0.1, 0.5, 0.9))
_MU_GRID = GridSpec(t_values=(-0.9, -0.4, 0.3, 0.8),
                    mu_values=(-0.8, -0.3, 0.2, 0.7, 1.0))
_Z_ENDS = GridSpec((-1.0, 1.0))

IDENTITIES = {
    "EQ1_DIGAMMA": _Identity(GridSpec(n_range=(1, 1000)), 1e-12),
    "EQ2": _Identity(_T6, 1e-10),
    "EQ3": _Identity(_T6, 1e-10),
    "EQ4": _Identity(GridSpec((1.0,)), 1e-9),
    "EQ5": _Identity(_T6, 1e-10),
    "EQ8": _Identity(_T6, 1e-10),
    "EQ9": _Identity(GridSpec((-1.0,)), 1e-9),
    "EQ10": _Identity(GridSpec((-1.0,)), 1e-9),
    "EQ11": _Identity(_T6, 1e-10),
    "EQ12": _Identity(_T6, 1e-10),
    "EQ13": _Identity(_T6, 1e-10),
    "EQ14_LEMMA6": _Identity(GridSpec(n_range=(1, 1000)), 1e-12),
    "EQ15": _Identity(GridSpec((-1.0,)), 1e-10),
    "EQ16": _Identity(GridSpec((1.0,)), 1e-8),
    "EQ17": _Identity(GridSpec((-0.9, -0.5, -0.1, 0.3, 0.7)), 1e-9),
    "EQ18": _Identity(GridSpec((1.0,)), 1e-8),
    "EQ19": _Identity(GridSpec((-1.0,)), 1e-8),
    "EQ20": _Identity(GridSpec((-0.3, -0.1, 0.2, 0.5, 0.9)), 1e-9),
    "EQ21": _Identity(GridSpec((0.25, 0.5, 0.8, 1.0)), 1e-8),
    "EQ22": _Identity(_MU_GRID, 1e-9),
    "EQ24": _Identity(_MU_GRID, 1e-9),
    "EQ25_ABEL": _Identity(_MU_GRID, 1e-9),
    "EQ26": _Identity(GridSpec((-0.3, 0.0, 0.25, 0.6, 0.9)), 1e-10),
    "EQ27_RAMANUJAN": _Identity(
        GridSpec((-0.9, -0.6, -0.2, 0.0, 0.3, 0.6, 0.9)), 1e-10),
    "EQ28": _Identity(_MU_GRID, 1e-9),
    "EQ29": _Identity(GridSpec((-0.99, -0.5, 0.0, 0.5, 0.9)), 1e-8, _Z_ENDS),
    "EQ30": _Identity(GridSpec((-0.9, -0.5, 0.5, 0.9)), 1e-7, _Z_ENDS),
    "EQ31": _Identity(NO_PARAMS, 1e-8),
    "EQ32": _Identity(NO_PARAMS, 1e-8),
    "LANDEN": _Identity(GridSpec((-0.99, -0.5, -0.1, 0.3, 0.9, 1.0)), 1e-10),
    "H_EVEN_ODD_SPLIT": _Identity(GridSpec(n_range=(1, 5000)), 5e-14),
}

SeriesId = enum.Enum("SeriesId", [(name, name) for name in SERIES])
ClosedFormId = enum.Enum("ClosedFormId",
                         [(name, name) for name in CLOSED_FORMS])
IdentityId = enum.Enum("IdentityId", [(name, name) for name in IDENTITIES])
