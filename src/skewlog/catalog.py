"""The three catalogs by name: series, closed forms and identities.

Each table is the one place its catalog's names are written, with the data
and settings that need no numerics: a series' companion closed form, CLI
alias and Domain; a closed form's Domain; an identity's default grid, row
tolerance and extra z = +-1 grid.  A Domain is the one place a domain is
written: the numerics modules hold it in their rows, and its str is the
domain's text.  SeriesId, ClosedFormId and IdentityId are built from the
tables' keys, in table order, each member's value its name, and hashed by
identity.  The numerics modules key their rows by those enums.

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


class Domain(namedtuple("Domain", "lo ends mu", defaults=(False,))):
    """The points lo < t < 1 and the ends in ends, a tuple holding lo, 1.0,
    both or neither, with lo -1.0 or -1/3; with mu, each point also takes
    a mu in -1 < mu <= 1.  str gives the domain's text."""

    __slots__ = ()

    def __str__(self) -> str:
        lo, ends = self.lo, self.ends
        if lo == -1.0 and (lo in ends) == (1.0 in ends):
            text = "|t| <= 1" if ends else "|t| < 1"
        else:
            low = "-1" if lo == -1.0 else f"-1/{round(-1.0 / lo)}"
            text = (f"{low} {'<=' if lo in ends else '<'} t "
                    f"{'<=' if 1.0 in ends else '<'} 1")
        return f"{text}, -1 < mu <= 1" if self.mu else text


_OPEN = Domain(-1.0, ())
_CLOSED = Domain(-1.0, (-1.0, 1.0))
_UP_TO_ONE = Domain(-1.0, (1.0,))
_BELOW_ONE = Domain(-1.0, (-1.0,))
_FROM_THIRD = Domain(-1.0 / 3.0, (-1.0 / 3.0, 1.0))
_MU = Domain(-1.0, (), mu=True)

#: A series row: the tag of its companion closed form, the alias the CLI
#: accepts as well, and its domain.
_Series = namedtuple("_Series", "closed_form alias domain")

SERIES = {
    "GF_SKEW": _Series("EQ2", "EQ2_LHS", _OPEN),
    "GF_CENTERED": _Series("EQ3", "EQ3_LHS", _UP_TO_ONE),
    "SKEW_OVER_N": _Series("EQ5", "EQ5_LHS", _BELOW_ONE),
    "CENTERED_OVER_N": _Series("EQ8", "EQ8_LHS", _CLOSED),
    "CENTERED_SHIFT": _Series("EQ11", "EQ11_LHS", _CLOSED),
    "SKEW_SQ": _Series("EQ12", "EQ12_LHS", _OPEN),
    "CENTERED_SQ": _Series("EQ13", "EQ13_LHS", _CLOSED),
    "CENTERED_SQ_SHIFT": _Series("EQ17", "EQ17_LHS", _CLOSED),
    "SKEW_OVER_NSQ": _Series("EQ20", "EQ20_LHS", _FROM_THIRD),
    "MU_LEWIN": _Series("EQ22", "EQ22_LHS", _MU),
    "MU_DILOG": _Series("EQ24", "EQ24_SERIES", _MU),
    "MU_TRILOG": _Series("EQ28", "EQ28_SERIES", _MU),
    "RAMANUJAN_ODD": _Series("EQ27", "EQ27_SERIES", _OPEN),
}

#: A closed form's domain.
CLOSED_FORMS = {
    "EQ2": _OPEN,
    "EQ3": _UP_TO_ONE,
    "EQ5": _BELOW_ONE,
    "EQ8": _CLOSED,
    "EQ11": _CLOSED,
    "EQ12": _OPEN,
    "EQ13": _CLOSED,
    "EQ17": _CLOSED,
    "EQ20": _FROM_THIRD,
    "EQ22": _MU,
    "EQ24": _MU,
    "EQ25_ABEL": _MU,
    "EQ26": _FROM_THIRD,
    "EQ27_RAMANUJAN": _OPEN,
    "EQ28": _MU,
    "EQ29_G": _CLOSED,
    "EQ30_BIGG": _CLOSED,
    "LANDEN": _UP_TO_ONE,
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


class _Id(enum.Enum):
    """The base of the three id enums.  A member equals only itself, so the
    identity hash of object serves; Enum's own hashes the name in a
    Python-level call, which every row lookup by member would pay."""

    __hash__ = object.__hash__


SeriesId = _Id("SeriesId", [(name, name) for name in SERIES])
ClosedFormId = _Id("ClosedFormId", [(name, name) for name in CLOSED_FORMS])
IdentityId = _Id("IdentityId", [(name, name) for name in IDENTITIES])
