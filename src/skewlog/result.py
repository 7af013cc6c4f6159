"""Evaluation result container used by the series engine and quadrature."""

from __future__ import annotations

import enum
from collections import namedtuple


class Status(enum.Enum):
    CONVERGED = "CONVERGED"
    MAX_TERMS = "MAX_TERMS"
    DIVERGENT_INPUT = "DIVERGENT_INPUT"


class EvalResult(namedtuple("EvalResult",
                            "value error_bound terms_used status")):
    """Value plus a rigorous error bound under the evaluator's stated tail model.

    value and error_bound are floats, terms_used an int, status a Status.
    terms_used counts coefficient evaluations for series, integrand panels for
    quadrature.  status is CONVERGED only when error_bound met the requested
    tolerance.
    """

    __slots__ = ()

    def converged(self) -> bool:
        return self.status is Status.CONVERGED
