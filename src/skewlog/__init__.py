"""skewlog: dilogarithms, skew-harmonic series, and a numerical
identity-verification harness for the closed forms that connect them."""

from ._version import __version__
from .closed_forms import (
    ClosedFormId,
    EQ18_VALUE,
    EQ19_VALUE,
    abel_sides,
    closed_form,
    closed_form_eq17,
    int_li2_over_1mt,
)
from .core_numerics import (
    CONSTANTS,
    HarmonicCache,
    constant,
    digamma_half_diff,
    harmonic,
    harmonic2,
    odd_harmonic,
    skew_harmonic,
    skew_harmonic_mu,
)
from .errors import DomainError, PoleError
from .polylog import li2, li3
from .quadrature import (
    QuadratureConfig,
    double_integral_bigG,
    double_integral_eq31,
    double_integral_eq32,
    double_integral_g,
    integrate_1d,
)
from .result import EvalResult, Status
from .series_engine import (
    SeriesId,
    coefficient,
    get_max_terms,
    set_max_terms,
    sum_series,
)
from .verifier import (
    GridSpec,
    IdentityId,
    Report,
    Verdict,
    VerificationRecord,
    parse_report,
    serialize_report,
    verify_all,
    verify_identity,
)

__all__ = [
    "__version__",
    "CONSTANTS",
    "ClosedFormId",
    "DomainError",
    "EQ18_VALUE",
    "EQ19_VALUE",
    "EvalResult",
    "GridSpec",
    "HarmonicCache",
    "IdentityId",
    "PoleError",
    "QuadratureConfig",
    "Report",
    "SeriesId",
    "Status",
    "Verdict",
    "VerificationRecord",
    "abel_sides",
    "closed_form",
    "closed_form_eq17",
    "coefficient",
    "constant",
    "digamma_half_diff",
    "double_integral_bigG",
    "double_integral_eq31",
    "double_integral_eq32",
    "double_integral_g",
    "get_max_terms",
    "harmonic",
    "harmonic2",
    "int_li2_over_1mt",
    "integrate_1d",
    "li2",
    "li3",
    "odd_harmonic",
    "parse_report",
    "serialize_report",
    "set_max_terms",
    "skew_harmonic",
    "skew_harmonic_mu",
    "sum_series",
    "verify_all",
    "verify_identity",
]
