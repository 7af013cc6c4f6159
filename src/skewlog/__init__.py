"""skewlog: dilogarithms, skew-harmonic series, and a numerical
identity-verification harness for the closed forms that connect them.

The namespace is lazy (PEP 562): ``import skewlog`` loads no library
module, and a public name or a submodule is imported when first read.
"""

import importlib

from ._version import __version__

#: Library module -> the public names it defines.
_EXPORTS = {
    "catalog": ("ClosedFormId", "GridSpec", "IdentityId", "SeriesId"),
    "closed_forms": ("EQ18_VALUE", "EQ19_VALUE", "abel_sides", "closed_form",
                     "closed_form_eq17", "int_li2_over_1mt"),
    "core_numerics": ("CONSTANTS", "digamma_half_diff", "harmonic",
                      "harmonic2", "odd_harmonic", "skew_harmonic",
                      "skew_harmonic_mu"),
    "errors": ("DomainError",),
    "polylog": ("li2", "li3"),
    "quadrature": ("QuadratureConfig", "double_integral_bigG",
                   "double_integral_eq31", "double_integral_eq32",
                   "double_integral_g", "integrate_1d"),
    "report": ("Report", "Verdict", "VerificationRecord", "parse_report",
               "serialize_report"),
    "result": ("EvalResult", "Status"),
    "series_engine": ("coefficient", "get_max_terms", "set_max_terms",
                      "sum_series"),
    "verifier": ("verify_all", "verify_identity"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
_SUBMODULES = frozenset((*_EXPORTS, "cli"))

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str):
    # Nothing is cached here: each read goes to the defining module, so a
    # wrapper installed there is what the package hands out.  The import
    # system binds each submodule here once it has loaded, so later reads
    # find the module without going through importlib.
    module = _HOME.get(name)
    if module is not None:
        home = globals().get(module) or importlib.import_module(
            f".{module}", __name__)
        return getattr(home, name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
