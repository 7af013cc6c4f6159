"""Command-line front end.

Verbs: eval (any function, series or integral at a point), verify (one
identity or all of them), report (verify --all, with JSON as its default
format), constants (the reference constant table), list (the series /
closed-form / identity catalogs).  Exit codes: 0 success or all-PASS, 1
any FAIL verdict, 2 usage or domain errors or an --out file that cannot
be written.

Each verb imports the library modules it uses when it runs, each with
the modules it builds on: constants loads core_numerics, eval li2 polylog,
eval series series_engine, an eval integral quadrature, verify and report
the verifier; list loads only the catalog.  No verb pays for a module it
does not touch.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

from ._version import __version__

#: eval targets that print one value: target -> (library module, function,
#: the flags that give its arguments, in order).
_SCALAR_TARGETS = {
    "li2": ("polylog", "li2", ("--x",)),
    "li3": ("polylog", "li3", ("--x",)),
    "harmonic": ("core_numerics", "harmonic", ("--n",)),
    "harmonic2": ("core_numerics", "harmonic2", ("--n",)),
    "skew": ("core_numerics", "skew_harmonic", ("--n",)),
    "skew-mu": ("core_numerics", "skew_harmonic_mu", ("--n", "--mu")),
    "digamma-half-diff": ("core_numerics", "digamma_half_diff", ("--n",)),
    "jx": ("closed_forms", "int_li2_over_1mt", ("--x",)),
}
#: eval targets that print a quadrature result: target -> (quadrature
#: function, the flag of its point or None).
_INTEGRAL_TARGETS = {
    "integral-g": ("double_integral_g", "--z"),
    "integral-bigg": ("double_integral_bigG", "--z"),
    "integral-eq31": ("double_integral_eq31", None),
    "integral-eq32": ("double_integral_eq32", None),
}
_EVAL_TARGETS = (*_SCALAR_TARGETS, "series", "closed", *_INTEGRAL_TARGETS)
#: The options that take a float.  argparse reads a value after one of
#: them as an option when it starts with '-' but is not a plain decimal
#: (-1e-20, -inf), so run joins such a value to its option (--x=-1e-20).
_FLOAT_OPTIONS = frozenset({"--x", "--t", "--z", "--mu", "--tol"})


def _lib(module: str):
    """A library module, imported when a verb first needs it.  Functions
    are read off it as the verb runs, so wrappers installed on the module
    see the call."""
    return importlib.import_module(f".{module}", __package__)


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _print_result(r) -> None:
    print(f"value={_fmt(r.value)}")
    print(f"error_bound={_fmt(r.error_bound)}")
    print(f"terms={r.terms_used}")
    print(f"status={r.status.value}")


def _need(args, flag: str):
    v = getattr(args, flag.lstrip("-").replace("-", "_"))
    if v is None:
        raise ValueError(f"this target requires {flag}")
    return v


def _cmd_eval(args) -> int:
    t = args.target
    if t in _SCALAR_TARGETS:
        module, name, flags = _SCALAR_TARGETS[t]
        fn = getattr(_lib(module), name)
        print(f"value={_fmt(fn(*[_need(args, f) for f in flags]))}")
    elif t in _INTEGRAL_TARGETS:
        from .core_numerics import check_tol

        name, flag = _INTEGRAL_TARGETS[t]
        quadrature = _lib("quadrature")
        point = () if flag is None else (_need(args, flag),)
        # a tol <= 0 gets eval series's message, and one under the
        # quadrature's 1e-15 floor a message that names the floor; rel_tol
        # at that floor leaves abs_tol the target, as |value| < 1 for all
        # four integrals
        tol = check_tol("tol", check_tol("tol", args.tol), 1e-15)
        cfg = quadrature.QuadratureConfig(abs_tol=tol, rel_tol=1e-15)
        _print_result(getattr(quadrature, name)(*point, cfg))
    elif t == "series":
        from .catalog import SERIES, SeriesId, lookup
        from .result import Status
        from .series_engine import sum_series

        names = {**SeriesId.__members__,
                 **{row.alias: SeriesId[name] for name, row in SERIES.items()}}
        sid = lookup(names, _need(args, "--id").upper(), "series id")
        r = sum_series(sid, _need(args, "--t"), args.tol, mu=args.mu)
        if r.status is Status.DIVERGENT_INPUT:
            print(f"error: outside the domain of {sid.name}: "
                  f"{SERIES[sid.name].domain}", file=sys.stderr)
            return 2
        _print_result(r)
    elif t == "closed":
        from .catalog import ClosedFormId, lookup
        from .closed_forms import closed_form

        cid = lookup(ClosedFormId.__members__, _need(args, "--id").upper(),
                     "closed form")
        v = closed_form(cid, _need(args, "--t"), mu=args.mu)
        print(f"value={_fmt(v)}")
    else:
        raise ValueError(f"unknown eval target {t!r}")
    return 0


def _record_lines(records) -> list[str]:
    lines = []
    for r in records:
        params = " ".join(f"{k}={v:g}" for k, v in r.params) or "-"
        line = (f"{r.identity.name} {params} lhs={_fmt(r.lhs)} "
                f"rhs={_fmt(r.rhs)} residual={r.residual:.3e} "
                f"tol={r.tolerance:.1e} {r.verdict.name}")
        if r.note:
            line += f" note={r.note!r}"
        lines.append(line)
    return lines


def _emit(payload: bytes | str, out: str | None) -> None:
    if out is None:
        if isinstance(payload, bytes):
            payload = payload.decode("utf-8")
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")
    else:
        mode = "wb" if isinstance(payload, bytes) else "w"
        try:
            with open(out, mode) as fh:
                fh.write(payload)
        except OSError as exc:  # a usage error (2), not a FAIL verdict (1)
            raise ValueError(
                f"cannot write --out {out}: {exc.strerror or exc}") from exc


def _cmd_verify(args) -> int:
    if bool(args.id) == bool(args.all):
        raise ValueError("verify needs exactly one of --id or --all")
    if args.all and args.tol is not None:
        raise ValueError("--tol needs --id: --all checks each identity at "
                         "its own tolerance")
    from .catalog import IdentityId, lookup
    from .report import Report, Verdict, serialize_report, summarize
    from .verifier import verify_all, verify_identity

    if args.all:
        report = verify_all()
    else:
        identity = lookup(IdentityId.__members__, args.id.upper(), "identity")
        records = verify_identity(identity, tolerance=args.tol)
        report = Report(records, summarize(records),
                        {"version": __version__}, [])

    if args.format == "text":
        lines = _record_lines(report.records)
        counts = {k: sum(row[k] for row in report.summary.values())
                  for k in ("PASS", "FAIL", "SKIPPED")}
        lines.append(
            f"summary: PASS={counts['PASS']} FAIL={counts['FAIL']} "
            f"SKIPPED={counts['SKIPPED']}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(serialize_report(report, args.format), args.out)
    failed = any(r.verdict is Verdict.FAIL for r in report.records)
    return 1 if failed else 0


def _cmd_constants(args) -> int:
    from .core_numerics import CONSTANTS

    for name in sorted(CONSTANTS):
        print(f"{name}={_fmt(CONSTANTS[name])}")
    return 0


def _grid_text(g) -> str:
    def values(xs):
        return "{" + ", ".join(f"{x:g}" for x in xs) + "}"

    if g.n_range:
        return f"n in [{g.n_range[0]}, {g.n_range[1]}]"
    if g.mu_values:
        return f"mu in {values(g.mu_values)} x t in {values(g.t_values)}"
    return f"t in {values(g.t_values)}"


def _cmd_list(args) -> int:
    from .catalog import CLOSED_FORMS, IDENTITIES, SERIES

    for name in sorted(SERIES):
        row = SERIES[name]
        print(f"series {name} eq={row.closed_form} domain={row.domain}")
    for name in sorted(CLOSED_FORMS):
        print(f"closed {name} domain={CLOSED_FORMS[name]}")
    for name in sorted(IDENTITIES):
        print(f"identity {name} grid={_grid_text(IDENTITIES[name].grid)}")
    return 0


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_negative_floats(argv: list[str]) -> list[str]:
    """argv with each negative float value of a _FLOAT_OPTIONS option
    joined to it as --opt=value."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1] in _FLOAT_OPTIONS and arg.startswith("-")
                and _is_float(arg)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewlog",
        description="Evaluate and verify skew-harmonic series identities.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a function at a point")
    p_eval.set_defaults(func=_cmd_eval)
    p_eval.add_argument("target", choices=_EVAL_TARGETS)
    p_eval.add_argument("--x", type=float)
    p_eval.add_argument("--t", type=float)
    p_eval.add_argument("--z", type=float)
    p_eval.add_argument("--n", type=int)
    p_eval.add_argument("--mu", type=float)
    p_eval.add_argument("--id", type=str)
    p_eval.add_argument("--tol", type=float, default=1e-10)

    p_verify = sub.add_parser("verify", help="check identities")
    p_verify.set_defaults(func=_cmd_verify)
    p_verify.add_argument("--id", type=str)
    p_verify.add_argument("--all", action="store_true")
    p_verify.add_argument("--tol", type=float)
    p_verify.add_argument("--format", choices=("text", "json", "csv"),
                          default="text")
    p_verify.add_argument("--out", type=str)

    p_report = sub.add_parser("report", help="full verification report")
    p_report.set_defaults(func=_cmd_verify, id=None, all=True, tol=None)
    p_report.add_argument("--format", choices=("json", "csv"),
                          default="json")
    p_report.add_argument("--out", type=str)

    sub.add_parser("constants", help="print the constant table"
                   ).set_defaults(func=_cmd_constants)
    sub.add_parser("list", help="print series/closed-form/identity catalogs"
                   ).set_defaults(func=_cmd_list)
    return parser


def run(argv: list[str] | None = None) -> int:
    raw = os.environ.get("SKEWLOG_MAX_TERMS")
    if raw is not None:
        from .core_numerics import DEFAULT_CACHE_LIMIT
        from .series_engine import set_max_terms

        try:
            set_max_terms(int(raw))
        except ValueError:
            print(f"error: SKEWLOG_MAX_TERMS={raw!r} is not an integer from "
                  f"1 to {DEFAULT_CACHE_LIMIT}", file=sys.stderr)
            return 2

    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_floats(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)

    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:  # DomainError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
    except BrokenPipeError:
        # reader went away (e.g. piped into head); suppress the shutdown
        # flush on the dead descriptor and exit like other UNIX tools
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
