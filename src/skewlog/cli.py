"""Command-line front end.

Verbs: eval (any function, series or integral at a point), verify (one
identity or all of them), report (full verification run to JSON/CSV),
constants (the reference constant table), list (the series / closed-form /
identity catalogs).  Exit codes: 0 success or all-PASS, 1 any FAIL verdict,
2 usage or domain errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import series_engine
from ._version import __version__
from .closed_forms import (
    ClosedFormId,
    closed_form,
    closed_form_catalog,
    int_li2_over_1mt,
)
from .core_numerics import (
    CONSTANTS,
    digamma_half_diff,
    harmonic,
    harmonic2,
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
)
from .result import EvalResult, Status
from .series_engine import series_by_name, series_catalog, sum_series
from .verifier import (
    IdentityId,
    Report,
    Verdict,
    identity_catalog,
    serialize_report,
    summarize,
    verify_all,
    verify_identity,
)

_EVAL_TARGETS = (
    "li2", "li3", "harmonic", "harmonic2", "skew", "skew-mu",
    "digamma-half-diff", "jx", "series", "closed",
    "integral-g", "integral-bigg", "integral-eq31", "integral-eq32",
)


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _closed_id(name: str) -> ClosedFormId:
    try:
        return ClosedFormId[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown closed form {name!r}; valid ids: "
            f"{', '.join(ClosedFormId.__members__)}"
        ) from None


def _print_result(r: EvalResult) -> None:
    print(f"value={_fmt(r.value)}")
    print(f"error_bound={_fmt(r.error_bound)}")
    print(f"terms={r.terms_used}")
    print(f"status={r.status.value}")


def _need(args, flag: str):
    v = getattr(args, flag.lstrip("-").replace("-", "_"))
    if v is None:
        raise ValueError(f"this target requires {flag}")
    return v


def _quad_config(tol: float) -> QuadratureConfig:
    return QuadratureConfig(abs_tol=max(tol, 1e-15))


def _cmd_eval(args) -> int:
    t = args.target
    if t == "li2":
        print(f"value={_fmt(li2(_need(args, '--x')))}")
    elif t == "li3":
        print(f"value={_fmt(li3(_need(args, '--x')))}")
    elif t == "harmonic":
        print(f"value={_fmt(harmonic(_need(args, '--n')))}")
    elif t == "harmonic2":
        print(f"value={_fmt(harmonic2(_need(args, '--n')))}")
    elif t == "skew":
        print(f"value={_fmt(skew_harmonic(_need(args, '--n')))}")
    elif t == "skew-mu":
        print(f"value={_fmt(skew_harmonic_mu(_need(args, '--n'), _need(args, '--mu')))}")
    elif t == "digamma-half-diff":
        print(f"value={_fmt(digamma_half_diff(_need(args, '--n')))}")
    elif t == "jx":
        print(f"value={_fmt(int_li2_over_1mt(_need(args, '--x')))}")
    elif t == "series":
        sid = series_by_name(_need(args, "--id"))
        r = sum_series(sid, _need(args, "--t"), args.tol, mu=args.mu)
        if r.status is Status.DIVERGENT_INPUT:
            print(f"error: t outside the domain of {sid.name}",
                  file=sys.stderr)
            return 2
        _print_result(r)
    elif t == "closed":
        cid = _closed_id(_need(args, "--id"))
        v = closed_form(cid, _need(args, "--t"), mu=args.mu)
        print(f"value={_fmt(v)}")
    elif t == "integral-g":
        _print_result(double_integral_g(_need(args, "--z"),
                                        _quad_config(args.tol)))
    elif t == "integral-bigg":
        _print_result(double_integral_bigG(_need(args, "--z"),
                                           _quad_config(args.tol)))
    elif t == "integral-eq31":
        _print_result(double_integral_eq31(_quad_config(args.tol)))
    elif t == "integral-eq32":
        _print_result(double_integral_eq32(_quad_config(args.tol)))
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
        with open(out, mode) as fh:
            fh.write(payload)


def _cmd_verify(args) -> int:
    if bool(args.id) == bool(args.all):
        raise ValueError("verify needs exactly one of --id or --all")
    if args.all:
        report = verify_all()
    else:
        try:
            identity = IdentityId[args.id.upper()]
        except KeyError:
            raise ValueError(
                f"unknown identity {args.id!r}; valid ids: "
                f"{', '.join(IdentityId.__members__)}") from None
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


def _cmd_report(args) -> int:
    report = verify_all()
    _emit(serialize_report(report, args.format), args.out)
    failed = any(r.verdict is Verdict.FAIL for r in report.records)
    return 1 if failed else 0


def _cmd_constants() -> int:
    for name in sorted(CONSTANTS):
        print(f"{name}={_fmt(CONSTANTS[name])}")
    return 0


def _cmd_list() -> int:
    for name, eq, domain in sorted(series_catalog()):
        print(f"series {name} eq={eq} domain={domain}")
    for name, domain in sorted(closed_form_catalog()):
        print(f"closed {name} domain={domain}")
    for name, grid in sorted(identity_catalog()):
        print(f"identity {name} grid={grid}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewlog",
        description="Evaluate and verify skew-harmonic series identities.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a function at a point")
    p_eval.add_argument("target", choices=_EVAL_TARGETS)
    p_eval.add_argument("--x", type=float)
    p_eval.add_argument("--t", type=float)
    p_eval.add_argument("--z", type=float)
    p_eval.add_argument("--n", type=int)
    p_eval.add_argument("--mu", type=float)
    p_eval.add_argument("--id", type=str)
    p_eval.add_argument("--tol", type=float, default=1e-10)

    p_verify = sub.add_parser("verify", help="check identities")
    p_verify.add_argument("--id", type=str)
    p_verify.add_argument("--all", action="store_true")
    p_verify.add_argument("--tol", type=float)
    p_verify.add_argument("--format", choices=("text", "json", "csv"),
                          default="text")
    p_verify.add_argument("--out", type=str)

    p_report = sub.add_parser("report", help="full verification report")
    p_report.add_argument("--format", choices=("json", "csv"),
                          default="json")
    p_report.add_argument("--out", type=str)

    sub.add_parser("constants", help="print the constant table")
    sub.add_parser("list", help="print series/closed-form/identity catalogs")
    return parser


def run(argv: list[str] | None = None) -> int:
    raw = os.environ.get("SKEWLOG_MAX_TERMS")
    if raw is not None:
        try:
            series_engine.set_max_terms(int(raw))
        except ValueError:
            print(f"error: SKEWLOG_MAX_TERMS={raw!r} is not a positive "
                  "integer", file=sys.stderr)
            return 2

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)

    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "constants":
            return _cmd_constants()
        if args.command == "list":
            return _cmd_list()
        raise ValueError(f"unknown command {args.command!r}")
    except (DomainError, PoleError, ValueError, KeyError) as exc:
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
