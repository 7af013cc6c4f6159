"""Per-layer probes for the traced run.

Each probe times calls into one layer's public functions from outside, on
inputs drawn from the run's seed, and records the work those calls did
(terms, quadrature evaluations, records).  ``reps`` repeats every timed set;
medians are taken over all repetitions.  The CLI and cold-cache probes run
in fresh child interpreters because what they measure is start-up.
"""

from __future__ import annotations

import random
import statistics
import sys
import time

import tracing
import workloads as W

_ns = time.perf_counter_ns


def _p50(xs) -> float:
    return statistics.median(xs)


def _batched_us(fn, args: list[tuple], batch: int, reps: int) -> list[float]:
    """Per-call microseconds, one figure per batch of ``batch`` calls."""
    out = []
    for _ in range(reps):
        for k in range(0, len(args) - batch + 1, batch):
            chunk = args[k:k + batch]
            t0 = _ns()
            for a in chunk:
                fn(*a)
            out.append((_ns() - t0) / batch / 1e3)
    return out


def _each(fn, args: list[tuple], reps: int, kwargs=None):
    """(per-call ns, results of the last repetition)."""
    times, results = [], []
    for _ in range(reps):
        results = []
        for i, a in enumerate(args):
            kw = kwargs[i] if kwargs else {}
            t0 = _ns()
            r = fn(*a, **kw)
            times.append(_ns() - t0)
            results.append(r)
    return times, results


def core_numerics(sk, rng, reps):
    n_max = 20_000
    sk.harmonic(n_max)  # cache fill is probed separately, cold
    ns = [(rng.randint(1, n_max),) for _ in range(4000)]
    mu_args = [(rng.randint(1, 64), W.mus(rng, 1)[0]) for _ in range(400)]
    return {
        "core_numerics.skew_harmonic_us.p50":
            (_p50(_batched_us(sk.skew_harmonic, ns, 200, reps)), "us"),
        "core_numerics.skew_mu_us.p50":
            (_p50(_batched_us(sk.skew_harmonic_mu, mu_args, 50, reps)), "us"),
    }


def cache_fill(reps, env):
    """Fill the harmonic cache through n in a cold interpreter."""
    out = {}
    for n in (10_000, 200_000):
        code = ("import time, skewlog; t = time.perf_counter(); "
                f"skewlog.harmonic({n}); print(time.perf_counter() - t)")
        samples = [float(W.run_child([sys.executable, "-c", code], env,
                                     check=True).stdout) for _ in range(reps)]
        out[f"core_numerics.cache_fill_ms.n{n}"] = (_p50(samples) * 1e3, "ms")
    return out


def _closed_form_args(sk, rng):
    args, kwargs = [], []
    for cid, (lo, needs_mu, _) in W._CLOSED_DOMAINS.items():
        for t in W._interior(rng, 6, lo):
            args.append((sk.ClosedFormId[cid], t))
            kwargs.append({"mu": W.mus(rng, 1)[0]} if needs_mu else {})
    return args, kwargs


def polylog_and_closed_forms(sk, rng, reps):
    xs = [(x,) for x in W.stratified(rng, 2000, -1.0, 1.0)]
    args, kwargs = _closed_form_args(sk, rng)
    cf = sk.closed_forms
    calls = [0]

    def counting(layer, fn):
        def counted(*a, **k):
            calls[0] += 1
            return fn(*a, **k)
        return counted

    restore = tracing.patch(counting, layers=("polylog",))
    try:
        for a, kw in zip(args, kwargs):
            cf.closed_form(*a, **kw)
    finally:
        restore()
    cf_ns, _ = _each(cf.closed_form, args, reps, kwargs)
    js = [(x,) for x in W.stratified(rng, 50, -1.0, W.MAX_INTERIOR_T)]
    j_ns, _ = _each(cf.int_li2_over_1mt, js, reps)
    return {
        "polylog.li2_us.p50": (_p50(_batched_us(sk.li2, xs, 100, reps)), "us"),
        "polylog.li3_us.p50": (_p50(_batched_us(sk.li3, xs, 100, reps)), "us"),
        "polylog.calls": (float(calls[0]), "count"),
        "closed_forms.call_us.p50": (_p50(cf_ns) / 1e3, "us"),
        "closed_forms.int_li2_us.p50": (_p50(j_ns) / 1e3, "us"),
    }


def series_engine(sk, rng, reps):
    se, sid = sk.series_engine, sk.SeriesId
    interior, kwargs = [], []
    for name in W.SERIES:
        lo = -1.0 / 3.0 if name == "SKEW_OVER_NSQ" else -1.0
        for t in W.stratified(rng, 4, max(lo, -0.9), 0.9):
            interior.append((sid[name], t, 1e-10))
            kwargs.append({"mu": W.mus(rng, 1)[0]} if name in W.MU_SERIES else {})
    i_ns, i_res = _each(se.sum_series, interior, reps, kwargs)
    alt = [(sid[n], t, 10.0 ** -rng.uniform(6, 11))
           for n, t in W.ENDPOINTS_ALTERNATING]
    one = [(sid[n], t, 10.0 ** -rng.uniform(6, 11))
           for n, t in W.ENDPOINTS_ONE_SIGNED]
    a_ns, a_res = _each(se.sum_series, alt, reps)
    o_ns, o_res = _each(se.sum_series, one, reps)
    endpoint = a_res + o_res
    every = i_res + endpoint
    return {
        "series_engine.interior_us.p50": (_p50(i_ns) / 1e3, "us"),
        "series_engine.interior_terms.mean":
            (statistics.fmean(r.terms_used for r in i_res), "count"),
        "series_engine.alt_endpoint_ms.p50": (_p50(a_ns) / 1e6, "ms"),
        "series_engine.onesided_endpoint_ms.p50": (_p50(o_ns) / 1e6, "ms"),
        "series_engine.endpoint_terms.mean":
            (statistics.fmean(r.terms_used for r in endpoint), "count"),
        "series_engine.converged_ratio":
            (sum(r.converged() for r in every) / len(every), "ratio"),
    }


def quadrature(sk, rng, reps):
    q = sk.quadrature
    cfg = W.quad_config(sk, 1e-10)
    singular_cfg = W.quad_config(sk, W.SINGULAR_QUAD_TOL)
    zs = [(z, cfg) for z in W.stratified(rng, 6, -0.95, 0.95)]
    g_ns, g_res = _each(q.double_integral_g, zs, reps)
    G_ns, G_res = _each(q.double_integral_bigG, zs, reps)
    ends = [(-1.0, singular_cfg), (1.0, singular_cfg)]
    sg_ns, sg_res = _each(q.double_integral_g, ends, reps)
    sG_ns, sG_res = _each(q.double_integral_bigG, ends, reps)
    xs = [(W.eq21_integrand, 0.0, x, cfg) for x in W.stratified(rng, 8, 0.05, 1.0)]
    i_ns, i_res = _each(q.integrate_1d, xs, reps)
    every = g_res + G_res + sg_res + sG_res + i_res
    total_ns = (sum(g_ns) + sum(G_ns) + sum(sg_ns) + sum(sG_ns) + sum(i_ns)) / reps
    evals = sum(r.terms_used for r in every)
    return {
        "quadrature.g_ms.p50": (_p50(g_ns) / 1e6, "ms"),
        "quadrature.bigG_ms.p50": (_p50(G_ns) / 1e6, "ms"),
        "quadrature.singular_ms.p50": (_p50(sg_ns + sG_ns) / 1e6, "ms"),
        "quadrature.evals.mean": (evals / len(every), "count"),
        "quadrature.ns_per_eval": (total_ns / evals, "ns"),
        "quadrature.converged_ratio":
            (sum(r.converged() for r in every) / len(every), "ratio"),
        "quadrature.int1d_us.p50": (_p50(i_ns) / 1e3, "us"),
    }


def verifier(sk, reps):
    v = sk.verifier
    per_id = {ident: [] for ident in v.IdentityId}
    stages = {k: [] for k in ("serialize_json", "serialize_csv",
                              "parse_json", "parse_csv")}
    records = 0
    for _ in range(reps):
        for ident in v.IdentityId:
            t0 = _ns()
            v.verify_identity(ident)
            per_id[ident].append(_ns() - t0)
        report = v.verify_all()
        records = len(report.records)
        t0 = _ns()
        js = v.serialize_report(report, "json")
        t1 = _ns()
        cs = v.serialize_report(report, "csv")
        t2 = _ns()
        v.parse_report(js, "json")
        t3 = _ns()
        v.parse_report(cs, "csv")
        t4 = _ns()
        for k, dt in zip(stages, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            stages[k].append(dt)
    out = {f"verifier.{ident.name}.ms": (_p50(ns) / 1e6, "ms")
           for ident, ns in per_id.items()}
    out["verifier.records"] = (float(records), "count")
    for k, ns in stages.items():
        out[f"verifier.{k}_ms"] = (_p50(ns) / 1e6, "ms")
    return out


#: One fixed invocation per CLI verb (the cli-process workload draws its own).
CLI_PROBES = {
    "list": ["list"],
    "constants": ["constants"],
    "eval_li2": ["eval", "li2", "--x", "0.75"],
    "eval_series": ["eval", "series", "--id", "CENTERED_SQ", "--t", "0.9"],
    "eval_integral_g": ["eval", "integral-g", "--z", "0.5"],
    "verify_id": ["verify", "--id", "EQ15"],
    "report": ["report"],
}


def cli(reps, env):
    def wall(argv):
        t0 = time.perf_counter()
        W.run_child(argv, env, check=True)
        return time.perf_counter() - t0

    import_code = ("import time; t = time.perf_counter(); import skewlog.cli; "
                   "print(time.perf_counter() - t)")
    out = {
        "cli.interp_s": (_p50([wall([sys.executable, "-c", "pass"])
                               for _ in range(reps)]), "s"),
        "cli.import_s": (_p50([float(W.run_child(
            [sys.executable, "-c", import_code], env, check=True).stdout)
            for _ in range(reps)]), "s"),
    }
    for verb, argv in CLI_PROBES.items():
        samples = [wall([sys.executable, "-m", "skewlog.cli"] + argv)
                   for _ in range(reps)]
        out[f"cli.{verb}_s.p50"] = (_p50(samples), "s")
    return out


def run_all(sk, seed: int, reps: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, whichever workload is traced: a traced run
    prints all the per_layer names that BENCHMARK.json declares."""
    rng = random.Random(seed)
    env = W.child_env()
    out = {}
    out.update(core_numerics(sk, rng, reps))
    out.update(cache_fill(reps, env))
    out.update(polylog_and_closed_forms(sk, rng, reps))
    out.update(series_engine(sk, rng, reps))
    out.update(quadrature(sk, rng, reps))
    out.update(verifier(sk, reps))
    out.update(cli(reps, env))
    return out
