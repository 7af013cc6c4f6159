"""The four benchmark workloads.

Each workload turns a seed into a fixed list of inputs ("specs"), binds the
library calls for them, and checks every result outside the timed region.
One op is one timed call of ``Workload.call``; the op loop in ``run.py``
cycles through the specs in their seeded order, one caller at a time.

A check yields an ``Outcome``.  An op *fails* on an exception, a FAIL
verdict, a non-zero exit, a non-CONVERGED status on an in-domain input, a
wrong record count, a broken round trip, or a value further than
``GROSS_REL`` from its reference (a wrong answer rather than a loose bound).
Separately, every value that has a reference is tested against its reported
``error_bound`` (series, quadrature) or a stated tolerance (polylogs, closed
forms, constants); a miss is a *bound violation*, reported as a ratio and
not as a failure, because the seed tree has known violations near t = 1.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for the run (reference cache, spans).
OUT = ROOT / ".perfbench_out"

#: Beyond this relative distance from the reference a value is wrong.
GROSS_REL = 1e-5
#: Stated accuracy of li2/li3 (polylog module docstring), absolute.
POLYLOG_TOL = 1e-14
#: Stated tolerance for closed forms and the antiderivative, times max(1, |ref|).
CLOSED_TOL = 1e-12
#: PASS records per identity in the full verification report of the seed
#: tree (every record passes; none is FAIL or SKIPPED).  A change that turns
#: a PASS into a SKIPPED or drops a grid point fails the op.
REPORT_PASS = {
    "EQ1_DIGAMMA": 1000, "EQ2": 6, "EQ3": 6, "EQ4": 1, "EQ5": 6, "EQ8": 6,
    "EQ9": 1, "EQ10": 1, "EQ11": 6, "EQ12": 6, "EQ13": 6, "EQ14_LEMMA6": 1000,
    "EQ15": 1, "EQ16": 1, "EQ17": 5, "EQ18": 1, "EQ19": 1, "EQ20": 5,
    "EQ21": 4, "EQ22": 20, "EQ24": 20, "EQ25_ABEL": 20, "EQ26": 5,
    "EQ27_RAMANUJAN": 7, "EQ28": 20, "EQ29": 7, "EQ30": 6, "EQ31": 1,
    "EQ32": 1, "LANDEN": 6, "H_EVEN_ODD_SPLIT": 5000}
#: Records in the full verification report.
REPORT_RECORDS = sum(REPORT_PASS.values())
#: The same for ``verify --id``, which runs the default grid only: the report
#: adds EQ29 and EQ30 at z = -1 and z = 1.
VERIFY_ID_PASS = {**REPORT_PASS, "EQ29": 5, "EQ30": 4}


def expected_summary(pass_counts: dict[str, int]) -> dict[str, dict[str, int]]:
    """Per-identity verdict counts with every record a PASS."""
    return {k: {"PASS": n, "FAIL": 0, "SKIPPED": 0} for k, n in pass_counts.items()}

NEAR_ONE = [1.0 - 10.0**-k for k in range(1, 13)]


@dataclass
class Outcome:
    failed: bool = False
    checked: int = 0       # values compared against a reference
    violated: int = 0      # of those, outside the bound or stated tolerance
    detail: str = ""


class Refs:
    """Double-double references, looked up by key (a list or tuple)."""

    def __init__(self, table: dict[str, list[float]]) -> None:
        # keys arrive as JSON text; tuples make the per-op lookup cheap
        self.values = {tuple(json.loads(k)): v for k, v in table.items()}

    def err(self, key, value: float) -> tuple[float, float]:
        """(value - reference, |reference|) without cancellation loss."""
        hi, lo = self.values[tuple(key)]
        return (value - hi) - lo, abs(hi)


def compare(out: Outcome, refs: Refs, key, bound: float, *values: float,
            scale_bound: bool = False) -> None:
    """Check values that should all equal the reference ``key``: one
    comparison, violated if any value is further than ``bound`` (times
    max(1, |ref|) when ``scale_bound``), failed if any is wrong outright."""
    out.checked += 1
    violated = False
    for value in values:
        if not math.isfinite(value):
            out.failed = True
            out.detail = f"{key}: non-finite value {value!r}"
            return
        err, mag = refs.err(key, value)
        scale = max(1.0, mag)
        violated |= abs(err) > (bound * scale if scale_bound else bound)
        if abs(err) > GROSS_REL * scale:
            out.failed = True
            out.detail = f"{key}: value {value!r} is {err:.3e} from the reference"
    out.violated += violated


def stratified(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k draws, one from each of k equal slices of [lo, hi)."""
    return [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]


def near_one(rng: random.Random, kmax: int = 12, count: int = 4) -> list[float]:
    """1 - 10^-k for one seeded k from each of ``count`` slices of 1..kmax,
    so every seed keeps the same share of hard removable-point inputs."""
    ks = list(range(1, kmax + 1))
    out = []
    for i in range(count):
        part = ks[i * len(ks) // count:(i + 1) * len(ks) // count]
        out.append(NEAR_ONE[rng.choice(part) - 1])
    return out


def mus(rng: random.Random, k: int) -> list[float]:
    """k stratified draws from (-1, 1]."""
    return [1.0 - 2.0 * (i + rng.random()) / k for i in range(k)]


def tolerances(rng: random.Random, k: int, hi_exp: float, lo_exp: float) -> list[float]:
    return [10.0 ** -e for e in stratified(rng, k, hi_exp, lo_exp)]


def latin(rng: random.Random, groups, k: int, lo: float, hi: float) -> dict:
    """k points per group, one in each of k equal slices of [lo, hi); within
    a slice the groups' points sit in distinct sub-slices, assigned by a
    seeded permutation.  Every slice is then covered evenly whatever the
    seed, which keeps the cost of an input set nearly seed-independent.
    Returns group -> [(point, rank of its sub-slice)]."""
    groups = list(groups)
    m = len(groups)
    out = {g: [] for g in groups}
    for i in range(k):
        for g, j in zip(groups, shuffled(rng, range(m))):
            out[g].append((lo + (hi - lo) * (i + (j + rng.random()) / m) / k, j))
    return out


def shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def import_library():
    """The library package (importing it loads every module but the CLI)."""
    return importlib.import_module("skewlog")


def eq21_integrand(t: float) -> float:
    """Integrand of the EQ21 quadrature term; log singularity at t = 0."""
    return (math.log1p(t) - 0.6931471805599453) * math.log(t) / (1.0 - t)


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.specs = self.make_specs(random.Random(seed))

    def make_specs(self, rng: random.Random) -> list:
        raise NotImplementedError

    def bind(self, tracer=None) -> None:
        """Resolve the library callables for every spec (re-run after the
        tracer patches or restores the library's functions)."""
        raise NotImplementedError

    def call(self, i: int):
        raise NotImplementedError

    def reference_keys(self, warm: list) -> list:
        raise NotImplementedError

    def check(self, i: int, result, refs: Refs) -> Outcome:
        raise NotImplementedError

    def warmup(self) -> list:
        """One call per spec: fills caches and compiles lazily built tables."""
        return [self.call(i) for i in range(len(self.specs))]

    def describe(self) -> list[str]:
        """Facts about the run's results worth a comment line."""
        return []

    def speed(self) -> float:
        """The machine's speed relative to the reference, measured between
        slices of ops; the op loop multiplies op times by it."""
        return calibration.kernel_speed()


# -- point-eval ------------------------------------------------------------

# closed form -> (domain's lower end, needs mu, largest k for 1 - 10^-k);
# every domain reaches up to t = 1.
_CLOSED_DOMAINS = {
    "EQ2": (-1.0, False, 12),
    "EQ3": (-1.0, False, 12),
    "EQ5": (-1.0, False, 7),      # PoleError within 1e-8 of 1
    "EQ8": (-1.0, False, 12),
    "EQ11": (-1.0, False, 12),
    "EQ12": (-1.0, False, 7),     # genuine pole at 1
    "EQ13": (-1.0, False, 12),
    "EQ17": (-1.0, False, 12),
    "EQ20": (-1.0 / 3.0, False, 12),
    "EQ22": (-1.0, True, 12),
    "EQ24": (-1.0, True, 12),
    "EQ25_ABEL": (-1.0, True, 12),
    "EQ26": (-1.0 / 3.0, False, 12),
    "EQ27_RAMANUJAN": (-1.0, False, 12),
    "EQ28": (-1.0, True, 12),
    "EQ29_G": (-1.0, False, 12),
    "EQ30_BIGG": (-1.0, False, 12),
    "LANDEN": (-1.0, False, 12),
}

SERIES = ("GF_SKEW", "GF_CENTERED", "SKEW_OVER_N", "CENTERED_OVER_N",
          "CENTERED_SHIFT", "SKEW_SQ", "CENTERED_SQ", "CENTERED_SQ_SHIFT",
          "SKEW_OVER_NSQ", "MU_LEWIN", "MU_DILOG", "MU_TRILOG", "RAMANUJAN_ODD")
MU_SERIES = ("MU_LEWIN", "MU_DILOG", "MU_TRILOG")
MAX_INTERIOR_T = 0.99
SERIES_TOLS = (1e-8, 1e-10, 1e-12)


def _interior(rng, k, lo):
    """k stratified points of [max(lo, -0.99), 0.99]."""
    return stratified(rng, k, max(lo, -MAX_INTERIOR_T), MAX_INTERIOR_T)


class PointEval(Workload):
    """Cheap single-point calls: polylogs, closed forms, the antiderivative
    and interior series sums."""

    name = "point-eval"

    def make_specs(self, rng):
        specs = []
        for fn in ("li2", "li3"):
            xs = stratified(rng, 36, -1.0, 1.0) + near_one(rng)
            specs += [(fn, x) for x in xs]
        for cid, (lo, needs_mu, kmax) in _CLOSED_DOMAINS.items():
            ts = _interior(rng, 8, lo) + near_one(rng, kmax)
            ms = mus(rng, len(ts)) if needs_mu else [None] * len(ts)
            specs += [("cf", cid, t, mu) for t, mu in zip(ts, shuffled(rng, ms))]
        xs = stratified(rng, 20, -1.0, MAX_INTERIOR_T) + near_one(rng)
        specs += [("J", x) for x in xs]
        # A series costs about log(1/tol)/(1-|t|) terms, so the points
        # nearest |t| = 0.99 set the workload's throughput.  Those are fixed
        # anchors (one per series, alternating sign); the seeded points fill
        # |t| <= 0.9 evenly across series.
        full = [sid for sid in SERIES if sid != "SKEW_OVER_NSQ"]
        points = latin(rng, full, 6, -0.9, 0.9)
        points.update(latin(rng, ["SKEW_OVER_NSQ"], 6, -1.0 / 3.0, 0.9))
        for n, sid in enumerate(SERIES):
            mu = sid in MU_SERIES
            edge = MAX_INTERIOR_T if n % 2 == 0 or sid == "SKEW_OVER_NSQ" \
                else -MAX_INTERIOR_T
            specs.append(("series", sid, edge, 1e-10, 0.5 if mu else None))
            ms = mus(rng, 6) if mu else [None] * 6
            for (t, j), m in zip(points[sid], shuffled(rng, ms)):
                specs.append(("series", sid, t, SERIES_TOLS[j % 3], m))
        return shuffled(rng, specs)

    def bind(self, tracer=None):
        sk = import_library()
        cf, sid = sk.ClosedFormId, sk.SeriesId
        ops = []
        for s in self.specs:
            if s[0] == "li2":
                ops.append((sk.li2, (s[1],), {}))
            elif s[0] == "li3":
                ops.append((sk.li3, (s[1],), {}))
            elif s[0] == "cf":
                kw = {} if s[3] is None else {"mu": s[3]}
                ops.append((sk.closed_forms.closed_form, (cf[s[1]], s[2]), kw))
            elif s[0] == "J":
                ops.append((sk.closed_forms.int_li2_over_1mt, (s[1],), {}))
            else:
                ops.append((sk.series_engine.sum_series,
                            (sid[s[1]], s[2], s[3]), {"mu": s[4]}))
        self.ops = ops

    def call(self, i):
        fn, args, kw = self.ops[i]
        return fn(*args, **kw)

    def _key(self, s):
        if s[0] in ("li2", "li3", "J"):
            return list(s)
        if s[0] == "cf":
            return ["cf", s[1], s[2], s[3]]
        return ["series", s[1], s[2], s[4]]

    def reference_keys(self, warm):
        return [self._key(s) for s in self.specs]

    def check(self, i, result, refs):
        s = self.specs[i]
        out = Outcome()
        if isinstance(result, BaseException):
            return Outcome(True, detail=f"{s}: {result!r}")
        if s[0] in ("li2", "li3"):
            compare(out, refs, self._key(s), POLYLOG_TOL, result)
        elif s[0] in ("cf", "J"):
            compare(out, refs, self._key(s), CLOSED_TOL, result, scale_bound=True)
        else:
            if result.status.name != "CONVERGED":
                return Outcome(True, detail=f"{s}: status {result.status.name}")
            compare(out, refs, self._key(s), result.error_bound, result.value)
        return out


# -- endpoint-quad ---------------------------------------------------------

#: (series, t) pairs with an endpoint rule; the first five average an
#: alternating sum, the rest sum directly and add a tail model.
ENDPOINTS_ALTERNATING = (
    ("GF_CENTERED", 1.0), ("CENTERED_OVER_N", 1.0), ("CENTERED_SHIFT", 1.0),
    ("CENTERED_SQ", -1.0), ("CENTERED_SQ_SHIFT", -1.0))
ENDPOINTS_ONE_SIGNED = (
    ("CENTERED_OVER_N", -1.0), ("CENTERED_SHIFT", -1.0), ("CENTERED_SQ", 1.0),
    ("CENTERED_SQ_SHIFT", 1.0), ("SKEW_OVER_N", -1.0), ("SKEW_OVER_NSQ", 1.0))
#: Tolerance the verifier uses for quadrature at the singular points z = +-1.
SINGULAR_QUAD_TOL = 1e-6


def quad_config(sk, tol: float):
    return sk.QuadratureConfig(abs_tol=tol, rel_tol=1e-12, max_subdivisions=4000)


class EndpointQuad(Workload):
    """Heavy calls: series at t = +-1 and the 1D/2D quadratures."""

    name = "endpoint-quad"

    def make_specs(self, rng):
        specs = []
        # endpoint cost steps with tol (the term count doubles), so every
        # rule gets ten tolerances spread evenly over 1e-6 .. 1e-11
        rules = ENDPOINTS_ALTERNATING + ENDPOINTS_ONE_SIGNED
        exps = latin(rng, range(len(rules)), 10, 6.0, 11.0)
        for r, (sid, t) in enumerate(rules):
            specs += [("endpoint", sid, t, 10.0 ** -e) for e, _ in exps[r]]
        # quadrature cost climbs steeply as |z| -> 1: fixed anchors there,
        # seeded points in |z| <= 0.95
        zs = latin(rng, ("g", "G"), 10, -0.95, 0.95)
        tol_exps = latin(rng, ("g", "G"), 10, 8.0, 11.0)
        for kind in ("g", "G"):
            specs += [(kind, z, 10.0 ** -e) for (z, _), (e, _) in
                      zip(zs[kind], shuffled(rng, tol_exps[kind]))]
            specs += [(kind, -0.99, 1e-10), (kind, 0.99, 1e-10),
                      (kind, -1.0, SINGULAR_QUAD_TOL), (kind, 1.0, SINGULAR_QUAD_TOL)]
        for kind in ("eq31", "eq32"):
            specs += [(kind, tol) for tol in tolerances(rng, 2, 8.0, 11.0)]
        xs = stratified(rng, 8, 0.0, 1.0)
        xs[-1] = 1.0
        specs += [("int1d", x, tol) for x, tol in
                  zip(xs, shuffled(rng, tolerances(rng, 8, 8.0, 11.0)))]
        return shuffled(rng, specs)

    def bind(self, tracer=None):
        sk = import_library()
        q, se = sk.quadrature, sk.series_engine
        ops = []
        for s in self.specs:
            if s[0] == "endpoint":
                ops.append((se.sum_series, (sk.SeriesId[s[1]], s[2], s[3])))
            elif s[0] == "g":
                ops.append((q.double_integral_g, (s[1], quad_config(sk, s[2]))))
            elif s[0] == "G":
                ops.append((q.double_integral_bigG, (s[1], quad_config(sk, s[2]))))
            elif s[0] == "eq31":
                ops.append((q.double_integral_eq31, (quad_config(sk, s[1]),)))
            elif s[0] == "eq32":
                ops.append((q.double_integral_eq32, (quad_config(sk, s[1]),)))
            else:
                ops.append((q.integrate_1d,
                            (eq21_integrand, 0.0, s[1], quad_config(sk, s[2]))))
        self.ops = ops

    def call(self, i):
        fn, args = self.ops[i]
        return fn(*args)

    def _key(self, s):
        if s[0] == "endpoint":
            return ["series", s[1], s[2], None]
        if s[0] == "g":
            return ["cf", "EQ29_G", s[1], None]
        if s[0] == "G":
            return ["cf", "EQ30_BIGG", s[1], None]
        if s[0] in ("eq31", "eq32"):
            return ["const", s[0].upper()]
        return ["int1d", s[1]]

    def reference_keys(self, warm):
        return [self._key(s) for s in self.specs]

    def check(self, i, result, refs):
        s = self.specs[i]
        if isinstance(result, BaseException):
            return Outcome(True, detail=f"{s}: {result!r}")
        if result.status.name != "CONVERGED":
            return Outcome(True, detail=f"{s}: status {result.status.name}")
        out = Outcome()
        compare(out, refs, self._key(s), result.error_bound, result.value)
        return out


# -- verify-report ---------------------------------------------------------

_CONSTANT_IDS = {"EQ4", "EQ9", "EQ10", "EQ15", "EQ16", "EQ18", "EQ19",
                 "EQ31", "EQ32"}
_CLOSED_IDS = {"EQ2", "EQ3", "EQ5", "EQ8", "EQ11", "EQ12", "EQ13", "EQ17",
               "EQ20", "EQ22", "EQ24", "EQ25_ABEL", "EQ26", "LANDEN",
               "EQ27_RAMANUJAN", "EQ28"}


def record_key(identity: str, params: dict, note: str) -> list:
    """Reference for the value both sides of a record should equal."""
    if identity in _CONSTANT_IDS:
        return ["const", identity]
    if identity in _CLOSED_IDS:
        return ["cf", identity, params["t"], params.get("mu")]
    if identity == "EQ21":
        return ["cf", "EQ20", params["t"], None]
    if identity == "EQ29":
        return ["cf", "EQ29_G", params["t"], None]
    if identity == "EQ30":
        return ["cf", "EQ30_BIGG", params["t"], None]
    n = int(params["n"])
    if identity == "EQ1_DIGAMMA":
        return ["psi_half_diff", n]
    if identity == "EQ14_LEMMA6":
        return ["eq14", n]
    if identity == "H_EVEN_ODD_SPLIT":
        return ["skew", 2 * n if note.startswith("even") else 2 * n + 1]
    raise KeyError(f"no reference for identity {identity}")


class VerifyReport(Workload):
    """verify_all, then the report written to JSON and CSV and read back."""

    name = "verify-report"
    expected = expected_summary(REPORT_PASS)
    record_keys = None       # reference key of each record, from the warm-up

    def make_specs(self, rng):
        return [("verify_all",)]   # the catalog is fixed; the seed changes nothing

    def bind(self, tracer=None):
        sk = import_library()
        v = sk.verifier
        self.verify_all = v.verify_all
        self.serialize = v.serialize_report
        self.parse = v.parse_report

    def call(self, i):
        report = self.verify_all()
        js = self.serialize(report, "json")
        cs = self.serialize(report, "csv")
        return report, self.parse(js, "json"), self.parse(cs, "csv")

    def reference_keys(self, warm):
        report = warm[0][0]
        self.record_keys = [
            record_key(r.identity.name, dict(r.params), r.note)
            for r in report.records]
        return self.record_keys

    def check(self, i, result, refs):
        if isinstance(result, BaseException):
            return Outcome(True, detail=repr(result))
        report, from_json, from_csv = result
        recs = report.records
        if len(recs) != REPORT_RECORDS:
            return Outcome(True, detail=f"{len(recs)} records, expected {REPORT_RECORDS}")
        recount: dict[str, dict[str, int]] = {}
        for r in recs:
            row = recount.setdefault(r.identity.name,
                                     {"PASS": 0, "FAIL": 0, "SKIPPED": 0})
            row[r.verdict.name] += 1
        if recount != self.expected:
            bad = {k: v for k, v in recount.items() if self.expected.get(k) != v}
            return Outcome(True, detail=f"verdict counts {bad} differ from the seed's")
        if report.summary != recount:
            return Outcome(True, detail="summary disagrees with the records")
        if from_json.records != recs or from_json.summary != report.summary:
            return Outcome(True, detail="JSON round trip changed the report")
        if from_csv.summary != report.summary or any(
                (a.identity, a.params, a.lhs, a.rhs, a.residual, a.tolerance,
                 a.verdict) != (b.identity, b.params, b.lhs, b.rhs, b.residual,
                                b.tolerance, b.verdict)
                for a, b in zip(from_csv.records, recs, strict=True)):
            return Outcome(True, detail="CSV round trip changed a record")
        out = Outcome()
        for r, key in zip(recs, self.record_keys, strict=True):
            if r.verdict.name != "SKIPPED":
                # both sides should sit within the record's tolerance of the truth
                compare(out, refs, key, r.tolerance, r.lhs, r.rhs)
        return out

    def describe(self):
        return [f"records={REPORT_RECORDS}, all PASS"]


# -- cli-process -----------------------------------------------------------

IDENTITIES = tuple(REPORT_PASS)
CONSTANT_NAMES = ("CATALAN_G", "EULER_GAMMA", "LI2_HALF", "LI2_MINUS1",
                  "LI3_HALF", "LI3_MINUS1", "LOG2", "PI", "PI_SQ_OVER_12",
                  "PI_SQ_OVER_6", "ZETA3")
CATALOG_ROWS = {"series": 13, "closed": 18, "identity": 31}


def child_env() -> dict[str, str]:
    """Environment for a library child process: the tree's own sources and
    no term-cap override."""
    env = dict(os.environ)
    env.pop("SKEWLOG_MAX_TERMS", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict[str, str] | None = None,
              timeout: float = 120.0, check: bool = False
              ) -> subprocess.CompletedProcess:
    """Run a helper child to completion (killed and reaped on timeout)."""
    return subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=timeout, check=check)


#: The verdict of one ``verify --id`` text line (a note may follow it).
_VERDICT = re.compile(r" tol=\S+ (PASS|FAIL|SKIPPED)\b")


def _parse_fields(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        k, sep, v = line.partition("=")
        if sep:
            out[k.strip()] = v.strip()
    return out


class CliProcess(Workload):
    """Sequential ``python -m skewlog.cli`` children, one at a time."""

    name = "cli-process"
    # Two of every eight ops write the full report, so latency_ms.p90 falls
    # well inside the report group instead of on its edge.  Each cycle of
    # eight is shuffled on its own: a run ends after a seed-independent
    # number of ops, and every prefix of the list then holds the same mix.
    cycles = 10

    def make_specs(self, rng):
        specs = []
        for _ in range(self.cycles):
            sid = rng.choice(SERIES)
            lo = -1.0 / 3.0 if sid == "SKEW_OVER_NSQ" else -1.0
            mu = mus(rng, 1)[0] if sid in MU_SERIES else None
            specs += shuffled(rng, [
                ("list",),
                ("constants",),
                ("eval_li2", stratified(rng, 1, -1.0, 1.0)[0]),
                ("eval_series", sid, stratified(rng, 1, max(lo, -0.9), 0.9)[0],
                 rng.choice((1e-8, 1e-10)), mu),
                ("eval_integral_g", stratified(rng, 1, -1.0, 1.0)[0]),
                ("verify_id", rng.choice(IDENTITIES)),
                ("report",),
                ("report",),
            ])
        return specs

    @staticmethod
    def argv(spec) -> list[str]:
        kind = spec[0]
        if kind in ("list", "constants", "report"):
            return [kind]
        if kind == "eval_li2":
            return ["eval", "li2", "--x", repr(spec[1])]
        if kind == "eval_series":
            a = ["eval", "series", "--id", spec[1], "--t", repr(spec[2]),
                 "--tol", repr(spec[3])]
            return a + (["--mu", repr(spec[4])] if spec[4] is not None else [])
        if kind == "eval_integral_g":
            return ["eval", "integral-g", "--z", repr(spec[1])]
        return ["verify", "--id", spec[1]]

    def bind(self, tracer=None):
        self.cli_run = importlib.import_module("skewlog.cli").run
        self.env = child_env()
        self.prefix = [sys.executable, "-m", "skewlog.cli"]
        self.spawn = tracer.wrap("cli", self._spawn) if tracer else self._spawn

    def _spawn(self, argv):
        proc = subprocess.run(self.prefix + argv, capture_output=True,
                              text=True, env=self.env, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def call(self, i):
        return self.spawn(self.argv(self.specs[i]))

    def speed(self):
        return calibration.spawn_speed(self.env)

    def warmup(self):
        """Each verb once in-process, so the CLI code path is loaded and
        its caches filled before any child is timed."""
        results, seen = [], set()
        for s in self.specs:
            if s[0] in seen:
                continue
            seen.add(s[0])
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = self.cli_run(self.argv(s))
            if code != 0:
                raise RuntimeError(f"warm-up {self.argv(s)} exited {code}")
            results.append(buf.getvalue())
        return results

    def _key(self, s):
        if s[0] == "eval_li2":
            return ["li2", s[1]]
        if s[0] == "eval_series":
            return ["series", s[1], s[2], s[4]]
        if s[0] == "eval_integral_g":
            return ["cf", "EQ29_G", s[1], None]
        return None

    def reference_keys(self, warm):
        keys = [["const", n] for n in CONSTANT_NAMES]
        return keys + [k for k in map(self._key, self.specs) if k is not None]

    def check(self, i, result, refs):
        s = self.specs[i]
        if isinstance(result, BaseException):
            return Outcome(True, detail=f"{s}: {result!r}")
        code, out, err = result
        if code != 0:
            return Outcome(True, detail=f"{s}: exit {code}: {err.strip()[-200:]}")
        res = Outcome()
        kind = s[0]
        if kind == "list":
            rows = {k: 0 for k in CATALOG_ROWS}
            for line in out.splitlines():
                head = line.split(" ", 1)[0]
                if head in rows:
                    rows[head] += 1
            if rows != CATALOG_ROWS:
                return Outcome(True, detail=f"list printed {rows}")
        elif kind == "constants":
            fields = _parse_fields(out)
            if sorted(fields) != sorted(CONSTANT_NAMES):
                return Outcome(True, detail=f"constants printed {sorted(fields)}")
            for name, text in fields.items():
                v = float(text)
                compare(res, refs, ["const", name], math.ulp(v), v)
        elif kind in ("eval_li2", "eval_series", "eval_integral_g"):
            fields = _parse_fields(out)
            v = float(fields["value"])
            if kind == "eval_li2":
                compare(res, refs, self._key(s), POLYLOG_TOL, v)
            else:
                if fields.get("status") != "CONVERGED":
                    return Outcome(True, detail=f"{s}: status {fields.get('status')}")
                compare(res, refs, self._key(s), float(fields["error_bound"]), v)
        elif kind == "verify_id":
            lines = out.splitlines()
            summary = _parse_fields(lines[-1].replace("summary:", "").replace(" ", "\n"))
            counts = {k: int(summary[k]) for k in ("PASS", "FAIL", "SKIPPED")}
            verdicts = [m and m.group(1) for m in map(_VERDICT.search, lines[:-1])]
            want = expected_summary(VERIFY_ID_PASS)[s[1]]
            if counts != want or verdicts != ["PASS"] * want["PASS"]:
                return Outcome(True, detail=f"{s}: {lines[-1]}, expected {want}")
        else:
            obj = json.loads(out)
            recs = obj["records"]
            passed = sum(1 for r in recs if r["verdict"] == "PASS")
            if len(recs) != REPORT_RECORDS or passed != REPORT_RECORDS \
                    or obj["summary"] != expected_summary(REPORT_PASS):
                return Outcome(True, detail=f"report: {len(recs)} records, "
                                            f"{passed} PASS, expected {REPORT_RECORDS}")
        return res
