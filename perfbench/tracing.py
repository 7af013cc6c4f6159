"""Spans at the library's layer boundaries, recorded from outside.

``patch`` replaces each layer's public functions, in every skewlog module
that holds a reference to them, by a wrapper, and returns a function that
puts the originals back.  ``Tracer`` supplies a wrapper that records a span
(layer, start, end, parent span, op id) in flat in-memory arrays; the spans
are written out once, when the run ends.  A layer's self time is the
duration of its spans minus the time their child spans cover.

Nothing here touches ``src/``: the library runs unmodified, and the cost of
the wrappers shows up as the tracing overhead the traced run reports.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

LAYERS = ("core_numerics", "polylog", "series_engine", "closed_forms",
          "quadrature", "verifier", "cli")
#: Span names: the layers, plus the benchmark's own root span of each op.
NAMES = LAYERS + ("harness",)

#: The functions through which one layer is entered from another (or from
#: a caller).  ``_li2_ext`` is private but the verifier calls it directly.
BOUNDARY = {
    "core_numerics": ("harmonic", "harmonic2", "skew_harmonic", "odd_harmonic",
                      "skew_harmonic_mu", "digamma_half_diff"),
    "polylog": ("li2", "li3"),
    "series_engine": ("sum_series", "coefficient"),
    "closed_forms": ("closed_form", "closed_form_eq17", "int_li2_over_1mt",
                     "abel_sides", "_li2_ext"),
    "quadrature": ("integrate_1d", "double_integral_g", "double_integral_bigG",
                   "double_integral_eq31", "double_integral_eq32"),
    "verifier": ("verify_all", "verify_identity", "serialize_report",
                 "parse_report"),
    "cli": ("run",),
}


def patch(make_wrapper, layers=LAYERS):
    """Wrap the boundary functions of ``layers`` wherever skewlog binds
    them; returns the function that restores the originals."""
    modules = [importlib.import_module("skewlog")] + [
        importlib.import_module(f"skewlog.{layer}") for layer in LAYERS]
    wrapped = {}
    for layer in layers:
        home = importlib.import_module(f"skewlog.{layer}")
        for name in BOUNDARY[layer]:
            fn = getattr(home, name)
            wrapped[id(fn)] = (fn, make_wrapper(layer, fn))
    saved = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                saved.append((module, attr, value))
                setattr(module, attr, hit[1])

    def restore() -> None:
        for module, attr, value in saved:
            setattr(module, attr, value)

    return restore


#: The traced loop stops taking new ops once this many spans exist.
SPAN_CAP = 200_000


class Tracer:
    """In-memory span store; stops taking new ops once ``SPAN_CAP`` spans exist."""

    def __init__(self) -> None:
        self.layer = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.stack = [-1]
        self.op_id = -1
        self.ops = 0

    def wrap(self, layer: str, fn):
        lid = NAMES.index(layer)
        clock = time.perf_counter_ns
        stack, starts, ends = self.stack, self.start, self.end

        def span(*args, **kwargs):
            idx = len(starts)
            self.layer.append(lid)
            self.parent.append(stack[-1])
            self.op.append(self.op_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        span.__wrapped__ = fn
        return span

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span."""
        self.op_id = op_id
        self.ops += 1
        return self.wrap("harness", fn)(*args)

    def full(self) -> bool:
        return len(self.start) >= SPAN_CAP

    def self_times(self) -> dict[str, tuple[float, float]]:
        """layer -> (self ms per traced op, spans per traced op)."""
        child = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_ns = [0] * len(NAMES)
        count = [0] * len(NAMES)
        for i, lid in enumerate(self.layer):
            self_ns[lid] += self.end[i] - self.start[i] - child[i]
            count[lid] += 1
        ops = max(self.ops, 1)
        return {n: (self_ns[k] / 1e6 / ops, count[k] / ops)
                for k, n in enumerate(NAMES)}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": NAMES,
                       "columns": ["layer", "start_ns", "end_ns", "parent", "op"],
                       "spans": list(zip(self.layer, self.start, self.end,
                                         self.parent, self.op))}, fh)
